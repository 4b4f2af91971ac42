//===- opt/Inliner.h - Method and closure-call inlining --------*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Splices callee bodies into caller bodies.  Two cases:
///
///  - Method inlining: a statically-bound send is replaced by an
///    InlinedExpr that binds fresh (renamed) formals to the actual
///    argument expressions and splices the callee's body with its
///    method-level returns retargeted to the InlinedExpr's boundary.
///    All of the callee's bound names (formals, lets, closure params) are
///    renamed to fresh symbols so closures propagated from the caller
///    cannot be captured by callee bindings.
///
///  - Closure-call inlining: a call of a statically-known closure literal
///    is replaced by an InlinedExpr binding the closure's parameters; the
///    body is spliced verbatim (no renaming, no return retargeting — the
///    closure's non-local returns already target the right boundary).
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_OPT_INLINER_H
#define SELSPEC_OPT_INLINER_H

#include "hierarchy/Program.h"

namespace selspec {

class Inliner {
public:
  /// \p Syms is mutated (gensym); one Inliner per compiled method body so
  /// boundaries and renamed names are unique within it.  Names are
  /// numbered per Inliner, so compiling the same version again re-interns
  /// the names of the first compile instead of growing the table.
  explicit Inliner(SymbolTable &Syms) : Syms(Syms) {}

  /// Inlines user method \p Callee called with \p Args.
  std::unique_ptr<InlinedExpr> inlineMethodCall(const MethodInfo &Callee,
                                                std::vector<ExprPtr> Args,
                                                CallSiteId Origin,
                                                SourceLoc Loc);

  /// Inlines a call of closure literal \p Lit with \p Args.
  std::unique_ptr<InlinedExpr>
  inlineClosureCall(const ClosureLitExpr &Lit, std::vector<ExprPtr> Args,
                    SourceLoc Loc);

private:
  uint32_t freshBoundary() { return NextBoundary++; }

  SymbolTable &Syms;
  uint32_t NextBoundary = 1;
  uint32_t NextRename = 0;
};

} // namespace selspec

#endif // SELSPEC_OPT_INLINER_H
