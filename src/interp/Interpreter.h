//===- interp/Interpreter.h - Instrumented AST interpreter -----*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a CompiledProgram, honoring the optimizer's binding
/// annotations (dynamic dispatch, static call, version selection, inlined
/// primitive, class prediction) and charging the CostModel.  The same
/// interpreter both gathers profiles (filling a CallGraph with
/// call-site-exact weighted arcs, the paper's PIC-based profiling) and
/// measures optimized executions (dispatch counts and modeled cycles for
/// Figure 5, invoked-version bits for Figure 6).
///
/// Non-local returns: `return` inside a closure unwinds to the closure's
/// home method activation (Cecil semantics), which the Figure 1
/// `overlaps`/`includes` pattern relies on; inlined bodies catch their own
/// rewritten return boundary.
///
/// This is the semantic oracle of the two execution tiers.  It owns only
/// the AST walk; primitives, traps, guards, stats publication and the
/// send protocol live in ExecCore (interp/ExecCore.h), which the bytecode
/// tier runs too, so the tiers share every semantic decision by
/// construction rather than by transcription.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_INTERP_INTERPRETER_H
#define SELSPEC_INTERP_INTERPRETER_H

#include "interp/ExecCore.h"

#include <vector>

namespace selspec {

class Interpreter : public ExecProtocol<Interpreter> {
public:
  /// \p CP is shared, not owned (see ExecCore).
  explicit Interpreter(const CompiledProgram &CP, RunOptions Opts = {},
                       CostModel Costs = {})
      : ExecProtocol(CP, Opts, Costs) {}

private:
  friend class ExecProtocol<Interpreter>;

  Value eval(const Expr *E, Frame &F, Control &C);
  Value evalSend(const SendExpr *S, Frame &F, Control &C);
  Value evalInlined(const InlinedExpr *In, Frame &F, Control &C);
  // Call arguments travel on a shared stack (ArgStack): a caller records
  // the current depth (ArgsBase), evaluates its arguments on top, and the
  // callee consumes exactly the entries above ArgsBase.  Entries are
  // indexed, never held by reference across eval, because nested sends
  // push (and may reallocate) above them; the core binds them into the
  // callee's frame before any nested eval runs.
  bool evalArgs(const std::vector<ExprPtr> &ArgExprs, Frame &F, Control &C);
  bool chargeNode(const Expr *E, Control &C);

  // ExecProtocol hooks: a method version's body is its optimized AST, a
  // closure's is its literal.
  const CompiledMethod *methodBody(const CompiledMethod &CM) { return &CM; }
  const ClosureLitExpr *closureBody(Obj *Closure) { return Closure->Lit; }
  Value runBody(const CompiledMethod &CM, Frame &F, Control &C) {
    return eval(CM.Body.get(), F, C);
  }
  Value runBody(const ClosureLitExpr &Lit, Frame &F, Control &C) {
    return eval(Lit.Body.get(), F, C);
  }

  /// Shared argument stack; see evalArgs for the discipline.
  std::vector<Value> ArgStack;
};

} // namespace selspec

#endif // SELSPEC_INTERP_INTERPRETER_H
