//===- opt/Inliner.cpp - Method and closure-call inlining ------------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "opt/Inliner.h"

#include <unordered_map>

using namespace selspec;

namespace {

/// Renames every bound name (let, closure param, pre-seeded formals) of a
/// cloned callee body to fresh symbols, honoring lexical shadowing, and
/// retargets method-level (boundary 0) returns to \p Boundary.
class BodyRewriter {
public:
  BodyRewriter(SymbolTable &Syms, uint32_t &NextRename, uint32_t Boundary)
      : Syms(Syms), NextRename(NextRename), Boundary(Boundary) {
    Scopes.emplace_back();
  }

  void seed(Symbol Old, Symbol Fresh) { Scopes.back()[Old.value()] = Fresh; }

  /// The next renaming of \p Old in this Inliner's numbering.
  Symbol fresh(Symbol Old) {
    return Syms.gensym(Syms.name(Old), NextRename++);
  }

  void rewrite(Expr *E) {
    switch (E->getKind()) {
    case Expr::Kind::IntLit:
    case Expr::Kind::BoolLit:
    case Expr::Kind::StrLit:
    case Expr::Kind::NilLit:
      return;
    case Expr::Kind::VarRef: {
      auto *V = cast<VarRefExpr>(E);
      V->Name = renamed(V->Name);
      return;
    }
    case Expr::Kind::AssignVar: {
      auto *A = cast<AssignVarExpr>(E);
      A->Name = renamed(A->Name);
      rewrite(A->Value.get());
      return;
    }
    case Expr::Kind::Let: {
      auto *L = cast<LetExpr>(E);
      rewrite(L->Init.get());
      Symbol Fresh = fresh(L->Name);
      Scopes.back()[L->Name.value()] = Fresh;
      L->Name = Fresh;
      return;
    }
    case Expr::Kind::Seq: {
      Scopes.emplace_back();
      for (ExprPtr &Elem : cast<SeqExpr>(E)->Elems)
        rewrite(Elem.get());
      Scopes.pop_back();
      return;
    }
    case Expr::Kind::If: {
      auto *I = cast<IfExpr>(E);
      rewrite(I->Cond.get());
      rewrite(I->Then.get());
      if (I->Else)
        rewrite(I->Else.get());
      return;
    }
    case Expr::Kind::While: {
      auto *W = cast<WhileExpr>(E);
      rewrite(W->Cond.get());
      rewrite(W->Body.get());
      return;
    }
    case Expr::Kind::Send:
      for (ExprPtr &A : cast<SendExpr>(E)->Args)
        rewrite(A.get());
      return;
    case Expr::Kind::ClosureCall: {
      auto *C = cast<ClosureCallExpr>(E);
      rewrite(C->Callee.get());
      for (ExprPtr &A : C->Args)
        rewrite(A.get());
      return;
    }
    case Expr::Kind::ClosureLit: {
      auto *C = cast<ClosureLitExpr>(E);
      Scopes.emplace_back();
      for (Symbol &S : C->Params) {
        Symbol Fresh = fresh(S);
        Scopes.back()[S.value()] = Fresh;
        S = Fresh;
      }
      rewrite(C->Body.get());
      Scopes.pop_back();
      return;
    }
    case Expr::Kind::New:
      for (auto &[Slot, Init] : cast<NewExpr>(E)->Inits)
        rewrite(Init.get());
      return;
    case Expr::Kind::SlotGet:
      rewrite(cast<SlotGetExpr>(E)->Object.get());
      return;
    case Expr::Kind::SlotSet: {
      auto *S = cast<SlotSetExpr>(E);
      rewrite(S->Object.get());
      rewrite(S->Value.get());
      return;
    }
    case Expr::Kind::Return: {
      auto *R = cast<ReturnExpr>(E);
      if (R->Boundary == 0)
        R->Boundary = Boundary;
      if (R->Value)
        rewrite(R->Value.get());
      return;
    }
    case Expr::Kind::Inlined:
      assert(false && "source bodies contain no InlinedExpr");
      return;
    }
  }

private:
  Symbol renamed(Symbol Old) const {
    for (auto It = Scopes.rbegin(), E = Scopes.rend(); It != E; ++It) {
      auto Found = It->find(Old.value());
      if (Found != It->end())
        return Found->second;
    }
    return Old; // free variable — impossible for method bodies, but safe
  }

  SymbolTable &Syms;
  uint32_t &NextRename;
  uint32_t Boundary;
  std::vector<std::unordered_map<uint32_t, Symbol>> Scopes;
};

} // namespace

std::unique_ptr<InlinedExpr>
Inliner::inlineMethodCall(const MethodInfo &Callee, std::vector<ExprPtr> Args,
                          CallSiteId Origin, SourceLoc Loc) {
  assert(!Callee.isBuiltin() && "builtins are inlined as primitives");
  assert(Args.size() == Callee.arity() && "arity mismatch");

  uint32_t Boundary = freshBoundary();
  ExprPtr Body = Callee.Body->clone();

  BodyRewriter RW(Syms, NextRename, Boundary);
  std::vector<std::pair<Symbol, ExprPtr>> Bindings;
  Bindings.reserve(Args.size());
  for (unsigned I = 0; I != Args.size(); ++I) {
    Symbol Fresh = RW.fresh(Callee.ParamNames[I]);
    RW.seed(Callee.ParamNames[I], Fresh);
    Bindings.emplace_back(Fresh, std::move(Args[I]));
  }
  RW.rewrite(Body.get());

  auto In = std::make_unique<InlinedExpr>(std::move(Bindings),
                                          std::move(Body), Boundary, Loc);
  In->OriginSite = Origin;
  return In;
}

std::unique_ptr<InlinedExpr>
Inliner::inlineClosureCall(const ClosureLitExpr &Lit,
                           std::vector<ExprPtr> Args, SourceLoc Loc) {
  assert(Args.size() == Lit.Params.size() && "closure arity mismatch");

  // The body keeps its names (its free variables refer to enclosing code
  // of the same compiled body) and its return boundaries (non-local
  // returns must keep unwinding past this splice), so the fresh boundary
  // below is never targeted — the InlinedExpr only provides the parameter
  // scope.
  std::vector<std::pair<Symbol, ExprPtr>> Bindings;
  Bindings.reserve(Args.size());
  for (unsigned I = 0; I != Args.size(); ++I)
    Bindings.emplace_back(Lit.Params[I], std::move(Args[I]));

  return std::make_unique<InlinedExpr>(std::move(Bindings),
                                       Lit.Body->clone(), freshBoundary(),
                                       Loc);
}
