//===- bytecode/BytecodeCompiler.cpp - AST -> register bytecode ------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
//
// The lowering discipline that keeps RunStats bit-identical to the AST
// walker: every AST node contributes exactly one charging point, emitted
// in pre-order.  Leaves whose whole action is trivial fuse charge+action
// into one instruction; composite nodes emit a Charge marker, then their
// children's code, then raw action instructions.  Raw instructions (Move,
// Jump, CondBranch, stores, InitSlot, ...) charge nothing because the AST
// walker had no node there.  Once a body is lowered, markChargeRuns turns
// each Charge that another Charge follows into a ChargeRun carrying the
// length of the straight-line run from it (see Bytecode.h).
//
// Register model: expression results flow through temp registers, which
// are frame slots past the body's source layout.  compileExpr(E, Dst)
// leaves E's value in Dst and may clobber any register > Dst; sequential
// children that must coexist (call arguments) are laid out contiguously
// at Dst, Dst+1, ..., which is exactly the calling convention (callees
// read arguments from the caller's register window).
//
//===----------------------------------------------------------------------===//

#include "bytecode/BytecodeCompiler.h"

#include "hierarchy/Program.h"
#include "opt/CompiledProgram.h"
#include "support/Metrics.h"

#include <limits>

using namespace selspec;

namespace {

metrics::Counter CtrCompiledFunctions("bytecode.compiled_functions");
metrics::Counter CtrCodeBytes("bytecode.code_bytes");
metrics::Counter CtrCompileFallbacks("bytecode.compile_fallbacks");

class ModuleBuilder {
public:
  ModuleBuilder(const CompiledProgram &CP, BcModule &Mod)
      : CP(CP), P(CP.program()), Mod(Mod) {}

  bool run();
  const std::string &error() const { return Error; }

private:
  /// One open InlinedExpr region during body compilation.
  struct OpenRegion {
    uint32_t Boundary;
    uint32_t Dst;
    std::vector<uint32_t> ExitJumps; ///< pcs of Jumps to patch to End.
  };

  /// Per-function compilation state (saved/restored around closure
  /// compilation, which nests).
  struct FnState {
    BcFunction *Fn = nullptr;
    uint32_t MaxReg = 0;
    bool IsMethod = false;
    std::vector<OpenRegion> Open;
  };

  BcFunction *compileMethod(const CompiledMethod &CM);
  BcFunction *getOrCompileClosure(const ClosureLitExpr *Lit);
  bool compileInto(BcFunction &Fn, const Expr *Body,
                   const FrameLayout &SrcLayout);
  bool compileExpr(const Expr *E, uint32_t Dst);
  void markChargeRuns(BcFunction &Fn);

  bool fail(const std::string &Why) {
    if (Error.empty())
      Error = Why;
    return false;
  }

  uint32_t emit(BcOp Op, SourceLoc Loc, uint8_t K = 0, uint32_t A = 0,
                uint32_t B = 0, uint32_t C = 0, uint32_t D = 0) {
    Insn I;
    I.Op = Op;
    I.K = K;
    I.A = static_cast<uint16_t>(A);
    I.B = static_cast<uint16_t>(B);
    I.C = static_cast<uint16_t>(C);
    I.D = D;
    S.Fn->Code.push_back(I);
    S.Fn->Locs.push_back(Loc);
    return static_cast<uint32_t>(S.Fn->Code.size() - 1);
  }

  uint32_t here() const { return static_cast<uint32_t>(S.Fn->Code.size()); }
  void patch(uint32_t Pc, uint32_t Target) { S.Fn->Code[Pc].D = Target; }

  /// Registers a destination/operand register; the uint16 encoding bound
  /// is checked once per function in compileInto.
  bool touchReg(uint32_t Reg) {
    if (Reg + 1 > S.MaxReg)
      S.MaxReg = Reg + 1;
    return true;
  }

  bool index16(uint32_t V) { return V <= 0xFFFF; }

  const CompiledProgram &CP;
  const Program &P;
  BcModule &Mod;
  FnState S;
  std::string Error;
};

bool ModuleBuilder::run() {
  const std::vector<CompiledMethod> &Versions = CP.versions();
  Mod.ByVersion.assign(Versions.size(), nullptr);
  for (const CompiledMethod &CM : Versions) {
    if (!CM.Body)
      continue; // builtin: invoked as a primitive, no body to lower
    BcFunction *Fn = compileMethod(CM);
    if (!Fn)
      return false;
    Mod.ByVersion[CM.Index] = Fn;
  }
  Mod.NumFunctions = static_cast<uint32_t>(Mod.Functions.size());
  for (const std::unique_ptr<BcFunction> &Fn : Mod.Functions)
    Mod.CodeBytes += Fn->Code.size() * sizeof(Insn);
  return true;
}

BcFunction *ModuleBuilder::compileMethod(const CompiledMethod &CM) {
  if (!CM.Layout.Resolved) {
    fail("method version " + P.methodLabel(CM.Source) +
         " was not slot-resolved");
    return nullptr;
  }
  Mod.Functions.push_back(std::make_unique<BcFunction>());
  BcFunction *Fn = Mod.Functions.back().get();
  Fn->Source = CM.Source;
  Fn->Method = &CM;
  Fn->Name = P.methodLabel(CM.Source) + " #" + std::to_string(CM.Index);

  FnState Saved = std::move(S);
  S = FnState();
  S.Fn = Fn;
  S.IsMethod = true;
  bool Ok = compileInto(*Fn, CM.Body.get(), CM.Layout);
  S = std::move(Saved);
  return Ok ? Fn : nullptr;
}

BcFunction *ModuleBuilder::getOrCompileClosure(const ClosureLitExpr *Lit) {
  auto It = Mod.ByClosure.find(Lit);
  if (It != Mod.ByClosure.end())
    return It->second;
  if (!Lit->Layout.Resolved) {
    fail("closure literal was not slot-resolved");
    return nullptr;
  }
  Mod.Functions.push_back(std::make_unique<BcFunction>());
  BcFunction *Fn = Mod.Functions.back().get();
  Fn->Lit = Lit;
  Fn->Name = "closure @" + std::to_string(Lit->getLoc().Line) + ":" +
             std::to_string(Lit->getLoc().Col);

  FnState Saved = std::move(S);
  S = FnState();
  S.Fn = Fn;
  S.IsMethod = false;
  bool Ok = compileInto(*Fn, Lit->Body.get(), Lit->Layout);
  S = std::move(Saved);
  if (!Ok)
    return nullptr;
  Mod.ByClosure.emplace(Lit, Fn);
  return Fn;
}

bool ModuleBuilder::compileInto(BcFunction &Fn, const Expr *Body,
                                const FrameLayout &SrcLayout) {
  Fn.FirstTemp = SrcLayout.NumSlots;
  S.MaxReg = SrcLayout.NumSlots;
  if (!compileExpr(Body, SrcLayout.NumSlots))
    return false;
  emit(BcOp::RetLocal, Body->getLoc(), 0, SrcLayout.NumSlots);
  markChargeRuns(Fn);
  if (S.MaxReg > 0xFFFF)
    return fail("function '" + Fn.Name + "' needs " +
                std::to_string(S.MaxReg) + " registers (uint16 encoding)");
  Fn.NumTemps = S.MaxReg - SrcLayout.NumSlots;
  Fn.Layout = SrcLayout;
  Fn.Layout.NumSlots = S.MaxReg;
  return true;
}

void ModuleBuilder::markChargeRuns(BcFunction &Fn) {
  // Walk backwards so each Charge sees the length of the run after it.
  // Instructions keep their places: a jump into the middle of a run lands
  // on a shorter ChargeRun (or the final Charge) and still charges right.
  uint32_t Run = 0;
  for (size_t Pc = Fn.Code.size(); Pc-- != 0;) {
    Insn &I = Fn.Code[Pc];
    if (I.Op != BcOp::Charge) {
      Run = 0;
      continue;
    }
    if (++Run > 1) {
      I.Op = BcOp::ChargeRun;
      I.D = Run;
    }
  }
}

bool ModuleBuilder::compileExpr(const Expr *E, uint32_t Dst) {
  touchReg(Dst);
  const SourceLoc Loc = E->getLoc();
  const uint8_t Kind = static_cast<uint8_t>(E->getKind());

  switch (E->getKind()) {
  case Expr::Kind::IntLit: {
    int64_t V = cast<IntLitExpr>(E)->Value;
    if (V >= std::numeric_limits<int32_t>::min() &&
        V <= std::numeric_limits<int32_t>::max()) {
      emit(BcOp::LoadInt, Loc, 1, Dst, 0, 0,
           static_cast<uint32_t>(static_cast<int32_t>(V)));
    } else {
      S.Fn->IntPool.push_back(V);
      emit(BcOp::LoadInt, Loc, 0, Dst, 0, 0,
           static_cast<uint32_t>(S.Fn->IntPool.size() - 1));
    }
    return true;
  }

  case Expr::Kind::BoolLit:
    emit(BcOp::LoadBool, Loc, cast<BoolLitExpr>(E)->Value ? 1 : 0, Dst);
    return true;

  case Expr::Kind::StrLit:
    S.Fn->StrPool.push_back(&cast<StrLitExpr>(E)->Value);
    emit(BcOp::LoadStr, Loc, 0, Dst, 0, 0,
         static_cast<uint32_t>(S.Fn->StrPool.size() - 1));
    return true;

  case Expr::Kind::NilLit:
    emit(BcOp::LoadNil, Loc, 0, Dst);
    return true;

  case Expr::Kind::VarRef: {
    const auto *V = cast<VarRefExpr>(E);
    if (!index16(V->Slot.Index))
      return fail("variable index exceeds uint16 encoding");
    switch (V->Slot.Loc) {
    case VarLoc::Slot:
      emit(BcOp::LoadVarSlot, Loc, 0, Dst, V->Slot.Index);
      return true;
    case VarLoc::Cell:
      emit(BcOp::LoadVarCell, Loc, 0, Dst, V->Slot.Index);
      return true;
    case VarLoc::Capture:
      emit(BcOp::LoadVarCapture, Loc, 0, Dst, V->Slot.Index);
      return true;
    case VarLoc::Unresolved:
      break;
    }
    return fail("unresolved variable '" + P.Syms.name(V->Name) + "'");
  }

  case Expr::Kind::AssignVar: {
    const auto *A = cast<AssignVarExpr>(E);
    emit(BcOp::Charge, Loc, Kind);
    if (!compileExpr(A->Value.get(), Dst))
      return false;
    if (!index16(A->Slot.Index))
      return fail("variable index exceeds uint16 encoding");
    switch (A->Slot.Loc) {
    case VarLoc::Slot:
      emit(BcOp::StoreSlot, Loc, 0, Dst, A->Slot.Index);
      return true;
    case VarLoc::Cell:
      emit(BcOp::StoreCell, Loc, 0, Dst, A->Slot.Index);
      return true;
    case VarLoc::Capture:
      emit(BcOp::StoreCapture, Loc, 0, Dst, A->Slot.Index);
      return true;
    case VarLoc::Unresolved:
      break;
    }
    return fail("assignment to unresolved variable '" +
                P.Syms.name(A->Name) + "'");
  }

  case Expr::Kind::Let: {
    const auto *L = cast<LetExpr>(E);
    emit(BcOp::Charge, Loc, Kind);
    if (!compileExpr(L->Init.get(), Dst))
      return false;
    if (!index16(L->Slot.Index))
      return fail("variable index exceeds uint16 encoding");
    // Mirrors the AST walker: a Cell-located let makes a fresh cell per
    // execution; anything else stores into the plain slot.
    if (L->Slot.Loc == VarLoc::Cell)
      emit(BcOp::LetCell, Loc, 0, Dst, L->Slot.Index);
    else
      emit(BcOp::StoreSlot, Loc, 0, Dst, L->Slot.Index);
    emit(BcOp::LoadNilRaw, Loc, 0, Dst);
    return true;
  }

  case Expr::Kind::Seq: {
    const auto *Sq = cast<SeqExpr>(E);
    emit(BcOp::Charge, Loc, Kind);
    if (Sq->Elems.empty()) {
      emit(BcOp::LoadNilRaw, Loc, 0, Dst);
      return true;
    }
    for (const ExprPtr &Elem : Sq->Elems)
      if (!compileExpr(Elem.get(), Dst))
        return false;
    return true;
  }

  case Expr::Kind::If: {
    const auto *I = cast<IfExpr>(E);
    emit(BcOp::Charge, Loc, Kind);
    if (!compileExpr(I->Cond.get(), Dst))
      return false;
    uint32_t Cb = emit(BcOp::CondBranch, I->Cond->getLoc(), 0, Dst);
    if (!compileExpr(I->Then.get(), Dst))
      return false;
    uint32_t J = emit(BcOp::Jump, Loc);
    patch(Cb, here());
    if (I->Else) {
      if (!compileExpr(I->Else.get(), Dst))
        return false;
    } else {
      emit(BcOp::LoadNilRaw, Loc, 0, Dst);
    }
    patch(J, here());
    return true;
  }

  case Expr::Kind::While: {
    const auto *W = cast<WhileExpr>(E);
    emit(BcOp::Charge, Loc, Kind);
    uint32_t Loop = here();
    if (!compileExpr(W->Cond.get(), Dst))
      return false;
    uint32_t Cb = emit(BcOp::CondBranch, W->Cond->getLoc(), 1, Dst);
    if (!compileExpr(W->Body.get(), Dst))
      return false;
    emit(BcOp::Jump, Loc, 0, 0, 0, 0, Loop);
    patch(Cb, here());
    emit(BcOp::LoadNilRaw, Loc, 0, Dst);
    return true;
  }

  case Expr::Kind::Send: {
    const auto *Sd = cast<SendExpr>(E);
    if (Sd->Args.size() > 0xFFFF)
      return fail("send arity exceeds uint16 encoding");
    emit(BcOp::Charge, Loc, Kind);
    for (size_t I = 0; I != Sd->Args.size(); ++I)
      if (!compileExpr(Sd->Args[I].get(), Dst + static_cast<uint32_t>(I)))
        return false;

    BcSite Site;
    Site.S = Sd;
    BcOp Op;
    switch (Sd->Binding.Kind) {
    case SendBindKind::Dynamic:
      Op = BcOp::CallDyn;
      break;
    case SendBindKind::Static:
      Op = BcOp::CallStatic;
      break;
    case SendBindKind::StaticSelect:
      Op = BcOp::CallSelect;
      break;
    case SendBindKind::InlinePrim:
      Op = BcOp::CallPrim;
      Site.Prim = P.method(Sd->Binding.Target).Prim;
      break;
    case SendBindKind::Predicted:
      Op = BcOp::CallPred;
      Site.Prim = P.method(Sd->Binding.Target).Prim;
      break;
    case SendBindKind::FeedbackGuard:
      Op = BcOp::CallFeedback;
      Site.TargetPrim = P.method(Sd->Binding.Target).Prim;
      break;
    default:
      return fail("unknown send binding kind " +
                  std::to_string(static_cast<unsigned>(Sd->Binding.Kind)));
    }
    Site.IcSlot = Mod.NumIcSlots++;
    S.Fn->Sites.push_back(Site);
    emit(Op, Loc, 0, Dst, Dst, static_cast<uint32_t>(Sd->Args.size()),
         static_cast<uint32_t>(S.Fn->Sites.size() - 1));
    return true;
  }

  case Expr::Kind::ClosureCall: {
    const auto *Call = cast<ClosureCallExpr>(E);
    if (Call->Args.size() > 0xFFFF)
      return fail("closure-call arity exceeds uint16 encoding");
    emit(BcOp::Charge, Loc, Kind);
    if (!compileExpr(Call->Callee.get(), Dst))
      return false;
    for (size_t I = 0; I != Call->Args.size(); ++I)
      if (!compileExpr(Call->Args[I].get(),
                       Dst + 1 + static_cast<uint32_t>(I)))
        return false;
    emit(BcOp::CallClosure, Loc, 0, Dst, Dst,
         static_cast<uint32_t>(Call->Args.size()));
    return true;
  }

  case Expr::Kind::ClosureLit: {
    const auto *Lit = cast<ClosureLitExpr>(E);
    BcFunction *CF = getOrCompileClosure(Lit);
    if (!CF)
      return false;
    S.Fn->Closures.push_back(BcClosureRef{Lit, CF});
    emit(BcOp::MakeClosure, Loc, 0, Dst, 0, 0,
         static_cast<uint32_t>(S.Fn->Closures.size() - 1));
    return true;
  }

  case Expr::Kind::New: {
    const auto *N = cast<NewExpr>(E);
    if (!N->Class.isValid())
      return fail("unresolved class in new expression");
    BcNewSite Site;
    Site.N = N;
    Site.LayoutSize =
        static_cast<uint32_t>(P.Classes.info(N->Class).Layout.size());
    S.Fn->NewSites.push_back(Site);
    emit(BcOp::NewObj, Loc, 0, Dst, 0, 0,
         static_cast<uint32_t>(S.Fn->NewSites.size() - 1));
    for (const auto &[SlotName, Init] : N->Inits) {
      if (!compileExpr(Init.get(), Dst + 1))
        return false;
      int Idx = P.Classes.slotIndex(N->Class, SlotName);
      if (Idx < 0 || !index16(static_cast<uint32_t>(Idx)))
        return fail("unresolvable slot initializer in new expression");
      emit(BcOp::InitSlot, Init->getLoc(), 0, Dst,
           static_cast<uint32_t>(Idx), Dst + 1);
    }
    return true;
  }

  case Expr::Kind::SlotGet: {
    const auto *G = cast<SlotGetExpr>(E);
    emit(BcOp::Charge, Loc, Kind);
    if (!compileExpr(G->Object.get(), Dst))
      return false;
    S.Fn->SlotSites.push_back(BcSlotSite{G->SlotName, Mod.NumSlotCacheSlots++});
    emit(BcOp::GetSlot, Loc, 0, Dst, Dst, 0,
         static_cast<uint32_t>(S.Fn->SlotSites.size() - 1));
    return true;
  }

  case Expr::Kind::SlotSet: {
    const auto *St = cast<SlotSetExpr>(E);
    emit(BcOp::Charge, Loc, Kind);
    if (!compileExpr(St->Object.get(), Dst))
      return false;
    if (!compileExpr(St->Value.get(), Dst + 1))
      return false;
    S.Fn->SlotSites.push_back(BcSlotSite{St->SlotName, Mod.NumSlotCacheSlots++});
    emit(BcOp::SetSlot, Loc, 0, Dst, Dst, Dst + 1,
         static_cast<uint32_t>(S.Fn->SlotSites.size() - 1));
    return true;
  }

  case Expr::Kind::Return: {
    const auto *R = cast<ReturnExpr>(E);
    emit(BcOp::Charge, Loc, Kind);
    if (R->Value) {
      if (!compileExpr(R->Value.get(), Dst))
        return false;
    } else {
      emit(BcOp::LoadNilRaw, Loc, 0, Dst);
    }
    // A return lexically inside its matching inlined region resolves
    // statically: land the value in the region's result register and jump
    // to the region's end.  (The innermost matching region corresponds to
    // the nearest enclosing InlinedExpr the AST walker's unwinding would
    // reach first.)
    for (auto It = S.Open.rbegin(); It != S.Open.rend(); ++It) {
      if (It->Boundary != R->Boundary)
        continue;
      if (It->Dst != Dst)
        emit(BcOp::Move, Loc, 0, It->Dst, Dst);
      It->ExitJumps.push_back(emit(BcOp::Jump, Loc));
      return true;
    }
    if (R->Boundary == 0 && S.IsMethod) {
      emit(BcOp::RetLocal, Loc, 0, Dst);
      return true;
    }
    emit(BcOp::RetNonLocal, Loc, 0, Dst, 0, 0, R->Boundary);
    return true;
  }

  case Expr::Kind::Inlined: {
    const auto *In = cast<InlinedExpr>(E);
    emit(BcOp::Charge, Loc, Kind);
    emit(BcOp::StackCheck, Loc);
    if (In->BindingSlots.size() != In->Bindings.size())
      return fail("inlined body is missing binding slot assignments");
    for (size_t I = 0; I != In->Bindings.size(); ++I) {
      if (!compileExpr(In->Bindings[I].second.get(), Dst))
        return false;
      const SlotRef &Where = In->BindingSlots[I];
      if (!index16(Where.Index))
        return fail("binding index exceeds uint16 encoding");
      // Mirrors the AST walker's binding stores (Cell -> fresh cell,
      // anything else -> plain slot).
      if (Where.Loc == VarLoc::Cell)
        emit(BcOp::LetCell, In->Bindings[I].second->getLoc(), 0, Dst,
             Where.Index);
      else
        emit(BcOp::StoreSlot, In->Bindings[I].second->getLoc(), 0, Dst,
             Where.Index);
    }
    S.Open.push_back(OpenRegion{In->Boundary, Dst, {}});
    uint32_t Start = here();
    if (!compileExpr(In->Body.get(), Dst))
      return false;
    uint32_t End = here();
    for (uint32_t J : S.Open.back().ExitJumps)
      patch(J, End);
    S.Fn->Regions.push_back(
        BcRegion{Start, End, In->Boundary, static_cast<uint16_t>(Dst)});
    S.Open.pop_back();
    return true;
  }
  }
  return fail("unknown expression kind");
}

} // namespace

BcModule selspec::compileToBytecode(const CompiledProgram &CP) {
  BcModule Mod;
  ModuleBuilder B(CP, Mod);
  if (B.run()) {
    Mod.Ok = true;
    CtrCompiledFunctions.add(Mod.NumFunctions);
    CtrCodeBytes.add(Mod.CodeBytes);
  } else {
    Mod.Ok = false;
    Mod.Error = B.error();
    CtrCompileFallbacks.add();
  }
  return Mod;
}
