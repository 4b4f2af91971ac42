//===- bytecode/BytecodeInterpreter.cpp - Register-bytecode tier -----------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
//
// Execution engine for BcModules: the dispatch loop and the inline
// caches, nothing else.  Every semantic decision a call, primitive,
// allocation or trap involves is made by ExecCore (src/interp/ExecCore.h),
// the same code the AST Interpreter runs, so the tiers cannot drift
// apart there.  What this file must keep in step with the AST walker by
// hand is only the node accounting of the loop itself: which
// instructions charge, with which Expr kind, in which order (the
// differential tests require bit-identical RunStats).
//
// The per-site inline cache: before falling back to the compressed
// dispatch table and version selection, a call instruction probes the
// per-thread BcIcEntry ways of its BcSite.  A hit must return exactly
// what the miss path would have (the program is immutable), so the
// substitution is invisible to RunStats; SELSPEC_IC_AUDIT=1 re-verifies
// every hit against ground-truth dispatch and counts
// `bytecode.ic_misdispatch`.
//
//===----------------------------------------------------------------------===//

#include "bytecode/BytecodeInterpreter.h"

#include "support/Metrics.h"

#include <cstdlib>

using namespace selspec;

namespace {
metrics::Counter CtrIcHits("bytecode.ic_hits");
metrics::Counter CtrIcMisses("bytecode.ic_misses");
metrics::Counter CtrIcMisdispatch("bytecode.ic_misdispatch");
} // namespace

BytecodeInterpreter::BytecodeInterpreter(const CompiledProgram &CP,
                                         const BcModule &Mod, RunOptions Opts,
                                         CostModel Costs)
    : ExecProtocol(CP, Opts, Costs), Mod(Mod), IcTable(Mod.NumIcSlots),
      SlotCaches(Mod.NumSlotCacheSlots) {
  assert(Mod.Ok && "executing a module that failed to compile");
  const char *Audit = std::getenv("SELSPEC_IC_AUDIT");
  IcAudit = Audit && Audit[0] && !(Audit[0] == '0' && Audit[1] == '\0');
}

std::vector<ExecCore::Publication>
BytecodeInterpreter::icPublications() const {
  return {{&CtrIcHits, IcHits},
          {&CtrIcMisses, IcMisses},
          {&CtrIcMisdispatch, IcMisdispatches}};
}

BytecodeInterpreter::~BytecodeInterpreter() {
  for (const auto &[To, N] : icPublications())
    To->add(N);
}

//===----------------------------------------------------------------------===//
// Inline caches
//===----------------------------------------------------------------------===//

bool BytecodeInterpreter::icFind(const BcSite &Site, MethodId &Target,
                                 int &Version) {
  const size_t N = ClassScratch.size();
  if (N > BcIcMaxArity) {
    ++IcMisses;
    return false;
  }
  for (BcIcEntry &E : IcTable[Site.IcSlot].Ways) {
    if (E.Arity != N)
      continue;
    bool Match = true;
    for (size_t I = 0; I != N; ++I)
      Match &= E.Classes[I] == ClassScratch[I];
    if (!Match)
      continue;
    ++IcHits;
    Target = E.Target;
    Version = E.Version;
    if (IcAudit) {
      // Re-derive the result from ground truth.  The program is immutable
      // during a run, so any divergence is an IC bug.
      MethodId Real = P.dispatch(Site.S->Generic, ClassScratch);
      int RealVersion =
          Real.isValid() ? CP.selectVersion(Real, ClassScratch) : -1;
      if (Real != Target || RealVersion != Version) {
        ++IcMisdispatches;
        E.Arity = 0xff; // drop the poisoned entry
        if (!Real.isValid())
          return false; // miss path raises the dispatch failure
        Target = Real;
        Version = RealVersion;
      }
    }
    return true;
  }
  ++IcMisses;
  return false;
}

void BytecodeInterpreter::icInsert(const BcSite &Site, MethodId Target,
                                   int Version) {
  const size_t N = ClassScratch.size();
  if (N > BcIcMaxArity)
    return;
  IcSlotState &Slot = IcTable[Site.IcSlot];
  // Fill an empty way first; evict round-robin once the site is full.
  BcIcEntry *E = nullptr;
  for (BcIcEntry &Way : Slot.Ways)
    if (Way.Arity == 0xff) {
      E = &Way;
      break;
    }
  if (!E) {
    E = &Slot.Ways[Slot.Victim];
    Slot.Victim = static_cast<uint8_t>((Slot.Victim + 1) % BcIcEntries);
  }
  E->Arity = static_cast<uint8_t>(N);
  for (size_t I = 0; I != N; ++I)
    E->Classes[I] = ClassScratch[I];
  E->Target = Target;
  E->Version = Version;
}

bool BytecodeInterpreter::lookupTarget(const BcSite &Site, MethodId &Target,
                                       int &Version) {
  if (icFind(Site, Target, Version))
    return true;
  Target = dispatchScratch(Site.S->Generic);
  if (!Target.isValid())
    return false;
  Version = CP.selectVersion(Target, ClassScratch);
  icInsert(Site, Target, Version);
  return true;
}

void BytecodeInterpreter::lookupVersion(const BcSite &Site, MethodId &Target,
                                        int &Version) {
  // The IC caches the run-time version selection; the target is the
  // statically-bound method (every entry at this site holds it).
  if (icFind(Site, Target, Version))
    return;
  Version = CP.selectVersion(Target, ClassScratch);
  icInsert(Site, Target, Version);
}

//===----------------------------------------------------------------------===//
// The dispatch loop
//===----------------------------------------------------------------------===//

Value BytecodeInterpreter::execute(const BcFunction &Fn, Frame &F,
                                   Control &C) {
  const Insn *const Code = Fn.Code.data();
  const SourceLoc *const Locs = Fn.Locs.data();
  // The register file: the frame's slot array.  Registers [0, FirstTemp)
  // are the body's locals, the rest are lowering temps.  The pointer is
  // stable for the whole activation (configure() sized the vector up
  // front, and callee frames are separate objects).
  Value *R = F.slotData();
  const Insn *Ip = Code;
  Value CallVal;
  // Hot-loop constants hoisted out of member indirections so they live in
  // registers across the dispatch gotos.
  const uint64_t MaxNodes = Opts.Limits.MaxNodes;
  const uint64_t NodeCost = Costs.NodeCost;
  const CancelToken *const Cancel = Opts.Cancel;

#if defined(__GNUC__) || defined(__clang__)
#define BC_UNLIKELY(X) __builtin_expect(!!(X), 0)
#define BC_LIKELY(X) __builtin_expect(!!(X), 1)
#else
#define BC_UNLIKELY(X) (X)
#define BC_LIKELY(X) (X)
#endif

  // The charge fast path, inlined at every charged instruction: exactly
  // the AST walker's chargeNode() accounting (same order, same sampled
  // deadline poll), with the source location materialized only on the
  // cold trap paths.
#define BC_CHARGE(KindV)                                                       \
  do {                                                                         \
    ++Stats.NodesEvaluated;                                                    \
    Stats.Cycles += NodeCost;                                                  \
    if (BC_UNLIKELY(Stats.NodesEvaluated > MaxNodes)) {                        \
      failNodeBudget(C, Locs[Ip - Code]);                                      \
      return Value::nil();                                                     \
    }                                                                          \
    if (BC_UNLIKELY((Stats.NodesEvaluated & DeadlineCheckMask) == 0) &&        \
        Cancel && Cancel->stopRequested()) {                                   \
      failDeadline(C, Locs[Ip - Code]);                                        \
      return Value::nil();                                                     \
    }                                                                          \
    ++Stats.NodeMix[static_cast<size_t>(KindV)];                               \
  } while (0)

#if defined(__GNUC__) || defined(__clang__)
  // Computed-goto dispatch: one indirect branch per instruction with a
  // per-opcode target the predictor can learn.  The table expands
  // SELSPEC_BC_OPS, which Bytecode.h checks against the BcOp order.
  static const void *const JumpTable[] = {
#define BC_OP_LABEL(Name) &&L_##Name,
      SELSPEC_BC_OPS(BC_OP_LABEL)
#undef BC_OP_LABEL
  };
#define BC_DISPATCH() goto *JumpTable[static_cast<uint8_t>(Ip->Op)]
  BC_DISPATCH();
#else
  // Portable fallback: a switch that fans out to the same function-scope
  // labels the computed-goto build uses.
#define BC_DISPATCH() goto DispatchTop
DispatchTop:
  switch (Ip->Op) {
#define BC_OP_CASE(Name)                                                       \
  case BcOp::Name:                                                             \
    goto L_##Name;
    SELSPEC_BC_OPS(BC_OP_CASE)
#undef BC_OP_CASE
  }
  return Value::nil(); // unreachable: the switch covers every opcode
#endif

  // ---- Charged, fused leaves ----

L_LoadInt: {
  const Insn &I = *Ip;
  BC_CHARGE(Expr::Kind::IntLit);
  R[I.A] = Value::ofInt(I.K ? static_cast<int64_t>(static_cast<int32_t>(I.D))
                            : Fn.IntPool[I.D]);
  ++Ip;
  BC_DISPATCH();
}

L_LoadBool: {
  const Insn &I = *Ip;
  BC_CHARGE(Expr::Kind::BoolLit);
  R[I.A] = Value::ofBool(I.K != 0);
  ++Ip;
  BC_DISPATCH();
}

L_LoadStr: {
  const Insn &I = *Ip;
  BC_CHARGE(Expr::Kind::StrLit);
  Obj *S = allocString(*Fn.StrPool[I.D], Locs[Ip - Code], C);
  if (!S)
    return Value::nil();
  R[I.A] = Value::ofObj(S);
  ++Ip;
  BC_DISPATCH();
}

L_LoadNil: {
  const Insn &I = *Ip;
  BC_CHARGE(Expr::Kind::NilLit);
  R[I.A] = Value::nil();
  ++Ip;
  BC_DISPATCH();
}

L_LoadVarSlot: {
  const Insn &I = *Ip;
  BC_CHARGE(Expr::Kind::VarRef);
  R[I.A] = R[I.B]; // locals live in the same array as the temps
  ++Ip;
  BC_DISPATCH();
}

L_LoadVarCell: {
  const Insn &I = *Ip;
  BC_CHARGE(Expr::Kind::VarRef);
  assert(F.cell(I.B) && "read of a cell before its let ran");
  R[I.A] = F.cell(I.B)->V;
  ++Ip;
  BC_DISPATCH();
}

L_LoadVarCapture: {
  const Insn &I = *Ip;
  BC_CHARGE(Expr::Kind::VarRef);
  R[I.A] = F.capture(I.B)->V;
  ++Ip;
  BC_DISPATCH();
}

  // ---- Charge marker for composite nodes ----

L_Charge: {
  BC_CHARGE(static_cast<Expr::Kind>(Ip->K));
  ++Ip;
  BC_DISPATCH();
}

L_ChargeRun: {
  // The whole run at once when no check can fire inside it: the budget
  // holds through its last node and, with a cancel token, no node count
  // in it is a multiple of DeadlineCheckMask + 1.  Otherwise this node
  // alone, exactly like Charge; the next instruction handles the rest.
  const uint64_t Before = Stats.NodesEvaluated;
  const uint64_t After = Before + Ip->D;
  if (BC_LIKELY(After <= MaxNodes &&
                (!Cancel || After <= (Before | DeadlineCheckMask)))) {
    Stats.NodesEvaluated = After;
    Stats.Cycles += NodeCost * Ip->D;
    for (const Insn *End = Ip + Ip->D; Ip != End; ++Ip)
      ++Stats.NodeMix[Ip->K];
    BC_DISPATCH();
  }
  BC_CHARGE(static_cast<Expr::Kind>(Ip->K));
  ++Ip;
  BC_DISPATCH();
}

  // ---- Raw data movement ----

L_Move: {
  const Insn &I = *Ip;
  R[I.A] = R[I.B];
  ++Ip;
  BC_DISPATCH();
}

L_LoadNilRaw: {
  R[Ip->A] = Value::nil();
  ++Ip;
  BC_DISPATCH();
}

L_StoreSlot: {
  const Insn &I = *Ip;
  R[I.B] = R[I.A];
  ++Ip;
  BC_DISPATCH();
}

L_StoreCell: {
  const Insn &I = *Ip;
  assert(F.cell(I.B) && "write to a cell before its let ran");
  F.cell(I.B)->V = R[I.A];
  ++Ip;
  BC_DISPATCH();
}

L_StoreCapture: {
  const Insn &I = *Ip;
  F.capture(I.B)->V = R[I.A];
  ++Ip;
  BC_DISPATCH();
}

L_LetCell: {
  const Insn &I = *Ip;
  // Fresh cell per execution so closures made in different loop
  // iterations don't share state (same as the AST walker's Let).
  F.cell(I.B) = std::make_shared<Cell>(Cell{R[I.A]});
  ++Ip;
  BC_DISPATCH();
}

  // ---- Raw control flow ----

L_Jump: {
  Ip = Code + Ip->D;
  BC_DISPATCH();
}

L_CondBranch: {
  const Insn &I = *Ip;
  if (!R[I.A].isBool()) {
    fail(C, TrapKind::TypeError, Locs[Ip - Code],
         I.K ? "while condition is not a boolean"
             : "if condition is not a boolean");
    return Value::nil();
  }
  if (R[I.A].asBool())
    ++Ip;
  else
    Ip = Code + I.D;
  BC_DISPATCH();
}

L_StackCheck: {
  // Inlined bodies recurse natively in the AST walker without raising
  // Depth; the bytecode stream is flat, but keeps the probe (and its
  // trap) so resource behavior stays identical.
  if (nativeStackLow()) {
    failNativeStack(C, Locs[Ip - Code]);
    return Value::nil();
  }
  ++Ip;
  BC_DISPATCH();
}

  // ---- Calls ----

L_CallDyn: {
  const Insn &I = *Ip;
  const BcSite &Site = Fn.Sites[I.D];
  CallVal = sendDynamic(Site, Site.S, R + I.B, I.C, C);
  goto HandleCall;
}

L_CallStatic: {
  const Insn &I = *Ip;
  CallVal = sendStatic(Fn.Sites[I.D].S, R + I.B, I.C, C);
  goto HandleCall;
}

L_CallSelect: {
  const Insn &I = *Ip;
  const BcSite &Site = Fn.Sites[I.D];
  CallVal = sendSelect(Site, Site.S, R + I.B, I.C, C);
  goto HandleCall;
}

L_CallPrim: {
  const Insn &I = *Ip;
  const BcSite &Site = Fn.Sites[I.D];
  CallVal = sendPrim(Site.S, Site.Prim, R + I.B, I.C, C);
  goto HandleCall;
}

L_CallPred: {
  const Insn &I = *Ip;
  const BcSite &Site = Fn.Sites[I.D];
  CallVal = sendPredicted(Site, Site.S, Site.Prim, R + I.B, I.C, C);
  goto HandleCall;
}

L_CallFeedback: {
  const Insn &I = *Ip;
  const BcSite &Site = Fn.Sites[I.D];
  CallVal = sendFeedback(Site, Site.S, Site.TargetPrim, R + I.B, I.C, C);
  goto HandleCall;
}

L_CallClosure: {
  const Insn &I = *Ip;
  // Callee passed by value: the register may be clobbered by the callee's
  // result landing in I.A == I.B.
  CallVal = callClosure(R[I.B], R + I.B + 1, I.C, Locs[Ip - Code], C);
  goto HandleCall;
}

HandleCall: {
  if (C.active()) {
    if (C.K == Control::Kind::Return) {
      if (C.Activation == CurrentHome) {
        // A non-local return unwinding through this frame: land in the
        // innermost inlined region containing this call site that
        // catches the boundary (the bytecode analogue of the nearest
        // enclosing InlinedExpr catch).
        const uint32_t Pc = static_cast<uint32_t>(Ip - Code);
        const BcRegion *Best = nullptr;
        for (const BcRegion &Rg : Fn.Regions) {
          if (Rg.Boundary != C.Boundary || Pc < Rg.Start || Pc >= Rg.End)
            continue;
          if (!Best || Rg.End - Rg.Start < Best->End - Best->Start)
            Best = &Rg;
        }
        if (Best) {
          R[Best->Dst] = C.Val;
          C = Control();
          Ip = Code + Best->End;
          BC_DISPATCH();
        }
      }
    }
    // Propagate Return/Error to the caller; a boundary-0 return to this
    // method's own activation is caught by ExecProtocol::invokeVersion.
    return Value::nil();
  }
  R[Ip->A] = CallVal;
  ++Ip;
  BC_DISPATCH();
}

  // ---- Objects and closures ----

L_MakeClosure: {
  const Insn &I = *Ip;
  BC_CHARGE(Expr::Kind::ClosureLit);
  const BcClosureRef &Ref = Fn.Closures[I.D];
  Obj *O = allocClosure(Ref.Lit, F, Locs[Ip - Code], C);
  if (!O)
    return Value::nil();
  O->BcFn = Ref.Fn;
  R[I.A] = Value::ofObj(O);
  ++Ip;
  BC_DISPATCH();
}

L_NewObj: {
  const Insn &I = *Ip;
  BC_CHARGE(Expr::Kind::New);
  const BcNewSite &NS = Fn.NewSites[I.D];
  Obj *O = allocInstance(NS.N->Class, NS.LayoutSize, Locs[Ip - Code], C);
  if (!O)
    return Value::nil();
  R[I.A] = Value::ofObj(O);
  ++Ip;
  BC_DISPATCH();
}

L_InitSlot: {
  const Insn &I = *Ip;
  R[I.A].asObject()->Slots[I.B] = R[I.C];
  ++Ip;
  BC_DISPATCH();
}

L_GetSlot: {
  const Insn &I = *Ip;
  const BcSlotSite &SS = Fn.SlotSites[I.D];
  const Value &ObjV = R[I.B];
  if (!ObjV.isObject() ||
      ObjV.asObject()->payload() != Obj::Payload::Instance) {
    fail(C, TrapKind::TypeError, Locs[Ip - Code],
         "slot access '" + P.Syms.name(SS.Name) +
             "' on a non-instance value");
    return Value::nil();
  }
  Obj *O = ObjV.asObject();
  const int Idx = slotIndex(SS, O->getClass());
  if (Idx < 0) {
    failNoSlot(C, Locs[Ip - Code], O->getClass(), SS.Name);
    return Value::nil();
  }
  Stats.Cycles += Costs.SlotCost;
  R[I.A] = O->Slots[Idx];
  ++Ip;
  BC_DISPATCH();
}

L_SetSlot: {
  const Insn &I = *Ip;
  const BcSlotSite &SS = Fn.SlotSites[I.D];
  const Value &ObjV = R[I.B];
  if (!ObjV.isObject() ||
      ObjV.asObject()->payload() != Obj::Payload::Instance) {
    fail(C, TrapKind::TypeError, Locs[Ip - Code],
         "slot assignment on a non-instance value");
    return Value::nil();
  }
  Obj *O = ObjV.asObject();
  const int Idx = slotIndex(SS, O->getClass());
  if (Idx < 0) {
    failNoSlot(C, Locs[Ip - Code], O->getClass(), SS.Name);
    return Value::nil();
  }
  Stats.Cycles += Costs.SlotCost;
  O->Slots[Idx] = R[I.C];
  R[I.A] = R[I.C];
  ++Ip;
  BC_DISPATCH();
}

  // ---- Returns ----

L_RetLocal: {
  return R[Ip->A];
}

L_RetNonLocal: {
  const Insn &I = *Ip;
  C.K = Control::Kind::Return;
  C.Activation = CurrentHome;
  C.Boundary = I.D;
  C.Val = R[I.A];
  return Value::nil();
}

#undef BC_DISPATCH
#undef BC_CHARGE
#undef BC_UNLIKELY
#undef BC_LIKELY
}
