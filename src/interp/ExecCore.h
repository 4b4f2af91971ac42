//===- interp/ExecCore.h - Execution core shared by both tiers --*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the AST Interpreter and the BytecodeInterpreter share, in
/// one place: the Control channel, primitive semantics (invokePrim and
/// the Int rules the constant folder also uses), trap construction,
/// resource guards and memory charging, arc recording, RunStats
/// publication, and the send protocol — version selection and
/// binding validation, the builtin short-cut, the activation guards,
/// activation and call-stack bookkeeping, and the callGeneric/callMain
/// entry points.
///
/// The split follows policy vs. mechanism: a tier owns only its
/// evaluation loop (the AST walk, or the computed-goto loop with its
/// inline-cache side tables) and plugs it in through ExecProtocol<Tier>,
/// a CRTP layer whose hooks are bound at compile time.  Nothing on the
/// hot path is virtual.  Because both tiers run this code, RunStats and
/// traps agree between them by construction, and a semantic fix is made
/// once.
///
/// Hooks a Tier provides (private is fine; befriend ExecProtocol<Tier>):
///   - `B *methodBody(const CompiledMethod &)`, `B *closureBody(Obj *)`:
///     the executable body of a method version / closure, any type with a
///     `Layout` member; null traps InternalError;
///   - `Value runBody(const B &, Frame &, Control &)`: executes a body in
///     a bound frame;
///   - optionally `lookupTarget`/`lookupVersion` for its own site type,
///     replacing the table-backed defaults below (the bytecode tier
///     probes its inline caches first).
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_INTERP_EXECCORE_H
#define SELSPEC_INTERP_EXECCORE_H

#include "interp/CostModel.h"
#include "interp/RuntimeTrap.h"
#include "opt/CompiledProgram.h"
#include "profile/CallGraph.h"
#include "runtime/DispatchTable.h"
#include "runtime/Frame.h"
#include "runtime/Heap.h"
#include "runtime/Value.h"
#include "support/Deadline.h"
#include "support/FailPoint.h"
#include "support/Metrics.h"

#include <array>
#include <cassert>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace selspec {

/// Counters of one execution.
struct RunStats {
  uint64_t DynamicDispatches = 0;
  uint64_t VersionSelects = 0;
  uint64_t StaticCalls = 0;
  uint64_t InlinePrims = 0;
  uint64_t PredictedHits = 0;
  uint64_t PredictedMisses = 0;
  uint64_t FeedbackHits = 0;
  uint64_t FeedbackMisses = 0;
  uint64_t ClosuresCreated = 0;
  uint64_t ClosureCalls = 0;
  uint64_t Allocations = 0;
  uint64_t MethodInvocations = 0;
  uint64_t NodesEvaluated = 0;
  /// Deepest concurrently-active Mica call chain (methods + closures);
  /// what ResourceLimits::MaxDepth bounds.
  uint64_t PeakDepth = 0;
  /// Modeled execution time.
  uint64_t Cycles = 0;
  /// Executed-node histogram by AST kind (the `--time-report` node mix).
  std::array<uint64_t, Expr::NumKinds> NodeMix{};

  /// The paper's "number of dynamic dispatches": full dispatches plus
  /// run-time version selections (statically-bound calls that had to be
  /// converted back to dispatches, Section 3.3).
  uint64_t totalDispatches() const {
    return DynamicDispatches + VersionSelects;
  }
};

struct RunOptions {
  /// Record (site, caller, callee, weight) arcs into Profile.  The arcs
  /// of one callGeneric reach it when that call returns, however it ends.
  CallGraph *Profile = nullptr;
  /// Verify every statically-bound send against real dispatch (tests).
  bool ValidateBindings = false;
  /// Resource guards: node budget, recursion depth, heap object count.
  ResourceLimits Limits;
  /// Destination of `print`; null discards output.
  std::ostream *Output = nullptr;
  /// Cooperative stop signal (deadline and/or external cancel); polled
  /// every DeadlineCheckInterval evaluated nodes, trapping
  /// DeadlineExceeded.  Null disables the checks beyond one predictable
  /// branch per node.
  const CancelToken *Cancel = nullptr;
  /// The program's compressed dispatch tables, shared and immutable (a
  /// Workbench lends its set to its profile runs and snapshots).  Null
  /// makes the interpreter build its own; lookups are identical either
  /// way.  Must outlive the interpreter.
  const DispatchTableSet *Tables = nullptr;
};

//===----------------------------------------------------------------------===//
// Mica Int semantics (DESIGN.md section 7)
//===----------------------------------------------------------------------===//

/// Outcome of one Int primitive.
enum class IntOutcome : uint8_t { Ok, DivisionByZero, Overflow };

/// Evaluates Int primitive \p Op (IntAdd..IntNe) on \p A and \p B (B is
/// ignored by IntNeg).  `+ - * neg` wrap modulo 2^64 (two's complement);
/// `/` and `%` by zero are DivisionByZero, and INT64_MIN / -1 and
/// INT64_MIN % -1, whose machine division faults, are Overflow.  On Ok,
/// \p Out holds the Int or Bool result.  The single definition of these
/// rules: both tiers' invokePrim and the optimizer's constant folder call
/// it.  The builtins compute the wrapped result without C++ signed
/// overflow; their overflow flag is deliberately unused.
inline IntOutcome evalIntPrim(PrimOp Op, int64_t A, int64_t B, Value &Out) {
  int64_t R = 0;
  switch (Op) {
  case PrimOp::IntAdd:
    (void)__builtin_add_overflow(A, B, &R);
    break;
  case PrimOp::IntSub:
    (void)__builtin_sub_overflow(A, B, &R);
    break;
  case PrimOp::IntMul:
    (void)__builtin_mul_overflow(A, B, &R);
    break;
  case PrimOp::IntNeg:
    (void)__builtin_sub_overflow(int64_t(0), A, &R);
    break;
  case PrimOp::IntDiv:
  case PrimOp::IntMod:
    if (B == 0)
      return IntOutcome::DivisionByZero;
    if (B == -1 && A == INT64_MIN)
      return IntOutcome::Overflow;
    R = Op == PrimOp::IntDiv ? A / B : A % B;
    break;
  case PrimOp::IntLess:
    Out = Value::ofBool(A < B);
    return IntOutcome::Ok;
  case PrimOp::IntLessEq:
    Out = Value::ofBool(A <= B);
    return IntOutcome::Ok;
  case PrimOp::IntGreater:
    Out = Value::ofBool(A > B);
    return IntOutcome::Ok;
  case PrimOp::IntGreaterEq:
    Out = Value::ofBool(A >= B);
    return IntOutcome::Ok;
  case PrimOp::IntEq:
    Out = Value::ofBool(A == B);
    return IntOutcome::Ok;
  case PrimOp::IntNe:
    Out = Value::ofBool(A != B);
    return IntOutcome::Ok;
  default:
    break;
  }
  Out = Value::ofInt(R);
  return IntOutcome::Ok;
}

/// True for the primitives evalIntPrim implements.
inline bool isIntPrim(PrimOp Op) {
  return Op >= PrimOp::IntAdd && Op <= PrimOp::IntNe;
}

//===----------------------------------------------------------------------===//
// ExecCore: the tier-independent mechanism
//===----------------------------------------------------------------------===//

class ExecCore {
public:
  ExecCore(const ExecCore &) = delete;
  ExecCore &operator=(const ExecCore &) = delete;

  const RunStats &stats() const { return Stats; }
  /// The structured failure of the last run (Kind == None on success).
  const RuntimeTrap &trap() const { return Trap; }
  /// Rendered form of trap() (message + location + backtrace).
  const std::string &errorMessage() const { return Error; }
  Heap &heap() { return TheHeap; }
  const CostModel &costs() const { return Costs; }

  /// Renders a value for `print` and diagnostics.
  std::string valueToString(const Value &V) const;

  /// A per-run total and the registry counter it is published to.
  using Publication = std::pair<metrics::Counter *, uint64_t>;
  /// Every counter this core publishes onto the metrics registry
  /// (`interp.*`, `dispatcher.*`) with this run's value.  The destructor
  /// adds exactly these, and per-job metrics deltas copy them, so the two
  /// cannot list different counters.
  std::vector<Publication> publications() const;

  /// Callees counted per call site before the rest spill, send by send,
  /// into the CallGraph.  With four, at most 3.3% of the profiled sends
  /// of the Table 2 programs spill (typechecker, at its train input).
  static constexpr unsigned SiteArcSlots = 4;

protected:
  /// The unwinding channel of one call chain: a pending non-local return
  /// (to activation \c Activation, inline boundary \c Boundary) or a trap
  /// (recorded in Trap).
  struct Control {
    enum class Kind : uint8_t { None, Return, Error };
    Kind K = Kind::None;
    uint64_t Activation = 0;
    uint32_t Boundary = 0;
    Value Val;

    bool active() const { return K != Kind::None; }
  };

  /// \p CP is shared, not owned: the core only reads it (the atomic
  /// invoked bits are the documented exception), so any number of
  /// concurrent interpreters may execute one snapshot.
  ExecCore(const CompiledProgram &CP, RunOptions Opts, CostModel Costs);
  /// Publishes publications() onto the process-wide metrics registry,
  /// once per interpreter.
  ~ExecCore();

  /// The method generic \p G invokes on the classes in ClassScratch, read
  /// from its compressed dispatch table; invalid when dispatch fails.  The
  /// one dispatch path: the bytecode tier's inline-cache misses and every
  /// AST-tier send come here.
  MethodId dispatchScratch(GenericId G) {
    ++TableLookups;
    const DispatchTable &T = Tables->forGeneric(G);
    if (!T.materialized())
      ++FullLookups;
    return T.lookup(ClassScratch);
  }

  /// \p Args points at the callee's arguments; primitives never re-enter
  /// a tier's loop, so the pointer stays valid throughout.
  Value invokePrim(PrimOp Op, const Value *Args, SourceLoc Loc, Control &C);

  /// Counts one invocation of \p Callee from \p Site.  A run without a
  /// profile pays one predictable branch; a profiled one bumps a dense
  /// per-site counter, and flushArcs() moves the counts into
  /// RunOptions::Profile when callGeneric returns.
  void recordArc(CallSiteId Site, MethodId Callee) {
    if (ArcCounts)
      countArc(Site, Callee);
  }
  void gatherClasses(const Value *Args, size_t N) {
    ClassScratch.clear();
    for (size_t I = 0; I != N; ++I)
      ClassScratch.push_back(Args[I].classOf());
  }

  // ---- Arc counters ----

  /// The arc counters of one call site: the first SiteArcSlots distinct
  /// callees in arrival order, each with its count (filled slots form a
  /// prefix; an empty slot has an invalid callee).
  struct SiteArcs {
    MethodId Callee[SiteArcSlots];
    uint64_t Count[SiteArcSlots] = {};
  };

  void countArc(CallSiteId Site, MethodId Callee) {
    if (Site.value() >= NumArcSites)
      return spillArc(Site, Callee);
    SiteArcs &A = ArcCounts[Site.value()];
    for (unsigned I = 0; I != SiteArcSlots; ++I) {
      if (A.Callee[I] == Callee) {
        ++A.Count[I];
        return;
      }
      if (!A.Callee[I].isValid()) {
        A.Callee[I] = Callee;
        A.Count[I] = 1;
        return;
      }
    }
    spillArc(Site, Callee);
  }
  /// A send the counters cannot hold (a callee past its site's slots)
  /// goes straight to the CallGraph; one from an invalid site records
  /// nothing.
  [[gnu::noinline]] void spillArc(CallSiteId Site, MethodId Callee);
  /// Adds every counted arc to RunOptions::Profile and empties the
  /// counters.  Safe to repeat: a flush that throws keeps the counts it
  /// has not moved yet.
  void flushArcs();

  // ---- Trap construction ----

  Value fail(Control &C, TrapKind Kind, SourceLoc Loc, std::string Message);
  /// Records a failure that happens outside any Control channel (the
  /// callGeneric entry path).
  void failTop(TrapKind Kind, std::string Message);

  // Out-of-line failure constructors: the hot paths branch to these and
  // the message strings are only built once a failure is certain.
  [[gnu::cold]] [[gnu::noinline]] Value failPrimType(Control &C, PrimOp Op,
                                                     SourceLoc Loc,
                                                     const char *Expected);
  [[gnu::cold]] [[gnu::noinline]] Value failOverflow(Control &C, PrimOp Op,
                                                     SourceLoc Loc);
  [[gnu::cold]] [[gnu::noinline]] Value failBounds(Control &C, SourceLoc Loc,
                                                   int64_t Index, size_t Size);
  [[gnu::cold]] [[gnu::noinline]] Value failNoSlot(Control &C, SourceLoc Loc,
                                                   ClassId Cls,
                                                   Symbol SlotName);
  /// Dispatch failed for \p S on the classes in ClassScratch; classifies
  /// no-applicable-method vs. ambiguous via a (cold) re-dispatch.
  [[gnu::cold]] [[gnu::noinline]] Value failDispatch(Control &C,
                                                     const SendExpr *S);
  [[gnu::cold]] [[gnu::noinline]] Value failNodeBudget(Control &C,
                                                       SourceLoc Loc);
  [[gnu::cold]] [[gnu::noinline]] Value failDepth(Control &C, SourceLoc Loc);
  [[gnu::cold]] [[gnu::noinline]] Value failNativeStack(Control &C,
                                                        SourceLoc Loc);
  [[gnu::cold]] [[gnu::noinline]] Value failHeapLimit(Control &C,
                                                      SourceLoc Loc);
  [[gnu::cold]] [[gnu::noinline]] Value failMemoryBudget(Control &C,
                                                         SourceLoc Loc,
                                                         uint64_t Requested);
  [[gnu::cold]] [[gnu::noinline]] Value failDeadline(Control &C,
                                                     SourceLoc Loc);
  /// An armed failpoint fired at \p Name (an injected internal fault).
  [[gnu::cold]] [[gnu::noinline]] Value failInjected(Control &C, SourceLoc Loc,
                                                     const char *Name);
  /// RunOptions::ValidateBindings: traps BindingViolation unless real
  /// dispatch on \p Args agrees with the static binding of \p S (and, for
  /// a Static binding, the bound version's tuple admits the classes).
  [[gnu::cold]] [[gnu::noinline]] bool bindingHolds(const SendExpr *S,
                                                    const Value *Args,
                                                    size_t N, Control &C);

  // ---- Resource guards and memory charging ----

  /// How often the tiers poll RunOptions::Cancel: every
  /// (DeadlineCheckMask + 1) evaluated nodes.  8192 keeps the steady-state
  /// cost to one masked compare per node while bounding deadline overshoot
  /// to microseconds of interpreter work.
  static constexpr uint64_t DeadlineCheckMask = 8191;

  bool heapHasRoom() const {
    return TheHeap.numAllocated() < Opts.Limits.MaxObjects;
  }
  /// True when allocating \p Incoming more modeled bytes stays within the
  /// per-job byte budget.  Checked before each allocation with the
  /// incoming object's exact modeled size, so the trap fires at the same
  /// byte in every build mode and on both tiers.  Saturating: a modeled
  /// size near UINT64_MAX must not wrap past the budget.
  bool heapBytesOk(uint64_t Incoming) const {
    uint64_t Total;
    return !__builtin_add_overflow(TheHeap.bytesAllocated(), Incoming,
                                   &Total) &&
           Total <= Opts.Limits.MaxBytes;
  }
  /// Both allocation guards, in order (object count, then bytes); traps
  /// and returns false when either refuses.
  bool allocOk(uint64_t Bytes, SourceLoc Loc, Control &C) {
    if (!heapHasRoom()) {
      failHeapLimit(C, Loc);
      return false;
    }
    if (!heapBytesOk(Bytes)) {
      failMemoryBudget(C, Loc, Bytes);
      return false;
    }
    return true;
  }
  /// Guarded allocations of the object kinds both loops create; null
  /// after a trap.
  Obj *allocString(std::string S, SourceLoc Loc, Control &C);
  Obj *allocInstance(ClassId Class, unsigned LayoutSize, SourceLoc Loc,
                     Control &C);
  /// A closure over \p Lit capturing from \p F, homed at CurrentHome.
  Obj *allocClosure(const ClosureLitExpr *Lit, Frame &F, SourceLoc Loc,
                    Control &C);

  /// True when the native C++ stack consumed below the entry point
  /// exceeds StackBudget.  Backstop for MaxDepth: sanitizer and debug
  /// builds grow native frames enough that a depth limit calibrated for
  /// release builds can still overflow the real stack.
  bool nativeStackLow() const {
    char Probe;
    uintptr_t Here = reinterpret_cast<uintptr_t>(&Probe);
    size_t Used = StackBase >= Here ? StackBase - Here : Here - StackBase;
    return Used > StackBudget;
  }
  /// The guards of every activation entry (methods and closures): depth,
  /// native stack, then the frame-acquire failpoint.  Traps and returns
  /// false when one refuses.
  bool activationOk(SourceLoc Loc, Control &C) {
    if (Depth >= Opts.Limits.MaxDepth) {
      failDepth(C, Loc);
      return false;
    }
    if (nativeStackLow()) {
      failNativeStack(C, Loc);
      return false;
    }
    if (failpoint::anyArmed() && failpoint::triggered("interp.frame-acquire")) {
      failInjected(C, Loc, "interp.frame-acquire");
      return false;
    }
    return true;
  }

  // ---- Entry points (the tier-independent halves) ----

  /// Resets the last run's trap and resolves `Name(Args)` to a method and
  /// version; false (after failTop) when it cannot be entered.
  bool enterGeneric(const std::string &Name, const std::vector<Value> &Args,
                    MethodId &Target, int &Version);
  /// Classifies how the entry activation ended; true on success.
  bool leaveGeneric(const Control &C);
  /// A host-level failure (std::bad_alloc, std::length_error) escaped the
  /// run: resets the call-chain state and records InternalError.
  [[gnu::cold]] void hostFailure(const char *What);

  const CompiledProgram &CP;
  const Program &P;
  RunOptions Opts;
  CostModel Costs;
  /// Set only when RunOptions::Tables was null.
  std::unique_ptr<const DispatchTableSet> OwnTables;
  /// Never null: RunOptions::Tables or OwnTables.
  const DispatchTableSet *Tables;
  /// Published as `dispatcher.lookups`: every dispatchScratch call.
  uint64_t TableLookups = 0;
  /// Published as `dispatcher.full_lookups`: the lookups answered by
  /// Program::dispatch because the generic's table is not materialized.
  uint64_t FullLookups = 0;
  Heap TheHeap;
  FramePool Frames;
  /// Scratch for per-dispatch class tuples; each use finishes before any
  /// recursive execution, so a single reused buffer is safe.
  std::vector<ClassId> ClassScratch;
  RunStats Stats;
  RuntimeTrap Trap;
  std::string Error;
  uint64_t NextActivation = 1;
  /// Concurrently-active Mica calls (methods + closures); bounded by
  /// Opts.Limits.MaxDepth to keep native C++ recursion in check.
  uint32_t Depth = 0;
  /// Native-stack backstop: address of a local in the public entry point
  /// (refreshed by callGeneric) and the bytes of native stack a tier may
  /// consume below it before trapping RecursionLimitExceeded.
  uintptr_t StackBase = 0;
  size_t StackBudget;
  /// Home activation of the code currently executing (the activation a
  /// boundary-0 return unwinds to).
  uint64_t CurrentHome = 0;
  /// Active method invocations, innermost last (for error stack traces).
  std::vector<MethodId> CallStack;
  /// Arc counters indexed by CallSiteId; null when the run records no
  /// profile.  Shared by both tiers through the send protocol.
  std::unique_ptr<SiteArcs[]> ArcCounts;
  uint32_t NumArcSites = 0;
};

//===----------------------------------------------------------------------===//
// ExecProtocol: the send protocol, bound to a tier's loop at compile time
//===----------------------------------------------------------------------===//

template <class Tier> class ExecProtocol : public ExecCore {
public:
  /// Invokes generic \p Name on \p Args; \p Ok reports success.  The one
  /// entry point of every run (profile and measured alike).
  Value callGeneric(const std::string &Name, std::vector<Value> Args,
                    bool &Ok);

  /// Invokes `main(Arg)`.  Returns false on any runtime error (see
  /// trap() / errorMessage()).
  bool callMain(int64_t Arg) {
    bool Ok = false;
    callGeneric("main", {Value::ofInt(Arg)}, Ok);
    return Ok;
  }

protected:
  using ExecCore::ExecCore;

  Tier &tier() { return static_cast<Tier &>(*this); }

  // One send per binding kind.  \p Site is the tier's site record (the
  // SendExpr itself on the AST tier), \p S its SendExpr, and Args/N the
  // evaluated arguments.
  template <class SiteT>
  Value sendDynamic(const SiteT &Site, const SendExpr *S, const Value *Args,
                    size_t N, Control &C);
  Value sendStatic(const SendExpr *S, const Value *Args, size_t N, Control &C);
  template <class SiteT>
  Value sendSelect(const SiteT &Site, const SendExpr *S, const Value *Args,
                   size_t N, Control &C);
  Value sendPrim(const SendExpr *S, PrimOp Prim, const Value *Args, size_t N,
                 Control &C);
  /// \p TargetPrim: the predicted target's primitive (None for a method).
  template <class SiteT>
  Value sendFeedback(const SiteT &Site, const SendExpr *S, PrimOp TargetPrim,
                     const Value *Args, size_t N, Control &C);
  template <class SiteT>
  Value sendPredicted(const SiteT &Site, const SendExpr *S, PrimOp Prim,
                      const Value *Args, size_t N, Control &C);
  /// Calls closure value \p Callee (type and arity checked here).
  Value callClosure(Value Callee, const Value *Args, size_t N, SourceLoc Loc,
                    Control &C);

  Value invokeMethod(MethodId M, int VersionIndex, const Value *Args,
                     size_t N, SourceLoc CallLoc, Control &C);
  Value invokeVersion(const CompiledMethod &CM, const Value *Args, size_t N,
                      SourceLoc CallLoc, Control &C);

  /// Default lookups, over the dispatch tables and CompiledProgram, for
  /// the classes in ClassScratch.  lookupTarget is false when dispatch
  /// fails.
  bool lookupTarget(const SendExpr &S, MethodId &Target, int &Version) {
    Target = dispatchScratch(S.Generic);
    if (!Target.isValid())
      return false;
    Version = CP.selectVersion(Target, ClassScratch);
    return true;
  }
  void lookupVersion(const SendExpr &, MethodId &Target, int &Version) {
    Version = CP.selectVersion(Target, ClassScratch);
  }
};

template <class Tier>
template <class SiteT>
Value ExecProtocol<Tier>::sendDynamic(const SiteT &Site, const SendExpr *S,
                                      const Value *Args, size_t N,
                                      Control &C) {
  gatherClasses(Args, N);
  MethodId Target;
  int Version = -1;
  if (!tier().lookupTarget(Site, Target, Version))
    return failDispatch(C, S);
  recordArc(S->Site, Target);
  ++Stats.DynamicDispatches;
  Stats.Cycles += Costs.DynamicDispatchCost;
  return invokeMethod(Target, Version, Args, N, S->getLoc(), C);
}

template <class Tier>
Value ExecProtocol<Tier>::sendStatic(const SendExpr *S, const Value *Args,
                                     size_t N, Control &C) {
  const CompiledMethod &CM = CP.version(S->Binding.TargetVersion);
  if (Opts.ValidateBindings && !bindingHolds(S, Args, N, C))
    return Value::nil();
  recordArc(S->Site, CM.Source);
  ++Stats.StaticCalls;
  Stats.Cycles += Costs.StaticCallCost;
  return invokeVersion(CM, Args, N, S->getLoc(), C);
}

template <class Tier>
template <class SiteT>
Value ExecProtocol<Tier>::sendSelect(const SiteT &Site, const SendExpr *S,
                                     const Value *Args, size_t N,
                                     Control &C) {
  gatherClasses(Args, N);
  if (Opts.ValidateBindings && !bindingHolds(S, Args, N, C))
    return Value::nil();
  recordArc(S->Site, S->Binding.Target);
  ++Stats.VersionSelects;
  Stats.Cycles += Costs.VersionSelectCost;
  MethodId Target = S->Binding.Target;
  int Version = -1;
  tier().lookupVersion(Site, Target, Version);
  return invokeMethod(Target, Version, Args, N, S->getLoc(), C);
}

template <class Tier>
Value ExecProtocol<Tier>::sendPrim(const SendExpr *S, PrimOp Prim,
                                   const Value *Args, size_t N, Control &C) {
  if (Opts.ValidateBindings && !bindingHolds(S, Args, N, C))
    return Value::nil();
  recordArc(S->Site, S->Binding.Target);
  ++Stats.InlinePrims;
  Stats.Cycles += Costs.InlinePrimCost;
  return invokePrim(Prim, Args, S->getLoc(), C);
}

template <class Tier>
template <class SiteT>
Value ExecProtocol<Tier>::sendFeedback(const SiteT &Site, const SendExpr *S,
                                       PrimOp TargetPrim, const Value *Args,
                                       size_t N, Control &C) {
  gatherClasses(Args, N);
  // The modeled machine executes an inline-cache class test; this
  // implementation realizes the test via the tier's lookup.
  Stats.Cycles += Costs.PredictTestCost;
  MethodId Real;
  int Version = -1;
  if (!tier().lookupTarget(Site, Real, Version))
    return failDispatch(C, S);
  recordArc(S->Site, Real);
  if (Real == S->Binding.Target) {
    ++Stats.FeedbackHits;
    if (TargetPrim != PrimOp::None) {
      Stats.Cycles += Costs.InlinePrimCost;
      return invokePrim(TargetPrim, Args, S->getLoc(), C);
    }
    Stats.Cycles += Costs.StaticCallCost;
    return invokeMethod(Real, Version, Args, N, S->getLoc(), C);
  }
  ++Stats.FeedbackMisses;
  ++Stats.DynamicDispatches;
  Stats.Cycles += Costs.DynamicDispatchCost;
  return invokeMethod(Real, Version, Args, N, S->getLoc(), C);
}

template <class Tier>
template <class SiteT>
Value ExecProtocol<Tier>::sendPredicted(const SiteT &Site, const SendExpr *S,
                                        PrimOp Prim, const Value *Args,
                                        size_t N, Control &C) {
  Stats.Cycles += Costs.PredictTestCost;
  bool Hit = true;
  for (size_t I = 0; I != N; ++I)
    Hit &= Args[I].classOf() == S->Binding.PredictedClass;
  if (Hit) {
    recordArc(S->Site, S->Binding.Target);
    ++Stats.PredictedHits;
    Stats.Cycles += Costs.InlinePrimCost;
    return invokePrim(Prim, Args, S->getLoc(), C);
  }
  ++Stats.PredictedMisses;
  return sendDynamic(Site, S, Args, N, C);
}

template <class Tier>
Value ExecProtocol<Tier>::callClosure(Value Callee, const Value *Args,
                                      size_t N, SourceLoc Loc, Control &C) {
  if (!Callee.isObject() ||
      Callee.asObject()->payload() != Obj::Payload::Closure)
    return fail(C, TrapKind::TypeError, Loc, "called value is not a closure");
  Obj *Closure = Callee.asObject();
  if (Closure->Lit->Params.size() != N)
    return fail(C, TrapKind::ArityMismatch, Loc,
                "closure called with wrong number of arguments");
  if (!activationOk(Loc, C))
    return Value::nil();
  const auto *Body = tier().closureBody(Closure);
  if (!Body)
    return fail(C, TrapKind::InternalError, Loc,
                "internal: closure body has no code for this tier");

  ++Stats.ClosureCalls;
  Stats.Cycles += Costs.ClosureCallCost;

  FrameGuard G(Frames, Body->Layout, &Closure->Captured);
  Frame &Inner = G.frame();
  for (size_t I = 0; I != N; ++I)
    Inner.bindParam(Body->Layout.Params[I], Args[I]);

  uint64_t SavedHome = CurrentHome;
  CurrentHome = Closure->HomeActivation;
  ++Depth;
  if (Depth > Stats.PeakDepth)
    Stats.PeakDepth = Depth;
  Value Result = tier().runBody(*Body, Inner, C);
  --Depth;
  CurrentHome = SavedHome;
  return Result;
}

template <class Tier>
Value ExecProtocol<Tier>::invokeMethod(MethodId M, int VersionIndex,
                                       const Value *Args, size_t N,
                                       SourceLoc CallLoc, Control &C) {
  if (VersionIndex < 0)
    return fail(C, TrapKind::InternalError, CallLoc,
                "internal: no compiled version matches arguments of " +
                    P.methodLabel(M));
  return invokeVersion(CP.version(static_cast<uint32_t>(VersionIndex)), Args,
                       N, CallLoc, C);
}

template <class Tier>
Value ExecProtocol<Tier>::invokeVersion(const CompiledMethod &CM,
                                        const Value *Args, size_t N,
                                        SourceLoc CallLoc, Control &C) {
  const MethodInfo &M = P.method(CM.Source);
  CP.markInvoked(CM.Index);

  if (M.isBuiltin())
    return invokePrim(M.Prim, Args, CallLoc, C);
  if (!activationOk(CallLoc, C))
    return Value::nil();
  const auto *Body = tier().methodBody(CM);
  if (!Body)
    return fail(C, TrapKind::InternalError, CallLoc,
                "internal: method version has no code for this tier");

  ++Stats.MethodInvocations;
  uint64_t Activation = NextActivation++;
  FrameGuard G(Frames, Body->Layout, nullptr);
  Frame &F = G.frame();
  assert(Body->Layout.Params.size() == N && "dispatcher arity mismatch");
  for (size_t I = 0; I != N; ++I)
    F.bindParam(Body->Layout.Params[I], Args[I]);

  uint64_t SavedHome = CurrentHome;
  CurrentHome = Activation;
  CallStack.push_back(CM.Source);
  ++Depth;
  if (Depth > Stats.PeakDepth)
    Stats.PeakDepth = Depth;
  Value Result = tier().runBody(*Body, F, C);
  --Depth;
  CallStack.pop_back();
  CurrentHome = SavedHome;

  // A method catches the boundary-0 returns aimed at its own activation.
  if (C.K == Control::Kind::Return && C.Activation == Activation &&
      C.Boundary == 0) {
    Result = C.Val;
    C = Control();
  }
  return Result;
}

template <class Tier>
Value ExecProtocol<Tier>::callGeneric(const std::string &Name,
                                      std::vector<Value> Args, bool &Ok) {
  Ok = false;
  // Anchor the native-stack backstop at the point the embedder entered;
  // see nativeStackLow().
  char StackProbe;
  StackBase = reinterpret_cast<uintptr_t>(&StackProbe);
  MethodId Target;
  int Version = -1;
  if (!enterGeneric(Name, Args, Target, Version))
    return Value::nil();
  // Last resort: a host allocation failure must end this job with a
  // trap, never take the process (and a thread-isolated server's other
  // jobs) down with it.  The arcs counted during the run reach the
  // profile on every way out: a result, a trap (deadlines included), or
  // a host failure (hostFailure flushes them).
  try {
    Control C;
    Value Result =
        invokeMethod(Target, Version, Args.data(), Args.size(), SourceLoc(), C);
    Ok = leaveGeneric(C);
    flushArcs();
    return Ok ? Result : Value::nil();
  } catch (const std::bad_alloc &) {
    hostFailure("std::bad_alloc");
  } catch (const std::length_error &) {
    hostFailure("std::length_error");
  }
  Ok = false;
  return Value::nil();
}

} // namespace selspec

#endif // SELSPEC_INTERP_EXECCORE_H
