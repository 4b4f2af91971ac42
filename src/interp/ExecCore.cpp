//===- interp/ExecCore.cpp - Execution core shared by both tiers ----------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "interp/ExecCore.h"

#include "support/MemoryBudget.h"
#include "support/Metrics.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

using namespace selspec;

namespace {
/// How much native stack a tier may consume before the backstop trap
/// fires: three quarters of the soft stack rlimit, capped at 6 MiB.  The
/// cap keeps the remaining headroom (frame sizes vary ~10x between
/// release and sanitizer builds) comfortably larger than one
/// trap-rendering excursion even on the default 8 MiB main-thread stack.
size_t nativeStackBudget() {
  size_t Budget = size_t(6) << 20;
#if defined(__unix__) || defined(__APPLE__)
  struct rlimit RL;
  if (getrlimit(RLIMIT_STACK, &RL) == 0 && RL.rlim_cur != RLIM_INFINITY) {
    size_t ThreeQuarters = static_cast<size_t>(RL.rlim_cur) / 4 * 3;
    if (ThreeQuarters < Budget)
      Budget = ThreeQuarters;
  }
#endif
  return Budget;
}

metrics::Counter CtrDynamicDispatches("interp.dynamic_dispatches");
metrics::Counter CtrVersionSelects("interp.version_selects");
metrics::Counter CtrStaticCalls("interp.static_calls");
metrics::Counter CtrInlinePrims("interp.inline_prims");
metrics::Counter CtrPredictedHits("interp.predicted_hits");
metrics::Counter CtrPredictedMisses("interp.predicted_misses");
metrics::Counter CtrFeedbackHits("interp.feedback_hits");
metrics::Counter CtrFeedbackMisses("interp.feedback_misses");
metrics::Counter CtrClosuresCreated("interp.closures_created");
metrics::Counter CtrClosureCalls("interp.closure_calls");
metrics::Counter CtrAllocations("interp.allocations");
metrics::Counter CtrMethodInvocations("interp.method_invocations");
metrics::Counter CtrNodesEvaluated("interp.nodes_evaluated");
metrics::Counter CtrCycles("interp.cycles");
metrics::Counter CtrBytesAllocated("interp.bytes_allocated");
metrics::Counter CtrLookups("dispatcher.lookups");
metrics::Counter CtrFullLookups("dispatcher.full_lookups");
metrics::Counter CtrDeadlineExpired("deadline.expired");
} // namespace

ExecCore::ExecCore(const CompiledProgram &CP, RunOptions Opts,
                   CostModel Costs)
    : CP(CP), P(CP.program()), Opts(Opts), Costs(Costs),
      OwnTables(Opts.Tables ? nullptr : std::make_unique<DispatchTableSet>(P)),
      Tables(Opts.Tables ? Opts.Tables : OwnTables.get()),
      StackBudget(nativeStackBudget()) {
  if (Opts.Profile) {
    NumArcSites = P.numCallSites();
    ArcCounts = std::make_unique<SiteArcs[]>(NumArcSites);
  }
}

std::vector<ExecCore::Publication> ExecCore::publications() const {
  return {{&CtrDynamicDispatches, Stats.DynamicDispatches},
          {&CtrVersionSelects, Stats.VersionSelects},
          {&CtrStaticCalls, Stats.StaticCalls},
          {&CtrInlinePrims, Stats.InlinePrims},
          {&CtrPredictedHits, Stats.PredictedHits},
          {&CtrPredictedMisses, Stats.PredictedMisses},
          {&CtrFeedbackHits, Stats.FeedbackHits},
          {&CtrFeedbackMisses, Stats.FeedbackMisses},
          {&CtrClosuresCreated, Stats.ClosuresCreated},
          {&CtrClosureCalls, Stats.ClosureCalls},
          {&CtrAllocations, Stats.Allocations},
          {&CtrMethodInvocations, Stats.MethodInvocations},
          {&CtrNodesEvaluated, Stats.NodesEvaluated},
          {&CtrCycles, Stats.Cycles},
          {&CtrBytesAllocated, TheHeap.bytesAllocated()},
          {&CtrLookups, TableLookups},
          {&CtrFullLookups, FullLookups}};
}

ExecCore::~ExecCore() {
  // RunStats and the lookup counts stay plain fields on the hot path;
  // totals reach the registry once per run, here.
  for (const auto &[To, N] : publications())
    To->add(N);
}

std::string ExecCore::valueToString(const Value &V) const {
  switch (V.kind()) {
  case Value::Kind::Nil:
    return "nil";
  case Value::Kind::Int:
    return std::to_string(V.asInt());
  case Value::Kind::Bool:
    return V.asBool() ? "true" : "false";
  case Value::Kind::Object: {
    const Obj *O = V.asObject();
    switch (O->payload()) {
    case Obj::Payload::Str:
      return O->Str;
    case Obj::Payload::Array: {
      std::ostringstream OS;
      OS << '[';
      for (size_t I = 0; I != O->Slots.size(); ++I) {
        if (I)
          OS << ", ";
        OS << valueToString(O->Slots[I]);
      }
      OS << ']';
      return OS.str();
    }
    case Obj::Payload::Closure:
      return "<closure>";
    case Obj::Payload::Instance:
      return "<" + P.Syms.name(P.Classes.info(O->getClass()).Name) + ">";
    }
  }
  }
  return "?";
}

void ExecCore::spillArc(CallSiteId Site, MethodId Callee) {
  if (!Site.isValid())
    return;
  Opts.Profile->addHits(Site, P.callSite(Site).Owner, Callee);
}

void ExecCore::flushArcs() {
  if (!ArcCounts)
    return;
  for (uint32_t S = 0; S != NumArcSites; ++S) {
    SiteArcs &A = ArcCounts[S];
    for (unsigned I = 0; I != SiteArcSlots; ++I) {
      if (!A.Callee[I].isValid())
        continue;
      Opts.Profile->addHits(CallSiteId(S), P.callSite(CallSiteId(S)).Owner,
                            A.Callee[I], A.Count[I]);
      A.Callee[I] = MethodId();
      A.Count[I] = 0;
    }
  }
}

//===----------------------------------------------------------------------===//
// Traps
//===----------------------------------------------------------------------===//

Value ExecCore::fail(Control &C, TrapKind Kind, SourceLoc Loc,
                     std::string Message) {
  // First failure wins; anything signaled while already unwinding an
  // error is dropped.
  if (C.K != Control::Kind::Error) {
    C.K = Control::Kind::Error;
    Trap.reset();
    Trap.Kind = Kind;
    Trap.Loc = Loc;
    Trap.Message = std::move(Message);
    // Attach a bounded stack trace, innermost frame first.
    for (auto It = CallStack.rbegin(); It != CallStack.rend(); ++It) {
      if (Trap.Backtrace.size() == RuntimeTrap::MaxBacktraceFrames) {
        Trap.FramesElided =
            CallStack.size() - RuntimeTrap::MaxBacktraceFrames;
        break;
      }
      Trap.Backtrace.push_back(P.methodLabel(*It));
    }
    Error = Trap.render();
  }
  return Value::nil();
}

void ExecCore::failTop(TrapKind Kind, std::string Message) {
  Trap.reset();
  Trap.Kind = Kind;
  Trap.Message = std::move(Message);
  Error = Trap.render();
}

Value ExecCore::failPrimType(Control &C, PrimOp Op, SourceLoc Loc,
                             const char *Expected) {
  return fail(C, TrapKind::TypeError, Loc,
              std::string("primitive '") + primOpName(Op) + "' expects " +
                  Expected);
}

Value ExecCore::failOverflow(Control &C, PrimOp Op, SourceLoc Loc) {
  return fail(C, TrapKind::ArithmeticOverflow, Loc,
              std::string("integer overflow in primitive '") +
                  primOpName(Op) + "' (INT64_MIN by -1)");
}

Value ExecCore::failBounds(Control &C, SourceLoc Loc, int64_t Index,
                           size_t Size) {
  return fail(C, TrapKind::IndexOutOfBounds, Loc,
              "array index " + std::to_string(Index) +
                  " out of bounds (size " + std::to_string(Size) + ")");
}

Value ExecCore::failNoSlot(Control &C, SourceLoc Loc, ClassId Cls,
                           Symbol SlotName) {
  return fail(C, TrapKind::UndefinedSlot, Loc,
              "class '" + P.Syms.name(P.Classes.info(Cls).Name) +
                  "' has no slot '" + P.Syms.name(SlotName) + "'");
}

Value ExecCore::failDispatch(Control &C, const SendExpr *S) {
  // Re-dispatch (cold) to tell "no applicable method" from "ambiguous".
  bool Ambiguous = false;
  P.dispatch(S->Generic, ClassScratch, &Ambiguous);
  if (Ambiguous)
    return fail(C, TrapKind::AmbiguousDispatch, S->getLoc(),
                "message '" + P.genericLabel(S->Generic) +
                    "' is ambiguous for the given argument classes");
  return fail(C, TrapKind::NoApplicableMethod, S->getLoc(),
              "message '" + P.genericLabel(S->Generic) + "' not understood");
}

Value ExecCore::failNodeBudget(Control &C, SourceLoc Loc) {
  return fail(C, TrapKind::NodeBudgetExceeded, Loc,
              "execution exceeded the node budget of " +
                  std::to_string(Opts.Limits.MaxNodes) +
                  " nodes (infinite loop?)");
}

Value ExecCore::failDepth(Control &C, SourceLoc Loc) {
  return fail(C, TrapKind::RecursionLimitExceeded, Loc,
              "call depth exceeded the recursion limit of " +
                  std::to_string(Opts.Limits.MaxDepth) + " activations");
}

Value ExecCore::failNativeStack(Control &C, SourceLoc Loc) {
  return fail(C, TrapKind::RecursionLimitExceeded, Loc,
              "recursion exhausted the native stack headroom (" +
                  std::to_string(StackBudget) +
                  " bytes) before reaching the recursion limit of " +
                  std::to_string(Opts.Limits.MaxDepth) + " activations");
}

Value ExecCore::failHeapLimit(Control &C, SourceLoc Loc) {
  return fail(C, TrapKind::HeapLimitExceeded, Loc,
              "allocation exceeded the heap limit of " +
                  std::to_string(Opts.Limits.MaxObjects) + " objects");
}

Value ExecCore::failMemoryBudget(Control &C, SourceLoc Loc,
                                 uint64_t Requested) {
  return fail(C, TrapKind::MemoryBudgetExceeded, Loc,
              "allocation of " + std::to_string(Requested) +
                  " modeled bytes exceeded the memory budget of " +
                  std::to_string(Opts.Limits.MaxBytes) + " bytes (" +
                  std::to_string(TheHeap.bytesAllocated()) +
                  " already allocated)");
}

Value ExecCore::failDeadline(Control &C, SourceLoc Loc) {
  CtrDeadlineExpired.add();
  return fail(C, TrapKind::DeadlineExceeded, Loc,
              Opts.Cancel ? Opts.Cancel->reason() : "execution cancelled");
}

Value ExecCore::failInjected(Control &C, SourceLoc Loc, const char *Name) {
  return fail(C, TrapKind::InternalError, Loc,
              failpoint::failureMessage(Name));
}

bool ExecCore::bindingHolds(const SendExpr *S, const Value *Args, size_t N,
                            Control &C) {
  std::vector<ClassId> Classes;
  for (size_t I = 0; I != N; ++I)
    Classes.push_back(Args[I].classOf());
  MethodId Real = P.dispatch(S->Generic, Classes);
  const std::string Site = std::to_string(S->Site.value());
  switch (S->Binding.Kind) {
  case SendBindKind::Static: {
    const CompiledMethod &CM = CP.version(S->Binding.TargetVersion);
    if (Real != CM.Source) {
      fail(C, TrapKind::BindingViolation, S->getLoc(),
           "static binding violation at site " + Site + ": bound to " +
               P.methodLabel(CM.Source) + " but dispatch picks " +
               (Real.isValid() ? P.methodLabel(Real) : "<none>"));
      return false;
    }
    if (!tupleContains(CM.Tuple, Classes)) {
      fail(C, TrapKind::BindingViolation, S->getLoc(),
           "static version binding violation at site " + Site);
      return false;
    }
    return true;
  }
  case SendBindKind::StaticSelect:
    if (Real != S->Binding.Target) {
      fail(C, TrapKind::BindingViolation, S->getLoc(),
           "static-select binding violation at site " + Site);
      return false;
    }
    return true;
  case SendBindKind::InlinePrim:
    if (Real != S->Binding.Target) {
      fail(C, TrapKind::BindingViolation, S->getLoc(),
           "inline-prim binding violation at site " + Site);
      return false;
    }
    return true;
  default:
    return true; // dynamic kinds dispatch for real anyway
  }
}

//===----------------------------------------------------------------------===//
// Allocation
//===----------------------------------------------------------------------===//

Obj *ExecCore::allocString(std::string S, SourceLoc Loc, Control &C) {
  if (!allocOk(membudget::stringBytes(S.size()), Loc, C))
    return nullptr;
  return TheHeap.newString(std::move(S));
}

Obj *ExecCore::allocInstance(ClassId Class, unsigned LayoutSize,
                             SourceLoc Loc, Control &C) {
  if (!allocOk(membudget::instanceBytes(LayoutSize), Loc, C))
    return nullptr;
  ++Stats.Allocations;
  Stats.Cycles += Costs.AllocCost + LayoutSize;
  return TheHeap.newInstance(Class, LayoutSize);
}

Obj *ExecCore::allocClosure(const ClosureLitExpr *Lit, Frame &F,
                            SourceLoc Loc, Control &C) {
  if (!allocOk(membudget::closureBytes(Lit->Captures.size()), Loc, C))
    return nullptr;
  ++Stats.ClosuresCreated;
  Stats.Cycles += Costs.ClosureCreateCost;
  std::vector<CellPtr> Captured;
  Captured.reserve(Lit->Captures.size());
  for (const CaptureSpec &CS : Lit->Captures)
    Captured.push_back(CS.Source == CaptureSpec::From::EnclosingCell
                           ? F.cell(CS.Index)
                           : F.capture(CS.Index));
  return TheHeap.newClosure(Lit, std::move(Captured), CurrentHome);
}

//===----------------------------------------------------------------------===//
// Primitives
//===----------------------------------------------------------------------===//

Value ExecCore::invokePrim(PrimOp Op, const Value *Args, SourceLoc Loc,
                           Control &C) {
  auto WantInt = [&](const Value &V, int64_t &Out) {
    if (!V.isInt()) {
      failPrimType(C, Op, Loc, "an integer");
      return false;
    }
    Out = V.asInt();
    return true;
  };
  auto WantStr = [&](const Value &V, const std::string *&Out) {
    if (!V.isObject() || V.asObject()->payload() != Obj::Payload::Str) {
      failPrimType(C, Op, Loc, "a string");
      return false;
    }
    Out = &V.asObject()->Str;
    return true;
  };
  auto WantArray = [&](const Value &V, Obj *&Out) {
    if (!V.isObject() || V.asObject()->payload() != Obj::Payload::Array) {
      failPrimType(C, Op, Loc, "an array");
      return false;
    }
    Out = V.asObject();
    return true;
  };

  int64_t A = 0, B = 0;
  const std::string *SA = nullptr, *SB = nullptr;
  Obj *Arr = nullptr;

  switch (Op) {
  case PrimOp::None:
    return fail(C, TrapKind::InternalError, Loc,
                "internal: invoking PrimOp::None");

  case PrimOp::IntAdd:
  case PrimOp::IntSub:
  case PrimOp::IntMul:
  case PrimOp::IntDiv:
  case PrimOp::IntMod:
  case PrimOp::IntNeg:
  case PrimOp::IntLess:
  case PrimOp::IntLessEq:
  case PrimOp::IntGreater:
  case PrimOp::IntGreaterEq:
  case PrimOp::IntEq:
  case PrimOp::IntNe: {
    if (!WantInt(Args[0], A) || (Op != PrimOp::IntNeg && !WantInt(Args[1], B)))
      return Value::nil();
    Value Result;
    switch (evalIntPrim(Op, A, B, Result)) {
    case IntOutcome::Ok:
      return Result;
    case IntOutcome::DivisionByZero:
      return fail(C, TrapKind::DivisionByZero, Loc,
                  Op == PrimOp::IntMod ? "modulo by zero" : "division by zero");
    case IntOutcome::Overflow:
      return failOverflow(C, Op, Loc);
    }
    return Value::nil();
  }

  case PrimOp::BoolNot:
    if (!Args[0].isBool())
      return fail(C, TrapKind::TypeError, Loc, "'not' expects a boolean");
    return Value::ofBool(!Args[0].asBool());
  case PrimOp::BoolEq:
    if (!Args[0].isBool() || !Args[1].isBool())
      return fail(C, TrapKind::TypeError, Loc,
                  "'==' on booleans expects booleans");
    return Value::ofBool(Args[0].asBool() == Args[1].asBool());

  case PrimOp::AnyEq:
    return Value::ofBool(Args[0].identicalTo(Args[1]));
  case PrimOp::AnyNe:
    return Value::ofBool(!Args[0].identicalTo(Args[1]));

  case PrimOp::StrConcat:
    if (!WantStr(Args[0], SA) || !WantStr(Args[1], SB))
      return Value::nil();
    // Guard before concatenating: the budget must refuse a huge result
    // before the host allocates it.
    if (!allocOk(membudget::stringBytes(SA->size() + SB->size()), Loc, C))
      return Value::nil();
    return Value::ofObj(TheHeap.newString(*SA + *SB));
  case PrimOp::StrEq:
    if (!WantStr(Args[0], SA) || !WantStr(Args[1], SB))
      return Value::nil();
    return Value::ofBool(*SA == *SB);
  case PrimOp::StrLess:
    if (!WantStr(Args[0], SA) || !WantStr(Args[1], SB))
      return Value::nil();
    return Value::ofBool(*SA < *SB);
  case PrimOp::StrSize:
    if (!WantStr(Args[0], SA))
      return Value::nil();
    return Value::ofInt(static_cast<int64_t>(SA->size()));

  case PrimOp::ArrayNew:
    if (!WantInt(Args[0], A))
      return Value::nil();
    if (A < 0)
      return fail(C, TrapKind::TypeError, Loc,
                  "array size must be non-negative");
    if (!allocOk(membudget::arrayBytes(static_cast<uint64_t>(A)), Loc, C))
      return Value::nil();
    ++Stats.Allocations;
    Stats.Cycles += Costs.AllocCost + static_cast<uint64_t>(A);
    return Value::ofObj(TheHeap.newArray(static_cast<size_t>(A)));
  case PrimOp::ArrayAt:
    if (!WantArray(Args[0], Arr) || !WantInt(Args[1], A))
      return Value::nil();
    if (A < 0 || static_cast<size_t>(A) >= Arr->Slots.size())
      return failBounds(C, Loc, A, Arr->Slots.size());
    Stats.Cycles += Costs.SlotCost;
    return Arr->Slots[static_cast<size_t>(A)];
  case PrimOp::ArrayPut:
    if (!WantArray(Args[0], Arr) || !WantInt(Args[1], A))
      return Value::nil();
    if (A < 0 || static_cast<size_t>(A) >= Arr->Slots.size())
      return failBounds(C, Loc, A, Arr->Slots.size());
    Stats.Cycles += Costs.SlotCost;
    Arr->Slots[static_cast<size_t>(A)] = Args[2];
    return Args[2];
  case PrimOp::ArraySize:
    if (!WantArray(Args[0], Arr))
      return Value::nil();
    return Value::ofInt(static_cast<int64_t>(Arr->Slots.size()));

  case PrimOp::Print:
    if (Opts.Output)
      *Opts.Output << valueToString(Args[0]) << '\n';
    return Value::nil();
  case PrimOp::ClassName: {
    Obj *S = allocString(P.Syms.name(P.Classes.info(Args[0].classOf()).Name),
                         Loc, C);
    return S ? Value::ofObj(S) : Value::nil();
  }
  case PrimOp::Abort:
    return fail(C, TrapKind::UserAbort, Loc,
                "abort: " + valueToString(Args[0]));
  }
  return fail(C, TrapKind::InternalError, Loc,
              "internal: unknown primitive");
}

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

bool ExecCore::enterGeneric(const std::string &Name,
                            const std::vector<Value> &Args, MethodId &Target,
                            int &Version) {
  Error.clear();
  Trap.reset();
  // A deadline that expired before entry fails immediately rather than
  // waiting for the first sampled node-charge poll.
  if (Opts.Cancel && Opts.Cancel->stopRequested()) {
    CtrDeadlineExpired.add();
    failTop(TrapKind::DeadlineExceeded, Opts.Cancel->reason());
    return false;
  }
  Symbol S = P.Syms.find(Name);
  GenericId G = S.isValid()
                    ? P.lookupGeneric(S, static_cast<unsigned>(Args.size()))
                    : GenericId();
  if (!G.isValid()) {
    failTop(TrapKind::NoApplicableMethod,
            "no generic function '" + Name + "/" +
                std::to_string(Args.size()) + "'");
    return false;
  }
  std::vector<ClassId> Classes;
  for (const Value &V : Args)
    Classes.push_back(V.classOf());
  bool Ambiguous = false;
  Target = P.dispatch(G, Classes, &Ambiguous);
  if (!Target.isValid()) {
    failTop(Ambiguous ? TrapKind::AmbiguousDispatch
                      : TrapKind::NoApplicableMethod,
            Ambiguous ? "message '" + Name + "' is ambiguous"
                      : "message '" + Name + "' not understood");
    return false;
  }
  Version = CP.selectVersion(Target, Classes);
  return true;
}

bool ExecCore::leaveGeneric(const Control &C) {
  if (C.K == Control::Kind::Error)
    return false;
  if (C.K == Control::Kind::Return) {
    failTop(TrapKind::InternalError,
            "non-local return escaped its home activation");
    return false;
  }
  return true;
}

void ExecCore::hostFailure(const char *What) {
  // The exception unwound every activation (frames and argument stacks
  // are RAII); what remains is the bookkeeping they do by hand.
  Depth = 0;
  CurrentHome = 0;
  CallStack.clear();
  // The arcs counted before the failure still belong to the profile; a
  // host that cannot take even those loses the rest, not the process.
  try {
    flushArcs();
  } catch (const std::bad_alloc &) {
    if (ArcCounts)
      std::fill_n(ArcCounts.get(), NumArcSites, SiteArcs());
  }
  failTop(TrapKind::InternalError,
          std::string("host allocation failure (") + What +
              ") escaped the run");
}
