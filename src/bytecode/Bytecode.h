//===- bytecode/Bytecode.h - Flat register bytecode format -----*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flat register-bytecode execution tier's program representation.
///
/// Every optimized, slot-resolved body (compiled method version or closure
/// literal) lowers to one BcFunction: a linear instruction stream over a
/// register file that is simply the tail of the body's activation frame
/// (Frame slots [Layout-slots, Layout-slots + temps)), so Frame/FramePool
/// are reused unchanged and temporaries are as cheap as locals.
///
/// The lowering preserves the AST walker's *exact* accounting: each AST
/// node corresponds to exactly one charge in the stream, emitted in
/// pre-order (charge at node entry, before children), so RunStats —
/// NodesEvaluated, NodeMix, Cycles, dispatch counters, PeakDepth, trap
/// kinds — are bit-identical between tiers.  Charging is either fused
/// into a leaf instruction (literals, variable reads) or carried by a
/// dedicated Charge instruction preceding the node's child code.
/// Consecutive Charge instructions (a Send whose first argument is a
/// Send, a Seq opening with a Let, ...) form a straight-line run; every
/// one of them but the last becomes a ChargeRun whose D holds the length
/// of the run from it to the end.  A ChargeRun charges that whole suffix
/// in one step and skips it when neither the node budget nor a deadline
/// poll falls inside; otherwise it charges its own node exactly like
/// Charge and steps to the next instruction.  Either way each node of the
/// run is charged once, with its own kind and location.
///
/// Call sites consult a small inline cache of (class tuple -> method,
/// version) entries before the program's compressed dispatch table and
/// version selection, so the hot dispatch path is a handful of compares.
/// The mutable IC state does NOT live in the module: a BcModule is part
/// of an immutable, thread-shared CompiledSnapshot, so each BcSite (and
/// each slot-access site) carries only a dense index (IcSlot/CacheSlot)
/// into a per-interpreter — hence per-thread — IC side-table that the
/// BytecodeInterpreter allocates from NumIcSlots/NumSlotCacheSlots.  The
/// 12-byte instruction encoding is unchanged; instructions still name
/// sites, sites name side-table slots.  IC state is observability only —
/// a hit returns exactly what DispatchTable::lookup +
/// CompiledProgram::selectVersion would return for the same immutable
/// program, which the SELSPEC_IC_AUDIT=1 mode re-verifies (counting
/// `bytecode.ic_misdispatch`).
///
/// Non-local returns: boundary-B returns lexically inside their matching
/// InlinedExpr region resolve statically to a move + jump; all others
/// become RetNonLocal, unwound at call instructions against the
/// per-function BcRegion table (pc-range containment picks the innermost
/// matching region, the bytecode analogue of the nearest enclosing
/// InlinedExpr catch in the AST walker).
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_BYTECODE_BYTECODE_H
#define SELSPEC_BYTECODE_BYTECODE_H

#include "hierarchy/PrimOp.h"
#include "lang/Ast.h"
#include "support/Ids.h"
#include "support/SourceLoc.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace selspec {

class CompiledProgram;
struct CompiledMethod;

/// Opcodes of the register bytecode.  "Charged" ops fuse the AST node's
/// chargeNode (budget/deadline accounting + NodeMix) with their action;
/// "raw" ops are lowering glue that the AST walker had no node for and
/// charge nothing.
enum class BcOp : uint8_t {
  // Charged, fused leaves.
  LoadInt,        ///< IntLit.  A=dst; K=1: D is an int32 immediate, else
                  ///< D indexes IntPool.
  LoadBool,       ///< BoolLit.  A=dst, K=value.
  LoadStr,        ///< StrLit.  A=dst, D=StrPool index (heap-checked).
  LoadNil,        ///< NilLit.  A=dst.
  LoadVarSlot,    ///< VarRef of a frame slot.  A=dst, B=slot index.
  LoadVarCell,    ///< VarRef of an owned cell.  A=dst, B=cell index.
  LoadVarCapture, ///< VarRef of a captured cell.  A=dst, B=capture index.

  // Charge-only markers for composite nodes (children follow).
  Charge,    ///< K=Expr::Kind; Loc is the node's (for budget/deadline traps).
  ChargeRun, ///< A Charge followed by more: D = this and the following
             ///< Charge/ChargeRun instructions (>= 2), charged together
             ///< when no budget or deadline check lands among them.

  // Raw data movement.
  Move,         ///< A=dst, B=src.
  LoadNilRaw,   ///< A=dst (uncharged nil, e.g. empty Seq / While result).
  StoreSlot,    ///< frame slot B = R[A]  (AssignVar / Let / binding).
  StoreCell,    ///< cell B's value = R[A]  (AssignVar through a cell).
  StoreCapture, ///< capture B's value = R[A].
  LetCell,      ///< cell B = fresh Cell{R[A]}  (per-execution let / binding).

  // Raw control flow.
  Jump,       ///< Pc = D.
  CondBranch, ///< R[A] must be Bool else TypeError (K=0 "if", K=1 "while");
              ///< false jumps to D, true falls through.
  StackCheck, ///< Native-stack backstop probe (InlinedExpr entry).

  // Calls.  A=dst, B=first argument register, C=arg count, D=BcSite
  // index.  The Send node's charge is a preceding Charge instruction
  // (pre-order: charge, then argument code, then the call).
  CallDyn,      ///< SendBindKind::Dynamic.
  CallStatic,   ///< SendBindKind::Static.
  CallSelect,   ///< SendBindKind::StaticSelect.
  CallPrim,     ///< SendBindKind::InlinePrim.
  CallPred,     ///< SendBindKind::Predicted.
  CallFeedback, ///< SendBindKind::FeedbackGuard.
  CallClosure,  ///< A=dst, B=callee register (args at B+1..B+C), C=count.

  // Objects and closures.
  MakeClosure, ///< Charged ClosureLit.  A=dst, D=Closures index.
  NewObj,      ///< Charged New.  A=dst, D=NewSites index.
  InitSlot,    ///< R[A].Slots[B] = R[C] (raw; slot index precomputed).
  GetSlot,     ///< A=dst, B=object reg, D=SlotSites index.
  SetSlot,     ///< A=dst(result), B=object reg, C=value reg, D=SlotSites.

  // Returns.
  RetLocal,    ///< Return R[A] from this function (epilogue; boundary-0
               ///< returns of method bodies).
  RetNonLocal, ///< Control{Return, CurrentHome, D} with value R[A].
};

/// Every BcOp, in declaration order: the one list the interpreter's jump
/// table, its portable switch and bcOpName expand (X-macro), checked
/// against the enum below.
#define SELSPEC_BC_OPS(X)                                                      \
  X(LoadInt) X(LoadBool) X(LoadStr) X(LoadNil) X(LoadVarSlot) X(LoadVarCell)   \
  X(LoadVarCapture) X(Charge) X(ChargeRun) X(Move) X(LoadNilRaw)               \
  X(StoreSlot) X(StoreCell) X(StoreCapture) X(LetCell) X(Jump) X(CondBranch)   \
  X(StackCheck)                                                                \
  X(CallDyn) X(CallStatic) X(CallSelect) X(CallPrim) X(CallPred)               \
  X(CallFeedback) X(CallClosure) X(MakeClosure) X(NewObj) X(InitSlot)          \
  X(GetSlot) X(SetSlot) X(RetLocal) X(RetNonLocal)

namespace detail {
#define SELSPEC_BC_OP_ENTRY(Name) BcOp::Name,
constexpr BcOp BcOpList[] = {SELSPEC_BC_OPS(SELSPEC_BC_OP_ENTRY)};
#undef SELSPEC_BC_OP_ENTRY
constexpr bool bcOpListInOrder() {
  for (size_t I = 0; I != sizeof(BcOpList) / sizeof(BcOpList[0]); ++I)
    if (static_cast<size_t>(BcOpList[I]) != I)
      return false;
  return sizeof(BcOpList) / sizeof(BcOpList[0]) ==
         static_cast<size_t>(BcOp::RetNonLocal) + 1;
}
static_assert(bcOpListInOrder(), "SELSPEC_BC_OPS out of step with BcOp");
} // namespace detail

/// Readable opcode name ("LoadInt", "CallDyn", ...).
const char *bcOpName(BcOp Op);

/// One instruction.  Fixed 12-byte encoding; registers are frame-slot
/// indices (uint16), wide operands (jump targets, pool/site indexes,
/// return boundaries) live in D.
struct Insn {
  BcOp Op;
  uint8_t K = 0;
  uint16_t A = 0;
  uint16_t B = 0;
  uint16_t C = 0;
  uint32_t D = 0;
};

/// Inline-cache geometry: entries per site and the widest class tuple an
/// entry can hold (wider tuples always take the table path).
constexpr unsigned BcIcEntries = 4;
constexpr unsigned BcIcMaxArity = 6;

/// One inline-cache entry: an argument-class tuple with the dispatch
/// result (target method and its selected compiled version).  Lives in
/// the interpreter's per-thread IC side-table, never in the module.
struct BcIcEntry {
  uint8_t Arity = 0xff; ///< 0xff = empty.
  ClassId Classes[BcIcMaxArity];
  MethodId Target;
  int32_t Version = -1;
};

/// Per-send-site record: the resolved SendExpr (generic, site id, binding
/// annotation, location) plus compile-time-cached primitive info.
/// Immutable after compilation; the run-time IC state lives in the
/// interpreter's side-table at index IcSlot.
struct BcSite {
  const SendExpr *S = nullptr;
  /// InlinePrim/Predicted target primitive, resolved at compile time.
  PrimOp Prim = PrimOp::None;
  /// FeedbackGuard: the predicted target's primitive (None: a method).
  PrimOp TargetPrim = PrimOp::None;
  /// Module-dense index of this site's per-thread inline cache
  /// (< BcModule::NumIcSlots).
  uint32_t IcSlot = 0;
};

/// Per slot-access site: the slot name plus the module-dense index of its
/// per-thread one-entry (class -> layout index) cache
/// (< BcModule::NumSlotCacheSlots).  Immutable after compilation.
struct BcSlotSite {
  Symbol Name;
  uint32_t CacheSlot = 0;
};

/// Per `new` site: the resolved NewExpr and its class's layout size.
struct BcNewSite {
  const NewExpr *N = nullptr;
  uint32_t LayoutSize = 0;
};

struct BcFunction;

/// Per closure-literal site: the literal and its compiled body.
struct BcClosureRef {
  const ClosureLitExpr *Lit = nullptr;
  BcFunction *Fn = nullptr;
};

/// An inlined-body region: pc range of the body code, the return boundary
/// it catches, and the register its value lands in.  The landing pc is
/// End (the first instruction after the body).
struct BcRegion {
  uint32_t Start = 0;
  uint32_t End = 0;
  uint32_t Boundary = 0;
  uint16_t Dst = 0;
};

/// One compiled executable body.
struct BcFunction {
  /// Instruction stream; the compiler guarantees the last reachable
  /// instruction of every path is RetLocal/RetNonLocal.
  std::vector<Insn> Code;
  /// Source location per instruction (cold: trap construction only).
  std::vector<SourceLoc> Locs;
  /// The body's frame layout *augmented* with the temp registers:
  /// NumSlots = source layout slots + NumTemps.  Params/cells unchanged,
  /// so Frame::bindParam and capture wiring work exactly as in the AST
  /// tier.
  FrameLayout Layout;
  uint32_t NumTemps = 0;
  /// First temp register (== the source layout's NumSlots).
  uint32_t FirstTemp = 0;
  /// Source method (methods only; for backtraces and Invoked bits).
  MethodId Source;
  const CompiledMethod *Method = nullptr;
  const ClosureLitExpr *Lit = nullptr;
  /// Disassembly label ("fib(Int) #3" / "closure @12:5").
  std::string Name;

  std::vector<int64_t> IntPool;
  /// StrLit payloads; point into the AST, which outlives the module.
  std::vector<const std::string *> StrPool;
  std::vector<BcSite> Sites;
  std::vector<BcSlotSite> SlotSites;
  std::vector<BcNewSite> NewSites;
  std::vector<BcClosureRef> Closures;
  std::vector<BcRegion> Regions;
};

/// A compiled program: one BcFunction per non-builtin compiled method
/// version plus one per reachable closure literal.  Immutable once
/// compiled — execution state (inline caches, slot caches) lives in each
/// BytecodeInterpreter's side-tables, sized by the slot counts below —
/// so one module can back any number of concurrent interpreters.
struct BcModule {
  std::vector<std::unique_ptr<BcFunction>> Functions;
  /// CompiledMethod::Index -> function (null for builtins).
  std::vector<BcFunction *> ByVersion;
  std::unordered_map<const ClosureLitExpr *, BcFunction *> ByClosure;
  /// Module-wide count of send-site IC slots (BcSite::IcSlot range).
  uint32_t NumIcSlots = 0;
  /// Module-wide count of slot-access cache slots (BcSlotSite::CacheSlot
  /// range).
  uint32_t NumSlotCacheSlots = 0;
  /// Total instruction-stream bytes (the `bytecode.code_bytes` counter).
  uint64_t CodeBytes = 0;
  /// Compiled function count (methods + closures).
  uint32_t NumFunctions = 0;
  /// False when some body could not be lowered; the driver falls back to
  /// the AST tier for the whole run (Error says why).
  bool Ok = false;
  std::string Error;
};

} // namespace selspec

#endif // SELSPEC_BYTECODE_BYTECODE_H
