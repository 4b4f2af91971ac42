//===- bytecode/BytecodeInterpreter.h - Register-bytecode tier -*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a BcModule: the flat register-bytecode twin of the AST
/// Interpreter, with the same public surface (callMain/callGeneric,
/// RunStats, RuntimeTrap, rendered errors) so the driver can select a
/// tier without caring which one runs.  This class owns only the dispatch
/// loop (computed goto under GCC/Clang, a switch elsewhere) and its
/// per-thread inline-cache side tables.  Primitives, traps, guards, stats
/// publication and the send protocol are the AST tier's own, from
/// ExecCore (interp/ExecCore.h); the charged instruction stream
/// reproduces the AST walker's node accounting, so RunStats are
/// bit-identical across tiers, which tests/BytecodeTests.cpp enforces
/// differentially.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_BYTECODE_BYTECODEINTERPRETER_H
#define SELSPEC_BYTECODE_BYTECODEINTERPRETER_H

#include "bytecode/Bytecode.h"
#include "interp/ExecCore.h"

#include <cstdint>
#include <vector>

namespace selspec {

class BytecodeInterpreter : public ExecProtocol<BytecodeInterpreter> {
public:
  /// \p Mod must be the compilation of \p CP (see compileToBytecode) and
  /// must outlive the interpreter.  Both are shared, never mutated: all
  /// adaptive state (inline caches, slot caches) lives in per-interpreter
  /// side-tables, so any number of concurrent interpreters may execute
  /// one (CP, Mod) snapshot.
  BytecodeInterpreter(const CompiledProgram &CP, const BcModule &Mod,
                      RunOptions Opts = {}, CostModel Costs = {});

  /// Publishes icPublications(); ExecCore publishes its own list.
  ~BytecodeInterpreter();

  /// The inline-cache counters (`bytecode.*`) with this run's values:
  /// what the destructor publishes and per-job metrics deltas copy.
  std::vector<Publication> icPublications() const;

  uint64_t icHits() const { return IcHits; }
  uint64_t icMisses() const { return IcMisses; }

private:
  friend class ExecProtocol<BytecodeInterpreter>;

  Value execute(const BcFunction &Fn, Frame &F, Control &C);

  // ExecProtocol hooks: every body is a BcFunction.  Closures made by this
  // tier carry theirs; ones handed in from outside (embedder values) fall
  // back to the module map.
  const BcFunction *methodBody(const CompiledMethod &CM) {
    return Mod.ByVersion[CM.Index];
  }
  const BcFunction *closureBody(Obj *Closure) {
    if (Closure->BcFn)
      return Closure->BcFn;
    auto It = Mod.ByClosure.find(Closure->Lit);
    return It == Mod.ByClosure.end() ? nullptr : It->second;
  }
  Value runBody(const BcFunction &Fn, Frame &F, Control &C) {
    return execute(Fn, F, C);
  }
  /// Inline-cache front ends of the core's table lookups.
  bool lookupTarget(const BcSite &Site, MethodId &Target, int &Version);
  void lookupVersion(const BcSite &Site, MethodId &Target, int &Version);

  /// Inline-cache probe/fill over ClassScratch, against this
  /// interpreter's side-table entry for the site (IcTable[Site.IcSlot]).
  /// A hit yields the cached (method, version); under SELSPEC_IC_AUDIT=1
  /// hits are re-verified against full dispatch
  /// (`bytecode.ic_misdispatch`).
  bool icFind(const BcSite &Site, MethodId &Target, int &Version);
  void icInsert(const BcSite &Site, MethodId Target, int Version);

  /// One send site's per-thread inline cache: the BcIcEntry ways plus the
  /// round-robin replacement cursor, indexed by BcSite::IcSlot.
  struct IcSlotState {
    BcIcEntry Ways[BcIcEntries];
    uint8_t Victim = 0;
  };
  /// One slot-access site's per-thread (class -> layout index) cache,
  /// indexed by BcSlotSite::CacheSlot.
  struct SlotCacheState {
    ClassId CachedClass; ///< invalid id = empty.
    int32_t CachedIndex = -1;
  };

  /// Layout index of slot site \p SS in class \p Cls, through the site's
  /// per-thread one-entry cache; -1 when the class has no such slot.
  int slotIndex(const BcSlotSite &SS, ClassId Cls) {
    SlotCacheState &SC = SlotCaches[SS.CacheSlot];
    if (SC.CachedIndex >= 0 && Cls == SC.CachedClass)
      return SC.CachedIndex;
    const int Idx = P.Classes.slotIndex(Cls, SS.Name);
    if (Idx >= 0) {
      SC.CachedClass = Cls;
      SC.CachedIndex = Idx;
    }
    return Idx;
  }

  const BcModule &Mod;
  /// Per-thread IC side-tables (the module itself is immutable and
  /// shared): sized once from Mod.NumIcSlots / Mod.NumSlotCacheSlots.
  std::vector<IcSlotState> IcTable;
  std::vector<SlotCacheState> SlotCaches;
  /// Inline-cache observability (published as `bytecode.*` counters).
  uint64_t IcHits = 0;
  uint64_t IcMisses = 0;
  uint64_t IcMisdispatches = 0;
  /// SELSPEC_IC_AUDIT=1: re-verify every IC hit against full dispatch.
  bool IcAudit = false;
};

} // namespace selspec

#endif // SELSPEC_BYTECODE_BYTECODEINTERPRETER_H
