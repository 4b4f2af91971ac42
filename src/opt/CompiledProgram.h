//===- opt/CompiledProgram.h - Compiled method versions --------*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The output of compilation: one CompiledMethod per (method, spec tuple)
/// pair in the plan, each holding its optimized body and code-size
/// estimate, plus the runtime version-selection rule (most-specific
/// matching tuple).  Figure 6's "routines compiled" counts these versions;
/// the Invoked bits support the dynamic-compilation variant of Figure 6.
///
/// Once every version exists, indexVersions() builds a per-method version
/// index (DESIGN.md §15): per argument position, the classes are split
/// into groups that no version tuple tells apart, and each group records
/// the versions whose tuple contains it.  Run-time version selection and
/// the optimizer's version-binding filter both answer from it instead of
/// scanning every tuple.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_OPT_COMPILEDPROGRAM_H
#define SELSPEC_OPT_COMPILEDPROGRAM_H

#include "lang/Ast.h"
#include "specialize/SpecTuple.h"

#include <atomic>
#include <deque>
#include <memory>
#include <vector>

namespace selspec {

/// One compiled version of a source method.
struct CompiledMethod {
  /// Dense index in CompiledProgram::versions().
  uint32_t Index = 0;
  MethodId Source;
  /// The class-set tuple this version is specialized for.  For builtins,
  /// the cones of the specializers.
  SpecTuple Tuple;
  /// Optimized body (null for builtins).
  ExprPtr Body;
  /// Frame layout of Body, computed by the SlotResolver after all
  /// optimizer rewrites; the interpreter sizes this version's activation
  /// frames from it.  Unresolved for builtins.
  FrameLayout Layout;
  /// Code-space estimate (optimized AST nodes + dispatch stubs).
  unsigned CodeSize = 0;
};

class CompiledProgram {
public:
  CompiledProgram(const Program &P, Config Configuration, bool UseCHA)
      : P(P), Configuration(Configuration), UseCHA(UseCHA) {}

  const Program &program() const { return P; }
  Config configuration() const { return Configuration; }
  bool usesCHA() const { return UseCHA; }

  /// Appends a version; returns its index.  A checked error (stderr
  /// diagnostic, then abort, in every build mode) once indexVersions()
  /// has run: the index would silently miss the new version.
  uint32_t addVersion(CompiledMethod CM);

  /// Builds the version index over the current versions.  Called once,
  /// after the last addVersion; selectVersion() and overlappingVersions()
  /// are checked errors before it.
  void indexVersions();

  const std::vector<CompiledMethod> &versions() const { return Versions; }
  CompiledMethod &version(uint32_t Index) { return Versions[Index]; }
  const CompiledMethod &version(uint32_t Index) const {
    return Versions[Index];
  }

  /// Version indexes of a source method.
  const std::vector<uint32_t> &versionsOf(MethodId M) const {
    return ByMethod[M.value()];
  }

  /// Runtime version selection: the most specific version of \p M whose
  /// tuple contains \p ArgClasses.  Returns -1 when none matches (a
  /// compilation bug if dispatch really chose \p M).
  int selectVersion(MethodId M, const std::vector<ClassId> &ArgClasses) const;

  /// Compile-time counterpart: the versions of \p M whose tuple
  /// intersects \p Sets at every position (tupleIntersects), ascending.
  std::vector<uint32_t> overlappingVersions(MethodId M,
                                            const SpecTuple &Sets) const;

  /// Marks version \p Index invoked (dynamic-compilation counting for
  /// Figure 6).  Const and thread-safe by design: a snapshot is shared as
  /// `const CompiledProgram &` across serving threads, and the invoked
  /// bits are the one piece of instrumentation the interpreters still
  /// write — monotonic relaxed stores on dedicated atomics, so concurrent
  /// marking is race-free and never perturbs RunStats.
  void markInvoked(uint32_t Index) const {
    // Load first: a hot version on a snapshot several threads run would
    // otherwise take a store, and its cache line, on every call.
    std::atomic<uint8_t> &Bit = InvokedBits[Index];
    if (!Bit.load(std::memory_order_relaxed))
      Bit.store(1, std::memory_order_relaxed);
  }
  bool invoked(uint32_t Index) const {
    return InvokedBits[Index].load(std::memory_order_relaxed) != 0;
  }

  /// Figure 6 statistics: compiled routine counts over *user* methods.
  unsigned numCompiledRoutines() const;
  unsigned numInvokedRoutines() const;
  uint64_t totalCodeSize() const;
  void resetInvoked();

private:
  /// The index's view of one argument position of one method: segments
  /// [SegBegin, SegEnd) of SegStart/SegGroup cover the class-id space.
  struct PositionIndex {
    uint32_t SegBegin = 0;
    uint32_t SegEnd = 0;
  };

  /// The segment holding class id \p C at position \p PI.
  uint32_t segmentOf(const PositionIndex &PI, uint32_t C) const;
  /// Positions of method \p M in the index, [first, first + arity).
  const PositionIndex *positionsOf(MethodId M) const {
    return Positions.data() + PosBegin[M.value()];
  }
  void requireIndexed(const char *Query) const {
    if (!Indexed)
      indexViolation(Query);
  }
  [[noreturn]] void indexViolation(const char *Query) const;

  const Program &P;
  Config Configuration;
  bool UseCHA;
  std::vector<CompiledMethod> Versions;
  std::vector<std::vector<uint32_t>> ByMethod;

  // Version index, flat over all methods (see indexVersions()).  A group
  // is a run [GroupBegin[G], GroupBegin[G+1]) of Members holding
  // method-local version numbers (positions in ByMethod[M]) in ascending
  // order; group 0 is the shared empty group.  Each segment starts at a
  // class id (SegStart) and maps every id up to the next segment's start
  // to one group (SegGroup); adjacent segments never share a group.
  bool Indexed = false;
  std::vector<uint32_t> PosBegin;
  std::vector<PositionIndex> Positions;
  std::vector<uint32_t> SegStart;
  std::vector<uint32_t> SegGroup;
  std::vector<uint32_t> GroupBegin;
  std::vector<uint32_t> Members;
  /// One invoked bit per version.  A deque because atomics are immovable
  /// and addVersion grows the set; deque growth never relocates elements,
  /// so raced markInvoked pointers stay valid.  `mutable` + atomic is the
  /// documented exception to snapshot immutability (see markInvoked).
  mutable std::deque<std::atomic<uint8_t>> InvokedBits;
};

} // namespace selspec

#endif // SELSPEC_OPT_COMPILEDPROGRAM_H
