//===- runtime/DispatchTable.h - Compressed dispatch tables ----*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 3.5 lists compressed multi-method dispatch tables (Chen et
/// al., Amiel et al.) among the lookup mechanisms a runtime with
/// specialized multi-methods can use.  This is that mechanism: per
/// generic function, an n-dimensional table indexed by per-argument class
/// groups.  Classes that behave identically at an argument position share
/// a group (the compression), so the table size is the product of the
/// *behavioral* group counts rather than of the class counts.
///
/// Lookup is two array reads per dispatched argument plus one table read —
/// constant time, no search.  A DispatchTableSet holds one table per
/// generic; built once per Program (which nothing changes after the front
/// end), it is the structure behind every interpreter's dispatch: the
/// bytecode tier's inline-cache misses and every AST-tier lookup read it.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_RUNTIME_DISPATCHTABLE_H
#define SELSPEC_RUNTIME_DISPATCHTABLE_H

#include "hierarchy/Program.h"

#include <vector>

namespace selspec {

/// Compressed dispatch table for one generic function.
class DispatchTable {
public:
  /// Builds the table for \p G by enumerating dispatch behaviors.
  /// \p CellCap overrides the materialization cap (tests exercise the
  /// overflow fallback with a small cap instead of filling 16M cells).
  DispatchTable(const Program &P, GenericId G, size_t CellCap = MaxCells);

  /// The method invoked for the given argument classes, or invalid for
  /// "message not understood"/ambiguous.  Equivalent to P.dispatch().
  MethodId lookup(const std::vector<ClassId> &ArgClasses) const {
    if (Oversized)
      return P.dispatch(G, ArgClasses);
    size_t Index = 0;
    size_t Stride = 1;
    for (size_t PI = 0; PI != Positions.size(); ++PI) {
      Index += GroupOf[PI][ArgClasses[Positions[PI]].value()] * Stride;
      Stride *= GroupCount[PI];
    }
    return Table[Index];
  }

  /// False when the compressed table would have exceeded the cell cap and
  /// the table was not materialized; lookup() then answers through
  /// Program::dispatch instead of failing.
  bool materialized() const { return !Oversized; }

  /// Cap on materialized cells, inclusive: exactly MaxCells cells still
  /// materializes, one more falls back.  16M cells ≈ 64 MiB of MethodIds;
  /// pathological hierarchies fall back to search-based dispatch instead
  /// of aborting.
  static constexpr size_t MaxCells = size_t(1) << 24;

  /// Compression statistics.
  unsigned numDispatchedPositions() const {
    return static_cast<unsigned>(GroupOf.size());
  }
  unsigned numGroups(unsigned DispatchedPos) const {
    return GroupCount[DispatchedPos];
  }
  size_t tableSize() const { return Table.size(); }
  /// Table cells an uncompressed class^n table would need.
  size_t uncompressedSize() const;

private:
  const Program &P;
  GenericId G;
  /// Positions of the generic that actually dispatch.
  std::vector<unsigned> Positions;
  /// GroupOf[i][classId] = group index of the class at dispatched
  /// position i.
  std::vector<std::vector<uint32_t>> GroupOf;
  std::vector<uint32_t> GroupCount;
  /// Row-major over group indexes.
  std::vector<MethodId> Table;
  /// Cell count exceeded the cap; Table is empty, lookups re-dispatch.
  bool Oversized = false;
};

/// A full set of tables, one per generic, sharing the Program.  Immutable
/// once built, so one set serves any number of interpreters on any number
/// of threads.
class DispatchTableSet {
public:
  /// Builds every generic's table in generic order.  A table that would
  /// take the set past CellBudget cells is not materialized (its generic
  /// answers through Program::dispatch, counted in
  /// `dispatch.table_fallbacks`), so no program pays more than the budget
  /// in build time or memory.
  explicit DispatchTableSet(const Program &P);

  /// Cells the whole set may materialize: 1M cells, 4 MiB of MethodIds.
  /// The Table 2 programs need at most a few hundred.
  static constexpr size_t CellBudget = size_t(1) << 20;

  const DispatchTable &forGeneric(GenericId G) const {
    return Tables[G.value()];
  }
  size_t totalCells() const;
  size_t totalUncompressedCells() const;

private:
  std::vector<DispatchTable> Tables;
};

} // namespace selspec

#endif // SELSPEC_RUNTIME_DISPATCHTABLE_H
