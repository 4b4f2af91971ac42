//===- runtime/DispatchTable.cpp - Compressed dispatch tables --------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "runtime/DispatchTable.h"

#include "support/FailPoint.h"
#include "support/Metrics.h"

#include <map>

using namespace selspec;

static metrics::Counter &tableFallbacks() {
  static metrics::Counter &C = metrics::named("dispatch.table_fallbacks");
  return C;
}

DispatchTable::DispatchTable(const Program &P, GenericId G, size_t CellCap)
    : P(P), G(G) {
  const GenericInfo &Info = P.generic(G);

  // An injected build failure takes the same degradation path as an
  // oversized table: no materialization, lookups answer through
  // Program::dispatch.
  if (failpoint::anyArmed() && failpoint::triggered("dispatch.table-build")) {
    Oversized = true;
    tableFallbacks().add();
    return;
  }

  // Dispatched positions: where some method constrains the argument.
  for (unsigned I = 0; I != Info.Arity; ++I)
    for (MethodId M : Info.Methods)
      if (P.method(M).Specializers[I] != P.Classes.root()) {
        Positions.push_back(I);
        break;
      }

  unsigned U = P.Classes.size();

  // Group classes per dispatched position by their applicability pattern:
  // two classes that are subclasses of exactly the same specializers
  // dispatch identically at that position.
  GroupOf.resize(Positions.size());
  GroupCount.resize(Positions.size());
  std::vector<std::vector<ClassId>> Representatives(Positions.size());
  for (size_t PI = 0; PI != Positions.size(); ++PI) {
    unsigned ArgPos = Positions[PI];
    GroupOf[PI].assign(U, 0);
    std::map<std::vector<bool>, uint32_t> Groups;
    for (unsigned CI = 0; CI != U; ++CI) {
      std::vector<bool> Pattern;
      Pattern.reserve(Info.Methods.size());
      for (MethodId M : Info.Methods)
        Pattern.push_back(P.Classes.isSubclassOf(
            ClassId(CI), P.method(M).Specializers[ArgPos]));
      auto [It, Inserted] = Groups.emplace(
          std::move(Pattern), static_cast<uint32_t>(Groups.size()));
      GroupOf[PI][CI] = It->second;
      if (Inserted)
        Representatives[PI].push_back(ClassId(CI));
    }
    GroupCount[PI] = static_cast<uint32_t>(Groups.size());
  }

  // Fill the table by dispatching one representative tuple per cell.
  // Overflow-safe product: a hostile hierarchy can push the cell count
  // past any bound, in which case the table is skipped and lookups fall
  // back to search-based dispatch.  The cap is inclusive (exactly CellCap
  // cells materializes): Cells > CellCap / GC ⟺ Cells * GC > CellCap for
  // positive integers, so the pre-check is exact, not approximate.
  size_t Cells = 1;
  for (uint32_t GC : GroupCount) {
    if (GC != 0 && Cells > CellCap / GC) {
      Oversized = true;
      tableFallbacks().add();
      return;
    }
    Cells *= GC;
  }
  if (Cells > CellCap) {
    Oversized = true;
    tableFallbacks().add();
    return;
  }
  Table.assign(Cells, MethodId());

  std::vector<ClassId> Args(Info.Arity, P.Classes.root());
  std::vector<uint32_t> Cursor(Positions.size(), 0);
  for (size_t Cell = 0; Cell != Cells; ++Cell) {
    for (size_t PI = 0; PI != Positions.size(); ++PI)
      Args[Positions[PI]] = Representatives[PI][Cursor[PI]];
    Table[Cell] = P.dispatch(G, Args);

    for (size_t PI = 0;
         PI != Cursor.size() && ++Cursor[PI] == GroupCount[PI]; ++PI)
      Cursor[PI] = 0;
  }
}

size_t DispatchTable::uncompressedSize() const {
  size_t N = 1;
  for (size_t PI = 0; PI != Positions.size(); ++PI)
    N *= P.Classes.size();
  return N;
}

static_assert(DispatchTableSet::CellBudget <= DispatchTable::MaxCells,
              "the set's budget must bind before the per-table cap");

DispatchTableSet::DispatchTableSet(const Program &P) {
  Tables.reserve(P.numGenerics());
  size_t Used = 0;
  for (unsigned GI = 0; GI != P.numGenerics(); ++GI) {
    Tables.emplace_back(P, GenericId(GI), CellBudget - Used);
    Used += Tables.back().tableSize();
  }
  static metrics::Counter &TableCells = metrics::named("dispatch.table_cells");
  TableCells.set(totalCells());
}

size_t DispatchTableSet::totalCells() const {
  size_t N = 0;
  for (const DispatchTable &T : Tables)
    N += T.tableSize();
  return N;
}

size_t DispatchTableSet::totalUncompressedCells() const {
  size_t N = 0;
  for (const DispatchTable &T : Tables)
    N += T.uncompressedSize();
  return N;
}
