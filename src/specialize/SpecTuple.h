//===- specialize/SpecTuple.h - Specialization tuples ----------*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's general specialization framework: "a method can be
/// specialized for a tuple of class sets, one class set per formal
/// argument, including the receiver."  A SpecTuple is that tuple; a
/// SpecializationPlan maps every user method to the set of tuples for
/// which a compiled version should be produced.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_SPECIALIZE_SPECTUPLE_H
#define SELSPEC_SPECIALIZE_SPECTUPLE_H

#include "hierarchy/Program.h"
#include "support/ClassSet.h"

#include <optional>
#include <string>
#include <vector>

namespace selspec {

/// One class set per formal argument.
using SpecTuple = std::vector<ClassSet>;

/// Pointwise intersection; the result "exists" only if every component is
/// non-empty (paper: "tuples containing empty class sets are dropped").
SpecTuple tupleIntersect(const SpecTuple &A, const SpecTuple &B);

/// True when every component of the pointwise intersection is non-empty.
bool tupleIntersects(const SpecTuple &A, const SpecTuple &B);

/// True when no component is empty.
bool tupleNonEmpty(const SpecTuple &T);

bool tupleEquals(const SpecTuple &A, const SpecTuple &B);

/// True when A is pointwise a subset of B (A at least as specific as B).
bool tupleSubsetOf(const SpecTuple &A, const SpecTuple &B);

/// True when the concrete class tuple \p Classes is contained in \p T.
bool tupleContains(const SpecTuple &T, const std::vector<ClassId> &Classes);

/// "<{A,B},{C}>" with class names.
std::string tupleToString(const SpecTuple &T, const ClassHierarchy &H,
                          const SymbolTable &Syms);

/// The compiler configurations evaluated in the paper (Table 1).
enum class Config : uint8_t {
  Base,      ///< Intraprocedural optimization only; one version per method.
  Cust,      ///< Base + customization on the receiver class.
  CustMM,    ///< Base + customization on every dispatched argument combo.
  CHA,       ///< Base + whole-program class hierarchy analysis.
  Selective, ///< CHA + the profile-guided selective algorithm.
};

const char *configName(Config C);

/// What one SelectiveSpecializer run did (SelectiveSpecializer::Stats).
struct SelectiveStats {
  /// Methods that received at least one specialization.
  unsigned MethodsSpecialized = 0;
  /// Specialized versions added beyond the general versions.
  unsigned VersionsAdded = 0;
  /// Max versions (incl. general) for any single method.
  unsigned MaxVersionsOfAMethod = 0;
  /// Times cascadeSpecializations specialized a caller.
  uint64_t CascadedSpecializations = 0;
  /// Arcs skipped by the blow-up guard.
  uint64_t BlowupGuardHits = 0;
};

/// Which method versions to compile, plus optimizer switches.
struct SpecializationPlan {
  /// Per user method (indexed by MethodId), the tuples to compile.  For
  /// builtins the entry is empty (they always have exactly one version).
  /// Entry [0], when the method keeps a general version, equals the
  /// method's ApplicableClasses tuple.
  std::vector<std::vector<SpecTuple>> VersionsByMethod;

  /// Whether the optimizer may use class hierarchy analysis when deciding
  /// static binding (true for CHA and Selective).
  bool UseCHA = false;

  Config Configuration = Config::Base;

  /// The specializer's statistics, when the plan came from running it
  /// (Selective with a usable profile).
  std::optional<SelectiveStats> Specializer;

  /// Total compiled versions of user methods.
  unsigned totalVersions() const;
};

} // namespace selspec

#endif // SELSPEC_SPECIALIZE_SPECTUPLE_H
