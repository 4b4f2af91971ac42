//===- specialize/SelectiveSpecializer.h - Figure 4 algorithm --*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's selective specialization algorithm (Figure 4), with the
/// paper's names kept for the key routines so the code can be read against
/// the pseudocode:
///
///   specializeProgram / specializeMethod / isSpecializableArc /
///   neededInfoForArc / addSpecialization / cascadeSpecializations
///
/// Inputs: the weighted dynamic call graph, ApplicableClasses (class
/// hierarchy analysis) and PassThroughArgs (source analysis).  Output: for
/// each method, the set of class-set tuples for which specialized versions
/// should be compiled, always including the general-purpose version.
///
/// Section 3.4 extensions are also implemented: the default heuristic is a
/// simple weight threshold (1,000 invocations in the paper); alternatively
/// a fixed space budget can be set, in which case arcs are visited in
/// decreasing weight order until the budget is consumed.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_SPECIALIZE_SELECTIVESPECIALIZER_H
#define SELSPEC_SPECIALIZE_SELECTIVESPECIALIZER_H

#include "analysis/ApplicableClasses.h"
#include "analysis/PassThroughArgs.h"
#include "profile/CallGraph.h"
#include "specialize/SpecTuple.h"

namespace selspec {

struct SelectiveOptions {
  /// Minimum Weight(arc) for an arc to be considered (paper: 1,000).
  uint64_t SpecializationThreshold = 1000;
  /// Section 3.3: specialize statically-bound callers so they can still
  /// statically bind to specialized callees.
  bool CascadeSpecializations = true;
  /// Section 3.4 alternative heuristic: when non-zero, ignore the
  /// threshold, visit specializable arcs in decreasing weight order, and
  /// stop once this many additional versions have been created.
  unsigned SpaceBudgetVersions = 0;
  /// Section 3.4's "more intelligent heuristic", sketched but not built
  /// by the paper: rank each candidate arc by estimated benefit/cost —
  /// benefit is the total weight of the caller's specializable arcs that
  /// the candidate's tuple would also statically bind (one specialization
  /// often binds several sites at once), cost is the caller's body size.
  /// Only used together with SpaceBudgetVersions.
  bool UseBenefitCostOrder = false;
  /// Safety valve against the exponential blow-up of combined
  /// specializations that the paper's programs never exhibited (§3.2:
  /// max 8 observed) but that a method with two highly-polymorphic
  /// pass-through formals can trigger.  Arcs are visited hottest-first,
  /// so the cap keeps the most profitable versions.
  unsigned MaxVersionsPerMethod = 16;
};

class SelectiveSpecializer {
public:
  SelectiveSpecializer(const Program &P, const ApplicableClassesAnalysis &AC,
                       const PassThroughAnalysis &PT, const CallGraph &CG,
                       SelectiveOptions Options = {});

  /// Runs specializeProgram(); call once.
  void run();

  /// Per-method specialization tuples ([0] is the general version).
  const std::vector<std::vector<SpecTuple>> &specializations() const {
    return Specializations;
  }

  //===--------------------------------------------------------------------===
  // Paper-named pieces, public so tests can check them directly.
  //===--------------------------------------------------------------------===

  /// An arc is specializable when it has pass-through arguments, when
  /// specializing the caller would actually sharpen its information
  /// (needed != ApplicableClasses[caller]), and when the call site is
  /// dynamically dispatched under the caller's current information.
  bool isSpecializableArc(const Arc &A) const;

  /// Most general caller tuple enabling static binding of \p A to its
  /// callee (maps the callee's ApplicableClasses back through the
  /// pass-through pairs).
  SpecTuple neededInfoForArc(const Arc &A) const;
  SpecTuple neededInfoForArc(const Arc &A, const SpecTuple &CalleeInfo) const;

  using Stats = SelectiveStats;
  const Stats &stats() const { return S; }

private:
  void specializeMethod(MethodId Meth);
  void addSpecialization(MethodId Meth, const SpecTuple &Spec);
  void cascadeSpecializations(const Arc &A, const SpecTuple &CalleeSpec);
  bool siteIsDynamic(const Arc &A) const;
  bool hasSpecialization(MethodId Meth, const SpecTuple &T) const;

  const Program &P;
  const ApplicableClassesAnalysis &AC;
  const PassThroughAnalysis &PT;
  const CallGraph &CG;
  SelectiveOptions Options;

  std::vector<std::vector<SpecTuple>> Specializations;
  /// Arcs grouped by caller / by callee, precomputed from CG.
  std::vector<std::vector<Arc>> ArcsFrom;
  std::vector<std::vector<Arc>> ArcsTo;
  Stats S;
  unsigned BudgetUsed = 0;
  bool Ran = false;
};

} // namespace selspec

#endif // SELSPEC_SPECIALIZE_SELECTIVESPECIALIZER_H
