//===- specialize/Strategies.h - Table 1 configurations --------*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the SpecializationPlan for each compiler configuration of the
/// paper's Table 1:
///
///   Base      one general version per method, no CHA.
///   Cust      one version per inheriting receiver class (customization,
///             as in Self/Sather/Trellis).
///   Cust-MM   customization extended to multi-methods: one version per
///             combination of dispatched argument classes.
///   CHA       one general version per method, optimizer uses class
///             hierarchy analysis for static binding.
///   Selective CHA + the profile-guided selective algorithm (Figure 4).
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_SPECIALIZE_STRATEGIES_H
#define SELSPEC_SPECIALIZE_STRATEGIES_H

#include "specialize/SelectiveSpecializer.h"
#include "specialize/SpecTuple.h"
#include "support/Diagnostics.h"

namespace selspec {

/// Builds the plan for \p C.  \p Options only affects Selective.  A plan
/// made by running the selective specializer carries its statistics
/// (SpecializationPlan::Specializer), so callers need not run it again.
///
/// Selective wants a non-empty profile in \p CG; when it is null or empty
/// (missing, rejected, or invalidated profile data) the plan degrades to
/// CHA — general versions with class hierarchy analysis — and a warning is
/// appended to \p Diags when provided.  No configuration asserts on its
/// inputs.
SpecializationPlan makePlan(Config C, const Program &P,
                            const ApplicableClassesAnalysis &AC,
                            const PassThroughAnalysis &PT,
                            const CallGraph *CG,
                            const SelectiveOptions &Options = {},
                            Diagnostics *Diags = nullptr);

} // namespace selspec

#endif // SELSPEC_SPECIALIZE_STRATEGIES_H
