//===- tests/TestUtil.h - Shared test helpers ------------------*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_TESTS_TESTUTIL_H
#define SELSPEC_TESTS_TESTUTIL_H

#include "driver/Pipeline.h"
#include "interp/Interpreter.h"
#include "opt/Optimizer.h"
#include "specialize/Strategies.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace selspec {
namespace test {

/// Builds a resolved Program from \p Sources (builtins included).  Fails
/// the current test on any diagnostic.
inline std::unique_ptr<Program>
buildProgram(const std::vector<std::string> &Sources) {
  auto P = std::make_unique<Program>();
  P->addBuiltins();
  Diagnostics Diags;
  for (const std::string &Src : Sources)
    if (!P->addSource(Src, Diags)) {
      ADD_FAILURE() << "program did not parse:\n" << Diags.toString();
      return nullptr;
    }
  if (!P->resolve(Diags)) {
    ADD_FAILURE() << "program did not resolve:\n" << Diags.toString();
    return nullptr;
  }
  return P;
}

/// Compiles \p P under \p C (optionally with a profile for Selective) and
/// returns the compiled program.
inline std::unique_ptr<CompiledProgram>
compileProgram(Program &P, Config C, const CallGraph *CG = nullptr,
               const SelectiveOptions &Sel = {},
               const OptimizerOptions &OptOpts = {}) {
  ApplicableClassesAnalysis AC(P);
  PassThroughAnalysis PT(P);
  SpecializationPlan Plan = makePlan(C, P, AC, PT, CG, Sel);
  Optimizer Opt(P, AC, OptOpts, CG);
  return Opt.compile(Plan);
}

/// Runs `main(Input)` on a fresh interpreter with binding validation on;
/// fails the test on runtime errors.  Returns the interpreter's stats.
inline RunStats runMain(CompiledProgram &CP, int64_t Input,
                        std::string *OutputText = nullptr,
                        CallGraph *Profile = nullptr) {
  std::ostringstream Out;
  RunOptions Opts;
  Opts.Output = &Out;
  Opts.ValidateBindings = true;
  Opts.Profile = Profile;
  Interpreter I(CP, Opts);
  EXPECT_TRUE(I.callMain(Input)) << "runtime error: " << I.errorMessage();
  if (OutputText)
    *OutputText = Out.str();
  return I.stats();
}

/// Full RunStats comparison, NodeMix included: the serving and tier
/// guarantees are identical counters, not merely identical output.
inline bool sameRunStats(const RunStats &A, const RunStats &B) {
  return A.DynamicDispatches == B.DynamicDispatches &&
         A.VersionSelects == B.VersionSelects &&
         A.StaticCalls == B.StaticCalls && A.InlinePrims == B.InlinePrims &&
         A.PredictedHits == B.PredictedHits &&
         A.PredictedMisses == B.PredictedMisses &&
         A.FeedbackHits == B.FeedbackHits &&
         A.FeedbackMisses == B.FeedbackMisses &&
         A.ClosuresCreated == B.ClosuresCreated &&
         A.ClosureCalls == B.ClosureCalls &&
         A.Allocations == B.Allocations &&
         A.MethodInvocations == B.MethodInvocations &&
         A.NodesEvaluated == B.NodesEvaluated &&
         A.PeakDepth == B.PeakDepth && A.Cycles == B.Cycles &&
         A.NodeMix == B.NodeMix;
}

/// End-to-end convenience: parse, compile under \p C, run main(Input),
/// return printed output.
inline std::string runSource(const std::string &Source, Config C,
                             int64_t Input) {
  std::unique_ptr<Program> P = buildProgram({Source});
  if (!P)
    return "<build failed>";
  CallGraph CG;
  std::unique_ptr<CompiledProgram> BaseCP =
      compileProgram(*P, Config::Base);
  if (C == Config::Selective)
    runMain(*BaseCP, Input, nullptr, &CG);
  std::unique_ptr<CompiledProgram> CP =
      compileProgram(*P, C, CG.empty() ? nullptr : &CG);
  std::string Out;
  runMain(*CP, Input, &Out);
  return Out;
}

} // namespace test
} // namespace selspec

#endif // SELSPEC_TESTS_TESTUTIL_H
