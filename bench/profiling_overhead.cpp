//===- bench/profiling_overhead.cpp - Section 3.7.2 overhead ---------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 3.7.2: gathering call-site-specific PIC profiles costs 15-50%
/// run time in the paper's Cecil system.  This bench measures the
/// wall-clock time of Base-configuration runs with and without profile
/// collection enabled (median of several repetitions), plus the volume of
/// profile data gathered and the stability of the hot-arc set across the
/// train and test inputs.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "interp/Interpreter.h"

#include <algorithm>
#include <chrono>
#include <iostream>

using namespace selspec;
using namespace selspec::bench;

namespace {

double medianRunSeconds(Workbench &W, int64_t Input, bool Profile,
                        int Reps) {
  std::vector<double> Times;
  for (int R = 0; R != Reps; ++R) {
    std::unique_ptr<CompiledProgram> CP = W.compileOnly(Config::Base);
    CallGraph CG;
    RunOptions Opts;
    Opts.Tables = &W.tables();
    if (Profile)
      Opts.Profile = &CG;
    Interpreter I(*CP, Opts);
    auto T0 = std::chrono::steady_clock::now();
    if (!I.callMain(Input)) {
      std::cerr << "run failed: " << I.errorMessage() << '\n';
      std::exit(1);
    }
    auto T1 = std::chrono::steady_clock::now();
    Times.push_back(std::chrono::duration<double>(T1 - T0).count());
  }
  std::sort(Times.begin(), Times.end());
  return Times[Times.size() / 2];
}

} // namespace

int main() {
  printHeader("Profiling run-time overhead", "Section 3.7.2");

  TextTable T({"Program", "Plain (ms)", "Profiled (ms)", "Overhead",
               "Arcs", "Hot-arc overlap train/test"});
  for (const BenchProgram &P : table2Suite()) {
    std::string Err;
    std::unique_ptr<Workbench> W = Workbench::fromFiles(P.Files, Err);
    if (!W) {
      std::cerr << "error: " << Err << '\n';
      return 1;
    }
    double Plain = medianRunSeconds(*W, P.TrainInput, false, 5);
    double Profiled = medianRunSeconds(*W, P.TrainInput, true, 5);

    // Stability of the arc structure across inputs (Section 3.7.2 /
    // [Garrett et al. 94]): compare the arc sets of train vs test runs.
    CallGraph Train, Test;
    {
      std::unique_ptr<CompiledProgram> CP = W->compileOnly(Config::Base);
      RunOptions Opts;
      Opts.Profile = &Train;
      Opts.Tables = &W->tables();
      Interpreter I(*CP, Opts);
      I.callMain(P.TrainInput);
    }
    {
      std::unique_ptr<CompiledProgram> CP = W->compileOnly(Config::Base);
      RunOptions Opts;
      Opts.Profile = &Test;
      Opts.Tables = &W->tables();
      Interpreter I(*CP, Opts);
      I.callMain(P.TestInput);
    }
    unsigned Shared = 0;
    for (const Arc &A : Train.arcs())
      for (const Arc &B : Test.arcs())
        if (A.Site == B.Site && A.Callee == B.Callee) {
          ++Shared;
          break;
        }
    double Overlap =
        Train.numArcs() == 0
            ? 0.0
            : 100.0 * Shared / static_cast<double>(Train.numArcs());

    T.addRow({P.Name, TextTable::ratio(Plain * 1000.0),
              TextTable::ratio(Profiled * 1000.0),
              TextTable::percentDelta(Profiled, Plain),
              TextTable::count(Train.numArcs()),
              TextTable::ratio(Overlap) + "%"});
  }
  T.print(std::cout);
  std::cout << "\nPaper: PIC-based profiling costs 15-50% at run time; "
               "profiles are stable\nacross inputs, so they are gathered "
               "rarely and reused (persistent profile DB).\n";
  return 0;
}
