//===- tests/ProfileRunTests.cpp - Arc counters and charge runs ------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
//
// Two shortcuts of the execution core must be invisible:
//
//  - Arc counters.  A profiled run counts sends in per-site arrays and
//    adds them to the CallGraph once, when callGeneric returns.  The
//    resulting graph must equal what recording every send straight into
//    the graph gave: on the four Table 2 programs (fingerprints of the
//    per-send profiles below), at a site with more callees than the
//    per-site slots hold, and for a run that traps midway.
//  - Charge runs.  A ChargeRun charges a straight-line run of composite
//    nodes in one step unless the node budget or a deadline poll falls
//    inside it.  Budget and deadline traps landing inside a run must give
//    the same trap, location and RunStats as the AST walker.
//
// Also: CallGraph's per-site/caller/callee queries equal filters over
// arcs().
//
//===----------------------------------------------------------------------===//

#include "bytecode/BytecodeCompiler.h"
#include "bytecode/BytecodeInterpreter.h"
#include "bytecode/Disassembler.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <sstream>
#include <streambuf>

using namespace selspec;
using namespace selspec::test;

namespace {

//===----------------------------------------------------------------------===//
// CallGraph queries
//===----------------------------------------------------------------------===//

bool sameArcs(const std::vector<Arc> &A, const std::vector<Arc> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I].Site != B[I].Site || A[I].Caller != B[I].Caller ||
        A[I].Callee != B[I].Callee || A[I].Weight != B[I].Weight)
      return false;
  return true;
}

template <class Pred>
std::vector<Arc> filterArcs(const CallGraph &G, Pred Keep) {
  std::vector<Arc> Out;
  for (const Arc &A : G.arcs())
    if (Keep(A))
      Out.push_back(A);
  return Out;
}

TEST(CallGraphQueries, EachQueryIsAFilterOverArcs) {
  std::mt19937 Rng(20261020);
  CallGraph G;
  for (int I = 0; I != 600; ++I)
    G.addHits(CallSiteId(Rng() % 40), MethodId(Rng() % 12),
              MethodId(Rng() % 30), 1 + Rng() % 50);
  std::vector<Arc> All = G.arcs();
  ASSERT_EQ(All.size(), G.numArcs());
  for (size_t I = 1; I < All.size(); ++I) {
    const Arc &A = All[I - 1], &B = All[I];
    EXPECT_TRUE(A.Site < B.Site || (A.Site == B.Site && !(B.Callee < A.Callee)))
        << "arcs() out of (site, callee) order at " << I;
  }
  // One past each id range too: an absent key yields an empty answer.
  for (uint32_t S = 0; S <= 40; ++S)
    EXPECT_TRUE(sameArcs(G.arcsAt(CallSiteId(S)),
                         filterArcs(G, [&](const Arc &A) {
                           return A.Site == CallSiteId(S);
                         })))
        << "arcsAt(" << S << ")";
  for (uint32_t M = 0; M <= 30; ++M) {
    EXPECT_TRUE(sameArcs(G.arcsFrom(MethodId(M)),
                         filterArcs(G, [&](const Arc &A) {
                           return A.Caller == MethodId(M);
                         })))
        << "arcsFrom(" << M << ")";
    EXPECT_TRUE(sameArcs(G.arcsTo(MethodId(M)),
                         filterArcs(G, [&](const Arc &A) {
                           return A.Callee == MethodId(M);
                         })))
        << "arcsTo(" << M << ")";
  }
}

//===----------------------------------------------------------------------===//
// Profile identity
//===----------------------------------------------------------------------===//

/// fnv1a-64 over the profile's arcs, one "arc site caller callee weight"
/// line each in arcs() order: the body of a profile database record.
uint64_t arcsFingerprint(const CallGraph &G) {
  std::ostringstream OS;
  for (const Arc &A : G.arcs())
    OS << "arc " << A.Site.value() << ' ' << A.Caller.value() << ' '
       << A.Callee.value() << ' ' << A.Weight << '\n';
  uint64_t H = UINT64_C(1469598103934665603);
  for (unsigned char Ch : OS.str()) {
    H ^= Ch;
    H *= UINT64_C(1099511628211);
  }
  return H;
}

struct ProfileCase {
  const char *Name;
  std::vector<std::string> Files;
  int64_t TrainInput;
  /// The profile the per-send recorder (one CallGraph::addHits per send)
  /// collected at the train input, identical on both tiers.
  size_t Arcs;
  uint64_t Weight;
  uint64_t Fingerprint;
};

const ProfileCase ProfileCases[] = {
    {"richards", {"richards.mica"}, 300, 176, 1460117,
     UINT64_C(0xa8a3bd329948718e)},
    {"instsched", {"instsched.mica"}, 12, 165, 551642,
     UINT64_C(0xb9dc8c79db136568)},
    {"typechecker", {"minilang.mica", "typechecker.mica"}, 300, 734, 840974,
     UINT64_C(0x017cef4702099069)},
    {"compiler", {"minilang.mica", "compiler.mica"}, 220, 1299, 838467,
     UINT64_C(0x65cad389136fc80a)},
};

class Table2Profiles
    : public testing::TestWithParam<std::tuple<int, ExecTier>> {};

TEST_P(Table2Profiles, MatchThePerSendReference) {
  const ProfileCase &Case = ProfileCases[std::get<0>(GetParam())];
  const ExecTier Tier = std::get<1>(GetParam());
  std::string Err;
  std::unique_ptr<Workbench> W = Workbench::fromFiles(Case.Files, Err);
  ASSERT_TRUE(W) << Case.Name << ": " << Err;
  W->setTier(Tier);
  ASSERT_TRUE(W->collectProfile(Case.TrainInput, Err))
      << Case.Name << ": " << Err;
  const CallGraph &G = W->profile();
  EXPECT_EQ(G.numArcs(), Case.Arcs) << Case.Name;
  EXPECT_EQ(G.totalWeight(), Case.Weight) << Case.Name;
  EXPECT_EQ(arcsFingerprint(G), Case.Fingerprint) << Case.Name;
}

INSTANTIATE_TEST_SUITE_P(
    FourProgramsBothTiers, Table2Profiles,
    testing::Combine(testing::Range(0, 4),
                     testing::Values(ExecTier::Ast, ExecTier::Bytecode)),
    [](const testing::TestParamInfo<Table2Profiles::ParamType> &Info) {
      return std::string(ProfileCases[std::get<0>(Info.param)].Name) +
             (std::get<1>(Info.param) == ExecTier::Ast ? "_ast" : "_bytecode");
    });

/// Shapes called from one `area` site: more callees than a site's slots.
constexpr unsigned NumShapes = ExecCore::SiteArcSlots + 3;
static_assert(NumShapes > ExecCore::SiteArcSlots,
              "the site must overflow its slots");

/// `main(n)` calls area() n times round-robin over NumShapes classes,
/// aborting just before iteration \p StopAt when it is below n.
std::string shapesSource(int64_t StopAt) {
  std::ostringstream OS;
  OS << "class Shape;\n";
  for (unsigned I = 0; I != NumShapes; ++I)
    OS << "class S" << I << " isa Shape;\n"
       << "method area(s@S" << I << ") { " << I << "; }\n";
  OS << "method shapes() {\n  let a := array(" << NumShapes << ");\n";
  for (unsigned I = 0; I != NumShapes; ++I)
    OS << "  atPut(a, " << I << ", new S" << I << " {});\n";
  OS << "  a;\n}\n"
     << "method main(n@Int) {\n"
     << "  let a := shapes();\n  let i := 0;\n  let t := 0;\n"
     << "  while (i < n) {\n"
     << "    if (i == " << StopAt << ") { abort(\"stop\"); }\n"
     << "    t := t + area(at(a, i % " << NumShapes << "));\n"
     << "    i := i + 1;\n  }\n  t;\n}\n";
  return OS.str();
}

struct ProfiledRun {
  bool Ok = false;
  RuntimeTrap Trap;
};

/// Runs main(\p Input) on \p Tier recording into \p G, \p Runs times on
/// one interpreter.
ProfiledRun runProfiled(const CompiledProgram &CP, ExecTier Tier,
                        int64_t Input, CallGraph &G, int Runs = 1) {
  RunOptions Opts;
  Opts.Profile = &G;
  ProfiledRun R;
  auto Go = [&](auto &I) {
    for (int K = 0; K != Runs; ++K)
      R.Ok = I.callMain(Input);
    R.Trap = I.trap();
  };
  if (Tier == ExecTier::Ast) {
    Interpreter I(CP, Opts);
    Go(I);
  } else {
    BcModule Mod = compileToBytecode(CP);
    EXPECT_TRUE(Mod.Ok) << Mod.Error;
    BytecodeInterpreter I(CP, Mod, Opts);
    Go(I);
  }
  return R;
}

/// The arcs a per-send recorder gives the `area` site after \p Calls
/// round-robin calls: shape K is hit once per full round, plus once if
/// K < Calls % NumShapes.
std::vector<std::pair<std::string, uint64_t>> expectedAreaArcs(int64_t Calls) {
  std::vector<std::pair<std::string, uint64_t>> Out;
  for (unsigned K = 0; K != NumShapes; ++K)
    Out.emplace_back("area(S" + std::to_string(K) + ")",
                     Calls / NumShapes + (K < Calls % NumShapes ? 1 : 0));
  return Out;
}

std::vector<std::pair<std::string, uint64_t>>
areaArcs(const Program &P, const CallGraph &G) {
  CallSiteId Site;
  for (unsigned I = 0; I != P.numCallSites(); ++I)
    if (P.Syms.name(P.callSite(CallSiteId(I)).Send->GenericName) == "area")
      Site = CallSiteId(I);
  EXPECT_TRUE(Site.isValid());
  std::vector<std::pair<std::string, uint64_t>> Out;
  for (const Arc &A : G.arcsAt(Site)) {
    EXPECT_EQ(P.methodLabel(A.Caller), "main(Int)");
    Out.emplace_back(P.methodLabel(A.Callee), A.Weight);
  }
  return Out;
}

class ArcCounters : public testing::TestWithParam<ExecTier> {};

TEST_P(ArcCounters, SiteWithMoreCalleesThanSlotsCountsExactly) {
  const int64_t Calls = 10 * NumShapes + 3;
  std::unique_ptr<Program> P = buildProgram({shapesSource(-1)});
  ASSERT_TRUE(P);
  std::unique_ptr<CompiledProgram> CP = compileProgram(*P, Config::Base);
  CallGraph G;
  ProfiledRun R = runProfiled(*CP, GetParam(), Calls, G);
  ASSERT_TRUE(R.Ok) << R.Trap.render();
  EXPECT_EQ(areaArcs(*P, G), expectedAreaArcs(Calls));

  // Two runs on one interpreter add up: each flush empties the counters.
  CallGraph Twice;
  ASSERT_TRUE(runProfiled(*CP, GetParam(), Calls, Twice, 2).Ok);
  std::vector<Arc> Once = G.arcs(), Double = Twice.arcs();
  ASSERT_EQ(Once.size(), Double.size());
  for (size_t I = 0; I != Once.size(); ++I)
    EXPECT_EQ(Double[I].Weight, 2 * Once[I].Weight) << "arc " << I;
}

TEST_P(ArcCounters, RunThatTrapsMidwayKeepsItsArcs) {
  const int64_t StopAt = 5 * NumShapes + 2;
  std::unique_ptr<Program> P = buildProgram({shapesSource(StopAt)});
  ASSERT_TRUE(P);
  std::unique_ptr<CompiledProgram> CP = compileProgram(*P, Config::Base);
  CallGraph G;
  ProfiledRun R = runProfiled(*CP, GetParam(), 1000, G);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Trap.Kind, TrapKind::UserAbort) << R.Trap.render();
  EXPECT_EQ(areaArcs(*P, G), expectedAreaArcs(StopAt));
  // The aborting send itself was counted before it trapped.
  uint64_t Aborts = 0;
  for (const Arc &A : G.arcs())
    if (P->methodLabel(A.Callee).rfind("abort(", 0) == 0)
      Aborts += A.Weight;
  EXPECT_EQ(Aborts, 1u);
}

INSTANTIATE_TEST_SUITE_P(BothTiers, ArcCounters,
                         testing::Values(ExecTier::Ast, ExecTier::Bytecode),
                         [](const testing::TestParamInfo<ExecTier> &Info) {
                           return Info.param == ExecTier::Ast ? "ast"
                                                              : "bytecode";
                         });

TEST(ArcCountersBudget, NodeBudgetTrapGivesTheSameArcsOnBothTiers) {
  std::unique_ptr<Program> P = buildProgram({shapesSource(-1)});
  ASSERT_TRUE(P);
  std::unique_ptr<CompiledProgram> CP = compileProgram(*P, Config::Base);
  BcModule Mod = compileToBytecode(*CP);
  ASSERT_TRUE(Mod.Ok) << Mod.Error;
  CallGraph Full;
  ASSERT_TRUE(runProfiled(*CP, ExecTier::Ast, 100, Full).Ok);
  for (uint64_t Budget : {150u, 777u, 1601u}) {
    CallGraph Ast, Bc;
    RunOptions Opts;
    Opts.Limits.MaxNodes = Budget;
    Opts.Profile = &Ast;
    Interpreter AstI(*CP, Opts);
    EXPECT_FALSE(AstI.callMain(100));
    Opts.Profile = &Bc;
    BytecodeInterpreter BcI(*CP, Mod, Opts);
    EXPECT_FALSE(BcI.callMain(100));
    EXPECT_EQ(BcI.trap().Kind, TrapKind::NodeBudgetExceeded);
    EXPECT_FALSE(Bc.empty()) << "budget " << Budget;
    EXPECT_LT(Bc.totalWeight(), Full.totalWeight()) << "budget " << Budget;
    EXPECT_TRUE(sameArcs(Ast.arcs(), Bc.arcs())) << "budget " << Budget;
  }
}

//===----------------------------------------------------------------------===//
// Charge runs
//===----------------------------------------------------------------------===//

/// Nested sends and sequences: most composite nodes open a run of Charges.
const char *RunsSource = R"(
class Box { slot v; }
method f(x@Int, y@Int) { x + y; }
method g(b@Box) { b.v := f(f(b.v, 1), f(2, b.v)); }
method main(n@Int) {
  let b := new Box { v := 0 };
  let i := 0;
  while (i < n) {
    g(b);
    let t := f(f(i, f(i, 1)), b.v % 7);
    i := i + 1;
  }
  b.v;
}
)";

/// Locations of the nodes charged from inside a run: instructions that a
/// ChargeRun precedes.  A trap at one of them landed mid-run.
std::set<std::pair<uint32_t, uint32_t>> midRunLocs(const BcModule &Mod) {
  std::set<std::pair<uint32_t, uint32_t>> Out;
  for (const auto &Fn : Mod.Functions)
    for (size_t Pc = 1; Pc < Fn->Code.size(); ++Pc)
      if (Fn->Code[Pc - 1].Op == BcOp::ChargeRun)
        Out.insert({Fn->Locs[Pc].Line, Fn->Locs[Pc].Col});
  return Out;
}

TEST(ChargeRuns, LoweringMarksEachRunWithItsLength) {
  std::unique_ptr<Program> P = buildProgram({RunsSource});
  ASSERT_TRUE(P);
  std::unique_ptr<CompiledProgram> CP = compileProgram(*P, Config::Base);
  BcModule Mod = compileToBytecode(*CP);
  ASSERT_TRUE(Mod.Ok) << Mod.Error;
  auto IsCharge = [](BcOp Op) {
    return Op == BcOp::Charge || Op == BcOp::ChargeRun;
  };
  unsigned Runs = 0;
  for (const auto &Fn : Mod.Functions) {
    const std::vector<Insn> &Code = Fn->Code;
    for (size_t Pc = 0; Pc != Code.size(); ++Pc) {
      size_t End = Pc;
      while (End != Code.size() && IsCharge(Code[End].Op))
        ++End;
      if (Code[Pc].Op == BcOp::ChargeRun) {
        ++Runs;
        EXPECT_GE(Code[Pc].D, 2u) << Fn->Name << " pc " << Pc;
        EXPECT_EQ(Code[Pc].D, End - Pc) << Fn->Name << " pc " << Pc;
      } else if (Code[Pc].Op == BcOp::Charge) {
        EXPECT_EQ(End, Pc + 1) << "unmarked run in " << Fn->Name << " pc "
                               << Pc;
      }
    }
  }
  EXPECT_GT(Runs, 0u);
  std::ostringstream Listing;
  disassemble(Mod, *P, Listing);
  EXPECT_NE(Listing.str().find("run="), std::string::npos);
}

/// Both tiers under \p Opts; everything observable must agree.
void expectTiersTrapAlike(const CompiledProgram &CP, const BcModule &Mod,
                          const RunOptions &Opts, int64_t Input,
                          const std::string &Label, RuntimeTrap &TrapOut) {
  Interpreter Ast(CP, Opts);
  BytecodeInterpreter Bc(CP, Mod, Opts);
  bool AstOk = Ast.callMain(Input);
  bool BcOk = Bc.callMain(Input);
  EXPECT_EQ(AstOk, BcOk) << Label;
  EXPECT_EQ(Ast.trap().Kind, Bc.trap().Kind) << Label;
  EXPECT_EQ(Ast.trap().Loc.Line, Bc.trap().Loc.Line) << Label;
  EXPECT_EQ(Ast.trap().Loc.Col, Bc.trap().Loc.Col) << Label;
  EXPECT_EQ(Ast.errorMessage(), Bc.errorMessage()) << Label;
  const RunStats &A = Ast.stats(), &B = Bc.stats();
  EXPECT_EQ(A.NodesEvaluated, B.NodesEvaluated) << Label;
  EXPECT_EQ(A.Cycles, B.Cycles) << Label;
  EXPECT_EQ(A.DynamicDispatches, B.DynamicDispatches) << Label;
  EXPECT_EQ(A.StaticCalls, B.StaticCalls) << Label;
  EXPECT_EQ(A.InlinePrims, B.InlinePrims) << Label;
  EXPECT_EQ(A.MethodInvocations, B.MethodInvocations) << Label;
  EXPECT_EQ(A.Allocations, B.Allocations) << Label;
  EXPECT_EQ(A.PeakDepth, B.PeakDepth) << Label;
  EXPECT_EQ(A.NodeMix, B.NodeMix) << Label;
  TrapOut = Bc.trap();
}

TEST(ChargeRuns, NodeBudgetInsideARunTrapsLikeTheAstTier) {
  std::unique_ptr<Program> P = buildProgram({RunsSource});
  ASSERT_TRUE(P);
  for (Config C : {Config::Base, Config::Selective}) {
    CallGraph CG;
    if (C == Config::Selective)
      runMain(*compileProgram(*P, Config::Base), 3, nullptr, &CG);
    std::unique_ptr<CompiledProgram> CP =
        compileProgram(*P, C, CG.empty() ? nullptr : &CG);
    BcModule Mod = compileToBytecode(*CP);
    ASSERT_TRUE(Mod.Ok) << Mod.Error;
    const std::set<std::pair<uint32_t, uint32_t>> MidRun = midRunLocs(Mod);
    RunOptions Opts;
    Interpreter Full(*CP, Opts);
    ASSERT_TRUE(Full.callMain(3));
    const uint64_t Total = Full.stats().NodesEvaluated;
    // Every budget up to one past the run's node count: each node of
    // every run is the one that trips the budget for some value.
    unsigned MidRunTraps = 0;
    for (uint64_t Budget = 1; Budget <= Total + 1; ++Budget) {
      Opts.Limits.MaxNodes = Budget;
      RuntimeTrap T;
      expectTiersTrapAlike(*CP, Mod, Opts, 3,
                           std::string(configName(C)) + " budget " +
                               std::to_string(Budget),
                           T);
      if (T.Kind == TrapKind::NodeBudgetExceeded &&
          MidRun.count({T.Loc.Line, T.Loc.Col}))
        ++MidRunTraps;
    }
    EXPECT_GT(MidRunTraps, 0u) << configName(C);
  }
}

/// A stream that requests a stop on its first write: `print` cancels the
/// run at a known point, so the next deadline poll traps deterministically.
class CancelOnWrite : public std::streambuf {
public:
  explicit CancelOnWrite(CancelToken &T) : T(T) {}

protected:
  int overflow(int Ch) override {
    T.requestCancel();
    return Ch == traits_type::eof() ? traits_type::not_eof(Ch) : Ch;
  }
  std::streamsize xsputn(const char *, std::streamsize N) override {
    T.requestCancel();
    return N;
  }

private:
  CancelToken &T;
};

/// The first deadline poll: node ExecCore::DeadlineCheckMask + 1.
constexpr uint64_t DeadlineTestPoll = 8192;

TEST(ChargeRuns, DeadlinePollInsideARunTrapsLikeTheAstTier) {
  // main(p) spends a p-dependent prefix of nodes, prints (which cancels),
  // then loops: the first poll after the cancel, at node
  // DeadlineCheckMask + 1, lands at a different point of the loop body
  // for each p.
  const std::string Source = std::string(RunsSource) + R"(
method pad(p@Int) { let j := 0; while (j < p) { j := j + 1; } j; }
method start(p@Int) { pad(p); print(p); main(100000); }
)";
  std::unique_ptr<Program> P = buildProgram({Source});
  ASSERT_TRUE(P);
  std::unique_ptr<CompiledProgram> CP = compileProgram(*P, Config::Base);
  BcModule Mod = compileToBytecode(*CP);
  ASSERT_TRUE(Mod.Ok) << Mod.Error;
  const std::set<std::pair<uint32_t, uint32_t>> MidRun = midRunLocs(Mod);
  unsigned MidRunTraps = 0;
  for (int64_t Pad = 0; Pad != 60; ++Pad) {
    const std::string Label = "pad " + std::to_string(Pad);
    CancelToken AstToken, BcToken;
    CancelOnWrite AstBuf(AstToken), BcBuf(BcToken);
    std::ostream AstOut(&AstBuf), BcOut(&BcBuf);
    RunOptions AO, BO;
    AO.Cancel = &AstToken;
    AO.Output = &AstOut;
    BO.Cancel = &BcToken;
    BO.Output = &BcOut;
    Interpreter Ast(*CP, AO);
    BytecodeInterpreter Bc(*CP, Mod, BO);
    bool AstOk, BcOk;
    Ast.callGeneric("start", {Value::ofInt(Pad)}, AstOk);
    Bc.callGeneric("start", {Value::ofInt(Pad)}, BcOk);
    ASSERT_FALSE(AstOk) << Label;
    ASSERT_FALSE(BcOk) << Label;
    const RuntimeTrap &T = Bc.trap();
    EXPECT_EQ(Ast.trap().Kind, TrapKind::DeadlineExceeded) << Label;
    EXPECT_EQ(T.Kind, TrapKind::DeadlineExceeded) << Label;
    EXPECT_EQ(Ast.trap().Loc.Line, T.Loc.Line) << Label;
    EXPECT_EQ(Ast.trap().Loc.Col, T.Loc.Col) << Label;
    EXPECT_EQ(Bc.stats().NodesEvaluated, DeadlineTestPoll) << Label;
    EXPECT_EQ(Ast.stats().NodesEvaluated, Bc.stats().NodesEvaluated) << Label;
    EXPECT_EQ(Ast.stats().Cycles, Bc.stats().Cycles) << Label;
    EXPECT_EQ(Ast.stats().NodeMix, Bc.stats().NodeMix) << Label;
    EXPECT_EQ(Ast.stats().MethodInvocations, Bc.stats().MethodInvocations)
        << Label;
    if (MidRun.count({T.Loc.Line, T.Loc.Col}))
      ++MidRunTraps;
  }
  EXPECT_GT(MidRunTraps, 0u);
}

} // namespace
