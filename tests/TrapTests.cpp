//===- tests/TrapTests.cpp - Structured runtime failure model ---------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
//
// Every TrapKind, the resource guards, profile-database robustness, and the
// Selective -> CHA degradation on missing/stale profiles.
//
//===----------------------------------------------------------------------===//

#include "interp/RuntimeTrap.h"

#include "TestUtil.h"
#include "bytecode/BytecodeCompiler.h"
#include "bytecode/BytecodeInterpreter.h"
#include "profile/ProfileDb.h"

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <tuple>

using namespace selspec;
using namespace selspec::test;

namespace {

/// Runs `main(Input)` under Base with \p Limits and returns the trap
/// (Kind == None when the run completed).
RuntimeTrap runForTrap(const std::string &Source, int64_t Input = 0,
                       ResourceLimits Limits = {}) {
  std::unique_ptr<Program> P = buildProgram({Source});
  if (!P)
    return {};
  std::unique_ptr<CompiledProgram> CP = compileProgram(*P, Config::Base);
  RunOptions Opts;
  Opts.Limits = Limits;
  Interpreter I(*CP, Opts);
  I.callMain(Input);
  return I.trap();
}

void expectTrap(const std::string &Source, TrapKind Kind,
                const std::string &MessageNeedle, int64_t Input = 0,
                ResourceLimits Limits = {}) {
  RuntimeTrap T = runForTrap(Source, Input, Limits);
  EXPECT_EQ(T.Kind, Kind) << "trap: " << T.render();
  EXPECT_NE(T.Message.find(MessageNeedle), std::string::npos)
      << "message: " << T.Message;
}

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + Name;
}

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream OS(Path);
  ASSERT_TRUE(OS.good());
  OS << Text;
}

} // namespace

//===----------------------------------------------------------------------===//
// One test per trap kind.
//===----------------------------------------------------------------------===//

TEST(Trap, TypeErrorNonBooleanCondition) {
  expectTrap("method main(n@Int) { if (n) { 1; } }", TrapKind::TypeError,
             "not a boolean", 5);
}

TEST(Trap, TypeErrorCallingNonClosure) {
  expectTrap("method main(n@Int) { let f := 5; f(1); }", TrapKind::TypeError,
             "not a closure");
}

TEST(Trap, NoApplicableMethod) {
  expectTrap("method main(n@Int) { size(5); }", TrapKind::NoApplicableMethod,
             "not understood");
}

TEST(Trap, AmbiguousDispatch) {
  expectTrap(R"(
    class A; class B; class C isa A, B;
    method f(x@A) { 1; }
    method f(x@B) { 2; }
    method main(n@Int) { f(new C); }
  )",
             TrapKind::AmbiguousDispatch, "ambiguous");
}

TEST(Trap, IndexOutOfBounds) {
  expectTrap("method main(n@Int) { at(array(2), 5); }",
             TrapKind::IndexOutOfBounds, "out of bounds");
}

TEST(Trap, DivisionByZero) {
  expectTrap("method main(n@Int) { n / 0; }", TrapKind::DivisionByZero,
             "division by zero", 7);
  expectTrap("method main(n@Int) { n % 0; }", TrapKind::DivisionByZero,
             "by zero", 7);
}

TEST(Trap, UndefinedSlot) {
  expectTrap(R"(
    class A { slot x; }
    class B;
    method get(o) { o.x; }
    method main(n@Int) { get(new B); }
  )",
             TrapKind::UndefinedSlot, "slot");
}

TEST(Trap, ArityMismatch) {
  expectTrap("method main(n@Int) { let f := fn(a) { a; }; f(1, 2); }",
             TrapKind::ArityMismatch, "argument");
}

TEST(Trap, UserAbort) {
  RuntimeTrap T =
      runForTrap("method main(n@Int) { abort(\"bye\"); }");
  EXPECT_EQ(T.Kind, TrapKind::UserAbort);
  EXPECT_NE(T.Message.find("bye"), std::string::npos);
}

TEST(Trap, NodeBudgetExceeded) {
  ResourceLimits L;
  L.MaxNodes = 1000;
  expectTrap("method main(n@Int) { while (true) { n; } }",
             TrapKind::NodeBudgetExceeded, "node budget", 0, L);
}

TEST(Trap, HeapLimitExceeded) {
  ResourceLimits L;
  L.MaxObjects = 100;
  expectTrap("method main(n@Int) { while (true) { array(4); } }",
             TrapKind::HeapLimitExceeded, "heap", 0, L);
}

TEST(Trap, MemoryBudgetExceeded) {
  ResourceLimits L;
  L.MaxBytes = 4096;
  expectTrap("method main(n@Int) { while (true) { array(4); } }",
             TrapKind::MemoryBudgetExceeded, "memory budget", 0, L);
}

// The byte budget is checked with the incoming allocation's exact size,
// so one huge array traps immediately — an object-count limit would let
// it through (it is a single object).
TEST(Trap, MemoryBudgetCatchesSingleHugeAllocation) {
  ResourceLimits L;
  L.MaxBytes = 65536;
  L.MaxObjects = 100; // would permit it: it is one object
  expectTrap("method main(n@Int) { array(1000000); }",
             TrapKind::MemoryBudgetExceeded, "memory budget", 0, L);
}

//===----------------------------------------------------------------------===//
// Hostile values: INT64_MIN / -1 (and % -1) and array(2^62) must trap,
// never kill the host process or the constant folder, and every form,
// literal or main(n), must give the same trap, message and RunStats on
// both tiers under every configuration.
//===----------------------------------------------------------------------===//

namespace {

struct HostileCase {
  const char *Source;
  int64_t Input;
  TrapKind Kind;
};

const HostileCase HostileCases[] = {
    {"method main(n@Int) { (neg(9223372036854775807) - 1) / neg(1); }", 0,
     TrapKind::ArithmeticOverflow},
    {"method main(n@Int) { (neg(n) - 1) / neg(1); }", INT64_MAX,
     TrapKind::ArithmeticOverflow},
    {"method main(n@Int) { (neg(9223372036854775807) - 1) % neg(1); }", 0,
     TrapKind::ArithmeticOverflow},
    {"method main(n@Int) { (neg(n) - 1) % neg(1); }", INT64_MAX,
     TrapKind::ArithmeticOverflow},
    {"method main(n@Int) { array(4611686018427387904); }", 0,
     TrapKind::MemoryBudgetExceeded},
    {"method main(n@Int) { array(n); }", INT64_C(4611686018427387904),
     TrapKind::MemoryBudgetExceeded},
};

/// Every RunStats field, NodeMix included, as one comparable value.
auto statsKey(const RunStats &S) {
  return std::make_tuple(S.DynamicDispatches, S.VersionSelects, S.StaticCalls,
                         S.InlinePrims, S.PredictedHits, S.PredictedMisses,
                         S.FeedbackHits, S.FeedbackMisses, S.ClosuresCreated,
                         S.ClosureCalls, S.Allocations, S.MethodInvocations,
                         S.NodesEvaluated, S.PeakDepth, S.Cycles, S.NodeMix);
}

} // namespace

TEST(Trap, HostileValuesTrapIdenticallyOnBothTiers) {
  const Config AllConfigs[] = {Config::Base, Config::Cust, Config::CustMM,
                               Config::CHA, Config::Selective};
  for (const HostileCase &HC : HostileCases) {
    std::unique_ptr<Program> P = buildProgram({HC.Source});
    ASSERT_TRUE(P) << HC.Source;
    for (Config C : AllConfigs) {
      const std::string Label =
          std::string(HC.Source) + " under " + configName(C);
      std::unique_ptr<CompiledProgram> CP = compileProgram(*P, C);
      ASSERT_TRUE(CP) << Label;
      Interpreter Ast(*CP);
      EXPECT_FALSE(Ast.callMain(HC.Input)) << Label;
      BcModule Mod = compileToBytecode(*CP);
      ASSERT_TRUE(Mod.Ok) << Label << ": " << Mod.Error;
      BytecodeInterpreter Bc(*CP, Mod);
      EXPECT_FALSE(Bc.callMain(HC.Input)) << Label;

      EXPECT_EQ(Ast.trap().Kind, HC.Kind) << Label << ": " << Ast.errorMessage();
      EXPECT_EQ(Bc.trap().Kind, HC.Kind) << Label << ": " << Bc.errorMessage();
      EXPECT_EQ(Ast.errorMessage(), Bc.errorMessage()) << Label;
      EXPECT_TRUE(statsKey(Ast.stats()) == statsKey(Bc.stats())) << Label;
    }
  }
}

// `+ - * neg` wrap modulo 2^64.  The literal lines are folded at compile
// time and the n lines computed at run time; both must print the same
// wrapped values on both tiers.
TEST(Trap, IntArithmeticWrapsIdenticallyWhenFoldedAndRun) {
  std::unique_ptr<Program> P = buildProgram({R"(
    method main(n@Int) {
      print(9223372036854775807 + 1);
      print(n + 1);
      print(neg(9223372036854775807) - 2);
      print(neg(n) - 2);
      print(4611686018427387904 * 2);
      print(n * 2);
      print(neg(neg(9223372036854775807) - 1));
      print(neg(neg(n) - 1));
      print((neg(n) - 1) / 1);
      print((neg(n) - 1) % 2);
    }
  )"});
  ASSERT_TRUE(P);
  const std::string Expected =
      "-9223372036854775808\n-9223372036854775808\n"
      "9223372036854775807\n9223372036854775807\n"
      "-9223372036854775808\n-2\n"
      "-9223372036854775808\n-9223372036854775808\n"
      "-9223372036854775808\n0\n";
  for (Config C : {Config::Base, Config::Selective}) {
    std::unique_ptr<CompiledProgram> CP = compileProgram(*P, C);
    std::string Out;
    runMain(*CP, INT64_MAX, &Out);
    EXPECT_EQ(Out, Expected) << configName(C);
    std::ostringstream BcOut;
    RunOptions Opts;
    Opts.Output = &BcOut;
    BcModule Mod = compileToBytecode(*CP);
    ASSERT_TRUE(Mod.Ok) << Mod.Error;
    BytecodeInterpreter Bc(*CP, Mod, Opts);
    EXPECT_TRUE(Bc.callMain(INT64_MAX)) << Bc.errorMessage();
    EXPECT_EQ(BcOut.str(), Expected) << configName(C);
  }
}

// Past every budget a host allocation can still fail; the run must end in
// a trap, not take the process down.
TEST(Trap, HostAllocationFailureBecomesInternalError) {
  ResourceLimits L;
  L.MaxBytes = UINT64_MAX; // no modeled-byte guard in the way
  RuntimeTrap T = runForTrap("method main(n@Int) { array(n); }",
                             INT64_C(4611686018427387904), L);
  EXPECT_EQ(T.Kind, TrapKind::InternalError) << T.render();
  EXPECT_NE(T.Message.find("host allocation failure"), std::string::npos)
      << T.Message;
}

//===----------------------------------------------------------------------===//
// The recursion guard: the headline robustness property.  A ten-million
// deep recursion must trap at the configured depth, in every build mode
// (Debug+ASan included), instead of overflowing the native stack.
//===----------------------------------------------------------------------===//

TEST(Trap, DeepRecursionTrapsInsteadOfNativeOverflow) {
  std::unique_ptr<Program> P = buildProgram({R"(
    method f(n@Int) { if (n <= 0) { 0; } else { f(n - 1); } }
    method main(n@Int) { f(n); }
  )"});
  ASSERT_TRUE(P);
  std::unique_ptr<CompiledProgram> CP = compileProgram(*P, Config::Base);
  Interpreter I(*CP);
  EXPECT_FALSE(I.callMain(10000000));
  const RuntimeTrap &T = I.trap();
  EXPECT_EQ(T.Kind, TrapKind::RecursionLimitExceeded) << T.render();
  // Default MaxDepth is 800; in builds whose native frames outgrow it
  // (sanitizers), the native-stack backstop fires earlier.  Either way
  // the kind is RecursionLimitExceeded and the depth never exceeds 800.
  EXPECT_LE(I.stats().PeakDepth, ResourceLimits().MaxDepth);
  EXPECT_GT(I.stats().PeakDepth, 100u);
  // Backtrace is capped with an elision marker, innermost frame first.
  EXPECT_EQ(T.Backtrace.size(), RuntimeTrap::MaxBacktraceFrames);
  EXPECT_GT(T.FramesElided, 0u);
  EXPECT_NE(T.Backtrace.front().find("f(Int)"), std::string::npos);
  std::string Rendered = T.render();
  EXPECT_NE(Rendered.find("in f(Int)"), std::string::npos);
  EXPECT_NE(Rendered.find("more frame(s)"), std::string::npos);
}

TEST(Trap, RecursionLimitIsConfigurable) {
  ResourceLimits L;
  L.MaxDepth = 32;
  RuntimeTrap T = runForTrap(R"(
    method f(n@Int) { if (n <= 0) { 0; } else { f(n - 1); } }
    method main(n@Int) { f(n); }
  )",
                             1000000, L);
  EXPECT_EQ(T.Kind, TrapKind::RecursionLimitExceeded);
  // A run that fits under the limit completes.
  T = runForTrap(R"(
    method f(n@Int) { if (n <= 0) { 0; } else { f(n - 1); } }
    method main(n@Int) { f(n); }
  )",
                 20, L);
  EXPECT_EQ(T.Kind, TrapKind::None) << T.render();
}

TEST(Trap, DeepClosureRecursionAlsoGuarded) {
  RuntimeTrap T = runForTrap(R"(
    method main(n@Int) {
      let f := nil;
      f := fn(k) { if (k <= 0) { 0; } else { f(k - 1); } };
      f(n);
    }
  )",
                             10000000);
  EXPECT_EQ(T.Kind, TrapKind::RecursionLimitExceeded) << T.render();
}

//===----------------------------------------------------------------------===//
// Trap metadata: source locations, first-failure-wins, exit codes.
//===----------------------------------------------------------------------===//

TEST(Trap, CarriesSourceLocation) {
  RuntimeTrap T = runForTrap("method main(n@Int) {\n  n / 0;\n}", 1);
  EXPECT_EQ(T.Kind, TrapKind::DivisionByZero);
  EXPECT_TRUE(T.Loc.isValid());
  EXPECT_EQ(T.Loc.Line, 2u);
  EXPECT_NE(T.render().find("at line 2"), std::string::npos);
}

TEST(Trap, BacktraceNamesCallChain) {
  // Inlining collapses Mica frames (as native inlining would), so compile
  // with it off to observe the full chain.
  std::unique_ptr<Program> P = buildProgram({R"(
    method inner(x@Int) { x / 0; }
    method outer(x@Int) { inner(x); }
    method main(n@Int) { outer(n); }
  )"});
  ASSERT_TRUE(P);
  OptimizerOptions NoInline;
  NoInline.EnableInlining = false;
  std::unique_ptr<CompiledProgram> CP =
      compileProgram(*P, Config::Base, nullptr, {}, NoInline);
  Interpreter I(*CP);
  EXPECT_FALSE(I.callMain(3));
  const RuntimeTrap &T = I.trap();
  ASSERT_EQ(T.Kind, TrapKind::DivisionByZero);
  ASSERT_GE(T.Backtrace.size(), 3u);
  EXPECT_NE(T.Backtrace[0].find("inner(Int)"), std::string::npos);
  EXPECT_NE(T.Backtrace[1].find("outer(Int)"), std::string::npos);
  EXPECT_NE(T.Backtrace[2].find("main(Int)"), std::string::npos);
}

TEST(Trap, ExitCodesAreStable) {
  EXPECT_EQ(trapExitCode(TrapKind::None), 0);
  EXPECT_EQ(trapExitCode(TrapKind::TypeError), 10);
  EXPECT_EQ(trapExitCode(TrapKind::NoApplicableMethod), 11);
  EXPECT_EQ(trapExitCode(TrapKind::AmbiguousDispatch), 12);
  EXPECT_EQ(trapExitCode(TrapKind::IndexOutOfBounds), 13);
  EXPECT_EQ(trapExitCode(TrapKind::DivisionByZero), 14);
  EXPECT_EQ(trapExitCode(TrapKind::UndefinedSlot), 15);
  EXPECT_EQ(trapExitCode(TrapKind::ArityMismatch), 16);
  EXPECT_EQ(trapExitCode(TrapKind::UserAbort), 17);
  EXPECT_EQ(trapExitCode(TrapKind::ArithmeticOverflow), 18);
  EXPECT_EQ(trapExitCode(TrapKind::NodeBudgetExceeded), 20);
  EXPECT_EQ(trapExitCode(TrapKind::RecursionLimitExceeded), 21);
  EXPECT_EQ(trapExitCode(TrapKind::HeapLimitExceeded), 22);
  EXPECT_EQ(trapExitCode(TrapKind::DeadlineExceeded), 23);
  EXPECT_EQ(trapExitCode(TrapKind::MemoryBudgetExceeded), 24);
  EXPECT_EQ(trapExitCode(TrapKind::BindingViolation), 70);
  EXPECT_EQ(trapExitCode(TrapKind::InternalError), 70);
}

TEST(Trap, KindNamesAreStable) {
  EXPECT_STREQ(trapKindName(TrapKind::TypeError), "type-error");
  EXPECT_STREQ(trapKindName(TrapKind::RecursionLimitExceeded),
               "recursion-limit-exceeded");
  EXPECT_STREQ(trapKindName(TrapKind::DeadlineExceeded),
               "deadline-exceeded");
  EXPECT_STREQ(trapKindName(TrapKind::MemoryBudgetExceeded),
               "memory-budget-exceeded");
  EXPECT_STREQ(trapKindName(TrapKind::ArithmeticOverflow),
               "arithmetic-overflow");
}

TEST(Trap, ExitCodesRoundTripThroughKind) {
  // Supervisors (micad) classify workers by exit code; EVERY trap kind
  // must survive the round trip.  BindingViolation shares 70 with
  // InternalError on purpose (both are "the implementation is wrong")
  // and collapses to InternalError on the way back.
  const TrapKind AllKinds[] = {
      TrapKind::TypeError,        TrapKind::NoApplicableMethod,
      TrapKind::AmbiguousDispatch, TrapKind::IndexOutOfBounds,
      TrapKind::DivisionByZero,   TrapKind::UndefinedSlot,
      TrapKind::ArityMismatch,    TrapKind::UserAbort,
      TrapKind::ArithmeticOverflow, TrapKind::NodeBudgetExceeded, TrapKind::RecursionLimitExceeded,
      TrapKind::HeapLimitExceeded, TrapKind::DeadlineExceeded,
      TrapKind::MemoryBudgetExceeded, TrapKind::BindingViolation,
      TrapKind::InternalError,
  };
  for (TrapKind K : AllKinds) {
    TrapKind Back = trapKindForExitCode(trapExitCode(K));
    if (K == TrapKind::BindingViolation)
      EXPECT_EQ(Back, TrapKind::InternalError);
    else
      EXPECT_EQ(Back, K) << "kind " << trapKindName(K);
  }
  // The whole 8-bit exit-code space: every code that classifies as a trap
  // maps back to the same code, and the trap codes are exactly the
  // documented set — program errors 10-18, resource guards 20-24,
  // internal 70.  Everything else (success, diagnostics, usage, signals)
  // is None.
  for (int Code = 0; Code != 256; ++Code) {
    TrapKind K = trapKindForExitCode(Code);
    bool IsTrapCode =
        (Code >= 10 && Code <= 18) || (Code >= 20 && Code <= 24) || Code == 70;
    EXPECT_EQ(K != TrapKind::None, IsTrapCode) << "exit code " << Code;
    if (K != TrapKind::None) {
      EXPECT_EQ(trapExitCode(K), Code) << "exit code " << Code;
    }
  }
}

//===----------------------------------------------------------------------===//
// Profile database robustness: line-numbered rejection of malformed input,
// truncation detection, and validation against a resolved program.
//===----------------------------------------------------------------------===//

namespace {

const char *DiamondSrc = R"(
    class A; class B isa A;
    method f(x@A) { 1; }
    method f(x@B) { 2; }
    method main(n@Int) { f(new B); f(new A); }
)";

/// Dispatch here depends on a runtime value, so sites stay dynamic and a
/// training run records real arcs (statically-bound sites record none).
const char *PolySrc = R"(
    class A; class B isa A;
    method f(x@A) { 1; }
    method f(x@B) { 2; }
    method pick(n@Int) { if (n % 2 == 0) { new A; } else { new B; } }
    method main(n@Int) {
      let i := 0;
      while (i < n) { f(pick(i)); i := i + 1; }
    }
)";

/// A profile with real arcs for PolySrc, obtained from a training run.
std::string collectedProfileText() {
  std::unique_ptr<Program> P = buildProgram({PolySrc});
  std::unique_ptr<CompiledProgram> CP = compileProgram(*P, Config::Base);
  CallGraph CG;
  runMain(*CP, 6, nullptr, &CG);
  EXPECT_FALSE(CG.empty());
  ProfileDb Db;
  Db.forProgram("diamond").merge(CG);
  return Db.serialize();
}

} // namespace

TEST(ProfileRobustness, RoundTrip) {
  std::string Text = collectedProfileText();
  ProfileDb Db;
  Diagnostics Diags;
  EXPECT_TRUE(Db.deserialize(Text, Diags)) << Diags.toString();
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_TRUE(Db.hasProgram("diamond"));
  EXPECT_EQ(Db.serialize(), Text);
}

TEST(ProfileRobustness, RejectsBadHeader) {
  ProfileDb Db;
  Diagnostics Diags;
  EXPECT_FALSE(Db.deserialize("garbage\n", Diags));
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_NE(Diags.toString().find("line 1"), std::string::npos);
  EXPECT_NE(Diags.toString().find("header"), std::string::npos);
}

TEST(ProfileRobustness, RejectsTruncation) {
  std::string Text = collectedProfileText();
  // Drop the last line: the program record now declares more arcs than
  // follow.
  size_t LastNewline = Text.rfind('\n', Text.size() - 2);
  ASSERT_NE(LastNewline, std::string::npos);
  ProfileDb Db;
  Diagnostics Diags;
  EXPECT_FALSE(Db.deserialize(Text.substr(0, LastNewline + 1), Diags));
  EXPECT_NE(Diags.toString().find("truncated"), std::string::npos);
}

TEST(ProfileRobustness, RejectsMidRecordTruncation) {
  std::string Text = collectedProfileText();
  ProfileDb Db;
  Diagnostics Diags;
  // Chop mid-line: the final arc record is malformed.
  EXPECT_FALSE(Db.deserialize(Text.substr(0, Text.size() - 4), Diags));
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(ProfileRobustness, RejectsJunkRecordsWithLineNumbers) {
  ProfileDb Db;
  Diagnostics Diags;
  EXPECT_FALSE(Db.deserialize("selspec-profile v1\n"
                              "program p 1\n"
                              "arc 0 zero 1 10\n",
                              Diags));
  EXPECT_NE(Diags.toString().find("line 3"), std::string::npos);
}

TEST(ProfileRobustness, RejectsArcBeforeProgram) {
  ProfileDb Db;
  Diagnostics Diags;
  EXPECT_FALSE(Db.deserialize("selspec-profile v1\n"
                              "arc 0 0 1 10\n",
                              Diags));
  EXPECT_NE(Diags.toString().find("line 2"), std::string::npos);
}

TEST(ProfileRobustness, RejectsOverflowingNumbers) {
  ProfileDb Db;
  Diagnostics Diags;
  EXPECT_FALSE(Db.deserialize("selspec-profile v1\n"
                              "program p 1\n"
                              "arc 99999999999999999999999 0 1 10\n",
                              Diags));
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(ProfileRobustness, ValidateDropsStaleArcs) {
  std::unique_ptr<Program> P = buildProgram({DiamondSrc});
  ASSERT_TRUE(P);
  ProfileDb Db;
  Diagnostics Diags;
  // Site/method ids far beyond anything the program defines: the shape a
  // profile recorded against a different (or newer) build would have.
  ASSERT_TRUE(Db.deserialize("selspec-profile v1\n"
                             "program stale 2\n"
                             "arc 9999 0 1 10\n"
                             "arc 0 9999 9999 10\n",
                             Diags));
  EXPECT_EQ(Db.validate("stale", *P, Diags), 2u);
  EXPECT_TRUE(Db.forProgram("stale").empty());
  EXPECT_NE(Diags.toString().find("warning"), std::string::npos);
}

TEST(ProfileRobustness, ValidateKeepsConsistentArcs) {
  std::unique_ptr<Program> P = buildProgram({PolySrc});
  ASSERT_TRUE(P);
  std::string Text = collectedProfileText();
  ProfileDb Db;
  Diagnostics Diags;
  ASSERT_TRUE(Db.deserialize(Text, Diags));
  EXPECT_EQ(Db.validate("diamond", *P, Diags), 0u);
  EXPECT_FALSE(Db.forProgram("diamond").empty());
}

TEST(ProfileRobustness, FileErrorsReportPathAndReason) {
  ProfileDb Db;
  Diagnostics Diags;
  EXPECT_FALSE(Db.loadFromFile("/nonexistent/profile.db", Diags));
  std::string Text = Diags.toString();
  EXPECT_NE(Text.find("/nonexistent/profile.db"), std::string::npos);
  EXPECT_NE(Text.find("No such file"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Degradation: Selective without a usable profile must warn and behave
// exactly like CHA instead of asserting.
//===----------------------------------------------------------------------===//

TEST(Degradation, SelectiveWithoutProfileMatchesCHA) {
  std::string Err;
  std::unique_ptr<Workbench> W =
      Workbench::fromSources({DiamondSrc}, Err, false);
  ASSERT_TRUE(W) << Err;

  std::optional<ConfigResult> CHA =
      W->runConfig(Config::CHA, 5, Err);
  ASSERT_TRUE(CHA) << Err;
  // No profile was collected: Selective degrades.
  std::optional<ConfigResult> Sel =
      W->runConfig(Config::Selective, 5, Err);
  ASSERT_TRUE(Sel) << Err;

  EXPECT_EQ(Sel->Run.totalDispatches(), CHA->Run.totalDispatches());
  EXPECT_EQ(Sel->Run.Cycles, CHA->Run.Cycles);
  EXPECT_EQ(Sel->Output, CHA->Output);
  EXPECT_EQ(Sel->CompiledRoutines, CHA->CompiledRoutines);
  EXPECT_NE(W->diagnostics().toString().find("degrading to CHA"),
            std::string::npos);
}

TEST(Degradation, StaleProfileDbFallsBackToCHA) {
  // A parseable profile whose arcs are all stale: validation drops every
  // arc, leaving Selective with an empty profile -> CHA behavior.
  std::string Path = tempPath("stale_profile.db");
  writeFile(Path, "selspec-profile v1\n"
                  "program prog 1\n"
                  "arc 9999 9999 9999 10\n");

  std::string Err;
  std::unique_ptr<Workbench> W =
      Workbench::fromSources({DiamondSrc}, Err, false);
  ASSERT_TRUE(W) << Err;
  Diagnostics Diags;
  EXPECT_TRUE(W->loadProfileDb(Path, "prog", Diags));
  EXPECT_FALSE(W->hasProfile());
  EXPECT_NE(Diags.toString().find("warning"), std::string::npos);

  std::optional<ConfigResult> CHA = W->runConfig(Config::CHA, 5, Err);
  std::optional<ConfigResult> Sel = W->runConfig(Config::Selective, 5, Err);
  ASSERT_TRUE(CHA && Sel) << Err;
  EXPECT_EQ(Sel->Run.totalDispatches(), CHA->Run.totalDispatches());
  EXPECT_EQ(Sel->Output, CHA->Output);
  std::remove(Path.c_str());
}

TEST(Degradation, CorruptProfileDbFailsLoudly) {
  std::string Path = tempPath("corrupt_profile.db");
  writeFile(Path, "selspec-profile v1\nprogram p 3\narc \xff\xfe junk\n");
  std::string Err;
  std::unique_ptr<Workbench> W =
      Workbench::fromSources({DiamondSrc}, Err, false);
  ASSERT_TRUE(W) << Err;
  Diagnostics Diags;
  EXPECT_FALSE(W->loadProfileDb(Path, "p", Diags));
  EXPECT_TRUE(Diags.hasErrors());
  std::remove(Path.c_str());
}

TEST(Degradation, MissingDbKeyOnlyWarns) {
  std::string Path = tempPath("other_key.db");
  writeFile(Path, "selspec-profile v1\nprogram other 0\n");
  std::string Err;
  std::unique_ptr<Workbench> W =
      Workbench::fromSources({DiamondSrc}, Err, false);
  ASSERT_TRUE(W) << Err;
  Diagnostics Diags;
  EXPECT_TRUE(W->loadProfileDb(Path, "mine", Diags));
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_NE(Diags.toString().find("no entry"), std::string::npos);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Oversized dispatch tables fall back to search-based dispatch instead of
// asserting.
//===----------------------------------------------------------------------===//

TEST(Degradation, PipelineTrapSurfacesInWorkbench) {
  std::string Err;
  std::unique_ptr<Workbench> W = Workbench::fromSources(
      {"method main(n@Int) { n / 0; }"}, Err, false);
  ASSERT_TRUE(W) << Err;
  EXPECT_FALSE(W->runConfig(Config::Base, 1, Err));
  EXPECT_EQ(W->lastTrap().Kind, TrapKind::DivisionByZero);
  // A subsequent good run clears the trap.
  std::unique_ptr<Workbench> W2 = Workbench::fromSources(
      {"method main(n@Int) { n; }"}, Err, false);
  ASSERT_TRUE(W2) << Err;
  EXPECT_TRUE(W2->runConfig(Config::Base, 1, Err));
  EXPECT_EQ(W2->lastTrap().Kind, TrapKind::None);
}

//===----------------------------------------------------------------------===//
// Front-end guards: parser nesting depth, lexer literal overflow.  Both
// must reject with diagnostics, not crash or invoke UB.
//===----------------------------------------------------------------------===//

TEST(FrontendGuards, ParserRejectsPathologicalNesting) {
  std::string Src = "method main(n@Int) { ";
  for (int I = 0; I != 5000; ++I)
    Src += '(';
  Src += '1';
  for (int I = 0; I != 5000; ++I)
    Src += ')';
  Src += "; }";
  auto P = std::make_unique<Program>();
  P->addBuiltins();
  Diagnostics Diags;
  EXPECT_FALSE(P->addSource(Src, Diags) && P->resolve(Diags));
  EXPECT_NE(Diags.toString().find("nesting too deep"), std::string::npos);
}

TEST(FrontendGuards, ParserRejectsDeepUnaryChains) {
  std::string Src = "method main(n@Int) { ";
  for (int I = 0; I != 5000; ++I)
    Src += '!';
  Src += "true; }";
  auto P = std::make_unique<Program>();
  P->addBuiltins();
  Diagnostics Diags;
  EXPECT_FALSE(P->addSource(Src, Diags) && P->resolve(Diags));
  EXPECT_NE(Diags.toString().find("nesting too deep"), std::string::npos);
}

TEST(FrontendGuards, LexerRejectsOverflowingIntegerLiteral) {
  auto P = std::make_unique<Program>();
  P->addBuiltins();
  Diagnostics Diags;
  EXPECT_FALSE(
      P->addSource("method main(n@Int) { 99999999999999999999999999; }",
                   Diags) &&
      P->resolve(Diags));
  EXPECT_NE(Diags.toString().find("integer literal too large"),
            std::string::npos);
}
