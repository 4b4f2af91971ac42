//===- tests/PipelineTests.cpp - End-to-end driver --------------------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "driver/Report.h"
#include "driver/Snapshot.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace selspec;
using namespace selspec::test;

namespace {

const char *CounterSource = R"(
  class Shape; class Circle isa Shape; class Square isa Shape;
  method area(s@Circle) { 6; }
  method area(s@Square) { 9; }
  method pickShape(i@Int) {
    if (i % 2 == 0) { new Circle; } else { new Square; }
  }
  method totalArea(v@Vector) {
    let total := 0;
    do(v, fn(s) { total := total + area(s); });
    total;
  }
  method main(n@Int) {
    let v := vectorNew();
    let i := 0;
    while (i < n) { add(v, pickShape(i)); i := i + 1; }
    print(totalArea(v));
  }
)";

} // namespace

TEST(Pipeline, FromSourcesAndAllConfigsAgree) {
  std::string Err;
  std::unique_ptr<Workbench> W =
      Workbench::fromSources({CounterSource}, Err, /*WithStdlib=*/true);
  ASSERT_TRUE(W) << Err;
  ASSERT_TRUE(W->collectProfile(20, Err)) << Err;
  ASSERT_TRUE(W->hasProfile());

  std::string Expected = "150\n"; // 10*6 + 10*9
  for (Config C : {Config::Base, Config::Cust, Config::CustMM, Config::CHA,
                   Config::Selective}) {
    SelectiveOptions Sel;
    Sel.SpecializationThreshold = 5;
    std::optional<ConfigResult> R = W->runConfig(C, 20, Err, Sel);
    ASSERT_TRUE(R) << configName(C) << ": " << Err;
    EXPECT_EQ(R->Output, Expected) << configName(C);
    EXPECT_GT(R->CompiledRoutines, 0u);
    EXPECT_GT(R->Run.Cycles, 0u);
    EXPECT_LE(R->InvokedRoutines, R->CompiledRoutines);
  }
}

TEST(Pipeline, ProfileErrorSurfaces) {
  std::string Err;
  std::unique_ptr<Workbench> W = Workbench::fromSources(
      {"method main(n@Int) { abort(\"kaput\"); }"}, Err);
  ASSERT_TRUE(W) << Err;
  EXPECT_FALSE(W->collectProfile(1, Err));
  EXPECT_NE(Err.find("kaput"), std::string::npos);
}

TEST(Pipeline, ParseErrorSurfaces) {
  std::string Err;
  std::unique_ptr<Workbench> W =
      Workbench::fromSources({"method main(n@Int) { ; }"}, Err);
  EXPECT_EQ(W, nullptr);
  EXPECT_FALSE(Err.empty());
}

TEST(Pipeline, MissingFileSurfaces) {
  std::string Err;
  std::unique_ptr<Workbench> W =
      Workbench::fromFiles({"no_such_file.mica"}, Err);
  EXPECT_EQ(W, nullptr);
  EXPECT_NE(Err.find("no_such_file.mica"), std::string::npos);
}

TEST(Pipeline, StdlibLoads) {
  std::string Err;
  std::unique_ptr<Workbench> W = Workbench::fromSources(
      {"method main(n@Int) { let v := vectorNew(); add(v, 1); "
       "print(size(v)); }"},
      Err, /*WithStdlib=*/true);
  ASSERT_TRUE(W) << Err;
  std::optional<ConfigResult> R = W->runConfig(Config::Base, 0, Err);
  ASSERT_TRUE(R) << Err;
  EXPECT_EQ(R->Output, "1\n");
  EXPECT_GT(W->sourceLines(), 100u) << "stdlib lines counted";
}

TEST(Pipeline, SelectiveReducesDispatchesOnPolymorphicLoop) {
  std::string Err;
  std::unique_ptr<Workbench> W =
      Workbench::fromSources({CounterSource}, Err, /*WithStdlib=*/true);
  ASSERT_TRUE(W) << Err;
  ASSERT_TRUE(W->collectProfile(60, Err)) << Err;

  SelectiveOptions Sel;
  Sel.SpecializationThreshold = 10;
  std::optional<ConfigResult> Base = W->runConfig(Config::Base, 60, Err);
  std::optional<ConfigResult> CHA = W->runConfig(Config::CHA, 60, Err);
  std::optional<ConfigResult> Sel60 =
      W->runConfig(Config::Selective, 60, Err, Sel);
  ASSERT_TRUE(Base && CHA && Sel60) << Err;

  EXPECT_LE(CHA->Run.totalDispatches(), Base->Run.totalDispatches());
  EXPECT_LE(Sel60->Run.totalDispatches(), CHA->Run.totalDispatches());
  EXPECT_LT(Sel60->Run.Cycles, Base->Run.Cycles);
}

TEST(Pipeline, RebuildingASnapshotInternsNoNewSymbols) {
  // The inliner numbers its renamed names per compiled version, so a
  // second build of the same config finds every name already interned.
  std::string Err;
  std::unique_ptr<Workbench> W =
      Workbench::fromFiles({"minilang.mica", "compiler.mica"}, Err);
  ASSERT_TRUE(W) << Err;
  ASSERT_TRUE(W->collectProfile(8, Err)) << Err;
  for (Config C : {Config::CustMM, Config::Selective}) {
    std::shared_ptr<const CompiledSnapshot> First = W->buildSnapshot(C, Err);
    ASSERT_TRUE(First) << Err;
    const size_t Symbols = W->program().Syms.size();
    std::shared_ptr<const CompiledSnapshot> Second = W->buildSnapshot(C, Err);
    ASSERT_TRUE(Second) << Err;
    EXPECT_EQ(W->program().Syms.size(), Symbols) << configName(C);
    EXPECT_EQ(Second->buildInfo().CodeSize, First->buildInfo().CodeSize);
    EXPECT_EQ(Second->buildInfo().CompiledRoutines,
              First->buildInfo().CompiledRoutines);
    CompiledSnapshot::JobResult A = First->run(8), B = Second->run(8);
    ASSERT_TRUE(A.Ok && B.Ok) << A.Error << B.Error;
    EXPECT_EQ(A.R.Output, B.R.Output);
    EXPECT_EQ(A.R.Run.Cycles, B.R.Run.Cycles);
    EXPECT_EQ(A.R.Run.DynamicDispatches, B.R.Run.DynamicDispatches);
    EXPECT_EQ(A.R.Run.NodesEvaluated, B.R.Run.NodesEvaluated);
  }
}

TEST(TextTable, FormattingHelpers) {
  EXPECT_EQ(TextTable::ratio(1.0), "1.00");
  EXPECT_EQ(TextTable::ratio(2.345), "2.35");
  EXPECT_EQ(TextTable::count(0), "0");
  EXPECT_EQ(TextTable::count(999), "999");
  EXPECT_EQ(TextTable::count(1234567), "1,234,567");
  EXPECT_EQ(TextTable::percentDelta(1.65, 1.0), "+65%");
  EXPECT_EQ(TextTable::percentDelta(0.9, 1.0), "-10%");
  EXPECT_EQ(TextTable::percentDelta(1.0, 0.0), "n/a");

  TextTable T({"Program", "Base", "Selective"});
  T.addRow({"richards", "1.00", "2.50"});
  std::ostringstream OS;
  T.print(OS);
  std::string S = OS.str();
  EXPECT_NE(S.find("Program"), std::string::npos);
  EXPECT_NE(S.find("richards"), std::string::npos);
  EXPECT_NE(S.find("2.50"), std::string::npos);
}
