//===- tests/VersionIndexTests.cpp - Per-method version index -------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The version index behind CompiledProgram::selectVersion and
/// overlappingVersions, checked against the linear scans it replaced
/// (kept here as the reference): on hand-built tuples with ties and
/// non-contiguous sets, and on every Table 2 program under all five
/// configurations, for every method with two or more versions.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <random>

using namespace selspec;
using namespace selspec::test;

namespace {

/// Reference run-time selection: scan every tuple of \p M in version
/// order; a later match replaces the best so far when its tuple is a
/// subset of the best's.
int referenceSelect(const CompiledProgram &CP, MethodId M,
                    const std::vector<ClassId> &Args) {
  int Best = -1;
  for (uint32_t VI : CP.versionsOf(M)) {
    const CompiledMethod &CM = CP.version(VI);
    if (!tupleContains(CM.Tuple, Args))
      continue;
    if (Best < 0 || tupleSubsetOf(CM.Tuple, CP.version(Best).Tuple))
      Best = static_cast<int>(VI);
  }
  return Best;
}

/// Reference version-binding filter: the versions whose tuple intersects
/// \p Sets, in version order.
std::vector<uint32_t> referenceOverlapping(const CompiledProgram &CP,
                                           MethodId M, const SpecTuple &Sets) {
  std::vector<uint32_t> Out;
  for (uint32_t VI : CP.versionsOf(M))
    if (tupleIntersects(CP.version(VI).Tuple, Sets))
      Out.push_back(VI);
  return Out;
}

/// Every class tuple of arity \p N when there are at most \p Cap of them.
bool allTuples(unsigned U, size_t N, size_t Cap,
               std::vector<std::vector<ClassId>> &Out) {
  size_t Count = 1;
  for (size_t I = 0; I != N; ++I) {
    Count *= U;
    if (Count > Cap)
      return false;
  }
  std::vector<ClassId> T(N, ClassId(0));
  for (size_t K = 0; K != Count; ++K) {
    size_t Rest = K;
    for (size_t I = 0; I != N; ++I, Rest /= U)
      T[I] = ClassId(static_cast<uint32_t>(Rest % U));
    Out.push_back(T);
  }
  return true;
}

/// Checks both queries of \p M against the references: selection on every
/// class tuple (or, past \p Cap tuples, a seeded sample half drawn from
/// the versions' own tuples), and the overlap filter on singleton, cone,
/// full and mixed set tuples.
void checkMethod(const CompiledProgram &CP, MethodId M, size_t Cap,
                 std::mt19937 &Rng, const std::string &Label) {
  const ClassHierarchy &H = CP.program().Classes;
  const unsigned U = H.size();
  const std::vector<uint32_t> &Vs = CP.versionsOf(M);
  const size_t N = CP.version(Vs.front()).Tuple.size();
  auto AnyClass = [&] { return ClassId(static_cast<uint32_t>(Rng() % U)); };
  auto MemberOf = [&](const ClassSet &S) {
    std::vector<ClassId> Ms = S.members();
    return Ms[Rng() % Ms.size()];
  };

  std::vector<std::vector<ClassId>> Tuples;
  if (!allTuples(U, N, Cap, Tuples)) {
    for (size_t K = 0; K != Cap; ++K) {
      const SpecTuple &From = CP.version(Vs[Rng() % Vs.size()]).Tuple;
      std::vector<ClassId> T;
      for (size_t I = 0; I != N; ++I)
        T.push_back(K % 2 ? MemberOf(From[I]) : AnyClass());
      Tuples.push_back(std::move(T));
    }
  }
  for (const std::vector<ClassId> &T : Tuples)
    ASSERT_EQ(CP.selectVersion(M, T), referenceSelect(CP, M, T))
        << Label << " selectVersion on tuple #" << (&T - Tuples.data());

  enum Kind { Single, Cone, Full };
  auto SetOf = [&](Kind K, const ClassSet &Near) {
    switch (K) {
    case Single:
      return ClassSet::single(U, Rng() % 2 ? MemberOf(Near) : AnyClass());
    case Cone:
      return H.cone(Rng() % 2 ? MemberOf(Near) : AnyClass());
    case Full:
      break;
    }
    return ClassSet::all(U);
  };
  const size_t Samples = std::min<size_t>(Cap, 64 + 4 * Vs.size());
  for (size_t K = 0; K != Samples; ++K) {
    const SpecTuple &Near = CP.version(Vs[Rng() % Vs.size()]).Tuple;
    SpecTuple Sets;
    for (size_t I = 0; I != N; ++I)
      Sets.push_back(SetOf(K < 3 ? Kind(K) : Kind(Rng() % 3), Near[I]));
    ASSERT_EQ(CP.overlappingVersions(M, Sets),
              referenceOverlapping(CP, M, Sets))
        << Label << " overlappingVersions on sample #" << K;
  }
}

const char *ShapesSource = R"(
  class Shape;
  class Round isa Shape; class Circle isa Round; class Oval isa Round;
  class Poly isa Shape; class Square isa Poly; class Tri isa Poly;
  method f(a@Shape, b@Shape) { 0; }
  method main(n@Int) { n; }
)";

} // namespace

TEST(VersionIndex, HandBuiltTuplesMatchTheLinearScan) {
  // Ties (equal and incomparable tuples), sets with holes (a cone minus a
  // subcone, a scattered set) and positions no version covers.
  std::unique_ptr<Program> P = buildProgram({ShapesSource});
  ASSERT_TRUE(P);
  const ClassHierarchy &H = P->Classes;
  const unsigned U = H.size();
  auto C = [&](const char *Name) {
    return H.lookup(P->Syms.find(Name));
  };
  MethodId F;
  for (unsigned MI = 0; MI != P->numMethods(); ++MI)
    if (P->methodLabel(MethodId(MI)) == "f(Shape,Shape)")
      F = MethodId(MI);
  ASSERT_TRUE(F.isValid());

  ClassSet Shapes = H.cone(C("Shape"));
  ClassSet RoundButOval = H.cone(C("Round"));
  RoundButOval.remove(C("Oval"));
  ClassSet Scattered = ClassSet::single(U, C("Circle"));
  Scattered.insert(C("Square"));
  Scattered.insert(C("Oval"));
  const std::vector<SpecTuple> Tuples = {
      {Shapes, Shapes},
      {RoundButOval, Shapes},
      {Scattered, H.cone(C("Poly"))},
      {RoundButOval, Shapes}, // equal to an earlier tuple
      {H.cone(C("Poly")), Scattered},
      {Scattered, RoundButOval}, // incomparable with the two above
      {ClassSet::single(U, C("Circle")), ClassSet::single(U, C("Tri"))},
  };
  CompiledProgram CP(*P, Config::Base, /*UseCHA=*/false);
  for (const SpecTuple &T : Tuples) {
    CompiledMethod CM;
    CM.Source = F;
    CM.Tuple = T;
    CP.addVersion(std::move(CM));
  }
  CP.indexVersions();
  std::mt19937 Rng(7);
  checkMethod(CP, F, /*Cap=*/4096, Rng, "hand-built");
}

TEST(VersionIndexDeathTest, AddVersionAfterIndexingIsACheckedError) {
  std::unique_ptr<Program> P = buildProgram({ShapesSource});
  ASSERT_TRUE(P);
  MethodId F;
  for (unsigned MI = 0; MI != P->numMethods(); ++MI)
    if (P->methodLabel(MethodId(MI)) == "f(Shape,Shape)")
      F = MethodId(MI);
  ASSERT_TRUE(F.isValid());
  const ClassSet All = P->Classes.allClasses();
  auto General = [&] {
    CompiledMethod CM;
    CM.Source = F;
    CM.Tuple = {All, All};
    return CM;
  };
  CompiledProgram CP(*P, Config::Base, /*UseCHA=*/false);
  EXPECT_DEATH(CP.selectVersion(F, {ClassId(0), ClassId(0)}),
               "before indexVersions");
  CP.addVersion(General());
  CP.indexVersions();
  EXPECT_EQ(CP.selectVersion(F, {ClassId(0), ClassId(0)}), 0);
  EXPECT_DEATH(CP.addVersion(General()), "after indexVersions");
}

namespace {

struct SuiteCase {
  const char *Name;
  std::vector<std::string> Files;
  int64_t TrainInput;
};

const SuiteCase Suite[] = {
    {"richards", {"richards.mica"}, 30},
    {"instsched", {"instsched.mica"}, 6},
    {"typechecker", {"minilang.mica", "typechecker.mica"}, 8},
    {"compiler", {"minilang.mica", "compiler.mica"}, 8},
};

class VersionIndexSuite : public testing::TestWithParam<int> {};

} // namespace

TEST_P(VersionIndexSuite, EveryMultiVersionMethodMatchesTheLinearScan) {
  const SuiteCase &Case = Suite[GetParam()];
  std::string Err;
  std::unique_ptr<Workbench> W = Workbench::fromFiles(Case.Files, Err);
  ASSERT_TRUE(W) << Case.Name << ": " << Err;
  ASSERT_TRUE(W->collectProfile(Case.TrainInput, Err))
      << Case.Name << ": " << Err;
  SelectiveOptions Sel;
  Sel.SpecializationThreshold = 50;

  std::mt19937 Rng(20261019u + static_cast<unsigned>(GetParam()));
  for (Config C : {Config::Base, Config::Cust, Config::CustMM, Config::CHA,
                   Config::Selective}) {
    std::unique_ptr<CompiledProgram> CP = W->compileOnly(C, Sel);
    ASSERT_TRUE(CP) << Case.Name << " under " << configName(C);
    const Program &P = W->program();
    unsigned Checked = 0;
    for (unsigned MI = 0; MI != P.numMethods(); ++MI) {
      MethodId M(MI);
      if (CP->versionsOf(M).size() < 2)
        continue;
      ++Checked;
      // Wide methods get a smaller sample: the reference scan is the
      // quadratic part.
      size_t Cap = CP->versionsOf(M).size() > 1000 ? 256 : 2048;
      checkMethod(*CP, M, Cap, Rng,
                  std::string(Case.Name) + "/" + configName(C) + "/" +
                      P.methodLabel(M));
      if (testing::Test::HasFatalFailure())
        return;
    }
    if (C == Config::Cust || C == Config::CustMM) {
      EXPECT_GT(Checked, 0u) << Case.Name << " under " << configName(C);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Table2, VersionIndexSuite, testing::Range(0, 4),
                         [](const testing::TestParamInfo<int> &Info) {
                           return std::string(Suite[Info.param].Name);
                         });
