//===- tests/StrategiesTests.cpp - Table 1 configuration plans -------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "specialize/Strategies.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace selspec;
using namespace selspec::test;

namespace {

const char *ShapesSource = R"(
  class Shape;
  class Circle isa Shape;
  class Square isa Shape;
  class Triangle isa Shape;
  method area(s@Circle) { 1; }
  method area(s@Square) { 2; }
  method area(s@Triangle) { 3; }
  method describe(s@Shape) { area(s); }
  method touches(a@Shape, b@Shape) { area(a) + area(b); }
  method main(n@Int) { n; }
)";

struct Built {
  std::unique_ptr<Program> P;
  std::unique_ptr<ApplicableClassesAnalysis> AC;
  std::unique_ptr<PassThroughAnalysis> PT;

  MethodId method(const std::string &Label) const {
    for (unsigned MI = 0; MI != P->numMethods(); ++MI)
      if (P->methodLabel(MethodId(MI)) == Label)
        return MethodId(MI);
    ADD_FAILURE() << "no method " << Label;
    return MethodId();
  }
};

Built build() {
  Built B;
  B.P = buildProgram({ShapesSource});
  if (B.P) {
    B.AC = std::make_unique<ApplicableClassesAnalysis>(*B.P);
    B.PT = std::make_unique<PassThroughAnalysis>(*B.P);
  }
  return B;
}

} // namespace

TEST(Strategies, ConfigNames) {
  EXPECT_STREQ(configName(Config::Base), "Base");
  EXPECT_STREQ(configName(Config::Cust), "Cust");
  EXPECT_STREQ(configName(Config::CustMM), "Cust-MM");
  EXPECT_STREQ(configName(Config::CHA), "CHA");
  EXPECT_STREQ(configName(Config::Selective), "Selective");
}

TEST(Strategies, BaseOneGeneralVersionPerMethod) {
  Built B = build();
  ASSERT_TRUE(B.P);
  SpecializationPlan Plan =
      makePlan(Config::Base, *B.P, *B.AC, *B.PT, nullptr);
  EXPECT_FALSE(Plan.UseCHA);
  for (unsigned MI = 0; MI != B.P->numMethods(); ++MI) {
    if (B.P->method(MethodId(MI)).isBuiltin())
      continue;
    ASSERT_EQ(Plan.VersionsByMethod[MI].size(), 1u);
    EXPECT_TRUE(tupleEquals(Plan.VersionsByMethod[MI][0],
                            B.AC->of(MethodId(MI))));
  }
  EXPECT_EQ(Plan.totalVersions(), B.P->numUserMethods());
}

TEST(Strategies, CHASameVersionsButUsesHierarchy) {
  Built B = build();
  ASSERT_TRUE(B.P);
  SpecializationPlan Plan =
      makePlan(Config::CHA, *B.P, *B.AC, *B.PT, nullptr);
  EXPECT_TRUE(Plan.UseCHA);
  EXPECT_EQ(Plan.totalVersions(), B.P->numUserMethods());
}

TEST(Strategies, CustOneVersionPerReceiverClass) {
  Built B = build();
  ASSERT_TRUE(B.P);
  SpecializationPlan Plan =
      makePlan(Config::Cust, *B.P, *B.AC, *B.PT, nullptr);

  // describe(Shape) applies to 4 receiver classes -> 4 versions, each
  // with a singleton receiver set.
  MethodId Describe = B.method("describe(Shape)");
  const auto &Versions = Plan.VersionsByMethod[Describe.value()];
  ASSERT_EQ(Versions.size(), 4u);
  for (const SpecTuple &T : Versions)
    EXPECT_EQ(T[0].count(), 1u);

  // area(Circle) applies only to Circle -> 1 version.
  EXPECT_EQ(Plan.VersionsByMethod[B.method("area(Circle)").value()].size(),
            1u);

  // touches customizes only the receiver: 4 versions, arg2 unrestricted.
  MethodId Touches = B.method("touches(Shape,Shape)");
  const auto &TV = Plan.VersionsByMethod[Touches.value()];
  ASSERT_EQ(TV.size(), 4u);
  for (const SpecTuple &T : TV) {
    EXPECT_EQ(T[0].count(), 1u);
    EXPECT_EQ(T[1], B.AC->of(Touches)[1]);
  }
}

TEST(Strategies, CustMMCustomizesAllDispatchedPositions) {
  Built B = build();
  ASSERT_TRUE(B.P);
  SpecializationPlan Plan =
      makePlan(Config::CustMM, *B.P, *B.AC, *B.PT, nullptr);

  // touches' generic dispatches on both positions: 4x4 = 16 versions.
  MethodId Touches = B.method("touches(Shape,Shape)");
  const auto &TV = Plan.VersionsByMethod[Touches.value()];
  ASSERT_EQ(TV.size(), 16u);
  for (const SpecTuple &T : TV) {
    EXPECT_EQ(T[0].count(), 1u);
    EXPECT_EQ(T[1].count(), 1u);
  }

  // Cust-MM produces at least as many versions as Cust (the paper's code
  // explosion).
  SpecializationPlan CustPlan =
      makePlan(Config::Cust, *B.P, *B.AC, *B.PT, nullptr);
  EXPECT_GE(Plan.totalVersions(), CustPlan.totalVersions());
}

TEST(Strategies, SelectiveKeepsGeneralVersionFirst) {
  Built B = build();
  ASSERT_TRUE(B.P);
  // Profile: describe's area(s) site is hot and splits across classes.
  CallGraph CG;
  MethodId Describe = B.method("describe(Shape)");
  Symbol AreaSym = B.P->Syms.find("area");
  CallSiteId AreaSite;
  for (unsigned I = 0; I != B.P->numCallSites(); ++I) {
    const CallSiteInfo &Site = B.P->callSite(CallSiteId(I));
    if (Site.Owner == Describe && Site.Send->GenericName == AreaSym)
      AreaSite = Site.Id;
  }
  ASSERT_TRUE(AreaSite.isValid());
  CG.addHits(AreaSite, Describe, B.method("area(Circle)"), 50000);

  SpecializationPlan Plan =
      makePlan(Config::Selective, *B.P, *B.AC, *B.PT, &CG);
  EXPECT_TRUE(Plan.UseCHA);
  const auto &DV = Plan.VersionsByMethod[Describe.value()];
  ASSERT_EQ(DV.size(), 2u);
  EXPECT_TRUE(tupleEquals(DV[0], B.AC->of(Describe)))
      << "general version kept at index 0";
  // The specialized version restricts the receiver to Circle.
  ClassId Circle = B.P->Classes.lookup(B.P->Syms.find("Circle"));
  EXPECT_EQ(DV[1][0].getSingleElement(), Circle);
  // The plan carries the statistics of the specializer run that made it.
  ASSERT_TRUE(Plan.Specializer.has_value());
  EXPECT_EQ(Plan.Specializer->MethodsSpecialized, 1u);
  EXPECT_EQ(Plan.Specializer->VersionsAdded, 1u);
  EXPECT_EQ(Plan.Specializer->MaxVersionsOfAMethod, 2u);

  // Selective is far smaller than Cust here.
  SpecializationPlan CustPlan =
      makePlan(Config::Cust, *B.P, *B.AC, *B.PT, nullptr);
  EXPECT_LT(Plan.totalVersions(), CustPlan.totalVersions());
  EXPECT_FALSE(CustPlan.Specializer.has_value());
}

TEST(Strategies, SelectiveWithEmptyProfileEqualsCHA) {
  Built B = build();
  ASSERT_TRUE(B.P);
  CallGraph Empty;
  SpecializationPlan Plan =
      makePlan(Config::Selective, *B.P, *B.AC, *B.PT, &Empty);
  EXPECT_EQ(Plan.totalVersions(), B.P->numUserMethods());
  EXPECT_FALSE(Plan.Specializer.has_value());
}
