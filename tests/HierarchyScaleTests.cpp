//===- tests/HierarchyScaleTests.cpp - Hierarchy-axis scaling tests -------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the hierarchy-axis scaling work: the hybrid ClassSet
/// representations (differential against a std::set model, all three
/// representations forced through the test hook), interval cones against
/// a transitive-closure reference over randomized DAGs, the
/// DispatchTable cell-cap regression (just-over-cap must fall back while
/// just-under-cap materializes, both agreeing with Program::dispatch),
/// the set-wide cell budget (a hostile 4-ary generic falls back and still
/// runs identically on both tiers), the all-build-modes finalize trap, the Rng rejection-sampling rewrite
/// (frozen legacy sequence + uniformity), and the structured hierarchy
/// synthesizer (determinism, single-interval cones, cross-config/tier
/// output equality).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "driver/Snapshot.h"
#include "fuzz/ProgramGen.h"
#include "hierarchy/ClassHierarchy.h"
#include "runtime/DispatchTable.h"
#include "support/ClassSet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

using namespace selspec;
using namespace selspec::test;

namespace {

//===----------------------------------------------------------------------===//
// Hybrid ClassSet: differential property tests
//===----------------------------------------------------------------------===//

constexpr ClassSet::Rep AllReps[] = {ClassSet::Rep::Dense,
                                     ClassSet::Rep::Sparse,
                                     ClassSet::Rep::Interval};

/// Checks every observable of \p S against the model \p M, including that
/// forcing each representation preserves value, equality, and hash.
void expectMatchesModel(const ClassSet &S, const std::set<uint32_t> &M,
                        unsigned Universe, const char *Ctx) {
  ASSERT_EQ(S.universeSize(), Universe) << Ctx;
  EXPECT_EQ(S.count(), M.size()) << Ctx;
  EXPECT_EQ(S.isEmpty(), M.empty()) << Ctx;
  EXPECT_EQ(S.isAll(), M.size() == Universe) << Ctx;

  std::vector<ClassId> Members = S.members();
  ASSERT_EQ(Members.size(), M.size()) << Ctx;
  auto It = M.begin();
  for (size_t I = 0; I != Members.size(); ++I, ++It)
    EXPECT_EQ(Members[I].value(), *It) << Ctx << " member " << I;

  for (uint32_t V : {0u, 1u, Universe / 2, Universe - 1})
    EXPECT_EQ(S.contains(ClassId(V)), M.count(V) != 0)
        << Ctx << " contains " << V;

  if (M.size() == 1)
    EXPECT_EQ(S.getSingleElement().value(), *M.begin()) << Ctx;
  else
    EXPECT_FALSE(S.getSingleElement().isValid()) << Ctx;

  // runs() must reconstruct exactly the member list.
  std::vector<uint32_t> FromRuns;
  for (const ClassSet::Range &Rg : S.runs()) {
    EXPECT_LT(Rg.Lo, Rg.Hi) << Ctx;
    for (uint32_t V = Rg.Lo; V != Rg.Hi; ++V)
      FromRuns.push_back(V);
  }
  EXPECT_EQ(FromRuns, std::vector<uint32_t>(M.begin(), M.end())) << Ctx;

  // Every representation of the same value is ==, hashes identically, and
  // observes identically.
  for (ClassSet::Rep Target : AllReps) {
    ClassSet Copy = S;
    Copy.convertToRepForTesting(Target);
    EXPECT_EQ(Copy.representation(), Target) << Ctx;
    EXPECT_EQ(Copy, S) << Ctx;
    EXPECT_EQ(Copy.hashValue(), S.hashValue()) << Ctx;
    EXPECT_EQ(Copy.count(), S.count()) << Ctx;
    EXPECT_TRUE(Copy.isSubsetOf(S) && S.isSubsetOf(Copy)) << Ctx;
  }
}

std::set<uint32_t> modelIntersect(const std::set<uint32_t> &A,
                                  const std::set<uint32_t> &B) {
  std::set<uint32_t> Out;
  for (uint32_t V : A)
    if (B.count(V))
      Out.insert(V);
  return Out;
}

std::set<uint32_t> modelUnion(const std::set<uint32_t> &A,
                              const std::set<uint32_t> &B) {
  std::set<uint32_t> Out = A;
  Out.insert(B.begin(), B.end());
  return Out;
}

std::set<uint32_t> modelSubtract(const std::set<uint32_t> &A,
                                 const std::set<uint32_t> &B) {
  std::set<uint32_t> Out;
  for (uint32_t V : A)
    if (!B.count(V))
      Out.insert(V);
  return Out;
}

TEST(HybridClassSetTest, DifferentialAgainstModel) {
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    fuzz::Rng R(Seed);
    const unsigned U = 8 + R.below(160);
    ClassSet A(U), B(U);
    std::set<uint32_t> MA, MB;
    std::string Ctx = "seed " + std::to_string(Seed);

    for (unsigned Op = 0; Op != 200; ++Op) {
      switch (R.below(12)) {
      case 0:
      case 1: {
        uint32_t V = R.below(U);
        A.insert(ClassId(V));
        MA.insert(V);
        break;
      }
      case 2: {
        uint32_t V = R.below(U);
        A.remove(ClassId(V));
        MA.erase(V);
        break;
      }
      case 3: {
        uint32_t V = R.below(U);
        B.insert(ClassId(V));
        MB.insert(V);
        break;
      }
      case 4: {
        uint32_t V = R.below(U);
        B.remove(ClassId(V));
        MB.erase(V);
        break;
      }
      case 5:
        A &= B;
        MA = modelIntersect(MA, MB);
        break;
      case 6:
        A |= B;
        MA = modelUnion(MA, MB);
        break;
      case 7:
        A.subtract(B);
        MA = modelSubtract(MA, MB);
        break;
      case 8: {
        bool ModelSubset = std::includes(MB.begin(), MB.end(), MA.begin(),
                                         MA.end());
        EXPECT_EQ(A.isSubsetOf(B), ModelSubset) << Ctx;
        EXPECT_EQ(A.intersects(B), !modelIntersect(MA, MB).empty()) << Ctx;
        EXPECT_EQ(A == B, MA == MB) << Ctx;
        break;
      }
      case 9:
        B = ClassSet::all(U);
        MB.clear();
        for (uint32_t V = 0; V != U; ++V)
          MB.insert(V);
        break;
      case 10: {
        uint32_t V = R.below(U);
        B = ClassSet::single(U, ClassId(V));
        MB = {V};
        break;
      }
      case 11: {
        // Force a random representation mid-sequence: the value must be
        // unaffected and later ops must keep agreeing with the model.
        ClassSet &Target = R.chance(50) ? A : B;
        Target.convertToRepForTesting(AllReps[R.below(3)]);
        break;
      }
      }
      expectMatchesModel(A, MA, U, Ctx.c_str());
      expectMatchesModel(B, MB, U, Ctx.c_str());
    }
  }
}

TEST(HybridClassSetTest, EqualityAndHashAcrossRepresentations) {
  const unsigned U = 64;
  ClassSet S = ClassSet::fromRuns(U, {{2, 5}, {7, 8}, {30, 40}});
  std::vector<ClassSet> Copies;
  for (ClassSet::Rep Target : AllReps) {
    ClassSet C = S;
    C.convertToRepForTesting(Target);
    Copies.push_back(C);
  }
  for (const ClassSet &X : Copies)
    for (const ClassSet &Y : Copies) {
      EXPECT_EQ(X, Y);
      EXPECT_EQ(X.hashValue(), Y.hashValue());
    }
  // A genuinely different set differs in every representation pairing.
  ClassSet Other = ClassSet::fromRuns(U, {{2, 5}, {7, 9}, {30, 40}});
  for (ClassSet::Rep Target : AllReps) {
    ClassSet C = Other;
    C.convertToRepForTesting(Target);
    for (const ClassSet &X : Copies)
      EXPECT_NE(X, C);
  }
}

TEST(HybridClassSetTest, RepresentationAutoSelection) {
  // Empty sets allocate nothing and stay Sparse.
  ClassSet Empty(10000);
  EXPECT_EQ(Empty.representation(), ClassSet::Rep::Sparse);
  EXPECT_EQ(Empty.memoryBytes(), 0u);

  // The universe is one interval regardless of size.
  ClassSet All = ClassSet::all(10000);
  EXPECT_EQ(All.representation(), ClassSet::Rep::Interval);
  EXPECT_TRUE(All.isAll());
  EXPECT_LE(All.memoryBytes(), 64u);

  // A dense scatter over a large universe escalates to Dense.
  ClassSet Scatter(10000);
  for (uint32_t V = 0; V < 10000; V += 2)
    Scatter.insert(ClassId(V));
  EXPECT_EQ(Scatter.representation(), ClassSet::Rep::Dense);
  EXPECT_EQ(Scatter.count(), 5000u);
}

//===----------------------------------------------------------------------===//
// Interval cones vs. transitive-closure reference over random DAGs
//===----------------------------------------------------------------------===//

TEST(IntervalConeTest, MatchesTransitiveClosureOnRandomHierarchies) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    fuzz::Rng R(Seed);
    SymbolTable Syms;
    ClassHierarchy H;
    const unsigned N = 20 + R.below(100);

    // Random DAG: class i picks one or (30%) two parents among 0..i-1.
    std::vector<std::vector<unsigned>> ParentsOf(N);
    H.addClass(Syms.intern("C0"), {});
    for (unsigned I = 1; I != N; ++I) {
      unsigned P1 = R.below(I);
      std::vector<ClassId> Ps{ClassId(P1)};
      ParentsOf[I].push_back(P1);
      if (I > 1 && R.chance(30)) {
        unsigned P2 = R.below(I);
        if (P2 != P1) {
          Ps.push_back(ClassId(P2));
          ParentsOf[I].push_back(P2);
        }
      }
      ASSERT_TRUE(
          H.addClass(Syms.intern("C" + std::to_string(I)), Ps).isValid());
    }
    H.finalize();

    // Reference: IsSub[i][j] by forward propagation over ancestors.
    std::vector<std::vector<bool>> IsSub(N, std::vector<bool>(N, false));
    for (unsigned I = 0; I != N; ++I) {
      IsSub[I][I] = true;
      for (unsigned P : ParentsOf[I])
        for (unsigned J = 0; J != N; ++J)
          if (IsSub[P][J])
            IsSub[I][J] = true;
    }

    for (unsigned I = 0; I != N; ++I)
      for (unsigned J = 0; J != N; ++J)
        EXPECT_EQ(H.isSubclassOf(ClassId(I), ClassId(J)), IsSub[I][J])
            << "seed " << Seed << " pair (" << I << "," << J << ")";

    for (unsigned J = 0; J != N; ++J) {
      ClassSet Cone = H.cone(ClassId(J));
      ClassSet Reference(N);
      unsigned RefCount = 0;
      for (unsigned I = 0; I != N; ++I)
        if (IsSub[I][J]) {
          Reference.insert(ClassId(I));
          ++RefCount;
        }
      EXPECT_EQ(Cone, Reference) << "seed " << Seed << " cone " << J;
      EXPECT_EQ(Cone.hashValue(), Reference.hashValue())
          << "seed " << Seed << " cone " << J;
      EXPECT_EQ(H.coneSize(ClassId(J)), RefCount)
          << "seed " << Seed << " cone " << J;
      EXPECT_GE(H.coneIntervalCount(ClassId(J)), 1u);
    }

    EXPECT_TRUE(H.allClasses().isAll());
    EXPECT_EQ(H.allClasses().count(), N);
    EXPECT_EQ(H.cone(H.root()), H.allClasses()) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// DispatchTable cell-cap regression
//===----------------------------------------------------------------------===//

const char *CapProgram = R"(
class A; class A1 isa A; class A2 isa A; class A3 isa A;
class B; class B1 isa B; class B2 isa B; class B3 isa B;
method g(x@A1, y@B1) { 1; }
method g(x@A2, y@B2) { 2; }
method g(x@A3, y@B3) { 3; }
method main(n@Int) { n; }
)";

/// Both dispatched positions have 4 behavioral groups ({A1},{A2},{A3},
/// everything else), so the compressed table is exactly 16 cells.
TEST(DispatchTableCapTest, JustUnderCapMaterializesJustOverFallsBack) {
  std::unique_ptr<Program> P = buildProgram({CapProgram});
  ASSERT_TRUE(P);
  GenericId G = P->lookupGeneric(P->Syms.find("g"), 2);
  ASSERT_TRUE(G.isValid());

  DispatchTable AtCap(*P, G, /*CellCap=*/16);
  EXPECT_TRUE(AtCap.materialized());
  EXPECT_EQ(AtCap.tableSize(), 16u);
  EXPECT_EQ(AtCap.numDispatchedPositions(), 2u);
  EXPECT_EQ(AtCap.numGroups(0), 4u);
  EXPECT_EQ(AtCap.numGroups(1), 4u);

  // One cell over: the table must fall back, not abort or truncate.
  DispatchTable OverCap(*P, G, /*CellCap=*/15);
  EXPECT_FALSE(OverCap.materialized());
  EXPECT_EQ(OverCap.tableSize(), 0u);

  // The default cap is far above 16 cells.
  DispatchTable Default(*P, G);
  EXPECT_TRUE(Default.materialized());

  // Materialized or not, lookup agrees with Program::dispatch on every
  // class pair (including no-applicable-method combinations).
  std::vector<ClassId> Cs;
  for (const char *Name : {"A", "A1", "A2", "A3", "B", "B1", "B2", "B3"})
    Cs.push_back(P->Classes.lookup(P->Syms.find(Name)));
  for (ClassId X : Cs)
    for (ClassId Y : Cs) {
      MethodId Want = P->dispatch(G, {X, Y});
      EXPECT_EQ(AtCap.lookup({X, Y}), Want);
      EXPECT_EQ(OverCap.lookup({X, Y}), Want);
      EXPECT_EQ(Default.lookup({X, Y}), Want);
    }
}

/// The set-wide cell budget against a hostile program: 62 sibling classes
/// and one 4-ary generic with a method per class on all four positions.
/// Each position has 63 behavioral groups, so that one table alone would
/// be 63^4 = 15.75M cells.
std::string hostileTableProgram() {
  std::string Src;
  for (int I = 0; I != 62; ++I)
    Src += "class C" + std::to_string(I) + ";\n";
  for (int I = 0; I != 62; ++I) {
    const std::string C = "C" + std::to_string(I);
    Src += "method f(a@" + C + ", b@" + C + ", c@" + C + ", d@" + C +
           ") { " + std::to_string(I) + "; }\n";
  }
  Src += R"(
method pick(n@Int) {
  if (n % 3 == 0) { new C0; } else { if (n % 3 == 1) { new C30; } else { new C61; } }
}
method main(n@Int) {
  let i := 0; let acc := 0;
  while (i < n) { let x := pick(i); acc := acc + f(x, x, x, x); i := i + 1; }
  print(acc);
}
)";
  return Src;
}

TEST(DispatchTableBudget, HostileGenericFallsBackAndRunsOnBothTiers) {
  std::string Err;
  std::unique_ptr<Workbench> W =
      Workbench::fromSources({hostileTableProgram()}, Err);
  ASSERT_TRUE(W) << Err;
  const Program &P = W->program();
  GenericId F = P.lookupGeneric(P.Syms.find("f"), 4);
  ASSERT_TRUE(F.isValid());
  EXPECT_FALSE(W->tables().forGeneric(F).materialized());
  EXPECT_LE(W->tables().totalCells(), DispatchTableSet::CellBudget);

  CompiledSnapshot::JobResult Runs[2];
  const ExecTier Tiers[2] = {ExecTier::Ast, ExecTier::Bytecode};
  for (int T = 0; T != 2; ++T) {
    W->setTier(Tiers[T]);
    std::shared_ptr<const CompiledSnapshot> Snap =
        W->buildSnapshot(Config::Base, Err);
    ASSERT_TRUE(Snap) << Err;
    ASSERT_EQ(Snap->tier(), Tiers[T]);
    CompiledSnapshot::JobOptions JO;
    JO.CollectMetricsDelta = true;
    Runs[T] = Snap->run(30, JO);
    ASSERT_TRUE(Runs[T].Ok) << Runs[T].Error;
    uint64_t FullLookups = 0;
    for (const auto &[Name, N] : Runs[T].MetricsDelta)
      if (Name == "dispatcher.full_lookups")
        FullLookups = N;
    EXPECT_GT(FullLookups, 0u)
        << "sends of f must answer through Program::dispatch";
  }
  EXPECT_EQ(Runs[0].R.Output, "910\n");
  EXPECT_EQ(Runs[0].R.Output, Runs[1].R.Output);
  EXPECT_TRUE(sameRunStats(Runs[0].R.Run, Runs[1].R.Run));
}

//===----------------------------------------------------------------------===//
// Finalization is checked in every build mode
//===----------------------------------------------------------------------===//

TEST(ClassHierarchyDeathTest, QueryBeforeFinalizeTraps) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SymbolTable Syms;
  ClassHierarchy H;
  ClassId Any = H.addClass(Syms.intern("Any"), {});
  ASSERT_TRUE(Any.isValid());
  EXPECT_DEATH(H.isSubclassOf(Any, Any), "before finalize");
  EXPECT_DEATH(H.allClasses(), "before finalize");
}

TEST(ClassHierarchyDeathTest, AddClassInvalidatesFinalize) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SymbolTable Syms;
  ClassHierarchy H;
  ClassId Any = H.addClass(Syms.intern("Any"), {});
  H.finalize();
  EXPECT_TRUE(H.isSubclassOf(Any, Any));
  ClassId Later = H.addClass(Syms.intern("Later"), {Any});
  ASSERT_TRUE(Later.isValid());
  EXPECT_DEATH(H.isSubclassOf(Later, Any), "after addClass");
}

TEST(ClassHierarchyTest, FinalizeGenerationStamps) {
  SymbolTable Syms;
  ClassHierarchy H;
  ClassId Any = H.addClass(Syms.intern("Any"), {});
  EXPECT_EQ(H.finalizeGeneration(), 0u);
  EXPECT_FALSE(H.isFinalized());
  H.finalize();
  EXPECT_EQ(H.finalizeGeneration(), 1u);
  EXPECT_TRUE(H.isFinalized());
  H.addClass(Syms.intern("Later"), {Any});
  EXPECT_FALSE(H.isFinalized());
  EXPECT_EQ(H.finalizeGeneration(), 1u);
  H.finalize();
  EXPECT_EQ(H.finalizeGeneration(), 2u);
  EXPECT_TRUE(H.isFinalized());
}

//===----------------------------------------------------------------------===//
// Rng: frozen legacy sequence + rejection-sampling uniformity
//===----------------------------------------------------------------------===//

/// The pre-rejection-sampling sequence (next() % N) is frozen: logged
/// stress seeds must replay their historical programs.  Golden values
/// were captured from the original implementation.
TEST(RngTest, LegacySequenceIsFrozen) {
  fuzz::Rng R(0x5E15EC1AFEULL);
  const uint32_t Bounds[] = {10, 100, 7, 1000000, 3, 2, 4096, 999999937};
  const uint32_t Want[] = {7u, 33u, 5u, 725477u, 2u, 1u, 1643u, 437043025u};
  for (size_t I = 0; I != std::size(Bounds); ++I)
    EXPECT_EQ(R.below(Bounds[I]), Want[I]) << "draw " << I;

  fuzz::Rng R2(42);
  const uint32_t Want2[] = {13u, 91u, 58u, 64u, 50u, 62u};
  for (uint32_t W : Want2)
    EXPECT_EQ(R2.below(100), W);

  // Structurally: the first accepted draw equals the raw splitmix64
  // output mod N, for any seed and bound.
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    fuzz::Rng A(Seed), B(Seed);
    uint32_t N = 1 + static_cast<uint32_t>((Seed * 7919) % 100000);
    EXPECT_EQ(A.below(N), B.next() % N) << "seed " << Seed;
  }
}

TEST(RngTest, BelowIsStatisticallyUniform) {
  fuzz::Rng R(7);
  // Small bound: 30000 draws over 3 buckets; each expectation 10000,
  // sigma ~81, so +/-500 is a >6-sigma band (never flakes).
  unsigned Buckets[3] = {0, 0, 0};
  for (unsigned I = 0; I != 30000; ++I)
    ++Buckets[R.below(3)];
  for (unsigned Count : Buckets) {
    EXPECT_GT(Count, 9500u);
    EXPECT_LT(Count, 10500u);
  }

  // Large bound (near 2^32, where the discarded top residue band is
  // widest): the sample mean of 20000 draws must sit within 2% of N/2
  // (sigma of the mean ~8.2e6, the band is ~5 sigma).
  const uint32_t N = 4000000000u;
  double Sum = 0;
  for (unsigned I = 0; I != 20000; ++I)
    Sum += R.below(N);
  double Mean = Sum / 20000.0;
  EXPECT_GT(Mean, double(N) / 2 * 0.98);
  EXPECT_LT(Mean, double(N) / 2 * 1.02);
}

//===----------------------------------------------------------------------===//
// Structured hierarchy synthesizer
//===----------------------------------------------------------------------===//

TEST(HierarchySynthesizerTest, Deterministic) {
  fuzz::HierarchySpec Spec;
  Spec.Classes = 80;
  Spec.Seed = 1234;
  EXPECT_EQ(fuzz::generateHierarchyProgram(Spec),
            fuzz::generateHierarchyProgram(Spec));
  fuzz::HierarchySpec Other = Spec;
  Other.Seed = 1235;
  EXPECT_NE(fuzz::generateHierarchyProgram(Spec),
            fuzz::generateHierarchyProgram(Other));
}

TEST(HierarchySynthesizerTest, TreeConesAreSingleIntervals) {
  fuzz::HierarchySpec Spec;
  Spec.Classes = 120;
  Spec.MultiParentPercent = 0;
  Spec.Seed = 7;
  std::unique_ptr<Program> P =
      buildProgram({fuzz::generateHierarchyProgram(Spec)});
  ASSERT_TRUE(P);
  const ClassHierarchy &H = P->Classes;
  ASSERT_GE(H.size(), Spec.Classes);
  for (unsigned I = 0; I != H.size(); ++I)
    EXPECT_EQ(H.coneIntervalCount(ClassId(I)), 1u)
        << "class " << I << " cone is not a single preorder interval";
}

TEST(HierarchySynthesizerTest, DiamondHierarchyResolvesAndRuns) {
  fuzz::HierarchySpec Spec;
  Spec.Classes = 100;
  Spec.MultiParentPercent = 40;
  Spec.MethodLeaves = 6;
  Spec.Generics = 2;
  Spec.Seed = 11;
  std::string Err;
  auto WB = Workbench::fromSources({fuzz::generateHierarchyProgram(Spec)},
                                   Err, /*WithStdlib=*/false);
  ASSERT_TRUE(WB) << Err;
  auto R = WB->runConfig(Config::Base, /*Input=*/200, Err);
  ASSERT_TRUE(R) << Err;
  EXPECT_EQ(R->Trap, TrapKind::None);
  EXPECT_FALSE(R->Output.empty());
}

TEST(HierarchySynthesizerTest, IdenticalOutputAcrossConfigsAndTiers) {
  fuzz::HierarchySpec Spec;
  Spec.Classes = 60;
  Spec.Depth = 6;
  Spec.Fanout = 4;
  Spec.MethodLeaves = 8;
  Spec.Generics = 2;
  Spec.Seed = 99;
  std::string Err;
  auto WB = Workbench::fromSources({fuzz::generateHierarchyProgram(Spec)},
                                   Err, /*WithStdlib=*/false);
  ASSERT_TRUE(WB) << Err;
  ASSERT_TRUE(WB->collectProfile(/*Input=*/200, Err)) << Err;

  std::string Reference;
  for (ExecTier Tier : {ExecTier::Bytecode, ExecTier::Ast}) {
    WB->setTier(Tier);
    for (Config C : {Config::Base, Config::Cust, Config::CustMM,
                     Config::CHA, Config::Selective}) {
      auto R = WB->runConfig(C, /*Input=*/500, Err);
      ASSERT_TRUE(R) << configName(C) << "/" << tierName(Tier) << ": "
                     << Err;
      EXPECT_EQ(R->Trap, TrapKind::None)
          << configName(C) << "/" << tierName(Tier);
      // The 500 iterations x 2 generics megamorphic dispatches can never
      // be statically bound, so every configuration retains at least
      // those 1000 (CHA binds everything else and hits exactly 1000).
      EXPECT_GE(R->Run.totalDispatches(), 1000u)
          << configName(C) << "/" << tierName(Tier);
      if (Reference.empty())
        Reference = R->Output;
      else
        EXPECT_EQ(R->Output, Reference)
            << configName(C) << "/" << tierName(Tier);
    }
  }
  EXPECT_FALSE(Reference.empty());
}

} // namespace
