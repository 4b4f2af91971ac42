//===- tests/SupportTests.cpp - ClassSet / ids / diagnostics ---------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "support/ClassSet.h"
#include "support/Diagnostics.h"
#include "support/Ids.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

using namespace selspec;

TEST(StrongId, DefaultIsInvalid) {
  ClassId C;
  EXPECT_FALSE(C.isValid());
  EXPECT_TRUE(ClassId(0).isValid());
  EXPECT_EQ(ClassId(3), ClassId(3));
  EXPECT_NE(ClassId(3), ClassId(4));
  EXPECT_LT(ClassId(3), ClassId(4));
}

TEST(ClassSet, EmptyAndAll) {
  ClassSet E = ClassSet::empty(100);
  EXPECT_TRUE(E.isEmpty());
  EXPECT_EQ(E.count(), 0u);
  EXPECT_FALSE(E.isAll());

  ClassSet A = ClassSet::all(100);
  EXPECT_FALSE(A.isEmpty());
  EXPECT_EQ(A.count(), 100u);
  EXPECT_TRUE(A.isAll());
  for (unsigned I = 0; I != 100; ++I)
    EXPECT_TRUE(A.contains(ClassId(I)));
}

TEST(ClassSet, AllClearsTailBits) {
  // Universe sizes straddling the word boundary must stay canonical.
  for (unsigned N : {1u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    ClassSet A = ClassSet::all(N);
    EXPECT_EQ(A.count(), N) << "universe " << N;
    ClassSet B = ClassSet::empty(N);
    for (unsigned I = 0; I != N; ++I)
      B.insert(ClassId(I));
    EXPECT_EQ(A, B) << "universe " << N;
  }
}

TEST(ClassSet, InsertRemoveContains) {
  ClassSet S(70);
  S.insert(ClassId(0));
  S.insert(ClassId(69));
  EXPECT_TRUE(S.contains(ClassId(0)));
  EXPECT_TRUE(S.contains(ClassId(69)));
  EXPECT_FALSE(S.contains(ClassId(35)));
  EXPECT_EQ(S.count(), 2u);
  S.remove(ClassId(0));
  EXPECT_FALSE(S.contains(ClassId(0)));
  EXPECT_EQ(S.count(), 1u);
}

TEST(ClassSet, SetAlgebra) {
  ClassSet A(10), B(10);
  A.insert(ClassId(1));
  A.insert(ClassId(2));
  A.insert(ClassId(3));
  B.insert(ClassId(3));
  B.insert(ClassId(4));

  ClassSet I = A & B;
  EXPECT_EQ(I.count(), 1u);
  EXPECT_TRUE(I.contains(ClassId(3)));

  ClassSet U = A | B;
  EXPECT_EQ(U.count(), 4u);

  ClassSet D = A;
  D.subtract(B);
  EXPECT_EQ(D.count(), 2u);
  EXPECT_FALSE(D.contains(ClassId(3)));

  EXPECT_TRUE(I.isSubsetOf(A));
  EXPECT_TRUE(I.isSubsetOf(B));
  EXPECT_FALSE(A.isSubsetOf(B));
  EXPECT_TRUE(A.intersects(B));
  EXPECT_FALSE(D.intersects(B));
}

TEST(ClassSet, SingleElement) {
  ClassSet S = ClassSet::single(20, ClassId(7));
  EXPECT_EQ(S.count(), 1u);
  EXPECT_EQ(S.getSingleElement(), ClassId(7));
  S.insert(ClassId(8));
  EXPECT_FALSE(S.getSingleElement().isValid());
  EXPECT_FALSE(ClassSet::empty(20).getSingleElement().isValid());
}

TEST(ClassSet, MembersOrdered) {
  ClassSet S(50);
  S.insert(ClassId(30));
  S.insert(ClassId(5));
  S.insert(ClassId(49));
  std::vector<ClassId> M = S.members();
  ASSERT_EQ(M.size(), 3u);
  EXPECT_EQ(M[0], ClassId(5));
  EXPECT_EQ(M[1], ClassId(30));
  EXPECT_EQ(M[2], ClassId(49));
  EXPECT_EQ(S.toString(), "{5,30,49}");
}

TEST(ClassSet, HashDiffersByContent) {
  ClassSet A(40), B(40);
  A.insert(ClassId(3));
  B.insert(ClassId(4));
  EXPECT_NE(A.hashValue(), B.hashValue());
  B.remove(ClassId(4));
  B.insert(ClassId(3));
  EXPECT_EQ(A.hashValue(), B.hashValue());
}

TEST(Diagnostics, ErrorsAndRendering) {
  Diagnostics D;
  EXPECT_FALSE(D.hasErrors());
  D.warning(SourceLoc(1, 2), "just a warning");
  EXPECT_FALSE(D.hasErrors());
  D.error(SourceLoc(3, 4), "bad thing");
  EXPECT_TRUE(D.hasErrors());
  std::string S = D.toString();
  EXPECT_NE(S.find("1:2: warning: just a warning"), std::string::npos);
  EXPECT_NE(S.find("3:4: error: bad thing"), std::string::npos);
  D.clear();
  EXPECT_FALSE(D.hasErrors());
}

// Each counter name is constructed exactly once in the whole program
// (shared names go through metrics::named()), so an export never has to
// merge two registrations — and a second tier or TU cannot silently
// re-register a name another one owns.
TEST(Metrics, EveryCounterNameIsRegisteredOnce) {
  std::set<std::string> Seen;
  for (const metrics::Counter *C : metrics::all())
    EXPECT_TRUE(Seen.insert(C->name()).second)
        << "counter '" << C->name() << "' is registered more than once";
  EXPECT_TRUE(Seen.count("interp.nodes_evaluated"));
  EXPECT_TRUE(Seen.count("deadline.expired"));
}
