//===- tests/RuntimeTests.cpp - Values, frames, heap -----------------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "runtime/Frame.h"
#include "runtime/Heap.h"
#include "runtime/Value.h"
#include "support/Metrics.h"
#include "support/PhaseTimer.h"
#include "support/TraceEmitter.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <sstream>

using namespace selspec;
using namespace selspec::test;

TEST(Value, KindsAndAccessors) {
  Value N = Value::nil();
  EXPECT_TRUE(N.isNil());
  EXPECT_EQ(N.classOf(), builtin::Nil);

  Value I = Value::ofInt(-42);
  EXPECT_TRUE(I.isInt());
  EXPECT_EQ(I.asInt(), -42);
  EXPECT_EQ(I.classOf(), builtin::Int);

  Value B = Value::ofBool(true);
  EXPECT_TRUE(B.isBool());
  EXPECT_TRUE(B.asBool());
  EXPECT_EQ(B.classOf(), builtin::Bool);
}

TEST(Value, IdentitySemantics) {
  Heap H;
  EXPECT_TRUE(Value::nil().identicalTo(Value::nil()));
  EXPECT_TRUE(Value::ofInt(7).identicalTo(Value::ofInt(7)));
  EXPECT_FALSE(Value::ofInt(7).identicalTo(Value::ofInt(8)));
  EXPECT_FALSE(Value::ofInt(0).identicalTo(Value::ofBool(false)))
      << "different kinds never compare identical";

  Obj *S1 = H.newString("x");
  Obj *S2 = H.newString("x");
  EXPECT_TRUE(Value::ofObj(S1).identicalTo(Value::ofObj(S1)));
  EXPECT_FALSE(Value::ofObj(S1).identicalTo(Value::ofObj(S2)))
      << "equal-content strings are distinct objects under identity";
}

TEST(Value, ObjectClassOf) {
  Heap H;
  EXPECT_EQ(Value::ofObj(H.newString("s")).classOf(), builtin::String);
  EXPECT_EQ(Value::ofObj(H.newArray(3)).classOf(), builtin::Array);
  EXPECT_EQ(Value::ofObj(H.newInstance(ClassId(9), 2)).classOf(),
            ClassId(9));
}

namespace {

/// A layout with \p NumSlots plain slots, \p NumCells cells and slot
/// params 0..NumParams-1 (the shape the SlotResolver produces).
FrameLayout makeLayout(uint32_t NumSlots, uint32_t NumCells,
                       uint32_t NumParams = 0) {
  FrameLayout L;
  L.NumSlots = NumSlots;
  L.NumCells = NumCells;
  for (uint32_t I = 0; I != NumParams; ++I)
    L.Params.push_back({VarLoc::Slot, I});
  L.Resolved = true;
  return L;
}

} // namespace

TEST(Frame, SlotStorageAndParamBinding) {
  FramePool Pool;
  FrameLayout L = makeLayout(3, 0, 2);
  FrameGuard G(Pool, L, nullptr);
  Frame &F = G.frame();

  F.bindParam(L.Params[0], Value::ofInt(1));
  F.bindParam(L.Params[1], Value::ofInt(2));
  EXPECT_EQ(F.slot(0).asInt(), 1);
  EXPECT_EQ(F.slot(1).asInt(), 2);

  F.slot(2) = Value::ofInt(30);
  EXPECT_EQ(F.slot(2).asInt(), 30);
  F.slot(0) = Value::ofInt(10);
  EXPECT_EQ(F.slot(0).asInt(), 10) << "assignment overwrites in place";
}

TEST(Frame, CellsAreSharedByReference) {
  FramePool Pool;
  FrameLayout L = makeLayout(0, 1);
  FrameGuard G(Pool, L, nullptr);
  Frame &F = G.frame();

  EXPECT_EQ(F.cell(0), nullptr) << "cells start unbound";
  F.cell(0) = std::make_shared<Cell>(Cell{Value::ofInt(1)});

  // A closure capturing the cell sees writes made through the frame, and
  // vice versa — the capture-by-reference contract.
  std::vector<CellPtr> Captured{F.cell(0)};
  F.cell(0)->V = Value::ofInt(2);
  EXPECT_EQ(Captured[0]->V.asInt(), 2);
  Captured[0]->V = Value::ofInt(3);
  EXPECT_EQ(F.cell(0)->V.asInt(), 3);

  // The frame that executes the closure reads the cell as a capture.
  FrameLayout Inner = makeLayout(0, 0);
  FrameGuard G2(Pool, Inner, &Captured);
  EXPECT_EQ(G2.frame().capture(0)->V.asInt(), 3);
}

TEST(FramePool, ReusesFramesLifoAndClearsCells) {
  FramePool Pool;
  FrameLayout L = makeLayout(2, 1);

  Frame *First;
  {
    FrameGuard G(Pool, L, nullptr);
    First = &G.frame();
    G.frame().cell(0) = std::make_shared<Cell>(Cell{Value::ofInt(9)});
  }
  EXPECT_EQ(Pool.depthHighWater(), 1u);
  {
    FrameGuard G(Pool, L, nullptr);
    EXPECT_EQ(&G.frame(), First) << "released frame is reused";
    EXPECT_EQ(G.frame().cell(0), nullptr)
        << "reused frame must not leak the prior activation's cells";
  }

  // Nested acquisition grows the pool only as deep as the activation chain.
  {
    FrameGuard A(Pool, L, nullptr);
    FrameGuard B(Pool, L, nullptr);
    EXPECT_NE(&A.frame(), &B.frame());
  }
  EXPECT_EQ(Pool.depthHighWater(), 2u);
}

TEST(Heap, TracksAllocations) {
  Heap H;
  EXPECT_EQ(H.numAllocated(), 0u);
  H.newString("a");
  H.newArray(4);
  H.newInstance(ClassId(3), 1);
  EXPECT_EQ(H.numAllocated(), 3u);
}

TEST(Heap, ArrayAndInstancePayloads) {
  Heap H;
  Obj *A = H.newArray(3);
  EXPECT_EQ(A->payload(), Obj::Payload::Array);
  ASSERT_EQ(A->Slots.size(), 3u);
  EXPECT_TRUE(A->Slots[0].isNil());
  A->Slots[1] = Value::ofInt(7);
  EXPECT_EQ(A->Slots[1].asInt(), 7);

  Obj *I = H.newInstance(ClassId(2), 2);
  EXPECT_EQ(I->payload(), Obj::Payload::Instance);
  EXPECT_EQ(I->Slots.size(), 2u);
}

//===----------------------------------------------------------------------===//
// Metrics registry and trace emitter exports
//===----------------------------------------------------------------------===//

namespace {

/// Minimal recursive-descent JSON validity check (objects, arrays,
/// strings, numbers, literals) — enough to guarantee the exports load in
/// real parsers without depending on one here.
class JsonChecker {
public:
  explicit JsonChecker(const std::string &Text) : T(Text) {}
  bool valid() {
    skipWs();
    return value() && (skipWs(), Pos == T.size());
  }

private:
  bool value() {
    if (Pos >= T.size())
      return false;
    switch (T[Pos]) {
    case '{': return object();
    case '[': return array();
    case '"': return string();
    case 't': return literal("true");
    case 'f': return literal("false");
    case 'n': return literal("null");
    default:  return number();
    }
  }
  bool object() {
    ++Pos; // '{'
    skipWs();
    if (eat('}'))
      return true;
    do {
      skipWs();
      if (!string())
        return false;
      skipWs();
      if (!eat(':'))
        return false;
      skipWs();
      if (!value())
        return false;
      skipWs();
    } while (eat(','));
    return eat('}');
  }
  bool array() {
    ++Pos; // '['
    skipWs();
    if (eat(']'))
      return true;
    do {
      skipWs();
      if (!value())
        return false;
      skipWs();
    } while (eat(','));
    return eat(']');
  }
  bool string() {
    if (!eat('"'))
      return false;
    while (Pos < T.size() && T[Pos] != '"') {
      if (static_cast<unsigned char>(T[Pos]) < 0x20)
        return false;
      if (T[Pos] == '\\') {
        ++Pos;
        if (Pos >= T.size())
          return false;
        if (T[Pos] == 'u') {
          for (int I = 0; I != 4; ++I)
            if (++Pos >= T.size() || !std::isxdigit(
                    static_cast<unsigned char>(T[Pos])))
              return false;
        } else if (!std::strchr("\"\\/bfnrt", T[Pos]))
          return false;
      }
      ++Pos;
    }
    return eat('"');
  }
  bool number() {
    eat('-');
    if (!digits())
      return false;
    if (eat('.') && !digits())
      return false;
    if (Pos < T.size() && (T[Pos] == 'e' || T[Pos] == 'E')) {
      ++Pos;
      if (Pos < T.size() && (T[Pos] == '+' || T[Pos] == '-'))
        ++Pos;
      if (!digits())
        return false;
    }
    return true;
  }
  bool digits() {
    size_t Start = Pos;
    while (Pos < T.size() && std::isdigit(static_cast<unsigned char>(T[Pos])))
      ++Pos;
    return Pos != Start;
  }
  bool literal(const char *Lit) {
    size_t Len = std::strlen(Lit);
    if (T.compare(Pos, Len, Lit) != 0)
      return false;
    Pos += Len;
    return true;
  }
  bool eat(char C) {
    if (Pos < T.size() && T[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }
  void skipWs() {
    while (Pos < T.size() && (T[Pos] == ' ' || T[Pos] == '\n' ||
                              T[Pos] == '\t' || T[Pos] == '\r'))
      ++Pos;
  }

  const std::string &T;
  size_t Pos = 0;
};

} // namespace

TEST(Metrics, RegistryRoundTripsThroughJson) {
  metrics::Counter &C = metrics::named("test.metrics_roundtrip");
  C.add(41);
  C.add();
  EXPECT_EQ(metrics::named("test.metrics_roundtrip").value(), 42u)
      << "named() must return the same counter for the same name";

  std::string Pretty = metrics::toJson("  ");
  std::string Compact = metrics::toJsonCompact();
  EXPECT_TRUE(JsonChecker(Pretty).valid()) << Pretty;
  EXPECT_TRUE(JsonChecker(Compact).valid()) << Compact;
  EXPECT_NE(Compact.find("\"test.metrics_roundtrip\":42"), std::string::npos)
      << Compact;
  EXPECT_NE(Compact.find("\"dispatcher.lookups\":"), std::string::npos)
      << "statically registered counters must appear in the export";
}

TEST(TraceEmitter, EmitsValidChromeTraceJson) {
  TraceEmitter &TE = TraceEmitter::global();
  TE.reset();
  TE.setEnabled(true);
  {
    PhaseTimer::Scope Outer("test-outer");
    PhaseTimer::Scope Inner("test-inner");
  }
  TE.setEnabled(false);
  EXPECT_EQ(TE.numSpans(), 2u);

  std::ostringstream OS;
  TE.print(OS);
  std::string Trace = OS.str();
  EXPECT_TRUE(JsonChecker(Trace).valid()) << Trace;
  EXPECT_NE(Trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Trace.find("\"name\":\"test-inner\""), std::string::npos);
  EXPECT_NE(Trace.find("\"ph\":\"X\""), std::string::npos);
  TE.reset();
}

TEST(Interp, ValueToStringRendersAllKinds) {
  std::unique_ptr<Program> P = buildProgram({R"(
    class Box { slot v; }
    method main(n@Int) {
      let a := array(2);
      atPut(a, 0, 1);
      atPut(a, 1, "two");
      print(a);
      print(new Box);
      print(fn(x) { x; });
    }
  )"});
  ASSERT_TRUE(P);
  std::unique_ptr<CompiledProgram> CP = compileProgram(*P, Config::Base);
  std::string Out;
  runMain(*CP, 0, &Out);
  EXPECT_EQ(Out, "[1, two]\n<Box>\n<closure>\n");
}
