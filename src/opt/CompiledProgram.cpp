//===- opt/CompiledProgram.cpp - Compiled method versions ------------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "opt/CompiledProgram.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <numeric>

using namespace selspec;

namespace {

/// A cursor over one group's ascending member list.
struct MemberSpan {
  const uint32_t *B;
  const uint32_t *E;
};

/// Calls \p Visit, in ascending order, with every member of [0, \p Count)
/// common to all \p N lists.  A leapfrog join: each list seeks to the
/// largest head seen so far until all agree.
template <class F>
void forEachCommon(MemberSpan *Lists, size_t N, uint32_t Count, F Visit) {
  if (N == 0) {
    for (uint32_t L = 0; L != Count; ++L)
      Visit(L);
    return;
  }
  uint32_t Target = 0;
  for (;;) {
    bool Agreed = true;
    for (size_t I = 0; I != N; ++I) {
      MemberSpan &S = Lists[I];
      if (S.B != S.E && *S.B < Target)
        S.B = std::lower_bound(S.B + 1, S.E, Target);
      if (S.B == S.E)
        return;
      if (*S.B != Target) {
        Target = *S.B;
        Agreed = false;
      }
    }
    if (Agreed)
      Visit(Target++);
  }
}

} // namespace

void CompiledProgram::indexViolation(const char *Query) const {
  std::fprintf(stderr,
               "fatal: CompiledProgram::%s %s; versions are added before "
               "indexVersions(), and queried after it\n",
               Query,
               Indexed ? "called after indexVersions()"
                       : "called before indexVersions()");
  std::fflush(stderr);
  std::abort();
}

uint32_t CompiledProgram::addVersion(CompiledMethod CM) {
  if (Indexed)
    indexViolation("addVersion");
  if (ByMethod.size() < P.numMethods())
    ByMethod.resize(P.numMethods());
  uint32_t Index = static_cast<uint32_t>(Versions.size());
  CM.Index = Index;
  ByMethod[CM.Source.value()].push_back(Index);
  Versions.push_back(std::move(CM));
  InvokedBits.emplace_back(0);
  return Index;
}

void CompiledProgram::indexVersions() {
  if (ByMethod.size() < P.numMethods())
    ByMethod.resize(P.numMethods());
  const uint32_t U = P.Classes.size();
  PosBegin.assign(ByMethod.size(), 0);
  Positions.clear();
  SegStart.clear();
  SegGroup.clear();
  GroupBegin.assign(2, 0); // group 0: the shared empty group
  Members.clear();

  // Work buffers, reused across positions.
  std::vector<ClassSet::Range> Runs;
  std::vector<uint32_t> Owner, Bounds, Fill, SegMembers, Group, Order;
  std::vector<uint64_t> Hash;

  auto IndexPosition = [&](const std::vector<uint32_t> &Vs, unsigned Pos) {
    // Every run of every version's set, version by version.  The run
    // ends cut the id space into elementary segments.
    Runs.clear();
    Owner.clear();
    Bounds.assign(1, 0);
    for (uint32_t L = 0; L != Vs.size(); ++L)
      for (const ClassSet::Range &R : Versions[Vs[L]].Tuple[Pos].runs()) {
        Runs.push_back(R);
        Owner.push_back(L);
        Bounds.push_back(R.Lo);
        if (R.Hi < U)
          Bounds.push_back(R.Hi);
      }
    std::sort(Bounds.begin(), Bounds.end());
    Bounds.erase(std::unique(Bounds.begin(), Bounds.end()), Bounds.end());
    const uint32_t S = static_cast<uint32_t>(Bounds.size());
    // Every bound is below U, so a run ending at U ends at segment S.
    auto SegAt = [&](uint32_t Id) {
      return static_cast<uint32_t>(
          std::lower_bound(Bounds.begin(), Bounds.end(), Id) -
          Bounds.begin());
    };

    // Counting sort of (segment, version) memberships.  Runs come in
    // version order, so every segment's list comes out ascending.
    Fill.assign(S + 1, 0);
    for (const ClassSet::Range &R : Runs)
      for (uint32_t J = SegAt(R.Lo), E = SegAt(R.Hi); J != E; ++J)
        ++Fill[J + 1];
    std::partial_sum(Fill.begin(), Fill.end(), Fill.begin());
    SegMembers.resize(Fill[S]);
    for (size_t RI = 0; RI != Runs.size(); ++RI)
      for (uint32_t J = SegAt(Runs[RI].Lo), E = SegAt(Runs[RI].Hi); J != E;
           ++J)
        SegMembers[Fill[J]++] = Owner[RI];
    // Fill[J] now ends segment J; it begins where segment J-1 ends.
    auto SegBegin = [&](uint32_t J) { return J == 0 ? 0 : Fill[J - 1]; };
    auto SameList = [&](uint32_t A, uint32_t B) {
      return std::equal(SegMembers.begin() + SegBegin(A),
                        SegMembers.begin() + Fill[A],
                        SegMembers.begin() + SegBegin(B),
                        SegMembers.begin() + Fill[B]);
    };

    // Segments with equal lists form one group: sort by list hash, then
    // compare lists within each run of equal hashes.
    Hash.resize(S);
    for (uint32_t J = 0; J != S; ++J) {
      uint64_t H = 1469598103934665603ull;
      for (uint32_t I = SegBegin(J); I != Fill[J]; ++I)
        H = (H ^ SegMembers[I]) * 1099511628211ull;
      Hash[J] = H ^ (Fill[J] - SegBegin(J));
    }
    Order.resize(S);
    std::iota(Order.begin(), Order.end(), 0);
    std::sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
      return Hash[A] != Hash[B] ? Hash[A] < Hash[B] : A < B;
    });
    Group.assign(S, 0);
    for (uint32_t A = 0; A != S;) {
      uint32_t B = A;
      while (B != S && Hash[Order[B]] == Hash[Order[A]])
        ++B;
      for (uint32_t I = A; I != B; ++I) {
        uint32_t J = Order[I];
        if (SegBegin(J) == Fill[J])
          continue; // empty list: group 0
        uint32_t K = A;
        while (K != I && (Group[Order[K]] == 0 || !SameList(J, Order[K])))
          ++K;
        if (K != I) {
          Group[J] = Group[Order[K]];
          continue;
        }
        Group[J] = static_cast<uint32_t>(GroupBegin.size() - 1);
        Members.insert(Members.end(), SegMembers.begin() + SegBegin(J),
                       SegMembers.begin() + Fill[J]);
        GroupBegin.push_back(static_cast<uint32_t>(Members.size()));
      }
      A = B;
    }

    PositionIndex PI;
    PI.SegBegin = static_cast<uint32_t>(SegStart.size());
    for (uint32_t J = 0; J != S; ++J) {
      if (J != 0 && Group[J] == Group[J - 1])
        continue;
      SegStart.push_back(Bounds[J]);
      SegGroup.push_back(Group[J]);
    }
    PI.SegEnd = static_cast<uint32_t>(SegStart.size());
    Positions.push_back(PI);
  };

  for (uint32_t MI = 0; MI != ByMethod.size(); ++MI) {
    PosBegin[MI] = static_cast<uint32_t>(Positions.size());
    const std::vector<uint32_t> &Vs = ByMethod[MI];
    if (Vs.empty())
      continue;
    for (unsigned Pos = 0, N = Versions[Vs[0]].Tuple.size(); Pos != N; ++Pos)
      IndexPosition(Vs, Pos);
  }
  Indexed = true;
}

uint32_t CompiledProgram::segmentOf(const PositionIndex &PI,
                                    uint32_t C) const {
  // SegStart[PI.SegBegin] is 0, so the segment is the last start <= C.
  const uint32_t *B = SegStart.data() + PI.SegBegin;
  const uint32_t *E = SegStart.data() + PI.SegEnd;
  return static_cast<uint32_t>(std::upper_bound(B + 1, E, C) - 1 -
                               SegStart.data());
}

int CompiledProgram::selectVersion(
    MethodId M, const std::vector<ClassId> &ArgClasses) const {
  requireIndexed("selectVersion");
  const std::vector<uint32_t> &Vs = ByMethod[M.value()];
  if (Vs.empty())
    return -1;
  const PositionIndex *PI = positionsOf(M);
  const size_t N = ArgClasses.size();
  assert(N == Versions[Vs.front()].Tuple.size() && "tuple arity mismatch");
  MemberSpan Inline[8];
  std::vector<MemberSpan> Spill;
  MemberSpan *Lists = Inline;
  if (N > std::size(Inline)) {
    Spill.resize(N);
    Lists = Spill.data();
  }
  // A group holding every version constrains nothing; leave it out.
  size_t Used = 0;
  for (size_t I = 0; I != N; ++I) {
    uint32_t G = SegGroup[segmentOf(PI[I], ArgClasses[I].value())];
    if (GroupBegin[G + 1] - GroupBegin[G] != Vs.size())
      Lists[Used++] = {Members.data() + GroupBegin[G],
                       Members.data() + GroupBegin[G + 1]};
  }
  // The matching versions, ascending; the most-specific rule keeps the
  // earlier of two versions unless the later one's tuple is a subset.
  int Best = -1;
  forEachCommon(Lists, Used, static_cast<uint32_t>(Vs.size()),
                [&](uint32_t L) {
                  const CompiledMethod &CM = Versions[Vs[L]];
                  if (Best < 0 ||
                      tupleSubsetOf(CM.Tuple, Versions[Best].Tuple))
                    Best = static_cast<int>(CM.Index);
                });
  return Best;
}

std::vector<uint32_t>
CompiledProgram::overlappingVersions(MethodId M, const SpecTuple &Sets) const {
  requireIndexed("overlappingVersions");
  std::vector<uint32_t> Out;
  const std::vector<uint32_t> &Vs = ByMethod[M.value()];
  if (Vs.empty())
    return Out;
  // One bit per method-local version: Acc is the running intersection
  // over positions, Cur the union of the groups Sets[I] touches.
  const size_t NumWords = (Vs.size() + 63) / 64;
  std::vector<uint64_t> Acc(NumWords, ~uint64_t(0)), Cur(NumWords);
  if (Vs.size() % 64 != 0)
    Acc.back() = (uint64_t(1) << (Vs.size() % 64)) - 1;
  const PositionIndex *PI = positionsOf(M);
  assert(Sets.size() == Versions[Vs.front()].Tuple.size() &&
         "tuple arity mismatch");
  for (size_t I = 0; I != Sets.size(); ++I) {
    std::fill(Cur.begin(), Cur.end(), 0);
    for (const ClassSet::Range &R : Sets[I].runs())
      for (uint32_t Seg = segmentOf(PI[I], R.Lo);
           Seg != PI[I].SegEnd && SegStart[Seg] < R.Hi; ++Seg) {
        uint32_t G = SegGroup[Seg];
        for (uint32_t J = GroupBegin[G]; J != GroupBegin[G + 1]; ++J)
          Cur[Members[J] / 64] |= uint64_t(1) << (Members[J] % 64);
      }
    uint64_t Any = 0;
    for (size_t W = 0; W != NumWords; ++W)
      Any |= (Acc[W] &= Cur[W]);
    if (Any == 0)
      return Out;
  }
  for (size_t W = 0; W != NumWords; ++W)
    for (uint64_t Bits = Acc[W]; Bits != 0; Bits &= Bits - 1)
      Out.push_back(Vs[W * 64 + static_cast<size_t>(std::countr_zero(Bits))]);
  return Out;
}

unsigned CompiledProgram::numCompiledRoutines() const {
  unsigned N = 0;
  for (const CompiledMethod &CM : Versions)
    if (!P.method(CM.Source).isBuiltin())
      ++N;
  return N;
}

unsigned CompiledProgram::numInvokedRoutines() const {
  unsigned N = 0;
  for (const CompiledMethod &CM : Versions)
    if (invoked(CM.Index) && !P.method(CM.Source).isBuiltin())
      ++N;
  return N;
}

uint64_t CompiledProgram::totalCodeSize() const {
  uint64_t N = 0;
  for (const CompiledMethod &CM : Versions)
    if (!P.method(CM.Source).isBuiltin())
      N += CM.CodeSize;
  return N;
}

void CompiledProgram::resetInvoked() {
  for (std::atomic<uint8_t> &Bit : InvokedBits)
    Bit.store(0, std::memory_order_relaxed);
}
