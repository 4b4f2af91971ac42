//===- profile/CallGraph.cpp - Weighted dynamic call graph -----------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "profile/CallGraph.h"

#include <cassert>

using namespace selspec;

void CallGraph::addHits(CallSiteId Site, MethodId Caller, MethodId Callee,
                        uint64_t N) {
  assert(Site.isValid() && Caller.isValid() && Callee.isValid() &&
         "invalid arc component");
  Weights[{Site.value(), Callee.value(), Caller.value()}] += N;
}

std::vector<Arc> CallGraph::arcs() const {
  std::vector<Arc> Out;
  Out.reserve(Weights.size());
  for (const auto &[K, W] : Weights)
    Out.push_back(toArc(K, W));
  return Out;
}

std::vector<Arc> CallGraph::arcsFrom(MethodId Caller) const {
  std::vector<Arc> Out;
  for (const auto &[K, W] : Weights)
    if (K.Caller == Caller.value())
      Out.push_back(toArc(K, W));
  return Out;
}

std::vector<Arc> CallGraph::arcsTo(MethodId Callee) const {
  std::vector<Arc> Out;
  for (const auto &[K, W] : Weights)
    if (K.Callee == Callee.value())
      Out.push_back(toArc(K, W));
  return Out;
}

std::vector<Arc> CallGraph::arcsAt(CallSiteId Site) const {
  std::vector<Arc> Out;
  for (auto It = Weights.lower_bound({Site.value(), 0, 0});
       It != Weights.end() && It->first.Site == Site.value(); ++It)
    Out.push_back(toArc(It->first, It->second));
  return Out;
}

uint64_t CallGraph::totalWeight() const {
  uint64_t Total = 0;
  for (const auto &[K, W] : Weights)
    Total += W;
  return Total;
}

void CallGraph::merge(const CallGraph &Other) {
  for (const auto &[K, W] : Other.Weights)
    Weights[K] += W;
}
