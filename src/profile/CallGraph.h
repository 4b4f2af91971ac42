//===- profile/CallGraph.h - Weighted dynamic call graph -------*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The weighted call graph the specialization algorithm consumes: for each
/// call site, the set of methods invoked from it and how many times (one
/// arc per (site, callee); a dynamically-dispatched site can have several
/// arcs).  Matches the paper's Caller(arc), Callee(arc), CallSite(arc),
/// Weight(arc) accessors.  Arcs are recorded for statically-bound sites
/// too, since cascadeSpecializations needs their weights.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_PROFILE_CALLGRAPH_H
#define SELSPEC_PROFILE_CALLGRAPH_H

#include "support/Ids.h"

#include <cstdint>
#include <map>
#include <vector>

namespace selspec {

/// One weighted arc of the dynamic call graph.
struct Arc {
  CallSiteId Site;
  MethodId Caller;
  MethodId Callee;
  uint64_t Weight = 0;
};

class CallGraph {
public:
  /// Records \p N invocations of \p Callee from \p Site (inside \p Caller).
  void addHits(CallSiteId Site, MethodId Caller, MethodId Callee,
               uint64_t N = 1);

  /// All arcs in a deterministic order (by site, then callee).
  std::vector<Arc> arcs() const;

  /// Arcs leaving \p Caller / arriving at \p Callee, in arcs() order; one
  /// pass over the graph, copying only the matches.
  std::vector<Arc> arcsFrom(MethodId Caller) const;
  std::vector<Arc> arcsTo(MethodId Callee) const;
  /// Arcs of one call site, in arcs() order; a range lookup.
  std::vector<Arc> arcsAt(CallSiteId Site) const;

  uint64_t totalWeight() const;
  bool empty() const { return Weights.empty(); }
  size_t numArcs() const { return Weights.size(); }

  /// Accumulates \p Other into this graph (profiles from several runs).
  void merge(const CallGraph &Other);

  void clear() { Weights.clear(); }

private:
  /// Ordered by site, then callee (then caller), so arcs() is a walk and
  /// arcsAt() a range.  Runs add to the graph once per arc, when they
  /// return (the interpreters count sends in per-site arrays).
  struct Key {
    uint32_t Site;
    uint32_t Callee;
    uint32_t Caller;
    bool operator<(const Key &K) const {
      if (Site != K.Site)
        return Site < K.Site;
      if (Callee != K.Callee)
        return Callee < K.Callee;
      return Caller < K.Caller;
    }
  };

  static Arc toArc(const Key &K, uint64_t W) {
    return Arc{CallSiteId(K.Site), MethodId(K.Caller), MethodId(K.Callee), W};
  }

  std::map<Key, uint64_t> Weights;
};

} // namespace selspec

#endif // SELSPEC_PROFILE_CALLGRAPH_H
