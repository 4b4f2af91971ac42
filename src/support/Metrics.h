//===- support/Metrics.h - Process-wide counter registry -------*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One registry for every counter the system maintains, so observability
/// is a single export instead of per-subsystem ad-hoc structs.  The
/// per-run accumulators (`RunStats`, an interpreter's lookup and
/// inline-cache counts) stay plain non-atomic fields on the hot path and
/// publish their totals into the registry when the interpreter is
/// destroyed, so measured runs pay nothing new per node or per lookup.
/// Cold paths (profile-db I/O, deadline expiry, failpoints, micad
/// supervision) increment registry counters directly.
///
/// Counters register themselves statically, like the FailPoint catalog:
/// a `Counter` is a static-duration object whose constructor links it
/// into a process-wide intrusive list (constant-initialized head, so
/// registration is safe during static initialization in any TU order).
/// Increments are relaxed atomics — safe from micad's forked workers'
/// parent and from any future threading, free of contention today.
///
/// Naming scheme: `<subsystem>.<counter>` in snake_case, e.g.
/// `dispatcher.full_lookups`, `profiledb.load_recoveries`.  Counters
/// shared by several TUs (e.g. `deadline.expired`, tripped by both the
/// pipeline's phase gate and the interpreter's poll) use `named()`,
/// which returns the existing counter of that name or creates one.
///
/// Every name is registered exactly once (SupportTests checks the whole
/// registry), so one counter owns each exported key.
///
/// Export: `toJson()` / `toJsonCompact()` render the whole registry as a
/// flat JSON object with keys sorted, which feeds `micac --metrics-json`,
/// micad's per-job `metrics` field, and the `counters` section of
/// `BENCH_*.json`.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_SUPPORT_METRICS_H
#define SELSPEC_SUPPORT_METRICS_H

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace selspec {
namespace metrics {

class Counter {
public:
  /// \p Name must outlive the process (string literals only); the
  /// constructor registers the counter globally.
  explicit Counter(const char *Name);

  void add(uint64_t Delta = 1) {
    V.fetch_add(Delta, std::memory_order_relaxed);
  }
  /// Gauge-style overwrite (high-water marks republished at run end).
  void set(uint64_t Value) { V.store(Value, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }
  const char *name() const { return Name; }

private:
  friend void resetAll();
  friend std::vector<const Counter *> all();
  friend Counter &named(const char *Name);

  const char *Name;
  std::atomic<uint64_t> V{0};
  Counter *Next = nullptr;
};

/// The existing counter named \p Name, or a newly registered one.  Walks
/// the registry — cold paths only; hot paths hold a `static Counter&`.
Counter &named(const char *Name);

/// Every registered counter, registration order (unspecified across TUs).
std::vector<const Counter *> all();

/// (name, value) snapshot sorted by name — the canonical export order.
std::vector<std::pair<std::string, uint64_t>> snapshot();

/// Zeroes every counter (test isolation; micad workers reset after fork
/// so a job's exported metrics are its own).
void resetAll();

/// The registry as a flat JSON object.  \p BaseIndent prefixes every
/// line for embedding into an enclosing pretty-printed document; the
/// opening brace is not indented (write it after "key": yourself).
std::string toJson(const std::string &BaseIndent = "");

/// Single-line form for micad result lines.
std::string toJsonCompact();

/// Writes toJson() (plus trailing newline) to \p Path; false + message
/// in \p ErrorOut on I/O failure.
bool writeJsonFile(const std::string &Path, std::string &ErrorOut);

} // namespace metrics
} // namespace selspec

#endif // SELSPEC_SUPPORT_METRICS_H
