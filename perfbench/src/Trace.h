//===- perfbench/src/Trace.h - Spans recorded around layer calls -*- C++ -*-===//
///
/// \file
/// The benchmark's own tracing: a span is recorded around each call the
/// harness makes into a layer's public API (Workbench::fromFiles,
/// collectProfile, compileOnly, buildSnapshot, CompiledSnapshot::run,
/// ServeEngine::submit and its completion).  Spans stay in memory and are
/// written out when the run ends, as a per-layer self-time table and as a
/// Chrome trace file.  The program under test records nothing.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
uint64_t nowNs();

struct Span {
  /// Layer name; a string literal.
  const char *Name = "";
  uint64_t Start = 0;
  uint64_t End = 0;
  /// 1-based span id of the caller's span; 0 for a root.
  uint32_t Parent = 0;
  /// Shared by every span of one round or one serve job.
  uint64_t Job = 0;
  /// Small per-thread number (Chrome trace `tid`).
  uint32_t Tid = 0;
};

/// Thread-safe in-memory span store.  When disabled every call is a
/// no-op returning id 0, so untraced runs pay one branch per call.
class Tracer {
public:
  void setEnabled(bool On) { Enabled = On; }

  /// Opens a span whose end is not known yet; returns its id (0 when
  /// disabled).  Close it with close().
  uint32_t open(const char *Name, uint64_t Start, uint32_t Parent,
                uint64_t Job);
  void close(uint32_t Id, uint64_t End);
  /// Records a finished span; returns its id (0 when disabled).
  uint32_t add(const char *Name, uint64_t Start, uint64_t End,
               uint32_t Parent, uint64_t Job);

  struct LayerRow {
    std::string Name;
    uint64_t Count = 0;
    double TotalMs = 0;
    /// Duration minus the part of it that child spans cover.
    double SelfMs = 0;
  };
  /// Per-layer totals, in first-seen order.  The self times of all rows
  /// add up to rootMs().
  std::vector<LayerRow> layerTable() const;
  /// Summed duration of the root spans.
  double rootMs() const;
  /// Number of root spans.
  size_t roots() const;

  /// Prints layerTable() with each layer's share of rootMs().
  void printTable(std::ostream &OS, const std::string &Title) const;
  /// Writes the spans as a Chrome trace ("traceEvents" JSON); false on
  /// I/O failure.
  bool writeChromeTrace(const std::string &Path) const;

private:
  bool Enabled = false;
  mutable std::mutex M;
  std::vector<Span> Spans;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
