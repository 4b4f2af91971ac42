//===- perfbench/src/Trace.cpp - Spans recorded around layer calls --------===//

#include "Trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <map>
#include <utility>

using namespace perfbench;

uint64_t perfbench::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

uint32_t threadNumber() {
  static std::atomic<uint32_t> Next{1};
  thread_local uint32_t Mine = Next.fetch_add(1);
  return Mine;
}

} // namespace

uint32_t Tracer::open(const char *Name, uint64_t Start, uint32_t Parent,
                      uint64_t Job) {
  return add(Name, Start, Start, Parent, Job);
}

void Tracer::close(uint32_t Id, uint64_t End) {
  if (Id == 0)
    return;
  std::lock_guard<std::mutex> Lock(M);
  Spans[Id - 1].End = End;
}

uint32_t Tracer::add(const char *Name, uint64_t Start, uint64_t End,
                     uint32_t Parent, uint64_t Job) {
  if (!Enabled)
    return 0;
  Span S;
  S.Name = Name;
  S.Start = Start;
  S.End = std::max(Start, End);
  S.Parent = Parent;
  S.Job = Job;
  S.Tid = threadNumber();
  std::lock_guard<std::mutex> Lock(M);
  Spans.push_back(S);
  return static_cast<uint32_t>(Spans.size());
}

std::vector<Tracer::LayerRow> Tracer::layerTable() const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<std::vector<uint32_t>> Children(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    if (Spans[I].Parent != 0)
      Children[Spans[I].Parent - 1].push_back(static_cast<uint32_t>(I));

  std::vector<LayerRow> Rows;
  std::map<std::string, size_t> RowOf;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<uint64_t, uint64_t>> Cover;
    for (uint32_t C : Children[I]) {
      uint64_t B = std::max(S.Start, Spans[C].Start);
      uint64_t E = std::min(S.End, Spans[C].End);
      if (B < E)
        Cover.emplace_back(B, E);
    }
    std::sort(Cover.begin(), Cover.end());
    uint64_t Covered = 0, Reach = S.Start;
    for (auto [B, E] : Cover) {
      B = std::max(B, Reach);
      if (E > B) {
        Covered += E - B;
        Reach = E;
      }
    }
    auto [It, New] = RowOf.emplace(S.Name, Rows.size());
    if (New)
      Rows.push_back(LayerRow{S.Name, 0, 0, 0});
    LayerRow &R = Rows[It->second];
    ++R.Count;
    R.TotalMs += (S.End - S.Start) / 1e6;
    R.SelfMs += (S.End - S.Start - Covered) / 1e6;
  }
  return Rows;
}

double Tracer::rootMs() const {
  std::lock_guard<std::mutex> Lock(M);
  double Ms = 0;
  for (const Span &S : Spans)
    if (S.Parent == 0)
      Ms += (S.End - S.Start) / 1e6;
  return Ms;
}

size_t Tracer::roots() const {
  std::lock_guard<std::mutex> Lock(M);
  return static_cast<size_t>(std::count_if(
      Spans.begin(), Spans.end(), [](const Span &S) { return S.Parent == 0; }));
}

void Tracer::printTable(std::ostream &OS, const std::string &Title) const {
  std::vector<LayerRow> Rows = layerTable();
  double Root = rootMs();
  double SelfSum = 0;
  OS << "self time by layer: " << Title << "\n";
  OS << "  " << std::left << std::setw(14) << "layer" << std::right
     << std::setw(9) << "spans" << std::setw(13) << "total ms"
     << std::setw(13) << "self ms" << std::setw(9) << "self %" << "\n";
  for (const LayerRow &R : Rows) {
    SelfSum += R.SelfMs;
    OS << "  " << std::left << std::setw(14) << R.Name << std::right
       << std::setw(9) << R.Count << std::fixed << std::setprecision(1)
       << std::setw(13) << R.TotalMs << std::setw(13) << R.SelfMs
       << std::setw(8) << (Root > 0 ? 100.0 * R.SelfMs / Root : 0.0)
       << "%\n";
  }
  OS << "  " << std::left << std::setw(14) << "sum" << std::right
     << std::setw(9) << roots() << " roots" << std::setw(7) << ""
     << std::setw(13) << SelfSum << "  (root spans: " << Root << " ms)\n";
  OS.unsetf(std::ios::floatfield);
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  std::lock_guard<std::mutex> Lock(M);
  uint64_t Base = Spans.empty() ? 0 : Spans.front().Start;
  for (const Span &S : Spans)
    Base = std::min(Base, S.Start);
  OS << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char Buf[256];
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::snprintf(Buf, sizeof(Buf),
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"id\": %zu, \"parent\": %u, \"job\": %llu}}",
                  I ? ",\n" : "", S.Name, S.Tid, (S.Start - Base) / 1e3,
                  (S.End - S.Start) / 1e3, I + 1, S.Parent,
                  static_cast<unsigned long long>(S.Job));
    OS << Buf;
  }
  OS << "\n]}\n";
  return static_cast<bool>(OS);
}
