//===- perfbench/src/Harness.cpp - The selspec benchmark workloads --------===//
///
/// \file
/// Runs one workload of BENCHMARK.json and prints its result as the last
/// line of stdout.  perfbench/README.md defines every workload and metric;
/// perfbench/run.py builds this binary and passes the arguments:
///
///   perfbench_harness --workload compile-suite|run-suite|serve-mix
///       --seed N --seconds S --trace 0|1 --reference FILE
///       [--trace-out FILE] [--tiny] [--jobs-out FILE]
///   perfbench_harness --write-reference FILE
///
/// Every layer is timed from here, around calls to its public functions;
/// counts come from the metrics registry and per-job MetricsDelta.  Every
/// program output is compared with the reference records, and the
/// deterministic fields must repeat exactly within the run.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "Reference.h"
#include "Trace.h"

#include "bytecode/BytecodeCompiler.h"
#include "driver/Serve.h"
#include "driver/Snapshot.h"
#include "runtime/DispatchTable.h"
#include "support/Metrics.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

using namespace selspec;
using namespace perfbench;
using bench::AllConfigs;
using bench::BenchProgram;

namespace {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string ReferencePath;
  std::string TraceOut;
  std::string JobsOut;
  std::string WriteReference;
  /// Self-test size: one set-up, two rounds, few serve jobs, small inputs.
  bool Tiny = false;
};

constexpr unsigned NumConfigs = AllConfigs.size();

const char *configKey(Config C) {
  switch (C) {
  case Config::Base: return "base";
  case Config::Cust: return "cust";
  case Config::CustMM: return "cust-mm";
  case Config::CHA: return "cha";
  case Config::Selective: return "selective";
  }
  return "?";
}

const std::vector<BenchProgram> &suite() { return bench::table2Suite(); }

/// The serve-mix input sizes: about 1/20, 1/10 and 1/5 of the test input.
std::array<int64_t, 3> serveInputs(const BenchProgram &P) {
  std::array<int64_t, 3> In{};
  const int64_t Div[3] = {20, 10, 5};
  for (unsigned I = 0; I != 3; ++I)
    In[I] = std::max<int64_t>(1, (P.TestInput + Div[I] / 2) / Div[I]);
  return In;
}

double ms(uint64_t Ns) { return Ns / 1e6; }

double median(std::vector<double> V) {
  if (V.empty())
    return NAN;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Nearest-rank percentile, \p P in (0, 100].
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return NAN;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * V.size()));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return NAN;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / V.size());
}

/// Per-sample minimums: the best-of-N time of each cell.
std::vector<double> minimums(const std::vector<std::vector<double>> &Samples) {
  std::vector<double> Out;
  for (const std::vector<double> &S : Samples)
    Out.push_back(S.empty() ? NAN : *std::min_element(S.begin(), S.end()));
  return Out;
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0;
}

/// Host-speed calibration.  Other tenants of the host move its speed by up
/// to 2x, within seconds and over minutes, which no amount of repetition
/// inside one run averages out.  So every timed operation is bracketed by
/// this fixed piece of work on the same thread(s) and reported in units of
/// it: a time T whose calibrations average K is reported as
/// T * CalNominalMs / K, the time T would take on a host where the
/// calibration takes CalNominalMs (a typical reading on a quiet 4-vCPU
/// Xeon VM).  It uses only the C++ standard library, so no change to the
/// program under test moves it, and it has two halves: hash-map and
/// allocation work, and a switch-dispatched loop over a random opcode
/// stream.  The second half loads the branch predictor the way an
/// interpreter does; in probes it tracked the slowdowns of long runs and
/// builds better (correlation 0.8) than the first half (0.65).
constexpr double CalNominalMs = 4.8;

std::atomic<uint64_t> CalSink{0};

uint64_t hashAllocWork() {
  uint64_t Acc = 0;
  std::unordered_map<uint64_t, uint64_t> Map;
  std::vector<std::unique_ptr<uint64_t[]>> Cells;
  for (uint64_t I = 0; I != 20000; ++I) {
    Map[I * 2654435761u] = I;
    Cells.push_back(std::make_unique<uint64_t[]>(4));
    Cells.back()[1] = I;
  }
  for (uint64_t I = 0; I != 40000; ++I)
    Acc += Map.find((I % 20000) * 2654435761u)->second +
           Cells[(I * 7) % Cells.size()][1];
  return Acc;
}

/// 60 passes of a toy stack machine over 4096 random opcodes.
uint64_t dispatchWork() {
  static const std::vector<uint8_t> Code = [] {
    std::vector<uint8_t> C(4096);
    uint64_t X = 12345;
    for (uint8_t &Op : C) {
      X = X * 6364136223846793005ULL + 1442695040888963407ULL;
      Op = (X >> 33) % 12;
    }
    return C;
  }();
  uint64_t A = 1, B = 2, D = 3;
  uint64_t Stack[64] = {};
  size_t Sp = 0;
  for (int Pass = 0; Pass != 60; ++Pass)
    for (uint8_t Op : Code) {
      switch (Op) {
      case 0: A += B; break;
      case 1: B ^= A >> 3; break;
      case 2: D = D * 31 + A; break;
      case 3: Stack[Sp++ & 63] = A; break;
      case 4: A = Stack[--Sp & 63] + 1; break;
      case 5: (A & 1) ? B += D : D += B; break;
      case 6: A = (A << 1) | (B & 1); break;
      case 7: B = B * 7 + 3; break;
      case 8: D ^= D >> 5; break;
      case 9: A ^= (B & 3) == 0 ? D : 0; break;
      case 10: Stack[(A + B) & 63] += D; break;
      default: A -= Stack[B & 63]; break;
      }
    }
  return A + B + D;
}

double calibrationMs() {
  const uint64_t T0 = nowNs();
  const uint64_t Acc = hashAllocWork() + dispatchWork();
  CalSink.store(Acc, std::memory_order_relaxed);
  return ms(nowNs() - T0);
}

/// The median calibration time of \p Threads threads running it at once.
double calibrationMsOn(unsigned Threads) {
  std::vector<double> Ms(Threads);
  std::vector<std::thread> Pool;
  for (unsigned I = 0; I != Threads; ++I)
    Pool.emplace_back([&Ms, I] { Ms[I] = calibrationMs(); });
  for (std::thread &T : Pool)
    T.join();
  return median(Ms);
}

/// \p Ms at the nominal host speed, given the calibration time \p CalMs.
double norm(double Ms, double CalMs) { return Ms * CalNominalMs / CalMs; }

/// One round's timed samples, held raw until the round ends.  Each is
/// then normalized by the mean of the calibrations just before and just
/// after it: the host's speed moves within seconds, and the pair tracks
/// it better than one calibration or a round-wide median (in ten-run
/// probes it halved the run-to-run spread of run-suite times).
class RoundSamples {
public:
  /// Starts the round and follows each timed call; the round must end
  /// with one, so that its last sample is bracketed too.
  void calibration(double Ms) { Cal.push_back(Ms); }
  /// Queues \p RawMs for \p To (null: not recorded); \p InTotal adds it
  /// to flush()'s total.  Call it after the timed call and before the
  /// calibration that follows it.
  void add(std::vector<double> *To, double RawMs, bool InTotal) {
    Pending.push_back({To, RawMs, InTotal, Cal.size()});
  }
  /// Appends every queued sample, normalized; returns the normalized sum
  /// of the InTotal ones.
  double flush() {
    double Total = 0;
    for (const Sample &S : Pending) {
      const size_t After = S.CalsBefore;
      const double K = After < Cal.size()
                           ? (Cal[After - 1] + Cal[After]) / 2
                           : Cal[After - 1];
      const double V = norm(S.RawMs, K);
      if (S.To)
        S.To->push_back(V);
      if (S.InTotal)
        Total += V;
    }
    return Total;
  }

private:
  struct Sample {
    std::vector<double> *To;
    double RawMs;
    bool InTotal;
    size_t CalsBefore;
  };
  std::vector<double> Cal;
  std::vector<Sample> Pending;
};

/// splitmix64: the workload seed's draws, identical on every platform.
struct SplitMix {
  uint64_t S;
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  unsigned below(unsigned N) { return static_cast<unsigned>(next() % N); }
};

using Counts = std::vector<std::pair<std::string, uint64_t>>;

/// The registry counters a run publishes (interp.*, dispatcher.*,
/// bytecode.ic_*): what the determinism gate compares per run.
bool gatedCounter(const std::string &Name) {
  return Name.rfind("interp.", 0) == 0 || Name.rfind("dispatcher.", 0) == 0 ||
         Name.rfind("bytecode.ic_", 0) == 0;
}

/// Gated registry increments between two metrics::snapshot() calls.
Counts registryDelta(const Counts &Before, const Counts &After) {
  std::map<std::string, uint64_t> Old(Before.begin(), Before.end());
  Counts D;
  for (const auto &[Name, V] : After)
    if (gatedCounter(Name))
      D.emplace_back(Name, V - Old[Name]);
  return D;
}

Counts gatedOnly(const Counts &C) {
  Counts D;
  for (const auto &KV : C)
    if (gatedCounter(KV.first))
      D.push_back(KV);
  return D;
}

uint64_t countOf(const Counts &C, const std::string &Name) {
  uint64_t N = 0;
  for (const auto &[K, V] : C)
    if (K == Name)
      N += V;
  return N;
}

uint64_t registryValue(const char *Name) {
  uint64_t N = 0;
  for (const auto &[K, V] : metrics::snapshot())
    if (K == Name)
      N += V;
  return N;
}

/// What must repeat exactly every time one (program, config, input) runs
/// or one cell is compiled.
struct Fingerprint {
  uint64_t A = 0; ///< modeled cycles, or code size
  uint64_t B = 0; ///< dispatches, or compiled routines
  Counts Layer;   ///< gated per-layer counts
  bool operator==(const Fingerprint &O) const {
    return A == O.A && B == O.B && Layer == O.Layer;
  }
};

/// Attempted/failed operations, the determinism gate and the metrics of
/// one run.  Thread-safe: serve completions report from worker threads.
class Outcome {
public:
  /// Counts one attempted operation; a false \p Ok counts it as failed.
  void check(bool Ok, const std::string &What) {
    std::lock_guard<std::mutex> Lock(M);
    ++Attempted;
    if (!Ok) {
      ++Failed;
      note("failed: " + What);
    }
  }

  /// The determinism gate: the first fingerprint seen under \p Key is the
  /// baseline; any later difference fails the run.
  void same(const std::string &Key, const Fingerprint &F) {
    std::lock_guard<std::mutex> Lock(M);
    auto [It, New] = Seen.emplace(Key, F);
    if (!New && !(It->second == F)) {
      Drift = true;
      note("not deterministic: " + Key);
    }
  }

  /// A violated invariant that is not one operation (e.g. a counter that
  /// must stay 0).
  void violation(const std::string &What) {
    std::lock_guard<std::mutex> Lock(M);
    Drift = true;
    note(What);
  }

  void metric(const std::string &Name, double Value, const char *Unit) {
    Metrics.push_back({Name, Value, Unit, false});
  }
  void count(const std::string &Name, uint64_t Value, const char *Unit) {
    Metrics.push_back({Name, static_cast<double>(Value), Unit, true});
  }

  bool correct() const { return Failed == 0 && !Drift && Attempted > 0; }

  void print(std::ostream &OS) const {
    std::ostringstream J;
    J << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
      << ", \"metrics\": {";
    char Buf[64];
    for (size_t I = 0; I != Metrics.size(); ++I) {
      const MetricValue &V = Metrics[I];
      if (V.Integer)
        std::snprintf(Buf, sizeof(Buf), "%.0f", V.Value);
      else if (std::isfinite(V.Value))
        std::snprintf(Buf, sizeof(Buf), "%.15g", V.Value);
      else
        std::snprintf(Buf, sizeof(Buf), "null");
      J << (I ? ", " : "") << '"' << V.Name << "\": {\"value\": " << Buf
        << ", \"unit\": \"" << V.Unit << "\"}";
    }
    J << "}}";
    OS << J.str() << std::endl;
  }

private:
  /// M held.  The first few problems go to stderr.
  void note(const std::string &What) {
    if (++Notes <= 20)
      std::cerr << "perfbench: " << What << '\n';
  }

  struct MetricValue {
    std::string Name;
    double Value;
    const char *Unit;
    bool Integer;
  };

  std::mutex M;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool Drift = false;
  unsigned Notes = 0;
  std::map<std::string, Fingerprint> Seen;
  std::vector<MetricValue> Metrics;
};

std::string cellName(const BenchProgram &P, Config C) {
  return P.Name + "." + configKey(C);
}

/// One (program, config, input) a workload runs: the normalized times of
/// its measured runs and the fingerprint of its first run.
struct RunKind {
  size_t PI = 0;
  Config Cfg = Config::Base;
  std::vector<double> Ms;
  Fingerprint First;
  bool Seen = false;
};

/// Per-layer samples, normalized.  compile-suite takes the front-end and
/// profile samples from its rounds, the other workloads from probeSuite;
/// every workload takes the rest from the plan probe of its traced run.
struct LayerSamples {
  std::vector<std::vector<double>> Frontend, ProfileRun, Lower; ///< by program
  std::vector<std::vector<double>> PlanOpt;                     ///< by cell
  std::vector<uint64_t> CodeSize, Routines;                     ///< by cell
  std::vector<uint64_t> TableCells;                             ///< by program

  LayerSamples() {
    const size_t NP = suite().size(), NC = NP * NumConfigs;
    Frontend.resize(NP);
    ProfileRun.resize(NP);
    Lower.resize(NP);
    PlanOpt.resize(NC);
    CodeSize.resize(NC);
    Routines.resize(NC);
    TableCells.resize(NP);
  }
};

/// Shared by the workloads.
struct Context {
  const Options &O;
  const References &Ref;
  Outcome &Out;
  /// Records spans in traced runs.  Traced runs alternate: even rounds
  /// (or jobs) record into Tr, odd ones into the disabled Off, and the
  /// difference between the two halves is the tracing overhead.
  Tracer &Tr;
  Tracer &Off;
  unsigned SetupReps;
  unsigned MinRounds;

  /// Every calibration time of the run (main thread only).
  std::vector<double> CalMs = {};
  LayerSamples L = {};
  /// Guards Builds and Kinds: serve completions record from workers.
  std::mutex KindsM{};
  /// Code size and compiled routines of every cell the workload built.
  std::map<std::string, Fingerprint> Builds = {};
  /// Every (program, config, input) the workload runs, by name.
  std::map<std::string, RunKind> Kinds = {};

  Tracer &tracer(uint64_t RoundOrJob) {
    return O.Trace && RoundOrJob % 2 == 0 ? Tr : Off;
  }

  /// Times the calibration on \p Threads threads, as a span under
  /// \p Root when \p T records.
  double calibrate(Tracer &T, uint32_t Root, uint64_t Job,
                   unsigned Threads = 1) {
    const uint64_t T0 = nowNs();
    const double Ms = calibrationMsOn(Threads);
    T.add("calibrate", T0, nowNs(), Root, Job);
    CalMs.push_back(Ms);
    return Ms;
  }

  /// The record of (program \p PI, \p Cfg, \p Input); the reference
  /// stays valid for the whole run.
  RunKind &kind(size_t PI, Config Cfg, int64_t Input) {
    std::lock_guard<std::mutex> Lock(KindsM);
    RunKind &K =
        Kinds[cellName(suite()[PI], Cfg) + " " + std::to_string(Input)];
    K.PI = PI;
    K.Cfg = Cfg;
    return K;
  }

  /// Gates and records the code size and compiled routines of a built
  /// cell.
  void built(size_t PI, Config Cfg, const CompiledSnapshot::BuildInfo &I) {
    const std::string Cell = cellName(suite()[PI], Cfg);
    const Fingerprint F{I.CodeSize, I.CompiledRoutines, {}};
    Out.same("build " + Cell, F);
    std::lock_guard<std::mutex> Lock(KindsM);
    Builds.emplace(Cell, F);
  }

  /// Checks one job's output against the reference and gates its
  /// RunStats and per-layer counts.  With a \p K the job is one run of
  /// that kind, and a finite \p RunMs one normalized time sample of it.
  bool checkJob(const char *Phase, size_t PI, Config Cfg, int64_t Input,
                const CompiledSnapshot::JobResult &J, const Counts &Layer,
                RunKind *K = nullptr, double RunMs = NAN) {
    const BenchProgram &P = suite()[PI];
    const std::string Key = std::string(Phase) + " " + cellName(P, Cfg) +
                            " " + std::to_string(Input);
    std::optional<std::string> Want = Ref.expected(P.Name, Input);
    bool Ok = J.Ok && Want && *Want == J.R.Output;
    std::string Why = !J.Ok ? "trap: " + J.Error
                      : !Want ? std::string("no reference record")
                              : "output differs from the reference";
    Out.check(Ok, Key + ": " + Why);
    const Fingerprint F{J.R.Run.Cycles, J.R.Run.totalDispatches(), Layer};
    if (J.Ok)
      Out.same(Key, F);
    if (countOf(Layer, "dispatcher.memo_collisions") != 0)
      Out.violation(Key + ": dispatcher.memo_collisions is not 0");
    if (K) {
      std::lock_guard<std::mutex> Lock(KindsM);
      if (J.Ok && !K->Seen) {
        K->First = F;
        K->Seen = true;
      }
      if (std::isfinite(RunMs))
        K->Ms.push_back(RunMs);
    }
    return Ok;
  }

  /// Time-bounded loop condition shared by the round-based workloads.
  bool keepGoing(unsigned Rounds, uint64_t StartNs) const {
    return Rounds < MinRounds || nowNs() - StartNs < O.Seconds * 1e9;
  }
};

/// Runs \p Setup SetupReps times; untraced runs report the median as
/// setup_s.  The last set-up's state is what the timed loop uses.
template <typename Fn> void timedSetup(Context &C, Fn Setup) {
  std::vector<double> Secs;
  double Cal = C.calibrate(C.Off, 0, 0);
  for (unsigned I = 0; I != C.SetupReps; ++I) {
    uint64_t T0 = nowNs();
    Setup();
    const double Raw = (nowNs() - T0) / 1e9, Before = Cal;
    Cal = C.calibrate(C.Off, 0, 0);
    Secs.push_back(norm(Raw, (Before + Cal) / 2));
  }
  if (!C.O.Trace)
    C.Out.metric("setup_s", median(Secs), "s");
}

/// Workbench::fromFiles + collectProfile(train) of program \p PI, checked.
/// Queues the front-end and profile times (as layer samples when
/// \p Record) and their sum as part of the round's total.  Null on
/// failure.
std::unique_ptr<Workbench> loadProfiled(Context &C, size_t PI,
                                        RoundSamples &Samples, bool Record,
                                        Tracer &Tr, uint32_t Root,
                                        uint64_t Job) {
  const BenchProgram &P = suite()[PI];
  std::string Err;
  uint64_t T0 = nowNs();
  std::unique_ptr<Workbench> W = Workbench::fromFiles(P.Files, Err);
  uint64_t T1 = nowNs();
  bool Ok = W && W->collectProfile(P.TrainInput, Err);
  uint64_t T2 = nowNs();
  Tr.add("frontend", T0, T1, Root, Job);
  Tr.add("profile", T1, T2, Root, Job);
  C.Out.check(Ok, P.Name + ": fromFiles/collectProfile: " + Err);
  if (!Ok)
    return nullptr;
  Samples.add(Record ? &C.L.Frontend[PI] : nullptr, ms(T1 - T0), false);
  Samples.add(Record ? &C.L.ProfileRun[PI] : nullptr, ms(T2 - T1), false);
  Samples.add(nullptr, ms(T2 - T0), true);
  return W;
}

/// Traced runs only, after the timed calls it follows: re-plans program
/// \p PI under every config with compileOnly (the plan+optimize half of
/// buildSnapshot), lowers each result to bytecode (the other half) and
/// builds its dispatch tables.  \p W holds the train profile.
void probePlan(Context &C, size_t PI, Workbench &W, RoundSamples &Samples,
               Tracer &Tr, uint32_t Root, uint64_t Job) {
  const BenchProgram &P = suite()[PI];
  double LowerMs = 0;
  for (unsigned CI = 0; CI != NumConfigs; ++CI) {
    const Config Cfg = AllConfigs[CI];
    const size_t Cell = PI * NumConfigs + CI;
    uint64_t P0 = nowNs();
    std::unique_ptr<CompiledProgram> CP = W.compileOnly(Cfg);
    uint64_t P1 = nowNs();
    const bool Lowered = CP && compileToBytecode(*CP).Ok;
    uint64_t P2 = nowNs();
    Tr.add("probe.plan_opt", P0, P1, Root, Job);
    Tr.add("probe.lower", P1, P2, Root, Job);
    C.Out.check(Lowered,
                cellName(P, Cfg) + ": compileOnly/compileToBytecode");
    if (!Lowered)
      continue;
    Samples.add(&C.L.PlanOpt[Cell], ms(P1 - P0), false);
    LowerMs += ms(P2 - P1);
    C.L.CodeSize[Cell] = CP->totalCodeSize();
    C.L.Routines[Cell] = CP->numCompiledRoutines();
    C.Out.same("plan " + cellName(P, Cfg),
               {C.L.CodeSize[Cell], C.L.Routines[Cell], {}});
  }
  Samples.add(&C.L.Lower[PI], LowerMs, false);
  uint64_t D0 = nowNs();
  DispatchTableSet Tables(W.program());
  Tr.add("probe.tables", D0, nowNs(), Root, Job);
  uint64_t Cells = registryValue("dispatch.table_cells");
  C.Out.same("dispatch.table_cells " + P.Name, {Cells, 0, {}});
  C.L.TableCells[PI] = Cells;
}

/// Traced run-suite and serve-mix, after the timed loop: loads, profiles
/// and probes every program afresh, SetupReps times.  These workloads do
/// those calls only in set-up; the probe measures the same calls with the
/// same inputs.  Its spans are not recorded, so the self-time table
/// covers the workload's own timed work.
void probeSuite(Context &C) {
  for (unsigned Rep = 0; Rep != C.SetupReps; ++Rep)
    for (size_t PI = 0; PI != suite().size(); ++PI) {
      RoundSamples Samples;
      Samples.calibration(C.calibrate(C.Off, 0, 0));
      std::unique_ptr<Workbench> W =
          loadProfiled(C, PI, Samples, /*Record=*/true, C.Off, 0, 0);
      if (W)
        probePlan(C, PI, *W, Samples, C.Off, 0, 0);
      Samples.calibration(C.calibrate(C.Off, 0, 0));
      Samples.flush();
    }
}

/// The end-to-end metrics of an untraced run besides setup_s: the
/// workload's typical operation time \p OpMs, its round time, and the
/// deterministic totals over every cell it built and every kind it ran.
/// The p99 of its operation times \p Ops is printed, not reported: on
/// the suites it reads the upper samples of one second-long cell, which
/// spread up to 30% between runs on a shared host.
void reportEndToEnd(Context &C, double OpMs, const std::vector<double> &Ops,
                    double RoundS) {
  uint64_t Code = 0, Cycles = 0, Dispatches = 0;
  for (const auto &KV : C.Builds)
    Code += KV.second.A;
  for (const auto &KV : C.Kinds) {
    Cycles += KV.second.First.A;
    Dispatches += KV.second.First.B;
  }
  C.Out.metric("op_ms", OpMs, "ms");
  C.Out.metric("round_s", RoundS, "s");
  C.Out.count("code_size", Code, "units");
  C.Out.count("modeled_cycles", Cycles, "cycles");
  C.Out.count("dispatches", Dispatches, "count");
  C.Out.metric("peak_rss_mb", peakRssMb(), "MiB");
  std::cout << C.O.Workload << ": " << Ops.size()
            << " operations timed; p50 " << percentile(Ops, 50) << " ms, p99 "
            << percentile(Ops, 99) << " ms with " << Ops.size() / 100
            << " beyond it\n";
}

/// The per-layer metrics of a traced run, the same set for every
/// workload.  \p Traced and \p Untraced are the end-to-end times of the
/// rounds (or jobs) that did and did not record spans; \p Per names the
/// root span.
void reportLayers(Context &C, const std::vector<double> &Traced,
                  const std::vector<double> &Untraced, const char *Per) {
  const std::vector<BenchProgram> &S = suite();
  const LayerSamples &L = C.L;
  uint64_t Tables = 0;
  for (size_t PI = 0; PI != S.size(); ++PI) {
    C.Out.metric("frontend_ms." + S[PI].Name, median(L.Frontend[PI]), "ms");
    C.Out.metric("profile_run_ms." + S[PI].Name, median(L.ProfileRun[PI]),
                 "ms");
    C.Out.metric("lower_ms." + S[PI].Name, median(L.Lower[PI]), "ms");
    Tables += L.TableCells[PI];
    for (unsigned CI = 0; CI != NumConfigs; ++CI)
      C.Out.metric("plan_opt_ms." + cellName(S[PI], AllConfigs[CI]),
                   median(L.PlanOpt[PI * NumConfigs + CI]), "ms");
  }
  for (unsigned CI = 0; CI != NumConfigs; ++CI) {
    uint64_t Size = 0, Count = 0;
    for (size_t PI = 0; PI != S.size(); ++PI) {
      Size += L.CodeSize[PI * NumConfigs + CI];
      Count += L.Routines[PI * NumConfigs + CI];
    }
    C.Out.count(std::string("compiled_routines.") + configKey(AllConfigs[CI]),
                Count, "count");
    C.Out.count(std::string("code_size.") + configKey(AllConfigs[CI]), Size,
                "units");
  }
  C.Out.count("dispatch.table_cells", Tables, "count");

  // The interpreter layers, over every kind with measured runs: wall ns
  // per program and per (program, config), counts summed over the kinds.
  std::vector<std::vector<double>> ProgMs(S.size());
  std::vector<double> CellNs(S.size() * NumConfigs),
      CellKcycles(S.size() * NumConfigs);
  std::map<std::string, uint64_t> Sum;
  double WallNs = 0;
  for (const auto &KV : C.Kinds) {
    const RunKind &K = KV.second;
    if (K.Ms.empty() || !K.Seen)
      continue;
    const double Med = median(K.Ms);
    const size_t Cell = K.PI * NumConfigs +
                        (std::find(AllConfigs.begin(), AllConfigs.end(),
                                   K.Cfg) -
                         AllConfigs.begin());
    ProgMs[K.PI].push_back(Med);
    WallNs += Med * 1e6;
    CellNs[Cell] += Med * 1e6;
    CellKcycles[Cell] += K.First.A / 1e3;
    for (const auto &[Name, V] : K.First.Layer)
      Sum[Name] += V;
  }
  for (size_t PI = 0; PI != S.size(); ++PI) {
    C.Out.metric("run_ms." + S[PI].Name, geomean(ProgMs[PI]), "ms");
    // Max over min, across the configs the workload runs, of wall ns per
    // modeled kilocycle.
    double Lo = INFINITY, Hi = 0;
    for (unsigned CI = 0; CI != NumConfigs; ++CI) {
      const size_t Cell = PI * NumConfigs + CI;
      if (CellKcycles[Cell] > 0) {
        Lo = std::min(Lo, CellNs[Cell] / CellKcycles[Cell]);
        Hi = std::max(Hi, CellNs[Cell] / CellKcycles[Cell]);
      }
    }
    C.Out.metric("ns_per_kcycle_spread." + S[PI].Name, Hi / Lo, "ratio");
  }
  C.Out.metric("ns_per_node", WallNs / Sum["interp.nodes_evaluated"], "ns");
  for (const char *Name :
       {"interp.nodes_evaluated", "interp.dynamic_dispatches",
        "interp.version_selects", "interp.allocations", "dispatcher.lookups",
        "dispatcher.pic_hits", "dispatcher.memo_hits",
        "dispatcher.full_lookups", "bytecode.ic_hits", "bytecode.ic_misses"})
    C.Out.count(Name, Sum[Name], "count");
  double Hits = Sum["bytecode.ic_hits"];
  C.Out.metric("ic_hit_ratio", Hits / (Hits + Sum["bytecode.ic_misses"]),
               "ratio");

  const double U = median(Untraced);
  C.Out.metric("trace_overhead_pct", 100.0 * (median(Traced) - U) / U, "%");
  C.Tr.printTable(std::cout, C.O.Workload + " (one root span per " +
                                 std::string(Per) + ")");
}

std::vector<double> flatten(const std::vector<std::vector<double>> &V) {
  std::vector<double> Out;
  for (const std::vector<double> &X : V)
    Out.insert(Out.end(), X.begin(), X.end());
  return Out;
}

//===----------------------------------------------------------------------===//
// compile-suite: front end, profiler, planner/optimizer and lowering.
//===----------------------------------------------------------------------===//

class CompileSuite {
public:
  explicit CompileSuite(Context &C)
      : C(C), Offset(SplitMix{C.O.Seed}.next() % 20),
        Build(suite().size() * NumConfigs) {}

  void run() {
    // Set-up is a discarded warm-up round: it fills the allocator and
    // code caches the timed rounds would otherwise pay for once.
    timedSetup(C, [&] { round(0, /*Record=*/false); });
    std::vector<double> E2E[2];
    uint64_t Start = nowNs();
    for (unsigned R = 0; C.keepGoing(R, Start); ++R)
      E2E[&C.tracer(R) == &C.Tr].push_back(round(R, /*Record=*/true));

    if (C.O.Trace)
      return reportLayers(C, E2E[1], E2E[0], "round");
    std::vector<double> Rounds = E2E[0];
    Rounds.insert(Rounds.end(), E2E[1].begin(), E2E[1].end());
    reportEndToEnd(C, geomean(minimums(Build)), flatten(Build),
                   median(Rounds) / 1e3);
  }

private:
  /// One round: every program through fromFiles -> collectProfile(train)
  /// -> buildSnapshot under all five configs.  Each snapshot is checked
  /// by one short run against the reference.  Returns the round's
  /// normalized end-to-end milliseconds (load, profile and build calls).
  double round(unsigned R, bool Record) {
    const std::vector<BenchProgram> &S = suite();
    Tracer &Tr = Record ? C.tracer(R) : C.Off;
    uint32_t Root = Tr.open("round", nowNs(), 0, R);
    RoundSamples Samples;
    for (size_t K = 0; K != S.size(); ++K) {
      size_t PI = (Offset + R + K) % S.size();
      const BenchProgram &P = S[PI];
      Samples.calibration(C.calibrate(Tr, Root, R));
      std::unique_ptr<Workbench> W =
          loadProfiled(C, PI, Samples, Record, Tr, Root, R);
      if (!W)
        continue;
      for (unsigned J = 0; J != NumConfigs; ++J) {
        unsigned CI = (Offset + R + J) % NumConfigs;
        const Config Cfg = AllConfigs[CI];
        Samples.calibration(C.calibrate(Tr, Root, R));
        std::string Err;
        uint64_t B0 = nowNs();
        std::shared_ptr<const CompiledSnapshot> Snap =
            W->buildSnapshot(Cfg, Err);
        uint64_t B1 = nowNs();
        Tr.add("build", B0, B1, Root, R);
        C.Out.check(Snap != nullptr,
                    cellName(P, Cfg) + ": buildSnapshot: " + Err);
        if (!Snap)
          continue;
        Samples.add(Record ? &Build[PI * NumConfigs + CI] : nullptr,
                    ms(B1 - B0), true);
        // Close the build's bracket before the snapshot runs and is freed.
        Samples.calibration(C.calibrate(Tr, Root, R));
        C.built(PI, Cfg, Snap->buildInfo());
        const int64_t Input = serveInputs(P)[0];
        RunKind &Kind = C.kind(PI, Cfg, Input);
        Counts Before = metrics::snapshot();
        uint64_t V0 = nowNs();
        CompiledSnapshot::JobResult Job = Snap->run(Input);
        uint64_t V1 = nowNs();
        Tr.add("verify", V0, V1, Root, R);
        C.checkJob("verify", PI, Cfg, Input, Job,
                   registryDelta(Before, metrics::snapshot()), &Kind);
        Samples.add(Record ? &Kind.Ms : nullptr, ms(V1 - V0), false);
      }
      if (&Tr == &C.Tr)
        probePlan(C, PI, *W, Samples, Tr, Root, R);
    }
    Samples.calibration(C.calibrate(Tr, Root, R));
    Tr.close(Root, nowNs());
    return Samples.flush();
  }

  Context &C;
  const unsigned Offset;
  /// Normalized buildSnapshot times, by cell.
  std::vector<std::vector<double>> Build;
};

//===----------------------------------------------------------------------===//
// run-suite: the interpreter, dispatch and allocation; nothing compiles.
//===----------------------------------------------------------------------===//

class RunSuite {
public:
  explicit RunSuite(Context &C)
      : C(C), Offset(SplitMix{C.O.Seed}.next() % 20) {}

  void run() {
    timedSetup(C, [&] { setup(); });
    std::vector<double> E2E[2];
    uint64_t Start = nowNs();
    for (unsigned R = 0; C.keepGoing(R, Start); ++R)
      E2E[&C.tracer(R) == &C.Tr].push_back(round(R, /*Warm=*/false));

    if (C.O.Trace) {
      probeSuite(C);
      return reportLayers(C, E2E[1], E2E[0], "round");
    }
    std::vector<std::vector<double>> RunMs;
    for (const Cell &X : Cells)
      RunMs.push_back(X.Kind->Ms);
    std::vector<double> Rounds = E2E[0];
    Rounds.insert(Rounds.end(), E2E[1].begin(), E2E[1].end());
    reportEndToEnd(C, geomean(minimums(RunMs)), flatten(RunMs),
                   median(Rounds) / 1e3);
  }

private:
  struct Cell {
    size_t PI;
    Config Cfg;
    std::shared_ptr<const CompiledSnapshot> Snap;
    /// The cell on its measured input.
    RunKind *Kind;
  };

  int64_t input(const BenchProgram &P) const {
    return C.O.Tiny ? serveInputs(P)[0] : P.TestInput;
  }

  /// Loads, profiles and builds all 20 cells, then runs one discarded
  /// warm-up round on the smallest serve-mix input: it touches the same
  /// code at a twentieth of the cost of a timed round.
  void setup() {
    Cells.clear();
    Benches.clear();
    const std::vector<BenchProgram> &S = suite();
    for (size_t PI = 0; PI != S.size(); ++PI) {
      std::string Err;
      std::unique_ptr<Workbench> W = Workbench::fromFiles(S[PI].Files, Err);
      bool Ok = W && W->collectProfile(S[PI].TrainInput, Err);
      C.Out.check(Ok, S[PI].Name + ": fromFiles/collectProfile: " + Err);
      if (!Ok)
        continue;
      for (Config Cfg : AllConfigs) {
        auto Snap = W->buildSnapshot(Cfg, Err);
        C.Out.check(Snap != nullptr,
                    cellName(S[PI], Cfg) + ": buildSnapshot: " + Err);
        if (!Snap)
          continue;
        C.built(PI, Cfg, Snap->buildInfo());
        Cells.push_back(
            {PI, Cfg, std::move(Snap), &C.kind(PI, Cfg, input(S[PI]))});
      }
      Benches.push_back(std::move(W));
    }
    round(0, /*Warm=*/true);
  }

  /// Runs every cell once on its measured input (or the warm-up input),
  /// round-robin from a rotating start.  Returns the summed normalized
  /// run milliseconds.
  double round(unsigned R, bool Warm) {
    const std::vector<BenchProgram> &S = suite();
    Tracer &Tr = Warm ? C.Off : C.tracer(R);
    uint32_t Root = Tr.open("round", nowNs(), 0, R);
    RoundSamples Samples;
    for (size_t K = 0; K != Cells.size(); ++K) {
      Cell &X = Cells[(Offset + R + K) % Cells.size()];
      const BenchProgram &P = S[X.PI];
      const int64_t In = Warm ? serveInputs(P)[0] : input(P);
      Samples.calibration(C.calibrate(Tr, Root, R));
      Counts Before = metrics::snapshot();
      uint64_t T0 = nowNs();
      CompiledSnapshot::JobResult J = X.Snap->run(In);
      uint64_t T1 = nowNs();
      Tr.add("run", T0, T1, Root, R);
      C.checkJob("run", X.PI, X.Cfg, In, J,
                 registryDelta(Before, metrics::snapshot()),
                 Warm ? nullptr : X.Kind);
      Samples.add(Warm ? nullptr : &X.Kind->Ms, ms(T1 - T0), true);
    }
    Samples.calibration(C.calibrate(Tr, Root, R));
    Tr.close(Root, nowNs());
    return Samples.flush();
  }

  Context &C;
  const unsigned Offset;
  std::vector<std::unique_ptr<Workbench>> Benches;
  std::vector<Cell> Cells;
};

//===----------------------------------------------------------------------===//
// serve-mix: many short concurrent jobs through ServeEngine.
//===----------------------------------------------------------------------===//

class ServeMix {
public:
  explicit ServeMix(Context &C) : C(C) {
    unsigned Hw = std::thread::hardware_concurrency();
    Workers = std::clamp(Hw > 1 ? Hw - 1 : 1u, 1u, 3u);
    for (size_t PI = 0; PI != suite().size(); ++PI)
      for (Config Cfg : {Config::CHA, Config::Selective})
        Targets.push_back({PI, Cfg});
  }

  void run() {
    timedSetup(C, [&] { setup(); });
    const uint64_t MinJobs = C.O.Tiny ? 48 : 2000;
    std::ofstream JobsOut;
    if (!C.O.JobsOut.empty())
      JobsOut.open(C.O.JobsOut);
    // Jobs run in segments, the workload's rounds.  Before each, with the
    // engine idle, every worker's share of the host is calibrated at
    // once; the segment's times are normalized by that calibration.
    const uint64_t Segment = C.O.Tiny ? 24 : 500;
    SplitMix Draw{C.O.Seed};
    Recording = true;
    const uint64_t Start = nowNs();
    std::vector<double> SegmentS;
    for (uint64_t N = 0; N < MinJobs || nowNs() - Start < C.O.Seconds * 1e9;) {
      SegCal = C.calibrate(C.Off, 0, N, Workers);
      const uint64_t SegStart = nowNs();
      for (const uint64_t End = N + Segment; N != End; ++N) {
        unsigned T = Draw.below(Targets.size()), Size = Draw.below(3);
        if (JobsOut.is_open())
          JobsOut << N << ' ' << suite()[Targets[T].PI].Name << ' '
                  << configKey(Targets[T].Cfg) << ' '
                  << serveInputs(suite()[Targets[T].PI])[Size] << '\n';
        submit(N, T, Size);
      }
      drain();
      SegmentS.push_back(norm((LastDone - SegStart) / 1e9, SegCal));
    }

    if (!C.O.Trace) {
      std::cout << "serve-mix: " << Workers << " workers\n";
      return reportEndToEnd(C, percentile(Latency, 50), Latency,
                            median(SegmentS));
    }
    // The serving layer's own split, which only this workload has.
    std::cout << "serve-mix serving layer: queue_wait_ms p50 "
              << percentile(QueueMs, 50) << " p99 " << percentile(QueueMs, 99)
              << "; job_run_ms p50 " << percentile(RunMs, 50) << " p99 "
              << percentile(RunMs, 99) << "; submit_wait_ms p99 "
              << percentile(SubmitMs, 99) << "; serve.queue_peak "
              << registryValue("serve.queue_peak") << "; snapshot_cache hits "
              << registryValue("snapshot_cache.hits") << " builds "
              << registryValue("snapshot_cache.builds") << '\n';
    probeSuite(C);
    // Latency of the jobs that recorded spans against those that did not.
    reportLayers(C, LatencyBy[1], LatencyBy[0], "job");
  }

private:
  struct Target {
    size_t PI;
    Config Cfg;
  };
  struct Pending {
    uint64_t SubmitNs;
    unsigned T;
    uint32_t Root;
  };

  /// A fresh cache filled with all 8 snapshots and a fresh engine, then
  /// one discarded warm-up job per (snapshot, input size).
  void setup() {
    Engine.reset();
    Cache = std::make_unique<SnapshotCache>();
    for (const Target &Tg : Targets) {
      std::string Err;
      std::shared_ptr<const CompiledSnapshot> Snap = fetch(Tg, Err);
      C.Out.check(Snap != nullptr,
                  cellName(suite()[Tg.PI], Tg.Cfg) + ": build: " + Err);
      if (Snap)
        C.built(Tg.PI, Tg.Cfg, Snap->buildInfo());
    }
    ServeEngine::Options EO;
    EO.Threads = Workers;
    EO.QueueCapacity = 4 * Workers;
    Engine = std::make_unique<ServeEngine>(
        EO, [this](ServeEngine::Completion &&Cmp) { complete(std::move(Cmp)); });
    Recording = false;
    uint64_t N = 0;
    for (unsigned T = 0; T != Targets.size(); ++T)
      for (unsigned Size = 0; Size != 3; ++Size)
        submit(N++, T, Size);
    drain();
  }

  /// The cached snapshot for \p Tg.  A miss builds it the way micad
  /// does: a fresh Workbench per key, profiled on the train input for
  /// Selective.
  std::shared_ptr<const CompiledSnapshot> fetch(const Target &Tg,
                                                std::string &Err) {
    const BenchProgram &P = suite()[Tg.PI];
    auto Build = [&](std::string &E) -> std::shared_ptr<const CompiledSnapshot> {
      std::shared_ptr<Workbench> W = Workbench::fromFiles(P.Files, E);
      if (!W || (Tg.Cfg == Config::Selective &&
                 !W->collectProfile(P.TrainInput, E)))
        return nullptr;
      return W->buildSnapshot(Tg.Cfg, E, {}, {}, W);
    };
    return Cache->getOrBuild(
        SnapshotCache::makeKey(P.Files, Tg.Cfg, defaultTier(),
                               std::to_string(P.TrainInput)),
        Build, Err);
  }

  /// Closed loop: waits for a free slot in the 2 x workers window, then
  /// fetches the snapshot from the cache and submits the job.
  void submit(uint64_t N, unsigned T, unsigned Size) {
    {
      std::unique_lock<std::mutex> Lock(M);
      Slot.wait(Lock, [&] { return Outstanding < 2 * Workers; });
      ++Outstanding;
    }
    const Target &Tg = Targets[T];
    const BenchProgram &P = suite()[Tg.PI];
    std::string Err;
    std::shared_ptr<const CompiledSnapshot> Snap = fetch(Tg, Err);
    const std::string Id = std::to_string(N);
    ServeEngine::Job J;
    J.Id = Id;
    J.Snapshot = Snap;
    J.Input = serveInputs(P)[Size];
    Tracer &Tr = Recording ? C.tracer(N) : C.Off;
    const uint64_t S0 = nowNs();
    const uint32_t Root = Tr.open("job", S0, 0, N);
    {
      std::lock_guard<std::mutex> Lock(M);
      InFlight[N] = Pending{S0, T, Root};
    }
    ServeEngine::Admit A =
        Snap ? Engine->submit(std::move(J)) : ServeEngine::Admit::Closed;
    const uint64_t S1 = nowNs();
    Tr.add("submit", S0, S1, Root, N);
    if (Recording)
      SubmitMs.push_back(norm(ms(S1 - S0), SegCal));
    if (A != ServeEngine::Admit::Accepted) {
      C.Out.check(false, "job " + Id + " " + cellName(P, Tg.Cfg) +
                             " not admitted: " + Err);
      std::lock_guard<std::mutex> Lock(M);
      InFlight.erase(N);
      --Outstanding;
      Slot.notify_all();
    }
  }

  /// Completion callback (serialized by the engine, on worker threads).
  void complete(ServeEngine::Completion &&Cmp) {
    const uint64_t Done = nowNs();
    const uint64_t N = std::stoull(Cmp.TheJob.Id);
    Pending P;
    {
      std::lock_guard<std::mutex> Lock(M);
      P = InFlight.at(N);
      InFlight.erase(N);
    }
    const Target &Tg = Targets[P.T];
    const int64_t Input = Cmp.TheJob.Input;
    C.checkJob("serve", Tg.PI, Tg.Cfg, Input, Cmp.Result,
               gatedOnly(Cmp.Result.MetricsDelta),
               &C.kind(Tg.PI, Tg.Cfg, Input),
               Recording ? norm(ms(Cmp.RunNanos), SegCal) : NAN);
    if (Recording) {
      const uint64_t RunStart = Done - std::min(Done - P.SubmitNs, Cmp.RunNanos);
      const uint64_t QueueStart =
          RunStart - std::min(RunStart - P.SubmitNs, Cmp.QueueNanos);
      Tracer &Tr = C.tracer(N);
      Tr.add("queue", QueueStart, RunStart, P.Root, N);
      Tr.add("run", RunStart, Done, P.Root, N);
      Tr.close(P.Root, Done);
      const double LatencyMs = norm(ms(Done - P.SubmitNs), SegCal);
      Latency.push_back(LatencyMs);
      LatencyBy[&Tr == &C.Tr].push_back(LatencyMs);
      QueueMs.push_back(norm(ms(Cmp.QueueNanos), SegCal));
      RunMs.push_back(norm(ms(Cmp.RunNanos), SegCal));
    }
    std::lock_guard<std::mutex> Lock(M);
    LastDone = Done;
    --Outstanding;
    Slot.notify_all();
  }

  void drain() {
    std::unique_lock<std::mutex> Lock(M);
    Slot.wait(Lock, [&] { return Outstanding == 0; });
  }

  Context &C;
  unsigned Workers = 1;
  std::vector<Target> Targets;
  std::unique_ptr<SnapshotCache> Cache;

  std::mutex M;
  std::condition_variable Slot;
  size_t Outstanding = 0;
  std::unordered_map<uint64_t, Pending> InFlight;
  uint64_t LastDone = 0;

  /// Written by the main thread before submitting, read by completions.
  bool Recording = false;
  double SegCal = CalNominalMs;
  /// Completion-side samples; completions are serialized and the main
  /// thread reads them only after drain().
  std::vector<double> Latency, LatencyBy[2], QueueMs, RunMs;
  /// Main-thread samples.
  std::vector<double> SubmitMs;

  /// Last: its workers call complete() until it is destroyed.
  std::unique_ptr<ServeEngine> Engine;
};

//===----------------------------------------------------------------------===//


/// Records the AST tier's Base output for every (program, input) any
/// workload runs.
int writeReference(const std::string &Path) {
  References Ref;
  for (const BenchProgram &P : suite()) {
    std::string Err;
    std::unique_ptr<Workbench> W = Workbench::fromFiles(P.Files, Err);
    if (!W) {
      std::cerr << "perfbench: " << P.Name << ": " << Err << '\n';
      return 1;
    }
    W->setTier(ExecTier::Ast);
    auto Snap = W->buildSnapshot(Config::Base, Err);
    std::array<int64_t, 3> Small = serveInputs(P);
    for (int64_t In : {P.TestInput, Small[0], Small[1], Small[2]}) {
      CompiledSnapshot::JobResult J = Snap ? Snap->run(In)
                                           : CompiledSnapshot::JobResult{};
      if (!J.Ok) {
        std::cerr << "perfbench: " << P.Name << " " << In << ": "
                  << (Snap ? J.Error : Err) << '\n';
        return 1;
      }
      Ref.set(P.Name, In, J.R.Output);
    }
  }
  if (!Ref.save(Path, "python3 perfbench/run.py --write-reference")) {
    std::cerr << "perfbench: cannot write " << Path << '\n';
    return 1;
  }
  return 0;
}

[[noreturn]] void usage(const std::string &Why) {
  std::cerr << "perfbench: " << Why << "\n"
            << "usage: perfbench_harness --workload compile-suite|run-suite|"
               "serve-mix --seed N --seconds S --trace 0|1 --reference FILE "
               "[--trace-out FILE] [--jobs-out FILE] [--tiny]\n"
               "       perfbench_harness --write-reference FILE\n";
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--tiny") {
      O.Tiny = true;
      continue;
    }
    if (I + 1 == Argc)
      usage("missing value for " + A);
    std::string V = Argv[++I];
    try {
      if (A == "--workload")
        O.Workload = V;
      else if (A == "--seed")
        O.Seed = std::stoull(V);
      else if (A == "--seconds")
        O.Seconds = std::stod(V);
      else if (A == "--trace")
        O.Trace = std::stoi(V) != 0;
      else if (A == "--reference")
        O.ReferencePath = V;
      else if (A == "--trace-out")
        O.TraceOut = V;
      else if (A == "--jobs-out")
        O.JobsOut = V;
      else if (A == "--write-reference")
        O.WriteReference = V;
      else
        usage("unknown argument " + A);
    } catch (const std::exception &) {
      usage("bad value for " + A + ": " + V);
    }
  }
  return O;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  if (!O.WriteReference.empty())
    return writeReference(O.WriteReference);
  if (O.Workload != "compile-suite" && O.Workload != "run-suite" &&
      O.Workload != "serve-mix")
    usage("unknown workload '" + O.Workload + "'");
  References Ref;
  if (!Ref.load(O.ReferencePath))
    usage("cannot read reference records '" + O.ReferencePath + "'");

  Outcome Out;
  Tracer Tr, Off;
  Tr.setEnabled(O.Trace);
  // Tiny runs still need one traced and one untraced round.
  Context C{O, Ref, Out, Tr, Off, O.Tiny ? 1u : 5u, O.Tiny ? 2u : 3u};
  if (O.Workload == "compile-suite")
    CompileSuite(C).run();
  else if (O.Workload == "run-suite")
    RunSuite(C).run();
  else
    ServeMix(C).run();

  const double HostFactor = median(C.CalMs) / CalNominalMs;
  if (O.Trace)
    Out.metric("host_factor", HostFactor, "ratio");
  else
    std::cout << "host speed: " << C.CalMs.size()
              << " calibrations, median " << HostFactor * CalNominalMs
              << " ms against " << CalNominalMs
              << " ms nominal; times are normalized by it\n";
  if (O.Trace && !O.TraceOut.empty() && !Tr.writeChromeTrace(O.TraceOut))
    std::cerr << "perfbench: cannot write trace " << O.TraceOut << '\n';
  Out.print(std::cout);
  return Out.correct() ? 0 : 1;
}
