//===- bench/micro_dispatch.cpp - Section 3.5 dispatch mechanisms ----------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks of the runtime lookup mechanisms the
/// paper discusses in Section 3.5: the compressed dispatch table every
/// inline-cache miss reads, the full most-specific-applicable lookup it
/// replaces, version selection among specialized method versions, and
/// end-to-end dispatch-heavy runs on both tiers.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "bytecode/BytecodeCompiler.h"
#include "bytecode/BytecodeInterpreter.h"
#include "runtime/DispatchTable.h"

#include <benchmark/benchmark.h>

using namespace selspec;
using namespace selspec::bench;

namespace {

/// A program with a wide multi-method to stress lookup: 8 shape classes,
/// `hit` with cases over pairs.
std::unique_ptr<Workbench> makeLookupProgram() {
  std::string Src = "class Shape;\n";
  for (int I = 0; I != 8; ++I)
    Src += "class S" + std::to_string(I) + " isa Shape;\n";
  Src += "method hit(a@Shape, b@Shape) { 0; }\n";
  for (int I = 0; I != 8; ++I)
    Src += "method hit(a@S" + std::to_string(I) +
           ", b@Shape) { " + std::to_string(I + 1) + "; }\n";
  for (int I = 0; I != 4; ++I)
    Src += "method hit(a@S" + std::to_string(I) + ", b@S" +
           std::to_string(I) + ") { " + std::to_string(100 + I) + "; }\n";
  Src += "method main(n@Int) { n; }\n";

  std::string Err;
  std::unique_ptr<Workbench> W =
      Workbench::fromSources({Src}, Err, /*WithStdlib=*/false);
  if (!W) {
    fprintf(stderr, "%s\n", Err.c_str());
    exit(1);
  }
  return W;
}

GenericId hitGeneric(const Program &P) {
  return P.lookupGeneric(P.Syms.find("hit"), 2);
}

ClassId shapeClass(const Program &P, int I) {
  return P.Classes.lookup(P.Syms.find("S" + std::to_string(I)));
}

void BM_FullLookup(benchmark::State &State) {
  std::unique_ptr<Workbench> W = makeLookupProgram();
  const Program &P = W->program();
  GenericId G = hitGeneric(P);
  std::vector<ClassId> Args = {shapeClass(P, 5), shapeClass(P, 6)};
  for (auto _ : State)
    benchmark::DoNotOptimize(P.dispatch(G, Args));
}
BENCHMARK(BM_FullLookup);

void BM_CompressedTableLookup(benchmark::State &State) {
  std::unique_ptr<Workbench> W = makeLookupProgram();
  const Program &P = W->program();
  GenericId G = hitGeneric(P);
  DispatchTable T(P, G);
  std::vector<ClassId> Args = {shapeClass(P, 5), shapeClass(P, 6)};
  for (auto _ : State)
    benchmark::DoNotOptimize(T.lookup(Args));
}
BENCHMARK(BM_CompressedTableLookup);

void BM_VersionSelection(benchmark::State &State) {
  // Customized plan: many versions per method; select by receiver class.
  std::unique_ptr<Workbench> W = makeLookupProgram();
  Program &P = W->program();
  std::unique_ptr<CompiledProgram> CP = W->compileOnly(Config::Cust);
  GenericId G = hitGeneric(P);
  MethodId General = P.generic(G).Methods[0];
  std::vector<ClassId> Args = {shapeClass(P, 6), shapeClass(P, 7)};
  for (auto _ : State)
    benchmark::DoNotOptimize(CP->selectVersion(General, Args));
}
BENCHMARK(BM_VersionSelection);

void BM_VersionSelectionWidestCustMM(benchmark::State &State) {
  // The widest method of the compiler benchmark under Cust-MM (minilang's
  // mkIf: 6,859 versions, one per combination of argument classes).
  // Cycles over one argument tuple per version, drawn from that version's
  // own tuple, so every lookup matches.
  std::string Err;
  std::unique_ptr<Workbench> W =
      Workbench::fromFiles({"minilang.mica", "compiler.mica"}, Err);
  if (!W) {
    fprintf(stderr, "%s\n", Err.c_str());
    exit(1);
  }
  std::unique_ptr<CompiledProgram> CP = W->compileOnly(Config::CustMM);
  const Program &P = W->program();
  MethodId Widest(0);
  for (unsigned MI = 1; MI != P.numMethods(); ++MI)
    if (CP->versionsOf(MethodId(MI)).size() >
        CP->versionsOf(Widest).size())
      Widest = MethodId(MI);
  std::vector<std::vector<ClassId>> Cases;
  for (uint32_t VI : CP->versionsOf(Widest)) {
    std::vector<ClassId> Args;
    for (const ClassSet &S : CP->version(VI).Tuple)
      Args.push_back(S.members().front());
    Cases.push_back(std::move(Args));
  }
  size_t K = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(CP->selectVersion(Widest, Cases[K]));
    if (++K == Cases.size())
      K = 0;
  }
  State.counters["versions"] = static_cast<double>(Cases.size());
}
BENCHMARK(BM_VersionSelectionWidestCustMM);

void BM_EndToEndDispatchRichards(benchmark::State &State) {
  // Wall-clock of a full Base vs Selective richards run (dispatch-heavy).
  std::string Err;
  std::unique_ptr<Workbench> W =
      Workbench::fromFiles({"richards.mica"}, Err);
  if (!W) {
    fprintf(stderr, "%s\n", Err.c_str());
    exit(1);
  }
  if (!W->collectProfile(50, Err)) {
    fprintf(stderr, "%s\n", Err.c_str());
    exit(1);
  }
  Config C = State.range(0) == 0 ? Config::Base : Config::Selective;
  std::unique_ptr<CompiledProgram> CP = W->compileOnly(C);
  RunOptions Opts;
  Opts.Tables = &W->tables();
  for (auto _ : State) {
    Interpreter I(*CP, Opts);
    if (!I.callMain(50)) {
      fprintf(stderr, "%s\n", I.errorMessage().c_str());
      exit(1);
    }
    benchmark::DoNotOptimize(I.stats().Cycles);
  }
}
BENCHMARK(BM_EndToEndDispatchRichards)->Arg(0)->Arg(1);

void BM_EndToEndDispatchRichardsBytecode(benchmark::State &State) {
  // Same run on the bytecode tier: per-site inline caches sit in front of
  // the table lookup on the hot path, so the Base-vs-Selective gap here
  // isolates what specialization still buys once sends are cached.
  std::string Err;
  std::unique_ptr<Workbench> W =
      Workbench::fromFiles({"richards.mica"}, Err);
  if (!W) {
    fprintf(stderr, "%s\n", Err.c_str());
    exit(1);
  }
  if (!W->collectProfile(50, Err)) {
    fprintf(stderr, "%s\n", Err.c_str());
    exit(1);
  }
  Config C = State.range(0) == 0 ? Config::Base : Config::Selective;
  std::unique_ptr<CompiledProgram> CP = W->compileOnly(C);
  BcModule Mod = compileToBytecode(*CP);
  if (!Mod.Ok) {
    fprintf(stderr, "bytecode lowering failed: %s\n", Mod.Error.c_str());
    exit(1);
  }
  RunOptions Opts;
  Opts.Tables = &W->tables();
  for (auto _ : State) {
    BytecodeInterpreter I(*CP, Mod, Opts);
    if (!I.callMain(50)) {
      fprintf(stderr, "%s\n", I.errorMessage().c_str());
      exit(1);
    }
    benchmark::DoNotOptimize(I.stats().Cycles);
  }
}
BENCHMARK(BM_EndToEndDispatchRichardsBytecode)->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();
