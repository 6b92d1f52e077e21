// Shared scaffolding for the experiment benches.
//
// Every bench binary prints its experiment table(s) first — the rows a paper
// would report — and then hands over to google-benchmark for wall-time
// microbenchmarks of the same workloads. ABE_BENCH_MAIN wires that order.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <thread>

#include "stats/table.h"

// Build provenance, injected by bench/CMakeLists.txt so every BENCH_*.json
// in the perf trajectory is attributable to a commit and toolchain. The git
// sha arrives via a build-time generated header (bench/gitsha.cmake) so it
// tracks HEAD across incremental rebuilds; the fallbacks keep stray
// compilations working.
#ifdef ABE_BENCH_HAVE_SHA_HEADER
#include "abe_bench_git_sha.h"
#endif
#ifndef ABE_BENCH_GIT_SHA
#define ABE_BENCH_GIT_SHA "unknown"
#endif
#ifndef ABE_BENCH_COMPILER
#define ABE_BENCH_COMPILER "unknown"
#endif
#ifndef ABE_BENCH_BUILD_TYPE
#define ABE_BENCH_BUILD_TYPE "unknown"
#endif

namespace abe::benchutil {

// Experiment-table phase; each bench defines its own.
void print_experiment_tables();

inline void print_header(const char* id, const char* claim) {
  std::printf(
      "\n############################################################\n");
  std::printf("# Experiment %s\n# Paper claim: %s\n", id, claim);
  std::printf(
      "############################################################\n\n");
}

// Embeds run metadata into google-benchmark's JSON "context" block so
// BENCH_*.json trajectories stay comparable across PRs: which commit,
// which compiler, which build type, how much hardware.
inline void add_run_metadata() {
  ::benchmark::AddCustomContext("abe_git_sha", ABE_BENCH_GIT_SHA);
  ::benchmark::AddCustomContext("abe_compiler", ABE_BENCH_COMPILER);
  ::benchmark::AddCustomContext("abe_build_type", ABE_BENCH_BUILD_TYPE);
  ::benchmark::AddCustomContext(
      "abe_hardware_threads",
      std::to_string(std::thread::hardware_concurrency()));
}

}  // namespace abe::benchutil

#define ABE_BENCH_MAIN()                                          \
  int main(int argc, char** argv) {                               \
    ::abe::benchutil::print_experiment_tables();                  \
    ::benchmark::Initialize(&argc, argv);                         \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {   \
      return 1;                                                   \
    }                                                             \
    ::abe::benchutil::add_run_metadata();                         \
    ::benchmark::RunSpecifiedBenchmarks();                        \
    ::benchmark::Shutdown();                                      \
    return 0;                                                     \
  }
