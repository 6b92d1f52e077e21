// E2b — Scenario cells on mesh-shaped graphs: the polling election at scale.
//
// Paper context: the "deterministic election ⇒ polling" theorem forces a
// Θ(n) tree broadcast/echo on every run; this bench runs those cells on the
// torus and random-geometric families at n ∈ {64, 256, 1024} — the
// mesh-shaped workloads the scheduler is profiled against (message-driven
// event mixes over thousands of channels, no tick trains).
//
// The table reports messages and simulated completion time per cell; the
// microbenchmarks time one full trial per iteration (items/s = trials/s)
// so BENCH_e2_scenarios.json rows land in the tracked perf trajectory
// (bench/baseline.json, bench/compare.py).
#include "bench_util.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"

namespace abe {
namespace {

constexpr std::size_t kSizes[] = {64, 256, 1024};
constexpr std::uint64_t kTrials = 10;

ScenarioSpec cell(TopologyFamily family, std::size_t n) {
  ScenarioSpec spec;
  spec.algorithm = ScenarioAlgorithm::kPollingElection;
  spec.topology = TopologySpec{family, n, 0.0};
  return spec;
}

}  // namespace

namespace benchutil {

void print_experiment_tables() {
  print_header("E2b",
               "polling election cells on torus and random-geometric "
               "graphs; Θ(n) tree messages at every size");

  Table table({"cell", "n", "messages", "msgs/n", "time", "ci95"});
  for (TopologyFamily family :
       {TopologyFamily::kTorus, TopologyFamily::kGeometric}) {
    for (std::size_t n : kSizes) {
      const ScenarioSpec spec = cell(family, n);
      const ScenarioAggregate agg = run_scenario_trials(spec, kTrials, 1000);
      table.add_row({spec.cell_id(),
                     Table::fmt_int(static_cast<std::int64_t>(n)),
                     Table::fmt(agg.messages.mean(), 1),
                     Table::fmt(agg.messages.mean() / static_cast<double>(n),
                                2),
                     Table::fmt(agg.time.mean(), 1),
                     Table::fmt(agg.time.ci95_half_width(), 1)});
    }
  }
  std::printf("%s\n",
              table.render("E2b: polling election scenario cells").c_str());
  std::printf("polling pays ~3(n-1) tree messages per tie-free run on "
              "every family: msgs/n flat near 3.\n\n");
}

}  // namespace benchutil

// One full scenario trial per iteration; random families redraw the graph
// per trial (seed-derived), so graph construction is part of the measured
// workload exactly as in a sweep.
static void BM_ScenarioCell(benchmark::State& state,
                            TopologyFamily family) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ScenarioSpec spec = cell(family, n);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const ScenarioTrialResult result = run_scenario_trial(spec, seed++);
    benchmark::DoNotOptimize(result.messages);
    state.counters["sim_msgs"] = static_cast<double>(result.messages);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK_CAPTURE(BM_ScenarioCell, torus, abe::TopologyFamily::kTorus)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ScenarioCell, rgg, abe::TopologyFamily::kGeometric)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

}  // namespace abe

ABE_BENCH_MAIN()
