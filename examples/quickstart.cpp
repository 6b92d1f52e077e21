// Quickstart: elect a leader on an anonymous unidirectional ABE ring.
//
//   ./quickstart --n 16 --a0-scale 1.0 --delay exponential --seed 42
//   ./quickstart --n 12 --runtime thread   # same election, real OS threads
//   ./quickstart --n 12 --runtime udp      # ... over loopback datagrams
//
// Builds a ring of anonymous nodes whose channels have exponentially
// distributed delays (mean 1 — the known bound δ), runs the paper's
// election, and prints what happened, including the per-node end states.
//
// The execution goes through the unified Runtime contract
// (runtime/runtime.h): the identical ring-election AlgorithmDriver runs on
// the deterministic discrete-event simulator, on one OS thread per node
// with wall-clock delays, or over real loopback UDP datagrams — pick with
// --runtime.
#include <cstdio>
#include <string>

#include "core/abe.h"
#include "core/harness.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  abe::CliFlags flags(argc, argv);
  const std::size_t n =
      static_cast<std::size_t>(flags.get_int("n", 16));
  const double a0_scale = flags.get_double("a0-scale", 1.0);
  const std::string delay = flags.get_string("delay", "exponential");
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const std::string runtime_name = flags.get_string("runtime", "sim");

  abe::RuntimeKind runtime = abe::RuntimeKind::kSim;
  if (!abe::runtime_kind_from_name(runtime_name, &runtime)) {
    std::fprintf(stderr, "unknown runtime '%s'; known: sim thread udp\n",
                 runtime_name.c_str());
    return 2;
  }

  const abe::NodeBudget budget = abe::runtime_node_budget(runtime);
  if (n > budget.max_nodes) {
    std::fprintf(stderr, "--runtime %s needs %s; max n is %zu\n",
                 runtime_name.c_str(), budget.per_node, budget.max_nodes);
    return 2;
  }

  abe::ElectionExperiment experiment;
  experiment.n = n;
  experiment.delay_name = delay;
  experiment.mean_delay = 1.0;
  // The linear-complexity calibration from the paper: A0 = c/n².
  experiment.election.a0 = abe::linear_regime_a0(n, a0_scale);
  experiment.seed = seed;
  experiment.settle_time = 50.0;
  experiment.trace = n <= 8;  // tiny rings: show the full transcript

  std::printf("ABE ring election: n=%zu, delay=%s (delta=1), A0=%g, "
              "runtime=%s\n",
              n, delay.c_str(), experiment.election.a0,
              abe::runtime_kind_name(runtime));

  // The harness entry point run_election() is exactly this, pinned to the
  // simulator; spelling it out shows the runtime seam.
  abe::ElectionRunResult result;
  const auto driver = abe::make_ring_election_driver(experiment, &result);
  abe::run_algorithm_trial(runtime,
                           abe::election_runtime_config(experiment),
                           *driver);
  if (!result.elected) {
    std::printf("no leader before the deadline — try a larger a0-scale\n");
    return 1;
  }
  std::printf("leader elected: node %zu (anonymous — the index is only the "
              "observer's name for it)\n",
              result.leader_index);
  std::printf("  time to election : %.2f time units  (%.2f per node)\n",
              result.election_time, result.election_time / n);
  std::printf("  messages         : %llu  (%.2f per node)\n",
              static_cast<unsigned long long>(result.messages),
              static_cast<double>(result.messages) / n);
  std::printf("  activations      : %llu, knockout purges: %llu\n",
              static_cast<unsigned long long>(result.activations),
              static_cast<unsigned long long>(result.purges));
  std::printf("  safety           : %s\n",
              result.safety_ok ? "exactly one leader, all others passive"
                               : result.safety_detail.c_str());
  return result.safety_ok ? 0 : 2;
}
