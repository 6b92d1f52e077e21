// Real threads, real queues: the election outside the simulator.
//
//   ./threaded_ring --n 12 --a0 0.05 --scale-us 200 --loss 0.01
//
// Spawns one OS thread per node with blocking mailboxes; channel delays are
// realised as wall-clock due times sampled from the same exponential model.
// The identical ElectionNode code that runs on the discrete-event simulator
// runs here unchanged — a fidelity check that nothing in the results depends
// on simulator artefacts. Since the Runtime redesign the harness below is a
// thin shim over the unified contract: the ring-election AlgorithmDriver
// (core/harness.h) executed by ThreadedRuntime (runtime/threaded_runtime.h),
// with optional failure injection (--loss) that the thread runtime honors
// and counts.
#include <cstdio>

#include "core/election.h"
#include "runtime/threaded_runtime.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  abe::CliFlags flags(argc, argv);
  const std::size_t n = static_cast<std::size_t>(flags.get_int("n", 12));
  const double a0 = flags.get_double("a0", abe::linear_regime_a0(12, 8.0));
  const double scale_us = flags.get_double("scale-us", 200.0);
  const double loss = flags.get_double("loss", 0.0);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 1));

  const abe::NodeBudget budget =
      abe::runtime_node_budget(abe::RuntimeKind::kThread);
  if (n > budget.max_nodes) {
    std::fprintf(stderr, "%s; max n is %zu\n", budget.per_node,
                 budget.max_nodes);
    return 2;
  }
  if (loss < 0.0 || loss >= 1.0) {
    std::fprintf(stderr, "--loss must be in [0, 1)\n");
    return 2;
  }

  std::printf("threaded ABE ring: %zu OS threads, A0=%g, 1 sim unit = %.0f "
              "microseconds%s\n",
              n, a0, scale_us,
              loss > 0.0 ? " (lossy channels)" : "");

  const auto result = abe::run_threaded_election(
      n, a0, /*mean_delay=*/1.0, seed, scale_us,
      std::chrono::milliseconds(30000), abe::ClockBounds{}, loss);

  if (!result.elected) {
    std::printf("no leader within the wall-clock budget (%llu messages "
                "sent by ~t=%.1f)\n",
                static_cast<unsigned long long>(result.messages),
                result.election_time_sim);
    return 1;
  }
  std::printf("leader: node %zu after ~%.1f sim units (wall time), "
              "%llu messages\n",
              result.leader_index, result.election_time_sim,
              static_cast<unsigned long long>(result.messages));
  std::printf("safety: %s\n", result.safety_ok
                                  ? "exactly one leader, others passive"
                                  : "VIOLATED");
  return result.safety_ok ? 0 : 2;
}
