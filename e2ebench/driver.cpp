// End-to-end trial benchmark driver.
//
// Runs one fixed scenario cell ("workload") one trial at a time, in one
// process, over the trial seeds given by --seeds (one pass, in run order),
// and prints what it measured as one JSON document on stdout.
// e2ebench/run.py builds this program, runs it, checks its outputs and turns
// the records into metrics.
//
// Modes:
//   plain   trials through run_scenario_trial, each timed from outside (the
//           call users make; no tracing).
//   traced  run_algorithm_trial's lifecycle inlined (the way
//           replay_scenario_trial does it) with an in-memory span around
//           every public call. The spans go to --spans at the end.
// Both repeat whole passes over the seeds until --seconds have elapsed and
// --min-passes passes have run.
//   setup   one process start: runs the first seed's trial up to start(),
//           prints the CLOCK_MONOTONIC reading taken right after start()
//           returns, then stops the runtime and exits.
//
// The driver refuses to run when ABE_EQUEUE or ABE_TRIAL_THREADS is set, so
// a number is never measured on a non-default path by accident.

#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/causal.h"
#include "runtime/runtime.h"
#include "scenario/drivers.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"
#include "sim/equeue/backend.h"
#include "sim/rng.h"

namespace {

using abe::ScenarioSpec;
using Clock = std::chrono::steady_clock;

// The four workloads. Each is a fixed cell; all use exponential delays with
// mean 1 and ideal clocks (the ScenarioSpec defaults). Fields are spelled
// out rather than read from the sweep registry so that a later change to a
// registered sweep cannot silently change what the benchmark measures.
bool make_workload(const std::string& name, ScenarioSpec* spec) {
  ScenarioSpec s;
  s.name = name;
  s.delay_name = "exponential";
  s.mean_delay = 1.0;
  s.equeue = abe::EqueueBackend::kAuto;
  if (name == "ring-sim-1024") {
    // The paper's election at the default A0 = c/n^2.
    s.algorithm = abe::ScenarioAlgorithm::kRingElection;
    s.topology = {abe::TopologyFamily::kRingUni, 1024, 0.0};
    s.runtime = abe::RuntimeKind::kSim;
  } else if (name == "polling-torus-10k") {
    s.algorithm = abe::ScenarioAlgorithm::kPollingElection;
    s.topology = {abe::TopologyFamily::kTorus, 10000, 0.0};
    s.runtime = abe::RuntimeKind::kSim;
  } else if (name == "ring-thread-8") {
    // The reliable ring cell of the cross-runtime sweep.
    s.algorithm = abe::ScenarioAlgorithm::kRingElection;
    s.topology = {abe::TopologyFamily::kRingUni, 8, 0.0};
    s.runtime = abe::RuntimeKind::kThread;
    s.deadline = 2e4;
    s.thread_wall_timeout_ms = 10000.0;
  } else if (name == "ring-udp-arq-8") {
    // The lossy cell of the udp-loopback sweep: ARQ on, loss-0.05.
    s.algorithm = abe::ScenarioAlgorithm::kRingElection;
    s.topology = {abe::TopologyFamily::kRingUni, 8, 0.0};
    s.runtime = abe::RuntimeKind::kUdp;
    s.failure = abe::FailureProfile::loss(0.05);
    s.udp_reliable = true;
    s.deadline = 2e4;
    s.thread_wall_timeout_ms = 10000.0;
  } else {
    return false;
  }
  *spec = s;
  return true;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

struct Usage {
  double cpu_ms = 0.0;
  double minflt = 0.0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv_ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  Usage u;
  u.cpu_ms = tv_ms(ru.ru_utime) + tv_ms(ru.ru_stime);
  u.minflt = static_cast<double>(ru.ru_minflt);
  return u;
}

// Peak resident set of this process image, in MB. Read from VmHWM rather
// than getrusage's ru_maxrss, which survives execve and so would report the
// launching process's footprint for small workloads.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string json_number(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

// Pins the calling thread to whichever CPU of its affinity set runs a short
// fixed spin fastest right now. On shared virtual machines each vCPU's speed
// swings independently by up to 2x in phases of 10-30 s; re-picking the
// quickest one before each trial keeps most of that out of the timings.
void pin_fastest_cpu() {
  static cpu_set_t allowed;
  static const bool have_set =
      sched_getaffinity(0, sizeof(allowed), &allowed) == 0;
  if (!have_set) return;
  int best_cpu = -1;
  double best_ms = 0.0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) continue;
    const auto t0 = Clock::now();
    volatile std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < 10000000; ++i) sink = sink + i * i;
    const double ms = ms_between(t0, Clock::now());
    if (best_cpu < 0 || ms < best_ms) {
      best_cpu = cpu;
      best_ms = ms;
    }
  }
  if (best_cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best_cpu, &one);
  sched_setaffinity(0, sizeof(one), &one);
}

// --- trial records -------------------------------------------------------

struct TrialRecord {
  std::uint64_t seed = 0;
  double wall_ms = 0.0;  // timed around the whole trial from outside
  double cpu_ms = 0.0;   // plain mode: process CPU time over the trial
  abe::TrialOutcome outcome;
  // Traced mode only: minor faults in configure and build_nodes.
  double configure_minflt = 0.0;
  double build_nodes_minflt = 0.0;
};

// Counters and gauges from the trial's metrics snapshot, plus the histogram
// medians the per-layer metrics use.
void append_metrics(const abe::MetricsSnapshot& m, std::string* out) {
  *out += "{";
  bool first = true;
  for (const abe::MetricValue& v : m.entries()) {
    if (!first) *out += ",";
    first = false;
    *out += "\"" + v.name + "\":";
    if (v.kind == abe::MetricKind::kHistogram) {
      std::uint64_t total = 0;
      for (std::uint64_t b : v.buckets) total += b;
      *out += "{\"count\":" + std::to_string(total) + ",\"p50\":" +
              json_number(abe::FixedHistogram::quantile_of(v.bounds,
                                                           v.buckets, 0.5)) +
              "}";
    } else {
      *out += json_number(v.value);
    }
  }
  *out += "}";
}

void append_record(const TrialRecord& r, std::string* out) {
  const abe::TrialOutcome& o = r.outcome;
  *out += "{\"seed\":" + std::to_string(r.seed) +
          ",\"wall_ms\":" + json_number(r.wall_ms) +
          ",\"cpu_ms\":" + json_number(r.cpu_ms) +
          ",\"completed\":" + (o.completed ? "true" : "false") +
          ",\"stalled\":" + (o.stalled ? "true" : "false") +
          ",\"safety_ok\":" + (o.safety_ok ? "true" : "false") +
          ",\"time\":" + json_number(o.time) +
          ",\"messages\":" + std::to_string(o.messages) +
          ",\"phase_build_ms\":" + json_number(o.wall.build_ms) +
          ",\"phase_run_ms\":" + json_number(o.wall.run_ms) +
          ",\"phase_settle_ms\":" + json_number(o.wall.settle_ms) +
          ",\"phase_total_ms\":" + json_number(o.wall.total_ms) +
          ",\"configure_minflt\":" + json_number(r.configure_minflt) +
          ",\"build_nodes_minflt\":" + json_number(r.build_nodes_minflt) +
          ",\"metrics\":";
  append_metrics(o.metrics, out);
  *out += "}";
}

// --- spans ---------------------------------------------------------------

struct Span {
  const char* name;
  std::uint64_t trial;  // the trial's seed: spans of one trial share it
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;  // index into the span list; -1 for a trial's root
};

// In-memory span recorder: open() pushes a child of the innermost open
// span, close() stamps the innermost one's end. Written out once, after the
// last trial.
class SpanLog {
 public:
  void open(const char* name, std::uint64_t trial) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, trial, monotonic_ns(), 0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  void close() {
    spans_[static_cast<std::size_t>(stack_.back())].end_ns = monotonic_ns();
    stack_.pop_back();
  }
  bool write(const std::string& path) const {
    std::ofstream os(path);
    for (const Span& s : spans_) {
      os << "{\"name\":\"" << s.name << "\",\"trial\":" << s.trial
         << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
         << ",\"parent\":" << s.parent << "}\n";
    }
    return static_cast<bool>(os);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Scoped span: the span covers the guard's lifetime.
class SpanScope {
 public:
  SpanScope(SpanLog& log, const char* name, std::uint64_t trial)
      : log_(log) {
    log_.open(name, trial);
  }
  ~SpanScope() { log_.close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog& log_;
};

abe::Topology build_trial_topology(const ScenarioSpec& spec,
                                   std::uint64_t seed) {
  // Same substream as run_scenario_trial's topology draw.
  abe::Rng rng = abe::Rng(seed).substream("scenario-topology");
  return spec.topology.build(rng);
}

// run_scenario_trial with run_algorithm_trial's lifecycle inlined and a
// span around each public call. The outcome must equal run_scenario_trial's
// for the same seed on the simulator; run.py checks that.
TrialRecord traced_trial(const ScenarioSpec& spec, std::uint64_t seed,
                         SpanLog& log) {
  TrialRecord record;
  record.seed = seed;
  const auto wall_start = Clock::now();
  log.open("trial", seed);
  {
    auto topology = std::make_unique<abe::Topology>();
    abe::ScenarioTrialDriver binding;
    abe::RuntimeConfig config;
    {
      SpanScope span(log, "net.topology_build", seed);
      *topology = build_trial_topology(spec, seed);
    }
    {
      SpanScope span(log, "scenario.driver", seed);
      binding = abe::make_scenario_driver(spec, *topology, seed);
      config = abe::scenario_runtime_config(spec, *topology, seed);
    }
    abe::AlgorithmDriver& driver = *binding.driver;
    {
      SpanScope span(log, "algo.configure", seed);
      const double f0 = usage_now().minflt;
      driver.configure(config);
      record.configure_minflt = usage_now().minflt - f0;
    }
    const abe::SimTime deadline = config.deadline;
    const bool want_metrics = config.metrics;
    std::unique_ptr<abe::Runtime> rt;
    const auto phase_begin = Clock::now();
    {
      SpanScope span(log, "runtime.construct", seed);
      rt = abe::make_runtime(spec.runtime, std::move(config));
    }
    {
      SpanScope span(log, "runtime.build_nodes", seed);
      const double f0 = usage_now().minflt;
      rt->build_nodes([&driver](std::size_t i) { return driver.make_node(i); });
      record.build_nodes_minflt = usage_now().minflt - f0;
    }
    const auto phase_built = Clock::now();
    bool completed = false;
    {
      SpanScope span(log, "runtime.run", seed);
      rt->start();
      completed =
          rt->run_until_done([&] { return driver.done(*rt); }, deadline);
    }
    const auto phase_ran = Clock::now();
    if (completed) {
      SpanScope span(log, "algo.on_complete", seed);
      driver.on_complete(*rt);
    }
    abe::Trace decided_trace;
    if (completed) {
      SpanScope span(log, "trace.snapshot", seed);
      decided_trace = rt->trace_snapshot();
    }
    {
      SpanScope span(log, "runtime.settle", seed);
      driver.settle(*rt, completed);
      rt->stop();
    }
    const auto phase_settled = Clock::now();
    abe::TrialOutcome outcome;
    {
      SpanScope span(log, "algo.extract", seed);
      outcome = driver.extract(*rt, completed);
    }
    outcome.wall.build_ms = ms_between(phase_begin, phase_built);
    outcome.wall.run_ms = ms_between(phase_built, phase_ran);
    outcome.wall.settle_ms = ms_between(phase_ran, phase_settled);
    outcome.wall.total_ms = ms_between(phase_begin, phase_settled);
    if (want_metrics) {
      SpanScope span(log, "obs.metrics_snapshot", seed);
      outcome.metrics = rt->metrics_snapshot();
      outcome.has_metrics = true;
    }
    if (outcome.completed && outcome.decision_node >= 0) {
      SpanScope span(log, "obs.critical_path", seed);
      const abe::CriticalPath path = abe::extract_critical_path(
          decided_trace.events(), abe::NodeId{outcome.decision_node},
          outcome.time);
      outcome.critical_path = abe::CriticalPathStats::from_path(path);
      outcome.has_critical_path = true;
    }
    {
      SpanScope span(log, "obs.timeseries", seed);
      abe::TimeSeries series = rt->timeseries_snapshot();
      if (series.enabled()) {
        series.trials = 1;
        outcome.timeseries = std::move(series);
        outcome.has_timeseries = true;
      }
    }
    if (!outcome.completed || outcome.stalled || !outcome.safety_ok) {
      SpanScope span(log, "trace.flight_tail", seed);
      outcome.flight_tail = rt->trace_snapshot().events();
    }
    {
      SpanScope span(log, "scenario.project", seed);
      record.outcome = binding.project(outcome);
    }
    {
      // Destructors: the runtime (joins node threads, frees the network),
      // then the driver binding and the topology.
      SpanScope span(log, "runtime.teardown", seed);
      rt.reset();
      binding = abe::ScenarioTrialDriver{};
      topology.reset();
    }
  }
  log.close();
  record.wall_ms = ms_between(wall_start, Clock::now());
  return record;
}

int run_setup(const ScenarioSpec& spec, std::uint64_t seed) {
  const abe::Topology topology = build_trial_topology(spec, seed);
  abe::ScenarioTrialDriver binding =
      abe::make_scenario_driver(spec, topology, seed);
  abe::RuntimeConfig config = abe::scenario_runtime_config(spec, topology, seed);
  binding.driver->configure(config);
  std::unique_ptr<abe::Runtime> rt =
      abe::make_runtime(spec.runtime, std::move(config));
  abe::AlgorithmDriver& driver = *binding.driver;
  rt->build_nodes([&driver](std::size_t i) { return driver.make_node(i); });
  rt->start();
  const std::int64_t started_ns = monotonic_ns();
  rt->stop();
  std::cout << "{\"mode\":\"setup\",\"started_ns\":" << started_ns << "}\n";
  return 0;
}

struct Args {
  std::string mode;
  std::string workload;
  std::vector<std::uint64_t> seeds;  // one pass, in run order
  // Repeat whole passes until at least this long and this many passes.
  double seconds = 0.0;
  std::uint64_t min_passes = 1;
  std::string spans;
};

bool parse_seeds(const std::string& text, std::vector<std::uint64_t>* out) {
  std::istringstream is(text);
  std::string item;
  while (std::getline(is, item, ',')) {
    char* end = nullptr;
    const std::uint64_t seed = std::strtoull(item.c_str(), &end, 10);
    if (item.empty() || *end != '\0' || seed == 0) return false;
    out->push_back(seed);
  }
  return !out->empty();
}

bool parse_args(int argc, char** argv, Args* a) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--mode") {
      a->mode = value;
    } else if (key == "--workload") {
      a->workload = value;
    } else if (key == "--seeds") {
      if (!parse_seeds(value, &a->seeds)) return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--min-passes") {
      a->min_passes = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--spans") {
      a->spans = value;
    } else {
      return false;
    }
  }
  return !a->mode.empty() && !a->workload.empty() && !a->seeds.empty();
}

}  // namespace

int main(int argc, char** argv) {
  for (const char* var : {"ABE_EQUEUE", "ABE_TRIAL_THREADS"}) {
    if (std::getenv(var) != nullptr) {
      std::cerr << var << " is set; unset it so the benchmark measures the "
                << "default path\n";
      return 2;
    }
  }
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::cerr << "usage: e2ebench_driver --mode plain|traced|setup "
                 "--workload NAME --seeds S1,S2,... [--seconds T] "
                 "[--min-passes K] [--spans PATH]\n";
    return 2;
  }
  ScenarioSpec spec;
  if (!make_workload(args.workload, &spec)) {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  const std::string problem = abe::runtime_cell_problem(spec);
  if (!problem.empty()) {
    std::cerr << spec.cell_id() << ": " << problem << "\n";
    return 2;
  }
  if (args.mode == "setup") return run_setup(spec, args.seeds.front());
  if (args.mode != "plain" && args.mode != "traced") {
    std::cerr << "unknown mode " << args.mode << "\n";
    return 2;
  }

  std::vector<TrialRecord> records;
  SpanLog log;
  const Usage before = usage_now();
  const auto begin = Clock::now();
  // Whole passes over the seed list, so every run weighs each seed the
  // same, until both --seconds and --min-passes are reached.
  std::uint64_t passes = 0;
  do {
    for (const std::uint64_t seed : args.seeds) {
      if (spec.runtime == abe::RuntimeKind::kSim) pin_fastest_cpu();
      if (args.mode == "traced") {
        records.push_back(traced_trial(spec, seed, log));
        continue;
      }
      TrialRecord r;
      r.seed = seed;
      const double cpu0 = usage_now().cpu_ms;
      const auto t0 = Clock::now();
      r.outcome = abe::run_scenario_trial(spec, seed);
      r.wall_ms = ms_between(t0, Clock::now());
      r.cpu_ms = usage_now().cpu_ms - cpu0;
      records.push_back(std::move(r));
    }
    ++passes;
  } while (ms_between(begin, Clock::now()) < args.seconds * 1e3 ||
           passes < args.min_passes);
  if (!args.spans.empty() && !log.write(args.spans)) {
    std::cerr << "cannot write spans to " << args.spans << "\n";
    return 1;
  }
  const double elapsed_ms = ms_between(begin, Clock::now());
  const Usage after = usage_now();

  std::string out = "{\"mode\":\"" + args.mode + "\",\"workload\":\"" +
                    args.workload + "\",\"cell_id\":\"" + spec.cell_id() +
                    "\",\"equeue_default\":\"" +
                    abe::equeue_backend_name(
                        abe::resolve_equeue_backend(abe::EqueueBackend::kAuto)) +
                    "\",\"compiler\":\"" E2EBENCH_COMPILER
                    "\",\"build_type\":\"" E2EBENCH_BUILD_TYPE
                    "\",\"elapsed_ms\":" + json_number(elapsed_ms) +
                    ",\"cpu_ms\":" + json_number(after.cpu_ms - before.cpu_ms) +
                    ",\"peak_rss_mb\":" + json_number(peak_rss_mb()) +
                    ",\"trials\":[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i > 0) out += ",";
    append_record(records[i], &out);
  }
  out += "]}\n";
  std::cout << out;
  return 0;
}
