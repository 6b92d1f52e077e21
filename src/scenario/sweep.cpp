#include "scenario/sweep.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>

#include "core/trial_pool.h"
#include "scenario/drivers.h"
#include "stats/table.h"
#include "util/check.h"

namespace abe {

void ScenarioAggregate::merge(const ScenarioAggregate& other) {
  messages.merge(other.messages);
  time.merge(other.time);
  trials += other.trials;
  failures += other.failures;
  stalled += other.stalled;
  safety_violations += other.safety_violations;
  // Seed-ordered: chunks are merged in seed order (trial_pool contract)
  // and each chunk appends its seeds ascending.
  violation_seeds.insert(violation_seeds.end(),
                         other.violation_seeds.begin(),
                         other.violation_seeds.end());
  // Commutative by construction (sum / max / bucket-sum), so the chunk
  // tree's merge order cannot change the result.
  metrics.merge(other.metrics);
  wall += other.wall;
  critical_path.merge(other.critical_path);
  timeseries.merge(other.timeseries);
}

ScenarioAggregate run_scenario_trials(const ScenarioSpec& spec,
                                      std::uint64_t trials,
                                      std::uint64_t seed_base,
                                      unsigned threads) {
  return run_seed_chunked_trials<ScenarioAggregate>(
      trials, seed_base, threads,
      [&spec](std::uint64_t seed_lo, std::uint64_t seed_hi,
              ScenarioAggregate& out) {
        for (std::uint64_t s = seed_lo; s < seed_hi; ++s) {
          const ScenarioTrialResult run = run_scenario_trial(spec, s);
          ++out.trials;
          // Harvest observability from every trial, failed ones included —
          // the metrics of a stalled cell are exactly what report exists
          // to show.
          if (run.has_metrics) out.metrics.merge(run.metrics);
          out.wall += run.wall;
          if (run.has_critical_path) out.critical_path.add(run.critical_path, s);
          if (run.has_timeseries) out.timeseries.merge(run.timeseries);
          if (!run.completed) {
            if (run.stalled) {
              ++out.stalled;
            } else {
              ++out.failures;
            }
            continue;
          }
          if (!run.safety_ok) {
            ++out.safety_violations;
            // The capture that makes a violation actionable: replay this
            // seed via replay_scenario_trial (or `abe_scenarios replay`)
            // to get the full event trace.
            out.violation_seeds.push_back(s);
          }
          out.messages.add(static_cast<double>(run.messages));
          out.time.add(run.time);
        }
      });
}

std::vector<SweepCellOutcome> run_sweep(
    const std::vector<ScenarioSpec>& cells, std::uint64_t trials,
    std::uint64_t seed_base, unsigned threads,
    const SweepProgressFn& progress) {
  std::vector<SweepCellOutcome> outcomes;
  outcomes.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ScenarioSpec& spec = cells[i];
    const std::uint64_t cell_trials =
        trials > 0 ? trials : spec.default_trials;
    SweepCellOutcome outcome;
    outcome.spec = spec;
    outcome.aggregate =
        run_scenario_trials(spec, cell_trials, seed_base, threads);
    outcomes.push_back(std::move(outcome));
    if (progress) progress(i, cells.size(), outcomes.back());
  }
  return outcomes;
}

// ---------------------------------------------------------------------------
// JSON

namespace {

// Same number style as MetricsSnapshot::append_json: integers bare,
// everything else at max_digits10 so a byte-equal document means
// bit-equal values.
std::string json_number(double v) {
  const double r = std::nearbyint(v);
  if (r == v && std::fabs(v) < 9.007199254740992e15) {
    std::ostringstream os;
    os << static_cast<long long>(r);
    return os.str();
  }
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

void append_critical_path_json(const CriticalPathAggregate& aggregate,
                               std::string* out) {
  ABE_CHECK(out != nullptr);
  std::string& s = *out;
  s += "{\"considered\": ";
  s += json_number(static_cast<double>(aggregate.considered));
  s += ", \"found\": ";
  s += json_number(static_cast<double>(aggregate.found));
  s += ", \"truncated\": ";
  s += json_number(static_cast<double>(aggregate.truncated));
  s += ", \"hops\": " + aggregate.hops.to_json();
  s += ", \"span\": " + aggregate.span.to_json();
  s += ", \"channel_delay\": " + aggregate.channel_delay.to_json();
  s += ", \"processing\": " + aggregate.processing.to_json();
  s += ", \"queueing\": " + aggregate.queueing.to_json();
  s += ", \"waiting\": " + aggregate.waiting.to_json();
  s += ", \"top_channels\": [";
  // A large cell has O(n) channels; the heaviest few are what a reader can
  // act on, and the per-hop Summary above already carries the totals.
  constexpr std::size_t kTopChannels = 8;
  const std::vector<EdgeShare> top = aggregate.top_channels(kTopChannels);
  for (std::size_t i = 0; i < top.size(); ++i) {
    if (i > 0) s += ", ";
    s += "{\"edge\": " + json_number(static_cast<double>(top[i].edge));
    s += ", \"hops\": " + json_number(static_cast<double>(top[i].hops));
    s += ", \"delay\": " + json_number(top[i].delay) + "}";
  }
  s += "]";
  if (aggregate.has_worst) {
    s += ", \"worst\": {\"seed\": ";
    s += json_number(static_cast<double>(aggregate.worst_seed));
    s += ", \"span\": " + json_number(aggregate.worst_span) + "}";
  }
  s += "}";
}

// The "equeue" fields are constant: the scheduler has one event queue, and
// schema v7 keeps the field its validators expect.
void write_sweep_json(std::ostream& os, const SweepRunMetadata& metadata,
                      const std::vector<SweepCellOutcome>& outcomes) {
  os << "{\n"
     << "  \"schema\": \"abe-scenario-sweep-v7\",\n"
     << "  \"metadata\": {\n"
     << "    \"git_sha\": \"" << json_escape(metadata.git_sha) << "\",\n"
     << "    \"compiler\": \"" << json_escape(metadata.compiler) << "\",\n"
     << "    \"build_type\": \"" << json_escape(metadata.build_type)
     << "\",\n"
     << "    \"equeue\": \"heap\",\n"
     << "    \"runtime\": \"" << json_escape(metadata.runtime) << "\",\n"
     << "    \"trial_threads\": " << metadata.threads << ",\n"
     << "    \"trials\": " << metadata.trials << ",\n"
     << "    \"seed_base\": " << metadata.seed_base << "\n"
     << "  },\n"
     << "  \"cells\": [";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const ScenarioSpec& spec = outcomes[i].spec;
    const ScenarioAggregate& agg = outcomes[i].aggregate;
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\n"
       << "      \"cell\": \"" << json_escape(spec.cell_id()) << "\",\n"
       << "      \"scenario\": \"" << json_escape(spec.name) << "\",\n"
       << "      \"algorithm\": \""
       << scenario_algorithm_name(spec.algorithm) << "\",\n"
       << "      \"topology\": {\"family\": \""
       << topology_family_name(spec.topology.family)
       << "\", \"n\": " << spec.topology.n
       << ", \"param\": " << spec.topology.param << "},\n"
       << "      \"delay\": {\"model\": \"" << json_escape(spec.delay_name)
       << "\", \"mean\": " << spec.mean_delay << "},\n"
       << "      \"clock\": {\"s_low\": " << spec.clock_bounds.s_low
       << ", \"s_high\": " << spec.clock_bounds.s_high << ", \"drift\": \""
       << drift_model_name(spec.drift) << "\"},\n"
       << "      \"failure\": \"" << json_escape(spec.failure.describe())
       << "\",\n"
       << "      \"behavior\": \"" << json_escape(spec.behavior.describe())
       << "\",\n"
       << "      \"adversary\": \""
       << json_escape(spec.adversary.empty() ? "none" : spec.adversary)
       << "\",\n"
       << "      \"equeue\": \"heap\",\n"
       << "      \"runtime\": \""
       << runtime_kind_name(spec.runtime) << "\",\n"
       << "      \"trials\": " << agg.trials << ",\n"
       << "      \"failures\": " << agg.failures << ",\n"
       << "      \"stalled\": " << agg.stalled << ",\n"
       << "      \"safety_violations\": " << agg.safety_violations << ",\n"
       << "      \"violation_seeds\": [";
    // Cap the emitted list: the count above is authoritative, the seeds
    // are a replay convenience — a pathological cell must not bloat the
    // document.
    constexpr std::size_t kMaxSeeds = 16;
    const std::size_t emit =
        std::min(agg.violation_seeds.size(), kMaxSeeds);
    for (std::size_t k = 0; k < emit; ++k) {
      os << (k == 0 ? "" : ", ") << agg.violation_seeds[k];
    }
    std::string metrics_json;
    agg.metrics.append_json(&metrics_json);
    std::string critical_path_json;
    append_critical_path_json(agg.critical_path, &critical_path_json);
    os << "],\n"
       << "      \"messages\": " << agg.messages.to_json() << ",\n"
       << "      \"time\": " << agg.time.to_json() << ",\n"
       << "      \"metrics\": " << metrics_json << ",\n"
       << "      \"critical_path\": " << critical_path_json << ",\n";
    if (agg.timeseries.enabled()) {
      std::string timeseries_json;
      agg.timeseries.append_json(&timeseries_json);
      // append_json emits a `"timeseries": {...}` key-value pair.
      os << "      " << timeseries_json << ",\n";
    }
    os << "      \"wall\": {\"build_ms\": " << agg.wall.build_ms
       << ", \"run_ms\": " << agg.wall.run_ms
       << ", \"settle_ms\": " << agg.wall.settle_ms
       << ", \"total_ms\": " << agg.wall.total_ms << "}\n    }";
  }
  os << "\n  ]\n}\n";
}

std::string render_sweep_table(
    const std::vector<SweepCellOutcome>& outcomes) {
  Table table({"cell", "trials", "ok", "fail", "stall", "unsafe",
               "messages", "time"});
  for (const SweepCellOutcome& outcome : outcomes) {
    const ScenarioAggregate& agg = outcome.aggregate;
    // ok = completed AND safe, so ok + fail + stall + unsafe == trials.
    const std::uint64_t ok =
        agg.messages.count() - agg.safety_violations;
    table.add_row(
        {outcome.spec.cell_id(),
         Table::fmt_int(static_cast<std::int64_t>(agg.trials)),
         Table::fmt_int(static_cast<std::int64_t>(ok)),
         Table::fmt_int(static_cast<std::int64_t>(agg.failures)),
         Table::fmt_int(static_cast<std::int64_t>(agg.stalled)),
         Table::fmt_int(static_cast<std::int64_t>(agg.safety_violations)),
         Table::fmt(agg.messages.mean(), 1), Table::fmt(agg.time.mean(), 1)});
  }
  return table.render();
}

std::string render_metrics_report(
    const std::vector<SweepCellOutcome>& outcomes) {
  std::ostringstream os;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const ScenarioAggregate& agg = outcomes[i].aggregate;
    if (i > 0) os << "\n";
    os << "=== " << outcomes[i].spec.cell_id() << " ===\n";
    os << "trials: " << agg.trials << "  wall: build "
       << agg.wall.build_ms << " ms, run " << agg.wall.run_ms
       << " ms, settle " << agg.wall.settle_ms << " ms, total "
       << agg.wall.total_ms << " ms\n";
    if (agg.metrics.empty()) {
      os << "(no metrics harvested)\n";
    } else {
      os << agg.metrics.render();
    }
  }
  return os.str();
}

}  // namespace abe
