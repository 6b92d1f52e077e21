#!/usr/bin/env python3
"""End-to-end trial benchmark for the abe library.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload ring-sim-1024 --seed 1 --seconds 15 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 15 --trace 0

The script builds e2ebench_driver (the abe library from src/ plus
e2ebench/driver.cpp) with CMake into $CARGO_TARGET_DIR, or .bench_build when
that is unset, then measures one workload and prints, as the last line of
standard output, one JSON object {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones, measured
with tracing off; with --trace 1 they are the per-layer ones from a traced
run. Lines before the last one give provenance and detail.

Inputs. A workload is a fixed scenario cell run over a fixed range of trial
seeds, [--seed-base, --seed-base + pool). --seed sets the order in which that
range runs; the same --seed gives the same trials in the same order. The
default seed base is 1; 1000001 is held out for confirming a gain claim on
inputs the change was not written against. Per-trial cost on ring-sim-1024
varies with the seed (coefficient of variation ~0.57), so each run repeats
whole passes over the range: every run weighs every seed the same, and the
parent and a change are compared on identical inputs.

Timing. The end-to-end times are taken per seed as the best of that seed's
passes, then summarised over the seed range. On shared virtual machines the
speed of a fixed spin loop swings by up to 2x in phases of 10-30 s, and that
interference only ever slows a trial; the best of several passes filters it
where a mean or median over all passes would carry it into the result.

The program's outputs are checked; the script exits nonzero if any trial is
unsafe, or, on the simulator workloads, if a seed's outcome (completed,
messages, time) or its exact counts (sim.events, net.ticks, net.sent,
trace.records) differ between two plain runs of it or between the plain and
the traced run.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

DEFAULT_SEED_BASE = 1
HELD_OUT_SEED_BASE = 1000001

# pool: trial seeds per workload. passes: the fewest whole passes over the
# pool a --trace 0 run makes, so each seed's best is taken over that many
# trials; one run takes ~15-25 s on a 4-core x86 box. Seeds vary more in
# cost on the ring than on the torus, so the ring gets more seeds and the
# torus more passes. time_scale_us: the wall microseconds per sim unit the
# cell runs at (the ScenarioSpec default), used to report arq.rtt in us.
WORKLOADS = {
    "ring-sim-1024": {"pool": 8, "passes": 5, "sim": True},
    "polling-torus-10k": {"pool": 6, "passes": 6, "sim": True},
    "ring-thread-8": {"pool": 20, "passes": 6, "sim": False},
    "ring-udp-arq-8": {"pool": 12, "passes": 10, "sim": False, "time_scale_us": 200.0},
}

# Set-up probes: at least SETUP_PROBES fresh processes, more while they
# take under SETUP_PROBE_SECONDS in all.
SETUP_PROBES = 5
SETUP_PROBE_SECONDS = 2.0
SETUP_PROBES_MAX = 25
EXACT_COUNTS = {
    "sim.events": "sched.popped",
    "net.ticks": "net.ticks",
    "net.sent": "net.sent",
    "trace.records": "trace.recorded",
}

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_tail": "ms",
    "decide_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_ms_per_trial": "ms",
    "completed_share": "ratio",
}

# Self time of each traced span, reported as <span>_ms.
SPAN_METRICS = [
    "net.topology_build",
    "scenario.driver",
    "algo.configure",
    "runtime.construct",
    "runtime.build_nodes",
    "runtime.run",
    "algo.on_complete",
    "trace.snapshot",
    "runtime.settle",
    "algo.extract",
    "obs.metrics_snapshot",
    "obs.critical_path",
    "scenario.project",
    "runtime.teardown",
]

PER_LAYER_UNITS = dict(
    {name + "_ms": "ms" for name in SPAN_METRICS},
    **{
        "algo.configure_minflt": "count",
        "runtime.build_nodes_minflt": "count",
        "sim.events": "count",
        "sim.events_per_s": "1/s",
        "sim.queue_high_water": "count",
        "net.ticks": "count",
        "net.useful_event_ratio": "ratio",
        "net.useful_event_ratio_base": "count",
        "trace.records": "count",
        "thread.cv_wakeups": "count",
        "thread.mailbox_high_water": "count",
        "thread.handler_us_mean": "us",
        "udp.cv_wakeups": "count",
        "udp.retransmits": "count",
        "udp.transit_us_p50": "us",
        "arq.rtt_us_p50": "us",
        "udp.goodput_ratio": "ratio",
        "udp.goodput_ratio_base": "count",
        "bench.unspanned_ms": "ms",
        "bench.trace_overhead": "ms",
        "bench.outside_wall_phases_ms": "ms",
    },
)


class BenchError(Exception):
    """The benchmark could not run or its output check failed."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


# --- build -----------------------------------------------------------------


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "e2ebench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("abe sources (src/) not found next to e2ebench/")
    out = build_dir()
    driver = out / "e2ebench_driver"
    # The compiler's temporary files stay inside the build directory too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", str(out), "--target", "e2ebench_driver", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0 or not driver.is_file():
        raise BenchError("build failed")
    return driver


# --- provenance ------------------------------------------------------------


def source_digest():
    """sha256 over the files the driver is built from, read now."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


# --- driver invocations ----------------------------------------------------


def run_driver(driver, args, timeout):
    cmd = [str(driver)] + [str(a) for a in args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"driver timed out after {timeout:.0f} s: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise BenchError(f"driver failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seed_order(workload, seed, seed_base):
    seeds = [seed_base + i for i in range(WORKLOADS[workload]["pool"])]
    random.Random(f"{workload}/{seed}").shuffle(seeds)
    return ",".join(map(str, seeds))


def setup_seconds(driver, workload, seeds):
    """Median over fresh processes of process start -> first trial's start()."""
    samples = []
    begin = time.monotonic()
    while len(samples) < SETUP_PROBES or (
            len(samples) < SETUP_PROBES_MAX
            and time.monotonic() - begin < SETUP_PROBE_SECONDS):
        spawned = time.monotonic_ns()
        doc = run_driver(driver, ["--mode", "setup", "--workload", workload,
                                  "--seeds", seeds], timeout=60)
        samples.append((doc["started_ns"] - spawned) / 1e9)
    return median(samples)


# --- output check ----------------------------------------------------------


def outcome_key(trial):
    counts = tuple(trial["metrics"].get(m) for m in EXACT_COUNTS.values())
    return (trial["completed"], trial["stalled"], trial["messages"], trial["time"], counts)


def check_trials(workload, *runs):
    """Raises BenchError on an unsafe trial or, on the simulator, on any
    seed whose outcome or exact counts differ between runs."""
    reference = {}
    for run in runs:
        for trial in run["trials"]:
            if trial["completed"] and not trial["safety_ok"]:
                raise BenchError(f"{workload}: seed {trial['seed']} is unsafe")
            if not WORKLOADS[workload]["sim"]:
                continue
            key = outcome_key(trial)
            first = reference.setdefault(trial["seed"], (run["mode"], key))
            if first[1] != key:
                raise BenchError(
                    f"{workload}: seed {trial['seed']} differs between the "
                    f"{first[0]} and {run['mode']} runs: {first[1]} vs {key}")


def failed(trial):
    return not trial["completed"] or trial["stalled"]


# --- end-to-end metrics ----------------------------------------------------


def tail(values):
    """Highest percentile with >= 10 samples beyond it: (value, pct, n)."""
    ordered = sorted(values)
    rank = len(ordered) - 10  # 1-based rank of the sample with 10 above it
    if rank < 1:
        raise BenchError(f"only {len(ordered)} samples; trial_ms_tail needs 11")
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered)


def best_per_seed(trials, field):
    best = {}
    for t in trials:
        best[t["seed"]] = min(best.get(t["seed"], t[field]), t[field])
    return list(best.values())


def end_to_end(driver, workload, seeds, seconds):
    setup_s = setup_seconds(driver, workload, seeds)
    plain = run_driver(driver, ["--mode", "plain", "--workload", workload,
                                "--seeds", seeds, "--seconds", seconds,
                                "--min-passes", WORKLOADS[workload]["passes"]],
                       timeout=seconds + 120)
    runs = [plain]
    if WORKLOADS[workload]["sim"]:
        first = seeds.split(",")[0]
        runs.append(run_driver(driver, ["--mode", "traced", "--workload", workload,
                                        "--seeds", first], timeout=60))
    check_trials(workload, *runs)

    trials = plain["trials"]
    decided = [t for t in trials if not failed(t)]
    walls = best_per_seed(trials, "wall_ms")
    # A percentile with ten seeds beyond it would sit below the median of
    # these pools, so the tail is taken over every trial of the run.
    tail_ms, tail_pct, tail_n = tail([t["wall_ms"] for t in trials])
    metrics = {
        "trials_per_s": len(walls) / (sum(walls) / 1e3),
        "trial_ms_p50": median(walls),
        "trial_ms_tail": tail_ms,
        "decide_ms_p50": median(best_per_seed(decided, "phase_run_ms")),
        "setup_s": setup_s,
        "peak_rss_mb": plain["peak_rss_mb"],
        "cpu_ms_per_trial": statistics.mean(best_per_seed(trials, "cpu_ms")),
        "completed_share": len(decided) / len(trials),
    }
    detail = {
        "trial_ms_tail": {"percentile": round(tail_pct, 2), "samples": tail_n},
        "trials": len(trials),
        "all_trials": {
            "trials_per_s": len(trials) / (plain["elapsed_ms"] / 1e3),
            "trial_ms_p50": median([t["wall_ms"] for t in trials]),
            "cpu_ms_per_trial": plain["cpu_ms"] / len(trials),
        },
    }
    return plain, metrics, detail


# --- per-layer metrics -----------------------------------------------------


def read_spans(path):
    spans = [json.loads(line) for line in path.read_text().splitlines() if line]
    for span in spans:
        span["ms"] = (span["end_ns"] - span["start_ns"]) / 1e6
        span["self_ms"] = span["ms"]
    trials = []
    for index, span in enumerate(spans):
        if span["parent"] < 0:
            span["self"] = {}
            trials.append(span)
            span["root"] = index
        else:
            parent = spans[span["parent"]]
            parent["self_ms"] -= span["ms"]
            span["root"] = parent["root"]
    for span in spans:
        root = spans[span["root"]]
        root["self"][span["name"]] = root["self"].get(span["name"], 0.0) + span["self_ms"]
    return trials


def snapshot_value(trial, name, field=None):
    value = trial["metrics"].get(name, 0.0)
    if field is not None:
        return value[field] if isinstance(value, dict) else 0.0
    return value


def per_layer(driver, workload, seeds, seconds, spans_path):
    spec = WORKLOADS[workload]
    half = seconds / 2
    plain = run_driver(driver, ["--mode", "plain", "--workload", workload,
                                "--seeds", seeds, "--seconds", half], timeout=half + 100)
    traced = run_driver(driver, ["--mode", "traced", "--workload", workload,
                                 "--seeds", seeds, "--seconds", half,
                                 "--spans", spans_path], timeout=half + 100)
    check_trials(workload, plain, traced)
    roots = read_spans(Path(spans_path))
    if len(roots) != len(traced["trials"]):
        raise BenchError(f"{len(roots)} traced spans for {len(traced['trials'])} trials")

    values = {}
    for name in SPAN_METRICS:
        values[name + "_ms"] = median([r["self"].get(name, 0.0) for r in roots])
    values["bench.unspanned_ms"] = median([r["self"]["trial"] for r in roots])

    trials = traced["trials"]
    values["algo.configure_minflt"] = median([t["configure_minflt"] for t in trials])
    values["runtime.build_nodes_minflt"] = median([t["build_nodes_minflt"] for t in trials])
    values["net.ticks"] = median([snapshot_value(t, "net.ticks") for t in trials])
    values["trace.records"] = median([snapshot_value(t, "trace.recorded") for t in trials])

    zero = ["sim.events", "sim.events_per_s", "sim.queue_high_water",
            "net.useful_event_ratio", "net.useful_event_ratio_base",
            "thread.cv_wakeups", "thread.mailbox_high_water", "thread.handler_us_mean",
            "udp.cv_wakeups", "udp.retransmits", "udp.transit_us_p50",
            "arq.rtt_us_p50", "udp.goodput_ratio", "udp.goodput_ratio_base"]
    values.update({name: 0.0 for name in zero})
    if spec["sim"]:
        popped = [snapshot_value(t, "sched.popped") for t in trials]
        loop_s = [(r["self"]["runtime.run"] + r["self"]["runtime.settle"]) / 1e3 for r in roots]
        values["sim.events"] = median(popped)
        values["sim.events_per_s"] = median([p / s for p, s in zip(popped, loop_s)])
        values["sim.queue_high_water"] = median(
            [snapshot_value(t, "sched.queue_high_water") for t in trials])
        values["net.useful_event_ratio"] = median(
            [snapshot_value(t, "net.delivered") / p for t, p in zip(trials, popped)])
        values["net.useful_event_ratio_base"] = values["sim.events"]
    elif workload == "ring-thread-8":
        values["thread.cv_wakeups"] = median([snapshot_value(t, "thread.cv_wakeups") for t in trials])
        values["thread.mailbox_high_water"] = median(
            [snapshot_value(t, "thread.mailbox_high_water") for t in trials])
        values["thread.handler_us_mean"] = median([
            snapshot_value(t, "thread.handler_us.sum")
            / max(1.0, sum(snapshot_value(t, m) for m in ("net.delivered", "net.ticks", "net.timers")))
            for t in trials])
    else:
        sent = [snapshot_value(t, "udp.datagrams_tx") + snapshot_value(t, "udp.acks_tx")
                for t in trials]
        values["udp.cv_wakeups"] = median([snapshot_value(t, "udp.cv_wakeups") for t in trials])
        values["udp.retransmits"] = median([snapshot_value(t, "udp.retransmits") for t in trials])
        values["udp.transit_us_p50"] = median([snapshot_value(t, "udp.transit_us", "p50") for t in trials])
        values["arq.rtt_us_p50"] = median(
            [snapshot_value(t, "arq.rtt", "p50") * spec["time_scale_us"] for t in trials])
        values["udp.goodput_ratio"] = median(
            [snapshot_value(t, "net.delivered") / max(1.0, s) for t, s in zip(trials, sent)])
        values["udp.goodput_ratio_base"] = median(sent)

    # Reconciliation: the self times of a traced trial sum to its root span;
    # what that exceeds the untraced wall of the same seed by is the cost of
    # tracing. The untraced trial wall outside the program's WallPhaseTimes
    # is topology, driver, configure, observation and teardown.
    plain_wall = {}
    for t in plain["trials"]:
        plain_wall.setdefault(t["seed"], []).append(t["wall_ms"])
    values["bench.trace_overhead"] = median(
        [r["ms"] - median(plain_wall[r["trial"]]) for r in roots])
    values["bench.outside_wall_phases_ms"] = median(
        [t["wall_ms"] - t["phase_total_ms"] for t in plain["trials"]])
    return traced, values


# --- main ------------------------------------------------------------------


def measure(driver, workload, seed, seed_base, seconds, trace):
    seeds = seed_order(workload, seed, seed_base)
    if trace:
        spans_path = build_dir() / f"spans-{workload}.jsonl"
        run, values = per_layer(driver, workload, seeds, seconds, str(spans_path))
        units, detail = PER_LAYER_UNITS, {"spans": str(spans_path)}
    else:
        run, values, detail = end_to_end(driver, workload, seeds, seconds)
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"workload": workload, "cell_id": run["cell_id"],
                      "seeds": seeds, "detail": detail}))
    for name, m in metrics.items():
        print(f"  {workload:18s} {name:32s} {m['value']:14.4f} {m['unit']}")
    return {
        "correct": True,
        "attempted": len(run["trials"]),
        "failed": sum(failed(t) for t in run["trials"]),
        "metrics": metrics,
    }, run


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed-base", type=int, default=DEFAULT_SEED_BASE,
                        help=f"first trial seed (held-out base: {HELD_OUT_SEED_BASE})")
    args = parser.parse_args()
    for var in ("ABE_EQUEUE", "ABE_TRIAL_THREADS"):
        if var in os.environ:
            log(f"{var} is set; unset it so the benchmark measures the default path")
            return 2
    if args.seed_base < 1 or args.seconds <= 0:
        parser.error("--seed-base must be >= 1 and --seconds > 0")

    try:
        driver = build()
        workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        results = []
        provenance = None
        for workload in workloads:
            result, run = measure(driver, workload, args.seed, args.seed_base,
                                  args.seconds, args.trace)
            results.append((workload, result))
            provenance = provenance or {
                "git_sha": git_sha(),
                "source_digest": source_digest(),
                "compiler": run["compiler"],
                "build_type": run["build_type"],
                "nproc": os.cpu_count(),
                "equeue_default": run["equeue_default"],
                "seed": args.seed,
                "seed_base": args.seed_base,
                "held_out_seed_base": HELD_OUT_SEED_BASE,
                "trace": args.trace,
            }
    except BenchError as err:
        log(f"e2ebench: {err}")
        return 1
    print(json.dumps({"provenance": provenance}))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{w}/{name}": m for w, r in results for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
