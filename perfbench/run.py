#!/usr/bin/env python3
"""Host-time benchmark of the LeOPArd reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py compare BASE.jsonl NEW.jsonl

The first form builds the harness (perfbench/, a Cargo package of its own)
into $CARGO_TARGET_DIR (default .bench_build), then runs it in child
processes:

* set-up probes: fresh processes that each time one set-up, that is runner
  and pool start-up, kernel-path detection and the fitted_cost_model
  calibration. The calibration is cached for the life of a process, so
  set-up can only be measured in fresh ones; setup_s is the median.
* --trace 0: untraced children repeat the workload, each time on a fresh
  runner (their peak RSS is peak_rss_mb), taking turns with children that
  repeat it with the program's telemetry on. Prints every end-to-end metric
  of BENCHMARK.json.
* --trace 1: untraced, telemetry and traced-pass children take turns.
  Prints every per-layer metric of BENCHMARK.json.

Every repetition's output is checked against perfbench/expected.txt; a
repetition that panics or does not match counts as failed. The last stdout
line is the result JSON. Each result is also appended, with the
host fingerprint, to <target>/perfbench/results.jsonl; `compare` reads two
such files and refuses to compare results whose fingerprints differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite-full", "sweep-nqk", "serve-backlog")
MAX_THREADS = 2
# A run must end within 180 s; children get what is left of this.
DEADLINE_S = 170
# The children of one run, in order: mode and share of --seconds. Modes
# alternate so their samples spread over the whole run;
# PROBES_PER_CHILD set-up probes run before each child for the same reason.
UNTRACED, TELEMETRY, LAYERS = "untraced", "telemetry", "layers"
PLAN = {
    0: [(UNTRACED, 0.18), (TELEMETRY, 0.225), (UNTRACED, 0.19), (TELEMETRY, 0.225),
        (UNTRACED, 0.18)],
    1: [(UNTRACED, 0.125), (TELEMETRY, 0.175), (LAYERS, 0.2)] * 2,
}
PROBES_PER_CHILD = 2


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("building the harness failed")
    return os.path.join(target_dir(), "release", "perfbench")


def run_child(argv, deadline):
    """Runs one harness child; returns its JSON line and peak RSS in MB."""
    child = subprocess.Popen(argv, stdout=subprocess.PIPE)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), child.kill)
    timer.start()
    try:
        out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        timer.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)
    child.stdout.close()
    if child.returncode != 0:
        fail(f"{' '.join(argv[1:3])} exited with {child.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1]), usage.ru_maxrss / 1024.0


def median(values):
    if not values:
        fail("no repetition of a mode completed: every one panicked")
    return statistics.median(values)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def measure(args):
    deadline = time.monotonic() + DEADLINE_S
    binary = build()
    threads = min(MAX_THREADS, len(os.sched_getaffinity(0)))
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()

    setup = [binary, "setup", "--threads", str(threads)]
    out_dir = os.path.join(target_dir(), "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}-{{}}.jsonl")

    probes, children = [], {}
    for index, (mode, share) in enumerate(PLAN[args.trace]):
        probes += [run_child(setup, deadline)[0] for _ in range(PROBES_PER_CHILD)]
        argv = [binary, mode, "--workload", args.workload, "--seed", str(args.seed),
                "--budget-s", str(args.seconds * share)]
        if mode == LAYERS:
            argv += ["--spans", spans.format(index)]
        else:
            argv += ["--threads", str(threads)]
        out, rss = run_child(argv, deadline)
        if mode in children:
            merged, peak = children[mode]
            for key, value in out.items():
                if key in ("reps", "failed") or isinstance(value, list):
                    merged[key] += value
            out, rss = merged, max(peak, rss)
        children[mode] = (out, rss)
    fingerprint = {
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_path": probes[0]["kernel_path"],
        "rustc": rustc,
        "threads": threads,
    }

    attempted = sum(int(c[0]["reps"]) for c in children.values())
    failed = sum(int(c[0]["failed"]) for c in children.values())
    un = children[UNTRACED][0]
    te = children[TELEMETRY][0]
    samples = {mode: int(c[0]["reps"]) for mode, c in children.items()}
    samples["setup"] = len(probes)

    if args.trace == 0:
        wall = median(un["wall_s"])
        values = {
            "setup_s": median([p["setup_s"] for p in probes]),
            "wall_s": wall,
            "sim_pairs_per_s": un["sim_pairs"] / wall,
            "replayed_requests_per_s": un["requests"] / wall,
            "traced_wall_s": median(te["wall_s"]),
            "peak_rss_mb": children[UNTRACED][1],
            "passed_ratio": 1.0 - failed / attempted,
        }
        declared = spec()["end_to_end"]
    else:
        la = children[LAYERS][0]
        run_s = median(un["run_s"])
        values = {name: median([p[name] for p in la["passes"]]) for name in la["passes"][0]}
        values.update({
            "calibrate_s": median([p["calibrate_s"] for p in probes]),
            "cache.hit_ratio": un["cache_hit_ratio"],
            "engine.parallel_efficiency": median(la["compute_s"]) / (threads * run_s),
            "telemetry.record_ratio": median(te["run_s"]) / run_s,
            "telemetry.export_s": median(te["export_s"]),
            "telemetry.trace_mb": median(te["trace_mb"]),
        })
        declared = spec()["per_layer"]
        with open(os.path.join(HERE, "layers.json")) as f:
            if sorted(json.load(f)) != sorted(m["name"] for m in declared):
                fail("layers.json and the per_layer metrics of BENCHMARK.json differ")

    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        fail(f"measured metrics {sorted(values)} differ from BENCHMARK.json {sorted(names)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    print(f"fingerprint: {json.dumps(fingerprint, sort_keys=True)}")
    print(f"samples: {json.dumps(samples, sort_keys=True)} (timings are medians)")
    if "model_error" in un:
        print(f"model error (pinned in expected.txt): {un['model_error']}")
    if args.trace == 1:
        print(f"spans: {spans.format('*')}")
    for name in names:
        print(f"  {name:<30} {values[name]:>16.6g} {metrics[name]['unit']}")
    print(f"output check: {attempted - failed} of {attempted} runs completed and match "
          "expected.txt")

    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, samples=samples, fingerprint=fingerprint)
    with open(os.path.join(out_dir, "results.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))


def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2 or not median(values):
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def compare(base_path, new_path):
    """Per workload and end-to-end metric: both medians, the base's spread,
    and whether the new median is worse than the base's by more than the
    metric's bound. Refuses to compare results from different hosts."""
    base, new = load_records(base_path), load_records(new_path)
    prints = {json.dumps(r["fingerprint"], sort_keys=True) for r in base + new}
    if len(prints) != 1:
        print("REFUSED: the results come from different host fingerprints:", file=sys.stderr)
        for p in sorted(prints):
            print(f"  {p}", file=sys.stderr)
        sys.exit(3)
    worse = False
    for metric in spec()["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in WORKLOADS:
            b, n = ([r["metrics"][name]["value"] for r in records
                     if r["workload"] == workload and name in r["metrics"]]
                    for records in (base, new))
            if not b or not n:
                continue
            change = median(n) / median(b) - 1.0 if median(b) else 0.0
            regress = change > bound if metric["better"] == "lower" else change < -bound
            verdict = "WORSE" if regress else ("unresolved" if spread(b) > bound else "ok")
            worse |= regress
            print(f"{workload:<14} {name:<24} base {median(b):12.6g} new {median(n):12.6g} "
                  f"({change:+.1%}, base spread {spread(b):.1%}, bound {bound:.0%}) {verdict}")
    sys.exit(1 if worse else 0)


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            fail("usage: run.py compare BASE.jsonl NEW.jsonl")
        compare(sys.argv[2], sys.argv[3])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    measure(args)


if __name__ == "__main__":
    main()
