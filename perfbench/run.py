#!/usr/bin/env python3
"""perfbench: the repository benchmark for the sigrt runtime.

Builds the benchmark (and the sigrt library it links) from the checkout it
sits in, runs one workload from a seed, and prints the binary's result
record (host fingerprint, runtime config, every metric) followed by the
last stdout line {"correct", "attempted", "failed", "metrics"} with the
metrics BENCHMARK.json names for the mode (end-to-end, or per-layer with
--trace 1).

  python3 perfbench/run.py --workload apps --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --self-check            # short runs + checks
  python3 perfbench/run.py --spread 10 [--workload W]  # quartile spread per metric

Build products go to .bench_build/ at the checkout root; traced runs write
their Chrome trace and self-time table to .bench_build/perfbench-out/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configures once, then builds incrementally.  False when impossible."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("no sigrt sources (CMakeLists.txt, src/) next to perfbench/")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def select(record, spec, trace):
    """Builds the final result line from a record, with the metrics (and
    units) BENCHMARK.json names for this mode.  Returns (result, problems).
    A per-layer metric a workload does not produce reads 0 and is listed in
    the record's `not_applicable`; a missing end-to-end metric is a problem."""
    problems = []
    produced = record.get("metrics", {})
    metrics = {}
    record["not_applicable"] = []
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = produced.get(m["name"])
        if got is None:
            if not trace:
                problems.append(f"end-to-end metric {m['name']} missing")
            record["not_applicable"].append(m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} has unit {got['unit']}, "
                            f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    result = {"correct": bool(record["correct"]), "attempted": int(record["attempted"]),
              "failed": int(record["failed"]), "metrics": metrics}
    if result["attempted"] < 1:
        problems.append("nothing was attempted")
    return result, problems


def run_once(workload, seed, seconds, trace, spec):
    """Runs the binary; returns (record, result, problems)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", OUT_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        return None, None, [f"timed out after {RUN_TIMEOUT_S} s"]
    if proc.returncode != 0:
        return None, None, [f"exit code {proc.returncode}"]
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    try:
        record = json.loads(lines[-1])["record"]
        result, problems = select(record, spec, trace)
    except (IndexError, ValueError, KeyError, TypeError) as e:
        return None, None, [f"unparsable output: {e}"]
    return record, result, problems


def main_run(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; choose one of {names}")
        return 2
    if not build():
        return 1
    record, result, problems = run_once(args.workload, args.seed, args.seconds,
                                        args.trace, spec)
    if problems:
        for p in problems:
            log(p)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


def spans_nest(path):
    """Independent check of a Chrome trace: every span with a parent lies
    inside it on the same thread."""
    with open(path, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    by_id = {e["args"]["id"]: e for e in events}
    bad = 0
    for e in events:
        p = by_id.get(e["args"]["parent"])
        if p is None:
            continue
        inside = (p["tid"] == e["tid"] and p["ts"] <= e["ts"] + 1e-3
                  and e["ts"] + e["dur"] <= p["ts"] + p["dur"] + 1e-3)
        bad += 0 if inside else 1
    return len(events), bad


def main_self_check(spec):
    """Short runs of every workload, traced and not, with two seeds."""
    if not build():
        return 1
    failures = []
    for w in spec["workloads"]:
        name = w["name"]
        fingerprints, names = {}, {}
        for seed in (1, 2):
            for trace in (False, True):
                record, result, problems = run_once(name, seed, 4, trace, spec)
                tag = f"{name} seed {seed} trace {int(trace)}"
                if problems:
                    failures.append(f"{tag}: {problems}")
                    continue
                if not result["correct"] or result["failed"] != 0:
                    failures.append(f"{tag}: incorrect run: {record.get('problems')}")
                fingerprints.setdefault(seed, record["inputs_fnv"])
                names.setdefault(trace, set(record["metrics"]))
                if names[trace] != set(record["metrics"]):
                    failures.append(f"{tag}: metric names differ between seeds")
                if trace:
                    m = result["metrics"]
                    if m["trace.nest_errors"]["value"] != 0:
                        failures.append(f"{tag}: spans do not nest")
                    share = m["trace.main_self_share"]["value"]
                    if name != "serve" and abs(share - 1.0) > 0.05:
                        failures.append(f"{tag}: main-thread self times are "
                                        f"{share:.3f} of op wall time")
                    path = os.path.join(OUT_DIR, f"{name}-seed{seed}.trace.json")
                    count, bad = spans_nest(path)
                    if count == 0 or bad != 0:
                        failures.append(f"{tag}: {path}: {count} spans, {bad} not nested")
                print(f"ok  {tag}  inputs {record['inputs_fnv']}", flush=True)
        if len(set(fingerprints.values())) != 2:
            failures.append(f"{name}: seeds 1 and 2 produced the same inputs")
    for f in failures:
        print("FAIL " + f)
    print("self-check " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main_spread(spec, runs, seconds, only=None):
    """Runs every workload `runs` times (seeds 1..runs) and prints, per
    end-to-end metric, the median and the quartile spread as a share of it
    (statistics.quantiles(values, n=4))."""
    if not build():
        return 1
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for w in spec["workloads"]:
        if only and w["name"] != only:
            continue
        values = {}
        for seed in range(1, runs + 1):
            _, result, problems = run_once(w["name"], seed, seconds, False, spec)
            if problems or not result["correct"]:
                print(f"FAIL {w['name']} seed {seed}: {problems}", flush=True)
                continue
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(f"run {w['name']} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for k, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) >= 2 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("inf")
            flag = "" if spread <= bounds[k] / 3 else (" >bound/3" if spread <= bounds[k] else " >BOUND")
            print(f"{w['name']:8s} {k:16s} median {med:14.6g}  spread {spread:6.3f}"
                  f"  bound {bounds[k]:.2f}{flag}", flush=True)
            report.setdefault(w["name"], {})[k] = {"median": med, "spread": spread,
                                                   "values": vs}
    print(json.dumps(report))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--spread", type=int, metavar="RUNS")
    args = p.parse_args()
    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.self_check:
        return main_self_check(spec)
    if args.spread:
        return main_spread(spec, args.spread, args.seconds, args.workload)
    if not args.workload:
        p.error("--workload is required")
    return main_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
