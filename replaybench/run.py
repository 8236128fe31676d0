#!/usr/bin/env python3
"""Build and run the replay-path benchmark.

  python3 replaybench/run.py                       all three workloads, untraced
  python3 replaybench/run.py --trace 1             all three, traced (per-layer)
  python3 replaybench/run.py --workload hpc-fields --seed 3 --seconds 10 --trace 0
  python3 replaybench/run.py --repeat 10           steadiness: 10 seeds per workload
  python3 replaybench/run.py --self-test           every check must be able to fail

A single-workload run prints the binary's report; its last line is one
JSON object with "correct", "attempted", "failed" and "metrics". The
benchmark is built from the sources of the checkout it sits in, into
.bench_build/ at the checkout root.
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
BUILD = os.path.join(ROOT, ".bench_build", "replaybench")
BINARY = os.path.join(BUILD, "replaybench")
WORKLOADS = ["hpc-fields", "dl-probe", "tenant-fleet"]
INJECTIONS = ["corrupt-entry", "drop-batch", "perturb-total"]
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build the binary (a no-op when up to date)."""
    if shutil.which("cmake") is None:
        log("replaybench: cmake not found")
        sys.exit(2)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "replaybench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            log("replaybench: build failed: " + " ".join(cmd))
            sys.exit(2)


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or "unknown"


def declared():
    """Metric names BENCHMARK.json declares, by trace mode (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}


def run_once(workload, seed, seconds, trace, extra=(), echo=True):
    """Run the binary; return (exit code, parsed result or None, stdout)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", commit()] + list(extra)
    if trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, "%s-seed%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("replaybench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 4, None, ""
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, proc.stdout


def check_declared(result, trace):
    names = declared()
    if names is None or result is None:
        return True
    got = set(result["metrics"])
    if got != names[trace]:
        log("replaybench: metrics differ from BENCHMARK.json: missing %s, "
            "undeclared %s" % (sorted(names[trace] - got),
                               sorted(got - names[trace])))
        return False
    return True


def single(args):
    code, result, _ = run_once(args.workload, args.seed, args.seconds,
                               args.trace)
    if code == 0 and not check_declared(result, args.trace):
        print("metric set differs from BENCHMARK.json")
        return 3
    return code


def all_workloads(args):
    rows, worst = [], 0
    for w in WORKLOADS:
        code, result, _ = run_once(w, args.seed, args.seconds, args.trace)
        worst = worst or code
        if result is None:
            continue
        for name, m in sorted(result["metrics"].items()):
            rows.append((w, name, m["value"], m["unit"]))
        rows.append((w, "attempted/failed", "%d/%d" % (result["attempted"],
                                                       result["failed"]), ""))
    print("\n%-14s %-36s %18s  %s" % ("workload", "metric", "value", "unit"))
    for w, name, value, unit in rows:
        shown = value if isinstance(value, str) else "%.6g" % value
        print("%-14s %-36s %18s  %s" % (w, name, shown, unit))
    return worst


def repeat(args):
    """Steadiness: k runs with seeds 1..k; median and quartiles per metric."""
    bounds = {}
    path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(path):
        with open(path) as f:
            bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    workloads = [args.workload] if args.workload else WORKLOADS
    worst = 0
    for w in workloads:
        values, shares = {}, set()
        for seed in range(1, args.repeat + 1):
            code, result, _ = run_once(w, seed, args.seconds, args.trace,
                                       echo=False)
            worst = worst or code
            if result is None:
                log("replaybench: %s seed %d printed no result" % (w, seed))
                return code or 1
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("\n%s: %d runs, %ds each, failed share %s" %
              (w, args.repeat, args.seconds,
               sorted(shares)))
        print("  %-36s %14s %14s %14s %8s %6s" %
              ("metric", "median", "q1", "q3", "iqr/med", "bound"))
        for name in sorted(values):
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("nan")
            print("  %-36s %14.6g %14.6g %14.6g %8.4f %6s" %
                  (name, med, q1, q3, spread, bounds.get(name, "")))
    return worst


def self_test():
    """Each planted fault must fail its workload; clean runs must pass."""
    ok = True
    short = ["--setup-reps", "1"]
    for w in WORKLOADS:
        for inject in ["none"] + INJECTIONS:
            code, result, _ = run_once(w, 1, 1, 0, short + ["--inject", inject],
                                       echo=False)
            failed = result["failed"] if result else None
            want_fail = inject != "none"
            good = (code != 0 and failed) if want_fail else (code == 0 and
                                                             failed == 0)
            ok = ok and bool(good)
            print("self-test %-13s %-14s exit %d failed %s -> %s" %
                  (w, inject, code, failed, "ok" if good else "WRONG"))
    print("self-test %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="steadiness mode: runs per workload, seeds 1..k")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    build()
    if args.self_test:
        return self_test()
    if args.repeat:
        return repeat(args)
    if args.workload:
        return single(args)
    return all_workloads(args)


if __name__ == "__main__":
    sys.exit(main())
