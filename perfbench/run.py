#!/usr/bin/env python3
"""The opwat benchmark: build, run one workload, check, report.

Run from the root of the repository:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      One run.  Builds perfbench/ (and the library under src/) in Release
      into $CARGO_TARGET_DIR or .bench_build, runs the workload, checks
      its outputs, prints the run's account and, as the last line of
      standard output, {"correct", "attempted", "failed", "metrics"}:
      the end-to-end metrics with --trace 0, the per-layer ones with 1.

  python3 perfbench/run.py --summary [--runs 10] [--seed0 1] [--seconds S]
                           [--workloads a,b] [--traced] [--record FILE]
      Runs every workload --runs times, one seed each, and prints every
      end-to-end metric by name and unit with its median, quartiles,
      sample count and spread ((q3 - q1) / median) against its bound.
      --traced adds one traced run per workload; --record writes it all
      as JSON.

  python3 perfbench/run.py --selftest
      The benchmark's own unit tests (C++ helpers and this script).

Workloads, metrics and the reasons behind them: perfbench/NOTES.md.
"""

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def valid_metric_name(name):
    return isinstance(name, str) and NAME_RE.match(name) is not None


def load_spec(path):
    """BENCHMARK.json, with every metric name checked."""
    with open(path) as f:
        spec = json.load(f)
    for section in ("end_to_end", "per_layer"):
        for m in spec[section]:
            if not valid_metric_name(m["name"]):
                raise BenchError(f"bad metric name {m['name']!r} in {section}")
    return spec


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build(out):
    """Configures (once) and builds the benchmark; build chatter -> stderr."""
    if not (ROOT / "src" / "opwat").is_dir():
        raise BenchError(f"no library sources at {ROOT / 'src' / 'opwat'}")
    out.mkdir(parents=True, exist_ok=True)
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def parse_result(stdout, expected):
    """The last stdout line, checked against the contract and the spec.

    `expected` maps metric name -> unit."""
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        raise BenchError("the run printed nothing")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise BenchError(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise BenchError(f"{key} is not a whole number")
    if result["attempted"] < 1:
        raise BenchError("attempted < 1")
    if not isinstance(result["correct"], bool):
        raise BenchError("correct is not a boolean")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        raise BenchError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != expected[name]:
            raise BenchError(f"metric {name}: {m} (expected unit {expected[name]})")
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            raise BenchError(f"metric {name} is not a finite number: {v!r}")
    return result


def run_once(spec, workload, seed, seconds, trace, echo=True):
    names = {w["name"] for w in spec["workloads"]}
    if workload not in names:
        raise BenchError(f"unknown workload {workload!r}; known: {sorted(names)}")
    out = build_dir()
    build(out)
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}
    cmd = [str(out / "opwat_perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--out-dir", str(out / "runs")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} exited with code {proc.returncode}")
    result = parse_result(proc.stdout, expected)
    if echo:
        body = proc.stdout.rstrip("\n").splitlines()[:-1]
        for line in body:
            print(line)
        for name, m in result["metrics"].items():
            print(f"  {name:40s} {m['value']:>18.6g} {m['unit']}")
    return result


def spread(values):
    """(q3 - q1) / median, with the quartiles of statistics.quantiles."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med)


def summarize(spec, args):
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    record = {"host": host_facts(), "build_type": "Release", "scale": "paper",
              "seconds": args.seconds, "runs": args.runs, "seed0": args.seed0,
              "end_to_end": {}, "per_layer": {}}
    ok = True
    for w in workloads:
        samples = {}
        failures = 0
        for k in range(args.runs):
            res = run_once(spec, w, args.seed0 + k, args.seconds, False, echo=False)
            failures += 0 if res["correct"] else 1
            for name, m in res["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
        print(f"\n{w}: {args.runs} runs, seeds {args.seed0}..{args.seed0 + args.runs - 1}, "
              f"{failures} incorrect")
        print(f"  {'metric':22s} {'unit':6s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'n':>3s} {'spread':>8s} {'bound':>6s}")
        rows = {}
        for name, values in samples.items():
            med, q1, q3, spr = spread(values)
            bound = bounds[name]["bound"]
            steady = spr < bound / 3
            ok &= steady and failures == 0
            flag = "" if steady else "  UNSTEADY"
            print(f"  {name:22s} {bounds[name]['unit']:6s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{len(values):3d} {spr:8.4f} {bound:6.3f}{flag}")
            rows[name] = {"unit": bounds[name]["unit"], "median": med, "q1": q1, "q3": q3,
                          "n": len(values), "spread": spr, "bound": bound, "values": values}
        record["end_to_end"][w] = rows
        if args.traced:
            res = run_once(spec, w, args.seed0, args.seconds, True, echo=False)
            if not res["correct"]:
                ok = False
                print(f"  traced run of seed {args.seed0}: incorrect")
            record["per_layer"][w] = {n: m["value"] for n, m in res["metrics"].items()}
    if args.record:
        with open(args.record, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    print("\nall spreads below a third of their bounds" if ok else "\nsome metrics are unsteady")
    return 0 if ok else 1


def host_facts():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "kernel": platform.release(),
            "python": platform.python_version()}


def selftest():
    out = build_dir()
    build(out)
    rc = subprocess.run([str(out / "perfbench_selftest")]).returncode
    rc |= subprocess.run([sys.executable, str(BENCH_DIR / "test_run.py")]).returncode
    return rc


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--summary", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--workloads")
    p.add_argument("--traced", action="store_true")
    p.add_argument("--record")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)
    try:
        if args.selftest:
            return selftest()
        spec = load_spec(ROOT / "BENCHMARK.json")
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.summary:
            return summarize(spec, args)
        if not args.workload:
            p.error("--workload is required")
        result = run_once(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, subprocess.CalledProcessError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
