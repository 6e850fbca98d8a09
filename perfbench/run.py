#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run one workload:
    python3 perfbench/run.py --workload email-read-starved --seed 1 \\
        --seconds 10 --trace 0
The last stdout line is the result JSON. With --trace 1 the run reports the
per-module metrics and writes a Chrome trace to
.bench_build/traces/<workload>-seed<seed>.json.

Compare two traced results (each a file holding a run's stdout or its last
line) and name the module that moved most:
    python3 perfbench/run.py --diff old.json new.json

Build and run the benchmark's own tests:
    python3 perfbench/run.py --test
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir, target, extra_defs=()):
    """Configures (once) and builds `target`; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "ycsb", "runner.h")):
        log(f"index sources not found under {os.path.join(ROOT, 'src')}")
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release", *extra_defs]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("cmake configure failed")
            sys.exit(2)
    if subprocess.run(["cmake", "--build", build_dir, "--target", target,
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        log("build failed")
        sys.exit(2)
    return os.path.join(build_dir, target)


# ---- layer diff -------------------------------------------------------------

# What each per-layer ratio is taken over; per-op and per-kop metrics are
# over measured ops, and plain counts are totals of the measured phase.
RATIO_BASES = {
    "core.start_success_ratio": "start_successes + root_fallbacks",
    "core.fp_reject_ratio": "filter_hits",
    "core.batch_fused_ratio": "batch_ops",
    "core.batch_rounds_per_op": "batch_ops",
    "filter.lac_hit_ratio": "point reads",
    "filter.lac_stale_ratio": "lac_hits",
    "filter.pec_hit_ratio": "PEC lookups",
    "filter.pec_stale_ratio": "pec_hits",
    "filter.sfc_fill": "SFC slots",
    "filter.pec_fill": "PEC slots",
    "filter.lac_fill": "LAC slots",
    "racehash.insert_retry_ratio": "INHT inserts",
    "art.scan_jump_start_ratio": "scans",
    "art.scan_stale_retries_per_scan": "scans",
    "art.scan_rtts_per_scan": "scans",
    "rdma.verbs_per_rtt": "round trips",
    "rdma.mn_msg_balance": "mean messages per MN",
    "rdma.max_nic_utilization": "NIC service time available",
    "ycsb.failed_op_ratio": "attempted ops",
}


def metric_base(name):
    if name in RATIO_BASES:
        return RATIO_BASES[name]
    if name.endswith("_per_kop"):
        return "1000 measured ops"
    if name.endswith("_per_op") or name.startswith(("rdma.rtts.", "rdma.bytes.")):
        return "measured ops"
    if name.endswith(("_sim_ns", "_host_ns")) and name.startswith("core."):
        return "calls of that kind"
    if name.endswith("_probe_host_ns") or name == "core.prefix_hash_host_ns":
        return "replayed probes"
    if name.endswith("_us"):
        return "per-op latency samples"
    if name.startswith("ycsb.") and name.endswith("_s"):
        return "median of three set-ups"
    return "total"


def load_result(path):
    """The result JSON: the last line of `path` that parses as one."""
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines() if ln.strip()]
    for ln in reversed(lines):
        try:
            obj = json.loads(ln)
        except ValueError:
            continue
        if isinstance(obj, dict) and "metrics" in obj:
            return obj
    raise SystemExit(f"perfbench: no result JSON in {path}")


def rel_change(old, new):
    """Symmetric relative change in [0, 1]: |new - old| / max(|old|, |new|)."""
    top = max(abs(old), abs(new))
    return 0.0 if top == 0 else abs(new - old) / top


def layer_diff(old, new):
    """Rows (name, old, new, rel, base) and per-module mean movement."""
    rows = []
    modules = {}
    a, b = old["metrics"], new["metrics"]
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            rows.append((name, a.get(name, {}).get("value"),
                         b.get(name, {}).get("value"), None, metric_base(name)))
            continue
        va, vb = a[name]["value"], b[name]["value"]
        r = rel_change(va, vb)
        rows.append((name, va, vb, r, metric_base(name)))
        if "." in name and (va != 0 or vb != 0):
            modules.setdefault(name.split(".", 1)[0], []).append(r)
    scores = {m: sum(v) / len(v) for m, v in modules.items()}
    return rows, scores


def print_diff(old, new):
    rows, scores = layer_diff(old, new)
    print(f"{'metric':44} {'old':>14} {'new':>14} {'change':>9}  base")
    for name, va, vb, r, base in rows:
        if r is None:
            print(f"{name:44} {str(va):>14} {str(vb):>14} {'only one':>9}  {base}")
            continue
        sign = "-" if vb < va else "+"
        print(f"{name:44} {va:14.6g} {vb:14.6g} {sign}{100 * r:7.2f}%  {base}")
    if not scores:
        print("no per-module metrics in common")
        return
    print("\nmean relative change by module:")
    for m, s in sorted(scores.items(), key=lambda kv: -kv[1]):
        print(f"  {m:10} {100 * s:7.2f}%")
    top = max(scores, key=scores.get)
    print(f"moved most: {top}")


# ---- test mode --------------------------------------------------------------

def run_tests():
    binary = build(os.path.join(BUILD, "perfbench-tests"), "perfbench_tests",
                   ["-DPERFBENCH_TESTS=ON"])
    rc = subprocess.run([binary]).returncode
    py = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                         os.path.join(HERE, "tests"), "-p", "test_*.py"]).returncode
    return 1 if rc or py else 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"))
    ap.add_argument("--test", action="store_true")
    args = ap.parse_args(argv)

    if args.diff:
        print_diff(load_result(args.diff[0]), load_result(args.diff[1]))
        return 0
    if args.test:
        return run_tests()
    if not args.workload:
        ap.error("--workload is required")
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        ap.error("--seconds must be positive")

    binary = build(os.path.join(BUILD, "perfbench"), "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
