#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run it.

    python3 e2ebench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --selftest

Workloads: lap64_jit, lap64_dense, cd40_minmem_steps (see layers.json);
`all` runs the three in turn with the same seed. The solver library and
the benchmark are built in Release mode under .bench_build/e2ebench of the
source tree this directory sits in; traced runs write their Chrome trace to
.bench_build/e2ebench/traces/. The last stdout line is the JSON result;
the exit code is non-zero when the build fails, a solver call throws or a
solution fails its accuracy check.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORKLOADS = ["lap64_jit", "lap64_dense", "cd40_minmem_steps"]


def build(target):
    """Configure and build `target`; build output goes to stderr."""
    cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return False
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", "4"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_one(workload, args):
    """Run one workload; returns (exit code, stdout lines, parsed result)."""
    cmd = [os.path.join(BUILD, "e2ebench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{workload}-seed{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if proc.returncode == 0 and result and result["correct"] and not args.trace:
        # Kept for the cross-workload ratios later runs print.
        os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
        with open(os.path.join(BUILD, "results", workload + ".json"), "w") as f:
            json.dump({"seed": args.seed, "metrics": result["metrics"]}, f)
    return proc.returncode, lines, result


def paper_ratios():
    """Lines with the paper-figure ratios over the latest correct untraced
    result of each workload in this build tree (information only)."""
    latest = {}
    for w in WORKLOADS:
        path = os.path.join(BUILD, "results", w + ".json")
        if os.path.exists(path):
            with open(path) as f:
                latest[w] = json.load(f)

    def value(w, m):
        return latest[w]["metrics"][m]["value"]

    out = ["# paper-figure ratios (latest untraced result per workload, no gate)"]
    if "lap64_jit" in latest and "lap64_dense" in latest:
        seeds = f"seeds {latest['lap64_jit']['seed']}/{latest['lap64_dense']['seed']}"
        for m in ("factorize_s", "peak_mb", "factor_mb"):
            r = value("lap64_jit", m) / value("lap64_dense", m)
            out.append(f"ratio {m} lap64_jit/lap64_dense {r:.4f} ({seeds})")
    for m in ("peak_mb", "factor_mb"):
        have = [f"{w} {value(w, m):.1f}" for w in WORKLOADS if w in latest]
        if have:
            out.append(f"# {m}: " + ", ".join(have))
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the checks of the benchmark's own logic")
    args = p.parse_args()

    if args.selftest:
        if not build("e2ebench_selftest"):
            return 2
        return subprocess.run([os.path.join(BUILD, "e2ebench_selftest")]).returncode
    if not args.workload:
        p.error("--workload is required")
    if not build("e2ebench"):
        print("e2ebench: build failed", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    code, results = 0, {}
    for w in workloads:
        rc, lines, result = run_one(w, args)
        code = code or rc
        if result is None:
            print("\n".join(lines))
            print(f"e2ebench: {w} printed no result", file=sys.stderr)
            return rc or 1
        print("\n".join(lines[:-1]))
        results[w] = (result, lines[-1])
    print("\n".join(paper_ratios()))
    if len(workloads) == 1:
        print(results[workloads[0]][1])
    else:
        rs = {w: r for w, (r, _) in results.items()}
        merged = {"correct": all(r["correct"] for r in rs.values()),
                  "attempted": sum(r["attempted"] for r in rs.values()),
                  "failed": sum(r["failed"] for r in rs.values()),
                  "metrics": {f"{w}.{k}": v for w, r in rs.items()
                              for k, v in r["metrics"].items()}}
        print(json.dumps(merged))
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
