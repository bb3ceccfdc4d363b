#!/usr/bin/env python3
"""Append one perfsmoke run to the tracked BENCH_trajectory.json.

The perfsmoke CI stage overwrites BENCH_kernels.json with the latest numbers,
which loses history. This script folds each green run into a rolling
trajectory file — one summarized entry per run, newest last — so performance
drift across commits is visible from the tree itself.

Usage: scripts/bench_trajectory.py <report.json> [<report2.json> ...]
           [-o <trajectory.json>]

Each report is identified by its keys — bench_kernels.json carries
`packed_gemm`/`backends`, bench_refactorize.json carries
`refactorize`/`solve_throughput` — and all reports given on one invocation
fold into a single trajectory entry.

The trajectory entry keeps only the headline numbers (packed-gemm speedups
per size, backend GF/s, steady-state refactorize speedup per strategy,
blocked-solve throughput per width) plus the commit and
timestamp, so the file stays small no matter how many runs accumulate. The
newest `MAX_RUNS` entries are retained.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

MAX_RUNS = 200


def git_head(repo: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(repo), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()
    except (subprocess.CalledProcessError, OSError):
        return "unknown"


def summarize(report: dict) -> dict:
    entry = {}
    packed = report.get("packed_gemm", [])
    if packed:
        entry["packed_gemm_speedup"] = {
            str(row["n"]): row["speedup"] for row in packed if "n" in row
        }
    backends = report.get("backends", [])
    if backends:
        # Headline per-backend GF/s at the largest measured size, plus the
        # Native ISA tier the run dispatched to.
        biggest = max(row["n"] for row in backends if "n" in row)
        entry["backend_gflops"] = {
            row["backend"]: row["gflops"]
            for row in backends if row.get("n") == biggest
        }
        isas = {row["isa"] for row in backends if row.get("isa")}
        if isas:
            entry["backend_isa"] = sorted(isas)[0]
    refac = report.get("refactorize", [])
    if refac:
        # bench_refactorize.json: first-step vs steady-state cost per
        # strategy, plus how much of the steady pass ran off warm hints.
        entry["refactorize_speedup"] = {
            row["strategy"]: row["speedup"]
            for row in refac if "strategy" in row
        }
        entry["refactorize_warm_hits"] = {
            row["strategy"]: row.get("warm_hits", 0) + row.get("dense_skips", 0)
            for row in refac if "strategy" in row
        }
    solves = report.get("solve_throughput", [])
    if solves:
        # Keyed "<nrhs>@<threads>t" so the 1-thread sweep and the parallel
        # solve-pool sweep track as separate series (rows from reports
        # predating the threads axis fold in as 1-thread).
        entry["solve_rhs_per_s"] = {
            f"{row['nrhs']}@{row.get('threads', 1)}t": row["rhs_per_s"]
            for row in solves if "nrhs" in row
        }
    return entry


def main(argv: list) -> int:
    args = argv[1:]
    if not args or args[0] in ("-h", "--help"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    repo = Path(__file__).resolve().parent.parent
    traj_path = repo / "BENCH_trajectory.json"
    report_paths = []
    i = 0
    while i < len(args):
        if args[i] == "-o":
            if i + 1 >= len(args):
                print("bench_trajectory: -o needs a path", file=sys.stderr)
                return 2
            traj_path = Path(args[i + 1])
            i += 2
        else:
            report_paths.append(Path(args[i]))
            i += 1

    runs = []
    if traj_path.exists():
        try:
            runs = json.loads(traj_path.read_text()).get("runs", [])
        except (json.JSONDecodeError, AttributeError):
            print(f"bench_trajectory: {traj_path} unreadable, restarting",
                  file=sys.stderr)
            runs = []

    entry = {}
    for report_path in report_paths:
        entry.update(summarize(json.loads(report_path.read_text())))
    entry["commit"] = git_head(repo)
    entry["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    runs.append(entry)
    runs = runs[-MAX_RUNS:]

    traj_path.write_text(
        json.dumps({"runs": runs}, indent=2, sort_keys=True) + "\n"
    )
    print(f"bench_trajectory: appended run {len(runs)} -> {traj_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
