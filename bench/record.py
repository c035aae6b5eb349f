"""Record one benchmark point: every metric of every workload, with the git sha.

Usage, from the repository root:

    python3 bench/record.py --out bench/BENCH_1.json --seeds 0 1 2 3 4 5 6 7 8 9

Each workload runs once untraced per seed and once traced on the first
seed, each run in its own process through ``bench/run.py``. End-to-end
metrics are summarised as median, quartiles and spread (quartile
distance over the median), next to the same figures before the
host-speed scaling (``unscaled``, with the probe's own time). The traced
run adds the per-layer metrics and each search's layer shares.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from workloads import BENCH_DIR, ROOT, WORK_DIR, WORKLOADS


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not trace:
        passes = json.loads((WORK_DIR / workload / "run-summary.json").read_text(
            encoding="utf-8"))["passes"]
        result["unscaled"] = {
            "probe_s": statistics.median(p["probe_s"] for p in passes),
            "setup_s": statistics.median(x for p in passes for x in p["setup_s"]),
            "solve_s": statistics.median(p["solve_s"] for p in passes),
            "sets_per_s": statistics.median(p["sets_per_s"] for p in passes),
        }
    return result


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    parser.add_argument("--seconds", type=int, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    args = parser.parse_args()

    point = {
        "git_sha": _git("rev-parse", "HEAD"),
        "src_dirty": bool(_git("status", "--porcelain", "--", "src")),
        "host": {"cpus": os.cpu_count(), "platform": platform.platform(),
                 "python": platform.python_version()},
        "seconds": args.seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    for name in args.workloads:
        runs = [_run(name, seed, args.seconds, 0) for seed in args.seeds]
        traced = _run(name, args.seeds[0], args.seconds, 1)
        summary = json.loads(
            (WORK_DIR / name / "trace-summary.json").read_text(encoding="utf-8"))
        point["workloads"][name] = {
            "correct": all(r["correct"] for r in [*runs, traced]),
            "attempted": sum(r["attempted"] for r in [*runs, traced]),
            "failed": sum(r["failed"] for r in [*runs, traced]),
            "end_to_end": {
                metric: summarise([r["metrics"][metric]["value"] for r in runs])
                for metric in runs[0]["metrics"]
            },
            "unscaled": {
                metric: summarise([r["unscaled"][metric] for r in runs])
                for metric in runs[0]["unscaled"]
            },
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "search_shares": summary["shares"],
        }
        print(f"{name}: done", file=sys.stderr)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(point, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
