"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 flagbench/stability.py --seeds 1-10 [--workloads tau-flow ...]
                                   [--seconds 30] [--out flagbench/stability.json]

For every workload it runs run.py once per seed, one run at a time, and
reports the median of each end-to-end metric and its spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median.  A run that fails or prints a wrong answer stops the script.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys

import env

env.use_checkout_sources()

import workloads  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(env.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=env.ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"stability: {workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"stability: {workload} seed {seed} failed {result['failed']} items")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10", type=_seeds)
    ap.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--out")
    args = ap.parse_args()

    report = {"seeds": args.seeds, "seconds": args.seconds,
              "python": platform.python_version(), "workloads": {}}
    for w in args.workloads:
        runs = [run_once(w, s, args.seconds) for s in args.seeds]
        summary = {}
        for name in runs[0]:
            values = [r[name] for r in runs]
            med, spr = spread(values)
            summary[name] = {"median": med, "spread": spr, "values": values}
            print(f"{w:17s} {name:15s} median {med:10.4f} spread {spr:.4f}", flush=True)
        report["workloads"][w] = summary
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
