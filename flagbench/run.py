"""The flagcoh benchmark: one workload, one seed, one JSON result line.

    python3 flagbench/run.py --workload cohomology-split --seed 1 --seconds 30 --trace 0

Each pass runs the workload's item list once in a fresh child process
(one_pass.py), one process at a time, with BLAS held to one thread.
Passes repeat while another one still fits in --seconds; at least one runs.
Every item's output is checked against reference.json.

Times are in reference seconds: wall time scaled by the host's speed while
it was measured, from a probe loop sampled beside the work (speed.py), so
that runs on a busy and an idle host compare.  The summary lines above the
result also give the raw wall times.

--trace 0 reports the end-to-end metrics:
  setup_s         median of SETUP_REPEATS child runs that only import
                  flagcoh and build the item list
  wall_s          median time of one pass over the item list
  slowest_item_s  median over passes of the slowest item (the 99th
                  percentile item when a pass has 100 items or more)
  peak_rss_mb     largest ru_maxrss of a pass process
--trace 1 alternates untraced and traced passes and reports per-layer self
times and counters from the traced ones, the traced and untraced pass times,
the tracing overhead, and the residual: traced pass time outside every layer
call (harness, counters, reference checks).  The spans go to .flagbench/ in
the checkout.

failed_frac (items that raised or differ from the reference, over items
attempted) is printed above the result line; the result line carries it as
`failed` and `attempted`.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time

import env

env.use_checkout_sources()

import workloads  # noqa: E402

SETUP_REPEATS = 5
PASS_TIMEOUT_S = 170


def _child(workload: str, seed: int, *flags: str) -> dict:
    """Run one_pass.py to completion and parse its result.  Exits on a crash."""
    cmd = [sys.executable, str(env.HERE / "one_pass.py"),
           "--workload", workload, "--seed", str(seed), *flags]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S, cwd=env.ROOT
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"flagbench: pass process failed with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _slowest_item(p: dict) -> float:
    """Nearest-rank 99th percentile of a pass's item times: the slowest item
    when a pass has under 100 items.  pq-sweep's 258 items are near-equal,
    so its plain maximum would be whichever item a hiccup hit."""
    times = sorted(r["seconds"] for r in p["items"])
    return times[math.ceil(0.99 * len(times)) - 1]


def _end_to_end_metrics(untraced: list[dict], setups: list[dict]) -> dict:
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in untraced), "s"),
        "slowest_item_s": (statistics.median(_slowest_item(p) for p in untraced), "s"),
        "peak_rss_mb": (max(p["max_rss_kb"] for p in untraced) / 1024.0, "MB"),
        "setup_s": (statistics.median(x["setup_s"] for x in setups), "s"),
    }


def _layer_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    metrics = {}
    for layer in workloads.LAYERS:
        busy = statistics.median(p["self_s"].get(layer, 0.0) for p in traced)
        metrics[f"{layer}.busy_s"] = (busy, "s")
    c = dict.fromkeys(workloads.COUNTERS, 0) | traced[-1]["counters"]
    for name in workloads.COUNTERS:
        if name != "weyl.cover_pairs.attempts":
            metrics[name] = (c[name], "count")
    metrics["weyl.cover_pairs.hit_ratio"] = (
        c["weyl.cover_pairs.covers"] / c["weyl.cover_pairs.attempts"]
        if c["weyl.cover_pairs.attempts"] else 0.0,
        "ratio",
    )
    metrics["graph.build_graph.edge_ratio"] = (
        c["graph.build_graph.edges"] / c["weyl.cover_pairs.covers"]
        if c["weyl.cover_pairs.covers"] else 0.0,
        "ratio",
    )
    plain = statistics.median(p["wall_s"] for p in untraced)
    with_spans = statistics.median(p["wall_s"] for p in traced)
    residual = statistics.median(
        p["wall_s"] - sum(p["self_s"].get(layer, 0.0) for layer in workloads.LAYERS)
        for p in traced
    )
    metrics["trace.untraced_wall_s"] = (plain, "s")
    metrics["trace.traced_wall_s"] = (with_spans, "s")
    metrics["trace.overhead_frac"] = (with_spans / plain - 1.0, "ratio")
    metrics["trace.residual_s"] = (residual, "s")
    return metrics


def _write_spans(workload: str, seed: int, traced: list[dict]) -> None:
    out = env.ROOT / ".flagbench"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload}-seed{seed}.json"
    fields = ("name", "start", "end", "parent", "item")
    passes = [[dict(zip(fields, s)) for s in p["spans"]] for p in traced]
    path.write_text(json.dumps({"workload": workload, "seed": seed, "passes": passes}))
    print(f"spans written to {path.relative_to(env.ROOT)}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not env.REFERENCE.is_file():
        raise SystemExit(f"flagbench: missing {env.REFERENCE}")

    untraced: list[dict] = []
    traced: list[dict] = []
    round_s: list[float] = []  # one untraced pass, or an untraced+traced pair
    start = time.perf_counter()
    while not round_s or time.perf_counter() - start + statistics.median(round_s) <= args.seconds:
        t0 = time.perf_counter()
        untraced.append(_child(args.workload, args.seed, "--trace", "0"))
        if args.trace:
            traced.append(_child(args.workload, args.seed, "--trace", "1"))
        round_s.append(time.perf_counter() - t0)

    records = [r for p in untraced + traced for r in p["items"]]
    failed = [r for r in records if not r["ok"]]
    for r in failed[:10]:
        print(f"FAILED {r['id']}: {r['error']}", file=sys.stderr)

    if args.trace:
        metrics = _layer_metrics(untraced, traced)
        _write_spans(args.workload, args.seed, traced)
    else:
        setups = [_child(args.workload, args.seed, "--setup-only") for _ in range(SETUP_REPEATS)]
        metrics = _end_to_end_metrics(untraced, setups)
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced, "
          f"{len(traced)} traced passes of {len(untraced[0]['items'])} items")
    for p in untraced:
        print(f"untraced pass: {p['wall_s']:.3f} reference s, {p['raw_wall_s']:.3f} s at "
              f"{p['speed']:.3f} reference s per s")
    print(f"failed_frac {len(failed) / len(records):.6f} ({len(failed)}/{len(records)})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
