"""One pass of one workload in a fresh process, reported as one JSON line.

    python3 flagbench/one_pass.py --workload W --seed N [--trace 0|1]
    python3 flagbench/one_pass.py --workload W --seed N --setup-only

run.py starts this once per pass, so every pass starts from an empty
flagcoh group cache and its peak RSS is that of a process that ran only
this workload.  --setup-only stops after the import and the item list.
Times are reported in reference seconds (see speed.py), with the raw wall
times beside them.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

import env
import speed


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    speed.pin_to_one_cpu()
    before = speed.probe_factor()
    t0 = time.perf_counter()
    env.use_checkout_sources()
    import workloads
    from tracing import Tracer

    with open(env.REFERENCE) as fh:
        reference = json.load(fh)
    items = workloads.make_items(args.workload, args.seed, reference)
    setup_raw = time.perf_counter() - t0
    if args.setup_only:
        factor = (before + speed.probe_factor()) / 2
        print(json.dumps({"setup_s": setup_raw * factor, "raw_setup_s": setup_raw}))
        return

    tracer = Tracer(enabled=bool(args.trace))
    sampler = speed.Sampler().start()
    try:
        result = workloads.PassRunner(reference, tracer).run(items)
    finally:
        sampler.stop()
    factor = sampler.factor(result["start"], result["end"])
    result["speed"] = factor
    result["raw_wall_s"] = result["end"] - result["start"]
    result["wall_s"] = result["raw_wall_s"] * factor
    for r in result["items"]:
        r["raw_seconds"] = r["seconds"]
        r["seconds"] *= sampler.factor(r["start"], r["start"] + r["raw_seconds"])
    result["max_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer.enabled:
        result["self_s"] = {k: v * factor for k, v in tracer.self_times().items()}
        result["spans"] = tracer.spans
    print(json.dumps(result))


if __name__ == "__main__":
    main()
