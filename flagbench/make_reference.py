"""Record the exact output of every item a workload seed can draw.

    python3 flagbench/make_reference.py [--out flagbench/reference.json]

Each output is computed with flagcoh's public functions and then checked
against a closed form that does not use the computation it checks:

- all-minus cohomology: Betti numbers of the exterior algebra on generators
  of degrees 2*d_i - 1, torsion divisors in {2};
- every other sign vector: free rank 0, torsion divisors in {2};
- p_eps(q) = prod (q^{d_i} - 1) for all-minus and 0 otherwise;
- blow-ups at the longest element = sum of the d_i;
- tau multiplicity = flow zero total = blow-ups at the longest element;
- Chevalley orders: p^r * prod (p^{d_i} - 1) = the sphere-product count.

The d_i and r come from flagcoh.cartan.compact_dual_data, a static table.
A failed check stops the script: the reference must only hold outputs
that are right, so the benchmark counts a wrong answer as a failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
import time

import env

env.use_checkout_sources()

import workloads as wl  # noqa: E402
from flagcoh import blowup, chevalley, cohomology, flow, graph, tau, weyl  # noqa: E402
from flagcoh.cartan import compact_dual_data  # noqa: E402


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"make_reference: closed form violated: {what}")


def _exterior_betti(degrees) -> list[int]:
    gens = [2 * d - 1 for d in degrees]
    out = [0] * (sum(gens) + 1)
    for r in range(len(gens) + 1):
        for comb in itertools.combinations(gens, r):
            out[sum(comb)] += 1
    return out


def _product_poly(degrees) -> dict[int, int]:
    poly = {0: 1}
    for d in degrees:
        nxt: dict[int, int] = {}
        for e, c in poly.items():
            nxt[e + d] = nxt.get(e + d, 0) + c
            nxt[e] = nxt.get(e, 0) - c
        poly = {e: c for e, c in nxt.items() if c}
    return poly


def _all_signs(rank: int) -> list[str]:
    return ["".join(s) for s in itertools.product("-+", repeat=rank)]


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def cohomology_reference() -> dict:
    out = {}
    for t in wl.COHOMOLOGY_TYPES:
        degrees = compact_dual_data(t).degrees
        group = weyl.enumerate_group(t)
        out[t] = {}
        for eps in _all_signs(group.rank):
            t0 = time.perf_counter()
            cc = cohomology.assign_signs(graph.build_graph(group, eps))
            groups = cohomology.cohomology_of_complex(cc)
            free = list(groups.free_ranks())
            torsion = [list(x) for x in groups.torsion()]
            divisors = {d for x in torsion for d in x}
            _check(divisors <= {2}, f"{t} {eps} divisors {sorted(divisors)}")
            if "+" in eps:
                _check(not any(free), f"{t} {eps} free ranks {free}")
            else:
                _check(free == _exterior_betti(degrees), f"{t} {eps} Betti {free}")
            out[t][eps] = {"free": free, "torsion": torsion}
            _log(f"cohomology {t} {eps} {time.perf_counter() - t0:.3f}s")
    return out


def pq_reference() -> dict:
    out = {}
    for t in wl.PQ_TYPES:
        closed = sorted(_product_poly(compact_dual_data(t).degrees).items())
        group = weyl.enumerate_group(t)
        out[t] = {}
        for eps in _all_signs(group.rank):
            got = [[e, c] for e, c in blowup.blowup_poly(group, eps).items()]
            want = [list(x) for x in closed] if "+" not in eps else []
            _check(got == want, f"p(q) of {t} {eps}: {got}")
            out[t][eps] = got
        _log(f"pq {t} done")
    return out


def longest_reference() -> dict:
    out = {}
    for t in wl.LONGEST_TYPES:
        n = blowup.longest_blowups(t)
        _check(n == sum(compact_dual_data(t).degrees), f"longest blow-ups of {t}: {n}")
        out[t] = n
    return out


def tau_reference() -> dict:
    out = {}
    for t in wl.TAU_TYPES:
        family = tau.nilpotent_tau_family(t)
        degrees = list(family.min_degrees())
        mult = family.multiplicity()
        _check(mult == sum(degrees), f"{t} multiplicity {mult} vs degrees {degrees}")
        _check(mult == blowup.longest_blowups(t), f"{t} multiplicity {mult}")
        out[t] = {"min_degrees": degrees, "multiplicity": mult}
    return out


def flow_reference() -> dict:
    out = {}
    for r in wl.FLOW_RANKS:
        eta = blowup.longest_blowups(f"A{r}")
        rng = random.Random(f"flow-A{r}")
        pool = []
        for _ in range(wl.FLOW_POOL):
            spectrum = sorted(rng.sample(range(-9, 10), r + 1))
            zeros = flow.total_blowups(flow.SpectralData.make(spectrum))
            _check(zeros == eta, f"flow zeros {zeros} for spectrum {spectrum}, eta {eta}")
            pool.append({"spectrum": spectrum, "zeros": zeros})
        out[str(r)] = pool
        _log(f"flow rank {r} done")
    return out


def chevalley_reference() -> dict:
    out = {}
    for t in wl.CHEVALLEY_TYPES:
        data = compact_dual_data(t)
        out[t] = {}
        for p in wl.CHEVALLEY_PRIMES:
            report = chevalley.verify_order(t, chevalley.PrimeField(p))
            closed = p**data.r
            for d in data.degrees:
                closed *= p**d - 1
            _check(report["match"] and report["closed_form"] == closed, f"{t} at p={p}")
            out[t][str(p)] = {k: report[k] for k in ("closed_form", "brute_force", "match")}
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default=str(env.REFERENCE))
    args = ap.parse_args()
    reference = {
        "pq": pq_reference(),
        "longest_blowups": longest_reference(),
        "tau": tau_reference(),
        "flow": flow_reference(),
        "chevalley": chevalley_reference(),
        "cohomology": cohomology_reference(),
    }
    with open(args.out, "w") as fh:
        json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    _log(f"wrote {args.out}")


if __name__ == "__main__":
    main()
