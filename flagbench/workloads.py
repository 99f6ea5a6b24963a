"""The benchmark's workloads: seeded item lists, the public flagcoh calls each
item makes, per-layer counters and the check against the reference outputs.

Every item runs a computation that `flagcoh verify` checks, on a fixed list
of types, so the work does not depend on verify's skip guards.  Items of one
type run back to back and share the type's enumerated group, as in one
`flagcoh <cmd>` invocation; a pass runs in a fresh process, so it starts from
an empty group cache.  Import this module after env.use_checkout_sources().
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass

from flagcoh import Unsolvable, blowup, chevalley, cohomology, flow, graph, tau, weyl
from flagcoh.cartan import positive_root_count

from tracing import Tracer

WORKLOADS = ("cohomology-split", "cohomology-whole", "pq-sweep", "tau-flow")

COHOMOLOGY_TYPES = ("A4", "B4", "C4", "D4", "F4", "A5", "D5")
TWISTED_PER_TYPE = 1
# The twisted vectors of F4 and D5 differ in cost by up to 2 s, which would
# let the seed rather than the code move wall_s; these types keep one vector.
FIXED_TWISTED = {"F4": "-+-+", "D5": "-+-+-"}
PQ_TYPES = ("A6", "D6", "B6", "E6")
LONGEST_TYPES = ("E7", "E8")
TAU_TYPES = ("A6", "B6", "C6", "D6", "G2")
FLOW_RANKS = (1, 2, 3, 4, 5, 6)
FLOW_POOL = 32  # reference spectra per rank the seed draws from
FLOW_PER_RANK = 5
CHEVALLEY_TYPES = ("A3", "A5", "C3", "C5", "D4", "D6")
CHEVALLEY_PRIMES = (5, 13)

# Layers timed around public calls.  busy_s is self time: the time inside the
# call not covered by a nested traced call (only flow.total_blowups nests).
LAYERS = (
    "weyl.enumerate_group",
    "weyl.cover_pairs",
    "blowup.blowup_poly",
    "blowup.longest_blowups",
    "graph.build_graph",
    "graph.components",
    "cohomology.assign_signs",
    "snf.cohomology_of_complex",
    "tau.nilpotent_tau_family",
    "tau.multiplicity",
    "flow.total_blowups",
    "flow.tau_signal",
    "flow.count_zeros",
    "chevalley.verify_order",
)

COUNTERS = (
    "weyl.enumerate_group.elements",
    "weyl.cover_pairs.covers",
    "weyl.cover_pairs.attempts",
    "blowup.blowup_poly.element_visits",
    "graph.build_graph.edges",
    "graph.components.count",
    "graph.components.largest",
    "cohomology.assign_signs.edges",
    "cohomology.assign_signs.unsolvable",
    "snf.dense_entries",
    "snf.nonzero_entries",
    "snf.divisors",
    "tau.terms",
    "flow.zeros",
)


@dataclass(frozen=True)
class Item:
    id: str
    kind: str  # cohomology | pq | longest | tau | flow | chevalley
    lie_type: str
    arg: object = None  # sign string, (rank, pool index) or prime


def make_items(workload: str, seed: int, reference: dict) -> list[Item]:
    """The workload's item list for one seed (same seed, same list).

    Types run in the fixed order listed above.  A pass keeps every group it
    has enumerated, and the garbage collector's cost for later items grows
    with them, so a seeded type order would move item times.  The seed draws
    the inputs and orders the items within a type.
    """
    rng = random.Random(seed)
    items: list[Item] = []
    if workload in ("cohomology-split", "cohomology-whole"):
        for t in COHOMOLOGY_TYPES:
            l = int(t[1:])
            if workload == "cohomology-whole":
                chosen = ["+" * l]
            else:
                pool = [FIXED_TWISTED[t]] if t in FIXED_TWISTED else sorted(
                    e for e in reference["cohomology"][t] if "+" in e and "-" in e
                )
                chosen = ["-" * l] + rng.sample(pool, TWISTED_PER_TYPE)
            rng.shuffle(chosen)
            items += [Item(f"coh:{t}:{e}", "cohomology", t, e) for e in chosen]
    elif workload == "pq-sweep":
        for t in PQ_TYPES:
            signs = sorted(reference["pq"][t])
            rng.shuffle(signs)
            items += [Item(f"pq:{t}:{e}", "pq", t, e) for e in signs]
        items += [Item(f"longest:{t}", "longest", t) for t in LONGEST_TYPES]
    elif workload == "tau-flow":
        items = [Item(f"tau:{t}", "tau", t) for t in TAU_TYPES]
        for r in FLOW_RANKS:
            for k in sorted(rng.sample(range(FLOW_POOL), FLOW_PER_RANK)):
                items.append(Item(f"flow:A{r}:{k}", "flow", f"A{r}", (r, k)))
        items += [
            Item(f"chevalley:{t}:{p}", "chevalley", t, p)
            for t in CHEVALLEY_TYPES
            for p in CHEVALLEY_PRIMES
        ]
        rng.shuffle(items)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return items


def expected(item: Item, reference: dict):
    """Reference output of an item, in the form its runner returns."""
    if item.kind == "cohomology":
        return reference["cohomology"][item.lie_type][item.arg]
    if item.kind == "pq":
        return reference["pq"][item.lie_type][item.arg]
    if item.kind == "longest":
        return reference["longest_blowups"][item.lie_type]
    if item.kind == "tau":
        return reference["tau"][item.lie_type]
    if item.kind == "flow":
        r, k = item.arg
        return reference["flow"][str(r)][k]["zeros"]
    if item.kind == "chevalley":
        return reference["chevalley"][item.lie_type][str(item.arg)]
    raise ValueError(f"unknown item kind {item.kind!r}")


class PassRunner:
    """Runs one pass of an item list against flagcoh's public functions."""

    def __init__(self, reference: dict, tracer: Tracer):
        self.reference = reference
        self.tr = tracer
        self.counters: Counter = Counter()
        self._group_type: str | None = None
        self._group = None
        self._group_error: str | None = None

    def run(self, items: list[Item]) -> dict:
        """Run every item once; returns the pass's start and end, per-item
        records and counters (times are raw perf_counter seconds)."""
        tr = self.tr
        undo = []
        if tr.enabled:
            # total_blowups calls these itself; trace them where they run
            undo = [
                tr.wrap(flow, "tau_signal", "flow.tau_signal"),
                tr.wrap(flow, "count_zeros", "flow.count_zeros"),
            ]
        records = []
        try:
            with tr.span("pass"):
                start = time.perf_counter()
                for item in items:
                    tr.item = item.id
                    records.append(self._run_item(item))
                end = time.perf_counter()
        finally:
            for u in undo:
                u()
        return {"start": start, "end": end, "items": records, "counters": dict(self.counters)}

    def _run_item(self, item: Item) -> dict:
        got = None
        group, error = None, None
        if item.kind in ("cohomology", "pq"):
            group, error = self._group_for(item)
        t0 = time.perf_counter()
        if error is None:
            try:
                with self.tr.span("item"):
                    got = getattr(self, "_" + item.kind)(item, group)
            except Exception as exc:  # an item that raises counts as failed
                error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if error is None and got != expected(item, self.reference):
            error = "output differs from reference"
        return {"id": item.id, "start": t0, "seconds": seconds, "ok": error is None, "error": error}

    def _group_for(self, item: Item):
        """(group, error) for the item's type.  The group (and its covers, for
        cohomology) is built once per run of same-type items; that time is in
        wall_s but in no item."""
        if item.lie_type != self._group_type:
            self._group_type, self._group, self._group_error = item.lie_type, None, None
            tr, c = self.tr, self.counters
            try:
                with tr.span("group"):
                    with tr.span("weyl.enumerate_group"):
                        group = weyl.enumerate_group(item.lie_type)
                    if item.kind == "cohomology":
                        with tr.span("weyl.cover_pairs"):
                            covers = group.cover_pairs()
            except Exception as exc:  # every item of the type then fails
                self._group_error = f"group {item.lie_type}: {type(exc).__name__}: {exc}"
            else:
                self._group = group
                if tr.enabled:
                    c["weyl.enumerate_group.elements"] += group.order
                    if item.kind == "cohomology":
                        c["weyl.cover_pairs.covers"] += len(covers)
                        c["weyl.cover_pairs.attempts"] += group.order * positive_root_count(
                            item.lie_type
                        )
        return self._group, self._group_error

    def _cohomology(self, item: Item, group) -> dict:
        tr, c = self.tr, self.counters
        with tr.span("graph.build_graph"):
            g = graph.build_graph(group, item.arg)
        with tr.span("graph.components"):
            comps = graph.components(g)
        try:
            with tr.span("cohomology.assign_signs"):
                cc = cohomology.assign_signs(g)
        except Unsolvable:
            c["cohomology.assign_signs.unsolvable"] += 1
            raise
        with tr.span("snf.cohomology_of_complex"):
            groups = cohomology.cohomology_of_complex(cc)
        if tr.enabled:
            c["graph.build_graph.edges"] += len(g.edges)
            c["graph.components.count"] += len(comps)
            c["graph.components.largest"] = max(
                c["graph.components.largest"], max(len(vs) for vs in comps)
            )
            c["cohomology.assign_signs.edges"] += len(g.edges)
            for m in cc.diffs:
                if m:
                    c["snf.dense_entries"] += len(m) * len(m[0])
                    c["snf.nonzero_entries"] += sum(1 for row in m for x in row if x)
            c["snf.divisors"] += sum(len(t) for t in groups.torsion())
        return {
            "free": list(groups.free_ranks()),
            "torsion": [list(t) for t in groups.torsion()],
        }

    def _pq(self, item: Item, group) -> list:
        with self.tr.span("blowup.blowup_poly"):
            poly = blowup.blowup_poly(group, item.arg)
        if self.tr.enabled:
            self.counters["blowup.blowup_poly.element_visits"] += group.order
        return [[e, c] for e, c in poly.items()]

    def _longest(self, item: Item, group) -> int:
        with self.tr.span("blowup.longest_blowups"):
            return blowup.longest_blowups(item.lie_type)

    def _tau(self, item: Item, group) -> dict:
        with self.tr.span("tau.nilpotent_tau_family"):
            family = tau.nilpotent_tau_family(item.lie_type)
        with self.tr.span("tau.multiplicity"):
            degrees = family.min_degrees()
            mult = family.multiplicity()
        if self.tr.enabled:
            self.counters["tau.terms"] += sum(len(e.poly.terms) for e in family.entries)
        return {"min_degrees": list(degrees), "multiplicity": mult}

    def _flow(self, item: Item, group) -> int:
        r, k = item.arg
        spec = flow.SpectralData.make(self.reference["flow"][str(r)][k]["spectrum"])
        with self.tr.span("flow.total_blowups"):
            zeros = flow.total_blowups(spec)
        if self.tr.enabled:
            self.counters["flow.zeros"] += zeros
        return zeros

    def _chevalley(self, item: Item, group) -> dict:
        field = chevalley.PrimeField(item.arg)
        with self.tr.span("chevalley.verify_order"):
            report = chevalley.verify_order(item.lie_type, field)
        return {k: report[k] for k in ("closed_form", "brute_force", "match")}
