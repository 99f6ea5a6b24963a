"""Integer cochain complexes over incidence graphs and their cohomology.

Graph edges become matrix entries +-2, one sign kept per edge.  Signs are
solved over GF(2) so that consecutive differentials compose to zero:
every complete diamond (the two cover paths through a length-2 Bruhat
interval) contributes one parity equation, and the graph's spanning forest
(IncidenceGraph.forest, built once and shared with components) is gauged
to +.  The gauge is the row order of the edge array: the forest takes the
rows that join two components in that order.  One numpy unit propagation
over the whole graph fixes every sign these force; GF(2) elimination sees
only the edges left unknown.  The signs are an int8 array beside the edge
array.

The differential only has entries on graph edges, so the complex is
block-diagonal over the graph's connected components, and one join of the
edge array on its middle vertex finds the diamonds of every parity
equation and of the d o d = 0 check.  Each component carries the edges
propagation left unknown, with the elimination's base (free variables 0)
and kernel basis over them; a settled component has none.  The diamond
equations never see a cycle that stays between two adjacent length
layers, so its sign product is free; but the cell structure has exponent-2
torsion, so signs are accepted only when every nonzero Smith divisor of
each +-1 layer block is odd (B = U D V with U, V unimodular, hence
invertible mod 2, so this says rank_Q B = rank_GF2 B).  Round r tries
kernel combination r of every component not yet accepted: one
smith_blocks call reduces all their (component, layer) blocks at once,
passed only those components' entries, each labelled by its block, so
each block keeps its own divisors.  Rows are top vertices and columns
bottom vertices, and every combination solves the diamond system, so the
entries form a complex that squares to zero, which smith_blocks reduces
whole (E6 ++++++: 16 rounds in 0.15-0.2 s, where layer by layer took 23
in 1.9-2.1 s).  A component fails only once all 2^k combinations are
tried, so Unsolvable means that no valid signs exist; it names the least
failing component, as a loop over them in order would.
The accepted diagonals, doubled, are the Smith forms of the +-2 blocks,
so cohomology only sums them."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blowup import Signs, _lie_type, format_signs
from .errors import DiamondViolation, Unsolvable
from .graph import IncidenceGraph, build_graph
from .snf import smith_blocks
from .weyl import WeylGroup, length_distribution, word_label


@dataclass
class ChainComplex:
    group: WeylGroup
    eps: Signs
    edges: np.ndarray  # the graph's (m, 2) edge rows
    signs: np.ndarray  # int8, +-1 per edge row; the entry is 2 * sign
    # smith[k]: the nonzero Smith divisors of every component's C^k -> C^{k+1}
    # block, pooled and sorted; SNF(2B) = 2 SNF(B), so each is 2 * odd
    smith: tuple[tuple[int, ...], ...]

    @property
    def top_degree(self) -> int:
        return len(self.group.length_distribution()) - 1

    def dims(self) -> tuple[int, ...]:
        return tuple(self.group.length_distribution())

    @property
    def diffs(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Dense layers, diffs[k]: C^k -> C^{k+1}, built from the edge signs."""
        pos = {v: a for layer in self.group.by_length() for a, v in enumerate(layer)}
        dims = self.dims()
        dense = [[[0] * dims[k] for _ in range(dims[k + 1])] for k in range(self.top_degree)]
        for (i, j), sign in zip(self.edges.tolist(), self.signs.tolist()):
            dense[self.group.lengths[i]][pos[j]][pos[i]] = 2 * sign
        return tuple(tuple(map(tuple, m)) for m in dense)


@dataclass
class CohomologyGroups:
    """Free rank and elementary divisors > 1, one pair per degree."""

    groups: tuple[tuple[int, tuple[int, ...]], ...]

    def free_ranks(self) -> tuple[int, ...]:
        return tuple(f for f, _ in self.groups)

    def torsion(self) -> tuple[tuple[int, ...], ...]:
        return tuple(t for _, t in self.groups)

    def describe(self) -> list[str]:
        out = []
        for free, tors in self.groups:
            parts = ["Z"] * free + [f"Z/{d}" for d in tors]
            out.append(" + ".join(parts) if parts else "0")
        return out


def _diamonds(edges: np.ndarray):
    """Every path of two of the given edges, as rows (p, q) of edge positions
    with top of p = bottom of q, sorted by interval (bottom of p, top of q);
    and the sorted intervals whose count of such paths is not 2.  One stable
    sort on the key bottom * span + top orders the paths, and the runs of
    equal keys are the intervals."""
    by_bottom = np.argsort(edges[:, 0], kind="stable")
    bottoms = edges[by_bottom, 0]
    lo = np.searchsorted(bottoms, edges[:, 1])
    sizes = np.searchsorted(bottoms, edges[:, 1], side="right") - lo
    first = np.repeat(np.arange(len(edges)), sizes)
    second = by_bottom[np.repeat(lo - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())]
    span = int(edges.max(initial=0)) + 1
    key = edges[first, 0].astype(np.int64, copy=False)
    key *= span
    key += edges[second, 1]
    order = np.argsort(key, kind="stable")
    key = key[order]  # each gather rebinds its name, freeing the unsorted array
    first, second = first[order], second[order]
    paths = np.stack((first, second), axis=1)
    # head marks where a run of equal keys (an interval) starts, and two past
    # the end; a run is bad unless its second key is no head but its third is
    head = np.concatenate((key[:1] >= 0, key[1:] != key[:-1], [True, True]))
    bad = np.flatnonzero(head[:-2] & (head[1:-1] | ~head[2:]))
    bottom, top = divmod(key[bad], span)
    return paths, tuple(zip(bottom.tolist(), top.tolist()))


def diamond_check(graph: IncidenceGraph) -> tuple[tuple[int, int], ...]:
    """Length-2 intervals whose complete in-graph path count is not 0 or 2."""
    return _diamonds(graph.edges)[1]


def _solve_gf2(equations, nvars: int) -> tuple[int, list[int]] | None:
    """One packed solution (free variables 0) and the packed basis of the
    homogeneous solutions, one vector per free variable; None if the system
    is inconsistent.  Both come from one echelon (pivot column -> (mask,
    rhs)), whose pivot masks do not depend on the right-hand sides."""
    pivots: dict[int, tuple[int, int]] = {}
    for mask, rhs in equations:
        while mask:
            col = mask.bit_length() - 1
            got = pivots.get(col)
            if got is None:
                pivots[col] = (mask, rhs)
                break
            mask ^= got[0]
            rhs ^= got[1]
        else:
            if rhs:
                return None
    # each pivot mask has its pivot as the TOP bit, so ascending order
    # guarantees the lower bits are already final
    order = sorted(pivots.items())

    def fill(vec: int, homogeneous: bool) -> int:
        for col, (mask, rhs) in order:
            if ((vec & mask).bit_count() + (0 if homogeneous else rhs)) & 1:
                vec |= 1 << col
        return vec

    kernel = [fill(1 << free, True) for free in range(nvars) if free not in pivots]
    return fill(0, False), kernel


def assign_signs(graph: IncidenceGraph) -> ChainComplex:
    """Pick +-2 per edge so the differential squares to zero, then verify.

    The gauge is the row order of graph.edges: the spanning forest takes the
    rows that join two components in that order (reversing the rows gives
    the other gauge, with the same cohomology).  Round r reduces the layer
    blocks of every component that no earlier round accepted under its
    kernel combination r, passing smith_blocks only those components'
    entries; a component fails once all 2^k combinations are tried, and the
    least failing component is the one named.
    """
    edges = graph.edges
    # the graph's spanning forest, undirected: tree edges are forced to +;
    # part numbers the components in the order of their least vertices, and
    # a stable sort by it makes each component's rows, in row order, one
    # slice, and likewise its diamonds, in interval order
    root, tree = graph.forest
    part = root[edges[:, 0]]
    scan = np.argsort(part, kind="stable")
    rows, tree, part = edges[scan], tree[scan], part[scan]
    part = np.cumsum(np.diff(part, prepend=part[:1]) != 0, dtype=np.int32)
    paths, bad = _diamonds(rows)
    if bad:
        raise DiamondViolation(bad)
    diamonds = paths.reshape(-1, 4)  # each interval's two paths
    diamonds = diamonds[np.argsort(part[diamonds[:, 0]], kind="stable")]
    count = int(part.max(initial=-1)) + 1
    edge_cuts = np.searchsorted(part, np.arange(count + 1)).tolist()
    diamond_cuts = np.searchsorted(part[diamonds[:, 0]], np.arange(count + 1)).tolist()

    value = _propagate(np.where(tree, 0, -1).astype(np.int8), diamonds)
    # each component's unknown edges with their GF(2) base and kernel basis,
    # as _solve_forced gives them (a settled component has none); none for
    # an even settled diamond or a clash
    spans = [slice(a, b) for a, b in zip(edge_cuts, edge_cuts[1:])]
    unknown = np.bincount(part[value < 0], minlength=count) > 0
    settled = ~unknown
    even = (np.bitwise_xor.reduce(value[diamonds], axis=1) & 1) == 0
    settled[part[diamonds[even, 0]]] = False
    solved = dict.fromkeys(np.flatnonzero(settled).tolist(), ((), 0, []))
    for c in np.flatnonzero(unknown).tolist():
        local = diamonds[diamond_cuts[c] : diamond_cuts[c + 1]] - edge_cuts[c]
        if (got := _solve_forced(value[spans[c]], local)) is not None:
            solved[c] = got

    def where(c: int) -> str:
        first = word_label(graph.group.word(int(rows[spans[c]].min())))
        return f"{graph.group.lie_type} eps={format_signs(graph.eps)}, component of {first}"

    failed = {
        c: f"no consistent sign assignment for {where(c)}" for c in range(count) if c not in solved
    }
    # round r writes kernel combination r of every component still pending
    # onto its unknown edges, and one elimination reduces their (component,
    # layer) blocks; a block's divisors are its units, all odd, then a chain
    # that holds an even divisor iff its last one is even
    top = len(graph.group.length_distribution()) - 1
    labels = part * top + graph.group._lengths[rows[:, 0]]
    smith: list[list[int]] = [[] for _ in range(top)]
    twos = np.zeros(top, np.int64)  # per layer, the accepted units: divisors 2 once doubled
    combo, pending = 0, sorted(solved)
    while pending:
        for c in pending:
            free, base, kernel = solved[c]
            if len(free):
                for a, vec in enumerate(kernel):
                    base ^= vec if combo >> a & 1 else 0
                value[spans[c]][free] = _bits(base, len(free))
        take = np.concatenate([np.arange(*edge_cuts[c : c + 2], dtype=np.int32) for c in pending])
        vals = 1 - 2 * value[take]
        units, rests = smith_blocks(rows[take, 1], rows[take, 0], vals, labels[take], count * top)
        even: dict[int, int] = {}  # component -> its first layer with an even divisor
        for b in sorted(rests):
            if rests[b][-1] % 2 == 0:
                even.setdefault(b // top, b % top)
        twos += units.reshape(count, top)[[c for c in pending if c not in even]].sum(axis=0)
        for b, rest in rests.items():
            if b // top not in even:
                smith[b % top] += [2 * d for d in rest]
        left = []
        for c, k in sorted(even.items()):
            if combo + 1 < 1 << len(solved[c][2]):
                left.append(c)
            else:
                failed[c] = (
                    f"sign assignment for {where(c)}: none of the 2^{len(solved[c][2])} kernel "
                    f"combinations reaches the mod-2 rank of the C^{k} -> C^{k + 1} block"
                )
        least = min(failed, default=count)  # a component past it is never named
        pending, combo = [c for c in left if c < least], combo + 1
    if failed:
        raise Unsolvable(failed[min(failed)])
    signs = np.empty(len(edges), np.int8)
    signs[scan] = 1 - 2 * value
    _verify_square_zero(graph, scan[paths], signs)

    return ChainComplex(
        graph.group,
        graph.eps,
        edges,
        signs,
        tuple(tuple(sorted(s + [2] * n)) for s, n in zip(smith, twos.tolist())),
    )


def _propagate(value: np.ndarray, diamonds: np.ndarray) -> np.ndarray:
    """Each round, every diamond with one unknown edge makes itself odd (in place
    on value: 0 is +, 1 is -, -1 unknown); it stops when no such diamond is left.
    A diamond's four values are one little-endian word, whose byte sums take one
    multiply: each unknown 0xff byte adds 1 to the count of high bits and to the
    sum of low bits, whose parity is then the forced value.  The diamonds still
    open are one shrinking row index, gathered in slices that stay in cache."""
    live = np.arange(len(diamonds))
    while True:
        word = np.empty((len(live), 4), np.int8)
        for at in range(0, len(live), 1 << 16):
            word[at : at + (1 << 16)] = value[diamonds[live[at : at + (1 << 16)]]]
        word = word.view("<u4").ravel()
        high = (word >> 7) & 0x01010101
        unknown = (high * 0x01010101) >> 24
        one = np.flatnonzero(unknown == 1)
        if not one.size:
            return value
        # the one high bit, in byte i, times 0x00010203 puts i in the top byte
        forced = diamonds[live[one], (high[one] * 0x00010203) >> 24]
        value[forced] = ((word[one] & 0x01010101) * 0x01010101 >> 24) & 1
        del word, high, one, forced
        live = live[unknown > 1]


def _bits(packed: int, n: int) -> np.ndarray:
    """Bits 0..n-1 of packed as an int8 0/1 array."""
    raw = np.frombuffer(packed.to_bytes((n + 7) // 8, "little"), np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(np.int8)


def _solve_forced(value: np.ndarray, diamonds: np.ndarray):
    """free, the positions of the edges value leaves unknown, then _solve_gf2's
    base and kernel over them for the diamond equations plus the edges value
    fixes (bit q is edge free[q]); None if they clash (a known diamond that is
    even joins the system as the equation 0 = 1)."""
    known = value[diamonds]
    keep = (known < 0).any(axis=1) | (known.sum(axis=1) % 2 == 0)
    free = np.flatnonzero(value < 0)
    label = np.where(known < 0, np.searchsorted(free, diamonds), -1)[keep].tolist()
    rhs = (1 - known[keep].clip(0).sum(axis=1) % 2).tolist()
    equations = [(sum(1 << q for q in row if q >= 0), r) for row, r in zip(label, rhs)]
    solved = _solve_gf2(equations, len(free))
    return None if solved is None else (free, *solved)


def _verify_square_zero(graph: IncidenceGraph, paths, signs) -> None:
    """d o d = 0: over every interval, the sign products of its two paths
    (consecutive rows of paths) cancel.  Names the lowest degree where they
    do not."""
    prod = signs[paths[:, 0]] * signs[paths[:, 1]]
    bad = paths[0::2][prod[0::2] + prod[1::2] != 0]
    if bad.size:
        k = min(graph.group.lengths[i] for i in graph.edges[bad[:, 0], 0].tolist())
        raise Unsolvable(
            f"differential does not square to zero after solving for "
            f"{graph.group.lie_type} eps={format_signs(graph.eps)}: "
            f"d_{k + 1} o d_{k} != 0 (C^{k} -> C^{k + 2})"
        )


def complex_for(group_or_type, eps) -> ChainComplex:
    return assign_signs(build_graph(group_or_type, eps))


def cohomology_of_complex(cc: ChainComplex) -> CohomologyGroups:
    """Free ranks and torsion from the Smith divisors the sign solve left on
    the complex (each is 2 * odd, so all of them are torsion)."""
    dims = cc.dims()
    top = cc.top_degree
    groups = []
    for k in range(top + 1):
        r_out = len(cc.smith[k]) if k < top else 0
        r_in = len(cc.smith[k - 1]) if k > 0 else 0
        groups.append((dims[k] - r_out - r_in, cc.smith[k - 1] if k > 0 else ()))
    return CohomologyGroups(tuple(groups))


def integral_cohomology(group_or_type, eps) -> CohomologyGroups:
    """Cohomology of the signed complex: free rank + divisors per degree."""
    return cohomology_of_complex(complex_for(group_or_type, eps))


def rational_betti(group_or_type, eps) -> tuple[int, ...]:
    return integral_cohomology(group_or_type, eps).free_ranks()


def mod2_dims(group_or_type) -> tuple[int, ...]:
    """GF(2) dimensions: all differentials vanish mod 2, so these are the
    length counts, read off the coset chain (E8 included)."""
    return tuple(length_distribution(_lie_type(group_or_type)))
