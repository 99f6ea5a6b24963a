"""Integer cochain complexes over incidence graphs and their cohomology.

Graph edges become matrix entries +-2.  Signs are solved over GF(2) so
that consecutive differentials compose to zero: every complete diamond
(the two cover paths through a length-2 Bruhat interval) contributes one
parity equation, and a spanning forest of the graph is gauged to +.

The differential only has entries on graph edges, so the complex is
block-diagonal over the graph's connected components; it is solved and
reduced one component at a time.  Within a component, the rank of each
layer block is aligned with the GF(2) rank of its support by an
exhaustive search over the component's GF(2) solution space, so
Unsolvable means that no valid signs exist.  Cohomology sums the Smith
forms of the per-component layer blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blowup import Signs, format_signs, sign_vector
from .errors import DiamondViolation, Unsolvable
from .graph import IncidenceGraph, _word_label, build_graph, spanning_forest
from .snf import rank, smith_diagonal
from .weyl import WeylGroup


@dataclass
class ChainComplex:
    group: WeylGroup
    eps: Signs
    degree_elements: tuple[tuple[int, ...], ...]  # element indices per length
    diffs: tuple[tuple[tuple[int, ...], ...], ...]  # diffs[k]: C^k -> C^{k+1}
    components: tuple[tuple[int, ...], ...]  # graph components: diffs split over them

    @property
    def top_degree(self) -> int:
        return len(self.degree_elements) - 1

    def dims(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.degree_elements)


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


def _diamonds(graph: IncidenceGraph):
    """Per length-2 interval (bottom, top): the two-edge cover paths and how
    many of them lie entirely in the graph."""
    group = graph.group
    up = group.covers_up()
    edge_set = set(graph.edges)
    paths: dict[tuple[int, int], list[tuple[tuple[int, int], tuple[int, int], bool]]] = {}
    for i, mids in up.items():
        for j in mids:
            for k in up.get(j, ()):
                complete = (i, j) in edge_set and (j, k) in edge_set
                paths.setdefault((i, k), []).append(((i, j), (j, k), complete))
    return paths


def diamond_check(graph: IncidenceGraph) -> tuple[tuple[int, int], ...]:
    """Length-2 intervals whose complete in-graph path count is not 0 or 2."""
    bad = []
    for (i, k), plist in sorted(_diamonds(graph).items()):
        complete = sum(1 for _, _, c in plist if c)
        if complete not in (0, 2):
            bad.append((i, k))
    return tuple(bad)


def _eliminate_gf2(equations) -> dict[int, tuple[int, int]] | None:
    """Row echelon over GF(2): pivot column -> (mask, rhs); None if inconsistent."""
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
    return pivots


def _solve_gf2(equations, nvars: int) -> list[int] | None:
    """One solution of the system, with free variables set to 0."""
    pivots = _eliminate_gf2(equations)
    if pivots is None:
        return None
    solution = [0] * nvars
    # each pivot mask has its pivot as the TOP bit, so ascending order
    # guarantees the lower bits are already final
    for col in sorted(pivots):
        mask, rhs = pivots[col]
        acc = rhs
        rest = mask & ~(1 << col)
        while rest:
            b = rest & -rest
            acc ^= solution[b.bit_length() - 1]
            rest ^= b
        solution[col] = acc
    return solution


def _kernel_basis_gf2(equations, nvars: int) -> list[int]:
    """Basis masks of the homogeneous solution space, one per free variable."""
    pivots = _eliminate_gf2([(m, 0) for m, _ in equations])
    basis = []
    for free in range(nvars):
        if free in pivots:
            continue
        vec = 1 << free
        for col in sorted(pivots):
            mask, _ = pivots[col]
            rest = mask & ~(1 << col)
            acc = 0
            while rest:
                b = rest & -rest
                acc ^= (vec >> (b.bit_length() - 1)) & 1
                rest ^= b
            if acc:
                vec |= 1 << col
        basis.append(vec)
    return basis


def _layer_slots(group: WeylGroup, comp) -> dict[int, list[int]]:
    """One component's vertices grouped by length, in ascending index."""
    els = group.elements
    slots: dict[int, list[int]] = {}
    for v in comp:
        slots.setdefault(els[v].length, []).append(v)
    return slots


def assign_signs(graph: IncidenceGraph, gauge: str = "forward") -> ChainComplex:
    """Pick +-2 per edge so the differential squares to zero, then verify.

    gauge picks the spanning-forest orientation ("forward" or "reverse"
    canonical edge order); any valid gauge must yield the same cohomology.
    Each graph component is solved on its own (see _solve_component).
    """
    bad = diamond_check(graph)
    if bad:
        raise DiamondViolation(bad)
    els = graph.group.elements
    edges = sorted(graph.edges, key=lambda e: (els[e[0]].length, els[e[0]].mat, els[e[1]].mat))
    if gauge == "reverse":
        edges = list(reversed(edges))
    elif gauge != "forward":
        raise ValueError(f"unknown gauge {gauge!r}")

    # spanning forest over the undirected graph: tree edges are forced to +
    comps, tree = spanning_forest(range(graph.vertex_count), edges)
    comp_of = {v: c for c, vs in enumerate(comps) for v in vs}
    comp_edges: list[list[tuple[int, int]]] = [[] for _ in comps]
    for e in edges:
        comp_edges[comp_of[e[0]]].append(e)
    # local bit positions keep the global relative order, so each component
    # gets the same GF(2) pivots and solution as one global system would
    pos = {e: k for es in comp_edges for k, e in enumerate(es)}
    equations: list[list[tuple[int, int]]] = [[] for _ in comps]
    for e in tree:
        equations[comp_of[e[0]]].append((1 << pos[e], 0))
    # one parity equation per interval with both paths complete; its four
    # edges share one component
    for (_, _), plist in sorted(_diamonds(graph).items()):
        complete = [(e1, e2) for e1, e2, c in plist if c]
        if complete:
            (a1, a2), (b1, b2) = complete
            mask = (1 << pos[a1]) ^ (1 << pos[a2]) ^ (1 << pos[b1]) ^ (1 << pos[b2])
            equations[comp_of[a1[0]]].append((mask, 1))

    layers = graph.group.by_length()
    layer_pos = [{v: a for a, v in enumerate(layer)} for layer in layers]
    diffs = [[[0] * len(layers[k]) for _ in layers[k + 1]] for k in range(len(layers) - 1)]
    for comp, es, eqs in zip(comps, comp_edges, equations):
        packed = _solve_component(graph, comp, es, eqs)
        for p, (i, j) in enumerate(es):
            k = els[i].length
            diffs[k][layer_pos[k + 1][j]][layer_pos[k][i]] = -2 if (packed >> p) & 1 else 2
    diffs = tuple(tuple(tuple(r) for r in m) for m in diffs)

    cc = ChainComplex(
        graph.group, graph.eps, tuple(tuple(l) for l in layers), diffs, tuple(comps)
    )
    _verify_square_zero(cc)
    return cc


def _solve_component(graph: IncidenceGraph, comp, edges, equations) -> int:
    """Packed sign bits (bit p set = edge p gets -) for one component.

    The diamond equations never see a cycle that stays between two adjacent
    length layers, so its sign product is free; the underlying cell
    structure has exponent-2 torsion, which forces the rational rank of
    every layer block down to the GF(2) rank of its sign-free support.  All
    2^k combinations of the GF(2) kernel are tried, so Unsolvable means no
    valid signs exist for this component.
    """
    slots = _layer_slots(graph.group, comp)
    local = {v: a for vs in slots.values() for a, v in enumerate(vs)}
    layer_edges: dict[int, list[int]] = {}
    for p, (i, _) in enumerate(edges):
        layer_edges.setdefault(graph.group.elements[i].length, []).append(p)

    def block(k: int, packed: int) -> list[list[int]]:
        rows = [[0] * len(slots[k]) for _ in slots[k + 1]]
        for p in layer_edges[k]:
            i, j = edges[p]
            rows[local[j]][local[i]] = -1 if (packed >> p) & 1 else 1
        return rows

    # per layer, the GF(2) rank of the sign-free support (rows as bit masks)
    targets = {}
    for k in layer_edges:
        masks = [(sum(1 << c for c, x in enumerate(row) if x), 0) for row in block(k, 0)]
        targets[k] = len(_eliminate_gf2(masks))
    where = (
        f"{graph.group.lie_type} eps={format_signs(graph.eps)}, component of "
        f"{_word_label(graph.group.elements[comp[0]].word)}"
    )
    bits = _solve_gf2(equations, len(edges))
    if bits is None:
        raise Unsolvable(f"no consistent sign assignment for {where}")
    base = sum(b << p for p, b in enumerate(bits))
    kernel = _kernel_basis_gf2(equations, len(edges))
    for combo in range(1 << len(kernel)):
        packed = base
        for a, vec in enumerate(kernel):
            if (combo >> a) & 1:
                packed ^= vec
        miss = next((k for k in sorted(layer_edges) if rank(block(k, packed)) != targets[k]), None)
        if miss is None:
            return packed
    raise Unsolvable(
        f"sign assignment for {where}: none of the 2^{len(kernel)} kernel combinations "
        f"reaches the mod-2 rank of the C^{miss} -> C^{miss + 1} block"
    )


def _verify_square_zero(cc: ChainComplex) -> None:
    for k in range(len(cc.diffs) - 1):
        a, b = cc.diffs[k + 1], cc.diffs[k]
        if not a or not b:
            continue
        for row in a:
            acc = [0] * len(b[0])
            for x, brow in zip(row, b):
                if x:
                    acc = [p + x * q for p, q in zip(acc, brow)]
            if any(acc):
                raise Unsolvable("differential does not square to zero after solving")


def complex_for(group_or_type, eps, gauge: str = "forward") -> ChainComplex:
    from .blowup import _coerce_group

    group = _coerce_group(group_or_type)
    return assign_signs(build_graph(group, sign_vector(eps, group.rank)), gauge)


def cohomology_of_complex(cc: ChainComplex) -> CohomologyGroups:
    """Smith forms of each component's layer blocks, summed per degree."""
    dims = cc.dims()
    top = cc.top_degree
    layer_pos = [{v: a for a, v in enumerate(layer)} for layer in cc.degree_elements]
    ranks = [0] * top
    divisors: list[list[int]] = [[] for _ in range(top)]
    for comp in cc.components:
        slots = _layer_slots(cc.group, comp)
        for k in slots:
            if k + 1 not in slots:
                continue
            cols = [layer_pos[k][v] for v in slots[k]]
            block = [[cc.diffs[k][layer_pos[k + 1][v]][c] for c in cols] for v in slots[k + 1]]
            diag = smith_diagonal(block)
            ranks[k] += len([d for d in diag if d])
            divisors[k] += [d for d in diag if d > 1]
    groups = []
    for k in range(top + 1):
        r_out = ranks[k] if k < top else 0
        r_in = ranks[k - 1] if k > 0 else 0
        free = dims[k] - r_out - r_in
        tors = tuple(sorted(divisors[k - 1])) if k > 0 else ()
        groups.append((free, tors))
    return CohomologyGroups(tuple(groups))


def integral_cohomology(group_or_type, eps, gauge: str = "forward") -> CohomologyGroups:
    """Cohomology of the signed complex: free rank + divisors per degree."""
    return cohomology_of_complex(complex_for(group_or_type, eps, gauge))


def rational_betti(group_or_type, eps) -> tuple[int, ...]:
    return integral_cohomology(group_or_type, eps).free_ranks()


def mod2_dims(group_or_type, eps=None) -> tuple[int, ...]:
    """GF(2) dimensions: all differentials vanish mod 2, so these are the
    length-distribution counts."""
    from .blowup import _coerce_group

    group = _coerce_group(group_or_type)
    return tuple(group.length_distribution())
