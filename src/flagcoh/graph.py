"""Incidence graphs on Weyl group vertices, built from blow-up data.

An edge w1 => w2 requires all four conditions: Bruhat cover, length step
one, equal blow-up count, equal accumulated sign vector.  Connectivity is
taken on the underlying undirected graph.  The edges are one (m, 2) int32
array of (bottom, top) element-index rows, a mask over the covers in their
stored (bottom, top) order: the spanning-forest gauge and the sign solve
read that order as is, and only the export sorts by canonical rank.  Each
graph builds its spanning forest once, for components and the gauge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blowup import Signs, _as_tuples, _coerce_group, all_minus, chain_walk, format_signs, sign_vector
from .weyl import WeylGroup, word_label


@dataclass(frozen=True)
class IncidenceGraph:
    group: WeylGroup
    eps: Signs
    counts: tuple[int, ...]
    final_signs: tuple[Signs, ...]
    edges: np.ndarray  # (m, 2) int32 (bottom, top) rows in cover order
    # cover pairs where conditions a), b), d) held but c) failed, likewise
    cond_c_failures: np.ndarray

    @property
    def vertex_count(self) -> int:
        return self.group.order

    @cached_property
    def forest(self) -> tuple[np.ndarray, np.ndarray]:
        """spanning_forest of the edges, built once per graph."""
        return spanning_forest(self.vertex_count, self.edges)

    def edge_words(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        word = self.group.word
        return [(word(i), word(j)) for i, j in self.edges.tolist()]


def build_graph(group_or_type, eps) -> IncidenceGraph:
    """Edges and condition-c failures picked from the stored covers by masks
    over every element's blow-up count and final sign code."""
    group = _coerce_group(group_or_type)
    eps = sign_vector(eps, group.rank)
    counts, codes = chain_walk(group, eps)
    bottom, top = group.covers()
    same = codes[bottom] == codes[top]
    flat = counts[bottom] == counts[top]
    rows = [np.stack((bottom[m], top[m]), 1) for m in (same & flat, same & ~flat)]
    return IncidenceGraph(group, eps, *_as_tuples(counts, codes, group.rank), *rows)


def spanning_forest(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each vertex's root (the least vertex of its component) and the tree-edge
    mask: the rows that join two components when scanned in order.

    That scan's tree is Kruskal's forest under weight = row position, unique
    as the weights are distinct, so Borůvka finds the same rows: each round,
    every component takes its least incident row, then hooks across it.
    """
    label, tree = np.arange(n, dtype=np.int32), np.zeros(len(edges), bool)
    pos, ends = np.arange(len(edges), dtype=np.int32), np.asarray(edges, np.int32).T
    while pos.size:
        sides = label.take(ends)
        live = sides[0] != sides[1]
        pos, ends, sides = pos[live], ends[:, live], sides[:, live]
        best = np.full(n, len(edges), np.int32)
        for side in sides:
            np.minimum.at(best, side, pos)
        comps = np.flatnonzero(best < len(edges))
        tree[best[comps]] = True
        # two components that took the same row hook onto each other; the
        # lesser stays a root, and pointer jumping flattens every hook chain
        row = np.searchsorted(pos, best[comps])
        far = np.where(sides[0, row] == comps, sides[1, row], sides[0, row])
        hook = np.arange(n, dtype=np.int32)
        hook[comps] = np.where((best[far] == best[comps]) & (comps < far), comps, far)
        while (hook[hook] != hook).any():
            hook = hook[hook]
        label = hook[label]
    least = np.full(n, n, np.int32)
    np.minimum.at(least, label, np.arange(n, dtype=np.int32))
    return least[label], tree


def components(graph: IncidenceGraph) -> list[tuple[int, ...]]:
    """Undirected connected components, each a sorted vertex tuple, sorted."""
    root = graph.forest[0]
    by_root = np.argsort(root, kind="stable")
    starts = np.flatnonzero(np.diff(root[by_root], prepend=-1))
    return [tuple(vs.tolist()) for vs in np.split(by_root, starts[1:])]


def negative_components(graph: IncidenceGraph) -> int:
    """Components of the subgraph induced on the all-minus-stable vertices."""
    minus = all_minus(graph.group.rank)
    inside = np.array([s == minus for s in graph.final_signs])
    induced = graph.edges[inside[graph.edges].all(axis=1)]
    root = spanning_forest(graph.vertex_count, induced)[0]
    return len(set(root[inside].tolist()))


def export_graph(graph: IncidenceGraph, fmt: str) -> str:
    """Serialize as 'dot' or 'json'; vertex order is (length, matrix key)."""
    order = graph.group.canonical_order()
    edges = np.argsort(order)[graph.edges]
    edges = edges[np.lexsort(edges.T[::-1])].tolist()
    order, word, lengths = order.tolist(), graph.group.word, graph.group.lengths
    if fmt == "dot":
        lines = ["digraph incidence {"]
        for k, v in enumerate(order):
            label = f"{word_label(word(v))} | l={lengths[v]} | eta={graph.counts[v]}"
            lines.append(f'  n{k} [label="{label}"];')
        for a, b in edges:
            lines.append(f"  n{a} -> n{b};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "type": str(graph.group.lie_type),
            "eps": format_signs(graph.eps),
            "vertices": [
                {
                    "word": list(word(v)),
                    "length": lengths[v],
                    "eta": graph.counts[v],
                    "sign": format_signs(graph.final_signs[v]),
                }
                for v in order
            ],
            "edges": edges,
        }
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown export format {fmt!r} (want 'dot' or 'json')")


def _fields(obj, keys: tuple[str, ...], where: str) -> list:
    """obj's values at keys; a ValueError names the first key obj lacks."""
    for key in keys:
        if not isinstance(obj, dict) or key not in obj:
            raise ValueError(f"{where} has no key {key!r}")
    return [obj[key] for key in keys]


def graph_from_json(text: str, group: WeylGroup) -> IncidenceGraph:
    """Rebuild a graph exported with export_graph(..., 'json').  Every element
    must be listed exactly once, with the blow-up count and final sign that
    the walk from eps gives it, and every edge must be a pair of vertex
    positions whose elements form a Bruhat cover, listed once."""
    lie_type, eps, vertices, edge_list = _fields(
        json.loads(text), ("type", "eps", "vertices", "edges"), "payload"
    )
    if lie_type != str(group.lie_type):
        raise ValueError("type mismatch between payload and group")
    eps, n = sign_vector(eps, group.rank), group.order
    where: dict[int, int] = {}  # element -> its vertex position, in position order
    for k, v in enumerate(vertices):
        word = _fields(v, ("word", "eta", "sign"), f"vertex {k}")[0]
        try:
            i = group.word_index(tuple(word))
        except ValueError as e:
            raise ValueError(f"vertex {k}: {e}") from None
        if where.setdefault(i, k) != k:
            raise ValueError(f"vertex {k}: same element as vertex {where[i]}")
    if len(where) != n:
        raise ValueError(f"payload lists {len(where)} of the {n} elements of W({group.lie_type})")
    counts, signs = _as_tuples(*chain_walk(group, eps), group.rank)
    for i, k in where.items():
        for key, value in (("eta", counts[i]), ("sign", format_signs(signs[i]))):
            if vertices[k][key] != value:
                raise ValueError(f"vertex {k}: {key} {vertices[k][key]!r}, expected {value!r}")

    seen: dict[tuple[int, int], int] = {}  # edge -> its first position
    for k, e in enumerate(edge_list):
        pair = isinstance(e, list) and len(e) == 2
        if not pair or not all(type(a) is int and 0 <= a < n for a in e):
            raise ValueError(f"edge {k}: {e!r} is not a pair of vertex positions 0..{n - 1}")
        if seen.setdefault(tuple(e), k) != k:
            raise ValueError(f"edge {k}: same edge as edge {seen[tuple(e)]}")
    rows = np.array(list(where))[np.array(edge_list, np.int64).reshape(-1, 2)]
    covers = np.ravel_multi_index(group.covers(), (n, n))
    bad = np.flatnonzero(~np.isin(np.ravel_multi_index(rows.T, (n, n)), covers))
    if bad.size:
        a, b = (word_label(group.word(i)) for i in rows[bad[0]].tolist())
        raise ValueError(f"edge {bad[0]}: {a} -> {b} is not a Bruhat cover")
    edges = rows[np.lexsort(rows.T[::-1])].astype(np.int32)
    return IncidenceGraph(group, eps, counts, signs, edges, edges[:0])
