"""Incidence graphs on Weyl group vertices, built from blow-up data.

An edge w1 => w2 requires all four conditions: Bruhat cover, length step
one, equal blow-up count, equal accumulated sign vector.  Connectivity is
taken on the underlying undirected graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .blowup import Signs, _as_tuples, all_minus, chain_walk, format_signs, sign_vector
from .weyl import WeylGroup, word_label


@dataclass
class IncidenceGraph:
    group: WeylGroup
    eps: Signs
    counts: tuple[int, ...]
    final_signs: tuple[Signs, ...]
    edges: tuple[tuple[int, int], ...]
    # cover pairs where conditions a), b), d) held but c) failed
    cond_c_failures: tuple[tuple[int, int], ...]

    @property
    def vertex_count(self) -> int:
        return self.group.order

    def edge_words(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        word = self.group.word
        return [(word(i), word(j)) for i, j in self.edges]


def build_graph(group_or_type, eps) -> IncidenceGraph:
    """Edges and condition-c failures picked from the stored covers by masks
    over every element's blow-up count and final sign code."""
    from .blowup import _coerce_group

    group = _coerce_group(group_or_type)
    eps = sign_vector(eps, group.rank)
    counts, codes = chain_walk(group, eps)
    bottom, top = group.covers()
    same = codes[bottom] == codes[top]
    flat = counts[bottom] == counts[top]

    def pairs(mask):
        return tuple(zip(bottom[mask].tolist(), top[mask].tolist()))

    return IncidenceGraph(
        group, eps, *_as_tuples(counts, codes, group.rank),
        pairs(same & flat), pairs(same & ~flat),
    )


def spanning_forest(vertices, edges) -> tuple[list[tuple[int, ...]], list[tuple[int, int]]]:
    """Scan edges in order with one union-find over the given vertices.

    Returns the connected components (sorted vertex tuples, sorted) and the
    tree edges: those that joined two components when scanned, in scan order.
    """
    parent = {v: v for v in vertices}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    for e in edges:
        ri, rj = find(e[0]), find(e[1])
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
            tree.append(e)
    buckets: dict[int, list[int]] = {}
    for v in parent:
        buckets.setdefault(find(v), []).append(v)
    return sorted(tuple(sorted(vs)) for vs in buckets.values()), tree


def components(graph: IncidenceGraph) -> list[tuple[int, ...]]:
    """Undirected connected components, each a sorted vertex tuple."""
    return spanning_forest(range(graph.vertex_count), graph.edges)[0]


def negative_components(graph: IncidenceGraph) -> int:
    """Components of the subgraph induced on the all-minus-stable vertices."""
    minus = all_minus(graph.group.rank)
    inside = {v for v in range(graph.vertex_count) if graph.final_signs[v] == minus}
    induced = [(i, j) for i, j in graph.edges if i in inside and j in inside]
    return len(spanning_forest(inside, induced)[0])


def export_graph(graph: IncidenceGraph, fmt: str) -> str:
    """Serialize as 'dot' or 'json'; vertex order is (length, matrix key)."""
    order = graph.group.canonical_order()
    word, lengths = graph.group.word, graph.group.lengths
    pos = {v: k for k, v in enumerate(order)}
    edges = sorted((pos[i], pos[j]) for i, j in graph.edges)
    if fmt == "dot":
        lines = ["digraph incidence {"]
        for v in order:
            label = f"{word_label(word(v))} | l={lengths[v]} | eta={graph.counts[v]}"
            lines.append(f'  n{pos[v]} [label="{label}"];')
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
            "edges": [list(e) for e in edges],
        }
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown export format {fmt!r} (want 'dot' or 'json')")


def graph_from_json(text: str, group: WeylGroup) -> IncidenceGraph:
    """Rebuild a graph exported with export_graph(..., 'json')."""
    payload = json.loads(text)
    if payload["type"] != str(group.lie_type):
        raise ValueError("type mismatch between payload and group")
    eps = sign_vector(payload["eps"], group.rank)
    idx = []
    for k, v in enumerate(payload["vertices"]):
        try:
            idx.append(group.word_index(tuple(v["word"])))
        except ValueError as e:
            raise ValueError(f"vertex {k}: {e}") from None
    counts = [0] * group.order
    signs: list[Signs] = [eps] * group.order
    for v, i in zip(payload["vertices"], idx):
        counts[i] = v["eta"]
        signs[i] = sign_vector(v["sign"], group.rank)
    edges = tuple(sorted((idx[a], idx[b]) for a, b in payload["edges"]))
    return IncidenceGraph(group, eps, tuple(counts), tuple(signs), edges, ())
