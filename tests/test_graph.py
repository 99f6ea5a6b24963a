import dataclasses
import json

import numpy as np
import pytest

from flagcoh.blowup import all_minus, all_sign_vectors
from flagcoh.graph import (
    build_graph,
    components,
    export_graph,
    graph_from_json,
    negative_components,
    spanning_forest,
)
from flagcoh.weyl import enumerate_group


def _edge_words(g):
    return sorted(g.edge_words())


def test_a2_minus_edges():
    g = build_graph("A2", "--")
    assert _edge_words(g) == [((1,), (1, 2)), ((2,), (2, 1))]


def test_a2_minusplus_edges():
    g = build_graph("A2", "-+")
    assert _edge_words(g) == [((), (2,)), ((1,), (2, 1)), ((1, 2), (1, 2, 1))]


def test_a1_minus_has_no_edges():
    g = build_graph("A1", "-")
    assert len(g.edges) == 0
    assert len(components(g)) == 2


def test_edges_only_join_consecutive_lengths():
    for name, eps in [("A3", "---"), ("B3", "-+-"), ("G2", "--")]:
        g = build_graph(name, eps)
        for i, j in g.edges:
            assert g.group.elements[j].length == g.group.elements[i].length + 1


def test_edge_endpoints_share_count_and_sign():
    for name in ["A3", "B3", "G2"]:
        g = build_graph(name, all_minus(int(name[1])))
        for i, j in g.edges:
            assert g.counts[i] == g.counts[j]
            assert g.final_signs[i] == g.final_signs[j]


def test_component_counts():
    assert len(components(build_graph("A2", "--"))) == 4
    assert len(components(build_graph("A3", "---"))) == 10
    assert len(components(build_graph("B3", "---"))) == 17


def test_pipeline_runs_in_cover_order_without_matrices(monkeypatch):
    from flagcoh.blowup import chain_walk
    from flagcoh.cohomology import assign_signs
    from flagcoh.weyl import WeylGroup

    def refuse(self):
        raise RuntimeError("only the writers read the matrices or the canonical order")

    monkeypatch.setattr(WeylGroup, "matrices", refuse)
    monkeypatch.setattr(WeylGroup, "canonical_order", refuse)
    group = enumerate_group("D4")
    bottom, top = group.covers()
    for eps in all_sign_vectors(group.rank):
        g = build_graph(group, eps)
        counts, codes = chain_walk(group, eps)
        same, flat = codes[bottom] == codes[top], counts[bottom] == counts[top]
        assert np.array_equal(g.edges, np.stack((bottom, top), 1)[same & flat])
        assert np.array_equal(g.cond_c_failures, np.stack((bottom, top), 1)[same & ~flat])
        assert len(components(g)) == len(set(_sequential_forest(group.order, g.edges)[0]))
        for edges in (g.edges, g.edges[::-1]):
            assert len(assign_signs(dataclasses.replace(g, edges=edges)).signs) == len(edges)


def _sequential_forest(n, edges):
    """The oracle: one union-find scanning the rows in order."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    for i, j in edges.tolist():
        ri, rj = find(i), find(j)
        tree.append(ri != rj)
        parent[max(ri, rj)] = min(ri, rj)
    return [find(v) for v in range(n)], tree


def _forest_cases():
    for name in ["A3", "B3", "C3", "G2", "D4"]:
        group = enumerate_group(name)
        for eps in all_sign_vectors(group.rank):
            yield f"{name} {eps}", group.order, build_graph(group, eps).edges
    yield "E6 all-minus", 51840, build_graph("E6", all_minus(6)).edges
    yield "no edges", 5, np.zeros((0, 2), np.int32)
    # vertices 0, 3 and 7 lie on no edge; the rest form a cycle and a path
    yield "isolated vertices", 8, np.array([[1, 5], [2, 5], [1, 2], [4, 6], [2, 6]], np.int32)


def test_spanning_forest_matches_a_sequential_union_find():
    # Borůvka must give the scan's roots and tree rows, on either scan order
    for label, n, edges in _forest_cases():
        for scan in (edges, edges[::-1]):
            root, tree = spanning_forest(n, scan)
            assert (root.tolist(), tree.tolist()) == _sequential_forest(n, scan), label


def test_one_forest_per_graph(monkeypatch):
    # components and the sign solve read one forest; a replaced graph builds its own
    import flagcoh.graph
    from flagcoh.cohomology import assign_signs

    calls = []
    real = flagcoh.graph.spanning_forest
    monkeypatch.setattr(
        flagcoh.graph, "spanning_forest", lambda n, edges: calls.append(len(edges)) or real(n, edges)
    )
    g = build_graph("B3", "---")
    components(g)
    assign_signs(g)
    assert calls == [len(g.edges)]
    assign_signs(dataclasses.replace(g, edges=g.edges[::-1]))
    assert calls == [len(g.edges)] * 2


def test_components_partition_vertices():
    g = build_graph("A3", "---")
    comps = components(g)
    seen = sorted(v for comp in comps for v in comp)
    assert seen == list(range(g.vertex_count))


def test_component_shares_annotations():
    # transitivity of the edge conditions: one count and one sign per component
    for name, eps in [("A3", "---"), ("B3", "---"), ("G2", "-+")]:
        g = build_graph(name, eps)
        for comp in components(g):
            assert len({g.counts[v] for v in comp}) == 1
            assert len({g.final_signs[v] for v in comp}) == 1


def test_negative_components():
    assert negative_components(build_graph("A1", "-")) == 2
    assert negative_components(build_graph("A2", "--")) == 4 // 2  # 2^g, g=1
    assert negative_components(build_graph("A3", "---")) == 4


def test_negative_components_b3_undershoots_by_graph_merge():
    # the graph merges exactly one pair of regions (N_c = 18 vs N_g = 17),
    # so the soft 2^g = 8 expectation reads 7 on the graph
    assert negative_components(build_graph("B3", "---")) == 7


def test_condition_c_redundancy_simply_laced():
    for name in ["A2", "A3", "G2"]:
        g = build_graph(name, all_minus(int(name[1])))
        assert len(g.cond_c_failures) == 0


def test_condition_c_not_redundant_in_b3():
    # the short-root generator never flips signs but still counts blow-ups
    g = build_graph("B3", "---")
    assert len(g.cond_c_failures) > 0


def test_plus_component_pairing():
    # when eps_i = +, the identity and s_i sit in one component
    for name in ["A2", "A3", "B3", "G2"]:
        g0 = enumerate_group(name)
        for eps in all_sign_vectors(g0.rank):
            plus_spots = [i for i, x in enumerate(eps) if x == 1]
            if not plus_spots:
                continue
            g = build_graph(g0, eps)
            comps = components(g)
            labels = {}
            for k, comp in enumerate(comps):
                for v in comp:
                    labels[v] = k
            for i in plus_spots:
                si = next(
                    idx for idx, w in enumerate(g0.elements) if w.word == (i + 1,)
                )
                assert labels[0] == labels[si]


def test_dot_export():
    text = export_graph(build_graph("A1", "-"), "dot")
    assert text.startswith("digraph")
    assert text.count("->") == 0
    assert 'label="e | l=0 | eta=0"' in text
    a2 = export_graph(build_graph("A2", "--"), "dot")
    assert a2.count("->") == 2
    assert a2.count("[label=") == 6


def test_dot_deterministic():
    a = export_graph(build_graph("A3", "---"), "dot")
    b = export_graph(build_graph("A3", "---"), "dot")
    assert a == b


def test_unknown_format():
    with pytest.raises(ValueError):
        export_graph(build_graph("A1", "-"), "gml")


def test_json_round_trip():
    g = build_graph("A3", "---")
    text = export_graph(g, "json")
    payload = json.loads(text)
    assert payload["type"] == "A3" and payload["eps"] == "---"
    back = graph_from_json(text, g.group)
    assert np.array_equal(back.edges, g.edges)
    assert back.counts == g.counts
    assert back.final_signs == g.final_signs


@pytest.mark.parametrize("word, reason", [([1, 1, 1], "not reduced"), ([0], "letter 0")])
def test_json_rejects_invalid_words(word, reason):
    g = build_graph("A2", "--")
    payload = json.loads(export_graph(g, "json"))
    payload["vertices"][2]["word"] = word
    with pytest.raises(ValueError, match=f"vertex 2: .*{reason}"):
        graph_from_json(json.dumps(payload), g.group)


def _edge_mutant(edge):
    return lambda payload: payload["edges"].append(edge)


def _truncated(payload):
    del payload["vertices"][3:]


def _duplicated(payload):
    payload["vertices"][4] = payload["vertices"][1]


def _edge_repeated(payload):
    payload["edges"].append(list(payload["edges"][0]))


def _vertex_mutant(k, key, value):
    return lambda payload: payload["vertices"][k].update({key: value})


def _key_dropped(key, where=lambda payload: payload):
    def mutate(payload):
        del where(payload)[key]

    return mutate


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_vertex_mutant(2, "eta", "x"), r"vertex 2: eta 'x', expected 1"),
        (_vertex_mutant(5, "eta", 7), r"vertex 5: eta 7, expected 2"),
        (_vertex_mutant(3, "sign", "-+"), r"vertex 3: sign '-\+', expected '\+-'"),
        (_key_dropped("edges"), r"payload has no key 'edges'"),
        (_key_dropped("eta", lambda payload: payload["vertices"][2]), r"vertex 2 has no key 'eta'"),
        (lambda payload: [payload], r"payload has no key 'type'"),
        (_edge_mutant([-1, 2]), r"edge 2: \[-1, 2\] is not a pair of vertex positions 0\.\.5"),
        (_edge_mutant([0, 9]), r"edge 2: \[0, 9\] is not a pair of vertex positions 0\.\.5"),
        (_edge_mutant([0]), r"edge 2: \[0\] is not a pair"),
        (_edge_mutant([0, 5]), r"edge 2: e -> 121 is not a Bruhat cover"),
        (_truncated, r"payload lists 3 of the 6 elements of W\(A2\)"),
        (_duplicated, r"vertex 4: same element as vertex 1"),
        (_edge_repeated, r"edge 2: same edge as edge 0"),
    ],
)
def test_json_rejects_invalid_graphs(mutate, message):
    g = build_graph("A2", "--")
    payload = json.loads(export_graph(g, "json"))
    # a mutant edits the payload in place or returns one to replace it
    text = json.dumps(mutate(payload) or payload)
    with pytest.raises(ValueError, match=message):
        graph_from_json(text, g.group)
