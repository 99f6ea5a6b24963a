import dataclasses
import hashlib
import itertools
import re

import numpy as np
import pytest

from flagcoh import cohomology, snf
from flagcoh.blowup import all_minus, all_sign_vectors, blowup_poly, blowup_table, sign_vector
from flagcoh.cartan import compact_dual_data
from flagcoh.errors import DiamondViolation, Unsolvable
from flagcoh.cohomology import (
    assign_signs,
    cohomology_of_complex,
    complex_for,
    diamond_check,
    integral_cohomology,
    mod2_dims,
    rational_betti,
)
from flagcoh.graph import build_graph, spanning_forest
from flagcoh.snf import rank, smith_blocks, smith_diagonal
from flagcoh.weyl import enumerate_group


def exterior_betti(name):
    degrees = compact_dual_data(name).degrees
    top = sum(2 * d - 1 for d in degrees)
    out = [0] * (top + 1)
    for r in range(len(degrees) + 1):
        for comb in itertools.combinations(degrees, r):
            out[sum(2 * d - 1 for d in comb)] += 1
    return tuple(out)


def test_smith_diagonal_basics():
    assert smith_diagonal([[2, 0], [0, 2]]) == [2, 2]
    assert smith_diagonal([[2, 4], [6, 8]]) == [2, 4]
    assert smith_diagonal([[0, 0], [0, 0]]) == []
    assert rank([[1, 2], [2, 4]]) == 1
    assert smith_diagonal([[2, 0], [0, 3]]) == [1, 6]
    assert smith_diagonal([[0, 3], [2, 0]]) == [1, 6]
    # divisibility chain, determinant preserved
    d = smith_diagonal([[6, 0, 0], [0, 10, 0], [0, 0, 15]])
    assert d == [1, 30, 30] and d[0] * d[1] * d[2] == 900


def test_diamond_check_passes():
    assert diamond_check(build_graph("A2", "--")) == ()
    assert diamond_check(build_graph("A3", "---")) == ()
    assert diamond_check(build_graph("A1", "-")) == ()


def test_a2_minus_complex_is_diagonal_two():
    cc = assign_signs(build_graph("A2", "--"))
    assert cc.dims() == (1, 2, 2, 1)
    # the only nonzero map: both edges carry +2 (no diamond constraints)
    assert cc.diffs[0] == ((0,), (0,))
    assert cc.diffs[1] == ((2, 0), (0, 2))
    assert cc.diffs[2] == ((0, 0),)


def test_a1_complex_has_zero_maps():
    cc = assign_signs(build_graph("A1", "-"))
    assert cc.diffs == (((0,),),)


def test_square_zero_everywhere():
    for name in ["A3", "B3", "C3", "G2", "D4"]:
        g0 = enumerate_group(name)
        for eps in [all_minus(g0.rank)] + all_sign_vectors(g0.rank)[:3]:
            cc = assign_signs(build_graph(g0, eps))  # raises if delta^2 != 0
            assert cc.dims() == tuple(g0.length_distribution())


def test_integral_cohomology_a2():
    groups = integral_cohomology("A2", "--").groups
    assert groups == ((1, ()), (0, ()), (0, (2, 2)), (1, ()))
    twisted = integral_cohomology("A2", "-+").groups
    assert twisted == ((0, ()), (0, (2,)), (0, (2,)), (0, (2,)))


def test_integral_cohomology_a1():
    assert integral_cohomology("A1", "-").groups == ((1, ()), (1, ()))
    assert integral_cohomology("A1", "+").groups == ((0, ()), (0, (2,)))


def test_rational_betti_matches_exterior_algebra():
    for name in ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "C4", "B4", "D4", "G2"]:
        got = rational_betti(name, all_minus(int(name[1])))
        assert tuple(got) == exterior_betti(name), name


def test_twisted_rational_cohomology_vanishes():
    for name in ["A1", "A2", "A3", "B2", "B3", "C3", "G2"]:
        g = enumerate_group(name)
        for eps in all_sign_vectors(g.rank):
            if eps == all_minus(g.rank):
                continue
            assert not any(rational_betti(g, eps)), (name, eps)


def test_twisted_rank_four_samples():
    # a slice of the rank-4 twisted systems: solvable, all torsion, exponent 2
    for name in ["A4", "B4", "C4", "D4"]:
        for eps in ["-+--", "+---", "++++"]:
            groups = integral_cohomology(name, eps)
            assert not any(groups.free_ranks()), (name, eps)
            assert all(d == 2 for tors in groups.torsion() for d in tors)


def test_total_betti_is_two_to_g():
    for name in ["A2", "A3", "B3", "C3", "B4", "D4", "G2", "F4"]:
        total = sum(rational_betti(name, all_minus(int(name[1]))))
        assert total == 2 ** compact_dual_data(name).g, name


def test_mod2_dims_are_length_counts():
    assert mod2_dims("A2") == (1, 2, 2, 1)
    assert mod2_dims("A1") == (1, 1)
    assert mod2_dims("G2") == (1, 2, 2, 2, 2, 2, 1)
    for name in ["A3", "B3", "D4"]:
        assert mod2_dims(name) == tuple(enumerate_group(name).length_distribution())


def test_universal_coefficients_consistency():
    # n_k = b_k + even-torsion_k + even-torsion_{k+1} once all torsion is 2-primary
    for name, eps in [("A3", "---"), ("B3", "---"), ("G2", "--"), ("A2", "-+")]:
        g = enumerate_group(name)
        groups = integral_cohomology(g, eps).groups
        dims = mod2_dims(g)
        for k, (free, tors) in enumerate(groups):
            t_here = len([d for d in tors if d % 2 == 0])
            t_above = (
                len([d for d in groups[k + 1][1] if d % 2 == 0])
                if k + 1 < len(groups)
                else 0
            )
            assert dims[k] == free + t_here + t_above


def test_euler_characteristic():
    for name, eps in [("A3", "---"), ("B3", "-+-"), ("G2", "--"), ("A2", "++")]:
        g = enumerate_group(name)
        groups = integral_cohomology(g, eps).groups
        chi = sum((-1) ** k * free for k, (free, _) in enumerate(groups))
        p_at_one = blowup_poly(g, eps)(1)
        assert chi == p_at_one == 0


def test_torsion_is_two_primary():
    for name, eps in [("A3", "---"), ("B3", "---"), ("C3", "---"), ("G2", "--"), ("D4", "----")]:
        for _, tors in integral_cohomology(name, eps).groups:
            assert all(d == 2 for d in tors), (name, eps, tors)


def test_gauge_independence():
    # the gauge is the row order of the edges: reversing the rows picks
    # other tree edges, and the cohomology and Smith forms must not move
    for name in ["A3", "B3", "C3", "G2", "D4"]:
        for eps in all_sign_vectors(int(name[1])):
            g = build_graph(name, eps)
            fwd = assign_signs(g)
            rev = assign_signs(dataclasses.replace(g, edges=g.edges[::-1]))
            assert cohomology_of_complex(fwd).groups == cohomology_of_complex(rev).groups
            assert fwd.smith == rev.smith, (name, eps)


def test_degree_zero_and_top_generators_pair_with_counts():
    # the lone degree-0 class sits on the identity (count 0) and the top
    # class on the longest element (count = polynomial degree)
    for name in ["A2", "A3", "G2"]:
        g = enumerate_group(name)
        minus = all_minus(g.rank)
        groups = integral_cohomology(g, minus).groups
        assert groups[0][0] == 1 and groups[-1][0] == 1
        table = blowup_table(g, minus)
        assert table[g.elements[0]] == 0
        assert table[g.longest] == blowup_poly(g, minus).degree


def test_cohomology_of_complex_matches_high_level():
    cc = complex_for("A3", "---")
    assert cohomology_of_complex(cc).groups == integral_cohomology("A3", "---").groups


def _dense_groups(cc):
    """Reference groups from the Smith forms of the whole, unsplit differentials."""
    dims, top = cc.dims(), cc.top_degree
    snf = [smith_diagonal(m) if m else [] for m in cc.diffs]
    ranks = [len([d for d in s if d]) for s in snf]
    groups = []
    for k in range(top + 1):
        free = dims[k] - (ranks[k] if k < top else 0) - (ranks[k - 1] if k > 0 else 0)
        tors = tuple(sorted(d for d in (snf[k - 1] if k > 0 else []) if d > 1))
        groups.append((free, tors))
    return tuple(groups)


def test_per_component_snf_matches_dense_snf():
    cases = [
        (name, eps)
        for name in ["A1", "A2", "A3", "B2", "B3", "C3", "G2"]
        for eps in all_sign_vectors(int(name[1]))
    ]
    for name, eps in cases + [("D4", all_minus(4))]:
        cc = complex_for(name, eps)
        assert cohomology_of_complex(cc).groups == _dense_groups(cc), (name, eps)


def test_unsolvable_names_component_layer_and_kernel(monkeypatch):
    # an even divisor at layer 1, which every kernel combination must reject
    def even_at_layer_1(rows, cols, vals, labels, count):
        return np.array([b != 1 for b in range(count)], np.int64), {1: [2]}

    monkeypatch.setattr(cohomology, "smith_blocks", even_at_layer_1)
    message = (
        "sign assignment for A2 eps=--, component of 1: none of the 2^0 kernel "
        "combinations reaches the mod-2 rank of the C^1 -> C^2 block"
    )
    with pytest.raises(Unsolvable, match=re.escape(message)):
        assign_signs(build_graph("A2", "--"))



@pytest.mark.parametrize(
    "name, eps",
    [
        ("A3", "---"), ("A3", "-+-"), ("B3", "---"), ("B3", "+++"), ("C3", "-+-"),
        ("D4", "----"), ("A4", "-+-+"), ("F4", "----"), ("G2", "--"),
    ],
)
def test_sign_search_reads_blocks_left_whole_to_smith_diagonal(monkeypatch, name, eps):
    # with the pivot bound at 1 no unit is ever proposed, so each block of a
    # round reaches smith_diagonal whole and the search accepts what it returns
    want = assign_signs(build_graph(name, eps))
    rounds = []

    def spy(*args):
        units, rests = smith_blocks(*args)
        rounds.append((int(units.sum()), len(rests)))
        return units, rests

    monkeypatch.setattr(snf, "_BOUND", 1)
    monkeypatch.setattr(cohomology, "smith_blocks", spy)
    got = assign_signs(build_graph(name, eps))
    assert rounds and all(units == 0 and rests for units, rests in rounds)
    assert np.array_equal(got.signs, want.signs)
    assert got.smith == want.smith

def test_square_zero_failure_names_type_signs_and_degree():
    g = build_graph("A3", "+++")
    cc = assign_signs(g)
    # an edge path 0 -> j -> k lies on a complete diamond, so flipping its
    # first edge leaves d_1 o d_0 nonzero
    edges = cc.edges.tolist()
    e = next(p for p, (i, j) in enumerate(edges) if i == 0 and any(a == j for a, _ in edges))
    flipped = cc.signs.copy()
    flipped[e] = -flipped[e]
    message = (
        "differential does not square to zero after solving for A3 eps=+++: "
        "d_1 o d_0 != 0 (C^0 -> C^2)"
    )
    with pytest.raises(Unsolvable, match=re.escape(message)):
        cohomology._verify_square_zero(g, cohomology._diamonds(g.edges)[0], flipped)


def test_broken_diamond_raises_diamond_violation():
    g = build_graph("A3", "---")
    # drop one edge of a complete diamond: its interval keeps a single path
    p, q = cohomology._diamonds(g.edges)[0][0]
    interval = (g.edges[p, 0].item(), g.edges[q, 1].item())
    broken = dataclasses.replace(g, edges=np.delete(g.edges, p, axis=0))
    assert interval in diamond_check(broken)
    with pytest.raises(DiamondViolation) as info:
        assign_signs(broken)
    assert info.value.violations
    assert set(info.value.violations) <= set(diamond_check(broken))


def test_propagation_and_residual_solve_match_the_full_gf2_system():
    # the full system is one (1 << p, 0) per tree edge and one four-bit mask
    # per diamond; propagation plus the solve over the edges it leaves unknown
    # must give the same base solution and kernel basis, edge for edge, once
    # the forced edges and the bits placed at free are put together
    cases = [
        (name, eps, gauge)
        for name in ["A3", "B3", "C3", "G2", "D4", "B4", "C4"]
        for eps in all_sign_vectors(int(name[1]))
        for gauge in ("forward", "reverse")
    ]
    residual, settled = set(), 0
    for name, eps, gauge in cases:
        g = build_graph(name, eps)
        scan = g.edges[::-1] if gauge == "reverse" else g.edges
        tree = spanning_forest(g.vertex_count, scan)[1]
        diamonds = cohomology._diamonds(scan)[0].reshape(-1, 4)
        full = [(1 << p, 0) for p in np.flatnonzero(tree).tolist()]
        full += [(sum(1 << p for p in row), 1) for row in diamonds.tolist()]
        value = cohomology._propagate(np.where(tree, 0, -1).astype(np.int8), diamonds)
        free, base, kernel = cohomology._solve_forced(value, diamonds)
        assert np.array_equal(free, np.flatnonzero(value < 0)), (name, eps, gauge)
        if not free.size:
            assert (base, kernel) == (0, []), (name, eps, gauge)
            settled += 1

        def on_edges(vec):  # bit q of vec is edge free[q]
            return sum(1 << p for q, p in enumerate(free.tolist()) if vec >> q & 1)

        forced = sum(1 << p for p in np.flatnonzero(value == 1).tolist())
        got = forced | on_edges(base), [on_edges(vec) for vec in kernel]
        assert got == cohomology._solve_gf2(full, len(scan)), (name, eps, gauge)
        if free.size and kernel:
            residual.add((name, eps))
    assert settled  # e.g. A3 ---, where propagation fixes every sign
    # these keep unknown edges after propagation and a nonzero kernel
    for name, eps in [("B3", "---"), ("B4", "----"), ("B4", "+---"), ("B4", "---+"),
                      ("C4", "----"), ("D4", "----")]:
        assert (name, sign_vector(eps, len(eps))) in residual, (name, eps)


def test_conflicting_forced_edge_is_unsolvable(monkeypatch):
    # a hand-built system on seven edges
    t0, t1, t2, t3, a, a2, b = range(7)
    diamonds = np.array([
        [t0, t1, t2, a],   # round 1: a = 1
        [t0, t1, t3, a2],  # round 1: a2 = 1
        [t0, t1, a, b],    # round 2: b = 0
        [t0, a, a2, b],    # round 2: b = 1
    ])
    value = cohomology._propagate(np.array([0, 0, 0, 0, -1, -1, -1], np.int8), diamonds)
    assert value[[a, a2]].tolist() == [1, 1] and value[b] in (0, 1)
    assert cohomology._solve_forced(value, diamonds) is None
    # assign_signs names the open component whose system clashes: here the
    # one component of B3 --- that propagation leaves open
    solve, calls = cohomology._solve_forced, []

    def clash_first(value, diamonds):
        calls.append(1)
        return None if len(calls) == 1 else solve(value, diamonds)

    monkeypatch.setattr(cohomology, "_solve_forced", clash_first)
    message = "no consistent sign assignment for B3 eps=---, component of 1212"
    with pytest.raises(Unsolvable, match=re.escape(message) + "$"):
        assign_signs(build_graph("B3", "---"))
    assert len(calls) == 1


def test_settled_components_take_one_smith_form_per_layer(monkeypatch):
    # propagation fixes every sign of A5 -+-+-, and every component passes,
    # so one elimination reduces the layer blocks of all components (one
    # Smith form per component block would be 202)
    calls = []
    monkeypatch.setattr(
        cohomology, "smith_blocks", lambda *args: calls.append(1) or smith_blocks(*args)
    )
    complex_for("A5", "-+-+-")
    assert len(calls) == 1


def _solved_by_component(g):
    """The sign solve one component at a time, in assign_signs's order: the
    kernel combinations of _solve_forced's solution in turn, written at its
    unknown edges, each layer block checked by smith_diagonal on {bottom:
    sign} rows.  Returns (signs in edge order, pooled doubled diagonals,
    count of components left with unknown edges, count of components)."""
    root, tree = spanning_forest(g.vertex_count, g.edges)
    by_comp = np.argsort(root[g.edges[:, 0]], kind="stable")
    edges, comp = g.edges[by_comp], root[g.edges[by_comp, 0]]
    diamonds = cohomology._diamonds(edges)[0].reshape(-1, 4)
    value = cohomology._propagate(np.where(tree[by_comp], 0, -1).astype(np.int8), diamonds)
    signs = np.empty(len(edges), np.int8)
    smith = [[] for _ in g.group.length_distribution()[1:]]
    roots = np.flatnonzero(np.bincount(comp))
    for r in roots.tolist():
        mine = np.flatnonzero(comp == r)
        local = diamonds[comp[diamonds[:, 0]] == r] - mine[0]
        free, base, kernel = cohomology._solve_forced(value[mine], local)
        for combo in range(1 << len(kernel)):
            packed = base
            for a, vec in enumerate(kernel):
                if combo >> a & 1:
                    packed ^= vec
            mine_value = value[mine]
            mine_value[free] = [packed >> q & 1 for q in range(len(free))]
            mine_signs = (1 - 2 * mine_value).tolist()
            blocks = {}
            for (i, j), sign in zip(edges[mine].tolist(), mine_signs):
                blocks.setdefault(g.group.lengths[i], {}).setdefault(j, {})[i] = sign
            diags = {k: smith_diagonal(rows.values()) for k, rows in blocks.items()}
            if all(d % 2 for diag in diags.values() for d in diag):
                break
        else:
            raise AssertionError(f"no kernel combination passes the component of {r}")
        signs[by_comp[mine]] = mine_signs
        for k, diag in diags.items():
            smith[k] += [2 * d for d in diag]
    unknown = sum(bool((value[comp == r] < 0).any()) for r in roots.tolist())
    return signs, tuple(tuple(sorted(s)) for s in smith), unknown, len(roots)


def test_pooled_smith_forms_match_the_per_component_solve():
    for name, eps in [("B4", "----"), ("D5", "-----")]:
        g = build_graph(name, eps)
        signs, smith, unknown, count = _solved_by_component(g)
        assert 0 < unknown < count, (name, unknown, count)  # open and settled both
        cc = assign_signs(g)
        assert cc.smith == smith, name
        assert cc.signs.tobytes() == signs.tobytes(), name


def test_components_that_reject_kernel_combination_0_match_the_per_component_solve(monkeypatch):
    # on these, some components fail combination 0 and pass combination 1,
    # so the sign solve makes exactly two elimination rounds
    for name, eps in [("B4", "----"), ("F4", "----"), ("D5", "-----")]:
        g = build_graph(name, eps)
        signs, smith, _, _ = _solved_by_component(g)
        calls = []
        monkeypatch.setattr(
            cohomology, "smith_blocks", lambda *args: calls.append(1) or smith_blocks(*args)
        )
        cc = assign_signs(g)
        monkeypatch.setattr(cohomology, "smith_blocks", smith_blocks)
        assert len(calls) == 2, (name, len(calls))
        assert cc.smith == smith, name
        assert cc.signs.tobytes() == signs.tobytes(), name


def test_search_rounds_pass_only_the_pending_components(monkeypatch):
    # round 1 gets exactly the edges of the components whose blocks held an
    # even divisor in round 0, in round 0's order, and no zero entries
    for name, eps in [("B4", "----"), ("F4", "----"), ("D5", "-----")]:
        g = build_graph(name, eps)
        top = len(g.group.length_distribution()) - 1
        calls = []

        def spy(*args):
            calls.append([np.asarray(a) for a in args[:4]])
            calls[-1].append(smith_blocks(*args))
            return calls[-1][-1]

        monkeypatch.setattr(cohomology, "smith_blocks", spy)
        assign_signs(g)
        (rows0, cols0, vals0, labels0, diags0), (rows1, cols1, vals1, labels1, _) = calls
        pending = sorted({b // top for b, rest in diags0[1].items() if any(d % 2 == 0 for d in rest)})
        assert len(vals0) == len(g.edges) and (vals0 != 0).all(), name
        assert pending and (vals1 != 0).all(), name
        assert sorted(set((labels1 // top).tolist())) == pending, name
        mine = np.isin(labels0 // top, pending)
        assert len(vals1) == mine.sum() < len(vals0), name
        for got, want in ((rows1, rows0), (cols1, cols0), (labels1, labels0)):
            assert np.array_equal(got, want[mine]), name


def test_settled_component_failure_names_that_component(monkeypatch):
    # flip the last forced sign of A3 ---, where propagation settles every
    # component: the parity test over the settled diamonds fails, and the
    # per-component solve names the component that holds the flipped edge
    propagate = cohomology._propagate

    def flip_last_forced(value, diamonds):
        forced = np.flatnonzero(value < 0)
        value = propagate(value, diamonds)
        assert (value >= 0).all()
        value[forced[-1]] ^= 1
        return value

    monkeypatch.setattr(cohomology, "_propagate", flip_last_forced)
    message = "no consistent sign assignment for A3 eps=---, component of 132"
    with pytest.raises(Unsolvable, match=re.escape(message) + "$"):
        assign_signs(build_graph("A3", "---"))


def test_failure_names_the_least_component_across_rounds(monkeypatch):
    # B3 --- has 13 components; with propagation off, 0, 2, 3, 5, 8, 10 and
    # 11 are open.  The last clashes before round 0, while component 0 gets
    # a one-vector kernel and doubled divisors under both combinations, so
    # it fails only in round 1 (where component 5 passes, as it does
    # unpatched); the message names component 0, as an ordered loop over
    # the components would
    monkeypatch.setattr(cohomology, "_propagate", lambda value, diamonds: value)
    solve, solves, rounds = cohomology._solve_forced, [], []

    def solve_with_a_failure_at_each_end(value, diamonds):
        solves.append(1)
        if len(solves) == 7:
            return None
        free, base, kernel = solve(value, diamonds)
        return (free, base, kernel + [1]) if len(solves) == 1 else (free, base, kernel)

    def even_in_component_0(rows, cols, vals, labels, count):
        rounds.append(np.unique(np.asarray(labels)[np.asarray(vals) != 0] // 9).tolist())
        units, rests = smith_blocks(rows, cols, vals, labels, count)
        for b in range(9):
            if diag := [2] * int(units[b]) + [2 * d for d in rests.get(b, [])]:
                rests[b] = diag
        units[:9] = 0
        return units, rests

    monkeypatch.setattr(cohomology, "_solve_forced", solve_with_a_failure_at_each_end)
    monkeypatch.setattr(cohomology, "smith_blocks", even_in_component_0)
    message = (
        "sign assignment for B3 eps=---, component of 2: none of the 2^1 kernel "
        "combinations reaches the mod-2 rank of the C^1 -> C^2 block"
    )
    with pytest.raises(Unsolvable, match=re.escape(message) + "$"):
        assign_signs(build_graph("B3", "---"))
    assert len(solves) == 7
    assert rounds == [[c for c in range(13) if c != 11], [0, 5]]


def _diamonds_by_lexsort(edges):
    """The paths and bad intervals of _diamonds, ordered by a two-key lexsort
    and read through the bottom and top of each path (the reference)."""
    by_bottom = np.argsort(edges[:, 0], kind="stable")
    bottoms = edges[by_bottom, 0]
    lo = np.searchsorted(bottoms, edges[:, 1])
    sizes = np.searchsorted(bottoms, edges[:, 1], side="right") - lo
    first = np.repeat(np.arange(len(edges)), sizes)
    second = by_bottom[np.repeat(lo - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())]
    order = np.lexsort((edges[second, 1], edges[first, 0]))
    paths = np.stack((first[order], second[order]), axis=1)
    bottom, top = edges[paths[:, 0], 0], edges[paths[:, 1], 1]
    heads = np.flatnonzero(np.diff(bottom, prepend=-1) | np.diff(top, prepend=-1))
    bad = heads[np.diff(heads, append=len(paths)) != 2]
    return paths, tuple(zip(bottom[bad].tolist(), top[bad].tolist()))


def _planted_edges(rng):
    """Random edges between four layers of eight vertices, plus an interval
    32 -> 34 with one path and an interval 35 -> 39 with three, rows shuffled."""
    layer = np.arange(32).reshape(4, 8).tolist()
    rows = [(b, t) for k in range(3) for b in layer[k] for t in layer[k + 1] if rng.random() < 0.3]
    rows += [(32, 33), (33, 34)]
    rows += [(35, m) for m in (36, 37, 38)] + [(m, 39) for m in (36, 37, 38)]
    return np.array(rows, np.int32)[rng.permutation(len(rows))]


def test_diamonds_match_the_lexsort_reference():
    rng = np.random.default_rng(21)
    planted = [_planted_edges(rng) for _ in range(20)]
    shuffled = [
        edges[rng.permutation(len(edges))]
        for edges in (build_graph("B4", "----").edges, build_graph("D5", "+++++").edges)
    ]
    for edges in planted + shuffled + [np.zeros((0, 2), np.int32)]:
        paths, bad = cohomology._diamonds(edges)
        want_paths, want_bad = _diamonds_by_lexsort(edges)
        assert paths.dtype == want_paths.dtype and paths.shape == want_paths.shape
        assert paths.tobytes() == want_paths.tobytes()
        assert bad == want_bad
    for edges in planted:
        assert {(32, 34), (35, 39)} <= set(cohomology._diamonds(edges)[1])
    assert all(cohomology._diamonds(edges)[1] == () for edges in shuffled)


def _propagate_by_rows(value, diamonds):
    """_propagate with each diamond's unknowns and forced value found by
    reductions over its row of four values (the reference)."""
    while True:
        known = value[diamonds]
        unknown = (known < 0).sum(axis=1)
        one = unknown == 1
        if not one.any():
            return value
        forced = diamonds[one, (known[one] < 0).argmax(axis=1)]
        value[forced] = 1 - known[one].clip(0).sum(axis=1) % 2
        diamonds = diamonds[unknown > 1]


def test_propagate_matches_the_per_row_reference():
    rng = np.random.default_rng(21)
    signs = np.array([-1, -1, 0, 1], np.int8)
    cases = []
    for _ in range(300):
        n = int(rng.integers(4, 40))
        rows = [rng.permutation(n)[:4] for _ in range(int(rng.integers(1, 3 * n)))]
        cases.append((rng.choice(signs, n), np.array(rows)))
    cases.append((rng.choice(signs, 12), np.zeros((0, 4), np.int64)))  # no diamonds
    known = np.array([rng.permutation(12)[:4] for _ in range(20)])
    cases.append((rng.integers(0, 2, 12).astype(np.int8), known))  # all edges known
    t0, t1, t2, t3, a, a2, b = range(7)  # the clash of test_conflicting_forced_edge_is_unsolvable
    clash = np.array([[t0, t1, t2, a], [t0, t1, t3, a2], [t0, t1, a, b], [t0, a, a2, b]])
    cases.append((np.array([0, 0, 0, 0, -1, -1, -1], np.int8), clash))
    g = build_graph("B4", "----")
    tree = spanning_forest(g.vertex_count, g.edges)[1]
    cases.append((np.where(tree, 0, -1).astype(np.int8), cohomology._diamonds(g.edges)[0].reshape(-1, 4)))
    for value, diamonds in cases:
        got = cohomology._propagate(value.copy(), diamonds)
        assert got.tobytes() == _propagate_by_rows(value.copy(), diamonds).tobytes()
    assert 0 < (got < 0).sum() < (cases[-1][0] < 0).sum()  # B4 ---- keeps some unknown


def test_sign_solve_digest():
    # the signs and Smith forms of every sign vector of twelve types, with the
    # graph's edge rows forward and then reversed, pinned byte for byte: a
    # change to the sign solve or the Smith forms that moves any output fails
    graphs = [
        build_graph(name, eps)
        for name in ("A2", "A3", "B3", "C3", "G2", "D4", "A4", "B4", "C4", "F4", "A5", "D5")
        for eps in all_sign_vectors(int(name[1:]))
    ]
    digest = hashlib.sha1()
    for g in graphs + [dataclasses.replace(g, edges=g.edges[::-1]) for g in graphs]:
        cc = assign_signs(g)
        digest.update(cc.signs.tobytes())
        digest.update(repr(cc.smith).encode())
    assert len(graphs) == 176
    assert digest.hexdigest() == "028dfc773ed0227456aeced5539f40656cffa693"
