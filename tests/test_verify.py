import pytest

from flagcoh import chevalley, graph, tau, verify, weyl
from flagcoh.verify import all_passed, run_checks


def by_name(results):
    return {r.name: r for r in results}


@pytest.fixture(scope="module")
def e7():
    """run_checks("E7") once, with the graph refused: the element tables are
    built (about 270 MB), the sign solve is not.  The cached group is dropped
    at once, so no later test finds its tables."""
    def refuse(*args, **kwargs):
        raise AssertionError("graph built")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "build_graph", refuse)
        try:
            return by_name(run_checks("E7"))
        finally:
            weyl._enumerate.cache_clear()


def test_small_types_fully_pass():
    for name in ["A2", "A3", "C3", "G2"]:
        results = run_checks(name)
        assert all_passed(results), [(r.name, r.detail) for r in results if r.status == "fail"]
        assert not [r for r in results if r.status == "warn"], name


def test_a1_warns_only_on_condition_redundancy():
    # the rank-1 reflection flips nothing, so the identity cover has equal
    # signs but unequal counts: condition c is independent already here
    results = run_checks("A1")
    assert all_passed(results)
    warned = {r.name for r in results if r.status == "warn"}
    assert warned == {"cover-condition-redundancy"}


def test_b3_warns_but_passes():
    results = run_checks("B3")
    assert all_passed(results)
    warned = {r.name for r in results if r.status == "warn"}
    assert warned == {"negative-components", "cover-condition-redundancy"}


def test_e8_runs_longest_checks_only():
    results = run_checks("E8")
    assert all_passed(results)
    named = by_name(results)
    assert named["blowups-at-longest"].status == "pass"
    assert named["longest-length"].status == "pass"
    assert named["enumeration"].status == "skip"
    assert named["enumeration"].detail == "|W|=696729600 beyond cap=3000000"


def test_chain_checks_pass_beyond_the_enumeration_gate(e7):
    e8 = by_name(run_checks("E8"))
    for name, named, stable in [("E7", e7, 80640), ("E8", e8, 5160960)]:
        for check in ["weyl-order", "length-palindrome", "restricted-sum"]:
            assert named[check].status == "pass", (name, check, named[check].detail)
        assert named["restricted-sum"].detail == f"|W-| = {stable}"


def test_chevalley_order_runs_beyond_the_enumeration_gate():
    for name in ["A8", "C7", "D7"]:
        named = by_name(run_checks(name, cap=60_000))
        assert named["enumeration"].status == "skip"
        assert named["chevalley-order"].status == "pass", (name, named["chevalley-order"].detail)


def test_checks_beyond_the_gate_build_no_tables(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("group enumerated")

    monkeypatch.setattr(verify, "enumerate_group", refuse)
    monkeypatch.setattr(weyl, "_build_tables", refuse)
    for name, cap in [("E8", None), ("A3", 10)]:
        assert all_passed(run_checks(name, cap)), name


def test_e8_check_order_after_the_pq_checks():
    names = [r.name for r in run_checks("E8")]
    assert names[names.index("pq-vanishing") + 1 :] == [
        "weyl-order",
        "length-palindrome",
        "restricted-sum",
        "mod2-dims",
        "tau-multiplicity",
        "chevalley-order",
        "enumeration",
    ]


def test_tau_multiplicity_runs_beyond_the_enumeration_gate():
    named = by_name(run_checks("B7", cap=60_000))
    assert named["enumeration"].status == "skip"
    assert named["tau-multiplicity"].status == "pass"
    assert named["tau-multiplicity"].detail == "28 vs 28"


def test_component_reference_values_enforced():
    named = by_name(run_checks("A3"))
    assert named["graph-components"].status == "pass"
    assert "10" in named["graph-components"].detail
    named = by_name(run_checks("B3"))
    assert "17" in named["graph-components"].detail
    named = by_name(run_checks("D4"))
    assert named["graph-components"].status == "pass"
    assert "35" in named["graph-components"].detail


def test_cap_override_degrades_gracefully():
    results = run_checks("A3", cap=10)
    named = by_name(results)
    assert named["enumeration"].status == "skip"
    assert named["enumeration"].detail == "|W|=24 beyond cap=10"
    assert all_passed(results)


def test_d5_runs_integral_cohomology():
    named = by_name(run_checks("D5"))
    assert named["rational-betti"].status == "pass"
    assert named["total-betti"].status == "pass"


def test_chevalley_order_runs_beyond_rank_four():
    for name in ["A5", "A6", "C6"]:
        named = by_name(run_checks(name))
        assert named["chevalley-order"].status == "pass", (name, named["chevalley-order"].detail)


def test_pq_checks_pass_on_e7_and_e8(e7):
    for name, named in [("E7", e7), ("E8", by_name(run_checks("E8")))]:
        for check in ["pq-closed-form", "pq-degree", "pq-at-one", "pq-vanishing"]:
            assert named[check].status == "pass", (name, check, named[check].detail)
        others = 2 ** int(name[1]) - 1
        assert named["pq-vanishing"].detail == f"0 of {others} other sign vectors nonzero"


def test_mod2_dims_passes_beyond_the_enumeration_gate(e7):
    # E7 builds its tables but skips the sign solve; E8 builds no table
    e8 = by_name(run_checks("E8"))
    for name, named, gate in [("E7", e7, "cohomology"), ("E8", e8, "enumeration")]:
        assert named[gate].status == "skip"
        assert named["mod2-dims"].status == "pass", (name, named["mod2-dims"].detail)


def test_d7_runs_whole():
    try:
        results = run_checks("D7")
    finally:
        weyl._enumerate.cache_clear()  # D7's tables and covers
    assert all_passed(results)
    named = by_name(results)
    for check in ["rational-betti", "total-betti", "torsion-exponent-two"]:
        assert named[check].status == "pass", (check, named[check].detail)
    assert named["total-betti"].detail == "64"
    # a regression value computed by this code, not an independent reference
    assert named["graph-components"].detail == "744 (no reference value)"
    assert "enumeration" not in named


def test_e7_checks_duality_and_skips_the_solve_by_its_estimate(e7):
    assert all(r.status != "fail" for r in e7.values())
    assert e7["poincare-duality"].status == "pass"
    assert e7["cohomology"].status == "skip"
    assert e7["cohomology"].detail == "estimate 4252 MB beyond budget 2048 MB"
    for name in ["graph-components", "rational-betti", "enumeration"]:
        assert name not in e7


def test_mod2_dims_is_checked_against_the_height_product(monkeypatch):
    from flagcoh import cohomology

    assert by_name(run_checks("B3"))["mod2-dims"].status == "pass"
    monkeypatch.setattr(cohomology, "mod2_dims", lambda group: (1,) * 10)
    assert by_name(run_checks("B3"))["mod2-dims"].status == "fail"


def test_checks_after_a_cohomology_failure_still_run(monkeypatch):
    from flagcoh import cohomology
    from flagcoh.errors import Unsolvable

    def unsolvable(graph):
        raise Unsolvable("no signs")

    monkeypatch.setattr(cohomology, "assign_signs", unsolvable)
    named = by_name(run_checks("A3"))
    assert (named["cohomology"].status, named["cohomology"].detail) == ("fail", "no signs")
    for name in ("rational-betti", "total-betti", "torsion-exponent-two"):
        assert name not in named
    for name in ("mod2-dims", "tau-multiplicity", "chevalley-order"):
        assert named[name].status == "pass", (name, named[name].detail)
    names = [r.name for r in run_checks("A3")]
    assert names[names.index("cohomology") + 1 :] == ["mod2-dims", "tau-multiplicity", "chevalley-order"]


@pytest.mark.parametrize(
    "module, name",
    [(tau, "singularity_multiplicity"), (chevalley, "verify_order")],
    ids=["tau", "chevalley"],
)
def test_a_value_error_inside_a_check_is_not_a_skip(monkeypatch, module, name):
    def broken(*args, **kwargs):
        raise ValueError("a bug, not a refusal")

    monkeypatch.setattr(module, name, broken)
    with pytest.raises(ValueError, match="^a bug, not a refusal$"):
        run_checks("A3")


def test_dual_table_invariants_fails_on_a_corrupted_degree_rule():
    from flagcoh import cartan

    degrees, dim = cartan._KINDS["SO"]
    cartan.compact_dual_data.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(cartan._KINDS, "SO", (lambda n: (*degrees(n), 2), dim))
            named = by_name(run_checks("A3"))
    finally:
        cartan.compact_dual_data.cache_clear()
    assert named["dual-table-invariants"].status == "fail"
    assert by_name(run_checks("A3"))["dual-table-invariants"].status == "pass"
