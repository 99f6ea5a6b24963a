import random

import numpy as np
import pytest

from flagcoh import blowup, weyl
from flagcoh.blowup import (
    all_minus,
    all_sign_vectors,
    blowup_count,
    blowup_poly,
    blowup_table,
    dual_blowup_count,
    format_signs,
    longest_blowups,
    minus_stable_elements,
    pq_table,
    reflect_signs,
    restricted_blowup_poly,
    sign_vector,
    stable_count,
)
from flagcoh.cartan import cartan_matrix, compact_dual_data
from flagcoh.qpoly import QPoly, q_power_minus_one
from flagcoh.weyl import all_reduced_words, enumerate_group, longest_element, random_reduced_word


def test_sign_vector_parsing():
    assert sign_vector("--") == (-1, -1)
    assert sign_vector("-+") == (-1, 1)
    assert sign_vector((-1, 1, -1)) == (-1, 1, -1)
    assert format_signs((-1, 1)) == "-+"
    with pytest.raises(ValueError):
        sign_vector("-0")
    with pytest.raises(ValueError):
        sign_vector("--", rank=3)



def test_sign_vector_refuses_entries_that_are_not_plus_or_minus_one():
    eps = sign_vector(np.array([1.0, -1.0]))
    assert eps == (1, -1) and all(type(x) is int for x in eps)
    for bad in ([1.5, -1], [1, -1.9], (1, 0)):
        with pytest.raises(ValueError, match="sign entries must be"):
            sign_vector(bad)

def test_sign_action_a2():
    c = cartan_matrix("A2")
    assert format_signs(reflect_signs(1, sign_vector("--"), c)) == "-+"
    assert format_signs(reflect_signs(2, sign_vector("-+"), c)) == "-+"
    assert format_signs(reflect_signs(1, sign_vector("-+"), c)) == "--"


def test_sign_action_never_flips_own_component():
    for name in ["A3", "B3", "C3", "G2", "F4"]:
        c = cartan_matrix(name)
        for eps in all_sign_vectors(c.rank):
            for i in range(1, c.rank + 1):
                assert reflect_signs(i, eps, c)[i - 1] == eps[i - 1]


def test_sign_action_fixes_all_plus():
    for name in ["A2", "B3", "G2"]:
        c = cartan_matrix(name)
        plus = (1,) * c.rank
        for i in range(1, c.rank + 1):
            assert reflect_signs(i, plus, c) == plus


def test_sign_action_is_involution():
    for name in ["A3", "B3", "G2"]:
        c = cartan_matrix(name)
        for eps in all_sign_vectors(c.rank):
            for i in range(1, c.rank + 1):
                assert reflect_signs(i, reflect_signs(i, eps, c), c) == eps


# blow-up counts of the two rank-2 worked examples, word -> count
def test_counts_a2():
    c = cartan_matrix("A2")
    minus = all_minus(2)
    assert blowup_count((1, 2, 1), minus, c) == 2
    assert blowup_count((1,), minus, c) == 1
    assert blowup_count((1, 2), minus, c) == 1
    assert blowup_count((2, 1), minus, c) == 1


def test_counts_g2():
    c = cartan_matrix("G2")
    minus = all_minus(2)
    assert blowup_count((1, 2, 1), minus, c) == 2
    assert blowup_count((2, 1, 2), minus, c) == 2
    assert blowup_count((1, 2, 1, 2), minus, c) == 3
    assert blowup_count((1, 2, 1, 2, 1, 2), minus, c) == 4


def test_count_zero_for_all_plus():
    for name in ["A3", "B3", "G2"]:
        g = enumerate_group(name)
        plus = (1,) * g.rank
        assert all(blowup_count(w, plus, g.cartan) == 0 for w in g.elements)


def test_table_a1():
    t = blowup_table("A1", "-")
    assert t.value_multiset() == (0, 1)
    t = blowup_table("A1", "+")
    assert t.value_multiset() == (0, 0)


def test_table_a2_and_g2():
    assert blowup_table("A2", "--").value_multiset() == (0, 1, 1, 1, 1, 2)
    g2 = blowup_table("G2", "--")
    assert g2.value_multiset() == (0, 1, 1, 1, 1, 2, 2, 3, 3, 3, 3, 4)
    assert g2.max_value == 4


def test_table_matches_word_walk():
    for name in ["A3", "B3", "G2"]:
        g = enumerate_group(name)
        for eps in [all_minus(g.rank), all_sign_vectors(g.rank)[1]]:
            table = blowup_table(g, eps)
            for i, w in enumerate(g.elements):
                assert table.counts[i] == blowup_count(w, eps, g.cartan)
                assert table[w] == table.counts[i]


def test_poly_examples():
    assert blowup_poly("A2", "--") == QPoly({2: 1, 0: -1})
    assert blowup_poly("A2", "-+").is_zero()
    assert blowup_poly("G2", "--") == QPoly({4: 1, 2: -2, 0: 1})


def test_poly_vanishes_off_minus():
    for name in ["A1", "A2", "A3", "B2", "B3", "G2"]:
        g = enumerate_group(name)
        for eps in all_sign_vectors(g.rank):
            p = blowup_poly(g, eps)
            if eps == all_minus(g.rank):
                assert not p.is_zero()
            else:
                assert p.is_zero()


def test_poly_at_one_vanishes():
    for name in ["A3", "B3", "C3", "D4", "G2"]:
        assert blowup_poly(name, all_minus(int(name[1])))(1) == 0


def test_poly_degree_is_longest_count():
    for name in ["A2", "A3", "B3", "C4", "D4", "G2", "F4"]:
        l = int(name[1])
        assert blowup_poly(name, all_minus(l)).degree == longest_blowups(name)


def test_minus_stable_elements():
    a1 = minus_stable_elements("A1")
    assert sorted(w.word for w in a1) == [(), (1,)]
    a2 = minus_stable_elements("A2")
    assert sorted(w.word for w in a2) == [(), (1, 2, 1)]
    assert len(a2) == 2  # 2^g with g = 1


def _count_elements(monkeypatch) -> list:
    """Patch weyl.WeylElement to record each construction; returns the record."""
    built = []

    class Counted(weyl.WeylElement):
        def __init__(self, *args):
            built.append(args[2])
            super().__init__(*args)

    monkeypatch.setattr(weyl, "WeylElement", Counted)
    return built


def test_minus_stable_elements_build_only_the_stable_ones(monkeypatch):
    built = _count_elements(monkeypatch)
    group = weyl._enumerate.__wrapped__("E", 6)
    stable = minus_stable_elements(group)
    assert len(stable) == len(built) == 1440  # criterion 12's |W-| on E6
    assert sorted(built) == sorted(w.word for w in stable)


def test_e6_lookup_of_longest_builds_one_element(monkeypatch):
    top = longest_blowups("E6")
    built = _count_elements(monkeypatch)
    group = weyl._enumerate.__wrapped__("E", 6)
    table = blowup_table(group, all_minus(6))
    assert table[group.longest] == top == 20
    assert len(built) <= 1


@pytest.mark.parametrize("letter", [0, 3])
def test_blowup_count_rejects_out_of_range_letters(letter):
    with pytest.raises(ValueError, match=f"letter {letter} out of range 1..2"):
        blowup_count((letter,), "-+", cartan_matrix("A2"))


@pytest.mark.parametrize("letter", [0, 4])
def test_reflect_signs_rejects_out_of_range_letters(letter):
    with pytest.raises(ValueError, match=f"letter {letter} out of range 1..3"):
        reflect_signs(letter, sign_vector("+--"), cartan_matrix("A3"))


@pytest.mark.parametrize("eps", ["-", "-+-+-"])
def test_reflect_signs_rejects_wrong_length(eps):
    with pytest.raises(ValueError, match=f"has length {len(eps)}, expected 3"):
        reflect_signs(1, sign_vector(eps), cartan_matrix("A3"))


def test_restricted_sum_equals_full():
    for name in ["A2", "A3", "B2", "B3", "C3", "D4", "G2"]:
        g = enumerate_group(name)
        minus = all_minus(g.rank)
        assert restricted_blowup_poly(g, minus) == blowup_poly(g, minus)


def _restricted_oracle(group, eps):
    """The sum over W^- and |W^-| walked over every element of W, from the
    blow-up table: (-1)^{l(w*) + l(w)} q^{eta(w)} where the final signs equal eps."""
    table = blowup_table(group, eps)
    top = group.lengths[-1]
    coeffs = {}
    for length, c, sig in zip(group.lengths, table.counts, table.final_signs):
        if sig == table.eps:
            coeffs[c] = coeffs.get(c, 0) + (-1) ** (top + length)
    return QPoly(coeffs), table.final_signs.count(table.eps)


def test_restricted_sum_and_count_match_the_element_walk():
    names = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4"]
    names += ["C3", "C4", "D4", "D5", "F4", "G2", "E6"]
    for name in names:
        g = enumerate_group(name)
        for eps in all_sign_vectors(g.rank):
            got = restricted_blowup_poly(name, eps), stable_count(name, eps)
            assert got == _restricted_oracle(g, eps), (name, eps)


def test_restricted_sum_and_count_build_no_tables(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("group tables or a WeylElement built")

    monkeypatch.setattr(weyl, "_build_tables", refuse)
    monkeypatch.setattr(weyl, "WeylElement", refuse)
    group = weyl._enumerate.__wrapped__("E", 6)
    minus = all_minus(6)
    for eps in all_sign_vectors(6):
        restricted_blowup_poly(group, eps)
        stable_count(group, eps)
    assert restricted_blowup_poly(group, minus) == blowup_poly("E6", minus)
    assert stable_count(group, minus) == 1440  # criterion 12's |W-| on E6


def test_poincare_duality():
    from flagcoh.intmat import mat_mul

    for name in ["A2", "A3", "B3", "C3", "G2", "D4"]:
        g = enumerate_group(name)
        table = blowup_table(g, all_minus(g.rank))
        top = table[g.longest]
        wstar = g.longest.mat
        for i, w in enumerate(g.elements):
            j = g.element_index(mat_mul(wstar, w.mat))
            assert top == table.counts[i] + table.counts[j]


def test_word_independence_exhaustive():
    for name in ["A2", "A3", "B3", "G2"]:
        g = enumerate_group(name)
        words = {i: all_reduced_words(g, w) for i, w in enumerate(g.elements)}
        for eps in all_sign_vectors(g.rank):
            for i, w in enumerate(g.elements):
                counts = {blowup_count(word, eps, g.cartan) for word in words[i]}
                assert len(counts) == 1


def test_word_independence_random_f4():
    g = enumerate_group("F4")
    rng = random.Random(4)
    minus = all_minus(4)
    for _ in range(1000):
        w = g.elements[rng.randrange(g.order)]
        w1 = random_reduced_word(g, w, rng)
        w2 = random_reduced_word(g, w, rng)
        assert blowup_count(w1, minus, g.cartan) == blowup_count(w2, minus, g.cartan)


def test_dual_count_symmetric_types():
    g = enumerate_group("A3")
    minus = all_minus(3)
    for w in g.elements:
        assert dual_blowup_count(w, minus, g.cartan) == blowup_count(w, minus, g.cartan)


def test_dual_count_is_transposed_matrix_walk():
    b2 = cartan_matrix("B2")
    c2 = cartan_matrix("C2")
    g = enumerate_group("B2")
    minus = all_minus(2)
    for w in g.elements:
        assert dual_blowup_count(w, minus, b2) == blowup_count(w.word, minus, c2)


def test_dual_count_g2_longest():
    c = cartan_matrix("G2")
    w = longest_element("G2")
    # transpose keeps entry parity, so the sign dynamics coincide
    assert dual_blowup_count(w, all_minus(2), c) == 4


def test_longest_blowups_all_types():
    expected = {
        "A1": 1, "A2": 2, "A3": 4, "A4": 6, "A5": 9, "A6": 12,
        "B2": 3, "B3": 6, "B4": 10, "B5": 15,
        "C2": 3, "C3": 6, "C4": 10, "C5": 15,
        "D4": 8, "D5": 12, "G2": 4, "F4": 14,
        "E6": 20, "E7": 35, "E8": 64,
    }
    for name, value in expected.items():
        assert longest_blowups(name) == value, name


def test_table_max_is_longest_value():
    for name in ["A3", "B3", "C3", "G2", "D4", "F4"]:
        g = enumerate_group(name)
        table = blowup_table(g, all_minus(g.rank))
        assert table.max_value == table[g.longest] == longest_blowups(name)


def test_table_steps_by_zero_or_one():
    from flagcoh.intmat import mat_mul
    from flagcoh.weyl import simple_reflection

    for name in ["A3", "B3", "G2"]:
        g = enumerate_group(name)
        table = blowup_table(g, all_minus(g.rank))
        for i, w in enumerate(g.elements):
            for k in range(1, g.rank + 1):
                j = g.element_index(mat_mul(w.mat, simple_reflection(k, g.cartan).mat))
                if g.elements[j].length == w.length + 1:
                    assert table.counts[j] - table.counts[i] in (0, 1)


def _alternating_sum(group, eps):
    """p_eps(q) walked over every element of W, from the blow-up table."""
    table = blowup_table(group, eps)
    top = group.longest.length
    coeffs = {}
    for w, c in zip(group.elements, table.counts):
        coeffs[c] = coeffs.get(c, 0) + (-1) ** (top + w.length)
    return QPoly(coeffs)


def test_poly_equals_alternating_sum_over_w():
    names = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5"]
    names += ["C2", "C3", "C4", "C5", "D4", "D5", "F4", "G2"]
    for name in names:
        g = enumerate_group(name)
        for eps in all_sign_vectors(g.rank):
            assert blowup_poly(name, eps) == _alternating_sum(g, eps), (name, eps)
    e6 = enumerate_group("E6")
    for eps in [all_minus(6), sign_vector("-+--+-"), sign_vector("+-+--+")]:
        assert blowup_poly(e6, eps) == _alternating_sum(e6, eps), eps


@pytest.mark.parametrize("name", ["E7", "E8"])
def test_poly_e7_e8_closed_form_and_vanishing(name):
    l = int(name[1])
    expected = QPoly.one()
    for d in compact_dual_data(name).degrees:
        expected = expected * q_power_minus_one(d)
    p = blowup_poly(name, all_minus(l))
    assert p == expected
    assert p.degree == longest_blowups(name)
    others = [eps for eps in all_sign_vectors(l) if eps != all_minus(l)]
    assert len(others) == 2**l - 1
    assert all(blowup_poly(name, eps).is_zero() for eps in others)


def test_poly_enumerates_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_group called")

    monkeypatch.setattr(blowup, "enumerate_group", refuse)
    monkeypatch.setattr(weyl, "enumerate_group", refuse)
    pq_table.cache_clear()
    assert blowup_poly("E8", all_minus(8)).degree == 64


def test_e6_tables_build_no_elements(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("WeylElement built")

    top = longest_blowups("E6")
    monkeypatch.setattr(weyl, "WeylElement", refuse)
    group = weyl._enumerate.__wrapped__("E", 6)
    assert group.length_distribution()[:4] == [1, 6, 20, 50]
    for eps in all_sign_vectors(6):
        blowup_poly(group, eps)
    assert blowup_table(group, all_minus(6)).max_value == top
    assert len(group.cover_pairs()) == 459_588
