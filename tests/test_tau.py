import itertools
import operator
import random
from fractions import Fraction

import numpy as np
import pytest

from flagcoh import multipoly, tau
from flagcoh.cartan import LieType
from flagcoh.errors import UnsupportedType, ZeroPolynomial
from flagcoh.multipoly import MultiPoly, det, leading_minors
from flagcoh.tau import (
    PLAIN,
    PRODUCT,
    SQUARED,
    complete_homogeneous,
    min_degree,
    nilpotent_tau_family,
    schur_wronskian,
    singularity_multiplicity,
    tau_min_degrees,
)


def P(vars, terms):
    return MultiPoly(vars, {k: Fraction(*v) if isinstance(v, tuple) else v for k, v in terms.items()})


def test_multipoly_arithmetic():
    x = MultiPoly.variable(("x", "y"), "x")
    y = MultiPoly.variable(("x", "y"), "y")
    p = (x + y) * (x - y)
    assert p == P(("x", "y"), {(2, 0): 1, (0, 2): -1})
    assert (x * y).min_total_degree() == 2
    assert p.degree_in("x") == 2 and p.degree_in("y") == 2
    assert (p - p).is_zero()


def test_multipoly_pow_and_diff():
    x = MultiPoly.variable(("x",), "x")
    assert (x + MultiPoly.constant(("x",), 1)) ** 2 == P(("x",), {(0,): 1, (1,): 2, (2,): 1})
    assert (x ** 3).diff("x") == P(("x",), {(2,): 3})


def test_det_2x2_and_3x3():
    v = ("x",)
    x = MultiPoly.variable(v, "x")
    one = MultiPoly.constant(v, 1)
    assert det([[x, one], [one, x]]) == x * x - one
    m = [
        [x, one, one * 0],
        [one, x, one],
        [one * 0, one, x],
    ]
    assert det(m) == x * x * x - x - x
    y = MultiPoly.variable(("y",), "y")
    with pytest.raises(ValueError):
        det([[x, one], [one, y]])


def _leibniz(m):
    """Determinant as the signed sum over permutations."""
    n = len(m)
    acc = MultiPoly.zero(m[0][0].vars)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(n), 2))
        term = MultiPoly.constant(acc.vars, -1 if inversions % 2 else 1)
        for r, c in enumerate(perm):
            term = term * m[r][c]
        acc = acc + term
    return acc


@pytest.mark.parametrize("seed", range(6))
def test_leading_minors_match_each_leading_submatrix(seed):
    rng = random.Random(seed)
    vars = ("x", "y")
    n = 1 + seed % 5

    def entry():
        if rng.random() < 0.35:
            return MultiPoly.zero(vars)
        return MultiPoly(vars, {
            (rng.randrange(3), rng.randrange(3)): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            for _ in range(rng.randint(1, 3))
        })

    m = [[entry() for _ in range(n)] for _ in range(n)]
    minors = leading_minors(m)
    assert len(minors) == n
    for k in range(1, n + 1):
        sub = [row[:k] for row in m[:k]]
        assert minors[k - 1] == det(sub) == _leibniz(sub)


@pytest.mark.parametrize("seed", range(10))
def test_leading_minors_with_wide_exponents(seed):
    # exponents up to 6 in 3 variables, so the packed keys of a product
    # would carry between digits if the base were too small
    rng = random.Random(100 + seed)
    vars = ("x", "y", "z")
    n = 1 + seed % 5

    def entry():
        if rng.random() < 0.25:
            return MultiPoly.zero(vars)
        return MultiPoly(vars, {
            tuple(rng.randrange(7) for _ in vars): Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 4, 7)))
            for _ in range(rng.randint(1, 3))
        })

    m = [[entry() for _ in range(n)] for _ in range(n)]
    if seed == 7:
        m[1] = [MultiPoly.zero(vars)] * n
    minors = leading_minors(m)
    for k in range(1, n + 1):
        assert minors[k - 1] == _leibniz([row[:k] for row in m[:k]])
    if seed == 7:
        assert minors[0] == m[0][0] and all(p.is_zero() for p in minors[1:])


def test_leading_minors_without_variables():
    rng = random.Random(7)
    m = [[MultiPoly.constant((), Fraction(rng.randint(-9, 9), rng.randint(1, 6))) for _ in range(4)] for _ in range(4)]
    minors = leading_minors(m)
    assert all(p.vars == () for p in minors)
    for k in range(1, 5):
        assert minors[k - 1] == _leibniz([row[:k] for row in m[:k]])


def _h_recurrence(vars, weights, top):
    """h_0..h_top through k h_k = sum_j w_j t_j h_{k - w_j}, in MultiPoly
    arithmetic; a variable of weight 0 takes no part."""
    hs = [MultiPoly.constant(vars, 1)]
    gens = [(w, MultiPoly.variable(vars, v)) for v, w in zip(vars, weights) if w]
    for k in range(1, top + 1):
        acc = MultiPoly.zero(vars)
        for w, var in gens:
            if w <= k:
                acc = acc + var * hs[k - w] * w
        hs.append(acc * Fraction(1, k))
    return hs


# the variable sets of the families at rank 7: A, B and C, D with s, and G2
H_VARIABLE_SETS = {
    "A": (tuple(range(1, 8)), False),
    "BC": (tuple(range(1, 14, 2)), False),
    "D": (tuple(range(1, 12, 2)), True),
    "G": ((1, 5), False),
}


@pytest.mark.parametrize("family", sorted(H_VARIABLE_SETS))
def test_h_series_equals_the_recurrence(family):
    active, with_s = H_VARIABLE_SETS[family]
    vars = tuple(f"t{j}" for j in active) + (("s",) * with_s)
    weights = active + (0,) * with_s
    got = tau._h_series(vars, weights, 14)
    assert got == _h_recurrence(vars, weights, 14)
    for h in got:
        assert h.vars == vars
        assert all(type(c) is Fraction and c for c in h.terms.values())
        assert all(len(e) == len(vars) and all(type(a) is int for a in e) for e in h.terms)


def test_exact_results_store_no_zero_and_only_fractions():
    vars = ("x", "y")
    x, y = (MultiPoly.variable(vars, v) for v in vars)
    half = MultiPoly(vars, {(0, 1): Fraction(1, 2), (1, 0): 3})
    assert (x + (-x)).terms == {} and (x - x).terms == {}
    assert ((x + y) * (x - y) - (x * x - y * y)).terms == {}
    results = [x + half, half - y, half * half, (x - half) * (x + half), -half]
    m = [[x, half, y], [x, half, y], [half, y, x * y]]  # two equal rows
    minors = leading_minors(m)
    assert minors[0] == x and minors[1].terms == {} and minors[2].terms == {}
    for p in results + minors:
        assert p.vars == vars
        assert all(type(c) is Fraction and c for c in p.terms.values()), p
    assert leading_minors([[half]])[0] == half


def test_multipoly_takes_any_rational_as_a_constant_and_nothing_else():
    # numpy's integers register as numbers.Rational, so they lift like ints
    vars = ("x", "y")
    x = MultiPoly.variable(vars, "x")
    one = MultiPoly.constant(vars, 1)
    assert x + 1 == 1 + x == x + one and x - 1 == x - one and 1 - x == one - x
    assert x * np.int64(3) == np.int64(3) * x == 3 * x == x + x + x
    assert Fraction(1, 2) * x + x * Fraction(1, 2) == x and (x * 0).is_zero() and x + 0 == x
    for p in (x * np.int64(3), x + np.int64(1), np.int64(2) - x):
        assert all(type(c) is Fraction and type(c.numerator) is int for c in p.terms.values())
    for bad in ("a", 2.5, None):
        for op in (operator.add, operator.sub, operator.mul):
            for left, right in ((x, bad), (bad, x)):
                with pytest.raises(TypeError):
                    op(left, right)
    with pytest.raises(ValueError, match="variable mismatch"):
        x + MultiPoly.variable(("y",), "y")


def test_multipoly_still_validates_outside_terms():
    with pytest.raises(ValueError, match="does not fit"):
        MultiPoly(("x", "y"), {(1,): 1})
    with pytest.raises(ValueError, match="does not fit"):
        MultiPoly(("x",), {(1, 0): 1})
    p = MultiPoly(("x",), {(1,): 2, (0,): 0, (2,): Fraction(0)})
    assert p.terms == {(1,): Fraction(2)} and type(p.terms[(1,)]) is Fraction


def test_h_basics():
    assert complete_homogeneous(0) == MultiPoly.constant(("t1",), 1)
    h2 = complete_homogeneous(2)
    assert h2 == P(("t1", "t2"), {(2, 0): (1, 2), (0, 1): 1})
    h3 = complete_homogeneous(3)
    assert h3 == P(
        ("t1", "t2", "t3"),
        {(3, 0, 0): (1, 6), (1, 1, 0): 1, (0, 0, 1): 1},
    )


def test_h_with_inactive_variables():
    h6 = complete_homogeneous(6, {1, 5})
    assert h6 == P(("t1", "t5"), {(6, 0): (1, 720), (1, 1): 1})


def test_h_derivative_is_shift():
    # d h_n / d t_1 = h_{n-1}, symbolically, for n <= 10
    for n in range(1, 11):
        hn = complete_homogeneous(n)
        hm = complete_homogeneous(n - 1, active=range(1, n + 1))
        assert hn.diff("t1") == hm


def test_schur_single_is_h():
    for k in (1, 2, 4):
        assert schur_wronskian((k,)) == complete_homogeneous(k)


def test_schur_12():
    s = schur_wronskian((1, 2))
    assert s == P(("t1", "t2"), {(2, 0): (1, 2), (0, 1): -1})


def test_schur_indices_validated():
    with pytest.raises(ValueError):
        schur_wronskian((2, 2))
    with pytest.raises(ValueError):
        schur_wronskian((0, 1))


def test_g2_tau_polynomials():
    fam = nilpotent_tau_family("G2")
    kinds = [e.kind for e in fam.entries]
    assert kinds == [PLAIN, PLAIN]
    tau1, tau2 = (e.poly for e in fam.entries)
    assert tau1 == P(("t1", "t5"), {(6, 0): (1, 720), (1, 1): 1})
    assert tau2 == P(
        ("t1", "t5"),
        {(10, 0): (-1, 86400), (5, 1): (1, 40), (0, 2): -1},
    )
    assert fam.min_degrees() == (2, 2)


def test_min_degree_examples():
    assert min_degree(complete_homogeneous(6, {1, 5})) == 2
    assert min_degree(MultiPoly.constant(("x",), 1)) == 0
    assert min_degree(schur_wronskian((1, 2))) == 1
    with pytest.raises(ZeroPolynomial):
        min_degree(MultiPoly.zero(("x",)))


DEGREE_LISTS = {
    "A1": (1,),
    "A2": (1, 1),
    "A3": (1, 2, 1),
    "A4": (1, 2, 2, 1),
    "A5": (1, 2, 3, 2, 1),
    "A6": (1, 2, 3, 3, 2, 1),
    "B2": (2, 1),
    "B3": (2, 2, 2),
    "B4": (2, 2, 4, 2),
    "B5": (2, 2, 4, 4, 3),
    "B6": (2, 2, 4, 4, 6, 3),
    "C2": (1, 2),
    "C3": (1, 2, 3),
    "C4": (1, 2, 3, 4),
    "C5": (1, 2, 3, 4, 5),
    "C6": (1, 2, 3, 4, 5, 6),
    "D4": (2, 2, 2, 2),
    "D5": (2, 2, 4, 2, 2),
    "D6": (2, 2, 4, 4, 3, 3),
    "G2": (2, 2),
}


@pytest.mark.parametrize("name,expected", sorted(DEGREE_LISTS.items()))
def test_min_degree_sequences(name, expected):
    assert tau_min_degrees(name) == expected


MULTIPLICITIES = {
    "A2": 2, "A3": 4, "A4": 6, "B3": 6, "B4": 10, "B5": 15,
    "C3": 6, "C4": 10, "C5": 15, "D4": 8, "D5": 12, "D6": 18, "G2": 4,
}


@pytest.mark.parametrize("name,expected", sorted(MULTIPLICITIES.items()))
def test_multiplicities(name, expected):
    assert singularity_multiplicity(name) == expected


def test_multiplicity_equals_longest_blowups():
    from flagcoh.blowup import longest_blowups

    for name in DEGREE_LISTS:
        assert singularity_multiplicity(name) == longest_blowups(name), name


@pytest.mark.parametrize("name,expected", [("A7", 16), ("D7", 24)])
def test_rank_seven_multiplicities_equal_longest_blowups(name, expected):
    from flagcoh.blowup import longest_blowups

    assert singularity_multiplicity(name) == longest_blowups(name) == expected


def test_a_type_t1_degrees():
    # t_1-degree of tau_k is k(l - k + 1); the total is the weighted height
    for l in (2, 3, 4):
        fam = nilpotent_tau_family(f"A{l}")
        degs = [e.poly.degree_in("t1") for e in fam.entries]
        assert degs == [k * (l - k + 1) for k in range(1, l + 1)]
        assert sum(degs) == l * (l + 1) * (l + 2) // 6


def test_product_lowest_degrees_add():
    # no cancellation among lowest homogeneous forms of the tau product
    for name in ["A2", "A3", "B2", "B3", "C3", "G2"]:
        fam = nilpotent_tau_family(name)
        prod = None
        for e in fam.entries:
            if e.kind != PLAIN:
                continue
            prod = e.poly if prod is None else prod * e.poly
        expected = sum(min_degree(e.poly) for e in fam.entries if e.kind == PLAIN)
        assert min_degree(prod) == expected


def test_d_family_tags():
    fam = nilpotent_tau_family("D4")
    assert [e.kind for e in fam.entries] == [PLAIN, PLAIN, PRODUCT, SQUARED]
    fam5 = nilpotent_tau_family("D5")
    assert [e.kind for e in fam5.entries] == [PLAIN, PLAIN, PLAIN, PRODUCT, SQUARED]


def test_b_family_tags():
    fam = nilpotent_tau_family("B3")
    assert [e.kind for e in fam.entries] == [PLAIN, PLAIN, SQUARED]


def test_b2_squared_is_perfect_square():
    # Wr(h4, h3) over odd variables equals -(t1^3/12 - t3)^2
    fam = nilpotent_tau_family("B2")
    sq = fam.entries[-1].poly
    root = P(("t1", "t3"), {(3, 0): (1, 12), (0, 1): -1})
    assert sq == -(root * root)


def test_unsupported_families():
    # verify prints these texts as its skip details
    with pytest.raises(UnsupportedType, match="^no formulas for this family$"):
        nilpotent_tau_family("E6")
    with pytest.raises(UnsupportedType, match="^no formulas for this family$"):
        nilpotent_tau_family("F4")
    with pytest.raises(UnsupportedType, match="^rank 8 needs determinants of dimension 8 > bound 7$"):
        nilpotent_tau_family("A8")


def test_odd_squared_degree_is_reported():
    from flagcoh.cartan import LieType
    from flagcoh.errors import OddSquaredDegree
    from flagcoh.tau import TauFamily

    # a squared-tagged entry with odd minimal degree marks a transcription bug
    odd = MultiPoly.variable(("x",), "x")
    fam = TauFamily(LieType("B", 2), [[odd]], (SQUARED,))
    with pytest.raises(OddSquaredDegree):
        fam.min_degrees()


def _prefix_route(name):
    """(poly, kind) per tau with a determinant of its own for each one: the
    prefix Wronskians of the generator lists, written out here apart from
    the module's table, and for D the bordered matrix of tau_l squared; the
    h's come from _h_recurrence, not from the module."""
    t = LieType.parse(name)
    l, fam = t.rank, t.family
    odd = tuple(range(1, 2 * l, 2))
    active = {"A": tuple(range(1, l + 1)), "B": odd, "C": odd, "D": odd[:-1], "G": (1, 5)}[fam]
    with_s = fam == "D"
    vars = tuple(f"t{j}" for j in active) + (("s",) if with_s else ())
    hs = _h_recurrence(vars, active + ((0,) if with_s else ()), max(2 * l, 6))
    one = MultiPoly.constant(vars, 1)
    s = MultiPoly.variable(vars, "s") if with_s else one

    def value(gen, c):  # the c-th t_1-derivative of sum coef * s^a * h_m
        acc = MultiPoly.zero(vars)
        for coef, a, m in gen:
            if m - c >= 0:
                acc = acc + s**a * hs[m - c] * coef
        return acc

    def wr(gens):
        return det([[value(g, c) for c in range(len(gens))] for g in gens])

    if fam == "A":
        gens = [[(1, 0, m)] for m in range(l, 0, -1)]
    elif fam == "B":
        gens = [[(1, 0, 2 * l - a)] for a in range(l)]
    elif fam == "C":
        gens = [[(1, 0, 2 * l - 1 - a)] for a in range(l)]
    elif fam == "G":
        gens = [[(1, 0, 6)], [(1, 0, 5)]]
    elif l % 2 == 0:
        gens = [[(1, 1, l - 1 - a), (2, 0, 2 * l - 2 - a)] for a in range(l - 1)]
    else:
        gens = [[(1, 2, 0), (2, 0, 2 * l - 2)]] + [[(2, 0, 2 * l - 2 - a)] for a in range(1, l - 1)]
    n_plain = {"B": l - 1, "D": l - 2}.get(fam, len(gens))
    out = [(wr(gens[:k]), PLAIN) for k in range(1, n_plain + 1)]
    if fam == "B":
        out.append((wr(gens), SQUARED))
    if fam == "D":
        out.append((wr(gens), PRODUCT))
        border = [value([(1, 1, 0), (1, 0, l - 1)], 0)] + [hs[l - a] for a in range(2, l)]
        rows = [[value(g, c) for c in range(l - 1)] + [b] for g, b in zip(gens, border)]
        rows.append(border + [one * (l % 2)])
        out.append((det(rows), SQUARED))
    return out


PREFIX_TYPES = [f"A{l}" for l in range(1, 7)] + [f"B{l}" for l in range(2, 6)] + [
    f"C{l}" for l in range(2, 6)
] + ["D4", "D5", "G2"]


@pytest.mark.parametrize("name", PREFIX_TYPES)
def test_leading_minors_equal_prefix_determinants(name):
    fam = nilpotent_tau_family(name)
    assert [(e.poly, e.kind) for e in fam.entries] == _prefix_route(name)


@pytest.mark.parametrize("l", range(1, 7))
def test_a_family_is_signed_schur(l):
    # reversing the k rows of Wr(h_{l-k+1}..h_l) gives tau_k = Wr(h_l..h_{l-k+1})
    fam = nilpotent_tau_family(f"A{l}")
    for k, e in enumerate(fam.entries, 1):
        sign = -1 if k * (k - 1) // 2 % 2 else 1
        assert e.poly == schur_wronskian(range(l - k + 1, l + 1)) * sign


def test_one_expansion_per_family(monkeypatch):
    # tau.leading_minors, and det through multipoly's own name, count every
    # Laplace expansion: the bordered matrix of D holds the Wronskian as its
    # leading block, so D needs no second one, and the least degrees take
    # none at all
    calls = []
    real = multipoly.leading_minors

    def counted(matrix):
        calls.append(len(matrix))
        return real(matrix)

    monkeypatch.setattr(multipoly, "leading_minors", counted)
    monkeypatch.setattr(tau, "leading_minors", counted)
    for name, size in [("A4", 4), ("B3", 3), ("C4", 4), ("D4", 4), ("D5", 5), ("G2", 2)]:
        calls.clear()
        nilpotent_tau_family(name).entries
        assert calls == [size], name
        fresh = nilpotent_tau_family(name)
        fresh.min_degrees(), fresh.multiplicity()
        assert calls == [size], name


def _min_degrees_from_entries(fam):
    """min_degrees as the full expansion gives it: min_degree of each entry's
    polynomial, with the squared and product bookkeeping written out here."""
    degrees = [min_degree(e.poly) for e in fam.entries]
    half = next((d // 2 for e, d in zip(fam.entries, degrees) if e.kind == SQUARED), None)
    return tuple(
        d if e.kind == PLAIN else half if e.kind == SQUARED else d - half
        for e, d in zip(fam.entries, degrees)
    )


ORACLE_TYPES = [f"A{l}" for l in range(1, 8)] + [f"B{l}" for l in range(2, 8)] + [
    f"C{l}" for l in range(2, 8)
] + [f"D{l}" for l in range(4, 8)] + ["G2"]


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_graded_degrees_equal_the_full_expansion(name):
    expected = _min_degrees_from_entries(nilpotent_tau_family(name))
    assert nilpotent_tau_family(name).min_degrees() == expected


def _degrees_by_expansion(m):
    return [None if p.is_zero() else p.min_total_degree() for p in leading_minors(m)]


@pytest.mark.parametrize("seed", range(6))
def test_leading_minor_degrees_on_narrow_random_matrices(seed):
    # the matrices of test_leading_minors_match_each_leading_submatrix
    rng = random.Random(seed)
    vars = ("x", "y")
    n = 1 + seed % 5

    def entry():
        if rng.random() < 0.35:
            return MultiPoly.zero(vars)
        return MultiPoly(vars, {
            (rng.randrange(3), rng.randrange(3)): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            for _ in range(rng.randint(1, 3))
        })

    m = [[entry() for _ in range(n)] for _ in range(n)]
    assert multipoly.leading_minor_degrees(m) == _degrees_by_expansion(m)


@pytest.mark.parametrize("seed", range(10))
def test_leading_minor_degrees_on_wide_random_matrices(seed):
    # the matrices of test_leading_minors_with_wide_exponents; seed 7 has a
    # zero second row, so every minor past the first is zero
    rng = random.Random(100 + seed)
    vars = ("x", "y", "z")
    n = 1 + seed % 5

    def entry():
        if rng.random() < 0.25:
            return MultiPoly.zero(vars)
        return MultiPoly(vars, {
            tuple(rng.randrange(7) for _ in vars): Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 4, 7)))
            for _ in range(rng.randint(1, 3))
        })

    m = [[entry() for _ in range(n)] for _ in range(n)]
    if seed == 7:
        m[1] = [MultiPoly.zero(vars)] * n
    degrees = multipoly.leading_minor_degrees(m)
    assert degrees == _degrees_by_expansion(m)
    if seed == 7:
        assert degrees[1:] == [None] * (n - 1)


@pytest.mark.parametrize("seed", range(4))
def test_leading_minor_degrees_see_cancellation(seed):
    # no entry is zero, and a repeated row makes the determinant zero by
    # cancellation alone
    rng = random.Random(200 + seed)
    vars = ("x", "y")
    n = 3 + seed % 3
    m = [
        [MultiPoly(vars, {(rng.randrange(3), rng.randrange(3)): rng.randint(1, 4) for _ in range(2)}) for _ in range(n)]
        for _ in range(n)
    ]
    m[-1] = list(m[rng.randrange(n - 1)])
    degrees = multipoly.leading_minor_degrees(m)
    assert degrees == _degrees_by_expansion(m) and degrees[-1] is None
