import math

import pytest

from flagcoh import weyl
from flagcoh.cartan import (
    CartanMatrix,
    LieType,
    cartan_matrix,
    compact_dual_data,
    dual_type,
    positive_root_count,
    same_up_to_relabeling,
    weyl_order,
)
from flagcoh.errors import FlagcohError, InvalidCartanMatrix
from flagcoh.intmat import transpose

ALL_TYPES = [
    "A1", "A2", "A3", "A4", "A5", "A6",
    "B2", "B3", "B4", "B5",
    "C2", "C3", "C4", "C5",
    "D4", "D5", "D6",
    "E6", "E7", "E8", "F4", "G2",
]


def test_parse_and_str():
    t = LieType.parse("D4")
    assert (t.family, t.rank) == ("D", 4)
    assert str(t) == "D4"
    assert LieType.parse(t) is t


@pytest.mark.parametrize("bad", ["H2", "A0", "D3", "E5", "F3", "G4", "B1", "xyz"])
def test_invalid_types_rejected(bad):
    with pytest.raises(ValueError):
        LieType.parse(bad)


def test_fixed_matrices():
    assert cartan_matrix("A2").entries == ((2, -1), (-1, 2))
    assert cartan_matrix("G2").entries == ((2, -1), (-3, 2))
    assert cartan_matrix("B2").entries == ((2, -1), (-2, 2))


def test_dual_type_swaps_b_and_c():
    assert str(dual_type("B3")) == "C3"
    assert str(dual_type("C5")) == "B5"
    assert str(dual_type("A4")) == "A4"
    assert str(dual_type("G2")) == "G2"


@pytest.mark.parametrize("name", ALL_TYPES)
def test_dual_matrix_is_transpose(name):
    # exact for A-D; G2/F4 transpose reverses the arrow, so allow relabeling
    got = cartan_matrix(dual_type(name)).entries
    want = transpose(cartan_matrix(name).entries)
    if LieType.parse(name).family in "ABCD":
        assert got == want
    assert same_up_to_relabeling(got, want)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_matrix_shape_invariants(name):
    c = cartan_matrix(name)
    l = LieType.parse(name).rank
    assert c.rank == l
    for j in range(l):
        assert c[j][j] == 2
        for i in range(l):
            if i != j:
                assert c[j][i] <= 0
                assert (c[j][i] == 0) == (c[i][j] == 0)


def test_dual_data_examples():
    a2 = compact_dual_data("A2")
    assert (a2.name, a2.degrees, a2.g, a2.r, a2.dim) == ("SO(3)", (2,), 1, 1, 3)
    b3 = compact_dual_data("B3")
    assert (b3.name, b3.degrees, b3.g, b3.r, b3.dim) == ("U(3)", (1, 2, 3), 3, 3, 9)
    g2 = compact_dual_data("G2")
    assert (g2.degrees, g2.g, g2.r, g2.dim) == ((2, 2), 2, 2, 6)
    e8 = compact_dual_data("E8")
    assert e8.degrees == (2, 4, 6, 8, 8, 10, 12, 14)
    assert sum(e8.degrees) == 64


# The per-family formulas the factor table replaced, kept as its oracle.
def _oracle_degrees(t):
    l = t.rank
    if t.family == "A":
        if l % 2 == 0:
            return tuple(range(2, l + 1, 2))
        return tuple(sorted(tuple(range(2, l, 2)) + ((l + 1) // 2,)))
    if t.family == "B":
        return tuple(range(1, l + 1))
    if t.family == "C":
        if l % 2 == 0:
            pairs = tuple(d for k in range(2, l - 1, 2) for d in (k, k))
            return tuple(sorted(pairs + (l, l // 2)))
        pairs = tuple(d for k in range(2, l, 2) for d in (k, k))
        return tuple(sorted(pairs + ((l + 1) // 2,)))
    if t.family == "D":
        if l % 2 == 0:
            return tuple(sorted(tuple(d for k in range(2, l - 1, 2) for d in (k, k)) + (l // 2, l // 2)))
        return tuple(d for k in range(2, l, 2) for d in (k, k))
    if t.family == "E":
        return {6: (2, 4, 6, 8), 7: (2, 3, 4, 5, 6, 7, 8), 8: (2, 4, 6, 8, 8, 10, 12, 14)}[l]
    if t.family == "F":
        return (2, 2, 4, 6)
    return (2, 2)  # G2


def _oracle_name(t):
    l = t.rank
    return {
        "A": f"SO({l + 1})",
        "B": f"U({l})",
        "C": f"SO({l})xSO({l + 1})",
        "D": f"SO({l})xSO({l})",
        "E": {6: "Sp(4)", 7: "SU(8)", 8: "SO(16)"}.get(l, ""),
        "F": "Sp(1)xSp(3)",
        "G": "SU(2)xSU(2)",
    }[t.family]


_TABLE_TYPES = (
    [f"A{l}" for l in range(1, 16)]
    + [f"{f}{l}" for f in "BC" for l in range(2, 16)]
    + [f"D{l}" for l in range(4, 16)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("name", _TABLE_TYPES)
def test_dual_data_matches_the_family_formulas(name):
    t = LieType.parse(name)
    degrees = _oracle_degrees(t)
    dim = sum(2 * d - 1 for d in degrees)
    d = compact_dual_data(t)
    assert (d.name, d.degrees, d.g, d.r, d.dim) == (
        _oracle_name(t), degrees, len(degrees), dim - sum(degrees), dim
    )


# The per-family formulas the degree table replaced, kept as its oracle.
def _oracle_weyl_order(t):
    l = t.rank
    fact = math.factorial(l + 1)
    if t.family == "A":
        return fact
    fact //= l + 1
    if t.family in "BC":
        return fact << l
    if t.family == "D":
        return fact << (l - 1)
    exceptional = {"G": 12, "F": 1152, ("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600}
    return exceptional[(t.family, l) if t.family == "E" else t.family]


def _oracle_root_count(t):
    l = t.rank
    if t.family == "A":
        return l * (l + 1) // 2
    if t.family in "BC":
        return l * l
    if t.family == "D":
        return l * (l - 1)
    if t.family == "E":
        return {6: 36, 7: 63, 8: 120}[l]
    return 24 if t.family == "F" else 6


@pytest.mark.parametrize("name", _TABLE_TYPES)
def test_weyl_degrees_match_the_family_formulas(name):
    t = LieType.parse(name)
    assert (weyl_order(t), positive_root_count(t)) == (_oracle_weyl_order(t), _oracle_root_count(t))


@pytest.mark.parametrize("name", _TABLE_TYPES)
def test_positive_root_count_counts_the_roots_and_is_the_dual_dimension(name):
    # dim G/B = dim K/T = dim K, since the real torus T is finite
    n = positive_root_count(name)
    assert n == len(weyl.positive_roots(cartan_matrix(name))) == compact_dual_data(name).dim


# the chain's sign tables are 2^l wide, so higher ranks cost memory
@pytest.mark.parametrize("name", [n for n in _TABLE_TYPES if LieType.parse(n).rank <= 8])
def test_weyl_order_is_the_size_of_the_coset_chain(name):
    t = LieType.parse(name)
    assert weyl_order(t) == math.prod(level.lengths.size for level in weyl._coset_chain(t))


@pytest.mark.parametrize("name", ALL_TYPES)
def test_dual_data_invariants(name):
    d = compact_dual_data(name)
    assert d.g == len(d.degrees)
    assert d.dim == sum(2 * k - 1 for k in d.degrees)
    assert d.r == sum(k - 1 for k in d.degrees) == d.dim - sum(d.degrees)


# sum of invariant degrees = maximal blow-up count, closed forms per family
_ETA_STAR = {
    "A": lambda l: l * (l + 2) // 4 if l % 2 == 0 else (l + 1) ** 2 // 4,
    "B": lambda l: l * (l + 1) // 2,
    "C": lambda l: l * (l + 1) // 2,
    "D": lambda l: l * l // 2 if l % 2 == 0 else (l * l - 1) // 2,
    "E": lambda l: {6: 20, 7: 35, 8: 64}[l],
    "F": lambda l: 14,
    "G": lambda l: 4,
}


@pytest.mark.parametrize("name", ALL_TYPES)
def test_degree_sum_matches_closed_form(name):
    t = LieType.parse(name)
    assert sum(compact_dual_data(t).degrees) == _ETA_STAR[t.family](t.rank)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_order_and_root_count_consistency(name):
    t = LieType.parse(name)
    d = compact_dual_data(t)
    # dim K = (sum d_i) + r, and the longest length is the positive root count
    assert d.dim == sum(d.degrees) + d.r
    assert positive_root_count(t) >= t.rank
    assert weyl_order(t) % 2 == 0


def test_non_two_diagonal_raises_flagcoh_error():
    # a raised exception, not an assert, so the check survives python -O
    with pytest.raises(FlagcohError, match="diagonal"):
        CartanMatrix(((2, -1), (-1, 3)))


def test_singular_affine_a1_rejected():
    # the affine A1 matrix passes every sign and pattern check but has rank 1
    with pytest.raises(InvalidCartanMatrix, match="singular"):
        CartanMatrix(((2, -2), (-2, 2)))
