import random

import numpy as np
import pytest

from flagcoh.blowup import all_minus, blowup_poly
from flagcoh.cartan import compact_dual_data
from flagcoh.chevalley import (
    PrimeField,
    order_poly,
    so_order_bruteforce,
    sphere_count,
    verify_order,
)
from flagcoh.errors import FieldNotSplit, UnsupportedType
from flagcoh.qpoly import QPoly, divide_exact, factor_q_minus_form, q_power_minus_one


def test_qpoly_arithmetic():
    p = QPoly({2: 1, 0: -1})
    q = QPoly({1: 1})
    assert (p * q) == QPoly({3: 1, 1: -1})
    assert p(5) == 24
    assert p.degree == 2
    assert (p - p).is_zero()
    assert str(QPoly({3: 1, 1: -2, 0: 1})) == "q^3 - 2*q + 1"



def test_qpoly_hash_agrees_with_equality():
    # a constant polynomial equals its int, so sets and dicts must merge them
    assert QPoly.one() == 1 and hash(QPoly.one()) == hash(1)
    assert len({QPoly.one(), 1}) == 1
    assert len({QPoly(), 0, QPoly({0: -3}), -3}) == 2
    assert {q_power_minus_one(2): "a"}[QPoly({2: 1, 0: -1})] == "a"


def test_qpoly_takes_any_integer_as_a_constant_and_nothing_else():
    # numpy's integers register as numbers.Integral, so they lift like ints
    one, q = QPoly.one(), QPoly({1: 1})
    assert one + 1 == 1 + one == 2 and one - 1 == 1 - one == 0
    assert 1 - q == QPoly({0: 1, 1: -1}) and np.int64(3) - q == 3 - q
    assert one + np.int64(1) == 2 and one == np.int64(1)
    assert q * np.int64(3) == np.int64(3) * q == 3 * q == QPoly({1: 3})
    assert q * 0 == 0 and one != "1" and one != 1.5
    for bad in ("x", 1.5, None):
        for op in (lambda: one + bad, lambda: bad + one, lambda: q * bad, lambda: one - bad, lambda: bad - one):
            with pytest.raises(TypeError):
                op()

def test_divide_exact():
    p = q_power_minus_one(2) * q_power_minus_one(3)
    assert divide_exact(p, q_power_minus_one(3)) == q_power_minus_one(2)
    assert divide_exact(QPoly({1: 1}), QPoly({0: 2})) is None
    assert divide_exact(q_power_minus_one(3), q_power_minus_one(2)) is None


def test_factor_q_minus_form():
    p = q_power_minus_one(2) * q_power_minus_one(2) * q_power_minus_one(5)
    assert factor_q_minus_form(p) == (2, 2, 5)
    assert factor_q_minus_form(QPoly.one()) == ()
    assert factor_q_minus_form(QPoly({1: 1})) is None
    # q^2 - 1 must not be eaten greedily as (q - 1) * (q + 1)
    assert factor_q_minus_form(q_power_minus_one(2)) == (2,)
    rng = random.Random(5)
    for _ in range(300):
        degrees = tuple(sorted(rng.randint(1, 12) for _ in range(rng.randint(1, 6))))
        p = QPoly.one()
        for d in degrees:
            p = p * q_power_minus_one(d)
        assert factor_q_minus_form(p) == degrees
        # any product of q^d - 1 vanishes at q = 1; adding +-q^e makes p(1) = +-1
        e = rng.randint(0, p.degree)
        assert factor_q_minus_form(p + QPoly({e: rng.choice((-1, 1))})) is None


def test_order_poly_examples():
    assert order_poly("A2").full() == QPoly({3: 1, 1: -1})  # q(q^2-1)
    a3 = order_poly("A3")
    assert a3.full() == QPoly({2: 1}) * q_power_minus_one(2) * q_power_minus_one(2)
    b3 = order_poly("B3")
    expected = QPoly({3: 1}) * q_power_minus_one(1) * q_power_minus_one(2) * q_power_minus_one(3)
    assert b3.full() == expected
    assert b3.r == 3 and b3.degrees == (1, 2, 3)


def test_order_poly_invariants():
    for name in ["A1", "A2", "A4", "B3", "C4", "D4", "E6", "F4", "G2"]:
        op = order_poly(name)
        data = compact_dual_data(name)
        assert op.full().degree == data.dim
        assert op.reduced.degree == sum(data.degrees)
        assert op.reduced(0) in (1, -1)
        # multiplicity of the root q = 1 is exactly g
        p, mult = op.reduced, 0
        while True:
            quo = divide_exact(p, q_power_minus_one(1))
            if quo is None:
                break
            p, mult = quo, mult + 1
        assert mult == data.g


def test_reduced_matches_blowup_poly():
    for name in ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "C4", "D4", "G2", "F4"]:
        l = int(name[1])
        assert order_poly(name).reduced == blowup_poly(name, all_minus(l)), name


def test_prime_field_validation():
    assert PrimeField(5).splits
    assert PrimeField(13).splits
    assert not PrimeField(3).splits
    assert not PrimeField(7).splits
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(ValueError):
        PrimeField(9)


def test_sphere_counts():
    F5, F3, F13 = PrimeField(5), PrimeField(3), PrimeField(13)
    assert sphere_count(1, F5) == 4  # q - 1, split
    assert sphere_count(1, F3) == 4  # q + 1, non-split witness
    assert sphere_count(2, F5) == 30  # q(q + 1)
    assert sphere_count(1, F13) == 12
    assert sphere_count(2, F13) == 13 * 14


def test_sphere_count_brute_force_oracle():
    # direct tuple enumeration on tiny cases
    for p in (5, 13):
        for n in (1, 2):
            field = PrimeField(p)
            count = 0
            if n == 1:
                count = sum(
                    (x * x + y * y) % p == 1 for x in range(p) for y in range(p)
                )
            else:
                count = sum(
                    (x * x + y * y + z * z) % p == 1
                    for x in range(p)
                    for y in range(p)
                    for z in range(p)
                )
            assert sphere_count(n, field) == count


def test_higher_sphere_closed_forms():
    F5, F13, F3 = PrimeField(5), PrimeField(13), PrimeField(3)
    for f in (F5, F13):
        q = f.p
        assert sphere_count(3, f) == q**3 - q
        assert sphere_count(4, f) == q**2 * (q**2 + 1)
        assert sphere_count(5, f) == q**2 * (q**3 - 1)
    assert sphere_count(5, F5) == 3100
    # non-split follows the other branch: q^2 (q^3 + 1)
    assert sphere_count(5, F3) == 252


def test_sphere_counts_match_the_split_closed_forms_at_every_n():
    # S^n lives in n + 1 coordinates: q^(2m-1) - q^(m-1) when n + 1 = 2m,
    # q^(2m) + q^m when n + 1 = 2m + 1 (p = 1 mod 4, so -1 is a square)
    for q in (5, 13):
        field = PrimeField(q)
        for n in range(1, 16):
            m, odd = divmod(n + 1, 2)
            expected = q ** (2 * m) + q**m if odd else q ** (2 * m - 1) - q ** (m - 1)
            assert sphere_count(n, field) == expected, (n, q)


def test_so_orders():
    F5, F13 = PrimeField(5), PrimeField(13)
    assert so_order_bruteforce(3, F5) == 120  # q(q^2-1) at q=5
    assert so_order_bruteforce(2, F13) == 12
    assert so_order_bruteforce(4, F5) == 14400  # q^2 (q^2-1)^2 at q=5
    with pytest.raises(ValueError):
        so_order_bruteforce(0, F5)


def test_non_split_field_refused():
    with pytest.raises(FieldNotSplit):
        so_order_bruteforce(2, PrimeField(3))
    with pytest.raises(FieldNotSplit):
        verify_order("A2", PrimeField(7))


def test_verify_order():
    for name in ["A2", "A3"]:
        for p in (5, 13):
            report = verify_order(name, PrimeField(p))
            assert report["match"], report
    a2 = verify_order("A2", PrimeField(5))
    assert a2["closed_form"] == a2["brute_force"] == 120
    a2_13 = verify_order("A2", PrimeField(13))
    assert a2_13["closed_form"] == 13 * 168 == 2184


def test_verify_order_c_and_d():
    report = verify_order("D4", PrimeField(5))
    assert report["match"]
    report = verify_order("C3", PrimeField(5))
    assert report["match"]


def test_verify_order_b_family_rejected():
    with pytest.raises(UnsupportedType, match="^no sphere oracle for this family$"):
        verify_order("B3", PrimeField(5))


@pytest.mark.parametrize("p", [5, 13])
def test_verify_order_e8_reads_so16(p):
    report = verify_order("E8", PrimeField(p))
    assert report["match"]
    assert report["brute_force"] == so_order_bruteforce(16, PrimeField(p))


@pytest.mark.parametrize("name", ["B2", "B3", "B4", "B5", "B6", "B7", "E6", "E7", "F4", "G2"])
def test_verify_order_refuses_duals_with_a_factor_other_than_so(name):
    with pytest.raises(UnsupportedType, match="^no sphere oracle for this family$"):
        verify_order(name, PrimeField(5))
