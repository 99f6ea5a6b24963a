import itertools
import math
import random

import numpy as np
import pytest

from flagcoh.blowup import longest_blowups
from flagcoh.errors import DegenerateSpectrum, WindowTooSmall
from flagcoh.flow import (
    SpectralData,
    count_zeros,
    default_higher_times,
    default_window,
    tau_signal,
    total_blowups,
)


def test_spectral_data_validation():
    with pytest.raises(DegenerateSpectrum):
        SpectralData((0.0, 0.0))
    with pytest.raises(DegenerateSpectrum):
        SpectralData((1.0, -1.0))
    with pytest.raises(DegenerateSpectrum):
        SpectralData((-1.0, 2.0))  # nonzero sum
    # NaN passes every comparison; 1e308 - -1e308 overflows the gap to inf
    for values in ([math.nan, 1.0, 2.0], [1e308, -1e308], [math.inf, 1.0], [-math.inf, 0.0, 1.0]):
        with pytest.raises(DegenerateSpectrum):
            SpectralData.make(values)
    for values in ([], [1.0]):
        with pytest.raises(DegenerateSpectrum, match="need at least two eigenvalues"):
            SpectralData.make(values)
    s = SpectralData.make([3.0, 1.0, 2.0])
    assert s.eigenvalues == (-1.0, 0.0, 1.0)
    assert s.rank == 2 and s.min_gap == 1.0


def test_rank_one_is_sinh_over_lambda():
    lam = 2.0
    s = SpectralData.make([-lam, lam])
    sig = tau_signal(s, 1)
    for t in (-1.0, -0.3, 0.2, 1.7):
        assert math.isclose(sig(t), math.sinh(lam * t) / lam, rel_tol=1e-9)
    assert count_zeros(sig, 5.0) == 1


def test_rank_one_identity_coset_is_cosh():
    lam = 1.5
    s = SpectralData.make([-lam, lam])
    sig = tau_signal(s, 1, coset="identity")
    for t in (-1.0, 0.0, 0.8):
        assert math.isclose(sig(t), math.cosh(lam * t), rel_tol=1e-9)
    assert count_zeros(sig, 5.0) == 0


def test_sampled_values_match_scalar():
    s = SpectralData.make([-2.0, 0.5, 1.5])
    sig = tau_signal(s, 2)
    ts = np.linspace(-3, 3, 7)
    vals = sig.values(ts)
    # values() normalizes by the max exponent per grid; compare signs and ratios
    for t, v in zip(ts, vals):
        direct = sig(t)
        assert math.copysign(1, v) == math.copysign(1, direct) or abs(direct) < 1e-12


def _signal_by_formula(spec, j, coset):
    """tau_signal's (rates, coeffs) written out term by term, each gap
    |lam_a - lam_b| taken afresh, with the same 1e-9 relative cutoff."""
    lam = spec.eigenvalues
    n = len(lam)
    cols = range(n - j, n) if coset == "longest" else range(j)
    times = default_higher_times(spec)
    weight = [math.exp(sum(c * x**k for k, c in enumerate(times, start=2))) for x in lam]
    terms = []
    for inside in itertools.combinations(range(n), j):
        rest = [b for b in range(n) if b not in inside]
        coeff = math.prod(weight[a] for a in inside)
        coeff /= math.prod(abs(lam[a] - lam[b]) for a in inside for b in rest)
        if coset == "identity":
            coeff *= math.prod(lam[b] ** j for b in rest)
        terms.append((float(sum(lam[a] for a in inside)), (-1) ** (sum(inside) + sum(cols)) * coeff))
    scale = max(abs(c) for _, c in terms)
    terms = [(r, c) for r, c in terms if abs(c) > 1e-9 * scale]
    return tuple(r for r, _ in terms), tuple(c for _, c in terms)


def _values_by_max(sig, ts):
    """Sampled values with each sample's largest exponent found by a max
    over all rates."""
    ex = np.outer(np.asarray(sig.rates), ts)
    ex -= ex.max(axis=0)
    return np.asarray(sig.coeffs) @ np.exp(ex)


@pytest.mark.parametrize("rank", range(1, 7))
def test_sampled_values_and_terms_match_the_written_out_forms(rank):
    # the analytic shift max(rates) t (t >= 0) or min(rates) t (t < 0) is
    # the largest rounded product bit for bit, so the values are identical
    rng = random.Random(60 + rank)
    for spec in [_spread_spectrum(rng, rank) for _ in range(3)] + [
        SpectralData.make(rng.sample(range(-9, 10), rank + 1)) for _ in range(3)
    ]:
        window = default_window(spec)
        grids = (
            np.linspace(-window, window, 4001),
            np.linspace(-3.0, 3.0, 7),
            np.array([0.0, -1e-300, 1e-300, -window, window, 0.5, -0.5]),
        )
        assert all((grid == 0.0).any() for grid in grids[1:])
        for j in range(1, rank + 1):
            for coset in ("longest", "identity"):
                sig = tau_signal(spec, j, coset)
                assert (sig.rates, sig.coeffs) == _signal_by_formula(spec, j, coset)
                for grid in grids:
                    assert np.array_equal(sig.values(grid), _values_by_max(sig, grid))


def test_a2_bare_trajectory_per_tau():
    # with higher times pinned to zero the t1-line passes the divisor
    # intersection: each tau crosses once, transversally, at t = 0
    s = SpectralData.make([-1.0, 0.0, 1.0])
    for j in (1, 2):
        sig = tau_signal(s, j, higher_times=(0.0,))
        assert count_zeros(sig, 20.0) == 1


def test_a2_generic_trajectory_total():
    s = SpectralData.make([-1.0, 0.0, 1.0])
    assert total_blowups(s) == 2 == longest_blowups("A2")


def test_a3_symmetric_spectrum():
    s = SpectralData.make([-3.0, -1.0, 1.0, 3.0])
    assert total_blowups(s) == 4 == longest_blowups("A3")


def test_window_too_small():
    from flagcoh.flow import TauSignal

    # both zeros sit near +-1.76, so a short window sees the wrong signs
    sig = TauSignal(1, (-1.0, 0.0, 1.0), (1.0, -3.0, 1.0))
    with pytest.raises(WindowTooSmall):
        count_zeros(sig, window=0.5)
    assert count_zeros(sig, window=10.0) == 2


def test_unusable_grid_is_a_value_error():
    from flagcoh.flow import TauSignal

    sig = TauSignal(1, (1.0, -1.0), (1.0, -1.0))
    nan, inf = float("nan"), float("inf")
    for window, samples in ((5.0, 0), (5.0, 1), (0.0, 11), (-5.0, 11), (nan, 11), (inf, 11)):
        with pytest.raises(ValueError):
            count_zeros(sig, window, samples)
    # finite, but the grid's span 2 T overflows; so does T |rate| at rate 1e10
    for window, rates in ((1e308, (1.0, -1.0)), (1e300, (1e10, -1.0))):
        with pytest.raises(ValueError):
            count_zeros(TauSignal(1, rates, (1.0, -1.0)), window)
    assert count_zeros(sig, 1e305) == 1
    assert count_zeros(sig, 5.0, 2) == 1


def test_exact_zero_at_a_sample_counts_once():
    from flagcoh.flow import TauSignal

    # e^t - e^-t is exactly 0.0 at the grid's middle sample t = 0
    sig = TauSignal(1, (1.0, -1.0), (1.0, -1.0))
    ts = np.linspace(-5.0, 5.0, 4001)
    assert ts[2000] == 0.0 and sig.values(ts)[2000] == 0.0
    assert count_zeros(sig, 5.0) == 1


def test_default_window_scales_with_gap():
    s = SpectralData.make([-0.2, 0.0, 0.2])
    assert default_window(s) == pytest.approx(150.0)


def _spread_spectrum(rng, rank):
    while True:
        lam = sorted(rng.uniform(-3, 3) for _ in range(rank + 1))
        if min(b - a for a, b in zip(lam, lam[1:])) > 0.3:
            return SpectralData.make(lam)


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_closed_form_equals_the_matrix_minor(rank):
    # the numeric route: the minor on rows 0..j-1 and the coset's columns of
    # V diag(w e^{lam t}) V^-1, through a float inverse and determinant.
    # The two agree to 1e-9 of the terms' scale, max|c| times the sum of
    # e^{rate t} over all j-subsets, not of |tau|: near a zero of tau the
    # terms cancel (here by up to 2e8 on either route), and a term whose
    # coefficient is under 1e-9 of the largest is dropped even when, as on
    # the identity coset with an eigenvalue of 3e-5, it is no rounding noise.
    rng = random.Random(40 + rank)
    for _ in range(4):
        spec = _spread_spectrum(rng, rank)
        lam = np.array(spec.eigenvalues)
        n = len(lam)
        vand = np.vander(lam, increasing=True).T
        for times in (None, (0.0,) * (rank - 1)):
            c = default_higher_times(spec) if times is None else times
            w = np.exp(sum((ck * lam**k for k, ck in enumerate(c, start=2)), np.zeros(n)))
            for t in (-1.0, -0.4, 0.3, 1.0):
                m = vand @ np.diag(w * np.exp(lam * t)) @ np.linalg.inv(vand)
                for j in range(1, n):
                    for coset, cols in (("longest", range(n - j, n)), ("identity", range(j))):
                        want = np.linalg.det(m[:j, list(cols)])
                        sig = tau_signal(spec, j, coset, times)
                        rates = map(sum, itertools.combinations(lam.tolist(), j))
                        scale = max(map(abs, sig.coeffs)) * sum(math.exp(r * t) for r in rates)
                        assert abs(sig(t) - want) <= 1e-9 * scale, (spec, times, t, j, coset)


def test_coefficient_cutoff_drops_only_vanishing_identity_terms():
    # on the identity coset the term of S carries prod of lam_b^j over b not
    # in S: 0.0 at an exact zero eigenvalue, and about 1e-18 where recentring
    # 0.1, 0.2, 0.3 leaves -2.8e-17; the longest coset keeps every term
    for values, middle in (([-1, 0, 1], 0.0), ([0.1, 0.2, 0.3], -2.7755575615628914e-17)):
        spec = SpectralData.make(values)
        assert spec.eigenvalues[1] == middle
        sig = tau_signal(spec, 1, coset="identity")
        assert len(sig.coeffs) == 1
        assert count_zeros(sig, default_window(spec)) == 0
        assert [len(tau_signal(spec, j).coeffs) for j in (1, 2)] == [3, 3]


def test_tau_index_range():
    s = SpectralData.make([-1.0, 1.0])
    with pytest.raises(ValueError):
        tau_signal(s, 2)


@pytest.mark.parametrize("rank,expected", [(1, 1), (2, 2), (3, 4), (4, 6)])
def test_total_blowups_random_spectra(rank, expected):
    rng = random.Random(20 + rank)
    for _ in range(20):
        while True:
            lam = sorted(rng.uniform(-5, 5) for _ in range(rank + 1))
            if min(b - a for a, b in zip(lam, lam[1:])) > 0.3:
                break
        spec = SpectralData.make(lam)
        assert total_blowups(spec) == expected, f"spectrum {spec.eigenvalues}"
