"""Exact A-type Toda tau-functions along the t_1 flow, and their zeros.

tau_j(t) is the minor on rows 1..j and the coset's columns J of
V diag(w e^{lam t}) V^-1, with V the Vandermonde matrix of the sorted spectrum
lam and w the higher-time weights.  Cauchy-Binet and Jacobi's complementary
minors make it a closed-form sum over j-subsets S of eigenvalues, with rate
sum_S lam_b and coefficient (-1)^(sum S + sum J) D(S) D(S^c) / D(all) prod_S w_b,
times prod_{b not in S} lam_b^j on the identity coset; D(I) is the Vandermonde
product prod_{a < b in I} (lam_b - lam_a) > 0, so D(S) D(S^c) / D(all) is
1 / prod |lam_a - lam_b| over a in S, b not in S.  Zero counting is numeric:
sign changes between consecutive samples of a grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, WindowTooSmall

_COEFF_TOL = 1e-9  # relative cutoff separating true zero coefficients from noise


@dataclass(frozen=True)
class SpectralData:
    eigenvalues: tuple[float, ...]

    def __post_init__(self):
        lam = self.eigenvalues
        if len(lam) < 2:
            raise DegenerateSpectrum("need at least two eigenvalues")
        if not np.isfinite([*lam, self.min_gap]).all():
            raise DegenerateSpectrum(f"eigenvalues and their gaps must be finite: {lam}")
        if any(b <= a for a, b in zip(lam, lam[1:])):
            raise DegenerateSpectrum(f"eigenvalues must be strictly increasing: {lam}")
        if abs(sum(lam)) > 1e-9 * max(1.0, max(abs(x) for x in lam)):
            raise DegenerateSpectrum(f"eigenvalues must sum to zero: {lam}")

    @classmethod
    def make(cls, values) -> "SpectralData":
        """Sort and recentre to zero sum."""
        lam = sorted(float(x) for x in values)
        mean = sum(lam) / max(len(lam), 1)  # [] reaches __post_init__'s check
        return cls(tuple(x - mean for x in lam))

    @property
    def rank(self) -> int:
        return len(self.eigenvalues) - 1

    @property
    def min_gap(self) -> float:
        lam = self.eigenvalues
        return min(b - a for a, b in zip(lam, lam[1:]))


@dataclass(frozen=True)
class TauSignal:
    """tau_j(t) = sum_S coeff_S exp(rate_S t) over j-subsets S of eigenvalues."""

    j: int
    rates: tuple[float, ...]
    coeffs: tuple[float, ...]

    def __call__(self, t: float) -> float:
        """Value at t; when the exponents exceed float range the result is
        scaled by a positive factor instead (signs are always faithful)."""
        shift = max(r * t for r in self.rates)
        acc = sum(c * np.exp(r * t - shift) for r, c in zip(self.rates, self.coeffs))
        return acc * np.exp(shift) if shift < 700.0 else acc

    def values(self, ts: np.ndarray) -> np.ndarray:
        """Values on the grid ts, each sample scaled by exp(-its largest
        exponent) so that none overflows.  That exponent is max(rates) * t
        for t >= 0 and min(rates) * t for t < 0, bit for bit the largest
        rounded product rate * t, since rounding is monotone."""
        rates = np.asarray(self.rates)
        ex = np.outer(rates, ts)
        ex -= np.where(ts >= 0, rates.max() * ts, rates.min() * ts)
        return np.asarray(self.coeffs) @ np.exp(ex, out=ex)


def default_higher_times(spec: SpectralData) -> tuple[float, ...]:
    """Deterministic generic constants for the flows t_2..t_l.

    The line with all higher times zero passes straight through the common
    intersection point of the divisors at t_1 = 0 (every tau minor of the
    bare longest-element matrix vanishes), where crossings can have even
    multiplicity and escape sign counting.  Any generic constants separate
    them into transversal crossings; these are fixed, scale-aware choices.
    """
    scale = max(abs(x) for x in spec.eigenvalues)
    return tuple(
        0.4 * (-0.7) ** (k - 2) / (k * scale ** (k - 1))
        for k in range(2, spec.rank + 1)
    )


def tau_signal(
    spec: SpectralData,
    j: int,
    coset: str = "longest",
    higher_times=None,
) -> TauSignal:
    """Exponential-sum form of tau_j for the chosen Cartan coset.

    "longest" pairs rows 1..j with the last j columns (the w* coset, where
    blow-ups live); "identity" takes the top-left minor instead (the
    coset with no blow-ups, cosh-like at rank one).  higher_times are the
    constants of the commuting flows; they scale the eigenvalue weights by
    exp(sum_k c_k lambda^k) and default to generic values.
    """
    lam = spec.eigenvalues
    n = len(lam)
    if not 1 <= j <= n - 1:
        raise ValueError(f"tau index {j} out of range 1..{n - 1}")
    if higher_times is None:
        higher_times = default_higher_times(spec)
    cols = {"longest": range(n - j, n), "identity": range(j)}.get(coset)
    if cols is None:
        raise ValueError(f"unknown coset {coset!r}")
    weight = [math.exp(sum(c * x**k for k, c in enumerate(higher_times, start=2))) for x in lam]
    gap = [[abs(a - b) for b in lam] for a in lam]
    rates, coeffs = [], []
    for inside in itertools.combinations(range(n), j):
        rest = [b for b in range(n) if b not in inside]
        coeff = math.prod(weight[a] for a in inside)
        coeff /= math.prod(gap[a][b] for a in inside for b in rest)
        if coset == "identity":
            coeff *= math.prod(lam[b] ** j for b in rest)
        rates.append(float(sum(lam[a] for a in inside)))
        coeffs.append((-1) ** (sum(inside) + sum(cols)) * coeff)
    scale = max(abs(c) for c in coeffs)
    keep = [(r, c) for r, c in zip(rates, coeffs) if abs(c) > _COEFF_TOL * scale]
    return TauSignal(j, tuple(r for r, _ in keep), tuple(c for _, c in keep))


def default_window(spec: SpectralData) -> float:
    return 30.0 / spec.min_gap


def count_zeros(sig: TauSignal, window: float, samples: int = 4001) -> int:
    """Sign changes of the signal between consecutive samples on [-T, T]; a
    sample exactly at zero counts once, with the nonzero sample before it.

    The window must reach the asymptotic regime: the sampled endpoint signs
    have to agree with the dominant-exponent coefficients.
    """
    if not (window > 0 and math.isfinite(2 * window * max([1, *map(abs, sig.rates)]))):
        raise ValueError(f"window must be > 0 and keep 2 T max(1, |rate|) finite, got T={window}")
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    vals = sig.values(np.linspace(-window, window, samples))
    lo = min(range(len(sig.rates)), key=lambda k: sig.rates[k])
    hi = max(range(len(sig.rates)), key=lambda k: sig.rates[k])
    if np.sign(vals[0]) != np.sign(sig.coeffs[lo]) or np.sign(vals[-1]) != np.sign(sig.coeffs[hi]):
        raise WindowTooSmall(
            f"tau_{sig.j} endpoint signs disagree with dominant exponents at T={window}"
        )
    sign = np.sign(vals)
    return int(np.count_nonzero((sign[:-1] != 0) & (sign[:-1] != sign[1:])))


def total_blowups(spec: SpectralData) -> int:
    """Zeros summed over all tau_j on the longest-element coset."""
    window = default_window(spec)
    return sum(count_zeros(tau_signal(spec, j), window) for j in range(1, spec.rank + 1))
