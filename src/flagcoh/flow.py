"""Exact A-type Toda tau-functions along the t_1 flow, and their zeros.

The flow with prescribed distinct spectrum is solved through the companion
matrix: tau_j(t) is the j x j minor of exp(t C) against the longest-element
coset, which Cauchy-Binet turns into an explicit exponential sum over
j-subsets of eigenvalues.  Zero counting is then numeric: sign changes
between consecutive samples of a grid.
"""

from __future__ import annotations

import itertools
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
        if any(b <= a for a, b in zip(lam, lam[1:])):
            raise DegenerateSpectrum(f"eigenvalues must be strictly increasing: {lam}")
        if abs(sum(lam)) > 1e-9 * max(1.0, max(abs(x) for x in lam)):
            raise DegenerateSpectrum(f"eigenvalues must sum to zero: {lam}")

    @classmethod
    def make(cls, values) -> "SpectralData":
        """Sort and recentre to zero sum."""
        lam = sorted(float(x) for x in values)
        mean = sum(lam) / len(lam)
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
        ex = np.outer(np.asarray(self.rates), ts)
        ex -= ex.max(axis=0)
        return np.asarray(self.coeffs) @ np.exp(ex)


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
    lam = np.asarray(spec.eigenvalues)
    n = len(lam)
    if not 1 <= j <= n - 1:
        raise ValueError(f"tau index {j} out of range 1..{n - 1}")
    if higher_times is None:
        higher_times = default_higher_times(spec)
    vand = np.vander(lam, increasing=True).T  # row i = lam**i
    vinv = np.linalg.inv(vand)
    exponent = np.zeros_like(lam)
    for k, c in enumerate(higher_times, start=2):
        exponent = exponent + c * lam**k
    vinv = vinv * np.exp(exponent)[:, None]
    if coset == "longest":
        cols = list(range(n - j, n))
    elif coset == "identity":
        cols = list(range(j))
    else:
        raise ValueError(f"unknown coset {coset!r}")
    rows = list(range(j))
    rates = []
    coeffs = []
    for subset in itertools.combinations(range(n), j):
        left = np.linalg.det(vand[np.ix_(rows, subset)]) if j > 1 else vand[0, subset[0]]
        right = np.linalg.det(vinv[np.ix_(subset, cols)]) if j > 1 else vinv[subset[0], cols[0]]
        rates.append(float(lam[list(subset)].sum()))
        coeffs.append(float(left * right))
    scale = max(abs(c) for c in coeffs)
    keep = [(r, c) for r, c in zip(rates, coeffs) if abs(c) > _COEFF_TOL * scale]
    return TauSignal(j, tuple(r for r, _ in keep), tuple(c for _, c in keep))


def default_window(spec: SpectralData) -> float:
    return 30.0 / spec.min_gap


def count_zeros(sig: TauSignal, window: float | None = None, samples: int = 4001) -> int:
    """Sign changes of the signal between consecutive samples on [-T, T]; a
    sample exactly at zero counts once, with the nonzero sample before it.

    The window must reach the asymptotic regime: the sampled endpoint signs
    have to agree with the dominant-exponent coefficients.
    """
    if window is None:
        raise ValueError("pass an explicit window or use default_window(spec)")
    if not window > 0:
        raise ValueError(f"window must be > 0, got {window}")
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


def total_blowups(
    spec: SpectralData,
    window: float | None = None,
    samples: int = 4001,
    higher_times=None,
) -> int:
    """Zeros summed over all tau_j on the longest-element coset."""
    if window is None:
        window = default_window(spec)
    return sum(
        count_zeros(tau_signal(spec, j, higher_times=higher_times), window, samples)
        for j in range(1, spec.rank + 1)
    )
