"""Nilpotent Toda tau-functions as exact polynomials, and their degrees.

All tau-functions here are Wronskian determinants of complete homogeneous
functions h_k (plus bordered variants), with rows shifted through the
identity dh_n/dt_1 = h_{n-1}: no symbolic differentiation is performed,
only index shifts.  Variables carry weight 1 each (including the extra
flow parameter s of the D family), so minimal total degree is a plain
minimum over exponent sums.

Per family the generator lists are:
  A_l : tau_k = (-1)^{k(k-1)/2} S_{(l-k+1,...,l)} on t_1..t_l
  B_l : tau_k = Wr(h_{2l},...,h_{2l-k+1}), k < l, odd t's only;
        tau_l squared is the full l x l Wronskian
  C_l : tau_k = Wr(h_{2l-1},...,h_{2l-k}), odd t's only
  D_l : generators s h_{l-a} + 2 h_{2l-1-a} (l even) or
        s^2 + 2h_{2l-2}, 2h_{2l-3}, ... (l odd) on odd t's and s;
        tau_{l-1} tau_l is one Wronskian and tau_l squared is a bordered
        symmetric determinant
  G_2 : tau_1 = h_6, tau_2 = Wr(h_6, h_5) on t_1, t_5
E and F have no such formulas and are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cartan import LieType
from .errors import OddSquaredDegree, UnsupportedType, ZeroPolynomial
from .multipoly import MultiPoly, det

PLAIN = "plain"
SQUARED = "squared"  # stores tau^2, contributes half its degree
PRODUCT = "product"  # stores tau_{l-1} * tau_l

# An h-expression maps (s_power, h_index) -> coefficient; h_0 = 1 and the
# t_1-shift sends (a, m) to (a, m-1), killing m = 0 (s is a constant).
HExpr = dict[tuple[int, int], Fraction]

_MAX_DIM = 6  # largest rank whose exact determinants are attempted


def _shift(expr: HExpr) -> HExpr:
    return {(a, m - 1): c for (a, m), c in expr.items() if m >= 1}


def _h_series(vars, weights, top: int) -> list[MultiPoly]:
    """h_0..h_top over the active variables via k h_k = sum j t_j h_{k-j}."""
    hs = [MultiPoly.constant(vars, 1)]
    gens = [
        (w, MultiPoly.variable(vars, v)) for v, w in zip(vars, weights) if w
    ]
    for k in range(1, top + 1):
        acc = MultiPoly.zero(vars)
        for w, var in gens:
            if w <= k:
                acc = acc + var * hs[k - w] * w
        hs.append(acc * Fraction(1, k))
    return hs


def _expr_poly(expr: HExpr, hs, s_pows) -> MultiPoly:
    acc = None
    for (a, m), c in sorted(expr.items()):
        if m >= len(hs):
            raise ValueError("h series too short")
        term = s_pows[a] * hs[m] * c
        acc = term if acc is None else acc + term
    return acc if acc is not None else hs[0] * 0


def _wronskian(generators: list[HExpr], hs, s_pows) -> MultiPoly:
    rows = []
    for g in generators:
        row = []
        expr = g
        for _ in range(len(generators)):
            row.append(_expr_poly(expr, hs, s_pows))
            expr = _shift(expr)
        rows.append(row)
    return det(rows)


def complete_homogeneous(k: int, active=None) -> MultiPoly:
    """h_k with only the listed t-indices active (default: 1..k)."""
    if k < 0:
        raise ValueError("negative index")
    active = tuple(sorted(active)) if active is not None else tuple(range(1, k + 1))
    if not active:
        active = (1,)
    vars = tuple(f"t{j}" for j in active)
    return _h_series(vars, active, k)[k]


def schur_wronskian(indices, active=None) -> MultiPoly:
    """Wronskian Schur polynomial |h_{i_a - b + 1}| for increasing indices."""
    indices = tuple(indices)
    if not indices or any(b <= a for a, b in zip(indices, indices[1:])) or indices[0] < 1:
        raise ValueError(f"indices must be strictly increasing and >= 1: {indices}")
    top = indices[-1]
    active = tuple(sorted(active)) if active is not None else tuple(range(1, top + 1))
    vars = tuple(f"t{j}" for j in active)
    hs = _h_series(vars, active, top)
    one = MultiPoly.constant(vars, 1)
    gens = [{(0, i): Fraction(1)} for i in indices]
    return _wronskian(gens, hs, [one])


@dataclass
class TauEntry:
    poly: MultiPoly
    kind: str  # PLAIN | SQUARED | PRODUCT


@dataclass
class TauFamily:
    lie_type: LieType
    entries: tuple[TauEntry, ...]

    def min_degrees(self) -> tuple[int, ...]:
        """Per-tau minimal degrees, with squared/product bookkeeping resolved."""
        squared_half = None
        for e in self.entries:
            if e.kind == SQUARED:
                d = min_degree(e.poly)
                if d % 2:
                    raise OddSquaredDegree(f"squared tau has odd degree {d}")
                squared_half = d // 2
        out = []
        for e in self.entries:
            d = min_degree(e.poly)
            if e.kind == PLAIN:
                out.append(d)
            elif e.kind == PRODUCT:
                out.append(d - squared_half)
            else:
                out.append(squared_half)
        return tuple(out)

    def multiplicity(self) -> int:
        return sum(self.min_degrees())


def _family_a(l: int) -> list[TauEntry]:
    vars = tuple(f"t{j}" for j in range(1, l + 1))
    active = tuple(range(1, l + 1))
    hs = _h_series(vars, active, l)
    one = MultiPoly.constant(vars, 1)
    entries = []
    for k in range(1, l + 1):
        gens = [{(0, i): Fraction(1)} for i in range(l - k + 1, l + 1)]
        sign = -1 if (k * (k - 1) // 2) % 2 else 1
        entries.append(TauEntry(_wronskian(gens, hs, [one]) * sign, PLAIN))
    return entries


def _odd_setup(l: int, tmax: int, top: int, with_s: bool):
    active = tuple(range(1, tmax + 1, 2))
    vars = tuple(f"t{j}" for j in active) + (("s",) if with_s else ())
    weights = active + ((0,) if with_s else ())
    hs = _h_series(vars, weights, top)
    if with_s:
        s = MultiPoly.variable(vars, "s")
        s_pows = [MultiPoly.constant(vars, 1), s, s * s]
    else:
        s_pows = [MultiPoly.constant(vars, 1)]
    return vars, hs, s_pows


def _family_b(l: int) -> list[TauEntry]:
    _, hs, s_pows = _odd_setup(l, 2 * l - 1, 2 * l, with_s=False)
    gens = [{(0, 2 * l - a): Fraction(1)} for a in range(l)]
    entries = [
        TauEntry(_wronskian(gens[:k], hs, s_pows), PLAIN) for k in range(1, l)
    ]
    entries.append(TauEntry(_wronskian(gens, hs, s_pows), SQUARED))
    return entries


def _family_c(l: int) -> list[TauEntry]:
    _, hs, s_pows = _odd_setup(l, 2 * l - 1, 2 * l - 1, with_s=False)
    gens = [{(0, 2 * l - 1 - a): Fraction(1)} for a in range(l)]
    return [
        TauEntry(_wronskian(gens[:k], hs, s_pows), PLAIN) for k in range(1, l + 1)
    ]


def _family_d(l: int) -> list[TauEntry]:
    vars, hs, s_pows = _odd_setup(l, 2 * l - 3, 2 * l - 2, with_s=True)
    if l % 2 == 0:
        gens: list[HExpr] = [
            {(1, l - 1 - a): Fraction(1), (0, 2 * l - 2 - a): Fraction(2)}
            for a in range(l - 1)
        ]
    else:
        gens = [{(2, 0): Fraction(1), (0, 2 * l - 2): Fraction(2)}]
        gens += [{(0, 2 * l - 2 - a): Fraction(2)} for a in range(1, l - 1)]
    entries = [
        TauEntry(_wronskian(gens[:k], hs, s_pows), PLAIN) for k in range(1, l - 1)
    ]
    entries.append(TauEntry(_wronskian(gens, hs, s_pows), PRODUCT))

    # bordered symmetric determinant for tau_l squared
    border = [{(1, 0): Fraction(1), (0, l - 1): Fraction(1)}]
    border += [{(0, l - a): Fraction(1)} for a in range(2, l)]
    corner: HExpr = {} if l % 2 == 0 else {(0, 0): Fraction(1)}
    rows = []
    for a in range(l - 1):
        expr = gens[a]
        row = [_expr_poly(expr, hs, s_pows)]
        for _ in range(l - 2):
            expr = _shift(expr)
            row.append(_expr_poly(expr, hs, s_pows))
        row.append(_expr_poly(border[a], hs, s_pows))
        rows.append(row)
    rows.append([_expr_poly(b, hs, s_pows) for b in border] + [_expr_poly(corner, hs, s_pows)])
    entries.append(TauEntry(det(rows), SQUARED))
    return entries


def _family_g2() -> list[TauEntry]:
    active = (1, 5)
    vars = tuple(f"t{j}" for j in active)
    hs = _h_series(vars, active, 6)
    one = [MultiPoly.constant(vars, 1)]
    tau1 = {(0, 6): Fraction(1)}
    tau2 = [{(0, 6): Fraction(1)}, {(0, 5): Fraction(1)}]
    return [
        TauEntry(_expr_poly(tau1, hs, one), PLAIN),
        TauEntry(_wronskian(tau2, hs, one), PLAIN),
    ]


def nilpotent_tau_family(t) -> TauFamily:
    """All tau-functions of the nilpotent flow for one type, exactly."""
    t = LieType.parse(t)
    if t.family in "EF":
        raise UnsupportedType(f"no tau-function formulas for family {t.family}")
    l = t.rank
    if l > _MAX_DIM:
        raise ValueError(f"rank {l} needs determinants of dimension {l} > bound {_MAX_DIM}")
    if t.family == "A":
        entries = _family_a(l)
    elif t.family == "B":
        entries = _family_b(l)
    elif t.family == "C":
        entries = _family_c(l)
    elif t.family == "D":
        entries = _family_d(l)
    else:
        entries = _family_g2()
    return TauFamily(t, tuple(entries))


def min_degree(p: MultiPoly) -> int:
    """Minimal total degree; every variable, s included, has weight 1."""
    if p.is_zero():
        raise ZeroPolynomial("zero polynomial has no minimal degree")
    return p.min_total_degree()


def tau_min_degrees(t) -> tuple[int, ...]:
    return nilpotent_tau_family(t).min_degrees()


def singularity_multiplicity(t) -> int:
    """Sum of the per-tau minimal degrees: the multiplicity at the common
    intersection point of the divisors."""
    return nilpotent_tau_family(t).multiplicity()
