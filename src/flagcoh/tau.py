"""Nilpotent Toda tau-functions as exact polynomials, and their degrees.

Every tau-function of a type is a leading principal minor of one matrix,
as tau_k is for the Toda lattice (Kodama and McLaughlin, Lett. Math.
Phys. 37, 1996): the Wronskian of a generator list g_1..g_n of complete
homogeneous functions h_k, whose k-th leading minor is Wr(g_1..g_k).
Rows are shifted through the identity dh_n/dt_1 = h_{n-1}: no symbolic
differentiation is performed, only index shifts, and one Laplace
expansion (multipoly.leading_minors) gives all taus of the type.
Variables carry weight 1 each (including the extra flow parameter s of
the D family), so the least total degrees of all taus come from the same
expansion graded by degree (multipoly.leading_minor_degrees), which stops
at the first degree where every tau has a term. A TauFamily holds the
matrix and runs that graded expansion for its degrees; it builds the
polynomials only when they are first read.

Per family the generator lists are:
  A_l : tau_k = Wr(h_l,...,h_{l-k+1}) on t_1..t_l
  B_l : tau_k = Wr(h_{2l},...,h_{2l-k+1}), k < l, odd t's only;
        tau_l squared is the full l x l Wronskian
  C_l : tau_k = Wr(h_{2l-1},...,h_{2l-k}), odd t's only
  D_l : generators s h_{l-a} + 2 h_{2l-1-a} (l even) or
        s^2 + 2h_{2l-2}, 2h_{2l-3}, ... (l odd) on odd t's and s;
        tau_{l-1} tau_l is their Wronskian and tau_l squared is the
        symmetric determinant that borders it, so the bordered matrix's
        leading minors are all of D's taus
  G_2 : tau_1 = h_6, tau_2 = Wr(h_6, h_5) on t_1, t_5
E and F have no such formulas and are rejected. So is any rank above
_MAX_DIM = 7: each type's matrix has dimension equal to its rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial

from .cartan import LieType
from .errors import OddSquaredDegree, UnsupportedType, ZeroPolynomial
from .multipoly import MultiPoly, det, leading_minor_degrees, leading_minors

PLAIN = "plain"
SQUARED = "squared"  # stores tau^2, contributes half its degree
PRODUCT = "product"  # stores tau_{l-1} * tau_l

# An h-expression maps (s_power, h_index) -> coefficient; h_0 = 1 and the
# t_1-shift sends (a, m) to (a, m-1), killing m = 0 (s is a constant).
HExpr = dict[tuple[int, int], int]

_MAX_DIM = 7  # largest rank whose exact determinants are attempted


def _h(m: int) -> HExpr:
    return {(0, m): 1}


def _shift(expr: HExpr) -> HExpr:
    return {(a, m - 1): c for (a, m), c in expr.items() if m >= 1}


def _h_series(vars, weights, top: int) -> list[MultiPoly]:
    """h_0..h_top over vars in closed form, variable t_j of weight w_j (its
    index, or 0 for s): h_m is the z^m coefficient of exp(sum_j t_j z^w_j),
    so each exponent vector a of weight sum_j w_j a_j = m has coefficient
    1 / prod_j a_j!, and a variable of weight 0 appears in no h_m."""
    # layers[m] maps an exponent prefix of weight m to prod a_j! over it
    layers = [{(): 1}] + [{} for _ in range(top)]
    for w in weights:
        grown: list[dict[tuple[int, ...], int]] = [{} for _ in range(top + 1)]
        for m, prefixes in enumerate(layers):
            for exp, d in prefixes.items():
                for a in range((top - m) // w + 1 if w else 1):
                    grown[m + a * w][exp + (a,)] = d * factorial(a)
        layers = grown
    return [
        MultiPoly._exact(vars, {e: Fraction(1, d) for e, d in terms.items()}) for terms in layers
    ]


def _polys(rows: list[list[HExpr]], active) -> list[list[MultiPoly]]:
    """A matrix of h-expressions as polynomials in t_j (j in active), then s if used."""
    active = tuple(active)
    top = max((m for row in rows for expr in row for _, m in expr), default=0)
    with_s = any(a for row in rows for expr in row for a, _ in expr)
    vars = tuple(f"t{j}" for j in active) + (("s",) * with_s)
    hs = _h_series(vars, active + (0,) * with_s, top)
    s = MultiPoly.variable(vars, "s") if with_s else None

    def poly(expr: HExpr) -> MultiPoly:
        acc = MultiPoly.zero(vars)
        for (a, m), c in sorted(expr.items()):
            acc = acc + (s**a * hs[m] if a else hs[m]) * c
        return acc

    return [[poly(expr) for expr in row] for row in rows]


def _wronskian(gens: list[HExpr]) -> list[list[HExpr]]:
    """One row g, g', g'', ... per generator, as wide as there are generators."""
    rows = []
    for g in gens:
        row = [g]
        while len(row) < len(gens):
            row.append(_shift(row[-1]))
        rows.append(row)
    return rows


def complete_homogeneous(k: int, active=None) -> MultiPoly:
    """h_k with only the listed t-indices active (default: 1..k)."""
    if k < 0:
        raise ValueError("negative index")
    active = tuple(sorted(active)) if active is not None else tuple(range(1, k + 1))
    return _polys([[_h(k)]], active or (1,))[0][0]


def schur_wronskian(indices, active=None) -> MultiPoly:
    """Wronskian Schur polynomial |h_{i_a - b + 1}| for increasing indices."""
    indices = tuple(indices)
    if not indices or any(b <= a for a, b in zip(indices, indices[1:])) or indices[0] < 1:
        raise ValueError(f"indices must be strictly increasing and >= 1: {indices}")
    active = sorted(active) if active is not None else range(1, indices[-1] + 1)
    return det(_polys(_wronskian([_h(i) for i in indices]), active))


@dataclass
class TauEntry:
    poly: MultiPoly
    kind: str  # PLAIN | SQUARED | PRODUCT


@dataclass(frozen=True)
class TauFamily:
    """The taus of one type: the leading principal minors of `matrix`, one
    per kind. The least degrees are read once from the graded expansion,
    which stops below the full polynomials; `entries`, the polynomials
    themselves, take one full expansion on their first read."""

    lie_type: LieType
    matrix: list[list[MultiPoly]]
    kinds: tuple[str, ...]

    @cached_property
    def entries(self) -> tuple[TauEntry, ...]:
        return tuple(map(TauEntry, leading_minors(self.matrix), self.kinds))

    @cached_property
    def _least_degrees(self) -> list[int | None]:
        return leading_minor_degrees(self.matrix)

    def min_degrees(self) -> tuple[int, ...]:
        """Per-tau minimal degrees, with squared/product bookkeeping resolved."""
        degrees = self._least_degrees
        if None in degrees:
            raise ZeroPolynomial("zero polynomial has no minimal degree")
        squared_half = None
        for kind, d in zip(self.kinds, degrees):
            if kind == SQUARED:
                if d % 2:
                    raise OddSquaredDegree(f"squared tau has odd degree {d}")
                squared_half = d // 2
        return tuple(
            d if kind == PLAIN else d - squared_half if kind == PRODUCT else squared_half
            for kind, d in zip(self.kinds, degrees)
        )

    def multiplicity(self) -> int:
        return sum(self.min_degrees())


def _d_generators(l: int) -> list[HExpr]:
    if l % 2 == 0:
        return [{(1, l - 1 - a): 1, (0, 2 * l - 2 - a): 2} for a in range(l - 1)]
    return [{(2, 0): 1, (0, 2 * l - 2): 2}] + [{(0, m): 2} for m in range(2 * l - 3, l - 1, -1)]


def _bordered(rows: list[list[HExpr]], l: int) -> list[list[HExpr]]:
    """D_l's Wronskian bordered by s + h_{l-1}, h_{l-2}, ..., h_1 and a corner
    1 (l odd) or 0 (l even): the matrix of tau_l squared, whose first l - 1
    leading minors are the Wronskian's."""
    border = [{(1, 0): 1, (0, l - 1): 1}] + [_h(l - a) for a in range(2, l)]
    corner = {} if l % 2 == 0 else _h(0)
    return [row + [b] for row, b in zip(rows, border)] + [border + [corner]]


# Per family, for rank l: the active t-indices, the matrix whose leading
# minors are the taus (rows top first), and the kinds of the last taus;
# every other tau is PLAIN.
_FAMILIES = {
    "A": lambda l: (range(1, l + 1), _wronskian(list(map(_h, range(l, 0, -1)))), ()),
    "B": lambda l: (range(1, 2 * l, 2), _wronskian(list(map(_h, range(2 * l, l, -1)))), (SQUARED,)),
    "C": lambda l: (range(1, 2 * l, 2), _wronskian(list(map(_h, range(2 * l - 1, l - 1, -1)))), ()),
    "D": lambda l: (
        range(1, 2 * l - 2, 2), _bordered(_wronskian(_d_generators(l)), l), (PRODUCT, SQUARED)
    ),
    "G": lambda l: ((1, 5), _wronskian([_h(6), _h(5)]), ()),
}


def nilpotent_tau_family(t) -> TauFamily:
    """All tau-functions of the nilpotent flow for one type, exactly."""
    t = LieType.parse(t)
    if t.family not in _FAMILIES:
        raise UnsupportedType("no formulas for this family")
    l = t.rank
    if l > _MAX_DIM:
        raise UnsupportedType(f"rank {l} needs determinants of dimension {l} > bound {_MAX_DIM}")
    active, rows, last = _FAMILIES[t.family](l)
    return TauFamily(t, _polys(rows, active), (PLAIN,) * (len(rows) - len(last)) + last)


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
