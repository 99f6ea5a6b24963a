"""Sparse multivariate polynomials with exact rational coefficients.

Terms are keyed by exponent tuples aligned with a fixed variable-name
tuple; two polynomials combine only when their variable tuples agree.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from math import lcm


def _fraction(x) -> Fraction | None:
    """Any rational number (numpy's integers too) as a Fraction of ints, else None."""
    if isinstance(x, numbers.Rational):
        return Fraction(int(x.numerator), int(x.denominator))
    return None


def _nonzero(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


class MultiPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        self.terms: dict[tuple[int, ...], Fraction] = {}
        if terms:
            n = len(self.vars)
            for exp, c in dict(terms).items():
                c = Fraction(c)
                if not c:
                    continue
                exp = tuple(int(e) for e in exp)
                if len(exp) != n:
                    raise ValueError(f"exponent {exp} does not fit variables {self.vars}")
                self.terms[exp] = c

    @classmethod
    def _exact(cls, vars: tuple, terms: dict) -> "MultiPoly":
        """A result of exact arithmetic, taken as it is: int exponent tuples
        that fit vars, nonzero Fraction coefficients."""
        p = cls.__new__(cls)
        p.vars, p.terms = vars, terms
        return p

    @classmethod
    def constant(cls, vars, c) -> "MultiPoly":
        return cls(vars, {(0,) * len(tuple(vars)): Fraction(c)})

    @classmethod
    def zero(cls, vars) -> "MultiPoly":
        return cls(vars)

    @classmethod
    def variable(cls, vars, name) -> "MultiPoly":
        vars = tuple(vars)
        exp = [0] * len(vars)
        exp[vars.index(name)] = 1
        return cls(vars, {tuple(exp): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def _lift(self, other) -> "MultiPoly | None":
        """A MultiPoly on the same vars as itself, any rational number (numpy's
        integers too) as a constant on self's vars, else None."""
        if isinstance(other, MultiPoly):
            if self.vars != other.vars:
                raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
            return other
        if (c := _fraction(other)) is None:
            return None
        return MultiPoly._exact(self.vars, {(0,) * len(self.vars): c} if c else {})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __add__(self, other) -> "MultiPoly":
        if (other := self._lift(other)) is None:
            return NotImplemented
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, 0) + c
        return MultiPoly._exact(self.vars, _nonzero(out))

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._exact(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        if (other := self._lift(other)) is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        if (other := self._lift(other)) is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "MultiPoly":
        if (k := _fraction(other)) is not None:  # a constant only scales
            return MultiPoly._exact(self.vars, {e: c * k for e, c in self.terms.items()} if k else {})
        if (other := self._lift(other)) is None:
            return NotImplemented
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MultiPoly._exact(self.vars, _nonzero(out))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power")
        out = MultiPoly.constant(self.vars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def min_total_degree(self) -> int:
        """Least sum of exponents over stored terms (every variable weight 1)."""
        if not self.terms:
            raise ValueError("zero polynomial has no minimal degree")
        return min(sum(e) for e in self.terms)

    def degree_in(self, name) -> int:
        """Degree in one variable; zero polynomial gives -1."""
        if not self.terms:
            return -1
        k = self.vars.index(name)
        return max(e[k] for e in self.terms)

    def diff(self, name) -> "MultiPoly":
        k = self.vars.index(name)
        out: dict[tuple[int, ...], Fraction] = {}
        for exp, c in self.terms.items():
            if exp[k]:
                e = list(exp)
                e[k] -= 1
                out[tuple(e)] = c * exp[k]
        return MultiPoly(self.vars, out)

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp, c in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0])):
            factors = [
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.vars, exp)
                if e
            ]
            mono = "*".join(factors)
            if not factors:
                parts.append(str(c))
            elif abs(c) == 1:
                parts.append(("-" if c < 0 else "") + mono)
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def _scaled(matrix: list[list[MultiPoly]]):
    """The checks and the integer form both expansions share: vars, den, B
    and per entry its (total degree, key, coefficient * den) terms.

    Every entry is scaled by den, the lcm of all coefficient denominators,
    so a minor of k rows is den^k times the true one. Each exponent tuple is
    packed into one int key, digit i in base B = 1 + sum over rows of the
    row's largest exponent: a monomial of a minor multiplies one monomial
    from each of its rows, so no exponent of it exceeds B - 1, no digit
    carries, and a product of monomials is one int addition of their keys."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    vars = matrix[0][0].vars
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if any(entry.vars != vars for row in matrix for entry in row):
        raise ValueError(f"variable mismatch: every entry must have variables {vars}")
    den = lcm(*(c.denominator for row in matrix for entry in row for c in entry.terms.values()))
    base = 1 + sum(max((max(e, default=0) for x in row for e in x.terms), default=0) for row in matrix)
    digits = [base**i for i in range(len(vars))]

    def scaled(x):
        return [
            (sum(e), sum(a * w for a, w in zip(e, digits)), c.numerator * (den // c.denominator))
            for e, c in x.terms.items()
        ]

    return vars, den, base, [[scaled(x) for x in row] for row in matrix]


def _laplace_row(ndp: dict, dp: dict, row: list, r: int) -> None:
    """Add into ndp the Laplace steps of row r from dp, which maps a column
    subset to the packed terms of a minor of the rows above. Each entry of
    row is None (zero) or its term list and its negation, so the Laplace
    sign of a step picks a list instead of multiplying every term."""
    for mask, minor in dp.items():
        used_below = 0
        for col, entry in enumerate(row):
            bit = 1 << col
            if mask & bit:
                used_below += 1
            elif entry:
                acc = ndp.setdefault(mask | bit, {})
                get = acc.get
                for e2, c2 in entry[(r + used_below) % 2]:
                    for e1, c1 in minor.items():
                        e = e1 + e2
                        acc[e] = get(e, 0) + c1 * c2


def leading_minors(matrix: list[list[MultiPoly]]) -> list[MultiPoly]:
    """All n leading principal minors from one Laplace expansion.

    A subset DP over columns, row by row, on the integer terms of _scaled:
    after row k-1, dp[mask] is the minor of the first k rows on the column
    subset `mask`, so the entry for the first k columns is the k-th leading
    minor. The minors are built from the exact sums, with no check of their
    terms."""
    vars, den, base, scaled = _scaled(matrix)

    def unpack(key):
        return tuple(key // base**i % base for i in range(len(vars)))

    dp = {0: {0: 1}}
    minors = []
    for r, row in enumerate(scaled):
        ndp: dict[int, dict[int, int]] = {}
        signed = [x and ([(e, c) for _, e, c in x], [(e, -c) for _, e, c in x]) for x in row]
        _laplace_row(ndp, dp, signed, r)
        dp = {mask: nz for mask, acc in ndp.items() if (nz := _nonzero(acc))}
        top = dp.get((1 << (r + 1)) - 1, {})
        scale = den ** (r + 1)
        terms = {unpack(e): Fraction(c, scale) for e, c in top.items()}
        minors.append(MultiPoly._exact(vars, terms))
    return minors


def leading_minor_degrees(matrix: list[list[MultiPoly]]) -> list[int | None]:
    """The least total degree of each leading principal minor, None for a
    zero one, with no minor expanded past the degrees this needs.

    The DP of leading_minors, graded by total degree. Every variable has
    weight 1 and degrees add under products, so the degree-d part of a minor
    of k + 1 rows sums, over the Laplace steps of row k, an entry's degree-e
    part times the degree-(d - e) part of a minor of k rows. Degree d of a
    row thus needs only degrees <= d of the row above, and degrees run in
    ascending order, each through all rows. Each part is exact, its zero
    sums dropped, so the first d at which a leading minor has a term is its
    least degree, cancellation included. No minor has a term above the sum
    over rows of the row's largest entry degree, so a leading minor with no
    term by then is the zero polynomial."""
    _, _, _, scaled = _scaled(matrix)
    rows = []  # per entry: degree -> (its degree-d terms, their negation)
    for row in scaled:
        rows.append([{} for _ in row])
        for graded, terms in zip(rows[-1], row):
            for d, e, c in terms:
                plus, minus = graded.setdefault(d, ([], []))
                plus.append((e, c))
                minus.append((e, -c))
    top = sum(max((max(x) for x in row if x), default=0) for row in rows)
    dp = [{0: {0: {0: 1}}}] + [{} for _ in rows]  # dp[r + 1]: mask -> degree -> terms, rows 0..r
    least: list[int | None] = [None] * len(rows)
    for d in range(top + 1):
        for r, row in enumerate(rows):
            ndp: dict[int, dict[int, int]] = {}
            for e in range(d + 1):
                parts = {mask: by[d - e] for mask, by in dp[r].items() if d - e in by}
                _laplace_row(ndp, parts, [x.get(e) for x in row], r)
            for mask, acc in ndp.items():
                if nz := _nonzero(acc):
                    dp[r + 1].setdefault(mask, {})[d] = nz
            if least[r] is None and d in dp[r + 1].get((1 << (r + 1)) - 1, {}):
                least[r] = d
        if None not in least:
            break
    return least


def det(matrix: list[list[MultiPoly]]) -> MultiPoly:
    """Determinant: the last leading minor."""
    return leading_minors(matrix)[-1]
