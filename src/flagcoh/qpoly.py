"""Sparse integer-coefficient polynomials in one variable q."""

from __future__ import annotations

import numbers


class QPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for e, c in dict(coeffs).items():
                if c:
                    self.coeffs[int(e)] = int(c)

    @classmethod
    def one(cls) -> "QPoly":
        return cls({0: 1})

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return max(self.coeffs) if self.coeffs else -1

    def items(self):
        return sorted(self.coeffs.items())

    def __eq__(self, other) -> bool:
        if (other := _lift(other)) is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its int, so it must hash like one
        if self.degree <= 0:
            return hash(self.coeffs.get(0, 0))
        return hash(tuple(self.items()))

    def __add__(self, other) -> "QPoly":
        if (other := _lift(other)) is None:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return QPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other) -> "QPoly":
        return self + (-other)

    def __rsub__(self, other) -> "QPoly":
        if (other := _lift(other)) is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "QPoly":
        if (other := _lift(other)) is None:
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return QPoly(out)

    __rmul__ = __mul__

    def __call__(self, x: int) -> int:
        return sum(c * x**e for e, c in self.coeffs.items())

    def shift(self, k: int) -> "QPoly":
        """Multiply by q^k."""
        return QPoly({e + k: c for e, c in self.coeffs.items()})

    def __repr__(self) -> str:
        return f"QPoly({self!s})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in sorted(self.coeffs.items(), reverse=True):
            mono = "1" if e == 0 else ("q" if e == 1 else f"q^{e}")
            if e > 0:
                mono = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            else:
                mono = str(abs(c))
            parts.append(("- " if c < 0 else "+ ") + mono)
        head = parts[0].replace("+ ", "").replace("- ", "-")
        return " ".join([head] + parts[1:])


def _lift(other) -> QPoly | None:
    """A QPoly as itself, any integer (numpy's too) as a constant, else None."""
    if isinstance(other, QPoly):
        return other
    return QPoly({0: other}) if isinstance(other, numbers.Integral) else None


def q_power_minus_one(d: int) -> QPoly:
    return QPoly({d: 1, 0: -1})


def product(factors) -> QPoly:
    out = QPoly.one()
    for f in factors:
        out = out * f
    return out


def divide_exact(p: QPoly, divisor: QPoly) -> QPoly | None:
    """Quotient p / divisor when the division is exact, else None."""
    if divisor.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    rem = dict(p.coeffs)
    out: dict[int, int] = {}
    dd = divisor.degree
    dc = divisor.coeffs[dd]
    while rem:
        e = max(rem)
        if e < dd:
            return None
        c = rem[e]
        if c % dc:
            return None
        f = c // dc
        out[e - dd] = f
        for de, dcoef in divisor.coeffs.items():
            ne = e - dd + de
            rem[ne] = rem.get(ne, 0) - f * dcoef
            if rem[ne] == 0:
                del rem[ne]
    return QPoly(out)


def factor_q_minus_form(p: QPoly) -> tuple[int, ...] | None:
    """Degrees d_i if p = prod_i (q^{d_i} - 1), else None.

    Greedy and exact: with D = max d_i, the cyclotomic factor Phi_D divides
    p and Phi_d does not for any d > D, so q^D - 1 is the highest q^d - 1
    that divides p, and the multiset {d_i} is unique.
    """
    if p.is_zero() or p.coeffs.get(p.degree) != 1:
        return None
    degrees = []
    while p != QPoly.one():
        for d in range(p.degree, 0, -1):
            quo = divide_exact(p, q_power_minus_one(d))
            if quo is not None:
                break
        else:
            return None
        degrees.append(d)
        p = quo
    return tuple(sorted(degrees))
