"""Finite Chevalley group orders and brute-force point counts over F_p.

The order polynomial q^r prod (q^{d_i} - 1) comes from the compact-dual
table; sphere counts over a prime field give an independent oracle
wherever every factor of the compact dual is SO (A, C, D and E8), via
|SO(n+1)| = |SO(n)| * |S^n| = prod_k |S^k|.
Counting uses the convolution of the squares distribution, never raw
tuple loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, prod

from .blowup import blowup_poly
from .cartan import LieType, compact_dual_data
from .errors import FieldNotSplit, UnsupportedType
from .qpoly import QPoly, product, q_power_minus_one


@dataclass(frozen=True)
class OrderPoly:
    """|K(F_q)| = q^r * reduced(q) with reduced = prod (q^{d_i} - 1)."""

    r: int
    degrees: tuple[int, ...]
    reduced: QPoly

    def full(self) -> QPoly:
        return self.reduced.shift(self.r)

    def order_at(self, q: int) -> int:
        return q**self.r * self.reduced(q)


def order_poly(t) -> OrderPoly:
    t = LieType.parse(t)
    data = compact_dual_data(t)
    reduced = product(q_power_minus_one(d) for d in data.degrees)
    return OrderPoly(r=data.r, degrees=data.degrees, reduced=reduced)


def prime_base(q: int) -> int | None:
    """p when q = p^k for a prime p and k >= 1, so that F_q exists; else None."""
    if q < 2:
        return None
    p = next((k for k in range(2, isqrt(q) + 1) if q % k == 0), q)
    while q % p == 0:
        q //= p
    return p if q == 1 else None


@dataclass(frozen=True)
class PrimeField:
    p: int

    def __post_init__(self):
        if prime_base(self.p) != self.p or self.p == 2:
            raise ValueError(f"p must be an odd prime, got {self.p}")

    @property
    def splits(self) -> bool:
        """Whether x^2 + 1 factors over F_p, i.e. p = 1 mod 4."""
        return self.p % 4 == 1


def sphere_count(n: int, field: PrimeField) -> int:
    """Points on x_1^2 + ... + x_{n+1}^2 = 1 over F_p, exactly."""
    if n < 1:
        raise ValueError("sphere dimension must be >= 1")
    p = field.p
    squares = [0] * p
    for x in range(p):
        squares[x * x % p] += 1
    dist = squares[:]
    for _ in range(n):
        nxt = [0] * p
        for a, ca in enumerate(dist):
            if ca:
                for b, cb in enumerate(squares):
                    if cb:
                        nxt[(a + b) % p] += ca * cb
        dist = nxt
    return dist[1]


def so_order_bruteforce(n: int, field: PrimeField) -> int:
    """|SO(n; F_p)| as the product of sphere counts |S^1| ... |S^{n-1}|."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not field.splits:
        raise FieldNotSplit(
            f"x^2+1 does not factor over F_{field.p}; the split closed form "
            "is not guaranteed (no automatic q -> q^2 substitution)"
        )
    out = 1
    for k in range(1, n):
        out *= sphere_count(k, field)
    return out


def verify_order(t, field: PrimeField) -> dict:
    """Cross-check p^r * p(q)|_{q=p} against brute-force sphere products.

    Only the types whose compact dual is a product of SO groups are
    eligible (A, C, D and E8); the others have no sphere oracle.
    """
    t = LieType.parse(t)
    data = compact_dual_data(t)
    if any(kind != "SO" for kind, _ in data.factors):
        raise UnsupportedType("no sphere oracle for this family")
    brute = prod(so_order_bruteforce(n, field) for _, n in data.factors)
    closed = field.p**data.r * blowup_poly(t, (-1,) * t.rank)(field.p)
    return {
        "type": str(t),
        "prime": field.p,
        "closed_form": closed,
        "brute_force": brute,
        "match": closed == brute,
    }
