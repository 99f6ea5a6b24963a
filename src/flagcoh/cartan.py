"""Static root-system data: Cartan matrices, duality, the Weyl group's
degrees and the compact dual's factors.

Index convention: the Cartan matrix entry C[j][i] (0-based rows/columns for
1-based node labels j, i) is the coefficient in s_i(alpha_j) = alpha_j -
C[j][i] alpha_i.  Fixed orientations: G2 has C[0][1] = -1, C[1][0] = -3;
B_l puts its short root at node 1, so the -2 sits at entry (2,1)
(B2 = [[2,-1],[-2,2]]), and C_l is the transpose of B_l.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import prod

from . import snf
from .errors import InvalidCartanMatrix
from .intmat import Matrix, transpose

_FAMILIES = "ABCDEFG"
_TYPE_RE = re.compile(r"^([A-G])(\d+)$")

# The degrees d_i of the Weyl group, per family at rank l.  They give |W| =
# prod d_i and the number of positive roots N = sum (d_i - 1) (Humphreys,
# Reflection Groups and Coxeter Groups, 1990, 3.9), so cap checks know both
# before any enumeration happens.
_WEYL_DEGREES = {
    "A": lambda l: tuple(range(2, l + 2)),
    "B": lambda l: tuple(range(2, 2 * l + 1, 2)),
    "C": lambda l: tuple(range(2, 2 * l + 1, 2)),
    "D": lambda l: (*range(2, 2 * l - 1, 2), l),
    "E": lambda l: {
        6: (2, 5, 6, 8, 9, 12),
        7: (2, 6, 8, 10, 12, 14, 18),
        8: (2, 8, 12, 14, 18, 20, 24, 30),
    }[l],
    "F": lambda l: (2, 6, 8, 12),
    "G": lambda l: (2, 6),
}


@dataclass(frozen=True, order=True)
class LieType:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        l = self.rank
        ok = {
            "A": l >= 1,
            "B": l >= 2,
            "C": l >= 2,
            "D": l >= 4,
            "E": l in (6, 7, 8),
            "F": l == 4,
            "G": l == 2,
        }[self.family]
        if not ok:
            raise ValueError(f"invalid rank {l} for family {self.family}")

    @classmethod
    def parse(cls, text) -> "LieType":
        if isinstance(text, LieType):
            return text
        m = _TYPE_RE.match(str(text).strip())
        if not m:
            raise ValueError(f"cannot parse Lie type from {text!r}")
        return cls(m.group(1), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class CartanMatrix:
    entries: Matrix

    def __post_init__(self):
        c = self.entries
        l = len(c)
        if any(len(row) != l for row in c):
            raise InvalidCartanMatrix(f"not square: {c}")
        if any(c[i][i] != 2 for i in range(l)):
            raise InvalidCartanMatrix(f"diagonal entries must be 2: {c}")
        if any(c[j][i] > 0 for j in range(l) for i in range(l) if i != j):
            raise InvalidCartanMatrix(f"off-diagonal entries must be <= 0: {c}")
        if any((c[j][i] == 0) != (c[i][j] == 0) for j in range(l) for i in range(l)):
            raise InvalidCartanMatrix(f"zero pattern must be symmetric: {c}")
        if snf.rank(c) < l:
            raise InvalidCartanMatrix(f"singular: {c}")

    @property
    def rank(self) -> int:
        return len(self.entries)

    def __getitem__(self, j: int):
        return self.entries[j]

    def transposed(self) -> "CartanMatrix":
        return CartanMatrix(transpose(self.entries))


def _chain_edges(l: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(l - 1)]


def _diagram_edges(t: LieType) -> list[tuple[int, int]]:
    l = t.rank
    if t.family in "ABC":
        return _chain_edges(l)
    if t.family == "D":
        return _chain_edges(l - 1)[:-1] + [(l - 3, l - 2), (l - 3, l - 1)]
    if t.family == "E":
        # Bourbaki numbering: chain 1-3-4-5-...-l with node 2 hanging off node 4.
        chain = [(0, 2)] + [(i, i + 1) for i in range(2, l - 1)]
        return chain + [(1, 3)]
    if t.family == "F":
        return _chain_edges(4)
    return [(0, 1)]  # G2


@lru_cache(maxsize=None)
def cartan_matrix(t) -> CartanMatrix:
    """Standard Cartan matrix for the type, with the fixed orientations above."""
    t = LieType.parse(t)
    l = t.rank
    c = [[2 * int(i == j) for i in range(l)] for j in range(l)]
    for a, b in _diagram_edges(t):
        c[a][b] = c[b][a] = -1
    if t.family == "B":
        c[1][0] = -2
    elif t.family == "C":
        c[0][1] = -2
    elif t.family == "F":
        c[1][2] = -2
    elif t.family == "G":
        c[1][0] = -3
    return CartanMatrix(tuple(tuple(row) for row in c))


def dual_type(t) -> LieType:
    """B_l and C_l swap; every other simple type is self-dual."""
    t = LieType.parse(t)
    if t.family == "B":
        return LieType("C", t.rank)
    if t.family == "C":
        return LieType("B", t.rank)
    return t


def same_up_to_relabeling(a: Matrix, b: Matrix) -> bool:
    """Whether two Cartan matrices agree after renumbering diagram nodes.

    Transposition reverses arrows, so e.g. G2's transpose equals G2 only
    after swapping the two nodes.
    """
    if a == b:
        return True
    n = len(a)
    return any(
        all(a[p[j]][p[i]] == b[j][i] for j in range(n) for i in range(n))
        for p in permutations(range(n))
    )


def weyl_order(t) -> int:
    """|W| as the product of W's degrees."""
    t = LieType.parse(t)
    return prod(_WEYL_DEGREES[t.family](t.rank))


def positive_root_count(t) -> int:
    """N, the length of w* and the flag manifold's dimension, as sum (d_i - 1)."""
    t = LieType.parse(t)
    return sum(d - 1 for d in _WEYL_DEGREES[t.family](t.rank))


# The simple factors (kind, n) of the compact dual, per family at rank l: its
# name, degrees and dimension derive from them, and chevalley's sphere oracle
# reads the SO sizes.
_DUAL_FACTORS = {
    "A": lambda l: (("SO", l + 1),),
    "B": lambda l: (("U", l),),
    "C": lambda l: (("SO", l), ("SO", l + 1)),
    "D": lambda l: (("SO", l), ("SO", l)),
    "E": lambda l: {6: (("Sp", 4),), 7: (("SU", 8),), 8: (("SO", 16),)}[l],
    "F": lambda l: (("Sp", 1), ("Sp", 3)),
    "G": lambda l: (("SU", 2), ("SU", 2)),
}

# Per kind, the degrees d_i of the group at n and its dimension: SO(2m) has
# 2, 4, ..., 2m - 2 and m, SO(2m + 1) has 2, 4, ..., 2m.
_KINDS = {
    "SO": (lambda n: (*range(2, n - 1, 2), n - 1 if n % 2 else n // 2), lambda n: n * (n - 1) // 2),
    "U": (lambda n: tuple(range(1, n + 1)), lambda n: n * n),
    "SU": (lambda n: tuple(range(2, n + 1)), lambda n: n * n - 1),
    "Sp": (lambda n: tuple(range(2, 2 * n + 1, 2)), lambda n: n * (2 * n + 1)),
}


@dataclass(frozen=True)
class DualCompactData:
    """Invariants of the compact subgroup attached to the transposed type."""

    factors: tuple[tuple[str, int], ...]
    name: str
    degrees: tuple[int, ...]
    g: int
    r: int
    dim: int


@lru_cache(maxsize=None)
def compact_dual_data(t) -> DualCompactData:
    """Factors, degrees d_i, rank g, q-exponent r and dimension of the compact dual."""
    t = LieType.parse(t)
    factors = _DUAL_FACTORS[t.family](t.rank)
    degrees = tuple(sorted(d for kind, n in factors for d in _KINDS[kind][0](n)))
    dim = sum(_KINDS[kind][1](n) for kind, n in factors)
    return DualCompactData(
        factors=factors,
        name="x".join(f"{kind}({n})" for kind, n in factors),
        degrees=degrees,
        g=len(degrees),
        r=dim - sum(degrees),
        dim=dim,
    )
