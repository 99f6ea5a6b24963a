"""Small exact integer-matrix helpers (tuple-of-tuples representation)."""

from __future__ import annotations

from fractions import Fraction

from .errors import InvariantViolated

Matrix = tuple[tuple[int, ...], ...]


def identity(n: int) -> Matrix:
    return tuple(tuple(int(r == c) for c in range(n)) for r in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def det(m: Matrix) -> int:
    """Exact determinant via fraction-free Gaussian elimination."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    sign = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    value = Fraction(sign)
    for k in range(n):
        value *= a[k][k]
    if value.denominator != 1:
        raise InvariantViolated(f"determinant of an integer matrix came out as {value}")
    return int(value)


def is_zero(m) -> bool:
    return all(all(x == 0 for x in row) for row in m)
