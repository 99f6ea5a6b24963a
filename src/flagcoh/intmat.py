"""Small exact integer-matrix helpers (tuple-of-tuples representation)."""

from __future__ import annotations

Matrix = tuple[tuple[int, ...], ...]


def identity(n: int) -> Matrix:
    return tuple(tuple(int(r == c) for c in range(n)) for r in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)

