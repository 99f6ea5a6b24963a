"""The Smith diagonal against determinantal divisors computed here directly."""

import itertools
import random
from math import gcd, prod

from flagcoh.snf import smith_diagonal


def _leibniz_det(m):
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        total += (-1) ** inversions * prod(m[i][perm[i]] for i in range(n))
    return total


def _minor_gcd(rows, k):
    """gcd of all k x k minors (0 when every one vanishes)."""
    g = 0
    for rs in itertools.combinations(range(len(rows)), k):
        for cs in itertools.combinations(range(len(rows[0])), k):
            g = gcd(g, _leibniz_det([[rows[i][j] for j in cs] for i in rs]))
    return g


def test_smith_diagonal_products_are_determinantal_divisors():
    rng = random.Random(20240501)
    for _ in range(1000):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3:
            rows[rng.randrange(m)] = [0] * n
        if rng.random() < 0.3:
            j = rng.randrange(n)
            for row in rows:
                row[j] = 0
        d = smith_diagonal(rows)
        sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
        assert smith_diagonal(sparse) == d, (rows, d)
        for k in range(1, min(m, n) + 1):
            expected = prod(d[:k]) if k <= len(d) else 0
            assert _minor_gcd(rows, k) == expected, (rows, d, k)


def _scrambled(diagonal, n_cols, rng, steps=6):
    """diag(diagonal) padded to n_cols columns, then mixed by seeded unimodular
    row and column operations (add a multiple of one line to another, swap
    two columns); dense rows, mostly zero."""
    m = [[diagonal[i] if i == j else 0 for j in range(n_cols)] for i in range(len(diagonal))]
    for _ in range(steps):
        q = rng.choice((-2, -1, 1, 2))
        if rng.random() < 0.5:
            a, b = rng.sample(range(len(m)), 2)
            m[a] = [x + q * y for x, y in zip(m[a], m[b])]
        else:
            a, b = rng.sample(range(n_cols), 2)
            for row in m:
                row[a] += q * row[b]
        if rng.random() < 0.3:
            a, b = rng.sample(range(n_cols), 2)
            for row in m:
                row[a], row[b] = row[b], row[a]
    return m


def _check_against_minors(rows, expected):
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    before = [dict(row) for row in sparse]
    d = smith_diagonal(sparse)
    assert sparse == before  # the caller's rows are read, never changed
    assert d == expected, (rows, d)
    for k in range(1, len(rows) + 1):
        assert _minor_gcd(rows, k) == (prod(d[:k]) if k <= len(d) else 0), (rows, k)


def test_units_run_out_before_a_non_unit_remainder():
    # after the two unit pivots every entry left is even (the gcd of the
    # remainder's entries is the third divisor, 2), so the least-entry step runs
    rng = random.Random(17)
    for _ in range(60):
        _check_against_minors(_scrambled((1, 1, 2, 6), 5, rng), [1, 1, 2, 6])


def test_signed_cycle_block_has_an_even_divisor():
    # a +-1 block: a cycle through four columns whose sign product is -1 has
    # determinant 2, so the units run out on the remainder 2
    cycle = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [-1, 0, 0, 1]]
    _check_against_minors(cycle, [1, 1, 1, 2])
    rng = random.Random(5)
    for _ in range(30):
        order = rng.sample(range(4), 4)
        _check_against_minors([cycle[i] for i in order], [1, 1, 1, 2])
    # the same cycle with sign product +1 is singular
    _check_against_minors([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]], [1, 1, 1])
