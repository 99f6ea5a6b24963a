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
