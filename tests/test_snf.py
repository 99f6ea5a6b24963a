"""The Smith diagonal against determinantal divisors computed here directly."""

import itertools
import random
from math import gcd, prod

import numpy as np
import pytest

from flagcoh import snf
from flagcoh.snf import smith_blocks, smith_diagonal


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


def _entries(blocks, rng):
    """The dense blocks as one block-diagonal matrix: shuffled (row, col, value,
    label) arrays, block b on its own rows and columns, spread over sparse ids."""
    entries, r0, c0 = [], 0, 0
    for b, rows in enumerate(blocks):
        entries += [(r0 + i, c0 + j, v, b) for i, row in enumerate(rows) for j, v in enumerate(row) if v]
        r0, c0 = r0 + len(rows) + 2, c0 + len(rows[0]) + 3
    entries = [entries[e] for e in rng.permutation(len(entries))]
    return tuple(np.array(col, np.int64).reshape(-1) for col in zip(*entries)) if entries else ([],) * 4


def _check_blocks(blocks, rng, minors=True):
    units, rests = smith_blocks(*_entries(blocks, rng), len(blocks))
    got = [[1] * u + rests.get(b, []) for b, u in enumerate(units.tolist())]
    assert got == [smith_diagonal(rows) for rows in blocks], (blocks, got)
    assert all(rests.values()), rests  # only blocks that keep an entry have a rest
    for rows, d in zip(blocks, got):
        # a divisibility chain: the sign search reads a block's parity from d[-1]
        assert all(b % a == 0 for a, b in zip(d, d[1:])), (rows, d)
        for k in range(1, min(len(rows), len(rows[0])) + 1) if minors else ():
            assert _minor_gcd(rows, k) == (prod(d[:k]) if k <= len(d) else 0), (rows, k)
    return got


def test_block_divisors_match_smith_diagonal_and_minors():
    rng = np.random.default_rng(22)
    values = [(-1, 1), (-1, 1), (-3, -2, -1, 1, 2, 3, 5)]
    for _ in range(300):
        blocks = []
        for _ in range(int(rng.integers(1, 5))):
            m, n, density = int(rng.integers(1, 5)), int(rng.integers(1, 5)), rng.random()
            pick = values[int(rng.integers(3))]
            blocks.append([[int(rng.choice(pick)) if rng.random() < density else 0 for _ in range(n)]
                           for _ in range(m)])
        _check_blocks(blocks, rng)
    # larger sparse ±1 blocks, where rounds take several pivots at once
    for _ in range(20):
        blocks = [[[int(rng.choice((-1, 1))) if rng.random() < 0.15 else 0 for _ in range(30)]
                   for _ in range(25)] for _ in range(3)]
        _check_blocks(blocks, rng, minors=False)


def test_blocks_keep_their_own_odd_divisors():
    # one matrix with a 3 and a 5 has divisors 1, 15; as two blocks they stay apart
    rng = np.random.default_rng(3)
    assert _check_blocks([[[3]], [[5]]], rng) == [[3], [5]]
    r = random.Random(35)
    for _ in range(30):
        blocks = [_scrambled((1, 3), 3, r), _scrambled((1, 1, 5), 4, r)]
        assert _check_blocks(blocks, rng) == [[1, 3], [1, 1, 5]]


def test_blocks_report_even_divisors():
    rng = np.random.default_rng(2)
    cycle = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [-1, 0, 0, 1]]
    assert _check_blocks([cycle, [[1, 1], [1, -1]], [[2]]], rng) == [[1, 1, 1, 2], [1, 2], [2]]
    r = random.Random(6)
    for _ in range(30):
        assert _check_blocks([_scrambled((1, 1, 2, 6), 5, r)], rng) == [[1, 1, 2, 6]]


def test_entries_past_the_bound_go_to_the_dict_remainder(monkeypatch):
    # the first round pivots on (0, 0) of each block and leaves -300 * 300 =
    # -90000 >= 2^16 at (1, 1) of the first, units included; the rounds stop,
    # and smith_diagonal reduces what is left of both blocks
    calls = []
    monkeypatch.setattr(snf, "smith_diagonal", lambda rows: calls.append(1) or smith_diagonal(rows))
    rng = np.random.default_rng(16)
    grown = [[1, 300, 0, 0], [300, 0, 1, 0], [0, 1, 1, 1], [0, 0, 1, -1]]
    assert _check_blocks([grown, [[1, 1], [-1, 1]]], rng) == [[1, 1, 1, 180001], [1, 2]]
    assert len(calls) == 2
    # an entry past the bound from the start: no round runs
    calls.clear()
    assert _check_blocks([[[1 << 16, 1], [0, 3]]], rng) == [[1, 3 << 16]]
    assert len(calls) == 1


def test_no_entries_and_shared_rows():
    none, zeros = ([], [], [], []), ([0, 1], [0, 1], [0, 0], [0, 1])  # zeros are no entries
    for args, count in ((none, 0), (none, 2), (zeros, 2)):
        units, rests = smith_blocks(*args, count)
        assert units.tolist() == [0] * count and rests == {}
    with pytest.raises(ValueError, match="share a row or a column"):
        smith_blocks([0, 0], [0, 1], [1, 1], [0, 1], 2)
