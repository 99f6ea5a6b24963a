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
    label) arrays, block b on its own rows and columns, spread over sparse ids.
    Column ids come after every row id, so that no id is both a row and a
    column and the matrix meets smith_blocks' complex contract."""
    entries, r0, c0 = [], 0, sum(len(rows) + 2 for rows in blocks)
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


def _unimodular(n, rng):
    """A seeded n x n integer matrix of determinant ±1 and its inverse."""
    m, inv = np.eye(n, dtype=np.int64), np.eye(n, dtype=np.int64)
    for _ in range(2 * n if n > 1 else 0):
        a, b = (int(x) for x in rng.choice(n, 2, replace=False))
        q = int(rng.choice((-1, 1)))
        m[a] += q * m[b]  # (I + q e_a e_b^T) m, so inv (I - q e_a e_b^T)
        inv[:, b] -= q * inv[:, a]
    return m, inv


def _random_complex(rng, top):
    """Layers B_k : C^k -> C^{k+1}, k < top, of a direct sum of ℤ --m--> ℤ
    with m in {±1, 2, 3, 6} and of free ℤ's, each C^k under a seeded
    unimodular base change: B_k = P_{k+1} D_k P_k^-1, so B_{k+1} B_k = 0."""
    dims, pairs = [0] * (top + 1), []
    for _ in range(int(rng.integers(1, 3 * top + 2))):
        k = int(rng.integers(0, top + 1))
        if k < top and rng.random() < 0.8:
            pairs.append((k, dims[k], dims[k + 1], int(rng.choice((-1, 1, 1, 2, 3, 6)))))
            dims[k + 1] += 1
        dims[k] += 1
    layers = [np.zeros((dims[k + 1], dims[k]), np.int64) for k in range(top)]
    for k, a, b, m in pairs:
        layers[k][b, a] = m
    bases = [_unimodular(n, rng) for n in dims]
    return [bases[k + 1][0] @ d @ bases[k][1] for k, d in enumerate(layers)]


def _complex_entries(complexes, rng):
    """The layers of several complexes as one smith_blocks input: every cell
    of every degree gets one id, shuffled, used as a row id in the layer
    into its degree and as a column id in the layer out of it; block
    c * top + k is layer k of complex c."""
    entries, cells = [], 0
    for c, layers in enumerate(complexes):
        top = len(layers)
        first = np.cumsum([0, layers[0].shape[1]] + [d.shape[0] for d in layers]) + cells
        for k, d in enumerate(layers):
            i, j = np.nonzero(d)
            entries += [(first[k + 1] + r, first[k] + s, int(d[r, s]), c * top + k) for r, s in zip(i, j)]
        cells = first[-1]
    ids = rng.permutation(cells)
    entries = [entries[e] for e in rng.permutation(len(entries))]
    columns = zip(*entries) if entries else ([],) * 4
    rows, cols, vals, labels = (np.array(x, np.int64).reshape(-1) for x in columns)
    return ids[rows], ids[cols], vals, labels


def test_complex_blocks_match_smith_diagonal_of_each_layer():
    # a unit pivot (c, v) of B_{k+1} drops row v from B_k and column c from
    # B_{k+2}, which keeps every Smith form when the layers compose to zero
    rng = np.random.default_rng(28)
    for _ in range(150):
        top = int(rng.integers(1, 5))
        complexes = [_random_complex(rng, top) for _ in range(int(rng.integers(1, 4)))]
        for layers in complexes:
            assert all(not (b @ a).any() for a, b in zip(layers, layers[1:]))
        units, rests = smith_blocks(*_complex_entries(complexes, rng), len(complexes) * top)
        for c, layers in enumerate(complexes):
            for k, d in enumerate(layers):
                b = c * top + k
                assert [1] * int(units[b]) + rests.get(b, []) == smith_diagonal(d.tolist()), (layers, k)


def test_a_dropped_line_on_a_non_unit_divisor_keeps_it_in_its_degree(monkeypatch):
    # C^0 = {a}, C^1 = {u, v}, C^2 = {c}.  With δa = -2u + 2v and δu = δv = c,
    # B_1's pivot drops u or v from B_0 as a row; with δa = u + v and
    # δu = -2c, δv = 2c, B_0's pivot drops u or v from B_1 as a column.
    # Either way one entry of the divisor 2 is left, in its own layer
    a, u, v, c = 0, 1, 2, 3
    seen = []
    monkeypatch.setattr(snf, "smith_diagonal", lambda rows: seen.append(list(rows)) or smith_diagonal(rows))
    units, rests = smith_blocks([u, v, c, c], [a, a, u, v], [-2, 2, 1, 1], [0, 0, 1, 1], 2)
    assert units.tolist() == [0, 1] and rests == {0: [2]}
    units, rests = smith_blocks([u, v, c, c], [a, a, u, v], [1, 1, -2, 2], [0, 0, 1, 1], 2)
    assert units.tolist() == [1, 0] and rests == {1: [2]}
    assert [[len(row) for row in rows] for rows in seen] == [[1], [1]]


def test_unit_pivots_drop_their_cells_from_the_neighbouring_layers(monkeypatch):
    # D5 +++++ is one component; its rounds pass 106,437 entries to
    # _eliminate in all without the drops, 50,928 with the row drops alone,
    # and 28,539 with both
    from flagcoh.cohomology import assign_signs
    from flagcoh.graph import build_graph

    entered = []
    eliminate = snf._eliminate
    monkeypatch.setattr(snf, "_eliminate", lambda row, *a: entered.append(len(row)) or eliminate(row, *a))
    assign_signs(build_graph("D5", "+++++"))
    assert 0 < sum(entered) < 40_000


def test_a_cheap_block_does_not_hold_back_another(monkeypatch):
    # block 0's unit costs 0; every unit of block 1 costs (5 - 1) * (3 - 1)
    # = 8, yet both blocks pivot in round 1
    dense = [[1, 1, 1, 1, 1], [1, -1, 1, -1, 1], [1, 1, -1, -1, 1]]
    rounds = []
    eliminate = snf._eliminate

    def spy(row, col, val, pivot, *rest):
        rounds.append(set((row[pivot] >= 3).tolist()))  # _entries puts block 1 on rows 3-5
        return eliminate(row, col, val, pivot, *rest)

    monkeypatch.setattr(snf, "_eliminate", spy)
    assert _check_blocks([[[1]], dense], np.random.default_rng(8)) == [[1], smith_diagonal(dense)]
    assert rounds[0] == {False, True}
