"""Smith normal form over the integers: one exact sparse elimination.

This is the package's only integer elimination: it reduces the ±1 layer
blocks of the sign solve and decides whether a Cartan matrix is singular.
Only the diagonal is needed downstream (ranks and elementary divisors), so
no transform matrices are tracked.

smith_blocks reduces all blocks of a block-diagonal matrix, given as numpy
entry arrays labelled by block, in rounds of independent ±1 pivots, each
one Schur complement joined on the pivot (Davis & Yew, SIAM J. Matrix Anal.
Appl. 11, 1990; unit pivots first as in Dumas, Saunders & Villard, J. Symb.
Comput. 32, 2001).  A unit pivot touches only its own block, so each block
keeps its own divisors.  Rows and columns index one set of cells, and the
entry matrix D has D·D = 0, so the blocks are layers B_k : C^k -> C^{k+1}
of complexes, and a unit pivot (c, v) of B_{k+1} is a reduction pair
(Kaczyński, Mrozek & Ślusarek, Comput. Math. Appl. 35, 1998): the current
row c, an integer combination of B_{k+1}'s rows that is zero at its
earlier pivot columns, times B_k is 0, so row v of B_k is an integer
combination of its other rows, and likewise column c of B_{k+2} of its
other columns.  Both drop with no fill and no change to a Smith form, and
with the fill held down this way each round takes every row's cheapest
unit, with no cost window.  The rounds stop when no ±1 entry is left or
an entry reaches 2^16, below which int64 cannot overflow; smith_diagonal
reduces what is left, usually nothing.

smith_diagonal keeps rows as {column: entry} dicts of Python integers, and
also reads dense rows.  Its pivot is the first entry of least absolute
value in row order, so the first ±1 entry when one exists.  Row operations
clear the pivot's column; column operations, which then touch the pivot
row only, clear its row.  A pivot that is not a unit is recorded only once
no row holds an entry it does not divide (it takes such a row in and picks
again), so each recorded pivot divides all that is left and the divisors
form a chain.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np


def smith_diagonal(rows) -> list[int]:
    """Nonzero diagonal of the Smith normal form, divisibility-chained.  Each
    row is a dense sequence or a {column: entry} dict; none is changed."""
    rows = (r.items() if isinstance(r, dict) else enumerate(r) for r in rows)
    a = {i: {j: int(v) for j, v in r if v} for i, r in enumerate(rows)}
    a = {i: r for i, r in a.items() if r}
    diag: list[int] = []
    while a:
        entries = ((i, j) for i, row in a.items() for j in row)
        r, c = min(entries, key=lambda ij: abs(a[ij[0]][ij[1]]))
        prow = a[r]
        p = prow[c]
        # clear column c; a nonzero remainder is smaller than p, so pick again
        left = False
        for i, row in list(a.items()):
            if i == r or c not in row:
                continue
            q = -(row[c] // p)
            for j, v in prow.items():
                x = row.get(j, 0) + q * v
                if x:
                    row[j] = x
                else:
                    del row[j]
            left |= c in row
            if not row:
                del a[i]
        if left:
            continue
        # clear row r: column c now lives in row r only
        for j in [j for j in prow if j != c]:
            if prow[j] % p:
                prow[j] %= p
            else:
                del prow[j]
        if len(prow) > 1:
            continue
        if p not in (1, -1):
            culprit = next((row for row in a.values() if any(v % p for v in row.values())), None)
            if culprit is not None:
                # row r += culprit, reduced by column operations as above
                prow.update((j, v % p) for j, v in culprit.items() if v % p)
                continue
        diag.append(abs(p))
        del a[r]
    return diag


def rank(rows) -> int:
    return len(smith_diagonal(rows))


_BOUND = 1 << 16  # below it, M + P * M^2 < 2^63 for any P < 2^30 pivots


def smith_blocks(rows, cols, vals, labels, count: int) -> tuple[np.ndarray, dict[int, list[int]]]:
    """smith_diagonal of each block of a block-diagonal matrix, as (units,
    rests): block b's diagonal is [1] * units[b] + rests.get(b, []).  Entry
    (rows[e], cols[e]) = vals[e] lies in block labels[e] < count; blocks
    share no row or column, and no (row, column) pair repeats.  Row and
    column ids name one set of cells on which the matrix squares to zero,
    as each round drops the rows named by its pivot columns and the
    columns named by its pivot rows (see above); a matrix whose row ids are
    disjoint from its column ids always meets this.  units counts each
    block's unit pivots of the rounds, and rests holds smith_diagonal of
    what they leave, for the blocks that keep an entry (usually none)."""
    vals = np.asarray(vals, np.int64)
    live = np.flatnonzero(vals)
    cells = max(int(np.max(ids, initial=-1)) for ids in (rows, cols)) + 1
    row, col, val = np.asarray(rows, np.intp)[live], np.asarray(cols, np.intp)[live], vals[live]
    labels = np.asarray(labels)[live]
    row_label, col_label = np.zeros(cells, np.int64), np.zeros(cells, np.int64)
    row_label[row], col_label[col] = labels, labels
    if (row_label[row] != labels).any() or (col_label[col] != labels).any():
        raise ValueError("two blocks share a row or a column")
    del live, labels, col_label
    units = np.zeros(count, np.int64)
    while (pivot := _pivots(row, col, val, cells)).size:
        units += np.bincount(row_label[row[pivot]], minlength=count)
        row, col, val = _eliminate(row, col, val, pivot, cells)
    rest: dict[int, dict[int, dict[int, int]]] = defaultdict(lambda: defaultdict(dict))
    for b, i, j, v in zip(row_label[row].tolist(), row.tolist(), col.tolist(), val.tolist()):
        rest[b][i][j] = v
    return units, {b: smith_diagonal(block.values()) for b, block in rest.items()}


def _pivots(row, col, val, cells: int) -> np.ndarray:
    """Positions of independent ±1 entries: no two share a row or a column,
    and no pivot row holds another pivot's column, so the rows and columns
    a round drops are independent too.  Every row proposes its unit of
    least Markowitz cost (row count - 1) * (column count - 1); every column
    keeps its cheapest proposal; where one proposal's row holds another's
    column, the dearer waits.  No pivot once an entry reaches 2^16."""
    magnitude = np.abs(val)
    unit = np.flatnonzero(magnitude == 1)
    if not unit.size or magnitude.max() >= _BOUND:
        return unit[:0]
    cost = np.bincount(row, minlength=cells)[row[unit]] - 1
    cost *= np.bincount(col, minlength=cells)[col[unit]] - 1
    # unique ranks: by cost, clipped so that no rank reaches 2^63, then position
    rank = np.minimum(cost, (1 << 62) // unit.size) * unit.size + np.arange(unit.size)
    for line in (row, col):
        least = np.full(cells, np.iinfo(np.int64).max)
        np.minimum.at(least, line[unit], rank)
        best = np.flatnonzero(least[line[unit]] == rank)
        unit, rank = unit[best], rank[best]
    k_row, k_col = np.full(cells, -1, row.dtype), np.full(cells, -1, row.dtype)
    k_row[row[unit]] = k_col[col[unit]] = np.arange(unit.size)
    held = np.flatnonzero(k_col[col] >= 0)
    a, b = k_row[row[held]], k_col[col[held]]
    clash = np.flatnonzero((a >= 0) & (a != b))
    a, b = a[clash], b[clash]
    keep = np.ones(unit.size, bool)
    keep[np.where(rank[a] > rank[b], a, b)] = False
    return unit[keep]


def _eliminate(row, col, val, pivot, cells: int):
    """The Schur complement B22 - B21 B11^-1 B12 on the given independent unit
    pivots, as one join of the pivot columns with the pivot rows on the
    pivot; a unit pivot is its own inverse.  The rows named by a pivot
    column and the columns named by a pivot row drop out, fill and all.
    The entries of rows that hold a pivot column are summed with the fill
    after one sort on the key row * cells + col; every other row keeps its
    entries in place."""
    k_row, k_col = np.full(cells, -1, row.dtype), np.full(cells, -1, row.dtype)
    k_col[row[pivot]] = -2  # a pivot row's cell, dropped as a column
    k_row[row[pivot]] = k_col[col[pivot]] = np.arange(pivot.size)
    kc = k_col[col]
    left = np.flatnonzero(kc >= 0)  # B21: the pivot columns less the pivots
    left = left[k_row[row[left]] < 0]
    state = np.zeros(cells, np.int8)  # 3: a pivot column's cell, 2: a pivot row, 1: a B21 row
    state[row[left]], state[col[pivot]], state[row[pivot]] = 1, 3, 2
    left = left[state[row[left]] == 1]  # a dropped row takes no fill
    state = state[row]
    upper = np.flatnonzero(state == 2)  # B12: the pivot rows less the pivots
    upper = upper[kc[upper] == -1]
    ku = k_row[row[upper]]
    upper, sizes = upper[np.argsort(ku, kind="stable")], np.bincount(ku, minlength=pivot.size)
    k = kc[left]
    n = sizes[k]
    at = upper[np.repeat(np.cumsum(sizes)[k] - sizes[k] - np.cumsum(n) + n, n) + np.arange(n.sum())]
    hit = np.flatnonzero(state == 1)
    hit = hit[kc[hit] == -1]
    key = np.concatenate((row[hit], np.repeat(row[left], n))).astype(np.int64) * cells
    key += np.concatenate((col[hit], col[at]))
    fill = np.concatenate((val[hit], np.repeat(-val[left] * val[pivot][k], n) * val[at]))
    order = np.argsort(key)
    key, fill = key[order], fill[order]
    heads = np.flatnonzero(np.concatenate((key[:1] >= 0, key[1:] != key[:-1])))
    key, fill = key[heads], np.add.reduceat(fill, heads)
    nonzero = np.flatnonzero(fill)
    key, fill = key[nonzero], fill[nonzero]
    stay = np.flatnonzero((state == 0) & (kc == -1))
    return (
        np.concatenate((row[stay], (key // cells).astype(row.dtype))),
        np.concatenate((col[stay], (key % cells).astype(row.dtype))),
        np.concatenate((val[stay], fill)),
    )
