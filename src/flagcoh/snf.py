"""Smith normal form over the integers: one exact sparse elimination.

This is the package's only integer elimination: it reduces the ±1 layer
blocks of the sign solve and decides whether a Cartan matrix is singular.
Only the diagonal is needed downstream (ranks and elementary divisors), so
no transform matrices are tracked.  Rows are kept as {column: entry} dicts,
the form the sign solve passes; dense rows are read into it.
The pivot is a ±1 entry when one exists: in the first row holding one (a
heap of the changed rows finds it), the unit whose column the fewest rows
have held, against fill-in (Markowitz, Management Science 3, 1957);
otherwise it is an entry of least absolute value.
Row operations clear the pivot's column, in the rows a column -> rows index
lists; a unit pivot's row then drops out with divisor 1, as column
operations clear it and touch no other row.  A pivot that is not a unit
clears its row by column operations and is recorded only once no row holds
an entry it does not divide (it takes such a row in and picks again), so
each recorded pivot divides all that is left and the divisors form a chain.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heappop, heappush


def smith_diagonal(rows) -> list[int]:
    """Nonzero diagonal of the Smith normal form, divisibility-chained.  Each
    row is a dense sequence or a {column: entry} dict; none is changed."""
    rows = (r.items() if isinstance(r, dict) else enumerate(r) for r in rows)
    a = {i: {j: int(v) for j, v in r if v} for i, r in enumerate(rows)}
    a = {i: r for i, r in a.items() if r}
    holders: dict[int, set[int]] = defaultdict(set)  # column -> rows that held it
    for i, row in a.items():
        for j in row:
            holders[j].add(i)
    todo = list(a)  # a heap that holds every row holding a unit
    diag: list[int] = []

    def pivot() -> tuple[int, int]:
        while todo:
            i = heappop(todo)
            best = None  # the unit whose column the fewest rows held
            for j, v in a.get(i, {}).items():
                if v in (1, -1) and (best is None or len(holders[j]) < len(holders[best])):
                    best = j
            if best is not None:
                return i, best
        return min(((i, j) for i, row in a.items() for j in row), key=lambda ij: abs(a[ij[0]][ij[1]]))

    while a:
        r, c = pivot()
        prow = a[r]
        p = prow[c]
        # clear column c in the rows that hold it; a nonzero remainder is
        # smaller than p, so pick again
        left = False
        for i in holders[c]:
            row = a.get(i)
            if i == r or row is None or c not in row:
                continue
            q = -(row[c] // p)
            for j, v in prow.items():
                x = row.get(j, 0) + q * v
                if x:
                    holders[j].add(i)
                    row[j] = x
                else:
                    del row[j]
            heappush(todo, i)
            left |= c in row
            if not row:
                del a[i]
        if left:
            continue
        if p in (1, -1):
            diag.append(1)
            del a[r]
            continue
        # clear row r: column c now lives in row r only
        for j in [j for j in prow if j != c]:
            if prow[j] % p:
                prow[j] %= p
            else:
                del prow[j]
        heappush(todo, r)  # a remainder left in row r may be a unit
        if len(prow) > 1:
            continue
        culprit = next((row for row in a.values() if any(v % p for v in row.values())), None)
        if culprit is not None:
            # row r += culprit, reduced by column operations as above
            prow.update((j, v % p) for j, v in culprit.items() if v % p)
            for j in prow:
                holders[j].add(r)
            continue
        diag.append(abs(p))
        del a[r]
    return diag


def rank(rows) -> int:
    return len([d for d in smith_diagonal(rows) if d])


def elementary_divisors(rows) -> list[int]:
    """Divisors > 1 of the Smith form, sorted."""
    return sorted(d for d in smith_diagonal(rows) if d > 1)
