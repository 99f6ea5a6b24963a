"""Smith normal form over the integers: one exact sparse elimination.

This is the package's only integer elimination: it reduces the ±1 layer
blocks of the sign solve and decides whether a Cartan matrix is singular.
Only the diagonal is needed downstream (ranks and elementary divisors), so
no transform matrices are tracked.  Rows are kept as {column: entry} dicts,
the form the sign solve passes; dense rows are read into it.
The pivot is a ±1 entry when one exists (the first row holding one), and
otherwise an entry of least absolute value.  Row operations clear the
pivot's column; column operations, which then touch the pivot row only,
clear its row.  A pivot that is not a unit is recorded only once no row
holds an entry it does not divide (it takes such a row in and picks again),
so each recorded pivot divides all that is left and the divisors come out
as a chain.
"""

from __future__ import annotations


def _add_multiple(row: dict[int, int], pivot_row: dict[int, int], q: int) -> None:
    """row += q * pivot_row, keeping only nonzero entries."""
    for j, v in pivot_row.items():
        x = row.get(j, 0) + q * v
        if x:
            row[j] = x
        else:
            del row[j]


def smith_diagonal(rows) -> list[int]:
    """Nonzero diagonal of the Smith normal form, divisibility-chained.  Each
    row is a dense sequence or a {column: entry} dict."""
    rows = (r.items() if isinstance(r, dict) else enumerate(r) for r in rows)
    a = {i: {j: int(v) for j, v in r if v} for i, r in enumerate(rows)}
    a = {i: r for i, r in a.items() if r}
    diag: list[int] = []
    while a:
        units = ((i, j) for i, row in a.items() for j, v in row.items() if v in (1, -1))
        r, c = next(units, None) or min(
            ((i, j) for i, row in a.items() for j in row), key=lambda ij: abs(a[ij[0]][ij[1]])
        )
        prow = a[r]
        p = prow[c]
        # clear column c; a nonzero remainder is smaller than p, so pick again
        for i, row in list(a.items()):
            if i != r and c in row:
                _add_multiple(row, prow, -(row[c] // p))
                if not row:
                    del a[i]
        if any(c in row for i, row in a.items() if i != r):
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
    return len([d for d in smith_diagonal(rows) if d])


def elementary_divisors(rows) -> list[int]:
    """Divisors > 1 of the Smith form, sorted."""
    return sorted(d for d in smith_diagonal(rows) if d > 1)
