"""The elimination kernel.

Works on integer rows (each caller row is pre-scaled to clear denominators)
and does fraction-free Gauss-Jordan with per-row gcd reduction, so entries
stay small on the structured matrices this library produces.
"""

from math import gcd


def _reduce_row(row, lead):
    # divide out the content, make the entry at `lead` positive
    g = 0
    for x in row:
        if x:
            g = gcd(g, x)
            if g == 1:
                break
    if g == 0:
        return
    if row[lead] < 0:
        g = -g
    if g != 1:
        for i, x in enumerate(row):
            row[i] = x // g


def rref_ints(rows, ncols):
    """Gauss-Jordan over the integers, preserving the row space.

    rows: list of lists of int; consumed destructively.
    Returns (reduced, pivots) where reduced[i] is a primitive integer row with
    positive entry at column pivots[i] and zeros elsewhere in pivot columns.
    Zero rows are dropped. Dividing row i by reduced[i][pivots[i]] gives the
    rational reduced row echelon form.
    """
    m = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        p = -1
        for i in range(r, m):
            if rows[i][c]:
                p = i
                break
        if p < 0:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r]
        _reduce_row(prow, c)
        a = prow[c]
        for i in range(m):
            if i == r:
                continue
            row = rows[i]
            b = row[c]
            if not b:
                continue
            for j in range(ncols):
                pj = prow[j]
                if pj:
                    row[j] = a * row[j] - b * pj
                else:
                    row[j] = a * row[j]
            _reduce_row(row, c)
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows[:r], pivots


def backend_name():
    """Name of the elimination kernel, reported in benchmark environments."""
    return "pure"
