"""Exact rank computation over the rationals (tiny, for verification suites)."""
from __future__ import annotations

from fractions import Fraction

from .scalars import div


def matrix_rank(rows) -> int:
    """Gaussian elimination over Q on sparse rows.

    A row is a list of entries, or a dict from column to entry; entries
    are ``int``s or ``Fraction``s, and pivot rows are scaled exactly.
    Each row is held as a dict of its nonzero entries and reduced against
    the pivot rows kept so far, always at its leftmost entry.  A pivot row
    has no entry left of its pivot column, so each reduction strictly moves
    the leftmost entry right; a row that empties is dependent, and one that
    does not becomes the pivot row of its leftmost column."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        entries = row.items() if isinstance(row, dict) else enumerate(row)
        r = {j: x for j, x in entries if x != 0}
        while r:
            col = min(r)
            p = pivots.get(col)
            if p is None:
                pv = r[col]
                pivots[col] = r if pv == 1 else {j: div(x, pv)
                                                 for j, x in r.items()}
                break
            factor = r[col]
            for j, x in p.items():
                y = r.get(j, 0) - factor * x
                if y != 0:
                    r[j] = y
                else:
                    del r[j]
    return len(pivots)
