"""Sparse row reduction over a scalar field.

A row is a ``{column: coefficient}`` dict that holds its non-zero entries
only.  Everything here is exact on the rational field; on the float fields a
running error bound decides negligibility.  The ideal machinery pivots on the
*highest*-index column of each row (columns are ordered by the monomial
order, so the pivot is the leading monomial).
"""

from __future__ import annotations


def rref_desc(rows, field):
    """Reduced row echelon form, scanning columns from the last to the first.

    ``rows`` are ``{column: coefficient}`` mappings over non-negative integer
    columns.  Returns ``(reduced_rows, pivot_cols)`` with one pivot per row,
    pivot coefficient 1, pivot column eliminated from every other row.  Rows
    come out as dicts sorted by decreasing pivot column; zero rows are
    dropped.  Exact fields pivot on the first row in index order, float
    fields on the largest magnitude.

    After an elimination only the entries it touched are tested: exact
    fields drop zeros, float fields an entry at most 1e-12 times its running
    bound on the magnitudes summed into it (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2nd ed.).  The bound is ``|c|`` for an input
    entry and ``bound + |factor| * pivot bound`` after an update, and
    normalizing the pivot row divides its bounds by ``|scale|``.  Residue
    within that bound never becomes a pivot, and no untouched entry, a
    finished unit pivot above all, is dropped.

    ``holders[j]`` is the set of rows, used or not, with an entry in column
    j.  Each pivot column is the largest column left of the previous one
    that an unused row holds, so one downward sweep over the columns meets
    every pivot, and an elimination visits only the rows holding its column.
    """
    zero, exact, norm = field.zero, field.exact, field.norm
    work = [{j: c for j, c in r.items() if not field.is_zero(c)} for r in rows]
    bounds = None if exact else [{j: norm(c) for j, c in r.items()} for r in work]
    holders = {}
    for i, row in enumerate(work):
        for j in row:
            holders.setdefault(j, set()).add(i)
    used = [False] * len(work)
    pivots = []
    out = []
    for col in range(max(holders, default=-1), -1, -1):
        held = holders.get(col, ())
        if exact:
            best = min((i for i in held if not used[i]), default=-1)
        else:
            best = -1
            best_norm = 0.0
            for i in sorted(held):
                if used[i]:
                    continue
                nrm = norm(work[i][col])
                if nrm > best_norm:
                    best, best_norm = i, nrm
        if best < 0:
            continue
        used[best] = True
        scale = work[best][col]
        piv = work[best] = {j: c / scale for j, c in work[best].items()}
        piv[col] = field.one  # z / z may round on COMPLEX, or come out 1-0j
        if not exact:
            scale_norm = norm(scale)
            piv_bound = bounds[best] = {j: b / scale_norm for j, b in bounds[best].items()}
        for i in [i for i in held if i != best]:
            row = work[i]
            factor = row[col]
            if not exact:
                bound, factor_norm = bounds[i], norm(factor)
            for j, p in piv.items():
                old = row.get(j)
                if old is None:
                    old = zero
                    holders[j].add(i)  # the pivot row holds j: the set exists
                v = row[j] = old - factor * p
                if exact:
                    if v:
                        continue
                else:
                    b = bound[j] = bound.get(j, 0.0) + factor_norm * piv_bound[j]
                    if not norm(v) <= 1e-12 * b:  # a NaN is kept, as it is on input
                        continue
                    del bound[j]
                del row[j]
                holders[j].discard(i)
        out.append(piv)
        pivots.append(col)
    return out, pivots


def intersect_row_spaces(rows_a, rows_b, ncols, field):
    """Basis (in descending-pivot RREF) of the intersection of two row spaces.

    Zassenhaus: reduce the rows (u | u) for u in A and (v | 0) for v in B,
    with the sum block shifted above ``ncols``; the reduced rows whose pivot
    falls below ``ncols`` span the intersection.
    """
    if not rows_a or not rows_b:
        return []
    stacked = [{**{j + ncols: c for j, c in u.items()}, **u} for u in rows_a]
    stacked += [{j + ncols: c for j, c in v.items()} for v in rows_b]
    reduced, pivots = rref_desc(stacked, field)
    return [row for row, col in zip(reduced, pivots) if col < ncols]
