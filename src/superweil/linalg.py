"""Sparse row reduction over a scalar field.

A row is a ``{column: coefficient}`` dict that holds its non-zero entries
only.  Everything here is exact on the rational field; on the float fields a
relative threshold decides negligibility.  The ideal machinery pivots on the
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
    fields on the largest magnitude, and there an entry negligible against
    the pivot row is dropped after each elimination.

    ``holders[j]`` is the set of rows, used or not, with an entry in column
    j.  Each pivot column is the largest column left of the previous one
    that an unused row holds, so one downward sweep over the columns meets
    every pivot, and an elimination visits only the rows holding its column.
    """
    zero, exact, negligible = field.zero, field.exact, field.negligible
    work = [{j: c for j, c in r.items() if not field.is_zero(c)} for r in rows]
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
                nrm = field.norm(work[i][col])
                if nrm > best_norm:
                    best, best_norm = i, nrm
        if best < 0:
            continue
        used[best] = True
        scale = work[best][col]
        piv = work[best] = {j: c / scale for j, c in work[best].items()}
        scale_norm = 1.0 if exact else max(field.norm(c) for c in piv.values())
        for i in [i for i in held if i != best]:
            row = work[i]
            factor = row[col]
            for j, p in piv.items():
                old = row.get(j)
                if old is None:
                    row[j] = zero - factor * p
                    holders[j].add(i)  # the pivot row holds j: the set exists
                else:
                    row[j] = old - factor * p
            # exact fields can only zero the entries just touched; float
            # fields drop whatever is negligible against the pivot row
            for j in [j for j in (piv if exact else row) if negligible(row[j], scale_norm)]:
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
