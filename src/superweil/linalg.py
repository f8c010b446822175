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

    ``rows`` are ``{column: coefficient}`` mappings.  Returns
    ``(reduced_rows, pivot_cols)`` with one pivot per row, pivot coefficient
    1, pivot column eliminated from every other row.  Rows come out as dicts
    sorted by decreasing pivot column; zero rows are dropped.  Exact fields
    pivot on the first row in index order, float fields on the largest
    magnitude, and there an entry negligible against the pivot row is dropped
    after each elimination.
    """
    work = [{j: c for j, c in r.items() if not field.is_zero(c)} for r in rows]
    used = [False] * len(work)
    pivots = []
    out = []
    col = None
    while True:
        col = max(
            (j for i, row in enumerate(work) if not used[i] for j in row
             if col is None or j < col),
            default=None,
        )
        if col is None:
            break
        best = -1
        best_norm = 0.0
        for i, row in enumerate(work):
            if used[i] or col not in row:
                continue
            if field.exact:
                best = i
                break
            nrm = field.norm(row[col])
            if nrm > best_norm:
                best, best_norm = i, nrm
        if best < 0:
            continue
        used[best] = True
        scale = work[best][col]
        piv = work[best] = {j: c / scale for j, c in work[best].items()}
        scale_norm = 1.0 if field.exact else max(field.norm(c) for c in piv.values())
        for i, row in enumerate(work):
            factor = row.get(col)
            if i == best or factor is None:
                continue
            for j, p in piv.items():
                row[j] = row.get(j, field.zero) - factor * p
            # exact fields can only zero the entries just touched; float
            # fields drop whatever is negligible against the pivot row
            for j in [j for j in (piv if field.exact else row)
                      if field.negligible(row[j], scale_norm)]:
                del row[j]
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


def in_row_space(vector, rows, pivot_cols, field):
    """Whether ``vector`` lies in the span of descending-pivot RREF ``rows``."""
    residue = dict(vector)
    for row, col in zip(rows, pivot_cols):
        factor = residue.get(col, field.zero)
        if field.is_zero(factor):
            continue
        for j, c in row.items():
            residue[j] = residue.get(j, field.zero) - factor * c
    scale = max((field.norm(c) for c in vector.values()), default=1.0)
    return all(field.negligible(c, scale) for c in residue.values())
