"""Dense row reduction over a scalar field.

Rows are plain Python lists.  Everything here is exact on the rational field;
on the float fields a relative threshold decides negligibility.  The ideal
machinery pivots on the *highest*-index column of each row (columns are
ordered by the monomial order, so the pivot is the leading monomial).
"""

from __future__ import annotations


def rref_desc(rows, ncols, field):
    """Reduced row echelon form, scanning columns from the last to the first.

    Returns ``(reduced_rows, pivot_cols)`` with one pivot per row, pivot
    coefficient 1, pivot column eliminated from every other row.  Rows come
    out sorted by decreasing pivot column; zero rows are dropped.
    """
    work = [list(r) for r in rows]
    pivots = []
    out = []
    used = [False] * len(work)
    for col in range(ncols - 1, -1, -1):
        best = -1
        best_norm = 0.0
        for i, row in enumerate(work):
            if used[i] or field.is_zero(row[col]):
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
        piv = work[best]
        scale = piv[col]
        piv[:] = [c / scale for c in piv]
        if not field.exact:
            scale_norm = max((field.norm(c) for c in piv), default=1.0)
        for i, row in enumerate(work):
            if i == best or field.is_zero(row[col]):
                continue
            factor = row[col]
            for j in range(ncols):
                row[j] = row[j] - factor * piv[j]
            if not field.exact:
                for j in range(ncols):
                    if field.negligible(row[j], scale_norm):
                        row[j] = field.zero
        out.append(piv)
        pivots.append(col)
    return out, pivots


def kernel_basis(rows, ncols, field):
    """Basis of the right kernel {x : M x = 0} of the matrix with given rows."""
    work = [list(r) for r in rows]
    pivots = {}
    rank = 0
    for col in range(ncols):
        best = -1
        for i in range(rank, len(work)):
            if not field.is_zero(work[i][col]):
                best = i
                break
        if best < 0:
            continue
        work[rank], work[best] = work[best], work[rank]
        piv = work[rank]
        scale = piv[col]
        piv[:] = [c / scale for c in piv]
        for i, row in enumerate(work):
            if i == rank or field.is_zero(row[col]):
                continue
            factor = row[col]
            for j in range(ncols):
                row[j] = row[j] - factor * piv[j]
        pivots[col] = rank
        rank += 1
    basis = []
    free_cols = [c for c in range(ncols) if c not in pivots]
    for fc in free_cols:
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for pc, r in pivots.items():
            vec[pc] = -work[r][fc]
        basis.append(vec)
    return basis


def intersect_row_spaces(rows_a, rows_b, ncols, field):
    """Basis (in descending-pivot RREF) of the intersection of two row spaces."""
    if not rows_a or not rows_b:
        return []
    stacked = list(rows_a) + list(rows_b)
    transposed = [[row[c] for row in stacked] for c in range(ncols)]
    combos = kernel_basis(transposed, len(stacked), field)
    vectors = []
    for combo in combos:
        vec = [field.zero] * ncols
        for coef, row in zip(combo[: len(rows_a)], rows_a):
            if field.is_zero(coef):
                continue
            for j in range(ncols):
                vec[j] = vec[j] + coef * row[j]
        vectors.append(vec)
    reduced, _ = rref_desc(vectors, ncols, field)
    return reduced


def in_row_space(vector, rows, pivot_cols, field):
    """Whether ``vector`` lies in the span of descending-pivot RREF ``rows``."""
    residue = list(vector)
    for row, col in zip(rows, pivot_cols):
        factor = residue[col]
        if field.is_zero(factor):
            continue
        for j in range(len(residue)):
            residue[j] = residue[j] - factor * row[j]
    scale = max((field.norm(c) for c in vector), default=1.0)
    return all(field.negligible(c, scale) for c in residue)
