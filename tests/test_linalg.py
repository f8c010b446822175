"""Sparse row reduction and row-space intersection."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superweil.fields import COMPLEX, RATIONAL, REAL
from superweil.linalg import intersect_row_spaces, rref_desc


def in_row_space(vector, rows, pivot_cols, field):
    """Whether ``vector`` lies in the span of descending-pivot RREF ``rows``."""
    residue = dict(vector)
    for row, col in zip(rows, pivot_cols):
        factor = residue.get(col, field.zero)
        if field.is_zero(factor):
            continue
        for j, c in row.items():
            residue[j] = residue.get(j, field.zero) - factor * c
    if field.exact:
        return not any(residue.values())
    scale = max((field.norm(c) for c in vector.values()), default=1.0)
    return all(field.norm(c) <= 1e-12 * max(1.0, scale) for c in residue.values())


def rand_matrix(rng, rows, cols, span=3):
    """Random integer rows as sparse {column: Fraction} dicts."""
    out = []
    for _ in range(rows):
        dense = [rng.randint(-span, span) for _ in range(cols)]
        out.append({j: F(c) for j, c in enumerate(dense) if c})
    return out


def as_real(rows):
    return [{j: float(c) for j, c in row.items()} for row in rows]


def rank(rows):
    return len(rref_desc(rows, RATIONAL)[0])


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_rref_desc_shape(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 5), rng.randint(1, 6)
    m = rand_matrix(rng, rows, cols)
    reduced, pivots = rref_desc(m, RATIONAL)
    assert len(reduced) == len(pivots)
    assert pivots == sorted(pivots, reverse=True)
    for i, (row, piv) in enumerate(zip(reduced, pivots)):
        assert row[piv] == 1
        assert all(c != 0 for c in row.values())
        # pivot column cleared everywhere else, nothing above the pivot
        for j, other in enumerate(reduced):
            if i != j:
                assert piv not in other
        assert max(row) == piv
    # row space preserved: every original row reduces to zero
    for row in m:
        assert in_row_space(row, reduced, pivots, RATIONAL)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_intersection_dimension_formula(seed):
    rng = random.Random(seed)
    cols = rng.randint(2, 6)
    u = rand_matrix(rng, rng.randint(1, 4), cols)
    v = rand_matrix(rng, rng.randint(1, 4), cols)
    inter = intersect_row_spaces(u, v, cols, RATIONAL)
    dim_u, dim_v = rank(u), rank(v)
    dim_sum = rank(u + v)
    assert len(inter) == dim_u + dim_v - dim_sum
    ured, upiv = rref_desc(u, RATIONAL)
    vred, vpiv = rref_desc(v, RATIONAL)
    for w in inter:
        assert max(w) < cols
        assert in_row_space(w, ured, upiv, RATIONAL)
        assert in_row_space(w, vred, vpiv, RATIONAL)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_real_intersection_has_rational_dimension(seed):
    rng = random.Random(seed)
    cols = rng.randint(2, 6)
    u = rand_matrix(rng, rng.randint(1, 4), cols)
    v = rand_matrix(rng, rng.randint(1, 4), cols)
    exact = intersect_row_spaces(u, v, cols, RATIONAL)
    inter = intersect_row_spaces(as_real(u), as_real(v), cols, REAL)
    assert len(inter) == len(exact)
    ured, upiv = rref_desc(as_real(u), REAL)
    vred, vpiv = rref_desc(as_real(v), REAL)
    for w in inter:
        assert in_row_space(w, ured, upiv, REAL)
        assert in_row_space(w, vred, vpiv, REAL)


def test_float_pivoting_uses_magnitude():
    rows = [{0: 1e-14, 1: 1.0}, {0: 1.0}]
    reduced, pivots = rref_desc(rows, REAL)
    assert len(reduced) == 2
    for row, piv in zip(reduced, pivots):
        assert row[piv] == 1.0


def test_float_column_without_usable_pivot_is_skipped():
    # a NaN entry has no magnitude to pivot on; the rest still reduces
    reduced, pivots = rref_desc([{1: float("nan")}, {0: 2.0}], REAL)
    assert pivots == [0]
    assert reduced == [{0: 1.0}]


def scan_rref_desc(rows, field):
    """The reference: each pivot column found by a scan of every entry of
    every unused row, each elimination by a walk over every row."""
    work = [{j: c for j, c in r.items() if not field.is_zero(c)} for r in rows]
    # beside each entry, the sum of the magnitudes of the terms summed into it
    bounds = [{j: field.norm(c) for j, c in r.items()} for r in work]
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
        piv[col] = field.one
        piv_bound = bounds[best] = {j: b / field.norm(scale) for j, b in bounds[best].items()}
        for i, row in enumerate(work):
            factor = row.get(col)
            if i == best or factor is None:
                continue
            bound = bounds[i]
            for j, p in piv.items():
                row[j] = row.get(j, field.zero) - factor * p
                bound[j] = bound.get(j, 0.0) + field.norm(factor) * piv_bound[j]
            # only the entries just touched can vanish: exact fields drop
            # zeros, float fields residue against the running bound
            for j in piv:
                if not row[j] if field.exact else field.norm(row[j]) <= 1e-12 * bound[j]:
                    del row[j], bound[j]
        out.append(piv)
        pivots.append(col)
    return out, pivots


# entries at the float fields' 1e-12 threshold sit beside ordinary ones
_ENTRY = st.one_of(
    st.integers(-4, 4).map(F),
    st.sampled_from([F(1, 3), F(-5, 7), F(10**6), F(1e-12), F(-3e-13), F(2e-12), F(1e-11)]),
)


@st.composite
def sparse_matrices(draw):
    cols = draw(st.integers(1, 40))
    rows = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["sparse", "sparse", "sparse", "duplicate", "zero"]))
        if kind == "duplicate" and rows:
            rows.append(dict(draw(st.sampled_from(rows))))
        elif kind == "zero":
            rows.append(draw(st.sampled_from([{}, {0: F(0)}, {cols - 1: F(0)}])))
        else:
            rows.append(draw(st.dictionaries(st.integers(0, cols - 1), _ENTRY, max_size=8)))
    return rows


def _on(field, rows):
    """``rows`` over ``field``; COMPLEX gives the odd columns an imaginary part."""
    if field is RATIONAL:
        return [dict(r) for r in rows]
    if field is REAL:
        return [{j: float(c) for j, c in r.items()} for r in rows]
    return [{j: complex(float(c), float(c) / 2 if j % 2 else 0.0) for j, c in r.items()}
            for r in rows]


@pytest.mark.parametrize("field", [RATIONAL, REAL, COMPLEX], ids=lambda f: f.name)
@settings(max_examples=50, deadline=None, derandomize=True)
@given(rows=sparse_matrices())
def test_rref_desc_matches_the_scan(field, rows):
    got_rows, got_pivots = rref_desc(_on(field, rows), field)
    want_rows, want_pivots = scan_rref_desc(_on(field, rows), field)
    assert got_pivots == want_pivots
    # the same entries in the same dict order; the same floats bit for bit
    got = [list(r.items()) for r in got_rows]
    want = [list(r.items()) for r in want_rows]
    if field.exact:
        assert got == want
    else:
        assert repr(got) == repr(want)


@pytest.mark.parametrize("field", [RATIONAL, REAL, COMPLEX], ids=lambda f: f.name)
@settings(max_examples=50, deadline=None, derandomize=True)
@given(rows=sparse_matrices())
# the elimination of column 1 leaves the first row's unit pivot untouched
# beside an entry of -1e13; a rule judged against the row's largest entry
# dropped that pivot
@example(rows=[{2: F(1), 1: F(1)}, {1: F(1), 0: F(10**13)}])
def test_every_row_holds_its_unit_pivot(field, rows):
    reduced, pivots = rref_desc(_on(field, rows), field)
    for row, col in zip(reduced, pivots):
        assert max(row) == col
        # exactly one: z / z can round on COMPLEX, and come out 1-0j
        pivot = complex(row[col])
        assert pivot == 1 and math.copysign(1.0, pivot.imag) == 1.0, (row, col)
