"""Sparse row reduction and row-space intersection."""

import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from superweil.fields import RATIONAL, REAL
from superweil.linalg import in_row_space, intersect_row_spaces, rref_desc


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
