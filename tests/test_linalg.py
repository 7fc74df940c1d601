"""Seeded property suites for `linalg` over QQ and GF(p).

Planted dependencies: small random matrices whose columns are partly
linear combinations of earlier columns.  Every nullspace vector is killed
by the matrix, rank plus nullity is the column count, `independent` on
the transpose keeps the columns a greedy independence scan keeps, and each
nullspace vector is the only one nonzero at its own last nonzero entry
(its free column).

Against the dense echelon of `references`: equal rank, the same nullspace
basis entry for entry, and `independent` equal to the dense pivot columns
of the transpose, over QQ, GF(7) and GF(32003), on random sparse matrices
and on dual maps of real resolutions.
"""

import random
from fractions import Fraction

import pytest

from mapfibers import QQ, PrimeField, build_map, standard_ring
from mapfibers.cohomology import dual_map_rows
from mapfibers.ideals import degree_monomials
from mapfibers.linalg import independent, nullspace, rank
from mapfibers.modules import free_resolution
from mapfibers.poly import Polynomial
from references import dense_pivot_columns, dense_rank_nullspace

SEED = 20261018
N_CASES = 120
N_RANDOM = 80
FIELDS = [QQ, PrimeField(7), PrimeField(32003)]
FIELD_IDS = ["QQ", "GF7", "GF32003"]


def _entry(rng, field):
    if field is QQ:
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
    return field.from_int(rng.randrange(field.p))


def _sparse(row, field):
    return {j: x for j, x in enumerate(row) if not field.is_zero(x)}


def _planted_matrix(rng, field):
    """Rows of an m × n matrix; roughly half of the columns after the first
    are random combinations of the columns before them (zero included)."""
    m, n = rng.randint(1, 5), rng.randint(1, 7)
    cols = []
    for j in range(n):
        if j and rng.random() < 0.5:
            coeffs = [_entry(rng, field) for _ in range(j)]
            col = [field.zero()] * m
            for a, c in zip(coeffs, cols):
                col = [field.add(x, field.mul(a, y)) for x, y in zip(col, c)]
        else:
            col = [_entry(rng, field) for _ in range(m)]
        cols.append(col)
    return [[cols[j][i] for j in range(n)] for i in range(m)], n


def _greedy_independent(rows, n, field):
    """Indices of the columns outside the span of the columns before them,
    by reducing each column against the reduced columns kept so far."""
    kept, reduced = [], []
    for j in range(n):
        col = [r[j] for r in rows]
        for piv, v in reduced:
            if not field.is_zero(col[piv]):
                f = field.div(col[piv], v[piv])
                col = [field.sub(x, field.mul(f, y)) for x, y in zip(col, v)]
        lead = next((i for i, x in enumerate(col) if not field.is_zero(x)),
                    None)
        if lead is not None:
            kept.append(j)
            reduced.append((lead, col))
    return kept


def _last_nonzero(vec, field):
    return max(k for k, c in enumerate(vec) if not field.is_zero(c))


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
def test_nullspace_and_pivots_on_planted_dependencies(field):
    rng = random.Random(SEED)
    for _ in range(N_CASES):
        dense, n = _planted_matrix(rng, field)
        rows = [_sparse(r, field) for r in dense]
        null = nullspace(rows, n, field)
        for v in null:
            for r in dense:
                acc = field.zero()
                for a, x in zip(r, v):
                    acc = field.add(acc, field.mul(a, x))
                assert field.is_zero(acc)
        assert rank(rows, field) + len(null) == n
        cols = [{i: r[j] for i, r in enumerate(dense)
                 if not field.is_zero(r[j])} for j in range(n)]
        pivots = independent(cols, field)
        assert pivots == _greedy_independent(dense, n, field)
        free = [_last_nonzero(v, field) for v in null]
        for v, k in zip(null, free):
            assert all(field.is_zero(w[k]) for w in null if w is not v)
        # the free columns are exactly the non-pivot columns
        assert sorted(free) == [c for c in range(n) if c not in pivots]


def _assert_matches_dense(rows, ncols, field):
    """rank, nullspace and independent of the sparse ``rows`` against the
    dense echelon of the same matrix and of its transpose."""
    dense = [[row.get(j, field.zero()) for j in range(ncols)] for row in rows]
    dense_rank, dense_null = dense_rank_nullspace(dense, ncols, field)
    assert rank(rows, field) == dense_rank
    assert nullspace(rows, ncols, field) == dense_null
    transpose = [[r[j] for r in dense] for j in range(ncols)]
    assert independent(rows, field) == dense_pivot_columns(transpose, field)


def _random_rows(rng, field):
    """A random sparse m × n matrix; some rows are combinations of one or
    two earlier rows, so it often has dependent rows and free columns."""
    m, n = rng.randint(1, 14), rng.randint(1, 14)
    density = rng.choice((0.15, 0.3, 0.6))
    rows = []
    for _ in range(m):
        if len(rows) > 1 and rng.random() < 0.3:
            row = {}
            for src in rng.sample(rows, 2):
                a = _entry(rng, field)
                for j, x in src.items():
                    row[j] = field.add(row.get(j, field.zero()),
                                       field.mul(a, x))
            row = {j: x for j, x in row.items() if not field.is_zero(x)}
        else:
            row = {j: _entry(rng, field) for j in range(n)
                   if rng.random() < density}
        rows.append(row)
    return rows, n


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_sparse_matches_dense_on_random_matrices(field):
    rng = random.Random(SEED + 1)
    for _ in range(N_RANDOM):
        _assert_matches_dense(*_random_rows(rng, field), field)


def test_sparse_matches_dense_on_tuple_columns():
    """Columns keyed by (component, monomial), as `minimal_generators`
    keys them: rank and independent match the dense matrix whose columns
    are those keys in sorted order."""
    rng = random.Random(SEED + 2)
    keys = [(c, m) for c in range(2) for m in degree_monomials(3, 2)]
    for field in FIELDS:
        for _ in range(N_RANDOM // 4):
            rows, _ = _random_rows(rng, field)
            rows = [{keys[j % len(keys)]: x for j, x in row.items()}
                    for row in rows]
            order = sorted({k for row in rows for k in row})
            dense = [[row.get(k, field.zero()) for k in order] for row in rows]
            transpose = [[r[j] for r in dense] for j in range(len(order))]
            assert rank(rows, field) == dense_rank_nullspace(
                dense, len(order), field)[0]
            assert independent(rows, field) == dense_pivot_columns(
                transpose, field)


def test_sparse_matches_dense_on_quintic_dual_maps(quintic_map):
    """Every dual map of the resolutions of the quintic's I² and I³ in the
    degree the N-table's strand reads and its neighbours."""
    for s in (2, 3):
        t = 5 * s - 2
        for d in free_resolution(quintic_map.power(s)).maps:
            for e in range(-t - 5, -t - 1):
                _assert_matches_dense(*dual_map_rows(d, e), QQ)


def test_sparse_matches_dense_on_a_quartic_dual_map():
    """The strand's dual map of I³ for a random GF(7) quartic map: four
    forms of five monomials each, coefficients ±1, ±2, ±3."""
    F = PrimeField(7)
    R = standard_ring(("x", "y", "z"), F)
    rng = random.Random(1)
    monos = list(degree_monomials(3, 4))
    forms = [Polynomial.from_terms(R, [
                 (m, F.from_int(rng.choice((-3, -2, -1, 1, 2, 3))))
                 for m in rng.sample(monos, 5)]) for _ in range(4)]
    pmap = build_map(forms)
    assert pmap.common_factor is None
    res = free_resolution(pmap.power(3))
    rows, ncols = dual_map_rows(res.maps[2], -(3 * 4 - 2) - 3)
    assert (len(rows), ncols) == (450, 384)
    _assert_matches_dense(rows, ncols, F)
