"""Seeded property suite for `linalg` over QQ and GF(7).

Each case is a small random matrix whose columns are partly planted linear
combinations of earlier columns, so every matrix has a known-dependent part.
The checks: every nullspace vector is killed by the matrix, rank plus
nullity is the column count, the pivot columns are the columns a greedy
independence scan keeps, and each nullspace vector is the only one nonzero
at its own last nonzero entry (its free column).
"""

import random
from fractions import Fraction

import pytest

from mapfibers import QQ, PrimeField
from mapfibers.linalg import nullspace, pivot_columns, rank

SEED = 20261018
N_CASES = 120


def _entry(rng, field):
    if field is QQ:
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
    return field.from_int(rng.randrange(field.p))


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
        rows, n = _planted_matrix(rng, field)
        null = nullspace(rows, n, field)
        for v in null:
            for r in rows:
                acc = field.zero()
                for a, x in zip(r, v):
                    acc = field.add(acc, field.mul(a, x))
                assert field.is_zero(acc)
        assert rank(rows, field) + len(null) == n
        assert pivot_columns(rows, field) == _greedy_independent(rows, n,
                                                                 field)
        free = [_last_nonzero(v, field) for v in null]
        for v, k in zip(null, free):
            assert all(field.is_zero(w[k]) for w in null if w is not v)
        # the free columns are exactly the non-pivot columns
        assert sorted(free) == [c for c in range(n)
                                if c not in pivot_columns(rows, field)]
