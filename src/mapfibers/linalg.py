"""Exact dense linear algebra over QQ and GF(p).

Matrices are lists of rows.  Over the rationals, elimination is
fraction-free on integer-cleared rows with per-row content stripping;
back-substitution reintroduces Fractions only where vectors are needed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Sequence

from .fields import Field, PrimeField


def _int_rows(rows: Sequence[Sequence]) -> List[List[int]]:
    out = []
    for row in rows:
        den = 1
        for x in row:
            d = x.denominator
            if d != 1:
                den = den * d // gcd(den, d)
        r = [x.numerator * (den // x.denominator) for x in row]
        g = 0
        for x in r:
            g = gcd(g, x)
            if g == 1:
                break
        if g > 1:
            r = [x // g for x in r]
        out.append(r)
    return out


def _strip_row(r: List[int]) -> List[int]:
    g = 0
    for x in r:
        g = gcd(g, x)
        if g == 1:
            return r
    if g > 1:
        return [x // g for x in r]
    return r


def _echelon_qq(rows: List[List[int]]):
    """Fraction-free echelon; returns (rows, pivot column list)."""
    rows = [list(r) for r in rows if any(r)]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    done = []
    col = 0
    while rows and col < ncols:
        pr = None
        best = None
        for i, r in enumerate(rows):
            if r[col]:
                sz = abs(r[col])
                if best is None or sz < best:
                    best = sz
                    pr = i
        if pr is None:
            col += 1
            continue
        piv = rows.pop(pr)
        pv = piv[col]
        nxt = []
        for r in rows:
            if r[col]:
                g = gcd(pv, r[col])
                a, b = pv // g, r[col] // g
                r = _strip_row([a * x - b * y for x, y in zip(r, piv)])
                if any(r):
                    nxt.append(r)
            else:
                nxt.append(r)
        rows = nxt
        done.append(piv)
        pivots.append(col)
        col += 1
    return done, pivots


def _echelon_gf(rows, p: int):
    rows = [[int(x) % p for x in r] for r in rows]
    rows = [r for r in rows if any(r)]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    done = []
    col = 0
    while rows and col < ncols:
        pr = next((i for i, r in enumerate(rows) if r[col]), None)
        if pr is None:
            col += 1
            continue
        piv = rows.pop(pr)
        inv = pow(piv[col], p - 2, p)
        piv = [(x * inv) % p for x in piv]
        rows = [[(x - r[col] * y) % p for x, y in zip(r, piv)] if r[col] else r for r in rows]
        rows = [r for r in rows if any(r)]
        done.append(piv)
        pivots.append(col)
        col += 1
    return done, pivots


def pivot_columns(rows: Sequence[Sequence], field: Field) -> List[int]:
    """Ascending indices of the columns that are not in the span of the
    columns before them (the pivot columns of the echelon form)."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return []
    if isinstance(field, PrimeField):
        return _echelon_gf(rows, field.p)[1]
    return _echelon_qq(_int_rows(rows))[1]


def rank(rows: Sequence[Sequence], field: Field) -> int:
    return len(pivot_columns(rows, field))


def nullspace(rows: Sequence[Sequence], ncols: int, field: Field) -> List[List]:
    """Basis of {x : A·x = 0} for the m×ncols matrix A."""
    rows = [list(r) for r in rows]
    if isinstance(field, PrimeField):
        p = field.p
        ech, pivots = _echelon_gf(rows, p) if rows else ([], [])
        basis = []
        free_cols = [c for c in range(ncols) if c not in pivots]
        for fc in free_cols:
            x = [0] * ncols
            x[fc] = 1
            for r, pc in reversed(list(zip(ech, pivots))):
                s = sum(r[c] * x[c] for c in range(pc + 1, ncols)) % p
                x[pc] = (-s) % p
            basis.append(x)
        return basis
    ech, pivots = _echelon_qq(_int_rows(rows)) if rows else ([], [])
    basis = []
    free_cols = [c for c in range(ncols) if c not in pivots]
    for fc in free_cols:
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for r, pc in reversed(list(zip(ech, pivots))):
            s = sum((Fraction(r[c]) * x[c] for c in range(pc + 1, ncols) if x[c]), Fraction(0))
            x[pc] = -s / r[pc]
        # clear to a primitive integer vector for determinism
        den = 1
        for v in x:
            den = den * v.denominator // gcd(den, v.denominator)
        xi = [int(v * den) for v in x]
        g = 0
        for v in xi:
            g = gcd(g, v)
        if g > 1:
            xi = [v // g for v in xi]
        basis.append([Fraction(v) for v in xi])
    return basis

