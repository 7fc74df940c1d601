"""Exact sparse linear algebra over QQ and GF(p).

A matrix is a list of rows, and a row is a dict {column: field element}:
absent columns are zero, and a column may be any sortable key.  There is
one elimination (`_echelon`).  It makes each row integral (over GF(p)
values in [0, p), over QQ cleared of denominators and content) and
reduces it against the pivot rows kept so far, oldest first: mod p over
GF(p), fraction-free with content stripping over QQ.  A row that does not
reduce to zero becomes a pivot row.  Each function fixes its own pivot
rule: `nullspace` and `independent` keep input order and pivot on the
least column; `rank` takes the shortest rows first and pivots on the
entry with the fewest bits, then on the column with the fewest entries,
which keeps both the rows and their coefficients small.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Dict, List, Sequence, Tuple

from .fields import Field

Row = Dict[object, object]


def _integral(row: Row, p: int) -> Dict[object, int]:
    """``row`` with its zeros dropped and integer values: mod p when
    p > 0, else cleared of denominators and content."""
    if p:
        out = {c: int(v) % p for c, v in row.items()}
        return {c: v for c, v in out.items() if v}
    den = lcm(*(v.denominator for v in row.values()))
    out = {c: v.numerator * (den // v.denominator)
           for c, v in row.items() if v}
    g = gcd(*out.values())
    return {c: v // g for c, v in out.items()} if g > 1 else out


def _echelon(rows: Sequence[Row], p: int,
             pivot: Callable[[Dict[object, int]], object]
             ) -> List[Tuple[int, object, Dict[object, int]]]:
    """(index, pivot column, pivot row) for each row of ``rows`` that is
    outside the span of the rows before it, in input order.

    Each row is made integral (p = 0 for QQ) and reduced against the pivot
    rows kept before it, oldest first; a pivot row is zero in the pivot
    columns of the older ones, so one pass clears them all.  A nonzero
    remainder is kept with the column ``pivot`` picks; over GF(p) it is
    scaled so that its pivot entry is 1.
    """
    kept = []
    for i, row in enumerate(rows):
        row = _integral(row, p)
        get, pop = row.get, row.pop
        for _, c, piv in kept:
            b = get(c)
            if b is None:
                continue
            if p:
                for k, v in piv.items():
                    w = (get(k, 0) - b * v) % p
                    if w:
                        row[k] = w
                    else:
                        pop(k)
                continue
            # row ← a·row − b·piv with a·row[c] = b·piv[c], then its content
            g = gcd(piv[c], b)
            a, b = piv[c] // g, b // g
            if a != 1:
                for k in row:
                    row[k] *= a
            for k, v in piv.items():
                w = get(k, 0) - b * v
                if w:
                    row[k] = w
                else:
                    pop(k)
            g = gcd(*row.values())
            if g > 1:
                for k in row:
                    row[k] //= g
        if row:
            c = pivot(row)
            if p and row[c] != 1:
                f = pow(row[c], -1, p)
                for k in row:
                    row[k] = row[k] * f % p
            kept.append((i, c, row))
    return kept


def independent(rows: Sequence[Row], field: Field) -> List[int]:
    """Ascending indices of the rows that are not in the span of the rows
    before them."""
    return [i for i, _, _ in _echelon(rows, field.characteristic(), min)]


def rank(rows: Sequence[Row], field: Field) -> int:
    count: Dict[object, int] = {}
    for row in rows:
        for c in row:
            count[c] = count.get(c, 0) + 1

    def pivot(row):
        return min(row, key=lambda c: (abs(row[c]).bit_length(), count[c]))

    return len(_echelon(sorted(rows, key=len), field.characteristic(), pivot))


def nullspace(rows: Sequence[Row], ncols: int, field: Field) -> List[List]:
    """Basis of {x : A·x = 0} for the matrix A with columns 0..ncols−1, as
    dense vectors: one per free column (a column in the span of the columns
    before it), which is 1 there over GF(p) and the least positive integer
    over QQ, and 0 at every other free column."""
    p = field.characteristic()
    # sorted by pivot column, the pivot rows are an echelon form, and back
    # substitution for free column fc reads only those pivoting left of it
    ech = sorted(((c, piv) for _, c, piv in _echelon(rows, p, min)),
                 key=lambda t: t[0])
    pivots = {c for c, _ in ech}
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        x = {fc: field.one()}
        for c, piv in reversed(ech):
            if c < fc:
                s = sum((v * x[k] for k, v in piv.items() if k in x),
                        field.zero())
                x[c] = -s % p if p else -s / piv[c]
        if not p:
            scale = Fraction(lcm(*(v.denominator for v in x.values())),
                             gcd(*(v.numerator for v in x.values())))
            x = {k: v * scale for k, v in x.items()}
        basis.append([x.get(k, field.zero()) for k in range(ncols)])
    return basis
