"""Rational points of zero-dimensional projective schemes.

Chart-by-chart: set the first k coordinates to zero, the next to one,
solve the affine system by per-variable eliminants, take rational (or
exhaustive finite-field) roots, and verify candidates by evaluation.
A completeness flag records whether every geometric point was captured:
it is true exactly when every eliminant splits into linear factors over
the coefficient field.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd
from typing import Iterable, List, Sequence, Tuple

from .fields import Field, PrimeField
from .groebner import reduced_groebner
from .ideals import Ideal, eliminate, restrict_polynomial
from .poly import Polynomial
from .rings import RingDescriptor


class NotZeroDimensionalError(ValueError):
    pass


class PointProjective:
    """A rational point of Pⁿ, normalized so the first nonzero
    coordinate is one."""

    __slots__ = ("coords", "field")

    def __init__(self, coords: Sequence, field: Field):
        coords = list(coords)
        pivot = next((i for i, c in enumerate(coords) if not field.is_zero(c)), None)
        if pivot is None:
            raise ValueError("all coordinates vanish")
        inv = field.inv(coords[pivot])
        self.coords = tuple(field.mul(c, inv) for c in coords)
        self.field = field

    def __eq__(self, other):
        return isinstance(other, PointProjective) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return "(" + " : ".join(self.field.to_str(c) for c in self.coords) + ")"


# ---------------------------------------------------------------------------
# univariate utilities

def univariate_coeffs(f: Polynomial, var: int) -> List:
    """Coefficient list (ascending) of a polynomial in one variable."""
    F = f.ring.field
    deg = 0
    for m in f.terms:
        for i, e in enumerate(m):
            if e and i != var:
                raise ValueError("polynomial is not univariate in the given variable")
        deg = max(deg, m[var])
    out = [F.zero()] * (deg + 1)
    for m, c in f.terms.items():
        out[m[var]] = c
    return out


def _uni_trim(c: List) -> List:
    while c and not c[-1]:
        c.pop()
    return c


# Trial division stops here; a root missed for it only clears the
# completeness flag.
_DIVISOR_SEARCH = 10 ** 7


def _int_divisors(n: int) -> List[int]:
    n = abs(n)
    if n == 0:
        return []
    out = set()
    i = 1
    while i * i <= n and i <= _DIVISOR_SEARCH:
        if n % i == 0:
            out.add(i)
            out.add(n // i)
        i += 1
    return sorted(out)


def rational_roots(coeffs: List[Fraction]) -> List[Fraction]:
    """All rational roots of a nonzero polynomial over ℚ (exact)."""
    c = _uni_trim(list(coeffs))
    if not c:
        raise ValueError("zero polynomial")
    roots = []
    # strip roots at zero
    k = 0
    while not c[k]:
        k += 1
    if k:
        roots.append(Fraction(0))
        c = c[k:]
    if len(c) <= 1:
        return roots
    den = 1
    for x in c:
        den = den * x.denominator // gcd(den, x.denominator)
    ic = [int(x * den) for x in c]
    g = 0
    for x in ic:
        g = gcd(g, x)
    ic = [x // g for x in ic]
    a0, al = ic[0], ic[-1]
    for p in _int_divisors(a0):
        for q in _int_divisors(al):
            if gcd(p, q) != 1:
                continue
            for sign in (1, -1):
                r = Fraction(sign * p, q)
                acc = Fraction(0)
                for co in reversed(ic):
                    acc = acc * r + co
                if acc == 0:
                    roots.append(r)
    return sorted(set(roots))


def prime_field_roots(coeffs: List[int], p: int) -> List[int]:
    roots = []
    for a in range(p):
        acc = 0
        for co in reversed(coeffs):
            acc = (acc * a + co) % p
        if acc == 0:
            roots.append(a)
    return roots


def field_roots(coeffs: List, field: Field) -> Tuple[List, bool]:
    """(roots in the field, whether the polynomial splits over it).

    It splits when dividing out each root as often as it divides leaves
    a constant, that is, when every root in the closure lies in the field.
    """
    c = _uni_trim(list(coeffs))
    if isinstance(field, PrimeField):
        roots = prime_field_roots([int(x) for x in c], field.p)
    else:
        roots = rational_roots(c)
    for r in roots:
        while True:
            # synthetic division by (x − r), highest coefficient first
            acc, quot = field.zero(), []
            for x in reversed(c):
                acc = field.add(field.mul(acc, r), x)
                quot.append(acc)
            if not field.is_zero(quot.pop()):
                break
            c = quot[::-1]
    return roots, len(c) == 1


# ---------------------------------------------------------------------------
# affine + projective solving

def _affine_points(gens: List[Polynomial], ring: RingDescriptor) -> Tuple[List[Tuple], bool]:
    """All rational points of V(gens) ⊂ 𝔸^nvars, plus completeness."""
    F = ring.field
    n = ring.nvars
    if n == 0:
        return ([()], True) if all(g.is_zero() for g in gens) else ([], True)
    live = [g for g in gens if not g.is_zero()]
    if any(g.is_constant() for g in live):
        return [], True
    if not live:
        raise NotZeroDimensionalError("zero ideal on a positive-dimensional chart")
    gb = reduced_groebner(live, ring=ring)
    if any(p.is_constant() for p in gb.polys):
        return [], True
    # zero-dimensionality: every variable must appear as a pure power
    # among the leading monomials
    leads = [m for _, m in gb.leading_terms()]
    for i in range(n):
        if not any(m[i] and all(e == 0 for j, e in enumerate(m) if j != i) for m in leads):
            raise NotZeroDimensionalError("chart system is not zero-dimensional")
    complete = True
    candidates: List[List] = []
    I = Ideal(ring, list(gb.polys))
    for i in range(n):
        eli = eliminate(I, [j for j in range(n) if j != i])
        if not eli.generators:
            raise NotZeroDimensionalError("no eliminant in a variable")
        coeffs = univariate_coeffs(eli.generators[0], 0)
        roots, splits = field_roots(coeffs, F)
        complete = complete and splits
        candidates.append(roots)
    out = [pt for pt in product(*candidates)
           if all(F.is_zero(g.evaluate(pt)) for g in live)]
    return out, complete


def rational_points_zero_dim(J: Ideal) -> Tuple[List[PointProjective], bool]:
    """Rational points of V(J) ⊂ Pⁿ with a completeness certificate."""
    ring = J.ring
    F = ring.field
    n = ring.nvars
    found: List[PointProjective] = []
    complete = True
    for k in range(n):
        # chart: X_0 = … = X_{k-1} = 0, X_k = 1; charts are disjoint
        assign = {i: Polynomial.zero(ring) for i in range(k)}
        assign[k] = Polynomial.constant(ring, F.one())
        rest = list(range(k + 1, n))
        small = ring.subring(rest)
        chart_gens = [restrict_polynomial(g.substitute(assign), small, rest)
                      for g in J.generators]
        pts, comp = _affine_points(chart_gens, small)
        complete = complete and comp
        for pt in pts:
            coords = [F.zero()] * k + [F.one()] + list(pt)
            found.append(PointProjective(coords, F))
    return found, complete


def projective_points(field: PrimeField, dim: int) -> Iterable[PointProjective]:
    """All points of Pᵈⁱᵐ over a prime field (normalized reps)."""
    p = field.p
    for k in range(dim + 1):
        tail = dim - k
        def rec(i, acc):
            if i == tail:
                yield acc
                return
            for a in range(p):
                yield from rec(i + 1, acc + [a])
        for rest in rec(0, []):
            yield PointProjective([0] * k + [1] + rest, field)
