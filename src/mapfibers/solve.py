"""Rational points of zero-dimensional projective schemes.

Chart-by-chart: set the first k coordinates to zero, the next to one,
solve the affine system by per-variable eliminants, take rational (or
exhaustive finite-field) roots, and verify candidates by evaluation.
A completeness flag records whether every geometric point was captured:
it is true exactly when all squarefree eliminants split into linear
factors over the coefficient field.
"""

from __future__ import annotations

from fractions import Fraction
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


def _uni_derivative(c: List, field: Field) -> List:
    return _uni_trim([field.mul(c[i], field.from_int(i)) for i in range(1, len(c))])


def _uni_mod(a: List, b: List, field: Field) -> List:
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        q = field.div(a[-1], lb)
        shift = len(a) - 1 - db
        for i in range(len(b)):
            a[shift + i] = field.sub(a[shift + i], field.mul(q, b[i]))
        _uni_trim(a)
    return a


def uni_gcd(a: List, b: List, field: Field) -> List:
    a, b = _uni_trim(list(a)), _uni_trim(list(b))
    while b:
        a, b = b, _uni_mod(a, b, field)
    if a:
        inv = field.inv(a[-1])
        a = [field.mul(c, inv) for c in a]
    return a


def _uni_divexact(a: List, b: List, field: Field) -> List:
    a = _uni_trim(list(a))
    q = [field.zero()] * max(len(a) - len(b) + 1, 0)
    while a and len(a) >= len(b):
        t = field.div(a[-1], b[-1])
        shift = len(a) - len(b)
        q[shift] = t
        for i in range(len(b)):
            a[shift + i] = field.sub(a[shift + i], field.mul(t, b[i]))
        _uni_trim(a)
    if a:
        raise ArithmeticError("inexact univariate division")
    return _uni_trim(q)


def _uni_monic(c: List, field: Field) -> List:
    if not c:
        return c
    inv = field.inv(c[-1])
    return [field.mul(x, inv) for x in c]


def _uni_mul(a: List, b: List, field: Field) -> List:
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if field.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return _uni_trim(out)


def squarefree_part(c: List, field: Field) -> List:
    """Monic product of the distinct irreducible factors.

    Over GF(p) the factors whose multiplicity is divisible by p hide in
    a p-th power; they are recovered through the Frobenius p-th root.
    """
    c = _uni_monic(_uni_trim(list(c)), field)
    if len(c) <= 1:
        return c
    d = _uni_derivative(c, field)
    if not d:
        p = field.p  # type: ignore[attr-defined]
        root = [c[i] for i in range(0, len(c), p)]
        return squarefree_part(root, field)
    g = uni_gcd(c, d, field)
    if len(g) == 1:
        return c
    w = _uni_monic(_uni_divexact(c, g, field), field)
    rest = g
    gw = uni_gcd(rest, w, field)
    while len(gw) > 1:
        rest = _uni_divexact(rest, gw, field)
        gw = uni_gcd(rest, w, field)
    if len(rest) > 1:
        # rest is a p-th power holding the remaining factors
        p = field.p  # type: ignore[attr-defined]
        rest = _uni_monic(rest, field)
        root = [rest[i] for i in range(0, len(rest), p)]
        return _uni_monic(_uni_mul(w, squarefree_part(root, field), field), field)
    return w


def _int_divisors(n: int, bound: int = 10 ** 7) -> List[int]:
    n = abs(n)
    if n == 0:
        return []
    out = set()
    i = 1
    while i * i <= n and i <= bound:
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


def field_roots(coeffs: List, field: Field) -> Tuple[List, int]:
    """(rational roots, number of distinct roots over the closure)."""
    sf = squarefree_part(coeffs, field)
    nbar = len(sf) - 1
    if isinstance(field, PrimeField):
        return prime_field_roots([int(c) for c in sf], field.p), nbar
    return rational_roots(sf), nbar


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
        eli, small = eliminate(I, [j for j in range(n) if j != i])
        if not eli.generators:
            raise NotZeroDimensionalError("no eliminant in a variable")
        coeffs = univariate_coeffs(eli.generators[0], 0)
        roots, nbar = field_roots(coeffs, F)
        if len(roots) < nbar:
            complete = False
        candidates.append(roots)
    points = []
    def rec(i, partial):
        if i == n:
            points.append(tuple(partial))
            return
        for r in candidates[i]:
            rec(i + 1, partial + [r])
    rec(0, [])
    out = [pt for pt in points if all(F.is_zero(g.evaluate(pt)) for g in live)]
    return out, complete


def rational_points_zero_dim(J: Ideal) -> Tuple[List[PointProjective], bool]:
    """Rational points of V(J) ⊂ Pⁿ with a completeness certificate."""
    ring = J.ring
    F = ring.field
    n = ring.nvars
    found: List[PointProjective] = []
    complete = True
    for k in range(n):
        # chart: X_0 = … = X_{k-1} = 0, X_k = 1
        rest = list(range(k + 1, n))
        assigns = [{i: Polynomial.zero(ring) for i in range(k)} for _ in J.generators]
        for a in assigns:
            a[k] = Polynomial.constant(ring, F.one())
        substituted = [g.substitute(a) for g, a in zip(J.generators, assigns)]
        if rest:
            small = ring.subring(rest)
            chart_gens = [restrict_polynomial(h, small, rest) for h in substituted]
            pts, comp = _affine_points(chart_gens, small)
        else:
            pts, comp = ([()], True) if all(h.is_zero() for h in substituted) else ([], True)
        complete = complete and comp
        for pt in pts:
            coords = [F.zero()] * k + [F.one()] + list(pt)
            found.append(PointProjective(coords, F))
    seen = set()
    unique = []
    for p in found:
        if p.coords not in seen:
            seen.add(p.coords)
            unique.append(p)
    return unique, complete


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
