"""Ideal-level operations: powers, intersections, saturations,
elimination, multivariate gcd, the monomials of a degree.

Everything is exact.  Saturation takes generators homogeneous in total
degree and raises ValueError otherwise.  Saturation by a variable uses
the reverse-lex trick (put the variable last in a graded reverse-lex
order, divide each reduced basis element by its power of that variable,
and interreduce: by Bayer–Stillman the quotients are already a Gröbner
basis, so the result is the colon's reduced basis in that order, at no
S-pair).

Saturation by the irrelevant ideal 𝔪 = (X_0, …, X_n) of an ideal with
homogeneous generators tries one variable at a time and keeps the first
J_i = I : X_i^∞ whose Hilbert polynomial equals that of R/I, which
certifies J_i = I^sat (the four-line proof is in `saturate_irrelevant`).
The certificate needs no generic coordinates and no random choice, so it
is exact over any field.  When no variable passes, the per-variable
saturations already computed are intersected, each as its reduced
basis.

Elimination hands over the basis it already has: the reduced basis of I
in `elimination_order(block)` restricted to the block-free elements is
the reduced grevlex basis of I ∩ k[kept variables] (on block-free
monomials the elimination order is grevlex on the kept variables, in
ring order), so `eliminate` returns the eliminated ideal holding it,
and the Rees ideal, the image and every intersection build no second
basis; those elements are picked on their lead keys and carried over as
term lists, so only the result's generators become polynomials.  And an
ideal that holds a basis in one order knows the Hilbert series of its
quotient, so its basis in any other order is computed Hilbert-driven
(`engine.groebner_raw`'s hint), as is the Rees elimination, whose series
`fibers.rees_ideal` knows by a theorem (`Ideal.set_known_series`).  Only
this module touches an ideal's caches, and `_holding` builds every ideal
that holds a handed-over basis.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .groebner import GroebnerBasis, normal_form
from .hilbert import (HilbertData, hilbert_series_quotient,
                      numerator_from_leads)
from .modules import FreeModule, minimal_generators
from .poly import Polynomial
from .rings import (GREVLEX, Monomial, RingDescriptor, TermOrder,
                    elimination_order, grevlex_with_last, mono_div,
                    mono_divides, mono_mul)


class Ideal:
    """A finitely generated ideal with cached reduced bases and saturation."""

    __slots__ = ("ring", "generators", "_gb", "_sat", "_hilbert", "_series")

    def __init__(self, ring: RingDescriptor, generators: Iterable[Polynomial]):
        gens = tuple(g for g in generators if not g.is_zero())
        for g in gens:
            if g.ring is not ring and g.ring != ring:
                raise ValueError("generator from a different ring")
        self.ring = ring
        self.generators = gens
        self._gb: Dict[TermOrder, GroebnerBasis] = {}
        self._sat: Optional[Ideal] = None
        self._hilbert: Optional[HilbertData] = None
        # numerator of HS(R/I) over ∏_i (1 − z^{w_i}) in the ring's weights
        self._series: Optional[Dict[int, int]] = None

    def groebner(self, order: TermOrder = GREVLEX) -> GroebnerBasis:
        gb = self._gb.get(order)
        if gb is None:
            gb = GroebnerBasis.compute([(g,) for g in self.generators],
                                       self.ring, order,
                                       hint=self._known_series())
            self._gb[order] = gb
        return gb

    def set_known_series(self, numerator: Dict[int, int]) -> None:
        """Drive every basis of this ideal by ``numerator``, that of
        HS(R/I) over ∏_i (1 − z^{w_i}) in the ring's weights, which must be
        certified (a theorem): a wrong one can pass with a wrong basis."""
        self._series = dict(numerator)

    def _known_series(self) -> Optional[Dict[int, int]]:
        """The numerator of HS(R/I) over ∏_i (1 − z^{w_i}) in the ring's
        weights, when it is known without a new basis: given by
        `set_known_series`, or read off a basis this ideal holds when its
        generators are homogeneous in those weights; else None."""
        if self._series is None and self._gb:
            gb = next(iter(self._gb.values()))
            weights = gb.ctx.weights
            if _homogeneous(self, weights):
                if all(w == 1 for w in weights):
                    self._series = self.hilbert().numerator
                else:
                    self._series = numerator_from_leads(
                        [m for _, m in gb.leading_terms()], len(weights),
                        weights)
        return self._series

    def saturation(self) -> "Ideal":
        """`saturate_irrelevant` of this ideal, computed once."""
        if self._sat is None:
            self._sat = saturate_irrelevant(self)
        return self._sat

    def contains(self, f: Polynomial) -> bool:
        """Membership by the normal form against a reduced basis this ideal
        holds (grevlex first; any order decides membership), else grevlex."""
        if f.is_zero():
            return True
        gb = (self._gb.get(GREVLEX) or next(iter(self._gb.values()), None)
              or self.groebner())
        return normal_form(f, gb).is_zero()

    def is_subideal_of(self, other: "Ideal") -> bool:
        return all(other.contains(g) for g in self.generators)

    def is_zero(self) -> bool:
        return not self.generators

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ideal) or self.ring != other.ring:
            return NotImplemented
        return self.groebner().raw == other.groebner().raw

    def hilbert(self) -> HilbertData:
        """Hilbert data of R/I, computed once: from the grevlex basis, or for
        homogeneous generators from any basis held (same series)."""
        if self._hilbert is None:
            gb = self._gb.get(GREVLEX)
            if gb is None and self._gb and _homogeneous(self):
                gb = next(iter(self._gb.values()))
            self._hilbert = hilbert_series_quotient(gb or self.groebner())
        return self._hilbert

    def dimension_degree(self) -> Tuple[int, int]:
        h = self.hilbert()
        return h.krull_dim, h.degree

    def initial_degree(self) -> Optional[int]:
        """Least t with a nonzero element of degree t (the least degree of
        a grevlex lead), None for (0)."""
        gb = self.groebner()
        return min((gb.ctx.deg(t[0][0]) for t in gb.raw), default=None)

    def minimal_basis(self) -> List[Polynomial]:
        """The homogeneous generators, sorted by (degree, text), with each
        one dropped that the ones before it generate."""
        gens = sorted(self.generators, key=lambda g: (g.degree(), str(g)))
        return [v[0] for v in minimal_generators([(g,) for g in gens],
                                                 FreeModule(self.ring, (0,)))]

    def __repr__(self):
        return f"Ideal({', '.join(str(g) for g in self.generators) or '0'})"


# ---------------------------------------------------------------------------
# ring transport helpers

def extend_polynomial(f: Polynomial, big: RingDescriptor) -> Polynomial:
    """Reinterpret f in a ring that adds variables after f's own."""
    pad = big.nvars - f.ring.nvars
    terms = {mono + (0,) * pad: c for mono, c in f.terms.items()}
    return Polynomial(big, terms)


def restrict_polynomial(f: Polynomial, small: RingDescriptor, keep: Sequence[int]) -> Polynomial:
    """Project f onto the subring of the variables listed in keep."""
    terms = {}
    for mono, c in f.terms.items():
        for i, e in enumerate(mono):
            if e and i not in keep:
                raise ValueError("polynomial involves an eliminated variable")
        terms[tuple(mono[i] for i in keep)] = c
    return Polynomial(small, terms)


# ---------------------------------------------------------------------------
# core constructions

def ideal_power(I: Ideal, s: int) -> Ideal:
    """I^s from the products of s generators taken with repetition, in
    lexicographic index order; products that coincide are kept once."""
    if s < 1:
        raise ValueError("power must be >= 1")
    seen = set()
    gens = []
    for combo in combinations_with_replacement(I.generators, s):
        g = reduce(mul, combo)
        key = tuple(sorted(g.terms.items()))
        if key not in seen:
            seen.add(key)
            gens.append(g)
    return Ideal(I.ring, gens)


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J by eliminating an auxiliary scalar t from t·I + (1−t)·J."""
    R = I.ring
    big = R.extend(("_t",))
    t = Polynomial.variable(big, big.nvars - 1)
    one = Polynomial.constant(big, R.field.one())
    gens = [t * extend_polynomial(g, big) for g in I.generators]
    gens += [(one - t) * extend_polynomial(g, big) for g in J.generators]
    return eliminate(Ideal(big, gens), (big.nvars - 1,))[0]


def intersect_many(ideals: Sequence[Ideal]) -> Ideal:
    if not ideals:
        raise ValueError("need at least one ideal")
    out = ideals[0]
    for J in ideals[1:]:
        out = intersect(out, J)
    return out


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient f/g when g divides f exactly; raises otherwise."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return f
    R = f.ring
    F = R.field
    key = GREVLEX.key_function(R.nvars)
    lg = max(g.terms, key=key)
    cg = g.terms[lg]
    rem = dict(f.terms)
    quot: Dict[Monomial, object] = {}
    while rem:
        lf = max(rem, key=key)
        if not mono_divides(lg, lf):
            raise ValueError("not an exact multiple")
        qm = mono_div(lf, lg)
        qc = F.div(rem[lf], cg)
        quot[qm] = qc
        for m, c in g.terms.items():
            mm = mono_mul(qm, m)
            nc = F.sub(rem.get(mm, F.zero()), F.mul(qc, c))
            if F.is_zero(nc):
                rem.pop(mm, None)
            else:
                rem[mm] = nc
    return Polynomial(R, quot)


def _homogeneous(I: Ideal, weights: Optional[Sequence[int]] = None) -> bool:
    """Every generator is homogeneous in total degree, or in ``weights``."""
    deg = sum if weights is None else (lambda m: sum(map(mul, m, weights)))
    return all(len({deg(m) for m in g.terms}) == 1 for g in I.generators)


def _require_homogeneous(I: Ideal) -> None:
    # Bayer–Stillman and the Hilbert-polynomial certificate compare
    # unweighted total degree first, so saturation needs every generator
    # homogeneous in total degree (whatever the ring's weights), and only that
    if not _homogeneous(I):
        raise ValueError("saturation needs generators homogeneous in "
                         "total degree")


def saturate_variable(I: Ideal, i: int) -> Ideal:
    """(I : X_i^∞) for generators homogeneous in total degree (else
    ValueError), generated by its reduced basis in the order with X_i
    last, which the result holds (for X_n that is its grevlex basis).

    The basis comes from I's basis in that order by
    `GroebnerBasis.saturate_last`: strip each element's X_i power and
    interreduce.
    """
    if I.is_zero():
        return I
    _require_homogeneous(I)
    return _holding(I.groebner(grevlex_with_last(I.ring.nvars, i))
                    .saturate_last(i))


def saturate_irrelevant(I: Ideal) -> Ideal:
    """(I : 𝔪^∞) where 𝔪 = (X_0,…,X_n), for generators homogeneous in
    total degree (else ValueError).

    J_i = I : X_i^∞ is tried for i = n, n−1, …, 0, and the first J_i with
    HP(R/J_i) = HP(R/I) (the whole polynomial, not just dimension and
    degree) is I^sat:

        I^sat ⊆ J_i, because X_i ∈ 𝔪;
        HP(R/I^sat) = HP(R/I), because I^sat/I has finite length;
        so HP(R/J_i) = HP(R/I) makes J_i/I^sat of finite length,
        and then J_i ⊆ I^sat : 𝔪^∞ = I^sat.

    `saturate_variable` hands J_i over with its reduced basis in the
    order with X_i last, so `J_i.hilbert()` reads HS(R/J_i) off its leads
    at no extra Gröbner basis; the first try (X_n last) starts from
    I's own grevlex basis.  When no variable passes, the per-variable
    saturations are intersected in the order they were built.
    """
    if I.is_zero():
        return I
    _require_homogeneous(I)
    target = _hilbert_polynomial(I.hilbert())
    pieces = []
    for i in reversed(range(I.ring.nvars)):
        J = saturate_variable(I, i)
        if _hilbert_polynomial(J.hilbert()) == target:
            return J
        pieces.append(J)
    return intersect_many(pieces)


def _hilbert_polynomial(h: HilbertData) -> Tuple[int, List[Fraction]]:
    return h.krull_dim, h.hp_coefficients()


def eliminate(I: Ideal, drop: Sequence[int]) -> Tuple[Ideal, RingDescriptor]:
    """I ∩ k[kept variables] and the small ring.

    The result is generated by, and holds, its reduced grevlex basis: the
    elements of I's reduced basis in `elimination_order` with a block-free
    lead (hence block-free), which that order compares by grevlex on the
    kept variables.
    """
    R = I.ring
    block = frozenset(drop)
    keep = [i for i in range(R.nvars) if i not in block]
    small = R.subring(keep)
    gb = I.groebner(elimination_order(block))
    exps = gb.ctx.exps
    return _holding(gb.carried(small, keep, lambda k: not any(
        exps(k)[i] for i in block))), small


def _holding(gb: GroebnerBasis) -> Ideal:
    """The ideal generated by the reduced basis ``gb``, holding it."""
    J = Ideal(gb.ring, gb.polys)
    J._gb[gb.ctx.order] = gb
    return J


def regraded(I: Ideal, ring: RingDescriptor) -> Ideal:
    """I in ``ring``, its variables regraded, holding I's grevlex basis
    (grevlex does not see the weights)."""
    return _holding(I.groebner().carried(ring, range(ring.nvars)))


# ---------------------------------------------------------------------------
# gcd via lattice of principal ideals

def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Multivariate gcd: f·g / lcm, with lcm generating (f) ∩ (g)."""
    if f.is_zero():
        return _normalize_poly(g)
    if g.is_zero():
        return _normalize_poly(f)
    R = f.ring
    inter = intersect(Ideal(R, [f]), Ideal(R, [g]))
    gens = inter.generators
    if len(gens) != 1:
        raise ArithmeticError("principal intersection expected")
    return _normalize_poly(exact_divide(f * g, gens[0]))


def poly_gcd_list(polys: Sequence[Polynomial]) -> Polynomial:
    out = polys[0]
    for p in polys[1:]:
        if out.is_constant() and not out.is_zero():
            break
        out = poly_gcd(out, p)
    return _normalize_poly(out)


def _normalize_poly(f: Polynomial) -> Polynomial:
    """Scale so the reverse-lex leading coefficient is one."""
    if f.is_zero():
        return f
    key = GREVLEX.key_function(f.ring.nvars)
    lead = max(f.terms, key=key)
    c = f.terms[lead]
    F = f.ring.field
    if F.is_zero(F.sub(c, F.one())):
        return f
    return f.scale(F.inv(c))


# ---------------------------------------------------------------------------
# monomials of one degree

def degree_monomials(nvars: int, t: int) -> Tuple[Monomial, ...]:
    """All exponent tuples of total degree t, reverse-lex sorted."""
    if t < 0:
        return ()
    def gen(rem, slots):
        if slots == 1:
            yield (rem,)
            return
        for e in range(rem, -1, -1):
            for tail in gen(rem - e, slots - 1):
                yield (e,) + tail
    monos = list(gen(t, nvars))
    key = GREVLEX.key_function(nvars)
    monos.sort(key=key, reverse=True)
    return tuple(monos)
