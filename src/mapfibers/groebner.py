"""Gröbner front end for ideals and free-module submodules.

The one boundary between Polynomial values and the engine's term lists.
A module element is a tuple of polynomials, one per component of a
shifted free module ⊕_c R(−shifts[c]); an ideal is the rank-one case
with shifts ``(0,)``.  This module converts vectors to and from the
engine's integer term lists, keeps the reducer index of a basis for
repeated normal forms, recovers exact remainders over QQ, and
normalizes basis elements monic.

A `GroebnerBasis` holds only the engine's reduced term lists; leads,
normal forms and hand-overs into another ring work on them.  Elements
become polynomials on first read of ``polys``, and `select` converts
only the elements a caller picks by their lead keys.  An ideal's
generators are packed once (`pack_generators`) and each basis re-packs
their keys into its own order (`GroebnerBasis.from_terms`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, List, Optional, Sequence, Tuple

from . import engine
from .engine import EngineContext
from .fields import PrimeField
from .poly import Polynomial
from .rings import GREVLEX, RingDescriptor, TermOrder

Vector = Tuple[Polynomial, ...]


def _context(ring: RingDescriptor, order: TermOrder, shifts: Sequence[int] = (0,),
             index_bits=0) -> EngineContext:
    mod = ring.field.p if isinstance(ring.field, PrimeField) else None
    return EngineContext(ring.nvars, order, mod=mod, ncomps=len(shifts),
                         weights=ring.weights, comp_offsets=tuple(shifts),
                         index_bits=index_bits)


def grevlex_context(ring: RingDescriptor) -> EngineContext:
    """The grevlex layout of a scalar polynomial of ``ring``."""
    return _context(ring, GREVLEX)


def induced_context(ring: RingDescriptor, index_bits: int) -> EngineContext:
    """The layout of a Schreyer resolution's induced orders over ``ring``:
    grevlex, a component F ranked above a component F′, and an index
    field of ``index_bits`` bits below every monomial field
    (`engine.schreyer_syzygies`)."""
    return _context(ring, GREVLEX, (0, 0), index_bits=index_bits)


def _denominator(vec: Vector) -> int:
    """Least common denominator of the coefficients of a vector over QQ."""
    den = 1
    for p in vec:
        for c in p.terms.values():
            den = lcm(den, c.denominator)
    return den


def to_raw(vec: Vector, ctx: EngineContext) -> list:
    """Vector → engine term list (cleared to integers over QQ)."""
    pack = ctx.pack
    out = []
    if ctx.mod is not None:
        mod = ctx.mod
        for p, off in zip(vec, ctx.rank_bits):
            if p.terms:
                out += [(off + pack(m), int(c)) for m, c in p.terms.items()
                        if int(c) % mod]
    else:
        den = _denominator(vec)
        for p, off in zip(vec, ctx.rank_bits):
            if p.terms:
                out += [(off + pack(m), c.numerator * (den // c.denominator))
                        for m, c in p.terms.items()]
    out.sort(key=lambda t: t[0], reverse=True)
    return out


def pack_generators(polys: Sequence[Polynomial], ring: RingDescriptor):
    """Nonzero polynomials of ``ring`` → (grevlex context, [(terms,
    scale)]) with each polynomial equal to scale · terms: over QQ the terms
    are primitive integers with a positive lead and the scale a Fraction,
    over GF(p) the coefficients lie in [0, p) and the scale is 1.  Either
    way equal polynomials give equal pairs, and a product of two packed
    polynomials is packed the same way (Gauss's lemma over QQ)."""
    ctx = grevlex_context(ring)
    out = []
    for p in polys:
        terms = to_raw((p,), ctx)
        if ctx.mod is not None:
            out.append((terms, 1))
            continue
        primitive = engine._normalize(terms, None)
        out.append((primitive, Fraction(terms[0][1] // primitive[0][1],
                                        _denominator((p,)))))
    return ctx, out


def from_raw(terms: list, ctx: EngineContext, ring: RingDescriptor,
             scale=None) -> Vector:
    """Engine term list → vector, monic unless a ``scale`` is given."""
    comps = [{} for _ in range(ctx.ncomps)]
    if terms:
        exps, last, cshift = ctx.exps, ctx.ncomps - 1, ctx.cshift
        if ctx.mod is not None:
            p = ctx.mod
            if scale is None:
                scale = pow(terms[0][1], p - 2, p)
            for (k, c) in terms:
                comps[last - (k >> cshift)][exps(k)] = (c * scale) % p
        else:
            if scale is None:
                scale = Fraction(1, terms[0][1])
            for (k, c) in terms:
                comps[last - (k >> cshift)][exps(k)] = c * scale
    return tuple(Polynomial(ring, d) for d in comps)


def induced_matrix(columns: Sequence[dict], ctx: EngineContext,
                   ring: RingDescriptor, rows: dict, bases: dict,
                   scales: dict) -> List[List[Polynomial]]:
    """The matrix of a map whose columns are {key: coeff} dicts in an
    induced (Schreyer) layout of ``ctx``: the index field of a key names
    the target basis element r, ``rows[r]`` its row, and the key is that
    of x^a · bases[r], so the entry gains the term x^a.  Over QQ the
    entries of row ``rows[r]`` are divided by ``scales[r]`` (1 when r has
    none)."""
    exps, imask, mod = ctx.exps, ctx.index_mask, ctx.mod
    out = [[{} for _ in columns] for _ in rows]
    for c, col in enumerate(columns):
        for k, v in col.items():
            r = k & imask
            mono = tuple(a - b for a, b in zip(exps(k), bases[r]))
            if mod is not None:
                v %= mod
            else:
                s = scales.get(r)
                v = Fraction(v) if s is None else v / s
            out[rows[r]][c][mono] = v
    return [[Polynomial(ring, t) for t in row] for row in out]


class GroebnerBasis:
    """Reduced Gröbner basis of a submodule of ⊕_c R(−shifts[c]) (of an
    ideal when the shifts are ``(0,)``): unique for (submodule, order),
    elements monic.  The order is position over term, component 0 first."""

    def __init__(self, raw: list, ctx: EngineContext, ring: RingDescriptor):
        """Hold ``raw``, a reduced basis in ``ctx``'s term lists, ascending
        by lead."""
        self.raw = raw
        self.ctx = ctx
        self.ring = ring

    @classmethod
    def compute(cls, vectors: Iterable[Vector], ring: RingDescriptor,
                order: TermOrder = GREVLEX,
                shifts: Sequence[int] = (0,)) -> "GroebnerBasis":
        """The reduced basis of the submodule the ``vectors`` generate."""
        ctx = _context(ring, order, shifts)
        return cls(engine.groebner_raw([to_raw(v, ctx) for v in vectors], ctx),
                   ctx, ring)

    @classmethod
    def from_terms(cls, terms: Sequence[list], src: EngineContext,
                   ring: RingDescriptor, order: TermOrder, *,
                   hint=None) -> "GroebnerBasis":
        """The reduced basis in ``order`` of the ideal generated by the
        scalar term lists ``terms`` of layout ``src`` over ``ring``, which
        are re-packed into that order's keys unless ``src`` already has
        them.  ``hint``: the certified Hilbert numerator
        `engine.groebner_raw` takes."""
        ctx = _context(ring, order)
        if src.order != order:
            terms = engine.repack(terms, src, ctx)
        return cls(engine.groebner_raw(terms, ctx, hint), ctx, ring)

    @cached_property
    def polys(self) -> List[Polynomial]:
        """The elements of a rank-one basis as polynomials."""
        return [from_raw(t, self.ctx, self.ring)[0] for t in self.raw]

    def select(self, lead_test) -> List[Vector]:
        """The elements whose lead key passes ``lead_test``, as vectors;
        only those are converted."""
        return [from_raw(t, self.ctx, self.ring) for t in self.raw
                if lead_test(t[0][0])]

    def carried(self, ring: RingDescriptor, keep: Sequence[int],
                lead_test) -> "GroebnerBasis":
        """The elements whose lead key passes ``lead_test`` as a grevlex
        basis of ``ring``, whose variables are the variables
        ``keep`` of this ring, by re-packing each key.  Valid when those
        elements involve only the kept variables and this order compares
        their monomials by grevlex in ring order."""
        ctx = grevlex_context(ring)
        place = [None] * self.ctx.nvars
        for j, i in enumerate(keep):
            place[i] = j
        return GroebnerBasis(engine.repack(
            [t for t in self.raw if lead_test(t[0][0])],
            self.ctx, ctx, place), ctx, ring)

    def saturate_last(self, i: int) -> "GroebnerBasis":
        """Reduced basis of (this ideal) : x_i^∞ in the same order, when the
        elements are homogeneous and x_i is the order's last variable.

        Bayer–Stillman: a homogeneous element is divisible by x_i^e exactly
        when its reverse-lex lead is, so the elements divided by their
        x_i-powers are already a Gröbner basis of the colon.  Only their
        interreduction is left; no S-pair is formed.
        """
        ctx = self.ctx
        return GroebnerBasis(engine._interreduce(
            engine.strip_variable(self.raw, ctx, i), ctx), ctx, self.ring)

    def leading_terms(self) -> list:
        """(component, exponent tuple) of each element's leading term."""
        ctx = self.ctx
        return [(ctx.comp(t[0][0]), ctx.exps(t[0][0])) for t in self.raw]

    @cached_property
    def _reducer(self) -> engine._Basis:
        return engine._Basis(self.ctx, self.raw)

    def normal_form(self, vec: Vector) -> Vector:
        """Remainder of division by the basis; exact."""
        if not self.raw or all(p.is_zero() for p in vec):
            return vec
        ctx = self.ctx
        nf, (num, den) = engine.normal_form_raw(to_raw(vec, ctx), self._reducer,
                                                ctx)
        if ctx.mod is not None:
            return from_raw(nf, ctx, self.ring, scale=1)
        # engine computed num/den · vec ≡ nf; recover the true remainder,
        # then rescale to match vec's own denominators
        return from_raw(nf, ctx, self.ring,
                        scale=Fraction(den, num * _denominator(vec)))

    def contains(self, vec: Vector) -> bool:
        return all(p.is_zero() for p in self.normal_form(vec))

    def __repr__(self):
        return f"<GroebnerBasis of {len(self.raw)} elements in {self.ring!r}>"


def reduced_groebner(gens: Iterable[Polynomial], order: TermOrder = GREVLEX,
                     ring: Optional[RingDescriptor] = None) -> GroebnerBasis:
    gens = [g for g in gens if not g.is_zero()]
    if not gens and ring is None:
        raise ValueError("cannot infer the ring of an empty generator list")
    if ring is None:
        ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ValueError("generators live in different rings")
    return GroebnerBasis.compute([(g,) for g in gens], ring, order)


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Remainder of multivariate division by the reduced basis; exact."""
    if f.ring != gb.ring:
        raise ValueError("polynomial ring does not match basis ring")
    return gb.normal_form((f,))[0]
