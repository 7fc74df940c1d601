"""Reduced Gröbner bases and normal forms for scalar ideals.

Thin, deterministic wrapper over the raw engine: handles conversion
between Polynomial values (Fraction or residue coefficients) and the
engine's integer term lists, caches the reducer index for repeated
normal-form calls, and normalizes output monic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, List, Optional

from . import engine
from .engine import EngineContext
from .fields import PrimeField
from .poly import Polynomial
from .rings import GREVLEX, RingDescriptor, TermOrder


def _context(ring: RingDescriptor, order: TermOrder, weights=None) -> EngineContext:
    mod = ring.field.p if isinstance(ring.field, PrimeField) else None
    if weights is None:
        weights = tuple(sum(w) for w in ring.weights)
    return EngineContext(ring.nvars, order, mod=mod, weights=weights)


def to_raw(p: Polynomial, ctx: EngineContext) -> list:
    """Polynomial → engine term list (cleared to integers over QQ)."""
    if not p.terms:
        return []
    pack = ctx.pack
    if ctx.mod is not None:
        out = [(pack(m), int(c)) for m, c in p.terms.items() if int(c) % ctx.mod]
    else:
        den = 1
        for c in p.terms.values():
            den = den * c.denominator // gcd(den, c.denominator)
        out = [(pack(m), int(c * den)) for m, c in p.terms.items()]
    out.sort(key=lambda t: t[0], reverse=True)
    return out


def from_raw(terms: list, ctx: EngineContext, ring: RingDescriptor,
             scale=None) -> Polynomial:
    """Engine term list → Polynomial, monic unless a ``scale`` is given."""
    if not terms:
        return Polynomial.zero(ring)
    exps = ctx.exps
    if ctx.mod is not None:
        p = ctx.mod
        inv = pow(terms[0][1], p - 2, p) if scale is None else scale
        return Polynomial(ring, {exps(k): (c * inv) % p for (k, c) in terms})
    if scale is None:
        scale = Fraction(1, terms[0][1])
    return Polynomial(ring, {exps(k): c * scale for (k, c) in terms})


class GroebnerBasis:
    """Reduced Gröbner basis: unique for (ideal, order), elements monic."""

    def __init__(self, ring: RingDescriptor, order: TermOrder, raw: list, ctx: EngineContext):
        self.ring = ring
        self.order = order
        self._raw = raw
        self._ctx = ctx
        self.polys: List[Polynomial] = [from_raw(t, ctx, ring) for t in raw]
        self.reduced = True
        self._reducer = None

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __eq__(self, other):
        return (isinstance(other, GroebnerBasis) and self.ring == other.ring
                and self.order == other.order and self.polys == other.polys)

    def leading_monomials(self) -> list:
        return [self._ctx.exps(t[0][0]) for t in self._raw]

    def _basis_index(self):
        if self._reducer is None:
            self._reducer = engine._Basis(self._ctx, self._raw)
        return self._reducer

    def __repr__(self):
        return f"<GroebnerBasis of {len(self.polys)} elements in {self.ring!r}>"


def reduced_groebner(gens: Iterable[Polynomial], order: TermOrder = GREVLEX,
                     weights: Optional[tuple] = None,
                     ring: Optional[RingDescriptor] = None) -> GroebnerBasis:
    gens = [g for g in gens if not g.is_zero()]
    if not gens and ring is None:
        raise ValueError("cannot infer the ring of an empty generator list")
    if ring is None:
        ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ValueError("generators live in different rings")
    ctx = _context(ring, order, weights)
    raw = engine.groebner_raw([to_raw(g, ctx) for g in gens], ctx)
    return GroebnerBasis(ring, order, raw, ctx)


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Remainder of multivariate division by the reduced basis; exact."""
    if f.ring != gb.ring:
        raise ValueError("polynomial ring does not match basis ring")
    if f.is_zero() or not gb._raw:
        return f
    ctx = gb._ctx
    terms = to_raw(f, ctx)
    basis = gb._basis_index()
    nf, _, (num, den) = engine._reduce_full(terms, ctx.sugar(terms[0][0]), basis, ctx,
                                            track_scale=True)
    if ctx.mod is not None:
        return from_raw(nf, ctx, gb.ring, scale=1)
    # engine computed num/den · f ≡ nf; recover the true remainder, then
    # rescale to match f's own denominators
    inden = 1
    for c in f.terms.values():
        inden = inden * c.denominator // gcd(inden, c.denominator)
    return from_raw(nf, ctx, gb.ring, scale=Fraction(den, num * inden))


def in_ideal(f: Polynomial, gb: GroebnerBasis) -> bool:
    return normal_form(f, gb).is_zero()
