"""Ideal-level operations: powers, intersections, saturations,
elimination, multivariate gcd, the monomials of a degree.

Everything is exact.  Saturation takes generators homogeneous in total
degree and raises ValueError otherwise.  A power I^s built by
`ideal_power` is saturated by a variable through its base, from the
colon of I^{s−1}, which I keeps (`saturate_variable`).

When dim R/I ≤ 1 the power is also saturated by 𝔪 from I's own
certificate (`saturate_irrelevant`, which gives the proof).

An ideal that holds a basis in one order knows the Hilbert series of its
quotient, so its basis in any other order is computed Hilbert-driven
(`engine.groebner_raw`'s hint); every hint is read off a reduced basis
the ideal holds, never handed in.  Only this module touches an ideal's
caches, and `_holding` builds every ideal that holds a handed-over basis.

An ideal packs its generators into engine term lists once, each a
canonical one with no scale (monic over GF(p), primitive with a positive
lead over QQ), and every basis re-packs those keys into its order.
Powers, intersections and handed-over bases are built on the term lists
alone; their polynomials, monic, are built when ``generators`` is read.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import engine
from .engine import EngineContext
from .groebner import (GroebnerBasis, from_raw, grevlex_context,
                       normal_form, pack_generators)
from .hilbert import (HilbertData, hilbert_series_quotient,
                      numerator_from_leads)
from .modules import FreeModule, minimal_generators
from .poly import Polynomial
from .rings import (GREVLEX, Monomial, RingDescriptor, TermOrder,
                    elimination_order, grevlex_with_last, mono_div,
                    mono_divides, mono_mul)


class Ideal:
    """A finitely generated ideal with cached reduced bases and saturation.

    The generators are held as polynomials, as engine term lists, or both:
    an ideal built from polynomials packs them once, on first use
    (`groebner.pack_generators`), and an ideal built from term lists
    (`ideal_power`, `intersect`, `_holding`) converts them to polynomials
    on first read of ``generators``.
    """

    __slots__ = ("ring", "_polys", "_terms", "_gb", "_sat", "_sat_by",
                 "_hilbert", "_series", "_power_of", "_colons")

    def __init__(self, ring: RingDescriptor, generators: Iterable[Polynomial]):
        gens = tuple(g for g in generators if not g.is_zero())
        for g in gens:
            if g.ring is not ring and g.ring != ring:
                raise ValueError("generator from a different ring")
        self.ring = ring
        self._polys: Optional[Tuple[Polynomial, ...]] = gens
        # (engine context, [terms]): each generator's canonical term list
        self._terms: Optional[Tuple[EngineContext, list]] = None
        self._gb: Dict[TermOrder, GroebnerBasis] = {}
        self._sat: Optional[Ideal] = None
        # i when `saturate_irrelevant` certified I : X_i^∞ = I^sat by the
        # Hilbert polynomial
        self._sat_by: Optional[int] = None
        self._hilbert: Optional[HilbertData] = None
        # numerator of HS(R/I) over ∏_i (1 − z^{w_i}) in the ring's weights
        self._series: Optional[Dict[int, int]] = None
        # (B, s) when `ideal_power` built this ideal as B^s, B itself not
        # such a power
        self._power_of: Optional[Tuple[Ideal, int]] = None
        # (i, s) -> I^s : X_i^∞, built by `saturate_variable` on I or on a
        # power of I: s = 1 and the last s built, per i
        self._colons: Dict[Tuple[int, int], Ideal] = {}

    @property
    def generators(self) -> Tuple[Polynomial, ...]:
        if self._polys is None:
            ctx, packed = self._terms
            self._polys = tuple(from_raw(t, ctx, self.ring)[0] for t in packed)
        return self._polys

    def packed(self) -> Tuple[EngineContext, list]:
        """The generators as (context, [canonical terms]), packed once."""
        if self._terms is None:
            self._terms = pack_generators(self._polys, self.ring)
        return self._terms

    def groebner(self, order: TermOrder = GREVLEX) -> GroebnerBasis:
        gb = self._gb.get(order)
        if gb is None:
            ctx, packed = self.packed()
            gb = GroebnerBasis.from_terms(packed, ctx, self.ring, order,
                                          hint=self._known_series())
            self._gb[order] = gb
        return gb

    def _known_series(self) -> Optional[Dict[int, int]]:
        """The numerator of HS(R/I) over ∏_i (1 − z^{w_i}) in the ring's
        weights, when it is known without a new basis: read off a basis
        this ideal holds when its generators are homogeneous in those
        weights; else None."""
        if self._series is None and self._gb:
            gb = next(iter(self._gb.values()))
            weights = gb.ctx.weights
            if _homogeneous(self, weighted=True):
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

    def basis(self, any_order: bool = False) -> GroebnerBasis:
        """The grevlex basis if held, else any held basis when ``any_order``
        (membership) or the generators are homogeneous in total degree
        (then every reduced basis gives the Hilbert series and the initial
        degree ν, and its degree-ν elements span I_ν), else grevlex."""
        gb = self._gb.get(GREVLEX)
        if gb is None and self._gb and (any_order or _homogeneous(self)):
            gb = next(iter(self._gb.values()))
        return gb or self.groebner()

    def contains(self, f: Polynomial) -> bool:
        """Membership by the normal form against a reduced basis in any
        order (`basis`)."""
        return (f.is_zero()
                or normal_form(f, self.basis(any_order=True)).is_zero())

    def is_subideal_of(self, other: "Ideal") -> bool:
        return all(other.contains(g) for g in self.generators)

    def is_zero(self) -> bool:
        return not (self._polys if self._polys is not None
                    else self._terms[1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ideal) or self.ring != other.ring:
            return NotImplemented
        return self.groebner().raw == other.groebner().raw

    def hilbert(self) -> HilbertData:
        """Hilbert data of R/I, computed once, from `basis`."""
        if self._hilbert is None:
            self._hilbert = hilbert_series_quotient(self.basis())
        return self._hilbert

    def dimension_degree(self) -> Tuple[int, int]:
        h = self.hilbert()
        return h.krull_dim, h.degree

    def initial_degree(self) -> Optional[int]:
        """Least t with a nonzero element of degree t (the least degree of
        a lead of `basis`), None for (0)."""
        gb = self.basis()
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
    lexicographic index order; products equal up to a unit are kept once.

    The products are engine term lists in the layout of I's packed
    generators (`engine.multiply`), canonical as their factors are, so
    products equal up to a unit give equal lists.  The product of an
    index combination (i_1 ≤ … ≤ i_k) is that of its prefix times
    generator i_k, for k = 2..s.  The power holds its generators as term
    lists, converted to polynomials only on first read of ``generators``,
    and records that it is I^s, so that `saturate_variable` saturates it
    through I (the identity is proved there).  A power (B^t)^s of
    a power records B^{ts}, the same ideal, so its saturation reads B's
    certificate.
    """
    if s < 1:
        raise ValueError("power must be >= 1")
    ctx, packed = I.packed()
    table = {(i,): g for i, g in enumerate(packed)}
    for level in range(2, s + 1):
        table = {combo: engine.multiply(table[combo[:-1]], packed[combo[-1]],
                                        ctx)
                 for combo in combinations_with_replacement(range(len(packed)),
                                                            level)}
    P = _packed_ideal(I.ring, ctx, _distinct(table.values()))
    base, t = I._power_of or (I, 1)
    P._power_of = (base, t * s)
    return P


def _distinct(packed: Iterable[list]) -> list:
    """The canonical term lists, each kept once, in order."""
    return list({tuple(g): g for g in packed}.values())


def _packed_ideal(ring: RingDescriptor, ctx: EngineContext,
                  packed: list) -> Ideal:
    """The ideal generated by the canonical term lists ``packed`` of
    layout ``ctx``; its polynomials are built on first read."""
    J = Ideal(ring, ())
    J._polys = None
    J._terms = (ctx, packed)
    return J


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J by eliminating an auxiliary scalar t from t·I + (1−t)·J.

    The generators t·g and (t−1)·g (canonical, as t and t−1 are) are
    formed on I's and J's packed term lists, moved into the grevlex
    layout of the ring with t.
    """
    R = I.ring
    big = R.adjoin(("_t",))
    n = R.nvars
    ctx = grevlex_context(big)
    t_key = ctx.pack((0,) * n + (1,))
    minus_one = ctx.mod - 1 if ctx.mod is not None else -1
    factors = ([(t_key, 1)], [(t_key, 1), (ctx.one, minus_one)])
    gens = []
    for K, factor in zip((I, J), factors):
        src, packed = K.packed()
        gens += [engine.multiply(p, factor, ctx)
                 for p in engine.repack(packed, src, ctx)]
    return eliminate(_packed_ideal(big, ctx, gens), (n,))


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
    key = EngineContext(R.nvars, GREVLEX).pack
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


def _homogeneous(I: Ideal, weighted: bool = False) -> bool:
    """Every generator is homogeneous in total degree, or with
    ``weighted`` in the ring's weights; read off the packed keys."""
    ctx, packed = I.packed()
    deg = ctx.wdeg if weighted else ctx.deg
    for terms in packed:
        d = deg(terms[0][0])
        if any(deg(k) != d for k, _ in terms):
            return False
    return True


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

    The basis comes from a basis in that order by
    `GroebnerBasis.saturate_last`: strip each element's X_i power and
    interreduce.  The base B of I = B^s (I itself when it is no power
    from `ideal_power`) keeps the colon under (i, s), for s = 1 and the
    power last saturated by X_i, so a climb s = 1, 2, … strips each
    colon once.

    A power I = B^s (s ≥ 2) that holds no basis in that order is
    saturated through B, from the colon of B^{s−1} (built first when B
    does not hold it), as

        B^s : x^∞ = ((B^{s−1} : x^∞)·(B : x^∞)) : x^∞,

    by (A·C) : x^∞ = ((A : x^∞)·C) : x^∞ for ideals A and C, taken for
    A = B^{s−1}, C = B and then for A = B, C = B^{s−1} : x^∞:

        ⊆: A ⊆ A : x^∞.
        ⊇: if x^k·f ∈ A, then x^k·f·c ∈ A·C for every c ∈ C.

    The product's basis is the one stripped: its generators are close to
    the colon's basis, where B^s's own are not.

    The route is taken when the basis of B : x^∞ has no element of higher
    degree than B's generators, and the product has no generator of
    higher degree than B^s; otherwise B^s strips its own basis.  (When
    the colon needs higher degrees, as for a complete intersection of two
    quartics with base points on the line x = 0, whose colon has basis
    degrees up to 6, the product is the costlier basis.)  Both routes
    give the colon's one reduced basis.
    """
    if I.is_zero():
        return I
    _require_homogeneous(I)
    base, s = I._power_of or (I, 1)
    return _colon(base, i, s, I)


def _colon(B: Ideal, i: int, s: int, P: Optional[Ideal] = None) -> Ideal:
    """B^s : X_i^∞ with its reduced basis, X_i last, kept on B under
    (i, s); ``P`` is B^s when the caller holds it, else it is built if
    needed.  B keeps B : X_i^∞ and the colon of the power built last for
    X_i: the next power's colon needs only those two, and holding every
    power's colon raised peak memory."""
    J = B._colons.get((i, s))
    if J is None:
        order = grevlex_with_last(B.ring.nvars, i)
        if s > 1 and (P is None or order not in P._gb):
            J = _colon_through_base(B, i, s, order)
        if J is None:
            if P is None:
                P = ideal_power(B, s) if s > 1 else B
            J = _holding(P.groebner(order).saturate_last(i))
        if s > 1:
            for key in [k for k in B._colons if k[0] == i and k[1] > 1]:
                del B._colons[key]
        B._colons[(i, s)] = J
    return J


def _colon_through_base(B: Ideal, i: int, s: int,
                        order: TermOrder) -> Optional[Ideal]:
    """B^s : X_i^∞ by stripping the basis, in ``order``, of the product
    (B^{s−1} : X_i^∞)·(B : X_i^∞); None when a degree guard of
    `saturate_variable` fails."""
    first = _colon(B, i, 1)
    top = _top_degree(B)
    if _top_degree(first) > top:
        return None
    prev = _colon(B, i, s - 1)
    # the product's top degree, its factors being homogeneous
    if _top_degree(prev) + _top_degree(first) > s * top:
        return None
    # both colons hold their basis in ``order``, so share one key layout
    ctx, left = prev.packed()
    product = _packed_ideal(B.ring, ctx, _distinct(
        engine.multiply(f, g, ctx) for f in left for g in first.packed()[1]))
    return _holding(product.groebner(order).saturate_last(i))


def _top_degree(I: Ideal) -> int:
    """The largest total degree of a generator of I (homogeneous, nonzero),
    read off the packed lead keys."""
    ctx, packed = I.packed()
    return max(ctx.deg(terms[0][0]) for terms in packed)


def saturate_irrelevant(I: Ideal) -> Ideal:
    """(I : 𝔪^∞) where 𝔪 = (X_0,…,X_n), for generators homogeneous in
    total degree (else ValueError).

    J_i = I : X_i^∞ is tried for i = n, n−1, …, 0, and the first J_i with
    HP(R/J_i) = HP(R/I) (the whole polynomial, not just dimension and
    degree; `HilbertData.same_polynomial`: the two series differ by a
    polynomial) is I^sat:

        I^sat ⊆ J_i, because X_i ∈ 𝔪;
        HP(R/I^sat) = HP(R/I), because I^sat/I has finite length;
        so HP(R/J_i) = HP(R/I) makes J_i/I^sat of finite length,
        and then J_i ⊆ I^sat : 𝔪^∞ = I^sat.

    `saturate_variable` hands J_i over with its reduced basis in the
    order with X_i last, so `J_i.hilbert()` reads HS(R/J_i) off its leads
    at no extra Gröbner basis; the first try (X_n last) starts from
    I's own grevlex basis, which the target was read from.  When no
    variable passes, the per-variable saturations are intersected in the
    order they were built (I : 𝔪^∞ = ∩_i I : X_i^∞ for every ideal).

    A power I = B^s (s ≥ 2, from `ideal_power`) with dim R/B ≤ 1 needs
    no target: B is saturated, and the variable X_i that passed B's test
    saturates B^s, through B (`saturate_variable`).  So B^s gets no basis
    or Hilbert series of its own (unless a colon of B needs higher degrees
    than B, see `saturate_variable`), and B keeps the colons the next
    power starts from.
    Every prime over B is then a point of V(B), minimal over B, or 𝔪, so
    Ass(R/B^s) ⊆ Min(B) ∪ {𝔪}.  X_i passes B's test exactly when no point
    of V(B) over the algebraic closure lies on X_i = 0 (for a point
    P ∋ X_i, (B : X_i^∞)_P = R_P while B^sat ⊆ P), that is when
    √(B + (X_i)) = 𝔪; then X_i lies in no relevant associated prime of
    B^s and B^s : X_i^∞ = (B^s)^sat.  When no variable passed for B, the
    n + 1 colons of B^s are intersected untried.
    """
    if I.is_zero():
        return I
    _require_homogeneous(I)
    if I._power_of and I._power_of[1] > 1:
        base = I._power_of[0]
        if base.hilbert().krull_dim <= 1:
            base.saturation()
            if base._sat_by is not None:
                return saturate_variable(I, base._sat_by)
            return intersect_many([saturate_variable(I, i)
                                   for i in reversed(range(I.ring.nvars))])
    target = I.hilbert()
    pieces = []
    for i in reversed(range(I.ring.nvars)):
        J = saturate_variable(I, i)
        if J.hilbert().same_polynomial(target):
            I._sat_by = i
            return J
        pieces.append(J)
    return intersect_many(pieces)


def eliminate(I: Ideal, drop: Sequence[int],
              ring: Optional[RingDescriptor] = None) -> Ideal:
    """I ∩ k[kept variables], in ``ring`` when given (the kept variables,
    in ring order, with any weights), else in the subring.

    The result is generated by, and holds, its reduced grevlex basis: the
    elements of I's reduced basis in `elimination_order` with a block-free
    lead (hence block-free), which that order compares by grevlex on the
    kept variables; grevlex does not see the weights.
    """
    R = I.ring
    block = frozenset(drop)
    keep = [i for i in range(R.nvars) if i not in block]
    gb = I.groebner(elimination_order(block))
    exps = gb.ctx.exps
    return _holding(gb.carried(ring or R.subring(keep), keep,
                               lambda k: not any(exps(k)[i] for i in block)))


def _holding(gb: GroebnerBasis) -> Ideal:
    """The ideal generated by the reduced basis ``gb``, holding it; the
    elements, canonical already, are its packed generators as they are."""
    J = _packed_ideal(gb.ring, gb.ctx, gb.raw)
    J._gb[gb.ctx.order] = gb
    return J


# ---------------------------------------------------------------------------
# gcd via lattice of principal ideals

def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Multivariate gcd: f / (L / g), with L generating (f) ∩ (g)."""
    if f.is_zero():
        return _normalize_poly(g)
    if g.is_zero():
        return _normalize_poly(f)
    R = f.ring
    inter = intersect(Ideal(R, [f]), Ideal(R, [g]))
    gens = inter.generators
    if len(gens) != 1:
        raise ArithmeticError("principal intersection expected")
    return _normalize_poly(exact_divide(f, exact_divide(gens[0], g)))


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
    key = EngineContext(f.ring.nvars, GREVLEX).pack
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
    key = EngineContext(nvars, GREVLEX).pack
    monos.sort(key=key, reverse=True)
    return tuple(monos)
