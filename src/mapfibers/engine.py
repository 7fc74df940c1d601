"""Internal Buchberger engine for ideals and free-module submodules.

A polynomial (or module element) is a list of ``(key, coeff)`` pairs
sorted by descending key.  The key is the monomial itself, packed into
one integer: EXP_BITS-wide fields, one per variable plus the order's
total-degree fields, laid out so that comparing keys compares monomials.
Variable fields hold ``e`` (lex) or ``EXP_CAP - e`` (the reverse-lex
orders); for modules the component's rank sits in the bits above the
scalar fields (position over term).  Scalar polynomials are the
component-0 case.

Every field is affine in the exponent vector, hence so is the key:

    key(x^u · m) = key(m) + key(x^u) − key(1)

A shift by x^u is one integer add of ``delta = key(x^u·m) − key(m)``,
divisibility is one subtract-and-mask test on the top (guard) bit of
each field, and exponents are unpacked only to form the lcm of a pair
and at the conversion boundary in `groebner`.  This holds
while every field stays within [0, EXP_CAP], so the total degree of each
monomial the engine forms is capped at EXP_CAP: packing raises
ArithmeticError past it, and every reduction step checks that the
shifted reducer stays within it.

Coefficients are Python ints: over the rationals we keep polynomials
primitive (integer coefficients, content 1) and use fraction-free
pseudo-reduction; over GF(p) coefficients are residues and basis
elements are kept monic.
"""

from __future__ import annotations

import heapq
from bisect import insort
from math import gcd as igcd

EXP_BITS = 16
# The top bit of each field is a guard for the divisibility test, so an
# exponent (and a total degree) may use the other EXP_BITS - 1 bits.
EXP_CAP = (1 << (EXP_BITS - 1)) - 1
_MASK = (1 << EXP_BITS) - 1
# Strip integer content mid-reduction once coefficients pass this size.
STRIP_BITS = 2048


def _over_cap(what, value):
    return ArithmeticError(f"{what} {value} exceeds the monomial cap {EXP_CAP}")


class EngineContext:
    """Packed monomial keys plus coefficient arithmetic for one computation."""

    def __init__(self, nvars, order, mod=None, ncomps=1, comp_rank=None,
                 weights=None, comp_offsets=None):
        self.nvars = nvars
        self.order = order
        self.mod = mod            # None → fraction-free integers (field = QQ)
        self.ncomps = ncomps
        if comp_rank is None:
            comp_rank = tuple(ncomps - 1 - c for c in range(ncomps))
        self.comp_rank = tuple(comp_rank)
        self.weights = tuple(weights) if weights is not None else (1,) * nvars
        self.comp_offsets = tuple(comp_offsets) if comp_offsets is not None else (0,) * ncomps
        # coprime (product) criterion is only valid for scalar ideals
        self.use_coprime = ncomps == 1
        self._layout(order)

    def _layout(self, order):
        nv = self.nvars
        var_order = order.var_order if order.var_order is not None else tuple(range(nv))
        rev = tuple(reversed(var_order))
        every = frozenset(range(nv))
        # fields from most to least significant: a variable index, or the
        # set of variables whose total degree the field holds
        if order.kind == "grevlex":
            fields = [every, *rev]
        elif order.kind == "lex":
            fields = [*var_order, every]
        elif order.kind == "elim":
            block = order.block or frozenset()
            fields = [block, *(i for i in rev if i in block),
                      every - block, *(i for i in rev if i not in block)]
        else:
            raise ValueError(f"unsupported order kind {order.kind!r}")
        self.reverse = reverse = order.kind != "lex"
        cols = [0] * nv           # key(e) = one + Σ e_i · cols[i]
        one = guards = var_guards = 0
        var_shift = [0] * nv
        total_shifts = []
        for pos, f in enumerate(reversed(fields)):
            shift = EXP_BITS * pos
            guard = 1 << (shift + EXP_BITS - 1)
            guards |= guard
            if isinstance(f, int):
                var_guards |= guard
                var_shift[f] = shift
                if reverse:
                    one += EXP_CAP << shift
                    cols[f] -= 1 << shift
                else:
                    cols[f] += 1 << shift
            else:
                total_shifts.append(shift)
                for i in f:
                    cols[i] += 1 << shift
        # position over term: component rank dominates the scalar key
        cshift = self.cshift = EXP_BITS * (nv + 3)
        self.rank_bits = tuple(r << cshift for r in self.comp_rank)
        self.comp_of_rank = {r: c for c, r in enumerate(self.comp_rank)}
        self.one = one
        self.guards = guards
        self.var_guards = var_guards
        # a nonzero rank difference shows in these bits of (a + guards − b)
        width = max(self.comp_rank, default=0).bit_length() + 1
        self.test_mask = var_guards | (((1 << width) - 1) << cshift)

        cols = tuple(cols)

        def pack(e):
            d = sum(e)
            if d > EXP_CAP:
                big = max(e)
                raise (_over_cap("exponent", big) if big > EXP_CAP
                       else _over_cap("total degree", d))
            k = one
            for x, c in zip(e, cols):
                if x:
                    k += x * c
            return k
        self.pack = pack

        shifts = tuple(var_shift)
        if reverse:
            def exps(k):
                return tuple(EXP_CAP - ((k >> s) & _MASK) for s in shifts)
        else:
            def exps(k):
                return tuple((k >> s) & _MASK for s in shifts)
        self.exps = exps

        if len(total_shifts) == 1:
            (s0,) = total_shifts

            def deg(k):
                return (k >> s0) & _MASK
        else:
            s1, s0 = total_shifts

            def deg(k):
                return ((k >> s0) & _MASK) + ((k >> s1) & _MASK)
        self.deg = deg

        w = self.weights
        if all(x == 1 for x in w):
            self.wdeg = deg
        else:
            def wdeg(k):
                return sum(a * b for a, b in zip(w, exps(k)) if b)
            self.wdeg = wdeg

        g, t, v = guards, self.test_mask, var_guards
        if reverse:
            def divides(a, b):
                return ((a - b + g) & t) == v
        else:
            def divides(a, b):
                return ((b - a + g) & t) == v
        self.divides = divides

    def pack_comp(self, c, e):
        """Key of the monomial x^e in component c."""
        return self.rank_bits[c] + self.pack(e)

    def comp(self, k):
        return self.comp_of_rank[k >> self.cshift]

    def lcm(self, a, b):
        """Key of lcm(a, b) for two keys in one component."""
        ea, eb = self.exps(a), self.exps(b)
        return ((a >> self.cshift) << self.cshift) + self.pack(
            tuple(x if x > y else y for x, y in zip(ea, eb)))

    def sugar(self, k):
        """Weighted degree of a key, component offset included."""
        return self.comp_offsets[self.comp(k)] + self.wdeg(k)


# -- raw term-list helpers --------------------------------------------


def _normalize(terms, mod):
    """Canonical scale: monic over GF(p), primitive with positive lead over ZZ."""
    if not terms:
        return terms
    if mod is not None:
        c = terms[0][1]
        if c == 1:
            return terms
        inv = pow(c, mod - 2, mod)
        return [(k, (co * inv) % mod) for (k, co) in terms]
    g = 0
    for (_, co) in terms:
        g = igcd(g, co)
        if g == 1:
            break
    if terms[0][1] < 0:
        g = -g
    if g == 1:
        return terms
    return [(k, co // g) for (k, co) in terms]


def _strip_content(terms):
    g = 0
    for (_, co) in terms:
        g = igcd(g, co)
        if g == 1:
            return terms, 1
    if terms and terms[0][1] < 0:
        g = -g
    return [(k, co // g) for (k, co) in terms], g


def _axpy(a, f, b, delta, g, mod):
    """a*f + b*(x^u * g) as a merged, sorted term list.

    ``delta`` is key(x^u) − key(1): adding it to a key multiplies by x^u.
    """
    if a != 1:
        f = [(k, (a * c) % mod if mod is not None else a * c) for (k, c) in f]
    out = []
    append = out.append
    i, nf = 0, len(f)
    for kg, cg in g:
        kg += delta
        while i < nf and f[i][0] > kg:
            append(f[i])
            i += 1
        c = b * cg
        if i < nf and f[i][0] == kg:
            c += f[i][1]
            i += 1
        if mod is not None:
            c %= mod
        if c:
            append((kg, c))
    out.extend(f[i:])
    return out


class _Basis:
    """Growing reducer set with leads indexed ascending for prefix scans."""

    def __init__(self, ctx, polys=()):
        self.ctx = ctx
        # (terms, lead_key, lead_coeff, sugar, max_total_degree, lead_wdeg)
        self.entries = []
        self.by_key = []        # sorted (lead_key, index)
        for p in polys:
            self.add(p, ctx.sugar(p[0][0]))

    def add(self, terms, sugar):
        ctx = self.ctx
        idx = len(self.entries)
        k, c = terms[0]
        deg = ctx.deg
        self.entries.append((terms, k, c, sugar, max(deg(t[0]) for t in terms),
                             ctx.wdeg(k)))
        insort(self.by_key, (k, idx))
        return idx

    def find_reducer(self, key, skip=-1):
        ctx = self.ctx
        test, want = ctx.test_mask, ctx.var_guards
        # a divisor's key never exceeds the multiple's key
        if ctx.reverse:
            base = ctx.guards - key
            for lk, idx in self.by_key:
                if lk > key:
                    return None
                if ((lk + base) & test) == want and idx != skip:
                    return self.entries[idx]
        else:
            base = key + ctx.guards
            for lk, idx in self.by_key:
                if lk > key:
                    return None
                if ((base - lk) & test) == want and idx != skip:
                    return self.entries[idx]
        return None


def _shift_delta(ent, target, ctx):
    """key(u) − key(1) for x^u = target / lead(ent), after checking that
    x^u times every term of ``ent`` stays within the cap."""
    delta = target - ent[1]
    d = ctx.deg(delta + ctx.one) + ent[4]
    if d > EXP_CAP:
        raise _over_cap("total degree", d)
    return delta


def _reduce_full(terms, sugar, basis, ctx, skip=-1, track_scale=False):
    """Full normal form of ``terms`` against ``basis``.

    Returns (reduced_terms, sugar, scale) where, over ZZ, the result
    equals scale · (input mod ideal): fraction-free steps multiply the
    running polynomial, and ``scale`` accumulates those factors as a
    pair (num, den) so callers can recover the exact normal form.
    """
    mod = ctx.mod
    num, den = 1, 1
    idx = 0
    while idx < len(terms):
        k, c = terms[idx]
        ent = basis.find_reducer(k, skip)
        if ent is None:
            idx += 1
            continue
        rterms, rk, rc, rsugar = ent[:4]
        delta = _shift_delta(ent, k, ctx)
        if mod is not None:
            terms = _axpy(1, terms, (-c) % mod, delta, rterms, mod)
        else:
            g = igcd(c, rc)
            a = rc // g
            if a < 0:
                a = -a
                b = c // g
            else:
                b = -(c // g)
            terms = _axpy(a, terms, b, delta, rterms, None)
            if track_scale:
                num *= a
            if terms and terms[0][1].bit_length() > STRIP_BITS:
                terms, stripped = _strip_content(terms)
                if track_scale:
                    den *= stripped
        sg = rsugar + ctx.wdeg(delta + ctx.one)
        if sg > sugar:
            sugar = sg
        # terms[:idx] kept their monomials; scaling cannot make them reducible
    if mod is None and terms:
        terms, stripped = _strip_content(terms)
        if track_scale:
            den *= stripped
    return terms, sugar, (num, den)


def _spoly(ei, ej, lcm, ctx):
    """S-polynomial of two basis entries whose leads have lcm key ``lcm``."""
    di = _shift_delta(ei, lcm, ctx)
    dj = _shift_delta(ej, lcm, ctx)
    ti = [(k + di, c) for (k, c) in ei[0]] if di else ei[0]
    if ctx.mod is not None:
        return _axpy(1, ti, ctx.mod - 1, dj, ej[0], ctx.mod)
    ci, cj = ei[2], ej[2]
    g = igcd(ci, cj)
    return _axpy(cj // g, ti, -(ci // g), dj, ej[0], None)


def groebner_raw(gens, ctx):
    """Buchberger with Gebauer–Möller pair elimination and sugar selection.

    ``gens``: raw term lists (normalized or not).  Returns the reduced
    basis as a list of normalized term lists sorted by ascending lead key.
    """
    basis = _Basis(ctx)
    ents = basis.entries
    divides = ctx.divides
    pairs = []          # heap of (sugar, lcm_key, i, j)
    live = {}           # (i, j) -> lcm key, for pairs not yet dropped or done

    def update_pairs(h):
        # Gebauer–Möller update after appending element h
        kh, sh, wh = ents[h][1], ents[h][3], ents[h][5]
        high = kh >> ctx.cshift
        cand = {i: ctx.lcm(ents[i][1], kh) for i in range(h)
                if ents[i][1] >> ctx.cshift == high}
        # drop new pairs whose lcm is a strict multiple of another new lcm;
        # among equal lcms keep one, preferring a coprime pair (which then
        # kills the whole class)
        groups = {}
        for i, L in cand.items():
            if not any(j != i and L2 != L and divides(L2, L)
                       for j, L2 in cand.items()):
                groups.setdefault(L, []).append(i)
        new_pairs = []
        for L, members in groups.items():
            if ctx.use_coprime and any(L == ents[i][1] + kh - ctx.one
                                       for i in members):
                continue
            new_pairs.append((min(members), L))
        # Buchberger chain criterion against existing pairs
        for (i, j), L in list(live.items()):
            if divides(kh, L) and cand[i] != L and cand[j] != L:
                del live[(i, j)]
        for i, L in new_pairs:
            wl = ctx.wdeg(L)
            wi = ents[i][3] + wl - ents[i][5]
            wj = sh + wl - wh
            live[(i, h)] = L
            heapq.heappush(pairs, (wi if wi > wj else wj, L, i, h))

    for g in gens:
        if not g:
            continue
        g = _normalize(sorted(g, key=lambda t: t[0], reverse=True), ctx.mod)
        nf, sugar, _ = _reduce_full(g, ctx.sugar(g[0][0]), basis, ctx)
        if nf:
            update_pairs(basis.add(_normalize(nf, ctx.mod), sugar))

    while pairs:
        sg, L, i, j = heapq.heappop(pairs)
        if live.pop((i, j), None) is None:
            continue
        s = _spoly(ents[i], ents[j], L, ctx)
        if not s:
            continue
        nf, sugar, _ = _reduce_full(s, sg, basis, ctx)
        if nf:
            update_pairs(basis.add(_normalize(nf, ctx.mod), sugar))

    return _interreduce([e[0] for e in ents], ctx)


def _interreduce(polys, ctx):
    """Minimalize leads, tail-reduce everything, sort ascending by lead."""
    polys = [p for p in polys if p]
    divides = ctx.divides
    # minimal leads: drop any element whose lead is divisible by another's
    keep = [p for i, p in enumerate(polys)
            if not any(j != i and divides(q[0][0], p[0][0])
                       and (q[0][0] != p[0][0] or j < i)
                       for j, q in enumerate(polys))]
    keep.sort(key=lambda p: p[0][0])
    basis = _Basis(ctx, keep)
    out = []
    for idx, p in enumerate(keep):
        nf, _, _ = _reduce_full(p, ctx.sugar(p[0][0]), basis, ctx, skip=idx)
        out.append(_normalize(nf, ctx.mod))
    out.sort(key=lambda p: p[0][0])
    return out


def normal_form_raw(terms, basis, ctx):
    """Normal form against the reducer set ``basis`` (a `_Basis`).

    Returns (terms, (num, den)): over ZZ the true remainder of the input
    is terms · den / num; over GF(p) the scale is always (1, 1).
    """
    if not terms:
        return terms, (1, 1)
    terms = sorted(terms, key=lambda t: t[0], reverse=True)
    nf, _, scale = _reduce_full(terms, ctx.sugar(terms[0][0]), basis, ctx,
                                track_scale=True)
    return nf, scale
