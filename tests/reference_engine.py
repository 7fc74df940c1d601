# Frozen copy of the tuple-based engine that the packed-key engine replaced:
# terms are (key, (component,) + exponents, coeff) triples.  Kept only as
# the reference for tests/test_engine_packed.py; do not edit.
"""Internal Buchberger engine for ideals and free-module submodules.

Everything here works on a raw term-list representation: a polynomial
(or module element) is a list of ``(key, emono, coeff)`` triples sorted
by descending key, where ``emono = (component,) + exponents`` and
``key`` is an integer packing of the monomial order so that comparing
keys compares monomials.  Scalar polynomials are the component-0 case.

Coefficients are Python ints: over the rationals we keep polynomials
primitive (integer coefficients, content 1) and use fraction-free
pseudo-reduction; over GF(p) coefficients are residues and basis
elements are kept monic.

The public modules (`groebner`, `modules`) convert Polynomial values to
and from this representation.
"""

from __future__ import annotations

import heapq
from bisect import insort
from math import gcd as igcd

EXP_BITS = 16
EXP_CAP = (1 << EXP_BITS) - 1
# Strip integer content mid-reduction once coefficients pass this size.
STRIP_BITS = 2048


class EngineContext:
    """Monomial-order keys plus coefficient arithmetic for one computation."""

    def __init__(self, nvars, order, mod=None, ncomps=1, weights=None,
                 comp_offsets=None):
        self.nvars = nvars
        self.order = order
        self.mod = mod            # None → fraction-free integers (field = QQ)
        self.ncomps = ncomps
        self.weights = tuple(weights) if weights is not None else (1,) * nvars
        self.comp_offsets = tuple(comp_offsets) if comp_offsets is not None else (0,) * ncomps
        self.skey = self._scalar_key_closure()
        self.key = self._module_key_closure()
        # coprime (product) criterion is only valid for scalar ideals
        self.use_coprime = ncomps == 1

    def _scalar_key_closure(self):
        order = self.order
        nv = self.nvars
        var_order = order.var_order if order.var_order is not None else tuple(range(nv))
        rev = tuple(reversed(var_order))
        if order.kind == "grevlex":
            def skey(e, _rev=rev):
                k = 0
                t = 0
                for i in _rev:
                    ei = e[i]
                    t += ei
                    k = (k << EXP_BITS) | (EXP_CAP - ei)
                return (t << (EXP_BITS * nv)) | k
            return skey
        if order.kind == "lex":
            def skey(e, _ord=var_order):
                k = 0
                for i in _ord:
                    k = (k << EXP_BITS) | e[i]
                return k
            return skey
        if order.kind == "elim":
            block = order.block or frozenset()
            brev = tuple(i for i in rev if i in block)
            krev = tuple(i for i in rev if i not in block)
            def skey(e, _brev=brev, _krev=krev):
                kb = 0
                tb = 0
                for i in _brev:
                    ei = e[i]
                    tb += ei
                    kb = (kb << EXP_BITS) | (EXP_CAP - ei)
                kr = 0
                tr = 0
                for i in _krev:
                    ei = e[i]
                    tr += ei
                    kr = (kr << EXP_BITS) | (EXP_CAP - ei)
                k = (tb << (EXP_BITS * len(_brev))) | kb
                k = (k << EXP_BITS) | tr
                return (k << (EXP_BITS * len(_krev))) | kr
            return skey
        raise ValueError(f"unsupported order kind {order.kind!r}")

    def _module_key_closure(self):
        skey = self.skey
        if self.ncomps == 1:
            def key(em, _skey=skey):
                return _skey(em[1:])
            return key
        top = self.ncomps - 1
        # position over term: component rank dominates the scalar key,
        # component 0 first
        shift = EXP_BITS * (self.nvars + 3)
        def key(em, _skey=skey, _top=top, _shift=shift):
            return ((_top - em[0]) << _shift) | _skey(em[1:])
        return key

    def wdeg(self, em):
        w = self.weights
        d = self.comp_offsets[em[0]]
        for i in range(self.nvars):
            e = em[i + 1]
            if e:
                d += e * w[i]
        return d


# -- raw term-list helpers --------------------------------------------


def _normalize(terms, mod):
    """Canonical scale: monic over GF(p), primitive with positive lead over ZZ."""
    if not terms:
        return terms
    if mod is not None:
        c = terms[0][2]
        if c == 1:
            return terms
        inv = pow(c, mod - 2, mod)
        return [(k, em, (co * inv) % mod) for (k, em, co) in terms]
    g = 0
    for (_, _, co) in terms:
        g = igcd(g, co)
        if g == 1:
            break
    if terms[0][2] < 0:
        g = -g
    if g == 1:
        return terms
    return [(k, em, co // g) for (k, em, co) in terms]


def _strip_content(terms):
    g = 0
    for (_, _, co) in terms:
        g = igcd(g, co)
        if g == 1:
            return terms, 1
    if terms and terms[0][2] < 0:
        g = -g
    return [(k, em, co // g) for (k, em, co) in terms], g


def _axpy(a, f, b, shift, g, ctx):
    """a*f + b*(x^shift * g) as a merged, sorted term list."""
    mod = ctx.mod
    key = ctx.key
    nv = ctx.nvars
    out = []
    append = out.append
    i = j = 0
    nf, ng = len(f), len(g)
    no_shift = not any(shift)
    # current shifted-g term
    if j < ng:
        kg, emg, cg = g[j]
        if not no_shift:
            emg = (emg[0],) + tuple(emg[t + 1] + shift[t] for t in range(nv))
            kg = key(emg)
    while i < nf and j < ng:
        kf, emf, cf = f[i]
        if kf > kg:
            append((kf, emf, (a * cf) % mod if mod is not None else a * cf))
            i += 1
        elif kf < kg:
            append((kg, emg, (b * cg) % mod if mod is not None else b * cg))
            j += 1
            if j < ng:
                kg, emg, cg = g[j]
                if not no_shift:
                    emg = (emg[0],) + tuple(emg[t + 1] + shift[t] for t in range(nv))
                    kg = key(emg)
        else:
            c = (a * cf + b * cg) % mod if mod is not None else a * cf + b * cg
            if c:
                append((kf, emf, c))
            i += 1
            j += 1
            if j < ng:
                kg, emg, cg = g[j]
                if not no_shift:
                    emg = (emg[0],) + tuple(emg[t + 1] + shift[t] for t in range(nv))
                    kg = key(emg)
    while i < nf:
        kf, emf, cf = f[i]
        append((kf, emf, (a * cf) % mod if mod is not None else a * cf))
        i += 1
    while j < ng:
        append((kg, emg, (b * cg) % mod if mod is not None else b * cg))
        j += 1
        if j < ng:
            kg, emg, cg = g[j]
            if not no_shift:
                emg = (emg[0],) + tuple(emg[t + 1] + shift[t] for t in range(nv))
                kg = key(emg)
    return out


def _em_divides(a, b):
    if a[0] != b[0]:
        return False
    for x, y in zip(a[1:], b[1:]):
        if x > y:
            return False
    return True


class _Basis:
    """Growing reducer set with leads indexed ascending for prefix scans."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.entries = []       # (terms, lead_key, lead_em, lead_coeff, sugar)
        self.by_key = []        # sorted (lead_key, index)

    def add(self, terms, sugar):
        idx = len(self.entries)
        k, em, c = terms[0]
        self.entries.append((terms, k, em, c, sugar))
        insort(self.by_key, (k, idx))
        return idx

    def find_reducer(self, key, em, skip=-1):
        # a divisor's key never exceeds the multiple's key
        for lk, idx in self.by_key:
            if lk > key:
                return None
            if idx == skip:
                continue
            ent = self.entries[idx]
            if _em_divides(ent[2], em):
                return ent
        return None


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
        k, em, c = terms[idx]
        ent = basis.find_reducer(k, em, skip)
        if ent is None:
            idx += 1
            continue
        rterms, rk, rem, rc, rsugar = ent
        shift = tuple(em[t + 1] - rem[t + 1] for t in range(ctx.nvars))
        if mod is not None:
            terms = _axpy(1, terms, (-c) % mod, shift, rterms, ctx)
        else:
            g = igcd(c, rc)
            a = rc // g
            if a < 0:
                a = -a
                b = c // g
            else:
                b = -(c // g)
            terms = _axpy(a, terms, b, shift, rterms, ctx)
            if track_scale:
                num *= a
            if terms and terms[0][2].bit_length() > STRIP_BITS:
                terms, stripped = _strip_content(terms)
                if track_scale:
                    den *= stripped
        sg = rsugar + ctx.wdeg((0,) + shift) - ctx.comp_offsets[0]
        if sg > sugar:
            sugar = sg
        # terms[:idx] kept their monomials; scaling cannot make them reducible
    if mod is None and terms:
        terms, stripped = _strip_content(terms)
        if track_scale:
            den *= stripped
    return terms, sugar, (num, den)


def _spoly(ei, ej, ctx):
    """S-polynomial of two basis entries with a common lead component."""
    ti, ki, emi, ci, si = ei
    tj, kj, emj, cj, sj = ej
    nv = ctx.nvars
    lcm = tuple(max(emi[t + 1], emj[t + 1]) for t in range(nv))
    ui = tuple(lcm[t] - emi[t + 1] for t in range(nv))
    uj = tuple(lcm[t] - emj[t + 1] for t in range(nv))
    wi = si + sum(ui[t] * ctx.weights[t] for t in range(nv))
    wj = sj + sum(uj[t] * ctx.weights[t] for t in range(nv))
    sugar = wi if wi > wj else wj
    if ctx.mod is not None:
        s = _axpy(1, _shift_terms(ti, ui, ctx), ctx.mod - 1, uj, tj, ctx)
    else:
        g = igcd(ci, cj)
        s = _axpy(cj // g, _shift_terms(ti, ui, ctx), -(ci // g), uj, tj, ctx)
    return s, sugar


def _shift_terms(terms, shift, ctx):
    if not any(shift):
        return terms
    key = ctx.key
    nv = ctx.nvars
    out = []
    for (_, em, c) in terms:
        em2 = (em[0],) + tuple(em[t + 1] + shift[t] for t in range(nv))
        out.append((key(em2), em2, c))
    return out


def _em_lcm(a, b):
    return (a[0],) + tuple(max(x, y) for x, y in zip(a[1:], b[1:]))


def _em_equal(a, b):
    return a == b


def groebner_raw(gens, ctx):
    """Buchberger with Gebauer–Möller pair elimination and sugar selection.

    ``gens``: raw term lists (normalized or not).  Returns the reduced
    basis as a list of normalized term lists sorted by ascending lead key.
    """
    basis = _Basis(ctx)
    pairs = []          # heap of (sugar, lcm_key, i, j)
    alive = {}          # (i, j) -> lcm_em, or None once dropped
    lcms = {}

    def update_pairs(h_idx):
        # Gebauer–Möller update after appending element h_idx
        ents = basis.entries
        th, kh, emh, ch, sh = ents[h_idx]
        cand = []
        for i in range(h_idx):
            emi = ents[i][2]
            if emi[0] != emh[0]:
                continue
            cand.append((i, _em_lcm(emi, emh)))
        # drop new pairs whose lcm is a strict multiple of another new lcm;
        # among equal lcms keep one, preferring a coprime pair (which then
        # kills the whole class)
        kept = []
        for i, L in cand:
            dominated = False
            for j, L2 in cand:
                if j == i:
                    continue
                if _em_divides(L2, L) and not _em_equal(L2, L):
                    dominated = True
                    break
            if not dominated:
                kept.append((i, L))
        # group equal lcms
        groups = {}
        for i, L in kept:
            groups.setdefault(L, []).append(i)
        new_pairs = []
        for L, members in groups.items():
            if ctx.use_coprime:
                coprime = False
                for i in members:
                    emi = basis.entries[i][2]
                    if all(min(emi[t + 1], emh[t + 1]) == 0 for t in range(ctx.nvars)):
                        coprime = True
                        break
                if coprime:
                    continue
            new_pairs.append((min(members), L))
        # Buchberger chain criterion against existing pairs
        for (i, j), L in list(lcms.items()):
            if alive.get((i, j)) is None:
                continue
            if L[0] == emh[0] and _em_divides(emh, L):
                Lih = _em_lcm(basis.entries[i][2], emh)
                Ljh = _em_lcm(basis.entries[j][2], emh)
                if not _em_equal(Lih, L) and not _em_equal(Ljh, L):
                    alive[(i, j)] = None
        for i, L in new_pairs:
            ei = basis.entries[i]
            ui = tuple(L[t + 1] - ei[2][t + 1] for t in range(ctx.nvars))
            uh = tuple(L[t + 1] - emh[t + 1] for t in range(ctx.nvars))
            wi = ei[4] + sum(ui[t] * ctx.weights[t] for t in range(ctx.nvars))
            wh = sh + sum(uh[t] * ctx.weights[t] for t in range(ctx.nvars))
            sg = wi if wi > wh else wh
            alive[(i, h_idx)] = L
            lcms[(i, h_idx)] = L
            heapq.heappush(pairs, (sg, ctx.key(L), i, h_idx))

    for g in gens:
        if not g:
            continue
        g = _normalize(sorted(g, key=lambda t: t[0], reverse=True), ctx.mod)
        nf, sugar, _ = _reduce_full(g, ctx.wdeg(g[0][1]), basis, ctx)
        if nf:
            nf = _normalize(nf, ctx.mod)
            update_pairs(basis.add(nf, sugar))

    while pairs:
        sg, lk, i, j = heapq.heappop(pairs)
        if alive.get((i, j)) is None:
            continue
        alive[(i, j)] = None
        s, sugar = _spoly(basis.entries[i], basis.entries[j], ctx)
        if not s:
            continue
        nf, sugar, _ = _reduce_full(s, sugar, basis, ctx)
        if nf:
            nf = _normalize(nf, ctx.mod)
            update_pairs(basis.add(nf, sugar))

    return _interreduce([e[0] for e in basis.entries], ctx)


def _interreduce(polys, ctx):
    """Minimalize leads, tail-reduce everything, sort ascending by lead."""
    polys = [p for p in polys if p]
    # minimal leads: drop any element whose lead is divisible by another's
    keep = []
    for i, p in enumerate(polys):
        k, em, _ = p[0]
        redundant = False
        for j, q in enumerate(polys):
            if i == j:
                continue
            k2, em2, _ = q[0]
            if _em_divides(em2, em) and (not _em_equal(em2, em) or j < i):
                redundant = True
                break
        if not redundant:
            keep.append(p)
    keep.sort(key=lambda p: p[0][0])
    basis = _Basis(ctx)
    for p in keep:
        basis.add(p, ctx.wdeg(p[0][1]))
    out = []
    for idx, p in enumerate(keep):
        nf, _, _ = _reduce_full(p, ctx.wdeg(p[0][1]), basis, ctx, skip=idx)
        out.append(_normalize(nf, ctx.mod))
    out.sort(key=lambda p: p[0][0])
    return out


def normal_form_raw(terms, gb_list, ctx, track_scale=True):
    """Normal form against a fixed (reduced) basis list.

    Returns (terms, (num, den)): over ZZ the true remainder of the input
    is terms · den / num; over GF(p) the scale is always (1, 1).
    """
    if not terms:
        return terms, (1, 1)
    basis = _Basis(ctx)
    for p in gb_list:
        basis.add(p, ctx.wdeg(p[0][1]))
    terms = sorted(terms, key=lambda t: t[0], reverse=True)
    nf, _, scale = _reduce_full(terms, ctx.wdeg(terms[0][1]), basis, ctx,
                                track_scale=track_scale)
    return nf, scale
