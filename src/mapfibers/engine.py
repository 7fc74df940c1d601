"""Internal Buchberger engine for ideals and free-module submodules.

A polynomial (or module element) is a list of ``(key, coeff)`` pairs
sorted by descending key.  The key is the monomial itself, packed into
one integer: EXP_BITS-wide fields, one per variable plus the order's
total-degree fields, laid out so that comparing keys compares monomials.
Variable fields hold ``EXP_CAP - e``, since every supported order is
reverse-lex below its total-degree fields; under non-unit variable
weights one wider field below them holds the weighted degree, which
breaks no tie because the fields above it already fix the monomial; for
modules the rank ncomps − 1 − c of component c sits above the scalar
fields (position over term, component 0 first); scalars are component 0.

Schreyer's induced orders are one more layout: an index field of
``index_bits`` bits below every other field.  The key of x^a·e_i is
key(x^a·lm(g_i)) with i in the index field, so a shift is still one add,
and divisibility is still one mask test, which also asks the index
fields to be equal (`schreyer_syzygies`).  A key of the plain layout
shifted up by ``index_bits`` is the same monomial's key at index 0.

Every field is affine in the exponent vector, hence so is the key:

    key(x^u · m) = key(m) + key(x^u) − key(1)

A shift by x^u is one integer add of ``delta = key(x^u·m) − key(m)``,
divisibility is one subtract-and-mask test on the top (guard) bit of
each field, the weighted degree is one mask, and exponents are unpacked
only to cache each basis lead's exponents (for the lcms of its pairs)
and at the conversion boundary in `groebner`.  The same identity makes a
product of polynomials a sum of key pairs (`multiply`) and moves a key
into another layout field by field (`repack`).  This holds while every
field stays within [0, EXP_CAP] (the weighted field within max weight ·
EXP_CAP), so the total degree of each monomial the engine forms is
capped at EXP_CAP: packing raises ArithmeticError past it, and every
reduction step checks that the shifted reducer stays within it.

Reduction never merges sorted lists.  The unexamined part of the running
polynomial is a dict key → coefficient with a heap of its keys: the
largest key is popped, and a reducible term adds b · x^u · tail(reducer)
into the dict, pushing only keys it had not held; irreducible terms are
appended to the output, which comes out in descending order.  An
S-polynomial is built the same way from the two tails.

Coefficients are Python ints: over the rationals we keep polynomials
primitive (integer coefficients, content 1) and use fraction-free
pseudo-reduction, multiplying the factor into the dict and the output
and stripping the content once the lead passes STRIP_BITS; over GF(p)
coefficients are reduced mod p only when popped, and basis elements are
kept monic.

Hilbert-driven Buchberger (Traverso, *Hilbert functions and the
Buchberger algorithm*, JSC 22, 1997).  `groebner_raw` may be handed the
numerator of the quotient's Hilbert series over ∏_i (1 − z^{w_i}) in the
sugar grading (``ctx.wdeg``), for a scalar ideal whose generators are
homogeneous in it.  Pairs then come out by degree, and LT(G) ⊆ LT(I)
gives HF_{LT(G)}(δ) ≥ HF_I(δ), with equality exactly when every element
of I of degree δ reduces to zero.  At the first pair of degree δ the
engine computes that deficit; each new lead of degree δ lowers it by
exactly one (its only multiple of degree δ is itself).  At deficit 0 the
rest of degree δ is dropped, and once LT(G) has the hinted numerator the
loop stops, since then LT(G) = LT(I).  The numerator of LT(G) is kept
current at one colon numerator per new lead,

    N(J + (m)) = N(J) − z^{deg m} · N(J : m),

and at the end it must equal the hint, else ArithmeticError.  So a hint
below the true series always raises; one above it raises when a deficit
turns negative or the leads end elsewhere, and could otherwise pass with
a wrong basis, which is why callers hint only certified series.
"""

from __future__ import annotations

import heapq
from bisect import insort
from itertools import chain, islice
from math import gcd as igcd

from .hilbert import numerator_from_leads

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

    def __init__(self, nvars, order, mod=None, ncomps=1, weights=None,
                 comp_offsets=None, index_bits=0):
        self.nvars = nvars
        self.order = order
        self.mod = mod            # None → fraction-free integers (field = QQ)
        self.ncomps = ncomps
        self.weights = tuple(weights) if weights is not None else (1,) * nvars
        self.comp_offsets = tuple(comp_offsets) if comp_offsets is not None else (0,) * ncomps
        self.index_bits = index_bits
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
        elif order.kind == "elim":
            block = order.block or frozenset()
            fields = [block, *(i for i in rev if i in block),
                      every - block, *(i for i in rev if i not in block)]
        else:
            raise ValueError(f"unsupported order kind {order.kind!r}")
        w = self.weights
        if any(x < 0 for x in w):
            raise ValueError(f"negative variable weight in {w}")
        # under non-unit weights the least significant field above the
        # index field holds the weighted degree, wide enough that
        # max(w) · EXP_CAP stays below its guard bit; the fields above it
        # decide the order on their own
        ib = self.index_bits
        wlow = EXP_BITS + max(w).bit_length() if any(x != 1 for x in w) else 0
        low = ib + wlow
        cols = [0] * nv           # key(e) = one + Σ e_i · cols[i]
        one = guards = var_guards = 0
        var_shift = [0] * nv
        total_shifts = []
        for pos, f in enumerate(reversed(fields)):
            shift = low + EXP_BITS * pos
            guard = 1 << (shift + EXP_BITS - 1)
            guards |= guard
            if isinstance(f, int):
                var_guards |= guard
                var_shift[f] = shift
                one += EXP_CAP << shift
                cols[f] -= 1 << shift
            else:
                total_shifts.append(shift)
                for i in f:
                    cols[i] += 1 << shift
        if wlow:
            guards |= 1 << (low - 1)
            cols = [c + (x << ib) for c, x in zip(cols, w)]
        # position over term: component rank dominates the scalar key
        cshift = self.cshift = low + EXP_BITS * (nv + 3)
        self.rank_bits = tuple((self.ncomps - 1 - c) << cshift
                               for c in range(self.ncomps))
        self.one = one
        self.guards = guards
        self.var_guards = var_guards
        # a nonzero rank difference shows in these bits of (a + guards − b)
        # and a nonzero index difference in the index field
        width = (self.ncomps - 1).bit_length() + 1
        self.index_mask = (1 << ib) - 1
        self.test_mask = (var_guards | (((1 << width) - 1) << cshift)
                          | self.index_mask)

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

        shifts = self.var_shift = tuple(var_shift)

        def exps(k):
            return tuple(EXP_CAP - ((k >> s) & _MASK) for s in shifts)
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

        if wlow:
            wmask = (1 << wlow) - 1

            def wdeg(k):
                return (k >> ib) & wmask
            self.wdeg = wdeg
        else:
            self.wdeg = deg

        g, t, v = guards, self.test_mask, var_guards

        def divides(a, b):
            return ((a - b + g) & t) == v
        self.divides = divides

    def comp(self, k):
        return self.ncomps - 1 - (k >> self.cshift)

    def lcm(self, k, ea, eb):
        """Key of lcm(x^ea, x^eb) in the component of key ``k``."""
        return ((k >> self.cshift) << self.cshift) + self.pack(
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


def _strip_content(out, acc, head=0):
    """Divide a running polynomial by its integer content, sign included.

    The polynomial is the output list ``out``, the head coefficient
    ``head`` (0 when it is not part of it) and the unexamined dict
    ``acc``, which is divided in place; the first of ``out`` and ``head``
    is its lead.  Returns (out, head, content).
    """
    g = 0
    for co in chain((x for _, x in out), (head,), acc.values()):
        g = igcd(g, co)
        if g == 1:
            return out, head, 1
    if (out[0][1] if out else head) < 0:
        g = -g
    for k in acc:
        acc[k] //= g
    return [(k, x // g) for (k, x) in out], head // g, g


def _add_tail(acc, heap, b, delta, terms):
    """acc += b · x^u · tail(terms), where delta = key(x^u) − key(1);
    each key new to ``acc`` goes onto ``heap``, negated."""
    push, get = heapq.heappush, acc.get
    for k, c in islice(terms, 1, None):
        k += delta
        old = get(k)
        if old is None:
            acc[k] = b * c
            push(heap, -k)
        else:
            acc[k] = old + b * c


class _Basis:
    """Growing reducer set of canonical term lists (`_normalize`), with
    leads indexed ascending for prefix scans."""

    def __init__(self, ctx, polys=()):
        self.ctx = ctx
        # (terms, lead_key, lead_coeff, sugar, max_total_degree, lead_wdeg,
        #  lead_exponents)
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
                             ctx.wdeg(k), ctx.exps(k)))
        insort(self.by_key, (k, idx))
        return idx

    def find_reducer(self, key, skip=-1):
        ctx = self.ctx
        test, want = ctx.test_mask, ctx.var_guards
        # a divisor's key never exceeds the multiple's key
        base = ctx.guards - key
        for lk, idx in self.by_key:
            if lk > key:
                return None
            if ((lk + base) & test) == want and idx != skip:
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


def _reduce(acc, heap, sugar, basis, ctx, skip=-1, track_scale=False):
    """Full normal form of the polynomial held in ``acc`` and ``heap``.

    ``acc`` maps each key of the unexamined part to its coefficient (zero
    allowed; over GF(p) not yet reduced mod p) and ``heap`` holds each of
    those keys once, negated.  The largest key is popped; a reducible term
    adds b · x^u · tail(reducer) into ``acc``, an irreducible one goes to
    the output, which therefore comes out sorted by descending key.

    Returns (reduced_terms, sugar, scale) where, over ZZ, the result
    equals scale · (input mod ideal): fraction-free steps multiply the
    running polynomial, and ``scale`` accumulates those factors as a
    pair (num, den) so callers can recover the exact normal form.
    """
    mod = ctx.mod
    one, wdeg = ctx.one, ctx.wdeg
    find = basis.find_reducer
    pop = heapq.heappop
    out = []
    num = den = 1
    check_head = False      # the content test waits for the next lead
    while heap:
        k = -pop(heap)
        c = acc.pop(k)
        if mod is not None:
            c %= mod
        if not c:
            continue
        if check_head:
            check_head = False
            if c.bit_length() > STRIP_BITS:
                out, c, stripped = _strip_content(out, acc, c)
                if track_scale:
                    den *= stripped
        ent = find(k, skip)
        if ent is None:
            out.append((k, c))
            continue
        rterms, _, rc, rsugar = ent[:4]
        delta = _shift_delta(ent, k, ctx)
        if mod is not None:
            _add_tail(acc, heap, mod - c, delta, rterms)
        else:
            # every reducer is canonical, so its lead rc is positive
            g = igcd(c, rc)
            a, b = rc // g, -(c // g)
            if a != 1:
                for t in acc:
                    acc[t] *= a
                out = [(t, x * a) for (t, x) in out]
                if track_scale:
                    num *= a
            _add_tail(acc, heap, b, delta, rterms)
            # the output's lead, or else the next nonzero key, leads the
            # running polynomial; strip when its coefficient grows too big
            if not out:
                check_head = True
            elif out[0][1].bit_length() > STRIP_BITS:
                out, _, stripped = _strip_content(out, acc)
                if track_scale:
                    den *= stripped
        sg = rsugar + wdeg(delta + one)
        if sg > sugar:
            sugar = sg
    if mod is None and out:
        out, _, stripped = _strip_content(out, acc)
        if track_scale:
            den *= stripped
    return out, sugar, (num, den)


def _reduce_full(terms, sugar, basis, ctx, skip=-1, track_scale=False):
    """`_reduce` of a term list sorted by descending key."""
    return _reduce(dict(terms), [-k for k, _ in terms], sugar, basis, ctx,
                   skip, track_scale)


def _spoly(ei, ej, lcm, ctx):
    """S-polynomial of two basis entries whose leads have lcm key ``lcm``,
    as the (acc, heap) pair that `_reduce` takes."""
    di = _shift_delta(ei, lcm, ctx)
    dj = _shift_delta(ej, lcm, ctx)
    if ctx.mod is not None:
        a, b = 1, ctx.mod - 1
    else:
        ci, cj = ei[2], ej[2]
        g = igcd(ci, cj)
        a, b = cj // g, -(ci // g)
    acc, heap = {}, []
    _add_tail(acc, heap, a, di, ei[0])
    _add_tail(acc, heap, b, dj, ej[0])
    return acc, heap


class _HilbertTracker:
    """Traverso's criterion: the numerator of LT(G) against a hinted one.

    ``diff`` is N(LT(G)) − hint as {degree: coefficient}, zeros dropped, so
    LT(G) has the hinted series exactly when it is empty.  ``deficit`` is
    HF_{LT(G)}(δ) − HF_I(δ) for the degree δ of the pairs being reduced.
    """

    def __init__(self, ctx, hint):
        if ctx.ncomps != 1 or min(ctx.weights, default=1) < 1:
            raise ValueError("a Hilbert hint needs a scalar ideal and "
                             "positive weights")
        self.weights = ctx.weights
        self.diff = {}
        self._bump(0, 1)                      # N((0)) = 1
        for k, c in hint.items():
            self._bump(k, -c)
        self.leads = []
        self.counts = [1]       # monomials of each weighted degree
        self.degree = None
        self.deficit = 0

    def _bump(self, k, c):
        c += self.diff.get(k, 0)
        if c:
            self.diff[k] = c
        else:
            self.diff.pop(k, None)

    def add(self, lead, d):
        """Account for a new lead monomial of weighted degree ``d``."""
        colon = [tuple(a - b if a > b else 0 for a, b in zip(g, lead))
                 for g in self.leads]
        self.leads.append(lead)
        for k, c in numerator_from_leads(colon, len(lead),
                                         self.weights).items():
            self._bump(k + d, -c)
        if d == self.degree:
            self.deficit -= 1

    def _hf(self, delta):
        """Σ_k diff_k · #(monomials of degree δ − k)."""
        counts = self.counts
        if len(counts) <= delta:
            # coefficients of 1 / ∏_i (1 − z^{w_i}) up to degree δ
            counts = self.counts = [1] + [0] * delta
            for w in self.weights:
                for t in range(w, delta + 1):
                    counts[t] += counts[t - w]
        return sum(c * counts[delta - k] for k, c in self.diff.items()
                   if k <= delta)

    def saturated(self, delta):
        """True when every element of degree δ already reduces to zero."""
        if delta != self.degree:
            self.degree = delta
            self.deficit = self._hf(delta)
            if self.deficit < 0:
                raise ArithmeticError(
                    f"Hilbert hint exceeds the leading ideal in degree {delta}")
        return self.deficit == 0


def groebner_raw(gens, ctx, hint=None):
    """Buchberger with Gebauer–Möller pair elimination and sugar selection.

    ``gens``: raw term lists (normalized or not).  ``hint``: the numerator
    {degree: coefficient} of the Hilbert series of the quotient over
    ∏_i (1 − z^{w_i}) in the sugar grading, for homogeneous generators of a
    scalar ideal; it turns on Traverso's criterion (module docstring) and
    raises ArithmeticError unless the leads end with that numerator.
    Returns the reduced basis as a list of normalized term lists sorted by
    ascending lead key.
    """
    basis = _Basis(ctx)
    ents = basis.entries
    divides, lcm, deg, wdeg = ctx.divides, ctx.lcm, ctx.deg, ctx.wdeg
    cshift = ctx.cshift
    pairs = []          # heap of (sugar, lcm_key, i, j)
    live = {}           # (i, j) -> lcm key, for pairs not yet dropped or done

    def update_pairs(h):
        # Gebauer–Möller update after appending element h
        _, kh, _, sh, _, wh, xh = ents[h]
        high = kh >> cshift
        cand = {}           # i -> lcm key of leads i and h
        groups = {}         # lcm key -> the i < h with that lcm, ascending
        for i in range(h):
            ei = ents[i]
            if ei[1] >> cshift == high:
                L = lcm(kh, ei[6], xh)
                cand[i] = L
                groups.setdefault(L, []).append(i)
        # drop new pairs whose lcm is a strict multiple of another new lcm;
        # a strict divisor has lower total degree, so each distinct lcm
        # meets only the minimal lcms of lower degree.  Among equal lcms
        # keep one, preferring a coprime pair (which then kills the class)
        lower, level, level_deg = [], [], -1
        new_pairs = []
        for d, L in sorted((deg(L), L) for L in groups):
            if d != level_deg:
                lower += level
                level, level_deg = [], d
            if any(divides(M, L) for M in lower):
                continue
            level.append(L)
            members = groups[L]
            if ctx.use_coprime and any(L == ents[i][1] + kh - ctx.one
                                       for i in members):
                continue
            new_pairs.append((members[0], L))
        # Buchberger chain criterion against existing pairs
        for (i, j), L in list(live.items()):
            if divides(kh, L) and cand[i] != L and cand[j] != L:
                del live[(i, j)]
        for i, L in new_pairs:
            wl = wdeg(L)
            wi = ents[i][3] + wl - ents[i][5]
            wj = sh + wl - wh
            live[(i, h)] = L
            heapq.heappush(pairs, (wi if wi > wj else wj, L, i, h))

    tracker = None
    if hint is not None:
        tracker = _HilbertTracker(ctx, hint)
        if any(len({wdeg(k) for k, _ in g}) > 1 for g in gens):
            raise ValueError("a Hilbert hint needs homogeneous generators")

    def add(nf, sugar):
        h = basis.add(_normalize(nf, ctx.mod), sugar)
        update_pairs(h)
        if tracker is not None:
            tracker.add(ents[h][6], ents[h][5])

    for g in gens:
        if not g:
            continue
        g = _normalize(sorted(g, key=lambda t: t[0], reverse=True), ctx.mod)
        nf, sugar, _ = _reduce_full(g, ctx.sugar(g[0][0]), basis, ctx)
        if nf:
            add(nf, sugar)

    while pairs:
        if tracker is not None and not tracker.diff:
            break                   # LT(G) = LT(I)
        sg, L, i, j = heapq.heappop(pairs)
        if live.pop((i, j), None) is None:
            continue
        if tracker is not None and tracker.saturated(sg):
            continue
        nf, sugar, _ = _reduce(*_spoly(ents[i], ents[j], L, ctx), sg, basis, ctx)
        if nf:
            add(nf, sugar)

    if tracker is not None and tracker.diff:
        raise ArithmeticError("the leading ideal misses the hinted Hilbert "
                              "series")
    return _interreduce([e[0] for e in ents], ctx)


def schreyer_frame(leads, ctx):
    """The Schreyer frame of a Gröbner basis with lead keys ``leads``.

    For each j, the pairs (i < j) of leads in the same component (index
    included) whose lcm is minimal among the lcms with lead j, one pair per
    distinct lcm, as (i, j, lcm key).  Their S-pair syzygies form a Gröbner
    basis of the syzygy module under the induced order, with the lead
    (lcm / lead_j) · e_j.
    """
    exps, deg, pack, one = ctx.exps, ctx.deg, ctx.pack, ctx.one
    # the bits that name a key's component and index
    place = ctx.index_mask | ~((1 << ctx.cshift) - 1)
    divides = ctx.divides
    xs = [exps(k) for k in leads]
    frame = []
    for j, kj in enumerate(leads):
        xj, comp = xs[j], kj & place
        quotients = {}      # lcm / lead_j, keyed, -> the first i giving it
        for i in range(j):
            if leads[i] & place == comp:
                q = pack(tuple(a - b if a > b else 0
                               for a, b in zip(xs[i], xj)))
                quotients.setdefault(q, i)
        # distinct quotients: a strict divisor has lower degree
        minimal = []
        for d, q in sorted((deg(q), q) for q in quotients):
            if not any(divides(m, q) for m in minimal):
                minimal.append(q)
                frame.append((quotients[q], j, kj + q - one))
    return frame


def schreyer_syzygies(elems, ctx):
    """One level of Schreyer's algorithm.

    ``ctx`` has an index field and two components ranked 1 (F) and 0
    (F′); ``elems`` is a Gröbner basis g_1, …, g_r of a submodule of F,
    monic over GF(p), whose keys carry the F-basis index of each term in
    the index field.  F′ = ⊕ R·e_i has the induced order: the key of
    x^a·e_i is key(x^a·lm(g_i)) in component F′ with i in the index field,
    so a shift is one add and a divisibility test one mask, as in F.

    The elements are first sorted by lead index, then lead exponents in
    ascending lex order, which is Schreyer's condition for each level's
    leads to miss one more variable (so at most nvars levels), and which
    makes comparing i alone agree with the induced order.  Each frame
    S-pair of g_i + e_i and g_j + e_j is reduced to zero by the g_l + e_l:
    the F′ part lies below F and never holds a lead, so it collects the
    cofactors, fraction-free scaling included, and ends as a syzygy with
    lead (lcm / lm_j)·e_j.  Returns (the sorted elements, the syzygies as
    normalized F′ term lists).  Raises ArithmeticError if an S-pair leaves
    a remainder in F (the elements are not a Gröbner basis) or an index
    outgrows its field.
    """
    imask = ctx.index_mask
    top = ctx.rank_bits[0]
    elems = sorted(elems, key=lambda g: (g[0][0] & imask, ctx.exps(g[0][0])))
    if len(elems) > imask:
        raise ArithmeticError(f"{len(elems)} basis elements overflow the "
                              f"index field of the induced order")
    basis = _Basis(ctx)
    for i, g in enumerate(elems):
        k = g[0][0]
        basis.add(g + [(k - top - (k & imask) + i, 1)], 0)
    ents = basis.entries
    out = []
    for i, j, L in schreyer_frame([g[0][0] for g in elems], ctx):
        nf, _, _ = _reduce(*_spoly(ents[i], ents[j], L, ctx), 0, basis, ctx)
        if not nf or nf[0][0] >= top:
            raise ArithmeticError("an S-pair of the frame does not reduce "
                                  "to zero: not a Gröbner basis")
        out.append(_normalize(nf, ctx.mod))
    return elems, out


def strip_variable(polys, ctx, i):
    """Divide each term list by the largest power of x_i dividing it.

    Division by x_i^e is one shift of every key by e · (key(x_i) − key(1));
    the exponent e is read off the field of x_i, whose value is
    ``EXP_CAP - e``, so no term is unpacked.
    """
    s = ctx.var_shift[i]
    step = ctx.pack(tuple(int(j == i) for j in range(ctx.nvars))) - ctx.one
    out = []
    for p in polys:
        e = EXP_CAP - max((k >> s) & _MASK for k, _ in p)
        if e:
            d = e * step
            p = [(k - d, c) for k, c in p]
        out.append(p)
    return out


def multiply(a, b, ctx):
    """Product of two scalar term lists, sorted by descending key.

    A product of monomials is ``key_a + key_b − key(1)``.  The total
    degree of the product is checked against EXP_CAP before any key is
    added, since a field past the cap would borrow from its neighbour and
    give a wrong key silently.  Coefficients are multiplied as integers
    and reduced mod p over GF(p); terms that cancel are dropped.
    """
    if not a or not b:
        return []
    deg = ctx.deg
    d = max(deg(k) for k, _ in a) + max(deg(k) for k, _ in b)
    if d > EXP_CAP:
        raise _over_cap("total degree", d)
    one = ctx.one
    acc = {}
    get = acc.get
    for kb, cb in b:
        delta = kb - one
        for ka, ca in a:
            k = ka + delta
            old = get(k)
            acc[k] = ca * cb if old is None else old + ca * cb
    mod = ctx.mod
    if mod is not None:
        out = [(k, c % mod) for k, c in acc.items() if c % mod]
    else:
        out = [(k, c) for k, c in acc.items() if c]
    out.sort(reverse=True)
    return out


def repack(polys, src, dst, place=None):
    """Scalar term lists of layout ``src`` in the layout ``dst``, each
    sorted by descending key.

    ``place[i]`` is the variable of ``dst`` that variable i of ``src``
    becomes, None for a variable the lists must not involve (default: the
    same index); variables of ``dst`` named by no ``place`` get exponent
    0.  The key is affine in the exponents, so one key is
    ``base − Σ_i field_i · col_i`` over the ``src`` fields, with no tuple
    unpacked.
    """
    one = dst.one
    if place is None:
        place = range(src.nvars)
    cols = []
    for i, j in enumerate(place):
        if j is not None:
            unit = [0] * dst.nvars
            unit[j] = 1
            cols.append((src.var_shift[i], dst.pack(unit) - one))
    base = one + EXP_CAP * sum(c for _, c in cols)
    out = []
    for p in polys:
        q = []
        for k, c in p:
            m = base
            for s, col in cols:
                m -= ((k >> s) & _MASK) * col
            q.append((m, c))
        q.sort(reverse=True)
        out.append(q)
    return out


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
