"""The packed-key engine against the frozen tuple engine it replaced.

Seeded random ideals and submodules over QQ, GF(7) and GF(32003) go
through both engines under every monomial order the package builds; the
reduced bases, normal forms and scales must agree term by term.
"""

import random
from fractions import Fraction

import pytest

import reference_engine as ref
from mapfibers import engine
from mapfibers.engine import EXP_CAP, EngineContext
from mapfibers.rings import (GREVLEX, TermOrder, elimination_order,
                             grevlex_with_last, mono_divides)
from references import mono_lcm

FIELDS = [None, 7, 32003]
ORDERS = [
    ("grevlex", GREVLEX),
    ("elim", elimination_order({0})),
    ("elim2", elimination_order({1, 2})),
    ("grevlex_with_last", grevlex_with_last(3, 0)),
]


def _key(ctx, c, e):
    """Packed key of the monomial x^e in component c."""
    return ctx.rank_bits[c] + ctx.pack(e)


def _random_exps(rng, nvars, max_deg, exact=False):
    e = [0] * nvars
    for _ in range(max_deg if exact else rng.randint(0, max_deg)):
        e[rng.randrange(nvars)] += 1
    return tuple(e)


def _random_element(rng, nvars, ncomps, nterms, max_deg, mod, exact=False):
    """{(component, exponents): coeff} with nonzero coefficients; with
    ``exact`` every term has total degree ``max_deg``."""
    out = {}
    for _ in range(nterms):
        c = rng.choice([x for x in range(-5, 6) if x])
        if mod is not None:
            c %= mod
        out[(rng.randrange(ncomps), _random_exps(rng, nvars, max_deg, exact))] = c
    return out


def _both(elem, ctx, rctx):
    packed = [(_key(ctx, c, e), co) for (c, e), co in elem.items()]
    tup = [(rctx.key((c,) + e), (c,) + e, co) for (c, e), co in elem.items()]
    packed.sort(reverse=True)
    tup.sort(key=lambda t: t[0], reverse=True)
    return packed, tup


def _unpack(terms, ctx):
    return [(ctx.comp(k), ctx.exps(k), c) for k, c in terms]


def _unpack_ref(terms):
    return [(em[0], em[1:], c) for _, em, c in terms]


def _contexts(nvars, order, mod, ncomps=1, **kw):
    return (EngineContext(nvars, order, mod=mod, ncomps=ncomps, **kw),
            ref.EngineContext(nvars, order, mod=mod, ncomps=ncomps, **kw))


def _compare(rng, nvars, order, mod, ncomps=1, ngens=3, max_deg=3,
             homogeneous=False, **kw):
    ctx, rctx = _contexts(nvars, order, mod, ncomps, **kw)
    gens = [_random_element(rng, nvars, ncomps, rng.randint(2, 3),
                            rng.randint(1, max_deg) if homogeneous else max_deg,
                            mod, homogeneous)
            for _ in range(ngens)]
    pairs = [_both(g, ctx, rctx) for g in gens]
    gb = engine.groebner_raw([p for p, _ in pairs], ctx)
    rgb = ref.groebner_raw([t for _, t in pairs], rctx)
    assert [_unpack(p, ctx) for p in gb] == [_unpack_ref(t) for t in rgb]
    for _ in range(3):
        f = _random_element(rng, nvars, ncomps, 5, 4, mod)
        p, t = _both(f, ctx, rctx)
        nf, scale = engine.normal_form_raw(p, engine._Basis(ctx, gb), ctx)
        rnf, rscale = ref.normal_form_raw(t, rgb, rctx, track_scale=True)
        assert _unpack(nf, ctx) == _unpack_ref(rnf)
        assert scale == rscale
    return len(gb)


# fixed ids keep each case's name across edits to ORDERS
@pytest.mark.parametrize("mod", FIELDS)
@pytest.mark.parametrize("name,order", ORDERS,
                         ids=["grevlex-order0", "elim-order2", "elim2-order3",
                              "grevlex_with_last-order4"])
def test_ideal_bases_match_reference(name, order, mod):
    rng = random.Random(f"{name}-{mod}")
    for _ in range(30):
        _compare(rng, 3, order, mod, ngens=rng.randint(2, 4))
    for _ in range(30):
        _compare(rng, 3, order, mod, ngens=rng.randint(2, 4), homogeneous=True)


@pytest.mark.parametrize("mod", FIELDS)
def test_weighted_sugar_matches_reference(mod):
    # non-unit weights take the unpacking path for the sugar degree
    rng = random.Random(11 + (mod or 0))
    for homogeneous in (False, True):
        for _ in range(15):
            _compare(rng, 4, GREVLEX, mod, weights=(1, 1, 3, 2),
                     homogeneous=homogeneous)


@pytest.mark.parametrize("mod", FIELDS)
def test_module_bases_match_reference(mod):
    rng = random.Random(5 + (mod or 0))
    for homogeneous in (False, True):
        for _ in range(15):
            _compare(rng, 3, GREVLEX, mod, ncomps=3, ngens=4,
                     homogeneous=homogeneous, comp_offsets=(1, 0, 2))


WEIGHTS = [None, (1, 3, 2), (40, 1, 0)]


def test_pack_unpack_round_trip_and_key_order():
    for weights in WEIGHTS:
        rng = random.Random(3 if weights is None else str(weights))
        for _, order in ORDERS + [("var_order", TermOrder("grevlex", (2, 0, 1)))]:
            ctx, rctx = _contexts(3, order, None, ncomps=2, weights=weights)
            w = weights or (1, 1, 1)
            for _ in range(200):
                c1, c2 = rng.randrange(2), rng.randrange(2)
                a, b = _random_exps(rng, 3, 9), _random_exps(rng, 3, 9)
                ka, kb = _key(ctx, c1, a), _key(ctx, c2, b)
                assert (ctx.comp(ka), ctx.exps(ka)) == (c1, a)
                assert ctx.wdeg(ka) == sum(x * y for x, y in zip(w, a))
                ra, rb = rctx.key((c1,) + a), rctx.key((c2,) + b)
                assert (ka > kb) == (ra > rb) and (ka == kb) == (ra == rb)
            # the weighted-degree field holds max(w) · EXP_CAP
            for i in range(3):
                e = tuple(EXP_CAP if j == i else 0 for j in range(3))
                k = _key(ctx, 1, e)
                assert (ctx.comp(k), ctx.exps(k)) == (1, e)
                assert ctx.wdeg(k) == w[i] * EXP_CAP


def test_divides_and_lcm_agree_with_tuple_monomials():
    for weights in WEIGHTS:
        rng = random.Random(4 if weights is None else str(weights))
        for _, order in ORDERS:
            ctx = EngineContext(3, order, ncomps=3, weights=weights)
            for _ in range(300):
                a, b = _random_exps(rng, 3, 6), _random_exps(rng, 3, 6)
                c = rng.randrange(3)
                ka, kb = _key(ctx, c, a), _key(ctx, c, b)
                assert ctx.divides(ka, kb) == mono_divides(a, b)
                kl = ctx.lcm(kb, ctx.exps(ka), ctx.exps(kb))
                assert ctx.exps(kl) == mono_lcm(a, b) and ctx.comp(kl) == c
                other = _key(ctx, (c + 1) % 3, b)
                assert not ctx.divides(ka, other)


def test_unit_weights_keep_the_unweighted_layout():
    ctx = EngineContext(3, GREVLEX, weights=(1, 1, 1))
    assert ctx.cshift == EngineContext(3, GREVLEX).cshift
    assert ctx.pack((2, 0, 1)) == EngineContext(3, GREVLEX).pack((2, 0, 1))
    with pytest.raises(ValueError, match="negative"):
        EngineContext(2, GREVLEX, weights=(1, -1))


def test_scalar_key_is_the_term_order_key():
    # the elimination order's defining property, on the packed keys: a
    # monomial containing X0 ranks above any X0-free monomial
    ctx = EngineContext(3, elimination_order({0}))
    monos = [(a, b, c) for a in range(4) for b in range(4) for c in range(4)]
    with_x0 = [ctx.pack(m) for m in monos if m[0]]
    without = [ctx.pack(m) for m in monos if not m[0]]
    assert min(with_x0) > max(without)


def test_packing_past_the_cap_raises():
    ctx = EngineContext(2, GREVLEX)
    with pytest.raises(ArithmeticError, match=f"exponent 70000 .*{EXP_CAP}"):
        ctx.pack((70000, 0))
    with pytest.raises(ArithmeticError, match="total degree"):
        ctx.pack((EXP_CAP, 1))
    assert ctx.exps(ctx.pack((EXP_CAP, 0))) == (EXP_CAP, 0)


def test_engine_product_past_the_cap_raises():
    # the lcm of x^20000 and y^20000 has total degree 40000
    ctx = EngineContext(2, GREVLEX, mod=7)
    gens = [[(ctx.pack((20000, 0)), 1), (ctx.pack((0, 1)), 1)],
            [(ctx.pack((0, 20000)), 1), (ctx.pack((1, 0)), 1)]]
    with pytest.raises(ArithmeticError, match="exceeds the monomial cap"):
        engine.groebner_raw(gens, ctx)
    # reducing x^5000 by x - y^30000 (x eliminated, so x leads) would form
    # y^30000 * x^4999
    ctx = EngineContext(2, elimination_order({0}))
    basis = engine.groebner_raw(
        [[(ctx.pack((1, 0)), 1), (ctx.pack((0, 30000)), -1)]], ctx)
    with pytest.raises(ArithmeticError, match="total degree 34999"):
        engine.normal_form_raw([(ctx.pack((5000, 0)), 1)],
                               engine._Basis(ctx, basis), ctx)


def test_content_stripping_matches_reference(monkeypatch):
    # a small threshold makes both engines strip content in the middle of
    # reductions, with and without an output term ahead of the lead
    monkeypatch.setattr(engine, "STRIP_BITS", 16)
    monkeypatch.setattr(ref, "STRIP_BITS", 16)
    strips = {"output": 0, "head": 0}
    strip = engine._strip_content

    def counting(out, acc, head=0):
        if acc:
            strips["output" if out else "head"] += 1
        return strip(out, acc, head)
    monkeypatch.setattr(engine, "_strip_content", counting)
    rng = random.Random("strip")
    for name, order in ORDERS[:2] + [("weighted", GREVLEX)]:
        weights = (1, 3, 2) if name == "weighted" else None
        for homogeneous in (False, True):
            for _ in range(8):
                ctx, rctx = _contexts(3, order, None, weights=weights)
                gens = [_random_element(rng, 3, 1, 3, 2, None, homogeneous)
                        for _ in range(3)]
                pairs = [_both(g, ctx, rctx) for g in gens]
                gb = engine.groebner_raw([p for p, _ in pairs], ctx)
                rgb = ref.groebner_raw([t for _, t in pairs], rctx)
                assert [_unpack(p, ctx) for p in gb] == [_unpack_ref(t) for t in rgb]
                for _ in range(3):
                    f = _random_element(rng, 3, 1, 6, 4, None)
                    p, t = _both(f, ctx, rctx)
                    nf, (num, den) = engine.normal_form_raw(
                        p, engine._Basis(ctx, gb), ctx)
                    rnf, (rnum, rden) = ref.normal_form_raw(t, rgb, rctx)
                    exact = [(e, Fraction(co * den, num)) for _, e, co in _unpack(nf, ctx)]
                    rexact = [(e, Fraction(co * rden, rnum))
                              for _, e, co in _unpack_ref(rnf)]
                    assert exact == rexact
    assert strips["output"] and strips["head"]


def _record_steps(monkeypatch, module, lead_of):
    """Log every S-polynomial formed and basis element added by
    ``module``, as the leads involved."""
    log = []
    spoly, add = module._spoly, module._Basis.add

    def logged_spoly(ei, ej, *rest):
        log.append(("spoly", lead_of(ei[0]), lead_of(ej[0])))
        return spoly(ei, ej, *rest)

    def logged_add(self, terms, sugar):
        log.append(("add", lead_of(terms), sugar))
        return add(self, terms, sugar)
    monkeypatch.setattr(module, "_spoly", logged_spoly)
    monkeypatch.setattr(module._Basis, "add", logged_add)
    return log


@pytest.mark.parametrize("mod", FIELDS)
def test_s_pair_sequence_matches_reference(monkeypatch, mod):
    rng = random.Random(f"pairs-{mod}")
    setups = [(1, {}), (1, {"weights": (1, 3, 2)}),
              (3, {"comp_offsets": (1, 0, 2)})]
    for ncomps, kw in setups:
        ctx, rctx = _contexts(3, GREVLEX, mod, ncomps, **kw)
        log = _record_steps(monkeypatch, engine,
                            lambda terms: (ctx.comp(terms[0][0]), ctx.exps(terms[0][0])))
        rlog = _record_steps(monkeypatch, ref,
                             lambda terms: (terms[0][1][0], terms[0][1][1:]))
        formed = 0
        for homogeneous in (False, True):
            for _ in range(10):
                gens = [_random_element(rng, 3, ncomps, rng.randint(2, 3), 3,
                                        mod, homogeneous)
                        for _ in range(rng.randint(2, 4))]
                pairs = [_both(g, ctx, rctx) for g in gens]
                del log[:], rlog[:]
                engine.groebner_raw([p for p, _ in pairs], ctx)
                ref.groebner_raw([t for _, t in pairs], rctx)
                assert log == rlog
                formed += sum(step[0] == "spoly" for step in log)
        assert formed >= 20
        monkeypatch.undo()


def test_find_reducer_takes_the_first_divisor_by_lead_key():
    rng = random.Random(6)
    for _, order in ORDERS:
        ctx = EngineContext(3, order, ncomps=2)
        leads = [(rng.randrange(2), _random_exps(rng, 3, 4)) for _ in range(12)]
        leads += leads[:3]          # equal leads: the lower index comes first
        basis = engine._Basis(ctx, [[(_key(ctx, c, e), 1)] for c, e in leads])
        by_key = sorted(range(len(leads)),
                        key=lambda i: (_key(ctx, *leads[i]), i))
        for _ in range(200):
            c, e = rng.randrange(2), _random_exps(rng, 3, 6)
            skip = rng.choice([-1, rng.randrange(len(leads))])
            want = next((i for i in by_key if i != skip and leads[i][0] == c
                         and mono_divides(leads[i][1], e)), None)
            got = basis.find_reducer(_key(ctx, c, e), skip)
            assert got is (None if want is None else basis.entries[want])
