"""The packed-key engine against the frozen tuple engine it replaced.

Seeded random ideals and submodules over QQ, GF(7) and GF(32003) go
through both engines under every monomial order the package builds; the
reduced bases, normal forms and scales must agree term by term.
"""

import random

import pytest

import reference_engine as ref
from mapfibers import engine
from mapfibers.engine import EXP_CAP, EngineContext
from mapfibers.rings import (GREVLEX, LEX, TermOrder, elimination_order,
                             grevlex_with_last, mono_divides, mono_lcm)

FIELDS = [None, 7, 32003]
ORDERS = [
    ("grevlex", GREVLEX),
    ("lex", LEX),
    ("elim", elimination_order({0})),
    ("elim2", elimination_order({1, 2})),
    ("grevlex_with_last", grevlex_with_last(3, 0)),
]


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
    packed = [(ctx.pack_comp(c, e), co) for (c, e), co in elem.items()]
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


@pytest.mark.parametrize("mod", FIELDS)
@pytest.mark.parametrize("name,order", ORDERS)
def test_ideal_bases_match_reference(name, order, mod):
    rng = random.Random(f"{name}-{mod}")
    # a lex basis of a random zero-dimensional ideal over QQ grows fast in
    # both engines, so lex gets quadrics
    max_deg = 2 if name == "lex" else 3
    for _ in range(30):
        _compare(rng, 3, order, mod, ngens=rng.randint(2, 4), max_deg=max_deg)
    for _ in range(30):
        _compare(rng, 3, order, mod, ngens=rng.randint(2, 4), max_deg=max_deg,
                 homogeneous=True)


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
                     homogeneous=homogeneous, comp_rank=(0, 2, 1),
                     comp_offsets=(1, 0, 2))


def test_pack_unpack_round_trip_and_key_order():
    rng = random.Random(3)
    for _, order in ORDERS + [("var_order", TermOrder("grevlex", (2, 0, 1)))]:
        ctx, rctx = _contexts(3, order, None, ncomps=2, comp_rank=(0, 1))
        for _ in range(200):
            c1, c2 = rng.randrange(2), rng.randrange(2)
            a, b = _random_exps(rng, 3, 9), _random_exps(rng, 3, 9)
            ka, kb = ctx.pack_comp(c1, a), ctx.pack_comp(c2, b)
            assert (ctx.comp(ka), ctx.exps(ka)) == (c1, a)
            ra, rb = rctx.key((c1,) + a), rctx.key((c2,) + b)
            assert (ka > kb) == (ra > rb) and (ka == kb) == (ra == rb)


def test_divides_and_lcm_agree_with_tuple_monomials():
    rng = random.Random(4)
    for _, order in ORDERS:
        ctx = EngineContext(3, order, ncomps=3, comp_rank=(1, 0, 2))
        for _ in range(300):
            a, b = _random_exps(rng, 3, 6), _random_exps(rng, 3, 6)
            c = rng.randrange(3)
            ka, kb = ctx.pack_comp(c, a), ctx.pack_comp(c, b)
            assert ctx.divides(ka, kb) == mono_divides(a, b)
            assert ctx.exps(ctx.lcm(ka, kb)) == mono_lcm(a, b)
            assert ctx.comp(ctx.lcm(ka, kb)) == c
            other = ctx.pack_comp((c + 1) % 3, b)
            assert not ctx.divides(ka, other)


def test_scalar_key_is_the_term_order_key():
    ctx = EngineContext(3, LEX)
    assert LEX.key_function(3)((2, 0, 1)) == ctx.pack((2, 0, 1))


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
    # reducing x^5000 by x - y^30000 (lex) would form y^30000 * x^4999
    ctx = EngineContext(2, LEX)
    basis = engine.groebner_raw(
        [[(ctx.pack((1, 0)), 1), (ctx.pack((0, 30000)), -1)]], ctx)
    with pytest.raises(ArithmeticError, match="total degree 34999"):
        engine.normal_form_raw([(ctx.pack((5000, 0)), 1)],
                               engine._Basis(ctx, basis), ctx)
