import dataclasses
import random
from fractions import Fraction
from math import comb

import pytest

from mapfibers import engine, fibers
from mapfibers.fields import QQ, PrimeField
from mapfibers.fibers import (NotGenericallyFiniteError, base_locus,
                              brute_force_fiber_oracle, build_map,
                              check_fiber_factorization, fiber_dimension,
                              find_one_dim_fibers, image_ideal,
                              linear_factors, recover_points_from_divisor,
                              rees_ideal, unmixed_part)
from mapfibers.ideals import Ideal, extend_polynomial
from mapfibers.mapfile import load_map_file
from mapfibers.poly import Polynomial
from mapfibers.rings import standard_ring
from mapfibers.solve import PointProjective
from conftest import count_calls, map_path
from references import fibers_agree, substitute_term_at_a_time
from test_oracle_agreement import MAPS as ORACLE_MAPS

R = standard_ring(("X0", "X1", "X2"))
X0, X1, X2 = (Polynomial.variable(R, i) for i in range(3))


def test_build_map_divides_common_factor():
    pm = build_map([X0 * X0, X0 * X1, X0 * X2, X0 * X0])
    assert pm.d == 1
    assert str(pm.common_factor) == "X0"
    assert [str(f) for f in pm.forms] == ["X0", "X1", "X2", "X0"]


def test_build_map_validation():
    with pytest.raises(ValueError):
        build_map([X0])                        # too few forms
    with pytest.raises(ValueError):
        build_map([X0, X0])                    # constant after gcd
    with pytest.raises(ValueError):
        build_map([X0, X1 * X1])               # mixed degrees
    with pytest.raises(ValueError):
        build_map([Polynomial.zero(R)] * 3)    # all zero


def test_rees_ideal_of_identity_map():
    pm = build_map([X0, X1, X2])
    rd = rees_ideal(pm)
    gb = sorted(str(g) for g in rd.rees.groebner().polys)
    assert gb == ["X1*T0 - X0*T1", "X2*T0 - X0*T2", "X2*T1 - X1*T2"]


def _rees_claiming(monkeypatch, pm, gens, syzygies=True):
    """Run `rees_ideal` on ``pm`` with the elimination handing back the
    ideal generated by ``gens`` in place of 𝔓; with ``syzygies`` off the
    map has no syzygies, so only the graph guard can object."""
    S = pm.rees.ambient
    monkeypatch.setattr(fibers, "eliminate",
                        lambda I, drop: Ideal(S, gens))
    if not syzygies:
        monkeypatch.setitem(vars(pm), "syzygies", [])
    return rees_ideal(pm)


def test_rees_guard_rejects_an_element_off_the_graph(monkeypatch):
    """𝔓 plus T0 − T1, which becomes X0² − X0·X1 on the graph, must not pass
    as the Rees ideal."""
    pm = build_map([X0 * X0, X0 * X1, X1 * X1, X2 * X2])
    S, nx = pm.rees.ambient, pm.source.nvars
    extra = Polynomial.variable(S, nx) - Polynomial.variable(S, nx + 1)
    with pytest.raises(ArithmeticError, match="does not vanish"):
        _rees_claiming(monkeypatch, pm,
                       list(pm.rees.rees.generators) + [extra])


def _random_map(rng, R, d):
    F = R.field
    monos = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
    while True:
        forms = [Polynomial.from_terms(R, [
            (m, F.from_int(rng.choice((-3, -2, -1, 1, 2, 3))))
            for m in rng.sample(monos, rng.randint(2, 4))]) for _ in range(4)]
        try:
            pm = build_map(forms)
        except ValueError:
            continue
        if pm.common_factor is None:
            return pm


def test_rees_guard_agrees_with_substitution(monkeypatch):
    """Seeded, over GF(7) and QQ: on random P^2 -> P^3 maps of degree 2 and
    3, the graph guard accepts each generator of 𝔓, and each generator
    plus a random term of its bidegree, exactly when the substitution
    T_j ↦ f_j (the term-at-a-time reference) sends it to zero."""
    rng = random.Random(20261019)
    for field in (PrimeField(7), QQ):
        Rf = standard_ring(("X0", "X1", "X2"), field)
        for d in (2, 3):
            pm = _random_map(rng, Rf, d)
            S, nx = pm.rees.ambient, pm.source.nvars
            subs = {nx + j: extend_polynomial(f, S)
                    for j, f in enumerate(pm.forms)}
            verdicts = set()
            for g in pm.rees.rees.generators:
                m = next(iter(g.terms))
                a, b = sum(m[:nx]), sum(m[nx:])
                xs = [rng.randrange(nx) for _ in range(a)]
                ts = [rng.randrange(len(pm.forms)) for _ in range(b)]
                term = tuple(xs.count(i) for i in range(nx)) + \
                    tuple(ts.count(j) for j in range(len(pm.forms)))
                for h in (g, g + Polynomial(S, {term: field.from_int(
                        rng.choice((-2, -1, 1, 2)))})):
                    on_graph = substitute_term_at_a_time(h, subs).is_zero()
                    try:
                        _rees_claiming(monkeypatch, pm, [h], syzygies=False)
                        passed = True
                    except ArithmeticError:
                        passed = False
                    assert passed == on_graph
                    verdicts.add(on_graph)
                monkeypatch.undo()
            assert verdicts == {True, False}


@pytest.mark.parametrize("name", ["quintic", "cubic_00_generic"])
def test_rees_elimination_hint_is_read_off_the_graph_basis(monkeypatch,
                                                            name):
    """The graph ideal (T_j − t·f_j) holds its basis, the binomials
    themselves, before t is eliminated, and the elimination's one
    Gröbner basis is driven by the series read off its leads T_j:
    Σ_k (−1)^k C(n+1, k) z^{k(d+1)} = ∏_j (1 − z^{d+1})."""
    forms = (load_map_file(map_path("quintic_surface.map")).forms
             if name == "quintic" else ORACLE_MAPS[0].forms)
    pm = build_map(list(forms))                         # nothing cached
    nt, d = len(pm.forms), pm.d
    pm.syzygies                                         # outside the count
    hints, held, eliminating = [], [], []
    real_raw, real_eliminate = engine.groebner_raw, fibers.eliminate

    def spy_raw(gens, ctx, hint=None):
        if eliminating:
            hints.append(hint)
        return real_raw(gens, ctx, hint)

    def spy_eliminate(I, drop):
        held.append([len(gb.raw) for gb in I._gb.values()])
        eliminating.append(drop)
        try:
            return real_eliminate(I, drop)
        finally:
            eliminating.clear()

    monkeypatch.setattr(engine, "groebner_raw", spy_raw)
    monkeypatch.setattr(fibers, "eliminate", spy_eliminate)
    rees_ideal(pm)
    assert held == [[nt]]
    assert hints == [{k * (d + 1): (-1) ** k * comb(nt, k)
                      for k in range(nt + 1)}]


def test_image_of_veronese_type_map():
    pm = build_map([X0 * X0, X0 * X1, X1 * X1, X2 * X2])
    img = image_ideal(pm)
    assert img.generically_finite
    assert (img.dimension, img.degree) == (2, 2)
    assert [str(g) for g in img.ideal.minimal_basis()] == ["T1^2 - T0*T2"]


def test_not_generically_finite_raises():
    pm = build_map([X0, X1, X0 + X1, X0 - X1])
    with pytest.raises(NotGenericallyFiniteError):
        find_one_dim_fibers(pm, s_max=1)


def test_base_locus(quintic_map, bpf_map):
    _, cone_dim, deg = base_locus(quintic_map)
    assert (cone_dim, deg) == (1, 18)
    _, cone_dim_bpf, _ = base_locus(bpf_map)
    assert cone_dim_bpf <= 0


def test_unmixed_part_at_known_point(quintic_map):
    y = PointProjective((Fraction(0), Fraction(1), Fraction(0), Fraction(1)),
                        QQ)
    assert str(unmixed_part(quintic_map, y)) == "X0 - X2"


def test_recover_points_from_divisor(quintic_map):
    pts = recover_points_from_divisor(quintic_map, X0)
    assert [p.coords for p in pts] == [(0, 0, 0, 1)]
    pts = recover_points_from_divisor(quintic_map, X1 - X2.scale(2))
    assert [p.coords for p in pts] == [(1, 0, Fraction(1, 2), 0)]
    assert recover_points_from_divisor(quintic_map, X0 + X1 + X2) == []


def test_route_a_recovers_each_linear_factor_once(monkeypatch, quintic_map):
    """The quintic's gcds at s = 2, 3, 4 repeat the linear factors of
    s = 1..; each factor's points are recovered once over all s."""
    calls = count_calls(monkeypatch, fibers.recover_points_from_divisor,
                        key=lambda pmap, ell: str(ell))
    search = fibers.find_one_dim_fibers(quintic_map, s_max=4)
    assert len(calls) == len(set(calls)) == 8
    assert len(search.records) == 8
    assert all("A" in r.route for r in search.records)


def test_route_a_factors_each_gcd_once(monkeypatch):
    """On the quintic the gcd G is the same degree-8 form at s = 2, 3 and
    4, so its linear factors are found once."""
    calls = count_calls(monkeypatch, linear_factors, key=str)
    search = find_one_dim_fibers(
        load_map_file(map_path("quintic_surface.map")), s_max=4)
    assert len(calls) == 1
    assert [search.route_a[s]["gcd_degree"] for s in (2, 3, 4)] == [8, 8, 8]
    assert len(search.records) == 8


def test_linear_factor_extraction():
    G = X0 * (X0 - X2.scale(2)) * (X1 + X2) * (X1 + X2)
    factors, complete = linear_factors(G)
    assert complete
    assert sorted(str(f) for f in factors) == \
        ["X0", "X0 - 2*X2", "X1 + X2", "X1 + X2"]
    # an irreducible quadratic factor stops complete extraction
    H = X0 * (X0 * X0 - X2 * X2.scale(2))
    factors, complete = linear_factors(H)
    assert not complete
    assert sorted(str(f) for f in factors) == ["X0"]


def test_fiber_dimension_and_agreement(quintic_map):
    y = PointProjective((Fraction(0), Fraction(0), Fraction(0), Fraction(1)),
                        QQ)
    assert fiber_dimension(quintic_map, y) == 1
    assert fibers_agree(quintic_map, y)
    # a generic image point has a zero-dimensional fiber
    generic = PointProjective((Fraction(1), Fraction(1), Fraction(1),
                               Fraction(1)), QQ)
    assert fiber_dimension(quintic_map, generic) <= 0


def test_factorization_identity(quintic_result):
    rows = quintic_result.report["factorization"]
    assert len(rows) == 8
    assert all(r["ideal_matches"] and r["saturation_contained"]
               and r["passes"] for r in rows)


def test_a_divisor_that_misses_a_difference_fails_the_identity(
        quintic_map, quintic_result):
    """Times X2, a quintic record's divisor no longer divides every
    f_j − p_j·f_i: the identity is false, and the check says so instead
    of raising."""
    rec = quintic_result.search.records[0]
    bad = dataclasses.replace(rec, divisor=rec.divisor * X2,
                              divisor_degree=rec.divisor_degree + 1)
    verdict = check_fiber_factorization(quintic_map, bad)
    assert verdict.ideal_matches is False
    assert verdict.passes is False


def test_oracle_requires_finite_field():
    pm = build_map([X0 * X0, X1 * X1, X2 * X2, X0 * X1])
    with pytest.raises(ValueError):
        brute_force_fiber_oracle(pm)


def test_oracle_on_small_field():
    F = PrimeField(7)
    R7 = standard_ring(("X0", "X1", "X2"), F)
    a, b, c = (Polynomial.variable(R7, i) for i in range(3))
    u = a * (a - c) * (a + c) * (a - c.scale(2))
    v = b * (b - c) * (b + c) * (b - c.scale(2))
    pm = build_map([b * u, a * v, c * u, c * v])
    records = brute_force_fiber_oracle(pm)
    assert len(records) == 8
    search = find_one_dim_fibers(pm, s_max=2)
    assert search.complete
    assert {r.point for r in search.records} == {r.point for r in records}
    for rec in search.records:
        assert check_fiber_factorization(pm, rec).passes
