"""Randomized agreement between the fiber search and brute-force enumeration.

Over GF(7) every projective point can be enumerated, so the search result for
a random degree-3 map from P^2 can be checked two ways:

* every fiber the oracle sees must appear in the search inventory, and
* every extra search point must be invisible to the oracle for the honest
  reason — its fiber carries no GF(7)-rational source point at all.

Each record is also pushed through the factorization check and the degree
bounds deg h_y < d and d * deg h_y <= deg of the base locus.

On the first sampled map, a generic one, the Hilbert-driven eliminations
are held to S-pair counts below those of plain Buchberger, and so is the
lci proxy on a P^3 map whose base locus is a curve, the one case where it
still saturates J1.  On the generic map and on the quintic (finite base
loci) the proxy builds no basis outside the source ring.

On the first eight maps the presentation's rank l, taken from depth, is
checked against the top Koszul cycle module built from d_3, and the
structured MAPS[1] is run through `analyze`.
"""

import json
import random

import pytest

from mapfibers import (PrimeField, base_locus, brute_force_fiber_oracle,
                       build_map, check_fiber_factorization, engine, fibers,
                       find_one_dim_fibers, format_map_file, image_ideal,
                       presentation_matrix_N, standard_ring)
from mapfibers.cli import main
from mapfibers.fibers import PointProjective
from mapfibers.ideals import degree_monomials, saturate_variable
from mapfibers.mapfile import load_map_file
from mapfibers.poly import Polynomial
from mapfibers.solve import projective_points

from conftest import count_calls, map_path, rebind
from references import top_cycle_reference

SEED = 733
F7 = PrimeField(7)
DEGREE = 3
N_MAPS = 20


def _rand_form(rng, ring, deg):
    monos = list(degree_monomials(3, deg))
    k = rng.randint(2, min(5, len(monos)))
    items = [(m, F7.from_int(rng.randrange(1, 7))) for m in rng.sample(monos, k)]
    f = Polynomial.from_terms(ring, items)
    return f if not f.is_zero() else Polynomial.variable(ring, 0) ** deg


def _candidate(rng, ring, structured):
    x, y, z = (Polynomial.variable(ring, i) for i in range(3))
    if structured:
        # products of linear forms make one-dimensional fibers likely
        u = _rand_form(rng, ring, 1) * _rand_form(rng, ring, 1)
        v = _rand_form(rng, ring, 1) * _rand_form(rng, ring, 1)
        return [y * u, x * v, z * u, z * v]
    return [_rand_form(rng, ring, DEGREE) for _ in range(4)]


def _sample_maps():
    rng = random.Random(SEED)
    ring = standard_ring(("x", "y", "z"), F7)
    accepted = []
    attempts = 0
    while len(accepted) < N_MAPS and attempts < 400:
        attempts += 1
        forms = _candidate(rng, ring, structured=attempts % 2 == 0)
        try:
            pmap = build_map(forms)
        except ValueError:
            continue
        if pmap.common_factor is not None:
            continue
        if not image_ideal(pmap).generically_finite:
            continue
        accepted.append(pmap)
    return accepted


MAPS = _sample_maps()
_searches = {}


def _search(idx):
    if idx not in _searches:
        _searches[idx] = find_one_dim_fibers(MAPS[idx], s_max=3)
    return _searches[idx]


def test_sample_size():
    assert len(MAPS) >= N_MAPS


def _maps_to(pmap, y):
    """All GF(7)-rational source points mapping to the image point y."""
    hits = []
    for x in projective_points(F7, 2):
        vals = [f.evaluate(list(x.coords)) for f in pmap.forms]
        if all(F7.is_zero(v) for v in vals):
            continue
        if PointProjective(tuple(vals), F7).coords == y.coords:
            hits.append(x)
    return hits


@pytest.mark.parametrize("idx", range(N_MAPS))
def test_search_agrees_with_oracle(idx):
    pmap = MAPS[idx]
    search = _search(idx)
    oracle = brute_force_fiber_oracle(pmap)
    s_recs = {r.point.coords: r for r in search.records}
    o_recs = {r.point.coords: r for r in oracle}

    # oracle direction must hold absolutely
    missing = set(o_recs) - set(s_recs)
    assert not missing, f"search missed oracle fibers at {sorted(missing)}"

    # extra search points are legitimate only if the oracle cannot see them:
    # the fiber contains no GF(7)-rational source point
    for coords in set(s_recs) - set(o_recs):
        hits = _maps_to(pmap, s_recs[coords].point)
        assert not hits, (f"oracle should have seen {coords}: "
                          f"hit by {[h.coords for h in hits]}")

    # common points carry the same divisor degree
    for coords in set(s_recs) & set(o_recs):
        assert s_recs[coords].divisor_degree == o_recs[coords].divisor_degree

    _, _, base_deg = base_locus(pmap)
    for rec in search.records:
        assert check_fiber_factorization(pmap, rec).passes
        assert rec.divisor_degree < DEGREE
        assert DEGREE * rec.divisor_degree <= base_deg


def test_sample_is_not_vacuous():
    # enough of the sampled maps must actually carry one-dimensional fibers
    nonempty = sum(1 for idx in range(N_MAPS) if _search(idx).records)
    assert nonempty >= 5


def _curve_map():
    """The P^3 ⇢ P^4 map X0², X0X1, X0X2, X0X3, X1X2 over GF(7): its base
    locus is the two lines X0 = X1 = 0 and X0 = X2 = 0, so dim R/I = 2."""
    R = standard_ring(("X0", "X1", "X2", "X3"), F7)
    X = [Polynomial.variable(R, i) for i in range(4)]
    return build_map([X[0] * X[0], X[0] * X[1], X[0] * X[2], X[0] * X[3],
                      X[1] * X[2]])


# S-pairs reduced by plain Buchberger (every basis built from its generators
# alone, 𝔓 and the image rewrapped without their bases): the eliminations
# on MAPS[0], and the lci proxy on the curve map, the one path that still
# saturates J1 (by all four variables)
PLAIN_SPAIRS = {"rees_ideal": 269, "image_ideal": 153, "lci_proxy_check": 56}


def test_hilbert_driven_eliminations_reduce_fewer_spairs(monkeypatch):
    """The Rees elimination (series known by a theorem), the image
    elimination (series of 𝔓's handed-over grevlex basis) and the second
    to fourth bases of the curve map's J1 in the lci proxy (series of the
    first) drop the S-pairs Traverso's criterion proves useless."""
    assert _candidate(random.Random(SEED), standard_ring(("x", "y", "z"), F7),
                      False) == list(MAPS[0].forms)     # the generic one
    pmap = build_map(list(MAPS[0].forms))               # nothing cached
    proxy_map = _curve_map()
    proxy_map.rees               # outside the count: only MAPS[0]'s is held
    assert proxy_map.base_ideal.hilbert().krull_dim == 2
    inside = []

    def labelled(name, fn):
        def call(*args):
            inside.append(name)
            try:
                return fn(*args)
            finally:
                inside.pop()
        return call

    for name in PLAIN_SPAIRS:
        fn = getattr(fibers, name)
        rebind(monkeypatch, fn, labelled(name, fn))
    spairs = count_calls(monkeypatch, engine._spoly,
                         key=lambda *args: inside[-1] if inside else None)
    assert pmap.image.generically_finite
    fibers.lci_proxy_check(proxy_map)
    counts = {name: spairs.count(name) for name in PLAIN_SPAIRS}
    assert all(counts[n] < PLAIN_SPAIRS[n] for n in PLAIN_SPAIRS), counts


def test_lci_proxy_stays_in_the_source_ring_on_a_finite_base_locus(
        monkeypatch):
    """On the generic MAPS[0] and on the quintic (finite base loci) the lci
    proxy is decided by Fitting ideals in k[x, y, z]: no saturation, and
    every Gröbner basis it builds is in the three source variables.  On
    the curve map (dim R/I = 2) it saturates J1 by all four variables."""
    for pmap in (build_map(list(MAPS[0].forms)),
                 load_map_file(map_path("quintic_surface.map"))):
        pmap.rees, pmap.locus
        with monkeypatch.context() as patch:
            sats = count_calls(patch, saturate_variable)
            nvars = count_calls(patch, engine.groebner_raw,
                                key=lambda gens, ctx, *hint: ctx.nvars)
            assert fibers.lci_proxy_check(pmap)
        assert sats == [] and nvars and set(nvars) == {3}, nvars
    curve = _curve_map()
    curve.rees
    with monkeypatch.context() as patch:
        sats = count_calls(patch, saturate_variable,
                           key=lambda J, i: (J.ring.nvars, i))
        fibers.lci_proxy_check(curve)
    assert sats == [(9, i) for i in range(4)]


def test_top_cycle_dual_dimension_on_oracle_cubics():
    """On the first eight maps Z_3 computed from d_3 is one generator of
    degree 4d, and dim Hom(Z_3, R)_{-3d-1} is the presentation's l."""
    for pmap in MAPS[:8]:
        degrees, dim = top_cycle_reference(pmap)
        assert degrees == [4 * pmap.d]
        assert presentation_matrix_N(pmap).ranks[0] == dim


def test_structured_cubic_presentation_matrix():
    """MAPS[1]'s presentation over GF(7): one row, linear entries whose
    coefficients are reduced mod 7."""
    pres = MAPS[1].presentation[0]
    assert pres.ranks == (6, 7, 1)
    assert [str(e) for e in pres.matrix[0]] == [
        "T2", "0", "3*T2 + 6*T3", "0", "4*T0", "T1 + 4*T2", "3*T0"]


def test_structured_cubic_analyze_exits_0(tmp_path):
    """MAPS[1] has four base points and indeg(I^sat) = 2 < d = 3, and N
    is 1, 0, 0, … with n = 1.  The regularity window is gated on the
    hypotheses of the other strict items, so it is reported not
    applicable with the dims it read, and `analyze` exits 0.  N_s = 0 for
    s ≫ 0, so the stable value read off the cokernel's Hilbert series,
    and reported, is 0."""
    pres = MAPS[1].presentation[0]
    assert pres.stable_value == 0
    assert [pres.hilbert.hf(s) for s in (1, 2, 3)] == [1, 0, 0]
    path, out = tmp_path / "cubic.map", tmp_path / "cubic.json"
    path.write_text(format_map_file(MAPS[1]), encoding="utf-8")
    assert main(["analyze", str(path), "--json", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    window = report["surface_bounds"]["items"][0]
    assert window["name"] == "regularity_window"
    assert not window["applicable"] and window["holds"] is None
    assert window["detail"].startswith(
        "dims on [n, n+2] = [1, 0, 0], not constant; requires")
    assert report["presentation"]["stable_value"] == 0
