"""Seeded property suites over small prime fields.

Each suite draws at least 100 random cases across GF(7) and GF(11) from a
fixed seed, so failures are reproducible.  The properties are the algebraic
identities the rest of the package leans on: gcd/lcm arithmetic, saturation
idempotence, irrelevant saturation by the Hilbert-polynomial certificate
against the intersection route (over GF(7) and QQ), variable saturation by
its two routes in the Rees ring's weights (over GF(7) and QQ), the reduced
basis variable saturation hands over against one computed from scratch
(over GF(7) and QQ), and the same for the saturation of a power through
its base (over GF(7) and QQ), the saturation of a power from its base's
certificate against the Hilbert-certified loop (over GF(7) and QQ), the
lci proxy by Fitting ideals against the proxy by every variable
(over GF(7) and QQ), the stable value of N read off the presentation
cokernel's Hilbert series against its Hilbert function (over GF(7) and
QQ), the two independent routes to local cohomology dimensions,
normal-form soundness, determinism of the reduced Groebner basis under
concurrent recomputation, minimal generators of submodules (over GF(7)
and QQ) against the per-generator greedy loop, the Hilbert-driven engine
against plain Buchberger in the standard and the Rees weights (over GF(7)
and QQ), the grevlex basis `eliminate` hands over against one
computed from scratch (over GF(7) and QQ), and the pruned Schreyer
resolution against the iterated-kernel reference: Betti tables, d∘d = 0
and local cohomology by duality (over GF(7) and QQ).  One check draws no
cases: the pipeline's coordinate-free results on seven maps, P^1, P^2 and
P^3 sources among them, each also in one fixed change of source and
target coordinates.
"""

import random
from concurrent.futures import ThreadPoolExecutor

from mapfibers import QQ, Ideal, PrimeField, build_map, fibers, standard_ring
from mapfibers.cohomology import (hdim_difference, hdim_duality,
                                  resolution_hdim)
from mapfibers import engine
from mapfibers.groebner import (GroebnerBasis, _context, normal_form,
                                reduced_groebner, to_raw)
from mapfibers.hilbert import hilbert_series_quotient, numerator_from_leads
from mapfibers import ideals
from mapfibers.ideals import (degree_monomials, eliminate, exact_divide,
                              extend_polynomial, ideal_power, intersect,
                              intersect_many, poly_gcd, saturate_irrelevant,
                              saturate_variable)
from mapfibers.mapfile import load_map_file
from mapfibers.pipeline import run_pipeline
from mapfibers.modules import (FreeModule, free_resolution,
                               minimal_generators, module_groebner, vec_add,
                               vec_is_zero, vec_scale, vector_degree)
from mapfibers.poly import Polynomial
from mapfibers.rings import GREVLEX, elimination_order, grevlex_with_last
from conftest import map_path
from references import (colon, iterated_kernel_resolution,
                        lci_proxy_by_variable, saturate_element)
from test_oracle_agreement import MAPS as ORACLE_MAPS

SEED = 20260815
FIELDS = (PrimeField(7), PrimeField(11))

# per-field case counts; every suite covers at least 100 cases total
N_GCD = 60
N_SAT = 50
N_CERT = 15
N_VAR_SAT = 50
N_STRIP = 30
N_POWER_SAT = 4          # per field, each at s = 2, 3 (and 4 over GF(7))
N_COH = 50
N_NF = 50
N_GB_CASES = 25          # times 4 parallel runs each
N_MINGEN = 200
N_HINT = 30              # per field and ring shape
N_ELIM = 20              # per field and elimination shape
N_RES = 12               # per field and ring shape
N_RES_POWER = 4          # per field
N_LCI_ORACLE = 8         # first oracle-suite cubics


def _ring(field, nvars=3):
    return standard_ring(tuple("xyzw"[:nvars]), field)


def _rand_form(rng, ring, deg):
    """Random nonzero homogeneous form of the given degree."""
    monos = degree_monomials(len(ring.variables), deg)
    k = rng.randint(1, min(4, len(monos)))
    chosen = rng.sample(list(monos), k)
    p = ring.field.characteristic()
    items = [(m, ring.field.from_int(rng.randrange(1, p))) for m in chosen]
    f = Polynomial.from_terms(ring, items)
    if f.is_zero():  # coefficients cannot cancel termwise, but stay safe
        return Polynomial.variable(ring, 0) ** deg
    return f


def _ideals_equal(A, B):
    return A.is_subideal_of(B) and B.is_subideal_of(A)


def test_gcd_lcm_identities():
    rng = random.Random(SEED)
    for field in FIELDS:
        R = _ring(field)
        for _ in range(N_GCD):
            a = _rand_form(rng, R, rng.randint(1, 2))
            b = _rand_form(rng, R, rng.randint(1, 2))
            c = _rand_form(rng, R, rng.randint(1, 2))
            f, g = a * c, b * c
            G = poly_gcd(f, g)
            # gcd divides both arguments
            exact_divide(f, G)
            exact_divide(g, G)
            # gcd(ac, bc) agrees with c * gcd(a, b) up to a scalar
            q = exact_divide(G, c * poly_gcd(a, b))
            assert q.degree() == 0
            # the induced lcm is a common multiple
            lcm = exact_divide(f * g, G)
            exact_divide(lcm, f)
            exact_divide(lcm, g)


def test_saturation_idempotent_and_stable():
    rng = random.Random(SEED + 1)
    for field in FIELDS:
        R = _ring(field)
        for _ in range(N_SAT):
            gens = [_rand_form(rng, R, rng.randint(1, 2))
                    for _ in range(rng.randint(2, 3))]
            J = Ideal(R, gens)
            S = saturate_irrelevant(J)
            assert J.is_subideal_of(S)
            assert _ideals_equal(S, saturate_irrelevant(S))
            # a saturated ideal is stable under colon by the irrelevant ideal
            stab = colon(S, Polynomial.variable(R, 0))
            for i in range(1, len(R.variables)):
                stab = intersect(stab, colon(S, Polynomial.variable(R, i)))
            assert _ideals_equal(S, stab)


def strip_variable_power(f, i):
    """Divide f by the largest power of X_i that divides it."""
    if f.is_zero():
        return f
    k = min(m[i] for m in f.terms)
    if k == 0:
        return f
    terms = {m[:i] + (m[i] - k,) + m[i + 1:]: c for m, c in f.terms.items()}
    return Polynomial(f.ring, terms)


def _stripped_basis(I, i):
    """I's reduced basis with X_i last, computed from scratch, with each
    element's X_i power stripped: a Gröbner basis of I : X_i^∞ for
    homogeneous I (Bayer–Stillman), but not a reduced one."""
    order = grevlex_with_last(I.ring.nvars, i)
    gb = reduced_groebner(list(I.generators), order=order, ring=I.ring)
    return [strip_variable_power(p, i) for p in gb.polys]


def _saturate_by_intersection(I):
    """The reference route for `saturate_irrelevant`: the intersection of
    the strip-only saturations by every variable, each reduced from
    scratch first (intersecting the unreduced pieces is far slower)."""
    n = I.ring.nvars
    return intersect_many([
        Ideal(I.ring, reduced_groebner(_stripped_basis(I, i),
                                       order=grevlex_with_last(n, i),
                                       ring=I.ring).polys)
        for i in range(n)])


def _form_through(rng, R, points):
    """Product of one random linear form through each point of P^2."""
    F = R.field
    f = Polynomial.constant(R, 1)
    for p in points:
        w = (0, 0, 0)
        while all(F.is_zero(c) for c in w):
            u = [F.from_int(rng.randint(-3, 3)) for _ in range(3)]
            # u × p is orthogonal to p: the form it defines vanishes at p
            w = tuple(F.sub(F.mul(u[(i + 1) % 3], p[(i + 2) % 3]),
                            F.mul(u[(i + 2) % 3], p[(i + 1) % 3]))
                      for i in range(3))
        f = f * Polynomial.from_terms(R, [(R.var_mono(i), w[i]) for i in range(3)])
    return f


def test_certified_saturation_matches_intersection(monkeypatch):
    """`saturate_irrelevant` returns one variable's saturation when the
    Hilbert polynomial certifies it and intersects otherwise.  Base points
    planted on every coordinate line force the intersection; base points
    off them let the certificate pass.  Both outcomes must be reached, and
    both must give the reduced basis of the intersection route."""
    intersections = []

    def counted(A, B):
        intersections.append(1)
        return intersect(A, B)

    monkeypatch.setattr(ideals, "intersect", counted)
    rng = random.Random(SEED + 6)
    for field in (PrimeField(7), QQ):
        R = _ring(field)
        F = field
        outcomes = {"certified": 0, "intersected": 0}
        for k in range(N_CERT):
            coord = lambda: F.from_int(rng.randint(1, 6))
            points = [tuple(coord() for _ in range(3))
                      for _ in range(rng.randint(1, 2))]
            if k % 2:
                for i in range(3):      # one base point on each line X_i = 0
                    p = [coord() for _ in range(3)]
                    p[i] = F.zero()
                    points.append(tuple(p))
            gens = [_form_through(rng, R, points)
                    for _ in range(rng.randint(2, 3))]
            if rng.random() < 0.3:      # an irrelevant component
                gens = [g * Polynomial.variable(R, i)
                        for g in gens for i in range(3)]
            if rng.random() < 0.3:      # a common line: dimension two
                h = _form_through(rng, R, [tuple(coord() for _ in range(3))])
                gens = [g * h for g in gens]
            J = Ideal(R, gens)
            del intersections[:]
            S = saturate_irrelevant(J)
            outcomes["intersected" if intersections else "certified"] += 1
            assert S == _saturate_by_intersection(J)
            # the series the certificate kept on S is that of its grevlex basis
            assert S.hilbert().numerator == \
                hilbert_series_quotient(S.groebner()).numerator
        assert outcomes["certified"] and outcomes["intersected"], outcomes


def _rand_signed_form(rng, ring, deg):
    """Random nonzero form with small signed coefficients, over any field."""
    monos = degree_monomials(ring.nvars, deg)
    F = ring.field
    return Polynomial.from_terms(ring, [
        (m, F.from_int(rng.choice((-3, -2, -1, 1, 2, 3))))
        for m in rng.sample(list(monos), rng.randint(1, min(4, len(monos))))])


def test_variable_saturation_hands_over_its_reduced_basis():
    """`saturate_variable(I, i)` is generated by, and holds, the reduced
    basis in the order with X_i last of the strip-only route's elements,
    computed here from scratch.  Random forms, often times a power of a
    variable, make many of the colons strictly larger than I."""
    rng = random.Random(SEED + 7)
    for field in (PrimeField(7), QQ):
        for nvars in (3, 4):
            R = _ring(field, nvars)
            larger = 0
            for _ in range(N_STRIP // 2):
                gens = [_rand_signed_form(rng, R, rng.randint(1, 3))
                        for _ in range(rng.randint(2, 4))]
                if rng.random() < 0.6:
                    v = Polynomial.variable(R, rng.randrange(nvars))
                    gens = [g * v ** rng.randint(1, 2) if rng.random() < 0.7
                            else g for g in gens]
                I = Ideal(R, gens)
                i = rng.randrange(nvars)
                order = grevlex_with_last(nvars, i)
                want = reduced_groebner(_stripped_basis(I, i), order=order,
                                        ring=R).polys
                J = saturate_variable(I, i)
                assert list(J.generators) == want
                assert J._gb[order].polys == want
                larger += not J.is_subideal_of(I)
            assert larger, (field, nvars)


def test_power_saturation_through_the_base_matches_the_power(monkeypatch):
    """`saturate_variable` saturates a power B^s by X_i through B, as
    ((B^{s−1} : X_i^∞)·(B : X_i^∞)) : X_i^∞, when B : X_i^∞ needs no
    higher degree than B (and the product none higher than B^s), and
    strips B^s's own basis otherwise.  For s = 2, 3 and every i (and
    s = 4 over GF(7); over QQ the reference alone at s = 4 costs about
    ten times the rest of the test) it must hand over the reduced basis,
    with X_i last, of the strip-only route on B^s's basis computed from
    scratch, and `saturate_irrelevant` of the power must match the
    intersection of those three reduced bases (the intersection route,
    on reduced pieces).  Base points planted on every coordinate line in
    every other case force the intersection.  Both routes and both
    outcomes must be reached (over GF(7) and QQ)."""
    intersections = []
    products = []
    through_base = ideals._colon_through_base

    def counted(A, B):
        intersections.append(1)
        return intersect(A, B)

    def logged(B, i, s, order):
        J = through_base(B, i, s, order)
        products.append(J is not None)
        return J

    monkeypatch.setattr(ideals, "intersect", counted)
    monkeypatch.setattr(ideals, "_colon_through_base", logged)
    rng = random.Random(SEED + 11)
    for field in (PrimeField(7), QQ):
        R = _ring(field)
        F = field
        outcomes = {"certified": 0, "intersected": 0}
        routes = {"base": 0, "own": 0}
        for k in range(N_POWER_SAT):
            coord = lambda: F.from_int(rng.randint(1, 6))
            if k % 2:
                points = []
                for i in range(3):      # one base point on each line X_i = 0
                    p = [coord() for _ in range(3)]
                    p[i] = F.zero()
                    points.append(tuple(p))
            else:
                points = [tuple(coord() for _ in range(3))
                          for _ in range(rng.randint(1, 2))]
            B = Ideal(R, [_form_through(rng, R, points)
                          for _ in range(rng.randint(2, 4))])
            for s in (2, 3, 4) if field is not QQ else (2, 3):
                P = ideal_power(B, s)
                pieces = []
                for i in range(3):
                    order = grevlex_with_last(3, i)
                    want = reduced_groebner(_stripped_basis(P, i),
                                            order=order, ring=R).polys
                    del products[:]
                    assert saturate_variable(P, i)._gb[order].polys == want
                    routes["base" if products[-1] else "own"] += 1
                    pieces.append(Ideal(R, want))
                del intersections[:]
                S = saturate_irrelevant(P)
                outcomes["intersected" if intersections else "certified"] += 1
                assert S == intersect_many(pieces)
        assert all(outcomes.values()) and all(routes.values()), \
            (outcomes, routes)


def _power_saturation_cases(rng, field):
    """(case, B) for the four shapes of base ideal the saturation of a
    power tells apart: structured cubics as the oracle suite draws them
    (X_2 passes B's certificate), forms through the three coordinate
    points (no variable passes), a base-point-free B, and the P^3 map
    X0², X0X1, X0X2, X0X3, X1X2, whose base locus holds the lines
    X0 = X1 = 0 and X0 = X2 = 0 (dim R/B = 2)."""
    R = _ring(field)
    x, y, z = (Polynomial.variable(R, i) for i in range(3))
    coord = lambda: field.from_int(rng.randint(1, 6))
    linear = lambda: Polynomial.from_terms(R, [
        (R.var_mono(i), coord()) for i in range(3)])
    u, v = linear() * linear(), linear() * linear()
    yield "one passes", Ideal(R, [y * u, x * v, z * u, z * v])
    corners = [tuple(field.from_int(int(i == j)) for j in range(3))
               for i in range(3)]
    points = corners + [tuple(coord() for _ in range(3))]
    yield "none passes", Ideal(R, [_form_through(rng, R, points)
                                   for _ in range(3)])
    B = Ideal(R, [_rand_signed_form(rng, R, 2) for _ in range(3)])
    while B.hilbert().krull_dim:
        B = Ideal(R, [_rand_signed_form(rng, R, 2) for _ in range(3)])
    yield "base-point-free", B
    R4 = _ring(field, 4)
    X = [Polynomial.variable(R4, i) for i in range(4)]
    yield "base curve", Ideal(R4, [X[0] * X[0], X[0] * X[1], X[0] * X[2],
                                   X[0] * X[3], X[1] * X[2]])


def test_power_saturation_from_the_base_certificate(monkeypatch):
    """`saturate_irrelevant(B^s)` for s = 2, 3 and for the power of a power
    (B²)² (over GF(7) and QQ) equals the Hilbert-certified loop on the same
    generators with no record of the base, and the intersection of the
    n + 1 colons B^s : X_i^∞.  When dim R/B ≤ 1 the power reads B's
    certificate and never asks for its own Hilbert series; the base curve
    (dim R/B = 2) still takes the loop, which reads it.  The inner B² of
    (B²)² is never asked for its series."""
    asked = []
    hilbert_of = Ideal.hilbert

    def spied(J):
        asked.append(J)
        return hilbert_of(J)

    monkeypatch.setattr(Ideal, "hilbert", spied)
    rng = random.Random(SEED + 13)
    for field in (PrimeField(7), QQ):
        for case, B in _power_saturation_cases(rng, field):
            n = B.ring.nvars
            B.saturation()
            # X_3 passes for the base curve too; its powers take the loop
            assert (B._sat_by is None) == (case == "none passes")
            inner = ideal_power(B, 2)
            for s, P in ((2, ideal_power(B, 2)), (3, ideal_power(B, 3)),
                         ((2, 2), ideal_power(inner, 2))):
                del asked[:]
                S = saturate_irrelevant(P)
                assert any(J is P for J in asked) == (case == "base curve")
                assert not any(J is inner for J in asked)
                assert (P._gb == {}) == (case != "base curve")
                slow = saturate_irrelevant(Ideal(B.ring, P.generators))
                assert S == slow, (case, s)
                assert S == intersect_many([saturate_variable(P, i)
                                            for i in reversed(range(n))])


# local ideals at (0:0:1) for the lci proxy maps, each with whether it is
# a complete intersection
LCI_LOCAL_IDEALS = (
    (lambda x, y, z: [x * x, x * y, y * y], False),        # (x, y)²
    (lambda x, y, z: [x * z - y * y, y ** 3], True),       # (xz − y², y³)
    (lambda x, y, z: [x * x, y], True),                     # (x², y)
)


def _map_around(rng, field, local, nforms):
    """A map P^2 ⇢ P^(nforms−1) by random combinations, with coefficients
    in ±{1, 2, 3}, of the cubic multiples of the generators of a local
    ideal at (0:0:1), written in random coordinates that fix the point."""
    R = _ring(field)
    F = field
    x, y, z = (Polynomial.variable(R, i) for i in range(3))

    def lin(a, b, c=0):
        return (x.scale(F.from_int(a)) + y.scale(F.from_int(b))
                + z.scale(F.from_int(c)))

    while True:
        a, b, c, e = (rng.randint(-3, 3) for _ in range(4))
        if (a * e - b * c) % 7:
            break
    gens = local(lin(a, b), lin(c, e), lin(rng.randint(-3, 3),
                                           rng.randint(-3, 3), 1))
    span = [g * Polynomial.from_terms(R, [(mono, F.one())]) for g in gens
            for mono in degree_monomials(3, 3 - g.degree())]
    forms = []
    for _ in range(nforms):
        f = Polynomial.zero(R)
        for g in span:
            f = f + g.scale(F.from_int(rng.choice((-3, -2, -1, 1, 2, 3))))
        forms.append(f)
    return build_map(forms)


def test_lci_proxy_against_every_variable():
    """`lci_proxy_check`, which decides a finite base locus by the Fitting
    ideal I + I_{n+1−m}(φ) in the source ring, equals the proxy decided by
    saturating J1 by every source variable on: the first oracle-suite
    GF(7) cubics, the bundled maps, the P^3 map X0², X0X1, X0X2, X0X3,
    X1X2 (dim R/I = 2, so J1 is saturated), the fat point
    x²z + y³, y²z + x³, xyz, x²y (base locus (0:0:1) with local ideal 𝔪_p²,
    proxy False, and only J1 : X_2^∞ misses 𝔓), and seeded cubics built
    around the local ideals (x, y)² (not lci), (xz − y², y³) and (x², y)
    at (0:0:1), all over GF(7) and QQ; then over GF(7) two P^2 ⇢ P^4 maps
    around (x, y)² and (x², y) (3 × 3 minors) and the P^3 ⇢ P^4 map
    X0², X1², X2² + X0X3, X0X1 + X2X3, X1X3 (a finite base locus, 2 × 2
    minors).  A P^3 map with a finite base locus that is not lci is left
    out: the reference's saturations of J1 there did not finish."""
    rng = random.Random(SEED + 17)
    maps = [build_map(list(pmap.forms))
            for pmap in ORACLE_MAPS[:N_LCI_ORACLE]]
    maps += [load_map_file(map_path(name)) for name in (
        "base_point_free.map", "irrational_fibers.map",
        "non_generically_finite.map", "quintic_surface.map")]
    seeded = []
    for field in (PrimeField(7), QQ):
        R4 = _ring(field, 4)
        X = [Polynomial.variable(R4, i) for i in range(4)]
        curve = build_map([X[0] * X[0], X[0] * X[1], X[0] * X[2],
                           X[0] * X[3], X[1] * X[2]])
        assert curve.base_ideal.hilbert().krull_dim == 2
        x, y, z = (Polynomial.variable(_ring(field), i) for i in range(3))
        fat = build_map([x * x * z + y ** 3, y * y * z + x ** 3, x * y * z,
                         x * x * y])
        assert fat.locus[1:] == (1, 3)
        assert lci_proxy_by_variable(fat) == [True, True, False]
        maps += [curve, fat]
        for local, lci in LCI_LOCAL_IDEALS:
            seeded.append((_map_around(rng, field, local, 4), lci))
    for local, lci in LCI_LOCAL_IDEALS[0::2]:
        seeded.append((_map_around(rng, PrimeField(7), local, 5), lci))
    R4 = _ring(PrimeField(7), 4)
    X = [Polynomial.variable(R4, i) for i in range(4)]
    maps.append(build_map([X[0] * X[0], X[1] * X[1],
                           X[2] * X[2] + X[0] * X[3],
                           X[0] * X[1] + X[2] * X[3], X[1] * X[3]]))
    assert maps[-1].base_ideal.hilbert().krull_dim == 1
    assert all(pmap.locus[1] == 1 for pmap, _ in seeded)
    for pmap, lci in [(pmap, None) for pmap in maps] + seeded:
        reference = all(lci_proxy_by_variable(pmap))
        assert lci in (None, reference), pmap.forms
        assert fibers.lci_proxy_check(pmap) == reference, pmap.forms


def _rand_biform(rng, ring, nx, a, b):
    """Random nonzero form of degree a in the first nx variables and b in
    the others."""
    monos = [u + v for u in degree_monomials(nx, a)
             for v in degree_monomials(ring.nvars - nx, b)]
    F = ring.field
    items = [(m, F.div(F.from_int(rng.choice((-3, -2, -1, 1, 2, 3))),
                       F.from_int(rng.randint(1, 2))))
             for m in rng.sample(monos, rng.randint(1, min(4, len(monos))))]
    return Polynomial.from_terms(ring, items)


def test_stable_value_is_the_hilbert_function_for_large_s():
    """The presentation's `stable_value` (deg N, or 0 when N has finite
    length) equals the cokernel's Hilbert function at three s at or above
    the largest exponent of its numerator, where the function is the
    Hilbert polynomial; and where the dims on [n, n+2] are constant they
    equal it.  Run on the bundled maps whose presentation the pipeline
    reports (not `non_generically_finite`, whose N has dimension 2), the
    first oracle-suite cubics and the fat point x²z + y³, y²z + x³, xyz,
    x²y over GF(7) and QQ."""
    maps = [load_map_file(map_path(name)) for name in (
        "base_point_free.map", "irrational_fibers.map",
        "quintic_surface.map")]
    maps += [build_map(list(pmap.forms))
             for pmap in ORACLE_MAPS[:N_LCI_ORACLE]]
    for field in (PrimeField(7), QQ):
        x, y, z = (Polynomial.variable(_ring(field), i) for i in range(3))
        maps.append(build_map([x * x * z + y ** 3, y * y * z + x ** 3,
                               x * y * z, x * x * y]))
    for pmap in maps:
        pres = pmap.presentation[0]
        H, n = pres.hilbert, pres.ranks[2]
        assert H.krull_dim <= 1
        top = max(H.numerator, default=1)
        assert all(H.hf(s) == pres.stable_value
                   for s in range(top, top + 3))
        window = {H.hf(s) for s in range(n, n + 3)}
        assert len(window) > 1 or window == {pres.stable_value}


def _frame(ring):
    """A: X0 ↦ X1, X1 ↦ X0 + X_last, every other X_i ↦ X_i, as a
    substitution."""
    X = [Polynomial.variable(ring, i) for i in range(ring.nvars)]
    return {**dict(enumerate(X)), 0: X[1], 1: X[0] + X[-1]}


def _moved_target(v, add):
    """The fixed target change on a list of n + 1 entries: the first two
    swapped, the one before the last added to the last."""
    return [v[1], v[0]] + v[2:-1] + [add(v[-2], v[-1])]


def _in_moved_frame(pmap):
    """The map in one fixed sparse frame: g = f∘A, then the target change
    (`_moved_target`) on the forms g."""
    A = _frame(pmap.source)
    g = [f.substitute(A) for f in pmap.forms]
    return build_map(_moved_target(g, lambda a, b: a + b))


def _moved_point(y):
    """The image point y of f as an image point of the moved map."""
    return fibers.PointProjective(_moved_target(list(y.coords), y.field.add),
                                  y.field)


def _frame_free_facts(res):
    """What a `run_pipeline` report says that no choice of coordinates in
    the source or the target may change.  A map without a presentation of
    N (m ≠ 2 or n ≠ 3) has no presentation block and no surface bounds,
    and that absence is compared."""
    rep = res.report
    fib, mod = rep["fibers"], rep["module"]
    pres, bounds = rep.get("presentation"), rep.get("surface_bounds")
    return {
        "exit": res.exit_code,
        "image": (rep["image"]["dimension"], rep["image"]["degree"]),
        "hypotheses": rep["hypotheses"],
        "fibers": (fib["count"], fib["complete"],
                   sorted(r["divisor_degree"] for r in fib["records"])),
        "table": mod["table"],
        "degree_formula": mod["degree_formula"],
        "presentation": pres and [pres[k] for k in (
            "ranks", "coker_dims", "dimension", "degree", "stable_value")],
        "surface_bounds": bounds and [(it["name"], it["applicable"],
                                       it["holds"])
                                      for it in bounds["items"]],
    }


def test_the_pipeline_is_invariant_under_a_change_of_coordinates():
    """The certified variable, the per-X_i colon climb, route A's charts,
    `_pivot` and the solver's charts all depend on the coordinates; the
    report's invariants must not, and each fiber record must move with
    the frame: its point by the target change, its divisor h to h∘A.
    Run on the two bench cubics (the oracle suite's first two maps),
    `base_point_free`, `irrational_fibers`, the quintic, the P^3 map
    X0², X0X1, X0X2, X0X3, X1X2 and the curve map x³, y³, x²y over QQ,
    each also in one fixed sparse frame (`_in_moved_frame`)."""
    maps = [build_map(list(pmap.forms)) for pmap in ORACLE_MAPS[:2]]
    maps += [load_map_file(map_path(name)) for name in (
        "base_point_free.map", "irrational_fibers.map",
        "quintic_surface.map")]
    X = [Polynomial.variable(_ring(QQ, 4), i) for i in range(4)]
    maps.append(build_map([X[0] * X[0], X[0] * X[1], X[0] * X[2],
                           X[0] * X[3], X[1] * X[2]]))
    x, y = (Polynomial.variable(_ring(QQ, 2), i) for i in range(2))
    maps.append(build_map([x ** 3, y ** 3, x * x * y]))
    for pmap in maps:
        res, moved = run_pipeline(pmap), run_pipeline(_in_moved_frame(pmap))
        assert _frame_free_facts(moved) == _frame_free_facts(res)
        R, A = pmap.source, _frame(pmap.source)
        found = {r.point: Ideal(R, [r.divisor])
                 for r in moved.search.records}
        assert found == {_moved_point(r.point):
                         Ideal(R, [r.divisor.substitute(A)])
                         for r in res.search.records}


def test_variable_saturation_routes_agree_in_rees_weights():
    """The reverse-lex route of `saturate_variable` needs only homogeneity
    in total degree, so on bihomogeneous ideals of a ring weighted like the
    Rees ring (X weight 1, T weight d + 1) it must match the
    inverse-adjunction route of `saturate_element`."""
    rng = random.Random(SEED + 5)
    d = 3
    bidegrees = ((1, 0), (2, 0), (0, 1), (1, 1), (2, 1))
    for field in (PrimeField(7), QQ):
        R = standard_ring(("x", "y", "z"), field).extend(("T0", "T1", "T2"),
                                                         d + 1)
        for _ in range(N_VAR_SAT // 2):
            gens = [_rand_biform(rng, R, 3, *rng.choice(bidegrees))
                    for _ in range(rng.randint(2, 3))]
            J = Ideal(R, gens)
            i = rng.randrange(R.nvars)
            assert saturate_variable(J, i) == \
                saturate_element(J, Polynomial.variable(R, i))


def test_cohomology_dimension_two_routes_agree():
    rng = random.Random(SEED + 2)
    for field in FIELDS:
        R = _ring(field)
        done = 0
        while done < N_COH:
            gens = [_rand_form(rng, R, rng.randint(1, 2))
                    for _ in range(rng.randint(2, 3))]
            J = Ideal(R, gens)
            if J.hilbert().krull_dim > 1:  # difference route needs dim ≤ 1
                continue
            for t in (0, 1, 2):
                assert hdim_difference(J, 1, t) == hdim_duality(J, 1, t)
            done += 1


def test_normal_form_idempotent_and_sound():
    rng = random.Random(SEED + 3)
    for field in FIELDS:
        R = _ring(field)
        for _ in range(N_NF):
            gens = [_rand_form(rng, R, rng.randint(1, 2))
                    for _ in range(rng.randint(2, 3))]
            gb = reduced_groebner(gens)
            f = _rand_form(rng, R, rng.randint(1, 3))
            r = normal_form(f, gb)
            assert normal_form(r, gb) == r
            # f - nf(f) always lies in the ideal
            assert normal_form(f - r, gb).is_zero()
            # multiples of a generator reduce to zero
            h = _rand_form(rng, R, 1)
            assert normal_form(gens[0] * h, gb).is_zero()
            if r.is_zero():
                assert Ideal(R, gens).contains(f)


def test_reduced_groebner_deterministic_in_parallel():
    rng = random.Random(SEED + 4)
    cases = []
    for k in range(N_GB_CASES):
        R = _ring(FIELDS[k % 2])
        gens = [_rand_form(rng, R, rng.randint(1, 2)) for _ in range(3)]
        cases.append(gens)

    def run(gens):
        return sorted(str(p) for p in reduced_groebner(list(gens)).polys)

    with ThreadPoolExecutor(max_workers=4) as pool:
        for gens in cases:
            variants = []
            for i in range(4):
                shuffled = list(gens)
                random.Random(SEED + 100 + i).shuffle(shuffled)
                variants.append(shuffled)
            outs = list(pool.map(run, variants))
            assert all(o == outs[0] for o in outs)


def test_irrelevant_ideal_saturates_to_unit():
    # sanity anchor for the saturation convention used above
    for field in FIELDS:
        R = _ring(field)
        m = Ideal(R, [Polynomial.variable(R, i)
                      for i in range(len(R.variables))])
        S = saturate_irrelevant(m)
        assert S.contains(Polynomial.constant(R, 1))


def _greedy_minimal_generators(vectors, free):
    """The reference: one Gröbner basis after every vector it keeps."""
    vecs = [v for v in vectors if not vec_is_zero(v)]
    vecs.sort(key=lambda v: vector_degree(v, free.shifts))
    chosen = []
    gb = None
    for v in vecs:
        if gb is not None and gb.contains(v):
            continue
        chosen.append(v)
        gb = module_groebner(chosen, free)
    return chosen


def _rand_qform(rng, ring, deg):
    """Random nonzero form of the given degree, also over QQ."""
    monos = degree_monomials(ring.nvars, deg)
    F = ring.field
    items = [(m, F.div(F.from_int(rng.choice((-3, -2, -1, 1, 2, 3))),
                       F.from_int(rng.randint(1, 2))))
             for m in rng.sample(monos, rng.randint(1, min(3, len(monos))))]
    return Polynomial.from_terms(ring, items)


def _rand_vector(rng, ring, shifts, t):
    """Random nonzero homogeneous vector of degree t under the shifts."""
    live = [c for c, a in enumerate(shifts) if a <= t]
    keep = set(rng.sample(live, rng.randint(1, len(live))))
    return tuple(_rand_qform(rng, ring, t - a) if c in keep
                 else Polynomial.zero(ring) for c, a in enumerate(shifts))


def test_minimal_generators_match_the_greedy_loop():
    """Per-degree pivot columns of normal forms choose exactly the vectors
    the per-generator greedy loop keeps, on inputs with planted scalar
    multiples, same-degree sums and multiples of lower-degree vectors."""
    rng = random.Random(SEED + 6)
    dropped = 0
    for field in (PrimeField(7), QQ):
        R = _ring(field)
        for _ in range(N_MINGEN // 2):
            shifts = tuple(rng.randint(0, 1)
                           for _ in range(rng.randint(1, 3)))
            free = FreeModule(R, shifts)
            lo = min(shifts)
            vecs = [_rand_vector(rng, R, shifts, rng.randint(lo, lo + 2))
                    for _ in range(rng.randint(2, 4))]
            for _ in range(rng.randint(2, 4)):
                v = rng.choice(vecs)
                kind = rng.randrange(3)
                if kind == 0:
                    c = Polynomial.constant(R, field.from_int(rng.randint(2, 5)))
                    vecs.append(vec_scale(v, c))
                elif kind == 1:
                    t = vector_degree(v, shifts)
                    w = rng.choice([u for u in vecs
                                    if vector_degree(u, shifts) == t])
                    vecs.append(vec_add(v, w))
                else:
                    vecs.append(vec_scale(v, _rand_qform(rng, R,
                                                         rng.randint(1, 2))))
            rng.shuffle(vecs)
            chosen = minimal_generators(vecs, free)
            assert chosen == _greedy_minimal_generators(vecs, free)
            dropped += len(vecs) - len(chosen)
    assert dropped >= N_MINGEN


def _weighted_monomials(weights, deg):
    """Exponent tuples of weighted degree ``deg``."""
    if not weights:
        return [()] if deg == 0 else []
    w, rest = weights[0], weights[1:]
    return [(e,) + m for e in range(deg // w + 1)
            for m in _weighted_monomials(rest, deg - e * w)]


def _rand_weighted_form(rng, ring, deg):
    """Random nonzero form of weighted degree ``deg`` (small signed
    coefficients), None when no monomial has that degree."""
    monos = _weighted_monomials(ring.weights, deg)
    if not monos:
        return None
    F = ring.field
    return Polynomial.from_terms(ring, [
        (m, F.from_int(rng.choice((-3, -2, -1, 1, 2, 3))))
        for m in rng.sample(monos, rng.randint(1, min(3, len(monos))))])


def _hint_rings(field):
    """(ring, orders): standard P^3, and the Rees weights X 1, T d + 1
    (d = 1) without and with a trailing t of weight 1, each with orders
    other than grevlex to run hinted."""
    P3 = standard_ring(("x", "y", "z", "w"), field)
    XT = standard_ring(("x", "y", "z"), field).extend(("T0", "T1"), 2)
    XTt = XT.extend(("t",))
    return [(P3, [grevlex_with_last(4, 0), elimination_order({0})]),
            (XT, [grevlex_with_last(5, 1), elimination_order({0, 1, 2})]),
            (XTt, [elimination_order({5}), grevlex_with_last(6, 2)])]


def _moved(hint, k):
    """The hint with its coefficient of degree k moved to degree k + 1."""
    out = dict(hint)
    c = out.pop(k)
    out[k + 1] = out.get(k + 1, 0) + c
    return {d: c for d, c in out.items() if c}


def test_hilbert_hint_leaves_the_basis_unchanged(monkeypatch):
    """A homogeneous ideal's basis in one order, computed with the Hilbert
    series of its grevlex basis as the hint, equals the plain Buchberger
    result, in the standard and in the Rees weights; with one coefficient
    of the hint moved, the engine raises or the basis differs (it never
    passes unnoticed).  The criterion must drop S-pairs overall."""
    spairs = []
    spoly = engine._spoly
    monkeypatch.setattr(engine, "_spoly",
                        lambda *args: spairs.append(1) or spoly(*args))
    rng = random.Random(SEED + 8)
    plain_pairs = hinted_pairs = raised = 0
    for field in (PrimeField(7), QQ):
        for ring, orders in _hint_rings(field):
            n = ring.nvars
            for _ in range(N_HINT):
                gens = []
                while len(gens) < rng.randint(2, 4):
                    g = _rand_weighted_form(rng, ring, rng.randint(1, 4))
                    if g is not None:
                        gens.append(g)
                if "t" in ring.variables and rng.random() < 0.5:
                    # the Rees generators T_j − t·f_j, f_j linear in X
                    t = Polynomial.variable(ring, 5)
                    X = ring.subring((0, 1, 2))
                    gens += [Polynomial.variable(ring, 3 + j) - t *
                             extend_polynomial(_rand_signed_form(rng, X, 1),
                                               ring)
                             for j in range(2)]
                leads = [m for _, m in reduced_groebner(
                    gens, ring=ring).leading_terms()]
                hint = numerator_from_leads(leads, n, ring.weights)
                order = rng.choice(orders)
                ctx = _context(ring, order)
                raw = [to_raw((g,), ctx) for g in gens]
                del spairs[:]
                plain = engine.groebner_raw(raw, ctx)
                plain_pairs += len(spairs)
                del spairs[:]
                assert engine.groebner_raw(raw, ctx, hint) == plain
                hinted_pairs += len(spairs)
                try:
                    moved = engine.groebner_raw(
                        raw, ctx, _moved(hint, rng.choice(sorted(hint))))
                except ArithmeticError:
                    raised += 1
                else:
                    assert moved != plain
    assert hinted_pairs < plain_pairs and raised, (hinted_pairs, plain_pairs)


def test_too_small_hint_raises():
    """A hint below the true series, that of a strictly larger ideal,
    raises ArithmeticError."""
    for field in (PrimeField(7), QQ):
        R = _ring(field)
        x, y, z = (Polynomial.variable(R, i) for i in range(3))
        gens = [x * x - y * z, x * y * z]
        bigger = hilbert_series_quotient(
            reduced_groebner(gens + [z ** 3], ring=R)).numerator
        ctx = _context(R, grevlex_with_last(3, 0))
        try:
            engine.groebner_raw([to_raw((g,), ctx) for g in gens], ctx, bigger)
        except ArithmeticError:
            continue
        raise AssertionError(f"a hint below the series passed over {field}")


def _assert_holds_its_grevlex_basis(E, small):
    fresh = reduced_groebner(list(E.generators), ring=small)
    held = E._gb[GREVLEX]
    assert list(E.generators) == held.polys == fresh.polys
    assert held.raw == fresh.raw


def test_eliminate_hands_over_the_grevlex_basis():
    """The block-free part of an elimination basis is the reduced grevlex
    basis of the eliminated ideal: for a trailing t (intersections of
    random ideals, t·I + (1 − t)·J) and for the leading X block of a
    weighted k[X, T] (graphs T_j − f_j of random quadrics, with extra
    bihomogeneous forms)."""
    rng = random.Random(SEED + 9)
    nonzero = 0
    for field in (PrimeField(7), QQ):
        R = _ring(field)
        for _ in range(N_ELIM):
            I = Ideal(R, [_rand_signed_form(rng, R, rng.randint(1, 2))
                          for _ in range(rng.randint(1, 3))])
            J = Ideal(R, [_rand_signed_form(rng, R, rng.randint(1, 2))
                          for _ in range(rng.randint(1, 3))])
            meet = intersect(I, J)
            _assert_holds_its_grevlex_basis(meet, meet.ring)
        XT = standard_ring(("x", "y"), field).extend(
            ("T0", "T1", "T2", "T3"), 2)
        for _ in range(N_ELIM):
            gens = [Polynomial.variable(XT, 2 + j) - extend_polynomial(
                        _rand_signed_form(rng, XT.subring((0, 1)), 2), XT)
                    for j in range(rng.randint(3, 4))]
            if rng.random() < 0.5:
                gens.append(_rand_weighted_form(rng, XT, 3))
            E = eliminate(Ideal(XT, gens), range(2))
            _assert_holds_its_grevlex_basis(E, E.ring)
            nonzero += not E.is_zero()
    assert nonzero


def _resolution_case(rng, R, power):
    """Generators of a random homogeneous ideal of R; with ``power``, the
    square of an ideal of two or three random cubics (dense over GF(p),
    sparse over QQ, where dense ones make the reference crawl), whose
    reduced grevlex basis is often larger than its generator set."""
    if power:
        dense = 3 if R.field.characteristic() else 1
        cubics = [sum((_rand_qform(rng, R, 3) for _ in range(dense)),
                      Polynomial.zero(R)) for _ in range(rng.randint(2, 3))]
        return list(ideal_power(Ideal(R, cubics), 2).generators)
    top = 3 if R.nvars == 3 else 2
    return [_rand_qform(rng, R, rng.randint(1, top))
            for _ in range(rng.randint(2, 4))]


def _assert_complex(res):
    for outer, inner in zip(res.maps, res.maps[1:]):
        for c in range(inner.source.rank):
            assert vec_is_zero(outer.apply(inner.column(c)))


def test_schreyer_resolution_against_iterated_kernels():
    """The pruned Schreyer resolution has the Betti table of the iterated-
    kernel reference, d∘d = 0, and the same local cohomology by duality for
    every i over a window of degrees up to the generators' top degree, on
    random homogeneous ideals in 3 and 4 variables and on squares of cubic
    ideals (over GF(7) and QQ)."""
    rng = random.Random(SEED + 10)
    grown = 0
    for field in (PrimeField(7), QQ):
        for nvars, power, cases in ((3, False, N_RES), (4, False, N_RES),
                                    (3, True, N_RES_POWER)):
            R = _ring(field, nvars)
            for _ in range(cases):
                gens = [g for g in _resolution_case(rng, R, power)
                        if not g.is_zero()]
                if not gens:
                    continue
                res = free_resolution(Ideal(R, gens))
                ref = iterated_kernel_resolution(gens)
                assert ([sorted(fm.shifts) for fm in res.modules]
                        == [sorted(fm.shifts) for fm in ref.modules])
                _assert_complex(res)
                grown += len(reduced_groebner(gens).polys) > len(
                    ref.modules[1].shifts)
                top = max(g.degree() for g in gens)
                dims = [[resolution_hdim(r, i, t) for i in range(nvars + 1)
                         for t in range(top - 4, top + 1)] for r in (res, ref)]
                assert dims[0] == dims[1]
    assert grown >= 4
