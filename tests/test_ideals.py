import random
from math import comb

import pytest

from mapfibers import engine, groebner, ideals
from mapfibers.engine import EXP_CAP
from mapfibers.groebner import reduced_groebner
from mapfibers.ideals import (Ideal, _normalize_poly, degree_monomials,
                              eliminate, exact_divide, ideal_power, intersect,
                              poly_gcd, poly_gcd_list, saturate_irrelevant,
                              saturate_variable)
from mapfibers.fields import QQ, PrimeField
from mapfibers.poly import Polynomial
from mapfibers.rings import (GREVLEX, elimination_order, grevlex_with_last,
                             standard_ring)

from conftest import count_calls
from references import colon, saturate_element

R = standard_ring(("x", "y", "z"))
x, y, z = (Polynomial.variable(R, i) for i in range(3))


def test_variable_saturation_strips_powers():
    I = Ideal(R, [x * x * y, x * z * z])
    S = saturate_variable(I, 0)
    assert S == Ideal(R, [y, z * z])
    assert saturate_element(I, x) == S


def test_saturation_needs_homogeneous_generators():
    """Both saturations, and `Ideal.saturation()` through them, take only
    generators homogeneous in total degree."""
    I = Ideal(R, [x * x - y, x * z])
    with pytest.raises(ValueError, match="homogeneous"):
        saturate_variable(I, 0)
    with pytest.raises(ValueError, match="homogeneous"):
        saturate_irrelevant(I)
    with pytest.raises(ValueError, match="homogeneous"):
        I.saturation()


def test_irrelevant_saturation():
    primary = Ideal(R, [x * x, y * y, z * z])     # irrelevant-primary
    assert saturate_irrelevant(primary).contains(Polynomial.constant(R, 1))
    # x·m has the irrelevant ideal as an associated prime; saturation
    # strips it and leaves the hyperplane
    I = Ideal(R, [x * x, x * y, x * z])
    assert saturate_irrelevant(I) == Ideal(R, [x])
    # both components of (xy, xz) = (x) ∩ (y, z) are relevant: no-op
    J = Ideal(R, [x * y, x * z])
    assert saturate_irrelevant(J) == J


def test_certificate_compares_the_whole_hilbert_polynomial():
    """(x², xz) = (x) ∩ (x², z) is saturated.  Its first try,
    (x², xz) : z^∞ = (x), has the same dimension and degree but Hilbert
    polynomial t + 1 against t + 2, so it must be rejected."""
    for ring in (R, standard_ring(("x", "y", "z"), PrimeField(7))):
        a, _, c = (Polynomial.variable(ring, i) for i in range(3))
        I = Ideal(ring, [a * a, a * c])
        first = saturate_variable(I, 2)
        assert first == Ideal(ring, [a])
        assert first.dimension_degree() == I.dimension_degree()
        assert saturate_irrelevant(I) == I


def test_last_variable_saturation_shares_the_grevlex_basis():
    I = Ideal(R, [x * x * y, y * y * z, z * z * x])
    assert grevlex_with_last(3, 2) is GREVLEX
    assert I.groebner(grevlex_with_last(3, 2)) is I.groebner()
    # and the saturation by X_n comes with its own grevlex basis
    assert GREVLEX in saturate_variable(I, 2)._gb


def test_fallback_intersects_reduced_pieces(monkeypatch, quintic_ideal):
    """The quintic has a base point at each coordinate point, so the
    saturation of I⁴ intersects all three pieces I⁴ : X_i^∞.  Handed over
    as reduced bases they hold 5, 8 and 8 generators (built as J_2, J_1,
    J_0); I⁴'s own bases with X_i last hold 35, 43 and 43.  The base's
    own saturation, which certifies that no variable passes, is computed
    first, as every caller of a power's saturation does."""
    quintic_ideal.saturation()
    pieces = []

    original = ideals.intersect_many

    def recorded(ideal_list):
        pieces.append([len(J.generators) for J in ideal_list])
        return original(ideal_list)

    monkeypatch.setattr(ideals, "intersect_many", recorded)
    P = ideal_power(quintic_ideal, 4)
    saturate_irrelevant(P)
    assert pieces == [[5, 8, 8]]
    assert [len(P.groebner(grevlex_with_last(3, i)).polys)
            for i in (2, 1, 0)] == [35, 43, 43]


def test_a_power_is_saturated_through_its_base(monkeypatch, quintic_map):
    """`saturate_irrelevant(I⁴)` on the quintic reads I's certificate (no
    variable passes, as dim R/I = 1 with base points at every coordinate
    point) and intersects the three colons I⁴ : X_i^∞ untried.  I⁴ gets no
    basis of its own; the only other bases built in the source ring are
    those, with X_i last, of the products (Iˢ⁻¹ : X_i^∞)·(I : X_i^∞) for
    s = 2, 3, 4, each stripped to Iˢ : X_i^∞; I keeps I : X_i^∞ and
    I⁴ : X_i^∞, the product's stripped basis for s = 4.  For
    i = 2, 1, 0 the products have 3, 4, 5 / 6, 13, 18 / 6, 13, 18
    generators and bases of 3, 4, 5 / 7, 9, 10 / 7, 9, 10 elements, in
    place of the 35, 43 and 43 of I⁴'s own bases; and I holds its grevlex
    basis and those with X_1 and X_0 last."""
    built = []
    groebner_of = Ideal.groebner

    def logged(J, order=GREVLEX):
        if order not in J._gb:
            built.append((J, order))
        return groebner_of(J, order)

    monkeypatch.setattr(Ideal, "groebner", logged)
    I = Ideal(quintic_map.source, list(quintic_map.forms))
    P = ideal_power(I, 4)
    saturate_irrelevant(P)
    assert P._gb == {}
    products = [(J, order) for J, order in built
                if J.ring == I.ring and J is not I]
    steps = [(i, s) for i in (2, 1, 0) for s in (2, 3, 4)]
    assert [order for _, order in products] == [grevlex_with_last(3, i)
                                                for i, _ in steps]
    sizes = [(len(J.packed()[1]), len(J._gb[order].raw))
             for J, order in products]
    assert sizes == [(3, 3), (4, 4), (5, 5), (6, 7), (13, 9), (18, 10),
                     (6, 7), (13, 9), (18, 10)]
    for (J, order), (i, s) in zip(products, steps):
        assert J._power_of is None
        if s == 4:
            assert (J._gb[order].saturate_last(i).raw
                    == I._colons[i, s]._gb[order].raw)
    assert sorted(I._colons) == [(i, s) for i in range(3) for s in (1, 4)]
    assert list(I._gb) == [GREVLEX, grevlex_with_last(3, 1),
                           grevlex_with_last(3, 0)]


def test_membership_does_not_depend_on_the_basis_held():
    """`contains` reduces against any reduced basis the ideal holds, so the
    answer is the same whether it holds grevlex, another grevlex with a
    different last variable, an elimination order, or nothing yet."""
    gens = [x * x * y - z * z * z, y * y * z + x * z * z, x * y * z]
    probes = [g * h for g in gens for h in (x, y + z)]
    probes += [x * y, x * x * y, y * y * z - x * z * z, x * x * x * z,
               x * y * y * z, Polynomial.constant(R, 1)]
    answers = {}
    for order in (None, GREVLEX, grevlex_with_last(3, 0),
                  elimination_order(frozenset({0}))):
        I = Ideal(R, gens)
        if order is not None:
            I.groebner(order)
        answers[order] = [I.contains(p) for p in probes]
        # no basis is built beyond the one held
        assert list(I._gb) == [order if order is not None else GREVLEX]
    assert len(set(map(tuple, answers.values()))) == 1
    assert any(answers[None]) and not all(answers[None])


def test_hilbert_data_is_computed_once():
    I = Ideal(R, [x * x * y, y * y * z, z * z * x])
    assert I.hilbert() is I.hilbert()


def test_saturation_is_idempotent_on_example():
    I = Ideal(R, [x * x * y, y * y * z, z * z * x])
    S = saturate_irrelevant(I)
    assert saturate_irrelevant(S) == S
    for g in I.generators:
        assert S.contains(g)


def test_intersection_and_colon():
    assert intersect(Ideal(R, [x]), Ideal(R, [y])) == Ideal(R, [x * y])
    assert colon(Ideal(R, [x * y]), y) == Ideal(R, [x])
    J = intersect(Ideal(R, [x, y]), Ideal(R, [z]))
    assert J == Ideal(R, [x * z, y * z])


def test_sum_product_power():
    sq = ideal_power(Ideal(R, [x, y]), 2)
    assert sq == Ideal(R, [x * x, x * y, y * y])


def _ordered_product_power(I, s):
    """I^s as all n^s ordered products made monic, first occurrence of
    each kept: the products up to a unit."""
    out = I
    for _ in range(s - 1):
        out = Ideal(I.ring, [g * h for g in out.generators
                             for h in I.generators])
    seen, gens = set(), []
    for g in map(_normalize_poly, out.generators):
        key = tuple(sorted(g.terms.items()))
        if key not in seen:
            seen.add(key)
            gens.append(g)
    return tuple(gens)


@pytest.mark.parametrize("gens", [
    [x * x, x * y, y * y, z],                  # x^2·y^2 = (x·y)^2 repeats
    [x + y, x * z - y * y, z * z, y + z.scale(3)],
])
def test_power_matches_ordered_products(gens):
    I = Ideal(R, gens)
    for s in range(1, 5):
        assert ideal_power(I, s).generators == _ordered_product_power(I, s)


def _rand_power_generators(rng, ring):
    """Two or three sparse forms of degree 2 or 3 with small coefficients,
    over QQ with denominators up to 3; half the time three of them are
    c·a², b²/c and a·b for variables a, b, whose products x²·y² = (x·y)²
    coincide."""
    F = ring.field

    def coeff():
        return F.div(F.from_int(rng.choice((-3, -2, -1, 1, 2, 3))),
                     F.from_int(rng.randint(1, 3)))

    gens = []
    if rng.random() < 0.5:
        a, b = (Polynomial.variable(ring, i)
                for i in rng.sample(range(ring.nvars), 2))
        c = coeff()
        gens = [(a * a).scale(c), (b * b).scale(F.inv(c)), a * b]
    while len(gens) < rng.randint(2, 3):
        monos = rng.sample(degree_monomials(ring.nvars, rng.randint(2, 3)),
                           rng.randint(1, 3))
        gens.append(Polynomial.from_terms(ring, [(m, coeff()) for m in monos]))
    rng.shuffle(gens)
    return gens


def test_packed_powers_match_ordered_products():
    """Seeded: `ideal_power`'s packed products equal the ordered products
    of polynomials, and its basis in each order with one variable last
    equals the reduced basis of those products computed from scratch, over
    QQ and GF(7) in 3 and 4 variables."""
    rng = random.Random(20261019)
    coincided = 0
    for field in (QQ, PrimeField(7)):
        for nvars in (3, 4):
            ring = standard_ring(tuple("xyzw"[:nvars]), field)
            for _ in range(5):
                I = Ideal(ring, _rand_power_generators(rng, ring))
                for s in range(1, 5):
                    want = _ordered_product_power(I, s)
                    P = ideal_power(I, s)
                    assert P.generators == want
                    coincided += len(want) < comb(len(I.generators) + s - 1, s)
                    for i in range(nvars):
                        order = grevlex_with_last(nvars, i)
                        assert P.groebner(order).polys == reduced_groebner(
                            want, order=order, ring=ring).polys
    assert coincided


def test_a_power_past_the_cap_raises():
    """A power whose degree passes the cap raises ArithmeticError naming it
    before any key is formed, whatever the generator's terms."""
    half = (EXP_CAP + 1) // 2
    for gens in ([x ** half], [x ** (EXP_CAP - 3) + y * z, y]):
        I = Ideal(R, gens)
        with pytest.raises(ArithmeticError, match=str(EXP_CAP)):
            ideal_power(I, 2)
    ctx, (terms,) = Ideal(R, [x ** half]).packed()
    with pytest.raises(ArithmeticError, match=str(EXP_CAP)):
        engine.multiply(terms, terms, ctx)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF(7)"])
def test_generators_are_packed_up_to_a_unit(field):
    """A packed generator is one canonical term list: generators equal up
    to a unit pack alike, and their products are kept once in a power."""
    ring = standard_ring(("x", "y", "z"), field)
    u = Polynomial.variable(ring, 0)
    two, three = field.from_int(2), field.from_int(3)
    P = ideal_power(Ideal(ring, [u, u.scale(two)]), 2)
    assert P.generators == (u * u,)
    assert Ideal(ring, [u.scale(three)]).packed()[1] == \
        Ideal(ring, [u]).packed()[1]


def test_equality_is_by_value_and_ideals_are_unhashable():
    assert Ideal(R, [x, y]) == Ideal(R, [y, x + y])
    with pytest.raises(TypeError):
        hash(Ideal(R, [x, y]))


def test_saturation_is_computed_once():
    I = Ideal(R, [x * x, x * y, x * z])
    assert I.saturation() is I.saturation()
    assert I.saturation() == saturate_irrelevant(I) == Ideal(R, [x])


def test_exact_divide():
    f = (x + y) * (x - z)
    assert exact_divide(f, x + y) == x - z
    with pytest.raises(ValueError):
        exact_divide(f, x + z)


def test_poly_gcd():
    f = (x - y) * (x + y)
    g = (x - y) * (x - y)
    G = poly_gcd(f, g)
    assert exact_divide(G, x - y).is_constant()
    assert poly_gcd_list([f, g, (x - y) * z]) == G
    assert poly_gcd(x, y).is_constant()


def test_elimination_projects():
    # V(x - y, x - z) projects to the diagonal y = z
    I = Ideal(R, [x - y, x - z])
    J = eliminate(I, (0,))
    assert J.ring.variables == ("y", "z")
    assert [str(g) for g in J.minimal_basis()] == ["y - z"]


def test_minimal_basis_keeps_the_sorted_greedy_choice():
    assert [str(g) for g in Ideal(R, [y, x + y, x, x * x]).minimal_basis()] \
        == ["x", "x + y"]
    with pytest.raises(ValueError):
        Ideal(R, [x, y * y + x]).minimal_basis()


def test_a_basis_converts_nothing_until_an_element_is_read(monkeypatch,
                                                           quintic_map):
    """A basis holds the engine's term lists; its polynomials are built
    on first read, once."""
    conversions = count_calls(monkeypatch, groebner.from_raw)
    I = Ideal(quintic_map.source, list(quintic_map.forms))
    gb = I.groebner(grevlex_with_last(3, 0))
    assert conversions == [] and gb.raw
    polys = gb.polys
    assert gb.polys is polys and len(conversions) == len(polys) == len(gb.raw)


def test_eliminate_converts_only_the_result(monkeypatch, quintic_map):
    """`eliminate` picks the block-free elements of the elimination basis
    on their lead keys and carries them over as term lists: nothing is
    converted until the result's generators are read, and then one
    conversion per generator."""
    I = Ideal(quintic_map.source, list(quintic_map.forms))
    conversions = count_calls(monkeypatch, groebner.from_raw)
    E = eliminate(I, (0,))
    assert conversions == []
    gens = E.generators
    assert len(conversions) == len(gens) > 0 and E.generators is gens
    assert len(I.groebner(elimination_order({0})).raw) > len(E.generators)
