import pytest

from mapfibers.ideals import (Ideal, colon, eliminate, exact_divide,
                              ideal_power, ideal_product, intersect, poly_gcd,
                              poly_gcd_list, saturate_element,
                              saturate_irrelevant, saturate_variable)
from mapfibers.fields import PrimeField
from mapfibers.poly import Polynomial
from mapfibers.rings import GREVLEX, grevlex_with_last, standard_ring

R = standard_ring(("x", "y", "z"))
x, y, z = (Polynomial.variable(R, i) for i in range(3))


def test_variable_saturation_strips_powers():
    I = Ideal(R, [x * x * y, x * z * z])
    S = saturate_variable(I, 0)
    assert S == Ideal(R, [y, z * z])
    assert saturate_element(I, x) == S


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
    A, B = Ideal(R, [x]), Ideal(R, [y])
    assert ideal_product(A, B) == Ideal(R, [x * y])
    sq = ideal_power(Ideal(R, [x, y]), 2)
    assert sq == Ideal(R, [x * x, x * y, y * y])


def _ordered_product_power(I, s):
    """I^s as all n^s ordered products, first occurrence of each value kept."""
    out = I
    for _ in range(s - 1):
        out = ideal_product(out, I)
    seen, gens = set(), []
    for g in out.generators:
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
    J, small = eliminate(I, (0,))
    assert small.variables == ("y", "z")
    assert [str(g) for g in J.minimal_basis()] == ["y - z"]


def test_minimal_basis_keeps_the_sorted_greedy_choice():
    assert [str(g) for g in Ideal(R, [y, x + y, x, x * x]).minimal_basis()] \
        == ["x", "x + y"]
    with pytest.raises(ValueError):
        Ideal(R, [x, y * y + x]).minimal_basis()
