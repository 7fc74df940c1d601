from math import comb

import pytest

from mapfibers.fields import QQ, PrimeField
from mapfibers.hilbert import hilbert_series_quotient, numerator_from_leads
from mapfibers.ideals import Ideal, ideal_power
from mapfibers.modules import FreeModule, module_groebner
from mapfibers.poly import Polynomial
from mapfibers.rings import standard_ring

R3 = standard_ring(("x", "y", "z"))


def free_module_series(shifts):
    """Hilbert series of ⊕ R(−shifts) as the quotient by the zero submodule."""
    return hilbert_series_quotient(module_groebner([], FreeModule(R3, shifts)))


def test_polynomial_ring_itself():
    H = free_module_series([0])
    for t in range(6):
        assert H.hf(t) == comb(t + 2, 2)
    assert H.krull_dim == 3


def test_shifted_free_module():
    H = free_module_series([2, 2, 5])
    assert H.hf(1) == 0
    assert H.hf(2) == 2
    assert H.hf(5) == 2 * comb(5, 2) + 1


def test_twisted_cubic_series():
    R = standard_ring(("x", "y", "z", "w"))
    x, y, z, w = (Polynomial.variable(R, i) for i in range(4))
    I = Ideal(R, [x * z - y * y, x * w - y * z, y * w - z * z])
    H = hilbert_series_quotient(I.groebner())
    # HS = (1 + 2t) / (1-t)^2: a degree-3 curve
    assert H.krull_dim == 2
    assert H.degree == 3
    assert [H.hf(t) for t in range(5)] == [1, 4, 7, 10, 13]


def test_monomial_numerator_inclusion_exclusion():
    # leads x^2, xy: numerator 1 - 2t^2 + t^3
    num = numerator_from_leads([(2, 0), (1, 1)], 2)
    assert num == {0: 1, 2: -2, 3: 1}


def test_quintic_numerator_and_base_degree(quintic_ideal):
    H = quintic_ideal.hilbert()
    assert H.numerator == {0: 1, 5: -4, 6: 2, 8: 1}
    assert [H.hf(t) for t in (3, 4, 5, 6)] == [10, 15, 17, 18]
    # the saturated base scheme: 18 points counted with multiplicity
    dim, deg = quintic_ideal.dimension_degree()
    assert (dim, deg) == (1, 18)


def _agree_past_numerators(H, K):
    """HF(H) = HF(K) at four degrees past both numerators' top degree."""
    b = max([0, *H.numerator, *K.numerator]) + 1
    return all(H.hf(t) == K.hf(t) for t in range(b, b + 4))


@pytest.mark.parametrize("s", [1, 2])
def test_same_polynomial_for_a_saturation(quintic_ideal, s):
    """J = I^s and J^sat share HP (J^sat/J has finite length), so their
    series differ by a polynomial, and past the numerators' top degree
    their Hilbert functions agree.  I is saturated; I² is not: (I²)^sat
    has forms of degree 8 < 10, so the two Hilbert functions differ."""
    I = Ideal(quintic_ideal.ring, quintic_ideal.generators)   # fresh caches
    J = ideal_power(I, s)
    H, K = J.hilbert(), J.saturation().hilbert()
    assert any(H.hf(t) != K.hf(t) for t in range(10)) == (s == 2)
    assert H.same_polynomial(K) and K.same_polynomial(H)
    assert _agree_past_numerators(H, K)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF(7)"])
def test_same_polynomial_sees_the_constant_term(field):
    """R/(x², xz) and R/(x) have the same dimension and degree, but
    Hilbert polynomials t + 2 and t + 1; either against itself passes."""
    R = standard_ring(("x", "y", "z"), field)
    x, _, z = (Polynomial.variable(R, i) for i in range(3))
    H, K = Ideal(R, [x * x, x * z]).hilbert(), Ideal(R, [x]).hilbert()
    assert (H.krull_dim, H.degree) == (K.krull_dim, K.degree)
    assert not H.same_polynomial(K) and not K.same_polynomial(H)
    assert H.same_polynomial(H) and K.same_polynomial(K)


def test_same_polynomial_sees_the_dimension():
    """Quotients of different dimension never share a Hilbert polynomial;
    the line (x) against (x, y) and the whole ring, and the point (x, y)
    against the zero module R/(1)."""
    x, y, _ = (Polynomial.variable(R3, i) for i in range(3))
    ring, line, point, unit = (Ideal(R3, gens).hilbert() for gens in
                               ([], [x], [x, y], [Polynomial.constant(R3, 1)]))
    for A, B in ((line, point), (line, ring), (point, unit), (ring, unit)):
        assert A.krull_dim != B.krull_dim
        assert not A.same_polynomial(B) and not B.same_polynomial(A)
