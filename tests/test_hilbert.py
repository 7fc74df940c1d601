from math import comb

from mapfibers.hilbert import hilbert_series_quotient, numerator_from_leads
from mapfibers.ideals import Ideal
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


def test_hilbert_polynomial_matches_function_eventually(quintic_ideal):
    H = quintic_ideal.hilbert()
    # HS = Q(z)/(1 − z)^n: HF equals HP from deg Q − n + 1 on, so past deg Q
    b = max(H.numerator) + 1
    for t in range(b, b + 4):
        assert H.hf(t) == H.hp(t)
