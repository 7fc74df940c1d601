from fractions import Fraction

import pytest

from mapfibers.fields import QQ, PrimeField
from mapfibers.fibers import (NotGenericallyFiniteError, base_locus,
                              brute_force_fiber_oracle, build_map,
                              check_fiber_factorization, fiber_dimension,
                              fibers_agree, find_one_dim_fibers, image_ideal,
                              linear_factors, recover_points_from_divisor,
                              rees_ideal, unmixed_part)
from mapfibers.poly import Polynomial
from mapfibers.rings import standard_ring
from mapfibers.solve import PointProjective

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
