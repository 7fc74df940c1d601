import random
from fractions import Fraction

import pytest

from mapfibers.fields import QQ, PrimeField
from mapfibers.poly import Polynomial
from mapfibers.rings import standard_ring
from references import substitute_term_at_a_time

R = standard_ring(("x", "y", "z"))
x, y, z = (Polynomial.variable(R, i) for i in range(3))


def test_ring_arithmetic():
    f = (x + y) * (x - y)
    assert f == x * x - y * y
    assert (x + y) ** 2 == x * x + x.scale(2) * y + y * y
    assert (f - f).is_zero()
    assert x * (y + z) == x * y + x * z


def test_frobenius_over_gf2():
    R2 = standard_ring(("x", "y"), PrimeField(2))
    a = Polynomial.variable(R2, 0)
    b = Polynomial.variable(R2, 1)
    assert (a + b) ** 2 == a * a + b * b


def test_degree_and_homogeneity():
    assert (x * y * z).degree() == 3
    assert (x + y).is_homogeneous()
    assert not (x + y * z).is_homogeneous()
    assert Polynomial.zero(R).is_zero()
    assert Polynomial.constant(R, 0).is_zero()
    assert Polynomial.constant(R, Fraction(3, 4)).degree() == 0


def test_evaluate_and_substitute():
    f = x * x - y * z
    vals = [Fraction(2), Fraction(3), Fraction(1)]
    assert f.evaluate(vals) == Fraction(1)
    g = f.substitute({0: y + z})          # x -> y + z, same ring
    assert g == (y + z) * (y + z) - y * z


def _random_poly(rng, ring, nterms, maxdeg):
    F = ring.field
    items = [(tuple(rng.randint(0, maxdeg) for _ in range(ring.nvars)),
              F.from_int(rng.randint(-4, 4))) for _ in range(nterms)]
    return Polynomial.from_terms(ring, items)


def test_substitute_matches_term_at_a_time():
    """Seeded: partial assignments over QQ and GF(7).  Odd cases reuse the
    substituted variables in the values (a -> a + b), which must not be
    substituted again, and one value for several variables; even cases add
    (X_i - value)·B, whose image is zero, so terms must cancel."""
    rng = random.Random(20261018)
    for field in (QQ, PrimeField(7)):
        ring = standard_ring(("a", "b", "c", "d"), field)
        for k in range(40):
            f = _random_poly(rng, ring, rng.randint(0, 12), 3)
            keys = rng.sample(range(4), rng.randint(1, 3))
            if k % 2:
                shared = _random_poly(rng, ring, rng.randint(1, 3), 2)
                assignment = {i: shared if rng.random() < 0.3 else
                              _random_poly(rng, ring, rng.randint(0, 3), 2)
                              for i in keys}
            else:
                assignment = {}
                for i in keys:
                    value = _random_poly(rng, ring, rng.randint(1, 3), 2)
                    assignment[i] = Polynomial(ring, {
                        m: c for m, c in value.terms.items()
                        if all(m[j] == 0 for j in keys)})
                i = rng.choice(keys)
                B = _random_poly(rng, ring, rng.randint(1, 4), 2)
                f = f + (Polynomial.variable(ring, i) - assignment[i]) * B
            assert f.substitute(assignment) == \
                substitute_term_at_a_time(f, assignment)


def test_string_form_is_parseable():
    from mapfibers.mapfile import parse_polynomial
    f = x ** 3 - (x * y * z).scale(2) + z ** 3
    g = parse_polynomial(str(f), R)
    assert g == f
