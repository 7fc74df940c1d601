"""Seeded planted-factor tests of `solve.field_roots`.

Each polynomial is a product of planted factors: powers (x − r)^k of
linear factors, an irreducible quadratic, and over GF(3) and GF(7)
p-th powers x^p + a = (x + a)^p, whose derivative vanishes.  The roots returned must
be the planted field roots, and the polynomial must be reported as
splitting exactly when no nonlinear factor was planted.
"""

import random
from fractions import Fraction

import pytest

from mapfibers import QQ, PrimeField
from mapfibers.solve import field_roots

# root search over GF(32003) tries every element, so it gets fewer cases
CASES = {None: 250, 3: 250, 7: 250, 32003: 50}

# an irreducible quadratic per field, as ascending coefficients
QUADRATIC = {None: [-2, 0, 1], 3: [1, 0, 1], 7: [-3, 0, 1], 32003: [-2, 0, 1]}


def _mul(a, b, F):
    out = [F.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return out


def _random_root(rng, p):
    if p is None:
        return Fraction(rng.randint(-12, 12), rng.randint(1, 6))
    return rng.randrange(p)


@pytest.mark.parametrize("p", [None, 3, 7, 32003])
def test_field_roots_find_planted_roots_and_splitting(p):
    F = QQ if p is None else PrimeField(p)
    quad = [F.from_int(c) for c in QUADRATIC[p]]
    if p is not None:
        # the quadratic x^2 + c has no root in GF(p)
        assert all(F.add(F.mul(x, x), quad[0]) for x in range(p))
    rng = random.Random(f"planted-{p}")
    seen_pth, seen_split, seen_nonsplit = 0, 0, 0
    for _ in range(CASES[p]):
        f = [F.from_int(rng.randint(1, 2))]
        planted = set()
        linear_only = True
        for _ in range(rng.randint(0, 3)):
            r = _random_root(rng, p)
            planted.add(r)
            for _ in range(rng.randint(1, 3)):
                f = _mul(f, [F.neg(r), F.one()], F)
        if rng.random() < 0.4:
            linear_only = False
            for _ in range(rng.randint(1, 2)):
                f = _mul(f, quad, F)
        if p is not None and p < 100 and rng.random() < 0.5:
            # x^p + a = (x + a)^p over GF(p)
            a = rng.randrange(p)
            f = _mul(f, [a] + [0] * (p - 1) + [1], F)
            planted.add(F.neg(a))
            seen_pth += 1
        roots, splits = field_roots(f, F)
        assert roots == sorted(planted)
        assert splits == linear_only
        seen_split += splits
        seen_nonsplit += not splits
    assert seen_split and seen_nonsplit
    assert seen_pth or p in (None, 32003)
