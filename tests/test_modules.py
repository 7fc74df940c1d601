import random
from math import comb

import pytest

from mapfibers import engine, groebner, linalg
from mapfibers.fields import QQ, PrimeField
from mapfibers.modules import (FreeModule, FreeModuleMap, free_resolution,
                               generator_map, kernel_of_free_map,
                               minimal_generators, module_groebner,
                               submodule_colon_component, vec_is_zero,
                               vector_degree)
from mapfibers.ideals import Ideal, degree_monomials, ideal_power
from mapfibers.poly import Polynomial
from mapfibers.rings import standard_ring
from references import iterated_kernel_resolution

R = standard_ring(("x", "y", "z"))
x, y, z = (Polynomial.variable(R, i) for i in range(3))
zero = Polynomial.zero(R)


def test_koszul_syzygy_of_two_variables():
    target = FreeModule(R, (0,))
    source = FreeModule(R, (1, 1))
    M = FreeModuleMap(source, target, [[x, y]])
    ker = kernel_of_free_map(M)
    assert len(ker) == 1
    sy = ker[0]
    assert M.apply(sy) == (zero,)
    # the syzygy is (y, -x) up to sign and scale
    assert {str(sy[0]).lstrip("-"), str(sy[1]).lstrip("-")} == {"x", "y"}


def test_kernel_elements_map_to_zero(quintic_map):
    forms = list(quintic_map.forms)
    ring = quintic_map.source
    target = FreeModule(ring, (0,))
    source = FreeModule(ring, (5,) * 4)
    M = FreeModuleMap(source, target, [forms])
    ker = kernel_of_free_map(M)
    degs = sorted(vector_degree(v, source.shifts) for v in ker)
    assert degs == [6, 6, 8]
    for v in ker:
        assert all(c.is_zero() for c in M.apply(v))


def test_resolution_of_two_variables():
    res = free_resolution(Ideal(R, [x, y]))
    assert [sorted(fm.shifts) for fm in res.modules[:3]] == [[0], [1, 1], [2]]
    # composition of consecutive maps vanishes
    for i in range(len(res.maps) - 1):
        outer, inner = res.maps[i], res.maps[i + 1]
        for c in range(inner.source.rank):
            img = inner.column(c)
            assert all(e.is_zero() for e in outer.apply(img))
    # a map builds its graph basis only when a kernel or a lift asks
    assert all("graph" not in vars(phi) for phi in res.maps)


def test_quintic_resolution_shifts(quintic_ideal):
    res = free_resolution(quintic_ideal)
    assert sorted(res.modules[1].shifts) == [5, 5, 5, 5]
    assert sorted(res.modules[2].shifts) == [6, 6, 8]
    # the powers' Betti tables are those of the iterated-kernel reference
    for s in (2, 3):
        power = ideal_power(quintic_ideal, s)
        gens = list(power.generators)
        assert ([sorted(fm.shifts) for fm in free_resolution(power).modules]
                == [sorted(fm.shifts) for fm in
                    iterated_kernel_resolution(gens).modules])


def test_lift_through_generators():
    free = FreeModule(R, (0, 0))
    gens = [(x, y), (zero, z)]
    vec = (x * z, y * z + z * z)
    cover = generator_map(gens, free)
    lam = cover.lift(vec)
    assert lam is not None
    lhs0 = lam[0] * gens[0][0] + lam[1] * gens[1][0]
    lhs1 = lam[0] * gens[0][1] + lam[1] * gens[1][1]
    assert lhs0 == vec[0] and lhs1 == vec[1]
    assert cover.lift((Polynomial.constant(R, 1), zero)) is None


def test_module_groebner_membership():
    free = FreeModule(R, (0, 0))
    gens = [(x, zero), (zero, y)]
    mgb = module_groebner(gens, free)
    assert vec_is_zero(mgb.normal_form((x * y, y * y)))
    assert not vec_is_zero(mgb.normal_form((y, zero)))


def test_minimal_generators_builds_one_basis_per_later_degree(monkeypatch):
    built = []
    real_init = groebner.GroebnerBasis.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(groebner.GroebnerBasis, "__init__", counting_init)
    free = FreeModule(R, (0,))
    # four degrees, three vectors kept, none in degrees 3 and 4: a basis
    # after every kept vector would make three, and so would a basis at
    # every degree after the first
    vecs = [(x * z,), (x,), (z * z,), (y,), (x + y,), (y * z,), (z ** 3,),
            (x * y * z,), (y * z ** 3,)]
    chosen = minimal_generators(vecs, free)
    assert [str(v[0]) for v in chosen] == ["x", "y", "z^2"]
    assert len(built) <= 2


def test_resolution_of_a_non_minimal_basis_is_pruned():
    # the basis xy, x^2 − y^2, y^3 of a complete intersection gives a frame
    # R ← R(−2)^2 ⊕ R(−3) ← R(−3) ⊕ R(−4); its unit entry goes, leaving
    # R ← R(−2)^2 ← R(−4) with no constant entry
    gens = [x * x - y * y, x * y]
    assert len(groebner.reduced_groebner(gens).polys) == 3
    res = free_resolution(Ideal(R, gens))
    assert [sorted(fm.shifts) for fm in res.modules] == [[0], [2, 2], [4]]
    assert all(p.is_zero() or not p.is_constant()
               for phi in res.maps for row in phi.matrix for p in row)
    inner, outer = res.maps[1], res.maps[0]
    assert all(e.is_zero() for e in outer.apply(inner.column(0)))


def test_dropping_a_frame_syzygy_breaks_the_certificate(monkeypatch,
                                                         quintic_ideal):
    # without one syzygy of the last frame the resolution is no longer
    # exact, and its Betti numbers miss the Hilbert numerator
    real = engine.schreyer_syzygies

    def drop_one_at_the_end(elems, ctx):
        elems, syz = real(elems, ctx)
        if syz and not engine.schreyer_frame([s[0][0] for s in syz], ctx):
            syz = syz[:-1]
        return elems, syz

    monkeypatch.setattr(engine, "schreyer_syzygies", drop_one_at_the_end)
    with pytest.raises(ArithmeticError, match="Hilbert numerator"):
        free_resolution(quintic_ideal)


def test_submodule_colon_component_against_membership():
    """Seeded, over GF(7) and QQ: for random graded submodules U of
    R ⊕ R(−1) ⊕ R(−1) and each component j, every returned b has
    b·e_j ∈ U, and in each degree t ≤ 7 the returned ideal has the
    dimension of {b ∈ R_t : b·e_j ∈ U}, the kernel of b ↦ NF_U(b·e_j)."""
    rng = random.Random(20261019)
    for field in (PrimeField(7), QQ):
        Rf = standard_ring(("x", "y", "z"), field)
        free = FreeModule(Rf, (0, 1, 1))
        nil = Polynomial.zero(Rf)

        def form(deg):
            monos = degree_monomials(3, deg)
            return Polynomial(Rf, {m: field.from_int(rng.choice((-3, -1, 1, 2)))
                                   for m in rng.sample(monos, min(3, len(monos)))})

        for _ in range(3):
            vectors = [tuple(form(D - a) for a in free.shifts)
                       for D in (2, 2, 3, 3)]
            U = module_groebner(vectors, free)
            for j in range(free.rank):
                def on_j(b):
                    return tuple(b if c == j else nil for c in range(free.rank))

                colon = submodule_colon_component(vectors, free, j)
                assert all(vec_is_zero(U.normal_form(on_j(b))) for b in colon)
                for t in range(8):
                    nfs = [U.normal_form(on_j(Polynomial(Rf, {m: field.one()})))
                           for m in degree_monomials(3, t)]
                    rows = [{(c, m): a for c, p in enumerate(f)
                             for m, a in p.terms.items()} for f in nfs]
                    inside = len(nfs) - linalg.rank(rows, field)
                    want = (comb(t + 2, 2) - Ideal(Rf, colon).hilbert().hf(t)
                            if colon else 0)
                    assert inside == want
