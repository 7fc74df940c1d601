import random
from itertools import combinations
from math import comb

import pytest

from mapfibers import linalg, modules
from mapfibers import QQ, PrimeField
from mapfibers.approx import (check_surface_bounds, contract, hom_coordinates,
                              koszul_cycles, minors, poly_minor,
                              presentation_applies, presentation_matrix_N)
from mapfibers.cohomology import dual_map_rows, hom_basis
from mapfibers.fibers import build_map
from mapfibers.mapfile import load_map_file
from mapfibers.modules import (FreeModule, FreeModuleMap, generator_map,
                               kernel_of_free_map, vec_is_zero, vector_degree)
from mapfibers.poly import Polynomial
from mapfibers.report import presentation_block
from mapfibers.rings import standard_ring
from mapfibers.ideals import degree_monomials
from conftest import count_calls, map_path
from references import cofactor_det, top_cycle_reference

R = standard_ring(("x", "y", "z"))
x, y, z = (Polynomial.variable(R, i) for i in range(3))

BUNDLED = ("quintic_surface.map", "irrational_fibers.map",
           "base_point_free.map", "non_generically_finite.map")


def fat_point_map(field):
    """x²z + y³, y²z + x³, xyz, x²y: a fat point at (0:0:1), rank n = 0."""
    ring = standard_ring(("x", "y", "z"), field)
    x, y, z = (Polynomial.variable(ring, i) for i in range(3))
    return build_map([x * x * z + y ** 3, y * y * z + x ** 3, x * y * z,
                      x * x * y])


def test_input_validation():
    with pytest.raises(ValueError):
        koszul_cycles(build_map([x, y, z]))           # needs 4 forms
    with pytest.raises(ValueError):
        koszul_cycles(build_map([x, y, z, Polynomial.zero(R)]))  # a zero form


def test_presentation_needs_a_map_to_p3():
    pmap = build_map([x * x, y * y, z * z, x * y, y * z])   # P^2 ⇢ P^4
    assert not presentation_applies(pmap)
    assert pmap.presentation == (None, None)


@pytest.fixture(scope="module")
def quintic_koszul(quintic_map):
    return koszul_cycles(quintic_map)


def test_cycle_generator_degrees(quintic_koszul):
    kd = quintic_koszul
    z1 = sorted(vector_degree(v, kd.modules[1].shifts) for v in kd.cycles[1])
    z2 = sorted(vector_degree(v, kd.modules[2].shifts) for v in kd.cycles[2])
    assert z1 == [6, 6, 8]
    assert z2 == [12, 14, 14]


def test_contraction_carries_cycles_to_cycles(quintic_koszul):
    kd = quintic_koszul
    d1 = kd.differentials[0]          # d_1: K_1 -> K_0
    for v in kd.cycles[2]:
        for i in range(4):
            w = contract(i, v, kd.ring)
            if not vec_is_zero(w):
                img = d1.apply(w)
                assert all(c.is_zero() for c in img)


def test_top_cycle_dual_dimension():
    """On the bundled maps (the last one's forms linearly dependent) and
    the fat point over GF(7) and QQ, Z_3 computed from d_3 is one
    generator of degree 4d, and dim Hom(Z_3, R)_{-3d-1} is the rank l
    that the presentation takes from depth, C(d+1, 2).  The last bundled
    map is not generically finite: its presentation is refused (N has
    Krull dimension 2), so only the reference's rank is compared there."""
    maps = ([load_map_file(map_path(name)) for name in BUNDLED]
            + [fat_point_map(field) for field in (PrimeField(7), QQ)])
    for k, pmap in enumerate(maps):
        degrees, dim = top_cycle_reference(pmap)
        assert degrees == [4 * pmap.d]
        assert dim == comb(pmap.d + 1, 2)
        if k == len(BUNDLED) - 1:
            with pytest.raises(ArithmeticError, match="Krull dimension 2"):
                presentation_matrix_N(pmap)
        else:
            assert presentation_matrix_N(pmap).ranks[0] == dim


def test_a_presentation_of_dimension_above_one_is_refused():
    """On `non_generically_finite.map` the cokernel has Krull dimension 2
    (dim N_s = s), so it has no stable value: `pmap.presentation` is
    (None, message) with the message naming the dimension, and the report
    block carries that message as its error."""
    pmap = load_map_file(map_path("non_generically_finite.map"))
    pres, error = pmap.presentation
    assert pres is None
    assert "Krull dimension 2" in error
    assert presentation_block(pmap) == {"error": error}


def test_hom_coordinates_read_off_the_nullspace(quintic_koszul):
    kd = quintic_koszul
    F = kd.ring.field
    W2 = linalg.nullspace(*dual_map_rows(kd.syzygies[2], -2 * kd.d - 1), F)
    assert len(W2) == 23
    for a, vec in enumerate(W2):
        unit = [F.one() if b == a else F.zero() for b in range(len(W2))]
        assert hom_coordinates(W2, vec, F) == unit


def test_hom_coordinates_reject_values_outside_hom():
    # M = (x, y): a degree-0 homomorphism sends x, y to c·x, c·y
    cover = generator_map([(x,), (y,)], FreeModule(R, (0,)))
    syz = generator_map(kernel_of_free_map(cover), cover.source)
    coords = hom_basis(syz.target.shifts, 0, 3)
    W = linalg.nullspace(*dual_map_rows(syz, 0), QQ)

    def vector(values):
        """The coordinates of the value tuple, one per (j, monomial)."""
        return [values[j].terms.get(m, QQ.zero()) for j, m in coords]

    assert (len(W), len(coords)) == (1, 6)
    assert (hom_coordinates(W, vector([x + x, y + y]), QQ)
            == [2 * hom_coordinates(W, vector([x, y]), QQ)[0]])
    with pytest.raises(ArithmeticError):
        hom_coordinates(W, vector([x, z]), QQ)   # z·x ≠ x·y: not in Hom


def test_dual_map_rows_rejects_a_non_homogeneous_map():
    """x² on R(−1) → R is not homogeneous of degree 0: its term lands in
    degree e + 2, outside the degree-(e + 1) basis of Hom(R(−1), R)_e."""
    bad = FreeModuleMap(FreeModule(R, (1,)), FreeModule(R, (0,)), [[x * x]])
    with pytest.raises(ArithmeticError, match="not homogeneous"):
        dual_map_rows(bad, 0)
    good = FreeModuleMap(FreeModule(R, (2,)), FreeModule(R, (0,)), [[x * x]])
    assert dual_map_rows(good, 0) == ([{0: 1}] + [{}] * 5, 1)


def test_presentation_builds_few_graph_bases(monkeypatch):
    """On a fresh map the Rees ideal and the presentation build four graph
    bases: the forms' row (Z_1 and the Rees linear part), the Koszul
    kernel Z_2, and the two cover syzygy maps, of which Z_1's also serves
    its lifts.  The forms' row is taken apart once."""
    built = []
    real = modules._graph_basis

    def counting(M):
        built.append(M)
        return real(M)

    monkeypatch.setattr(modules, "_graph_basis", counting)
    rows = count_calls(monkeypatch, kernel_of_free_map,
                       key=lambda M: M.target.rank == 1)
    pmap = load_map_file(map_path("quintic_surface.map"))
    assert pmap.rees.linear_part and pmap.lci_proxy
    pres = presentation_matrix_N(pmap)
    assert pres.ranks == (15, 23, 8)
    assert len(built) == 4
    assert rows.count(True) == 1


def test_presentation_matrix_is_linear(quintic_map):
    pres = quintic_map.presentation[0]
    l, mrank, n = pres.ranks
    assert (l, mrank, n) == (15, 23, 8)
    for row in pres.matrix:
        for entry in row:
            assert entry.is_zero() or entry.degree() == 1


def test_coker_dims_match_strand(quintic_map):
    pres = quintic_map.presentation[0]
    assert [pres.hilbert.hf(s) for s in (1, 2, 3, 4)] == [8, 10, 9, 8]
    assert all(pres.hilbert.hf(s) == 8 for s in range(8, 11))
    assert pres.stable_value == 8
    assert (pres.hilbert.krull_dim, pres.hilbert.degree) == (1, 8)


def test_zero_module_edge_case():
    pmap = build_map([x * x, y * y, z * z, x * y])
    pres = presentation_matrix_N(pmap)
    assert pres.ranks[2] == 0
    assert all(pres.hilbert.hf(s) == 0 for s in range(1, 5))
    assert pres.annihilator.ring == pmap.target
    assert pres.annihilator.contains(Polynomial.constant(pmap.target, 1))


def test_regularity_window_shows_the_dims_it_read():
    """On the fat point the rank n is 0, so the window [n, n+2] starts
    at s = 0, below the cokernel's generators; under the hypotheses that
    make the window applicable, the detail shows the three values the
    verdict read."""
    pres = presentation_matrix_N(fat_point_map(QQ))
    assert pres.ranks[2] == 0 and pres.hilbert.hf(0) == 0
    item = check_surface_bounds(pres, 3, lci=True, indeg_sat=3).items[0]
    assert item.name == "regularity_window" and item.holds
    assert item.detail == "dims on [n, n+2] = [0, 0, 0], constant at 0"


def _rand_entry(rng, ring):
    """A random form of degree 0 to 2 with up to three terms, or zero."""
    F = ring.field
    if rng.random() < 0.25:
        return Polynomial.zero(ring)
    monos = list(degree_monomials(3, rng.randint(0, 2)))
    items = [(m, F.div(F.from_int(rng.choice((-3, -2, -1, 1, 2, 3))),
                       F.from_int(rng.randint(1, 2))))
             for m in rng.sample(monos, rng.randint(1, min(3, len(monos))))]
    return Polynomial.from_terms(ring, items)


def test_minors_match_the_cofactor_expansion():
    """`poly_minor` on any row and column subsets, with one memo shared
    across them, and `minors`, equal the textbook cofactor expansion on
    random polynomial matrices over GF(7) and QQ."""
    rng = random.Random(20261020)
    for field in (PrimeField(7), QQ):
        ring = standard_ring(("x", "y", "z"), field)
        for _ in range(6):
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
            M = [[_rand_entry(rng, ring) for _ in range(ncols)]
                 for _ in range(nrows)]
            memo = {}
            for k in range(min(nrows, ncols) + 1):
                expected = []
                for rows in combinations(range(nrows), k):
                    for cols in combinations(range(ncols), k):
                        det = cofactor_det([[M[r][c] for c in cols]
                                            for r in rows], ring)
                        assert poly_minor(M, ring, rows, cols, memo) == det
                        if not det.is_zero():
                            expected.append(det)
                assert minors(M, ring, ncols, k) == expected, (M, k)
            assert minors(M, ring, ncols, 0) == minors(M, ring, ncols, -1) \
                == [Polynomial.constant(ring, 1)]


def test_surface_bounds_gating(quintic_map):
    pres = quintic_map.presentation[0]
    strict = check_surface_bounds(pres, 5, base_degree=18, lci=True,
                                  indeg_sat=5)
    assert strict.all_hold
    names = {it.name: it for it in strict.items}
    assert names["base_degree_sandwich"].applicable
    assert names["rank_formula"].applicable
    # without the lci certificate the window and the last two are reported
    # not applicable
    loose = check_surface_bounds(pres, 5, base_degree=18, lci=False,
                                 indeg_sat=5)
    names = {it.name: it for it in loose.items}
    assert not names["regularity_window"].applicable
    assert names["regularity_window"].detail.startswith(
        "dims on [n, n+2] = [8, 8, 8], constant at 8; requires")
    assert not names["base_degree_sandwich"].applicable
    assert names["base_degree_sandwich"].holds is None
    assert loose.all_hold                 # only applicable items count
