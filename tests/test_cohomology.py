from types import SimpleNamespace

import pytest

from mapfibers import cohomology, groebner, pipeline
from mapfibers.cohomology import (CohomologyTable,
                                  check_module_degree_formula, hdim_difference,
                                  hdim_duality, m_mu_dims, n_table)
from mapfibers.fibers import build_map
from mapfibers.ideals import Ideal, ideal_power
from mapfibers.pipeline import PipelineOptions, run_pipeline
from mapfibers.poly import Polynomial
from mapfibers.rings import GREVLEX, grevlex_with_last, standard_ring
from conftest import count_calls
from references import hypersurface_hdim

R = standard_ring(("x", "y", "z"))
x, y, z = (Polynomial.variable(R, i) for i in range(3))


def test_hypersurface_closed_form():
    # binary quartic: R/(f) has cone dimension 1, H^1 carried by 4 points
    R2 = standard_ring(("x", "y"))
    a, b = (Polynomial.variable(R2, i) for i in range(2))
    J = Ideal(R2, [a ** 4 + b ** 4])
    for t in range(0, 6):
        expected = hypersurface_hdim(4, t, 1)
        assert hdim_difference(J, 1, t) == expected
        assert hdim_duality(J, 1, t) == expected


def test_two_routes_agree_on_non_principal_ideal():
    J = Ideal(R, [x * x, x * y, y ** 3])
    for t in range(0, 4):
        assert hdim_difference(J, 1, t) == hdim_duality(J, 1, t)


def test_quintic_strands(quintic_map, quintic_ideal):
    # the module strand: dim H^2(I^s) at degree 5s - 2
    table = n_table(quintic_map, range(1, 5))
    assert table.values == {1: 8, 2: 10, 3: 9, 4: 8}
    # duality cross-check agrees where computed
    for s, v in table.cross_values.items():
        assert v == table.values[s]
    # a strand that dies: degree 5s - 1
    minus1 = m_mu_dims(quintic_ideal, 5, -1, range(1, 4))
    assert minus1.values == {1: 3, 2: 2, 3: 0}


def test_degree_formula_requires_stabilization():
    # two constant entries are fewer than the three-run window, which the
    # verdict does not read anyway: with no certified stable value it is
    # inconclusive and says why
    R2 = standard_ring(("x", "y"))
    a = Polynomial.variable(R2, 0)
    t = m_mu_dims(Ideal(R2, [a ** 5]), 5, -3, range(1, 3))
    t.detect_stabilization()
    assert t.stable_value is None
    why = "no presentation of N for m = 1, n = 2"
    verdict = check_module_degree_formula([1, 1], 1, None, why)
    assert verdict.inconclusive and not verdict.holds
    assert verdict.stabilized_value is None
    assert verdict.detail == f"no certified stable value: {why}"


def test_an_incomplete_inventory_bounds_the_sum_below():
    """With an incomplete inventory the divisor sum is a lower bound: a
    stable value above it is inconclusive and names the cause, one below
    it still fails, and so does any mismatch of a complete one."""
    why = "support has components with no rational point"
    source = "the presentation cokernel"
    above = check_module_degree_formula([1] * 6, 2, 8, source, why)
    assert (above.holds, above.inconclusive) == (False, True)
    assert why in above.detail and "lower bound" in above.detail
    for degrees, cause in (([1] * 9, why), ([1] * 6, None)):
        v = check_module_degree_formula(degrees, 2, 8, source, cause)
        assert (v.holds, v.inconclusive) == (False, False)
    v = check_module_degree_formula([1] * 8, 2, 8, source, why)
    assert (v.holds, v.inconclusive) == (True, False)


def test_the_presentation_value_comes_before_the_table_window(
        monkeypatch, quintic_map):
    """A table whose window reads 9 does not outrank the cokernel's
    certified stable value 8, which matches the quintic's eight divisors
    of degree 1 (Σ C(1 + 1, 2) = 8): the verdict reads that value only."""
    table = CohomologyTable(mu=-2, m=2, values={1: 8, 2: 9, 3: 9, 4: 9})
    table.detect_stabilization()
    assert table.stable_value == 9
    monkeypatch.setattr(pipeline, "n_table", lambda *args: table)
    res = run_pipeline(quintic_map, PipelineOptions(
        divisor_bound=False, factorization=False, surface_bounds=False))
    formula = res.report["module"]["degree_formula"]
    assert (formula["holds"], formula["inconclusive"],
            formula["stabilized"]) == (True, False, 8)
    assert formula["detail"] == ("stabilized value 8 taken from the "
                                 "presentation cokernel vs divisor sum 8")


def test_cross_table_only_when_a_second_route_ran():
    # m = 1 has only the duality route: nothing is cross-checked
    R2 = standard_ring(("x", "y"))
    a, b = (Polynomial.variable(R2, i) for i in range(2))
    t = n_table(build_map([a ** 3, b ** 3]), range(1, 3))
    assert t.values and t.cross_values == {}


def test_degree_formula_on_stable_table(bpf_map):
    table = n_table(bpf_map, range(1, 5))
    table.detect_stabilization()
    assert table.stable_value == 0
    verdict = check_module_degree_formula(
        [], 2, bpf_map.presentation[0].stable_value,
        "the presentation cokernel")
    assert verdict.holds and not verdict.inconclusive
    assert verdict.divisor_sum == 0


def test_duality_route_reads_only_the_generators(monkeypatch, quintic_ideal):
    # the cross-check shares nothing with the difference route but the
    # ideal: with every held basis, series and saturation of an ideal made
    # unreachable, duality gives the same values from the packed
    # generators and the ring
    powers = {s: ideal_power(quintic_ideal, s) if s > 1 else quintic_ideal
              for s in range(1, 5)}
    points = [(s, i, 5 * s - 2 + dt) for s in powers for i in (1, 2)
              for dt in (0, 1)]
    before = [hdim_duality(powers[s], i, t) for s, i, t in points]

    def unreachable(*args, **kwargs):
        raise AssertionError("the duality route read the ideal's bases")

    for name in ("groebner", "hilbert", "saturation"):
        monkeypatch.setattr(Ideal, name, unreachable)
    bare = {s: SimpleNamespace(ring=J.ring, packed=J.packed)
            for s, J in powers.items()}
    assert [hdim_duality(bare[s], i, t) for s, i, t in points] == before
    assert [v for (s, i, t), v in zip(points, before)
            if i == 1 and t == 5 * s - 2] == [8, 10, 9, 8]


def test_the_strand_multiplies_no_polynomials(monkeypatch, quintic_map):
    """`m_mu_dims` builds every power, saturation and intersection on the
    engine's term lists: no polynomial is multiplied, the only
    polynomials packed into term lists are the base ideal's generators,
    once each, and no term list is converted back into a polynomial."""
    I = Ideal(quintic_map.source, list(quintic_map.forms))
    packed = count_calls(monkeypatch, groebner.to_raw,
                         key=lambda vec, ctx: vec)
    unpacked = count_calls(monkeypatch, groebner.from_raw)

    def refuse(*args):
        raise AssertionError("a polynomial product")

    monkeypatch.setattr(Polynomial, "__mul__", refuse)
    table = m_mu_dims(I, quintic_map.d, -2, range(1, 6))
    assert table.values == {1: 8, 2: 10, 3: 9, 4: 8, 5: 8}
    assert packed == [(g,) for g in I.generators]
    assert unpacked == []


def test_the_strand_builds_no_basis_of_a_power(monkeypatch, quintic_map):
    """dim R/I = 1 for the quintic, so each power I^s (s ≥ 2) of the strand
    is saturated from I's certificate and H¹ of R/I^s is read off the
    saturation: no power asks for a basis or a Hilbert series of its own,
    and the values are unchanged."""
    I = Ideal(quintic_map.source, list(quintic_map.forms))
    powers, asked = [], []
    groebner_of, hilbert_of = Ideal.groebner, Ideal.hilbert

    def built_power(B, s):
        powers.append(ideal_power(B, s))
        return powers[-1]

    def logged(J, order=GREVLEX):
        asked.append(J)
        return groebner_of(J, order)

    def spied(J):
        asked.append(J)
        return hilbert_of(J)

    monkeypatch.setattr(cohomology, "ideal_power", built_power)
    monkeypatch.setattr(Ideal, "groebner", logged)
    monkeypatch.setattr(Ideal, "hilbert", spied)
    table = m_mu_dims(I, quintic_map.d, -2, range(1, 6))
    assert table.values == {1: 8, 2: 10, 3: 9, 4: 8, 5: 8}
    assert len(powers) == 4 and asked
    assert not any(J is P for J in asked for P in powers)


def test_the_strand_builds_one_colon_basis_per_variable_and_power(
        monkeypatch, quintic_map):
    """`m_mu_dims` on the quintic for s = 1..5 builds, in the source ring,
    exactly one basis with X_i last per (i, s), and strips each once: I's
    own for s = 1, that of (Iˢ⁻¹ : X_i^∞)·(I : X_i^∞) for s ≥ 2.  I keeps
    I : X_i^∞ and the colon of the last power, so no step rebuilds or
    re-strips one of an earlier s."""
    I = Ideal(quintic_map.source, list(quintic_map.forms))
    orders = {grevlex_with_last(3, i): i for i in range(3)}
    built, stripped = [], []
    groebner_of = Ideal.groebner
    strip = groebner.GroebnerBasis.saturate_last

    def logged(J, order=GREVLEX):
        if order not in J._gb and J.ring == I.ring and order in orders:
            built.append(orders[order])
        return groebner_of(J, order)

    def counted(gb, i):
        stripped.append(i)
        return strip(gb, i)

    monkeypatch.setattr(Ideal, "groebner", logged)
    monkeypatch.setattr(groebner.GroebnerBasis, "saturate_last", counted)
    table = m_mu_dims(I, quintic_map.d, -2, range(1, 6))
    assert table.values == {1: 8, 2: 10, 3: 9, 4: 8, 5: 8}
    assert sorted(built) == sorted(stripped) == [0] * 5 + [1] * 5 + [2] * 5
    assert sorted(I._colons) == [(i, s) for i in range(3) for s in (1, 5)]


def test_h0_reads_the_quotient_and_h1_only_the_saturation(monkeypatch,
                                                          quintic_ideal):
    """On a power of the quintic's base ideal, H¹ asks for no Hilbert data
    of the power, H⁰ reads HF(R/J) as well, and both agree with duality.
    The route refuses dim R/J > 1, for an ideal and for a power."""
    P = ideal_power(quintic_ideal, 2)
    asked = []
    hilbert_of = Ideal.hilbert

    def spied(J):
        asked.append(J)
        return hilbert_of(J)

    monkeypatch.setattr(Ideal, "hilbert", spied)
    for t in (8, 9):
        assert hdim_difference(P, 1, t) == hdim_duality(P, 1, t)
    assert not any(J is P for J in asked)
    for t in (8, 9, 10):
        del asked[:]
        assert hdim_difference(P, 0, t) == hdim_duality(P, 0, t)
        assert any(J is P for J in asked)
    for J in (Ideal(R, [x * y]), ideal_power(Ideal(R, [x * y, x * z]), 2)):
        with pytest.raises(ValueError, match="dim R/J"):
            hdim_difference(J, 1, 2)
