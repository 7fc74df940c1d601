"""Acceptance gate: one test per contract criterion, exact equalities only.

Run with ``-v`` to get a single pass/fail line per criterion.  Each body is
wall-clock budgeted; expensive shared computations (the flagship pipeline
run) happen once per session in conftest fixtures and stay far below every
budget.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

from mapfibers import (PipelineOptions, check_divisor_degree_bound,
                       format_map_file, run_pipeline, saturate_irrelevant)
from mapfibers.cli import main
from mapfibers.cohomology import hdim_difference
from mapfibers.ideals import ideal_power
from mapfibers.modules import free_resolution


@contextmanager
def _budget(seconds):
    t0 = time.perf_counter()
    yield
    assert time.perf_counter() - t0 < seconds


def _ideals_equal(A, B):
    return A.is_subideal_of(B) and B.is_subideal_of(A)


def test_criterion_1_saturation_and_divisor_bound(quintic_map, quintic_ideal,
                                                  quintic_result):
    with _budget(60):
        I = quintic_ideal
        assert _ideals_equal(I, saturate_irrelevant(I))
        assert saturate_irrelevant(ideal_power(I, 2)).initial_degree() == 8
        v = check_divisor_degree_bound(quintic_map, 2,
                                       quintic_result.search.records)
        assert (v.nu, v.divisor_sum, v.sd) == (8, 8, 10)
        assert v.applicable and v.holds


def test_criterion_2_fiber_inventory(quintic_result):
    with _budget(300):
        search = quintic_result.search
        assert search.complete
        assert len(search.records) == 8
        assert all(r.fiber_dimension == 1 for r in search.records)
        got = {tuple(r.point.coords): str(r.divisor) for r in search.records}
        assert got == {
            (0, 0, 0, 1): "X0",
            (0, 0, 1, 0): "X1",
            (0, 1, 0, -1): "X0 + X2",
            (0, 1, 0, Fraction(1, 2)): "X0 - 2*X2",
            (0, 1, 0, 1): "X0 - X2",
            (1, 0, -1, 0): "X1 + X2",
            (1, 0, Fraction(1, 2), 0): "X1 - 2*X2",
            (1, 0, 1, 0): "X1 - X2",
        }


def test_criterion_3_resolution_shifts(quintic_ideal):
    with _budget(60):
        res = free_resolution(quintic_ideal)
        assert sorted(res.modules[1].shifts) == [5, 5, 5, 5]
        assert sorted(res.modules[2].shifts) == [6, 6, 8]


def test_criterion_4_hilbert_data_and_sandwiches(quintic_ideal,
                                                 quintic_result):
    with _budget(60):
        d = 5
        h = quintic_ideal.hilbert()
        assert h.numerator == {0: 1, 5: -4, 6: 2, 8: 1}
        dim, deg = quintic_ideal.dimension_degree()
        assert (dim, deg) == (1, 18)
        n = hdim_difference(quintic_ideal, 1, d - 2)
        assert n == 8
        lo, hi = d * (d + 1) // 2, d * d - 2 * d + 3
        assert (lo, deg, hi) == (15, 18, 18)
        n_hi = d * (d - 3) // 2 + 3
        assert (d, n, n_hi) == (5, 8, 8)
        assert n == deg - d * (d - 1) // 2
        sb = quintic_result.report["surface_bounds"]
        assert sb["all_hold"] is True
        assert all(it["applicable"] for it in sb["items"])


def test_criterion_5_module_table_two_sided(quintic_map, quintic_result):
    with _budget(900):
        pres = quintic_map.presentation[0]
        assert {s: pres.hilbert.hf(s) for s in (1, 2, 3, 4)} == \
            {1: 8, 2: 10, 3: 9, 4: 8}
        assert all(pres.hilbert.hf(s) == 8 for s in (8, 9, 10))
        assert pres.stable_value == 8
        module = quintic_result.report["module"]
        assert module["table"] == {"1": 8, "2": 10, "3": 9, "4": 8}
        assert module["two_sided"]["holds"] is True
        formula = module["degree_formula"]
        assert formula["holds"] is True
        degrees = [r.divisor_degree for r in quintic_result.search.records]
        assert sum(comb(deg + 1, 2) for deg in degrees) == 8
        assert formula["expected"] == formula["stabilized"] == 8


def _rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0),
                   None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_criterion_6_fitting_support(quintic_map, quintic_result):
    # Fitt0 and the annihilator of a module generated by n elements satisfy
    # ann^n ⊆ Fitt0 ⊆ ann, so their vanishing loci coincide.  The inclusion
    # of the eight points in V(Fitt0) is certified directly: the evaluated
    # presentation matrix drops rank below n at each of them.
    with _budget(300):
        pres = quintic_map.presentation[0]
        ann = pres.annihilator
        assert ann.hilbert().krull_dim == 1  # cone over finitely many points
        fiber_pts = {tuple(r.point.coords)
                     for r in quintic_result.search.records}
        support = {tuple(p)
                   for p in (pt.coords for pt in _support_points(ann))}
        assert support == fiber_pts
        n = pres.ranks[2]
        for rec in quintic_result.search.records:
            coords = list(rec.point.coords)
            evaluated = [[e.evaluate(coords) for e in row]
                         for row in pres.matrix]
            assert _rank(evaluated) < n


def _support_points(ann):
    from mapfibers.fibers import rational_points_zero_dim
    pts, complete = rational_points_zero_dim(ann)
    assert complete
    return pts


def test_criterion_7_property_suites_cover_contract():
    # the suites themselves run in this session (test_properties.py); this
    # line attests their scale and reproducibility parameters
    with _budget(600):
        import test_properties as props
        assert tuple(f.characteristic() for f in props.FIELDS) == (7, 11)
        assert isinstance(props.SEED, int)
        assert 2 * props.N_GCD >= 100
        assert 2 * props.N_SAT >= 100
        assert 2 * props.N_COH >= 100
        assert 2 * props.N_NF >= 100
        assert 4 * props.N_GB_CASES >= 100
        for name in ("test_gcd_lcm_identities",
                     "test_saturation_idempotent_and_stable",
                     "test_cohomology_dimension_two_routes_agree",
                     "test_normal_form_idempotent_and_sound",
                     "test_reduced_groebner_deterministic_in_parallel"):
            assert callable(getattr(props, name))


def test_criterion_8_oracle_agreement_covers_contract():
    # the two-way agreement itself runs in test_oracle_agreement.py; this
    # line attests the sample size and map family
    with _budget(600):
        import test_oracle_agreement as oa
        assert oa.DEGREE == 3
        assert oa.F7.characteristic() == 7
        assert len(oa.MAPS) >= 20
        assert callable(oa.test_search_agrees_with_oracle)


def test_criterion_9_degenerate_inputs(bpf_map, ngf_map):
    res = run_pipeline(bpf_map, PipelineOptions(s_max=3))
    assert res.exit_code == 0
    assert res.search.records == [] and res.search.complete
    module = res.report["module"]
    assert all(v == 0 for v in module["table"].values())
    assert module["degree_formula"]["stabilized"] == 0
    assert module["degree_formula"]["holds"] is True

    res2 = run_pipeline(ngf_map, PipelineOptions(s_max=2))
    assert res2.exit_code == 2
    assert "fibers" not in res2.report


def test_analyze_finishes_on_the_first_generic_bench_cubic(tmp_path):
    # `analyze` on the oracle generator's first map (seed 733, a generic
    # GF(7) cubic) with its duality cross-check, which once ran for minutes
    import test_oracle_agreement as oa
    assert oa.SEED == 733
    path = tmp_path / "cubic_00_generic.map"
    path.write_text(format_map_file(oa.MAPS[0]))
    out = tmp_path / "report.json"
    with _budget(60):
        code = main(["analyze", str(path), "--json", str(out)])
    with open(out, encoding="utf-8") as fh:
        module = json.load(fh)["module"]
    assert module["cross_table"] == module["table"]
    assert code == main(["fibers", str(path)])
