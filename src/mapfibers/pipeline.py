"""Pipeline: hypotheses, fibers, bounds, module table, report assembly.

Runs the full analysis in dependency order and assembles the report
document.  Exit codes: 0 on success, 2 when a hypothesis fails (the map is
not generically finite, or the forms share a factor), 3 when the run
finished but completeness is not certified (e.g. fiber points outside the
base field).  Partial results are reported as computed, never fabricated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb
from typing import Dict, Optional

from .approx import check_surface_bounds
from .cohomology import (ModuleDegreeVerdict, check_module_degree_formula,
                         n_table)
from .fibers import (FiberSearch, ParameterizedMap,
                     check_divisor_degree_bound, check_fiber_factorization,
                     find_one_dim_fibers)
from .report import (SCHEMA_VERSION, divisor_bound_json, factorization_json,
                     fibers_block, image_block, input_block, point_json)

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_INCOMPLETE = 3


@dataclass
class PipelineOptions:
    s_max: int = 4
    divisor_bound: bool = True
    factorization: bool = True
    module_table: bool = True
    presentation: bool = True
    surface_bounds: bool = True


@dataclass
class PipelineResult:
    report: Dict
    exit_code: int
    search: Optional[FiberSearch] = None
    presentation: Optional[object] = None


class _Step:
    """Context manager recording wall time into the report's timing block."""

    def __init__(self, sink: Dict[str, float], name: str):
        self.sink = sink
        self.name = name

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.sink[self.name] = round(time.perf_counter() - self.t0, 3)
        return False


def run_pipeline(pmap: ParameterizedMap,
                 options: Optional[PipelineOptions] = None,
                 path: Optional[str] = None) -> PipelineResult:
    opt = options or PipelineOptions()
    timings: Dict[str, float] = {}
    report: Dict = {
        "schema_version": SCHEMA_VERSION,
        "input": input_block(pmap, path),
        "options": {"s_max": opt.s_max},
        "timings": timings,
    }
    m, d = pmap.m, pmap.d

    with _Step(timings, "hypotheses"):
        gcd_ok = pmap.common_factor is None
        img = pmap.image
        sat, cone_dim, bdeg = pmap.locus
        base_empty = cone_dim <= 0
        indeg_sat = sat.initial_degree()
        lci = pmap.lci_proxy
    report["hypotheses"] = {
        "gcd_is_one": gcd_ok,
        "common_factor": str(pmap.common_factor)
        if pmap.common_factor is not None else "1",
        "generically_finite": img.generically_finite,
        "image_dimension": img.dimension,
        "base_locus": {
            "empty": base_empty,
            "dimension": max(cone_dim - 1, -1),
            "degree": 0 if base_empty else bdeg,
        },
        "indeg_sat": indeg_sat,
        "indeg_equals_degree": indeg_sat == d,
        "lci_proxy": lci,
    }
    report["image"] = image_block(img)

    if not gcd_ok or not img.generically_finite:
        # hypothesis failure: stop before the fiber machinery
        return PipelineResult(report, EXIT_HYPOTHESIS)

    # presentation of N over the target ring (m = 2 with 4 nonzero forms)
    with _Step(timings, "presentation"):
        pres, pres_error = pmap.presentation
    if pres is not None and opt.presentation:
        pts, supp_complete = pmap.support
        supp_pts = sorted(pts or [], key=lambda p: p.coords)
        l, mrank, n = pres.ranks
        block = {
            "ranks": {"l": l, "mrank": mrank, "n": n},
            "matrix": [[str(e) for e in row] for row in pres.matrix],
            "coker_dims": {str(s): v for s, v in sorted(pres.coker_dims.items())},
            "stable_value": pres.stable_value,
            "dimension": pres.coker_dim_deg[0],
            "degree": pres.coker_dim_deg[1],
            "annihilator": [str(g) for g in pres.annihilator.minimal_basis()],
            "support_points": [point_json(p) for p in supp_pts],
            "support_complete": supp_complete,
        }
        if pres.fitting_ideal is not None:
            block["fitting"] = [str(g) for g in
                                pres.fitting_ideal.minimal_basis()]
        else:
            block["fitting"] = None
            block["fitting_note"] = ("minor expansion skipped: too many "
                                     "column choices; support certified via "
                                     "the annihilator (same radical)")
        report["presentation"] = block
    elif pres_error is not None and opt.presentation:
        report["presentation"] = {"error": pres_error}

    with _Step(timings, "fibers"):
        search = find_one_dim_fibers(pmap, s_max=max(opt.s_max, 2))
    report["fibers"] = fibers_block(search)
    incomplete = not search.complete

    if opt.divisor_bound:
        with _Step(timings, "divisor_bound"):
            rows = [check_divisor_degree_bound(pmap, s, search.records)
                    for s in range(1, opt.s_max + 1)]
        report["divisor_bound"] = [divisor_bound_json(v) for v in rows]

    if opt.factorization and search.records:
        with _Step(timings, "factorization"):
            report["factorization"] = [
                factorization_json(rec, check_fiber_factorization(pmap, rec))
                for rec in search.records]

    if opt.module_table:
        with _Step(timings, "module"):
            table = n_table(pmap, range(1, opt.s_max + 1))
            degrees = [r.divisor_degree for r in search.records]
            verdict = check_module_degree_formula(degrees, table, m)
            if verdict.inconclusive and pres is not None \
                    and pres.stable_value is not None:
                # the cokernel side stabilizes over a longer window
                rhs = sum(comb(deg + m - 1, m) for deg in degrees)
                verdict = ModuleDegreeVerdict(
                    pres.stable_value, rhs, pres.stable_value == rhs, False,
                    f"stabilized value {pres.stable_value} taken from the "
                    f"presentation cokernel vs divisor sum {rhs}")
        block = {
            "mu": table.mu,
            "table": {str(s): v for s, v in sorted(table.values.items())},
            "stable_value": table.stable_value,
            "stable_from": table.stable_from,
            "degree_formula": {
                "expected": verdict.divisor_sum,
                "stabilized": verdict.stabilized_value,
                "holds": verdict.holds,
                "inconclusive": verdict.inconclusive,
                "detail": verdict.detail,
            },
        }
        if table.cross_values:
            block["cross_table"] = {str(s): v for s, v in
                                    sorted(table.cross_values.items())}
        if pres is not None:
            agree = {s: pres.coker_dims.get(s) == v
                     for s, v in table.values.items()
                     if s in pres.coker_dims}
            block["two_sided"] = {
                "per_s": {str(s): ok for s, ok in sorted(agree.items())},
                "holds": all(agree.values()) if agree else None,
            }
        report["module"] = block
        if verdict.inconclusive:
            incomplete = True

    if opt.surface_bounds and pres is not None:
        with _Step(timings, "surface_bounds"):
            sb = check_surface_bounds(pres, d,
                                      base_degree=None if base_empty else bdeg,
                                      lci=lci, indeg_sat=indeg_sat)
        report["surface_bounds"] = {
            "items": [{"name": it.name, "applicable": it.applicable,
                       "holds": it.holds, "detail": it.detail}
                      for it in sb.items],
            "all_hold": sb.all_hold,
        }

    code = EXIT_INCOMPLETE if incomplete else EXIT_OK
    return PipelineResult(report, code, search, pres)
