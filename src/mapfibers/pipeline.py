"""Pipeline: the order of the analysis stages and which of them run.

Runs the stages `PipelineOptions` enables in dependency order, times
each, and places the blocks `report` builds under their top-level keys.
Exit codes: 0 on success, 2 when a hypothesis fails (the map is not
generically finite, or the forms share a factor), 3 when the run finished
but completeness is not certified (e.g. fiber points outside the base
field), 4 when a certificate failed (a `holds` or `passes` of false in
the report; this takes precedence over 3).  Partial results are reported
as computed, never fabricated.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .approx import check_surface_bounds
from .cohomology import check_module_degree_formula, n_table
from .fibers import (FiberSearch, ParameterizedMap,
                     check_divisor_degree_bound, check_fiber_factorization,
                     find_one_dim_fibers)
from .report import (SCHEMA_VERSION, divisor_bound_json, factorization_json,
                     fibers_block, hypotheses_block, image_block, input_block,
                     module_block, presentation_block, surface_bounds_block)

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_INCOMPLETE = 3
EXIT_CERTIFICATE = 4


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


def _stable_value(pmap: ParameterizedMap) -> Tuple[Optional[int], str]:
    """dim N_s for s ≫ 0 and what certifies it, else None and why not.
    An empty base locus with m ≥ 2 gives N = 0: H^{m−1}_𝔪(R/Iˢ) = 0."""
    pres, error = pmap.presentation
    if pres is not None:
        return pres.stable_value, "the presentation cokernel"
    if pmap.m >= 2 and pmap.locus[1] <= 0:
        return 0, "the empty base locus (N = 0)"
    if error is not None:
        return None, f"presentation of N unavailable: {error}"
    return None, f"no presentation of N for m = {pmap.m}, n = {pmap.n}"


@contextmanager
def _step(timings: Dict[str, float], name: str):
    """Record the wall time of the enclosed stage in the timing block."""
    t0 = time.perf_counter()
    yield
    timings[name] = round(time.perf_counter() - t0, 3)


def run_pipeline(pmap: ParameterizedMap,
                 options: Optional[PipelineOptions] = None,
                 path: Optional[str] = None) -> PipelineResult:
    """Run the stages the options enable, in dependency order.  Each stage
    reads the map's derived objects, which are built on first use."""
    opt = options or PipelineOptions()
    timings: Dict[str, float] = {}
    report: Dict = {
        "schema_version": SCHEMA_VERSION,
        "input": input_block(pmap, path),
        "options": {"s_max": opt.s_max},
        "timings": timings,
    }
    with _step(timings, "hypotheses"):
        report["hypotheses"] = hypotheses_block(pmap)
    report["image"] = image_block(pmap.image)
    if pmap.common_factor is not None or not pmap.image.generically_finite:
        # hypothesis failure: stop before the fiber machinery
        return PipelineResult(report, EXIT_HYPOTHESIS)

    if opt.presentation:
        # presentation of N over the target ring (m = 2 with 4 nonzero forms)
        with _step(timings, "presentation"):
            block = presentation_block(pmap)
        if block is not None:
            report["presentation"] = block

    with _step(timings, "fibers"):
        search = find_one_dim_fibers(pmap, s_max=max(opt.s_max, 2))
    report["fibers"] = fibers_block(search)
    incomplete = not search.complete
    failed = False
    powers = range(1, opt.s_max + 1)

    if opt.divisor_bound:
        with _step(timings, "divisor_bound"):
            rows = [check_divisor_degree_bound(pmap, s, search.records)
                    for s in powers]
        report["divisor_bound"] = [divisor_bound_json(v) for v in rows]
        failed = any(v.holds is False for v in rows)

    if opt.factorization and search.records:
        with _step(timings, "factorization"):
            checks = [check_fiber_factorization(pmap, rec)
                      for rec in search.records]
        report["factorization"] = [factorization_json(rec, v) for rec, v
                                   in zip(search.records, checks)]
        failed = failed or not all(v.passes for v in checks)

    if opt.module_table:
        with _step(timings, "module"):
            table = n_table(pmap, powers)
            verdict = check_module_degree_formula(
                [r.divisor_degree for r in search.records], pmap.m,
                *_stable_value(pmap),
                None if search.complete else "; ".join(search.notes))
        block = report["module"] = module_block(table, verdict,
                                                pmap.presentation[0])
        incomplete = incomplete or verdict.inconclusive
        failed = (failed or not (verdict.holds or verdict.inconclusive)
                  or block.get("two_sided", {}).get("holds") is False)

    if opt.surface_bounds and pmap.presentation[0] is not None:
        with _step(timings, "surface_bounds"):
            sat, cone_dim, bdeg = pmap.locus
            sb = check_surface_bounds(
                pmap.presentation[0], pmap.d,
                base_degree=bdeg if cone_dim > 0 else None,
                lci=pmap.lci_proxy, indeg_sat=sat.initial_degree())
        report["surface_bounds"] = surface_bounds_block(sb)
        failed = failed or not sb.all_hold

    code = (EXIT_CERTIFICATE if failed else
            EXIT_INCOMPLETE if incomplete else EXIT_OK)
    return PipelineResult(report, code, search)
