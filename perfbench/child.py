"""One map through one command, in a fresh interpreter.

Usage: python3 perfbench/child.py '<json spec>'

The spec names an ``op``:

* ``analyze`` / ``fibers`` -- `run_pipeline` with the options the CLI
  subcommand of that name uses, then `render_text`;
* ``cohomology`` -- the CLI's `cohomology` path: `m_mu_dims` over
  ``s = 1..s_max`` at strand ``mu``;
* ``setup`` -- interpreter start, import and `load_map_file` only;
* ``generate`` -- write the oracle suite's random GF(7) cubic maps;
* ``oracle`` -- check a ``fibers`` inventory against the brute-force
  oracle with the oracle suite's rules (never timed).

Timed ops print one JSON object: ``raw_setup_s`` (from the parent's spawn
time to map loaded, on the system-wide monotonic clock), ``raw_wall_s``
(map loaded to report rendered, less the probe's time), the same two
restated at a reference host speed as ``setup_s`` and ``wall_s`` (see
`_HostProbe`; untraced ops only for ``wall_s``), ``rss_kb`` (peak resident
set), ``exit_code`` and ``report`` (with ``timings`` moved out to
``stages``).
"""

from __future__ import annotations

import json
import os
import random
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _now() -> float:
    # system-wide, so comparable with the parent's spawn time
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# Host-speed probe.  On a shared host the same work runs up to 1.8x slower
# in phases of seconds to a minute, so raw times of one pass swing by tens
# of percent.  A fixed loop, timed every PROBE_PERIOD_S on the op's own
# thread, tells how fast the host ran around each stretch of program time;
# each stretch is then restated at the reference speed at which the loop
# takes PROBE_REF_S (about its uncontended time on a 2-vCPU Xeon VM under
# Python 3.11).  The program, with its far larger working set, slows down
# more than the loop: on that host its time went as the loop's time to the
# power PROBE_EXPONENT (fitted over 28 runs of the quintic's cohomology op,
# where it cut the spread of one op's time from 0.12-0.23 to 0.04-0.05).  The
# probe's own time is left out.  Set-up is restated the same way from
# SETUP_PROBES loops timed right after it.
PROBE_PERIOD_S = 0.02
PROBE_LOOPS = 4000
PROBE_REF_S = 0.00028
PROBE_EXPONENT = 1.5
SETUP_PROBES = 25


def _restate(seconds: float, probe_s: float) -> float:
    """``seconds`` spent while the probe loop took ``probe_s``, restated
    at the reference speed."""
    return seconds * (PROBE_REF_S / probe_s) ** PROBE_EXPONENT


def _probe_loop() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


class _HostProbe:
    """Samples the probe loop on SIGALRM while the op runs."""

    def __init__(self):
        self.segments = []   # program seconds before each probe
        self.probes = []     # seconds each probe loop took
        self._mark = 0.0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def _tick(self, *_) -> None:
        t0 = time.perf_counter()
        self.probes.append(_probe_loop())
        self.segments.append(t0 - self._mark)
        self._mark = time.perf_counter()

    def stop(self) -> dict:
        """``raw_wall_s`` (program time) and ``wall_s`` (restated)."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        segs = self.segments + [time.perf_counter() - self._mark]
        # a stretch runs at the speed of the probe that ends it; the tail
        # at the speed of the last probe (or of one taken now)
        speeds = self.probes + [self.probes[-1] if self.probes
                                else _probe_loop()]
        return {"raw_wall_s": sum(segs),
                "wall_s": sum(_restate(seg, p)
                              for seg, p in zip(segs, speeds)),
                "probe_samples": len(self.probes)}


def _run_op(spec: dict) -> dict:
    trace = spec.get("spans_out")
    import mapfibers  # noqa: F401  (import cost belongs to setup)
    if trace:
        sys.path.insert(0, HERE)
        import tracing
        recorder = tracing.Recorder()
        tracing.install(recorder)
    from mapfibers.mapfile import load_map_file
    pmap = load_map_file(spec["map"])
    raw_setup = _now() - spec["t_spawn"]
    speed = statistics.median(_probe_loop() for _ in range(SETUP_PROBES))
    out = {"raw_setup_s": raw_setup,
           "setup_s": _restate(raw_setup, speed)}
    op = spec["op"]
    if op == "setup":
        return out
    # traced ops report raw time only: the spans would skew the restating
    probe = None if trace else _HostProbe()

    def done() -> None:
        if probe:
            out.update(probe.stop())
        else:
            out["raw_wall_s"] = _now() - t_start

    t_start = _now()
    if probe:
        probe.start()
    if op in ("analyze", "fibers"):
        from mapfibers.pipeline import PipelineOptions, run_pipeline
        from mapfibers.report import render_text
        if op == "analyze":
            opt = PipelineOptions()
        else:
            opt = PipelineOptions(divisor_bound=False, factorization=False,
                                  module_table=False, presentation=False,
                                  surface_bounds=False)
        result = run_pipeline(pmap, opt, path=spec["map"])
        render_text(result.report)
        done()
        report = json.loads(json.dumps(result.report))
        out["stages"] = report.pop("timings", {})
        out["exit_code"] = result.exit_code
    elif op == "cohomology":
        from mapfibers.cohomology import m_mu_dims
        from mapfibers.ideals import Ideal
        I = Ideal(pmap.source, [f for f in pmap.forms if not f.is_zero()])
        table = m_mu_dims(I, pmap.d, spec["mu"], range(1, spec["s_max"] + 1))
        table.detect_stabilization()
        done()
        report = {"table": {str(s): v for s, v in sorted(table.values.items())},
                  "stabilized": table.stabilized,
                  "stable_value": table.stable_value,
                  "stable_from": table.stable_from}
        out["stages"] = {}
        out["exit_code"] = 0
    else:
        raise ValueError(f"unknown op {op!r}")
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["report"] = report
    if trace:
        recorder.write(trace, spec["map"])
    return out


# ------------------------------------------------- oracle suite's generator

def _generate(spec: dict) -> dict:
    """The GF(7) cubic maps of tests/test_oracle_agreement.py: the same
    random stream, candidates alternating generic and structured, and the
    same acceptance rules.  Restated here because importing the test module
    builds all twenty of its maps."""
    from mapfibers import (PrimeField, build_map, format_map_file,
                           image_ideal, standard_ring)
    from mapfibers.poly import Polynomial

    F7 = PrimeField(7)

    def monomials(deg):
        # grevlex-descending exponent triples, the suite's monomial order
        monos = [(a, b, deg - a - b) for a in range(deg + 1)
                 for b in range(deg + 1 - a)]
        return sorted(monos, key=lambda e: tuple(-x for x in reversed(e)),
                      reverse=True)

    def rand_form(rng, ring, deg):
        monos = monomials(deg)
        k = rng.randint(2, min(5, len(monos)))
        items = [(m, F7.from_int(rng.randrange(1, 7)))
                 for m in rng.sample(monos, k)]
        f = Polynomial.from_terms(ring, items)
        return f if not f.is_zero() else Polynomial.variable(ring, 0) ** deg

    def candidate(rng, ring, structured):
        x, y, z = (Polynomial.variable(ring, i) for i in range(3))
        if structured:
            u = rand_form(rng, ring, 1) * rand_form(rng, ring, 1)
            v = rand_form(rng, ring, 1) * rand_form(rng, ring, 1)
            return [y * u, x * v, z * u, z * v]
        return [rand_form(rng, ring, 3) for _ in range(4)]

    rng = random.Random(spec["gen_seed"])
    ring = standard_ring(("x", "y", "z"), F7)
    paths = []
    attempts = 0
    while len(paths) < spec["count"] and attempts < 400:
        attempts += 1
        structured = attempts % 2 == 0
        forms = candidate(rng, ring, structured)
        try:
            pmap = build_map(forms)
        except ValueError:
            continue
        if pmap.common_factor is not None:
            continue
        if not image_ideal(pmap).generically_finite:
            continue
        path = os.path.join(spec["out_dir"], f"cubic_{len(paths):02d}_"
                            f"{'structured' if structured else 'generic'}.map")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_map_file(pmap))
        paths.append(path)
    return {"maps": paths}


def _oracle_check(spec: dict) -> dict:
    """The oracle suite's rules applied to one ``fibers`` report."""
    from mapfibers import (base_locus, brute_force_fiber_oracle,
                           check_fiber_factorization, load_map_file)
    from mapfibers.fibers import FiberRecord
    from mapfibers.mapfile import parse_polynomial
    from mapfibers.solve import PointProjective, projective_points

    pmap = load_map_file(spec["map"])
    F = pmap.source.field
    d = pmap.d
    problems = []
    records = []
    for r in spec["report"]["fibers"]["records"]:
        point = PointProjective([F.parse(c) for c in r["point"]], F)
        divisor = parse_polynomial(r["divisor"], pmap.source)
        records.append(FiberRecord(point, r["pivot"], divisor,
                                   r["divisor_degree"], r["fiber_dimension"],
                                   r["route"]))
    s_recs = {r.point.coords: r for r in records}
    o_recs = {r.point.coords: r for r in brute_force_fiber_oracle(pmap)}
    for coords in sorted(set(o_recs) - set(s_recs)):
        problems.append(f"search missed oracle fiber at {coords}")
    for coords in sorted(set(s_recs) - set(o_recs)):
        y = s_recs[coords].point
        for x in projective_points(F, pmap.m):
            vals = [f.evaluate(list(x.coords)) for f in pmap.forms]
            if all(F.is_zero(v) for v in vals):
                continue
            if PointProjective(tuple(vals), F).coords == y.coords:
                problems.append(f"oracle should have seen {coords}")
                break
    for coords in set(s_recs) & set(o_recs):
        if s_recs[coords].divisor_degree != o_recs[coords].divisor_degree:
            problems.append(f"divisor degree differs at {coords}")
    _, _, base_deg = base_locus(pmap)
    for rec in records:
        if not check_fiber_factorization(pmap, rec).passes:
            problems.append(f"factorization fails at {rec.point.coords}")
        if not (rec.divisor_degree < d and d * rec.divisor_degree <= base_deg):
            problems.append(f"degree bounds fail at {rec.point.coords}")
    return {"problems": problems, "oracle_points": len(o_recs)}


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    op = spec["op"]
    if op == "generate":
        out = _generate(spec)
    elif op == "oracle":
        out = _oracle_check(spec)
    else:
        out = _run_op(spec)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
