"""mapfibers benchmark: three workloads through the CLI's entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  NAME is a workload listed in
BENCHMARK.json, or ``all`` to run each in turn.  Every map operation runs
in a fresh interpreter (perfbench/child.py), so no module-global state
carries over between passes and set-up time and peak memory mean what a
CLI user sees.  A run repeats whole passes over the workload's maps while
another pass is predicted to end within ``--seconds`` (at least one).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Their
times are restated at a reference host speed by a probe loop timed while
each op runs (see perfbench/child.py), because on a shared host raw times
of the same pass swing by tens of percent; raw times are printed too.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: spans from perfbench/tracing.py for layer calls and
times, the report's ``timings`` for pipeline stages.

Every operation passes a correctness gate outside the timed region: the
first pass of each map is validated (golden report, exit codes, the
cohomology table, or the brute-force oracle), and every later pass must
reproduce it exactly apart from timings.  A mismatch, crash or time-out
counts as a failed operation.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402

GOLDEN = os.path.join("tests", "golden", "quintic_report.json")
QUINTIC = "maps/quintic_surface.map"
WORK_ROOT = os.path.join(".bench_build", "perfbench")

# Limits that keep a run inside 180 s whatever the program does.
RUN_DEADLINE_S = 170.0
OP_LIMIT_S = 150.0
# set-up is sampled at least this many times per run (pass or set-up round)
SETUP_ROUNDS = 7

# The first-pass gates.  Bundled maps: expected exit codes (the quintic
# also matches the golden report).  deep_cohomology: the N-table strand.
BUNDLED = [(QUINTIC, 0), ("maps/irrational_fibers.map", 3),
           ("maps/base_point_free.map", 0),
           ("maps/non_generically_finite.map", 2)]
DEEP_MU, DEEP_S_MAX = -2, 5
DEEP_TABLE = {"1": 8, "2": 10, "3": 9, "4": 8, "5": 8}
# cubic_fibers: the first CUBIC_COUNT accepted maps of the oracle suite's
# generator, one generic and one structured.
CUBIC_COUNT = 2


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child(spec: dict, timeout: float, env=None) -> dict:
    """Run one child op; returns its JSON output or {"error": ...}."""
    spec = dict(spec, root=os.getcwd(), t_spawn=_now())
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=max(timeout, 1.0), env=env)
    except subprocess.TimeoutExpired:
        return {"error": f"exceeded the {timeout:.0f} s limit", "timeout": True}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _load_benchmark() -> dict:
    try:
        with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}")
    if not os.path.isfile(os.path.join("src", "mapfibers", "__init__.py")):
        raise BenchError("src/mapfibers not found: run from the repository "
                         "root of a mapfibers checkout")
    for m in bench["per_layer"]:
        name = m["name"]
        if not (name.startswith("pipeline.stage.") or name.startswith("trace.")
                or tracing.traced_name(name)):
            raise BenchError(f"per-layer metric {name} has no source")
    return bench


# ---------------------------------------------------------------- workloads

class Workload:
    """Maps, the op that runs them, and the first-pass gate."""

    def __init__(self, name: str, gen_seed: int):
        self.name = name
        self.extra = {}
        if name == "bundled_analyze":
            self.op = "analyze"
            self.maps = [path for path, _ in BUNDLED]
        elif name == "deep_cohomology":
            self.op = "cohomology"
            self.maps = [QUINTIC]
            self.extra = {"mu": DEEP_MU, "s_max": DEEP_S_MAX}
        elif name == "cubic_fibers":
            self.op = "fibers"
            self.maps = _cubic_maps(gen_seed)
        else:
            raise BenchError(f"unknown workload {name!r}")
        for path in self.maps:
            if not os.path.isfile(path):
                raise BenchError(f"missing input {path}")
        try:
            with open(GOLDEN, "r", encoding="utf-8") as fh:
                self.golden = json.load(fh)
        except (OSError, ValueError) as exc:
            raise BenchError(f"cannot read {GOLDEN}: {exc}")

    def gate(self, path: str, res: dict, timeout: float) -> list:
        """Problems with a first-pass result; [] when it is correct."""
        problems = []
        report = res["report"]
        if self.name == "bundled_analyze":
            want = dict(BUNDLED)[path]
            if res["exit_code"] != want:
                problems.append(f"exit code {res['exit_code']} != {want}")
            if path == QUINTIC and report != self.golden:
                problems.append("report differs from the golden report")
        elif self.name == "deep_cohomology":
            # the tail value is the module degree; the program's detector
            # wants three equal values, so it stays unflagged at s_max = 5
            degrees = [r["divisor_degree"]
                       for r in self.golden["fibers"]["records"]]
            expected = sum(math.comb(deg + 1, 2) for deg in degrees)
            if report["table"] != DEEP_TABLE:
                problems.append(f"table {report['table']} != {DEEP_TABLE}")
            if report["table"].get(str(DEEP_S_MAX)) != expected:
                problems.append(f"tail value != sum C(deg h_y + 1, 2) = "
                                f"{expected}")
        else:
            out = _child({"op": "oracle", "map": path, "report": report},
                         timeout)
            problems.extend([out["error"]] if "error" in out
                            else out["problems"])
        return problems


def _cubic_maps(gen_seed: int) -> list:
    """Map files of the first CUBIC_COUNT accepted cubics.

    Generating them runs `image_ideal` on every candidate, about 7 s for a
    generic map, so the files are kept between runs under a key that
    covers the generator's inputs and every source file it runs.
    """
    h = hashlib.sha256(json.dumps([gen_seed, CUBIC_COUNT]).encode())
    sources = [os.path.join(HERE, "child.py")] + sorted(
        glob.glob(os.path.join("src", "mapfibers", "*.py")))
    for path in sources:
        with open(path, "rb") as fh:
            h.update(fh.read())
    cache = os.path.join(WORK_ROOT, f"cubics-{h.hexdigest()[:16]}")
    if not os.path.isdir(cache):
        os.makedirs(WORK_ROOT, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="cubics-", dir=WORK_ROOT)
        out = _child({"op": "generate", "gen_seed": gen_seed,
                      "count": CUBIC_COUNT, "out_dir": tmp}, OP_LIMIT_S)
        if "error" in out or len(out["maps"]) != CUBIC_COUNT:
            shutil.rmtree(tmp, ignore_errors=True)
            raise BenchError(f"cubic generation failed: {out}")
        os.rename(tmp, cache)
    return sorted(glob.glob(os.path.join(cache, "*.map")))


# -------------------------------------------------------------- statistics

def _median(values):
    return statistics.median(values) if values else 0.0


def _tail(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return "tail: n/a (needs 11 samples)"
    p = math.floor(100 * (n - 10) / n)
    return f"p{p}: {sorted(values)[n - 11]:.4f}"


# -------------------------------------------------------------------- run

def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 gen_seed: int, bench: dict) -> dict:
    t_start = _now()
    deadline = t_start + RUN_DEADLINE_S
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    try:
        return _run(name, seed, seconds, trace, gen_seed, bench, work_dir,
                    t_start, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(name, seed, seconds, trace, gen_seed, bench, work_dir,
         t_start, deadline):
    wl = Workload(name, gen_seed)
    rng = random.Random(seed)

    def left():
        return deadline - _now()

    # warm-up: byte-compile and check that the program imports at all
    warm = _child({"op": "setup", "map": wl.maps[0]}, min(OP_LIMIT_S, left()))
    if "error" in warm:
        raise BenchError(f"program does not start: {warm['error']}")

    passes = []   # (traced, [(path, result), ...], pass seconds, span files)
    kinds = [False, True] if trace else [False]
    t_measure = _now()
    timed_out = False
    while not timed_out:
        traced = kinds[len(passes) % len(kinds)]
        done = {k: [p for p in passes if p[0] == k] for k in kinds}
        if all(done[k] for k in kinds):
            est = max(p[2] for p in passes[-len(kinds):])
            if _now() + est > t_measure + seconds:
                break
        order = list(wl.maps)
        rng.shuffle(order)
        env = None
        spans = []
        if traced:
            env = dict(os.environ, PYTHONHASHSEED=str(len(done[True])))
        t0 = _now()
        ops = []
        for path in order:
            spec = {"op": wl.op, "map": path, **wl.extra}
            if traced:
                spec["spans_out"] = os.path.join(
                    work_dir, f"spans-{len(passes)}-{len(ops)}.json")
                spans.append(spec["spans_out"])
            res = _child(spec, min(OP_LIMIT_S, left()), env)
            ops.append((path, res))
            timed_out = timed_out or "timeout" in res
        passes.append((traced, ops, _now() - t0, spans))

    # set-up samples: the untraced passes plus set-up-only rounds
    setup_rounds = [sum(r["setup_s"] for _, r in ops)
                    for traced, ops, _, _ in passes
                    if not traced and all("error" not in r for _, r in ops)]
    while len(setup_rounds) < SETUP_ROUNDS and left() > 30:
        rnd = [_child({"op": "setup", "map": p}, min(OP_LIMIT_S, left()))
               for p in wl.maps]
        if any("error" in r for r in rnd):
            break
        setup_rounds.append(sum(r["setup_s"] for r in rnd))

    # correctness gate: validate the first untraced run of each map, then
    # require every other run to reproduce it
    reference, rejected = {}, {}
    first = passes[0][1]
    for path, res in first:
        if "error" not in res:
            problems = wl.gate(path, res, min(OP_LIMIT_S, left()))
            if problems:
                rejected[path] = "; ".join(problems)
            else:
                reference[path] = (res["exit_code"], res["report"])
    attempted = failed = 0
    for traced, ops, _, _ in passes:
        for path, res in ops:
            attempted += 1
            if "error" in res:
                problem = res["error"]
            elif path in rejected:
                problem = rejected[path]
            elif path not in reference:
                problem = "no validated first run to compare with"
            elif reference[path] != (res["exit_code"], res["report"]):
                problem = "output differs from the validated first run"
            else:
                continue
            failed += 1
            print(f"FAILED {wl.op} {path}: {problem}", file=sys.stderr)

    untraced = [p for p in passes if not p[0]]
    traced_passes = [p for p in passes if p[0]]
    walls = [sum(r.get("wall_s", 0.0) for _, r in ops)
             for _, ops, _, _ in untraced]
    raw_walls = [sum(r.get("raw_wall_s", 0.0) for _, r in ops)
                 for _, ops, _, _ in untraced]
    rss = [max(r.get("rss_kb", 0) for _, r in ops) / 1024.0
           for _, ops, _, _ in untraced]
    summary = {
        "wall_s": (walls, "passes"),
        "setup_s": (setup_rounds, "set-up rounds"),
        "peak_rss_mb": (rss, "passes"),
    }
    elapsed = _now() - t_start
    print(f"workload {name}: seed {seed}, {len(untraced)} untraced and "
          f"{len(traced_passes)} traced passes over {len(wl.maps)} maps, "
          f"{elapsed:.1f} s")
    for path, res in sorted(first):
        if "error" not in res:
            print(f"  {path}: wall {res['wall_s']:.3f} s (raw "
                  f"{res['raw_wall_s']:.3f} s, {res['probe_samples']} "
                  f"probes), set-up {res['setup_s']:.3f} s (raw "
                  f"{res['raw_setup_s']:.3f} s), exit {res['exit_code']}")
    print(f"  failed_share: {failed}/{attempted} = "
          f"{failed / attempted:.4f} (operations)")
    print(f"  raw wall_s (not restated): median "
          f"{_median(raw_walls):.4f} s; values "
          f"{' '.join(f'{v:.3f}' for v in raw_walls)}")

    metrics = {}
    if not trace:
        for m in bench["end_to_end"]:
            values, what = summary[m["name"]]
            value = _median(values)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']}: {value:.4f} {m['unit']} "
                  f"(median of {len(values)} {what}; {_tail(values)}; "
                  f"values {' '.join(f'{v:.3f}' for v in values)})")
    else:
        metrics = _layer_metrics(bench, untraced, traced_passes, raw_walls)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _layer_metrics(bench, untraced, traced_passes, raw_walls) -> dict:
    per_pass = []
    missing = set()
    for _, ops, _, spans in traced_passes:
        if any("error" in r for _, r in ops):
            continue
        values, miss = tracing.layer_metrics(spans)
        per_pass.append(values)
        missing.update(miss)
    counts = [{k: v for k, v in p.items()
               if not (k.endswith(".s") or k.endswith("_s"))}
              for p in per_pass]
    if any(c != counts[0] for c in counts[1:]):
        print("WARNING: work counts differ between traced passes",
              file=sys.stderr)
    for name in sorted(missing):
        print(f"MISSING traced function {name}: its metrics read 0",
              file=sys.stderr)
    traced_walls = [sum(r.get("raw_wall_s", 0.0) for _, r in ops)
                    for _, ops, _, _ in traced_passes]
    metrics = {}
    for m in bench["per_layer"]:
        name = m["name"]
        if name.startswith("pipeline.stage."):
            stage = name[len("pipeline.stage."):-len("_s")]
            value = _median([sum(r.get("stages", {}).get(stage, 0.0)
                                 for _, r in ops)
                             for _, ops, _, _ in untraced])
        elif name == "trace.overhead_share":
            # raw program time on both sides; traced ops are not restated
            base = _median(raw_walls)
            value = _median(traced_walls) / base - 1.0 if base else 0.0
        elif name == "trace.missing":
            value = len(missing)
        else:
            value = _median([p.get(name, 0) for p in per_pass])
        if m["unit"] == "count":
            value = int(value)
        metrics[name] = {"value": value, "unit": m["unit"]}
        print(f"  {name}: {value:.6g} {m['unit']}")
    return metrics


def main(argv=None) -> int:
    # turn SIGTERM into an exception, so the running child is killed and
    # waited for and the scratch directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True,
                    help="orders the maps within each pass")
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--gen-seed", type=int, default=733,
                    help="seed of the oracle suite's cubic generator")
    args = ap.parse_args(argv)
    try:
        bench = _load_benchmark()
        names = [w["name"] for w in bench["workloads"]]
        if args.workload == "all":
            results = {n: run_workload(n, args.seed, args.seconds,
                                       bool(args.trace), args.gen_seed, bench)
                       for n in names}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{n}.{k}": v for n, r in results.items()
                            for k, v in r["metrics"].items()},
            }
        elif args.workload in names:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), args.gen_seed, bench)
        else:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"one of {names} or all")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
