import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

import mapfibers
from mapfibers import (approx, build_map, cohomology, ideals, pipeline,
                       standard_ring)
from mapfibers.cli import COMMAND_STAGES, build_parser, main
from mapfibers.fields import PRIME_CAP
from mapfibers.ideals import saturate_irrelevant
from mapfibers.fibers import (brute_force_fiber_oracle, find_one_dim_fibers,
                              lci_proxy_check)
from mapfibers.approx import presentation_matrix_N
from mapfibers.poly import Polynomial
from mapfibers.mapfile import load_map_file, parse_map_file
from mapfibers.pipeline import PipelineOptions, run_pipeline
from mapfibers.report import SCHEMA_VERSION, dumps, render_text
from mapfibers.solve import rational_points_zero_dim

from conftest import count_calls, map_path, rebind

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "quintic_report.json")
SCHEMA_DOC = os.path.join(os.path.dirname(__file__), os.pardir, "docs",
                          "report_schema.md")


def test_exit_code_zero_and_schema(quintic_result):
    assert quintic_result.exit_code == 0
    rep = quintic_result.report
    assert rep["schema_version"] == SCHEMA_VERSION
    for key in ("input", "options", "hypotheses", "image", "fibers",
                "divisor_bound", "factorization", "module", "presentation",
                "surface_bounds", "timings"):
        assert key in rep, key


def test_golden_report(quintic_result):
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    # timings vary run to run; everything else is exact and reproducible
    current = json.loads(dumps(quintic_result.report))
    current.pop("timings", None)
    assert current == golden


def test_hypothesis_failure_stops_early(ngf_map):
    res = run_pipeline(ngf_map)
    assert res.exit_code == 2
    assert "fibers" not in res.report
    assert res.report["hypotheses"]["generically_finite"] is False
    assert "image" in res.report


def test_shared_factor_is_a_hypothesis_failure():
    pm = parse_map_file(
        "source = x y z\nf0 = x^2\nf1 = x*y\nf2 = x*z\nf3 = x^2 + x*y\n")
    res = run_pipeline(pm)
    assert res.exit_code == 2
    assert res.report["hypotheses"]["gcd_is_one"] is False
    assert res.report["input"]["common_factor"] == "x"


def test_base_point_free_run(bpf_map):
    res = run_pipeline(bpf_map)
    assert res.exit_code == 0
    assert res.report["fibers"]["count"] == 0
    assert res.report["fibers"]["complete"] is True
    assert all(v == 0 for v in res.report["module"]["table"].values())
    assert res.report["module"]["degree_formula"]["stabilized"] == 0
    assert res.report["presentation"]["support_points"] == []
    assert res.report["presentation"]["fitting"] == ["1"]


def test_irrational_fiber_points_give_partial_inventory():
    from mapfibers.mapfile import load_map_file
    res = run_pipeline(load_map_file(map_path("irrational_fibers.map")),
                       PipelineOptions(s_max=2))
    assert res.exit_code == 3
    assert res.report["fibers"]["complete"] is False
    assert res.report["fibers"]["count"] == 6
    assert any("no rational point" in n for n in res.report["fibers"]["notes"])
    # the six rational fibers give a divisor sum of 6, a lower bound only:
    # the stabilized 8 above it is inconclusive, not a failure
    formula = res.report["module"]["degree_formula"]
    assert (formula["expected"], formula["stabilized"]) == (6, 8)
    assert formula["inconclusive"] is True and formula["holds"] is False
    assert "lower bound" in formula["detail"]
    assert "no rational point" in formula["detail"]


def _failed_certificates(report):
    """The certificates the report shows failing, by name."""
    module = report["module"]
    formula = module["degree_formula"]
    failing = {
        "divisor_bound": any(row["holds"] is False
                             for row in report["divisor_bound"]),
        "factorization": not all(f["passes"]
                                 for f in report["factorization"]),
        "degree_formula": not (formula["holds"] or formula["inconclusive"]),
        "two_sided": module["two_sided"]["holds"] is False,
        "surface_bounds": not report["surface_bounds"]["all_hold"],
    }
    return [name for name, failed in failing.items() if failed]


def _one_value_off(table):
    table.values[1] += 1
    return table


def _first_item_fails(verdict):
    first = dataclasses.replace(verdict.items[0], holds=False)
    return dataclasses.replace(verdict, items=[first] + verdict.items[1:])


# certificate -> (the function on `pipeline` that yields it, a spoiler of
# its result)
SPOILERS = {
    "divisor_bound": ("check_divisor_degree_bound", lambda v:
                      dataclasses.replace(v, holds=False) if v.applicable
                      else v),
    "factorization": ("check_fiber_factorization", lambda v:
                      dataclasses.replace(v, saturation_contained=False)),
    "degree_formula": ("check_module_degree_formula", lambda v:
                       dataclasses.replace(v, holds=False)),
    "two_sided": ("n_table", _one_value_off),
    "surface_bounds": ("check_surface_bounds", _first_item_fails),
}


def test_no_certificate_of_the_quintic_fails(quintic_result):
    assert _failed_certificates(quintic_result.report) == []


@pytest.mark.parametrize("certificate", sorted(SPOILERS))
def test_a_failed_certificate_exits_4(monkeypatch, quintic_map,
                                      certificate):
    """With a complete inventory, any one certificate of the quintic's
    report made to fail gives exit code 4 (0 before exit code 4 existed)."""
    name, spoil = SPOILERS[certificate]
    check = getattr(pipeline, name)
    monkeypatch.setattr(pipeline, name,
                        lambda *args, **kw: spoil(check(*args, **kw)))
    res = run_pipeline(quintic_map, PipelineOptions(s_max=4))
    assert res.report["fibers"]["complete"] is True
    assert _failed_certificates(res.report) == [certificate]
    assert res.exit_code == 4


def test_render_text_contains_key_lines(quintic_result):
    text = render_text(quintic_result.report)
    assert "inventory complete" in text
    assert "sum deg h_y = 8 <= nu = 8 < sd = 10: holds" in text
    assert "ranks l = 15, m = 23, n = 8" in text
    assert "  deg N = sum C(deg h_y + 1, 2): expected 8, stabilized 8: holds\n" \
        in text


def test_render_text_degree_formula_on_a_curve_map(tmp_path, capsys):
    """P^1 -> P^2: the formula is Σ C(deg h_y, 1), and with no certified
    stable value of N the verdict is inconclusive with its cause, as in
    the JSON."""
    path = tmp_path / "twisted.map"
    path.write_text("field = QQ\nsource = x y\nf0 = x^3\nf1 = y^3\n"
                    "f2 = x^2*y\n")
    assert main(["analyze", str(path)]) == 3
    out = capsys.readouterr().out
    assert "  deg N = sum C(deg h_y, 1): expected 0, no stable value:" \
        " inconclusive (no certified stable value: no presentation of N" \
        " for m = 1, n = 2)\n" in out
    assert "FAILS" not in out and "None" not in out


CURVE = "source = x y\nf0 = x^3\nf1 = y^3\nf2 = x^2*y\n"


def test_a_curve_map_with_no_base_points_is_not_certified_complete(
        tmp_path, capsys):
    """For m = 1 an empty base locus proves nothing: a fiber divisor is a
    set of points.  Over GF(7) the oracle sees 8 points whose fiber has
    dimension m − 1 = 0, (1:0:0) among them with h_y = y, so the
    inventory must not claim to be complete, and `fibers` exits 3."""
    pmap = parse_map_file("field = GF 7\n" + CURVE)
    oracle = {r.point.coords: str(r.divisor)
              for r in brute_force_fiber_oracle(pmap)}
    assert len(oracle) == 8 and oracle[(1, 0, 0)] == "y"
    search = find_one_dim_fibers(pmap, s_max=2)
    assert search.complete is False
    assert any("m = 1" in note for note in search.notes)
    path = tmp_path / "curve.map"
    path.write_text("field = GF 7\n" + CURVE)
    assert main(["fibers", str(path)]) == 3
    assert "inventory INCOMPLETE" in capsys.readouterr().out


def test_the_degree_formula_needs_a_certified_stable_value():
    """The P^3 map's N-table reads 1, 1, 1, 1, but no presentation of N
    exists for m = 3, n = 4 and the base locus is not empty: the verdict
    is inconclusive and says why.  Two base-point-free maps without a
    presentation read N = 0 off the empty base locus and hold."""
    p3 = parse_map_file("source = X0 X1 X2 X3\nf0 = X0^2\nf1 = X0*X1\n"
                        "f2 = X0*X2\nf3 = X0*X3\nf4 = X1*X2\n")
    res = run_pipeline(p3, PipelineOptions(s_max=3))
    module = res.report["module"]
    assert set(module["table"].values()) == {1}
    assert module["degree_formula"] == {
        "expected": 1, "stabilized": None, "holds": False,
        "inconclusive": True,
        "detail": "no certified stable value: no presentation of N for "
                  "m = 3, n = 4"}
    assert res.exit_code == 3
    for forms in ("f0 = x^2\nf1 = y^2\nf2 = z^2\nf3 = x*y\nf4 = x*z\n",
                  "f0 = a^2\nf1 = b^2\nf2 = c^2\nf3 = d^2\nf4 = a*b + c*d\n"):
        names = "x y z" if "x" in forms else "a b c d"
        res = run_pipeline(parse_map_file(f"source = {names}\n{forms}"),
                           PipelineOptions(s_max=3))
        formula = res.report["module"]["degree_formula"]
        assert "presentation" not in res.report
        assert (formula["holds"], formula["stabilized"]) == (True, 0)
        assert "empty base locus" in formula["detail"]
        assert res.exit_code == 0


def test_cli_image(capsys):
    assert main(["image", map_path("quintic_surface.map")]) == 0
    out = capsys.readouterr().out
    assert "degree 7" in out and "generically finite: True" in out


def test_cli_image_not_finite(capsys):
    assert main(["image", map_path("non_generically_finite.map")]) == 2
    assert "generically finite: False" in capsys.readouterr().out


def test_cli_cohomology(tmp_path, capsys):
    """The quintic's table reads 8, 10 with no equal run.  The P^3 map's
    reads 1, 1, 1, 1, but no presentation of N exists for m = 3 and
    n = 4, so equal values certify nothing: the line says that they are
    the last computed values and not a stable value."""
    rc = main(["cohomology", map_path("quintic_surface.map"),
               "--mu", "-2", "--s-max", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "s = 1: 8" in out and "s = 2: 10" in out
    assert "computed values" not in out
    path = tmp_path / "p3p4.map"
    path.write_text("source = X0 X1 X2 X3\nf0 = X0^2\nf1 = X0*X1\n"
                    "f2 = X0*X2\nf3 = X0*X3\nf4 = X1*X2\n", encoding="utf-8")
    assert main(["cohomology", str(path), "--mu", "-3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == (
        "the last 4 computed values equal 1 (s = 1..4); "
        "that is not a certified stable value")
    assert "stabilizes" not in out


def test_cli_analyze_json(tmp_path, capsys):
    out_path = str(tmp_path / "bpf.json")
    rc = main(["analyze", map_path("base_point_free.map"),
               "--json", out_path])
    assert rc == 0
    capsys.readouterr()
    with open(out_path) as fh:
        doc = json.load(fh)
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["fibers"]["count"] == 0


def test_two_sided_covers_every_power_of_the_table(tmp_path, capsys):
    """The two-sided check compares the cokernel's Hilbert function with
    every s of the N-table, also past the s the report lists under
    `coker_dims`."""
    out_path = tmp_path / "bpf.json"
    assert main(["analyze", map_path("base_point_free.map"), "--s-max", "6",
                 "--json", str(out_path)]) == 0
    capsys.readouterr()
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    powers = [str(s) for s in range(1, 7)]
    assert list(doc["presentation"]["coker_dims"]) == powers[:4]
    assert list(doc["module"]["table"]) == powers
    assert doc["module"]["two_sided"] == {
        "per_s": {s: True for s in powers}, "holds": True}


def test_cohomology_s_max_defaults_to_the_pipeline_default():
    args = build_parser().parse_args(["cohomology", "f.map", "--mu", "-2"])
    assert args.s_max == PipelineOptions.s_max


def test_cli_analyze_exit_two(capsys):
    rc = main(["analyze", map_path("non_generically_finite.map")])
    capsys.readouterr()
    assert rc == 2


def test_cli_fibers(capsys):
    rc = main(["fibers", map_path("base_point_free.map")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 point(s)" in out


def test_cli_bounds(capsys):
    """`bounds` checks the divisor bound and the numerical bounds, and
    runs neither the module table nor the factorization certificates."""
    rc = main(["bounds", map_path("quintic_surface.map")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "divisor bound s=1: not applicable (nu = 5 >= sd = 5)" in out
    assert "divisor bound s=2: sum deg h_y = 8 <= nu = 8 < sd = 10: holds" \
        in out
    assert "numerical bounds:" in out
    assert "module N dimensions" not in out and "factorization" not in out


def test_cli_only_the_gcd_route_runs_beyond_surfaces(tmp_path, capsys):
    """P^3 ⇢ P^4 has no presentation, so only route A runs: the inventory
    is sound but not certified complete (exit 3, with the note), and with
    m = 3 the N-table has no difference route to cross-check."""
    path = tmp_path / "p3p4.map"
    path.write_text("field = QQ\nsource = X0 X1 X2 X3\nf0 = X0^2\n"
                    "f1 = X0*X1\nf2 = X0*X2\nf3 = X0*X3\nf4 = X1*X2\n")
    out_path = str(tmp_path / "p3p4.json")
    assert main(["analyze", str(path), "--json", out_path]) == 3
    out = capsys.readouterr().out
    assert "  note: only the gcd route ran: inventory is sound but may be " \
        "incomplete\n" in out
    with open(out_path) as fh:
        doc = json.load(fh)
    records = doc["fibers"]["records"]
    assert [(r["point"], r["divisor"], r["route"]) for r in records] == \
        [(["0", "0", "0", "0", "1"], "X0", "A")]
    assert not doc["fibers"]["complete"]
    assert "cross_table" not in doc["module"]


def test_cli_missing_file(capsys):
    rc = main(["analyze", map_path("no_such.map")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error" in err


def test_cli_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.map"
    bad.write_text("source = x y\nf0 = x +\nf1 = y\n")
    rc = main(["analyze", str(bad)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "line 2" in err


def test_cli_exponent_past_the_cap_exits_one(tmp_path):
    bad = tmp_path / "huge.map"
    bad.write_text("source = x y\nf0 = x^70000\nf1 = y^70000\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(mapfibers.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "mapfibers.cli", "analyze",
                           str(bad)], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 1
    assert "line 2, column 8" in proc.stderr and "32767" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_integer_past_the_digit_limit_exits_one(tmp_path):
    """A literal or a form coefficient past the interpreter's int/str
    digit limit (pinned at its default, 4300) is a located parse error,
    not a traceback."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mapfibers.__file__)))
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="4300",
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    cases = (("f0 = " + "7" * 5000 + "*x\nf1 = y\n", "line 2, column 6"),
             ("f0 = (2*x)^14300\nf1 = y^14300\n", "line 2, column 6"))
    for k, (forms, where) in enumerate(cases):
        bad = tmp_path / f"big{k}.map"
        bad.write_text("source = x y\n" + forms)
        proc = subprocess.run([sys.executable, "-m", "mapfibers.cli",
                               "analyze", str(bad)], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {bad}: {where}: ")
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("source, forms", [
    # the image equation has a coefficient of more than 6000 digits
    ("x y z", "f0 = 1" + "0" * 2000 + "*x^4\nf1 = y^4\nf2 = z^4\n"
              "f3 = x^3*y\n"),
    ("x y", "f0 = 1" + "0" * 2500 + "*x^3\nf1 = y^3\nf2 = x^2*y\n"),
], ids=["surface", "curve"])
def test_cli_computed_coefficient_past_the_digit_limit_exits_one(
        int_digit_limit, tmp_path, capsys, source, forms):
    """Every literal parses, but a computed coefficient cannot be printed:
    each command that prints one exits 1 with one located line naming the
    limit, prints nothing else and writes no report; `cohomology`, which
    prints only integers, still succeeds."""
    path = tmp_path / "big.map"
    path.write_text(f"field = QQ\nsource = {source}\n{forms}")
    report = tmp_path / "report.json"
    for argv in (["analyze", str(path), "--json", str(report)],
                 ["fibers", str(path)], ["bounds", str(path)],
                 ["image", str(path)]):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {path}: a computed coefficient is past the "
                       f"interpreter's limit of {int_digit_limit} digits "
                       "for integer string conversion\n")
    assert not report.exists()
    assert main(["cohomology", str(path), "--mu", "-2", "--s-max", "3"]) == 0


def test_cli_prime_field_past_the_cap_exits_one(tmp_path):
    """GF(2^61 − 1) hung in the trial-division primality test and
    GF(1000000007) in the root search over every field element; both
    moduli are past `fields.PRIME_CAP`, so the map file is a parse error."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mapfibers.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for k, (cmd, p) in enumerate((("image", 2305843009213693951),
                                  ("fibers", 1000000007))):
        bad = tmp_path / f"big{k}.map"
        bad.write_text(f"field = GF {p}\nsource = x y z\nf0 = x^3\n"
                       f"f1 = y^3\nf2 = z^3\nf3 = x*y*z\n")
        proc = subprocess.run([sys.executable, "-m", "mapfibers.cli", cmd,
                               str(bad)], capture_output=True, text=True,
                              env=env, timeout=30)
        assert proc.returncode == 1, (cmd, proc.stderr)
        assert "line 1" in proc.stderr and str(PRIME_CAP) in proc.stderr
        assert "Traceback" not in proc.stderr


def test_cli_json_to_an_unwritable_path_exits_one(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(mapfibers.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = tmp_path / "missing" / "report.json"
    proc = subprocess.run([sys.executable, "-m", "mapfibers.cli", "analyze",
                           map_path("base_point_free.map"), "--json",
                           str(out)], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and str(out) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_cli_source_target_name_clash_exits_one(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(mapfibers.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    cases = [("source = T0 T1 T2\nf0 = T0^2\nf1 = T1^2\nf2 = T2^2\n"
              "f3 = T0*T1\n", "line 1, column 10", "'T0'"),
             ("source = x y z\ntarget = a b x d\nf0 = x^2\nf1 = y^2\n"
              "f2 = z^2\nf3 = x*y\n", "line 2, column 14", "'x'")]
    for k, (text, where, name) in enumerate(cases):
        bad = tmp_path / f"clash{k}.map"
        bad.write_text(text)
        proc = subprocess.run([sys.executable, "-m", "mapfibers.cli",
                               "analyze", str(bad)], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert where in proc.stderr and name in proc.stderr
        assert "Traceback" not in proc.stderr


def test_pipeline_derives_each_object_once(monkeypatch):
    R = standard_ring(("x", "y", "z"))
    x, y, z = (Polynomial.variable(R, i) for i in range(3))
    u, v = x * (x - z), y * (y - z)
    pmap = build_map([y * u, x * v, z * u, z * v])   # six base points
    saturations = count_calls(
        monkeypatch, saturate_irrelevant,
        key=lambda I: frozenset(tuple(sorted(g.terms.items()))
                                for g in I.generators))
    proxies = count_calls(monkeypatch, lci_proxy_check)
    presentations = count_calls(monkeypatch, presentation_matrix_N)
    supports = count_calls(monkeypatch, rational_points_zero_dim)
    result = run_pipeline(pmap, PipelineOptions(s_max=3))
    assert result.exit_code == 0 and result.search.route_b_ran
    assert len(result.search.records) == 4
    assert saturations and len(saturations) == len(set(saturations))
    assert len(proxies) <= 1 and len(presentations) <= 1
    assert len(supports) == 1


def test_saturation_intersects_only_with_base_points_on_every_line(monkeypatch):
    """The four base points of this map avoid z = 0, so every saturation
    is certified at its first variable.  The quintic has base points on
    every coordinate line and falls back to the intersection, with the
    golden initial degrees."""
    inside = []

    def tracked_saturation(I):
        inside.append(I)
        try:
            return saturate_irrelevant(I)
        finally:
            inside.pop()

    rebind(monkeypatch, saturate_irrelevant, tracked_saturation)
    intersections = count_calls(monkeypatch, ideals.intersect,
                                 key=lambda *args: bool(inside))
    R = standard_ring(("x", "y", "z"))
    x, y, z = (Polynomial.variable(R, i) for i in range(3))
    u, v = (x - z) * (x - z.scale(2)), (y - z) * (y - z.scale(2))
    result = run_pipeline(build_map([x * u, y * v, z * u, z * v]),
                          PipelineOptions(s_max=3))
    assert result.report["hypotheses"]["base_locus"]["degree"] == 4
    assert not any(intersections)

    quintic = run_pipeline(load_map_file(map_path("quintic_surface.map")),
                           PipelineOptions(s_max=4))
    assert quintic.exit_code == 0 and any(intersections)
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    current = json.loads(dumps(quintic.report))
    assert current["hypotheses"]["indeg_sat"] == \
        golden["hypotheses"]["indeg_sat"] == 5
    for key in ("fibers", "divisor_bound"):
        assert current[key] == golden[key]


def _usage_exit(argv, capsys):
    """Exit code and standard error of a command line argparse rejects."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    return info.value.code, capsys.readouterr().err


def test_cli_usage_errors_exit_one(capsys):
    """Exit 2 is reserved for a failed hypothesis, so argparse's usage
    errors exit 1, with argparse's message."""
    quintic = map_path("quintic_surface.map")
    cases = [(["cohomology", quintic], "required: --mu"),
             (["analyze"], "required: file"),
             (["analyze", quintic, "--s-max", "x"], "invalid int value: 'x'"),
             (["frobnicate", quintic], "invalid choice")]
    for argv, message in cases:
        code, err = _usage_exit(argv, capsys)
        assert code == 1, argv
        assert "usage: mapfibers" in err and message in err, err


def test_cli_rejects_s_max_below_one(capsys):
    """`--s-max` 0 or below would print an empty module table and exit 0."""
    for cmd, extra in (("analyze", []), ("cohomology", ["--mu", "-2"])):
        for bad in ("0", "-2"):
            code, err = _usage_exit([cmd, map_path("base_point_free.map"),
                                     *extra, "--s-max", bad], capsys)
            assert code == 1
            assert f"--s-max: must be at least 1, got {int(bad)}" in err


def test_cli_fibers_with_the_names_of_auxiliary_variables(tmp_path, capsys):
    """Source or target variables named like the ones `intersect` and
    `linear_factors` adjoin (``_t``, ``a_j``) do not collide with them:
    the quintic with renamed variables keeps its eight fibers."""
    with open(map_path("quintic_surface.map"), encoding="utf-8") as fh:
        quintic = fh.read()
    cases = {"source_a.map": {"X0": "a_0", "X1": "a_1", "X2": "a_2"},
             "source_t.map": {"X0": "_t"},
             "target_t.map": {"T0": "_t"}}
    for name, renames in cases.items():
        text = quintic
        for old, new in renames.items():
            text = re.sub(rf"\b{old}\b", new, text)
        path = tmp_path / name
        path.write_text(text)
        assert main(["fibers", str(path)]) == 0, name
        out = capsys.readouterr().out
        assert "fibers of dimension m-1: 8 point(s), inventory complete\n" \
            in out, name
        assert out.count("(degree 1, route A+B)") == 8, name


def _presentation_error_report(monkeypatch, tmp_path, message):
    """`analyze` on a freshly loaded quintic whose presentation raises
    ArithmeticError(message): exit code and JSON report."""
    def fails(pmap):
        raise ArithmeticError(message)

    rebind(monkeypatch, presentation_matrix_N, fails)
    out_path = str(tmp_path / "error.json")
    rc = main(["analyze", map_path("quintic_surface.map"), "--json",
               out_path])
    with open(out_path) as fh:
        return rc, json.load(fh)


def test_presentation_error_leaves_the_gcd_route(monkeypatch, tmp_path,
                                                 capsys):
    message = "rank cross-check failed"
    rc, doc = _presentation_error_report(monkeypatch, tmp_path, message)
    assert rc == 3
    assert f"presentation over target ring: unavailable ({message})\n" \
        in capsys.readouterr().out
    assert doc["presentation"] == {"error": message}
    assert doc["fibers"]["notes"] == [
        "support route unavailable: " + message,
        "only the gcd route ran: inventory is sound but may be incomplete"]
    records = doc["fibers"]["records"]
    assert len(records) == 8 and all(r["route"] == "A" for r in records)
    assert "two_sided" not in doc["module"]
    assert doc["module"]["degree_formula"]["inconclusive"] is True
    assert "surface_bounds" not in doc


def test_presentation_rank_check_fires(monkeypatch, tmp_path, capsys):
    """The presentation's own rank cross-check, fed a wrong H^1 value,
    refuses the presentation, and route A alone is left."""
    wrong = approx.hdim_difference
    monkeypatch.setattr(approx, "hdim_difference",
                        lambda J, i, t: wrong(J, i, t) + 1)
    out_path = tmp_path / "rank.json"
    rc = main(["analyze", map_path("quintic_surface.map"), "--json",
               str(out_path)])
    capsys.readouterr()
    assert rc == 3
    message = "presentation rank n=8 disagrees with H^1_m(R/I)_3=9"
    doc = json.loads(out_path.read_text())
    assert doc["presentation"] == {"error": message}
    assert doc["fibers"]["notes"] == [
        "support route unavailable: " + message,
        "only the gcd route ran: inventory is sound but may be incomplete"]


def test_disagreeing_cohomology_routes_fail_the_certificate(
        monkeypatch, tmp_path, capsys):
    """A duality value off by one is a failed certificate: exit 4 with the
    report written and the disagreeing s named, not a traceback."""
    wrong = cohomology.hdim_duality
    rebind(monkeypatch, wrong, lambda J, i, t: wrong(J, i, t) + 1)
    out_path = tmp_path / "split.json"
    rc = main(["analyze", map_path("quintic_surface.map"), "--json",
               str(out_path)])
    assert rc == 4
    doc = json.loads(out_path.read_text())
    table, cross = doc["module"]["table"], doc["module"]["cross_table"]
    assert table == {"1": 8, "2": 10, "3": 9, "4": 8}
    assert cross == {s: v + 1 for s, v in table.items()}
    assert ("  difference and duality routes disagree (s=1: 8 vs 9, "
            "s=2: 10 vs 11, s=3: 9 vs 10, s=4: 8 vs 9): FAILS\n"
            in capsys.readouterr().out)


@pytest.mark.parametrize("field", ["GF(7)", "QQ"])
def test_failed_lci_proxy_leaves_route_b_unverified(field):
    """The fat point x²z + y³, y²z + x³, xyz, x²y: route B runs, but the
    base locus fails the lci proxy, so the inventory is not certified."""
    pmap = parse_map_file(f"field = {field}\nsource = x y z\n"
                          "f0 = x^2*z + y^3\nf1 = y^2*z + x^3\n"
                          "f2 = x*y*z\nf3 = x^2*y\n")
    result = run_pipeline(pmap, PipelineOptions(**COMMAND_STAGES["fibers"]))
    assert result.exit_code == 3
    assert result.report["hypotheses"]["lci_proxy"] is False
    fibers = result.report["fibers"]
    assert fibers["routes"]["support_ran"] is True
    assert fibers["complete"] is False
    assert fibers["notes"] == [
        "lci proxy failed: support route results verified individually"]


@pytest.mark.parametrize("command, calls", [("fibers", 0), ("analyze", 1),
                                            ("bounds", 1)])
def test_presentation_is_built_only_where_read(monkeypatch, command, calls):
    """The base-point-free map has no fiber route B would look for, so
    `fibers` builds no presentation; `analyze` and `bounds` build it once,
    in their `presentation` stage."""
    built = count_calls(monkeypatch, presentation_matrix_N)
    result = run_pipeline(load_map_file(map_path("base_point_free.map")),
                          PipelineOptions(**COMMAND_STAGES[command]))
    assert result.exit_code == 0
    assert len(built) == calls
    assert ("presentation" in result.report["timings"]) == bool(calls)


PER_S_KEYS = ("table", "coker_dims", "cross_table", "per_s", "gcd")


def _report_keys(node, parent=None):
    """Every key of a report document but the per-s keys (under `table`,
    `coker_dims`, `cross_table`, `per_s` and `routes.gcd`) and the stage
    names under `timings`."""
    if isinstance(node, list):
        for item in node:
            yield from _report_keys(item, parent)
    elif isinstance(node, dict):
        for key, value in node.items():
            if parent not in PER_S_KEYS + ("timings",):
                yield key
            yield from _report_keys(value, key)


def test_schema_doc_names_every_report_key(quintic_map, monkeypatch,
                                           tmp_path, capsys):
    """Each key of the golden quintic report, of `fibers` and `bounds` on
    the quintic and of the presentation-error report is named in
    docs/report_schema.md, in backticks or double quotes."""
    with open(GOLDEN, encoding="utf-8") as fh:
        reports = [json.load(fh)]
    for command in ("fibers", "bounds"):
        reports.append(run_pipeline(
            quintic_map, PipelineOptions(**COMMAND_STAGES[command])).report)
    reports.append(_presentation_error_report(monkeypatch, tmp_path,
                                              "failed")[1])
    capsys.readouterr()
    with open(SCHEMA_DOC, encoding="utf-8") as fh:
        doc = fh.read()
    missing = sorted({key for report in reports
                      for key in _report_keys(report)
                      if f"`{key}`" not in doc and f'"{key}"' not in doc})
    assert not missing, f"keys missing from the schema doc: {missing}"
