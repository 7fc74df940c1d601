import pytest

from mapfibers.mapfile import (MapFileError, format_map_file, parse_map_file,
                               parse_polynomial)
from mapfibers.rings import standard_ring

QUINTIC = """\
# comments are ignored
field = QQ
source = X0 X1 X2
target = T0 T1 T2 T3
f0 = X1 * X0*(X0-X2)*(X0+X2)*(X0-2*X2)
f1 = X0 * X1*(X1-X2)*(X1+X2)*(X1-2*X2)
f2 = X2 * X0*(X0-X2)*(X0+X2)*(X0-2*X2)
f3 = X2 * X1*(X1-X2)*(X1+X2)*(X1-2*X2)
"""


def test_parse_quintic():
    pm = parse_map_file(QUINTIC)
    assert pm.d == 5
    assert pm.m == 2 and pm.n == 3
    assert pm.source.variables == ("X0", "X1", "X2")
    assert pm.target.variables == ("T0", "T1", "T2", "T3")


def test_round_trip():
    pm = parse_map_file(QUINTIC)
    again = parse_map_file(format_map_file(pm))
    assert again.forms == pm.forms
    assert again.source == pm.source and again.target == pm.target


def test_round_trip_over_prime_field():
    text = "field = GF 7\nsource = x y\nf0 = 3*x^2 + 1/2*y^2\nf1 = x*y\n"
    pm = parse_map_file(text)
    assert parse_map_file(format_map_file(pm)).forms == pm.forms


def test_coefficients_reduce_mod_p():
    pm = parse_map_file("field = GF 7\nsource = x y\nf0 = 9*x\nf1 = y\n")
    assert str(pm.forms[0]) == "2*x"


def test_default_target_names():
    pm = parse_map_file("source = x y\nf0 = x\nf1 = y\nf2 = x + y\n")
    assert pm.target.variables == ("T0", "T1", "T2")


def test_inhomogeneous_form_rejected():
    with pytest.raises(MapFileError) as exc:
        parse_map_file("source = x y\nf0 = x + y^2\nf1 = y\n")
    assert exc.value.line == 2
    assert "homogeneous" in str(exc.value)


def test_syntax_error_carries_location():
    with pytest.raises(MapFileError) as exc:
        parse_map_file("source = x y\nf0 = x + * y\nf1 = y\n")
    assert exc.value.line == 2
    assert exc.value.column is not None


def test_unknown_variable():
    with pytest.raises(MapFileError) as exc:
        parse_map_file("source = x y\nf0 = x*q\nf1 = y\n")
    assert "unknown variable 'q'" in str(exc.value)


def test_missing_and_duplicate_forms():
    with pytest.raises(MapFileError) as exc:
        parse_map_file("source = x y\nf0 = x\nf2 = y\n")
    assert "missing form f1" in str(exc.value)
    with pytest.raises(MapFileError):
        parse_map_file("source = x y\nf0 = x\nf0 = y\n")


def test_target_length_mismatch():
    with pytest.raises(MapFileError):
        parse_map_file("source = x y\ntarget = T0 T1 T2\nf0 = x\nf1 = y\n")


def test_bad_field_tags():
    with pytest.raises(MapFileError):
        parse_map_file("field = GF 6\nsource = x y\nf0 = x\nf1 = y\n")
    with pytest.raises(MapFileError):
        parse_map_file("field = RR\nsource = x y\nf0 = x\nf1 = y\n")


def test_zero_denominator_rejected():
    with pytest.raises(MapFileError):
        parse_map_file("source = x y\nf0 = 1/0*x\nf1 = y\n")


def test_expression_parser_directly():
    R = standard_ring(("x", "y"))
    f = parse_polynomial("(x + y)^3 - 3*x*y*(x + y)", R)
    x, y = (type(f).variable(R, i) for i in range(2))
    assert f == x ** 3 + y ** 3
    with pytest.raises(MapFileError):
        parse_polynomial("x + ", R)
    with pytest.raises(MapFileError):
        parse_polynomial("x + $", R)


def test_exponent_past_the_cap_rejected_with_location():
    with pytest.raises(MapFileError) as exc:
        parse_map_file("source = x y\nf0 = x^70000\nf1 = y^70000\n")
    assert (exc.value.line, exc.value.column) == (2, 8)
    assert "70000" in str(exc.value) and "32767" in str(exc.value)
    # each exponent fits, their product does not
    with pytest.raises(MapFileError) as exc:
        parse_map_file("source = x y\nf0 = x^20000*y^20000\nf1 = x*y^39999\n")
    assert exc.value.line == 2 and "degree 40000" in str(exc.value)
