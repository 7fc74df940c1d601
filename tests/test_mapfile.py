import os
import random
import sys

import pytest

from mapfibers.fibers import build_map
from mapfibers.fields import QQ, PrimeField
from mapfibers.mapfile import (MapFileError, _parse_field_tag, field_tag,
                               format_map_file, parse_map_file,
                               parse_polynomial)
from mapfibers.poly import Polynomial
from mapfibers.rings import standard_ring

from conftest import MAPS_DIR

N_FUZZ = 2000

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


def test_field_tag_round_trips():
    for F in (QQ, PrimeField(7), PrimeField(65521)):
        assert _parse_field_tag(field_tag(F), 1, 1) == F


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


def test_default_target_clash_points_at_the_source_line():
    with pytest.raises(MapFileError) as exc:
        parse_map_file("source = T0 T1 T2\nf0 = T0\nf1 = T1\nf2 = T2\n"
                       "f3 = T0 + T1\n")
    assert (exc.value.line, exc.value.column) == (1, 10)
    assert "'T0'" in str(exc.value)


def test_target_name_repeating_a_source_name_rejected():
    with pytest.raises(MapFileError) as exc:
        parse_map_file("source = x y z\ntarget = a b x d\n"
                       "f0 = x\nf1 = y\nf2 = z\nf3 = x + y\n")
    assert (exc.value.line, exc.value.column) == (2, 14)
    assert "'x'" in str(exc.value)


def test_build_map_rejects_shared_names():
    R = standard_ring(("x", "y"))
    x, y = (Polynomial.variable(R, i) for i in range(2))
    with pytest.raises(ValueError, match="'y'"):
        build_map([x, y], target_names=("y", "z"))


@pytest.fixture
def int_digit_limit():
    """The interpreter's default int/str conversion limit, 4300 digits
    (Python 3.10.7 and later), pinned for the test."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("form, column, digits", [
    ("7" * 5000 + "*x", 6, 5000),          # a coefficient literal
    ("x^" + "9" * 5000, 8, 5000),           # an exponent
    ("1/" + "3" * 4400 + "*x", 8, 4400),    # a denominator
], ids=["coefficient", "exponent", "denominator"])
def test_literal_past_the_digit_limit_is_a_located_error(int_digit_limit,
                                                         form, column, digits):
    with pytest.raises(MapFileError) as exc:
        parse_map_file(f"source = x y\nf0 = {form}\nf1 = y\n")
    assert (exc.value.line, exc.value.column) == (2, column)
    assert f"{digits} digits" in str(exc.value)


def test_unprintable_coefficient_is_rejected_when_parsed(int_digit_limit):
    """2^14300 has 4305 digits: the form parses, but it could not be
    printed, so the map is refused; 2^14284, of 4300 digits, is kept and
    round-trips."""
    with pytest.raises(MapFileError) as exc:
        parse_map_file("field = QQ\nsource = x y\n"
                       "f0 = (2*x)^14300\nf1 = y^14300\n")
    assert (exc.value.line, exc.value.column) == (3, 6)
    assert "f0" in str(exc.value) and "too long to print" in str(exc.value)
    pm = parse_map_file("source = x y\nf0 = (2*x)^14284\nf1 = y^14284\n")
    assert parse_map_file(format_map_file(pm)).forms == pm.forms


def _mutate(rng, text):
    alphabet = "XTxyz0123456789 +-*^()/=#\n_$.,fGQ"
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(chars) + 1)
        op = rng.randrange(3)
        if op == 0 or pos == len(chars):
            chars.insert(pos, rng.choice(alphabet + text))
        elif op == 1:
            del chars[pos]
        else:
            chars[pos] = rng.choice(alphabet + text)
    return "".join(chars)


def test_parser_fuzz_gives_a_map_or_a_located_error():
    """Seeded random edits of the bundled map files: each text parses to a
    map whose source and target names are disjoint, or raises
    MapFileError; nothing else escapes."""
    rng = random.Random(20261018)
    texts = []
    for name in sorted(os.listdir(MAPS_DIR)):
        with open(os.path.join(MAPS_DIR, name), encoding="utf-8") as fh:
            texts.append(fh.read())
    parsed = failed = 0
    for _ in range(N_FUZZ):
        text = _mutate(rng, rng.choice(texts))
        try:
            pm = parse_map_file(text)
        except MapFileError:
            failed += 1
            continue
        assert not set(pm.source.variables) & set(pm.target.variables)
        parsed += 1
    assert parsed and failed
