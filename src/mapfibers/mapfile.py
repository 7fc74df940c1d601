"""Plain-text map files: parsing and printing.

A map file is a block of ``key = value`` lines (``#`` starts a comment):

    field  = QQ            # or "GF 7"
    source = X0 X1 X2
    target = T0 T1 T2 T3   # optional, defaults to T0..Tn
    f0     = X0^4*X1 - X0^2*X1*X2^2
    f1     = ...

Forms must be named f0..fn with no gaps.  Polynomial expressions use the
grammar

    expr   := ['-'] term { ('+' | '-') term }
    term   := factor { '*' factor }
    factor := base [ '^' natural ]
    base   := coefficient | variable | '(' expr ')'

where a coefficient is an integer or an a/b rational literal.  Parsing is
exact; over GF(p) integer literals reduce mod p.  No degree may pass the
engine's monomial cap `engine.EXP_CAP` (32767).  No literal, and no
coefficient of a parsed form, may pass the interpreter's limit on
int/str conversion.  ``format_map_file`` is a right inverse: parsing its
output reproduces the map.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from .engine import EXP_CAP
from .fields import Field, QQ, PrimeField
from .poly import Polynomial
from .rings import RingDescriptor, standard_ring
from .fibers import ParameterizedMap, build_map


class MapFileError(ValueError):
    """Parse failure; carries the 1-based line and column when known."""

    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f", column {column}"
            loc += ": "
        super().__init__(loc + message)


# ---------------------------------------------------------------- expressions

_TOKEN = re.compile(r"(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^()/])|(\S)")


def _tokenize(text: str, line: int, col0: int) -> List[Tuple[str, str, int]]:
    """(kind, text, column) triples; kind ∈ {int, name, op}."""
    out = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        col = col0 + pos
        if m.group(4):
            raise MapFileError(f"unexpected character {m.group(4)!r}", line, col)
        if m.group(1):
            out.append(("int", m.group(1), col))
        elif m.group(2):
            out.append(("name", m.group(2), col))
        else:
            out.append(("op", m.group(3), col))
        pos = m.end()
    return out


class _ExprParser:
    """Recursive descent over the token list, producing exact polynomials."""

    def __init__(self, ring: RingDescriptor,
                 tokens: List[Tuple[str, str, int]], line: int):
        self.ring = ring
        self.tokens = tokens
        self.line = line
        self.pos = 0
        self.var_index = {name: i for i, name in enumerate(ring.variables)}

    def _peek(self) -> Optional[Tuple[str, str, int]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> Tuple[str, str, int]:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else ("", "", 1)
            raise MapFileError("unexpected end of expression", self.line,
                               last[2] + len(last[1]))
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        if not self.tokens:
            raise MapFileError("empty expression", self.line, 1)
        f = self._expr()
        tok = self._peek()
        if tok is not None:
            raise MapFileError(f"unexpected {tok[1]!r}", self.line, tok[2])
        return f

    def _expr(self) -> Polynomial:
        negate = False
        tok = self._peek()
        if tok is not None and tok[1] == "-":
            self._next()
            negate = True
        f = self._term()
        if negate:
            f = -f
        while True:
            tok = self._peek()
            if tok is None or tok[1] not in ("+", "-"):
                return f
            self._next()
            g = self._term()
            f = f + g if tok[1] == "+" else f - g

    def _term(self) -> Polynomial:
        f = self._factor()
        while True:
            tok = self._peek()
            if tok is None or tok[1] != "*":
                return f
            self._next()
            f = f * self._factor()

    def _factor(self) -> Polynomial:
        f = self._base()
        tok = self._peek()
        if tok is not None and tok[1] == "^":
            self._next()
            kind, text, col = self._next()
            if kind != "int":
                raise MapFileError("exponent must be a natural number",
                                   self.line, col)
            n = self._int(text, col)
            if max(f.degree(), 1) * n > EXP_CAP:
                raise MapFileError(f"exponent {n} takes the degree past the "
                                   f"monomial cap {EXP_CAP}", self.line, col)
            f = f ** n
        return f

    def _int(self, text: str, col: int) -> int:
        """The integer a digit token spells; a located error past the
        interpreter's limit on int/str conversion (4300 digits by
        default since Python 3.10.7), where `int` raises ValueError."""
        try:
            return int(text)
        except ValueError:
            raise MapFileError(
                f"integer literal of {len(text)} digits is past the "
                "interpreter's limit for integer string conversion",
                self.line, col) from None

    def _base(self) -> Polynomial:
        kind, text, col = self._next()
        if kind == "int":
            # optional /denominator makes an exact rational literal
            tok = self._peek()
            if tok is not None and tok[1] == "/":
                self._next()
                k2, t2, c2 = self._next()
                if k2 != "int":
                    raise MapFileError("denominator must be an integer",
                                       self.line, c2)
                F = self.ring.field
                num, den = self._int(text, col), self._int(t2, c2)
                try:
                    c = F.div(F.from_int(num), F.from_int(den))
                except ZeroDivisionError:
                    raise MapFileError("division by zero in coefficient",
                                       self.line, c2) from None
                return Polynomial.constant(self.ring, c)
            return Polynomial.constant(self.ring, self._int(text, col))
        if kind == "name":
            idx = self.var_index.get(text)
            if idx is None:
                raise MapFileError(f"unknown variable {text!r}", self.line, col)
            return Polynomial.variable(self.ring, idx)
        if text == "(":
            f = self._expr()
            kind2, t2, c2 = self._next()
            if t2 != ")":
                raise MapFileError("expected ')'", self.line, c2)
            return f
        raise MapFileError(f"unexpected {text!r}", self.line, col)


def parse_polynomial(text: str, ring: RingDescriptor,
                     line: int = 1, col0: int = 1) -> Polynomial:
    return _ExprParser(ring, _tokenize(text, line, col0), line).parse()


# ------------------------------------------------------------------ map files

_KEYVAL = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(.*?)\s*$")
_FORM = re.compile(r"^f(\d+)$")
_NAME = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


def field_tag(field: Field) -> str:
    """The map-file spelling of a field, "QQ" or "GF p"; the inverse of
    `_parse_field_tag`."""
    p = field.characteristic()
    return "QQ" if p == 0 else f"GF {p}"


def _parse_field_tag(value: str, line: int, col: int) -> Field:
    parts = value.replace("(", " ").replace(")", " ").split()
    if parts == ["QQ"]:
        return QQ
    if len(parts) == 2 and parts[0] == "GF" and parts[1].isdigit():
        try:
            return PrimeField(int(parts[1]))
        except ValueError as exc:
            raise MapFileError(str(exc), line, col) from None
    raise MapFileError(f"unknown field tag {value!r} (use QQ or GF p)",
                       line, col)


def _parse_names(value: str, what: str, line: int,
                 vcol: int) -> List[Tuple[str, int]]:
    """The (name, column) pairs of a variable list."""
    names = [(m.group(), vcol + m.start()) for m in re.finditer(r"\S+", value)]
    for nm, col in names:
        if not _NAME.match(nm):
            raise MapFileError(f"bad {what} variable name {nm!r}", line, col)
    if len({nm for nm, _ in names}) != len(names):
        raise MapFileError(f"repeated {what} variable", line, vcol)
    return names


def parse_map_file(text: str) -> ParameterizedMap:
    field: Optional[Field] = None
    source: Optional[List[Tuple[str, int]]] = None
    target: Optional[List[Tuple[str, int]]] = None
    form_texts = {}
    source_line = target_line = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0]
        if not stripped.strip():
            continue
        m = _KEYVAL.match(stripped)
        if m is None:
            col = len(stripped) - len(stripped.lstrip()) + 1
            raise MapFileError("expected `key = value`", lineno, col)
        key, value = m.group(1), m.group(2)
        eq = stripped.index("=")
        vcol = (raw.find(value, eq + 1) + 1) if value else eq + 2
        if key == "field":
            field = _parse_field_tag(value, lineno, vcol)
        elif key == "source":
            source = _parse_names(value, "source", lineno, vcol)
            source_line = lineno
        elif key == "target":
            target = _parse_names(value, "target", lineno, vcol)
            target_line = lineno
        else:
            fm = _FORM.match(key)
            if fm is None:
                raise MapFileError(f"unknown key {key!r}", lineno, 1)
            idx = int(fm.group(1))
            if idx in form_texts:
                raise MapFileError(f"duplicate form f{idx}", lineno, 1)
            form_texts[idx] = (value, lineno, vcol)

    if source is None:
        raise MapFileError("missing `source = ...` line")
    if not form_texts:
        raise MapFileError("no forms f0 = ... given")
    n = max(form_texts)
    missing = sorted(set(range(n + 1)) - set(form_texts))
    if missing:
        raise MapFileError(f"missing form f{missing[0]} (forms must be f0..f{n})")
    if len(source) < 2:
        raise MapFileError("source needs at least two variables",
                           source_line or 1)

    ring = standard_ring(tuple(nm for nm, _ in source), field or QQ)
    forms = []
    for idx in range(n + 1):
        value, lineno, vcol = form_texts[idx]
        f = parse_polynomial(value, ring, lineno, vcol)
        if f.degree() > EXP_CAP:
            raise MapFileError(f"form f{idx} has degree {f.degree()}, above "
                               f"the monomial cap {EXP_CAP}", lineno, vcol)
        if not f.is_homogeneous():
            raise MapFileError(f"form f{idx} is not homogeneous", lineno, vcol)
        try:                # so that `format_map_file` can print every map
            str(f)
        except ValueError:
            raise MapFileError(
                f"form f{idx} has a coefficient too long to print, past the "
                "interpreter's limit for integer string conversion",
                lineno, vcol) from None
        forms.append(f)
    if target is not None and len(target) != n + 1:
        raise MapFileError(
            f"target lists {len(target)} variables but there are {n + 1} forms")
    # the Rees ring holds source and target variables side by side
    if target is None:
        defaults = {f"T{j}" for j in range(n + 1)}
        for nm, col in source:
            if nm in defaults:
                raise MapFileError(
                    f"source variable {nm!r} is also a default target name "
                    f"(T0..T{n}); name the target variables in a "
                    f"`target = ...` line", source_line, col)
    else:
        for nm, col in target:
            if nm in ring.variables:
                raise MapFileError(f"target variable {nm!r} is also a "
                                   f"source variable", target_line, col)
    try:
        return build_map(forms, target_names=None if target is None else
                         tuple(nm for nm, _ in target))
    except ValueError as exc:
        raise MapFileError(str(exc)) from None


def load_map_file(path: str) -> ParameterizedMap:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_map_file(fh.read())


def format_map_file(pmap: ParameterizedMap) -> str:
    """Print a map back to file syntax; parsing the result reproduces it.
    A common factor that `build_map` divided out is multiplied back in."""
    lines = [
        f"field = {field_tag(pmap.source.field)}",
        f"source = {' '.join(pmap.source.variables)}",
        f"target = {' '.join(pmap.target.variables)}",
    ]
    g = pmap.common_factor
    for j, f in enumerate(pmap.forms):
        lines.append(f"f{j} = {f if g is None else f * g}")
    return "\n".join(lines) + "\n"
