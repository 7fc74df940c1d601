"""Spans around calls into mapfibers' public functions, installed from outside.

`install` wraps each function in `TRACED` and rebinds the wrapper in every
loaded `mapfibers` module that bound the original object, because some
modules import functions by name (`fibers`, `pipeline`, `cohomology`) while
others reach them through the module attribute (`engine.groebner_raw`,
`linalg.rank`).  Spans live in memory as tuples
``(id, parent_id, name, t0, t1, attrs)`` and are written out once, after the
timed region.  `layer_metrics` turns a list of span files into the
per-layer metrics named in BENCHMARK.json.

`fields`, `rings` and `poly` are per-term arithmetic; wrapping them would
measure the wrapper, so their cost shows only inside their callers' self
time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional


def _ideal_key(args, kwargs):
    ideal = args[0] if args else kwargs["I"]
    gens = tuple(sorted(tuple(sorted(g.terms.items())) for g in ideal.generators))
    return {"key": hash((ideal.ring.variables, gens))}


def _groebner_raw_attrs(args, kwargs):
    gens = args[0] if args else kwargs["gens"]
    ctx = args[1] if len(args) > 1 else kwargs["ctx"]
    if ctx.ncomps > 1:
        kind = "module"
    elif ctx.mod is None:
        kind = "qq"
    else:
        kind = "gfp"
    return {"kind": kind, "gens_in": len(gens)}


def _groebner_raw_result(result):
    return {"basis_out": len(result)}


def _rank_attrs(args, kwargs):
    rows = args[0] if args else kwargs["rows"]
    return {"entries": len(rows) * (len(rows[0]) if len(rows) else 0)}


# (module, function, attributes from the arguments, attributes from the result)
TRACED = [
    ("engine", "groebner_raw", _groebner_raw_attrs, _groebner_raw_result),
    ("engine", "normal_form_raw", None, None),
    ("groebner", "reduced_groebner", None, None),
    ("ideals", "saturate_irrelevant", _ideal_key, None),
    ("ideals", "saturate_variable", None, None),
    ("ideals", "intersect", None, None),
    ("ideals", "ideal_power", None, None),
    ("ideals", "eliminate", None, None),
    ("hilbert", "hilbert_series_quotient", None, None),
    ("linalg", "rank", _rank_attrs, None),
    ("linalg", "nullspace", None, None),
    ("linalg", "solve", None, None),
    ("modules", "free_resolution", None, None),
    ("modules", "module_groebner", None, None),
    ("modules", "minimal_generators", None, None),
    ("modules", "kernel_of_free_map", None, None),
    ("solve", "rational_points_zero_dim", None, None),
    ("cohomology", "hdim_difference", None, None),
    ("cohomology", "hdim_duality", None, None),
    ("cohomology", "n_table", None, None),
    ("approx", "presentation_matrix_N", None, None),
    ("fibers", "rees_ideal", None, None),
    ("fibers", "image_ideal", None, None),
    ("fibers", "base_locus", None, None),
    ("fibers", "lci_proxy_check", None, None),
    ("fibers", "find_one_dim_fibers", None, None),
    ("fibers", "check_divisor_degree_bound", None, None),
    ("fibers", "check_fiber_factorization", None, None),
    ("mapfile", "load_map_file", None, None),
    ("report", "render_text", None, None),
]

PACKAGE = "mapfibers"


class Recorder:
    """In-memory span store with a stack of open span ids."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.stack: List[int] = [0]
        self.next_id = 1
        self.missing: List[str] = []

    def wrap(self, name: str, fn: Callable, attrs_in, attrs_out) -> Callable:
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = None
            if attrs_in is not None:
                try:
                    attrs = attrs_in(args, kwargs)
                except (AttributeError, KeyError, IndexError, TypeError):
                    attrs = {"attrs_error": 1}
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1]
            self.stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.stack.pop()
                self.spans.append((sid, parent, name, t0, t1, attrs))
            if attrs_out is not None:
                try:
                    extra = attrs_out(result)
                except (AttributeError, TypeError):
                    extra = {"attrs_error": 1}
                self.spans[-1] = (sid, parent, name, t0, t1,
                                  {**(attrs or {}), **extra})
            return result

        return wrapper

    def write(self, path: str, request: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"request": request, "missing": self.missing,
                       "spans": self.spans}, fh)


def install(recorder: Recorder) -> None:
    """Wrap every name in TRACED; names that no longer exist are recorded
    in ``recorder.missing`` and reported, never fatal."""
    for mod_name, fn_name, attrs_in, attrs_out in TRACED:
        full = f"{mod_name}.{fn_name}"
        try:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
        except ImportError:
            recorder.missing.append(full)
            continue
        orig = getattr(mod, fn_name, None)
        if not callable(orig):
            recorder.missing.append(full)
            continue
        wrapper = recorder.wrap(full, orig, attrs_in, attrs_out)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == PACKAGE
                                      or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is orig:
                    setattr(loaded, attr, wrapper)


# ------------------------------------------------------------ aggregation

def _span_metrics(spans: List[tuple]) -> Dict[str, float]:
    """calls, inclusive s, self_s and attribute sums per span name."""
    out: Dict[str, float] = {}
    by_id = {s[0]: s for s in spans}
    child_time: Dict[int, float] = {}
    for sid, parent, name, t0, t1, attrs in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for sid, parent, name, t0, t1, attrs in spans:
        dur = t1 - t0
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", dur - child_time.get(sid, 0.0))
        # inclusive time counts only the outermost span of a name
        anc = parent
        nested = False
        while anc:
            a = by_id[anc]
            if a[2] == name:
                nested = True
                break
            anc = a[1]
        if not nested:
            add(f"{name}.s", dur)
        if attrs:
            for k, v in attrs.items():
                if k == "kind":
                    add(f"{name}.{v}.s", dur)
                elif k != "key":
                    add(f"{name}.{k}", v)
    keys = {}
    for sid, parent, name, t0, t1, attrs in spans:
        if attrs and "key" in attrs:
            keys.setdefault(name, set()).add(attrs["key"])
    for name, ks in keys.items():
        add(f"{name}.distinct", len(ks))
    return out


def layer_metrics(span_files: List[str]) -> tuple:
    """Sum the span metrics of one pass (one span file per map run).

    Returns (metrics, missing): ``missing`` lists traced names that the
    program no longer has.
    """
    total: Dict[str, float] = {}
    missing = set()
    for path in span_files:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        missing.update(doc["missing"])
        for k, v in _span_metrics([tuple(s) for s in doc["spans"]]).items():
            total[k] = total.get(k, 0) + v
    return total, sorted(missing)


def traced_name(metric: str) -> Optional[str]:
    """The traced function a per-layer metric is read from, if any."""
    for mod_name, fn_name, _, _ in TRACED:
        full = f"{mod_name}.{fn_name}"
        if metric.startswith(full + "."):
            return full
    return None
