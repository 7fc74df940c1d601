"""Source hygiene: every name a module imports is used in that module,
every function, method or class the package defines is named by the
package or the benchmark, no function carries a process-wide cache
decorator, no module reads the environment, and only `ideals` touches an
ideal's caches.

Stdlib only: each ``src/mapfibers/*.py`` is parsed with ``ast``.  The
package ``__init__`` is exempt from the import check because its imports
are re-exports.
"""

import ast
import importlib
import os

import pytest

from mapfibers.ideals import Ideal

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "mapfibers")
MODULES = sorted(f for f in os.listdir(SRC)
                 if f.endswith(".py") and f != "__init__.py")


def _imported(tree):
    """Bound name -> line of every import except ``__future__``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
    return out


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names inside quoted annotations such as "ReesData"
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _used(ast.parse(node.value, mode="eval"))
    return names


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    used = _used(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported(tree).items()
                    if name not in used)
    assert not unused, f"{module} imports unused names: {', '.join(unused)}"


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SCANNED = ("src", "tests", "perfbench")


def _trees(scanned=SCANNED):
    for top in scanned:
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for f in sorted(files):
                if f.endswith(".py"):
                    path = os.path.join(dirpath, f)
                    with open(path, encoding="utf-8") as fh:
                        yield path, ast.parse(fh.read())


def _references(tree):
    """Every name a module reads: identifiers, attributes, imported names
    and string constants that spell an identifier (such as the
    ``(module, function)`` pairs a tracer wraps)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value


def _overrides(path, tree):
    """The method definitions that override a method of a base class (such
    as ``argparse.ArgumentParser.error``): their caller is the base."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            module = importlib.import_module(
                "mapfibers." + os.path.basename(path)[:-3])
            bases = getattr(module, node.name).__mro__[1:]
            out |= {item for item in node.body
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))
                    and any(hasattr(b, item.name) for b in bases)}
    return out


def test_every_definition_is_referenced():
    """No function, method or class in the package is dead or test-only:
    each non-dunder ``def`` or ``class`` under ``src/mapfibers`` is named
    somewhere in ``src/`` or ``perfbench/`` besides its own definition.
    References the tests keep live in ``tests/``.  A method that overrides
    a base-class method is exempt."""
    defined = {}
    referenced = set()
    for path, tree in _trees(("src", "perfbench")):
        referenced.update(_references(tree))
        if os.path.dirname(os.path.abspath(path)) != os.path.abspath(SRC):
            continue
        exempt = _overrides(path, tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and not (node.name.startswith("__")
                             and node.name.endswith("__")) \
                    and node not in exempt:
                defined.setdefault(node.name, f"{os.path.basename(path)}:"
                                              f"{node.lineno}")
    dead = sorted(f"{name} ({where})" for name, where in defined.items()
                  if name not in referenced)
    assert not dead, f"definitions named nowhere else: {', '.join(dead)}"


CACHE_DECORATORS = ("lru_cache", "cache")


@pytest.mark.parametrize("module", MODULES)
def test_no_module_level_caches(module):
    """A `functools.lru_cache` or `functools.cache` decorator keeps its
    entries for the life of the process; derived objects are cached on the
    object that owns them instead."""
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = target.attr if isinstance(target, ast.Attribute) \
                else getattr(target, "id", None)
            if name in CACHE_DECORATORS:
                found.append(f"{node.name} (line {dec.lineno})")
    assert not found, f"{module} caches process-wide: {', '.join(found)}"


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read():
    """No dataclass field in the package is write-only: each field of a
    ``@dataclass`` under ``src/mapfibers`` is loaded as an attribute, or
    named as an identifier string, somewhere in ``src/``, ``tests/`` or
    ``perfbench/``."""
    fields = {}
    read = set()
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                read.add(node.value)
        if os.path.dirname(os.path.abspath(path)) != os.path.abspath(SRC):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) \
                            and isinstance(stmt.target, ast.Name):
                        fields[f"{node.name}.{stmt.target.id}"] = \
                            f"{os.path.basename(path)}:{stmt.lineno}"
    unread = sorted(f"{name} ({where})" for name, where in fields.items()
                    if name.split(".", 1)[1] not in read)
    assert not unread, f"dataclass fields never read: {', '.join(unread)}"


ENV_READERS = ("environ", "environb", "getenv", "getenvb")


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_environment_reads(module):
    """The package reads no environment variable: what it computes depends
    on its inputs and options alone, and no variable can switch a code path
    (such as the Hilbert-driven criterion) on or off."""
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENV_READERS \
                and getattr(node.value, "id", None) == "os":
            found.append(f"os.{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"from os import {a.name} (line {node.lineno})"
                      for a in node.names if a.name in ENV_READERS]
    assert not found, f"{module} reads the environment: {', '.join(found)}"


IDEAL_CACHES = tuple(slot for slot in Ideal.__slots__ if slot != "ring")


@pytest.mark.parametrize("module", [m for m in MODULES if m != "ideals.py"])
def test_only_ideals_touches_an_ideals_caches(module):
    """Every slot of an `Ideal` but its ring (cached bases, saturation,
    Hilbert data and series, the generators as polynomials and as packed
    term lists, the base and exponent of a power) is read and written in
    `ideals.py` alone; other modules go through its methods (`generators`,
    `groebner`, `saturation`, `hilbert`) and `ideal_power`."""
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = sorted(f"{name} (line {node.lineno})" for node in ast.walk(tree)
                   for name in (getattr(node, "attr", None),
                                getattr(node, "id", None))
                   if name in IDEAL_CACHES)
    assert not found, f"{module} names an ideal's cache: {', '.join(found)}"
