"""Command-line entry points.

    mapfibers analyze    <file> [--json OUT] [--s-max K]
    mapfibers fibers     <file>
    mapfibers cohomology <file> --mu M [--s-max K]
    mapfibers image      <file>
    mapfibers bounds     <file>

Exit codes: 0 success, 1 usage, I/O or parse error (a missing argument,
a value argparse rejects, ``--s-max`` below 1) or a computed coefficient
past the interpreter's int/str digit limit, 2 hypothesis failure (not
generically finite, or the forms share a factor), 3 analysis finished but
completeness is not certified, 4 a certificate failed.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .cohomology import m_mu_dims
from .fields import CoefficientTooLongError
from .mapfile import MapFileError, load_map_file
from .pipeline import (EXIT_HYPOTHESIS, EXIT_OK, PipelineOptions,
                       run_pipeline)
from .report import render_text, write_json


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1: 2 means a hypothesis
    failed."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _power_bound(text: str) -> int:
    """``--s-max``: the largest power examined, at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _load(path: str):
    try:
        return load_map_file(path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    except MapFileError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None


def _shares_a_factor(pmap) -> bool:
    """Report a common factor of the forms, a hypothesis failure."""
    if pmap.common_factor is not None:
        print(f"error: forms share the factor {pmap.common_factor}", file=sys.stderr)
    return pmap.common_factor is not None


# the stages each pipeline command runs, as `PipelineOptions` keywords
COMMAND_STAGES = {
    "analyze": {},
    "fibers": {"divisor_bound": False, "factorization": False,
               "module_table": False, "presentation": False,
               "surface_bounds": False},
    "bounds": {"module_table": False, "factorization": False},
}


def _cmd_pipeline(args) -> int:
    """`analyze`, `fibers` and `bounds`: run the command's stages and print
    the text view; `analyze` also takes ``--s-max`` and ``--json``."""
    pmap = _load(args.file)
    if pmap is None:
        return 1
    opt = PipelineOptions(**COMMAND_STAGES[args.command],
                          s_max=getattr(args, "s_max", PipelineOptions.s_max))
    result = run_pipeline(pmap, opt, path=args.file)
    sys.stdout.write(render_text(result.report))
    if getattr(args, "json", None):
        try:
            write_json(result.report, args.json)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return result.exit_code


def _cmd_cohomology(args) -> int:
    pmap = _load(args.file)
    if pmap is None:
        return 1
    if _shares_a_factor(pmap):
        return EXIT_HYPOTHESIS
    table = m_mu_dims(pmap.base_ideal, pmap.d, args.mu, range(1, args.s_max + 1))
    table.detect_stabilization()
    print(f"dim H^{pmap.m}(I^s) in degree s*d + ({args.mu}):")
    for s in sorted(table.values):
        print(f"  s = {s}: {table.values[s]}")
    if table.stabilized:
        last = max(table.values)
        print(f"the last {last - table.stable_from + 1} computed values equal "
              f"{table.stable_value} (s = {table.stable_from}..{last}); "
              "that is not a certified stable value")
    return EXIT_OK


def _cmd_image(args) -> int:
    pmap = _load(args.file)
    if pmap is None:
        return 1
    if _shares_a_factor(pmap):
        return EXIT_HYPOTHESIS
    img = pmap.image
    equations = [str(g) for g in img.ideal.minimal_basis()]
    print(f"image: dimension {img.dimension}, degree {img.degree}, "
          f"generically finite: {img.generically_finite}")
    for g in equations:
        print(f"  {g}")
    return EXIT_OK if img.generically_finite else EXIT_HYPOTHESIS


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="mapfibers",
        description="Exact fiber analysis for rational maps between "
                    "projective spaces.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report: hypotheses, fibers, "
                                       "bounds, module table")
    p.add_argument("file")
    p.add_argument("--json", metavar="OUT", help="also write the JSON report")
    p.add_argument("--s-max", type=_power_bound, default=PipelineOptions.s_max,
                   dest="s_max",
                   help="largest power of the base ideal to examine")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("fibers", help="inventory of (m-1)-dimensional fibers")
    p.add_argument("file")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("cohomology", help="per-power local cohomology strand")
    p.add_argument("file")
    p.add_argument("--mu", type=int, required=True,
                   help="strand offset: degree s*d + mu")
    p.add_argument("--s-max", type=_power_bound, default=PipelineOptions.s_max,
                   dest="s_max")
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("image", help="implicit equations of the image")
    p.add_argument("file")
    p.set_defaults(func=_cmd_image)

    p = sub.add_parser("bounds", help="divisor-degree and surface bounds")
    p.add_argument("file")
    p.set_defaults(func=_cmd_pipeline)
    return ap


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CoefficientTooLongError as exc:
        # raised while a text is built, before any of it is printed
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
