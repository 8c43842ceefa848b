"""Command line interface.

Subcommands
-----------
solve      compute a nodal profile and emit its JSON document
spectrum   negative eigenvalues of the linearization around a profile
morse      full index report with the named lower bounds
sweep      alpha sweep at fixed (p, n): CSV artifact plus monotonicity gate
verify     run the verification battery on a named parameter grid

Each of the three fields of :class:`~henon_morse.config.Settings` is a
tolerance and is exposed as a ``--flag`` (underscores become dashes):
``--rtol``, ``--atol`` and ``--eig-tol``.  Nothing else about a run is
settable, the gates a result must pass included, and what follows from a
tolerance (the potential's cut-off follows eig_tol) has no flag: a run's
output depends on its inputs and these tolerances only.  A tolerance
``Settings`` refuses is bad usage, reported before any solve.  The parser
is built once per process.

Exit codes: 0 success; 1 a mathematical assertion failed (the computation
converged but contradicts a property that must hold); 2 a numerical
procedure did not converge; 3 bad usage.  Failures print one diagnostic
JSON object ``{"error", "message", "context"}`` to stderr.  ``verify``
writes its document whenever the battery runs to the end, also when a
gate fails; a grid point that raises (``TwoRouteError``, say) stops the
battery before any document exists.  A sweep in which some points raise
keeps the rows of the points that finished and exits with the first
point's error.  A ``morse`` or ``sweep`` point is one profile solve: the
index of its alpha = 0 companion, which the lower bounds need, comes
from the point's own spectrum through the power map and is cross-checked
by the point's own oscillation solve.  ``--jobs N`` (``sweep``,
``verify``) needs N >= 1 and starts no more worker processes than there
are tasks; ``morse`` solves its one point in process.

Every artifact flag (``--out``, ``--csv``) given ``-`` writes to stdout,
as an omitted ``--out`` of ``solve``, ``spectrum`` or ``morse`` does;
``verify --out -`` then prints its summary lines to stderr.  ``sweep``
refuses an ``--out`` and ``--csv`` that name the same path.  An artifact
file in a directory that does not exist, an empty artifact path and one
that names a directory are bad usage, refused before any solve; a file
that cannot be written is bad usage too, with the path and the reason in
the diagnostic.
"""

from __future__ import annotations

import argparse
from dataclasses import fields, replace
import errno
import functools
import json
import math
import os
import sys
from typing import get_type_hints

from .config import DEFAULT, Settings
from .errors import HenonMorseError, UsageError, VerificationError
from .io import (
    dumps_canonical,
    morse_document,
    profile_document,
    spectrum_document,
    sweep_csv_text,
)
from .morse import check_lower_bounds, solve_point, sweep_from_reports
from .radial import HenonParams, solve_nodal
from .spectrum import build_schrodinger, negative_spectrum
from .verify import GRIDS, run_battery, run_tasks

__all__ = ["main"]

# Most points an --alphas range may hold; a wider range is refused before
# its list is built, so no range can exhaust memory.
_MAX_ALPHA_POINTS = 10_000


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports bad usage through the package's own
    exception type (and hence exit code 3) instead of argparse's exit(2)."""

    def error(self, message):
        raise UsageError(message)


def _add_settings_flags(parser: argparse.ArgumentParser, hints: dict) -> None:
    group = parser.add_argument_group(
        "numerical settings", "overrides for tolerances")
    for f in fields(Settings):
        group.add_argument(
            "--" + f.name.replace("_", "-"),
            type=hints[f.name], default=None, metavar="X",
            help=f"override {f.name} (default {f.default})")


def _settings_from(args: argparse.Namespace) -> Settings:
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(Settings)
        if getattr(args, f.name, None) is not None
    }
    return replace(DEFAULT, **overrides) if overrides else DEFAULT


def _add_point_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, required=True,
                        help="weight exponent alpha >= 0")
    parser.add_argument("--p", type=float, required=True,
                        help="nonlinearity power p > 1")
    parser.add_argument("--nodes", type=int, required=True,
                        help="number of nodal sets n >= 1")


def _write(text: str, out: str | None) -> None:
    """Every artifact's one writer: stdout for ``-`` or None, else the file
    ``out``, opened only once the text that goes into it is built.  A file
    that cannot be opened or written is bad usage."""
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fp:
            fp.write(text)
    except OSError as exc:
        raise _unwritable(out, exc.strerror or str(exc)) from exc


def _unwritable(path, reason: str) -> UsageError:
    return UsageError("cannot write the artifact",
                      {"path": os.fspath(path), "reason": reason})


def _check_artifact_dirs(args: argparse.Namespace) -> None:
    """Refuse, before any solve, an ``--out`` or ``--csv`` file whose
    directory does not exist, an empty path and an existing directory; the
    last two give the reason ``open`` would give."""
    for path in (getattr(args, "out", None), getattr(args, "csv", None)):
        if path in (None, "-"):
            continue
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise _unwritable(path, "no such directory")
        if path == "":
            raise _unwritable(path, os.strerror(errno.ENOENT))
        if os.path.isdir(path):
            raise _unwritable(path, os.strerror(errno.EISDIR))


def _parse_alphas(spec: str) -> list:
    """Parse ``--alphas``: either a comma list '0,0.5,1' or an inclusive
    range 'start:stop:step'."""
    try:
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 3:
                raise ValueError("range form is start:stop:step")
            start, stop, step = (float(x) for x in parts)
            if not all(map(math.isfinite, (start, stop, step))):
                raise ValueError("start, stop and step must be finite")
            if step <= 0.0:
                raise ValueError("step must be positive")
            if stop < start:
                raise ValueError("stop must be >= start")
            span = (stop - start) / step
            if not span + 1.0 <= _MAX_ALPHA_POINTS:
                raise ValueError(
                    f"the range holds more than {_MAX_ALPHA_POINTS} points")
            count = int(round(span))
            values = [start + i * step for i in range(count + 1)]
            values = [v for v in values if v <= stop + 1e-12 * max(1.0, abs(stop))]
        else:
            values = [float(x) for x in spec.split(",") if x.strip()]
        if not values:
            raise ValueError("no alpha values given")
    except ValueError as exc:
        raise UsageError(f"bad --alphas '{spec}': {exc}", {"alphas": spec})
    out = sorted(set(values))
    if any(v < 0.0 for v in out):
        raise UsageError("alpha values must be >= 0", {"alphas": out})
    return out


def _cmd_solve(args) -> int:
    settings = _settings_from(args)
    profile = solve_nodal(
        HenonParams(alpha=args.alpha, p=args.p, n_nodal=args.nodes), settings)
    _write(dumps_canonical(profile_document(profile)) + "\n", args.out)
    return 0


def _cmd_spectrum(args) -> int:
    settings = _settings_from(args)
    profile = solve_nodal(
        HenonParams(alpha=args.alpha, p=args.p, n_nodal=args.nodes), settings)
    spectrum = negative_spectrum(build_schrodinger(profile, settings), settings)
    _write(dumps_canonical(spectrum_document(spectrum)) + "\n", args.out)
    return 0


def _report_or_error(task):
    """A point's report, or the package error it raised, so that one
    failing alpha does not discard the points that finished."""
    alpha, p, n, settings = task
    try:
        return solve_point(alpha, p, n, settings)[1]
    except HenonMorseError as exc:
        return exc


def _cmd_morse(args) -> int:
    _, report = solve_point(args.alpha, args.p, args.nodes, _settings_from(args))
    bounds = check_lower_bounds(report)
    _write(dumps_canonical(morse_document(report, bounds)) + "\n", args.out)
    failing = [b["name"] for b in bounds if not b["pass"]]
    if failing:
        raise VerificationError(
            "a proved lower bound fails on the computed index",
            {"alpha": args.alpha, "p": args.p, "n": args.nodes,
             "failing": failing})
    return 0


def _cmd_sweep(args) -> int:
    settings = _settings_from(args)
    alphas = _parse_alphas(args.alphas)
    if len(alphas) < 2:
        raise UsageError("a sweep needs at least two alpha values",
                         {"alphas": alphas})
    if args.out and os.path.realpath(args.out) == os.path.realpath(args.csv):
        raise UsageError("--out and --csv name the same path",
                         {"csv": args.csv, "out": args.out})
    results = run_tasks(_report_or_error, [(a, args.p, args.nodes, settings)
                                            for a in alphas], args.jobs)
    errors = [r for r in results if isinstance(r, HenonMorseError)]
    reports = [r for r in results if not isinstance(r, HenonMorseError)]
    rows = [{
        "alpha": report.params.alpha, "p": args.p, "n": args.nodes,
        "m_rad": report.m_rad, "m_total": report.m_total,
        "lambdas": report.lambdas,
        "bounds_pass": all(b["pass"] for b in check_lower_bounds(report)),
    } for report in reports]

    # Artifacts land on disk before any gating verdict is raised; a failed
    # point leaves the rows of the points that finished, and rows that
    # cannot be written leave an existing file as it was.
    if rows:
        _write(sweep_csv_text(rows), args.csv)
    sweep = sweep_from_reports(reports) if len(reports) >= 2 else None
    if args.out is not None and sweep is not None:
        _write(dumps_canonical(sweep) + "\n", args.out)

    if errors:
        raise errors[0]
    if not sweep["monotone"]:
        raise VerificationError(
            "m_total is not nondecreasing along the alpha sweep",
            {"p": args.p, "n": args.nodes,
             "transitions": [list(t.values()) for t in sweep["transitions"]]})
    bad = [r["alpha"] for r in rows if not r["bounds_pass"]]
    if bad:
        raise VerificationError(
            "a proved lower bound fails along the sweep",
            {"p": args.p, "n": args.nodes, "alphas": bad})
    return 0


def _cmd_verify(args) -> int:
    settings = _settings_from(args)
    battery = run_battery(args.grid, settings, jobs=args.jobs)
    if args.out is not None:
        _write(dumps_canonical(battery) + "\n", args.out)
    log = sys.stderr if args.out == "-" else sys.stdout
    for s in battery["sections"]:
        tag = "gate" if s["gating"] else "info"
        verdict = "PASS" if s["pass"] else "FAIL"
        print(f"[{tag}] criterion {s['criterion']} {s['name']}: {verdict} "
              f"- {s['summary']}", file=log)
    print(f"battery: {'PASS' if battery['pass'] else 'FAIL'} "
          f"({battery['elapsed_seconds']:.1f} s, grid={battery['grid']})",
          file=log)
    if not battery["pass"]:
        raise VerificationError(
            "the verification battery failed",
            {"grid": args.grid,
             "failing": [s["name"] for s in battery["sections"]
                         if s["gating"] and not s["pass"]]})
    return 0


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    hints = get_type_hints(Settings)
    parser = _Parser(prog="henon-morse",
                     description="Morse indices of nodal radial solutions "
                                 "of a weighted superlinear elliptic PDE "
                                 "on the unit disk")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="compute a nodal profile")
    _add_point_flags(sp)
    sp.add_argument("--out", default=None, metavar="FILE",
                    help="output JSON path, - for stdout (the default)")
    _add_settings_flags(sp, hints)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("spectrum",
                        help="negative eigenvalues of the linearization")
    _add_point_flags(sp)
    sp.add_argument("--out", default=None, metavar="FILE")
    _add_settings_flags(sp, hints)
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("morse", help="index report with lower bounds")
    _add_point_flags(sp)
    sp.add_argument("--out", default=None, metavar="FILE")
    _add_settings_flags(sp, hints)
    sp.set_defaults(func=_cmd_morse)

    sp = sub.add_parser("sweep",
                        help="alpha sweep at fixed (p, n) with CSV artifact")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--nodes", type=int, required=True)
    sp.add_argument("--alphas", required=True, metavar="SPEC",
                    help="comma list '0,0.5,1' or inclusive range "
                         "'start:stop:step'")
    sp.add_argument("--csv", required=True, metavar="FILE",
                    help="CSV artifact path, - for stdout")
    sp.add_argument("--out", default=None, metavar="FILE",
                    help="optional JSON artifact with full reports (- for stdout)")
    sp.add_argument("--jobs", type=int, default=None, metavar="N",
                    help="parallel worker processes, N >= 1, at most one "
                         "per point (output is identical for any N)")
    _add_settings_flags(sp, hints)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("verify", help="run the verification battery")
    sp.add_argument("--grid", choices=sorted(GRIDS), default="default")
    sp.add_argument("--out", default=None, metavar="FILE",
                    help="write the battery summary JSON here (- for stdout)")
    sp.add_argument("--jobs", type=int, default=None, metavar="N",
                    help="parallel worker processes, N >= 1, at most one "
                         "per task (output is identical for any N)")
    _add_settings_flags(sp, hints)
    sp.set_defaults(func=_cmd_verify)

    return parser


def _diagnostic(exc: HenonMorseError) -> str:
    doc = {"error": type(exc).__name__, "message": exc.message,
           "context": exc.context}
    try:
        return dumps_canonical(doc)
    except HenonMorseError:
        # a context value resisted canonical serialization; degrade gracefully
        doc["context"] = {k: repr(v) for k, v in exc.context.items()}
        return json.dumps(doc)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _check_artifact_dirs(args)
        return args.func(args)
    except UsageError as exc:
        print(_diagnostic(exc), file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(_diagnostic(exc), file=sys.stderr)
        return 1
    except HenonMorseError as exc:
        print(_diagnostic(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
