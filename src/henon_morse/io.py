"""Serialization: canonical JSON and CSV for every result object.

All numbers are written with 17 significant digits, which round-trips IEEE
doubles exactly, so ``json.loads`` of the text recovers every double bit for
bit.  The emitter is deliberately hand-rolled and deterministic (fixed key
order as given by the documents, fixed separators, trailing newline): two
runs with identical inputs produce byte-identical files, regardless of how
much parallelism produced the underlying numbers.

Document shapes:

* profile:    {"alpha", "p", "n", "d", "grid", "u", "du", "nodal_radii",
               "tolerances"}
* spectrum:   {"lambdas", "T", "M", "eig_tol"}
* morse:      {"alpha", "p", "n", "d", "m_rad", "lambdas",
               "angular_counts": [[k, ...], ...], "m_total",
               "route_b_total", "bounds": [{"name", "required", "actual",
               "pass"}], "details": {...}}
* sweep CSV:  alpha, p, n, m_rad, m_total, lambda_1..lambda_J, bounds_pass

Two documents are built outside this module and only emitted here: the
sweep JSON (``morse.sweep_from_reports``) and the verification battery
(``verify.run_battery``).
"""

from __future__ import annotations

import csv
import io as _io
import json
import math

import numpy as np

from .errors import SchemaError
from .morse import MorseReport
from .radial import RadialProfile, evaluate_profile, output_grid
from .spectrum import RadialSpectrum

__all__ = [
    "dumps_canonical",
    "profile_document",
    "spectrum_document",
    "morse_document",
    "sweep_csv_text",
]


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise SchemaError("non-finite number cannot be serialized",
                          {"value": repr(x)})
    text = format(x, ".17g")
    # keep float tokens unmistakably floats ("1.0", "-0.0"): an integer-looking
    # token would parse back as int, and "-0" would lose the sign of zero
    if not any(c in text for c in ".eE"):
        text += ".0"
    return text


def dumps_canonical(obj) -> str:
    """Canonical JSON text: 17-significant-digit floats, stable separators,
    insertion-ordered keys."""
    out = _io.StringIO()
    _emit(obj, out)
    return out.getvalue()


def _emit(obj, out) -> None:
    if obj is None:
        out.write("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.write("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.write(_format_float(float(obj)))
    elif isinstance(obj, str):
        out.write(json.dumps(obj))
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.write("[")
        for i, item in enumerate(obj):
            if i:
                out.write(", ")
            _emit(item, out)
        out.write("]")
    elif isinstance(obj, dict):
        out.write("{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise SchemaError("JSON object keys must be strings",
                                  {"key": repr(key)})
            if i:
                out.write(", ")
            out.write(json.dumps(key))
            out.write(": ")
            _emit(value, out)
        out.write("}")
    else:
        raise SchemaError("value is not JSON-serializable",
                          {"type": type(obj).__name__})


# ---------------------------------------------------------------------------
# profile


def profile_document(profile: RadialProfile) -> dict:
    """The profile sampled on its output grid (``radial.output_grid``)."""
    grid = output_grid(profile)
    u, du = evaluate_profile(profile, grid)
    return {
        "alpha": profile.params.alpha,
        "p": profile.params.p,
        "n": profile.params.n_nodal,
        "d": profile.amp,
        "grid": grid,
        "u": u,
        "du": du,
        "nodal_radii": profile.nodal_radii,
        "tolerances": dict(profile.tolerances),
    }


# ---------------------------------------------------------------------------
# spectrum


def spectrum_document(spectrum: RadialSpectrum) -> dict:
    return {
        "lambdas": spectrum.lambdas,
        "T": spectrum.T,
        "M": spectrum.M,
        "eig_tol": spectrum.eig_tol,
    }


# ---------------------------------------------------------------------------
# morse


def morse_document(report: MorseReport, bounds: list) -> dict:
    """The report's document with the ``check_lower_bounds`` rows last."""
    return {**report.to_dict(), "bounds": bounds}


# ---------------------------------------------------------------------------
# sweep CSV


def sweep_csv_text(rows) -> str:
    """CSV for sweep results.  ``rows`` are dicts with keys alpha, p, n,
    m_rad, m_total, lambdas (length J, constant over the sweep), and
    bounds_pass.  Floats keep 17 significant digits."""
    rows = list(rows)
    if not rows:
        raise SchemaError("a sweep CSV needs at least one row", {})
    n_lambda = len(rows[0]["lambdas"])
    for row in rows:
        if len(row["lambdas"]) != n_lambda:
            raise SchemaError(
                "all sweep rows must have the same number of eigenvalues",
                {"field": "lambdas"})
    header = (["alpha", "p", "n", "m_rad", "m_total"]
              + [f"lambda_{j}" for j in range(1, n_lambda + 1)]
              + ["bounds_pass"])
    out = _io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [_format_float(float(row["alpha"])), _format_float(float(row["p"])),
             str(int(row["n"])), str(int(row["m_rad"])), str(int(row["m_total"]))]
            + [_format_float(float(x)) for x in row["lambdas"]]
            + ["true" if row["bounds_pass"] else "false"])
    return out.getvalue()
