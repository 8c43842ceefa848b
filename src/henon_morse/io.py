"""Serialization: canonical JSON and CSV for every result object.

All numbers are written with 17 significant digits, which round-trips IEEE
doubles exactly, so dump -> load reproduces every field bit for bit.  The
emitter is deliberately hand-rolled and deterministic (fixed key order as
given by the documents, fixed separators, trailing newline): two runs with
identical inputs produce byte-identical files, regardless of how much
parallelism produced the underlying numbers.

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
sweep JSON (``morse.SweepResult.to_dict``) and the verification battery
(``verify.BatterySummary.to_dict``).  ``load_profile`` and ``load_morse``
return the checked documents as dicts.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math

import numpy as np

from .errors import SchemaError
from .morse import BoundCheck, MorseReport
from .radial import RadialProfile, evaluate_profile, output_grid
from .spectrum import RadialSpectrum

__all__ = [
    "dumps_canonical",
    "load_json",
    "profile_document",
    "load_profile",
    "spectrum_document",
    "load_spectrum",
    "morse_document",
    "load_morse",
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


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fp:
        return json.load(fp)


def _require(doc: dict, field: str, kinds, where: str):
    if field not in doc:
        raise SchemaError(f"missing field '{field}' in {where} document",
                          {"field": field})
    value = doc[field]
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise SchemaError(
            f"field '{field}' in {where} document has the wrong type",
            {"field": field, "type": type(value).__name__},
        )
    return value


def _float_array(doc: dict, field: str, where: str) -> np.ndarray:
    raw = _require(doc, field, list, where)
    for item in raw:
        if not isinstance(item, (int, float)) or isinstance(item, bool):
            raise SchemaError(
                f"field '{field}' in {where} document must hold numbers",
                {"field": field},
            )
    return np.asarray(raw, dtype=float)


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


def load_profile(path) -> dict:
    """The profile document at ``path``, checked field by field."""
    doc = load_json(path)
    where = "profile"
    for field, kinds in (("alpha", (int, float)), ("p", (int, float)),
                         ("n", int), ("d", (int, float))):
        _require(doc, field, kinds, where)
    grid, u, du, nodal = (_float_array(doc, field, where)
                          for field in ("grid", "u", "du", "nodal_radii"))
    _require(doc, "tolerances", dict, where)
    if not (grid.size == u.size == du.size):
        raise SchemaError("grid, u, du must have equal lengths",
                          {"field": "grid",
                           "lengths": [int(grid.size), int(u.size), int(du.size)]})
    if nodal.size != doc["n"]:
        raise SchemaError("nodal_radii length must equal n",
                          {"field": "nodal_radii",
                           "length": int(nodal.size), "n": int(doc["n"])})
    return doc


# ---------------------------------------------------------------------------
# spectrum


def spectrum_document(spectrum: RadialSpectrum) -> dict:
    return {
        "lambdas": spectrum.lambdas,
        "T": spectrum.T,
        "M": spectrum.M,
        "eig_tol": spectrum.eig_tol,
    }


def load_spectrum(path) -> RadialSpectrum:
    doc = load_json(path)
    where = "spectrum"
    lambdas = _float_array(doc, "lambdas", where)
    T = float(_require(doc, "T", (int, float), where))
    M = _require(doc, "M", int, where)
    eig_tol = float(_require(doc, "eig_tol", (int, float), where))
    return RadialSpectrum(lambdas=lambdas, T=T, M=M, eig_tol=eig_tol)


# ---------------------------------------------------------------------------
# morse


def morse_document(report: MorseReport, bounds) -> dict:
    doc = report.to_dict()
    doc["bounds"] = [
        {"name": b.name, "required": b.required, "actual": b.value,
         "pass": b.satisfied}
        for b in bounds
    ]
    return doc


def load_morse(path) -> dict:
    doc = load_json(path)
    where = "morse"
    for field, kinds in (("alpha", (int, float)), ("p", (int, float)),
                         ("n", int), ("m_rad", int), ("m_total", int)):
        _require(doc, field, kinds, where)
    _float_array(doc, "lambdas", where)
    modes = _require(doc, "angular_counts", list, where)
    for entry in modes:
        if not isinstance(entry, list):
            raise SchemaError("angular_counts must be a list of lists of k",
                              {"field": "angular_counts"})
    expected = doc["m_rad"] + 2 * sum(len(entry) for entry in modes)
    if doc["m_total"] != expected:
        raise SchemaError(
            "m_total does not equal m_rad + 2 * (number of angular modes)",
            {"field": "m_total", "stored": doc["m_total"],
             "recomputed": expected})
    bounds = _require(doc, "bounds", list, where)
    for row in bounds:
        if not isinstance(row, dict) or not {"name", "required", "actual",
                                             "pass"} <= set(row):
            raise SchemaError("bounds rows need name/required/actual/pass",
                              {"field": "bounds"})
    return doc


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
