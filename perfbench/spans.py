"""In-memory spans around the public functions of henon_morse.

A :class:`Tracer` replaces each traced function by a wrapper in every
``henon_morse`` module that binds it, so calls made through any import path
(``cli`` calling ``assemble_morse``, ``spectrum`` calling its own
``tridiagonal_negative_inertia``) are recorded.  A span is the tuple

    (span_id, name, start, end, parent_id, op_id, detail)

kept in a list until :meth:`Tracer.write_jsonl`.  ``detail`` is a number
measured at the boundary -- matrix rows, bytes of JSON text, the alpha of a
profile solve -- or ``None``.

Self time of a span is its duration minus the durations of its direct
children.  The program runs in one thread here, so children never overlap
and that difference is the time covered by no child.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _fd_rows(args, kwargs, result):
    m = args[1] if len(args) > 1 else kwargs.get("M")
    return (args[0].M if m is None else int(m)) - 1


def _diag_rows(args, kwargs, result):
    return len(args[0])


def _text_bytes(args, kwargs, result):
    return len(result.encode("utf-8"))


def _solve_alpha(args, kwargs, result):
    return result.params.alpha


# (module, function, detail measured at the boundary or None): the public
# entry points of every layer in the README's metric map.
TARGETS = (
    ("radial", "solve_nodal", _solve_alpha),
    ("radial", "integrate_ivp", None),
    ("radial", "validate_profile", None),
    ("spectrum", "build_schrodinger", None),
    ("spectrum", "negative_spectrum", None),
    ("spectrum", "fd_negative_eigenvalues", _fd_rows),
    ("spectrum", "tridiagonal_negative_inertia", _diag_rows),
    ("spectrum", "radial_morse_index", None),
    ("spectrum", "mode_negative_count", None),
    ("morse", "assemble_morse", None),
    ("morse", "large_exponent_probe", None),
    ("transform", "transform_solution", None),
    ("transform", "verify_form_comparison", None),
    ("transform", "quadratic_form", None),
    ("verify", "run_battery", None),
    ("io", "dumps_canonical", _text_bytes),
)

ROOT_SPAN = "cli.main"

# Per-layer metric names and units, in report order.  BENCHMARK.json lists
# the same names under "per_layer".
LAYER_METRICS = (
    ("spectrum.negative_spectrum.calls", "count"),
    ("spectrum.negative_spectrum.self_s", "s"),
    ("spectrum.negative_spectrum.levels", "count"),
    ("spectrum.fd_negative_eigenvalues.calls", "count"),
    ("spectrum.fd_negative_eigenvalues.self_s", "s"),
    ("spectrum.fd_negative_eigenvalues.rows", "count"),
    ("spectrum.tridiagonal_negative_inertia.calls", "count"),
    ("spectrum.tridiagonal_negative_inertia.self_s", "s"),
    ("spectrum.tridiagonal_negative_inertia.rows", "count"),
    ("spectrum.build_schrodinger.calls", "count"),
    ("spectrum.build_schrodinger.self_s", "s"),
    ("spectrum.mode_negative_count.calls", "count"),
    ("spectrum.mode_negative_count.self_s", "s"),
    ("spectrum.radial_morse_index.calls", "count"),
    ("spectrum.radial_morse_index.self_s", "s"),
    ("radial.solve_nodal.calls", "count"),
    ("radial.solve_nodal.self_s", "s"),
    ("radial.integrate_ivp.self_s", "s"),
    ("radial.validate_profile.self_s", "s"),
    ("cli.main.companion_solves", "count"),
    ("cli.main.self_s", "s"),
    ("morse.assemble_morse.calls", "count"),
    ("morse.assemble_morse.self_s", "s"),
    ("morse.assemble_morse.spectra_per_call", "ratio"),
    ("morse.large_exponent_probe.self_s", "s"),
    ("transform.transform_solution.calls", "count"),
    ("transform.transform_solution.self_s", "s"),
    ("transform.verify_form_comparison.self_s", "s"),
    ("transform.quadratic_form.calls", "count"),
    ("transform.quadratic_form.self_s", "s"),
    ("verify.run_battery.self_s", "s"),
    ("io.dumps_canonical.calls", "count"),
    ("io.dumps_canonical.self_s", "s"),
    ("io.dumps_canonical.bytes", "bytes"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
)


class Tracer:
    """Records spans while installed; :meth:`remove` restores the program."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self._stack = []
        self._op = None
        self._patched = []

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None
                   and (name == "henon_morse" or name.startswith("henon_morse."))]
        for mod_name, func_name, detail_of in self.targets:
            original = getattr(sys.modules[f"henon_morse.{mod_name}"], func_name)
            wrapper = self._wrap(f"{mod_name}.{func_name}", original, detail_of)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, func, detail_of):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                spans[span_id] = (span_id, name, start, time.perf_counter(),
                                  parent, self._op, None)
                stack.pop()
                raise
            end = time.perf_counter()
            stack.pop()
            detail = None if detail_of is None else detail_of(args, kwargs, result)
            spans[span_id] = (span_id, name, start, end, parent, self._op, detail)
            return result
        return wrapper

    def operation(self, op_id, func, *args):
        """Run ``func(*args)`` as the root span ``cli.main`` of one operation."""
        self._op = op_id
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return func(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, ROOT_SPAN, start, end, None,
                                   op_id, None)
            self._op = None

    def write_jsonl(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "op", "detail")
        with open(path, "w", encoding="utf-8") as fp:
            for span in self.spans:
                fp.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(spans, own_alpha_zero, overhead_pct: float) -> dict:
    """Per-layer metrics ``{name: (value, unit)}`` in LAYER_METRICS order.

    ``own_alpha_zero`` is the set of operation ids whose own points include
    alpha = 0; an alpha = 0 ``solve_nodal`` inside any other operation is a
    companion re-solve.  ``overhead_pct`` is passed through as
    ``trace.overhead_pct``.
    """
    calls, self_s, detail, children = {}, {}, {}, {}
    companions = 0
    for span_id, name, start, end, parent, op, value in spans:
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur
        if parent is not None:
            pname = spans[parent][1]
            self_s[pname] -= dur
            children[(pname, name)] = children.get((pname, name), 0) + 1
        if name == "radial.solve_nodal":
            if value == 0.0 and op is not None and op not in own_alpha_zero:
                companions += 1
        elif value is not None:
            detail[name] = detail.get(name, 0) + value

    values = {
        "spectrum.negative_spectrum.levels": children.get(
            ("spectrum.negative_spectrum", "spectrum.fd_negative_eigenvalues"), 0),
        "cli.main.companion_solves": companions,
        "morse.assemble_morse.spectra_per_call": (
            children.get(("morse.assemble_morse", "spectrum.negative_spectrum"), 0)
            / calls["morse.assemble_morse"]
            if calls.get("morse.assemble_morse") else 0.0),
        "trace.spans": len(spans),
        "trace.overhead_pct": overhead_pct,
    }
    out = {}
    for metric, unit in LAYER_METRICS:
        if metric not in values:
            name, quantity = metric.rsplit(".", 1)
            if quantity == "calls":
                values[metric] = calls.get(name, 0)
            elif quantity == "self_s":
                values[metric] = self_s.get(name, 0.0)
            else:
                values[metric] = detail.get(name, 0)
        out[metric] = (values[metric], unit)
    return out
