"""The verification battery: every headline property checked on one grid.

``run_battery`` solves the nodal problem across a parameter grid and
evaluates nine sections, each reducing to rows of integer identities or
toleranced comparisons:

1. radial_identity          m_rad == n at every grid point
2. monotonicity             alpha -> m_total nondecreasing at fixed (p, n)
3. two_route                decomposition total == oscillation-count total
4. transform_correspondence profile mapped from alpha=0 matches the direct
                            solve (sup-norm), with identical index integers,
                            and both reports' companion index equals the
                            directly solved alpha = 0 m_total; the
                            alpha = 0 rows map by kappa = 1, the identity,
                            and are identical by construction
5. eigenvalue_scaling       lambda_j = ((alpha+2)/2)^2 lambda_j(0); the law
                            holds at every alpha, and the battery checks
                            it at alpha = 2 and 4
6. form_comparison          quadratic-form inequality/identity on a test
                            function battery for alpha <= beta pairs:
                            one verify_form_comparison call per alpha
                            covers every beta >= alpha and computes each
                            Q_alpha(w) once
7. lower_bounds             named integer lower bounds for m_total, each
                            point reading the companion index its own
                            report decided (gated against the direct
                            alpha = 0 solve by criterion 4)
8. square_well              exactly solvable spectral validation case
9. large_exponent           observational probe rows for growing p, each
                            index cross-checked like the grid's; the
                            expected asymptotic gap is logged, not gated

Sections 1-8 gate the battery verdict; section 9 records observations and
gates only on the structural facts (the gap is even and >= 2).  A probe
point refused at a -k^2 tie is an undecided row: it asserts no gap and
does not fail.  Every gate is a module constant, not a setting, and so is
the tolerance of the quadratures criterion 6 judges.  The same
battery backs the command-line ``verify`` subcommand and the acceptance
test suite, so the two never drift apart.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
import math
import time

import numpy as np

from .config import DEFAULT, Settings
from .errors import UsageError
from .morse import (
    assemble_morse,
    check_lower_bounds,
    large_exponent_probe,
    solve_point,
    sweep_from_reports,
)
from .radial import evaluate_u
from .spectrum import SchrodingerProblem, fd_negative_eigenvalues, negative_spectrum
from .transform import transform_solution, verify_form_comparison

__all__ = ["GRIDS", "run_battery"]

# grid name -> (alphas, ps, ns)
GRIDS = {
    "default": ((0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0), (2.0, 3.0, 5.0), (1, 2, 3)),
    "quick": ((0.0, 1.0, 2.0), (2.0, 3.0), (1, 2)),
}

# alpha values whose quadratic forms are compared pairwise (criterion of
# section 6); restricted to what the active grid actually contains.
_FORM_ALPHAS = (0.0, 1.0, 2.0, 4.0)
_FORM_P = 3.0
_FORM_N = 2

_SCALING_ALPHAS = (2.0, 4.0)
_SUP_ERROR_TOL = 1e-6
_SCALING_RTOL = 1e-4
_PROBE_EXPECTED_GAP = 10

_SQUARE_WELL_EXACT = (-4.0, -1.0)
_SQUARE_WELL_RAW_TOL = 1e-6


def _section(name: str, criterion: int, summary: str, rows: list,
             gating: bool = True) -> dict:
    """One section of the battery document; it passes when every row does."""
    return {"name": name, "criterion": criterion, "gating": gating,
            "pass": all(row["pass"] for row in rows), "summary": summary,
            "rows": rows}


def _companion_task(args):
    (p, n), settings = args
    return ((p, n), *solve_point(0.0, p, n, settings))


def _point_task(args):
    (alpha, p, n), companion_profile, companion_report, settings = args
    if alpha == 0.0:
        profile, report = companion_profile, companion_report
    else:
        profile, report = solve_point(alpha, p, n, settings)

    transformed = transform_solution(companion_profile, alpha)
    rs = np.linspace(0.0, 1.0, 4097)
    u_direct = evaluate_u(profile, rs)
    u_mapped = evaluate_u(transformed, rs)
    sup_rel = float(np.max(np.abs(u_mapped - u_direct))
                    / np.max(np.abs(u_direct)))
    # at alpha = 0 the map is kappa = 1, the identity: the transformed
    # profile is the companion itself, so its report is the companion's
    report_t = (report if alpha == 0.0
                else assemble_morse(transformed, settings))
    identical = (
        report_t.m_rad == report.m_rad
        and report_t.k_max == report.k_max
        and report_t.mode_counts_per_k == report.mode_counts_per_k
        and report_t.negative_modes == report.negative_modes
        and report_t.m_total == report.m_total
        and report_t.companion_total == report.companion_total
        == companion_report.m_total
    )
    return (alpha, p, n), {
        "profile": profile,
        "report": report,
        "sup_rel_error": sup_rel,
        "transform_reports_identical": identical,
    }


def _run_tasks(fn, tasks, jobs):
    """``[fn(task) for task in tasks]``, in order, on up to ``jobs`` worker
    processes (None: serial).  No more workers start than there are
    tasks."""
    if jobs is not None and jobs < 1:
        raise UsageError("jobs must be at least 1", {"jobs": jobs})
    workers = min(jobs or 1, len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def run_battery(grid: str = "default", settings: Settings = DEFAULT,
                jobs: int | None = None) -> dict:
    """Run every section on the named grid and return the battery document
    ``{"grid", "pass", "elapsed_seconds", "sections"}``; it passes when
    every gating section does."""
    if grid not in GRIDS:
        raise UsageError(f"unknown grid '{grid}'",
                         {"grid": grid, "known": sorted(GRIDS)})
    alphas, ps, ns = GRIDS[grid]
    started = time.perf_counter()

    companion_results = _run_tasks(
        _companion_task, [((p, n), settings) for p in ps for n in ns], jobs)
    companions = {key: (prof, rep) for key, prof, rep in companion_results}

    point_tasks = [((a, p, n), companions[(p, n)][0], companions[(p, n)][1],
                    settings)
                   for a in alphas for p in ps for n in ns]
    points = dict(_run_tasks(_point_task, point_tasks, jobs))

    sections = [
        _section_radial_identity(points),
        _section_monotonicity(points, alphas, ps, ns),
        _section_two_route(points),
        _section_transform(points),
        _section_scaling(points, alphas, ps, ns),
        _section_forms(points, alphas),
        _section_lower_bounds(points),
        _section_square_well(settings),
        _section_probe(settings),
    ]
    return {"grid": grid,
            "pass": all(s["pass"] for s in sections if s["gating"]),
            "elapsed_seconds": time.perf_counter() - started,
            "sections": sections}


def _section_radial_identity(points) -> dict:
    rows = []
    for (alpha, p, n), data in sorted(points.items()):
        m_rad = data["report"].m_rad
        rows.append({"alpha": alpha, "p": p, "n": n, "m_rad": m_rad,
                     "pass": m_rad == n})
    return _section(
        "radial_identity", 1,
        f"m_rad == n at {sum(r['pass'] for r in rows)}/{len(rows)} grid points",
        rows)


def _section_monotonicity(points, alphas, ps, ns) -> dict:
    rows = []
    for p in ps:
        for n in ns:
            reports = [points[(a, p, n)]["report"] for a in alphas]
            rows.append({"p": p, "n": n, "alphas": list(alphas),
                         "m_totals": [r.m_total for r in reports],
                         "pass": sweep_from_reports(reports)["monotone"]})
    return _section(
        "monotonicity", 2,
        f"alpha -> m_total nondecreasing for {sum(r['pass'] for r in rows)}/{len(rows)} (p, n) pairs",
        rows)


def _section_two_route(points) -> dict:
    rows = []
    for (alpha, p, n), data in sorted(points.items()):
        rep = data["report"]
        ok = rep.route_b_total == rep.m_total
        rows.append({"alpha": alpha, "p": p, "n": n, "m_total": rep.m_total,
                     "route_b_total": rep.route_b_total, "pass": ok})
    # "FEM" names the finite-element cross-route this check once ran; the
    # summary is part of the battery document and is kept unchanged.
    return _section(
        "two_route", 3,
        f"decomposition == FEM total at {sum(r['pass'] for r in rows)}/{len(rows)} grid points",
        rows)


def _section_transform(points) -> dict:
    rows = []
    for (alpha, p, n), data in sorted(points.items()):
        ok = (data["sup_rel_error"] <= _SUP_ERROR_TOL
              and data["transform_reports_identical"])
        rows.append({"alpha": alpha, "p": p, "n": n,
                     "sup_rel_error": data["sup_rel_error"],
                     "reports_identical": data["transform_reports_identical"],
                     "pass": ok})
    # the summary names the tolerance; the errors, of size rtol, are in the
    # rows, where their digits cannot flip a string
    return _section(
        "transform_correspondence", 4,
        (f"mapped-vs-direct profiles agree at "
         f"{sum(r['pass'] for r in rows)}/{len(rows)} points "
         f"(sup-norm rel err <= {_SUP_ERROR_TOL:.0e})"),
        rows)


def _section_scaling(points, alphas, ps, ns) -> dict:
    rows = []
    for alpha in _SCALING_ALPHAS:
        if alpha not in alphas:
            continue
        factor = ((alpha + 2.0) / 2.0) ** 2
        for p in ps:
            for n in ns:
                lam = points[(alpha, p, n)]["report"].lambdas
                lam0 = points[(0.0, p, n)]["report"].lambdas
                if lam.size != lam0.size:
                    rows.append({"alpha": alpha, "p": p, "n": n,
                                 "max_rel_error": None, "pass": False})
                    continue
                rel = float(np.max(np.abs(lam - factor * lam0)
                                   / np.abs(factor * lam0)))
                rows.append({"alpha": alpha, "p": p, "n": n, "factor": factor,
                             "max_rel_error": rel,
                             "pass": rel <= _SCALING_RTOL})
    worst = max((r["max_rel_error"] for r in rows
                 if r["max_rel_error"] is not None), default=0.0)
    return _section(
        "eigenvalue_scaling", 5,
        (f"lambda scaling holds at {sum(r['pass'] for r in rows)}/"
         f"{len(rows)} even-alpha points (worst rel err {worst:.2e})"),
        rows)


def _section_forms(points, alphas) -> dict:
    form_alphas = [a for a in _FORM_ALPHAS if a in alphas]
    rows = []
    for a in form_alphas:
        rows.extend(verify_form_comparison(
            points[(a, _FORM_P, _FORM_N)]["profile"],
            [b for b in form_alphas if b >= a]))
    return _section(
        "form_comparison", 6,
        (f"quadratic-form comparison holds for "
         f"{sum(r['pass'] for r in rows)}/{len(rows)} "
         f"(pair, test function) combinations at p={_FORM_P:g}, n={_FORM_N}"),
        rows)


def _section_lower_bounds(points) -> dict:
    rows = []
    for (alpha, p, n), data in sorted(points.items()):
        for c in check_lower_bounds(data["report"]):
            rows.append({"alpha": alpha, "p": p, "n": n, "name": c["name"],
                         "actual": c["actual"], "required": c["required"],
                         "pass": c["pass"]})
    return _section(
        "lower_bounds", 7,
        f"{sum(r['pass'] for r in rows)}/{len(rows)} bound instances hold",
        rows)


def _section_square_well(settings) -> dict:
    well = SchrodingerProblem.from_potential(
        math.pi, 512, lambda t: np.full_like(np.asarray(t, float), -5.0))
    exact = np.array(_SQUARE_WELL_EXACT)
    rows = []

    spec = negative_spectrum(well, settings)
    count_ok = spec.lambdas.size == 2
    rows.append({"check": "negative_eigenvalue_count",
                 "actual": int(spec.lambdas.size), "expected": 2,
                 "pass": count_ok})
    if count_ok:
        err = np.abs(spec.lambdas - exact)
        tol = settings.eig_tol * (1.0 + np.abs(exact))
        rows.append({"check": "extrapolated_values",
                     "errors": [float(e) for e in err],
                     "pass": bool(np.all(err <= tol))})

    errors = [np.abs(fd_negative_eigenvalues(well, M) - exact)
              for M in (512, 1024, 2048)]
    ratios = [prev / cur for prev, cur in zip(errors, errors[1:])]
    order_ok = all(np.all(r > 3.6) and np.all(r < 4.4) for r in ratios)
    rows.append({"check": "second_order_convergence",
                 "ratios": [[float(x) for x in r] for r in ratios],
                 "pass": order_ok})

    raw = fd_negative_eigenvalues(well, 8192)
    # a wrong count leaves no error to report: null, and the check fails
    raw_err = ([float(e) for e in np.abs(raw - exact)] if raw.size == 2
               else None)
    rows.append({"check": "raw_accuracy_M8192",
                 "errors": raw_err,
                 "tolerance": _SQUARE_WELL_RAW_TOL,
                 "pass": raw_err is not None
                 and all(e <= _SQUARE_WELL_RAW_TOL for e in raw_err)})

    return _section(
        "square_well", 8,
        f"{sum(r['pass'] for r in rows)}/{len(rows)} square-well checks hold",
        rows)


def _section_probe(settings) -> dict:
    rows = []
    for row in large_exponent_probe(settings):
        rep = row["report"]
        decided = rep is not None  # a -k^2 tie leaves no gap to assert
        gap = rep.m_total - rep.m_rad if decided else None
        rows.append({
            "p": row["p"],
            "decided": decided,
            "m_rad": rep.m_rad if decided else None,
            "m_total": rep.m_total if decided else None,
            "gap": gap,
            "gap_even": gap % 2 == 0 if decided else None,
            "gap_at_least_2": gap >= 2 if decided else None,
            "expected_large_p_gap": _PROBE_EXPECTED_GAP,
            "matches_expected": gap == _PROBE_EXPECTED_GAP,
        })
        if not decided:
            tie = row["refusal"].context
            rows[-1].update(scaled_tie_distance=tie["scaled_tie_distance"],
                            eig_tol=tie["eig_tol"])
        rows[-1]["pass"] = not decided or (gap % 2 == 0 and gap >= 2)
    observed = ", ".join(
        f"p={r['p']:g}: " + (f"gap={r['gap']}" if r["decided"] else "undecided")
        for r in rows)
    return _section(
        "large_exponent", 9,
        (f"observational gaps [{observed}] vs expected large-p gap "
         f"{_PROBE_EXPECTED_GAP} (logged, non-gating)"),
        rows, gating=False)
