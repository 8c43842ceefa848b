"""Morse index assembly and the structural checks built on it.

For a nodal radial solution u on the disk, separation of variables splits
the linearized operator over angular modes: mode k >= 1 contributes twice
(cos and sin), mode k = 0 once.  Writing lambda_1 < ... < lambda_J for the
negative eigenvalues of the singular radial problem (computed in the log
variable by ``spectrum.negative_spectrum``), the Morse index is

    m(u)  =  m_rad + 2 * sum_k #{j : lambda_j + k^2 < 0},   k = 1, 2, ...

with m_rad = J the index of the k = 0 (radial) block.  ``assemble_morse``
evaluates this decomposition and cross-checks every integer against an
independent route: Sturm oscillation counts #{j : lambda_j < -k^2} for
k = 0..k_max (``spectrum.oscillation_counts``), an adaptive ODE solve that
shares no mesh or matrix with the eigenvalue solver.  Disagreement raises
``TwoRouteError`` rather than returning a number.

``solve_point`` is the one point task of the command line, the battery and
the probe: solve the nodal profile at (alpha, p, n), then assemble its
index.

On top of the assembled indices this module checks the structural facts an
index computation can verify:

* ``check_lower_bounds``: named integer inequalities relating m(u), the
  nodal count n, the weight exponent alpha, and the index of the
  unweighted (alpha = 0) solution with the same p and n;
* ``sweep_from_reports``: whether m(u) is nondecreasing along increasing
  alpha at fixed p and n;
* ``large_exponent_probe``: single-route decomposition for growing
  exponents p, reported as observations, never as certified cross-checked
  indices; a p refused at a -k^2 tie is recorded as undecided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import DEFAULT, Settings
from .errors import NonConvergenceError, ThresholdTieError, TwoRouteError, UsageError
from .radial import HenonParams, RadialProfile, solve_nodal
from .spectrum import build_schrodinger, negative_spectrum, oscillation_counts

__all__ = [
    "MorseReport",
    "BoundCheck",
    "SweepResult",
    "assemble_morse",
    "solve_point",
    "check_lower_bounds",
    "sweep_from_reports",
    "large_exponent_probe",
]


@dataclass(frozen=True)
class MorseReport:
    """Assembled Morse index of one nodal solution.

    ``negative_modes[j-1]`` is the tuple of angular modes k >= 1 with
    lambda_j + k^2 < 0; ``mode_counts_per_k[k-1]`` is #{j : lambda_j + k^2
    < 0} for k = 1..k_max.  The two tabulations are transposes of each
    other, so their sums agree, and

        m_total = m_rad + 2 * sum(mode_counts_per_k).

    ``route_b_total`` is the same total assembled purely from the
    oscillation counts; ``cross_checked`` records whether that independent
    route was computed and found to agree (the large-exponent probe skips
    it, leaving route_b_total = None).
    """

    params: HenonParams
    d: float
    lambdas: np.ndarray
    m_rad: int
    k_max: int
    mode_counts_per_k: tuple
    negative_modes: tuple
    m_total: int
    route_b_total: int | None
    cross_checked: bool
    tolerances: dict

    def to_dict(self) -> dict:
        return {
            "alpha": self.params.alpha,
            "p": self.params.p,
            "n": self.params.n_nodal,
            "d": self.d,
            "m_rad": self.m_rad,
            "lambdas": [float(x) for x in self.lambdas],
            "angular_counts": [list(modes) for modes in self.negative_modes],
            "m_total": self.m_total,
            "route_b_total": self.route_b_total,
            "details": {
                "k_max": self.k_max,
                "mode_counts_per_k": list(self.mode_counts_per_k),
                "cross_checked": self.cross_checked,
                "tolerances": dict(self.tolerances),
            },
        }


@dataclass(frozen=True)
class BoundCheck:
    """One named integer inequality m-side >= bound-side, with its margin."""

    name: str
    value: int
    required: int
    satisfied: bool
    margin: int


def _tie_distance(lambdas: np.ndarray, k_max: int) -> float:
    """Smallest |lambda_j + k^2| / (1 + k^2) over the decision table: how
    close the decomposition comes to an undecidable sign, measured in the
    units the eigenvalue accuracy eig_tol * (1 + |lambda_j|) ~
    eig_tol * (1 + k^2) is quoted in (near a tie the two scales agree)."""
    ks = np.arange(1, k_max + 1, dtype=float)
    scaled = np.abs(lambdas[:, None] + ks[None, :] ** 2) / (1.0 + ks[None, :] ** 2)
    return float(np.min(scaled))


def assemble_morse(profile: RadialProfile, settings: Settings = DEFAULT,
                   cross_check: bool = True) -> MorseReport:
    """Morse index of a nodal profile, with two-route certification.

    Route A (always): negative eigenvalues in the log variable, then the
    integer decomposition over angular modes.  The cross-check (default):
    one oscillation solve counts the eigenvalues below -k^2 for every
    k = 0..k_max, k = 0 giving the radial index.  Any mismatch raises
    TwoRouteError; a |lambda_j + k^2| too small to call at the working
    tolerance triggers one more pass at 10x tighter tolerance before giving
    up with ThresholdTieError.  That pass recomputes only when the first
    ladder's accepted discrepancy did not already meet the tighter
    tolerance.
    """
    # A sign decision lambda_j + k^2 <> 0 within 10x the eigenvalue accuracy
    # gets one more pass, tightened by one decade (more would chase the
    # eigensolver's own roundoff floor); the second pass must clear its guard.
    # The ladder is deterministic and eig_tol only decides where it stops, so
    # a first spectrum whose accepted discrepancy already meets the tighter
    # tolerance is what the second pass would compute: it is reused.
    spectrum = None
    for attempt in (settings, replace(settings, eig_tol=settings.eig_tol / 10.0)):
        if (spectrum is not None and spectrum.discrepancy is not None
                and spectrum.discrepancy <= attempt.eig_tol):
            spectrum = replace(spectrum, eig_tol=attempt.eig_tol)
        else:
            problem = build_schrodinger(profile, attempt)
            spectrum = negative_spectrum(problem, attempt)
        lambdas = spectrum.lambdas
        if lambdas.size == 0:
            context = {"alpha": profile.params.alpha, "p": profile.params.p,
                       "n_nodal": profile.params.n_nodal,
                       "spectrum_T": spectrum.T, "spectrum_M": spectrum.M,
                       "min_V": float(problem.V.min())}
            if cross_check:
                context["oscillation_radial_count"] = oscillation_counts(
                    profile, problem, 0, settings)[0]
            raise NonConvergenceError(
                "no negative radial eigenvalues found for a nodal solution",
                context)
        k_max = math.ceil(math.sqrt(-float(lambdas[0])))
        tie_distance = _tie_distance(lambdas, k_max)
        if tie_distance >= 10.0 * attempt.eig_tol:
            break
    else:
        raise ThresholdTieError(
            "an eigenvalue sits numerically on a -k^2 threshold; the "
            "angular decomposition cannot be decided at this tolerance",
            {"lambdas": [float(x) for x in lambdas],
             "scaled_tie_distance": tie_distance,
             "eig_tol": attempt.eig_tol},
        )

    # negative[j, k-1]: lambda_j + k^2 < 0; both tabulations read this table
    ks = range(1, k_max + 1)
    negative = lambdas[:, None] + np.array(ks, dtype=float) ** 2 < 0.0
    counts_per_k = tuple(int(c) for c in negative.sum(axis=0))
    negative_modes = tuple(
        tuple(k for k, neg in zip(ks, row) if neg) for row in negative)
    m_rad = int(lambdas.size)

    route_b_total = None
    if cross_check:
        osc_rad, *osc_counts = oscillation_counts(profile, problem, k_max,
                                                  settings)
        if osc_rad != m_rad:
            raise TwoRouteError(
                "radial index mismatch between the log-variable eigenvalue "
                "count and the Sturm oscillation count",
                {"log_route": m_rad, "oscillation_route": osc_rad,
                 "lambdas": [float(x) for x in lambdas],
                 "alpha": profile.params.alpha, "p": profile.params.p,
                 "n_nodal": profile.params.n_nodal},
            )
        if tuple(osc_counts) != counts_per_k:
            raise TwoRouteError(
                "angular mode counts mismatch between the eigenvalue "
                "decomposition and the Sturm oscillation counts",
                {"decomposition": list(counts_per_k),
                 "oscillation_route": list(osc_counts),
                 "lambdas": [float(x) for x in lambdas],
                 "alpha": profile.params.alpha, "p": profile.params.p,
                 "n_nodal": profile.params.n_nodal},
            )
        route_b_total = osc_rad + 2 * sum(osc_counts)

    if counts_per_k and counts_per_k[-1] != 0:
        raise NonConvergenceError(
            "angular counts did not reach zero at k_max; k_max is wrong",
            {"k_max": k_max, "mode_counts_per_k": list(counts_per_k)},
        )

    m_total = m_rad + 2 * sum(counts_per_k)
    tolerances = dict(profile.tolerances)
    tolerances.update({
        "eig_tol": attempt.eig_tol,
        "spectrum_T": spectrum.T,
        "spectrum_M": spectrum.M,
        "scaled_tie_distance": tie_distance,
    })
    return MorseReport(
        params=profile.params,
        d=profile.d,
        lambdas=lambdas,
        m_rad=m_rad,
        k_max=k_max,
        mode_counts_per_k=counts_per_k,
        negative_modes=negative_modes,
        m_total=m_total,
        route_b_total=route_b_total,
        cross_checked=bool(cross_check),
        tolerances=tolerances,
    )


def solve_point(alpha: float, p: float, n: int, settings: Settings = DEFAULT,
                cross_check: bool = True) -> tuple:
    """The nodal profile at (alpha, p, n) and its assembled
    :class:`MorseReport`, as ``(profile, report)``."""
    profile = solve_nodal(HenonParams(alpha=alpha, p=p, n_nodal=n), settings)
    return profile, assemble_morse(profile, settings, cross_check)


def _is_even_integer(alpha: float) -> bool:
    return abs(alpha - 2.0 * round(alpha / 2.0)) < 1e-12


def check_lower_bounds(report: MorseReport,
                       companion: MorseReport | None = None) -> list:
    """Evaluate the named lower bounds for one assembled index.

    ``companion`` must be the report for the unweighted problem (alpha = 0)
    with the same p and n; when ``report`` itself has alpha = 0 it serves
    as its own companion.  Bounds that need a companion are skipped if none
    is supplied.  Returns a list of BoundCheck rows; nothing raises here,
    the caller decides what a violated bound means.
    """
    p = report.params.p
    n = report.params.n_nodal
    alpha = report.params.alpha
    m = report.m_total

    if alpha == 0.0 and companion is None:
        companion = report
    if companion is not None:
        cp = companion.params
        if cp.alpha != 0.0 or cp.p != p or cp.n_nodal != n:
            raise UsageError(
                "companion report must have alpha = 0 and matching p, n",
                {"companion_alpha": cp.alpha, "companion_p": cp.p,
                 "companion_n": cp.n_nodal, "p": p, "n_nodal": n},
            )

    half_alpha = math.floor(alpha / 2.0)
    checks = []

    def add(name: str, value: int, required: int) -> None:
        checks.append(BoundCheck(name=name, value=int(value),
                                 required=int(required),
                                 satisfied=bool(value >= required),
                                 margin=int(value - required)))

    add("radial_count", report.m_rad, n)
    add("nodal_gap", m, n + (n - 1) * (2 * half_alpha + 2))
    if companion is not None:
        add("autonomous_companion", companion.m_total, 3 * n - 2)
        gap0 = companion.m_total - companion.m_rad
        add("autonomous_gap", m, n + gap0 * (half_alpha + 1))
    if n >= 2:
        add("sign_changing_minimum", m, 3)
        add("sign_changing_superlinear", m, n + 2)
        if _is_even_integer(alpha):
            add("even_weight_minimum", m, int(alpha) + 3)
            add("even_weight_superlinear", m, n + int(alpha) + 2)
    return checks


@dataclass(frozen=True)
class SweepResult:
    """Reports along an alpha sweep at fixed p and n, plus the pairwise
    monotonicity verdicts for consecutive alphas."""

    reports: tuple
    transitions: tuple  # rows: (alpha_lo, alpha_hi, m_lo, m_hi, nondecreasing)

    @property
    def monotone(self) -> bool:
        return all(row[4] for row in self.transitions)

    def to_dict(self) -> dict:
        return {
            "reports": [r.to_dict() for r in self.reports],
            "transitions": [
                {"alpha_lo": a, "alpha_hi": b, "m_lo": ma, "m_hi": mb,
                 "nondecreasing": ok}
                for (a, b, ma, mb, ok) in self.transitions
            ],
            "monotone": self.monotone,
        }


def sweep_from_reports(reports) -> SweepResult:
    """Build a :class:`SweepResult` from reports already computed along
    increasing alpha."""
    reports = tuple(reports)
    if len(reports) < 2:
        raise UsageError("a sweep needs at least two alpha values",
                         {"count": len(reports)})
    transitions = tuple(
        (reports[i].params.alpha, reports[i + 1].params.alpha,
         reports[i].m_total, reports[i + 1].m_total,
         reports[i + 1].m_total >= reports[i].m_total)
        for i in range(len(reports) - 1)
    )
    return SweepResult(reports=reports, transitions=transitions)


def large_exponent_probe(p_values, alpha: float = 0.0, n: int = 2,
                         settings: Settings = DEFAULT) -> list:
    """Decomposition-route-only indices for a sequence of growing exponents.

    A row ``{"p", "report"}`` is an observation of the single log-variable
    route (cross_checked=False, route_b_total=None in the report).  A p
    refused with ThresholdTieError is undecided, ``{"p", "report": None,
    "refusal"}``, and the probe goes on; any other error stops it.  The
    oscillation count could cross-check these points too; the probe stays
    single-route for cost.  Cross-checking adds one oscillation-count solve
    per decided p; at p = 10, the battery's one decided probe point, that
    is a few percent of a quick battery's time.
    """
    rows = []
    for p in map(float, p_values):
        try:
            rows.append({"p": p, "report": solve_point(
                alpha, p, n, settings, cross_check=False)[1]})
        except ThresholdTieError as exc:
            rows.append({"p": p, "report": None, "refusal": exc})
    return rows
