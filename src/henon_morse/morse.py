"""Morse index assembly and the structural checks built on it.

For a nodal radial solution u on the disk, separation of variables splits
the linearized operator over angular modes: mode k >= 1 contributes twice
(cos and sin), mode k = 0 once.  Writing lambda_1 < ... < lambda_J for the
negative eigenvalues of the singular radial problem (computed in the log
variable by ``spectrum.negative_spectrum``), the Morse index is

    m(u)  =  m_rad + 2 * sum_k #{j : lambda_j + k^2 < 0},   k = 1, 2, ...

with m_rad = J the index of the k = 0 (radial) block.  ``assemble_morse``
reads every integer off one table, lambda_j < -w^2 over a set of wave
numbers w, and cross-checks its column sums against an independent route:
the Sturm oscillation counts #{j : lambda_j < -w^2}
(``spectrum.oscillation_counts``), an adaptive ODE solve that shares no
mesh or matrix with the eigenvalue solver.  Disagreement raises
``TwoRouteError`` rather than returning a number.  The wave numbers are the
point's k = 0..k_max and, for the alpha = 0 companion, whose eigenvalues
the power map r -> r^((alpha+2)/2) scales by (2/(alpha+2))^2, the
s k with s = (alpha+2)/2; so the same table and the same solve decide and
certify the companion's index, and no second profile is solved for it.

``solve_point`` is the one point task of the command line, the battery and
the probe: solve the nodal profile at (alpha, p, n), then assemble its
index.  ``assemble_morse`` is the only assembly path, so every report the
package prints, the probe's included, has passed the cross-check.

On top of the assembled indices this module checks the structural facts an
index computation can verify:

* ``check_lower_bounds``: named integer inequalities relating m(u), the
  nodal count n, the weight exponent alpha, and the index of the
  unweighted (alpha = 0) solution with the same p and n, which every
  report decides from its own spectrum through the power map;
* ``sweep_from_reports``: whether m(u) is nondecreasing along increasing
  alpha at fixed p and n;
* ``large_exponent_probe``: cross-checked indices at alpha = 0 and n = 2
  for the growing exponents p of the battery's probe, whose gaps are
  reported as observations; a p refused at a -k^2 tie is recorded as
  undecided.
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
    oscillation counts, the independent route every report is checked
    against; a report exists only when the two agree.

    ``companion_total`` is the Morse index of the alpha = 0 solution with
    the same p and n, read off the same table at the wave numbers s k
    (lambda_j < -(s k)^2, that is lambda_j / s^2 + k^2 < 0, with
    s = (alpha + 2) / 2) and certified by the same oscillation counts; at
    alpha = 0 it is ``m_total``.  It is the one companion index the lower
    bounds read; it is not serialized.
    """

    params: HenonParams
    d: float
    lambdas: np.ndarray
    m_rad: int
    k_max: int
    mode_counts_per_k: tuple
    negative_modes: tuple
    m_total: int
    route_b_total: int
    companion_total: int
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
                "tolerances": dict(self.tolerances),
            },
        }


def _tie_distance(lambdas: np.ndarray, k_max: int) -> float:
    """Smallest |lambda_j + k^2| / (1 + k^2) over the decision table: how
    close the decomposition comes to an undecidable sign, measured in the
    units the eigenvalue accuracy eig_tol * (1 + |lambda_j|) ~
    eig_tol * (1 + k^2) is quoted in (near a tie the two scales agree)."""
    ks = np.arange(1, k_max + 1, dtype=float)
    scaled = np.abs(lambdas[:, None] + ks[None, :] ** 2) / (1.0 + ks[None, :] ** 2)
    return float(np.min(scaled))


def _k_max(lambdas: np.ndarray) -> int:
    """The first angular mode k with lambda_1 + k^2 >= 0."""
    return math.ceil(math.sqrt(-float(lambdas[0])))


def assemble_morse(profile: RadialProfile,
                   settings: Settings = DEFAULT) -> MorseReport:
    """Morse index of a nodal profile, with two-route certification.

    Route A: negative eigenvalues in the log variable, then one boolean
    table lambda_j < -w^2 over the wave numbers w = 0..k_max (w = 0 gives
    the radial index) and the companion's s k below.  Every integer of the
    report is read off that table.  The cross-check, which every call runs:
    one oscillation solve counts the eigenvalues below -w^2 at the same
    wave numbers, and any column sum that differs raises TwoRouteError, from
    one place.  A |lambda_j + k^2| too small to call at the working
    tolerance triggers one more pass at 10x tighter tolerance before giving
    up with ThresholdTieError.  That pass reads the same truncated problem,
    built once at the working tolerance, and recomputes only when the first
    ladder's accepted discrepancy did not already meet the tighter
    tolerance.

    The same spectrum decides the index of the alpha = 0 companion with the
    same p and n (``MorseReport.companion_total``).  The power map
    r -> r^s, s = (alpha + 2) / 2, gives it the eigenvalues
    mu_j = lambda_j / s^2, so its signs mu_j + k^2, k = 1..ceil(sqrt(-mu_1)),
    are guarded beside the point's own and read off the table's columns
    w = s k, the energies -(s k)^2 on the point's own potential.  At
    alpha = 0 (s = 1) the companion is the report itself and the table
    gains no column.
    """
    # A sign decision lambda_j + k^2 <> 0 within 10x the eigenvalue accuracy
    # gets one more pass, tightened by one decade (more would chase the
    # eigensolver's own roundoff floor); the second pass must clear its guard.
    # The ladder is deterministic and eig_tol only decides where it stops, so
    # a first spectrum whose accepted discrepancy already meets the tighter
    # tolerance is what the second pass would compute: it is reused.
    problem = build_schrodinger(profile, settings)
    s = (profile.params.alpha + 2.0) / 2.0
    spectrum = None
    for eig_tol in (settings.eig_tol, settings.eig_tol / 10.0):
        if (spectrum is None or spectrum.discrepancy is None
                or spectrum.discrepancy > eig_tol):
            spectrum = negative_spectrum(problem, replace(settings, eig_tol=eig_tol))
        lambdas = spectrum.lambdas
        if lambdas.size == 0:
            raise NonConvergenceError(
                "no negative radial eigenvalues found for a nodal solution",
                {"alpha": profile.params.alpha, "p": profile.params.p,
                 "n_nodal": profile.params.n_nodal,
                 "spectrum_T": spectrum.T, "spectrum_M": spectrum.M,
                 "min_V": float(problem.potential(problem.mesh()).min()),
                 "oscillation_radial_count": oscillation_counts(
                     profile, problem, [0.0], settings)[0]})
        # lambda_j / s^2 carries at most eig_tol * (1 + |mu_j|), so the
        # companion's table is guarded in the same units as the point's
        mus = lambdas / (s * s)
        k_max, k0_max = _k_max(lambdas), _k_max(mus)
        tie_distance = _tie_distance(lambdas, k_max)
        companion_tie = _tie_distance(mus, k0_max)
        if min(tie_distance, companion_tie) >= 10.0 * eig_tol:
            break
    else:
        evidence = {"lambdas": [float(x) for x in lambdas],
                    "scaled_tie_distance": tie_distance,
                    "eig_tol": eig_tol}
        if s != 1.0:
            evidence["companion_scaled_tie_distance"] = companion_tie
        raise ThresholdTieError(
            "an eigenvalue sits numerically on a -k^2 threshold, or for the "
            "alpha = 0 companion on a -(s k)^2 one; the angular "
            "decomposition cannot be decided at this tolerance", evidence)

    # One table decides every integer: negative[j, i] is lambda_j < -w_i^2
    # over the point's wave numbers 0..k_max and the companion's s k,
    # k = 1..k0_max, each distinct one integrated once by the oscillation
    # solve (at s = 1 the two sets coincide, and at even alpha s k is an
    # integer).  Its column sums must be the oscillation counts.
    waves, index = np.unique(np.concatenate(
        (np.arange(k_max + 1.0), s * np.arange(1, k0_max + 1))),
        return_inverse=True)
    negative = lambdas[:, None] < -waves ** 2
    decomposition = negative.sum(axis=0)
    osc = np.array(oscillation_counts(profile, problem, waves, settings))
    if not np.array_equal(decomposition, osc):
        raise TwoRouteError(
            "eigenvalue counts below -w^2 mismatch between the eigenvalue "
            "decomposition and the Sturm oscillation counts",
            {"wave_numbers": [float(w) for w in waves],
             "decomposition": decomposition.tolist(),
             "oscillation_route": osc.tolist(), "s": s,
             "lambdas": [float(x) for x in lambdas],
             "alpha": profile.params.alpha, "p": profile.params.p,
             "n_nodal": profile.params.n_nodal},
        )
    angular, companion = index[1:k_max + 1], index[k_max + 1:]
    m_rad = int(decomposition[0])
    counts_per_k = tuple(decomposition[angular].tolist())
    negative_modes = tuple(tuple(int(k) for k in np.flatnonzero(row) + 1)
                           for row in negative[:, angular])
    route_b_total = int(osc[0] + 2 * osc[angular].sum())

    m_total = m_rad + 2 * sum(counts_per_k)
    tolerances = dict(profile.tolerances)
    tolerances.update({
        "eig_tol": eig_tol,
        "spectrum_T": spectrum.T,
        "spectrum_M": spectrum.M,
        "scaled_tie_distance": tie_distance,
    })
    return MorseReport(
        params=profile.params,
        d=profile.amp,
        lambdas=lambdas,
        m_rad=m_rad,
        k_max=k_max,
        mode_counts_per_k=counts_per_k,
        negative_modes=negative_modes,
        m_total=m_total,
        route_b_total=route_b_total,
        companion_total=m_rad + 2 * int(decomposition[companion].sum()),
        tolerances=tolerances,
    )


def solve_point(alpha: float, p: float, n: int,
                settings: Settings = DEFAULT) -> tuple:
    """The nodal profile at (alpha, p, n) and its assembled
    :class:`MorseReport`, as ``(profile, report)``."""
    profile = solve_nodal(HenonParams(alpha=alpha, p=p, n_nodal=n), settings)
    return profile, assemble_morse(profile, settings)


def _is_even_integer(alpha: float) -> bool:
    return abs(alpha - 2.0 * round(alpha / 2.0)) < 1e-12


def check_lower_bounds(report: MorseReport) -> list:
    """Evaluate the named lower bounds for one assembled index.

    The companion bounds read the index of the unweighted problem
    (alpha = 0) with the same p and n from one source,
    ``report.companion_total``, decided from the report's own spectrum;
    the power map keeps the radial index, so the companion's is
    ``report.m_rad``.  Returns the rows ``{"name", "required", "actual",
    "pass"}`` of the inequalities actual >= required, as the ``morse``
    document prints them; nothing raises here, the caller decides what a
    violated bound means.
    """
    n = report.params.n_nodal
    alpha = report.params.alpha
    m = report.m_total
    m0, m0_rad = report.companion_total, report.m_rad

    half_alpha = math.floor(alpha / 2.0)
    checks = []

    def add(name: str, actual: int, required: int) -> None:
        checks.append({"name": name, "required": int(required),
                       "actual": int(actual), "pass": bool(actual >= required)})

    add("radial_count", report.m_rad, n)
    add("nodal_gap", m, n + (n - 1) * (2 * half_alpha + 2))
    add("autonomous_companion", m0, 3 * n - 2)
    add("autonomous_gap", m, n + (m0 - m0_rad) * (half_alpha + 1))
    if n >= 2:
        add("sign_changing_minimum", m, 3)
        add("sign_changing_superlinear", m, n + 2)
        if _is_even_integer(alpha):
            add("even_weight_minimum", m, round(alpha) + 3)
            add("even_weight_superlinear", m, n + round(alpha) + 2)
    return checks


def sweep_from_reports(reports) -> dict:
    """The sweep document of reports already computed along increasing
    alpha: ``{"reports", "transitions", "monotone"}``, one transition
    ``{"alpha_lo", "alpha_hi", "m_lo", "m_hi", "nondecreasing"}`` per pair
    of consecutive alphas."""
    reports = tuple(reports)
    if len(reports) < 2:
        raise UsageError("a sweep needs at least two alpha values",
                         {"count": len(reports)})
    transitions = [
        {"alpha_lo": lo.params.alpha, "alpha_hi": hi.params.alpha,
         "m_lo": lo.m_total, "m_hi": hi.m_total,
         "nondecreasing": hi.m_total >= lo.m_total}
        for lo, hi in zip(reports, reports[1:])
    ]
    return {"reports": [r.to_dict() for r in reports],
            "transitions": transitions,
            "monotone": all(t["nondecreasing"] for t in transitions)}


# The growing exponents of the probe, each solved at alpha = 0 and n = 2.
_PROBE_PS = (10.0, 20.0, 50.0)


def large_exponent_probe(settings: Settings = DEFAULT) -> list:
    """Cross-checked indices of the battery's probe: alpha = 0, n = 2 and
    the growing exponents p of ``_PROBE_PS``.

    A row ``{"p", "report"}`` holds the point's :class:`MorseReport`,
    certified by both routes like any other.  A p refused with
    ThresholdTieError is undecided, ``{"p", "report": None, "refusal"}``,
    and the probe goes on; any other error stops it.  The rows are
    observations of the asymptotic gap, not gates on it.
    """
    rows = []
    for p in _PROBE_PS:
        try:
            rows.append({"p": p, "report": solve_point(0.0, p, 2, settings)[1]})
        except ThresholdTieError as exc:
            rows.append({"p": p, "report": None, "refusal": exc})
    return rows
