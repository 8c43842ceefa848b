"""Radial nodal solutions of the 2-D Henon equation on the unit disk.

The boundary value problem is

    -(u'' + u'/r) = r^alpha |u|^(p-1) u   on 0 < r < 1,
    u'(0) = 0,  u(1) = 0,

with weight exponent alpha >= 0 and superlinear power p > 1.  For every
n >= 1 it has a radial solution with exactly n nodal sets and u(0) > 0,
unique up to the count n.

Because the nonlinearity is a pure power, no shooting iteration is needed.
The equation is invariant under the one-parameter rescaling

    u(r)  ->  mu^((alpha+2)/(p-1)) u(mu r),    mu > 0,

so the package integrates one initial value problem, U(0) = 1, out to the
n-th zero zeta_n of U; rescaling that zero to r = 1 gives the nodal
solution with

    u(0) = d = zeta_n^((alpha+2)/(p-1))  >  1.

The origin is a regular singular point of the ODE.  Integration starts at a
small radius eps > 0 from the two-term series

    U(r)  = 1 - r^(alpha+2) / (alpha+2)^2,
    U'(r) = - r^(alpha+1) / (alpha+2),

whose truncation error is O(r^(2*alpha + 4)).

From there the two-component system (U, U') is integrated by a DOP853
stepper written for it in Python floats: scipy's Dormand-Prince 8(5,3)
tableau, step-size control and 7th-order dense output, without the
per-step array overhead of a general-purpose solver.  The arithmetic of a
step, its stages, error sums and dense-output rows, is straight-line code
generated at import from scipy's tableau, which ``_dop853_tableau``
holds as committed literals: the coefficients are float literals, exact
zeros are left out, and every sum adds its terms in the tableau's order.
Zeros of U are found on the dense output of the step that brackets them,
by a port of scipy's Brent root finder.

A profile is that trajectory U plus the exact map u(r) = amp U(mu r^kappa)
(kappa = 1 for a solve), and every reader of u and u' evaluates the dense
output through it; the output grid serves only the ``solve`` artifact and
the audit of ``validate_profile``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from ._dop853_tableau import A, A_EXTRA, B, C, C_EXTRA, D, E3, E5, N_STAGES
from .config import DEFAULT, Settings
from .errors import NonConvergenceError, UsageError, integer_at_least

__all__ = [
    "HenonParams",
    "ShootingTrajectory",
    "RadialProfile",
    "integrate_ivp",
    "solve_nodal",
    "evaluate_profile",
    "evaluate_u",
    "u_reader",
    "output_grid",
    "validate_profile",
    "central_value",
]

# Cells whose left edge lies below this radius are excluded from the
# residual audit: for fractional alpha the solution behaves like
# d - c r^(alpha+2) there, and its higher derivatives blow up at 0.
_RESIDUAL_AUDIT_RMIN = 5e-3

# The output grid: uniform points on [0, 1] plus a geometric tail toward the
# origin (innermost radius and log-spacing), which resolves the inner nodal
# region that concentrates at radii like 1e-5 and below for large p.
_GRID_POINTS = 2049
_GRID_GEO_RMIN = 1e-12
_GRID_GEO_STEP = 0.1


def _fixed_grid() -> np.ndarray:
    """The nodes of the output grid that no profile moves: 0, the geometric
    tail below three quarters of the uniform spacing, then the uniform
    nodes."""
    uniform = np.linspace(0.0, 1.0, _GRID_POINTS)
    spacing = 1.0 / (_GRID_POINTS - 1)
    n_geo = int(math.ceil(math.log(spacing / _GRID_GEO_RMIN) / _GRID_GEO_STEP))
    geo = _GRID_GEO_RMIN * np.exp(_GRID_GEO_STEP * np.arange(n_geo))
    return np.concatenate(([0.0], geo[geo < 0.75 * spacing], uniform[1:]))


_GRID = _fixed_grid()
_GRID.setflags(write=False)


# 5-point Gauss-Legendre rule on [0, 1]: numpy's leggauss(5), mapped, as literals.
_GAUSS_X = np.array([0.04691007703066802, 0.23076534494715845, 0.5, 0.7692346550528415,
                     0.9530899229693319])
_GAUSS_W = np.array([0.11846344252809464, 0.23931433524968315, 0.28444444444444433,
                     0.23931433524968315, 0.11846344252809464])


def _dot(coefs, names) -> str:
    """Source of the dot product of ``coefs`` with the variables ``names``
    without its exact-zero coefficients.  The other products are added left
    to right, as an uncompensated dot product over the whole row adds them;
    a zero product leaves a nonzero partial sum as it is, so both round
    alike."""
    return " + ".join(f"{c!r} * {x}" for c, x in zip(coefs, names) if c) or "0.0"


def _straight_line_step():
    """The arithmetic of one DOP853 step of the radial system as two
    straight-line functions, generated from scipy's tableau
    (``_dop853_tableau``).

    ``stages(r, u, v, fv, h, alpha, pm1)`` forms the 12 stages, the new
    point (u12, v12) with its derivative f12, as stage 12 with the weights
    B at c = 1, and returns u12, v12, f12, the E5 sums of the u and v
    slopes, their E3 sums, and the slopes k = (v1..v12, f1..f12).
    ``dense(r, u, v, fv, h, k, alpha, pm1)`` forms the three extra stages of
    the dense output and returns h times the four D sums of the u slopes,
    then of the v slopes.  The slopes of u are the stage values of v, and
    each v slope is ``rate`` of ``_dop853``, in its operation order.
    Constants are written as ``repr`` of the floats, which reads back
    exactly.
    """
    ku, kv = ["v"], ["fv"]

    def stage(s, a, c):
        lines = (f"u{s} = u + ({_dot(a, ku)}) * h",
                 f"v{s} = v + ({_dot(a, kv)}) * h",
                 f"r{s} = r + {c!r} * h",
                 f"f{s} = -v{s} / r{s} - r{s}**alpha * (abs(u{s}) ** pm1 * u{s})")
        ku.append(f"v{s}")
        kv.append(f"f{s}")
        return lines

    last = N_STAGES
    body = [line for s in range(1, last) for line in stage(s, A[s], C[s])]
    body += stage(last, B, 1.0)
    slopes = ", ".join(ku[1:] + kv[1:])
    sums = [_dot(E, k) for E in (E5, E3) for k in (ku, kv)]
    stages = [
        "def stages(r, u, v, fv, h, alpha, pm1):",
        *(f"    {line}" for line in body),
        f"    return u{last}, v{last}, f{last}, {', '.join(sums)}, ({slopes})",
    ]
    extra = [line for s, (a, c) in enumerate(zip(A_EXTRA, C_EXTRA), start=last + 1)
             for line in stage(s, a, c)]
    rows = [f"h * ({_dot(row, k)})" for k in (ku, kv) for row in D]
    dense = [
        "def dense(r, u, v, fv, h, k, alpha, pm1):",
        f"    {slopes} = k",
        *(f"    {line}" for line in extra),
        f"    return {', '.join(rows)}",
    ]
    namespace = {}
    exec(compile("\n".join(stages + dense), f"<{__name__} DOP853 step>", "exec"),
         namespace)
    return namespace["stages"], namespace["dense"]


_stages, _dense = _straight_line_step()

# scipy's step-size control: safety factor, bounds on the change of the
# step, and the exponent -1/(q+1) for the embedded estimate of order q = 7.
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1.0 / 8.0
_ZERO_TOL = 4.0 * np.finfo(float).eps
# Largest radius where integration leaves the origin series; a smaller one
# is taken where the tolerance asks for it (``integrate_ivp``).
_MAX_SERIES_START = 1e-6
# Cap on log(r) for the zero hunt of the u(0) = 1 trajectory.
_SHOOT_TMAX = 46.0
# Work bound of one integration.  The zero hunt of a nodal profile takes
# 30-460 steps over alpha <= 20, p <= 100, n <= 6 at the default tolerances.
_MAX_IVP_STEPS = 20000


@dataclass(frozen=True)
class HenonParams:
    """Parameters of one nodal problem: weight exponent, power, nodal count."""

    alpha: float
    p: float
    n_nodal: int

    def __post_init__(self):
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise UsageError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (self.p > 1.0 and math.isfinite(self.p)):
            raise UsageError(f"p must be finite and > 1, got {self.p}")
        object.__setattr__(self, "n_nodal", integer_at_least(self.n_nodal, 1, "n_nodal"))


@dataclass
class ShootingTrajectory:
    """The trajectory U of the initial value problem U(0) = 1, out to its
    n-th zero.

    ``zeros`` are the n ordered roots of U found on the steps' dense
    output, and ``r_end`` is the last of them, where integration stopped.
    ``_component`` evaluates U or U' anywhere in [0, r_end], which the
    profile map x = mu r^kappa fills from r in [0, 1]: through the
    7th-order DOP853 interpolant of the step that holds each radius, all
    radii at once, and through the origin series below the series start
    radius.  The interpolants are held in power form: ``_knots`` are the
    step ends, and ``_coef[j]`` holds the coefficients of component j
    (0: U, 1: U') in powers of r - knots[i], highest first, one column per
    step (``_power_sum``).  The terminal zero r_end can lie inside the last
    step.
    """

    alpha: float
    r_end: float
    zeros: np.ndarray
    _knots: np.ndarray = field(repr=False)
    _coef: np.ndarray = field(repr=False)
    _eps: float = field(repr=False)

    def _component(self, r: np.ndarray, j: int) -> np.ndarray:
        """Component j (0: U, 1: U') at the radii of an array."""
        small = r < self._eps
        if not np.any(small):
            return _power_sum(self._knots, self._coef[j], r)
        out = np.empty_like(r)
        out[small] = _origin_series(self.alpha, r[small])[j]
        out[~small] = _power_sum(self._knots, self._coef[j], r[~small])
        return out


def _power_sum(knots: np.ndarray, coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The piecewise polynomial with breakpoints ``knots`` and power-form
    coefficients ``coef`` (highest power first, one column per piece) at
    the points of an array.  It repeats scipy ``PPoly``'s evaluation: x
    takes the piece i with knots[i] <= x < knots[i+1], the last piece at
    and beyond the last knot and the first below the first, and the sum
    c_0 + c_1 s + ... + c_7 s^7, s = x - knots[i], adds its terms from the
    lowest power up to an initial 0.0, with s^k formed by repeated
    products."""
    i = np.searchsorted(knots[1:-1], x, side="right")
    s = x - knots.take(i)
    c = coef.take(i, axis=1)
    out = c[-1] + 0.0
    z = s.copy()
    for k in range(c.shape[0] - 2, -1, -1):
        c[k] *= z
        out += c[k]
        if k:
            z *= s
    return out


def _power_form(knots: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """The power-form coefficients of the step interpolants of one
    component, for ``_power_sum``: row i of ``coef`` holds (y_old, F0, ...,
    F6) of step i, whose dense output in x = (r - knots[i]) / h is
    y_old + x (F0 + (1-x) (F1 + x (F2 + ...))).  It is expanded into
    powers of x, lowest first, then of r - knots[i]."""
    poly = np.zeros((8, coef.shape[0]))
    for i, f in enumerate(coef[:, :0:-1].T):  # F6 first
        poly[0] += f
        if i % 2 == 0:  # times x
            poly = np.concatenate((np.zeros_like(poly[:1]), poly[:-1]))
        else:  # times 1 - x
            poly[1:] = poly[1:] - poly[:-1]
    poly[0] += coef[:, 0]
    h = np.diff(knots)
    poly /= h ** np.arange(8)[:, None]
    return poly[::-1]


def _origin_series(alpha: float, r):
    """Two-term origin expansion of the trajectory with U(0) = 1."""
    c1 = 1.0 / (alpha + 2.0) ** 2
    u = 1.0 - c1 * r ** (alpha + 2.0)
    du = -r ** (alpha + 1.0) / (alpha + 2.0)
    return u, du


def _step_zero(r: float, r_new: float, u: float, u_new: float, F) -> float | None:
    """The zero of u that the step from r to r_new reports, or None.

    A step reports a sign change of u and an exact zero at its new end,
    never one at its old end: the step before reported that one.  A sign
    change is located by ``_brentq`` on the step's dense output of u,
    whose coefficients are F = (F0, ..., F6), evaluated in scipy's nested
    form.
    """
    if u_new == 0.0:
        return r_new
    if u == 0.0 or (u < 0.0) == (u_new < 0.0):
        return None
    h = r_new - r

    def interpolant(t):
        x = (t - r) / h
        y = 0.0
        for i, f in enumerate(reversed(F)):
            y += f
            y *= x if i % 2 == 0 else 1.0 - x
        return y + u

    return _brentq(interpolant, r, r_new, _ZERO_TOL, _ZERO_TOL)


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float,
            maxiter: int = 100) -> float:
    """A root of f in [xa, xb], where f changes sign, by Brent's method.

    A port of the C ``brentq`` behind ``scipy.optimize.brentq``, in its
    operation order: the same iterates, and so the same root, bit for bit.
    It stops when f is 0 or the bracket's half-width is below
    (xtol + rtol |x|) / 2.  Like scipy's, it raises ValueError when f has
    the same sign at both ends and RuntimeError after ``maxiter``
    iterations."""
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if (fpre != 0.0 and fcur != 0.0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, "
                       f"value is {xcur}")


def integrate_ivp(alpha: float, p: float, n: int,
                  settings: Settings = DEFAULT) -> ShootingTrajectory:
    """Integrate the radial ODE from U(0) = 1 out to the n-th zero of U.

    Starts from the two-term origin series at the largest radius eps <=
    ``_MAX_SERIES_START`` where the first neglected series term,
    c2 eps^(2 alpha + 4), is at most 100 * atol.

    The stepper is DOP853 as scipy implements it, specialised to the system
    u' = v, v' = -v/r - r^alpha |u|^(p-1) u and run in Python floats.  It
    uses scipy's initial step rule, error norm, step-size control and
    minimum step, and stores every step's 7th-order dense output.  Each
    step's stages, error sums and dense-output rows run in two
    straight-line functions that ``_straight_line_step`` generates at
    import from scipy's tableau (``_dop853_tableau``); they skip its
    exact-zero coefficients and add the other terms in the tableau's
    order.  ``settings.rtol`` is used as given, with no floor at 100
    machine epsilons.

    A zero of U is a sign change over a step or an exact zero at a step's
    end.  It is located by ``_brentq`` on that step's interpolant at
    xtol = rtol = 4 eps and is reported once, also when it is a step end.
    Integration terminates at the n-th zero, which keeps the zero hunt
    cheap even for large powers p, whose zeros sit at exponentially large
    radii.  Those radii are the reason the hunt caps log r, not r: it runs
    out to log r = min(``_SHOOT_TMAX``, 600 / (alpha + 2)), which keeps
    exp((alpha+2) t)-sized quantities representable.

    Raises NonConvergenceError when fewer than n zeros lie inside that
    cap, when the step size falls below ten spacings of the floating-point
    numbers at the current radius, which is what a tolerance far below the
    arithmetic's precision does, and when the integration needs more than
    ``_MAX_IVP_STEPS`` steps.  A tolerance out of range is refused when its
    ``Settings`` is built, so rtol >= 0 and atol > 0 here.
    """
    rtol, atol = settings.rtol, settings.atol
    r_max = math.exp(min(_SHOOT_TMAX, 600.0 / (alpha + 2.0)))
    # Next series term: c2 * r^(2 alpha + 4) with c2 = p c1 / (2 alpha + 4)^2.
    c1 = 1.0 / (alpha + 2.0) ** 2
    c2 = p * c1 / (2.0 * alpha + 4.0) ** 2
    eps = min(_MAX_SERIES_START,
              (100.0 * atol / c2) ** (1.0 / (2.0 * alpha + 4.0)))

    u0, du0 = _origin_series(alpha, np.array([eps]))
    knots, coef, zeros = _dop853(
        float(alpha), float(p), float(eps), float(u0[0]), float(du0[0]),
        float(r_max), rtol, atol, n,
        {"alpha": alpha, "p": p, "n_nodal": n, "r_max": r_max})
    if len(zeros) < n:
        raise NonConvergenceError(
            f"only {len(zeros)} zeros found out to r = {r_max:.3g}, "
            f"needed {n}",
            {"alpha": alpha, "p": p, "n_nodal": n, "zeros_found": len(zeros)},
        )

    knots = np.asarray(knots)
    coef = np.reshape(coef, (-1, 2, 8))
    return ShootingTrajectory(
        alpha=alpha, r_end=zeros[-1], zeros=np.asarray(zeros, dtype=float),
        _knots=knots,
        _coef=np.stack([_power_form(knots, coef[:, j]) for j in (0, 1)]),
        _eps=eps,
    )


def _dop853(alpha, p, r, u, v, r_bound, rtol, atol, n, context):
    """DOP853 from (r, u, v) for the radial system, to the n-th zero of u
    or to ``r_bound``, whichever comes first.

    Returns the step ends, the dense-output coefficients (y_old, F0, ...,
    F6) of u and of v for each step, and the zeros of u.
    """
    pm1 = p - 1.0

    def rate(r, u, v):
        # v' for the state (u, v), in scipy's operation order
        return -v / r - r**alpha * (abs(u) ** pm1 * u)

    def rms(a, b):
        return math.sqrt((a * a + b * b) / 2.0)

    # scipy's initial step (Hairer-Norsett-Wanner II.4), at order q = 7.
    fv = rate(r, u, v)
    su, sv = atol + abs(u) * rtol, atol + abs(v) * rtol
    d0, d1 = rms(u / su, v / sv), rms(v / su, fv / sv)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, r_bound - r)
    v1 = v + h0 * fv
    d2 = rms((v1 - v) / su, (rate(r + h0, u + h0 * v, v1) - fv) / sv) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    h_abs = min(100.0 * h0, h1, r_bound - r)

    knots = [r]
    coef = []
    zeros = []
    while r < r_bound:
        if len(knots) > _MAX_IVP_STEPS:
            raise NonConvergenceError(
                f"ODE integration took more than {_MAX_IVP_STEPS} steps",
                dict(context, r=r))
        min_step = 10.0 * (math.nextafter(r, math.inf) - r)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            # also true for a NaN step, which overflowing initial-step
            # norms give (inf / inf) and max() above keeps
            if not h_abs >= min_step:
                raise NonConvergenceError(
                    "ODE integration failed: Required step size is less "
                    "than spacing between numbers.",
                    dict(context, r=r, min_step=min_step))
            r_new = min(r + h_abs, r_bound)
            h = r_new - r
            h_abs = h
            try:
                u_new, v_new, f_new, e5u, e5v, e3u, e3v, k = _stages(
                    r, u, v, fv, h, alpha, pm1)
                su = atol + max(abs(u), abs(u_new)) * rtol
                sv = atol + max(abs(v), abs(v_new)) * rtol
                e5u, e5v, e3u, e3v = e5u / su, e5v / sv, e3u / su, e3v / sv
                err5 = e5u * e5u + e5v * e5v
                err3 = e3u * e3u + e3v * e3v
                if err5 == 0.0 and err3 == 0.0:
                    error_norm = 0.0
                else:
                    error_norm = h * err5 / math.sqrt((err5 + 0.01 * err3) * 2.0)
            except OverflowError:
                # a trial step that blows up; numpy would carry inf/nan into
                # the error norm, which rejects it by the largest decrease
                error_norm = math.inf
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR,
                                 _SAFETY * error_norm**_ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
            rejected = True

        # Dense output: three more stages, then F0..F6 for each component.
        d = _dense(r, u, v, fv, h, k, alpha, pm1)
        du, dv = u_new - u, v_new - v
        Fu = (du, h * v - du, 2.0 * du - h * (v_new + v), *d[:4])
        Fv = (dv, h * fv - dv, 2.0 * dv - h * (f_new + fv), *d[4:])
        coef.append((u, *Fu))
        coef.append((v, *Fv))
        knots.append(r_new)

        root = _step_zero(r, r_new, u, u_new, Fu)
        if root is not None:
            zeros.append(root)
            if len(zeros) == n:
                break
        r, u, v, fv = r_new, u_new, v_new, f_new
    return knots, coef, zeros


@dataclass
class RadialProfile:
    """A computed nodal solution on [0, 1].

    It is its shooting trajectory U plus the exact map

        u(r) = amp U(mu r^kappa),   u'(r) = amp mu kappa r^(kappa-1) U'(mu r^kappa);

    a solve has kappa = 1, and the power map of ``transform`` multiplies
    amp and kappa.  As U(0) = 1, ``amp`` is the (positive) central value
    d = u(0); ``nodal_radii`` are the n ordered zeros of u, the last equal
    to 1.  ``tolerances`` records the accuracy targets the profile was
    computed under.
    """

    params: HenonParams
    trajectory: ShootingTrajectory = field(repr=False)
    amp: float
    mu: float
    kappa: float
    nodal_radii: np.ndarray
    tolerances: dict


def _profile_radii(r) -> np.ndarray:
    """Radii as an array clipped to [0, 1], rejecting any further out than
    roundoff."""
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if r_arr.size:
        lo, hi = r_arr.min(), r_arr.max()
        if lo < -1e-12 or hi > 1.0 + 1e-12:
            raise UsageError(
                "evaluation radius outside [0, 1]",
                {"r_min": float(lo), "r_max": float(hi)},
            )
    return np.clip(r_arr, 0.0, 1.0)


def evaluate_profile(profile: RadialProfile, r):
    """Evaluate (u, u') at an array of radii in [0, 1] from the
    trajectory's dense output, through the profile's map."""
    r_arr = _profile_radii(r)
    kappa = profile.kappa
    x = profile.mu * r_arr**kappa
    u = profile.amp * profile.trajectory._component(x, 0)
    du = profile.trajectory._component(x, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        du = (profile.amp * profile.mu * kappa) * r_arr ** (kappa - 1.0) * du
    du[r_arr == 0.0] = 0.0  # u'(0) = 0 for every exponent
    return u, du


def evaluate_u(profile: RadialProfile, r):
    """The u of ``evaluate_profile`` alone, at an array of radii, without
    evaluating u'."""
    x = profile.mu * _profile_radii(r) ** profile.kappa
    return profile.amp * profile.trajectory._component(x, 0)


def u_reader(profile: RadialProfile):
    """u as a function of one radius in [0, 1], in Python floats: the
    scalar twin of ``evaluate_u``, for callers where a numpy call per radius
    would cost more than the arithmetic.  It reads the trajectory's
    power-form coefficients of U as lists, by ``bisect`` and an 8-term
    Horner."""
    traj = profile.trajectory
    breaks = traj._knots.tolist()
    pieces = traj._coef[0].T.tolist()
    last = len(pieces) - 1
    amp, mu, kappa = profile.amp, profile.mu, profile.kappa
    eps, e = traj._eps, traj.alpha + 2.0
    c_origin = 1.0 / e**2  # the series of ``_origin_series``

    def u(r):
        x = mu * r**kappa
        if x < eps:
            return amp * (1.0 - c_origin * x**e)
        i = min(bisect_right(breaks, x) - 1, last)
        z = x - breaks[i]
        a7, a6, a5, a4, a3, a2, a1, a0 = pieces[i]
        return amp * (((((((a7 * z + a6) * z + a5) * z + a4) * z + a3) * z
                        + a2) * z + a1) * z + a0)

    return u


def output_grid(profile: RadialProfile) -> np.ndarray:
    """Grid on [0, 1] of the ``solve`` artifact and of the audit in
    ``validate_profile``: the fixed nodes of ``_GRID``, with the interior
    nodal radii made exact grid nodes, as a new array.

    A nodal radius closer to an interior node than a quarter of the local
    gap replaces that node, and is inserted otherwise, so spacing never
    degenerates.
    """
    pts = _GRID.copy()
    for z in profile.nodal_radii[:-1]:  # the last one is 1.0
        z = float(z)
        if z <= pts[0] or z >= pts[-1]:
            continue
        i = int(np.searchsorted(pts, z))
        gap = pts[i] - pts[i - 1]
        if z - pts[i - 1] < 0.25 * gap and i - 1 > 0:
            pts[i - 1] = z
        elif pts[i] - z < 0.25 * gap and i < len(pts) - 1:
            pts[i] = z
        else:
            pts = np.insert(pts, i, z)
    return pts


def solve_nodal(params: HenonParams, settings: Settings = DEFAULT) -> RadialProfile:
    """Compute the nodal solution with ``params.n_nodal`` nodal sets.

    Integrates once with U(0) = 1 out to the n-th zero (``integrate_ivp``,
    whose NonConvergenceError it passes on) and applies the exact power
    rescaling that maps that zero to r = 1.  The result is validated
    against the construction invariants before being returned.  The
    profile depends on ``settings`` only through its tolerances, which it
    records.
    """
    n = params.n_nodal
    traj = integrate_ivp(params.alpha, params.p, n, settings)
    mu = traj.r_end
    nodal = traj.zeros / mu
    nodal[-1] = 1.0
    profile = RadialProfile(
        params=params,
        trajectory=traj,
        amp=central_value(params, mu, (params.alpha + 2.0) / (params.p - 1.0)),
        mu=mu,
        kappa=1.0,
        nodal_radii=nodal,
        tolerances={"rtol": settings.rtol, "atol": settings.atol},
    )
    validate_profile(profile)
    return profile


# The fixed gates of ``validate_profile``: |u(1)| relative to max(1, max|u|)
# and the cell-averaged ODE residual relative to max|u|^p.
_BOUNDARY_TOL = 1e-9
_RESIDUAL_TOL = 1e-6
_LOG_MAX = math.log(np.finfo(float).max)


def central_value(params: HenonParams, base: float, exponent: float,
                  factor: float = 1.0) -> float:
    """d = base^exponent * factor, the central value u(0) of a profile with
    ``params``.  A d whose d^p, the scale of the residual gate of
    ``validate_profile``, leaves the float64 range, as it does when p -> 1,
    is refused with NonConvergenceError before it is formed."""
    log_d = exponent * math.log(base) + math.log(factor)
    if params.p * log_d > _LOG_MAX:
        raise NonConvergenceError(
            "the central value d = u(0) is too large: d^p overflows float64",
            {"alpha": params.alpha, "p": params.p, "n_nodal": params.n_nodal,
             "log10_d": log_d / math.log(10.0)})
    return base ** exponent * factor


def validate_profile(profile: RadialProfile) -> float:
    """Check the construction invariants of a nodal profile and return the
    ODE residual it audited.

    Raises :class:`NonConvergenceError` when any of these fail:

    * u(0) = d = amp > 0, and d^p is a finite float (``central_value``);
    * the nodal radii are n increasing values, the last equal to 1;
    * |u(1)| <= ``_BOUNDARY_TOL`` * max(1, max|u|);
    * u changes sign exactly n_nodal - 1 times on the output grid and the
      signs on consecutive nodal intervals alternate starting positive;
    * the cell-averaged ODE residual on the output grid
      (``_cell_residual``) is at most ``_RESIDUAL_TOL`` * max|u|^p.

    u and u' are read once on the output grid, for the boundary, sign and
    residual checks alike.
    """
    pr = profile
    n = pr.params.n_nodal
    grid = output_grid(pr)
    u, du = evaluate_profile(pr, grid)
    scale = float(np.max(np.abs(u)))
    problems: list[str] = []

    if not (pr.amp > 0.0 and u[0] == pr.amp):
        problems.append("central value does not match d > 0")
    if pr.nodal_radii.size != n or np.any(np.diff(pr.nodal_radii) <= 0):
        problems.append("nodal radii are not n strictly increasing values")
    elif pr.nodal_radii[-1] != 1.0:
        problems.append("last nodal radius is not 1")
    if abs(u[-1]) > _BOUNDARY_TOL * max(1.0, scale):
        problems.append(f"|u(1)| = {abs(u[-1]):.3e} exceeds the boundary tolerance")

    # Sign structure: drop near-zero samples, then count strict sign flips.
    tiny = 1e-7 * scale
    signs = np.sign(u[np.abs(u) > tiny])
    flips = int(np.sum(signs[1:] * signs[:-1] < 0))
    if flips != n - 1:
        problems.append(f"u changes sign {flips} times, expected {n - 1}")
    mids = 0.5 * (np.concatenate(([0.0], pr.nodal_radii[:-1]))
                  + pr.nodal_radii)
    mid_u = evaluate_u(pr, mids)
    expected = (-1.0) ** np.arange(n)
    if np.any(np.sign(mid_u) != expected):
        problems.append("nodal interval signs do not alternate starting positive")

    # refuse a max|u| whose p-th power overflows (a zero u failed d > 0 above)
    if scale > 0.0:
        central_value(pr.params, scale, 1.0)
    resid = _cell_residual(pr, grid, du)
    limit = _RESIDUAL_TOL * scale**pr.params.p
    if resid > limit:
        problems.append(
            f"ODE residual {resid:.3e} exceeds {limit:.3e}")

    if problems:
        raise NonConvergenceError(
            "profile validation failed: " + "; ".join(problems),
            {"alpha": pr.params.alpha, "p": pr.params.p, "n_nodal": n,
             "residual": resid, "boundary_value": float(u[-1])},
        )
    return resid


def _cell_residual(profile: RadialProfile, g: np.ndarray, du: np.ndarray) -> float:
    """Cell-averaged residual of the radial ODE over the output grid g, with
    du = u' at its nodes.

    Integrating the divergence form (r u')' = -r^(1+alpha) |u|^(p-1) u over
    a grid cell gives the exact balance

        r_{i+1} u'(r_{i+1}) - r_i u'(r_i)
            + int_cell s^(1+alpha) |u(s)|^(p-1) u(s) ds  =  0.

    The left side is evaluated from u' at the grid nodes (flux terms) and a
    5-point Gauss rule on u (cell integral), then divided by h_i * rbar_i
    to give the cell average of the pointwise residual.  The maximum is
    taken over cells with left edge at or above ``_RESIDUAL_AUDIT_RMIN``,
    where for fractional alpha the higher derivatives of u blow up; the
    grid's uniform nodes always hold such cells.

    u and u' come from one trajectory through one map, so the residual
    checks the map itself: an amplitude that does not match mu and kappa
    shows up at full strength.
    """
    alpha = profile.params.alpha
    p = profile.params.p
    h = np.diff(g)

    # Gauss points in all cells at once: shape (ncells, 5).
    pts = g[:-1, None] + h[:, None] * _GAUSS_X[None, :]
    uq = evaluate_u(profile, pts.ravel()).reshape(pts.shape)
    integrand = pts ** (1.0 + alpha) * (np.abs(uq) ** (p - 1.0) * uq)
    # einsum, not a BLAS product, whose rounding depends on the thread count
    cell_int = h * np.einsum("ij,j->i", integrand, _GAUSS_W)

    flux = g * du
    net = flux[1:] - flux[:-1] + cell_int
    rbar = 0.5 * (g[:-1] + g[1:])
    mask = g[:-1] >= _RESIDUAL_AUDIT_RMIN
    return float(np.max(np.abs(net[mask]) / (h[mask] * rbar[mask])))
