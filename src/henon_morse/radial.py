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

so a single integration of the initial value problem with u(0) = 1 produces,
after rescaling its n-th zero zeta_n to r = 1, the nodal solution with

    u(0) = d = zeta_n^((alpha+2)/(p-1))  >  1.

The origin is a regular singular point of the ODE.  Integration starts at a
small radius eps > 0 from the two-term series

    u(r)  = d - f(d) r^(alpha+2) / (alpha+2)^2,
    u'(r) = - f(d) r^(alpha+1) / (alpha+2),        f(d) = d^p,

whose truncation error is O(r^(2*alpha + 4)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline

from .config import DEFAULT, Settings
from .errors import NonConvergenceError, UsageError

__all__ = [
    "HenonParams",
    "ShootingTrajectory",
    "RadialProfile",
    "integrate_ivp",
    "solve_nodal",
    "evaluate_profile",
    "ode_residual",
    "validate_profile",
]

# Cells whose left edge lies below this radius are excluded from the
# residual audit: for fractional alpha the solution behaves like
# d - c r^(alpha+2) there, and its higher derivatives blow up at 0.
_RESIDUAL_AUDIT_RMIN = 5e-3


def gauss_legendre_01(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``points``-point Gauss-Legendre rule on
    [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(points)
    return 0.5 * (1.0 + x), 0.5 * w


_GAUSS_X, _GAUSS_W = gauss_legendre_01(5)


def _power(u, p):
    """Odd power nonlinearity f(u) = |u|^(p-1) u, safe for fractional p."""
    return np.abs(u) ** (p - 1.0) * u


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
        if not (isinstance(self.n_nodal, int) and self.n_nodal >= 1):
            raise UsageError(f"n_nodal must be an integer >= 1, got {self.n_nodal}")


@dataclass
class ShootingTrajectory:
    """One integration of the initial value problem u(0) = d > 0.

    ``r_end`` is the radius where integration stopped, ``zeros`` the
    ordered roots of u found by event detection.  ``value`` evaluates
    (u, u') anywhere in [0, r_end] through the integrator's dense output,
    falling back to the origin series below the series start radius.
    """

    alpha: float
    p: float
    d: float
    r_end: float
    zeros: np.ndarray
    _dense: object = field(repr=False)
    _eps: float = field(repr=False)

    def value(self, r):
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        if r_arr.size and (r_arr.min() < 0.0 or r_arr.max() > self.r_end * (1 + 1e-12)):
            raise UsageError(
                f"evaluation radius outside [0, {self.r_end}]",
                {"r_min": float(r_arr.min()), "r_max": float(r_arr.max())},
            )
        u_out = np.empty_like(r_arr)
        du_out = np.empty_like(r_arr)
        small = r_arr < self._eps
        if np.any(small):
            us, dus = _origin_series(self.alpha, self.p, self.d, r_arr[small])
            u_out[small] = us
            du_out[small] = dus
        if np.any(~small):
            vals = self._dense(r_arr[~small])
            u_out[~small] = vals[0]
            du_out[~small] = vals[1]
        if np.isscalar(r) or np.ndim(r) == 0:
            return float(u_out[0]), float(du_out[0])
        return u_out, du_out


def _origin_series(alpha: float, p: float, d: float, r):
    """Two-term origin expansion of the trajectory with u(0) = d."""
    fd = d**p
    c1 = fd / (alpha + 2.0) ** 2
    u = d - c1 * r ** (alpha + 2.0)
    du = -fd * r ** (alpha + 1.0) / (alpha + 2.0)
    return u, du


def integrate_ivp(
    alpha: float,
    p: float,
    d: float,
    r_max: float,
    settings: Settings = DEFAULT,
    stop_after: int | None = None,
) -> ShootingTrajectory:
    """Integrate the radial ODE from the origin out to ``r_max``.

    Starts at ``settings.series_start_radius`` from the two-term origin
    series and integrates with an adaptive Runge-Kutta scheme, recording
    every sign change of u by event detection.  With ``stop_after`` set,
    integration terminates at that zero crossing instead of running to
    ``r_max``; this keeps the zero hunt cheap even for large powers p,
    whose zeros sit at exponentially large radii.  The series start is
    validated: the first neglected series term at the start radius must be
    negligible against the integrator's absolute tolerance.
    """
    if not (d > 0.0 and math.isfinite(d)):
        raise UsageError(f"initial value d must be finite and > 0, got {d}")
    eps = settings.series_start_radius
    if not r_max > 10.0 * eps:
        raise UsageError(f"r_max must exceed 10 * series start radius, got {r_max}")

    # Next series term: c2 * r^(2 alpha + 4) with c2 = p d^(p-1) c1 / (2 alpha + 4)^2.
    fd = d**p
    c1 = fd / (alpha + 2.0) ** 2
    c2 = p * d ** (p - 1.0) * c1 / (2.0 * alpha + 4.0) ** 2
    neglected = c2 * eps ** (2.0 * alpha + 4.0)
    if neglected > 100.0 * settings.atol * max(1.0, d):
        raise NonConvergenceError(
            "series start radius too large for the requested tolerance",
            {"alpha": alpha, "p": p, "d": d, "neglected_term": neglected},
        )

    u0, du0 = _origin_series(alpha, p, d, np.array([eps]))

    def rhs(r, y):
        u, v = y
        return (v, -v / r - r**alpha * _power(u, p))

    def crossing(r, y):
        return y[0]

    crossing.direction = 0.0
    if stop_after is not None:
        crossing.terminal = int(stop_after)

    sol = solve_ivp(
        rhs,
        (eps, r_max),
        (float(u0[0]), float(du0[0])),
        method="DOP853",
        rtol=settings.rtol,
        atol=settings.atol,
        dense_output=True,
        events=(crossing,),
    )
    if not sol.success:
        raise NonConvergenceError(
            f"ODE integration failed: {sol.message}",
            {"alpha": alpha, "p": p, "d": d, "r_max": r_max},
        )
    zeros = np.asarray(sol.t_events[0], dtype=float)
    zeros = zeros[zeros > eps]
    if zeros.size > 1:
        keep = np.concatenate(([True], np.diff(zeros) > settings.root_tol))
        zeros = zeros[keep]

    return ShootingTrajectory(
        alpha=alpha, p=p, d=d, r_end=float(sol.t[-1]), zeros=zeros,
        _dense=sol.sol, _eps=eps,
    )


@dataclass
class RadialProfile:
    """A computed nodal solution on [0, 1].

    Stores values and derivatives on a uniform grid augmented with the
    nodal radii, plus cubic Hermite interpolants built at construction
    time.  ``d`` is the (positive) central value u(0); ``nodal_radii`` are
    the n ordered zeros of u, the last equal to 1.  ``tolerances`` records
    the accuracy targets the profile was computed under.
    """

    params: HenonParams
    d: float
    grid: np.ndarray
    u: np.ndarray
    du: np.ndarray
    nodal_radii: np.ndarray
    tolerances: dict
    _spline: CubicHermiteSpline = field(init=False, repr=False, compare=False)
    _dspline: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        self.du = np.asarray(self.du, dtype=float)
        self.nodal_radii = np.asarray(self.nodal_radii, dtype=float)
        if not (self.grid.shape == self.u.shape == self.du.shape):
            raise UsageError("grid, u, du must have identical shapes")
        if self.grid.size < 4:
            raise UsageError("profile grid must have at least 4 points")
        if np.any(np.diff(self.grid) <= 0.0):
            raise UsageError("profile grid must be strictly increasing")
        self._spline = CubicHermiteSpline(self.grid, self.u, self.du)
        # Interpolate u' with its own Hermite spline whose slopes are the
        # exact curvatures u'' = -u'/r - r^alpha |u|^(p-1) u supplied by the
        # ODE (limit at r=0: -d^p/2 for alpha = 0, zero otherwise).  This
        # keeps derivative evaluation fourth-order between nodes, where the
        # derivative of the u-spline would only be second-order accurate.
        alpha, p = self.params.alpha, self.params.p
        body = self.grid[1:]
        ddu = np.empty_like(self.du)
        ddu[1:] = (-self.du[1:] / body
                   - body**alpha * _power(self.u[1:], p))
        ddu[0] = -0.5 * self.d**p if alpha == 0.0 else 0.0
        self._dspline = CubicHermiteSpline(self.grid, self.du, ddu)


def evaluate_profile(profile: RadialProfile, r):
    """Evaluate (u, u') at radii in [0, 1] via the profile's interpolants.

    Exact at the grid nodes; cubic Hermite in between.  Scalar input gives
    scalar output.
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if r_arr.size:
        lo, hi = r_arr.min(), r_arr.max()
        if lo < -1e-12 or hi > 1.0 + 1e-12:
            raise UsageError(
                "evaluation radius outside [0, 1]",
                {"r_min": float(lo), "r_max": float(hi)},
            )
    r_arr = np.clip(r_arr, 0.0, 1.0)
    u = profile._spline(r_arr)
    du = profile._dspline(r_arr)
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(u[0]), float(du[0])
    return u, du


def _output_grid(nodal_radii: np.ndarray, settings: Settings) -> np.ndarray:
    """Grid on [0, 1]: uniform nodes, a geometric tail near the origin,
    and the nodal radii made exact grid nodes.

    The geometric tail (constant spacing in log r, down to
    ``grid_geo_rmin``) resolves interior structure far below the uniform
    spacing; for large powers p the innermost nodal region concentrates at
    radii like 1e-5 and below.  A nodal radius replaces the nearest
    existing node when they are close, and is inserted otherwise, so
    spacing never degenerates.
    """
    resolution = settings.profile_resolution
    uniform = np.linspace(0.0, 1.0, resolution)
    spacing = 1.0 / (resolution - 1)
    n_geo = int(math.ceil(math.log(spacing / settings.grid_geo_rmin)
                          / settings.grid_geo_step))
    geo = settings.grid_geo_rmin * np.exp(settings.grid_geo_step * np.arange(n_geo))
    base = np.concatenate(([0.0], geo[geo < 0.75 * spacing], uniform[1:]))
    return insert_nodes(base, nodal_radii[:-1])  # the last one is exactly 1.0


def insert_nodes(base: np.ndarray, radii) -> np.ndarray:
    """Make ``radii`` nodes of the increasing mesh ``base``.

    A radius closer to an interior node than a quarter of the local gap
    replaces that node; any other radius is inserted, so spacing never
    degenerates.  Radii outside the open interval (base[0], base[-1]) are
    skipped.
    """
    pts = list(base)
    for z in radii:
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
            pts.insert(i, z)
    return np.asarray(pts)


def solve_nodal(params: HenonParams, settings: Settings = DEFAULT) -> RadialProfile:
    """Compute the nodal solution with ``params.n_nodal`` nodal sets.

    Integrates once with u(0) = 1, stopping at the n-th zero, and applies
    the exact power rescaling that maps that zero to r = 1.  The result is
    validated against the construction invariants before being returned.
    """
    n = params.n_nodal
    # Zeros of the u(0) = 1 trajectory sit at exponentially large radii
    # for large p; cap log(r) instead of r, keeping exp((alpha+2) t)-sized
    # quantities representable.
    r_max = math.exp(min(settings.shoot_tmax, 600.0 / (params.alpha + 2.0)))
    traj = integrate_ivp(params.alpha, params.p, 1.0, r_max, settings,
                         stop_after=n)
    if traj.zeros.size < n:
        raise NonConvergenceError(
            f"only {traj.zeros.size} zeros found out to r = {r_max:.3g}, "
            f"needed {n}",
            {"alpha": params.alpha, "p": params.p, "n_nodal": n,
             "zeros_found": int(traj.zeros.size)},
        )

    mu = float(traj.zeros[n - 1])
    exponent = (params.alpha + 2.0) / (params.p - 1.0)
    amp = mu**exponent
    nodal = traj.zeros[:n] / mu
    nodal[-1] = 1.0

    grid = _output_grid(nodal, settings)
    u_tr, du_tr = traj.value(mu * grid)
    profile = RadialProfile(
        params=params,
        d=amp,
        grid=grid,
        u=amp * u_tr,
        du=amp * mu * du_tr,
        nodal_radii=nodal,
        tolerances={
            "rtol": settings.rtol,
            "atol": settings.atol,
            "root_tol": settings.root_tol,
            "boundary_tol": settings.boundary_tol,
            "residual_tol": settings.residual_tol,
        },
    )
    validate_profile(profile, settings)
    return profile


def validate_profile(profile: RadialProfile, settings: Settings = DEFAULT) -> None:
    """Check the construction invariants of a nodal profile.

    Raises :class:`NonConvergenceError` when any of these fail:

    * u(0) = d > 0 and u'(0) = 0;
    * the grid spans [0, 1] and contains every nodal radius;
    * |u(1)| is below the boundary tolerance;
    * u changes sign exactly n_nodal - 1 times inside (0, 1) and the signs
      on consecutive nodal intervals alternate starting positive;
    * the cell-averaged ODE residual is below
      residual_tol * max|u|^p.
    """
    pr = profile
    n = pr.params.n_nodal
    scale = float(np.max(np.abs(pr.u)))
    problems: list[str] = []

    if not (pr.d > 0.0 and pr.u[0] == pr.d):
        problems.append("central value does not match d > 0")
    if pr.du[0] != 0.0:
        problems.append("u'(0) is not exactly zero")
    if pr.grid[0] != 0.0 or pr.grid[-1] != 1.0:
        problems.append("grid does not span [0, 1]")
    if pr.nodal_radii.size != n or np.any(np.diff(pr.nodal_radii) <= 0):
        problems.append("nodal radii are not n strictly increasing values")
    elif pr.nodal_radii[-1] != 1.0:
        problems.append("last nodal radius is not 1")
    elif not np.all(np.isin(pr.nodal_radii[:-1], pr.grid)):
        problems.append("interior nodal radii are not grid nodes")
    if abs(pr.u[-1]) > settings.boundary_tol * max(1.0, scale):
        problems.append(f"|u(1)| = {abs(pr.u[-1]):.3e} exceeds the boundary tolerance")

    # Sign structure: drop near-zero samples, then count strict sign flips.
    tiny = 1e-7 * scale
    signs = np.sign(pr.u[np.abs(pr.u) > tiny])
    flips = int(np.sum(signs[1:] * signs[:-1] < 0))
    if flips != n - 1:
        problems.append(f"u changes sign {flips} times, expected {n - 1}")
    mids = 0.5 * (np.concatenate(([0.0], pr.nodal_radii[:-1]))
                  + pr.nodal_radii)
    mid_u, _ = evaluate_profile(pr, mids)
    expected = (-1.0) ** np.arange(n)
    if np.any(np.sign(mid_u) != expected):
        problems.append("nodal interval signs do not alternate starting positive")

    resid = ode_residual(pr)
    limit = settings.residual_tol * scale**pr.params.p
    if resid > limit:
        problems.append(
            f"ODE residual {resid:.3e} exceeds {limit:.3e}")

    if problems:
        raise NonConvergenceError(
            "profile validation failed: " + "; ".join(problems),
            {"alpha": pr.params.alpha, "p": pr.params.p, "n_nodal": n,
             "residual": float(resid), "boundary_value": float(pr.u[-1])},
        )


def ode_residual(profile: RadialProfile) -> float:
    """Cell-averaged residual of the radial ODE over the profile grid.

    Integrating the divergence form (r u')' = -r^(1+alpha) |u|^(p-1) u over
    a grid cell gives the exact balance

        r_{i+1} u'(r_{i+1}) - r_i u'(r_i)
            + int_cell s^(1+alpha) |u(s)|^(p-1) u(s) ds  =  0.

    The left side is evaluated from the stored values (flux terms) and a
    5-point Gauss rule on the interpolant (cell integral), then divided by
    h_i * rbar_i to give the cell average of the pointwise residual.  The
    maximum is taken over cells with left edge above a small radius, where
    for fractional alpha the higher derivatives of u blow up and cubic
    interpolation degrades.

    The flux form differences the stored derivative directly, so an
    inconsistent rescaling of u versus u' shows up at full strength rather
    than divided by the mesh width.
    """
    alpha = profile.params.alpha
    p = profile.params.p
    g, du = profile.grid, profile.du
    h = np.diff(g)

    # Gauss points in all cells at once: shape (ncells, 5).
    pts = g[:-1, None] + h[:, None] * _GAUSS_X[None, :]
    uq = profile._spline(pts)
    integrand = pts ** (1.0 + alpha) * _power(uq, p)
    cell_int = h * (integrand @ _GAUSS_W)

    flux = g * du
    net = flux[1:] - flux[:-1] + cell_int
    rbar = 0.5 * (g[:-1] + g[1:])
    mask = g[:-1] >= _RESIDUAL_AUDIT_RMIN
    if not np.any(mask):
        mask = slice(len(h) // 2, None)
    return float(np.max(np.abs(net[mask]) / (h[mask] * rbar[mask])))
