"""Numerical settings shared across the package.

All tolerances and discretization sizes live here so that every entry point
(library calls, the CLI, the verification battery) draws defaults from a
single place.  ``Settings`` is immutable; use :func:`dataclasses.replace` to
derive a modified copy.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Settings:
    """Knobs for the solvers, quadratures and eigenvalue routines.

    Attributes
    ----------
    rtol, atol:
        Relative / absolute tolerance of the adaptive ODE integrators: the
        profile's initial value problem and the oscillation counts.
    series_start_radius:
        Radius at which integration starts from the origin series.
    root_tol:
        Tolerance for locating zeros of the shooting trajectory.
    boundary_tol:
        Maximum allowed |u(1)| after rescaling.
    residual_tol:
        Allowed cell-averaged ODE residual, relative to max|u|^p.
    truncation_tol:
        Allowed size of the transformed potential at the cut-off.
    schrodinger_intervals:
        Base number M of uniform subintervals for the log-variable
        eigenvalue problem (refined adaptively from there).
    eig_tol:
        Target accuracy of negative eigenvalues: values are accepted when
        successive Richardson extrapolants agree within
        eig_tol * (1 + |lambda|).
    quad_rel_tol:
        Relative tolerance of the adaptive quadrature used for quadratic
        forms.
    form_tol:
        Comparison tolerance for quadratic-form identities, relative to
        1 + |Q|.
    shoot_tmax:
        Cap on log(r) for the zero hunt of the shooting trajectory.
    """

    rtol: float = 1e-10
    atol: float = 1e-12
    series_start_radius: float = 1e-6
    root_tol: float = 1e-12
    boundary_tol: float = 1e-9
    residual_tol: float = 1e-6
    truncation_tol: float = 1e-10
    schrodinger_intervals: int = 8192
    eig_tol: float = 1e-8
    quad_rel_tol: float = 1e-10
    form_tol: float = 1e-7
    shoot_tmax: float = 46.0


DEFAULT = Settings()
