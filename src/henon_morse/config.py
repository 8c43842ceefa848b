"""Numerical settings shared across the package.

All tolerances live here so that every entry point (library calls, the
CLI, the verification battery) draws defaults from a single place.  Every
field is a tolerance; sizes and caps that no caller needs to set are
constants beside the code they drive.  ``Settings`` is immutable; use
:func:`dataclasses.replace` to derive a modified copy.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Settings:
    """Tolerances of the solvers, quadratures and eigenvalue routines.

    Attributes
    ----------
    rtol, atol:
        Relative / absolute tolerance of the adaptive ODE integrators: the
        profile's initial value problem and the oscillation counts.  atol
        also sets the radius where the profile's integration leaves the
        origin series.
    boundary_tol:
        Maximum allowed |u(1)| after rescaling.
    residual_tol:
        Allowed cell-averaged ODE residual, relative to max|u|^p.
    truncation_tol:
        Allowed size of the transformed potential at the cut-off.
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
    """

    rtol: float = 1e-10
    atol: float = 1e-12
    boundary_tol: float = 1e-9
    residual_tol: float = 1e-6
    truncation_tol: float = 1e-10
    eig_tol: float = 1e-8
    quad_rel_tol: float = 1e-10
    form_tol: float = 1e-7


DEFAULT = Settings()
