"""Numerical settings shared across the package.

All tolerances live here so that every entry point (library calls, the
CLI, the verification battery) draws defaults from a single place.  Every
field is an accuracy target; the gates a result must pass, and sizes and
caps, are constants beside the code they drive.  ``Settings`` is immutable
and checks its fields on construction; use :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
import math

from .errors import UsageError


@dataclass(frozen=True)
class Settings:
    """Tolerances of the solvers, quadratures and eigenvalue routines.

    Each must be finite and positive (rtol may be 0), or UsageError.

    Attributes
    ----------
    rtol, atol:
        Relative / absolute tolerance of the adaptive ODE integrators: the
        profile's initial value problem and the oscillation counts.  atol
        also sets the radius where the profile's integration leaves the
        origin series.
    truncation_tol:
        Allowed size of the transformed potential at the cut-off.
    eig_tol:
        Target accuracy of negative eigenvalues: values are accepted when
        successive Richardson extrapolants agree within
        eig_tol * (1 + |lambda|).
    quad_rel_tol:
        Relative tolerance of the adaptive quadrature used for quadratic
        forms.
    """

    rtol: float = 1e-10
    atol: float = 1e-12
    truncation_tol: float = 1e-10
    eig_tol: float = 1e-8
    quad_rel_tol: float = 1e-10

    def __post_init__(self):
        # a NaN or negative tolerance would stall a step-size control or
        # run a refinement to its finest level before anything failed
        for f in fields(self):
            value, zero_ok = getattr(self, f.name), f.name == "rtol"
            if not (math.isfinite(value)
                    and (value > 0.0 or zero_ok and value == 0.0)):
                raise UsageError(f"{f.name} must be finite and "
                                 f"{'>= 0' if zero_ok else '> 0'}, got {value}",
                                 {f.name: value})


DEFAULT = Settings()
