"""Numerical settings shared across the package.

All tolerances live here so that every entry point (library calls, the
CLI, the verification battery) draws defaults from a single place.  Every
field is an accuracy target, and what follows from one (the potential's
cut-off, the series start radius) is worked out from it; the gates a result
must pass, and sizes and caps, are constants beside the code they drive.
``Settings`` is immutable and checks its fields on construction; use
:func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from .errors import UsageError

_EPS = math.ulp(1.0)  # float64 epsilon, 2^-52


@dataclass(frozen=True)
class Settings:
    """Tolerances of the solvers and eigenvalue routines.

    Each must be finite and positive, or UsageError; rtol may be 0, and
    eig_tol, a relative accuracy, may not be below the float64 epsilon.

    Attributes
    ----------
    rtol, atol:
        Relative / absolute tolerance of the adaptive ODE integrators: the
        profile's initial value problem, and the oscillation counts, whose
        tolerance ladder ``spectrum.confirm_counts`` scales from them; that
        function and the constants beside it own the ladder's numbers: its
        scales (``_COARSE`` first), its cap ``_LOOSEST`` and its stopping
        margin ``_MIN_MARGIN``.  atol also sets the radius where the
        profile's integration leaves the origin series.
    eig_tol:
        Target accuracy of negative eigenvalues: values are accepted when
        successive Richardson extrapolants agree within
        eig_tol * (1 + |lambda|).  The potential is cut off where
        |V| <= eig_tol / 100.
    """

    rtol: float = 1e-10
    atol: float = 1e-12
    eig_tol: float = 1e-8

    def __post_init__(self):
        # a NaN or negative tolerance would stall a step-size control or
        # run a refinement to its finest level before anything failed
        for name, ok, rule in (
                ("rtol", self.rtol >= 0.0, ">= 0"),
                ("atol", self.atol > 0.0, "> 0"),
                ("eig_tol", self.eig_tol >= _EPS, f">= {_EPS!r}")):
            value = getattr(self, name)
            if not (math.isfinite(value) and ok):
                raise UsageError(f"{name} must be finite and {rule}, "
                                 f"got {value}", {name: value})


DEFAULT = Settings()
