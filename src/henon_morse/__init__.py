"""Nodal radial solutions of the 2-D Henon equation and their Morse indices."""

from .config import DEFAULT, Settings
from .errors import (
    HenonMorseError,
    NonConvergenceError,
    SchemaError,
    ThresholdTieError,
    TwoRouteError,
    UsageError,
    VerificationError,
)
from .morse import (
    MorseReport,
    assemble_morse,
    check_lower_bounds,
    large_exponent_probe,
    solve_point,
    sweep_from_reports,
)
from .radial import (
    HenonParams,
    RadialProfile,
    ShootingTrajectory,
    evaluate_profile,
    integrate_ivp,
    solve_nodal,
    validate_profile,
)
from .spectrum import (
    RadialSpectrum,
    SchrodingerProblem,
    build_schrodinger,
    mode_negative_count,
    negative_spectrum,
    radial_morse_index,
)
from .transform import (
    TestFunction,
    default_battery,
    quadratic_form,
    quadratic_forms,
    transform_solution,
    verify_form_comparison,
)
from .verify import GRIDS, run_battery

__version__ = "0.1.0"
