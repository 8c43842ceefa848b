"""The power map between weighted problems and its quadratic-form comparison.

For kappa > 0 the radial power map sends r to r^kappa.  Composing a nodal
solution of the problem with weight exponent alpha with this map produces,
after an exact amplitude factor, the nodal solution with exponent
beta = kappa*(alpha+2) - 2:

    u_beta(s) = kappa^(2/(p-1)) * u_alpha(s^kappa),

with the same number of nodal sets and nodal radii mapped as z -> z^(1/kappa).

The map also controls quadratic forms.  With w = g(r) cos(k theta) and
w_kappa = g(r^kappa) cos(k theta), the form

    Q(w) = int_B |grad w|^2 - p int_B |x|^alpha |u|^(p-1) w^2

satisfies Q_beta(w_kappa) <= kappa * Q_alpha(w) for beta >= alpha, with
equality for radial w (k = 0).  This module computes both sides by
independent 1-D quadrature after angular reduction,

    Q = c_k * int_0^1 [ g'^2 + k^2 g^2 / r^2 - p r^alpha |u|^(p-1) g^2 ] r dr,

with c_0 = 2 pi and c_k = pi for k >= 1.  ``quadratic_forms`` computes
the forms of a whole battery at one profile by a single adaptive
quadrature, evaluating u once per round for every member.
``verify_form_comparison`` takes one alpha profile and every beta >= alpha
at once: one quadrature gives every Q_alpha(w), the profile is transformed
once per beta != alpha and one more quadrature gives every Q_beta(w_kappa)
there, and at beta = alpha (kappa = 1, where both sides are the same
number) Q_alpha(w) is reused.  It judges each pair by the fixed gate
``_FORM_TOL``, each form computed to the fixed ``_QUAD_REL_TOL`` 1000x
under it, and returns plain row dicts, the battery's form-comparison rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NonConvergenceError, UsageError, integer_at_least
from .radial import HenonParams, RadialProfile, central_value, evaluate_u, validate_profile

__all__ = [
    "TestFunction",
    "transform_solution",
    "quadratic_form",
    "quadratic_forms",
    "verify_form_comparison",
    "default_battery",
    "adaptive_quadrature",
]

# Quadrature starts at a small inset rather than 0: the k >= 1 integrand
# g^2/r has a removable singularity there (g(0) = 0), and the inset avoids
# evaluating the limit.  The neglected mass is below inset * sup|integrand|.
_QUAD_INSET = 1e-13
# Most bisection rounds of ``adaptive_quadrature``.
_MAX_QUAD_ROUNDS = 60
# The gate of ``verify_form_comparison``: how far the two sides of a form
# comparison may miss, relative to 1 + |Q_alpha(w)|.
_FORM_TOL = 1e-7
# Relative tolerance of the quadratures behind that gate, 1000x under it.
_QUAD_REL_TOL = 1e-10


@dataclass(frozen=True)
class TestFunction:
    """Separated test function w(r, theta) = g(r) cos(k theta).

    ``g`` and ``dg`` must accept numpy arrays.  Requirements: g(1) = 0, and
    g(0) = 0 whenever the angular mode k >= 1 (otherwise w is discontinuous
    at the origin).
    """

    __test__ = False  # not a pytest test class, despite the name

    name: str
    angular_mode: int
    g: Callable = field(compare=False)
    dg: Callable = field(compare=False)

    def __post_init__(self):
        object.__setattr__(self, "angular_mode",
                           integer_at_least(self.angular_mode, 0, "angular_mode"))

    def compose_radial(self, kappa: float) -> "TestFunction":
        """Radial composition with the power map: g(r) becomes g(r^kappa)."""
        base_g, base_dg = self.g, self.dg

        def g(r):
            return base_g(np.asarray(r, dtype=float) ** kappa)

        def dg(r):
            r = np.asarray(r, dtype=float)
            return kappa * r ** (kappa - 1.0) * base_dg(r**kappa)

        return TestFunction(name=self.name, angular_mode=self.angular_mode, g=g, dg=dg)


def _check_test_function(w: TestFunction) -> None:
    g1 = float(np.atleast_1d(w.g(np.array([1.0])))[0])
    if abs(g1) > 1e-10:
        raise UsageError(f"test function {w.name!r} has g(1) = {g1:.3e}, expected 0")
    if w.angular_mode >= 1:
        g0 = float(np.atleast_1d(w.g(np.array([0.0])))[0])
        if abs(g0) > 1e-10:
            raise UsageError(
                f"test function {w.name!r} with k >= 1 has g(0) = {g0:.3e}, expected 0")


def default_battery() -> list[TestFunction]:
    """The fixed 16-member battery: four named radial shapes crossed with
    angular modes k = 0..3; the k >= 1 members carry an extra factor r so
    that g(0) = 0."""
    pi = np.pi
    bases = [
        ("sin_pi_r", lambda r: np.sin(pi * r), lambda r: pi * np.cos(pi * r)),
        ("r_one_minus_r", lambda r: r * (1.0 - r), lambda r: 1.0 - 2.0 * r),
        ("sin_2pi_r", lambda r: np.sin(2 * pi * r), lambda r: 2 * pi * np.cos(2 * pi * r)),
        ("r2_one_minus_r", lambda r: r**2 * (1.0 - r), lambda r: 2.0 * r - 3.0 * r**2),
    ]
    battery = []
    for name, g, dg in bases:
        for k in range(4):
            if k == 0:
                battery.append(TestFunction(name=name, angular_mode=0, g=g, dg=dg))
            else:
                battery.append(TestFunction(
                    name=name, angular_mode=k,
                    g=(lambda r, g=g: r * g(r)),
                    dg=(lambda r, g=g, dg=dg: g(r) + r * dg(r)),
                ))
    return battery


def adaptive_quadrature(f: Callable, breakpoints) -> np.ndarray:
    """Adaptive Simpson integration over [breakpoints[0], breakpoints[-1]]
    at the relative tolerance ``_QUAD_REL_TOL``.

    Classic bisection-based adaptive Simpson with Richardson correction,
    processed as a worklist so the integrand is always evaluated on batched
    arrays.  Intervals are accepted when the two-level Simpson discrepancy
    is below 15x their tolerance share; tolerances halve with each split.

    ``f`` maps n radii to K rows of n values (a 1-D result is one row), and
    the result is an array of K integrals on one shared node set.  Each row
    has its own tolerance share, and an interval is accepted only when
    every row meets its share, so each integral is at least as accurate as
    its own one-row call.  Raises NonConvergenceError if the worklist fails
    to drain.
    """
    bp = np.asarray(breakpoints, dtype=float)
    if bp.size < 2 or np.any(np.diff(bp) <= 0):
        raise UsageError("breakpoints must be strictly increasing with >= 2 entries")

    def rows(x):
        return np.asarray(f(x), dtype=float).reshape(-1, x.size)

    a = bp[:-1].copy()
    b = bp[1:].copy()
    m = 0.5 * (a + b)
    fa, fm, fb = rows(a), rows(m), rows(b)
    s = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    scale = 1.0 + np.abs(np.sum(s, axis=1))
    tol = np.repeat((_QUAD_REL_TOL * scale / a.size)[:, None], a.size, axis=1)
    tol_floor = (1e-17 * scale)[:, None]

    total = np.zeros(scale.size)
    for _ in range(_MAX_QUAD_ROUNDS):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        fv = rows(np.concatenate([lm, rm]))
        flm, frm = fv[:, : a.size], fv[:, a.size:]
        sl = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        sr = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = sl + sr - s
        done = np.all(np.abs(err) <= 15.0 * tol, axis=0) | ((b - a) < 1e-14)
        total += np.sum((sl + sr + err / 15.0)[:, done], axis=1)
        if np.all(done):
            return total
        keep = ~done
        half_tol = np.maximum(0.5 * tol[:, keep], tol_floor)
        a = np.concatenate([a[keep], m[keep]])
        b = np.concatenate([m[keep], b[keep]])
        fa = np.concatenate([fa[:, keep], fm[:, keep]], axis=1)
        fb = np.concatenate([fm[:, keep], fb[:, keep]], axis=1)
        m = np.concatenate([lm[keep], rm[keep]])
        fm = np.concatenate([flm[:, keep], frm[:, keep]], axis=1)
        s = np.concatenate([sl[:, keep], sr[:, keep]], axis=1)
        tol = np.concatenate([half_tol, half_tol], axis=1)
        if a.size * scale.size > 1_000_000:
            break
    raise NonConvergenceError(
        "adaptive quadrature failed to converge",
        {"pending_intervals": int(a.size), "rel_tol": _QUAD_REL_TOL},
    )


def _form_breakpoints(profile: RadialProfile) -> np.ndarray:
    pts = [_QUAD_INSET]
    pts.extend(float(z) for z in profile.nodal_radii[:-1] if z > _QUAD_INSET)
    pts.append(1.0)
    return np.unique(np.asarray(pts))


def _angular_constant(k: int) -> float:
    return 2.0 * np.pi if k == 0 else np.pi


def quadratic_forms(profile: RadialProfile, members) -> list[float]:
    """The quadratic form of the linearization at ``profile``, at every
    test function of ``members``, in order.

    Angular reduction brings each form to a 1-D integral over [0, 1] with
    weight r.  All of them are evaluated by one adaptive quadrature on a
    shared node set, so u is evaluated once per round for every member.
    The nodal radii are forced breakpoints: |u|^(p-1) loses smoothness at
    the zeros of u whenever p < 3.  The target is ``_QUAD_REL_TOL``.
    """
    members = list(members)
    for w in members:
        _check_test_function(w)
    alpha = profile.params.alpha
    p = profile.params.p

    def integrand(r):
        u = evaluate_u(profile, r)
        weight = p * r ** (1.0 + alpha) * np.abs(u) ** (p - 1.0)
        out = np.empty((len(members), r.size))
        for row, w in zip(out, members):
            g = w.g(r)
            dg = w.dg(r)
            row[:] = (dg * dg) * r - weight * (g * g)
            if w.angular_mode:
                row += float(w.angular_mode**2) * (g * g) / r
        return out

    integrals = adaptive_quadrature(integrand, _form_breakpoints(profile))
    return [_angular_constant(w.angular_mode) * float(q)
            for w, q in zip(members, integrals)]


def quadratic_form(profile: RadialProfile, w: TestFunction) -> float:
    """The quadratic form of the linearization at ``profile``, at w: the
    one-member case of :func:`quadratic_forms`."""
    return quadratic_forms(profile, [w])[0]


def transform_solution(profile: RadialProfile, beta: float) -> RadialProfile:
    """Map a nodal solution with exponent alpha to the one with exponent beta.

    Exact correspondence: with kappa = (beta+2)/(alpha+2),

        u_beta(s) = kappa^(2/(p-1)) * u_alpha(s^kappa),

    nodal radii map as z -> z^(1/kappa), and the nodal count is preserved.
    The result reads the same trajectory as ``profile``: its amplitude is
    multiplied by kappa^(2/(p-1)) and its exponent kappa by kappa, with no
    resampling.  It passes the same fixed gates as any computed profile,
    ``radial.central_value`` first.
    """
    if not (beta >= 0.0 and math.isfinite(beta)):
        raise UsageError(f"beta must be finite and >= 0, got {beta}")
    alpha = profile.params.alpha
    p = profile.params.p
    kappa = (beta + 2.0) / (alpha + 2.0)
    params = HenonParams(beta, p, profile.params.n_nodal)

    nodal = profile.nodal_radii ** (1.0 / kappa)
    nodal[-1] = 1.0
    new = RadialProfile(
        params=params,
        trajectory=profile.trajectory,
        amp=central_value(params, kappa, 2.0 / (p - 1.0), profile.amp),
        mu=profile.mu,
        kappa=kappa * profile.kappa,
        nodal_radii=nodal,
        tolerances=dict(profile.tolerances),
    )
    validate_profile(new)
    return new


def verify_form_comparison(profile_alpha: RadialProfile, betas) -> list[dict]:
    """Check Q_beta(w_kappa) <= kappa * Q_alpha(w) over the 16 members of
    ``default_battery``, for every beta in ``betas``.

    Every beta must be >= alpha.  One ``quadratic_forms`` call gives
    Q_alpha(w) for every battery member on the input profile; the profile
    is transformed once per beta != alpha, and one more call gives
    Q_beta(w_kappa) on it with the composed test functions.  At
    beta = alpha (kappa = 1) the profile and the test function are the
    same, so Q_alpha(w) serves as both sides.  For radial
    members (k = 0) the two sides must agree within tolerance; for k >= 1
    the inequality must hold with slack bounded below by -tolerance.
    Tolerance per member is the fixed ``_FORM_TOL`` * (1 + |Q_alpha(w)|).

    Returns one row {"alpha", "beta", "g_name", "k", "slack", "pass"} per
    (beta, member), beta-major in the order given.
    """
    alpha = profile_alpha.params.alpha
    betas = list(betas)
    for beta in betas:
        if beta < alpha - 1e-12:
            raise UsageError(
                f"the comparison requires beta >= alpha, got beta={beta}, alpha={alpha}")
    battery = default_battery()
    q_alpha = quadratic_forms(profile_alpha, battery)

    rows = []
    for beta in betas:
        kappa = (beta + 2.0) / (alpha + 2.0)
        q_beta = q_alpha if abs(kappa - 1.0) < 1e-14 else quadratic_forms(
            transform_solution(profile_alpha, beta),
            [w.compose_radial(kappa) for w in battery])
        for w, q_a, q_b in zip(battery, q_alpha, q_beta):
            tol = _FORM_TOL * (1.0 + abs(q_a))
            slack = kappa * q_a - q_b
            ok = abs(slack) <= tol if w.angular_mode == 0 else slack >= -tol
            rows.append({"alpha": alpha, "beta": beta, "g_name": w.name,
                         "k": w.angular_mode, "slack": slack, "pass": bool(ok)})
    return rows
