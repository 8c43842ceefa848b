"""Tests for the radial nodal solver.

The reference values frozen here were computed with the fixed-step RK4
oracle below (steps h = 1e-4 and 5e-5 agree to ~5e-12; see
``rk4_zeros``), which shares no code with the production integrator.
The loop-form DOP853 stepper ``loop_dop853`` and the list-built output
grid ``list_output_grid`` are the references of the production stepper's
generated straight-line stages and of its precomputed grid, which must
reproduce them bit for bit.
"""

import math
from dataclasses import replace
from functools import reduce
from operator import add, mul
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, solve_ivp

import henon_morse.radial as radial_mod
from henon_morse import (
    DEFAULT,
    HenonParams,
    NonConvergenceError,
    RadialProfile,
    UsageError,
    evaluate_profile,
    integrate_ivp,
    solve_nodal,
    validate_profile,
)
from henon_morse.radial import evaluate_u, output_grid, u_reader

# Zeros of the trajectory with u(0) = 1, from the RK4 oracle.
ZERO1_A0_P3 = 3.5739009819    # first zero, alpha = 0, p = 3
ZERO2_A0_P3 = 12.2870432098   # second zero, alpha = 0, p = 3
ZERO1_A1_P2 = 2.6778135354    # first zero, alpha = 1, p = 2


def _floats(a) -> tuple:
    return tuple(float(x) for x in a)


# The DOP853 tableau, as Python floats.  Row s of ``_A`` holds the s weights
# of stage s on the stages before it; each ``_A_EXTRA`` row likewise, for
# the three stages the dense output adds after the step's 13 (12 plus the
# derivative at the new point).
_C = _floats(DOP853.C)
_A = tuple(_floats(row[:s]) for s, row in enumerate(DOP853.A))
_B = _floats(DOP853.B)
_E3 = _floats(DOP853.E3)
_E5 = _floats(DOP853.E5)
_C_EXTRA = _floats(DOP853.C_EXTRA)
_A_EXTRA = tuple(_floats(row[:s]) for s, row in
                 enumerate(DOP853.A_EXTRA, start=DOP853.n_stages + 1))
_D = tuple(_floats(row) for row in DOP853.D)
_STAGES = tuple(zip(_A[1:], _C[1:]))


def dot(a, k):
    """sum(map(mul, a, k)) as ``sum`` adds floats up to Python 3.11: from
    the integer 0, left to right, uncompensated."""
    return reduce(add, map(mul, a, k), 0)


def loop_dop853(alpha, p, r, u, v, r_bound, rtol, atol, n, context):
    """``radial._dop853`` with its step arithmetic written as loops: every
    stage, error sum and dense-output row a dot product over a full tableau
    row."""
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
        if len(knots) > radial_mod._MAX_IVP_STEPS:
            raise NonConvergenceError(
                f"ODE integration took more than {radial_mod._MAX_IVP_STEPS} steps",
                dict(context, r=r))
        min_step = 10.0 * (math.nextafter(r, math.inf) - r)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise NonConvergenceError(
                    "ODE integration failed: Required step size is less "
                    "than spacing between numbers.",
                    dict(context, r=r, min_step=min_step))
            r_new = min(r + h_abs, r_bound)
            h = r_new - r
            h_abs = h
            ku, kv = [v], [fv]
            try:
                for a, c in _STAGES:
                    us = u + dot(a, ku) * h
                    vs = v + dot(a, kv) * h
                    ku.append(vs)
                    kv.append(rate(r + c * h, us, vs))
                u_new = u + h * dot(_B, ku)
                v_new = v + h * dot(_B, kv)
                ku.append(v_new)
                kv.append(rate(r + h, u_new, v_new))
                su = atol + max(abs(u), abs(u_new)) * rtol
                sv = atol + max(abs(v), abs(v_new)) * rtol
                e5u = dot(_E5, ku) / su
                e5v = dot(_E5, kv) / sv
                e3u = dot(_E3, ku) / su
                e3v = dot(_E3, kv) / sv
                err5 = e5u * e5u + e5v * e5v
                err3 = e3u * e3u + e3v * e3v
                if err5 == 0.0 and err3 == 0.0:
                    error_norm = 0.0
                else:
                    error_norm = h * err5 / math.sqrt((err5 + 0.01 * err3) * 2.0)
            except OverflowError:
                error_norm = math.inf
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = radial_mod._MAX_FACTOR
                else:
                    factor = min(radial_mod._MAX_FACTOR, radial_mod._SAFETY
                                 * error_norm**radial_mod._ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(radial_mod._MIN_FACTOR, radial_mod._SAFETY
                         * error_norm**radial_mod._ERROR_EXPONENT)
            rejected = True

        for a, c in zip(_A_EXTRA, _C_EXTRA):
            us = u + dot(a, ku) * h
            vs = v + dot(a, kv) * h
            ku.append(vs)
            kv.append(rate(r + c * h, us, vs))
        du, dv = u_new - u, v_new - v
        Fu = (du, h * v - du, 2.0 * du - h * (v_new + v),
              *(h * dot(row, ku) for row in _D))
        Fv = (dv, h * fv - dv, 2.0 * dv - h * (kv[12] + fv),
              *(h * dot(row, kv) for row in _D))
        coef.append((u, *Fu))
        coef.append((v, *Fv))
        knots.append(r_new)

        root = radial_mod._step_zero(r, r_new, u, u_new, Fu)
        if root is not None:
            zeros.append(root)
            if len(zeros) == n:
                break
        r, u, v, fv = r_new, u_new, v_new, kv[12]
    return knots, coef, zeros


def ivp_outcome(alpha, p, n, stepper=None):
    """The bytes of ``integrate_ivp``'s knots, power-form coefficients of U
    and U' and zeros, or the message and context of its
    NonConvergenceError; ``stepper`` replaces ``radial._dop853``."""
    with pytest.MonkeyPatch.context() as mp:
        if stepper is not None:
            mp.setattr(radial_mod, "_dop853", stepper)
        try:
            traj = integrate_ivp(alpha, p, n)
        except NonConvergenceError as err:
            return str(err), err.context
    return tuple(np.ascontiguousarray(a).tobytes()
                 for a in (traj._knots, traj._coef[0], traj._coef[1], traj.zeros))


def trajectory_value(traj, r):
    """(U, U') of a trajectory at an array of radii."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    return traj._component(r, 0), traj._component(r, 1)


def rk4_zeros(alpha, p, r_end, h, nzeros):
    """Independent oracle: classical RK4 with fixed step; zeros refined by
    bisection, each candidate evaluated by short RK4 runs from the left
    bracket state."""

    def f(r, y):
        u, v = y
        return np.array([v, -v / r - r**alpha * abs(u) ** (p - 1.0) * u])

    def step(r, y, h):
        k1 = f(r, y)
        k2 = f(r + h / 2, y + h / 2 * k1)
        k3 = f(r + h / 2, y + h / 2 * k2)
        k4 = f(r + h, y + h * k3)
        return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    eps = 1e-6
    y = np.array([1.0 - eps ** (alpha + 2) / (alpha + 2) ** 2,
                  -(eps ** (alpha + 1)) / (alpha + 2)])
    r = eps
    zeros = []
    while r < r_end and len(zeros) < nzeros:
        y_new = step(r, y, h)
        if y[0] * y_new[0] < 0:
            a_r, a_y = r, y.copy()
            b_r = r + h
            for _ in range(80):
                m_r = 0.5 * (a_r + b_r)
                ym, rr, hh = a_y.copy(), a_r, (m_r - a_r) / 8
                for _ in range(8):
                    ym = step(rr, ym, hh)
                    rr += hh
                if a_y[0] * ym[0] < 0:
                    b_r = m_r
                else:
                    a_r, a_y = m_r, ym
                if b_r - a_r < 1e-13 * max(1.0, m_r):
                    break
            zeros.append(0.5 * (a_r + b_r))
        r += h
        y = y_new
    return np.array(zeros)


def test_oracle_reproduces_frozen_zeros():
    z = rk4_zeros(0.0, 3.0, 14.0, 5e-4, 2)
    assert z[0] == pytest.approx(ZERO1_A0_P3, abs=5e-9)
    assert z[1] == pytest.approx(ZERO2_A0_P3, abs=2e-8)


def test_trajectory_zeros_match_oracle():
    traj = integrate_ivp(0.0, 3.0, 2)
    assert traj.zeros[0] == pytest.approx(ZERO1_A0_P3, rel=1e-9)
    assert traj.zeros[1] == pytest.approx(ZERO2_A0_P3, rel=1e-9)
    traj = integrate_ivp(1.0, 2.0, 1)
    assert traj.zeros[0] == pytest.approx(ZERO1_A1_P2, rel=1e-9)


def test_central_value_follows_power_rescaling():
    # d = (n-th zero)^((alpha+2)/(p-1)); for alpha=0, p=3 the exponent is 1.
    prof = solve_nodal(HenonParams(0.0, 3.0, 2))
    assert prof.amp == pytest.approx(ZERO2_A0_P3, rel=1e-9)
    assert prof.nodal_radii[0] == pytest.approx(ZERO1_A0_P3 / ZERO2_A0_P3, rel=1e-9)
    prof = solve_nodal(HenonParams(1.0, 2.0, 1))
    assert prof.amp == pytest.approx(ZERO1_A1_P2 ** 3.0, rel=1e-8)


@pytest.mark.parametrize("alpha,p,n", [
    (0.0, 3.0, 1), (0.0, 3.0, 2), (0.5, 5.0, 3), (2.0, 3.0, 2),
    (6.0, 2.0, 3), (1.0, 2.0, 2), (4.0, 5.0, 1),
])
def test_profile_invariants(alpha, p, n):
    prof = solve_nodal(HenonParams(alpha, p, n))
    grid = output_grid(prof)
    u, du = evaluate_profile(prof, grid)
    assert u[0] == prof.amp > 1.0
    assert du[0] == 0.0
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert prof.nodal_radii.shape == (n,)
    assert prof.nodal_radii[-1] == 1.0
    assert np.all(np.diff(prof.nodal_radii) > 0)
    # interior nodal radii are exact grid nodes
    for z in prof.nodal_radii[:-1]:
        assert z in grid
    scale = np.max(np.abs(u))
    assert abs(u[-1]) <= 1e-9 * max(1.0, scale)
    # signs alternate on nodal intervals, positive innermost
    edges = np.concatenate(([0.0], prof.nodal_radii))
    mids = 0.5 * (edges[:-1] + edges[1:])
    mid_u, _ = evaluate_profile(prof, mids)
    assert np.all(np.sign(mid_u) == (-1.0) ** np.arange(n))
    # validated residual
    assert validate_profile(prof) <= 1e-6 * scale**p


def test_residual_detects_broken_rescaling():
    # Scaling closure: v(r) = mu^((alpha+2)/(p-1)) U(mu r) solves the same
    # equation for any mu; a wrong amplitude must trip the residual.  mu is
    # U's zero, so the good amplitude passes the boundary check as well.
    alpha, p = 1.0, 3.0
    traj = integrate_ivp(alpha, p, 1)
    mu = traj.r_end
    amp = mu ** ((alpha + 2.0) / (p - 1.0))

    def profile(a):
        return RadialProfile(
            params=HenonParams(alpha, p, 1), trajectory=traj, amp=a, mu=mu,
            kappa=1.0, nodal_radii=np.array([1.0]), tolerances={})

    scale = np.max(np.abs(evaluate_u(profile(amp), output_grid(profile(amp)))))
    assert validate_profile(profile(amp)) <= 1e-6 * scale**p
    with pytest.raises(NonConvergenceError) as err:
        validate_profile(profile(amp * 1.001))
    assert err.value.context["residual"] > 100 * 1e-6 * scale**p


def test_validate_profile_reads_one_grid(monkeypatch):
    """One audit builds the output grid once and returns its residual."""
    prof = solve_nodal(HenonParams(0.5, 5.0, 3))
    calls = []
    real = radial_mod.output_grid

    def counting(profile):
        calls.append(profile)
        return real(profile)

    monkeypatch.setattr(radial_mod, "output_grid", counting)
    resid = validate_profile(prof)
    assert calls == [prof]
    assert type(resid) is float and 0.0 <= resid


def test_audit_rule_is_numpys_gauss_legendre_rule():
    """The audit's 5-point rule on [0, 1], held as literals, is numpy's
    ``leggauss(5)`` mapped by (1 + x) / 2 and w / 2, bit for bit."""
    x, w = np.polynomial.legendre.leggauss(5)
    assert radial_mod._GAUSS_X.tobytes() == (0.5 * (1.0 + x)).tobytes()
    assert radial_mod._GAUSS_W.tobytes() == (0.5 * w).tobytes()


def test_loose_tolerance_cannot_loosen_the_audit_gate():
    """rtol = 1e-3 integrates (0, 3, 2) too coarsely for the fixed residual
    gate 1e-6 max|u|^p, max|u| = d close to the second zero; the solve is
    refused with the audited values, not returned."""
    with pytest.raises(NonConvergenceError) as err:
        solve_nodal(HenonParams(0.0, 3.0, 2), replace(DEFAULT, rtol=1e-3))
    assert err.value.message.startswith("profile validation failed")
    assert err.value.context["residual"] > 100 * 1e-6 * ZERO2_A0_P3**3
    assert "boundary_value" in err.value.context


def test_evaluate_profile_matches_trajectory_between_nodes():
    params = HenonParams(0.5, 5.0, 2)
    prof = solve_nodal(params)
    traj = integrate_ivp(params.alpha, params.p, 2)
    mu = traj.zeros[1]
    amp = mu ** ((params.alpha + 2.0) / (params.p - 1.0))
    # probe strictly between grid nodes
    grid = output_grid(prof)
    r = 0.5 * (grid[100:-1:97] + grid[101::97])
    u_i, du_i = evaluate_profile(prof, r)
    u_t, du_t = trajectory_value(traj, mu * r)
    scale = np.max(np.abs(evaluate_u(prof, grid)))
    assert np.max(np.abs(u_i - amp * u_t)) <= 1e-9 * scale
    assert np.max(np.abs(du_i - amp * mu * du_t)) <= 1e-7 * scale


def test_evaluate_profile_scalar_and_bounds():
    # one radius at a time, as a one-element array
    prof = solve_nodal(HenonParams(0.0, 3.0, 1))
    u0, du0 = evaluate_profile(prof, np.array([0.0]))
    assert u0[0] == prof.amp and du0[0] == 0.0
    with pytest.raises(UsageError):
        evaluate_profile(prof, np.array([1.5]))
    with pytest.raises(UsageError):
        evaluate_profile(prof, np.array([-0.2]))


def test_large_power_concentration():
    # For large p the inner nodal radius collapses toward the origin; the
    # geometric tail of the audit grid must still resolve it.
    prof = solve_nodal(HenonParams(0.0, 50.0, 2))
    assert prof.nodal_radii[0] < 1e-4
    assert prof.nodal_radii[0] > radial_mod._GRID_GEO_RMIN
    validate_profile(prof)


def test_parameter_validation():
    with pytest.raises(UsageError):
        HenonParams(-0.5, 3.0, 1)
    with pytest.raises(UsageError):
        HenonParams(0.0, 1.0, 1)
    with pytest.raises(UsageError):
        HenonParams(0.0, 3.0, 0)


def test_nodal_count_is_any_integer_but_a_bool():
    """A numpy integer is a nodal count, stored as an int; a bool is not."""
    params = HenonParams(0.0, 3.0, np.int64(2))
    assert type(params.n_nodal) is int and params.n_nodal == 2
    with pytest.raises(UsageError):
        HenonParams(0.0, 3.0, True)


@pytest.mark.parametrize("alpha,p,n", [
    (0.0, 1.001, 1), (20.0, 1.01, 3), (0.0, 1.002475, 1)])
def test_overflowing_amplitude_is_refused(alpha, p, n):
    """As p -> 1 the central value d = zeta^((alpha+2)/(p-1)) leaves the
    float64 range, and at (0, 1.002475, 1) d is finite but d^p, the scale
    of the residual gate, is not: each is refused with log10 d."""
    with pytest.raises(NonConvergenceError) as err:
        solve_nodal(HenonParams(alpha, p, n))
    context = err.value.context
    assert (context["alpha"], context["p"], context["n_nodal"]) == (alpha, p, n)
    assert p * context["log10_d"] * math.log(10.0) > math.log(np.finfo(float).max)


def test_validate_profile_refuses_an_overflowing_scale():
    """A profile whose max|u| is finite but whose max|u|^p is not is
    refused before the residual gate forms that power."""
    profile = replace(solve_nodal(HenonParams(0.0, 3.0, 1)), amp=1e300)
    with pytest.raises(NonConvergenceError) as err:
        validate_profile(profile)
    assert err.value.context["log10_d"] == pytest.approx(300.0)


def test_trajectory_value_below_series_start():
    traj = integrate_ivp(0.0, 3.0, 1)
    u, du = trajectory_value(traj, 0.0)
    assert u[0] == 1.0 and du[0] == 0.0
    r = 1e-8  # inside the series region
    u, du = trajectory_value(traj, r)
    assert u[0] == pytest.approx(1.0 - r**2 / 4.0, rel=1e-12)


def test_series_start_follows_atol():
    """Integration leaves the origin series at the largest radius up to
    1e-6 whose neglected term c2 eps^(2 alpha + 4) is at most
    100 atol."""
    default = solve_nodal(HenonParams(0.0, 3.0, 2))
    assert default.trajectory._eps == 1e-6
    tight = solve_nodal(HenonParams(0.0, 3.0, 2), replace(DEFAULT, atol=1e-30))
    eps = tight.trajectory._eps
    c2 = 3.0 / (2.0**2 * 4.0**2)  # p c1 / (2 alpha + 4)^2
    bound = 100.0 * 1e-30
    assert eps < 1e-6
    # the largest such radius, up to the rounding of its fourth root
    assert 0.99 * bound <= c2 * eps**4 <= bound * (1.0 + 1e-12)
    assert np.allclose(tight.nodal_radii, default.nodal_radii, rtol=1e-9)
    assert tight.amp == pytest.approx(default.amp, rel=1e-9)


@pytest.mark.parametrize("rtol, atol", [(1e-10, 0.0), (1e-10, -1e-12),
                                        (1e-10, math.nan), (math.nan, 1e-12),
                                        (-1e-10, 1e-12)])
def test_bad_ode_tolerances_are_usage(rtol, atol):
    # a NaN tolerance used to stall the step-size control for good
    with pytest.raises(UsageError):
        integrate_ivp(0.0, 3.0, 1, replace(DEFAULT, rtol=rtol, atol=atol))


def test_evaluate_u_is_the_u_of_evaluate_profile():
    prof = solve_nodal(HenonParams(0.5, 3.0, 2))
    r = np.linspace(0.0, 1.0, 1001)
    u, _ = evaluate_profile(prof, r)
    assert np.array_equal(evaluate_u(prof, r), u)
    one = np.array([0.25])
    assert evaluate_u(prof, one) == evaluate_profile(prof, one)[0]
    with pytest.raises(UsageError):
        evaluate_u(prof, np.array([1.5]))


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.5), (0.0, 3.0), (2.0, 0.0)])
def test_profile_reads_the_mapped_trajectory(alpha, beta):
    """u(r) = amp U(mu r^kappa) and u'(r) = amp mu kappa r^(kappa-1)
    U'(mu r^kappa), with u'(0) = 0 also for kappa < 1, after the power map;
    the scalar reader of route C gives the same u."""
    from henon_morse.transform import transform_solution

    prof = transform_solution(solve_nodal(HenonParams(alpha, 3.0, 2)), beta)
    assert prof.kappa == (beta + 2.0) / (alpha + 2.0)
    r = np.concatenate(([0.0, 1e-9], np.linspace(0.001, 1.0, 500)))
    x = prof.mu * r**prof.kappa
    big_u, big_du = trajectory_value(prof.trajectory, x)
    u, du = evaluate_profile(prof, r)
    assert np.array_equal(u, prof.amp * big_u)
    expected = prof.amp * prof.mu * prof.kappa * r[1:] ** (prof.kappa - 1.0) * big_du[1:]
    assert np.allclose(du[1:], expected, rtol=1e-14, atol=0.0)
    assert du[0] == 0.0 and u[0] == prof.amp
    reader = u_reader(prof)
    scalar = np.array([reader(float(x)) for x in r])
    assert np.allclose(scalar, u, rtol=0.0, atol=1e-13 * prof.amp)


class TestDop853Kernel:
    """The radial DOP853 stepper against scipy's general-purpose one."""

    @staticmethod
    def scipy_reference(alpha, p, n, r_max=1e12):
        eps = radial_mod._MAX_SERIES_START
        y0 = (1.0 - eps ** (alpha + 2) / (alpha + 2) ** 2,
              -(eps ** (alpha + 1)) / (alpha + 2))

        def rhs(r, y):
            return (y[1], -y[1] / r - r**alpha * np.abs(y[0]) ** (p - 1) * y[0])

        def crossing(r, y):
            return y[0]

        crossing.terminal = n
        with np.errstate(over="ignore", invalid="ignore"):
            return solve_ivp(rhs, (eps, r_max), y0, method="DOP853",
                             rtol=DEFAULT.rtol, atol=DEFAULT.atol,
                             dense_output=True, events=(crossing,))

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("p", [1.8, 3.0, 5.0])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.5])
    def test_matches_solve_ivp(self, alpha, p, n):
        ref = self.scipy_reference(alpha, p, n)
        traj = integrate_ivp(alpha, p, n)
        z_ref = ref.t_events[0]
        assert traj.zeros.shape == (n,)
        assert np.allclose(traj.zeros, z_ref, rtol=1e-9, atol=0.0)
        assert traj.r_end == traj.zeros[-1]
        r = np.linspace(radial_mod._MAX_SERIES_START, traj.r_end, 2001)
        u, du = trajectory_value(traj, r)
        u_ref, du_ref = ref.sol(r)
        assert np.max(np.abs(u - u_ref)) <= 1e-9 * np.max(np.abs(u_ref))
        assert np.max(np.abs(du - du_ref)) <= 1e-9 * np.max(np.abs(du_ref))

    def test_overflowing_trial_step_is_rejected(self):
        # At (20, 20) a trial step near r = 4.5 overflows |u|^(p-1) in
        # Python floats; numpy gives inf there, which rejects the step.
        r_max = math.exp(600.0 / 22.0)
        ref = self.scipy_reference(20.0, 20.0, 6, r_max)
        traj = integrate_ivp(20.0, 20.0, 6)
        assert np.allclose(traj.zeros, ref.t_events[0], rtol=1e-9, atol=0.0)
        assert traj._knots.size == ref.t.size

    def test_value_on_step_ends_and_past_a_terminal_zero(self):
        prof = solve_nodal(HenonParams(0.0, 3.0, 2))
        traj = prof.trajectory
        ends = traj._knots[1:-1]
        u, du = trajectory_value(traj, ends)
        # the interpolants of the steps on either side of an end meet there
        u_left, _ = trajectory_value(traj, np.nextafter(ends, 0.0))
        assert np.max(np.abs(u - u_left)) <= 1e-12
        # the terminal zero lies inside the last step, not at its end
        assert traj._knots[-2] < traj.r_end <= traj._knots[-1]
        assert abs(trajectory_value(traj, traj.r_end)[0][0]) <= 1e-12
        trajectory_value(traj, traj.r_end * (1 + 1e-13))
        # a radius past the terminal zero is refused where radii enter: the
        # profile map sends r = 1.01 to 1.01 r_end
        with pytest.raises(UsageError):
            evaluate_profile(prof, np.array([1.01]))

    def test_zero_on_a_step_end_is_reported_once(self, monkeypatch):
        # a sign change inside a step is located on its interpolant; F0 is
        # the step's increment, so F = (-2, 0, ...) is the line 1 - 2x
        line = (-2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert radial_mod._step_zero(1.0, 2.0, 1.0, -1.0, line) == 1.5
        assert radial_mod._step_zero(1.0, 2.0, 1.0, 0.5, line) is None

        def no_brentq(*args, **kwargs):
            raise AssertionError("an exact zero needs no root search")

        monkeypatch.setattr(radial_mod, "_brentq", no_brentq)
        # a step that ends on an exact zero reports its end ...
        assert radial_mod._step_zero(1.0, 2.0, 1.0, 0.0, line) == 2.0
        assert radial_mod._step_zero(1.0, 2.0, -1.0, -0.0, line) == 2.0
        # ... and the next step, which starts there, reports nothing
        for u_new in (-1.0, 1.0, 0.0):
            root = radial_mod._step_zero(2.0, 3.0, 0.0, u_new, line)
            assert root is None or (u_new == 0.0 and root == 3.0)

    def test_tableau_shape(self):
        # the committed tableau that the straight-line stages are generated
        # from is scipy's, cut as laid out here (tests/test_scipy_pins.py);
        # a change of layout must fail
        assert DOP853.n_stages == 12
        assert DOP853.A.shape == (12, 12) and DOP853.B.shape == (12,)
        assert DOP853.C.shape == (12,)
        assert DOP853.E3.shape == DOP853.E5.shape == (13,)
        assert DOP853.A_EXTRA.shape == (3, 16) and DOP853.C_EXTRA.shape == (3,)
        assert DOP853.D.shape == (4, 16)
        # stage s reads its row left of column s; what lies right of it
        # must be zero, or the committed rows would drop a term
        assert not np.triu(DOP853.A).any()
        for s, row in enumerate(DOP853.A_EXTRA, start=13):
            assert not row[s:].any()
        # stages returns (u, v, v') at the new point, the four error sums
        # and the 24 slopes of stages 1-12; dense returns the D rows' sums
        step = radial_mod._stages(1.0, 1.0, -0.5, 0.5, 1e-3, 0.0, 2.0)
        assert len(step) == 8 and len(step[-1]) == 24
        dense = radial_mod._dense(1.0, 1.0, -0.5, 0.5, 1e-3, step[-1], 0.0, 2.0)
        assert len(dense) == 2 * DOP853.D.shape[0]

    def test_step_size_underflow_raises_with_context(self):
        # rtol far below the arithmetic's precision; the tiny atol moves
        # the series start far in, near 1e-75
        tight = replace(DEFAULT, rtol=1e-40, atol=1e-300)
        with pytest.raises(NonConvergenceError) as err:
            integrate_ivp(0.0, 3.0, 2, tight)
        assert "Required step size is less than spacing" in str(err.value)
        context = err.value.context
        assert context["alpha"] == 0.0 and context["p"] == 3.0
        assert context["n_nodal"] == 2
        assert context["r_max"] == math.exp(radial_mod._SHOOT_TMAX)
        assert 1e-80 <= context["r"] < 14.0
        assert 0.0 < context["min_step"] < 1e-14 * max(1.0, context["r"])

    def test_overflowing_initial_step_raises(self):
        # with rtol = 0 and atol = 1e-300 the initial-step norms overflow
        # and give a NaN step; the step guard must refuse it, not loop
        tight = replace(DEFAULT, rtol=0.0, atol=1e-300)
        with pytest.raises(NonConvergenceError) as err:
            integrate_ivp(0.0, 3.0, 1, tight)
        assert "Required step size is less than spacing" in str(err.value)

    def test_step_budget_raises(self, monkeypatch):
        monkeypatch.setattr(radial_mod, "_MAX_IVP_STEPS", 10)
        with pytest.raises(NonConvergenceError) as err:
            integrate_ivp(0.0, 3.0, 2)
        assert "more than 10 steps" in str(err.value)
        assert 0.0 < err.value.context["r"] < ZERO1_A0_P3

    def test_power_form_is_the_nested_interpolant(self):
        """``_power_form`` expands scipy's nested DOP853 interpolant
        y_old + x (F0 + (1-x) (F1 + x (F2 + ...))) into powers of r - r_i;
        on a step's start it returns y_old exactly."""
        knots = np.array([1.0, 1.5, 3.0])
        coef = np.random.default_rng(3).normal(size=(2, 8))
        power = radial_mod._power_form(knots, coef)

        def poly(r):
            return radial_mod._power_sum(knots, power, r)

        x = np.linspace(0.0, 1.0, 11)[:-1]
        for i in range(2):
            nested = np.zeros_like(x)
            for k, f in enumerate(coef[i, :0:-1]):  # F6 first, as scipy
                nested += f
                nested *= x if k % 2 == 0 else 1.0 - x
            nested += coef[i, 0]
            got = poly(knots[i] + (knots[i + 1] - knots[i]) * x)
            assert np.allclose(got, nested, rtol=0.0, atol=1e-13)
        assert np.array_equal(poly(knots[:-1]), coef[:, 0])


# A spread of the benchmark's point tuples (alpha, p, n), and the tuples
# with the longest zero hunt (0, 50, 3), an overflowing trial step
# (20, 20, 6), p near 1 (0, 1.05, 2) and (2.05, 1.83, 3), and six zeros.
STRAIGHT_LINE_TUPLES = [
    (0.0, 2.0, 1), (0.5, 3.0, 2), (1.0, 4.0, 3), (1.5, 5.0, 1),
    (2.5, 2.0, 2), (3.0, 5.0, 3), (4.0, 3.0, 1), (6.0, 2.0, 3),
    (0.0, 50.0, 3), (20.0, 20.0, 6), (0.0, 1.05, 2), (2.05, 1.83, 3),
    (0.0, 3.0, 6),
]


class TestStraightLineStep:
    """The generated straight-line stages against the loop form: the
    trajectories must be bit-identical, since the generated sums keep the
    loop's left-to-right order and drop only exact-zero terms."""

    @pytest.mark.parametrize("alpha, p, n", STRAIGHT_LINE_TUPLES)
    def test_matches_the_loop_form_bit_for_bit(self, alpha, p, n):
        got = ivp_outcome(alpha, p, n)
        assert len(got) == 4  # a trajectory, not a refusal
        assert got == ivp_outcome(alpha, p, n, loop_dop853)

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(alpha=st.floats(0.0, 20.0),
           p=st.floats(1.0, 60.0, exclude_min=True),
           n=st.integers(1, 6))
    def test_matches_the_loop_form_across_the_envelope(self, alpha, p, n):
        assert ivp_outcome(alpha, p, n) == ivp_outcome(alpha, p, n, loop_dop853)


def list_output_grid(nodal_radii) -> np.ndarray:
    """The output grid built node by node in a list, the reference of
    ``output_grid``: uniform nodes, the geometric tail and then each
    interior nodal radius replacing its left or right node or inserted."""
    uniform = np.linspace(0.0, 1.0, radial_mod._GRID_POINTS)
    spacing = 1.0 / (radial_mod._GRID_POINTS - 1)
    n_geo = int(math.ceil(math.log(spacing / radial_mod._GRID_GEO_RMIN)
                          / radial_mod._GRID_GEO_STEP))
    geo = radial_mod._GRID_GEO_RMIN * np.exp(radial_mod._GRID_GEO_STEP
                                             * np.arange(n_geo))
    pts = [0.0, *geo[geo < 0.75 * spacing], *uniform[1:]]
    for z in nodal_radii[:-1]:
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


class TestOutputGrid:
    """``output_grid`` against the list construction, one branch at a time."""

    SPACING = 1.0 / 2048
    NODE = 1000 / 2048  # a uniform node
    TAIL = float(radial_mod._GRID[100])  # a node of the geometric tail

    @pytest.mark.parametrize("radii, added", [
        ([NODE + 0.1 * SPACING], 0),   # replaces its left node
        ([NODE - 0.1 * SPACING], 0),   # replaces its right node
        ([NODE + 0.5 * SPACING], 1),   # inserted mid-cell
        ([TAIL * 1.01], 0),            # in the geometric tail, replacing
        ([TAIL * 1.05], 1),            # in the geometric tail, inserted
        # the second radius replaces the first, inserted one cell before
        ([NODE + 0.5 * SPACING, NODE + 0.55 * SPACING], 1),
        ([2e-9, 0.25 + 0.3 * SPACING, 0.75 - 0.01 * SPACING], 1),
        ([], 0),
    ])
    def test_matches_the_list_construction(self, radii, added):
        nodal = np.array([*radii, 1.0])
        grid = output_grid(SimpleNamespace(nodal_radii=nodal))
        expected = list_output_grid(nodal)
        assert grid.tobytes() == expected.tobytes()
        assert grid.size == radial_mod._GRID.size + added
        assert np.isin(nodal[-2:], grid).all()
        assert np.all(np.diff(grid) > 0)

    @pytest.mark.parametrize("radii", [[], [0.3, 0.6]])
    def test_a_written_grid_leaves_the_next_one_alone(self, radii):
        profile = SimpleNamespace(nodal_radii=np.array([*radii, 1.0]))
        grid = output_grid(profile)
        grid[:] = -1.0
        assert output_grid(profile).tobytes() == \
            list_output_grid(profile.nodal_radii).tobytes()


def test_too_few_zeros_within_shoot_tmax(monkeypatch):
    # log r capped at 1.5 (r <= 4.48): the second zero, at 12.29, is beyond
    monkeypatch.setattr(radial_mod, "_SHOOT_TMAX", 1.5)
    with pytest.raises(NonConvergenceError) as err:
        solve_nodal(HenonParams(0.0, 3.0, 2))
    assert "only 1 zeros found" in str(err.value)
    assert err.value.context["zeros_found"] == 1
    assert err.value.context["n_nodal"] == 2
