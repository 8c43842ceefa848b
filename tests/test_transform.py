"""Tests for the power map, the solution correspondence, and the
quadratic-form comparison machinery."""

import math

import numpy as np
import pytest

from henon_morse import HenonParams, UsageError, evaluate_profile, solve_nodal
from henon_morse import transform
from henon_morse.radial import evaluate_u, output_grid
from henon_morse.transform import (
    TestFunction,
    adaptive_quadrature,
    default_battery,
    quadratic_form,
    quadratic_forms,
    transform_solution,
    verify_form_comparison,
)


def dirichlet_energy(w):
    """Oracle: the Dirichlet energy of w = g(r) cos(k theta) over the unit
    disk, c_k int_0^1 [g'^2 + k^2 g^2 / r^2] r dr with c_0 = 2 pi and
    c_k = pi for k >= 1."""
    k2 = float(w.angular_mode**2)

    def integrand(r):
        dg = w.dg(r)
        val = (dg * dg) * r
        if k2:
            g = w.g(r)
            val = val + k2 * (g * g) / r
        return val

    c_k = 2.0 * np.pi if w.angular_mode == 0 else np.pi
    return c_k * adaptive_quadrature(integrand, [1e-13, 1.0])[0]


def first_nodal_truncation(profile):
    """Oracle: the profile's own restriction to its first nodal set,
    extended by 0.  A classical negative direction for the quadratic form:
    since the restriction solves the equation on its nodal set, Q evaluates
    to 2 pi (1 - p) int r^(1+alpha) |u|^(p+1) < 0 for p > 1."""
    z1 = float(profile.nodal_radii[0])

    def g(r):
        r = np.asarray(r, dtype=float)
        u, _ = evaluate_profile(profile, r)
        return np.where(r < z1, u, 0.0)

    def dg(r):
        r = np.asarray(r, dtype=float)
        _, du = evaluate_profile(profile, r)
        return np.where(r < z1, du, 0.0)

    return TestFunction(name="first_nodal_restriction", angular_mode=0, g=g, dg=dg)


@pytest.fixture(scope="module")
def profile_032():
    return solve_nodal(HenonParams(0.0, 3.0, 2))


def test_transform_identity_when_beta_equals_alpha(profile_032):
    same = transform_solution(profile_032, 0.0)
    grid = output_grid(profile_032)
    assert np.allclose(evaluate_u(same, grid), evaluate_u(profile_032, grid),
                       rtol=0, atol=1e-12 * profile_032.amp)
    assert same.amp == pytest.approx(profile_032.amp, rel=1e-14)


def test_transform_central_value_factor(profile_032):
    # kappa = (2+2)/(0+2) = 2, amplitude factor kappa^(2/(p-1)) = 2 for p = 3
    tr = transform_solution(profile_032, 2.0)
    assert tr.amp == pytest.approx(2.0 * profile_032.amp, rel=1e-12)
    assert tr.params.alpha == 2.0
    assert tr.params.n_nodal == 2
    # nodal radii map as z -> z^(1/kappa)
    assert tr.nodal_radii[0] == pytest.approx(math.sqrt(profile_032.nodal_radii[0]), rel=1e-12)


@pytest.mark.parametrize("beta", [1.0, 4.0])
def test_transform_matches_direct_solve(profile_032, beta):
    # Independent oracle: solve the beta-problem directly and compare.
    tr = transform_solution(profile_032, beta)
    direct = solve_nodal(HenonParams(beta, 3.0, 2))
    grid = output_grid(direct)
    u_t, u_d = evaluate_u(tr, grid), evaluate_u(direct, grid)
    scale = np.max(np.abs(u_d))
    assert np.max(np.abs(u_t - u_d)) / scale <= 1e-6
    assert tr.amp == pytest.approx(direct.amp, rel=1e-8)


def test_transform_round_trip(profile_032):
    back = transform_solution(transform_solution(profile_032, 4.0), 0.0)
    grid = output_grid(profile_032)
    u_b, u_0 = evaluate_u(back, grid), evaluate_u(profile_032, grid)
    scale = np.max(np.abs(u_0))
    assert np.max(np.abs(u_b - u_0)) / scale <= 1e-9


def test_default_battery_structure():
    battery = default_battery()
    assert len(battery) == 16
    names = {w.name for w in battery}
    assert names == {"sin_pi_r", "r_one_minus_r", "sin_2pi_r", "r2_one_minus_r"}
    for w in battery:
        assert 0 <= w.angular_mode <= 3
        assert abs(float(w.g(np.array([1.0]))[0])) < 1e-12
        if w.angular_mode >= 1:
            assert float(w.g(np.array([0.0]))[0]) == 0.0


def test_adaptive_quadrature_on_closed_forms():
    # smooth: int_0^1 sin(pi r) dr = 2/pi
    val = adaptive_quadrature(lambda r: np.sin(np.pi * r), [0.0, 1.0])
    assert val.shape == (1,)
    assert val[0] == pytest.approx(2.0 / np.pi, rel=1e-12)
    # endpoint power singularity in the derivative: int_0^1 r^0.4 dr
    val = adaptive_quadrature(lambda r: r**0.4, [1e-13, 1.0])
    assert val[0] == pytest.approx(1.0 / 1.4, rel=1e-9)


def test_dirichlet_energy_closed_forms():
    battery = default_battery()
    w = next(w for w in battery if w.name == "r_one_minus_r" and w.angular_mode == 0)
    # 2 pi int (1-2r)^2 r dr = 2 pi / 6
    assert dirichlet_energy(w) == pytest.approx(np.pi / 3.0, rel=1e-10)
    w1 = next(w for w in battery if w.name == "r_one_minus_r" and w.angular_mode == 1)
    # g = r^2(1-r): pi [ int (2r-3r^2)^2 r dr + int r^3 (1-r)^2 dr ] = pi (1/10 + 1/60)
    assert dirichlet_energy(w1) == pytest.approx(np.pi * (1.0 / 10.0 + 1.0 / 60.0), rel=1e-10)


def test_quadratic_form_zero_function(profile_032):
    w = TestFunction(name="zero", angular_mode=0,
                     g=lambda r: np.zeros_like(r), dg=lambda r: np.zeros_like(r))
    assert quadratic_form(profile_032, w) == 0.0


def test_quadratic_form_refinement_stable(profile_032, monkeypatch):
    w = default_battery()[0]  # sin_pi_r, k=0
    q = quadratic_form(profile_032, w)
    monkeypatch.setattr(transform, "_QUAD_REL_TOL", transform._QUAD_REL_TOL / 100.0)
    q_ref = quadratic_form(profile_032, w)
    assert abs(q - q_ref) <= 1e-9 * (1.0 + abs(q_ref))


def test_first_nodal_truncation_is_negative_direction(profile_032):
    w = first_nodal_truncation(profile_032)
    q = quadratic_form(profile_032, w)
    assert q < 0.0
    # Closed form via the equation: Q = 2 pi (1-p) p^{0}... the restriction
    # solves the equation on its nodal set, so
    # Q = 2 pi (1 - p) int_0^{z1} r^(1+alpha) |u|^(p+1) dr.
    p = profile_032.params.p
    alpha = profile_032.params.alpha
    z1 = profile_032.nodal_radii[0]

    def integrand(r):
        u, _ = evaluate_profile(profile_032, r)
        return r ** (1.0 + alpha) * np.abs(u) ** (p + 1.0)

    ref = 2.0 * np.pi * (1.0 - p) * adaptive_quadrature(integrand, [1e-13, z1])[0]
    assert q == pytest.approx(ref, rel=1e-7)


def test_test_function_validation(profile_032):
    bad = TestFunction(name="bad", angular_mode=0,
                       g=lambda r: np.ones_like(r), dg=lambda r: np.zeros_like(r))
    with pytest.raises(UsageError):
        quadratic_form(profile_032, bad)
    bad_k = TestFunction(name="bad_k", angular_mode=1,
                         g=lambda r: 1.0 - r, dg=lambda r: -np.ones_like(r))
    with pytest.raises(UsageError):
        quadratic_form(profile_032, bad_k)
    with pytest.raises(UsageError):
        TestFunction(name="neg", angular_mode=-1,
                     g=lambda r: r, dg=lambda r: np.ones_like(r))


def test_form_comparison_identity_at_equal_exponents(profile_032):
    rows = verify_form_comparison(profile_032, [0.0])
    assert all(row["pass"] for row in rows)
    assert all(row["beta"] == row["alpha"] == 0.0 for row in rows)
    for w, row in zip(default_battery(), rows):
        q_alpha = quadratic_form(profile_032, w)
        assert abs(row["slack"]) <= 1e-7 * (1.0 + abs(q_alpha))


@pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
def test_form_comparison_holds(profile_032, beta):
    rows = verify_form_comparison(profile_032, [beta])
    assert all(row["pass"] for row in rows)
    for w, row in zip(default_battery(), rows):
        tol = 1e-7 * (1.0 + abs(quadratic_form(profile_032, w)))
        if row["k"] == 0:
            assert abs(row["slack"]) <= tol
        else:
            assert row["slack"] >= -tol


def test_form_comparison_gap_formula(profile_032):
    # For w = g cos(k theta) the two sides differ by exactly
    # (kappa - 1/kappa) * pi * k^2 * int g^2 / r dr.
    # The k = 1 and k = 3 rows of the full battery are checked.
    beta = 2.0
    kappa = 2.0
    rows = verify_form_comparison(profile_032, [beta])
    pairs = [(w, row) for w, row in zip(default_battery(), rows)
             if row["k"] in (1, 3)]
    assert len(pairs) == 8
    for w, row in pairs:
        gap = adaptive_quadrature(lambda r, w=w: w.g(r) ** 2 / r, [1e-13, 1.0])[0]
        predicted = (kappa - 1.0 / kappa) * np.pi * row["k"]**2 * gap
        assert row["slack"] == pytest.approx(predicted, rel=1e-6)


def test_form_comparison_requires_beta_at_least_alpha():
    prof = solve_nodal(HenonParams(2.0, 3.0, 1))
    with pytest.raises(UsageError):
        verify_form_comparison(prof, [1.0])
    with pytest.raises(UsageError):
        verify_form_comparison(prof, [2.0, 1.0])


def test_form_comparison_computes_each_form_once(profile_032, monkeypatch):
    # one 16-member quadrature on the alpha side, one more for beta = 2;
    # beta = 0 = alpha reuses the alpha side (one per pair would make 64)
    calls = []

    def counting(profile, members, *args, **kwargs):
        calls.append(len(members))
        return quadratic_forms(profile, members, *args, **kwargs)

    monkeypatch.setattr(transform, "quadratic_forms", counting)
    rows = verify_form_comparison(profile_032, [0.0, 2.0])
    assert calls == [16, 16]
    assert len(rows) == 32
    assert [row["beta"] for row in rows] == [0.0] * 16 + [2.0] * 16
    assert list(rows[0]) == ["alpha", "beta", "g_name", "k", "slack", "pass"]


def test_form_comparison_equal_exponents_have_zero_slack(profile_032):
    rows = verify_form_comparison(profile_032, [0.0, 1.0])
    same = [row for row in rows if row["beta"] == row["alpha"]]
    assert len(same) == 16
    assert all(row["slack"] == 0.0 for row in same)


def test_gradient_identity_and_bounds():
    # Radial identity: energy(g(r^kappa)) = kappa * energy(g); nonradial
    # members obey two-sided bounds with constants min/max(kappa, 1/kappa).
    battery = default_battery()
    for kappa in (0.5, 2.0):
        for w in battery[:8]:
            e_base = dirichlet_energy(w)
            e_comp = dirichlet_energy(w.compose_radial(kappa))
            if w.angular_mode == 0:
                assert e_comp == pytest.approx(kappa * e_base, rel=1e-9)
            else:
                lo = min(kappa, 1.0 / kappa) * e_base
                hi = max(kappa, 1.0 / kappa) * e_base
                assert lo - 1e-9 * (1 + hi) <= e_comp <= hi + 1e-9 * (1 + hi)


@pytest.fixture(scope="module")
def profile_sublinear_nodal():
    # p < 3: |u|^(p-1) has kinks at the nodal radii, which are breakpoints
    return solve_nodal(HenonParams(1.0, 2.0, 3))


@pytest.mark.parametrize("fixture", ["profile_032", "profile_sublinear_nodal"])
def test_quadratic_forms_match_per_member_forms(fixture, request):
    profile = request.getfixturevalue(fixture)
    battery = default_battery()
    shared = quadratic_forms(profile, battery)
    assert len(shared) == len(battery)
    for w, q in zip(battery, shared):
        single = quadratic_form(profile, w)
        assert abs(q - single) <= transform._QUAD_REL_TOL * (1.0 + abs(single)), w


def test_quadratic_forms_check_every_member(profile_032):
    bad = TestFunction(name="one", angular_mode=0,
                       g=lambda r: np.ones_like(r), dg=lambda r: np.zeros_like(r))
    with pytest.raises(UsageError, match="g\\(1\\)"):
        quadratic_forms(profile_032, [default_battery()[0], bad])


def test_quadrature_rows_each_meet_their_tolerance():
    # rows of very different size: the small row keeps its own share
    def rows(r):
        return np.stack([1e6 * np.sin(np.pi * r), np.sqrt(r), r**3])

    vals = adaptive_quadrature(rows, [0.0, 1.0])
    exact = np.array([2e6 / np.pi, 2.0 / 3.0, 0.25])
    assert np.all(np.abs(vals - exact) <= 1e-10 * (1.0 + np.abs(exact)))
