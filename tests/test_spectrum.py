"""Tests for the negative spectrum of the singular linearized operator.

The headline values are frozen from an independent oracle: a generalized
P1 finite-element eigensolve of

    A psi = lambda B psi,   A = stiffness - p r^(1+alpha) |u|^(p-1) mass,
                            B = mass with weight 1/r^2,

assembled in r-coordinates on a geometric mesh and solved by bisection on
the inertia of A - sigma B.  That route shares nothing with the production
path (log-variable substitution, mass-lumped P1 on nested meshes with the
nodal corners as nodes and a hat-averaged potential, Richardson
extrapolation), so agreement pins down both.

Frozen reference values for alpha=0, p=3, two nodal domains, computed by
the oracle below with mesh ratios 1.01/1.005 plus Richardson extrapolation
(oracle gave -14.77002086, -0.90797063; production route agrees to ~1e-7):

    lambda_1 = -14.77002261
    lambda_2 = -0.9079707
"""

import gc
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

import henon_morse.spectrum as spectrum
from henon_morse import HenonParams, evaluate_profile, solve_nodal
from henon_morse.config import DEFAULT
from henon_morse.errors import NonConvergenceError, UsageError
from henon_morse.radial import RadialProfile, integrate_ivp
from henon_morse.spectrum import (
    SchrodingerProblem,
    build_schrodinger,
    fd_negative_eigenvalues,
    mode_negative_count,
    negative_spectrum,
    oscillation_counts,
    radial_morse_index,
    tridiagonal_negative_inertia,
)

LAMBDA_A0_P3_N2 = (-14.77002261, -0.9079707)

# 4-point Gauss-Legendre on [0, 1] for the oracle's element integrals.
_GX = 0.5 * (1.0 + np.array([-0.8611363115940526, -0.3399810435848563,
                             0.3399810435848563, 0.8611363115940526]))
_GW = 0.5 * np.array([0.3478548451374538, 0.6521451548625461,
                      0.6521451548625461, 0.3478548451374538])


def ldlt_negative_count(diag, off):
    """Oracle: negative-eigenvalue count by a pure-Python LDL^T recursion.

    The signs of the pivots d_i = a_i - b_{i-1}^2 / d_{i-1} count the
    negative eigenvalues; a pivot within pivmin of zero is replaced by
    +-pivmin in the next division.  An exact zero pivot is not counted but
    divides as -pivmin, which miscounts it when a nonzero off-diagonal
    follows (see ``test_exact_zero_pivot_counts_like_dense_solver``).
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    if diag.size == 0:
        return 0
    pivmin = 1e-30 * max(1.0, float(np.max(off**2))) if off.size else 1e-300
    count = 0
    d = float(diag[0])
    if d < 0.0:
        count += 1
    for i in range(1, diag.size):
        denom = d if abs(d) > pivmin else math.copysign(pivmin, d if d != 0.0 else -1.0)
        d = float(diag[i]) - float(off[i - 1]) ** 2 / denom
        if d < 0.0:
            count += 1
    return count


def pencil_negative_eigenvalues(profile, ratio, rmin=1e-7):
    """Oracle: negative eigenvalues of the singular pencil in r-coordinates.

    Consistent-mass P1 elements on a geometric mesh, Dirichlet at both
    ends; each negative eigenvalue is located by bisection on the inertia
    of A - sigma B (an LDL^T pivot-sign count, written out locally so the
    oracle stays independent of the package's own inertia helper).
    """
    alpha, p = profile.params.alpha, profile.params.p
    step = math.log(ratio)
    n = int(math.ceil(-math.log(rmin) / step))
    nodes = np.exp(-step * np.arange(n + 1))[::-1].copy()
    nodes[-1] = 1.0
    for z in profile.nodal_radii[:-1]:
        nodes = np.insert(nodes, np.searchsorted(nodes, z), z)
    h = np.diff(nodes)
    stiff = (nodes[:-1] + nodes[1:]) / (2.0 * h)
    pts = nodes[:-1, None] + h[:, None] * _GX
    u, _ = evaluate_profile(profile, pts.ravel())
    w_a = -p * pts ** (1.0 + alpha) * np.abs(u.reshape(pts.shape)) ** (p - 1.0)
    w_b = 1.0 / pts
    phi_l, phi_r = 1.0 - _GX, _GX

    def accumulate(w):
        ll = h * ((w * phi_l**2) @ _GW)
        lr = h * ((w * phi_l * phi_r) @ _GW)
        rr = h * ((w * phi_r**2) @ _GW)
        diag = np.zeros(nodes.size)
        diag[:-1] += ll
        diag[1:] += rr
        return diag, lr

    diag_a, off_a = accumulate(w_a)
    diag_a[:-1] += stiff
    diag_a[1:] += stiff
    off_a = off_a - stiff
    diag_b, off_b = accumulate(w_b)
    diag_a, off_a = diag_a[1:-1], off_a[1:-1]
    diag_b, off_b = diag_b[1:-1], off_b[1:-1]

    def inertia(sigma):
        d = diag_a - sigma * diag_b
        o = off_a - sigma * off_b
        pivmin = 1e-30 * max(1.0, float(np.max(o * o)))
        count, x = 0, d[0]
        if x < 0.0:
            count += 1
        for i in range(1, d.size):
            den = x if abs(x) > pivmin else math.copysign(pivmin, x or -1.0)
            x = d[i] - o[i - 1] ** 2 / den
            if x < 0.0:
                count += 1
        return count

    rr = np.linspace(1e-6, 1.0, 20001)
    uu, _ = evaluate_profile(profile, rr)
    lo = float(np.min(-p * rr ** (alpha + 2.0) * np.abs(uu) ** (p - 1.0)))
    lo = lo * 1.001 - 1e-6
    eigs = []
    for j in range(1, inertia(0.0) + 1):
        a, b = lo, 0.0
        for _ in range(80):
            mid = 0.5 * (a + b)
            if inertia(mid) >= j:
                b = mid
            else:
                a = mid
        eigs.append(0.5 * (a + b))
    return np.array(sorted(eigs))


@pytest.fixture(scope="module")
def profile_032():
    return solve_nodal(HenonParams(alpha=0.0, p=3.0, n_nodal=2))


@pytest.fixture(scope="module")
def spectrum_032(profile_032):
    return negative_spectrum(build_schrodinger(profile_032))


@pytest.fixture(scope="module")
def profile_053():
    return solve_nodal(HenonParams(alpha=0.0, p=5.0, n_nodal=3))


@pytest.fixture(scope="module")
def well():
    return SchrodingerProblem.from_potential(
        math.pi, 512, lambda t: np.full_like(np.asarray(t, float), -5.0))


def zero_profile(alpha=0.0, p=3.0):
    """A profile object whose amplitude is so small that its potential
    p r^(alpha+2) |u|^(p-1) underflows to zero, for testing the
    zero-potential plumbing of the oscillation counts."""
    return RadialProfile(
        params=HenonParams(alpha=alpha, p=p, n_nodal=1),
        trajectory=integrate_ivp(alpha, p, 1),
        amp=1e-200,
        mu=1.0,
        kappa=1.0,
        nodal_radii=np.array([1.0]),
        tolerances={},
    )


class TestPencilOracle:
    def test_oracle_reproduces_frozen_values(self, profile_032):
        coarse = pencil_negative_eigenvalues(profile_032, 1.01)
        fine = pencil_negative_eigenvalues(profile_032, 1.005)
        assert coarse.size == fine.size == 2
        extrapolated = (4.0 * fine - coarse) / 3.0
        for got, want in zip(extrapolated, LAMBDA_A0_P3_N2):
            assert got == pytest.approx(want, rel=1e-4)

    def test_production_route_matches_frozen_values(self, spectrum_032):
        assert spectrum_032.lambdas.size == 2
        for got, want in zip(spectrum_032.lambdas, LAMBDA_A0_P3_N2):
            assert got == pytest.approx(want, rel=1e-4)


class TestSquareWell:
    """Finite square well V = -5 on [-pi, 0]: the Dirichlet eigenvalues are
    k^2 - 5 exactly, so the negative ones are -4 and -1."""

    def test_extrapolated_eigenvalues_exact(self, well):
        spec = negative_spectrum(well)
        exact = np.array([-4.0, -1.0])
        assert np.all(np.abs(spec.lambdas - exact)
                      <= spec.eig_tol * (1.0 + np.abs(exact)))

    def test_raw_errors_quarter_per_doubling(self, well):
        exact = np.array([-4.0, -1.0])
        errors = [np.abs(fd_negative_eigenvalues(well, M) - exact)
                  for M in (512, 1024, 2048)]
        for prev, cur in zip(errors, errors[1:]):
            ratio = prev / cur
            assert np.all(ratio > 3.6) and np.all(ratio < 4.4)

    def test_raw_accuracy_at_default_mesh(self, well):
        """M = 8192 is the mesh criterion 8 checks, a rung every ladder
        from the base mesh visits; the bound does not follow the base."""
        got = fd_negative_eigenvalues(well, 8192)
        assert np.all(np.abs(got - np.array([-4.0, -1.0])) <= 1e-6)

    def test_sturm_count_matches_located_eigenvalues(self, well):
        M = 512
        t = np.linspace(-well.T, 0.0, M + 1)
        h = well.T / M
        v = np.asarray(well.potential(t[1:-1]), dtype=float)
        diag = 2.0 / h**2 + v
        off = np.full(M - 2, -1.0 / h**2)
        w = fd_negative_eigenvalues(well, M)
        for shift in (-6.0, -2.5, -0.5, 0.0):
            count = tridiagonal_negative_inertia(diag - shift, off)
            assert count == int(np.sum(w < shift))

    def test_no_stabilization_reports_the_last_discrepancy(self, well):
        with pytest.raises(NonConvergenceError) as err:
            negative_spectrum(well, replace(DEFAULT, eig_tol=1e-15))
        context = err.value.context
        assert context["finest_M"] == 512 * 2**spectrum._MAX_EIG_LEVELS
        assert context["last_counts"] == 2
        assert 1e-15 < context["last_discrepancy"] < 1e-6

    def test_a_pair_is_accepted_on_its_discrepancy(self, well, monkeypatch):
        """The ladder accepts on discrepancy <= eig_tol, the test the tie
        guard reuses a spectrum by.  On this ladder the extrapolant pair's
        discrepancy is eig_tol itself, while the elementwise product
        eig_tol * (1 + |rich|) rounds below the gap."""
        levels = iter([np.array([-1.0776683114342298]),
                       np.array([-1.0770553081331768]),
                       np.array([-1.0769019167312834])])
        monkeypatch.setattr(spectrum, "fd_negative_eigenvalues",
                            lambda problem, M, guess=None: next(levels))
        tol = 9.024986694030702e-08
        spec = negative_spectrum(well, replace(DEFAULT, eig_tol=tol))
        assert spec.M == 4 * well.M
        assert spec.discrepancy == tol

    def test_zero_potential_has_empty_spectrum(self):
        prob = SchrodingerProblem.from_potential(
            5.0, 64, lambda t: np.zeros_like(np.asarray(t, float)))
        spec = negative_spectrum(prob)
        assert spec.lambdas.size == 0


def record_calls(monkeypatch, name, seen=None):
    """Replace ``spectrum.<name>`` by a wrapper that records the (diag, off)
    pair of every call (into ``seen`` if given), so a test sees the matrices
    a route really builds."""
    seen = [] if seen is None else seen
    real = getattr(spectrum, name)

    def recorder(diag, off, *args, **kwargs):
        seen.append((np.array(diag, dtype=float), np.array(off, dtype=float)))
        return real(diag, off, *args, **kwargs)

    monkeypatch.setattr(spectrum, name, recorder)
    return seen


class TestInertiaCount:
    """``tridiagonal_negative_inertia`` against the LDL^T oracle."""

    def test_random_matrices_of_mixed_scale(self):
        rng = np.random.default_rng(20181207)
        for _ in range(1000):
            n = int(rng.integers(2, 61))
            # one scale per matrix, times entry scales spanning 4 decades
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            diag = scale * rng.normal(size=n) * 10.0 ** rng.uniform(-2.0, 2.0, n)
            off = scale * rng.normal(size=n - 1) * 10.0 ** rng.uniform(-2.0, 2.0, n - 1)
            assert tridiagonal_negative_inertia(diag, off) == ldlt_negative_count(diag, off)

    @pytest.mark.parametrize("diag,expected", [
        ([], 0), ([-2.0], 1), ([0.0], 0), ([3.0], 0), ([-1e-300], 1),
    ])
    def test_sizes_zero_and_one(self, diag, expected):
        off = np.zeros(max(len(diag) - 1, 0))
        assert tridiagonal_negative_inertia(np.array(diag), off) == expected
        assert ldlt_negative_count(diag, off) == expected

    @pytest.mark.parametrize("diag,off,expected", [
        ([1.0, 1.0], [1.0], 0),
        ([1.0, 2.0, 1.0], [-1.0, -1.0], 0),
        ([-1.0, -1.0], [1.0], 1),
    ])
    def test_exact_zero_eigenvalue_is_not_counted(self, diag, off, expected):
        """Each matrix has 0 as an eigenvalue, which is not negative."""
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.min(np.abs(np.linalg.eigvalsh(dense))) < 1e-15
        assert tridiagonal_negative_inertia(diag, off) == expected
        assert ldlt_negative_count(diag, off) == expected

    def test_zero_off_diagonals_split_into_blocks(self):
        diag = np.array([-1.0, 2.0, -3.0, 4.0, 0.0, -5.0])
        assert tridiagonal_negative_inertia(diag, np.zeros(5)) == 3
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            diag = rng.normal(size=n)
            off = rng.normal(size=n - 1)
            off[rng.random(n - 1) < 0.3] = 0.0
            assert tridiagonal_negative_inertia(diag, off) == ldlt_negative_count(diag, off)

    @pytest.mark.parametrize("off0", [1.0, 1e-16])
    def test_near_zero_pivots(self, off0):
        """The second LDL^T pivot is made a few ulps of off0^2 / diag0 (with
        off0 = 1e-16 it falls below the oracle's pivmin and gets clamped)."""
        rng = np.random.default_rng(11)
        for steps in (-3, -1, 1, 3):
            for _ in range(25):
                n = int(rng.integers(3, 30))
                diag = rng.normal(size=n)
                off = rng.normal(size=n - 1)
                diag[0], off[0] = 1.0, off0
                x = off0 * off0
                for _ in range(abs(steps)):
                    x = np.nextafter(x, math.copysign(np.inf, steps))
                diag[1] = x
                pivot = diag[1] - off[0] ** 2 / diag[0]
                assert pivot != 0.0 and abs(pivot) < 1e-15 * off0**2 + 1e-300
                dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
                expected = int(np.sum(np.linalg.eigvalsh(dense) < 0.0))
                assert tridiagonal_negative_inertia(diag, off) == expected
                assert ldlt_negative_count(diag, off) == expected

    def test_exact_zero_pivot_counts_like_dense_solver(self):
        """[[0, 1], [1, 1]] has eigenvalues (1 -+ sqrt 5) / 2, one negative.
        The oracle divides by -pivmin at an exact zero pivot without
        counting it, and so undercounts by one; the LAPACK count is right."""
        assert tridiagonal_negative_inertia([0.0, 1.0], [1.0]) == 1
        assert ldlt_negative_count([0.0, 1.0], [1.0]) == 0
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            diag = rng.normal(size=n)
            off = rng.normal(size=n - 1)
            diag[1] = off[0] ** 2 / diag[0]
            assert diag[1] - off[0] ** 2 / diag[0] == 0.0
            dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            expected = int(np.sum(np.linalg.eigvalsh(dense) < 0.0))
            assert tridiagonal_negative_inertia(diag, off) == expected
            assert ldlt_negative_count(diag, off) == expected - 1

    def test_route_a_matrices_of_profile_032(self, monkeypatch, profile_032):
        """Every level's matrix, bisected or refined, has as many negative
        eigenvalues as the level located."""
        seen = record_calls(monkeypatch, "eigh_tridiagonal")
        record_calls(monkeypatch, "_certified_refinement", seen)
        located = {}
        real_fd = spectrum.fd_negative_eigenvalues

        def fd(problem, M=None, guess=None):
            w = real_fd(problem, M, guess)
            located[M] = w.size
            return w

        monkeypatch.setattr(spectrum, "fd_negative_eigenvalues", fd)
        spectrum.negative_spectrum(build_schrodinger(profile_032))
        matrices = {diag.size + 1: (diag, off) for diag, off in seen}
        assert len(located) >= 3 and sorted(matrices) == sorted(located)
        for M, count in located.items():
            diag, off = matrices[M]
            assert count == 2
            assert tridiagonal_negative_inertia(diag, off) == count
            assert ldlt_negative_count(diag, off) == count

    def test_wrong_off_length_is_usage_error(self):
        for diag, off in (([1.0, 2.0, 3.0], [1.0]), ([1.0, 2.0], [1.0, 2.0]),
                          ([1.0], [0.5])):
            with pytest.raises(UsageError):
                tridiagonal_negative_inertia(diag, off)


def matrix_norm(diag, off):
    """||T||_inf of the symmetric tridiagonal matrix (diag, off)."""
    rows = np.abs(diag)
    rows[:-1] += np.abs(off)
    rows[1:] += np.abs(off)
    return float(rows.max())


class TestCertifiedRefinement:
    """Finer route-A levels are refined from guesses and certified by Sturm
    counts; anything uncertified is bisected."""

    @pytest.mark.parametrize("name", ["profile_032", "profile_053"])
    def test_refined_levels_match_bisection(self, request, monkeypatch, name):
        calls = []
        real = spectrum._certified_refinement

        def spy(diag, off, lo, guess):
            rho = real(diag, off, lo, guess)
            calls.append((diag, off, lo, rho))
            return rho

        monkeypatch.setattr(spectrum, "_certified_refinement", spy)
        negative_spectrum(build_schrodinger(request.getfixturevalue(name)))
        assert len(calls) >= 2
        for diag, off, lo, rho in calls:
            assert rho is not None
            bisected = eigh_tridiagonal(diag, off, eigvals_only=True,
                                        select="v", select_range=(lo, 0.0))
            assert rho.size == bisected.size
            width = 2.0**-52 * matrix_norm(diag, off)
            assert np.all(np.abs(rho - bisected) <= width)

    @pytest.mark.parametrize("name", ["profile_032", "profile_053"])
    def test_one_sturm_count_per_refined_level(self, request, monkeypatch,
                                                name):
        """Each refined level is certified by one count at 0 on its own
        matrix, whatever the number of eigenvalues."""
        refined = record_calls(monkeypatch, "_certified_refinement")
        counts = record_calls(monkeypatch, "tridiagonal_negative_inertia")
        negative_spectrum(build_schrodinger(request.getfixturevalue(name)))
        assert len(refined) >= 2 and len(counts) == len(refined)
        for (diag, off), (count_diag, count_off) in zip(refined, counts):
            np.testing.assert_array_equal(count_diag, diag)
            np.testing.assert_array_equal(count_off, off)

    @pytest.mark.parametrize("bad", [
        "empty", "missing", "extra", "out_of_order", "past_neighbour",
        "at_zero"])
    def test_bad_guesses_return_the_bisection_values(self, monkeypatch,
                                                     profile_032, bad):
        problem = build_schrodinger(profile_032)
        M = 2 * problem.M
        lam = fd_negative_eigenvalues(problem, M)
        assert lam.size == 2
        guess = {
            "empty": lam[:0],
            "missing": lam[:1],
            "extra": np.array([lam[0], -5.0, lam[1]]),
            "out_of_order": lam[::-1],
            "past_neighbour": lam[1] + np.array([0.1, 0.2]),
            "at_zero": np.array([lam[0], 0.0]),
        }[bad]
        bisections = record_calls(monkeypatch, "eigh_tridiagonal")
        got = fd_negative_eigenvalues(problem, M, guess)
        assert len(bisections) == 1
        assert got.tobytes() == lam.tobytes()

    @pytest.mark.parametrize("drift", [1e-1, 1e-2, 3e-3, 1e-3, 1e-5])
    def test_poor_guesses_stay_within_the_bisection_width(self, profile_032,
                                                          drift):
        """Two solves from a guess 1e-2 or 3e-3 off leave rho_j a few widths
        off, with correct counts: only the Kato-Temple check refuses it."""
        problem = build_schrodinger(profile_032)
        M = 2 * problem.M
        lam = fd_negative_eigenvalues(problem, M)
        got = fd_negative_eigenvalues(problem, M, lam * (1.0 + drift))
        width = 2.0**-52 * matrix_norm(*spectrum._fd_matrix(problem, M)[:2])
        assert got.size == lam.size
        assert np.all(np.abs(got - lam) <= width)

    def test_guess_of_each_level(self, monkeypatch, well):
        """lambda(M) on level 2M, then the h^2 prediction lambda(2M) +
        (lambda(2M) - lambda(M)) / 4; no guess on the level after a count
        change."""
        levels = [np.array(x) for x in (
            [-4.2], [-4.2, -0.5], [-4.05, -0.3], [-4.0125, -0.25])]
        guesses = []

        def fake(problem, M=None, guess=None):
            guesses.append(guess)
            return levels[len(guesses) - 1]

        monkeypatch.setattr(spectrum, "fd_negative_eigenvalues", fake)
        negative_spectrum(well)
        assert len(guesses) == 4 and guesses[0] is None and guesses[2] is None
        np.testing.assert_array_equal(guesses[1], levels[0])
        np.testing.assert_array_equal(
            guesses[3], levels[2] + (levels[2] - levels[1]) / 4.0)

    def test_good_guess_is_not_bisected(self, monkeypatch, profile_032):
        problem = build_schrodinger(profile_032)
        guess = fd_negative_eigenvalues(problem, problem.M)
        bisections = record_calls(monkeypatch, "eigh_tridiagonal")
        got = fd_negative_eigenvalues(problem, 2 * problem.M, guess)
        assert bisections == [] and got.size == 2


@settings(max_examples=30, derandomize=True, deadline=None)
@given(wells=st.lists(st.tuples(st.floats(0.5, 80.0), st.floats(0.05, 0.95),
                                st.floats(0.02, 0.3)), min_size=1, max_size=3),
       M=st.sampled_from([64, 128, 256]),
       drifts=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),
       decades=st.integers(-9, -1),
       edit=st.sampled_from(["keep", "keep", "drop", "add"]))
def test_refinement_never_changes_the_count(wells, M, drifts, decades, edit):
    """Guesses off the bisected values by random relative drifts of up to
    10^decades, some with one eigenvalue dropped or one added: refinement or
    its fallback counts what bisection counts."""
    T = 3.0

    def potential(t):
        x = 1.0 + np.asarray(t, dtype=float) / T
        return -sum(depth * np.exp(-((x - c) / w) ** 2) for depth, c, w in wells)

    problem = SchrodingerProblem.from_potential(T, M, potential)
    bisected = fd_negative_eigenvalues(problem, M)
    drift = 10.0**decades * np.resize(np.array(drifts), bisected.size)
    guess = bisected * (1.0 + drift)
    if edit == "drop":
        guess = guess[:-1]
    elif edit == "add":
        guess = np.append(guess, 0.5 * guess[-1] if guess.size else -1.0)
    assert fd_negative_eigenvalues(problem, M, guess).size == bisected.size


def base_mesh(prob):
    """The base mesh of a problem and its potential sampled there."""
    grid_t = prob.mesh()
    return grid_t, np.asarray(prob.potential(grid_t), dtype=float)


class TestPotentialConstruction:
    def test_grid_values_match_formula(self, profile_032):
        prob = build_schrodinger(profile_032)
        grid_t, V = base_mesh(prob)
        alpha, p = profile_032.params.alpha, profile_032.params.p
        r = np.exp(grid_t)
        u, _ = evaluate_profile(profile_032, np.minimum(r, 1.0))
        expected = -p * np.exp((alpha + 2.0) * grid_t) * np.abs(u) ** (p - 1.0)
        assert np.allclose(V, expected, rtol=0.0, atol=1e-14)

    def test_potential_tiny_at_both_ends(self, profile_032):
        _, V = base_mesh(build_schrodinger(profile_032))
        assert abs(V[0]) <= DEFAULT.eig_tol / 100
        assert abs(V[-1]) <= 1e-8

    def test_cut_follows_eig_tol(self, profile_032):
        cuts = []
        for eig_tol in (1e-6, DEFAULT.eig_tol, 1e-11):
            prob = build_schrodinger(profile_032, replace(DEFAULT, eig_tol=eig_tol))
            assert abs(base_mesh(prob)[1][0]) <= eig_tol / 100
            cuts.append(prob.T)
        assert cuts[0] < cuts[1] < cuts[2]

    def test_nodal_corners_are_mesh_nodes(self, profile_032):
        prob = build_schrodinger(profile_032)
        grid_t, _ = base_mesh(prob)
        assert len(prob.corners) == 1
        expected = math.log(profile_032.nodal_radii[0])
        assert prob.corners[0] == pytest.approx(expected, rel=1e-12)
        assert np.any(grid_t == prob.corners[0])
        assert grid_t.size == prob.M + 1
        assert np.all(np.diff(grid_t) > 0.0)

    def test_from_potential_validation(self):
        zero = lambda t: np.zeros_like(np.asarray(t, float))
        with pytest.raises(UsageError):
            SchrodingerProblem.from_potential(-1.0, 64, zero)
        with pytest.raises(UsageError):
            SchrodingerProblem.from_potential(1.0, 2, zero)
        # a positive potential is refused at the first level that reads it
        with pytest.raises(UsageError):
            negative_spectrum(SchrodingerProblem.from_potential(
                1.0, 64, lambda t: np.ones_like(np.asarray(t, float))))

    def test_positive_potential_between_base_nodes_is_refused(self):
        """V = -5 + 6 sin^2(pi M (t + T) / T) is -5 on the M-cell base nodes
        and +1 at every midpoint, which the base level reads for its hat
        averages."""
        T, M = math.pi, 64

        def potential(t):
            return -5.0 + 6.0 * np.sin(np.pi * M * (np.asarray(t, float) + T) / T) ** 2

        prob = SchrodingerProblem.from_potential(T, M, potential)
        assert np.max(base_mesh(prob)[1]) <= -5.0 + 1e-12
        with pytest.raises(UsageError, match="nonpositive") as err:
            negative_spectrum(prob)
        assert err.value.context["max_V"] == pytest.approx(1.0)


class TestNestedCornerMesh:
    """Route A's meshes: uniform on each segment between corners, every
    level a bisection of the one before, V averaged over each hat."""

    def test_levels_are_nested_with_corners_as_nodes(self, profile_053):
        prob = build_schrodinger(profile_053)
        assert len(prob.corners) == 2
        assert prob.corner_power == profile_053.params.p - 1.0
        prev = None
        for doublings in range(4):
            mesh = prob.mesh(doublings)
            assert mesh.size == (prob.M << doublings) + 1
            assert mesh[0] == -prob.T and mesh[-1] == 0.0
            assert np.all(np.diff(mesh) > 0.0)
            assert np.all(np.isin(prob.corners, mesh))
            if prev is not None:
                np.testing.assert_array_equal(mesh[::2], prev)
            prev = mesh

    def test_cells_split_by_length_with_two_at_least(self):
        """Lengths 0.05, 4.95 and 5 share 20 cells: the first segment's
        share 0.1 is raised to 2, the other two share 18 as 8.955 and
        9.045, and the one cell left goes to the larger remainder."""
        cells = spectrum._segment_cells(10.0, 20, (-9.95, -5.0))
        assert cells == [2, 9, 9]
        assert spectrum._segment_cells(math.pi, 512, ()) == [512]

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(lengths=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=6),
           extra=st.integers(0, 5000))
    def test_cells_sum_to_M_and_follow_the_lengths(self, lengths, extra):
        """Every segment gets two cells or more, the counts sum to M, and a
        longer segment never gets fewer cells than a shorter one."""
        ends = np.concatenate(([0.0], np.cumsum(lengths)))
        T = float(ends[-1])
        corners = tuple(float(c) for c in ends[1:-1] - T)
        M = 2 * len(lengths) + extra
        cells = spectrum._segment_cells(T, M, corners)
        assert sum(cells) == M and min(cells) >= 2
        seg = np.diff((-T, *corners, 0.0))
        for i, j in zip(*np.nonzero(seg[:, None] > seg[None, :])):
            assert cells[i] >= cells[j]

    def test_too_few_cells_for_the_corners_is_refused(self):
        zero = lambda t: np.zeros_like(np.asarray(t, float))
        corners = (-0.75, -0.5, -0.25)
        with pytest.raises(UsageError, match="two cells"):
            SchrodingerProblem.from_potential(1.0, 7, zero, corners=corners)
        SchrodingerProblem.from_potential(1.0, 8, zero, corners=corners)

    @pytest.mark.parametrize("M", [256, 768, 1536])
    def test_mesh_off_the_ladder_is_refused(self, well, M):
        with pytest.raises(UsageError, match="power of 2"):
            fd_negative_eigenvalues(well, M)

    @pytest.mark.parametrize("kappa", [0.8, 2.0, 3.5])
    def test_hat_average_at_a_corner_is_exact(self, kappa):
        """For V = -|t - c|^kappa the Gauss-Jacobi rule is exact on both
        cells at the corner: each gives h^(kappa+1) / ((kappa+1)(kappa+2))
        to the corner's hat integral."""
        c = -0.3
        prob = SchrodingerProblem.from_potential(
            1.0, 16, lambda t: -np.abs(np.asarray(t, float) - c) ** kappa,
            corners=(c,), corner_power=kappa)
        mesh = prob.mesh()
        i = int(np.flatnonzero(mesh == c)[0])
        hl, hr = mesh[i] - mesh[i - 1], mesh[i + 1] - mesh[i]
        mass = 0.5 * (hl + hr)
        diag, _, _ = spectrum._fd_matrix(prob, prob.M)
        v = diag[i - 1] - (1.0 / hl + 1.0 / hr) / mass
        exact = -(hl ** (kappa + 1.0) + hr ** (kappa + 1.0)) / (
            (kappa + 1.0) * (kappa + 2.0) * mass)
        assert v == pytest.approx(exact, rel=1e-12)

    def test_each_level_samples_only_its_midpoints(self, monkeypatch,
                                                   profile_053):
        """The base level reads V at its nodes and midpoints, every finer
        level at its midpoints alone, and each level reads 4 Gauss-Jacobi
        points in each of the two cells at every corner.  The matrices
        equal those of standalone calls on a fresh problem."""
        prob = build_schrodinger(profile_053)
        real = prob.potential
        sizes = []

        def counting(t):
            sizes.append(np.asarray(t).size)
            return real(t)

        prob.potential = counting
        matrices = {}
        real_matrix = spectrum._fd_matrix

        def recording(problem, M):
            matrices[M] = real_matrix(problem, M)
            return matrices[M]

        monkeypatch.setattr(spectrum, "_fd_matrix", recording)
        negative_spectrum(prob)
        gauss = 8 * len(prob.corners)
        expected = sum(M + gauss for M in matrices) + prob.M + 1
        assert len(matrices) >= 3 and sum(sizes) == expected
        fresh = build_schrodinger(profile_053)
        for M, (diag, off, lo) in sorted(matrices.items(), reverse=True):
            d, o, l = real_matrix(fresh, M)
            assert d.tobytes() == diag.tobytes() and o.tobytes() == off.tobytes()
            assert l == lo

    def test_problem_splits_its_cells_once(self, monkeypatch, profile_053):
        """Building a problem splits the base cells among its segments once;
        a whole ladder reads that split and splits nothing again."""
        calls = []
        real = spectrum._segment_cells

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(spectrum, "_segment_cells", counting)
        prob = build_schrodinger(profile_053)
        assert len(calls) == 1
        calls.clear()
        spec = negative_spectrum(prob)
        assert spec.M > prob.M and calls == []

    @pytest.mark.parametrize("n", [2, 3])
    def test_raw_differences_shrink_by_four(self, n):
        """At (0, 1.8, n) the |t - c|^0.8 corners left the corner-swapped
        mesh with difference ratios of -5.27 to 2.23; on the nested mesh
        every lambda_j's successive raw differences shrink by about 4."""
        prob = build_schrodinger(solve_nodal(HenonParams(alpha=0.0, p=1.8, n_nodal=n)))
        lams = [fd_negative_eigenvalues(prob, M) for M in (2048, 4096, 8192, 16384)]
        assert all(lam.size == n for lam in lams)
        diffs = [b - a for a, b in zip(lams, lams[1:])]
        for prev, cur in zip(diffs, diffs[1:]):
            assert np.all((prev / cur >= 3.8) & (prev / cur <= 4.2))

    def test_ladder_stops_before_the_roundoff_floor(self):
        """(0, 1.8, 2) used to stop at M = 131072, inside the floor."""
        prob = build_schrodinger(solve_nodal(HenonParams(alpha=0.0, p=1.8, n_nodal=2)))
        assert negative_spectrum(prob).M <= 16384

    def test_accepted_values_agree_across_eig_tol(self):
        """At (2, 2.2, 2) the eig_tol 1e-8 and 1e-9 ladders used to accept
        lambda_2 1.87 eig_tol (1 + |lambda|) apart."""
        prob = build_schrodinger(solve_nodal(HenonParams(alpha=2.0, p=2.2, n_nodal=2)))
        loose, tight = (negative_spectrum(prob, replace(DEFAULT, eig_tol=tol)).lambdas
                        for tol in (1e-8, 1e-9))
        assert loose.size == tight.size == 2
        assert np.all(np.abs(loose - tight) <= 1e-8 * (1.0 + np.abs(tight)))


class TestSpectrumStability:
    def test_stable_under_truncation_bump(self, profile_032, spectrum_032):
        prob = build_schrodinger(profile_032)
        bumped = SchrodingerProblem.from_potential(
            prob.T + 5.0, prob.M, prob.potential, corners=prob.corners,
            corner_power=prob.corner_power)
        spec_b = negative_spectrum(bumped)
        assert spec_b.lambdas.size == spectrum_032.lambdas.size
        tol = 3.0 * spectrum_032.eig_tol * (1.0 + np.abs(spectrum_032.lambdas))
        assert np.all(np.abs(spec_b.lambdas - spectrum_032.lambdas) <= tol)

    def test_stable_under_mesh_doubling(self, profile_032, spectrum_032):
        prob = build_schrodinger(profile_032)
        doubled = SchrodingerProblem.from_potential(
            prob.T, 2 * prob.M, prob.potential, corners=prob.corners,
            corner_power=prob.corner_power)
        spec_d = negative_spectrum(doubled)
        assert spec_d.lambdas.size == spectrum_032.lambdas.size
        tol = 3.0 * spectrum_032.eig_tol * (1.0 + np.abs(spectrum_032.lambdas))
        assert np.all(np.abs(spec_d.lambdas - spectrum_032.lambdas) <= tol)

    def test_lambdas_strictly_increasing_and_negative(self, spectrum_032):
        lam = spectrum_032.lambdas
        assert np.all(lam < 0.0)
        assert np.all(np.diff(lam) > 0.0)


class TestCountIdentities:
    @pytest.mark.parametrize("alpha,p,n", [
        (0.0, 3.0, 1),
        (0.0, 3.0, 2),
        (1.0, 2.0, 2),
        (2.0, 3.0, 2),
        (0.5, 5.0, 2),
        (0.0, 2.0, 3),
    ])
    def test_radial_count_equals_nodal_count_both_routes(self, alpha, p, n):
        profile = solve_nodal(HenonParams(alpha=alpha, p=p, n_nodal=n))
        spec = negative_spectrum(build_schrodinger(profile))
        assert spec.lambdas.size == n
        assert radial_morse_index(profile) == n

    def test_mode_counts_match_decomposition(self, profile_032, spectrum_032):
        lam = spectrum_032.lambdas
        for k in range(1, 6):
            expected = int(np.sum(lam + k * k < 0.0))
            assert mode_negative_count(profile_032, k) == expected

    def test_mode_counts_nonincreasing_in_k(self, profile_032, spectrum_032):
        counts = [mode_negative_count(profile_032, k) for k in range(1, 6)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        k_max = math.ceil(math.sqrt(-spectrum_032.lambdas[0]))
        assert mode_negative_count(profile_032, k_max + 1) == 0

    def test_counts_at_fractional_wave_numbers(self, profile_032,
                                               spectrum_032):
        """Any wave number w >= 0 counts #{j : lambda_j < -w^2}, below 1
        and between integers too; lambda = (-14.77, -0.908) puts
        thresholds at w = 0.953 and 3.843."""
        lam = spectrum_032.lambdas
        waves = [0.0, 0.5, 0.95, 0.96, 2.5, 3.8, 3.9]
        counts = oscillation_counts(profile_032, build_schrodinger(profile_032),
                                    waves)
        assert counts == tuple(int(np.sum(lam < -w * w)) for w in waves)
        assert counts == (2, 2, 2, 1, 1, 1, 0)

    def test_zero_potential_gives_zero_counts(self):
        profile = zero_profile()
        assert radial_morse_index(profile) == 0
        assert mode_negative_count(profile, 1) == 0

    def test_solves_keep_no_memory(self, profile_032):
        """DOP853 keeps a reference to its callback after every solve, so
        the callback must not hold the profile data of a call."""
        problem = build_schrodinger(profile_032)
        oscillation_counts(profile_032, problem, range(5))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(10):
                oscillation_counts(profile_032, problem, range(5))
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 100_000

    def test_exhausted_step_budget_raises(self, monkeypatch, profile_032):
        monkeypatch.setattr(spectrum, "_MAX_OSCILLATION_STEPS", 5)
        with pytest.warns(UserWarning, match="nsteps"), \
                pytest.raises(NonConvergenceError) as err:
            radial_morse_index(profile_032)
        context = err.value.context
        assert context["return_code"] == -2  # DOP853: larger nsteps needed
        assert context["segment"][0] <= context["t_reached"] < context["segment"][1]

    def test_mode_count_validates_k(self, profile_032):
        with pytest.raises(UsageError):
            mode_negative_count(profile_032, 0)
        with pytest.raises(UsageError):
            mode_negative_count(profile_032, -1)


class TestWeightScaling:
    def test_eigenvalues_scale_by_kappa_squared(self, spectrum_032):
        """Moving the weight exponent from 0 to 2 rescales the log variable
        by kappa = 2, which multiplies every eigenvalue by kappa^2 = 4."""
        profile = solve_nodal(HenonParams(alpha=2.0, p=3.0, n_nodal=2))
        spec = negative_spectrum(build_schrodinger(profile))
        assert spec.lambdas.size == spectrum_032.lambdas.size
        for got, base in zip(spec.lambdas, spectrum_032.lambdas):
            assert got == pytest.approx(4.0 * base, rel=1e-4)

    @pytest.mark.xfail(strict=True, reason=(
        "build_schrodinger picks T from |V(-T)| alone, so the weakly bound "
        "lambda_1 at (0, 2, 1) carries a Dirichlet truncation error of about "
        "exp(-2 sqrt(|lambda|) T): -0.2851661 at T = 12.93 against "
        "-0.2851693, and the law reads 5.9e-6 at (2, 2, 1)"))
    def test_scaling_law_at_221_within_truncation_free_accuracy(self):
        """lambda_j(2, 2, 1) = 4 lambda_j(0, 2, 1) within 1e-7 relative, well
        above the eigenvalue accuracy eig_tol (1 + |lambda|)."""
        spectra = [negative_spectrum(build_schrodinger(
            solve_nodal(HenonParams(alpha=alpha, p=2.0, n_nodal=1))))
            for alpha in (0.0, 2.0)]
        lam0, lam2 = (s.lambdas for s in spectra)
        assert lam0.size == lam2.size == 1
        assert np.max(np.abs(lam2 - 4.0 * lam0) / np.abs(4.0 * lam0)) <= 1e-7
