"""The package's direct calls into scipy's compiled routines, and its ports
of scipy's Python-level code, pinned against scipy's public API.

``henon_morse._compiled`` loads scipy's LAPACK wrapper and its DOPRI5
extension by file path, so that a process imports no scipy package.
``radial`` holds scipy's DOP853 tableau as committed literals, evaluates
its step interpolants as ``PPoly`` does and finds their zeros by a port of
scipy's ``brentq``; ``spectrum`` forms its Gauss-Jacobi rule as
``roots_jacobi`` does.  Each test compares one of these with the scipy
function it stands for, on the same inputs: bit for bit wherever the
arithmetic is the same.

The committed tableau is regenerated from scipy with

    PYTHONPATH=src python tests/test_scipy_pins.py
"""

import os
import subprocess
import sys
import textwrap
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import DOP853, ode
from scipy.interpolate import PPoly
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgtsv
from scipy.optimize import brentq
from scipy.special import roots_jacobi

import henon_morse._compiled as compiled
import henon_morse.radial as radial
import henon_morse.spectrum as spectrum
from henon_morse import HenonParams, solve_nodal
from henon_morse.config import DEFAULT
from henon_morse.errors import NonConvergenceError

SRC = Path(__file__).resolve().parents[1] / "src"
TABLEAU = SRC / "henon_morse" / "_dop853_tableau.py"

# the 120 (alpha, p, n) of the point benchmark
POINT_TUPLES = [(a, p, n)
                for a in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0)
                for p in (2.0, 3.0, 4.0, 5.0) for n in (1, 2, 3)]

TABLEAU_HEADER = '''"""The Dormand-Prince 8(5,3) tableau of scipy's DOP853 as float literals.

``radial`` generates the straight-line stages of its DOP853 stepper from
these.  The rows of A and A_EXTRA stop before the stage they define, where
the rest of scipy's row is zero.  Generated from ``scipy.integrate.DOP853``
by ``tableau_source`` in ``tests/test_scipy_pins.py``, which compares it
with this text; do not edit by hand.
"""
'''


def tableau_source() -> str:
    """The text of ``henon_morse/_dop853_tableau.py``, from scipy's DOP853:
    every coefficient as the ``repr`` of its float, which reads back
    exactly."""

    def wrap(values, first, width=79):
        items = " ".join(f"{float(v)!r}," for v in values)
        return textwrap.fill(f"({items})", width, initial_indent=first,
                             subsequent_indent=" " * (len(first) + 1),
                             break_long_words=False, break_on_hyphens=False)

    def matrix(name, rows):
        return "\n".join([f"{name} = (", *(wrap(row, "    ", 78) + ","
                                           for row in rows), ")"])

    last = DOP853.n_stages
    return "\n".join([
        TABLEAU_HEADER,
        f"N_STAGES = {last}",
        wrap(DOP853.C, "C = "),
        matrix("A", [row[:s] for s, row in enumerate(DOP853.A)]),
        wrap(DOP853.B, "B = "),
        wrap(DOP853.E3, "E3 = "),
        wrap(DOP853.E5, "E5 = "),
        wrap(DOP853.C_EXTRA, "C_EXTRA = "),
        matrix("A_EXTRA", [row[:s] for s, row in
                           enumerate(DOP853.A_EXTRA, start=last + 1)]),
        matrix("D", DOP853.D),
    ]) + "\n"


def scipy_brentq(f, xa, xb, xtol, rtol, maxiter=100):
    """``scipy.optimize.brentq`` with the arguments of ``radial._brentq``."""
    return brentq(f, xa, xb, xtol=xtol, rtol=rtol, maxiter=maxiter)


@pytest.fixture(scope="module")
def point_trajectories():
    return [radial.integrate_ivp(a, p, n) for a, p, n in POINT_TUPLES]


@pytest.fixture(scope="module")
def profile_232():
    return solve_nodal(HenonParams(alpha=2.0, p=3.0, n_nodal=2))


class TestLoading:
    def test_a_fresh_process_imports_no_scipy_package(self, tmp_path):
        """Importing the CLI and running the warm-up point of the benchmark
        leaves no scipy module in ``sys.modules``: the compiled routines
        are loaded by path, and nothing imports a scipy package.  Nor does
        it import the worker pool's ``concurrent.futures.process`` and
        ``multiprocessing``, which only ``--jobs`` uses, or
        ``numpy.polynomial``, whose Gauss-Legendre rule ``radial`` holds as
        literals."""
        script = textwrap.dedent("""
            import sys
            from henon_morse.cli import main
            code = main(["morse", "--alpha", "0.75", "--p", "3", "--nodes", "2",
                         "--out", "warm_up.json"])
            print(code, sorted(k for k in sys.modules
                               if k == "scipy" or k.startswith("scipy.")),
                  sorted(k for k in ("concurrent.futures.process",
                                     "multiprocessing", "numpy.polynomial")
                         if k in sys.modules))
        """)
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split(None, 1) == ["0", "[] []\n"]
        assert (tmp_path / "warm_up.json").is_file()

    def test_a_changed_signature_is_refused(self, monkeypatch):
        monkeypatch.setitem(compiled._SIGNATURES, ("integrate", "_dop"),
                            {"dopri5": "x,y,idid = dopri5(fcn,x,y,xend)"})
        with pytest.raises(ImportError, match=r"needs scipy 1\.17\.x.*dopri5"):
            compiled._load("integrate", "_dop")

    def test_no_scipy_is_refused(self, monkeypatch):
        monkeypatch.setattr(compiled.importlib.util, "find_spec", lambda name: None)
        with pytest.raises(ImportError, match=r"needs scipy 1\.17\.x"):
            compiled._load("linalg", "_flapack")

    def test_loading_leaves_sys_modules_as_it_was(self):
        before = dict(sys.modules)
        compiled._load("linalg", "_flapack")
        compiled._load("integrate", "_dop")
        assert sys.modules == before


class TestCompiledRoutines:
    def test_dopri5_is_odes_dopri5(self, monkeypatch, profile_232):
        """Every segment of route C's passes at (2, 3, 2), at each rung of
        the ladder, and a segment that runs out of steps: the direct call,
        as ``oscillation_counts`` makes it, returns ode("dopri5")'s t,
        angles and status bit for bit."""
        calls = []
        real = spectrum.dopri5

        def spy(rate, t0, theta, t1, rtol, atol, *rest):
            start = theta.copy()
            result = real(rate, t0, theta, t1, rtol, atol, *rest)
            calls.append(((rate, t0, start, t1, rtol, atol, rest[-3], rest[-1]), result))
            return result

        monkeypatch.setattr(spectrum, "dopri5", spy)
        for scale in (spectrum._COARSE, 1.0, 0.01):
            spectrum.oscillation_counts(
                profile_232, np.arange(9.0),
                replace(DEFAULT, rtol=scale * DEFAULT.rtol, atol=scale * DEFAULT.atol))
        assert len(calls) == 3 * len(profile_232.nodal_radii)  # a segment per nodal domain
        monkeypatch.setattr(spectrum, "_MAX_OSCILLATION_STEPS", 5)
        with pytest.raises(NonConvergenceError):
            spectrum.oscillation_counts(profile_232, np.arange(9.0))
        for (rate, t0, theta, t1, rtol, atol, nsteps, args), (t, y, idid) in calls:
            solver = ode(rate).set_integrator("dopri5", rtol=rtol, atol=atol,
                                              nsteps=nsteps)
            solver.set_f_params(*args).set_initial_value(theta, t0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "larger nsteps"
                y_ref = solver.integrate(t1)
            assert y.tobytes() == y_ref.tobytes()
            assert t == solver.t and idid == solver.get_return_code()
        assert idid == -2 and t < t1

    def test_bisection_is_eigh_tridiagonal(self):
        """dstebz in value-range mode against
        ``eigh_tridiagonal(select="v")``, on route A's 4095-row matrix at
        (0, 3, 3) and on a random matrix."""
        profile = solve_nodal(HenonParams(alpha=0.0, p=3.0, n_nodal=3))
        problem = spectrum.build_schrodinger(profile)
        diag, off, lo = spectrum._fd_matrix(problem, 4 * problem.M)
        rng = np.random.default_rng(5)
        matrices = [(diag, off, lo),
                    (rng.normal(size=300), rng.normal(size=299), -6.0)]
        for d, e, low in matrices:
            got = spectrum._bisection(d, e, low)
            want = eigh_tridiagonal(d, e, eigvals_only=True, select="v",
                                    select_range=(low, 0.0))
            assert got.size > 0 and got.tobytes() == want.tobytes()

    def test_dgtsv_is_scipys(self):
        rng = np.random.default_rng(7)
        n = 500
        lower, diag, upper = rng.normal(size=n - 1), rng.normal(size=n) + 4.0, rng.normal(size=n - 1)
        b = rng.normal(size=(n, 1))
        got = compiled.dgtsv(lower.copy(), diag.copy(), upper.copy(), b.copy())
        want = dgtsv(lower.copy(), diag.copy(), upper.copy(), b.copy())
        assert len(got) == len(want) == 5 and got[4] == want[4] == 0
        for a, c in zip(got[:4], want[:4]):
            assert a.tobytes() == c.tobytes()

    def test_gauss_jacobi_is_roots_jacobi(self):
        """The nodes equal ``roots_jacobi(4, 0, kappa)``'s bit for bit over a
        grid of kappa; the weights lie within 32 ulps of scipy's, whose
        normalization mu0 comes through Gamma."""
        for kappa in np.linspace(0.01, 10.0, 400).tolist() + [0.05, 1.0, 2.0, 4.0]:
            s, w = spectrum._gauss_jacobi.__wrapped__(kappa)
            x, w_ref = roots_jacobi(4, 0.0, kappa)
            s_ref = 0.5 * (1.0 + x)
            w_ref = w_ref * 2.0 ** (-kappa - 1.0) / s_ref ** kappa
            assert s == tuple(s_ref.tolist())
            assert np.all(np.abs(np.array(w) - w_ref) <= 32 * np.spacing(w_ref))


class TestPorts:
    def test_committed_tableau_is_scipys(self):
        assert TABLEAU.read_text() == tableau_source()

    def test_power_sum_is_ppoly(self, point_trajectories):
        """``_power_sum`` against ``PPoly`` on both components of the 120
        trajectories: at every knot, just below and above it, at 33 points
        inside each step, and beyond both ends."""
        for traj in point_trajectories:
            knots = traj._knots
            inside = (knots[:-1, None] + np.diff(knots)[:, None]
                      * np.linspace(0.0, 1.0, 35)[1:-1]).ravel()
            x = np.concatenate([knots, np.nextafter(knots, 0.0),
                                np.nextafter(knots, np.inf), inside,
                                [0.5 * knots[0], 2.0 * knots[-1]]])
            for coef in traj._coef:
                want = PPoly(coef, knots)(x)
                assert radial._power_sum(knots, coef, x).tobytes() == want.tobytes()

    def test_brentq_is_scipys(self, monkeypatch):
        """The port against ``scipy.optimize.brentq`` on the interpolant of
        every step in which u changes sign, over the 120 trajectories."""
        searches = []
        real = radial._brentq

        def spy(f, xa, xb, xtol, rtol):
            searches.append((f, xa, xb, xtol, rtol))
            return real(f, xa, xb, xtol, rtol)

        monkeypatch.setattr(radial, "_brentq", spy)
        for a, p, n in POINT_TUPLES:
            radial.integrate_ivp(a, p, n)
        assert len(searches) == sum(n for _, _, n in POINT_TUPLES)
        for f, xa, xb, xtol, rtol in searches:
            assert real(f, xa, xb, xtol, rtol).hex() == scipy_brentq(
                f, xa, xb, xtol, rtol).hex()

    def test_brentq_refuses_like_scipy(self):
        def step(x):  # a sign change that only bisection closes in on
            return -1.0 if x < 0.3 else 1.0

        for search in (radial._brentq, scipy_brentq):
            with pytest.raises(ValueError, match="different signs"):
                search(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 1e-12, 100)
            with pytest.raises(RuntimeError, match="Failed to converge after 5"):
                search(step, 0.0, 1.0, 1e-15, 1e-15, 5)


if __name__ == "__main__":
    TABLEAU.write_text(tableau_source())
