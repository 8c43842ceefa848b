"""Negative spectrum of the singular linearized operator, two ways.

The linearization of the nodal problem at a solution u carries the singular
eigenvalue problem

    -(psi'' + psi'/r) - p r^alpha |u|^(p-1) psi  =  lambda psi / r^2

on (0, 1) with psi(1) = 0.  The substitution t = log r removes both the
1/r and the 1/r^2 singularities at once and turns the problem into a
regular Schrodinger eigenproblem on a half-line,

    -psi_tt + V(t) psi = lambda psi,      V(t) = -p e^((alpha+2) t) |u(e^t)|^(p-1),

with V <= 0 decaying like e^((alpha+2)t) as t -> -infinity.  Truncating at
t = -T with Dirichlet conditions costs an exponentially small perturbation
of the negative eigenvalues.  This module computes:

* ``negative_spectrum``: all negative eigenvalues lambda_1 < ... < lambda_J
  of the truncated problem, by three-point finite differences and
  Richardson extrapolation in the mesh.  LAPACK bisection locates them on
  the first level; each finer level refines the coarser levels' values by
  inverse iteration and keeps the Rayleigh quotients only when a Sturm
  count and the Kato-Temple bound certify them to bisection's accuracy
  (certified Rayleigh-quotient refinement), and bisects otherwise;

* ``oscillation_counts``: #{j : lambda_j < -k^2} for every angular mode
  k = 0..k_max at once, by Sturm oscillation: the Prufer angle of the
  solution at energy -k^2, integrated by an adaptive ODE solver across
  [-T, 0], counts its zeros.  ``radial_morse_index`` (k = 0) and
  ``mode_negative_count`` (one k >= 1) are its library entry points.

The oscillation count reads the same potential as the eigenvalue route but
shares no mesh, matrix or extrapolation with it, which is what makes the
cross-validation in the Morse assembly meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import ode
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgtsv, dstebz

from .config import DEFAULT, Settings
from .errors import NonConvergenceError, UsageError
from .radial import RadialProfile, evaluate_u, u_reader

__all__ = [
    "SchrodingerProblem",
    "RadialSpectrum",
    "build_schrodinger",
    "negative_spectrum",
    "fd_negative_eigenvalues",
    "oscillation_counts",
    "radial_morse_index",
    "mode_negative_count",
    "tridiagonal_negative_inertia",
]

# Base number M of mesh cells of the log-variable problem; route A doubles
# it from there.
_BASE_INTERVALS = 8192
# Eigenvalue extrapolation may double M at most this many times.
_MAX_EIG_LEVELS = 5
# DOP853 step budget of one oscillation-count segment; the default grid's
# segments take 57-140 steps, those of (0, 50, 3) up to 238.
_MAX_OSCILLATION_STEPS = 20000

_TINY = float(np.finfo(float).tiny)
_ULP = float(np.finfo(float).eps)  # 2^-52, LAPACK's dlamch("P")


@dataclass
class SchrodingerProblem:
    """Truncated log-variable eigenproblem on t in [-T, 0], Dirichlet ends.

    ``V`` holds the potential at the M+1 nodes of ``grid_t``; ``potential``
    is the underlying callable, kept so refinement can resample it on finer
    meshes.  ``corners`` lists t-locations where the potential is continuous
    but not smooth (for a nodal profile, the logs of the interior nodal
    radii: |u|^(p-1) has a kink wherever u crosses zero unless p-1 is an
    even integer).  Discretizations pin these points into the mesh; leaving
    a kink in a cell interior makes the h^2 error constant depend on the
    kink's offset within the cell, which defeats Richardson extrapolation.
    """

    T: float
    M: int
    grid_t: np.ndarray
    V: np.ndarray
    potential: Callable = field(repr=False)
    corners: tuple = ()

    @classmethod
    def from_potential(cls, T: float, M: int, potential: Callable,
                       corners: tuple = ()) -> "SchrodingerProblem":
        if not (T > 0.0 and math.isfinite(T)):
            raise UsageError(f"T must be finite and > 0, got {T}")
        if M < 4:
            raise UsageError(f"M must be at least 4, got {M}")
        corners = tuple(sorted(float(c) for c in corners if -T < c < 0.0))
        grid_t = _fd_mesh(T, M, corners)
        V = np.asarray(potential(grid_t), dtype=float)
        if np.any(V > 1e-9):
            raise UsageError(
                "potential must be nonpositive",
                {"max_V": float(V.max())},
            )
        return cls(T=T, M=M, grid_t=grid_t, V=V, potential=potential,
                   corners=corners)


def build_schrodinger(profile: RadialProfile, settings: Settings = DEFAULT) -> SchrodingerProblem:
    """Build the truncated log-variable problem for a nodal profile.

    T is chosen from the bound |V(t)| <= p d^(p-1) e^((alpha+2)t) so that
    |V(-T)| <= truncation_tol, then verified on the actual potential and
    enlarged if needed.  The mesh has ``_BASE_INTERVALS`` cells.
    """
    alpha = profile.params.alpha
    p = profile.params.p
    d = profile.d

    def potential(t):
        t = np.asarray(t, dtype=float)
        r = np.exp(np.minimum(t, 0.0))
        u = evaluate_u(profile, r)
        return -p * np.exp((alpha + 2.0) * t) * np.abs(u) ** (p - 1.0)

    tol = settings.truncation_tol
    T = (math.log(p) + (p - 1.0) * math.log(d) - math.log(tol)) / (alpha + 2.0)
    T = max(T, 5.0)
    for _ in range(4):
        if abs(float(potential(np.array([-T]))[0])) <= tol:
            break
        T += 5.0
    else:
        raise NonConvergenceError(
            "could not truncate the potential below truncation_tol",
            {"T": T, "V_at_minus_T": float(potential(np.array([-T]))[0])},
        )
    corners = tuple(math.log(z) for z in profile.nodal_radii[:-1])
    return SchrodingerProblem.from_potential(
        T, _BASE_INTERVALS, potential, corners=corners)


def _fd_mesh(T: float, M: int, corners: tuple) -> np.ndarray:
    """Uniform M-cell mesh on [-T, 0] with each corner swapped in for its
    nearest interior node.  Node count stays M + 1 and cell widths stay
    within a factor of 3/2 of uniform, so the assembly below keeps its
    clean h^2 behaviour while the potential is smooth inside every cell."""
    t = np.linspace(-T, 0.0, M + 1)
    if not corners:
        return t
    h = T / M
    idx = []
    for c in corners:
        i = int(round((c + T) / h))
        i = min(max(i, 1), M - 1)
        while i in idx:
            i += 1
        if i >= M:
            raise UsageError("too many potential corners for this mesh",
                             {"M": int(M), "corners": len(corners)})
        idx.append(i)
        t[i] = c
    if np.any(np.diff(t) <= 0.0):
        raise UsageError("potential corners too close together for this mesh",
                         {"M": int(M), "corners": len(corners)})
    return t


def fd_negative_eigenvalues(problem: SchrodingerProblem, M: int,
                            guess: np.ndarray | None = None) -> np.ndarray:
    """Raw negative eigenvalues of the M-cell discretization (no
    extrapolation).  The scheme is mass-lumped P1 on the corner-pinned mesh,
    symmetrized by the lumped mass into a standard tridiagonal problem; on a
    uniform mesh it is exactly the classical three-point stencil
    (2/h^2 + V_i on the diagonal, -1/h^2 off).

    With ``guess`` (approximations of all negative eigenvalues, from coarser
    levels), each is refined by a certified Rayleigh-quotient step
    (``_certified_refinement``).  Without a guess, or when the certificate
    fails, the eigenvalues are located by LAPACK Sturm-sequence bisection
    (stebz) restricted to (lo, 0], where lo lies below min V; -Delta_h is
    positive semidefinite, so no eigenvalue lies below lo and the bisection
    finds every negative one.  Both paths place each eigenvalue within
    bisection's stopping width 2^-52 ||T||_inf."""
    diag, off, lo = _fd_matrix(problem, M)
    if guess is not None:
        w = _certified_refinement(diag, off, lo, np.asarray(guess, dtype=float))
        if w is not None:
            return w
    w = eigh_tridiagonal(diag, off, eigvals_only=True, select="v",
                         select_range=(lo, 0.0))
    w = w[w < 0.0]
    if w.size > 1 and np.any(np.diff(w) <= 0.0):
        raise NonConvergenceError("negative eigenvalues are not strictly increasing")
    return w


def _fd_matrix(problem: SchrodingerProblem, M: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Diagonal, off-diagonal and spectral lower end lo < min V of the
    M-cell matrix.  Built apart from the solve, so the mesh arrays are freed
    before the solve allocates its own."""
    t = _fd_mesh(problem.T, M, problem.corners)
    h = np.diff(t)
    v = np.asarray(problem.potential(t[1:-1]), dtype=float)
    mass = 0.5 * (h[:-1] + h[1:])
    diag = (1.0 / h[:-1] + 1.0 / h[1:]) / mass + v
    off = (-1.0 / h[1:-1]) / np.sqrt(mass[:-1] * mass[1:])
    lo = min(float(v.min()), 0.0) - 1e-9 * (1.0 + abs(float(v.min())))
    return diag, off, lo


def _certified_refinement(diag: np.ndarray, off: np.ndarray, lo: float,
                          guess: np.ndarray) -> np.ndarray | None:
    """Rayleigh quotients rho_j refined from ``guess``, or None when they
    cannot be certified to bisection's accuracy.

    rho_j comes from ``_inverse_iteration`` at sigma_j = guess_j, and r_j is
    its residual norm plus an allowance of 4 w for the rounding of
    T x - rho x, where w = 2^-52 ||T||_inf is bisection's own stopping
    width.  With separators s_0 = lo, s_j = (rho_j + rho_{j+1}) / 2 and
    s_J = 0, and delta_j the distance from rho_j to its nearer separator,
    the values are returned only when

    * r_j^2 <= w delta_j.  As r_j >= 4 w, this makes delta_j >= 16 w and
      r_j <= delta_j / 4: the rho_j strictly increase, and the intervals
      [rho_j - r_j, rho_j + r_j], each of which holds an eigenvalue, are
      disjoint and lie inside their cells (s_{j-1}, s_j) with a margin that
      covers the rounding of the count;
    * the Sturm count below s_J = 0 is J.  No eigenvalue lies below lo, so
      the J negative eigenvalues are the J found in the intervals: exactly
      one, lambda_j, in each cell (s_{j-1}, s_j), and none is missing.

    The Kato-Temple bound then gives |lambda_j - rho_j| <= r_j^2 / delta_j
    <= w.
    """
    if guess.size == 0:
        return None
    width = _ULP * float(np.max(np.abs(diag) + np.abs(np.append(off, 0.0))
                                + np.abs(np.append(0.0, off))))
    found = _inverse_iteration(diag, off, guess)
    if found is None:
        return None
    rho, res = found
    # the rounding of T x - rho x is at most 4 u (||T||_inf + |rho|) <= 4 w
    res += 4.0 * width
    seps = np.concatenate(([lo], 0.5 * (rho[:-1] + rho[1:]), [0.0]))
    delta = np.minimum(rho - seps[:-1], seps[1:] - rho)
    if not np.all(res * res <= width * delta):
        return None
    if tridiagonal_negative_inertia(diag, off) != rho.size:
        return None
    return rho


def _inverse_iteration(diag: np.ndarray, off: np.ndarray,
                       shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Rayleigh quotient and residual norm ||T x - rho x|| of a unit x after
    two solves (T - sigma) x = b (LAPACK dgtsv, which overwrites the work
    arrays it is given) per shift sigma, or None if a solve breaks down.

    Every shift starts from the same fixed vector, a ramp with no mirror
    symmetry, so it meets every eigenvector and the result does not depend
    on the process that computes it.  The dot products and norms are
    ``np.einsum`` sums, not BLAS calls: OpenBLAS splits a long dot product
    across its threads, which makes its rounding depend on the thread count.
    """
    n = diag.size
    start = np.linspace(1.0, 2.0, n)
    work = np.empty(n)
    lower = np.empty(n - 1)
    upper = np.empty(n - 1)
    x = np.empty((n, 1))
    rho = np.empty(shifts.size)
    res = np.empty(shifts.size)
    for j, sigma in enumerate(shifts):
        x[:, 0] = start
        for _ in range(2):
            np.subtract(diag, sigma, out=work)
            lower[:] = off
            upper[:] = off
            _, _, _, x, info = dgtsv(lower, work, upper, x, 1, 1, 1, 1)
            scale = math.sqrt(np.einsum("ij,ij->", x, x))
            if info != 0 or not 0.0 < scale < math.inf:
                return None
            x /= scale
        y = x[:, 0]
        tx = np.multiply(diag, y, out=work)
        tx[:-1] += np.multiply(off, y[1:], out=lower)
        tx[1:] += np.multiply(off, y[:-1], out=upper)
        rho[j] = np.einsum("i,i->", y, tx)
        tx -= rho[j] * y
        res[j] = math.sqrt(np.einsum("i,i->", tx, tx))
    return rho, res


@dataclass(frozen=True)
class RadialSpectrum:
    """All negative eigenvalues of the truncated log-variable problem.

    ``lambdas`` are Richardson-extrapolated to the accuracy target
    eig_tol * (1 + |lambda|); ``M`` records the finest mesh used.
    ``discrepancy`` is max |rich - rich_prev| / (1 + |rich|) of the
    extrapolant pair that was accepted (None when unknown).
    """

    lambdas: np.ndarray
    T: float
    M: int
    eig_tol: float
    discrepancy: float | None = None

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        object.__setattr__(self, "lambdas", lam)
        if lam.size and not (np.all(lam < 0.0) and np.all(np.diff(lam) > 0.0)):
            raise UsageError("lambdas must be strictly increasing and negative")


def negative_spectrum(problem: SchrodingerProblem, settings: Settings = DEFAULT) -> RadialSpectrum:
    """All negative eigenvalues, extrapolated until mesh-converged.

    Solves the FD problem at M, 2M, 4M, ...; successive pairs give
    Richardson extrapolants (the FD error is h^2-regular), and the loop
    stops when two consecutive extrapolants agree to
    eig_tol * (1 + |lambda|) elementwise with identical counts.  The first
    level is bisected; each finer level is refined from a guess: lambda(M)
    on level 2M, then the h^2 prediction lambda(2M) + (lambda(2M) -
    lambda(M)) / 4, and no guess on the level after a count change.  A
    count that keeps changing, or failure to meet the tolerance within the
    level budget, raises NonConvergenceError rather than returning a guess;
    its context carries ``last_discrepancy``, the largest
    |rich - rich_prev| / (1 + |rich|) of the last extrapolant pair compared
    (None if no two consecutive levels had equal counts).
    """
    eig_tol = settings.eig_tol
    M = problem.M
    lam_prev = fd_negative_eigenvalues(problem, M)
    guess = lam_prev
    rich_prev = None
    discrepancy = None
    for _ in range(_MAX_EIG_LEVELS):
        M *= 2
        lam = fd_negative_eigenvalues(problem, M, guess)
        if lam.size != lam_prev.size:
            lam_prev, rich_prev, guess = lam, None, None
            continue
        guess = lam + (lam - lam_prev) / 4.0
        rich = (4.0 * lam - lam_prev) / 3.0
        if rich_prev is not None and rich.size == rich_prev.size:
            gap = np.abs(rich - rich_prev)
            discrepancy = float(np.max(gap / (1.0 + np.abs(rich)), initial=0.0))
            if np.all(gap <= eig_tol * (1.0 + np.abs(rich))):
                return RadialSpectrum(lambdas=rich, T=problem.T, M=M,
                                      eig_tol=eig_tol, discrepancy=discrepancy)
        lam_prev, rich_prev = lam, rich
    raise NonConvergenceError(
        "negative eigenvalues did not stabilize under mesh refinement",
        {"T": problem.T, "finest_M": int(M),
         "last_counts": int(lam_prev.size),
         "last_discrepancy": discrepancy},
    )


def tridiagonal_negative_inertia(diag: np.ndarray, off: np.ndarray) -> int:
    """Number of strictly negative eigenvalues of a symmetric tridiagonal
    matrix.

    One LAPACK ``dstebz`` call in value-range mode: it counts the eigenvalues
    in (vl, vu] as the difference of the Sturm counts at the two ends.  By
    Gershgorin every eigenvalue is >= -norm, so the count at
    vl = -2 norm - 1 is zero despite rounding.  vu lies just below 0:
    LAPACK treats a pivot <= pivmin = tiny * max(1, max off^2) as negative,
    so vu = -4 pivmin keeps an exact zero eigenvalue out of the count.
    ``abstol`` is the width of the interval, so the bisection stops after
    its first midpoint count.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    if diag.size == 0:
        return 0
    if off.size != diag.size - 1:
        raise UsageError("off-diagonal must have length len(diag) - 1")
    if diag.size == 1:
        return int(diag[0] < 0.0)
    norm = float(np.max(np.abs(diag))) + 2.0 * float(np.max(np.abs(off)))
    vl = -2.0 * norm - 1.0
    vu = -4.0 * _TINY * max(1.0, float(np.max(off * off)))
    # range 1 selects the eigenvalues in (vl, vu]; il and iu are unused
    m, _, _, _, info = dstebz(diag, off, 1, vl, vu, 0, 0, vu - vl, "B")
    if info != 0:
        raise NonConvergenceError("LAPACK dstebz failed to count eigenvalues",
                                  {"info": int(info), "n": int(diag.size)})
    return int(m)


def oscillation_counts(profile: RadialProfile, problem: SchrodingerProblem,
                       k_max: int, settings: Settings = DEFAULT) -> tuple:
    """#{j : lambda_j < -k^2} for k = 0..k_max, by Sturm oscillation.

    The scaled Prufer angle theta_k of -psi'' + V psi = E_k psi, E_k = -k^2,
    given by tan theta_k = s psi / psi' with s = max(k, 1), obeys

        theta_k' = s cos^2 theta_k + (E_k - V) / s sin^2 theta_k

    and crosses each multiple of pi upward, once per zero of psi.  It starts
    at t = -T from the solution that stays bounded toward -infinity, where
    V is negligible: psi = e^(k t) gives theta = pi/4 for k >= 1, and
    psi = 1 gives theta = pi/2 for k = 0.  With Dirichlet at t = 0 the
    count of eigenvalues below E_k is floor(theta_k(0) / pi).

    All k form one vector ODE, integrated by DOP853 at ``settings.rtol``
    and ``settings.atol`` and restarted at each corner of ``problem``.  u is
    read one radius at a time from the trajectory's dense output
    (``radial.u_reader``), the polynomials route A samples, with no mesh
    and no matrix.  A segment that the solver cannot
    finish within ``_MAX_OSCILLATION_STEPS`` steps raises
    NonConvergenceError.
    """
    alpha, p = profile.params.alpha, profile.params.p
    ks = np.arange(k_max + 1, dtype=float)
    s = np.maximum(ks, 1.0)
    solver = ode(_prufer_rate).set_integrator(
        "dop853", rtol=settings.rtol, atol=settings.atol,
        nsteps=_MAX_OSCILLATION_STEPS)
    solver.set_f_params(u_reader(profile), alpha, p, s, 1.0 / s,
                        -ks * ks / s - s)
    theta = np.where(ks == 0.0, 0.5 * math.pi, 0.25 * math.pi)
    ends = (-problem.T, *problem.corners, 0.0)
    for t0, t1 in zip(ends, ends[1:]):
        theta = solver.set_initial_value(theta, t0).integrate(t1)
        if not solver.successful():
            raise NonConvergenceError(
                "oscillation count stopped short of the end of its segment",
                {"segment": [t0, t1], "t_reached": float(solver.t),
                 "return_code": int(solver.get_return_code()),
                 "k_max": int(k_max), "alpha": alpha, "p": p,
                 "n_nodal": profile.params.n_nodal},
            )
    return tuple(int(c) for c in np.floor(theta / math.pi))


def _prufer_rate(t, theta, u, alpha, p, s, inv_s, shift):
    """theta' = s + ((E_k - V) / s - s) sin^2 theta of ``oscillation_counts``,
    where shift = E_k / s - s and -V = p r^(alpha+2) |u(r)|^(p-1) at r = e^t.
    It lives at module level and takes its data, the reader u among it, as
    arguments: scipy's DOP853 keeps a reference to its callback after every
    solve but releases the arguments, so a closure callback would keep its
    data alive."""
    r = math.exp(t)
    coef = inv_s * (p * r ** (alpha + 2.0) * abs(u(r)) ** (p - 1.0))
    coef += shift
    rate = np.sin(theta)
    rate *= rate
    rate *= coef
    rate += s
    return rate


def radial_morse_index(profile: RadialProfile, settings: Settings = DEFAULT) -> int:
    """Negative-eigenvalue count of the regular radial linearized operator:
    the k = 0 count of ``oscillation_counts``."""
    return oscillation_counts(profile, build_schrodinger(profile, settings), 0, settings)[0]


def mode_negative_count(profile: RadialProfile, k: int, settings: Settings = DEFAULT) -> int:
    """Negative-eigenvalue count of the angular-mode-k radial operator (the
    radial operator plus k^2/r^2): the k count of ``oscillation_counts``."""
    if not (isinstance(k, int) and k >= 1):
        raise UsageError(f"k must be an integer >= 1, got {k}")
    return oscillation_counts(profile, build_schrodinger(profile, settings), k, settings)[k]
