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
  Richardson extrapolation in the mesh, M = 2048, 4096, ... up to 262144.
  The meshes are nested: uniform on each segment between the nodal
  corners, each level bisecting every cell of the one before, and each
  node carries the average of V over its hat function, so the h^2 error
  constant is the same on every level.
  LAPACK bisection locates them on the first, coarsest level; each finer
  level refines the coarser levels' values by inverse iteration and keeps
  the Rayleigh quotients only when a Sturm count and the Kato-Temple bound
  certify them to bisection's accuracy (certified Rayleigh-quotient
  refinement), and bisects otherwise.  The ladder stops at the first pair
  of extrapolants that agree, so most points stop at M = 8192;

* ``oscillation_counts``: #{j : lambda_j < -w^2} for any set of wave
  numbers w at once, by Sturm oscillation: the Prufer angle of the
  solution at energy -w^2, integrated by an adaptive ODE solver across
  [-T, 0], counts its zeros.  ``radial_morse_index`` (k = 0) and
  ``mode_negative_count`` (one k >= 1) are one-line wrappers over it that
  no production code calls; they remain only as span targets of
  ``perfbench/spans.py``.

The oscillation count reads the same potential as the eigenvalue route but
shares no mesh, matrix or extrapolation with it, which is what makes the
cross-validation in the Morse assembly meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import Callable

import numpy as np
from scipy.integrate import ode
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgtsv, dstebz
from scipy.special import roots_jacobi

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
# it from there.  The base is the one bisected level, so it is kept coarse:
# the ladder's earliest stop is at 4 * 2048 = 8192, where the default
# eig_tol is met at most points, and a finer base would over-resolve them.
_BASE_INTERVALS = 2048
# Eigenvalue extrapolation may double M at most this many times, so the
# finest mesh the ladder can reach is 2048 * 2^7 = 262144.  On the nested
# corner mesh the 120 benchmark points stop at 8192 or 16384, (0, 1.8, 2)
# among them, well before the roundoff floor of about 4 eps / h^2; a ladder
# that climbs past 65536 reads that floor, not the discretization error.
_MAX_EIG_LEVELS = 7
# DOP853 step budget of one oscillation-count segment; the default grid's
# segments take 57-140 steps, those of (0, 50, 3) up to 238.
_MAX_OSCILLATION_STEPS = 20000

_TINY = float(np.finfo(float).tiny)
_ULP = float(np.finfo(float).eps)  # 2^-52, LAPACK's dlamch("P")


@dataclass
class SchrodingerProblem:
    """Truncated log-variable eigenproblem on t in [-T, 0], Dirichlet ends,
    with a base mesh of M cells.

    ``potential`` is the callable V, read at the nodes and cell midpoints
    of each mesh a level builds (``_fd_matrix``), where a positive sample is
    refused.  ``corners`` lists t-locations where the potential is
    continuous but not smooth (for a nodal profile, the logs of the interior
    nodal radii), and ``corner_power`` is the exponent kappa of its
    behaviour |t - c|^kappa there: |u|^(p-1) vanishes like |t - c|^(p-1)
    wherever u crosses zero.  The corners split [-T, 0] into segments, and
    every level's mesh is uniform on each segment (``mesh``), so the
    corners are nodes on every level and each level bisects the cells of
    the one before.  ``from_potential`` validates T, M and the corners, and
    samples nothing; the problem splits the M base cells among the segments
    once, when it is built (``_segment_cells``), and every level reads that
    split.
    """

    T: float
    M: int
    potential: Callable = field(repr=False)
    corners: tuple = ()
    corner_power: float = 0.0
    # base cells of each segment between corners
    _cells: tuple = field(init=False, repr=False, compare=False)
    # (doublings, V at the nodes, V at the midpoints) of the last level
    # built: its midpoints are the next level's new nodes
    _samples: tuple | None = field(default=None, init=False, repr=False,
                                   compare=False)

    @classmethod
    def from_potential(cls, T: float, M: int, potential: Callable,
                       corners: tuple = (),
                       corner_power: float = 0.0) -> "SchrodingerProblem":
        if not (T > 0.0 and math.isfinite(T)):
            raise UsageError(f"T must be finite and > 0, got {T}")
        if M < 4:
            raise UsageError(f"M must be at least 4, got {M}")
        corners = tuple(sorted(float(c) for c in corners if -T < c < 0.0))
        if M < 2 * (len(corners) + 1):
            raise UsageError("M must give each segment between corners two cells",
                             {"M": int(M), "corners": len(corners)})
        return cls(T=T, M=M, potential=potential, corners=corners,
                   corner_power=float(corner_power))

    def __post_init__(self):
        self._cells = tuple(_segment_cells(self.T, self.M, self.corners))

    def mesh(self, doublings: int = 0) -> np.ndarray:
        """Nodes of the M-cell base mesh on [-T, 0], each cell bisected
        ``doublings`` times: uniform on every segment between corners, so
        the corners are nodes, and a level's nodes are every other node of
        the next (``np.linspace`` places them bit for bit).  Without corners
        it is the uniform mesh."""
        ends = (-self.T, *self.corners, 0.0)
        pieces = [np.linspace(a, b, (n << doublings) + 1)[:-1]
                  for a, b, n in zip(ends, ends[1:], self._cells)]
        return np.concatenate(pieces + [[0.0]])


def build_schrodinger(profile: RadialProfile, settings: Settings = DEFAULT) -> SchrodingerProblem:
    """Build the truncated log-variable problem for a nodal profile.

    T is chosen from the bound |V(t)| <= p d^(p-1) e^((alpha+2)t) so that
    |V(-T)| <= eig_tol / 100, then verified on the actual potential and
    enlarged if needed: the cut-off follows the eigenvalue target, and T
    grows as eig_tol is tightened.  The base mesh has ``_BASE_INTERVALS``
    cells, the coarsest rung of ``negative_spectrum``'s ladder and the only
    one it bisects.  The corners are the logs of the interior nodal radii,
    where V vanishes like |t - c|^(p-1).
    """
    alpha = profile.params.alpha
    p = profile.params.p
    d = profile.amp

    def potential(t):
        t = np.asarray(t, dtype=float)
        r = np.exp(np.minimum(t, 0.0))
        u = evaluate_u(profile, r)
        return -p * np.exp((alpha + 2.0) * t) * np.abs(u) ** (p - 1.0)

    tol = settings.eig_tol / 100.0
    T = (math.log(p) + (p - 1.0) * math.log(d) - math.log(tol)) / (alpha + 2.0)
    T = max(T, 5.0)
    for _ in range(4):
        if abs(float(potential(np.array([-T]))[0])) <= tol:
            break
        T += 5.0
    else:
        raise NonConvergenceError(
            "could not truncate the potential below eig_tol / 100",
            {"T": T, "V_at_minus_T": float(potential(np.array([-T]))[0])},
        )
    corners = tuple(math.log(z) for z in profile.nodal_radii[:-1])
    return SchrodingerProblem.from_potential(
        T, _BASE_INTERVALS, potential, corners=corners, corner_power=p - 1.0)


def _segment_cells(T: float, M: int, corners: tuple) -> list:
    """Cells of the M-cell base mesh on each segment [-T, c_1], ...,
    [c_(n-1), 0], in proportion to the segment lengths, each at least 2.
    A segment whose share falls below 2 gets 2, and the rest is shared again
    among the others; the floors of the final shares are topped up by
    largest remainder, so the counts sum to M."""
    ends = (-T, *corners, 0.0)
    lengths = [b - a for a, b in zip(ends, ends[1:])]
    fixed = set()
    while True:
        free = sum(x for i, x in enumerate(lengths) if i not in fixed)
        share = [(M - 2 * len(fixed)) * x / free for x in lengths]
        short = {i for i, x in enumerate(share) if i not in fixed and x < 2.0}
        if not short:
            break
        fixed |= short
    cells = [2 if i in fixed else math.floor(x) for i, x in enumerate(share)]
    by_remainder = sorted((i for i in range(len(cells)) if i not in fixed),
                          key=lambda i: cells[i] - share[i])
    for i in by_remainder[:M - sum(cells)]:
        cells[i] += 1
    return cells


@lru_cache(maxsize=16)
def _gauss_jacobi(kappa: float) -> tuple[tuple, tuple]:
    """Nodes s_q and weights w_q / s_q^kappa of the 4-point rule
    sum_q w_q f(s_q) for the integral over [0, 1] of s^kappa f(s).  Cached:
    every level of a ladder asks for the same kappa = p - 1, and
    ``roots_jacobi`` costs about 0.1 ms a call."""
    x, w = roots_jacobi(4, 0.0, kappa)
    s = 0.5 * (1.0 + x)
    return tuple(s.tolist()), tuple((w * 2.0 ** (-kappa - 1.0) / s ** kappa).tolist())


def fd_negative_eigenvalues(problem: SchrodingerProblem, M: int,
                            guess: np.ndarray | None = None) -> np.ndarray:
    """Raw negative eigenvalues of the M-cell discretization (no
    extrapolation), M = problem.M 2^l.  The scheme is mass-lumped P1 on the
    nested corner mesh, with the potential averaged over each node's hat
    function, symmetrized by the lumped mass into a standard tridiagonal
    problem; on a uniform mesh with a constant V it is exactly the classical
    three-point stencil (2/h^2 + V on the diagonal, -1/h^2 off).

    With ``guess`` (approximations of all negative eigenvalues, from coarser
    levels), each is refined by a certified Rayleigh-quotient step
    (``_certified_refinement``).  Without a guess, or when the certificate
    fails, the eigenvalues are located by LAPACK Sturm-sequence bisection
    (stebz) restricted to (lo, 0], where lo lies below min v; -Delta_h is
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
    """Diagonal, off-diagonal and spectral lower end lo < min v of the
    M-cell matrix, M = problem.M 2^l.  Built apart from the solve, so the
    mesh arrays are freed before the solve allocates its own.

    Node i carries v_i = (int V phi_i) / (int phi_i), phi_i its hat
    function.  Simpson's rule on a cell [a, b] with midpoint m gives
    h/6 (V_a + 2 V_m) to node a and h/6 (2 V_m + V_b) to node b; it is
    summed as V_i plus the excess h/3 (V_m - V_i) of each cell over
    V_i h/2, so a constant V is kept exactly.  The two cells at a corner c
    take the 4-point Gauss-Jacobi rule with weight |t - c|^kappa on
    V / |t - c|^kappa instead.  Raises UsageError when a sample of V is
    positive."""
    doublings = max(M // problem.M, 1).bit_length() - 1
    if M != problem.M << doublings:
        raise UsageError("M must be the base M times a power of 2",
                         {"M": int(M), "base_M": int(problem.M)})
    h, V, Vm = _level_samples(problem, doublings)
    # each cell's excess for its left and for its right node
    left = Vm - V[:-1]
    left *= h
    left /= 3.0
    right = Vm - V[1:]
    right *= h
    right /= 3.0
    highest = max(float(V.max()), float(Vm.max()))
    if problem.corners:
        # the cell after each corner and the cell before it take 4
        # Gauss-Jacobi points at distances s h from the corner.  With x the
        # point's place in its cell, int V phi = h sum_q w_q V(t_q) /
        # s_q^kappa phi(x_q), where phi = 1 - x for the cell's left node and
        # x for its right node.  A few corners: plain Python beats numpy.
        s, w = _gauss_jacobi(problem.corner_power)
        cells = []
        for c, k in zip(problem.corners, accumulate(
                n << doublings for n in problem._cells)):
            after, before = float(h[k]), float(h[k - 1])
            cells.append((k, [c + q * after for q in s], s))
            cells.append((k - 1, [c - q * before for q in s], [1.0 - q for q in s]))
        g = np.asarray(problem.potential(np.array([t for _, ts, _ in cells for t in ts])),
                       dtype=float).tolist()
        highest = max(highest, max(g))
        for i, (cell, _, x) in enumerate(cells):
            gw = [a * b for a, b in zip(g[4 * i:4 * i + 4], w)]
            left[cell] = h[cell] * (sum(a * (1.0 - b) for a, b in zip(gw, x))
                                    - 0.5 * V[cell])
            right[cell] = h[cell] * (sum(a * b for a, b in zip(gw, x))
                                     - 0.5 * V[cell + 1])
    if highest > 1e-9:
        raise UsageError("potential must be nonpositive", {"max_V": highest})
    mass = 0.5 * (h[:-1] + h[1:])
    v = left[1:]  # the interior nodes' excesses, summed in place
    v += right[:-1]
    v /= mass
    v += V[1:-1]
    diag = (1.0 / h[:-1] + 1.0 / h[1:]) / mass + v
    off = (-1.0 / h[1:-1]) / np.sqrt(mass[:-1] * mass[1:])
    lo = min(float(v.min()), 0.0) - 1e-9 * (1.0 + abs(float(v.min())))
    return diag, off, lo


def _level_samples(problem: SchrodingerProblem,
                   doublings: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell widths and V at the nodes and at the cell midpoints of the level
    ``doublings`` bisections above the base.  The midpoints are the next
    level's new nodes, so when the last samples taken are the previous
    level's, V at the nodes is those samples interleaved and V is read at
    the midpoints alone; the base level reads its nodes too.  The samples
    are kept on the problem for the next level."""
    fine = problem.mesh(doublings + 1)
    last, problem._samples = problem._samples, None
    if last is not None and last[0] == doublings - 1:
        V = np.empty(fine.size // 2 + 1)
        V[::2], V[1::2] = last[1], last[2]
    else:
        V = np.asarray(problem.potential(fine[::2]), dtype=float)
    last = None  # frees the previous level's samples before the next read
    Vm = np.asarray(problem.potential(fine[1::2]), dtype=float)
    problem._samples = (doublings, V, Vm)
    return np.diff(fine[::2]), V, Vm


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

    Solves the FD problem at M, 2M, 4M, ... up to M 2^_MAX_EIG_LEVELS;
    successive pairs give Richardson extrapolants (the FD error is
    h^2-regular), and the loop stops when two consecutive extrapolants
    with identical counts have a discrepancy
    max |rich - rich_prev| / (1 + |rich|) <= eig_tol, the one rule by
    which the tie guard also reuses a spectrum.  So the earliest stop is at
    4M; starting from a coarse M lets a point stop as soon as its
    extrapolants agree, before the finer rungs' roundoff floor is reached:
    a three-point matrix carries about 4 eps / h^2, which for T = 13 is
    3.5e-10 at M = 8192 and 2.2e-8 at M = 65536.  The first level
    is bisected; each finer level is refined from a guess: lambda(M) on
    level 2M, then the h^2 prediction lambda(2M) + (lambda(2M) -
    lambda(M)) / 4, and no guess on the level after a count change.  A
    count that keeps changing, or failure to meet the tolerance within the
    level budget, raises NonConvergenceError rather than returning a guess;
    its context carries ``last_discrepancy``, the largest
    |rich - rich_prev| / (1 + |rich|) of the last extrapolant pair compared
    (None if no two consecutive levels had equal counts).
    """
    eig_tol = settings.eig_tol
    M = problem.M
    try:
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
            if rich_prev is not None:
                gap = np.abs(rich - rich_prev)
                discrepancy = float(np.max(gap / (1.0 + np.abs(rich)), initial=0.0))
                if discrepancy <= eig_tol:
                    return RadialSpectrum(lambdas=rich, T=problem.T, M=M,
                                          eig_tol=eig_tol, discrepancy=discrepancy)
            lam_prev, rich_prev = lam, rich
    finally:
        # the samples serve one walk up the ladder; a problem that outlives
        # it, in a caller or in a traceback, holds none
        problem._samples = None
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
                       wave_numbers, settings: Settings = DEFAULT) -> tuple:
    """#{j : lambda_j < -w^2} for each wave number w >= 0 of
    ``wave_numbers``, in their order, by Sturm oscillation.

    An integer w = k is angular mode k, w = 0 giving the radial index.
    ``assemble_morse`` adds the wave numbers s k of the alpha = 0 companion,
    s = (alpha + 2) / 2: by the power map its eigenvalues are lambda_j / s^2,
    so its count below -k^2 is the count of lambda_j below -(s k)^2.

    The scaled Prufer angle theta_w of -psi'' + V psi = E_w psi,
    E_w = -w^2, given by tan theta_w = s_w psi / psi' with s_w = max(w, 1),
    obeys

        theta_w' = s_w cos^2 theta_w + (E_w - V) / s_w sin^2 theta_w

    and crosses each multiple of pi upward, once per zero of psi.  It starts
    at t = -T from the solution that stays bounded toward -infinity, where
    V is negligible: psi = e^(w t), so tan theta_w = s_w / w (theta = pi/4
    for w >= 1, pi/2 for w = 0).  With Dirichlet at t = 0 the count of
    eigenvalues below E_w is floor(theta_w(0) / pi).

    All w form one vector ODE, integrated by DOP853 at ``settings.rtol``
    and ``settings.atol`` and restarted at each corner of ``problem``.  u is
    read one radius at a time from the trajectory's dense output
    (``radial.u_reader``), the polynomials route A samples, with no mesh
    and no matrix.  A segment that the solver cannot
    finish within ``_MAX_OSCILLATION_STEPS`` steps raises
    NonConvergenceError.
    """
    alpha, p = profile.params.alpha, profile.params.p
    ws = np.asarray(wave_numbers, dtype=float)
    s = np.maximum(ws, 1.0)
    solver = ode(_prufer_rate).set_integrator(
        "dop853", rtol=settings.rtol, atol=settings.atol,
        nsteps=_MAX_OSCILLATION_STEPS)
    solver.set_f_params(u_reader(profile), alpha, p, s, 1.0 / s,
                        -ws * ws / s - s)
    theta = np.arctan2(s, ws)
    ends = (-problem.T, *problem.corners, 0.0)
    for t0, t1 in zip(ends, ends[1:]):
        theta = solver.set_initial_value(theta, t0).integrate(t1)
        if not solver.successful():
            raise NonConvergenceError(
                "oscillation count stopped short of the end of its segment",
                {"segment": [t0, t1], "t_reached": float(solver.t),
                 "return_code": int(solver.get_return_code()),
                 "max_wave_number": float(ws.max()), "alpha": alpha, "p": p,
                 "n_nodal": profile.params.n_nodal},
            )
    return tuple(int(c) for c in np.floor(theta / math.pi))


def _prufer_rate(t, theta, u, alpha, p, s, inv_s, shift):
    """theta' = s + ((E_w - V) / s - s) sin^2 theta of ``oscillation_counts``,
    where shift = E_w / s - s and -V = p r^(alpha+2) |u(r)|^(p-1) at r = e^t.
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
    return oscillation_counts(profile, build_schrodinger(profile, settings), [0.0], settings)[0]


def mode_negative_count(profile: RadialProfile, k: int, settings: Settings = DEFAULT) -> int:
    """Negative-eigenvalue count of the angular-mode-k radial operator (the
    radial operator plus k^2/r^2): the k count of ``oscillation_counts``."""
    if not (isinstance(k, int) and k >= 1):
        raise UsageError(f"k must be an integer >= 1, got {k}")
    return oscillation_counts(profile, build_schrodinger(profile, settings), [float(k)], settings)[0]
