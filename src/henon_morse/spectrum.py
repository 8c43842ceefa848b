"""Negative spectrum of the singular linearized operator, two ways.

The linearization of the nodal problem at a solution u carries the singular
eigenvalue problem

    -(psi'' + psi'/r) - p r^alpha |u|^(p-1) psi  =  lambda psi / r^2

on (0, 1) with psi(1) = 0.  The substitution t = log r removes both the
1/r and the 1/r^2 singularities at once and turns the problem into a
regular Schrodinger eigenproblem on a half-line,

    -psi_tt + V(t) psi = lambda psi,      V(t) = -p e^((alpha+2) t) |u(e^t)|^(p-1),

with V <= 0 decaying like e^((alpha+2)t) as t -> -infinity.  Truncating at
t = -T with Dirichlet conditions moves a negative eigenvalue lambda by about
exp(-2 sqrt(|lambda|) T), which is small only for a deep lambda: it is
3.2e-6 for lambda_1 = -0.285 of (0, 2, 1) at T = 12.9, far above eig_tol,
and at p = 1.05 a shallow lambda's decay length 1/sqrt(|lambda|) nears T,
so the cut-off sets most of its value.  This module computes:

* ``negative_spectrum``: all negative eigenvalues lambda_1 < ... < lambda_J
  of the truncated problem, by three-point finite differences and
  Richardson extrapolation in the mesh, M = 1024, 2048, ... up to 262144.
  The meshes are nested: the nodal corners are nodes, the first segment
  [-T, c_1] is graded, finest at c_1 and coarsest at -T where V and psi^2
  are exponentially small, the others are uniform, each level bisects every
  cell of the one before, and each node carries the average of V over its
  hat function, so the h^2 error constant is the same on every level.
  LAPACK bisection locates them on the first, coarsest level; each finer
  level refines the coarser levels' values by inverse iteration and keeps
  the Rayleigh quotients only when a Sturm count and the Kato-Temple bound
  certify them to bisection's accuracy (certified Rayleigh-quotient
  refinement), and bisects otherwise.  The ladder stops at the first pair
  of extrapolants that agree, so most points stop at M = 4096;

* ``oscillation_counts``: #{j : lambda_j < -w^2} for any set of wave
  numbers w at once, by Sturm oscillation: the Prufer angle of the
  solution at energy -w^2, integrated by the Dormand-Prince 5(4) pair
  up to t = 0 in one pass, none looser than ``_LOOSEST``, counts its
  zeros; ``confirm_counts`` runs it on route C's ladder of tolerances,
  whose measured accuracy lives here too.  ``radial_morse_index`` (k = 0)
  and ``mode_negative_count`` (one k >= 1), one-line wrappers over it that
  no production code calls, are kept as span targets of ``perfbench/spans.py``.

The oscillation count reads the profile alone: it shares no truncation,
mesh, matrix or extrapolation with the eigenvalue route, which is what
makes the cross-validation in the Morse assembly meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import accumulate
from typing import Callable

import numpy as np

from ._compiled import dgtsv, dopri5, dsbevd, dstebz
from .config import DEFAULT, Settings
from .errors import NonConvergenceError, UsageError, integer_at_least
from .radial import RadialProfile, evaluate_u, u_reader

__all__ = [
    "SchrodingerProblem",
    "RadialSpectrum",
    "build_schrodinger",
    "negative_spectrum",
    "fd_negative_eigenvalues",
    "oscillation_counts",
    "confirm_counts",
    "radial_morse_index",
    "mode_negative_count",
    "tridiagonal_negative_inertia",
]

# Base number M of mesh cells of the log-variable problem; route A doubles
# it from there.  The base is the one bisected level, so it is kept coarse:
# the ladder's earliest stop is at 4 * 1024 = 4096, where the default
# eig_tol is met at 105 of the 120 benchmark points (the rest stop at 8192).
# A graded base of 512 cells is slower than 1024, and a uniform 1024 alone
# saved only 0.75 ms a point (2-core x86-64 machine).
_BASE_INTERVALS = 1024
# Eigenvalue extrapolation may double M at most this many times, so the
# finest mesh the ladder can reach is 1024 * 2^8 = 262144.  The 120
# benchmark points stop at 4096 or 8192, (0, 1.8, 2) among them, before the
# roundoff floor of about 4 eps / h^2 at the finest cell h; at 32768 that
# floor is 3.0e-8 for T = 13, above the default eig_tol, so a ladder that
# climbs that far reads the floor, not the discretization error.
_MAX_EIG_LEVELS = 8
# Stretch gamma of route A's first segment, [-T, c_1]: its nodes are uniform
# in xi under t = c_1 - (c_1 + T) expm1(gamma xi) / expm1(gamma), so its
# cells widen e^gamma = 4.5-fold from c_1 to -T, where V ~ e^((alpha+2) t)
# and psi^2 are exponentially small.  Measured on the 120 benchmark points
# (2-core x86-64 machine), route A's time per point at gamma = 1, 1.5, 2 and
# 2.5 is 3.3, 2.8, 2.5 and 2.5 ms, with the same integers; but gamma = 2
# makes the finest cell at a stop finer, raising the floor 4 eps / h^2 to
# 1.8e-9 (1 + |lambda|), where 1.5 keeps it at 1.1e-9 (1.0e-9 on the
# uniform mesh).
_GRADING = 1.5
# DOPRI5 step budget of one oscillation-count segment.  At the default
# ladder's rungs, rtol 1e-7, 1e-10 and 1e-12, the default grid's segments
# take 28-99, 99-295 and 242-721 steps, those of (0, 50, 3) up to 185, 480
# and 1148, and 4516 at rtol 1e-15.
_MAX_OSCILLATION_STEPS = 20000
# Route C's ladder: a count needs only the side of a multiple of pi that a
# Prufer angle ends on, so it is first integrated at 1000 times rtol and
# atol.  A pass stands when its counts equal route A's and every angle lies
# at least _MIN_MARGIN from a multiple of pi; otherwise the next pass runs
# at rtol, then at rtol / 100, after which the counts either match or are
# refused.  No pass is looser than _LOOSEST, the coarse rung at the defaults
# (about 1e-7 and 1e-9), since no looser pair's error was measured; it is
# that product itself, so the cap leaves the default ladder as it is.
_COARSE = 1000.0
# Worst angle error of each rung at the defaults, against a DOP853 pass at
# rtol 1e-13 started at -T, on the wave numbers the assembly counts at the
# reporting tuples measured: the 120 benchmark tuples, the default grid's
# 118 route C calls, the 91 reports of the low-p scan, and (0, 3, 5),
# (0, 3, 6), (0, 2, 6), (6, 3, 4), (0, 10, 2), (0, 10, 3) and (0, 20, 1):
#   rtol 1e-7:  7.3e-4 rad at (0, 20, 1), at most 9.6e-5 elsewhere, at
#               (1, 1.05, 3); the smallest margin there is 4.4e-3 rad;
#   rtol 1e-10: 2.7e-7 at (0, 20, 1), at most 9.5e-8 elsewhere;
#   rtol 1e-12: 1.4e-8 at (0, 20, 1), at most 4.7e-9 elsewhere.
# _MIN_MARGIN is 21x the coarse rung's error but at (0, 20, 1), where it is
# 2.7x; a pass that stands has a margin above its error, so its counts hold.
_MIN_MARGIN = 2e-3
_LOOSEST = (_COARSE * DEFAULT.rtol, _COARSE * DEFAULT.atol)

_TINY = float(np.finfo(float).tiny)
_ULP = float(np.finfo(float).eps)  # 2^-52, LAPACK's dlamch("P")


@dataclass
class SchrodingerProblem:
    """Truncated log-variable eigenproblem on t in [-T, 0], Dirichlet ends,
    with a base mesh of M cells.

    ``potential`` is the callable V, read at the nodes of each mesh a
    level builds and at the next level's new node inside each cell
    (``_fd_matrix``), where a positive sample is refused.  ``corners``
    lists t-locations where the potential is continuous but not smooth (for
    a nodal profile, the logs of the interior nodal radii), and
    ``corner_power`` is the exponent kappa of its behaviour |t - c|^kappa
    there: |u|^(p-1) vanishes like |t - c|^(p-1) wherever u crosses zero.  The corners split [-T, 0] into segments;
    every level's mesh (``mesh``) grades the first, [-T, c_1] or all of
    [-T, 0] without corners, and is uniform on the others, so the corners
    are nodes on every level and each level bisects the cells of the one
    before.  Building a problem validates T, M and the corners
    (``UsageError``), keeps the corners inside (-T, 0) in order, and samples
    nothing; it splits the M base cells among the segments once
    (``_segment_cells``), and every level reads that split.
    """

    T: float
    M: int
    potential: Callable = field(repr=False)
    corners: tuple = ()
    corner_power: float = 0.0
    # base cells of each segment between corners
    _cells: tuple = field(init=False, repr=False, compare=False)
    # (doublings, V at the nodes, V at the new nodes) of the last level
    # built: one new node inside each cell, the next level's odd nodes
    _samples: tuple | None = field(default=None, init=False, repr=False,
                                   compare=False)

    def __post_init__(self):
        T, M = self.T, self.M
        if not (T > 0.0 and math.isfinite(T)):
            raise UsageError(f"T must be finite and > 0, got {T}")
        if M < 4:
            raise UsageError(f"M must be at least 4, got {M}")
        self.corners = tuple(sorted(float(c) for c in self.corners if -T < c < 0.0))
        if M < 2 * (len(self.corners) + 1):
            raise UsageError("M must give each segment between corners two cells",
                             {"M": int(M), "corners": len(self.corners)})
        self.corner_power = float(self.corner_power)
        self._cells = tuple(_segment_cells(T, M, self.corners))

    def mesh(self, doublings: int = 0) -> np.ndarray:
        """Nodes of the M-cell base mesh on [-T, 0], each cell bisected
        ``doublings`` times.  The first segment, [-T, c_1] (all of [-T, 0]
        without corners), is uniform in xi in [0, 1] under
        t = c_1 - (c_1 + T) expm1(gamma xi) / expm1(gamma), gamma =
        ``_GRADING``: finest at c_1, where its cells match the next
        segment's, and coarsest at -T, where V is negligible.  The other
        segments are uniform.  The corners are nodes, and a level's nodes
        are every other node of the next, bit for bit: xi = i / n is a
        correctly rounded quotient, so 2i / 2n is the same float, and
        ``np.linspace`` places the uniform segments."""
        ends = (-self.T, *self.corners, 0.0)
        n = self._cells[0] << doublings
        stretch = np.expm1(_GRADING * (np.arange(n, 0, -1) / n))
        stretch *= (ends[1] + self.T) / math.expm1(_GRADING)
        first = ends[1] - stretch
        first[0] = -self.T
        pieces = [np.linspace(a, b, (k << doublings) + 1)[:-1]
                  for a, b, k in zip(ends[1:], ends[2:], self._cells[1:])]
        return np.concatenate([first, *pieces, [0.0]])


def build_schrodinger(profile: RadialProfile, settings: Settings = DEFAULT) -> SchrodingerProblem:
    """Build the truncated log-variable problem for a nodal profile.

    T is chosen from the bound |V(t)| <= p d^(p-1) e^((alpha+2)t) so that
    |V(-T)| <= eig_tol / 100, then verified on the actual potential and
    enlarged if needed: the cut-off follows the eigenvalue target, and T
    grows as eig_tol is tightened.  The base mesh has ``_BASE_INTERVALS``
    cells, the coarsest rung of ``negative_spectrum``'s ladder and the only
    one it bisects; its first segment is graded, so most of its cells sit
    where V is not negligible.  The corners are the logs of the interior
    nodal radii, where V vanishes like |t - c|^(p-1).
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
    return SchrodingerProblem(T, _BASE_INTERVALS, potential, corners=corners,
                              corner_power=p - 1.0)


def _segment_cells(T: float, M: int, corners: tuple) -> list:
    """Cells of the M-cell base mesh on each segment [-T, c_1], ...,
    [c_(n-1), 0], in proportion to the segment lengths, each at least 2.
    The graded first segment counts by its effective length
    L gamma / expm1(gamma), the length its cells would cover at the width
    of its finest one, so that cell matches those of the segments beside
    it.  A segment whose share falls below 2 gets 2, and the rest is shared
    again among the others; the floors of the final shares are topped up by
    largest remainder, so the counts sum to M."""
    ends = (-T, *corners, 0.0)
    lengths = [b - a for a, b in zip(ends, ends[1:])]
    lengths[0] *= _GRADING / math.expm1(_GRADING)
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
    every level of a ladder asks for the same kappa = p - 1.

    The rule on [-1, 1] with weight (1 + x)^kappa is formed as scipy's
    ``roots_jacobi(4, 0, kappa)`` forms it, in the same operations: the
    eigenvalues of the Jacobi matrix (LAPACK dsbevd), one Newton step on
    P_4 with the integer-degree recurrence of scipy's ``eval_jacobi``, and
    weights 1 / (P_3 P_4') normalized to the integral of the weight,
    mu0 = 2^(kappa+1) / (kappa + 1).  The nodes equal scipy's bit for bit.
    scipy forms mu0 through Gamma, so the weights differ from its: by at
    most 20 ulps for kappa <= 10, and by up to 257 ulps beyond, where its
    Gamma is the less accurate (134 ulps off at kappa = 62.2)."""
    n, b = 4, kappa  # the degree, and beta of P^(alpha, beta) with alpha = 0
    k = np.arange(n, dtype=float)
    band = np.zeros((2, n))  # upper band storage: super-diagonal, diagonal
    t = 2.0 * k[1:] + b
    band[0, 1:] = (2.0 / t * np.sqrt(k[1:] * (k[1:] + b) / (t + 1.0))
                   * np.where(k[1:] == 1, 1.0, np.sqrt(k[1:] * (k[1:] + b) / (t - 1.0))))
    band[1, 0] = b / (2.0 + b)
    band[1, 1:] = b * b / (t * (t + 2.0))
    x, _, info = dsbevd(band, compute_v=0)
    if info != 0:
        raise NonConvergenceError("LAPACK dsbevd failed on the Jacobi matrix",
                                  {"info": int(info), "kappa": kappa})
    dy = 0.5 * (n + b + 1.0) * _jacobi(n - 1, 1.0, b + 1.0, x)
    x -= _jacobi(n, 0.0, b, x) / dy
    fm = _jacobi(n - 1, 0.0, b, x)
    # scale fm and dy to a geometric mean of 1 before their product
    log_fm, log_dy = np.log(np.abs(fm)), np.log(np.abs(dy))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.0)
    dy /= np.exp((log_dy.max() + log_dy.min()) / 2.0)
    w = 1.0 / (fm * dy)
    w *= 2.0 ** (b + 1.0) / (b + 1.0) / w.sum()
    s = 0.5 * (1.0 + x)
    return tuple(s.tolist()), tuple((w * 2.0 ** (-kappa - 1.0) / s ** kappa).tolist())


def _jacobi(n: int, a: float, b: float, x: np.ndarray) -> np.ndarray:
    """The Jacobi polynomial P_n^(a, b) at x for an integer degree n >= 2
    and a in {0, 1}, by the recurrence of scipy's ``eval_jacobi`` in its
    operation order; its factor binom(n + a, n) is then 1 or n + 1 exactly."""
    d = (a + b + 2.0) * (x - 1.0) / (2.0 * (a + 1.0))
    p = d + 1.0
    for kk in range(n - 1):
        k = kk + 1.0
        t = 2.0 * k + a + b
        d = ((t * (t + 1.0) * (t + 2.0)) * (x - 1.0) * p
             + 2.0 * k * (k + b) * (t + 2.0) * d) / (
                 2.0 * (k + a + 1.0) * (k + a + b + 1.0) * t)
        p = d + p
    return p * (n + 1.0) if a else p


def fd_negative_eigenvalues(problem: SchrodingerProblem, M: int,
                            guess: np.ndarray | None = None) -> np.ndarray:
    """Raw negative eigenvalues of the M-cell discretization (no
    extrapolation), M = problem.M 2^l.  The scheme is mass-lumped P1 on the
    nested corner mesh, graded on its first segment, with the potential
    averaged over each node's hat function, symmetrized by the lumped mass
    into a standard tridiagonal problem; on a uniform mesh with a constant V
    it is exactly the classical three-point stencil (2/h^2 + V on the
    diagonal, -1/h^2 off).

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
    w = _bisection(diag, off, lo)
    w = w[w < 0.0]
    if w.size > 1 and np.any(np.diff(w) <= 0.0):
        raise NonConvergenceError("negative eigenvalues are not strictly increasing")
    return w


def _bisection(diag: np.ndarray, off: np.ndarray, lo: float) -> np.ndarray:
    """The eigenvalues in (lo, 0] of the symmetric tridiagonal matrix
    (diag, off), ascending, by LAPACK Sturm-sequence bisection: ``dstebz``
    in value-range mode at its default absolute tolerance, as scipy's
    ``eigh_tridiagonal(select="v")`` calls it."""
    m, w, _, _, info = dstebz(diag, off, 1, lo, 0.0, 0, 0, 0.0, "E")
    if info != 0:
        raise NonConvergenceError("LAPACK dstebz failed to locate eigenvalues",
                                  {"info": int(info), "n": int(diag.size)})
    return w[:m]


def _fd_matrix(problem: SchrodingerProblem, M: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Diagonal, off-diagonal and spectral lower end lo < min v of the
    M-cell matrix, M = problem.M 2^l.  Built apart from the solve, so the
    mesh arrays are freed before the solve allocates its own.

    Node i carries v_i = (int V phi_i) / (int phi_i), phi_i its hat
    function.  A cell [a, b] of width h is read at its ends and at the next
    level's new node m inside it, the midpoint on a uniform segment and
    off-centre on the graded one.  It gives node a the integral
    V_a h/2 + h^2 / (6 (m - a)) (V_m - V_a) and node b
    V_b h/2 + h^2 / (6 (b - m)) (V_m - V_b), which is exact for a constant
    and a linear V and is Simpson's rule when m is the midpoint; v_i sums
    V_i and those excesses over V_i h/2.  The two cells at a corner c take
    the 4-point Gauss-Jacobi rule with weight |t - c|^kappa on
    V / |t - c|^kappa instead.  Raises UsageError when a sample of V is
    positive."""
    doublings = max(M // problem.M, 1).bit_length() - 1
    if M != problem.M << doublings:
        raise UsageError("M must be the base M times a power of 2",
                         {"M": int(M), "base_M": int(problem.M)})
    fine, V, Vm = _level_samples(problem, doublings)
    h = np.diff(fine[::2])
    # each cell's excess for its left and for its right node
    left = Vm - V[:-1]
    left *= h
    left *= h
    left /= 6.0 * (fine[1::2] - fine[:-1:2])
    right = Vm - V[1:]
    right *= h
    right *= h
    right /= 6.0 * (fine[2::2] - fine[1::2])
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
    """The next level's mesh and V at the nodes and at the new nodes of
    the level ``doublings`` bisections above the base: that mesh's even
    nodes are this level's, and its odd ones the new nodes, one inside each
    cell.  So when the last samples taken are the previous level's, V at
    the nodes is those samples interleaved and V is read at the new nodes
    alone; the base level reads its nodes too.  The samples are kept on the
    problem for the next level."""
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
    return fine, V, Vm


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
    extrapolant pair that was accepted.
    """

    lambdas: np.ndarray
    T: float
    M: int
    eig_tol: float
    discrepancy: float

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
    max |rich - rich_prev| / (1 + |rich|) <= eig_tol, which the spectrum
    records.  So the earliest stop is at 4M; starting from a coarse M lets
    a point stop as soon as its extrapolants agree, before the finer rungs'
    roundoff floor is reached: a three-point matrix carries about
    4 eps / h^2 at its finest cell h.  For T = 13 without corners,
    h = 13 gamma / (expm1(gamma) M), and that is 4.8e-10 at M = 4096,
    1.9e-9 at 8192 and 3.0e-8 at 32768.  The first level is bisected; each
    finer level is refined from a guess: lambda(M) on level 2M, then the
    h^2 prediction lambda(2M) + (lambda(2M) - lambda(M)) / 4, and no guess
    on the level after a count change.  A count that keeps changing, or
    failure to meet the tolerance within the level budget, raises
    NonConvergenceError rather than returning a guess;
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


def oscillation_counts(profile: RadialProfile, wave_numbers,
                       settings: Settings = DEFAULT) -> tuple:
    """#{j : lambda_j < -w^2} for each wave number w >= 0 of
    ``wave_numbers``, in their order, by Sturm oscillation.

    An integer w = k is angular mode k, w = 0 giving the radial index.
    ``assemble_morse`` adds the wave numbers s k of the alpha = 0 companion,
    s = (alpha + 2) / 2: by the power map its eigenvalues are lambda_j / s^2,
    so its count below -k^2 is the count of lambda_j below -(s k)^2.

    The scaled Prufer angle theta_w of -psi'' + V psi = E_w psi,
    E_w = -w^2, given by tan theta_w = s_w psi / psi', obeys

        theta_w' = s_w cos^2 theta_w + (E_w - V) / s_w sin^2 theta_w

    and crosses each multiple of pi upward, once per zero of psi, whatever
    the constant scale s_w > 0.  The scale sets how fast the angle turns,
    between s_w and about |V| / s_w, so it is kept near the frequencies of
    the call: s_w = max(w, w_max / 2, 1), w_max the largest wave number.
    The angle starts from the solution that stays bounded toward -infinity
    where V is negligible, psi = e^(w t), so tan theta_w = s_w / w (theta =
    pi/2 for w = 0), at t_C, where the bound p d^(p-1) e^((alpha+2) t) on
    |V| over the first nodal domain (0 < u <= d = u(0) there) reaches
    ``settings.eig_tol``, clipped to the first corner c_1 (0 without
    corners).  Zeroing V before t_C moves each eigenvalue by at most
    eig_tol (Weyl), below the assembly's tie guard; no -T enters, since at
    the same eig_tol ``build_schrodinger``'s T >= (log p + (p - 1) log d
    - log(eig_tol / 100)) / (alpha + 2) exceeds -t_C.  With Dirichlet at
    t = 0 the count of eigenvalues below E_w is floor(theta_w(0) / pi).

    Returns the pair ``(counts, margin)``: an integer array, and the
    smallest distance in radians of a theta_w(0) from a multiple of pi, how
    close the pass came to calling a count the other way (``confirm_counts``
    judges it).

    One pass integrates all w as one vector ODE by the Dormand-Prince 5(4)
    pair at ``settings.rtol`` and ``settings.atol``, capped at
    ``_LOOSEST``, restarted at each corner: the log of each interior nodal
    radius, the float ``build_schrodinger`` puts in ``corners``.  The solver
    is scipy's compiled ``dopri5``, called directly (``_compiled``) with the
    work arrays and settings that ``scipy.integrate.ode("dopri5")`` gives
    it, so it returns ode's angles bit for bit; its status code idid
    stands in for ode's ``successful()``.  u is read one radius at a time
    from the trajectory's dense output (``radial.u_reader``), the
    polynomials route A samples.  Wave numbers that are none, negative or
    not finite, and an amplitude d <= 0, which ``validate_profile`` refuses
    in every profile the package builds, are UsageErrors before any solve.
    A segment the solver cannot finish in ``_MAX_OSCILLATION_STEPS`` steps
    raises NonConvergenceError carrying that code (-2).
    """
    ws = np.asarray(wave_numbers, dtype=float)
    if ws.ndim != 1 or ws.size == 0 or not np.all(np.isfinite(ws) & (ws >= 0.0)):
        raise UsageError("wave numbers must be a non-empty list of finite "
                         "values >= 0", {"wave_numbers": ws.tolist()})
    if not profile.amp > 0.0:
        raise UsageError("amplitude d = u(0) must be > 0", {"amp": float(profile.amp)})
    alpha, p = profile.params.alpha, profile.params.p
    power = alpha + 2.0
    s = np.maximum(ws, max(0.5 * float(ws.max()), 1.0))
    rtol, atol = min(settings.rtol, _LOOSEST[0]), min(settings.atol, _LOOSEST[1])
    args = (u_reader(profile), power, p, s, 1.0 / s, -ws * ws / s - s)
    theta = np.arctan2(s, ws)
    # |V| <= p d^(p-1) e^((alpha+2) t) <= eig_tol before t_C
    t_c = (math.log(settings.eig_tol) - math.log(p)
           - (p - 1.0) * math.log(profile.amp)) / power
    ends = [math.log(z) for z in profile.nodal_radii[:-1]] + [0.0]
    if t_c < ends[0]:
        ends.insert(0, t_c)
    for t0, t1 in zip(ends, ends[1:]):
        # work arrays as scipy's ode sets them up for every segment: safety
        # 0.9, step factors 0.2 and 10, beta, maximal and first step 0
        # (the solver's defaults), no dense output (iout 0), no messages
        work = np.zeros(8 * theta.size + 21)
        work[1:4] = 0.9, 0.2, 10.0
        t_reached, theta, idid = dopri5(
            _prufer_rate, t0, theta, t1, rtol, atol, None, 0, work,
            np.zeros(21, dtype=np.int32), _MAX_OSCILLATION_STEPS, -1, args)
        if idid < 0:
            raise NonConvergenceError(
                "oscillation count stopped short of the end of its segment",
                {"segment": [t0, t1], "t_reached": float(t_reached),
                 "return_code": int(idid),
                 "max_wave_number": float(ws.max()), "alpha": alpha, "p": p,
                 "n_nodal": profile.params.n_nodal},
            )
    turns = theta / math.pi
    margin = math.pi * float(np.min(np.abs(turns - np.round(turns))))
    return np.floor(turns).astype(np.int64), margin


def confirm_counts(profile: RadialProfile, wave_numbers, expected,
                   settings: Settings = DEFAULT) -> tuple:
    """Route C's check of the counts ``expected`` at ``wave_numbers``: the
    ``oscillation_counts`` of the profile on a ladder of passes at
    ``_COARSE`` times ``settings.rtol`` and ``settings.atol``, at them, and
    at a hundredth of them, each capped at ``_LOOSEST``; no pass is
    repeated.  It stops at the first pass whose counts equal ``expected``
    with every angle at least ``_MIN_MARGIN`` radians from a multiple of
    pi, and returns that pass's ``(counts, margin, rtol)``, or the last
    pass's.
    """
    # capped rungs can only tie the rung before, and dict.fromkeys drops a tie
    rungs = dict.fromkeys(
        (min(scale * settings.rtol, _LOOSEST[0]),
         min(scale * settings.atol, _LOOSEST[1]))
        for scale in (_COARSE, 1.0, 0.01))
    for rtol, atol in rungs:
        counts, margin = oscillation_counts(
            profile, wave_numbers, replace(settings, rtol=rtol, atol=atol))
        if margin >= _MIN_MARGIN and np.array_equal(counts, expected):
            break
    return counts, margin, rtol


def _prufer_rate(t, theta, u, power, p, s, inv_s, shift):
    """theta' = s + ((E_w - V) / s - s) sin^2 theta of ``oscillation_counts``,
    where shift = E_w / s - s and -V = p e^(power t) |u(e^t)|^(p-1), power =
    alpha + 2.  It lives at module level and takes its data, the reader u
    among it, as arguments: scipy's dopri5 keeps a reference to its callback
    after every solve but releases the arguments, so a closure callback
    would keep its data alive."""
    coef = inv_s * (p * math.exp(power * t) * abs(u(math.exp(t))) ** (p - 1.0))
    coef += shift
    rate = np.sin(theta)
    rate *= rate
    rate *= coef
    rate += s
    return rate


def radial_morse_index(profile: RadialProfile, settings: Settings = DEFAULT) -> int:
    """Negative-eigenvalue count of the regular radial linearized operator:
    the k = 0 count of ``oscillation_counts``."""
    return int(oscillation_counts(profile, [0.0], settings)[0][0])


def mode_negative_count(profile: RadialProfile, k: int, settings: Settings = DEFAULT) -> int:
    """Negative-eigenvalue count of the angular-mode-k radial operator (the
    radial operator plus k^2/r^2): the k count of ``oscillation_counts``."""
    k = integer_at_least(k, 1, "k")
    return int(oscillation_counts(profile, [float(k)], settings)[0][0])
