"""Constrained maximin placement of the R and G source colors.

With the primary blue fixed, choose R and G to maximize the minimum
pairwise distance among {R, G, B, X} (X the centroid) subject to X lying
in the blue-target disk and R, G lying in the gamut.

The disk is built into the variables: z = (Rx, Ry, ux, uy, t) with
X = center + radius * u and G = 3X - R - B, so every point of
{R, G, B, X} is affine in z.  The maximin objective is solved in
epigraph form: maximize t subject to |p_i - p_j|^2 >= t^2 for the six
pairs, |u|^2 <= 1 (less a small slack, so X ends strictly inside the
disk at every radius), and A.R <= b, A.G <= b for the gamut's unit
half-planes (A, b) = GamutPolygon.halfplanes, which are linear in z.
Every constraint is smooth, so one SLSQP solve (Kraft's sequential
least-squares QP) per start suffices.  The constraints are
m = 7 + 2|half-planes| rows: the 6 pairs, then the disk, then A.R <= b
and A.G <= b.

The non-convex landscape is swept by deterministic multistart.  Each
start's R and G are drawn from its own generator, seeded by
(rng_seed, start index), so a start is the same whichever starts run
beside it.  The starts are solved in waves (design_constellation): of
1, 2, 4, 8 and 16, then of at most 32, for a target with a certified
bound, so a search that stops within its first 20 starts solves few
starts past its winner; of 1, 2 and then at most 32 for any other, so a
search that certifies nothing runs its starts in few lockstep waves
(horseshoe presets 2 and 3 stop at the cap within their first 3).
minimize solves a wave in lockstep: one SLSQP kernel state and workspace
per start, and per round one kernel call per live start, one batched
evaluation of the constraint values of every start that asks for them
and one of the normals.  That is the loop of
scipy.optimize.minimize(method="SLSQP") run once per start, without its
per-call and per-iteration wrapping, and each start ends where that loop
ends, bit for bit: the batched evaluators repeat a single start's
arithmetic row by row (_problem).  The kernel,
scipy.optimize._slsqplib.slsqp, is private scipy API that each wave
looks up (_kernel) through _extension.load_extension, whose docstring
states when that loads the kernel's extension file alone and when it
imports scipy.optimize; a scipy that lacks the kernel or calls it
differently raises KernelError, which names the scipy version.  The
kernel links scipy's bundled OpenBLAS, which rounds differently at one
thread and at several, so each wave runs with that library at one
thread (_one_blas_thread) and the designs do not depend on its thread
count.

A start counts when SLSQP converged and it passes the rules the rest of
the package uses: GamutPolygon.contains for R and G, which reads the
same half-planes, and BlueTarget.contains for X.  The starts of a wave
are judged in index order, and the search stops at the first counted
start that is certified optimal, whose d_min reaches a floor no start
can beat by more than a stated slack:

- a bundled preset's disk in a bundled gamut, matched by value, may have
  a certified upper bound U in presets.DMIN_BOUNDS, which a branch and
  bound over (R, G) proved for the problem solved here (the tests prove
  it again); the floor is U - _BOUND_SLACK.  LED-triangle presets 1, 2
  and 3 and horseshoe preset 1 have one, and at seeds 0-9 and 2024 they
  stop within their first 20 starts (at seed 2024, the LED presets at
  starts 0, 11 and 3);
- any other target's floor is the analytic cap dmin_upper_bound(target)
  less radius * _DISK_SLACK.  Horseshoe presets 2 and 3 reach it within
  their first 3 starts; on the LED triangle it is far above the optima,
  and such a design runs every start.

The starts after the winner in its wave are dropped, so the result is
the one a search of one start at a time gives.
"""

from __future__ import annotations

import ctypes
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from ._extension import load_extension
from .colorimetry import (
    BOUNDARY_TOLERANCE,
    ChromaticityPoint,
    GamutPolygon,
    centroid,
    xy_distance,
)
from .constellation import FIXED_BLUE, BlueTarget, Constellation4, build_constellation
from .presets import certified_dmin_bound

__all__ = [
    "OptimizerConfig",
    "DesignResult",
    "InfeasibleTargetError",
    "ConvergenceError",
    "KernelError",
    "design_constellation",
    "dmin_upper_bound",
]

# The disk constraint is 1 - _DISK_SLACK - |u|^2 >= 0.  A converged
# SLSQP start ends at most _FTOL beyond its constraints, so X ends
# strictly inside the disk, by about radius * _DISK_SLACK / 2.  Below a
# radius of about 2e-7 that is under the rounding of the centroid.
_DISK_SLACK = 1e-9

# Feasibility allowance on the gamut half-planes.  Published locus
# tables are rounded to 4 digits, which leaves the fixed blue 1.3e-5
# outside the hull; boundary points must stay feasible.  Kept at half the
# membership tolerance of GamutPolygon.contains, which judges each start
# (and, on the LED triangle, renderability), so every start that SLSQP
# reports converged is in the gamut.
_GAMUT_MARGIN = 0.5 * BOUNDARY_TOLERANCE

# SLSQP accuracy: the objective change, step and summed constraint
# violation a converged start must reach.
_FTOL = 1e-12

# SLSQP iteration cap per start; no start of the bundled presets and
# gamuts (seeds 0-39, 32 starts each) needed more than 51.
_MAX_ITERATIONS = 200

# Starts whose centroid lies farther out are pulled in to this many
# radii.  On the chromaticity diagram that distance is under 1.5, so
# this changes only the starts of disks under about 0.015 in radius; from
# thousands of radii out, SLSQP's line search stalls before X reaches
# the disk.
_START_RADII = 100.0


class InfeasibleTargetError(ValueError):
    """The blue-target disk cannot be met inside the gamut."""


class ConvergenceError(RuntimeError):
    """No optimization start produced a feasible design."""

    def __init__(self, message: str, diagnostics: list[dict]):
        super().__init__(message)
        self.diagnostics = diagnostics


class KernelError(RuntimeError):
    """The installed scipy has no SLSQP kernel that takes minimize's call."""

    def __init__(self, cause: Exception):
        import scipy

        super().__init__(
            f"scipy {scipy.__version__} has no SLSQP kernel "
            "scipy.optimize._slsqplib.slsqp that takes this package's call "
            f"({type(cause).__name__}); ucsk needs scipy>=1.17,<1.18"
        )


_KERNEL_MODULE = "scipy.optimize._slsqplib"


def _kernel():
    """scipy's private SLSQP kernel; KernelError when it cannot be
    imported.

    The first call loads scipy.optimize._slsqplib by
    _extension.load_extension, without scipy.optimize's __init__ when it
    can (that function's docstring states when), and registers it in
    sys.modules under its name, so scipy.optimize.minimize(method="SLSQP")
    runs the same kernel object.  A None in sys.modules, or a scipy
    without the kernel, raises KernelError.
    """
    try:
        return load_extension(_KERNEL_MODULE).slsqp
    except (ImportError, AttributeError) as exc:
        raise KernelError(exc) from exc


@cache
def _blas_threads():
    """(get, set) of the thread count of scipy's bundled OpenBLAS, found
    through the kernel's extension file, or None.

    The extension links the library, so a symbol lookup on its handle
    finds the library's own scipy_openblas_get_num_threads and
    scipy_openblas_set_num_threads.  None when the extension has no file
    or links no library with both symbols (a scipy built against another
    BLAS).
    """
    try:
        library = ctypes.CDLL(load_extension(_KERNEL_MODULE).__file__)
        get = library.scipy_openblas_get_num_threads
        set_ = library.scipy_openblas_set_num_threads
    except (ImportError, AttributeError, OSError, TypeError):
        return None
    get.restype, set_.argtypes = ctypes.c_int, [ctypes.c_int]
    return get, set_


# The blocks of _one_blas_thread that are running, and the count the
# library had before the first of them; read and written under the lock.
_blas_lock = threading.Lock()
_blas_pin = {"blocks": 0, "before": 0}


@contextmanager
def _one_blas_thread():
    """Run the block with scipy's bundled OpenBLAS at one thread, then
    restore the count it had.

    At one thread and at several, that library gives the SLSQP kernel
    results that differ in their last bits, and so designs that differ in
    theirs.  The count is process-wide, so blocks that overlap in several
    threads share one pin: the first to enter saves the count and sets
    one thread, and the last to leave restores it.  Other BLAS calls in
    the same library run at one thread while any block runs.  Without the
    library (_blas_threads is None) the block runs at whatever count the
    library has.
    """
    threads = _blas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    with _blas_lock:
        if _blas_pin["blocks"] == 0:
            _blas_pin["before"] = get()
            set_(1)
        _blas_pin["blocks"] += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_pin["blocks"] -= 1
            if _blas_pin["blocks"] == 0:
                set_(_blas_pin["before"])


@dataclass(frozen=True)
class OptimizerConfig:
    """Multistart settings for the design search."""

    multistart_count: int = 32
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.multistart_count < 1:
            raise ValueError("multistart_count must be >= 1")


@dataclass(frozen=True)
class DesignResult:
    """Best feasible design over the starts run; its d_min is
    ``constellation.d_min``."""

    constellation: Constellation4
    starts_converged: int
    best_start_index: int
    starts_used: int
    # True when the winning start met the stop floor and ended the search.
    certified: bool
    # The target's certified bound (presets.certified_dmin_bound) that the
    # stop floor comes from, or None when it comes from the cap.
    certified_bound: float | None


def dmin_upper_bound(target: BlueTarget) -> float:
    """Analytic cap on the achievable minimum distance.

    (X, B) is one of the six pairs and X must stay in the disk, so
    d_min <= |center - B| + radius.
    """
    return xy_distance(target.center, FIXED_BLUE) + target.radius


# The six pairs of the points (R, G, B, X).
_PAIR_I, _PAIR_J = np.triu_indices(4, k=1)
# Gradient of the objective -t.
_NEG_T_GRAD = np.array([0.0, 0.0, 0.0, 0.0, -1.0])


def _point_map(blue: np.ndarray, target: BlueTarget) -> tuple[np.ndarray, np.ndarray]:
    """(jac, offset) with the points (R, G, B, X) = jac @ z[:4] + offset.

    R = (z0, z1), X = center + radius * u with u = (z2, z3), and
    G = 3X - R - B, so that X is the centroid of R, G and B.
    """
    center = target.center.as_array()
    eye, zero = np.eye(2), np.zeros((2, 2))
    jac = np.array(
        [
            np.hstack([eye, zero]),
            np.hstack([-eye, 3.0 * target.radius * eye]),
            np.zeros((2, 4)),
            np.hstack([zero, target.radius * eye]),
        ]
    )
    offset = np.array([np.zeros(2), 3.0 * center - blue, blue, center])
    return jac, offset


class _Problem(NamedTuple):
    """The constraints c(z) >= 0 of one design as batched evaluators.

    values(Z) returns c at each row of the (K, 5) array Z as a (K, m)
    array.  normals(Z) returns, as a (K, 7, 5) array, the rows of each
    Jacobian that vary with z: the 6 pairs and the disk.  normals0 is the
    (m, 5) Jacobian that holds the constant entries (the gamut rows, and
    the zeros of the disk row), so each batch copies it once.  Rows are
    the 6 pairs, then the disk, then A.R <= b and A.G <= b.  Row k of
    each result is bit for bit what one row Z[k:k+1] gives.
    """

    values: Callable[[np.ndarray], np.ndarray]
    normals: Callable[[np.ndarray], np.ndarray]
    normals0: np.ndarray


def _problem(blue: np.ndarray, target: BlueTarget, gamut: GamutPolygon) -> _Problem:
    """The pair, disk and gamut constraints over z = (R, u, t).

    Every product is a stacked matrix-vector product or an einsum over
    one row, and t^2 is float_power(t, 2.0), libm's pow: a matrix product
    over the whole batch, or t * t, would round differently.
    """
    jac, offset = _point_map(blue, target)
    pair_jac = jac[_PAIR_I] - jac[_PAIR_J]
    pair_offset = offset[_PAIR_I] - offset[_PAIR_J]
    # A.R <= b and A.G <= b, each offset by the gamut margin.
    a, b = gamut.halfplanes
    lin_a = np.hstack([np.vstack([a @ jac[0], a @ jac[1]]), np.zeros((2 * len(b), 1))])
    lin_b = np.concatenate([b - a @ offset[0], b - a @ offset[1]]) + _GAMUT_MARGIN
    normals0 = np.zeros((7 + len(lin_b), 5), order="F")
    normals0[7:] = -lin_a

    def pairs(Z):
        # (K, 6, 2): the difference of each pair of points.
        return np.matmul(pair_jac, Z[:, None, :4, None])[..., 0] + pair_offset

    def values(Z):
        p, u = pairs(Z), Z[:, 2:4]
        d = np.empty((len(Z), len(normals0)))
        d[:, :6] = np.einsum("kij,kij->ki", p, p) - np.float_power(Z[:, 4:], 2.0)
        d[:, 6] = 1.0 - _DISK_SLACK - np.matmul(u[:, None, :], u[:, :, None])[:, 0, 0]
        d[:, 7:] = lin_b - np.matmul(lin_a, Z[:, :, None])[..., 0]
        return d

    def normals(Z):
        C = np.zeros((len(Z), 7, 5))
        C[:, :6, :4] = 2.0 * np.einsum("kij,ijl->kil", pairs(Z), pair_jac)
        C[:, :6, 4] = -2.0 * Z[:, 4:]
        C[:, 6, 2:4] = -2.0 * Z[:, 2:4]
        return C

    return _Problem(values, normals, normals0)


class _Solution(NamedTuple):
    """End of one batch of SLSQP solves, one row per start: the points,
    whether the kernel converged, its iteration count and its exit mode
    (0 on convergence)."""

    x: np.ndarray
    success: tuple[bool, ...]
    iterations: tuple[int, ...]
    mode: tuple[int, ...]

    @property
    def nit(self) -> int:
        """Iterations summed over the batch."""
        return sum(self.iterations)


def minimize(
    fun: Callable[[np.ndarray], float],
    x0: np.ndarray,
    grad: np.ndarray,
    problem: _Problem,
) -> _Solution:
    """Minimize fun, a linear objective with gradient grad, subject to
    problem's constraints >= 0, by Kraft's SLSQP kernel, from each row of
    the (K, n) array x0.

    Each row is the loop of scipy.optimize.minimize(method="SLSQP") with
    inequality constraints only and no bounds: its own kernel state and
    workspace, accuracy _FTOL and iteration cap _MAX_ITERATIONS.  The
    rows run in lockstep.  Each round calls the kernel once per live row;
    then the rows in mode 1 get fun, once per row, and their constraint
    values in one batched call, and the rows in mode -1 their normals in
    another.  The constant gradient and constant normal rows are written
    once.  A row in any other mode is done.  The rounds run with scipy's
    bundled OpenBLAS at one thread (_one_blas_thread), so each row's bytes
    do not depend on that library's thread count.  A kernel that is
    missing, or that rejects the call with a TypeError, raises KernelError.
    """
    slsqp = _kernel()
    x = np.array(x0, dtype=np.float64, order="C")
    (k, n), m = x.shape, len(problem.normals0)
    states = [
        {
            "acc": _FTOL, "alpha": 0.0, "f0": 0.0, "gs": 0.0, "h1": 0.0, "h2": 0.0,
            "h3": 0.0, "h4": 0.0, "t": 0.0, "t0": 0.0, "tol": 10.0 * _FTOL,
            "exact": 0, "inconsistent": 0, "reset": 0, "iter": 0,
            "itermax": _MAX_ITERATIONS, "line": 0, "m": m, "meq": 0, "mode": 0,
            "n": n,
        }
        for _ in range(k)
    ]
    # Kraft's worst-case workspace with no equality constraints.
    buffer = np.zeros((k, n * (n + 1) // 2 + 3 * m * n + 9 * m + 8 * n * n + 35 * n + 28))
    indices = np.zeros((k, m + 2 * n + 2), dtype=np.int32)
    mult = np.zeros((k, m + 2 * n + 2))
    # NaN bounds mark every variable free.
    xl, xu = np.full((k, n), np.nan), np.full((k, n), np.nan)
    g = np.tile(np.asarray(grad, dtype=np.float64), (k, 1))
    # Row i of C is a Fortran-ordered (m, n) Jacobian.
    C = np.empty((k, n, m)).transpose(0, 2, 1)
    C[:] = problem.normals0
    C[:, :7] = problem.normals(x)
    d = problem.values(x)
    fx = [fun(row) for row in x]
    # Each row's arguments after fx, as views that the batched writes
    # below update in place.
    rows = list(zip(g, C, d, x, mult, xl, xu, buffer, indices))
    live = range(k)
    with _one_blas_thread():
        while live:
            evals, grads = [], []
            for i in live:
                try:
                    slsqp(states[i], fx[i], *rows[i])
                except TypeError as exc:
                    raise KernelError(exc) from exc
                mode = states[i]["mode"]
                if mode == 1:
                    evals.append(i)
                elif mode == -1:
                    grads.append(i)
            if evals:
                for i in evals:
                    fx[i] = fun(x[i])
                d[evals] = problem.values(x[evals])
            if grads:
                C[grads, :7] = problem.normals(x[grads])
            live = evals + grads
    modes = tuple(state["mode"] for state in states)
    return _Solution(
        x, tuple(mode == 0 for mode in modes), tuple(state["iter"] for state in states),
        modes,
    )


# Attempts drawn at once by the start sampler; 10,000 is a multiple.
_SAMPLE_BLOCK = 16
_SAMPLE_ATTEMPTS = 10_000


def _sample_points(
    rng: np.random.Generator,
    gamut: GamutPolygon,
    bbox: tuple[float, float, float, float],
) -> list[np.ndarray]:
    """R and G of one start: uniform points of the gamut, by rejection in
    its bounding box.

    Each attempt draws x, then y, from rng; the first attempt that lands
    in the gamut gives R and the next one G.  A point that misses on
    _SAMPLE_ATTEMPTS attempts in a row falls back to the vertex mean.
    Attempts are drawn _SAMPLE_BLOCK at a time and judged in one
    GamutPolygon.boundary_gaps call, which gives the same points as one
    attempt at a time.
    """
    xmin, xmax, ymin, ymax = bbox
    low, span = np.array([xmin, ymin]), np.array([xmax - xmin, ymax - ymin])
    points: list[np.ndarray] = []
    misses = 0
    while True:
        block = low + span * rng.random((_SAMPLE_BLOCK, 2))
        for p, inside in zip(block, gamut.boundary_gaps(block) <= 0.0):
            misses = 0 if inside else misses + 1
            if misses == _SAMPLE_ATTEMPTS:
                # Pathological gamut; fall back to the vertex mean.
                p, misses = np.mean([v.as_array() for v in gamut.vertices], axis=0), 0
            elif not inside:
                continue
            points.append(p)
            if len(points) == 2:
                return points


# A target with a certified bound runs its starts in waves of 1, 2, 4, 8
# and 16, then of at most _MAX_WAVE: the bundled ones stop within their
# first 20 starts, and few starts past the winner are solved.  Any other
# target runs waves of 1, 2 and then at most _MAX_WAVE: one that
# certifies nothing runs every start, and doubling waves made such a
# design 14-21% slower (6 waves, with nearly twice the lockstep rounds).
# Either way the memory of a wave stays flat in multistart_count.
_MAX_WAVE = 32

# A feasible start within this of a certified bound (presets.DMIN_BOUNDS)
# ends the search.  Each bound is at most 1.1e-6 above the best design, so
# a start that stops the search is within 2e-6 of the optimum.
_BOUND_SLACK = 2e-6


def _stop_floor(target: BlueTarget, gamut: GamutPolygon) -> tuple[float, float | None]:
    """(floor, bound): a feasible start whose d_min reaches floor is
    optimal, to within _BOUND_SLACK of the certified bound when
    presets.certified_dmin_bound gives one, else to within
    radius * _DISK_SLACK of the cap, by the cap's own argument; bound is
    that certified bound, or None."""
    bound = certified_dmin_bound(target, gamut)
    if bound is None:
        return dmin_upper_bound(target) - target.radius * _DISK_SLACK, None
    return bound - _BOUND_SLACK, bound


def _solved_starts(
    target: BlueTarget,
    cfg: OptimizerConfig,
    gamut: GamutPolygon,
    problem: _Problem,
    doubling: bool,
) -> Iterator[tuple[int, np.ndarray, bool, int, int]]:
    """(index, z, success, iterations, exit mode) of each start in index
    order, solved a wave at a time; a wave runs when its first start is
    asked for.  The waves double up to _MAX_WAVE when doubling is set,
    else they run 1, 2 and then _MAX_WAVE starts."""
    blue, center = FIXED_BLUE.as_array(), target.center.as_array()
    bbox = gamut.bounding_box()
    lo, size = 0, 1
    while lo < cfg.multistart_count:
        wave = range(lo, min(lo + size, cfg.multistart_count))
        x0 = []
        for k in wave:
            r0, g0 = _sample_points(np.random.default_rng([cfg.rng_seed, k]), gamut, bbox)
            # Start at the sampled R and G: u0 puts X at their centroid,
            # but no farther than _START_RADII radii from the center.
            u0 = np.zeros(2)
            if target.radius > 0.0:
                offset0 = (r0 + g0 + blue) / 3.0 - center
                u0 = offset0 / max(target.radius, np.linalg.norm(offset0) / _START_RADII)
            # t starts at 0, where every pair constraint holds.  Starting
            # it at the start's own d_min instead lost the LED-triangle
            # preset-2 optimum at 4 of seeds 0-99; from 0 no seed lost it.
            x0.append(np.concatenate([r0, u0, [0.0]]))
        yield from zip(wave, *minimize(lambda z: -z[4], x0, _NEG_T_GRAD, problem))
        grown = 2 * size if doubling or size == 1 else _MAX_WAVE
        lo, size = wave.stop, min(grown, _MAX_WAVE)


def design_constellation(
    target: BlueTarget, cfg: OptimizerConfig, gamut: GamutPolygon
) -> DesignResult:
    """Search for the maximin constellation meeting a blue target.

    R and G of each start are sampled uniformly in the gamut (rejection
    sampling in its bounding box), each start seeded from
    (rng_seed, start_index) only, so results are deterministic and
    independent of evaluation order.  The starts are solved in waves,
    each by one minimize call: of 1, 2, 4, 8, 16 and then at most
    _MAX_WAVE starts for a target with a certified bound, of 1, 2 and then
    at most _MAX_WAVE for any other.  A disk whose radius exceeds its
    center's distance to every gamut vertex is solved clipped to that
    reach, which X cannot pass, so every radius past it gives the same
    design.

    cfg.multistart_count is an upper bound on the starts run.  The starts
    are judged in index order, and the search stops at the first feasible
    start whose d_min is certified optimal, and that start wins; the
    later starts of its wave are dropped.  A start is certified optimal
    when its d_min reaches the stop floor (_stop_floor): U - _BOUND_SLACK
    when presets.certified_dmin_bound gives a bound U for the target and
    the gamut, else dmin_upper_bound(target) - radius * _DISK_SLACK.  With
    no certified start, all starts run and the best feasible start by
    (hard d_min, lowest index) wins.  DesignResult.starts_used counts the
    starts run, DesignResult.certified says whether the search stopped at
    the floor, and DesignResult.certified_bound is U, or None.

    Raises InfeasibleTargetError when one gamut half-plane separates the
    disk from the gamut or the fixed blue lies outside it,
    ConvergenceError when no start converges to a feasible design.
    """
    # A lower bound on the center's distance to the gamut, so this never
    # rejects a disk that meets it.
    center_gap = max(gamut.nearest_boundary(target.center), 0.0)
    if center_gap > target.radius + BOUNDARY_TOLERANCE:
        raise InfeasibleTargetError(
            f"blue-target disk (center ({target.center.x}, {target.center.y}), "
            f"radius {target.radius}) does not intersect the gamut "
            f"(gap {center_gap:.4g})"
        )
    if not gamut.contains(FIXED_BLUE):
        raise InfeasibleTargetError(
            f"fixed blue ({FIXED_BLUE.x}, {FIXED_BLUE.y}) is outside the gamut"
        )

    # X is the centroid of R, G and the fixed blue, all in the gamut, so
    # it is no farther from the center than the farthest gamut vertex, up
    # to the membership tolerance.  A larger disk constrains nothing more,
    # and its radius would scale u past what SLSQP can condition, so the
    # starts solve over the disk clipped to that reach; they are still
    # judged by the target itself.
    reach = max(xy_distance(target.center, v) for v in gamut.vertices)
    solved = BlueTarget(target.center, min(target.radius, reach + BOUNDARY_TOLERANCE))
    blue = FIXED_BLUE.as_array()
    jac, offset = _point_map(blue, solved)
    problem = _problem(blue, solved, gamut)
    floor, bound = _stop_floor(target, gamut)

    # The best feasible start: (d_min, index, R, G).  Only a strictly
    # higher d_min replaces it, so ties go to the lowest start index.
    best, starts_converged = None, 0
    diagnostics: list[dict] = []
    for k, x, success, nit, mode in _solved_starts(
        solved, cfg, gamut, problem, doubling=bound is not None
    ):
        pts = jac @ x[:4] + offset
        dmin = float(np.linalg.norm(pts[_PAIR_I] - pts[_PAIR_J], axis=1).min())
        r_pt, g_pt = ChromaticityPoint(*pts[0]), ChromaticityPoint(*pts[1])
        x_pt = centroid([r_pt, g_pt, FIXED_BLUE])
        in_gamut = gamut.contains(r_pt) and gamut.contains(g_pt)
        ok = success and in_gamut and target.contains(x_pt)
        if ok:
            starts_converged += 1
            if best is None or dmin > best[0]:
                best = (dmin, k, r_pt, g_pt)
        diagnostics.append(
            {
                "start_index": k,
                "d_min": dmin,
                "converged": success,
                "in_gamut": in_gamut,
                "constraint_residual": max(-target.margin(x_pt), 0.0),
                "iterations": nit,
                "exit_mode": mode,
            }
        )
        if ok and dmin >= floor:
            break

    if best is None:
        raise ConvergenceError(
            f"no start out of {cfg.multistart_count} converged with R and G "
            "in the gamut and X in the disk",
            diagnostics,
        )
    # The loop ends at the first feasible start that meets the floor, and
    # every feasible start before it is below the floor, so the best start
    # meets the floor exactly when the search stopped there.
    best_dmin, best_k, r_pt, g_pt = best
    # d_min is label-symmetric in R and G; label the redder point R.
    if r_pt.x < g_pt.x:
        r_pt, g_pt = g_pt, r_pt
    constellation = build_constellation(r_pt, g_pt, FIXED_BLUE, gamut)
    return DesignResult(
        constellation=constellation,
        starts_converged=starts_converged,
        best_start_index=best_k,
        starts_used=len(diagnostics),
        certified=best_dmin >= floor,
        certified_bound=bound,
    )
