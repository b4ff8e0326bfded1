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
least-squares QP) per start suffices.  Each start is one loop around
scipy's SLSQP kernel (minimize below), the loop that
scipy.optimize.minimize(method="SLSQP") runs, without its per-call and
per-iteration wrapping.  The constraints are m = 7 + 2|half-planes| rows,
written in place: the 6 pairs, then the disk, then A.R <= b and
A.G <= b.  The non-convex landscape is swept by deterministic
multistart.  A start counts when SLSQP converged and it
passes the rules the rest of the package uses: GamutPolygon.contains for
R and G, which reads the same half-planes, and BlueTarget.contains for X.

The search stops at the first counted start that is certified optimal:
its d_min reaches dmin_upper_bound(target) less radius * _DISK_SLACK,
so no start can beat it by more than that.  On the horseshoe, presets 2
and 3 certify within their first 3 starts; where no start certifies
(horseshoe preset 1, every LED-triangle preset) all starts run.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize._slsqplib import slsqp

from .colorimetry import (
    BOUNDARY_TOLERANCE,
    ChromaticityPoint,
    GamutPolygon,
    centroid,
    xy_distance,
)
from .constellation import FIXED_BLUE, BlueTarget, Constellation4, build_constellation

__all__ = [
    "OptimizerConfig",
    "DesignResult",
    "InfeasibleTargetError",
    "ConvergenceError",
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
    """Best feasible design over all starts."""

    constellation: Constellation4
    achieved_dmin: float
    constraint_residual: float
    starts_converged: int
    best_start_index: int
    starts_used: int
    # True when the winning start met the cap and ended the search.
    certified: bool


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
    """The constraints c(z) >= 0 of one design as in-place evaluators.

    values(z, d) writes c(z) into d.  normals(z, C) writes the rows of
    its Jacobian that vary with z into C; normals0 is a Fortran-ordered
    (m, 5) Jacobian that holds the constant entries (the gamut rows, and
    the zeros of the disk row), so each start copies it once.  Rows are
    the 6 pairs, then the disk, then A.R <= b and A.G <= b.
    """

    values: Callable[[np.ndarray, np.ndarray], None]
    normals: Callable[[np.ndarray, np.ndarray], None]
    normals0: np.ndarray


def _problem(blue: np.ndarray, target: BlueTarget, gamut: GamutPolygon) -> _Problem:
    """The pair, disk and gamut constraints over z = (R, u, t)."""
    jac, offset = _point_map(blue, target)
    pair_jac = jac[_PAIR_I] - jac[_PAIR_J]
    pair_offset = offset[_PAIR_I] - offset[_PAIR_J]
    # A.R <= b and A.G <= b, each offset by the gamut margin.
    a, b = gamut.halfplanes
    lin_a = np.hstack([np.vstack([a @ jac[0], a @ jac[1]]), np.zeros((2 * len(b), 1))])
    lin_b = np.concatenate([b - a @ offset[0], b - a @ offset[1]]) + _GAMUT_MARGIN
    normals0 = np.zeros((7 + len(lin_b), 5), order="F")
    normals0[7:] = -lin_a

    def values(z, d):
        p = pair_jac @ z[:4] + pair_offset
        d[:6] = np.einsum("ij,ij->i", p, p) - z[4] ** 2
        d[6] = 1.0 - _DISK_SLACK - z[2:4] @ z[2:4]
        d[7:] = lin_b - lin_a @ z

    def normals(z, C):
        p = pair_jac @ z[:4] + pair_offset
        C[:6, :4] = 2.0 * np.einsum("ij,ijk->ik", p, pair_jac)
        C[:6, 4] = -2.0 * z[4]
        C[6, 2:4] = -2.0 * z[2:4]

    return _Problem(values, normals, normals0)


class _Solution(NamedTuple):
    """End of one SLSQP solve: the point, whether the kernel converged,
    its iteration count and its exit mode (0 on convergence)."""

    x: np.ndarray
    success: bool
    nit: int
    mode: int


def minimize(
    fun: Callable[[np.ndarray], float],
    x0: np.ndarray,
    grad: np.ndarray,
    problem: _Problem,
) -> _Solution:
    """Minimize fun, a linear objective with gradient grad, subject to
    problem's constraints >= 0, by Kraft's SLSQP kernel.

    This is the loop of scipy.optimize.minimize(method="SLSQP") with
    inequality constraints only and no bounds: the same kernel state and
    workspace, accuracy _FTOL and iteration cap _MAX_ITERATIONS.  Mode 1
    asks for fun and the constraint values at the new x, mode -1 for the
    normals; the constant gradient and constant normal rows are written
    once.  Any other mode ends the solve.
    """
    x = np.array(x0, dtype=np.float64)
    n, m = x.size, len(problem.normals0)
    state = {
        "acc": _FTOL, "alpha": 0.0, "f0": 0.0, "gs": 0.0, "h1": 0.0, "h2": 0.0,
        "h3": 0.0, "h4": 0.0, "t": 0.0, "t0": 0.0, "tol": 10.0 * _FTOL,
        "exact": 0, "inconsistent": 0, "reset": 0, "iter": 0,
        "itermax": _MAX_ITERATIONS, "line": 0, "m": m, "meq": 0, "mode": 0,
        "n": n,
    }
    # Kraft's worst-case workspace with no equality constraints.
    buffer = np.zeros(n * (n + 1) // 2 + 3 * m * n + 9 * m + 8 * n * n + 35 * n + 28)
    indices = np.zeros(m + 2 * n + 2, dtype=np.int32)
    mult = np.zeros(m + 2 * n + 2)
    # NaN bounds mark every variable free.
    xl, xu = np.full(n, np.nan), np.full(n, np.nan)
    g = np.array(grad, dtype=np.float64)
    C = problem.normals0.copy(order="F")
    d = np.empty(m)
    fx = fun(x)
    problem.values(x, d)
    problem.normals(x, C)
    while True:
        slsqp(state, fx, g, C, d, x, mult, xl, xu, buffer, indices)
        mode = state["mode"]
        if mode == 1:
            fx = fun(x)
            problem.values(x, d)
        elif mode == -1:
            problem.normals(x, C)
        else:
            return _Solution(x, mode == 0, state["iter"], mode)


def _sample_point(
    rng: np.random.Generator,
    gamut: GamutPolygon,
    bbox: tuple[float, float, float, float],
) -> np.ndarray:
    """A uniform point of the gamut, by rejection in its bounding box."""
    xmin, xmax, ymin, ymax = bbox
    for _attempt in range(10_000):
        p = np.array([rng.uniform(xmin, xmax), rng.uniform(ymin, ymax)])
        if gamut.nearest_boundary(ChromaticityPoint(*p)) <= 0.0:
            return p
    # Pathological gamut; fall back to the vertex mean.
    return np.mean([v.as_array() for v in gamut.vertices], axis=0)


def design_constellation(
    target: BlueTarget, cfg: OptimizerConfig, gamut: GamutPolygon
) -> DesignResult:
    """Search for the maximin constellation meeting a blue target.

    R and G of each start are sampled uniformly in the gamut (rejection
    sampling in its bounding box), each start seeded from
    (rng_seed, start_index) only, so results are deterministic and
    independent of evaluation order.

    cfg.multistart_count is an upper bound on the starts run.  The loop
    stops at the first feasible start whose d_min is certified optimal,
    d_min >= dmin_upper_bound(target) - radius * _DISK_SLACK, and that
    start wins.  With no certified start, all starts run and the best
    feasible start by (hard d_min, lowest index) wins.
    DesignResult.starts_used counts the starts run, and
    DesignResult.certified says whether the search stopped at the cap.

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

    blue = FIXED_BLUE.as_array()
    jac, offset = _point_map(blue, target)
    problem = _problem(blue, target, gamut)
    bbox = gamut.bounding_box()
    # A feasible start at or above this d_min is optimal to within
    # radius * _DISK_SLACK, the disk slack, by the cap's own argument.
    cap_floor = dmin_upper_bound(target) - target.radius * _DISK_SLACK
    certified = False

    feasible: list[tuple] = []
    diagnostics: list[dict] = []
    for k in range(cfg.multistart_count):
        rng = np.random.default_rng([cfg.rng_seed, k])
        r0, g0 = _sample_point(rng, gamut, bbox), _sample_point(rng, gamut, bbox)
        # Start at the sampled R and G: u0 puts X at their centroid, but
        # no farther than _START_RADII radii from the center.
        u0 = np.zeros(2)
        if target.radius > 0.0:
            offset0 = (r0 + g0 + blue) / 3.0 - target.center.as_array()
            u0 = offset0 / max(target.radius, np.linalg.norm(offset0) / _START_RADII)
        # t starts at 0, where every pair constraint holds.  Starting it
        # at the start's own d_min instead lost the LED-triangle preset-2
        # optimum at 4 of seeds 0-99; from 0 no seed lost it.
        res = minimize(
            lambda z: -z[4], np.concatenate([r0, u0, [0.0]]), _NEG_T_GRAD, problem
        )
        pts = jac @ res.x[:4] + offset
        dmin = float(np.linalg.norm(pts[_PAIR_I] - pts[_PAIR_J], axis=1).min())
        r_pt, g_pt = ChromaticityPoint(*pts[0]), ChromaticityPoint(*pts[1])
        x_pt = centroid([r_pt, g_pt, FIXED_BLUE])
        residual = max(-target.margin(x_pt), 0.0)
        in_gamut = gamut.contains(r_pt) and gamut.contains(g_pt)
        ok = res.success and in_gamut and target.contains(x_pt)
        if ok:
            feasible.append((dmin, k, r_pt, g_pt, residual))
        diagnostics.append(
            {
                "start_index": k,
                "d_min": dmin,
                "converged": res.success,
                "in_gamut": in_gamut,
                "constraint_residual": residual,
                "iterations": res.nit,
                "exit_mode": res.mode,
            }
        )
        if ok and dmin >= cap_floor:
            certified = True
            break

    if not feasible:
        raise ConvergenceError(
            f"no start out of {cfg.multistart_count} converged with R and G "
            "in the gamut and X in the disk",
            diagnostics,
        )
    # Highest hard d_min wins; ties go to the lowest start index.  A
    # certified start, which ended the loop, is the highest.
    _, best_k, r_pt, g_pt, residual = max(
        feasible, key=lambda item: (item[0], -item[1])
    )
    # d_min is label-symmetric in R and G; label the redder point R.
    if r_pt.x < g_pt.x:
        r_pt, g_pt = g_pt, r_pt
    constellation = build_constellation(r_pt, g_pt, FIXED_BLUE, gamut)
    return DesignResult(
        constellation=constellation,
        achieved_dmin=constellation.d_min,
        constraint_residual=residual,
        starts_converged=len(feasible),
        best_start_index=best_k,
        starts_used=len(diagnostics),
        certified=certified,
    )
