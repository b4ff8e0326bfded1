"""Constrained maximin placement of the R and G source colors.

With the primary blue fixed, choose R and G to maximize the minimum
pairwise distance among {R, G, B, X} (X the centroid) subject to X lying
in the blue-target disk and R, G lying in the gamut.

The maximin objective is solved in epigraph form: maximize t over
z = (Rx, Ry, Gx, Gy, t) subject to |p_i - p_j|^2 >= t^2 for the six
pairs of {R, G, B, X}, |X - center|^2 <= radius^2 (the equality
X = center for a zero-radius disk), and A.R <= b, A.G <= b for the unit
half-planes (A, b) of the gamut's convex hull.  Every constraint is
smooth, so one SLSQP solve (Kraft's sequential least-squares QP) per
start suffices.  The non-convex landscape is swept by deterministic
multistart, and every start is re-checked against the exact hard
minimum and the exact residuals on the gamut polygon itself, which need
not be convex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.spatial import ConvexHull

from .colorimetry import (
    BOUNDARY_TOLERANCE,
    ChromaticityPoint,
    GamutPolygon,
    spectral_locus,
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

# Disks at or below this radius pin X to the center with an equality;
# the inequality r^2 - |X - c|^2 >= 0 has a zero gradient at a
# zero-radius disk and gives the QP nothing to work with.
_PIN_RADIUS = 1e-7

# Feasibility allowance on the gamut signed distance.  Published locus
# tables are rounded to 4 digits, which leaves the fixed blue a hair
# outside the polygon; boundary points must stay feasible.  Kept at half
# the membership tolerance, so every accepted design passes
# GamutPolygon.contains and, on the LED triangle, also renders.
_GAMUT_MARGIN = 0.5 * BOUNDARY_TOLERANCE

# SLSQP accuracy: the objective change, step and summed constraint
# violation a converged start must reach.
_FTOL = 1e-12

# SLSQP iteration cap per start; no start of the bundled presets and
# gamuts (seeds 0-39, 32 starts each) needed more than 81.
_MAX_ITERATIONS = 200

# Largest exact disk or gamut violation of a feasible start.
_CONSTRAINT_TOLERANCE = 1e-6


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


def dmin_upper_bound(target: BlueTarget) -> float:
    """Analytic cap on the achievable minimum distance.

    (X, B) is one of the six pairs and X must stay in the disk, so
    d_min <= |center - B| + radius.
    """
    return xy_distance(target.center, FIXED_BLUE) + target.radius


# Each point of (R, G, B, X) is _POINT_JAC[k] @ z[:4] plus a multiple of
# B (_POINT_BLUE[k]); the six pair differences follow by subtraction.
_POINT_JAC = np.array(
    [
        [[1.0, 0, 0, 0], [0, 1.0, 0, 0]],
        [[0, 0, 1.0, 0], [0, 0, 0, 1.0]],
        np.zeros((2, 4)),
        [[1 / 3, 0, 1 / 3, 0], [0, 1 / 3, 0, 1 / 3]],
    ]
)
_POINT_BLUE = np.array([0.0, 0.0, 1.0, 1 / 3])
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_PAIR_JAC = np.array([_POINT_JAC[i] - _POINT_JAC[j] for i, j in _PAIRS])
_PAIR_BLUE = np.array([_POINT_BLUE[i] - _POINT_BLUE[j] for i, j in _PAIRS])
# Gradient of the objective -t.
_NEG_T_GRAD = np.array([0.0, 0.0, 0.0, 0.0, -1.0])


def _pair_deltas(z: np.ndarray, blue: np.ndarray) -> np.ndarray:
    return _PAIR_JAC @ z[:4] + np.outer(_PAIR_BLUE, blue)


def _centroid(z: np.ndarray, blue: np.ndarray) -> np.ndarray:
    return (z[0:2] + z[2:4] + blue) / 3.0


def _hull_halfplanes(gamut: GamutPolygon) -> tuple[np.ndarray, np.ndarray]:
    """Unit outward normals A and offsets b with A.p <= b on the hull."""
    eq = ConvexHull([[v.x, v.y] for v in gamut.vertices]).equations
    return eq[:, :2], -eq[:, 2]


def _constraints(
    blue: np.ndarray, target: BlueTarget, gamut: GamutPolygon
) -> list[dict]:
    """SLSQP constraint dicts (fun >= 0, or fun == 0) over z = (R, G, t)."""
    center = target.center.as_array()
    radius2 = target.radius**2

    def pair_fun(z):
        d = _pair_deltas(z, blue)
        return np.einsum("ij,ij->i", d, d) - z[4] ** 2

    def pair_jac(z):
        jac = np.empty((6, 5))
        jac[:, :4] = 2.0 * np.einsum("ij,ijk->ik", _pair_deltas(z, blue), _PAIR_JAC)
        jac[:, 4] = -2.0 * z[4]
        return jac

    def x_offset(z):
        return _centroid(z, blue) - center

    x_jac = np.hstack([_POINT_JAC[3], np.zeros((2, 1))])
    if target.radius <= _PIN_RADIUS:
        disk = {"type": "eq", "fun": x_offset, "jac": lambda z: x_jac}
    else:
        disk = {
            "type": "ineq",
            "fun": lambda z: np.array([radius2 - x_offset(z) @ x_offset(z)]),
            "jac": lambda z: (-2.0 * x_offset(z) @ x_jac)[None, :],
        }
    a, b = _hull_halfplanes(gamut)
    lin_a = np.hstack([np.kron(np.eye(2), a), np.zeros((2 * len(b), 1))])
    lin_b = np.concatenate([b, b]) + _GAMUT_MARGIN
    hull = {"type": "ineq", "fun": lambda z: lin_b - lin_a @ z, "jac": lambda z: -lin_a}
    return [{"type": "ineq", "fun": pair_fun, "jac": pair_jac}, disk, hull]


def _exact_violation(
    z: np.ndarray, blue: np.ndarray, target: BlueTarget, gamut: GamutPolygon
) -> float:
    """Max violation of [disk, gamut R, gamut G] on the gamut polygon."""
    x = _centroid(z, blue)
    disk = float(np.linalg.norm(x - target.center.as_array())) - target.radius
    s_r = gamut.signed_distance(ChromaticityPoint(z[0], z[1]))
    s_g = gamut.signed_distance(ChromaticityPoint(z[2], z[3]))
    return max(disk, s_r - _GAMUT_MARGIN, s_g - _GAMUT_MARGIN, 0.0)


def _polish_into_disk(
    z: np.ndarray, blue: np.ndarray, target: BlueTarget
) -> np.ndarray:
    """Nudge R and G so X lands exactly on or inside the disk when the
    solver left it a sub-tolerance epsilon outside (SLSQP stops with X up
    to about 1e-12 beyond the rim; the disk check downstream is exact)."""
    delta = _centroid(z, blue) - target.center.as_array()
    dist = float(np.linalg.norm(delta))
    excess = dist - target.radius
    if excess <= 0.0 or dist < 1e-12:
        return z
    shift = 1.5 * (excess + 1e-15) * (delta / dist)
    return z - np.concatenate([shift, shift])


def _sample_start(
    rng: np.random.Generator,
    gamut: GamutPolygon,
    bbox: tuple[float, float, float, float],
) -> np.ndarray:
    xmin, xmax, ymin, ymax = bbox
    pts = []
    for _ in range(2):
        for _attempt in range(10_000):
            x = rng.uniform(xmin, xmax)
            y = rng.uniform(ymin, ymax)
            if gamut.signed_distance(ChromaticityPoint(x, y)) <= 0.0:
                pts.extend((x, y))
                break
        else:
            # Pathological gamut; fall back to the vertex mean.
            vx = np.mean([v.x for v in gamut.vertices])
            vy = np.mean([v.y for v in gamut.vertices])
            pts.extend((float(vx), float(vy)))
    return np.array(pts)


def design_constellation(
    target: BlueTarget,
    cfg: OptimizerConfig = OptimizerConfig(),
    gamut: GamutPolygon | None = None,
) -> DesignResult:
    """Search for the maximin constellation meeting a blue target.

    Starts are sampled uniformly in the gamut bounding box (rejection
    sampling), each seeded from (rng_seed, start_index) only, so results
    are deterministic and independent of evaluation order.  The best
    feasible start by (hard d_min, lowest index) wins.

    Raises InfeasibleTargetError when the disk is disjoint from the gamut
    or the fixed blue lies outside it, ConvergenceError when no start
    reaches feasibility.
    """
    if gamut is None:
        gamut = spectral_locus()
    center_gap = max(gamut.signed_distance(target.center), 0.0)
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
    constraints = _constraints(blue, target, gamut)
    bbox = gamut.bounding_box()
    options = {"maxiter": _MAX_ITERATIONS, "ftol": _FTOL}

    feasible: list[tuple[float, int, np.ndarray]] = []
    diagnostics: list[dict] = []
    for k in range(cfg.multistart_count):
        rng = np.random.default_rng([cfg.rng_seed, k])
        # t starts at 0, where every pair constraint holds.  Starting it
        # at the start's own d_min instead lost the LED-triangle preset-2
        # optimum at 4 of seeds 0-99; from 0 no seed lost it.
        z0 = np.append(_sample_start(rng, gamut, bbox), 0.0)
        res = minimize(
            lambda z: -z[4],
            z0,
            jac=lambda z: _NEG_T_GRAD,
            method="SLSQP",
            constraints=constraints,
            options=options,
        )
        z = res.x[:4]
        dmin = float(np.linalg.norm(_pair_deltas(z, blue), axis=1).min())
        viol = _exact_violation(z, blue, target, gamut)
        if viol <= _CONSTRAINT_TOLERANCE:
            feasible.append((dmin, k, z))
        diagnostics.append(
            {"start_index": k, "d_min": dmin, "constraint_residual": viol}
        )

    if not feasible:
        raise ConvergenceError(
            f"no start out of {cfg.multistart_count} reached constraint "
            f"tolerance {_CONSTRAINT_TOLERANCE}",
            diagnostics,
        )
    # Highest hard d_min wins; ties go to the lowest start index.
    _, best_k, best_z = max(feasible, key=lambda item: (item[0], -item[1]))
    best_z = _polish_into_disk(best_z, blue, target)
    # d_min is label-symmetric in R and G; label the redder point R.
    r_pt = ChromaticityPoint(best_z[0], best_z[1])
    g_pt = ChromaticityPoint(best_z[2], best_z[3])
    if r_pt.x < g_pt.x:
        r_pt, g_pt = g_pt, r_pt
    constellation = build_constellation(r_pt, g_pt, FIXED_BLUE, gamut)
    return DesignResult(
        constellation=constellation,
        achieved_dmin=constellation.d_min,
        constraint_residual=_exact_violation(best_z, blue, target, gamut),
        starts_converged=len(feasible),
        best_start_index=best_k,
    )
