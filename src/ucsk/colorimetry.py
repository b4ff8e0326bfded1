"""CIE 1931 chromaticity-plane mathematics.

Distances and centroids on the (x, y) plane, conversion from
chromaticity to tristimulus values, flux solving for a target color, and
gamut membership tests against the convex hull of a set of sources (the
visible-light horseshoe or an LED source triangle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable, Sequence

import numpy as np

from .channel import TableError, lookup, read_table

__all__ = [
    "ChromaticityPoint",
    "Tristimulus",
    "GamutPolygon",
    "DegenerateChromaticityError",
    "CollinearPrimariesError",
    "OutOfGamutError",
    "xy_distance",
    "centroid",
    "xy_to_tristimulus",
    "solve_fluxes",
    "spectral_locus",
    "load_locus_csv",
    "photopic_efficacy",
]

# y below this is rejected by tristimulus conversion (divide-by-y blowup
# near the purple line).
MIN_CHROMATICITY_Y = 1e-6

# Points no farther than this outside any hull half-plane of a gamut
# count as in-gamut; absorbs the rounding of published 4-digit locus
# tables.
BOUNDARY_TOLERANCE = 1e-4

# A hull turn whose cross product (twice the area of the triangle of
# three successive vertices) is at most this counts as straight.  Rounding
# leaves about 1e-16 on collinear points of the unit square, 7e-20 on the
# bundled locus's collinear red end; its smallest true turn is 2e-8.
_FLAT_TURN = 1e-12


class DegenerateChromaticityError(ValueError):
    """Chromaticity has y too small for tristimulus conversion."""


class CollinearPrimariesError(ValueError):
    """The sources are collinear: their convex hull is flat."""


class OutOfGamutError(ValueError):
    """A chromaticity target cannot be produced by the given primaries."""


@dataclass(frozen=True)
class ChromaticityPoint:
    """A point (x, y) on the CIE 1931 chromaticity plane.

    Physically meaningful points satisfy 0 <= x, 0 < y and x + y <= 1;
    the type itself only requires finite coordinates so that arbitrary
    plane points can be classified by gamut tests.
    """

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite chromaticity ({self.x}, {self.y})")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


@dataclass(frozen=True)
class Tristimulus:
    """CIE tristimulus values; Y carries luminance (arbitrary units)."""

    X: float
    Y: float
    Z: float


def xy_distance(p: ChromaticityPoint, q: ChromaticityPoint) -> float:
    """Euclidean distance between two chromaticity points."""
    return math.hypot(p.x - q.x, p.y - q.y)


def centroid(points: Sequence[ChromaticityPoint]) -> ChromaticityPoint:
    """Arithmetic mean of a non-empty sequence of chromaticity points."""
    if len(points) == 0:
        raise ValueError("centroid of an empty point sequence")
    n = float(len(points))
    return ChromaticityPoint(
        sum(p.x for p in points) / n,
        sum(p.y for p in points) / n,
    )


def xy_to_tristimulus(p: ChromaticityPoint, Y: float) -> Tristimulus:
    """Tristimulus of chromaticity ``p`` at luminance ``Y``.

    Uses X = xY/y, Z = (1 - x - y)Y/y.  Y = 0 yields (0, 0, 0) for any
    chromaticity.
    """
    if Y < 0:
        raise ValueError(f"negative luminance {Y}")
    if Y == 0.0:
        return Tristimulus(0.0, 0.0, 0.0)
    if p.y < MIN_CHROMATICITY_Y:
        raise DegenerateChromaticityError(
            f"chromaticity y={p.y} below {MIN_CHROMATICITY_Y}; "
            "tristimulus conversion is ill-conditioned"
        )
    return Tristimulus(p.x * Y / p.y, Y, (1.0 - p.x - p.y) * Y / p.y)


def _mixing_matrix(primaries: Sequence[ChromaticityPoint]) -> np.ndarray:
    # Column k is the tristimulus of primary k at unit luminance.
    cols = []
    for p in primaries:
        t = xy_to_tristimulus(p, 1.0)
        cols.append([t.X, t.Y, t.Z])
    return np.array(cols, dtype=float).T


def solve_fluxes(
    primaries: Sequence[ChromaticityPoint],
    target: ChromaticityPoint,
    Y_total: float,
) -> np.ndarray:
    """Per-primary luminous fluxes that mix to ``target`` at total luminance
    ``Y_total``.

    One rule decides renderability: ``target`` renders exactly when
    ``GamutPolygon(primaries).contains(target)``, and raises
    OutOfGamutError otherwise.  A target up to ``BOUNDARY_TOLERANCE``
    outside the triangle's edge lines solves to slightly negative fluxes,
    which are clipped at 0.  The hull is also the one collinearity rule:
    ``GamutPolygon`` raises CollinearPrimariesError for primaries whose
    convex hull is flat, before the 3x3 mixing system is solved, so a
    system that rounding leaves solvable is rejected all the same.
    """
    if len(primaries) != 3:
        raise ValueError("expected exactly three primaries")
    if Y_total <= 0:
        raise ValueError(f"Y_total must be positive, got {Y_total}")
    m = _mixing_matrix(primaries)
    b = xy_to_tristimulus(target, Y_total)
    if not _primaries_gamut(tuple(primaries)).contains(target):
        raise OutOfGamutError(
            f"target ({target.x}, {target.y}) is outside the source triangle"
        )
    return np.clip(np.linalg.solve(m, [b.X, b.Y, b.Z]), 0.0, None)


@lru_cache(maxsize=16)
def _primaries_gamut(primaries: tuple[ChromaticityPoint, ...]) -> GamutPolygon:
    """``GamutPolygon(primaries)``, built once per distinct set of
    primaries: ``build_hypotheses`` solves every symbol at the same three."""
    return GamutPolygon(primaries)


class GamutPolygon:
    """The convex hull of a set of sources on the chromaticity plane.

    Additive mixtures of the sources reach exactly the convex hull of
    their chromaticities (Grassmann's laws), so the hull is the gamut.
    For the visible-light gamut the vertices are the spectral locus,
    closed by the purple line; tabulation noise leaves some of them up to
    9.5e-5 inside the hull.  Vertices are kept as given.

    ``halfplanes`` is (A, b), the hull's unit outward normals and offsets,
    with A.p <= b inside (see ``_hull_halfplanes``).  It is the one gamut
    rule: the optimizer constrains R and G by it, and ``nearest_boundary``
    judges membership by it.  Collinear vertices raise
    CollinearPrimariesError.
    """

    def __init__(self, vertices: Iterable[ChromaticityPoint]):
        pts = list(vertices)
        if len(pts) < 3:
            raise ValueError("a gamut polygon needs at least 3 vertices")
        self.vertices: tuple[ChromaticityPoint, ...] = tuple(pts)
        self._v = np.array([[p.x, p.y] for p in pts], dtype=float)
        self.halfplanes: tuple[np.ndarray, np.ndarray] = _hull_halfplanes(self._v)

    def bounding_box(self) -> tuple[float, float, float, float]:
        """(xmin, xmax, ymin, ymax) of the vertex set."""
        return (
            float(self._v[:, 0].min()),
            float(self._v[:, 0].max()),
            float(self._v[:, 1].min()),
            float(self._v[:, 1].max()),
        )

    def nearest_boundary(self, p: ChromaticityPoint) -> float:
        """max(A.p - b) over the hull half-planes: minus the distance to
        the boundary inside, and a lower bound on the distance outside."""
        a, b = self.halfplanes
        return float(np.max(a @ np.array([p.x, p.y]) - b))

    def contains(self, p: ChromaticityPoint) -> bool:
        """True when no hull half-plane puts ``p`` more than
        ``BOUNDARY_TOLERANCE`` outside: the one rule for gamut membership
        and renderability."""
        return self.nearest_boundary(p) <= BOUNDARY_TOLERANCE


def _turn(a, b, c) -> float:
    """Cross product of b - a and c - a: > 0 where a, b, c turn left."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _hull_halfplanes(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A, b) of the convex hull of the (n, 2) points ``v``: one unit
    outward normal and offset per edge, A.p <= b inside.

    Andrew's monotone chain gives the hull counter-clockwise from its
    lowest (x, y) vertex and drops every vertex whose turn is within
    ``_FLAT_TURN`` of straight.  Edge k runs from hull vertex k to k + 1
    with normal (dy, -dx) / sqrt(dx*dx + dy*dy), and b is the largest
    projection of a point of ``v`` on it.  The rows come in the order
    0, m - 1, ..., 1: on the LED triangle this reproduces Qhull's rows bit
    for bit and in its order, and so the optimizer's designs.  A hull with
    fewer than three vertices raises CollinearPrimariesError.
    """
    points = sorted(set(map(tuple, v.tolist())))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _turn(out[-2], out[-1], p) <= _FLAT_TURN:
                out.pop()
            out.append(p)
        return out[:-1]

    hull = np.array(chain(points) + chain(points[::-1]))
    if len(hull) < 3:
        raise CollinearPrimariesError(
            "vertices are collinear on the chromaticity plane; their hull is flat"
        )
    order = np.r_[0, len(hull) - 1 : 0 : -1]
    dx, dy = (np.roll(hull, -1, axis=0) - hull)[order].T
    norm = np.sqrt(dx * dx + dy * dy)
    a = np.column_stack([dy / norm, -dx / norm])
    # Elementwise, not a matrix product, so no fused multiply-add moves b.
    b = np.max(a[:, :1] * v[:, 0] + a[:, 1:] * v[:, 1], axis=1)
    return a, b


def load_locus_csv(path) -> GamutPolygon:
    """Load a spectral-locus polygon from a CSV with columns
    wavelength_nm, x, y (the purple line closes the polygon).  A table
    whose points make no polygon raises TableError naming ``path``."""
    rows = read_table(path, ("wavelength_nm", "x", "y")).tolist()
    try:
        return GamutPolygon(ChromaticityPoint(x, y) for _, x, y in rows)
    except ValueError as exc:
        raise TableError(f"{path}: {exc}") from exc


@lru_cache(maxsize=1)
def spectral_locus() -> GamutPolygon:
    """The bundled CIE 1931 2-degree spectral locus, 380-700 nm at 5 nm,
    closed by the purple line."""
    ref = resources.files("ucsk.data").joinpath("cie1931_locus_5nm.csv")
    with resources.as_file(ref) as path:
        return load_locus_csv(path)


@lru_cache(maxsize=1)
def _photopic_table() -> tuple[np.ndarray, np.ndarray]:
    ref = resources.files("ucsk.data").joinpath("photopic_5nm.csv")
    with resources.as_file(ref) as path:
        return tuple(read_table(path, ("wavelength_nm", "v")).T)


def photopic_efficacy(wavelength_nm: float) -> float:
    """CIE photopic luminous-efficiency V at ``wavelength_nm``,
    interpolated linearly between the bundled 5 nm samples."""
    return lookup(*_photopic_table(), wavelength_nm, "photopic")
