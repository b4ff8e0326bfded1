"""CIE 1931 chromaticity-plane mathematics.

Distances and centroids on the (x, y) plane, conversion from
chromaticity to tristimulus values, flux solving for a target color, and
gamut membership tests against the convex hull of a set of sources (the
visible-light horseshoe or an LED source triangle).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable, Sequence

import numpy as np
from scipy.spatial import ConvexHull, QhullError

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


class DegenerateChromaticityError(ValueError):
    """Chromaticity has y too small for tristimulus conversion."""


class CollinearPrimariesError(ValueError):
    """Three primaries are collinear; the mixing system is singular."""


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
    which are clipped at 0.  Collinear primaries raise
    CollinearPrimariesError, by the same rule: ``GamutPolygon`` rejects
    primaries whose convex hull Qhull finds flat, even where rounding
    leaves the 3x3 mixing system solvable.
    """
    if len(primaries) != 3:
        raise ValueError("expected exactly three primaries")
    if Y_total <= 0:
        raise ValueError(f"Y_total must be positive, got {Y_total}")
    m = _mixing_matrix(primaries)
    b = xy_to_tristimulus(target, Y_total)
    rhs = np.array([b.X, b.Y, b.Z], dtype=float)
    try:
        fluxes = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise CollinearPrimariesError(
            "primaries are collinear on the chromaticity plane"
        ) from exc
    if not GamutPolygon(primaries).contains(target):
        raise OutOfGamutError(
            f"target ({target.x}, {target.y}) is outside the source triangle; "
            f"required fluxes {fluxes.tolist()}"
        )
    return np.clip(fluxes, 0.0, None)


class GamutPolygon:
    """The convex hull of a set of sources on the chromaticity plane.

    Additive mixtures of the sources reach exactly the convex hull of
    their chromaticities (Grassmann's laws), so the hull is the gamut.
    For the visible-light gamut the vertices are the spectral locus,
    closed by the purple line; tabulation noise leaves some of them up to
    9.5e-5 inside the hull.  Vertices are kept as given.

    ``halfplanes`` is (A, b), the hull's unit outward normals and offsets
    from Qhull, with A.p <= b inside.  It is the one gamut rule: the
    optimizer constrains R and G by it, and ``nearest_boundary`` judges
    membership by it.  Collinear vertices raise CollinearPrimariesError.
    """

    def __init__(self, vertices: Iterable[ChromaticityPoint]):
        pts = list(vertices)
        if len(pts) < 3:
            raise ValueError("a gamut polygon needs at least 3 vertices")
        self.vertices: tuple[ChromaticityPoint, ...] = tuple(pts)
        self._v = np.array([[p.x, p.y] for p in pts], dtype=float)
        try:
            eq = ConvexHull(self._v).equations
        except QhullError as exc:
            raise CollinearPrimariesError(
                "vertices are collinear on the chromaticity plane; their hull is flat"
            ) from exc
        self.halfplanes: tuple[np.ndarray, np.ndarray] = (eq[:, :2], -eq[:, 2])

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


def load_locus_csv(path) -> GamutPolygon:
    """Load a spectral-locus polygon from a CSV with columns
    wavelength_nm, x, y (the purple line closes the polygon)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["wavelength_nm", "x", "y"]:
            raise ValueError(f"{path}: expected header wavelength_nm,x,y")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                wl, x, y = (float(c) for c in row)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric cell") from exc
            rows.append((wl, x, y))
    if len(rows) < 3:
        raise ValueError(f"{path}: fewer than 3 locus samples")
    rows.sort(key=lambda r: r[0])
    return GamutPolygon(ChromaticityPoint(x, y) for _, x, y in rows)


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
        data = np.loadtxt(path, delimiter=",", skiprows=1)
    return data[:, 0], data[:, 1]


def photopic_efficacy(wavelength_nm: float) -> float:
    """CIE photopic luminous-efficiency V at ``wavelength_nm``,
    interpolated linearly between the bundled 5 nm samples."""
    wl, v = _photopic_table()
    if not (wl[0] <= wavelength_nm <= wl[-1]):
        raise ValueError(
            f"wavelength {wavelength_nm} nm outside photopic table "
            f"[{wl[0]}, {wl[-1]}]"
        )
    return float(np.interp(wavelength_nm, wl, v))
