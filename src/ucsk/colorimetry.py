"""CIE 1931 chromaticity-plane mathematics.

Distances and centroids on the (x, y) plane, conversion between
chromaticity and tristimulus values, additive mixing of light sources,
flux solving for a target color, and gamut membership tests against an
arbitrary simple polygon (the visible-light horseshoe or an LED source
triangle).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable, Sequence

import numpy as np

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
    "tristimulus_to_xy",
    "mix_chromaticity",
    "solve_fluxes",
    "spectral_locus",
    "load_locus_csv",
    "photopic_efficacy",
]

# y below this is rejected by tristimulus conversion (divide-by-y blowup
# near the purple line).
MIN_CHROMATICITY_Y = 1e-6

# Points within this distance of a gamut boundary count as in-gamut;
# absorbs the rounding of published 4-digit locus tables.
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


def tristimulus_to_xy(t: Tristimulus) -> ChromaticityPoint:
    """Project tristimulus values back to the chromaticity plane."""
    total = t.X + t.Y + t.Z
    if total <= 0:
        raise DegenerateChromaticityError("tristimulus sum must be positive")
    return ChromaticityPoint(t.X / total, t.Y / total)


def mix_chromaticity(
    primaries: Sequence[ChromaticityPoint], fluxes: Sequence[float]
) -> ChromaticityPoint:
    """Chromaticity of the additive mix of three primaries.

    Each primary contributes its tristimulus at the given luminous flux;
    the summed tristimulus is projected back to (x, y).
    """
    if len(primaries) != 3 or len(fluxes) != 3:
        raise ValueError("expected exactly three primaries and three fluxes")
    if any(f < 0 for f in fluxes):
        raise ValueError(f"negative flux in {tuple(fluxes)}")
    if all(f == 0 for f in fluxes):
        raise ValueError("all fluxes are zero; mixed color is undefined")
    X = Y = Z = 0.0
    for p, f in zip(primaries, fluxes):
        t = xy_to_tristimulus(p, f)
        X += t.X
        Y += t.Y
        Z += t.Z
    return tristimulus_to_xy(Tristimulus(X, Y, Z))


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
    OutOfGamutError otherwise.  A target within ``BOUNDARY_TOLERANCE``
    outside the triangle solves to slightly negative fluxes, which are
    clipped at 0.  Collinear primaries raise CollinearPrimariesError.
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
    """A simple closed polygon on the chromaticity plane.

    Vertices are given in order; the closing edge (last vertex back to the
    first) is implicit.  For the visible-light gamut this is the spectral
    locus closed by the purple line.
    """

    def __init__(self, vertices: Iterable[ChromaticityPoint]):
        pts = list(vertices)
        if len(pts) < 3:
            raise ValueError("a gamut polygon needs at least 3 vertices")
        self.vertices: tuple[ChromaticityPoint, ...] = tuple(pts)
        self._v = np.array([[p.x, p.y] for p in pts], dtype=float)
        self._a = self._v
        self._b = np.roll(self._v, -1, axis=0)
        self._e = self._b - self._a
        self._e_len2 = np.maximum(np.einsum("ij,ij->i", self._e, self._e), 1e-300)

    def __len__(self) -> int:
        return len(self.vertices)

    def bounding_box(self) -> tuple[float, float, float, float]:
        """(xmin, xmax, ymin, ymax) of the vertex set."""
        return (
            float(self._v[:, 0].min()),
            float(self._v[:, 0].max()),
            float(self._v[:, 1].min()),
            float(self._v[:, 1].max()),
        )

    def _crossings(self, x: float, y: float) -> bool:
        # Even-odd rule with the usual half-open edge convention.
        ax, ay = self._a[:, 0], self._a[:, 1]
        bx, by = self._b[:, 0], self._b[:, 1]
        straddles = (ay > y) != (by > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_at_y = ax + (y - ay) * (bx - ax) / (by - ay)
        hits = straddles & (x < x_at_y)
        return bool(np.count_nonzero(hits) % 2)

    def nearest_boundary(
        self, p: ChromaticityPoint
    ) -> tuple[float, np.ndarray, bool]:
        """Distance to the boundary, the nearest boundary point, and
        whether ``p`` is strictly inside by the even-odd rule."""
        q = np.array([p.x, p.y], dtype=float)
        t = np.einsum("ij,ij->i", q - self._a, self._e) / self._e_len2
        t = np.clip(t, 0.0, 1.0)
        proj = self._a + t[:, None] * self._e
        d2 = np.einsum("ij,ij->i", proj - q, proj - q)
        k = int(np.argmin(d2))
        return math.sqrt(float(d2[k])), proj[k], self._crossings(p.x, p.y)

    def signed_distance(self, p: ChromaticityPoint) -> float:
        """Distance to the boundary, negative inside, positive outside."""
        d, _, inside = self.nearest_boundary(p)
        return -d if inside else d

    def contains(self, p: ChromaticityPoint) -> bool:
        """True when ``p`` is inside or within ``BOUNDARY_TOLERANCE`` of the
        boundary: the one rule for gamut membership and renderability."""
        d, _, inside = self.nearest_boundary(p)
        return inside or d <= BOUNDARY_TOLERANCE


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
