"""The 4-point UCSK constellation model.

A constellation is four chromaticity points {R, G, B, X}: two optimized
source colors R and G, the fixed primary blue B, and the mixed output
color X, which is always the centroid of R, G, B.  The figure of merit
is the minimum pairwise distance d_min on the chromaticity plane.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Mapping

from .colorimetry import (
    ChromaticityPoint,
    GamutPolygon,
    OutOfGamutError,
    centroid,
    xy_distance,
)

__all__ = [
    "FIXED_BLUE",
    "DISK_TOLERANCE",
    "BlueTarget",
    "Constellation4",
    "SYMBOL_LABELS",
    "min_distance",
    "build_constellation",
    "constellation_document",
    "write_constellation_json",
    "read_constellation_json",
    "document_to_constellation",
]

# The primary blue is the same in every design; only R and G move.
FIXED_BLUE = ChromaticityPoint(0.1355, 0.03988)

# Symbol i carries the two bits of i: 00->B, 01->G, 10->R, 11->X.
SYMBOL_LABELS = ("B", "G", "R", "X")

# Largest disk violation, -BlueTarget.margin, of a point the disk
# contains.  It allows only for rounding: the X of a zero-radius design
# is a centroid rounded about 3e-17 off the center.
DISK_TOLERANCE = 1e-12


@dataclass(frozen=True)
class BlueTarget:
    """Closed disk on the chromaticity plane that must contain the mixed
    output color X."""

    center: ChromaticityPoint
    radius: float

    def __post_init__(self) -> None:
        # The optimizer squares the radius; that square must be finite too.
        if not (self.radius >= 0 and math.isfinite(self.radius * self.radius)):
            raise ValueError(
                f"target radius must be >= 0 with a finite square, got {self.radius}"
            )

    def margin(self, p: ChromaticityPoint) -> float:
        """Signed containment margin: radius - |p - center|.

        Positive means inside; a point at the center has margin = radius.
        """
        return self.radius - xy_distance(p, self.center)

    def contains(self, p: ChromaticityPoint) -> bool:
        """True when ``p`` is in the disk up to rounding: its margin is at
        least ``-DISK_TOLERANCE``."""
        return self.margin(p) >= -DISK_TOLERANCE


@dataclass(frozen=True)
class Constellation4:
    """Four labeled chromaticity points with cached minimum distance.

    Construct through :func:`build_constellation`, which derives X as the
    centroid of (R, G, B) and enforces gamut membership.
    """

    r: ChromaticityPoint
    g: ChromaticityPoint
    b: ChromaticityPoint
    x: ChromaticityPoint
    d_min: float
    d_min_pair: tuple[str, str]

    def points(self) -> Mapping[str, ChromaticityPoint]:
        return {"R": self.r, "G": self.g, "B": self.b, "X": self.x}

    def point(self, label: str) -> ChromaticityPoint:
        return self.points()[label]


def min_distance(c: Constellation4) -> tuple[float, tuple[str, str]]:
    """Minimum over the six pairwise distances and the pair attaining it.

    Ties are broken by label order (B, G, R, X), so the reported pair is
    deterministic.
    """
    pts = c.points()
    best = math.inf
    best_pair = ("B", "G")
    for la, lb in combinations(SYMBOL_LABELS, 2):
        d = xy_distance(pts[la], pts[lb])
        if d < best:
            best = d
            best_pair = (la, lb)
    # Report with the historically-minimizing member last: (X, B) not (B, X).
    return best, (best_pair[1], best_pair[0])


def build_constellation(
    r: ChromaticityPoint,
    g: ChromaticityPoint,
    b: ChromaticityPoint | None = None,
    gamut: GamutPolygon | None = None,
) -> Constellation4:
    """Assemble a constellation from the three source colors.

    X is computed as the centroid of (R, G, B); d_min is cached.  When a
    gamut is given, every point (including the derived X) must lie inside
    it, boundary included.
    """
    if b is None:
        b = FIXED_BLUE
    x = centroid([r, g, b])
    if gamut is not None:
        for label, p in (("R", r), ("G", g), ("B", b), ("X", x)):
            if not gamut.contains(p):
                raise OutOfGamutError(
                    f"point {label} = ({p.x}, {p.y}) lies outside the gamut"
                )
    probe = Constellation4(r, g, b, x, 0.0, ("X", "B"))
    d, pair = min_distance(probe)
    return Constellation4(r, g, b, x, d, pair)


def constellation_document(
    c: Constellation4,
    target: BlueTarget | None = None,
    provenance: str = "",
) -> dict:
    """JSON-serializable document for a constellation."""
    doc: dict = {
        "points": {label: [p.x, p.y] for label, p in c.points().items()},
        "d_min": c.d_min,
        "provenance": provenance,
    }
    doc["target"] = (
        None
        if target is None
        else {"center": [target.center.x, target.center.y], "radius": target.radius}
    )
    return doc


def write_constellation_json(path, doc: dict) -> None:
    """Write a constellation document deterministically (sorted keys,
    shortest round-trip float text)."""
    text = json.dumps(doc, sort_keys=True, indent=2)
    Path(path).write_text(text + "\n")


def read_constellation_json(path) -> dict:
    """Read and schema-check a constellation document: four points and a
    ``target`` that is null or a disk that :class:`BlueTarget` accepts."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("points"), dict):
        raise ValueError(f"{path}: not a constellation document")
    points = doc["points"]
    for label in SYMBOL_LABELS:
        entry = points.get(label)
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(v, (int, float)) for v in entry)
        ):
            raise ValueError(f"{path}: malformed point {label!r}")
    target = doc.get("target")
    if target is not None:
        try:
            BlueTarget(ChromaticityPoint(*target["center"]), target["radius"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed target: {exc}") from exc
    return doc


def document_to_constellation(doc: dict) -> Constellation4:
    """Rebuild a constellation from a document.

    X is rederived as the centroid of the stored R, G, B; the stored X is
    not read.
    """
    pts = {
        label: ChromaticityPoint(*doc["points"][label]) for label in SYMBOL_LABELS
    }
    return build_constellation(pts["R"], pts["G"], pts["B"])
