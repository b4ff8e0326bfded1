"""Bundled blue targets, source primaries, and reference designs.

Three blue-target disks (1 = widest, 3 = tightest around the primary
blue) and nine published 4-UCSK reference designs, three options per
target, used as regression fixtures.  Fixture names follow the pattern
``table1-t<target>o<option>``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .colorimetry import ChromaticityPoint, GamutPolygon
from .constellation import FIXED_BLUE, BlueTarget

__all__ = [
    "BLUE_TARGETS",
    "blue_target_preset",
    "TABLE1_FIXTURES",
    "Table1Fixture",
    "DEFAULT_PRIMARY_WAVELENGTHS",
    "DEFAULT_PRIMARY_CHROMATICITIES",
    "led_triangle_gamut",
]

# Target disks: (radius, center).  Radii shrink toward the primary blue.
BLUE_TARGETS: dict[int, BlueTarget] = {
    1: BlueTarget(ChromaticityPoint(0.15, 0.22), 0.10),
    2: BlueTarget(ChromaticityPoint(0.15, 0.15), 0.07),
    3: BlueTarget(ChromaticityPoint(0.15, 0.10), 0.04),
}


def blue_target_preset(n: int) -> BlueTarget:
    """Blue target disk for preset 1, 2 or 3."""
    try:
        return BLUE_TARGETS[n]
    except KeyError:
        raise ValueError(f"unknown blue-target preset {n}; choose 1, 2 or 3")


@dataclass(frozen=True)
class Table1Fixture:
    """One published reference design: source colors plus the values the
    original table reports for the mixed color and minimum distance."""

    name: str
    target_id: int
    g: ChromaticityPoint
    r: ChromaticityPoint
    x_tabulated: ChromaticityPoint
    d_min_tabulated: float

    @property
    def b(self) -> ChromaticityPoint:
        return FIXED_BLUE


def _fx(name, tid, g, r, x, dmin) -> Table1Fixture:
    return Table1Fixture(
        name,
        tid,
        ChromaticityPoint(*g),
        ChromaticityPoint(*r),
        ChromaticityPoint(*x),
        dmin,
    )


TABLE1_FIXTURES: dict[str, Table1Fixture] = {
    f.name: f
    for f in (
        _fx("table1-t1o1", 1, (0.0594, 0.6751), (0.5000, 0.1600), (0.2316, 0.2917), 0.2695),
        _fx("table1-t1o2", 1, (0.0448, 0.5945), (0.5800, 0.2000), (0.2058, 0.3018), 0.2658),
        _fx("table1-t1o3", 1, (0.0268, 0.5256), (0.5423, 0.3031), (0.2348, 0.2895), 0.2687),
        _fx("table1-t2o1", 2, (0.0330, 0.5081), (0.3152, 0.1055), (0.1613, 0.2179), 0.1737),
        _fx("table1-t2o2", 2, (0.03185, 0.4744), (0.3822, 0.1063), (0.1832, 0.2069), 0.1798),
        _fx("table1-t2o3", 2, (0.02871, 0.4428), (0.4099, 0.1233), (0.1914, 0.2020), 0.1715),
        _fx("table1-t3o1", 3, (0.0821, 0.2023), (0.3340, 0.1178), (0.1839, 0.1200), 0.0936),
        _fx("table1-t3o2", 3, (0.0550, 0.2643), (0.2924, 0.1093), (0.1610, 0.1379), 0.1012),
        _fx("table1-t3o3", 3, (0.0701, 0.2643), (0.2717, 0.1101), (0.1591, 0.1381), 0.1010),
    )
}

# Channel wavelengths of the red, green, and blue LEDs.  The red and
# green chromaticities default to the spectral locus at these
# wavelengths; blue keeps its fixed design chromaticity.
DEFAULT_PRIMARY_WAVELENGTHS = (700.0, 550.0, 460.0)
DEFAULT_PRIMARY_CHROMATICITIES = (
    ChromaticityPoint(0.7347, 0.2653),
    ChromaticityPoint(0.3016, 0.6923),
    FIXED_BLUE,
)


def led_triangle_gamut() -> GamutPolygon:
    """Source triangle spanned by the LED primaries.

    Designs produced inside this gamut are renderable by the default link
    primaries (every symbol solves to nonnegative fluxes), unlike designs
    that roam the full spectral-locus horseshoe.
    """
    return GamutPolygon(DEFAULT_PRIMARY_CHROMATICITIES)
