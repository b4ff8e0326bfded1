"""Underwater optical channel: per-wavelength Beer-Lambert path loss.

Water is described by sampled absorption a and scattering b coefficients
(1/m); attenuation is c = a + b, and power decays as exp(-c * d) over a
path of d meters.

The module also holds the one rule for the package's wavelength tables
(water, CIE 1931 locus, photopic V).  ``read_table`` reads a CSV whose
first line is the expected header and whose other lines are blank or
hold exactly one finite number per column; the wavelength column is
> 0 and has no repeats, and every other cell is >= 0.  Rows come back
sorted by wavelength, and a malformed table raises TableError naming
``path:line``.  ``lookup`` interpolates a column linearly and raises
WavelengthRangeError outside the sampled range instead of
extrapolating.  ``WaterProperties`` checks only the shape of its
arrays: its values come from ``read_table`` rows, which the table rule
has already checked.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

__all__ = [
    "WaterProperties",
    "WavelengthRangeError",
    "TableError",
    "read_table",
    "lookup",
    "attenuation_coefficient",
    "path_loss",
    "load_water_csv",
    "seawater",
]

WATER_CSV_HEADER = ("wavelength_nm", "a_per_m", "b_per_m")


class WavelengthRangeError(ValueError):
    """Wavelength query outside the sampled table range."""


class TableError(ValueError):
    """Malformed wavelength table."""


def read_table(path, header: tuple[str, ...]) -> np.ndarray:
    """The rows of the wavelength table at ``path``, sorted by wavelength,
    as an (n, len(header)) array; TableError on any breach of the table
    rule in the module docstring."""
    rows: list[list[float]] = []
    first_line: dict[float, int] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if [h.strip() for h in next(reader, [])] != list(header):
            raise TableError(f"{path}:1: expected header {','.join(header)}")
        for lineno, row in enumerate(reader, start=2):
            if all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise TableError(f"{path}:{lineno}: expected {len(header)} columns")
            try:
                wl, *values = cells = [float(c) for c in row]
            except ValueError as exc:
                raise TableError(f"{path}:{lineno}: non-numeric cell") from exc
            if not all(math.isfinite(v) for v in cells):
                raise TableError(f"{path}:{lineno}: non-finite cell")
            if wl <= 0:
                raise TableError(f"{path}:{lineno}: non-positive wavelength {wl}")
            for name, v in zip(header[1:], values):
                if v < 0:
                    raise TableError(f"{path}:{lineno}: negative {name} {v}")
            if wl in first_line:
                raise TableError(
                    f"{path}:{lineno}: duplicate wavelength {wl} "
                    f"(first on line {first_line[wl]})"
                )
            first_line[wl] = lineno
            rows.append(cells)
    if not rows:
        raise TableError(f"{path}: no data rows")
    # The wavelengths are distinct, so rows sort by wavelength alone.
    return np.array(sorted(rows))


def lookup(wl: np.ndarray, values: np.ndarray, wavelength: float, name: str) -> float:
    """``values`` sampled at the increasing wavelengths ``wl``, interpolated
    linearly at ``wavelength``; WavelengthRangeError outside the samples
    of the table called ``name``."""
    lo, hi = float(wl[0]), float(wl[-1])
    if not lo <= wavelength <= hi:
        raise WavelengthRangeError(
            f"{wavelength} nm outside {name!r} table range [{lo}, {hi}]"
        )
    return float(np.interp(wavelength, wl, values))


@dataclass(frozen=True)
class WaterProperties:
    """Per-wavelength absorption and scattering, in the sorted rows of a
    ``read_table`` water table; only the shape is checked here."""

    wavelength_nm: np.ndarray
    absorption: np.ndarray
    scattering: np.ndarray
    name: str = "unnamed"

    def __post_init__(self) -> None:
        wl = np.asarray(self.wavelength_nm, dtype=float)
        a = np.asarray(self.absorption, dtype=float)
        b = np.asarray(self.scattering, dtype=float)
        if not (wl.shape == a.shape == b.shape) or wl.ndim != 1 or wl.size == 0:
            raise TableError("wavelength/a/b must be equal-length 1-D arrays")
        for arr, name in ((wl, "wavelength_nm"), (a, "absorption"), (b, "scattering")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def attenuation_coefficient(w: WaterProperties, wavelength_nm: float) -> float:
    """c = a + b at the given wavelength (1/m), interpolated linearly."""
    a = lookup(w.wavelength_nm, w.absorption, wavelength_nm, w.name)
    return a + lookup(w.wavelength_nm, w.scattering, wavelength_nm, w.name)


def path_loss(c: float, d: float) -> float:
    """Beer-Lambert power loss factor exp(-c * d)."""
    if not 0 <= c < math.inf:
        raise ValueError(f"attenuation must be finite and >= 0, got {c}")
    if d < 0:
        raise ValueError(f"distance must be >= 0, got {d}")
    return math.exp(-c * d)


def load_water_csv(path) -> WaterProperties:
    """The water table at ``path``, with header wavelength_nm,a_per_m,b_per_m
    and rows in any order, named by its path."""
    wl, a, b = read_table(path, WATER_CSV_HEADER).T
    return WaterProperties(wl, a, b, name=str(path))


@lru_cache(maxsize=1)
def seawater() -> WaterProperties:
    """Bundled seawater preset: red/green/blue coefficients at
    700/550/460 nm."""
    ref = resources.files("ucsk.data").joinpath("seawater.csv")
    with resources.as_file(ref) as path:
        wl, a, b = read_table(path, WATER_CSV_HEADER).T
    return WaterProperties(wl, a, b, name="seawater")
