"""Underwater optical channel: per-wavelength Beer-Lambert path loss.

Water is described by sampled absorption a and scattering b coefficients
(1/m); attenuation is c = a + b, and power decays as exp(-c * d) over a
path of d meters.  Queries interpolate linearly between samples and
refuse to extrapolate.
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
    "WaterTableError",
    "attenuation_coefficient",
    "path_loss",
    "effective_range",
    "load_water_csv",
    "seawater",
]

WATER_CSV_HEADER = ["wavelength_nm", "a_per_m", "b_per_m"]


class WavelengthRangeError(ValueError):
    """Wavelength query outside the sampled table range."""


class WaterTableError(ValueError):
    """Malformed water-properties table."""


@dataclass(frozen=True)
class WaterProperties:
    """Sorted per-wavelength absorption and scattering table."""

    wavelength_nm: np.ndarray
    absorption: np.ndarray
    scattering: np.ndarray
    name: str = "unnamed"

    def __post_init__(self) -> None:
        wl = np.asarray(self.wavelength_nm, dtype=float)
        a = np.asarray(self.absorption, dtype=float)
        b = np.asarray(self.scattering, dtype=float)
        if not (wl.shape == a.shape == b.shape) or wl.ndim != 1 or wl.size == 0:
            raise WaterTableError("wavelength/a/b must be equal-length 1-D arrays")
        if not all(np.isfinite(arr).all() for arr in (wl, a, b)):
            raise WaterTableError("wavelengths and coefficients must be finite")
        if np.any(np.diff(wl) <= 0):
            raise WaterTableError("wavelengths must be strictly increasing")
        if np.any(a < 0) or np.any(b < 0):
            raise WaterTableError("absorption and scattering must be >= 0")
        for arr, name in ((wl, "wavelength_nm"), (a, "absorption"), (b, "scattering")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def _check_range(self, wavelength: float) -> None:
        lo, hi = float(self.wavelength_nm[0]), float(self.wavelength_nm[-1])
        if not (lo <= wavelength <= hi):
            raise WavelengthRangeError(
                f"{wavelength} nm outside {self.name!r} table range [{lo}, {hi}]"
            )

    def a(self, wavelength: float) -> float:
        self._check_range(wavelength)
        return float(np.interp(wavelength, self.wavelength_nm, self.absorption))

    def b(self, wavelength: float) -> float:
        self._check_range(wavelength)
        return float(np.interp(wavelength, self.wavelength_nm, self.scattering))


def attenuation_coefficient(w: WaterProperties, wavelength_nm: float) -> float:
    """c = a + b at the given wavelength (1/m), interpolated linearly."""
    return w.a(wavelength_nm) + w.b(wavelength_nm)


def path_loss(c: float, d: float) -> float:
    """Beer-Lambert power loss factor exp(-c * d)."""
    if not 0 <= c < math.inf:
        raise ValueError(f"attenuation must be finite and >= 0, got {c}")
    if d < 0:
        raise ValueError(f"distance must be >= 0, got {d}")
    return math.exp(-c * d)


def effective_range(c: float, loss_threshold: float) -> float:
    """Distance at which the loss factor drops to ``loss_threshold``."""
    if c <= 0:
        raise ValueError(f"attenuation must be > 0, got {c}")
    if not (0.0 < loss_threshold < 1.0):
        raise ValueError(f"loss threshold must be in (0, 1), got {loss_threshold}")
    return -math.log(loss_threshold) / c


def load_water_csv(path) -> WaterProperties:
    """Parse a water table with header wavelength_nm,a_per_m,b_per_m.

    Rows may appear in any order; they are sorted on load.  Parse errors
    carry the offending line number.
    """
    rows: list[tuple[float, float, float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != WATER_CSV_HEADER:
            raise WaterTableError(
                f"{path}:1: expected header {','.join(WATER_CSV_HEADER)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 3:
                raise WaterTableError(f"{path}:{lineno}: expected 3 columns")
            try:
                wl, a, b = (float(c) for c in row)
            except ValueError as exc:
                raise WaterTableError(f"{path}:{lineno}: non-numeric cell") from exc
            if not all(math.isfinite(v) for v in (wl, a, b)):
                raise WaterTableError(f"{path}:{lineno}: non-finite cell")
            if wl <= 0:
                raise WaterTableError(f"{path}:{lineno}: non-positive wavelength {wl}")
            if a < 0 or b < 0:
                raise WaterTableError(f"{path}:{lineno}: negative coefficient")
            rows.append((wl, a, b))
    if not rows:
        raise WaterTableError(f"{path}: no data rows")
    rows.sort(key=lambda r: r[0])
    wl = [r[0] for r in rows]
    if len(set(wl)) != len(wl):
        dupes = sorted({w for w in wl if wl.count(w) > 1})
        raise WaterTableError(f"{path}: duplicate wavelength(s) {dupes}")
    return WaterProperties(
        np.array(wl),
        np.array([r[1] for r in rows]),
        np.array([r[2] for r in rows]),
        name=str(path),
    )


@lru_cache(maxsize=1)
def seawater() -> WaterProperties:
    """Bundled seawater preset: red/green/blue coefficients at
    700/550/460 nm."""
    ref = resources.files("ucsk.data").joinpath("seawater.csv")
    with resources.as_file(ref) as path:
        props = load_water_csv(path)
    return WaterProperties(
        props.wavelength_nm, props.absorption, props.scattering, name="seawater"
    )
