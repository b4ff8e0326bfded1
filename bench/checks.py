"""Output checks for the ucsk benchmark.

Every check returns a list of problems; an empty list means the output
passed.  The geometry here is written independently of ``ucsk`` so that a
defect in the package cannot also hide itself from its check: the blue
targets, the LED triangle and the fixed blue are restated, and the
spectral locus is read straight from the bundled CSV.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from itertools import combinations
from pathlib import Path

FIXED_BLUE = (0.1355, 0.03988)
# Preset -> (disk center, radius).
TARGETS = {1: ((0.15, 0.22), 0.10), 2: ((0.15, 0.15), 0.07), 3: ((0.15, 0.10), 0.04)}
LED_TRIANGLE = ((0.7347, 0.2653), (0.3016, 0.6923), FIXED_BLUE)
LOCUS_CSV = Path("src/ucsk/data/cie1931_locus_5nm.csv")

# d_min each design must reach, less DMIN_SLACK: the designs of the parent
# commit, horseshoe at seed 0 and LED triangle at seed 2024.
DMIN_FLOORS = {
    "horseshoe": {1: 0.278324, 2: 0.181071, 3: 0.101844},
    "led-triangle": {1: 0.171474, 2: 0.116383, 3: 0.075915},
}
DMIN_SLACK = 1e-5
CAP_SLACK = 1e-9
# Points may sit this far outside the gamut polygon (the package's
# boundary tolerance: the bundled locus is rounded to 4 digits).
GAMUT_TOL = 1e-4
CENTROID_TOL = 1e-9

BANDWIDTH_HZ = 1e8
# A Monte Carlo SER may exceed the union bound by this many binomial
# standard deviations plus this many errors before the check fails.
SER_SIGMAS = 5.0
SER_EXTRA_ERRORS = 5
SER_CHECK_MAX_BOUND = 0.2
# Files that may hold wall-clock fields and so are left out of digests.
UNDIGESTED_SUFFIX = ".timing.json"


def load_locus() -> tuple[tuple[float, float], ...]:
    with open(LOCUS_CSV, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    rows.sort(key=lambda r: float(r[0]))
    return tuple((float(r[1]), float(r[2])) for r in rows if r)


def gamut_polygon(name: str) -> tuple[tuple[float, float], ...]:
    return load_locus() if name == "horseshoe" else LED_TRIANGLE


def _dist(p, q) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def outside_distance(p, polygon) -> float:
    """0 for a point inside the closed polygon (even-odd rule), else its
    distance to the nearest edge."""
    x, y = p
    inside = False
    best = math.inf
    n = len(polygon)
    for i in range(n):
        (ax, ay), (bx, by) = polygon[i], polygon[(i + 1) % n]
        if (ay > y) != (by > y) and x < ax + (y - ay) * (bx - ax) / (by - ay):
            inside = not inside
        ex, ey = bx - ax, by - ay
        t = ((x - ax) * ex + (y - ay) * ey) / max(ex * ex + ey * ey, 1e-300)
        t = min(max(t, 0.0), 1.0)
        best = min(best, math.hypot(ax + t * ex - x, ay + t * ey - y))
    return 0.0 if inside else best


def dmin_cap(preset: int) -> float:
    """Analytic cap on d_min: X stays in the disk and (X, B) is a pair."""
    center, radius = TARGETS[preset]
    return _dist(center, FIXED_BLUE) + radius


def check_design(doc: dict, preset: int, gamut: str) -> tuple[list[str], float]:
    """Check one constellation document; returns (problems, d_min / cap)."""
    try:
        pts = {k: tuple(float(v) for v in doc["points"][k]) for k in "RGBX"}
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed design document: {exc!r}"], 0.0
    problems = []
    if pts["B"] != FIXED_BLUE:
        problems.append(f"B is {pts['B']}, not the fixed blue {FIXED_BLUE}")
    centroid = tuple(sum(pts[k][i] for k in "RGB") / 3.0 for i in range(2))
    if _dist(centroid, pts["X"]) > CENTROID_TOL:
        problems.append("X is not the centroid of R, G and B")
    d_min = min(_dist(pts[a], pts[b]) for a, b in combinations("RGBX", 2))
    cap = dmin_cap(preset)
    if d_min > cap + CAP_SLACK:
        problems.append(f"d_min {d_min!r} is above the cap {cap!r}")
    floor = DMIN_FLOORS[gamut][preset]
    if d_min < floor - DMIN_SLACK:
        problems.append(f"d_min {d_min!r} is below the floor {floor} - {DMIN_SLACK}")
    polygon = gamut_polygon(gamut)
    for label, p in pts.items():
        gap = outside_distance(p, polygon)
        if gap > GAMUT_TOL:
            problems.append(f"{label} {p} is {gap:.3g} outside the {gamut} gamut")
    center, radius = TARGETS[preset]
    if _dist(pts["X"], center) > radius + CAP_SLACK:
        problems.append(f"X {pts['X']} is outside the preset {preset} disk")
    return problems, d_min / cap


def read_design(path) -> tuple[dict | None, list[str]]:
    try:
        return json.loads(Path(path).read_text()), []
    except (OSError, ValueError) as exc:
        return None, [f"cannot read design {path}: {exc}"]


def read_curve(path, grid) -> tuple[list[float], list[str]]:
    """Values of a curve CSV whose rows must match ``grid`` exactly.

    A curve is ``#`` metadata lines, a ``snr_db,value`` header (further
    columns allowed) and one row per grid point, ending in a newline.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        return [], [f"cannot read curve {path}: {exc}"]
    if not text.endswith("\n"):
        return [], [f"{path}: truncated (no final newline)"]
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if not lines or lines[0].split(",")[:2] != ["snr_db", "value"]:
        return [], [f"{path}: missing snr_db,value header"]
    snr, values = [], []
    for ln in lines[1:]:
        cells = ln.split(",")
        try:
            snr.append(float(cells[0]))
            values.append(float(cells[1]))
        except (IndexError, ValueError):
            return [], [f"{path}: malformed row {ln!r}"]
    if snr != list(grid):
        return [], [f"{path}: SNR rows {snr} do not match the grid {list(grid)}"]
    return values, []


def check_ser(path, bound_path, grid, n: int) -> tuple[list[str], list[float]]:
    """SER in [0, 1] and, wherever the union bound is at most 0.2, no more
    than binomial slack above it."""
    ser, problems = read_curve(path, grid)
    bound, more = read_curve(bound_path, grid)
    problems += more
    if problems:
        return problems, []
    for snr, p, ub in zip(grid, ser, bound):
        if not 0.0 <= p <= 1.0:
            problems.append(f"{path}: SER {p} at {snr} dB outside [0, 1]")
        elif ub <= SER_CHECK_MAX_BOUND:
            allowed = n * ub + SER_SIGMAS * math.sqrt(n * ub * (1 - ub)) + SER_EXTRA_ERRORS
            if p * n > allowed:
                problems.append(
                    f"{path}: SER {p} at {snr} dB exceeds union bound {ub} "
                    f"beyond binomial slack"
                )
    return problems, ser


def check_rate(path, grid, m: int) -> list[str]:
    """Every rate in [0, log2(M) * bandwidth]."""
    values, problems = read_curve(path, grid)
    top = math.log2(m) * BANDWIDTH_HZ
    problems += [
        f"{path}: rate {v} at {s} dB outside [0, {top}]"
        for s, v in zip(grid, values)
        if not 0.0 <= v <= top
    ]
    return problems


def digest(paths) -> str:
    """sha256 over (relative name, bytes) of the given files, in name order."""
    h = hashlib.sha256()
    for name, path in sorted(paths):
        h.update(name.encode() + b"\0")
        h.update(hashlib.sha256(Path(path).read_bytes()).digest())
    return h.hexdigest()


def bundle_digest(directory) -> str:
    """Digest of every file under ``directory`` except timing side files."""
    root = Path(directory)
    files = [
        (p.relative_to(root).as_posix(), p)
        for p in root.rglob("*")
        if p.is_file() and not p.name.endswith(UNDIGESTED_SUFFIX)
    ]
    return digest(files)


def compare_digest(what: str, expected: str, actual: str) -> list[str]:
    if expected == actual:
        return []
    return [f"{what}: digest {actual[:16]} differs from {expected[:16]}"]


class DigestLedger:
    """Bundle digests shared by every run in one checkout.

    The first run to produce a bundle under a given key records its
    digest; every later run must match it.  Keys include a digest of the
    package source, so a changed program starts a fresh record.
    """

    def __init__(self, path):
        self.path = Path(path)

    def _load(self) -> dict:
        try:
            return json.loads(self.path.read_text())
        except FileNotFoundError:
            return {}

    def has(self, key: str) -> bool:
        return key in self._load()

    def check(self, key: str, actual: str) -> list[str]:
        known = self._load()
        if key in known:
            return compare_digest(f"bundle {key} against earlier runs", known[key], actual)
        known[key] = actual
        tmp = self.path.with_name(self.path.name + f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, sort_keys=True, indent=1) + "\n")
        os.replace(tmp, self.path)
        return []
