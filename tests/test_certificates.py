"""The certified d_min bounds of ``presets.DMIN_BOUNDS``, proved again.

Each entry bounds the best d_min of the problem that
``design_constellation`` solves for a preset's disk in a gamut: R and G
in the gamut's half-planes offset by ``optimizer._GAMUT_MARGIN``, and X,
the centroid of R, G and the fixed blue, in the disk.  (The optimizer
keeps X in the disk less ``_DISK_SLACK``; the whole disk holds that.)  A
spatial branch and bound over the boxes of (Rx, Ry, Gx, Gy) proves that
no point of that set has a d_min above the entry:

- a box is dropped when one half-plane excludes its R or its G, when its
  X box misses the disk, or when its upper bound is at most the entry;
- the upper bound of a box is the least, over the six pairs of points,
  of the largest distance the pair reaches in the box.  Each pair's
  difference is affine in (R, G), one coordinate at a time, so its range
  over the box is a box whose farthest corner gives that distance
  exactly.  The (X, B) pair is also capped by ``dmin_upper_bound``;
- every other box is halved across its widest side.

When no box is left, the entry is proved, up to the rounding of the
bound arithmetic (about 1e-16).  The search lives here because nothing
in the package runs it: ``design_constellation`` only reads the table.
"""

import math

import numpy as np
import pytest

from ucsk import optimizer
from ucsk.colorimetry import ChromaticityPoint, GamutPolygon
from ucsk.constellation import FIXED_BLUE, BlueTarget
from ucsk.optimizer import OptimizerConfig, design_constellation, dmin_upper_bound
from ucsk.presets import (
    DEFAULT_PRIMARY_CHROMATICITIES,
    DMIN_BOUNDS,
    GAMUTS,
    blue_target_preset,
    certified_dmin_bound,
    led_triangle_gamut,
)

# Each difference of the points (R, G, B, X) as coefficients of (R, G, B);
# X = (R + G + B) / 3.  The last row is X - B.
_PAIRS = np.array([
    [1.0, -1.0, 0.0],
    [1.0, 0.0, -1.0],
    [2.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0],
    [0.0, 1.0, -1.0],
    [-1.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0],
    [1.0 / 3.0, 1.0 / 3.0, -2.0 / 3.0],
])

# Boxes a search may examine before it counts as open.  The committed
# entries close in 8,000 to 14,000 boxes on the LED triangle and about
# 150,000 on the horseshoe.
BUDGET = 600_000


def _offset_box(a, b):
    """(lo, hi) of the polygon A.p <= b, from its vertices: the points
    where two of its lines meet and no half-plane excludes."""
    i, j = np.triu_indices(len(b), k=1)
    det = a[i, 0] * a[j, 1] - a[i, 1] * a[j, 0]
    ok = np.abs(det) > 1e-12
    i, j, det = i[ok], j[ok], det[ok]
    x = (b[i] * a[j, 1] - b[j] * a[i, 1]) / det
    y = (a[i, 0] * b[j] - a[j, 0] * b[i]) / det
    p = np.column_stack([x, y])
    p = p[np.all(p @ a.T - b <= 1e-12, axis=1)]
    return p.min(axis=0) - 1e-9, p.max(axis=0) + 1e-9


def branch_and_bound(target, gamut, bound, margin=optimizer._GAMUT_MARGIN, budget=BUDGET):
    """The number of boxes the search examined before none was left, or
    None when ``budget`` boxes did not close it: no point with R, G in
    the gamut's half-planes offset by ``margin`` and X in ``target`` has
    a d_min above ``bound`` when it returns a number."""
    a, b = gamut.halfplanes
    b = b + margin
    pos, neg = np.maximum(a, 0.0), np.minimum(a, 0.0)
    blue = FIXED_BLUE.as_array()
    center, radius = target.center.as_array(), target.radius
    cap = dmin_upper_bound(target)
    box_lo, box_hi = _offset_box(a, b)
    lo, hi = np.tile(box_lo, 2)[None], np.tile(box_hi, 2)[None]
    examined = 0
    while len(lo):
        examined += len(lo)
        if examined > budget:
            return None
        keep = np.ones(len(lo), bool)
        for s in (slice(0, 2), slice(2, 4)):
            # The least of a.p - b over the box, per half-plane.
            least = lo[:, s] @ pos.T + hi[:, s] @ neg.T - b
            keep &= np.all(least <= 0.0, axis=1)
        x_lo = (lo[:, :2] + lo[:, 2:] + blue) / 3.0
        x_hi = (hi[:, :2] + hi[:, 2:] + blue) / 3.0
        gap = np.clip(center, x_lo, x_hi) - center
        keep &= np.einsum("ij,ij->i", gap, gap) <= radius * radius
        upper = np.full(len(lo), math.inf)
        for k, (cr, cg, cb) in enumerate(_PAIRS):
            reach = []
            for axis in (0, 1):
                r_lo, r_hi = lo[:, axis], hi[:, axis]
                g_lo, g_hi = lo[:, 2 + axis], hi[:, 2 + axis]
                low = (cr * (r_lo if cr > 0 else r_hi) + cg * (g_lo if cg > 0 else g_hi)
                       + cb * blue[axis])
                high = (cr * (r_hi if cr > 0 else r_lo) + cg * (g_hi if cg > 0 else g_lo)
                        + cb * blue[axis])
                reach.append(np.maximum(np.abs(low), np.abs(high)))
            pair = np.hypot(*reach)
            upper = np.minimum(upper, np.minimum(pair, cap) if k == 5 else pair)
        keep &= upper > bound
        lo, hi = lo[keep], hi[keep]
        rows = np.arange(len(lo))
        widest = np.argmax(hi - lo, axis=1)
        middle = (lo[rows, widest] + hi[rows, widest]) / 2.0
        upper_half_lo, lower_half_hi = lo.copy(), hi.copy()
        upper_half_lo[rows, widest] = middle
        lower_half_hi[rows, widest] = middle
        lo = np.concatenate([lo, upper_half_lo])
        hi = np.concatenate([lower_half_hi, hi])
    return examined


ENTRIES = pytest.mark.parametrize(
    "gamut_name, preset", sorted(DMIN_BOUNDS), ids=[f"{g}-{p}" for g, p in sorted(DMIN_BOUNDS)]
)


def _uncertified(monkeypatch):
    """Patch out both stop floors, so that every start runs."""
    monkeypatch.setattr(optimizer, "dmin_upper_bound", lambda target: math.inf)
    monkeypatch.setattr(optimizer, "certified_dmin_bound", lambda target, gamut: None)


@pytest.fixture(scope="module")
def best_designs():
    """(gamut, preset) -> the d_min of the best of all 32 starts at each
    of seeds 0-9 and 2024, with no stop floor."""
    with pytest.MonkeyPatch.context() as patch:
        _uncertified(patch)
        return {
            (name, preset): [
                design_constellation(
                    blue_target_preset(preset), OptimizerConfig(rng_seed=seed),
                    GAMUTS[name](),
                ).constellation.d_min
                for seed in (*range(10), 2024)
            ]
            for name, preset in DMIN_BOUNDS
        }


class TestCertificates:
    @ENTRIES
    def test_branch_and_bound_proves_the_entry(self, gamut_name, preset):
        target, bound = blue_target_preset(preset), DMIN_BOUNDS[gamut_name, preset]
        assert branch_and_bound(target, GAMUTS[gamut_name](), bound) is not None
        assert bound < dmin_upper_bound(target)

    @ENTRIES
    def test_multistart_reaches_the_entry(self, best_designs, gamut_name, preset):
        # The entry is at most the certificate's slack above what the
        # multistart finds at every seed, so each of these designs would
        # stop the search.
        bound = DMIN_BOUNDS[gamut_name, preset]
        for dmin in best_designs[gamut_name, preset]:
            assert bound - optimizer._BOUND_SLACK <= dmin <= bound

    @pytest.mark.parametrize("preset", (1, 2, 3))
    def test_search_stays_open_below_a_design(self, best_designs, preset):
        # The designs are feasible, so no search may close below them.
        dmin = max(best_designs["led-triangle", preset])
        closed = branch_and_bound(
            blue_target_preset(preset), led_triangle_gamut(), dmin - 1e-6, budget=100_000
        )
        assert closed is None

    @pytest.mark.parametrize("preset", (1, 2, 3))
    def test_exact_triangle_closes_below_the_designs(self, best_designs, preset):
        # The LED optima put R or G up to the gamut margin outside the
        # triangle.  A search over the exact triangle closes below them,
        # which is why the search bounds the offset half-planes.
        dmin = min(best_designs["led-triangle", preset])
        closed = branch_and_bound(
            blue_target_preset(preset), led_triangle_gamut(), dmin - 1e-6, margin=0.0
        )
        assert closed is not None

    def test_lookup_is_by_value(self, locus):
        same_target = BlueTarget(ChromaticityPoint(0.15, 0.22), 0.10)
        same_gamut = GamutPolygon(DEFAULT_PRIMARY_CHROMATICITIES)
        assert certified_dmin_bound(same_target, same_gamut) == DMIN_BOUNDS["led-triangle", 1]
        assert certified_dmin_bound(same_target, locus) == DMIN_BOUNDS["horseshoe", 1]
        wider = BlueTarget(ChromaticityPoint(0.15, 0.22), 0.1000001)
        assert certified_dmin_bound(wider, same_gamut) is None
        shifted = GamutPolygon([*DEFAULT_PRIMARY_CHROMATICITIES[:2], ChromaticityPoint(0.1355, 0.04)])
        assert certified_dmin_bound(same_target, shifted) is None
        # The cap certifies horseshoe presets 2 and 3 itself.
        for preset in (2, 3):
            assert certified_dmin_bound(blue_target_preset(preset), locus) is None

    @ENTRIES
    def test_design_stops_at_the_entry(self, gamut_name, preset):
        result = design_constellation(
            blue_target_preset(preset), OptimizerConfig(rng_seed=2024), GAMUTS[gamut_name]()
        )
        bound = DMIN_BOUNDS[gamut_name, preset]
        assert result.certified
        assert result.starts_used == result.best_start_index + 1
        assert bound - optimizer._BOUND_SLACK <= result.constellation.d_min <= bound
