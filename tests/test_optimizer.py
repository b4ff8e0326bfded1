from itertools import combinations

import numpy as np
import pytest

from ucsk.colorimetry import ChromaticityPoint, spectral_locus, xy_distance
from ucsk.constellation import (
    DISK_TOLERANCE,
    FIXED_BLUE,
    BlueTarget,
    build_constellation,
)
from ucsk.linksim import LinkConfig, build_hypotheses
from ucsk.optimizer import (
    ConvergenceError,
    InfeasibleTargetError,
    OptimizerConfig,
    _constraints,
    _hull_halfplanes,
    design_constellation,
    dmin_upper_bound,
)
from ucsk.presets import TABLE1_FIXTURES, blue_target_preset, led_triangle_gamut

FAST = OptimizerConfig(multistart_count=8, rng_seed=0)


class TestUpperBound:
    def test_target1(self):
        target = blue_target_preset(1)
        expect = xy_distance(target.center, FIXED_BLUE) + 0.1
        assert dmin_upper_bound(target) == pytest.approx(expect, rel=1e-12)
        assert dmin_upper_bound(target) == pytest.approx(0.2807, abs=1e-4)

    def test_target2(self):
        assert dmin_upper_bound(blue_target_preset(2)) == pytest.approx(
            0.1811, abs=1e-4
        )

    def test_zero_radius(self):
        target = BlueTarget(ChromaticityPoint(0.2, 0.3), 0.0)
        assert dmin_upper_bound(target) == xy_distance(target.center, FIXED_BLUE)


def _central_difference(fun, z, h=1e-7):
    cols = []
    for i in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        cols.append((np.atleast_1d(fun(zp)) - np.atleast_1d(fun(zm))) / (2 * h))
    return np.stack(cols, axis=1)


class TestJacobians:
    @pytest.mark.parametrize(
        "target",
        [blue_target_preset(2), BlueTarget(ChromaticityPoint(0.15, 0.15), 0.0)],
        ids=["disk", "zero-radius-disk"],
    )
    def test_match_central_differences(self, locus, target):
        # pair, disk and gamut half-planes: inequalities at every radius
        constraints = _constraints(FIXED_BLUE.as_array(), target, locus)
        assert tuple(c["type"] for c in constraints) == ("ineq",) * 3
        rng = np.random.default_rng(3)
        for _ in range(12):
            z = rng.uniform([0.05, 0.05, -1.5, -1.5, 0.01], [0.6, 0.7, 1.5, 1.5, 0.3])
            for c in constraints:
                np.testing.assert_allclose(
                    c["jac"](z), _central_difference(c["fun"], z),
                    rtol=1e-6, atol=1e-8,
                )

    def test_pair_residuals_are_squared_distances(self):
        target = blue_target_preset(3)
        pair = _constraints(FIXED_BLUE.as_array(), target, led_triangle_gamut())[0]
        fx = TABLE1_FIXTURES["table1-t3o1"]
        c = build_constellation(fx.r, fx.g)
        u = (c.x.as_array() - target.center.as_array()) / target.radius
        t = 0.05
        res = pair["fun"](np.array([fx.r.x, fx.r.y, *u, t]))
        expect = sorted(xy_distance(p, q) ** 2 - t**2 for p, q in combinations(
            (c.r, c.g, c.b, c.x), 2
        ))
        np.testing.assert_allclose(sorted(res), expect, atol=1e-15)

    def test_hull_halfplanes_of_triangle(self):
        tri = led_triangle_gamut()
        a, b = _hull_halfplanes(tri)
        assert a.shape == (3, 2)
        np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0)
        for v in tri.vertices:
            assert np.all(a @ v.as_array() <= b + 1e-12)
        inside = np.mean([v.as_array() for v in tri.vertices], axis=0)
        assert np.all(a @ inside < b)


class TestDesign:
    def test_target3_bracket(self, locus):
        target = blue_target_preset(3)
        result = design_constellation(target, FAST, locus)
        assert 0.0962 <= result.achieved_dmin <= 0.1019
        assert result.achieved_dmin <= dmin_upper_bound(target) + 1e-6
        assert result.constraint_residual <= DISK_TOLERANCE
        # dominates the best published design for this target
        best_published = max(
            fx.d_min_tabulated
            for fx in TABLE1_FIXTURES.values()
            if fx.target_id == 3
        )
        assert result.achieved_dmin >= best_published - 0.005
        c = result.constellation
        assert target.margin(c.x) >= 0.0
        assert all(locus.contains(p) for p in c.points().values())

    def test_deterministic(self, locus):
        target = blue_target_preset(3)
        a = design_constellation(target, FAST, locus)
        b = design_constellation(target, FAST, locus)
        assert a == b

    def test_seed_changes_search(self, locus):
        target = blue_target_preset(3)
        a = design_constellation(target, FAST, locus)
        b = design_constellation(
            target, OptimizerConfig(multistart_count=8, rng_seed=99), locus
        )
        # same optimum within tolerance, independent searches
        assert a.achieved_dmin == pytest.approx(b.achieved_dmin, abs=1e-4)

    def test_degenerate_disk_at_blue(self, locus):
        target = BlueTarget(FIXED_BLUE, 0.0)
        result = design_constellation(target, FAST, locus)
        assert result.achieved_dmin <= 1e-3
        assert result.constraint_residual <= DISK_TOLERANCE
        assert xy_distance(result.constellation.x, FIXED_BLUE) <= 1e-9

    def test_degenerate_disk_pins_x(self, locus):
        center = ChromaticityPoint(0.15, 0.15)
        target = BlueTarget(center, 0.0)
        result = design_constellation(target, FAST, locus)
        assert xy_distance(result.constellation.x, center) <= 1e-9
        assert result.achieved_dmin <= xy_distance(center, FIXED_BLUE) + 1e-9

    def test_infeasible_target(self, locus):
        with pytest.raises(InfeasibleTargetError):
            design_constellation(
                BlueTarget(ChromaticityPoint(2.0, 2.0), 0.1), FAST, locus
            )

    def test_unreachable_centroid_reports_diagnostics(self):
        # disk inside the LED triangle but beyond any centroid with B fixed
        tri = led_triangle_gamut()
        target = BlueTarget(ChromaticityPoint(0.70, 0.28), 0.005)
        cfg = OptimizerConfig(multistart_count=3, rng_seed=0)
        with pytest.raises(ConvergenceError) as err:
            design_constellation(target, cfg, tri)
        assert len(err.value.diagnostics) == 3

    def test_labels_canonical(self, locus):
        result = design_constellation(blue_target_preset(3), FAST, locus)
        assert result.constellation.r.x >= result.constellation.g.x


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            OptimizerConfig(multistart_count=0)


GAMUTS = {"horseshoe": spectral_locus, "led-triangle": led_triangle_gamut}


class TestCap:
    @pytest.mark.parametrize("gamut_name", sorted(GAMUTS))
    @pytest.mark.parametrize("preset", (1, 2, 3))
    def test_dmin_within_cap(self, preset, gamut_name):
        target = blue_target_preset(preset)
        result = design_constellation(target, FAST, GAMUTS[gamut_name]())
        cap = dmin_upper_bound(target)
        assert result.achieved_dmin <= cap + 1e-9
        if gamut_name == "horseshoe" and preset in (2, 3):
            # (X, B) is the binding pair: X sits on the far rim of the disk
            assert result.achieved_dmin >= cap - 1e-6


    @pytest.mark.parametrize("seed", (9, 14, 28, 49, 50))
    def test_led_preset2_escapes_local_optimum(self, seed):
        # Most starts at these seeds lie in the basin of a local optimum
        # at d_min 0.11455; the best design is 0.1163855.  Starting every
        # start with X at the disk center lost it at seeds 49 and 50.
        result = design_constellation(
            blue_target_preset(2), OptimizerConfig(rng_seed=seed), led_triangle_gamut()
        )
        assert result.achieved_dmin >= 0.1163855 - 1e-6


class TestDiskContainment:
    @pytest.mark.parametrize("gamut_name", sorted(GAMUTS))
    @pytest.mark.parametrize("seed", range(8))
    def test_every_point_inside(self, seed, gamut_name):
        # Each center is the centroid of the fixed blue and two random
        # points of the LED triangle, so every disk is reachable on both
        # gamuts.  Below a radius of about 2e-7 the disk slack is under
        # the centroid's rounding, which the tolerance covers instead.
        rng = np.random.default_rng(seed)
        tri = np.array([v.as_array() for v in led_triangle_gamut().vertices])
        rg = rng.dirichlet(np.ones(3), size=2) @ tri
        center = ChromaticityPoint(*(rg.sum(axis=0) + FIXED_BLUE.as_array()) / 3.0)
        target = BlueTarget(center, 10.0 ** rng.uniform(-6.0, -0.5))
        gamut = GAMUTS[gamut_name]()
        c = design_constellation(target, FAST, gamut).constellation
        assert target.margin(c.x) >= 0.0
        assert all(gamut.contains(p) for p in c.points().values())

    @pytest.mark.parametrize("radius", (1e-12, 1e-200))
    def test_tiny_radius_matches_zero_radius(self, locus, radius):
        center = ChromaticityPoint(0.2, 0.3)
        tiny = design_constellation(BlueTarget(center, radius), FAST, locus)
        zero = design_constellation(BlueTarget(center, 0.0), FAST, locus)
        assert tiny.constraint_residual <= DISK_TOLERANCE
        assert tiny.achieved_dmin == pytest.approx(zero.achieved_dmin, abs=1e-9)


class TestLedFluxes:
    # LED-triangle designs may sit up to the gamut allowance outside the
    # source triangle.  GamutPolygon.contains still accepts them, and
    # solve_fluxes clips their slightly negative fluxes at 0.
    @pytest.mark.parametrize("seed", (0, 2024))
    @pytest.mark.parametrize("preset", (1, 2, 3))
    def test_designs_render_at_10m(self, preset, seed, water):
        cfg = OptimizerConfig(rng_seed=seed)
        result = design_constellation(
            blue_target_preset(preset), cfg, led_triangle_gamut()
        )
        h = build_hypotheses(result.constellation, LinkConfig(water, 10.0))
        assert h.vectors.shape == (4, 3)
        assert np.all(np.isfinite(h.vectors))
