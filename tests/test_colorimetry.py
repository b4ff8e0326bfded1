import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ucsk.colorimetry import (
    BOUNDARY_TOLERANCE,
    MIN_CHROMATICITY_Y,
    ChromaticityPoint,
    CollinearPrimariesError,
    DegenerateChromaticityError,
    GamutPolygon,
    OutOfGamutError,
    Tristimulus,
    centroid,
    load_locus_csv,
    photopic_efficacy,
    solve_fluxes,
    spectral_locus,
    xy_distance,
    xy_to_tristimulus,
)
from ucsk.presets import led_triangle_gamut

B = ChromaticityPoint(0.1355, 0.03988)

DEFAULT_PRIMARIES = (
    ChromaticityPoint(0.7347, 0.2653),
    ChromaticityPoint(0.3016, 0.6923),
    B,
)

coords = st.floats(min_value=0.01, max_value=0.95)


def in_simplex(p: ChromaticityPoint) -> bool:
    return p.x + p.y <= 0.99


def cramer_fluxes(primaries, target, y_total):
    """Independent 3x3 solve via Cramer's rule for the mixing system."""

    def col(p):
        return [p.x / p.y, 1.0, (1.0 - p.x - p.y) / p.y]

    m = [col(p) for p in primaries]  # columns

    def det3(a, b, c):
        return (
            a[0] * (b[1] * c[2] - b[2] * c[1])
            - b[0] * (a[1] * c[2] - a[2] * c[1])
            + c[0] * (a[1] * b[2] - a[2] * b[1])
        )

    rhs = [
        target.x * y_total / target.y,
        y_total,
        (1.0 - target.x - target.y) * y_total / target.y,
    ]
    d = det3(m[0], m[1], m[2])
    return [
        det3(rhs, m[1], m[2]) / d,
        det3(m[0], rhs, m[2]) / d,
        det3(m[0], m[1], rhs) / d,
    ]


def tristimulus_to_xy(t: Tristimulus) -> ChromaticityPoint:
    """Project tristimulus values back to the chromaticity plane."""
    total = t.X + t.Y + t.Z
    if total <= 0:
        raise DegenerateChromaticityError("tristimulus sum must be positive")
    return ChromaticityPoint(t.X / total, t.Y / total)


def mix_chromaticity(primaries, fluxes) -> ChromaticityPoint:
    """Chromaticity of the additive mix: the summed tristimulus of each
    primary at its luminous flux, projected back to (x, y).  The
    round-trip oracle of ``solve_fluxes``."""
    X = Y = Z = 0.0
    for p, f in zip(primaries, fluxes):
        t = xy_to_tristimulus(p, f)
        X, Y, Z = X + t.X, Y + t.Y, Z + t.Z
    return tristimulus_to_xy(Tristimulus(X, Y, Z))


def polygon_signed_distance(vertices, p: ChromaticityPoint) -> float:
    """The retired gamut rule: the Euclidean distance to the nearest edge
    of the polygon through ``vertices``, negative when the even-odd ray
    crossing rule puts ``p`` inside."""
    a = np.array([v.as_array() for v in vertices])
    b = np.roll(a, -1, axis=0)
    e = b - a
    q = p.as_array()
    t = np.clip(np.einsum("ij,ij->i", q - a, e) / np.einsum("ij,ij->i", e, e), 0, 1)
    d = float(np.min(np.linalg.norm(a + t[:, None] * e - q, axis=1)))
    straddles = (a[:, 1] > p.y) != (b[:, 1] > p.y)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_at_y = a[:, 0] + (p.y - a[:, 1]) * e[:, 0] / e[:, 1]
    return -d if np.count_nonzero(straddles & (p.x < x_at_y)) % 2 else d


class TestXyDistance:
    def test_table_value(self):
        # tabulated X and B of the widest-target option-1 design
        x = ChromaticityPoint(0.2316, 0.2917)
        assert xy_distance(x, B) == pytest.approx(0.2695, abs=5e-4)

    def test_identity(self):
        p = ChromaticityPoint(0.3, 0.3)
        assert xy_distance(p, p) == 0.0

    def test_3_4_5(self):
        assert xy_distance(
            ChromaticityPoint(0.1, 0.2), ChromaticityPoint(0.4, 0.6)
        ) == pytest.approx(0.5, abs=1e-15)

    @given(coords, coords, coords, coords, coords, coords)
    @settings(deadline=None)
    def test_metric(self, ax, ay, bx, by, cx, cy):
        p, q, r = (
            ChromaticityPoint(ax, ay),
            ChromaticityPoint(bx, by),
            ChromaticityPoint(cx, cy),
        )
        assert xy_distance(p, q) >= 0
        assert xy_distance(p, q) == xy_distance(q, p)
        assert xy_distance(p, r) <= xy_distance(p, q) + xy_distance(q, r) + 1e-12


class TestCentroid:
    def test_table_row(self):
        pts = [
            ChromaticityPoint(0.0821, 0.2023),
            ChromaticityPoint(0.3340, 0.1178),
            B,
        ]
        c = centroid(pts)
        assert c.x == pytest.approx(0.1839, abs=5e-4)
        assert c.y == pytest.approx(0.1200, abs=5e-4)

    def test_single_point(self):
        p = ChromaticityPoint(0.4, 0.3)
        assert centroid([p]) == p

    def test_symmetric_triple(self):
        c = centroid(
            [
                ChromaticityPoint(0.2, 0.2),
                ChromaticityPoint(0.4, 0.2),
                ChromaticityPoint(0.3, 0.5),
            ]
        )
        assert c.x == pytest.approx(0.3, abs=1e-15)
        assert c.y == pytest.approx(0.3, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            centroid([])

    @given(coords, coords, coords, coords, st.floats(-0.1, 0.1), st.floats(-0.1, 0.1))
    @settings(deadline=None)
    def test_translation_equivariance(self, ax, ay, bx, by, dx, dy):
        pts = [ChromaticityPoint(ax, ay), ChromaticityPoint(bx, by)]
        moved = [ChromaticityPoint(p.x + dx, p.y + dy) for p in pts]
        c0, c1 = centroid(pts), centroid(moved)
        assert c1.x == pytest.approx(c0.x + dx, abs=1e-12)
        assert c1.y == pytest.approx(c0.y + dy, abs=1e-12)


class TestTristimulus:
    def test_equal_energy_point(self):
        t = xy_to_tristimulus(ChromaticityPoint(1 / 3, 1 / 3), 1.0)
        assert (t.X, t.Y, t.Z) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)

    def test_primary_blue(self):
        # direct evaluation of X = xY/y, Z = (1-x-y)Y/y
        t = xy_to_tristimulus(B, 1.0)
        expect_x = 0.1355 / 0.03988
        expect_z = (1.0 - 0.1355 - 0.03988) / 0.03988
        assert t.X == pytest.approx(expect_x, abs=1e-12)
        assert t.Z == pytest.approx(expect_z, abs=1e-12)
        assert t.X == pytest.approx(3.3977, abs=1e-3)
        assert t.Z == pytest.approx(20.6775, abs=1e-3)

    def test_zero_luminance(self):
        t = xy_to_tristimulus(ChromaticityPoint(0.9, 0.05), 0.0)
        assert (t.X, t.Y, t.Z) == (0.0, 0.0, 0.0)

    def test_degenerate_y(self):
        with pytest.raises(DegenerateChromaticityError):
            xy_to_tristimulus(ChromaticityPoint(0.5, 1e-9), 1.0)

    @given(st.floats(0.0, 0.9), st.floats(0.01, 0.95), st.floats(1e-3, 1e3))
    @settings(deadline=None)
    def test_round_trip(self, x, y, lum):
        p = ChromaticityPoint(min(x, 0.99 - y), y)
        back = tristimulus_to_xy(xy_to_tristimulus(p, lum))
        assert back.x == pytest.approx(p.x, rel=1e-12, abs=1e-12)
        assert back.y == pytest.approx(p.y, rel=1e-12)


class TestMixing:
    """The local mixing oracle, and ``solve_fluxes`` round-tripped
    through it."""

    def test_single_primary(self):
        mixed = mix_chromaticity(DEFAULT_PRIMARIES, (2.5, 0.0, 0.0))
        assert mixed.x == pytest.approx(DEFAULT_PRIMARIES[0].x, abs=1e-12)
        assert mixed.y == pytest.approx(DEFAULT_PRIMARIES[0].y, abs=1e-12)

    def test_identical_primaries_any_split(self):
        p = ChromaticityPoint(0.3, 0.4)
        mixed = mix_chromaticity((p, p, DEFAULT_PRIMARIES[2]), (1.0, 5.0, 0.0))
        assert mixed.x == pytest.approx(p.x, abs=1e-12)
        assert mixed.y == pytest.approx(p.y, abs=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            mix_chromaticity(DEFAULT_PRIMARIES, (0.0, 0.0, 0.0))

    def test_solve_then_mix_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            w = rng.dirichlet([1.0, 1.0, 1.0])
            target = ChromaticityPoint(
                sum(wi * p.x for wi, p in zip(w, DEFAULT_PRIMARIES)),
                sum(wi * p.y for wi, p in zip(w, DEFAULT_PRIMARIES)),
            )
            y_total = float(rng.uniform(0.5, 20.0))
            fluxes = solve_fluxes(DEFAULT_PRIMARIES, target, y_total)
            assert fluxes.sum() == pytest.approx(y_total, rel=1e-9)
            mixed = mix_chromaticity(DEFAULT_PRIMARIES, fluxes)
            assert mixed.x == pytest.approx(target.x, abs=1e-9)
            assert mixed.y == pytest.approx(target.y, abs=1e-9)


class TestSolveFluxes:
    def test_target_is_primary(self):
        fluxes = solve_fluxes(DEFAULT_PRIMARIES, DEFAULT_PRIMARIES[0], 3.0)
        assert fluxes[0] == pytest.approx(3.0, rel=1e-12)
        assert fluxes[1] == pytest.approx(0.0, abs=1e-9)
        assert fluxes[2] == pytest.approx(0.0, abs=1e-9)

    def test_against_cramer_oracle(self):
        target = ChromaticityPoint(1 / 3, 1 / 3)
        got = solve_fluxes(DEFAULT_PRIMARIES, target, 7.0)
        expect = cramer_fluxes(DEFAULT_PRIMARIES, target, 7.0)
        np.testing.assert_allclose(got, expect, rtol=1e-9)

    def test_default_triangle_spans_default_primaries(self):
        assert led_triangle_gamut().vertices == DEFAULT_PRIMARIES

    def test_out_of_gamut(self):
        # 7.5e-3 beyond the R-G edge, well past the band that contains()
        # still accepts.
        target = ChromaticityPoint(0.7, 0.31)
        assert led_triangle_gamut().nearest_boundary(target) > BOUNDARY_TOLERANCE
        with pytest.raises(OutOfGamutError):
            solve_fluxes(DEFAULT_PRIMARIES, target, 1.0)

    def test_inside_near_red_corner(self):
        # The R-G edge at x = 0.7 is at y = 0.2995, so this point is inside
        # the triangle even though it is close to the red primary.
        target = ChromaticityPoint(0.7, 0.29)
        assert led_triangle_gamut().contains(target)
        got = solve_fluxes(DEFAULT_PRIMARIES, target, 1.0)
        expect = cramer_fluxes(DEFAULT_PRIMARIES, target, 1.0)
        np.testing.assert_allclose(got, expect, rtol=1e-9)
        assert np.all(got > 0)

    @given(coords, coords)
    @example(0.51819, 0.47884)  # 5.7e-5 outside the R-G edge
    @example(0.44, 0.15437)  # 5.9e-5 outside the B-R edge
    @settings(deadline=None)
    def test_solvable_iff_in_triangle(self, x, y):
        p = ChromaticityPoint(x, y)
        assume(in_simplex(p))
        triangle = led_triangle_gamut()
        try:
            solve_fluxes(DEFAULT_PRIMARIES, p, 1.0)
            solvable = True
        except OutOfGamutError:
            solvable = False
        assert triangle.contains(p) == solvable

    def test_collinear(self):
        prims = (
            ChromaticityPoint(0.2, 0.2),
            ChromaticityPoint(0.3, 0.3),
            ChromaticityPoint(0.4, 0.4),
        )
        with pytest.raises(CollinearPrimariesError):
            solve_fluxes(prims, ChromaticityPoint(0.3, 0.35), 1.0)

    @given(
        st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-0.5, 0.5),
        st.floats(-0.5, 0.5), st.floats(-2.0, 2.0),
    )
    @settings(deadline=None)
    def test_collinear_always_raises(self, ax, ay, dx, dy, t):
        # a, a + d and a + t d, with the target a + d/2 on their line:
        # rounding often leaves the 3x3 mixing system solvable, but Qhull
        # finds the hull flat.
        prims = tuple(
            ChromaticityPoint(ax + k * dx, ay + k * dy) for k in (0.0, 1.0, t)
        )
        assume(min(p.y for p in prims) >= MIN_CHROMATICITY_Y)
        target = ChromaticityPoint(ax + 0.5 * dx, ay + 0.5 * dy)
        with pytest.raises(CollinearPrimariesError):
            solve_fluxes(prims, target, 1.0)


class TestGamut:
    def test_primary_blue_on_locus(self, locus):
        assert locus.contains(B)

    def test_far_corner_outside(self, locus):
        assert not locus.contains(ChromaticityPoint(0.9, 0.9))

    def test_vertex_counts_inside(self, locus):
        assert all(locus.contains(v) for v in locus.vertices)

    def test_signed_distance_sign(self, locus):
        assert locus.nearest_boundary(ChromaticityPoint(0.3, 0.3)) < 0
        assert locus.nearest_boundary(ChromaticityPoint(0.9, 0.9)) > 0

    def test_hull_halfplanes_of_triangle(self):
        tri = led_triangle_gamut()
        a, b = tri.halfplanes
        assert a.shape == (3, 2)
        np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0)
        for v in tri.vertices:
            assert np.all(a @ v.as_array() <= b + 1e-12)
        inside = np.mean([v.as_array() for v in tri.vertices], axis=0)
        assert np.all(a @ inside < b)

    def test_locus_vertices_on_or_inside_hull(self, locus):
        assert max(locus.nearest_boundary(v) for v in locus.vertices) <= 1e-12

    @pytest.mark.parametrize("gamut_name", ["locus", "led-triangle"])
    def test_hull_accepts_what_the_polygon_rule_accepted(self, locus, gamut_name):
        gamut = locus if gamut_name == "locus" else led_triangle_gamut()
        xmin, xmax, ymin, ymax = gamut.bounding_box()
        rng = np.random.default_rng(7)
        # Uniform points, and points within 2e-4 of a vertex, where the
        # two rules differ most.
        pts = rng.uniform([xmin - 0.01, ymin - 0.01], [xmax + 0.01, ymax + 0.01],
                          (2000, 2))
        corners = np.array([v.as_array() for v in gamut.vertices])
        near = corners[rng.integers(0, len(corners), 2000)]
        pts = np.vstack([pts, near + rng.uniform(-2e-4, 2e-4, (2000, 2))])
        accepted = 0
        for x, y in pts:
            p = ChromaticityPoint(x, y)
            if polygon_signed_distance(gamut.vertices, p) <= BOUNDARY_TOLERANCE:
                accepted += 1
                assert gamut.contains(p)
        assert accepted > 1000

    def test_inside_triangle_distance_matches_polygon_rule(self):
        tri = led_triangle_gamut()
        rng = np.random.default_rng(5)
        corners = np.array([v.as_array() for v in tri.vertices])
        for w in rng.dirichlet([1.0, 1.0, 1.0], 500):
            p = ChromaticityPoint(*(w @ corners))
            expected = polygon_signed_distance(tri.vertices, p)
            assert tri.nearest_boundary(p) == pytest.approx(expected, abs=1e-15)

    def test_locus_table_shape(self, locus):
        assert len(locus.vertices) == 65
        xmin, xmax, ymin, ymax = locus.bounding_box()
        assert 0 < xmin < xmax < 1
        assert 0 < ymin < ymax < 1

    def test_needs_three_vertices(self):
        with pytest.raises(ValueError):
            GamutPolygon([ChromaticityPoint(0, 0), ChromaticityPoint(1, 0)])

    def test_load_locus_csv_matches_bundled(self, tmp_path, locus):
        path = tmp_path / "locus.csv"
        rows = ["wavelength_nm,x,y"]
        rows += [
            f"{380 + 5 * i},{v.x},{v.y}" for i, v in enumerate(locus.vertices)
        ]
        path.write_text("\n".join(rows) + "\n")
        loaded = load_locus_csv(path)
        assert [(v.x, v.y) for v in loaded.vertices] == [
            (v.x, v.y) for v in locus.vertices
        ]

    def test_load_locus_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nm,x,y\n500,0.1,0.2\n")
        with pytest.raises(ValueError):
            load_locus_csv(path)


class TestPhotopic:
    def test_known_samples(self):
        assert photopic_efficacy(700.0) == pytest.approx(0.004102, rel=1e-9)
        assert photopic_efficacy(550.0) == pytest.approx(0.99495, rel=1e-9)
        assert photopic_efficacy(460.0) == pytest.approx(0.060, rel=1e-9)
        assert photopic_efficacy(555.0) == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            photopic_efficacy(300.0)
