import json
import math

import pytest

from ucsk.colorimetry import ChromaticityPoint, OutOfGamutError, xy_distance
from ucsk.constellation import (
    FIXED_BLUE,
    BlueTarget,
    build_constellation,
    constellation_document,
    document_to_constellation,
    min_distance,
    read_constellation_json,
    write_constellation_json,
)
from ucsk.presets import (
    CONSISTENT_FIXTURES,
    TABLE1_FIXTURES,
    blue_target_preset,
)


def fixture_constellation(name, locus):
    fx = TABLE1_FIXTURES[name]
    return build_constellation(fx.r, fx.g, fx.b, locus)


class TestTableRegression:
    def test_dmin_all_rows_loose(self, locus):
        for name, fx in TABLE1_FIXTURES.items():
            c = fixture_constellation(name, locus)
            assert c.d_min == pytest.approx(fx.d_min_tabulated, abs=0.01), name

    def test_dmin_consistent_rows_tight(self, locus):
        for name in CONSISTENT_FIXTURES:
            fx = TABLE1_FIXTURES[name]
            c = fixture_constellation(name, locus)
            assert c.d_min == pytest.approx(fx.d_min_tabulated, abs=1e-3), name

    def test_centroid_matches_tabulated_x(self, locus):
        for name, fx in TABLE1_FIXTURES.items():
            if name == "table1-t1o2":
                continue  # documented anomaly: tabulated X off its own R, G
            c = fixture_constellation(name, locus)
            assert xy_distance(c.x, fx.x_tabulated) <= 5e-4, name

    def test_t1o2_recomputed_centroid(self, locus):
        c = fixture_constellation("table1-t1o2", locus)
        assert c.x.x == pytest.approx(0.2534, abs=5e-4)
        assert c.x.y == pytest.approx(0.2781, abs=5e-4)
        # the recomputed centroid reproduces the tabulated d_min exactly
        assert c.d_min == pytest.approx(0.2658, abs=5e-5)

    def test_minimizing_pair_is_x_b(self, locus):
        for name in TABLE1_FIXTURES:
            c = fixture_constellation(name, locus)
            assert set(c.d_min_pair) == {"X", "B"}, name

    def test_dmin_ordering_across_targets(self):
        # option-1 designs: wider blue target admits larger d_min
        d = [TABLE1_FIXTURES[f"table1-t{t}o1"].d_min_tabulated for t in (1, 2, 3)]
        assert d[0] > d[1] > d[2]


class TestMinDistance:
    def test_reports_pair(self, locus):
        c = fixture_constellation("table1-t1o1", locus)
        d, pair = min_distance(c)
        assert d == pytest.approx(0.2695, abs=1e-3)
        assert set(pair) == {"X", "B"}

    def test_t3o2_value(self, locus):
        c = fixture_constellation("table1-t3o2", locus)
        d, _ = min_distance(c)
        assert d == pytest.approx(0.1012, abs=1e-3)

    def test_degenerate_identical_points(self):
        c = build_constellation(FIXED_BLUE, FIXED_BLUE, FIXED_BLUE)
        assert c.d_min == 0.0
        assert c.x == FIXED_BLUE

    def test_relabel_invariance(self, locus):
        for name, fx in TABLE1_FIXTURES.items():
            c1 = build_constellation(fx.r, fx.g, fx.b, locus)
            c2 = build_constellation(fx.g, fx.r, fx.b, locus)
            assert c1.d_min == c2.d_min, name


class TestBuildConstellation:
    def test_x_is_centroid(self, locus):
        fx = TABLE1_FIXTURES["table1-t3o1"]
        c = build_constellation(fx.r, fx.g, fx.b, locus)
        assert c.x.x == pytest.approx(0.1839, abs=5e-4)
        assert c.x.y == pytest.approx(0.1200, abs=5e-4)

    def test_out_of_gamut_names_point(self, locus):
        with pytest.raises(OutOfGamutError, match="R"):
            build_constellation(
                ChromaticityPoint(0.9, 0.9),
                ChromaticityPoint(0.2, 0.4),
                FIXED_BLUE,
                locus,
            )


class TestValidate:
    def test_t3o1_inside_its_disk(self, locus):
        c = fixture_constellation("table1-t3o1", locus)
        target = blue_target_preset(3)
        assert xy_distance(c.x, target.center) == pytest.approx(0.0393, abs=1e-4)
        assert target.margin(c.x) == pytest.approx(0.00067, abs=1e-4)
        assert target.margin(c.x) >= 0.0
        assert all(locus.contains(p) for p in c.points().values())

    def test_x_at_center(self):
        c = build_constellation(FIXED_BLUE, FIXED_BLUE, FIXED_BLUE)
        target = BlueTarget(FIXED_BLUE, 0.05)
        assert target.margin(c.x) == pytest.approx(target.radius, abs=1e-12)

    def test_t1o1_marginally_outside(self, locus):
        c = fixture_constellation("table1-t1o1", locus)
        target = blue_target_preset(1)
        assert xy_distance(c.x, target.center) == pytest.approx(0.1086, abs=2e-4)
        assert target.margin(c.x) < 0.0
        assert target.margin(c.x) == pytest.approx(-0.0086, abs=2e-4)

    def test_never_raises_on_violation(self):
        c = build_constellation(
            ChromaticityPoint(0.6, 0.3), ChromaticityPoint(0.1, 0.6)
        )
        assert BlueTarget(ChromaticityPoint(0.15, 0.1), 0.01).margin(c.x) < 0.0

    def test_radius_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            BlueTarget(FIXED_BLUE, -0.1)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, 1e308])
    def test_radius_must_have_a_finite_square(self, radius):
        with pytest.raises(ValueError, match="target radius"):
            BlueTarget(FIXED_BLUE, radius)


class TestJsonRoundTrip:
    def test_bit_exact(self, tmp_path, locus):
        c = fixture_constellation("table1-t2o3", locus)
        doc = constellation_document(c, blue_target_preset(2), "test doc")
        path = tmp_path / "c.json"
        write_constellation_json(path, doc)
        back = read_constellation_json(path)
        assert back == doc
        rebuilt = document_to_constellation(back)
        assert rebuilt == c
        assert all(locus.contains(p) for p in rebuilt.points().values())

    def test_rewrite_is_byte_identical(self, tmp_path, locus):
        c = fixture_constellation("table1-t1o3", locus)
        doc = constellation_document(c, None, "p")
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_constellation_json(p1, doc)
        write_constellation_json(p2, doc)
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"points": {"R": [0.1, 0.2]}}))
        with pytest.raises(ValueError):
            read_constellation_json(path)

    @pytest.mark.parametrize(
        "target",
        [{"center": [0.15], "radius": 0.04}, {"center": [0.15, 0.1], "radius": -1},
         {"center": [0.15, 0.1]}, "x", {}],
        ids=["short-center", "negative-radius", "no-radius", "not-a-disk", "empty"],
    )
    def test_malformed_target(self, tmp_path, target):
        c = fixture_constellation("table1-t3o1", None)
        doc = {**constellation_document(c), "target": target}
        path = tmp_path / "bad-target.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="target"):
            read_constellation_json(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"points": {"R": [0.1,')
        with pytest.raises(ValueError):
            read_constellation_json(path)
