import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucsk.channel import (
    TableError,
    WaterProperties,
    WavelengthRangeError,
    attenuation_coefficient,
    load_water_csv,
    path_loss,
    seawater,
)

import numpy as np


class TestAttenuation:
    def test_red_knot(self, water):
        assert attenuation_coefficient(water, 700.0) == pytest.approx(
            0.650 + 0.0007, rel=1e-12
        )

    def test_blue_knot(self, water):
        assert attenuation_coefficient(water, 460.0) == pytest.approx(
            0.0156 + 0.004, rel=1e-12
        )

    def test_green_knot(self, water):
        assert attenuation_coefficient(water, 550.0) == pytest.approx(
            0.0638 + 0.0019, rel=1e-12
        )

    def test_zero_coefficients(self):
        w = WaterProperties(
            np.array([400.0, 500.0]), np.zeros(2), np.zeros(2), "null"
        )
        assert attenuation_coefficient(w, 450.0) == 0.0

    def test_out_of_range(self, water):
        with pytest.raises(WavelengthRangeError):
            attenuation_coefficient(water, 400.0)
        with pytest.raises(WavelengthRangeError):
            attenuation_coefficient(water, 750.0)


class TestPathLoss:
    def test_zero_distance(self):
        assert path_loss(12.3, 0.0) == 1.0

    def test_blue_50m(self):
        # exp(-0.98) from the seawater blue attenuation over 50 m
        assert path_loss(0.0196, 50.0) == pytest.approx(0.3753, abs=1e-4)

    def test_red_10m(self):
        assert path_loss(0.6507, 10.0) == pytest.approx(1.496e-3, rel=1e-2)

    def test_negative_inputs(self):
        with pytest.raises(ValueError):
            path_loss(-0.1, 1.0)
        with pytest.raises(ValueError):
            path_loss(0.1, -1.0)

    @given(
        st.floats(0.0, 2.0),
        st.floats(0.0, 50.0),
        st.floats(0.0, 50.0),
    )
    @settings(deadline=None)
    def test_exponential_composition(self, c, d1, d2):
        assert path_loss(c, d1 + d2) == pytest.approx(
            path_loss(c, d1) * path_loss(c, d2), rel=1e-9
        )

    def test_result_record(self, water):
        attenuation = attenuation_coefficient(water, 460.0)
        assert attenuation == pytest.approx(0.0196, rel=1e-12)
        loss = path_loss(attenuation, 50.0)
        assert loss == pytest.approx(math.exp(-0.98), rel=1e-12)

    def test_blue_loses_least_at_every_distance(self, water):
        c = {wl: attenuation_coefficient(water, wl) for wl in (460.0, 550.0, 700.0)}
        for d in (0.1, 1.0, 5.0, 10.0, 50.0, 100.0):
            blue = path_loss(c[460.0], d)
            green = path_loss(c[550.0], d)
            red = path_loss(c[700.0], d)
            assert blue > green > red


class TestLoadWaterCsv:
    def test_seawater_preset(self, water):
        assert water.name == "seawater"
        assert list(water.wavelength_nm) == [460.0, 550.0, 700.0]
        assert attenuation_coefficient(water, 550.0) == pytest.approx(0.0657)

    def test_shuffled_rows_sorted(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(
            "wavelength_nm,a_per_m,b_per_m\n"
            "700,0.650,0.0007\n460,0.0156,0.004\n550,0.0638,0.0019\n"
        )
        w = load_water_csv(path)
        assert list(w.wavelength_nm) == [460.0, 550.0, 700.0]
        assert attenuation_coefficient(w, 550.0) == pytest.approx(0.0657)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("wl,a,b\n460,0.1,0.1\n")
        with pytest.raises(TableError, match=":1"):
            load_water_csv(path)

    def test_non_numeric_cell_line_number(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("wavelength_nm,a_per_m,b_per_m\n460,0.1,0.1\n550,oops,0.1\n")
        with pytest.raises(TableError, match=":3"):
            load_water_csv(path)

    @pytest.mark.parametrize(
        "row",
        ["nan,0.1,0.1", "inf,0.1,0.1", "550,nan,0.1", "550,inf,0.1",
         "550,0.1,inf", "550,0.1,nan"],
    )
    def test_non_finite_cell_line_number(self, tmp_path, row):
        path = tmp_path / "w.csv"
        path.write_text(f"wavelength_nm,a_per_m,b_per_m\n460,0.1,0.1\n{row}\n")
        with pytest.raises(TableError, match=":3: non-finite cell"):
            load_water_csv(path)

    def test_nan_wavelength_between_sorted_rows(self, tmp_path):
        # A nan between increasing wavelengths fails no ordering or
        # duplicate comparison, so only the finite check can catch it.
        path = tmp_path / "w.csv"
        path.write_text(
            "wavelength_nm,a_per_m,b_per_m\n460,0.1,0\nnan,0.1,0\n700,0.1,0\n"
        )
        with pytest.raises(TableError, match=":3: non-finite cell"):
            load_water_csv(path)

    def test_duplicate_wavelength(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(
            "wavelength_nm,a_per_m,b_per_m\n460,0.1,0.1\n460,0.2,0.1\n"
        )
        with pytest.raises(TableError, match="duplicate"):
            load_water_csv(path)

    def test_non_positive_wavelength(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("wavelength_nm,a_per_m,b_per_m\n0,0.1,0.1\n")
        with pytest.raises(TableError, match=":2"):
            load_water_csv(path)

    def test_negative_coefficient(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("wavelength_nm,a_per_m,b_per_m\n460,-0.1,0.1\n")
        with pytest.raises(TableError, match=":2"):
            load_water_csv(path)

    def test_empty_data(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("wavelength_nm,a_per_m,b_per_m\n")
        with pytest.raises(TableError, match="no data"):
            load_water_csv(path)
