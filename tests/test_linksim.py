import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ucsk.channel import attenuation_coefficient, path_loss
from ucsk.colorimetry import ChromaticityPoint, centroid, photopic_efficacy
from ucsk.constellation import FIXED_BLUE, build_constellation
from ucsk.linksim import (
    BANDWIDTH_HZ,
    Curve,
    HypothesisSet,
    InfeasibleConstellationError,
    LinkConfig,
    NoiseLevelError,
    average_symbol_power,
    build_hypotheses,
    detect_ml,
    logsumexp,
    mutual_information,
    noise_sigma,
    ook_hypotheses,
    qfunc,
    rate_curve,
    read_curve_csv,
    ser_curves,
    simulate_ser,
    union_bound_from_hypotheses,
    union_bound_ser,
    write_curve_csv,
)
from ucsk.linksim import _uniform_blocks
from ucsk.optimizer import _GAMUT_MARGIN
from ucsk.presets import (
    DEFAULT_PRIMARY_CHROMATICITIES,
    DEFAULT_PRIMARY_WAVELENGTHS,
    TABLE1_FIXTURES,
    led_triangle_gamut,
)


@pytest.fixture(scope="module")
def renderable():
    """A constellation strictly inside the default LED triangle."""
    r = ChromaticityPoint(0.45, 0.30)
    g = ChromaticityPoint(0.30, 0.55)
    return build_constellation(r, g)


@pytest.fixture(scope="module")
def link10(water):
    return LinkConfig(water=water, distance_m=10.0)


def binary_set(d: float) -> HypothesisSet:
    return HypothesisSet(
        vectors=np.array([[0.0, 0.0, 0.0], [d, 0.0, 0.0]]),
        labels=("off", "on"),
        band_wavelengths_nm=(460.0, 550.0, 700.0),
        loss_factors=np.ones(3),
        fluxes_lm=np.zeros((2, 3)),
        optical_powers_w=np.zeros((2, 3)),
    )


def ser_alone(h: HypothesisSet, grid, n: int, seed: int) -> Curve:
    """The SER curve of one hypothesis set, simulated without a batch."""
    (curve,) = simulate_ser([h], grid, n, seed)
    return curve


def mi_alone(h: HypothesisSet, sigma: float, n: int, seed: int, stream: int = 0):
    """The mutual information of one hypothesis set, without a batch."""
    (mi,) = mutual_information([h], [sigma], n, seed, stream=stream)
    return mi


def nearest_neighbour_distance(h: HypothesisSet, i: int) -> float:
    d = np.linalg.norm(h.vectors - h.vectors[i], axis=1)
    return float(np.min(np.delete(d, i)))


class TestBuildHypotheses:
    def test_distance_zero_equals_transmit(self, water, renderable):
        cfg = LinkConfig(water=water, distance_m=0.0)
        h = build_hypotheses(renderable, cfg)
        assert np.all(h.loss_factors == 1.0)
        np.testing.assert_array_equal(h.vectors, h.transmit_vectors())

    def test_blue_symbol_uses_only_blue_led(self, water, renderable, link10):
        h = build_hypotheses(renderable, link10)
        i = h.labels.index("B")
        np.testing.assert_allclose(h.fluxes_lm[i, :2], 0.0, atol=1e-9)
        assert h.fluxes_lm[i, 2] == pytest.approx(12.0, rel=1e-9)
        # only the blue band carries power for that symbol
        np.testing.assert_allclose(h.vectors[i, :2], 0.0, atol=1e-12)
        assert h.vectors[i, 2] > 0

    def test_pipeline_composition_oracle(self, water, renderable, link10):
        """Recompute one symbol end to end from the independently tested
        pieces: flux solve, photopic conversion, Beer-Lambert loss."""
        from ucsk.colorimetry import solve_fluxes

        h = build_hypotheses(renderable, link10)
        i = h.labels.index("X")
        fluxes = solve_fluxes(DEFAULT_PRIMARY_CHROMATICITIES, renderable.x, 12.0)
        for k, wl in enumerate(DEFAULT_PRIMARY_WAVELENGTHS):
            power = 0.55 * fluxes[k] / (683.0 * photopic_efficacy(wl))
            loss = path_loss(attenuation_coefficient(water, wl), 10.0)
            assert h.vectors[i, k] == pytest.approx(0.85 * power * loss, rel=1e-12)

    def test_infeasible_point_raises(self, water, link10, locus):
        fx = TABLE1_FIXTURES["table1-t1o1"]
        c = build_constellation(fx.r, fx.g, fx.b, locus)
        with pytest.raises(InfeasibleConstellationError):
            build_hypotheses(c, link10)

    def test_designs_grazing_the_led_triangle_render(self, link10):
        # The optimizer accepts R and G up to _GAMUT_MARGIN outside the
        # gamut; every such point on the LED triangle must also render.
        triangle = led_triangle_gamut()
        inner = centroid(list(triangle.vertices))
        corners = np.array([v.as_array() for v in triangle.vertices])
        for a, b in zip(corners, np.roll(corners, -1, axis=0)):
            edge = b - a
            normal = np.array([edge[1], -edge[0]]) / np.linalg.norm(edge)
            if normal @ (inner.as_array() - a) > 0:
                normal = -normal
            for t in np.linspace(0.01, 0.99, 99):
                p = ChromaticityPoint(*(a + t * edge + _GAMUT_MARGIN * normal))
                assert triangle.signed_distance(p) == pytest.approx(_GAMUT_MARGIN)
                c = build_constellation(p, inner, FIXED_BLUE, triangle)
                build_hypotheses(c, link10)

    def test_symbol_order_matches_map(self, renderable, link10):
        # Symbol i carries the bits of i: 00->B, 01->G, 10->R, 11->X.
        h = build_hypotheses(renderable, link10)
        assert h.labels == ("B", "G", "R", "X")


class TestDetect:
    def test_exact_hypothesis(self, renderable, link10):
        h = build_hypotheses(renderable, link10)
        assert detect_ml(h.vectors[2][None], h)[0] == 2

    def test_tie_breaks_low_index(self):
        h = binary_set(1.0)
        midpoint = np.array([0.5, 0.0, 0.0])
        assert detect_ml(midpoint[None], h)[0] == 0

    def test_sub_half_distance_perturbation(self, renderable, link10):
        # Half of |G - X| is not enough to stay in G's decision cell: R is
        # G's nearest neighbour, so the bound is half of |G - R|.
        h = build_hypotheses(renderable, link10)
        toward = h.vectors[3] - h.vectors[1]
        toward /= np.linalg.norm(toward)
        received = h.vectors[1] + 0.49 * nearest_neighbour_distance(h, 1) * toward
        assert detect_ml(received[None], h)[0] == 1

    def test_past_half_distance_decodes_to_neighbour(self, renderable, link10):
        h = build_hypotheses(renderable, link10)
        d_nn = nearest_neighbour_distance(h, 1)
        assert np.linalg.norm(h.vectors[2] - h.vectors[1]) == pytest.approx(d_nn)
        toward = (h.vectors[2] - h.vectors[1]) / d_nn
        received = h.vectors[1] + 0.51 * d_nn * toward
        assert detect_ml(received[None], h)[0] == 2

    def test_sub_half_distance_every_hypothesis(self, renderable, link10):
        h = build_hypotheses(renderable, link10)
        rng = np.random.default_rng(20)
        for i in range(h.m):
            u = rng.standard_normal((5_000, h.bands))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            received = h.vectors[i] + 0.499 * nearest_neighbour_distance(h, i) * u
            np.testing.assert_array_equal(detect_ml(received, h), i)

    def test_batch_shape(self, renderable, link10):
        h = build_hypotheses(renderable, link10)
        out = detect_ml(h.vectors, h)
        np.testing.assert_array_equal(out, [0, 1, 2, 3])


class TestSimulateSer:
    def test_noiseless_limit(self, renderable, link10):
        h = build_hypotheses(renderable, link10)
        curve = ser_alone(h, [200.0], 20_000, seed=1)
        assert curve.values == (0.0,)

    def test_binary_awgn_oracle_quick(self):
        h = binary_set(1.0)
        curve = ser_alone(h, [-6.0, 0.0, 6.0], 200_000, seed=5)
        for snr, sim in zip(curve.snr_db, curve.values):
            sigma = noise_sigma(h.vectors, snr)
            theory = float(qfunc(1.0 / (2.0 * sigma)))
            se = math.sqrt(theory * (1 - theory) / 200_000)
            assert abs(sim - theory) <= 3 * se

    def test_deterministic_same_seed(self, renderable, link10):
        h = build_hypotheses(renderable, link10)
        a = ser_alone(h, [0.0, 10.0], 30_000, seed=9)
        b = ser_alone(h, [0.0, 10.0], 30_000, seed=9)
        assert a == b
        c = ser_alone(h, [0.0, 10.0], 30_000, seed=10)
        assert a != c

    def test_monotone_in_snr(self, renderable, link10):
        h = build_hypotheses(renderable, link10)
        curve = ser_alone(h, list(range(0, 31, 5)), 50_000, 3)
        for a, b in zip(curve.values, curve.values[1:]):
            se = math.sqrt(max(a * (1 - a), 1e-12) / 50_000)
            assert b <= a + 3 * se

    def test_grid_validation(self, renderable, link10):
        h = build_hypotheses(renderable, link10)
        with pytest.raises(ValueError):
            simulate_ser([h], [], 20_000, 0)
        with pytest.raises(ValueError):
            simulate_ser([h], [10.0, 5.0], 20_000, 0)


class TestUnionBound:
    def test_vanishes_without_noise(self, renderable, link10):
        (bound,) = union_bound_ser(build_hypotheses(renderable, link10), [200.0])
        assert bound == pytest.approx(0.0, abs=1e-12)

    def test_coincident_pair_floor(self):
        h = HypothesisSet(
            vectors=np.array([[0.1, 0, 0], [0.1, 0, 0], [0.5, 0, 0], [0, 0.4, 0]]),
            labels=("a", "b", "c", "d"),
            band_wavelengths_nm=(460.0, 550.0, 700.0),
            loss_factors=np.ones(3),
            fluxes_lm=np.zeros((4, 3)),
            optical_powers_w=np.zeros((4, 3)),
        )
        assert union_bound_from_hypotheses(h, 0.01) >= 0.25

    def test_bounds_simulation(self, renderable, link10):
        grid = [6.0, 12.0, 18.0]
        h = build_hypotheses(renderable, link10)
        curve = ser_alone(h, grid, 100_000, seed=4)
        bounds = union_bound_ser(h, grid)
        for sim, ub in zip(curve.values, bounds):
            se = math.sqrt(max(sim * (1 - sim), 1e-12) / 100_000)
            assert sim <= ub + 3 * se


class TestMutualInformation:
    def test_noiseless_limit_reaches_two_bits(self, renderable, link10):
        h = build_hypotheses(renderable, link10)
        mi = mi_alone(h, 1e-6, 20_000, seed=0)
        assert mi == pytest.approx(2.0, abs=1e-6)

    def test_heavy_noise_kills_information(self, renderable, link10):
        h = build_hypotheses(renderable, link10)
        mi = mi_alone(h, 1e3, 50_000, seed=0)
        assert mi <= 0.01

    def test_monotone_in_sigma(self, renderable, link10):
        h = build_hypotheses(renderable, link10)
        scale = math.sqrt(average_symbol_power(h.vectors))
        sigmas = [0.03 * scale, 0.3 * scale, 3.0 * scale]
        mis = [mi_alone(h, s, 50_000, seed=8) for s in sigmas]
        assert mis[0] >= mis[1] >= mis[2]

    def test_self_consistency_across_seeds(self):
        h = binary_set(1.0)
        sigma = 0.4
        est = mi_alone(h, sigma, 20_000, seed=1)
        reps = [mi_alone(h, sigma, 20_000, seed=50 + i) for i in range(6)]
        se = float(np.std(reps, ddof=1))
        big = mi_alone(h, sigma, 200_000, seed=2)
        assert abs(est - big) <= 3 * se

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            mi_alone(binary_set(1.0), 0.0, 10_000, 0)


class TestNoiseSigma:
    def test_subnormal_variance_is_rejected(self):
        # At 3080 dB sigma is about 4e-155, finite and > 0, but 2 sigma**2
        # is subnormal and the log-likelihood weight 1 / (2 sigma**2)
        # overflows.  Twenty dB lower every quantity is a normal float.
        h = binary_set(1.0)
        with pytest.raises(NoiseLevelError, match="at 3080.0 dB"):
            noise_sigma(h.vectors, 3080.0)
        sigma = noise_sigma(h.vectors, 3060.0)
        assert sigma == math.sqrt(average_symbol_power(h.vectors) / 1e306)

    def test_silent_set_is_rejected(self):
        with pytest.raises(NoiseLevelError):
            noise_sigma(np.zeros((2, 3)), 10.0)

    def test_vanishing_snr_ratio_is_rejected(self):
        # 10 ** (-330) rounds to 0, so sigma would be a division by zero.
        with pytest.raises(NoiseLevelError, match="at -3300.0 dB"):
            noise_sigma(np.ones((2, 3)), -3300.0)

    def test_overflowing_snr_ratio_is_rejected(self):
        with pytest.raises(NoiseLevelError, match="at 4000.0 dB"):
            noise_sigma(np.ones((2, 3)), 4000.0)

    def test_given_sigma_with_overflowing_weight_is_rejected(self):
        # sigma = 1e-160 is > 0, but 2 sigma**2 underflows to 0.
        with pytest.raises(NoiseLevelError, match="mutual information"):
            mi_alone(binary_set(1.0), 1e-160, 1000, 0)


class TestSerCurves:
    def test_curve_and_bound_match_their_engines(self, renderable, link10):
        grid = [6.0, 12.0]
        h = build_hypotheses(renderable, link10)
        ((curve, bound),) = ser_curves([h], grid, 20_000, 4, ["ab"])
        sim = ser_alone(h, grid, 20_000, 4)
        assert (curve.snr_db, curve.values) == (sim.snr_db, sim.values)
        assert bound.values == union_bound_ser(h, grid)
        assert bound.snr_db == curve.snr_db
        for c in (curve, bound):
            assert (c.seed, c.n, c.config_sha) == (4, 20_000, "ab")


class TestRates:
    def test_rate_is_bandwidth_times_mi(self, renderable, link10):
        h = build_hypotheses(renderable, link10)
        (curve,) = rate_curve([h], [10.0, 200.0], 20_000, 0, ["ff"])
        assert curve.snr_db == (10.0, 200.0)
        assert (curve.seed, curve.n, curve.config_sha) == (0, 20_000, "ff")
        for i, snr in enumerate(curve.snr_db):
            sigma = noise_sigma(h.transmit_vectors(), snr)
            mi = mi_alone(h, sigma, 20_000, 0, stream=i)
            assert curve.values[i] == BANDWIDTH_HZ * mi
        assert curve.values[1] == pytest.approx(2 * BANDWIDTH_HZ, rel=1e-5)

    def test_ook_off_symbol_and_cap(self, water):
        cfg = LinkConfig(water=water, distance_m=10.0)
        h = ook_hypotheses(460.0, cfg)
        assert h.vectors[0, 0] == 0.0
        assert h.m == 2 and h.bands == 1
        (curve,) = rate_curve([h], [60.0], 20_000, 0)
        (rate,) = curve.values
        assert rate <= BANDWIDTH_HZ + 1e-6


@pytest.fixture(scope="module")
def mixed_batch(water, renderable):
    """UCSK (4 symbols, 3 bands) and OOK (2 symbols, 1 band) sets."""
    near = LinkConfig(water=water, distance_m=10.0)
    far = LinkConfig(water=water, distance_m=50.0)
    return [
        ook_hypotheses(460.0, near),
        build_hypotheses(renderable, near),
        ook_hypotheses(550.0, far),
        build_hypotheses(renderable, far),
    ]


class TestBatch:
    """A curve simulated in a batch equals the curve simulated alone, bit
    for bit: the batch shares draws, never changes them."""

    # Three chunks, the last one partial.
    N = 150_000

    @pytest.mark.parametrize("seed", [1, 2])
    def test_ser_batch_equals_each_curve_alone(self, mixed_batch, seed):
        grid = [0.0, 9.0, 18.0]
        batch = simulate_ser(mixed_batch, grid, self.N, seed=seed)
        assert batch == tuple(ser_alone(h, grid, self.N, seed) for h in mixed_batch)
        assert simulate_ser(mixed_batch[::-1], grid, self.N, seed) == batch[::-1]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_mi_batch_equals_each_alone(self, mixed_batch, seed):
        sigmas = [noise_sigma(h.transmit_vectors(), 6.0) for h in mixed_batch]
        batch = mutual_information(mixed_batch, sigmas, self.N, seed, stream=2)
        alone = tuple(
            mi_alone(h, s, self.N, seed, stream=2)
            for h, s in zip(mixed_batch, sigmas)
        )
        assert batch == alone
        assert 0.0 < min(batch) and max(batch) < 2.0

    def test_rate_batch_equals_each_curve_alone(self, mixed_batch):
        grid = [0.0, 15.0]
        batch = rate_curve(mixed_batch, grid, 20_000, 5, ["a", "b", "c", "d"])
        for h, sha, curve in zip(mixed_batch, "abcd", batch):
            assert rate_curve([h], grid, 20_000, 5, [sha]) == (curve,)

    def test_batch_validation(self, mixed_batch):
        with pytest.raises(ValueError):
            simulate_ser([], [0.0], 20_000, 0)
        with pytest.raises(ValueError):
            mutual_information(mixed_batch, [1e-3], 20_000, 0)
        with pytest.raises(ValueError):
            rate_curve(mixed_batch, [0.0], 20_000, 0, ["a"])
        four_bands = HypothesisSet(
            vectors=np.eye(4),
            labels=("a", "b", "c", "d"),
            band_wavelengths_nm=(460.0, 500.0, 550.0, 700.0),
            loss_factors=np.ones(4),
            fluxes_lm=np.zeros((4, 3)),
            optical_powers_w=np.zeros((4, 3)),
        )
        with pytest.raises(ValueError):
            simulate_ser([four_bands], [0.0], 20_000, 0)


class TestUniformBlocks:
    @pytest.mark.parametrize(
        "start,count", [(0, 65_536), (65_536, 65_536), (131_072, 18_928), (5, 7)]
    )
    def test_equals_raw_word_formula(self, start, count):
        """Full and partial chunks equal 53 high bits of each raw Philox
        word times 2**-53, plus 2**-54."""
        key = np.array([4242, 3], dtype=np.uint64)
        raw = np.random.Philox(key=key, counter=start).random_raw(4 * count)
        expected = (raw.reshape(count, 4) >> np.uint64(11)) * 2.0**-53 + 2.0**-54
        assert _uniform_blocks(4242, 3, start, count).tobytes() == expected.tobytes()


@st.composite
def tied_rows(draw):
    """A finite 2-D array in which some entries repeat their row maximum."""
    shape = draw(st.tuples(st.integers(1, 40), st.integers(1, 6)))
    a = draw(
        hnp.arrays(
            np.float64,
            shape,
            elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        )
    )
    ties = draw(hnp.arrays(np.bool_, shape))
    return np.where(ties, a.max(axis=1, keepdims=True), a)


class TestLogsumexp:
    @given(tied_rows())
    @settings(deadline=None)
    def test_matches_scipy_bitwise(self, a):
        expected = scipy.special.logsumexp(a, axis=1)
        assert logsumexp(a).tobytes() == expected.tobytes()

    def test_matches_scipy_on_mi_log_likelihoods(self, renderable, link10):
        h = build_hypotheses(renderable, link10)
        rng = np.random.default_rng(11)
        received = h.vectors[rng.integers(0, h.m, 5_000)] + rng.normal(
            0, 0.02, (5_000, h.bands)
        )
        delta = received[:, None, :] - h.vectors[None, :, :]
        ll = -np.einsum("nmk,nmk->nm", delta, delta) / (2 * 0.02**2)
        expected = scipy.special.logsumexp(ll, axis=1)
        assert logsumexp(ll).tobytes() == expected.tobytes()

    def test_non_finite_rows_match_scipy(self):
        inf, nan = np.inf, np.nan
        a = np.array(
            [[-inf, -inf, -inf], [inf, 0.0, 1.0], [nan, 0.0, 1.0], [-inf, 0.0, 0.0],
             [800.0, 800.0, -inf]]
        )
        np.testing.assert_array_equal(
            logsumexp(a), scipy.special.logsumexp(a, axis=1)
        )


class TestCurveCsv:
    def test_round_trip(self, tmp_path):
        curve = Curve((0.0, 3.0), (0.25, 0.125), seed=7, n=1000, config_sha="ff")
        path = tmp_path / "curve.csv"
        write_curve_csv(path, curve)
        assert read_curve_csv(path) == curve

    def test_full_precision_values(self, tmp_path):
        value = 1 / 3 + 1e-12
        curve = Curve((0.0,), (value,), seed=0, n=10)
        path = tmp_path / "c.csv"
        write_curve_csv(path, curve)
        assert read_curve_csv(path).values[0] == value

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# seed=0\n0.0,0.1\n")
        with pytest.raises(ValueError):
            read_curve_csv(path)
