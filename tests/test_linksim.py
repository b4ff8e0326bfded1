import math
import re

import numpy as np
import pytest
import scipy.special
from numpy.polynomial.hermite_e import hermegauss

from ucsk import cli, linksim
from ucsk.channel import attenuation_coefficient, path_loss
from ucsk.colorimetry import (
    ChromaticityPoint,
    centroid,
    photopic_efficacy,
    solve_fluxes,
)
from ucsk.constellation import FIXED_BLUE, SYMBOL_LABELS, build_constellation
from ucsk.linksim import (
    BANDWIDTH_HZ,
    Curve,
    HypothesisSet,
    InfeasibleConstellationError,
    LinkConfig,
    NoiseLevelError,
    build_hypotheses,
    detect_ml,
    GH_ORDER,
    QUADRATURE_RULE,
    mutual_information,
    noise_sigma,
    ook_hypotheses,
    quadrature_information,
    quadrature_rate_curve,
    rate_curve,
    ser_curves,
    simulate_ser,
    union_bound_ser,
)
from ucsk.linksim import (
    _CHUNK,
    _bits,
    _hermite_rule,
    _map_shared_draws,
    _rule_information,
    _symbol_errors,
    _tensor_rule,
    _uniform_blocks,
)
from ucsk.optimizer import _GAMUT_MARGIN, OptimizerConfig, design_constellation
from ucsk.presets import (
    DEFAULT_PRIMARY_CHROMATICITIES,
    DEFAULT_PRIMARY_WAVELENGTHS,
    TABLE1_FIXTURES,
    blue_target_preset,
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
    return HypothesisSet(np.array([[0.0, 0.0, 0.0], [d, 0.0, 0.0]]), np.ones(3))


def average_power(vectors: np.ndarray) -> float:
    """P_avg = sum of squared amplitudes over 3M, written out element by
    element."""
    total = sum(float(a) * float(a) for row in vectors for a in row)
    return total / (3.0 * len(vectors))


def gaussian_tail(x: float) -> float:
    """Q(x), the standard Gaussian tail probability."""
    return 0.5 * float(scipy.special.erfc(x / math.sqrt(2.0)))


def ser_alone(h: HypothesisSet, grid, n: int, seed: int) -> Curve:
    """The SER curve of one hypothesis set, simulated without a batch."""
    (curve,) = simulate_ser([h], grid, n, seed)
    return curve


def mi_alone(h: HypothesisSet, sigma: float, n: int, seed: int):
    """The mutual information of one hypothesis set at one noise level,
    without a batch or a grid."""
    ((mi,),) = mutual_information([h], [[sigma]], n, seed)
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
        i = SYMBOL_LABELS.index("B")
        # The whole 12 lm goes to the blue LED.
        transmit = h.transmit_vectors()[i]
        np.testing.assert_allclose(transmit[:2], 0.0, atol=1e-12)
        full = 0.85 * 0.55 * 12.0 / (683.0 * photopic_efficacy(460.0))
        assert transmit[2] == pytest.approx(full, rel=1e-9)
        # only the blue band carries power for that symbol
        np.testing.assert_allclose(h.vectors[i, :2], 0.0, atol=1e-12)
        assert h.vectors[i, 2] > 0

    def test_pipeline_composition_oracle(self, water, renderable, link10):
        """Recompute every symbol end to end, in SYMBOL_LABELS order
        (00->B, 01->G, 10->R, 11->X), from the independently tested
        pieces: flux solve, photopic conversion, Beer-Lambert loss."""
        h = build_hypotheses(renderable, link10)
        assert h.m == len(SYMBOL_LABELS) == 4
        for i, label in enumerate(SYMBOL_LABELS):
            point = renderable.points()[label]
            fluxes = solve_fluxes(DEFAULT_PRIMARY_CHROMATICITIES, point, 12.0)
            for k, wl in enumerate(DEFAULT_PRIMARY_WAVELENGTHS):
                power = 0.55 * fluxes[k] / (683.0 * photopic_efficacy(wl))
                loss = path_loss(attenuation_coefficient(water, wl), 10.0)
                expected = 0.85 * power * loss
                assert h.vectors[i, k] == pytest.approx(expected, rel=1e-12, abs=1e-15)

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
                assert triangle.nearest_boundary(p) == pytest.approx(_GAMUT_MARGIN)
                c = build_constellation(p, inner, FIXED_BLUE, triangle)
                build_hypotheses(c, link10)

    def test_symbol_order_matches_map(self, renderable, link10):
        # Symbol i carries the bits of i: 00->B, 01->G, 10->R, 11->X.
        assert SYMBOL_LABELS == ("B", "G", "R", "X")
        # Bands follow the red, green, blue LEDs; each primary-leaning
        # symbol drives its own LED hardest.
        transmit = build_hypotheses(renderable, link10).transmit_vectors()
        assert list(np.argmax(transmit, axis=0)) == [2, 1, 0]


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

    def test_result_outlives_the_next_call(self, renderable, link10):
        # The Monte Carlo reuses its buffers; a caller's result must not.
        h = build_hypotheses(renderable, link10)
        first = detect_ml(h.vectors, h)
        detect_ml(h.vectors[::-1].copy(), h)
        np.testing.assert_array_equal(first, [0, 1, 2, 3])


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
            theory = gaussian_tail(1.0 / (2.0 * sigma))
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
        # Two coincident symbols add Q(0) = 1/2 each way: a floor of
        # (1/2 + 1/2) / M = 1/4 at every SNR.
        h = HypothesisSet(
            np.array([[0.1, 0, 0], [0.1, 0, 0], [0.5, 0, 0], [0, 0.4, 0]]), np.ones(3)
        )
        for bound in union_bound_ser(h, [0.0, 40.0, 200.0]):
            assert bound >= 0.25

    def test_matches_pairwise_q_sum(self, renderable, link10):
        h = build_hypotheses(renderable, link10)
        grid = [0.0, 12.0, 24.0]
        for snr, bound in zip(grid, union_bound_ser(h, grid)):
            sigma = noise_sigma(h.vectors, snr)
            expected = sum(
                gaussian_tail(float(np.linalg.norm(h.vectors[i] - h.vectors[j]))
                              / (2.0 * sigma))
                for i in range(h.m) for j in range(h.m) if i != j
            ) / h.m
            assert bound == pytest.approx(expected, rel=1e-12)

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
        scale = math.sqrt(average_power(h.vectors))
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

    def test_empty_sigma_grid_rejected_before_any_draw(self, monkeypatch):
        # As simulate_ser does: no grid point, no draws.
        def no_draws(*args):
            raise AssertionError("drew noise for an empty grid")

        monkeypatch.setattr(linksim, "_map_shared_draws", no_draws)
        with pytest.raises(ValueError, match="empty SNR grid"):
            mutual_information([binary_set(1.0)], [], 1_000_000, 0)


class TestNoiseSigma:
    def test_subnormal_variance_is_rejected(self):
        # At 3080 dB sigma is about 4e-155, finite and > 0, but 2 sigma**2
        # is subnormal and the log-likelihood weight 1 / (2 sigma**2)
        # overflows.  Twenty dB lower every quantity is a normal float.
        h = binary_set(1.0)
        with pytest.raises(NoiseLevelError, match="at 3080.0 dB"):
            noise_sigma(h.vectors, 3080.0)
        sigma = noise_sigma(h.vectors, 3060.0)
        assert sigma == math.sqrt(average_power(h.vectors) / 1e306)

    def test_average_power_is_sum_of_squares_over_3m(self, renderable, link10):
        # OOK has one band, yet its power is still averaged over three.
        for h in (build_hypotheses(renderable, link10), ook_hypotheses(460.0, link10)):
            for snr in (-10.0, 0.0, 17.0):
                expected = math.sqrt(average_power(h.vectors) / 10.0 ** (snr / 10.0))
                assert noise_sigma(h.vectors, snr) == pytest.approx(expected, rel=1e-14)

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
        ((curve, bound),) = ser_curves([h], grid, 20_000, 4)
        assert curve == ser_alone(h, grid, 20_000, 4)
        assert bound.values == union_bound_ser(h, grid)
        assert bound.snr_db == curve.snr_db
        assert (bound.seed, bound.n) == (4, 20_000)

    def test_one_pass_grid(self, renderable, link10):
        # A generator is read once: the bound covers the same points as
        # the simulated curve.
        h = build_hypotheses(renderable, link10)
        ((curve, bound),) = ser_curves([h], (s for s in [0.0, 5.0]), 20_000, 4)
        assert curve.snr_db == bound.snr_db == (0.0, 5.0)
        assert bound.values == union_bound_ser(h, [0.0, 5.0])


class TestRates:
    def test_rate_is_bandwidth_times_mi(self, renderable, link10):
        # Every point reads the same draws: point i is the mutual
        # information at its own sigma alone, whatever its index.
        h = build_hypotheses(renderable, link10)
        (curve,) = rate_curve([h], [10.0, 20.0, 200.0], 20_000, 0)
        assert curve.snr_db == (10.0, 20.0, 200.0)
        assert (curve.seed, curve.n) == (0, 20_000)
        for i, snr in enumerate(curve.snr_db):
            sigma = noise_sigma(h.transmit_vectors(), snr)
            mi = mi_alone(h, sigma, 20_000, 0)
            assert curve.values[i] == BANDWIDTH_HZ * mi
        assert curve.values[0] < curve.values[1] < 2 * BANDWIDTH_HZ
        assert curve.values[2] == pytest.approx(2 * BANDWIDTH_HZ, rel=1e-5)

    def test_ook_off_symbol_and_cap(self, water):
        cfg = LinkConfig(water=water, distance_m=10.0)
        h = ook_hypotheses(460.0, cfg)
        assert h.vectors[0, 0] == 0.0
        assert h.m == 2 and h.bands == 1
        (curve,) = rate_curve([h], [60.0], 20_000, 0)
        (rate,) = curve.values
        assert rate <= BANDWIDTH_HZ + 1e-6

    def test_empty_grid_rejected(self, mixed_batch):
        with pytest.raises(ValueError, match="empty SNR grid"):
            rate_curve(mixed_batch[:2], [], 20_000, 0)

    def test_decreasing_grid_rejected(self, renderable, link10):
        h = build_hypotheses(renderable, link10)
        with pytest.raises(ValueError, match="strictly increasing"):
            rate_curve([h], [10.0, 5.0], 20_000, 0)


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
        (batch,) = mutual_information(mixed_batch, [sigmas], self.N, seed)
        alone = tuple(
            mi_alone(h, s, self.N, seed) for h, s in zip(mixed_batch, sigmas)
        )
        assert batch == alone
        assert 0.0 < min(batch) and max(batch) < 2.0

    def test_rate_batch_equals_each_curve_alone(self, mixed_batch):
        grid = [0.0, 15.0]
        batch = rate_curve(mixed_batch, grid, 20_000, 5)
        for h, curve in zip(mixed_batch, batch):
            assert rate_curve([h], grid, 20_000, 5) == (curve,)

    def test_mixed_alphabets_and_bands_batch_equals_each_alone(self):
        # Two to six symbols on one to three bands, two sets of six: the
        # batch's scratch is sized for five other hypotheses and three
        # bands, more than a set of fewer symbols or bands fills.
        rng = np.random.default_rng(29)
        batch = [
            HypothesisSet(rng.uniform(0.0, 1e-3, (m, k)), np.ones(k))
            for m, k in ((2, 1), (3, 2), (4, 3), (5, 1), (6, 3), (6, 2))
        ]
        grid = [0.0, 9.0, 18.0]
        sigmas = [noise_sigma(h.transmit_vectors(), 6.0) for h in batch]
        alone_ser = tuple(ser_alone(h, grid, self.N, 3) for h in batch)
        alone_mi = tuple(mi_alone(h, s, self.N, 3) for h, s in zip(batch, sigmas))
        assert simulate_ser(batch, grid, self.N, 3) == alone_ser
        (batch_mi,) = mutual_information(batch, [sigmas], self.N, 3)
        assert batch_mi == alone_mi

    def test_rising_alphabet_batch_equals_each_alone(self):
        # OOK (two symbols, one band) before a four-symbol set on three
        # bands: the first set's blocks take the scratch before the
        # larger set does.
        rng = np.random.default_rng(31)
        batch = [
            HypothesisSet(rng.uniform(0.0, 1e-3, (m, k)), np.ones(k))
            for m, k in ((2, 1), (4, 3))
        ]
        grid = [0.0, 9.0, 18.0]
        sigmas = [noise_sigma(h.transmit_vectors(), 6.0) for h in batch]
        alone_ser = tuple(ser_alone(h, grid, self.N, 3) for h in batch)
        alone_mi = tuple(mi_alone(h, s, self.N, 3) for h, s in zip(batch, sigmas))
        assert simulate_ser(batch, grid, self.N, 3) == alone_ser
        (batch_mi,) = mutual_information(batch, [sigmas], self.N, 3)
        assert batch_mi == alone_mi

    def test_batch_validation(self, mixed_batch):
        with pytest.raises(ValueError):
            simulate_ser([], [0.0], 20_000, 0)
        with pytest.raises(ValueError):
            mutual_information(mixed_batch, [[1e-3]], 20_000, 0)
        four_bands = HypothesisSet(np.eye(4), np.ones(4))
        with pytest.raises(ValueError):
            simulate_ser([four_bands], [0.0], 20_000, 0)
        one_symbol = HypothesisSet(np.ones((1, 3)), np.ones(3))
        with pytest.raises(ValueError, match="at least 2 symbols"):
            simulate_ser([one_symbol], [0.0], 20_000, 0)


@pytest.fixture(scope="module")
def reproduce_sets(water):
    """The ``reproduce`` hypothesis sets at 10 m: the three LED-triangle
    designs at seed 2024, then OOK per color, then OOK blue at 50 m."""
    near = LinkConfig(water=water, distance_m=10.0)
    cfg = OptimizerConfig(rng_seed=2024)
    sets = [
        build_hypotheses(
            design_constellation(
                blue_target_preset(t), cfg, led_triangle_gamut()
            ).constellation,
            near,
        )
        for t in (1, 2, 3)
    ]
    sets += [ook_hypotheses(wl, near) for wl in DEFAULT_PRIMARY_WAVELENGTHS]
    sets.append(ook_hypotheses(460.0, LinkConfig(water=water, distance_m=50.0)))
    return sets


def min_distance_oracle(received: np.ndarray, h: HypothesisSet) -> np.ndarray:
    """Detection by the argmin of the squared distances |r - v_m|**2."""
    delta = received[:, None, :] - h.vectors[None, :, :]
    return np.argmin(np.einsum("nmk,nmk->nm", delta, delta), axis=1)


def delta_form_information(h: HypothesisSet, sigma: float, n: int, seed: int) -> float:
    """Mutual information over the (seed, 0) draws of
    ``mutual_information``, from the (n, M, K) differences and full
    log-likelihoods -|y - v_m|**2 / (2 sigma**2) with scipy's logsumexp."""
    sums = []
    for a in range(0, n, _CHUNK):
        u = _uniform_blocks(seed, a, out=np.empty((min(_CHUNK, n - a), 4)))
        symbols = np.minimum((u[:, 0] * h.m).astype(np.int64), h.m - 1)
        noise = scipy.special.ndtri(u[:, 1 : 1 + h.bands])
        received = h.vectors[symbols] + noise * sigma
        delta = received[:, None, :] - h.vectors[None, :, :]
        ll = -np.einsum("nmk,nmk->nm", delta, delta) / (2.0 * sigma * sigma)
        own = ll[np.arange(len(symbols)), symbols]
        lse = scipy.special.logsumexp(ll, axis=1)
        sums.append(float(np.sum(math.log2(h.m) + (own - lse) / math.log(2.0))))
    return min(max(math.fsum(sums) / n, 0.0), math.log2(h.m))


class TestKernelOracles:
    """The linear-discriminant kernels agree with the distance forms they
    replace, on the link budgets that ``reproduce`` simulates."""

    @pytest.mark.parametrize("snr_db", [0.0, 15.0, 30.0])
    def test_detect_matches_min_distance(self, reproduce_sets, snr_db):
        # The three designs and OOK blue at 10 m.
        for k, h in enumerate(reproduce_sets[:3] + reproduce_sets[5:6]):
            rng = np.random.default_rng([k, int(snr_db)])
            symbols = rng.integers(0, h.m, 50_000)
            noise = rng.standard_normal((symbols.size, h.bands))
            received = h.vectors[symbols] + noise * noise_sigma(h.vectors, snr_db)
            expected = min_distance_oracle(received, h)
            np.testing.assert_array_equal(detect_ml(received, h), expected)
            fortran = np.asfortranarray(received)
            np.testing.assert_array_equal(detect_ml(fortran, h), expected)

    @pytest.mark.parametrize("seed, snr_db", [(0, 0.0), (5, 15.0), (10, 30.0),
                                              (15, 45.0)])
    def test_mi_matches_delta_form(self, reproduce_sets, seed, snr_db):
        # Two chunks, the second one partial.
        n = 70_000
        sigmas = [noise_sigma(h.transmit_vectors(), snr_db) for h in reproduce_sets]
        (got,) = mutual_information(reproduce_sets, [sigmas], n, seed)
        for h, sigma, mi in zip(reproduce_sets, sigmas, got):
            expected = delta_form_information(h, sigma, n, seed)
            assert mi == pytest.approx(expected, rel=1e-12, abs=0.0)


def unclipped_information(sigmas, s, a, b, gaps) -> list[tuple[float, bool]]:
    """``_information`` without its floor on the log-likelihood gaps, and
    per sigma whether a gap fell below that floor; it leaves ``gaps``
    unused."""
    out = []
    for sigma in sigmas:
        t = 1.0 / sigma
        d = (a - b * t) * t
        loss = np.log1p(np.exp(d).sum(axis=0))
        out.append((float(loss.sum()), bool(np.any(d < -700.0))))
    return out


def near_pair(separation: float) -> HypothesisSet:
    """Two three-band hypotheses ``separation`` apart in the first band."""
    a = np.array([1e-3, 2e-3, 5e-4])
    return HypothesisSet(np.array([a, a + [separation, 0.0, 0.0]]), np.ones(3))


class TestInformationRange:
    """The referenced MI kernel stays finite without a row maximum or a
    non-finite fallback; pytest turns any overflow or invalid-value
    RuntimeWarning into a failure."""

    @pytest.mark.parametrize("snr_db", [-300.0, 0.0, 45.0, 300.0])
    def test_finite_and_in_range(self, reproduce_sets, snr_db):
        # At 300 dB the gaps of the pair 1e-12 apart are near -3e11, far
        # below the kernel's floor of -700.
        hs = [*reproduce_sets, near_pair(1e-9), near_pair(1e-12)]
        sigmas = [noise_sigma(h.transmit_vectors(), snr_db) for h in hs]
        (mis,) = mutual_information(hs, [sigmas], 20_000, 4245)
        for h, mi in zip(hs, mis):
            assert math.isfinite(mi)
            assert 0.0 <= mi <= math.log2(h.m)

    def test_near_pair_limits(self):
        # 1e-9 or 1e-12 apart: no information at 0 dB, one full bit at
        # 300 dB.
        for h in (near_pair(1e-9), near_pair(1e-12)):
            for snr_db, expected in ((0.0, 0.0), (300.0, 1.0)):
                sigma = noise_sigma(h.transmit_vectors(), snr_db)
                assert mutual_information([h], [[sigma]], 20_000, 0) == ((expected,),)

    def test_clip_changes_nothing_at_45_db(self, reproduce_sets):
        sigmas = [noise_sigma(h.transmit_vectors(), 45.0) for h in reproduce_sets]
        n = 70_000
        unclipped = _map_shared_draws(
            reproduce_sets, [sigmas], 4257, n, unclipped_information
        )
        # The floor is reached, so the comparison tests it.
        assert any(
            below for blocks in unclipped for block in blocks for _, below in block
        )
        expected = tuple(
            _bits(h.m, math.fsum(loss for loss, _ in point), n)
            for h, blocks in zip(reproduce_sets, unclipped)
            for point in zip(*blocks)
        )
        assert mutual_information(reproduce_sets, [sigmas], n, 4257) == (expected,)


class TestCommonDraws:
    """Every grid point reads the (seed, 0) draws, so a point's value
    depends on its SNR, the seed, the count and the hypotheses only."""

    N = 70_000  # two chunks, the second one partial

    def test_ser_point_does_not_depend_on_its_index(self, mixed_batch):
        grid = [0.0, 9.0, 18.0]
        curves = simulate_ser(mixed_batch, grid, self.N, 3)
        for i, snr in enumerate(grid):
            alone = simulate_ser(mixed_batch, [snr], self.N, 3)
            assert tuple(c.values[i] for c in curves) == tuple(
                a.values[0] for a in alone
            )

    def test_mi_point_does_not_depend_on_its_index(self, mixed_batch):
        sigma_grid = [
            [noise_sigma(h.transmit_vectors(), snr) for h in mixed_batch]
            for snr in (0.0, 9.0, 18.0)
        ]
        per_point = mutual_information(mixed_batch, sigma_grid, self.N, 3)
        assert len(per_point) == len(sigma_grid)
        for sigmas, mis in zip(sigma_grid, per_point):
            assert mutual_information(mixed_batch, [sigmas], self.N, 3) == (mis,)


@pytest.fixture(scope="module")
def figure_4a_curves(reproduce_sets):
    """The SER curves of ``reproduce 4a``: its three designs over its grid."""
    settings = cli._FIGURES["4a"]
    grid = cli.parse_snr_grid(settings["snr"])
    return simulate_ser(
        reproduce_sets[:3], grid, settings["symbols"], cli.REPRODUCE_SIM_SEED
    )


class TestReproduceCurves:
    def test_ser_is_non_increasing_over_the_4a_grid(self, figure_4a_curves):
        # A draw decoded right at one sigma stays right at every smaller one.
        for curve in figure_4a_curves:
            assert len(curve.values) == 11
            assert list(curve.values) == sorted(curve.values, reverse=True)

    def test_first_ser_row_is_the_first_point_alone(self, reproduce_sets,
                                                    figure_4a_curves):
        snr = figure_4a_curves[0].snr_db[0]
        for h, curve in zip(reproduce_sets, figure_4a_curves):
            alone = ser_alone(h, [snr], curve.n, curve.seed)
            assert curve.values[0] == alone.values[0]

    def test_first_rate_row_is_the_first_point_alone(self, reproduce_sets):
        # The Monte Carlo rate engine over the 4b grid, at the count and
        # seed that 4b drew before it moved to the quadrature.
        grid = cli.parse_snr_grid(cli._FIGURES["4b"]["snr"])
        n, seed = 50_000, cli.REPRODUCE_SIM_SEED
        for h, curve in zip(reproduce_sets, rate_curve(reproduce_sets, grid, n, seed)):
            sigma = noise_sigma(h.transmit_vectors(), grid[0])
            assert curve.values[0] == BANDWIDTH_HZ * mi_alone(h, sigma, n, seed)


@pytest.fixture(scope="module")
def figure_4b_sigmas(reproduce_sets):
    """Per set of ``reproduce_sets``, its transmit-referenced sigma at
    each point of the 4b grid."""
    grid = cli.parse_snr_grid(cli._FIGURES["4b"]["snr"])
    return [
        [noise_sigma(h.transmit_vectors(), snr) for snr in grid] for h in reproduce_sets
    ]


def draw_variance(h: HypothesisSet, sigma: float, n: int = 32) -> float:
    """The variance of one Monte Carlo draw's term log2(M p(y|s) /
    sum_j p(y|s_j)) of ``mutual_information``, over the symbol and the
    noise: a two-pass mean and variance on numpy's full n-point
    Gauss-Hermite tensor rule.  Unlike the sample variance of the draws,
    it counts the rare draws that carry the loss at high SNR."""
    x, w = hermegauss(n)
    w = w / w.sum()
    nodes = np.stack([g.ravel() for g in np.meshgrid(*[x] * h.bands, indexing="ij")])
    weights = np.ones(1)
    for _ in range(h.bands):
        weights = np.multiply.outer(weights, w).ravel()
    terms = []
    for s in range(h.m):
        delta = np.delete(h.vectors, s, axis=0) - h.vectors[s]
        half = 0.5 * np.sum(delta * delta, axis=1)[:, None]
        d = np.maximum((delta @ nodes - half / sigma) / sigma, -700.0)
        terms.append(math.log2(h.m) - np.log1p(np.exp(d).sum(axis=0)) / math.log(2.0))
    terms = np.array(terms)
    mean = float(np.sum(terms * weights)) / h.m
    return float(np.sum((terms - mean) ** 2 * weights)) / h.m


def assert_within_three_standard_errors(hs, sigmas_per_set, n: int, seed: int):
    """Each quadrature value lies within 3 combined standard errors of an
    n-draw ``mutual_information``: the Monte Carlo's sqrt(variance / n)
    combined with the quadrature's own error, taken as its distance from
    the 48-point rule, plus 1e-12 for the two engines' rounding."""
    sigma_grid = list(zip(*sigmas_per_set))
    estimates = list(zip(*mutual_information(hs, sigma_grid, n, seed)))
    values = list(zip(*quadrature_information(hs, sigma_grid)))
    for h, sigmas, mc, quad in zip(hs, sigmas_per_set, estimates, values):
        fine = _rule_information(h, sigmas, 48)
        for sigma, m, q, f in zip(sigmas, mc, quad, fine):
            error = math.hypot(math.sqrt(draw_variance(h, sigma) / n), q - f)
            assert abs(q - m) <= 3.0 * error + 1e-12, (sigma, q, m, error)


class TestQuadrature:
    """``quadrature_information``: the pruned 24-point Gauss-Hermite rule
    that ``reproduce 4b`` takes its rates from."""

    @pytest.mark.parametrize("n", [24, 48, 200])
    def test_rule_matches_hermegauss(self, n):
        nodes, weights = _hermite_rule(n)
        x, w = hermegauss(n)
        np.testing.assert_allclose(nodes, x, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(weights, w / w.sum(), rtol=1e-12, atol=0.0)

    def test_pruned_rule(self):
        # 4,560 of the 13,824 nodes on three bands, 20 of 24 on one.
        for bands, count in ((3, 4560), (1, 20)):
            nodes, weights = _tensor_rule(GH_ORDER, bands)
            assert nodes.shape == (bands, count)
            assert weights.min() >= 1e-10 * weights.max()
            assert math.fsum(weights) == pytest.approx(1.0, abs=1e-15)

    def test_agrees_with_the_48_point_rule(self, reproduce_sets, figure_4b_sigmas):
        # 5.7e-5 bits at worst was measured.
        values = quadrature_information(reproduce_sets, list(zip(*figure_4b_sigmas)))
        for h, sigmas, quad in zip(reproduce_sets, figure_4b_sigmas, zip(*values)):
            fine = _rule_information(h, sigmas, 48)
            assert max(abs(q - f) for q, f in zip(quad, fine)) <= 1e-4

    def test_one_band_agrees_with_the_200_point_rule(
        self, reproduce_sets, figure_4b_sigmas
    ):
        # The OOK sets; 6.2e-5 bits at worst was measured.
        for h, sigmas in zip(reproduce_sets[3:], figure_4b_sigmas[3:]):
            assert h.bands == 1
            quad = _rule_information(h, sigmas)
            fine = _rule_information(h, sigmas, 200)
            assert max(abs(q - f) for q, f in zip(quad, fine)) <= 1e-4

    def test_within_three_standard_errors_of_a_million_draws(
        self, reproduce_sets, figure_4b_sigmas
    ):
        assert_within_three_standard_errors(
            reproduce_sets, figure_4b_sigmas, 10**6, cli.REPRODUCE_SIM_SEED
        )

    def test_coincident_rows(self):
        hs = twin_sets()
        sigmas = [
            [noise_sigma(h.transmit_vectors(), snr) for snr in (0.0, 15.0, 30.0)]
            for h in hs
        ]
        for h, column in zip(hs, zip(*quadrature_information(hs, list(zip(*sigmas))))):
            for mi in column:
                assert math.isfinite(mi)
                assert 0.0 <= mi <= math.log2(h.m)
        assert_within_three_standard_errors(hs, sigmas, 200_000, 11)

    @pytest.mark.parametrize("snr_db", [-300.0, 0.0, 45.0, 300.0])
    def test_finite_and_in_range(self, reproduce_sets, snr_db):
        hs = [*reproduce_sets, near_pair(1e-9), near_pair(1e-12)]
        sigmas = [noise_sigma(h.transmit_vectors(), snr_db) for h in hs]
        (mis,) = quadrature_information(hs, [sigmas])
        for h, mi in zip(hs, mis):
            assert math.isfinite(mi)
            assert 0.0 <= mi <= math.log2(h.m)

    def test_near_pair_limits(self):
        # No information at 0 dB, up to rounding: the weights sum to 1.
        for h in (near_pair(1e-9), near_pair(1e-12)):
            for snr_db, expected in ((0.0, 0.0), (300.0, 1.0)):
                sigma = noise_sigma(h.transmit_vectors(), snr_db)
                ((mi,),) = quadrature_information([h], [[sigma]])
                assert mi == pytest.approx(expected, rel=0.0, abs=1e-12)

    def test_checks_as_mutual_information(self, mixed_batch):
        sigmas = [0.1] * len(mixed_batch)
        for hs, grid in (
            ([], [[]]),
            (mixed_batch, []),
            (mixed_batch, [sigmas[1:]]),
            (mixed_batch, [[0.0, *sigmas[1:]]]),
            ([HypothesisSet(np.zeros((2, 4)), np.ones(4))], [[0.1]]),
            ([HypothesisSet(np.ones((1, 3)), np.ones(3))], [[0.1]]),
        ):
            with pytest.raises(ValueError) as raised:
                quadrature_information(hs, grid)
            with pytest.raises(type(raised.value), match=re.escape(str(raised.value))):
                mutual_information(hs, grid, 10_000, 0)

    def test_rate_curve(self, mixed_batch):
        grid = [0.0, 12.0, 24.0]
        curves = quadrature_rate_curve(mixed_batch, grid)
        sigma_grid = [
            [noise_sigma(h.transmit_vectors(), snr) for h in mixed_batch]
            for snr in grid
        ]
        expected = zip(*quadrature_information(mixed_batch, sigma_grid))
        for curve, mis in zip(curves, expected):
            assert (curve.seed, curve.n, curve.rule) == (None, None, QUADRATURE_RULE)
            assert curve.snr_db == tuple(grid)
            assert curve.values == tuple(BANDWIDTH_HZ * mi for mi in mis)


FIGURE_4A_GRID = cli.parse_snr_grid(cli._FIGURES["4a"]["snr"])


def detected_error_counts(hs, grid, n: int, seed: int) -> np.ndarray:
    """Per hypothesis set and grid point, how many of the (seed, 0) draws
    ``detect_ml`` decodes wrong from the received vectors sigma z + v_s."""
    counts = np.zeros((len(hs), len(grid)), dtype=np.int64)
    for start in range(0, n, _CHUNK):
        u = _uniform_blocks(seed, start, out=np.empty((min(_CHUNK, n - start), 4)))
        for i, h in enumerate(hs):
            symbols = np.minimum((u[:, 0] * h.m).astype(np.int64), h.m - 1)
            z = scipy.special.ndtri(u[:, 1 : 1 + h.bands])
            for p, snr in enumerate(grid):
                received = z * noise_sigma(h.vectors, snr) + h.vectors[symbols]
                counts[i, p] += np.count_nonzero(detect_ml(received, h) != symbols)
    return counts


def twin_sets() -> list[HypothesisSet]:
    """Hypothesis sets with two coincident rows: adjacent, apart with the
    twin last, and the two symbols of an OOK-like set."""
    return [
        HypothesisSet(
            np.array([[0.1, 0, 0], [0.1, 0, 0], [0.5, 0, 0], [0, 0.4, 0]]), np.ones(3)
        ),
        HypothesisSet(
            np.array([[0.5, 0, 0], [0.1, 0.2, 0], [0, 0.4, 0.1], [0.1, 0.2, 0]]),
            np.ones(3),
        ),
        HypothesisSet(np.array([[0.2], [0.2]]), np.ones(1)),
    ]


class TestCriticalValues:
    """``simulate_ser`` decides each draw at every sigma by one critical
    value; ``detect_ml`` on the received vectors stays the definition it
    must match, count for count."""

    N = 100_000  # the 4a count: two chunks, the second one partial

    @pytest.mark.parametrize("seed", [0, 7, 4242])
    @pytest.mark.parametrize("batch", ["reproduce_sets", "mixed_batch"])
    def test_counts_equal_detect_ml(self, request, batch, seed):
        hs = request.getfixturevalue(batch)
        expected = detected_error_counts(hs, FIGURE_4A_GRID, self.N, seed)
        assert (expected[:, 0] > 0).all()
        curves = simulate_ser(hs, FIGURE_4A_GRID, self.N, seed)
        for curve, counts in zip(curves, expected):
            assert curve.values == tuple(int(c) / self.N for c in counts)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_blocks_without_draws(self, reproduce_sets, mixed_batch, n):
        # With fewer than eight draws some symbols have none, so their
        # blocks are empty: below four draws a four-symbol set always has
        # such a symbol.
        for hs in (reproduce_sets[:1], mixed_batch):
            expected = detected_error_counts(hs, FIGURE_4A_GRID, n, 3)
            curves = simulate_ser(hs, FIGURE_4A_GRID, n, 3)
            for curve, counts in zip(curves, expected):
                assert curve.values == tuple(int(c) / n for c in counts)
            sigmas = [noise_sigma(h.transmit_vectors(), 6.0) for h in hs]
            (mis,) = mutual_information(hs, [sigmas], n, 3)
            for h, sigma, mi in zip(hs, sigmas, mis):
                expected = delta_form_information(h, sigma, n, 3)
                assert mi == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_large_alphabet(self):
        # 300 symbols on one band: more than one byte holds, and more
        # hypotheses than bands by far.
        h = HypothesisSet(np.linspace(0.0, 1e-3, 300)[:, None], np.ones(1))
        grid = [0.0, 20.0, 40.0]
        n = 3000
        (curve,) = simulate_ser([h], grid, n, 3)
        (counts,) = detected_error_counts([h], grid, n, 3)
        assert curve.values == tuple(int(c) / n for c in counts)
        sigma = noise_sigma(h.transmit_vectors(), 20.0)
        expected = delta_form_information(h, sigma, n, 3)
        assert mi_alone(h, sigma, n, 3) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("seed", [0, 7, 4242])
    def test_coincident_rows_tie_to_the_lower_index(self, seed):
        hs = twin_sets()
        expected = detected_error_counts(hs, FIGURE_4A_GRID, self.N, seed)
        curves = simulate_ser(hs, FIGURE_4A_GRID, self.N, seed)
        for curve, counts in zip(curves, expected):
            assert curve.values == tuple(int(c) / self.N for c in counts)
        # In the OOK-like set every draw of the higher twin is wrong and
        # no draw of the lower one is, at every SNR.
        u = _uniform_blocks(seed, 0, out=np.empty((self.N, 4)))
        higher = np.count_nonzero(u[:, 0] >= 0.5)
        assert curves[2].values == (higher / self.N,) * len(FIGURE_4A_GRID)

    def test_exact_tie_goes_to_the_lower_index(self):
        # Two draws that land on the midpoint of v_0 = 0 and v_1 = e_1 at
        # sigma 1, where every quantity is exact: there detect_ml decodes
        # both as 0, so only the draw of symbol 1 is wrong.
        h = binary_set(1.0)
        symbols = np.array([0, 1])
        z = np.array([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]])
        sigmas = (0.5, 1.0, 2.0)
        detected = [
            np.count_nonzero(detect_ml(z * sigma + h.vectors[symbols], h) != symbols)
            for sigma in sigmas
        ]
        assert detected == [0, 1, 2]
        # One block per symbol: a_j = z . (v_j - v_s) of its draw, and
        # b_j = |v_j - v_s|**2 / 2.
        a, b = np.array([[0.5]]), np.array([[0.5]])
        blocks = [_symbol_errors(sigmas, s, a.copy(), b, None) for s in symbols]
        assert [sum(counts) for counts in zip(*blocks)] == detected

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_every_curve_is_non_increasing(self, mixed_batch, seed):
        # No allowance: a draw wrong at one sigma is wrong at every larger
        # one, because both compare its one critical value with 1 / sigma.
        grid = np.arange(-10.0, 40.5, 1.5)
        for curve in simulate_ser(mixed_batch, grid, 70_000, seed):
            assert list(curve.values) == sorted(curve.values, reverse=True)
            assert curve.values[0] > curve.values[-1]


class TestUniformBlocks:
    @pytest.mark.parametrize(
        "start,count", [(0, 65_536), (65_536, 65_536), (131_072, 18_928), (5, 7)]
    )
    def test_equals_raw_word_formula(self, start, count):
        """Full and partial chunks equal 53 high bits of each raw Philox
        word times 2**-53, plus 2**-54."""
        key = np.array([4242, 0], dtype=np.uint64)
        raw = np.random.Philox(key=key, counter=start).random_raw(4 * count)
        expected = (raw.reshape(count, 4) >> np.uint64(11)) * 2.0**-53 + 2.0**-54
        u = _uniform_blocks(4242, start, out=np.empty((count, 4)))
        assert u.tobytes() == expected.tobytes()

    def test_top_word_stays_below_one(self, monkeypatch):
        """The top 53-bit word plus 2**-54 rounds to 1.0, whose ndtri is
        +inf; it is clamped to 1 - 2**-53."""

        class Fake:
            def __init__(self, bit_generator):
                pass

            def random(self, out):
                out.fill(1 - 2**-53)
                return out

        monkeypatch.setattr(np.random, "Generator", Fake)
        u = _uniform_blocks(4242, 0, out=np.empty((5, 4)))
        assert (u < 1.0).all()
        assert np.isfinite(scipy.special.ndtri(u)).all()
