import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ucsk import cli
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
    logsumexp,
    mutual_information,
    noise_sigma,
    ook_hypotheses,
    rate_curve,
    ser_curves,
    simulate_ser,
    union_bound_ser,
)
from ucsk.linksim import (
    _CHUNK,
    _information,
    _map_shared_draws,
    _scores,
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
            point = renderable.point(label)
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

    def test_batch_validation(self, mixed_batch):
        with pytest.raises(ValueError):
            simulate_ser([], [0.0], 20_000, 0)
        with pytest.raises(ValueError):
            mutual_information(mixed_batch, [[1e-3]], 20_000, 0)
        four_bands = HypothesisSet(np.eye(4), np.ones(4))
        with pytest.raises(ValueError):
            simulate_ser([four_bands], [0.0], 20_000, 0)


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
        u = _uniform_blocks(seed, 0, a, min(_CHUNK, n - a))
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


@st.composite
def tied_batches(draw):
    """A hypothesis set of small-integer vectors and a batch of received
    half-integer vectors, some rows forced onto the exact midpoint of two
    hypotheses.  Every score is then exact, so ties are exact."""
    m, k = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    small = st.integers(0, 3).map(float)
    vectors = draw(hnp.arrays(np.float64, (m, k), elements=small))
    n = draw(st.integers(1, 30))
    halves = st.integers(-4, 8).map(lambda i: i / 2)
    received = draw(hnp.arrays(np.float64, (n, k), elements=halves))
    pair = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
    for row, (i, j) in enumerate(draw(st.lists(pair, max_size=n))):
        received[row] = (vectors[i] + vectors[j]) / 2
    return HypothesisSet(vectors, np.ones(k)), received


class TestDetectColumnPass:
    @given(tied_batches())
    @settings(deadline=None)
    def test_matches_argmax_bitwise(self, batch):
        h, received = batch
        for layout in (received, np.asfortranarray(received)):
            expected = np.argmax(_scores(layout, h), axis=1)
            got = detect_ml(layout, h)
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()


def unclipped_information(h, sigma, symbols, z) -> tuple[float, bool]:
    """``_information`` without its floor on the log-likelihood gaps, and
    whether a gap fell below that floor."""
    scaled = h.vectors / sigma
    d = np.empty((len(z), h.m), order="F")
    np.einsum("nk,mk->nm", z, scaled, out=d)
    rows = np.arange(len(symbols))
    d -= d[rows, symbols][:, None]
    delta = scaled[None, :, :] - scaled[:, None, :]
    d -= 0.5 * np.einsum("sjk,sjk->js", delta, delta)[:, symbols].T
    e = np.exp(d)
    e[rows, symbols] = 0.0
    terms = math.log2(h.m) - np.log1p(e.sum(axis=1)) / math.log(2.0)
    return float(terms.sum()), bool(np.any(d < -700.0))


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
        args = (reproduce_sets, [sigmas], 4257, 70_000)
        (unclipped,) = _map_shared_draws(*args, unclipped_information)
        # The floor is reached, so the comparison tests it.
        assert any(below for chunks in unclipped for _, below in chunks)
        expected = [[[total for total, _ in chunks] for chunks in unclipped]]
        assert _map_shared_draws(*args, _information) == expected


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
        settings = cli._FIGURES["4b"]
        grid = cli.parse_snr_grid(settings["snr"])
        n, seed = settings["samples"], cli.REPRODUCE_SIM_SEED
        for h, curve in zip(reproduce_sets, rate_curve(reproduce_sets, grid, n, seed)):
            sigma = noise_sigma(h.transmit_vectors(), grid[0])
            assert curve.values[0] == BANDWIDTH_HZ * mi_alone(h, sigma, n, seed)


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

    def test_result_outlives_the_next_call(self):
        first = _uniform_blocks(4242, 3, 0, 1000)
        kept = first.copy()
        second = _uniform_blocks(4242, 4, 0, 1000)
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept.tobytes()

    def test_top_word_stays_below_one(self, monkeypatch):
        """The top 53-bit word plus 2**-54 rounds to 1.0, whose ndtri is
        +inf; it is clamped to 1 - 2**-53."""

        class Fake:
            def __init__(self, bit_generator):
                pass

            def random(self, shape):
                return np.full(shape, 1 - 2**-53)

        monkeypatch.setattr(np.random, "Generator", Fake)
        u = _uniform_blocks(4242, 3, 0, 5)
        assert (u < 1.0).all()
        assert np.isfinite(scipy.special.ndtri(u)).all()


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
        for layout in (a, np.asfortranarray(a)):
            expected = scipy.special.logsumexp(layout, axis=1)
            assert logsumexp(layout).tobytes() == expected.tobytes()

    def test_matches_scipy_on_mi_log_likelihoods(self, renderable, link10):
        h = build_hypotheses(renderable, link10)
        rng = np.random.default_rng(11)
        received = h.vectors[rng.integers(0, h.m, 5_000)] + rng.normal(
            0, 0.02, (5_000, h.bands)
        )
        delta = received[:, None, :] - h.vectors[None, :, :]
        ll = -np.einsum("nmk,nmk->nm", delta, delta) / (2 * 0.02**2)
        # ... and on the Fortran-ordered discriminants of _scores over sigma**2.
        scaled = _scores(received, h) / 0.02**2
        assert scaled.flags.f_contiguous
        for a in (ll, scaled):
            expected = scipy.special.logsumexp(a, axis=1)
            assert logsumexp(a).tobytes() == expected.tobytes()

    def test_non_finite_rows_match_scipy(self):
        inf, nan = np.inf, np.nan
        a = np.array(
            [[-inf, -inf, -inf], [inf, 0.0, 1.0], [nan, 0.0, 1.0], [-inf, 0.0, 0.0],
             [800.0, 800.0, -inf], [1000.0, nan, 0.0], [1000.0, inf, 0.0]]
        )
        for layout in (a, np.asfortranarray(a)):
            np.testing.assert_array_equal(
                logsumexp(layout), scipy.special.logsumexp(layout, axis=1)
            )
