"""End-to-end link evaluation over the underwater channel.

Constellation points are rendered as per-LED luminous fluxes, converted
to radiant power through the photopic efficacy, attenuated per band by
Beer-Lambert loss, and detected as a 3-vector of photocurrent amplitudes
under additive white Gaussian noise.  The module provides Monte Carlo
symbol-error simulation, the pairwise union bound, and mutual-information
rate estimates for 4-UCSK and an OOK baseline.

Reproducibility contract: all random draws come from a counter-based
Philox stream keyed by (seed, stream index) in which symbol n consumes
exactly one counter block.  Results are therefore bit-identical for a
fixed seed regardless of chunking.  The Monte Carlo entry points take a
batch of hypothesis sets and draw each chunk once for the whole batch; a
set reads only the uniforms and noise columns it would draw alone, so a
curve's bytes do not depend on which other curves share its draws.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.special import erfc, ndtri

from .channel import WaterProperties, attenuation_coefficient, path_loss
from .colorimetry import OutOfGamutError, photopic_efficacy, solve_fluxes
from .constellation import SYMBOL_LABELS, Constellation4
from .presets import DEFAULT_PRIMARY_CHROMATICITIES, DEFAULT_PRIMARY_WAVELENGTHS

__all__ = [
    "LinkConfig",
    "HypothesisSet",
    "Curve",
    "InfeasibleConstellationError",
    "NoiseLevelError",
    "build_hypotheses",
    "ook_hypotheses",
    "average_symbol_power",
    "noise_sigma",
    "detect_ml",
    "simulate_ser",
    "union_bound_ser",
    "union_bound_from_hypotheses",
    "ser_curves",
    "mutual_information",
    "logsumexp",
    "rate_curve",
    "write_curve_csv",
    "read_curve_csv",
    "config_digest",
    "qfunc",
]

# Luminous-to-radiant conversion: 683 lm/W at the photopic peak.
LUMENS_PER_WATT_PEAK = 683.0

# The fixed link budget.  The LEDs are the default primaries of
# ``presets``; every symbol emits the same total luminous flux.
TOTAL_LUMINOUS_FLUX_LM = 12.0
RESPONSIVITY_A_PER_W = 0.85
ELECTRO_OPTIC_FACTOR = 0.55
# Rates count one symbol per hertz of bandwidth.
BANDWIDTH_HZ = 1e8

_CHUNK = 1 << 16


class InfeasibleConstellationError(ValueError):
    """A constellation point cannot be rendered by the configured primaries."""


class NoiseLevelError(ValueError):
    """A noise standard deviation, given or set by an SNR, that is not
    > 0 or whose log-likelihood weight 1 / (2 sigma**2) is not finite
    and > 0."""


@dataclass(frozen=True)
class LinkConfig:
    """The water and range of a link; the rest of the budget is fixed."""

    water: WaterProperties
    distance_m: float

    def __post_init__(self) -> None:
        if self.distance_m < 0:
            raise ValueError("distance must be >= 0")
        if not math.isfinite(self.distance_m):
            raise ValueError(f"distance must be finite, got {self.distance_m}")


@dataclass(frozen=True)
class HypothesisSet:
    """Noiseless received amplitude vectors, one row per symbol, plus the
    derivation trace (fluxes, optical powers, per-band losses)."""

    vectors: np.ndarray  # (M, K) received electrical amplitudes
    labels: tuple[str, ...]
    band_wavelengths_nm: tuple[float, ...]
    loss_factors: np.ndarray  # (K,)
    fluxes_lm: np.ndarray  # (M, n_leds)
    optical_powers_w: np.ndarray  # (M, n_leds)

    def __post_init__(self) -> None:
        for name in ("vectors", "loss_factors", "fluxes_lm", "optical_powers_w"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.any(self.vectors < 0):
            raise ValueError("hypothesis amplitudes must be nonnegative")

    @property
    def m(self) -> int:
        return self.vectors.shape[0]

    @property
    def bands(self) -> int:
        return self.vectors.shape[1]

    def transmit_vectors(self) -> np.ndarray:
        """Amplitudes with the path loss divided back out (distance 0)."""
        return self.vectors / self.loss_factors


def _render(fluxes, wavelengths, labels, cfg: LinkConfig) -> HypothesisSet:
    """Received amplitudes of per-LED luminous fluxes (one row per symbol):
    the electro-optic scale and photopic conversion give optical power,
    then responsivity and per-band Beer-Lambert loss give amplitude."""
    losses = np.array(
        [
            path_loss(attenuation_coefficient(cfg.water, wl), cfg.distance_m)
            for wl in wavelengths
        ]
    )
    for wl, loss in zip(wavelengths, losses):
        # A band with no signal left has no transmit amplitude to recover.
        if loss == 0.0:
            raise ValueError(
                f"path loss at {wl} nm underflows to 0 at {cfg.distance_m} m"
            )
    efficacy = np.array([photopic_efficacy(wl) for wl in wavelengths])
    powers = ELECTRO_OPTIC_FACTOR * fluxes / (LUMENS_PER_WATT_PEAK * efficacy)
    return HypothesisSet(
        vectors=RESPONSIVITY_A_PER_W * powers * losses,
        labels=labels,
        band_wavelengths_nm=tuple(wavelengths),
        loss_factors=losses,
        fluxes_lm=fluxes,
        optical_powers_w=powers,
    )


def build_hypotheses(c: Constellation4, cfg: LinkConfig) -> HypothesisSet:
    """Map a constellation to noiseless received 3-vectors.

    Per symbol, fluxes solve the color-mixing system at the default
    primaries for the total flux, and are rendered over the link.
    """
    fluxes = np.zeros((len(SYMBOL_LABELS), 3))
    for i, label in enumerate(SYMBOL_LABELS):
        point = c.point(label)
        try:
            # A symbol renders when it is in the LED triangle by
            # GamutPolygon.contains; one grazing the boundary within its
            # tolerance drives an LED at a clipped flux of 0.
            fluxes[i] = solve_fluxes(
                DEFAULT_PRIMARY_CHROMATICITIES, point, TOTAL_LUMINOUS_FLUX_LM
            )
        except OutOfGamutError as exc:
            raise InfeasibleConstellationError(
                f"symbol {label} at ({point.x}, {point.y}) is outside the "
                "source triangle of the configured primaries"
            ) from exc
    return _render(fluxes, DEFAULT_PRIMARY_WAVELENGTHS, SYMBOL_LABELS, cfg)


def ook_hypotheses(wavelength_nm: float, cfg: LinkConfig) -> HypothesisSet:
    """On-off keying over a single LED: hypotheses {0, on-amplitude}."""
    fluxes = np.array([[0.0], [TOTAL_LUMINOUS_FLUX_LM]])
    return _render(fluxes, (wavelength_nm,), ("off", "on"), cfg)


def average_symbol_power(vectors: np.ndarray) -> float:
    """P_avg = sum of squared amplitudes over 3M (per-band average for an
    equiprobable M-ary alphabet on three nominal bands)."""
    v = np.asarray(vectors, dtype=float)
    return float(np.sum(v * v)) / (3.0 * v.shape[0])


def _checked_sigma(sigma: float, where: str) -> float:
    """``sigma`` when it is > 0 and the log-likelihood weight
    1 / (2 sigma**2) of _information is finite and > 0; NoiseLevelError
    otherwise.  That weight overflows once sigma**2 is subnormal."""
    two_var = 2.0 * sigma * sigma
    if not (sigma > 0.0 and 0.0 < two_var < math.inf and 1.0 / two_var < math.inf):
        raise NoiseLevelError(
            f"noise sigma {where} is {sigma}; 1 / (2 sigma**2) must be finite and > 0"
        )
    return sigma


def noise_sigma(vectors: np.ndarray, snr_db: float) -> float:
    """Per-band noise standard deviation that puts the average power of
    ``vectors`` at ``snr_db`` above the noise.  SER curves pass the
    received hypotheses, rate curves the transmit ones."""
    try:
        sigma = math.sqrt(average_symbol_power(vectors) / 10.0 ** (snr_db / 10.0))
    except ZeroDivisionError:
        # 10 ** (snr_db / 10) rounds to 0 below about -3,240 dB.
        sigma = math.inf
    except OverflowError:
        # ... and overflows above about 3,080 dB.
        sigma = 0.0
    return _checked_sigma(sigma, f"at {snr_db} dB")


def detect_ml(received: np.ndarray, h: HypothesisSet) -> np.ndarray:
    """Minimum-distance detection of an (N, K) batch of received vectors,
    one symbol index per row; ties break to the lowest symbol index.

    A received vector nearer to hypothesis i than half the distance from i
    to its nearest other hypothesis always decodes to i.  Half the distance
    to some other neighbour is not enough when a nearer one exists.
    """
    r = np.asarray(received, dtype=float)
    delta = r[:, None, :] - h.vectors[None, :, :]
    d2 = np.einsum("nmk,nmk->nm", delta, delta)
    return np.argmin(d2, axis=1)


def _uniform_blocks(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """(count, 4) doubles in (0, 1); symbol n maps to counter block n.

    Each double is (53 high bits of one raw Philox word) * 2**-53 + 2**-54.
    """
    key = np.array([seed, stream], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key, counter=start))
    return gen.random((count, 4)) + 2.0**-54


def _map_shared_draws(hs, sigmas, seed: int, stream: int, n: int, score):
    """Per hypothesis set, the list of ``score(h, sigma, symbols, received)``
    over the fixed ``_CHUNK``-symbol chunks of the (seed, stream) draws.

    A chunk's uniforms and Gaussian noise are drawn once for the whole
    batch.  Set h takes its symbols from the first uniform and its noise
    from the next ``h.bands`` ones, exactly as if it were drawn alone.
    """
    bands = max(h.bands for h in hs)
    scores = [[] for _ in hs]
    for a in range(0, n, _CHUNK):
        u = _uniform_blocks(seed, stream, a, min(_CHUNK, n - a))
        z = ndtri(u[:, 1 : 1 + bands])
        for h, sigma, out in zip(hs, sigmas, scores):
            symbols = np.minimum((u[:, 0] * h.m).astype(np.int64), h.m - 1)
            received = h.vectors[symbols] + z[:, : h.bands] * sigma
            out.append(score(h, sigma, symbols, received))
    return scores


def _batch(hypothesis_sets) -> tuple[HypothesisSet, ...]:
    hs = tuple(hypothesis_sets)
    if not hs:
        raise ValueError("no hypothesis sets given")
    if any(h.bands > 3 for h in hs):
        raise ValueError("a symbol draws noise for at most 3 bands")
    return hs


def _shas(config_shas, count: int) -> tuple[str, ...]:
    shas = ("",) * count if config_shas is None else tuple(config_shas)
    if len(shas) != count:
        raise ValueError("need one config_sha per hypothesis set")
    return shas


def _symbol_errors(h, sigma, symbols, received) -> int:
    return int(np.count_nonzero(detect_ml(received, h) != symbols))


def simulate_ser(
    hypothesis_sets, snr_db_grid, n_symbols: int, seed: int
) -> tuple["Curve", ...]:
    """Monte Carlo symbol error rate over an SNR grid, one curve per
    hypothesis set.

    Noise for symbol n of grid point i comes from the (seed, i) Philox
    stream at counter n, so each curve is reproducible bit-for-bit for any
    chunking or batch it is simulated in.
    """
    hs = _batch(hypothesis_sets)
    grid = [float(s) for s in snr_db_grid]
    if not grid:
        raise ValueError("empty SNR grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("SNR grid must be strictly increasing")
    if n_symbols < 1:
        raise ValueError("n_symbols must be >= 1")
    values = [[] for _ in hs]
    for stream, snr_db in enumerate(grid):
        sigmas = [noise_sigma(h.vectors, snr_db) for h in hs]
        errors = _map_shared_draws(hs, sigmas, seed, stream, n_symbols, _symbol_errors)
        for curve, counts in zip(values, errors):
            curve.append(sum(counts) / n_symbols)
    return tuple(
        Curve(tuple(grid), tuple(v), seed=seed, n=n_symbols) for v in values
    )


def qfunc(x) -> np.ndarray | float:
    """Standard Gaussian tail probability."""
    return 0.5 * erfc(np.asarray(x) / math.sqrt(2.0))


def union_bound_from_hypotheses(h: HypothesisSet, sigma: float) -> float:
    """Pairwise union bound (1/M) sum_i sum_{j != i} Q(d_ij / (2 sigma))."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    delta = h.vectors[:, None, :] - h.vectors[None, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", delta, delta))
    q = qfunc(d / (2.0 * sigma))
    np.fill_diagonal(q, 0.0)
    return float(q.sum()) / h.m


def union_bound_ser(h: HypothesisSet, snr_db_grid) -> tuple[float, ...]:
    """Union bound of a hypothesis set over an SNR grid."""
    return tuple(
        union_bound_from_hypotheses(h, noise_sigma(h.vectors, s))
        for s in snr_db_grid
    )


def ser_curves(
    hypothesis_sets,
    grid,
    n_symbols: int,
    seed: int,
    config_shas=None,
) -> tuple[tuple["Curve", "Curve"], ...]:
    """Per hypothesis set, the Monte Carlo SER curve and its union-bound
    curve, both stamped with that set's entry of ``config_shas``."""
    hs = _batch(hypothesis_sets)
    shas = _shas(config_shas, len(hs))
    return tuple(
        (
            replace(ser, config_sha=sha),
            Curve(ser.snr_db, union_bound_ser(h, grid), seed, n_symbols, sha),
        )
        for h, ser, sha in zip(hs, simulate_ser(hs, grid, n_symbols, seed), shas)
    )


def logsumexp(a: np.ndarray) -> np.ndarray:
    """Row-wise log(sum(exp(a))) of a real 2-D array.

    The same arithmetic as ``scipy.special.logsumexp(a, axis=1)``, bit for
    bit, without its second full pass: the row maxima are taken out of
    the sum, and ``log1p(s / m) + log(m) + max`` is returned, with m the
    number of entries tied at the maximum.  Rows where that is not finite
    fall back to the direct ``log(sum(exp(row)))``, as scipy's do.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        a_max = np.max(a, axis=1, keepdims=True)
        ties = a == a_max
        m = np.sum(ties, axis=1, keepdims=True, dtype=a.dtype)
        s = np.sum(np.exp(np.where(ties, -np.inf, a) - a_max), axis=1, keepdims=True)
        out = (np.log1p(s / m) + np.log(m) + a_max)[:, 0]
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.sum(np.exp(a[bad]), axis=1))
    return out


def _information(h, sigma, symbols, received) -> float:
    """Sum over the draws of log2(M p(y|s) / sum_j p(y|s_j))."""
    delta = received[:, None, :] - h.vectors[None, :, :]
    ll = -np.einsum("nmk,nmk->nm", delta, delta) * (1.0 / (2.0 * sigma * sigma))
    own = ll[np.arange(len(symbols)), symbols]
    terms = math.log2(h.m) + (own - logsumexp(ll)) / math.log(2.0)
    return float(terms.sum())


def mutual_information(
    hypothesis_sets,
    sigmas,
    n_samples: int,
    seed: int,
    *,
    stream: int = 0,
) -> tuple[float, ...]:
    """Monte Carlo mutual information (bits/symbol) of the equiprobable
    discrete input over the AWGN vector channel, one estimate per
    hypothesis set at its noise level ``sigmas[k]``.

    Averages log2(M p(y|s) / sum_j p(y|s_j)) over draws; the estimate is
    clamped to [0, log2 M].
    """
    hs = _batch(hypothesis_sets)
    sigmas = tuple(float(s) for s in sigmas)
    if len(sigmas) != len(hs):
        raise ValueError("need one sigma per hypothesis set")
    for s in sigmas:
        _checked_sigma(s, "for mutual information")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    sums = _map_shared_draws(hs, sigmas, seed, stream, n_samples, _information)
    return tuple(
        min(max(math.fsum(chunks) / n_samples, 0.0), math.log2(h.m))
        for h, chunks in zip(hs, sums)
    )


def rate_curve(
    hypothesis_sets, grid, n_samples: int, seed: int, config_shas=None
) -> tuple["Curve", ...]:
    """Achievable rate in bits/s over an SNR grid, one curve per
    hypothesis set: the bandwidth times the mutual information, at one
    symbol per hertz.

    The SNR is referenced to transmit power, so path loss shows up as the
    color- and distance-dependent penalty it is.  Grid point i draws from
    Philox stream i.
    """
    hs = _batch(hypothesis_sets)
    shas = _shas(config_shas, len(hs))
    snr_db = tuple(float(s) for s in grid)
    transmit = [h.transmit_vectors() for h in hs]
    per_point = [
        mutual_information(
            hs, [noise_sigma(v, snr) for v in transmit], n_samples, seed, stream=i
        )
        for i, snr in enumerate(snr_db)
    ]
    return tuple(
        Curve(snr_db, tuple(BANDWIDTH_HZ * mi for mi in column), seed, n_samples, sha)
        for column, sha in zip(zip(*per_point), shas)
    )


@dataclass(frozen=True)
class Curve:
    """A simulated SER or rate curve over an SNR grid."""

    snr_db: tuple[float, ...]
    values: tuple[float, ...]
    seed: int
    n: int
    config_sha: str = ""


def config_digest(payload) -> str:
    """sha256 over the canonical JSON form of a configuration payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def write_curve_csv(path, curve: Curve) -> None:
    """Write ``snr_db,value`` rows with full round-trip float text."""
    lines = [
        f"# seed={curve.seed}",
        f"# n={curve.n}",
        f"# config_sha={curve.config_sha}",
        "snr_db,value",
    ]
    lines.extend(f"{repr(s)},{repr(v)}" for s, v in zip(curve.snr_db, curve.values))
    Path(path).write_text("\n".join(lines) + "\n")


def read_curve_csv(path) -> Curve:
    """Parse a curve written by :func:`write_curve_csv`."""
    meta = {"seed": "0", "n": "0", "config_sha": ""}
    snr, values = [], []
    lines = Path(path).read_text().splitlines()
    body_seen = False
    for line in lines:
        m = re.match(r"#\s*(\w+)=(.*)$", line)
        if m:
            meta[m.group(1)] = m.group(2)
            continue
        if line.strip() == "snr_db,value":
            body_seen = True
            continue
        if line.strip():
            a, b = line.split(",")
            snr.append(float(a))
            values.append(float(b))
    if not body_seen:
        raise ValueError(f"{path}: missing snr_db,value header")
    return Curve(
        tuple(snr),
        tuple(values),
        seed=int(meta["seed"]),
        n=int(meta["n"]),
        config_sha=meta["config_sha"],
    )
