"""End-to-end link evaluation over the underwater channel.

Constellation points are rendered as per-LED luminous fluxes, converted
to radiant power through the photopic efficacy, attenuated per band by
Beer-Lambert loss, and detected as a 3-vector of photocurrent amplitudes
under additive white Gaussian noise.  The module provides Monte Carlo
symbol-error simulation, the pairwise union bound, and mutual-information
rate estimates for 4-UCSK and an OOK baseline.  The engines return bare
curves.

Reproducibility contract: all random draws come from one counter-based
Philox stream, keyed by (seed, 0), in which symbol n consumes exactly one
counter block.  Every point of an SNR grid and every curve of a batch
reads the same draws (common random numbers): symbol n has the same
uniforms and the same standard noise everywhere, scaled by each point's
sigma.  So a point's value depends on the seed, its SNR, the sample
count and the hypotheses only, not on its index in the grid or on the
other points and curves, and it is bit-identical for any chunking.  A
set reads only the uniform and noise columns it would draw alone.  The
Monte Carlo draws each chunk once, with one ``ndtri`` pass, and scores
every (grid point, set) pair on it.

Along a grid a draw's received vector moves toward its own hypothesis as
sigma falls, and every minimum-distance decision cell is convex and holds
its own hypothesis.  So a decision that is right at one SNR stays right at
every higher one, and a simulated SER curve is non-increasing, up to
rounding at a cell boundary.

Every chunk-sized intermediate of the Monte Carlo (uniforms, noise,
symbols, received batch, scores, detector state and mutual-information
gaps) is written into a ``_Buffers`` that one engine call allocates and
reuses across its chunks, SNR points and sets.  The arithmetic is the one
a fresh array would get, so the bytes do not depend on the buffers
either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

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
    "noise_sigma",
    "detect_ml",
    "simulate_ser",
    "union_bound_ser",
    "ser_curves",
    "mutual_information",
    "logsumexp",
    "rate_curve",
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
# Row numbers of a chunk, for the flat index of each draw's own column.
_ROWS = np.arange(_CHUNK)
_ROWS.setflags(write=False)
# Doubles per chunk row that a ``_Buffers`` arena holds.  The SER roles on
# three bands and four symbols take 22.25 of them, and the rate roles of a
# batch with four- and two-symbol sets 21.
_ARENA_COLUMNS = 23


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
    """Noiseless received amplitude vectors, one row per symbol in
    ``SYMBOL_LABELS`` order (``off``, ``on`` for OOK), and the per-band
    path-loss factors they carry."""

    vectors: np.ndarray  # (M, K) received electrical amplitudes
    loss_factors: np.ndarray  # (K,)

    def __post_init__(self) -> None:
        for name in ("vectors", "loss_factors"):
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


def _render(fluxes, wavelengths, cfg: LinkConfig) -> HypothesisSet:
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
    return HypothesisSet(RESPONSIVITY_A_PER_W * powers * losses, losses)


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
    return _render(fluxes, DEFAULT_PRIMARY_WAVELENGTHS, cfg)


def ook_hypotheses(wavelength_nm: float, cfg: LinkConfig) -> HypothesisSet:
    """On-off keying over a single LED: hypotheses {0, on-amplitude}."""
    fluxes = np.array([[0.0], [TOTAL_LUMINOUS_FLUX_LM]])
    return _render(fluxes, (wavelength_nm,), cfg)


def _checked_sigma(sigma: float, where: str) -> float:
    """``sigma`` when it is > 0 and the Gaussian log-likelihood weight
    1 / (2 sigma**2) is finite and > 0; NoiseLevelError otherwise.  That
    weight overflows once sigma**2 is subnormal."""
    two_var = 2.0 * sigma * sigma
    if not (sigma > 0.0 and 0.0 < two_var < math.inf and 1.0 / two_var < math.inf):
        raise NoiseLevelError(
            f"noise sigma {where} is {sigma}; 1 / (2 sigma**2) must be finite and > 0"
        )
    return sigma


def noise_sigma(vectors: np.ndarray, snr_db: float) -> float:
    """Per-band noise standard deviation that puts the average power of
    ``vectors`` at ``snr_db`` above the noise.  SER curves pass the
    received hypotheses, rate curves the transmit ones.

    The average power is the sum of squared amplitudes over 3M: the
    per-band average of an equiprobable M-ary alphabet on three nominal
    bands.
    """
    v = np.asarray(vectors, dtype=float)
    power = float(np.sum(v * v)) / (3.0 * v.shape[0])
    try:
        sigma = math.sqrt(power / 10.0 ** (snr_db / 10.0))
    except ZeroDivisionError:
        # 10 ** (snr_db / 10) rounds to 0 below about -3,240 dB.
        sigma = math.inf
    except OverflowError:
        # ... and overflows above about 3,080 dB.
        sigma = 0.0
    return _checked_sigma(sigma, f"at {snr_db} dB")


class _Buffers:
    """Scratch arrays of one engine call, one per role, carved from one
    allocation of ``_ARENA_COLUMNS`` doubles per row of a ``rows``-row
    chunk.

    ``get(role, shape)`` returns a view of the role's memory with that
    shape, contiguous in ``order`` as a fresh array would be, so the
    arithmetic on it is the same.  A role is carved at its first use, and
    again when a larger shape is asked for; once the arena is full, a role
    gets an array of its own.  A caller is done with a view before its
    role is asked for again; no public function returns one.

    One allocation per engine call, not one per role or per chunk: once
    glibc has freed one arena, it serves the next one from its heap and
    keeps that memory mapped, so later engine calls in the same process
    fault in no new pages.
    """

    def __init__(self, rows: int):
        self._arena = np.empty(_ARENA_COLUMNS * max(rows, 1) * 8, np.uint8)
        self._top = 0
        self._flat: dict[str, np.ndarray] = {}

    def get(self, role: str, shape, dtype=float, order: str = "C") -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(role)
        if flat is None or flat.size < size:
            nbytes = size * np.dtype(dtype).itemsize
            if self._top + nbytes <= self._arena.size:
                flat = self._arena[self._top : self._top + nbytes].view(dtype)
                self._top += -(-nbytes // 64) * 64
            else:
                flat = np.empty(size, dtype)
            self._flat[role] = flat
        return flat[:size].reshape(shape, order=order)


def _scores(received: np.ndarray, h: HypothesisSet, work=None) -> np.ndarray:
    """The (N, M) linear discriminants r . v_m - |v_m|**2 / 2 of an (N, K)
    batch of received vectors r against the hypotheses v_m, in Fortran
    (column-major) order.  ``detect_ml`` is their one caller: the mutual
    information forms its gaps from the noise (``_information``).

    A row ranks the hypotheses as -|r - v_m|**2 / 2 does: the two differ
    by |r|**2 / 2, which every column of the row shares.  In Fortran
    order each column is contiguous, so a reduction along a row runs as
    M passes over whole columns.  The product is numpy's own einsum loop,
    which starts no BLAS threads.  ``work`` holds the scores when given.
    """
    work = _Buffers(len(received)) if work is None else work
    scores = work.get("scores", (len(received), h.m), order="F")
    np.einsum("nk,mk->nm", received, h.vectors, out=scores)
    scores -= 0.5 * np.einsum("mk,mk->m", h.vectors, h.vectors)
    return scores


def detect_ml(received: np.ndarray, h: HypothesisSet, work=None) -> np.ndarray:
    """Minimum-distance detection of an (N, K) batch of finite received
    vectors, one symbol index per row; ties break to the lowest symbol
    index.

    Detection takes the argmax of the linear discriminants
    r . v_m - |v_m|**2 / 2 of ``_scores``, which is the argmin of the
    squared distances |r - v_m|**2 up to rounding.  The argmax runs as
    one pass over each of the M contiguous score columns, keeping the
    first maximum, so the scores are never copied to row order.  On
    finite input it equals ``np.argmax(_scores(received, h), axis=1)``.
    On a row with a nan score the two differ: ``np.argmax`` returns the
    first nan, the column pass the first maximum of the scores before it.

    A received vector nearer to hypothesis i than half the distance from i
    to its nearest other hypothesis always decodes to i.  Half the distance
    to some other neighbour is not enough when a nearer one exists.

    Without ``work`` the result is a new array.  The Monte Carlo passes its
    ``_Buffers``, and then the result is a view that the next call
    overwrites.
    """
    work = _Buffers(len(received)) if work is None else work
    scores = _scores(np.asarray(received, dtype=float), h, work)
    n = len(scores)
    best = work.get("best", (n,))
    np.copyto(best, scores[:, 0])
    index = work.get("index", (n,), np.intp)
    index.fill(0)
    better = work.get("better", (n,), bool)
    step = work.get("step", (n,), np.intp)
    for m in range(1, h.m):
        column = scores[:, m]
        # index < m on every row, so the maximum takes m exactly where
        # the column is strictly better: a masked store costs far more.
        np.multiply(np.greater(column, best, out=better), m, out=step)
        np.maximum(index, step, out=index)
        np.maximum(best, column, out=best)
    return index


def _uniform_blocks(
    seed: int, stream: int, start: int, count: int, out=None
) -> np.ndarray:
    """(count, 4) doubles in [2**-54, 1 - 2**-53]; symbol n maps to
    counter block n.  They are written into ``out`` when it is given, and
    into a new array otherwise.

    Each double is (53 high bits of one raw Philox word) * 2**-53 + 2**-54.
    For the top word that sum is a tie that rounds to 1.0, where ``ndtri``
    is +inf, so it is clamped to 1 - 2**-53; no other word moves.
    """
    key = np.array([seed, stream], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key, counter=start))
    u = gen.random((count, 4)) if out is None else gen.random(out=out)
    u += 2.0**-54
    np.minimum(u, 1.0 - 2.0**-53, out=u)
    return u


def _map_shared_draws(hs, sigma_grid, seed: int, n: int, score, work=None):
    """Per grid point and hypothesis set, the list of
    ``score(h, sigma, symbols, z)`` over the fixed ``_CHUNK``-symbol chunks
    of the (seed, 0) draws.  ``sigma_grid`` has one row per grid point and
    one sigma per set in each row; z is the (N, h.bands) standard Gaussian
    noise.

    The chunk grid is the outer loop: a chunk's uniforms, Gaussian noise
    and symbols are drawn once, into ``work``, and every (grid point, set)
    pair is scored on them.  Set h takes its symbols from the first
    uniform and its noise from the next ``h.bands`` ones, exactly as if it
    were drawn alone.  The noise is Fortran-ordered, and so are the
    received batch and the gaps built from it: the fast layout of
    ``_scores``.
    """
    work = _Buffers(min(_CHUNK, n)) if work is None else work
    bands = max(h.bands for h in hs)
    scores = [[[] for _ in hs] for _ in sigma_grid]
    for a in range(0, n, _CHUNK):
        count = min(_CHUNK, n - a)
        u = _uniform_blocks(seed, 0, a, count, work.get("uniforms", (count, 4)))
        z = ndtri(u[:, 1 : 1 + bands], out=work.get("noise", (count, bands), order="F"))
        symbols_of = {}
        for m in {h.m for h in hs}:
            # min(floor(u * m), m - 1), as ``astype`` would truncate it.
            scaled = np.multiply(u[:, 0], m, out=work.get("scaled", (count,)))
            symbols = symbols_of[m] = work.get(f"symbols{m}", (count,), np.int64)
            np.copyto(symbols, scaled, casting="unsafe")
            np.minimum(symbols, m - 1, out=symbols)
        for sigmas, point in zip(sigma_grid, scores):
            for h, sigma, out in zip(hs, sigmas, point):
                out.append(score(h, sigma, symbols_of[h.m], z[:, : h.bands]))
    return scores


def _batch(hypothesis_sets) -> tuple[HypothesisSet, ...]:
    hs = tuple(hypothesis_sets)
    if not hs:
        raise ValueError("no hypothesis sets given")
    if any(h.bands > 3 for h in hs):
        raise ValueError("a symbol draws noise for at most 3 bands")
    return hs


def _grid(snr_db_grid) -> tuple[float, ...]:
    """The SNR grid as a non-empty, strictly increasing tuple of floats."""
    grid = tuple(float(s) for s in snr_db_grid)
    if not grid:
        raise ValueError("empty SNR grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("SNR grid must be strictly increasing")
    return grid


def _symbol_errors(h, sigma, symbols, z, work: _Buffers) -> int:
    # The scaled noise fixes the Fortran order of the received batch, and
    # the hypotheses are gathered onto it band by band; sigma z + v rounds
    # as v + sigma z does.  Every index is in range, and mode "clip" keeps
    # ``take`` from buffering its output.
    n = len(z)
    received = np.multiply(z, sigma, out=work.get("received", z.shape, order="F"))
    gathered = work.get("gathered", (h.bands, n))
    received += np.take(h.vectors.T, symbols, axis=1, out=gathered, mode="clip").T
    detected = detect_ml(received, h, work)
    wrong = np.not_equal(detected, symbols, out=work.get("wrong", (n,), bool))
    return int(np.count_nonzero(wrong))


def simulate_ser(
    hypothesis_sets, snr_db_grid, n_symbols: int, seed: int
) -> tuple["Curve", ...]:
    """Monte Carlo symbol error rate over an SNR grid, one curve per
    hypothesis set.

    Symbol n at every grid point carries the draws of counter n of the
    (seed, 0) Philox stream, scaled by that point's sigma, so each point is
    reproducible bit-for-bit for any grid, chunking or batch it is
    simulated in, and each curve is non-increasing up to rounding.

    ``bench/spans.py`` binds ``snr_db_grid`` and ``n_symbols`` by name to
    count the simulated symbols; keep those parameter names.
    """
    hs = _batch(hypothesis_sets)
    grid = _grid(snr_db_grid)
    if n_symbols < 1:
        raise ValueError("n_symbols must be >= 1")
    sigma_grid = [[noise_sigma(h.vectors, snr_db) for h in hs] for snr_db in grid]
    work = _Buffers(min(_CHUNK, n_symbols))
    count_errors = partial(_symbol_errors, work=work)
    errors = _map_shared_draws(hs, sigma_grid, seed, n_symbols, count_errors, work)
    return tuple(
        Curve(grid, tuple(sum(c) / n_symbols for c in per_point), seed, n_symbols)
        for per_point in zip(*errors)
    )


def union_bound_ser(h: HypothesisSet, snr_db_grid) -> tuple[float, ...]:
    """Pairwise union bound (1/M) sum_i sum_{j != i} Q(d_ij / (2 sigma)) of
    a hypothesis set at each SNR of the grid, with sigma from
    ``noise_sigma`` of the received vectors and Q(x) = erfc(x / sqrt 2) / 2.
    The pair distances d_ij are computed once for the whole grid."""
    delta = h.vectors[:, None, :] - h.vectors[None, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", delta, delta))
    bounds = []
    for snr_db in snr_db_grid:
        q = 0.5 * erfc(d / (2.0 * noise_sigma(h.vectors, snr_db)) / math.sqrt(2.0))
        np.fill_diagonal(q, 0.0)
        bounds.append(float(q.sum()) / h.m)
    return tuple(bounds)


def ser_curves(
    hypothesis_sets, grid, n_symbols: int, seed: int
) -> tuple[tuple["Curve", "Curve"], ...]:
    """Per hypothesis set, the Monte Carlo SER curve and its union-bound
    curve over the same grid; ``simulate_ser`` checks the sets and the
    grid."""
    hs = tuple(hypothesis_sets)
    return tuple(
        (ser, Curve(ser.snr_db, union_bound_ser(h, ser.snr_db), seed, n_symbols))
        for h, ser in zip(hs, simulate_ser(hs, grid, n_symbols, seed))
    )


def logsumexp(a: np.ndarray) -> np.ndarray:
    """Row-wise log(sum(exp(a))) of a real 2-D array.

    The same arithmetic as ``scipy.special.logsumexp(a, axis=1)``, bit for
    bit, without its second full pass: the row maxima are taken out of
    the sum, and ``log1p(s / m) + log(m) + max`` is returned, with m the
    number of entries tied at the maximum.  Their terms are zeroed by a
    multiply, where scipy sums exp(-inf).  Rows where the result is not
    finite fall back to the direct ``log(sum(exp(row)))``, as scipy's do.

    Both C and Fortran order match scipy on the same array.  With few
    columns Fortran order is the fast one: each row reduction then runs
    over whole contiguous columns.

    No path in the package calls it: ``_information`` references each
    draw to its own symbol and needs no row maximum.  It stays, tested,
    while the benchmark traces it: ``bench/spans.py`` names
    ``linksim.logsumexp``, and an entry point it cannot find fails the
    trace check as ``not traced``.
    """
    # An overflow is harmless: a - a_max that rounds to -inf has exp 0,
    # and exp overflows only in the fallback, on rows scipy also takes to
    # inf or nan.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=1, keepdims=True)
        ties = a == a_max
        m = np.sum(ties, axis=1, keepdims=True, dtype=a.dtype)
        # In place: a second array of a's size costs more than the exp.
        terms = a - a_max
        np.exp(terms, out=terms)
        terms *= ~ties
        s = np.sum(terms, axis=1, keepdims=True)
        out = (np.log1p(s / m) + np.log(m) + a_max)[:, 0]
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.sum(np.exp(a[bad]), axis=1))
    return out


def _information(h, sigma, symbols, z, work=None) -> float:
    """Sum over the draws of log2(M p(y|s) / sum_j p(y|s_j)), referenced
    to each draw's own symbol s, from the draws' noise z.

    With y = v_s + sigma z, the log-likelihood gap of hypothesis j is
    d_j = z . (v_j - v_s) / sigma - |v_j - v_s|**2 / (2 sigma**2).  It is
    formed from the noise and the scaled hypotheses V / sigma, not as a
    difference of likelihoods, so hypotheses that nearly coincide keep
    their gap at any SNR.  A draw contributes
    log2 M - log1p(sum_{j != s} exp(d_j)) / ln 2; the terms are summed
    draw by draw, because N log2 M minus their sum cancels.

    The gap is at most |z|**2 / 2 (maximise over (v_j - v_s) / sigma).  A
    noise sample is ndtri of a uniform in [2**-54, 1 - 2**-53] (see
    ``_uniform_blocks``), so |z_k| <= 8.3 and d_j <= 104 on three bands:
    no row maximum needs to come out before the exp.  d is floored at
    -700, which keeps exp off its subnormal slow path; a term below
    exp(-700) cannot change the rounded log2 M - log1p(...) / ln 2.

    z holds at most ``_CHUNK`` draws.  As in ``_symbol_errors``, mode
    "clip" keeps ``take`` from buffering; every index is in range.
    """
    work = _Buffers(len(z)) if work is None else work
    n = len(z)
    scaled = h.vectors / sigma
    d = work.get("gaps", (n, h.m), order="F")
    np.einsum("nk,mk->nm", z, scaled, out=d)
    # The own column, by its index in the column-major buffer of d;
    # ``flat`` is a view of d.
    flat = d.ravel(order="F")
    own = np.multiply(symbols, n, out=work.get("own", (n,), np.int64))
    own += _ROWS[:n]
    d -= np.take(flat, own, out=work.get("own_gap", (n,)), mode="clip")[:, None]
    # table[j, s] = |v_j - v_s|**2 / (2 sigma**2); gathering column s per
    # draw and transposing gives the Fortran order of d.
    delta = scaled[None, :, :] - scaled[:, None, :]
    table = 0.5 * np.einsum("sjk,sjk->js", delta, delta)
    gathered = work.get("gathered", (h.m, n))
    d -= np.take(table, symbols, axis=1, out=gathered, mode="clip").T
    np.maximum(d, -700.0, out=d)
    np.exp(d, out=d)
    # The own term is exp(0) = 1; leave it out of the sum.
    flat[own] = 0.0
    terms = np.sum(d, axis=1, out=work.get("terms", (n,)))
    # log2 M - log1p(others) / ln 2, in place.
    np.log1p(terms, out=terms)
    terms /= math.log(2.0)
    np.subtract(math.log2(h.m), terms, out=terms)
    return float(terms.sum())


def mutual_information(
    hypothesis_sets, sigma_grid, n_samples: int, seed: int
) -> tuple[tuple[float, ...], ...]:
    """Monte Carlo mutual information (bits/symbol) of the equiprobable
    discrete input over the AWGN vector channel.  ``sigma_grid`` has one
    row of noise levels per grid point, one per hypothesis set, and the
    result one tuple of estimates per row.

    Averages log2(M p(y|s) / sum_j p(y|s_j)) over draws; the estimate is
    clamped to [0, log2 M].  Draw n at every grid point is counter n of
    the (seed, 0) Philox stream, so an estimate depends on its sigma, the
    seed, ``n_samples`` and its hypothesis set only.

    ``bench/spans.py`` binds ``n_samples`` by name to count the draws;
    keep that parameter name.
    """
    hs = _batch(hypothesis_sets)
    sigma_grid = [tuple(float(s) for s in row) for row in sigma_grid]
    for row in sigma_grid:
        if len(row) != len(hs):
            raise ValueError("need one sigma per hypothesis set")
        for s in row:
            _checked_sigma(s, "for mutual information")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    work = _Buffers(min(_CHUNK, n_samples))
    information = partial(_information, work=work)
    sums = _map_shared_draws(hs, sigma_grid, seed, n_samples, information, work)
    return tuple(
        tuple(
            min(max(math.fsum(chunks) / n_samples, 0.0), math.log2(h.m))
            for h, chunks in zip(hs, point)
        )
        for point in sums
    )


def rate_curve(
    hypothesis_sets, grid, n_samples: int, seed: int
) -> tuple["Curve", ...]:
    """Achievable rate in bits/s over an SNR grid, one curve per
    hypothesis set: the bandwidth times the mutual information, at one
    symbol per hertz.

    The SNR is referenced to transmit power, so path loss shows up as the
    color- and distance-dependent penalty it is.  One
    ``mutual_information`` call covers the whole grid, so every point
    reads the same (seed, 0) Philox draws.
    """
    hs = _batch(hypothesis_sets)
    snr_db = _grid(grid)
    transmit = [h.transmit_vectors() for h in hs]
    sigma_grid = [[noise_sigma(v, snr) for v in transmit] for snr in snr_db]
    per_point = mutual_information(hs, sigma_grid, n_samples, seed)
    return tuple(
        Curve(snr_db, tuple(BANDWIDTH_HZ * mi for mi in column), seed, n_samples)
        for column in zip(*per_point)
    )


@dataclass(frozen=True)
class Curve:
    """A simulated SER or rate curve over an SNR grid."""

    snr_db: tuple[float, ...]
    values: tuple[float, ...]
    seed: int
    n: int

