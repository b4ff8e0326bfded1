"""End-to-end link evaluation over the underwater channel.

Constellation points are rendered as per-LED luminous fluxes, converted
to radiant power through the photopic efficacy, attenuated per band by
Beer-Lambert loss, and detected as a 3-vector of photocurrent amplitudes
under additive white Gaussian noise.  The module provides Monte Carlo
symbol-error simulation, the pairwise union bound, and mutual-information
rate estimates for 4-UCSK and an OOK baseline, by Monte Carlo
(``mutual_information``, ``rate_curve``) or by a pruned tensor
Gauss-Hermite rule (``quadrature_information``, ``quadrature_rate_curve``).
The engines return bare curves.

The quadrature draws nothing.  It builds its rule with elementwise numpy
alone: the nodes by bisection and Newton's method on the Hermite
three-term recurrence, the weights as Christoffel numbers.  No BLAS or
LAPACK routine runs and ``numpy.polynomial`` is not imported, so its
values cannot depend on a BLAS kernel or its thread count.
``reproduce 4b`` takes its rates from it; ``rate`` keeps the Monte
Carlo.

Reproducibility contract: all random draws come from one counter-based
Philox stream, keyed by (seed, 0), in which symbol n consumes exactly one
counter block.  Every point of an SNR grid and every curve of a batch
reads the same draws (common random numbers): symbol n has the same
uniforms and the same standard noise everywhere, scaled by each point's
sigma.  So a point's value depends on the seed, its SNR, the sample
count and the hypotheses only, not on its index in the grid or on the
other points and curves, and it is bit-identical for any chunking.  A
set reads only the uniform and noise columns it would draw alone.

The Monte Carlo draws each chunk once, with one ``ndtri`` pass, puts it
in symbol order once per alphabet size M by one stable sort, and scores
it per set one symbol s at a time.  The draws of s make one block: the
(M - 1, n_s) projections a_j = z . (v_j - v_s) of their standard noise
z on each other hypothesis j, the part of a draw that sigma does not
change, formed once.  Beside it stands the (M - 1, 1) column b of half
squared distances b_j = |v_j - v_s|**2 / 2 from ``_pair_table``.  The
quadrature takes its pair geometry from the same table and forms the
same projections at its nodes, so both information engines reach the
gap, its floor, exp, log1p and the clamp through one kernel (``_losses``
and ``_bits``).  Each grid point does only the part that depends on its
sigma.

Minimum-distance detection decodes a draw of s as j at sigma when
sigma a_j - b_j > 0, or >= 0 for j < s, since ties go to the lower
index.  So each draw has one critical value kappa, the largest a_j / b_j
(taken one float up for j < s), and it is decoded wrong exactly when
kappa > 1 / sigma.  A decision that is right at one SNR stays right at
every higher one, and a simulated SER curve is non-increasing.

Every chunk-sized intermediate of the Monte Carlo (uniforms, noise,
symbols and the blocks' noise, projections and mutual-information gaps)
is a prefix of one float64 scratch block that ``_map_shared_draws``
allocates once per engine call and sizes for the batch's most bands and
hypotheses, so no M or band count needs more.  The arithmetic is the one
a fresh array would get, so the bytes do not depend on the scratch either.

Of scipy the module uses two ufuncs, ``ndtri`` for the noise draws and
``erfc`` for the union bound, and binds them at import as the module
names ``erfc`` and ``ndtri``.  They come from scipy.special's one
extension file, ``scipy.special._ufuncs``, loaded by
``_extension.load_extension``, whose docstring states when it loads that
file alone and when it imports the package instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from ._extension import load_extension
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
    "simulate_ser",
    "union_bound_ser",
    "ser_curves",
    "mutual_information",
    "quadrature_information",
    "rate_curve",
    "quadrature_rate_curve",
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

# The Gauss-Hermite rule of ``quadrature_information``: its order per
# noise axis, the share of the largest tensor weight below which a node
# is pruned, and the name that curves and manifests record.
GH_ORDER = 24
_GH_PRUNE = 1e-10
QUADRATURE_RULE = f"gauss-hermite-{GH_ORDER}"

_CHUNK = 1 << 16


_ufuncs = load_extension("scipy.special._ufuncs")
erfc, ndtri = _ufuncs.erfc, _ufuncs.ndtri


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
        point = c.points()[label]
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


def detect_ml(received: np.ndarray, h: HypothesisSet) -> np.ndarray:
    """Minimum-distance detection of an (N, K) batch of received vectors,
    one symbol index per row: the argmax over m of the linear
    discriminants r . v_m - |v_m|**2 / 2, ties to the lowest index.  That
    is the argmin of the squared distances |r - v_m|**2 up to rounding:
    the two differ by |r|**2 / 2, which every column of a row shares.

    No path in the package calls it.  It is the definition that the tests
    check the Monte Carlo's decisions (``_symbol_errors``) against, and a
    span that ``bench/spans.py`` traces; it stays here until the benchmark
    retires that span.
    """
    received = np.asarray(received, dtype=float)
    scores = np.empty((len(received), h.m), order="F")
    np.einsum("nk,mk->nm", received, h.vectors, out=scores)
    scores -= 0.5 * np.einsum("mk,mk->m", h.vectors, h.vectors)
    return np.argmax(scores, axis=1)


def _uniform_blocks(seed: int, start: int, out: np.ndarray) -> np.ndarray:
    """Counter blocks ``start`` on of the (seed, 0) Philox stream, one per
    row of the (count, 4) ``out``, written there as doubles in
    [2**-54, 1 - 2**-53]; symbol n maps to counter block n.

    Each double is (53 high bits of one raw Philox word) * 2**-53 + 2**-54.
    For the top word that sum is a tie that rounds to 1.0, where ``ndtri``
    is +inf, so it is clamped to 1 - 2**-53; no other word moves.
    """
    key = np.array([seed, 0], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key, counter=start))
    u = gen.random(out=out)
    u += 2.0**-54
    np.minimum(u, 1.0 - 2.0**-53, out=u)
    return u


def _pair_table(h: HypothesisSet) -> np.ndarray:
    """The (K + 1, M - 1, M) table whose column s holds, for the other
    hypotheses j != s in increasing order, the K components of
    v_j - v_s and then b_j = |v_j - v_s|**2 / 2."""
    others = np.array(
        [[j for j in range(h.m) if j != s] for s in range(h.m)], dtype=np.intp
    ).reshape(h.m, h.m - 1)
    delta = h.vectors[others] - h.vectors[:, None, :]
    half = 0.5 * np.einsum("sjk,sjk->sj", delta, delta)
    return np.concatenate([delta.transpose(2, 1, 0), half.T[None]])


def _map_shared_draws(hs, sigma_grid, seed: int, n: int, score):
    """Per hypothesis set, the list over the fixed ``_CHUNK``-symbol
    chunks of the (seed, 0) draws, and within a chunk over the set's
    symbols s, of ``score(sigmas, s, a, b, gaps)``, each a sequence with
    one value per grid point.  ``sigma_grid`` has one row per grid point
    and one sigma per set in each row, and ``sigmas`` is the set's column
    of it.

    The loop runs chunk, alphabet size, symbol, set, then (inside
    ``score``) grid point.  A chunk's uniforms and Gaussian noise z are
    drawn once.  Set h takes its symbols from the first uniform and its
    noise from the next ``h.bands`` ones, exactly as if it were drawn
    alone.  The symbols of each alphabet size M are formed once per chunk
    and put in symbol order by one stable sort, so the n_s draws of symbol
    s are one run of that order, in draw order; their noise is gathered
    once, for every set of size M.  Per set they make one block: ``a`` is
    the (M - 1, n_s) array whose row c holds, for the c-th other
    hypothesis j in increasing order, the projections a_j = z . (v_j - v_s)
    of the block's noise, and ``b`` is the (M - 1, 1) column s of
    b_j = |v_j - v_s|**2 / 2 in ``_pair_table``.  Each row of ``a`` is
    contiguous, the fast layout of a reduction over j.  A symbol with no
    draws in the chunk gives a block with n_s = 0.  A score may overwrite
    ``a`` and ``gaps``, scratch of a's shape: the next block forms its
    own.

    The scratch is one float64 allocation per call, split into flat
    segments of ``min(_CHUNK, n)`` rows times the widths a chunk or block
    can need: uniforms 4, noise and the block's gathered noise the most
    bands of any set, projections and their band terms (later the
    information gaps) the most hypotheses less one, and symbols 1.  Each
    chunk and block takes a contiguous prefix of its segment, so the
    arithmetic, and the bytes, are those of a fresh array, and a block
    writes, and so faults in, only the part its draws need.  One
    allocation per call, not one per chunk or block: once glibc has freed
    it, it serves the next one from its heap and keeps that memory mapped,
    so later engine calls in the same process fault in no new pages.
    """
    size = min(_CHUNK, n)
    bands = max(h.bands for h in hs)
    rows = max(h.m for h in hs) - 1
    edges = np.cumsum([4, bands, bands, rows, rows]) * size
    uniforms, noise, gathered, pairs, terms, codes = np.split(
        np.empty(edges[-1] + size), edges
    )
    tables = [_pair_table(h) for h in hs]
    columns = list(zip(*sigma_grid))
    scores = [[] for _ in hs]
    for start in range(0, n, _CHUNK):
        count = min(_CHUNK, n - start)
        u = _uniform_blocks(seed, start, uniforms[: 4 * count].reshape(count, 4))
        z = noise[: bands * count].reshape(bands, count)
        ndtri(u[:, 1 : 1 + bands], out=z.T)
        for m in dict.fromkeys(h.m for h in hs):
            # The symbols min(floor(u * m), m - 1), truncated into the
            # least unsigned type that holds m, which u * m can round up
            # to.  Up to 16 bits a stable sort is a radix sort.
            symbols = codes.view(np.min_scalar_type(m))[:count]
            np.multiply(u[:, 0], m, out=symbols, casting="unsafe")
            np.minimum(symbols, m - 1, out=symbols)
            order = np.argsort(symbols, kind="stable")
            ends = np.searchsorted(symbols[order], np.arange(1, m, dtype=symbols.dtype))
            for s, draws in enumerate(np.split(order, ends)):
                block = gathered[: bands * draws.size].reshape(bands, -1)
                for k in range(bands):
                    # Every index is in range; mode "clip" keeps ``take``
                    # from buffering its output.
                    np.take(z[k], draws, out=block[k], mode="clip")
                for h, table, sigmas, values in zip(hs, tables, columns, scores):
                    if h.m != m:
                        continue
                    # a = sum over the bands of (v_j - v_s)_k z_k, in band order.
                    a = pairs[: (m - 1) * draws.size].reshape(m - 1, -1)
                    gaps = terms[: a.size].reshape(a.shape)
                    np.multiply(table[0][:, s, None], block[0], out=a)
                    for k in range(1, h.bands):
                        np.multiply(table[k][:, s, None], block[k], out=gaps)
                        a += gaps
                    values.append(score(sigmas, s, a, table[-1][:, s, None], gaps))
    return scores


def _batch(hypothesis_sets) -> tuple[HypothesisSet, ...]:
    hs = tuple(hypothesis_sets)
    if not hs:
        raise ValueError("no hypothesis sets given")
    if any(h.bands > 3 for h in hs):
        raise ValueError("a symbol draws noise for at most 3 bands")
    if any(h.m < 2 for h in hs):
        raise ValueError("a hypothesis set needs at least 2 symbols")
    return hs


def _grid(snr_db_grid) -> tuple[float, ...]:
    """The SNR grid as a non-empty, strictly increasing tuple of floats."""
    grid = tuple(float(s) for s in snr_db_grid)
    if not grid:
        raise ValueError("empty SNR grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("SNR grid must be strictly increasing")
    return grid


def _symbol_errors(sigmas, s, a, b, gaps) -> list[int]:
    """Per sigma, how many draws of a block of symbol s minimum-distance
    detection decodes wrong at that sigma, from their pair projections a
    and half squared distances b (see ``_map_shared_draws``); it
    overwrites a and leaves ``gaps`` unused.

    The detector decodes a received vector r = v_s + sigma z as the
    argmax over j of the discriminants r . v_j - |v_j|**2 / 2, ties to the
    lower index.  So it prefers j to a draw's own symbol s when the
    discriminant gap sigma a_j - b_j is > 0, or >= 0 for j < s.  For
    b_j > 0 that is a_j / b_j > 1 / sigma, or >= for j < s, so a draw is
    wrong at sigma exactly when its critical value kappa, the largest
    a_j / b_j with those of j < s taken one float up, is > 1 / sigma.
    That is the argmax rule in exact arithmetic; the two round
    differently, and the tests check that they agree on every draw they
    compare.  One kappa per draw and one count per sigma replace a
    detection per sigma.  Row c of the block is j = c below s and
    j = c + 1 from s on, so j < s exactly in the rows c < s.  A pair with
    b_j = 0 (coincident rows) is a tie at every sigma: every draw of a
    block with such a j < s is wrong at every sigma, and a j > s changes
    no decision.
    """
    if np.any(b[:s] == 0.0):
        return [a.shape[1]] * len(sigmas)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(a, b, out=a)
    # 1 / sigma is > 0 and below the largest double, so a ratio <= 0 or
    # nan (0 / 0, coincident rows) never exceeds it, and +inf (a_j > 0
    # over a b_j that underflows) always does.
    np.fmax(ratio, 0.0, out=ratio)
    np.fmin(ratio, np.finfo(float).max, out=ratio)
    # On a double >= 0 below +inf, one more in its bit pattern is the
    # next float up, at a fraction of the cost of ``np.nextafter``.
    bits = ratio[:s].view(np.int64)
    bits += 1
    kappa = ratio[0]
    for row in ratio[1:]:
        np.maximum(kappa, row, out=kappa)
    return [int(np.count_nonzero(kappa > 1.0 / sigma)) for sigma in sigmas]


def simulate_ser(
    hypothesis_sets, snr_db_grid, n_symbols: int, seed: int
) -> tuple["Curve", ...]:
    """Monte Carlo symbol error rate over an SNR grid, one curve per
    hypothesis set.

    Symbol n at every grid point carries the draws of counter n of the
    (seed, 0) Philox stream, scaled by that point's sigma, so each point is
    reproducible bit-for-bit for any grid, chunking or batch it is
    simulated in.  Each draw is decided at every sigma by one critical
    value, so each curve is non-increasing.

    ``bench/spans.py`` binds ``snr_db_grid`` and ``n_symbols`` by name to
    count the simulated symbols; keep those parameter names.
    """
    hs = _batch(hypothesis_sets)
    grid = _grid(snr_db_grid)
    if n_symbols < 1:
        raise ValueError("n_symbols must be >= 1")
    sigma_grid = [[noise_sigma(h.vectors, snr_db) for h in hs] for snr_db in grid]
    errors = _map_shared_draws(hs, sigma_grid, seed, n_symbols, _symbol_errors)
    return tuple(
        Curve(grid, tuple(sum(c) / n_symbols for c in zip(*chunks)), seed, n_symbols)
        for chunks in errors
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
    """Row-wise log(sum(exp(a))) of a real 2-D array, by
    ``scipy.special.logsumexp(a, axis=1)``.  scipy.special is imported
    only when it is called, so importing this module does not load it.

    No path in the package calls it: ``_losses`` references each draw to
    its own symbol and needs no row maximum.  It is a span that
    ``bench/spans.py`` traces, and stays here until the benchmark retires
    that span.
    """
    from scipy.special import logsumexp

    return logsumexp(a, axis=1)


def _losses(a, b, sigma: float, gaps: np.ndarray) -> np.ndarray:
    """The information, in nats, that each draw or node loses at sigma,
    log1p(sum_{j != s} exp(d_j)), from its pair projections a and the
    half squared distances b of its symbol s, with the sum over the first
    axis of a.  ``gaps`` has a's shape and the result is a view of it.

    With y = v_s + sigma z, the log-likelihood gap of hypothesis j is
    d_j = (a_j - b_j t) t, with t = 1 / sigma, a_j = z . (v_j - v_s) and
    b_j = |v_j - v_s|**2 / 2; b_j t**2 would overflow before (b_j t) t
    does.  It is formed from the noise, not as a difference of
    likelihoods, so hypotheses that nearly coincide keep their gap at any
    SNR.  The own gap is 0, and the draw carries
    log2 M - loss / ln 2 bits.

    The gap is at most |z|**2 / 2 (maximise over (v_j - v_s) t).  A noise
    sample is ndtri of a uniform in [2**-54, 1 - 2**-53] (see
    ``_uniform_blocks``), so |z_k| <= 8.3 and d_j <= 104 on three bands,
    and a node that the pruned rule keeps has |x|**2 / 2 < 24: no row
    maximum needs to come out before the exp.  d is floored at -700, which keeps exp
    off its subnormal slow path.  The floor lifts each of the M - 1
    terms of a draw by less than exp(-700) < 1e-304, so it moves a mean
    loss, and an information value before its last rounding, by less
    than 1e-303.
    """
    t = 1.0 / sigma
    np.multiply(b, t, out=gaps)
    np.subtract(a, gaps, out=gaps)
    gaps *= t
    np.maximum(gaps, -700.0, out=gaps)
    np.exp(gaps, out=gaps)
    losses = gaps[0]
    for row in gaps[1:]:
        losses += row
    return np.log1p(losses, out=losses)


def _bits(m: int, loss: float, count: int) -> float:
    """The mutual information log2 m - loss / (count ln 2), in bits per
    symbol, of ``count`` equally weighted draws or symbols that lose
    ``loss`` nats in all, clamped to [0, log2 m]."""
    top = math.log2(m)
    return min(max(top - loss / (count * math.log(2.0)), 0.0), top)


def _information(sigmas, s, a, b, gaps) -> list[float]:
    """Per sigma, the information that the draws of a block lose, the sum
    of their ``_losses``, from their pair projections a and half squared
    distances b (see ``_map_shared_draws``), formed in ``gaps``, scratch of
    a's shape; ``mutual_information`` adds the blocks and converts the
    total to bits once, by ``_bits``."""
    return [float(_losses(a, b, sigma, gaps).sum()) for sigma in sigmas]


def _sigma_rows(hs, sigma_grid) -> list[tuple[float, ...]]:
    """The rows of a sigma grid as tuples of floats, after checking that
    there is at least one row, that each holds one sigma per set, and
    each sigma with ``_checked_sigma``."""
    rows = [tuple(float(s) for s in row) for row in sigma_grid]
    if not rows:
        raise ValueError("empty SNR grid")
    for row in rows:
        if len(row) != len(hs):
            raise ValueError("need one sigma per hypothesis set")
        for s in row:
            _checked_sigma(s, "for mutual information")
    return rows


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
    sigma_grid = _sigma_rows(hs, sigma_grid)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    losses = _map_shared_draws(hs, sigma_grid, seed, n_samples, _information)
    per_set = [
        [_bits(h.m, math.fsum(p), n_samples) for p in zip(*blocks)]
        for h, blocks in zip(hs, losses)
    ]
    return tuple(zip(*per_set))


def _hermite(x: np.ndarray, n: int):
    """p_{n-1}(x), p_n(x) and sum_{k < n} p_k(x)**2, elementwise, where p_k
    is the degree-k probabilists' Hermite polynomial orthonormal under the
    standard normal density: sqrt(k) p_k = x p_{k-1} - sqrt(k - 1) p_{k-2},
    with p_0 = 1."""
    prev, cur, squares = np.zeros_like(x), np.ones_like(x), np.zeros_like(x)
    for k in range(1, n + 1):
        squares += cur * cur
        prev, cur = cur, (x * cur - math.sqrt(k - 1) * prev) / math.sqrt(k)
    return prev, cur, squares


def _roots_above(x: np.ndarray, n: int) -> np.ndarray:
    """How many roots of p_n lie above x, elementwise: the sign changes
    along p_0(x), ..., p_n(x) (a Sturm sequence), counted as the negative
    ratios p_k / p_{k-1}.  A ratio of 0 makes the next one infinite with
    the sign that p_{k+1} = -sqrt(k / (k + 1)) p_{k-1} gives it."""
    ratio = x
    count = (ratio < 0.0).astype(np.intp)
    with np.errstate(divide="ignore"):
        for k in range(2, n + 1):
            ratio = (x - math.sqrt(k - 1) / ratio) / math.sqrt(k)
            count += ratio < 0.0
    return count


@lru_cache(maxsize=None)
def _hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Hermite rule of the standard normal density: its
    nodes, increasing, and its weights, which sum to 1.

    The nodes are the roots of p_n (see ``_hermite``), all in
    |x| < sqrt(4 n + 2).  Each is first bracketed by bisection on
    ``_roots_above``, to 2**-12 of that interval, which for n up to a few
    hundred is a small part of the spacing of the roots (about pi /
    sqrt(n) at the centre).  It is then found by Newton's method with
    p_n' = sqrt(n) p_{n-1}, and the rule is made exactly symmetric.  The
    weights are the Christoffel numbers 1 / sum_{k < n} p_k(x)**2.  All of
    it is elementwise numpy on n values: no BLAS or LAPACK routine runs,
    so the rule cannot depend on one.
    """
    index = np.arange(n)
    hi = np.full(n, math.sqrt(4 * n + 2))
    lo = -hi
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        # Root i, counted from the lowest, lies above mid.
        below = _roots_above(mid, n) >= n - index
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    x = 0.5 * (lo + hi)
    for _ in range(100):
        prev, cur = _hermite(x, n)[:2]
        step = cur / (math.sqrt(n) * prev)
        x -= step
        if np.all(np.abs(step) <= 1e-14 * np.maximum(np.abs(x), 1.0)):
            break
    nodes = 0.5 * (x - x[::-1])
    weights = 1.0 / _hermite(nodes, n)[2]
    for a in (nodes, weights):
        a.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=None)
def _tensor_rule(n: int, bands: int) -> tuple[np.ndarray, np.ndarray]:
    """The tensor product of the n-point rule over ``bands`` noise axes,
    less the nodes whose weight is below ``_GH_PRUNE`` of the largest
    (Jäckel 2005): a (bands, N) array of nodes and their N weights,
    rescaled to sum to 1 so that the rule keeps a constant exact."""
    x, w = _hermite_rule(n)
    axes = np.meshgrid(*[x] * bands, indexing="ij")
    weights = reduce(np.multiply.outer, [w] * bands).ravel()
    keep = weights >= _GH_PRUNE * weights.max()
    nodes = np.stack([axis.ravel()[keep] for axis in axes])
    weights = weights[keep] / math.fsum(weights[keep])
    for a in (nodes, weights):
        a.setflags(write=False)
    return nodes, weights


def _rule_information(h: HypothesisSet, sigmas, order: int = GH_ORDER) -> list[float]:
    """Per sigma, the mutual information of h by the pruned ``order``-point
    tensor rule (see ``quadrature_information``).

    Per set, the pair projections a_j = x . (v_j - v_s) of every node x
    and symbol s are formed once, from ``_pair_table``, as an
    (M - 1, M, N) array beside the (M - 1, M, 1) half squared distances.
    Each sigma then takes the ``_losses`` of the nodes, their weighted
    sum over the nodes and symbols, and ``_bits`` of it.
    """
    x, w = _tensor_rule(order, h.bands)
    table = _pair_table(h)
    a = table[0][..., None] * x[0]
    for k in range(1, h.bands):
        a += table[k][..., None] * x[k]
    b = table[-1][..., None]
    gaps = np.empty_like(a)
    return [
        _bits(h.m, float((_losses(a, b, sigma, gaps) * w).sum()), h.m)
        for sigma in sigmas
    ]


def quadrature_information(
    hypothesis_sets, sigma_grid
) -> tuple[tuple[float, ...], ...]:
    """Mutual information (bits/symbol) of the equiprobable discrete input
    over the AWGN vector channel, by a Gauss-Hermite rule: the arguments,
    the checks, the result and the clamp of ``mutual_information``, with
    no draws.

    Per symbol s, the information lost is the mean over the noise z of
    log1p(sum_{j != s} exp(d_j)), with d_j = (z . (v_j - v_s) - b_j t) t
    and t = 1 / sigma, the ``_losses`` of the Monte Carlo's draws.  The
    mean is taken by the tensor product of the ``GH_ORDER``-point
    Gauss-Hermite rule over the K noise axes, less the nodes whose weight
    is below ``_GH_PRUNE`` of the largest (P. Jäckel, "A note on
    multivariate Gauss-Hermite quadrature", 2005): 4,560 nodes per symbol
    on three bands, and 20 on one.  The tests check it within 1e-4 bits
    of the 48-point rule at every point of ``reproduce 4b``.
    """
    hs = _batch(hypothesis_sets)
    sigma_grid = _sigma_rows(hs, sigma_grid)
    per_set = [_rule_information(h, column) for h, column in zip(hs, zip(*sigma_grid))]
    return tuple(zip(*per_set))


def _transmit_sigmas(hs, snr_db) -> list[list[float]]:
    """Per SNR, the sigma of each set referenced to its transmit vectors."""
    transmit = [h.transmit_vectors() for h in hs]
    return [[noise_sigma(v, snr) for v in transmit] for snr in snr_db]


def rate_curve(
    hypothesis_sets, grid, n_samples: int, seed: int
) -> tuple["Curve", ...]:
    """Achievable rate in bits/s over an SNR grid, one curve per
    hypothesis set: the bandwidth times the mutual information, at one
    symbol per hertz.

    The SNR is referenced to transmit power, so path loss shows up as the
    color- and distance-dependent penalty it is.  One
    ``mutual_information`` call covers the whole grid, so every point
    reads the same (seed, 0) Philox draws.  ``mutual_information``
    checks the sets.
    """
    hs = tuple(hypothesis_sets)
    snr_db = _grid(grid)
    per_point = mutual_information(hs, _transmit_sigmas(hs, snr_db), n_samples, seed)
    return tuple(
        Curve(snr_db, tuple(BANDWIDTH_HZ * mi for mi in column), seed, n_samples)
        for column in zip(*per_point)
    )


def quadrature_rate_curve(hypothesis_sets, grid) -> tuple["Curve", ...]:
    """``rate_curve`` with the mutual information of
    ``quadrature_information``: the same transmit-referenced SNR and
    bandwidth, and curves that carry the rule, ``QUADRATURE_RULE``, in
    place of a seed and a count."""
    hs = tuple(hypothesis_sets)
    snr_db = _grid(grid)
    per_point = quadrature_information(hs, _transmit_sigmas(hs, snr_db))
    return tuple(
        Curve(snr_db, tuple(BANDWIDTH_HZ * mi for mi in column), rule=QUADRATURE_RULE)
        for column in zip(*per_point)
    )


@dataclass(frozen=True)
class Curve:
    """An SER or rate curve over an SNR grid: a Monte Carlo curve carries
    its seed and count, a quadrature curve its rule."""

    snr_db: tuple[float, ...]
    values: tuple[float, ...]
    seed: int | None = None
    n: int | None = None
    rule: str | None = None

