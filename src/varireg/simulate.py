"""Seeded generators: warp laws, latent models, noisy observation, and the
analytic two-process construction used as a registration oracle.

All randomness flows through counter-based per-curve substreams keyed by
(seed, stream index), so results are independent of evaluation order and
thread count.  Scalar distributions are built from uniform primitives
(Box-Muller normals, Poisson by inversion, Beta(2,2) as the median of three
uniforms) so streams are stable across library versions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySample, NotRankOne
from .variation import DiscreteCurve, StepCdf, discrete_variation_cdf

_SQRT2 = math.sqrt(2.0)
_BISECT_ITERS = 52  # |interval| <= 2^-52 < 1e-12 after bisection
_BLOCK_CELLS = 1 << 16  # (warp, point) cells bisected together; bounds temporaries


def substream(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for one (seed, stream) pair."""
    if seed < 0 or stream < 0:
        raise ValueError("seed and stream must be nonnegative")
    key = ((int(seed) % 2**64) << 64) | (int(stream) % 2**64)
    return np.random.Generator(np.random.Philox(key=key))


def _normal(rng, mean=0.0, sd=1.0) -> float:
    u1 = 1.0 - rng.random()
    u2 = rng.random()
    return mean + sd * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def _poisson(rng, lam: float) -> int:
    u = rng.random()
    p = math.exp(-lam)
    cum = p
    k = 0
    while u >= cum and k < 500:
        k += 1
        p *= lam / k
        cum += p
    return k


def _beta22(rng) -> float:
    u = sorted(rng.random(3))
    return float(u[1])


class AnalyticWarp:
    """Strictly increasing homeomorphism of [0,1], given in closed form.

    The inverse is the midpoint of the cell of width 2^-52 that 52 bracketed
    bisection steps reach (``invert_warps``); a sine mixture skips the steps
    that a certified dyadic cell already settles.
    """

    def __call__(self, t):
        raise NotImplementedError

    def inverse(self, t):
        t = np.asarray(t, dtype=float)
        out = invert_warps([self], t)[0].reshape(t.shape)
        return out if out.ndim else float(out)


class IdentityWarp(AnalyticWarp):
    def __call__(self, t):
        return np.asarray(t, dtype=float)


class SineMixtureWarp(AnalyticWarp):
    """Convex mixture of the maps t - sin(pi*k*t) / (|k|*pi*beta).

    Each component fixes 0 and 1 and has slope at least 1 - 1/beta, and so
    does the mixture; the zero-frequency component is the identity.
    """

    def __init__(self, ks, weights, beta: float):
        self.ks = np.asarray(ks, dtype=int)
        self.weights = np.asarray(weights, dtype=float)
        self.beta = float(beta)
        if self.ks.shape != self.weights.shape:
            raise ValueError("need one weight per component")
        if abs(self.weights.sum() - 1.0) > 1e-9 or (self.weights < 0).any():
            raise ValueError("weights must be a convex combination")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = _SineStack([self])(t.ravel())[0].reshape(t.shape)
        return out if out.ndim else float(out)


def invert_warps(warps, t) -> np.ndarray:
    """Inverses of ``warps`` at the points ``t``, as a (len(warps), t.size) array.

    One bracketed bisection (``_bisect``) runs over every (warp, point) cell
    at once, in row blocks of about ``_BLOCK_CELLS`` cells
    (``_forward_blocks``).  A block of SineMixtureWarp rows starts from the
    cells that its first ``depth`` steps reach, found and certified by
    ``_SineStack.cells``; other warps bisect from [0, 1].  Each row gets the
    bits that bisecting its warp alone would give, and IdentityWarp rows are
    ``t`` exactly.
    """
    t = np.asarray(t, dtype=float).ravel()
    out = np.empty((len(warps), t.size))
    out[:] = t
    for block, forward in _forward_blocks(warps, t.size):
        if isinstance(forward, _SineStack):
            depth, lo, hi = forward.cells(t)
        else:
            depth, lo, hi = 0, *_unit_cells((len(block), t.size))
        lo, hi = _bisect(forward, t, lo, hi, _BISECT_ITERS - depth)
        out[block] = (lo + hi) / 2.0
    return out


def _unit_cells(shape):
    """(lo, hi) of the whole interval (0, 1] for every cell of ``shape``."""
    return np.zeros(shape), np.ones(shape)


def _bisect(forward, t, lo, hi, steps):
    """``steps`` halvings of each cell (lo, hi], kept where ``forward`` crosses ``t``."""
    for _ in range(steps):
        mid = (lo + hi) / 2.0
        above = forward(mid) >= t
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return lo, hi


def evaluate_warps(warps, t, table=None) -> np.ndarray:
    """``warps`` at the points ``t``, as a (len(warps), t.size) array.

    Runs in the row blocks of ``invert_warps``.  Each row has the bits of
    its warp called alone, and IdentityWarp rows are ``t`` exactly.  A
    ``sine_table`` of these warps or more, at ``t``, saves every block
    taking its sines again.
    """
    t = np.asarray(t, dtype=float).ravel()
    out = np.empty((len(warps), t.size))
    out[:] = t
    for block, forward in _forward_blocks(warps, t.size):
        out[block] = forward(t, table)
    return out


def sine_table(warps, t):
    """(frequencies, sines): each distinct frequency of the SineMixtureWarps
    in ``warps``, and 0, in order, and its sine at every point of ``t``, one row each."""
    return _sines(np.concatenate([[0.0], *(np.pi * w.ks for w in warps if isinstance(w, SineMixtureWarp))]), t)


def _sines(freq, t):
    """Each distinct value of ``freq``, in order, and its sine at every point of ``t``, one row each."""
    freq = np.unique(freq)
    return freq, np.sin(freq[:, None] * np.asarray(t, dtype=float).ravel())


def _forward_blocks(warps, m):
    """(rows, forward map) for blocks of at most about _BLOCK_CELLS cells of m points.

    SineMixtureWarp rows share one stacked forward map; other warps are
    evaluated row by row.  IdentityWarp rows are left out.
    """
    sine = [i for i, w in enumerate(warps) if isinstance(w, SineMixtureWarp)]
    other = [i for i, w in enumerate(warps) if not isinstance(w, (SineMixtureWarp, IdentityWarp))]
    step = max(1, _BLOCK_CELLS // max(m, 1))
    for rows, forward_map in ((sine, _SineStack), (other, _row_by_row)):
        for start in range(0, len(rows), step):
            block = rows[start:start + step]
            yield block, forward_map([warps[i] for i in block])


class _SineStack:
    """Forward map of SineMixtureWarp rows on a (rows, m) array, or on m points shared by all.

    Frequencies and weights are stacked into (rows, J) arrays, padded with
    k = 0 and w = 0.  Each term is w*sin((pi*k)*t)/((|k|*pi)*beta),
    subtracted from t in component order; with the denominator's |k| raised
    to 1, a zero frequency subtracts an exact 0.0.  On shared points each
    distinct frequency's sine is taken once, or read from a ``sine_table``.

    On [0, 1] the computed map is within E = (J + 4) * 2^-52 of the exact
    mixture of the stored k, w and beta: each term's argument, np.sin (taken
    as within 4 ulp), product and quotient add at most 6w * 2^-53, and each
    subtraction rounds a value of size at most 1.32.  The exact map has slope
    at least s = 1 - sum(w)/|beta|, so ``depth`` is the largest d with
    s * 2^-d >= 2E for every row (0 when there is none).
    """

    def __init__(self, warps):
        self.warps = warps
        J = max(w.ks.size for w in warps)
        ks = np.zeros((len(warps), J))
        weights = np.zeros((len(warps), J))
        for row, w in enumerate(warps):
            ks[row, : w.ks.size] = w.ks
            weights[row, : w.ks.size] = w.weights
        beta = np.array([[w.beta] for w in warps])
        self.freq = np.pi * ks
        self.weights = weights
        self.denom = np.maximum(np.abs(ks), 1.0) * np.pi * beta
        self.tilt = weights * np.sign(ks) / beta  # the slope is 1 - sum_j tilt_j * cos(freq_j * t)
        self.min_slope = float(np.min(1.0 - weights.sum(axis=1) / np.abs(beta[:, 0])))
        bound = (J + 4) * 2.0**-52
        self.depth = max(0, math.frexp(max(self.min_slope, 0.0) / (2.0 * bound))[1] - 1)

    def __call__(self, t, table=None):
        out = np.empty((len(self.warps), t.shape[-1]))
        out[:] = t
        term = np.empty_like(out)
        if t.ndim == 1:
            freq, sines = table or _sines(self.freq, t)
            at = np.searchsorted(freq, self.freq)
        for j in range(self.freq.shape[1]):
            if t.ndim == 1:
                np.take(sines, at[:, j], axis=0, out=term)
            else:
                np.multiply(self.freq[:, j : j + 1], t, out=term)
                np.sin(term, out=term)
            np.multiply(self.weights[:, j : j + 1], term, out=term)
            np.divide(term, self.denom[:, j : j + 1], out=term)
            out -= term
        return np.clip(out, 0.0, 1.0, out=out)

    def cells(self, t):
        """(depth, lo, hi): the cells (lo, hi] that ``depth`` bisection steps reach at ``t``.

        The estimate (``estimate``) picks the upper-closed dyadic cell of
        width 2^-depth that holds it.  The cell is the bisection's when its
        edges pass the bisection's own tests, map(lo) < t unless lo = 0 and
        map(hi) >= t unless hi = 1: every earlier midpoint lies at least
        2^-depth beyond an edge, where the map moves by s * 2^-depth >= 2E,
        so no rounding can turn its test.  A cell that fails takes the
        first ``depth`` steps from [0, 1] on its own.
        """
        if self.depth == 0 or t.size == 0:
            return 0, *_unit_cells((len(self.warps), t.size))
        x = self.estimate(t)
        scale = 2.0**self.depth
        k = np.clip(np.ceil(x * scale) - 1.0, 0.0, scale - 1.0)
        lo, hi = k / scale, (k + 1.0) / scale
        rows, cols = np.nonzero(~(((lo == 0.0) | (self(lo) < t)) & ((hi == 1.0) | (self(hi) >= t))))
        if rows.size:  # one stacked row per lost cell, so each takes its own first steps
            at = t[cols, None]
            lost = _bisect(_SineStack([self.warps[i] for i in rows]), at, *_unit_cells(at.shape), self.depth)
            lo[rows, cols], hi[rows, cols] = lost[0][:, 0], lost[1][:, 0]
        return self.depth, lo, hi

    def estimate(self, t):
        """Inverse estimates at ``t``: per-row np.interp of the map at the
        sorted points, then three Newton steps, each clipped to [0, 1]."""
        ts = np.clip(np.sort(t), 0.0, 1.0)
        x = np.array([np.interp(t, row, ts) for row in self(ts)])
        for _ in range(3):
            slope = 1.0 - sum(self.tilt[:, j : j + 1] * np.cos(self.freq[:, j : j + 1] * x)
                              for j in range(self.freq.shape[1]))
            x = np.clip(x - (self(x) - t) / np.maximum(slope, self.min_slope), 0.0, 1.0)
        return x


def _row_by_row(warps):
    """Forward map that calls each warp on its own row of points, or on shared points."""

    def forward(t, table=None):
        out = np.empty((len(warps), t.shape[-1]))
        for row, w in enumerate(warps):
            out[row] = w(t if t.ndim == 1 else t[row])
        return out

    return forward


@dataclass(frozen=True)
class WarpLawConfig:
    """Random sine-mixture warp law with Poisson-signed frequencies."""

    J: int = 2
    beta: float = 1.01
    poisson_rate: float = 3.0

    def __post_init__(self):
        if self.J < 2:
            raise ValueError("mixture size J must be at least 2")
        if not self.beta > 1.0:
            raise ValueError("beta must exceed 1 (keeps warps strictly increasing)")


def sample_warp(cfg: WarpLawConfig, rng) -> SineMixtureWarp:
    """One random warp: signed-Poisson frequencies mixed by uniform spacings."""
    ks = []
    for _ in range(cfg.J):
        v1 = _poisson(rng, cfg.poisson_rate)
        sign = 1 if rng.random() < 0.5 else -1
        ks.append(v1 * sign)
    u = np.sort(rng.random(cfg.J - 1))
    bounds = np.concatenate(([0.0], u, [1.0]))
    weights = np.diff(bounds)
    return SineMixtureWarp(ks, weights, cfg.beta)


_SINES = (  # orthonormal on [0,1]
    lambda t: _SQRT2 * np.sin(np.pi * t),
    lambda t: _SQRT2 * np.cos(2 * np.pi * t),
    lambda t: _SQRT2 * np.cos(4 * np.pi * t),
)
_RANK3 = list(zip(_SINES, [
    lambda rng: _normal(rng, 1.5, 1.0),
    lambda rng: _normal(rng, -0.5, math.sqrt(0.15)),
    lambda rng: _normal(rng, 0.5, 0.15),
]))
# each model's (basis function, coefficient draw) pairs, in stream order
_MODELS = {
    "model1": lambda cfg: [(lambda t: np.exp(np.cos(2 * np.pi * t - np.pi)), lambda rng: _normal(rng, 1.5, 1.0))],
    "model2": lambda cfg: [
        (lambda t: (1.0 - (t - 0.25) ** 2) * np.cos(3 * np.pi * t), lambda rng: 1.0 + _beta22(rng))
    ],
    "rank2": lambda cfg: _RANK3[:2],
    "rank3": lambda cfg: _RANK3,
    "breakdown": lambda cfg: list(zip(_SINES, [
        lambda rng: _normal(rng, 3.0 * cfg.c, 1.0),
        lambda rng: _normal(rng, -cfg.c, math.sqrt(cfg.r_scale)),
        lambda rng: _normal(rng, cfg.c, cfg.r_scale),
    ]))[: cfg.rank],
}
MODEL_NAMES = tuple(_MODELS)


@dataclass(frozen=True)
class LatentModelConfig:
    """Named latent-process family with its observation design."""

    name: str
    grid_size: int = 101
    noise_halfwidth: float = 0.0
    c: float = None          # breakdown family only
    r_scale: float = None    # breakdown family only
    rank: int = 2            # breakdown family only: 2 or 3

    def __post_init__(self):
        if self.name not in MODEL_NAMES:
            raise ValueError(f"unknown model {self.name!r}; choose from {MODEL_NAMES}")
        if self.grid_size < 3:
            raise ValueError("grid_size must be at least 3")
        if self.noise_halfwidth < 0:
            raise ValueError("noise_halfwidth must be nonnegative")
        if self.name == "breakdown":
            if self.c is None or self.r_scale is None:
                raise ValueError("breakdown model needs c and r_scale")
            if self.rank not in (2, 3):
                raise ValueError("breakdown rank must be 2 or 3")
            if not 0.0 <= self.r_scale < math.inf:  # nan fails too
                raise ValueError(f"r_scale must be finite and nonnegative, got {self.r_scale!r}")

    @property
    def is_rank_one(self) -> bool:
        return self.name in ("model1", "model2")

    def basis(self):
        return [phi for phi, _ in _MODELS[self.name](self)]


class LatentDraw:
    """One latent curve: fixed coefficients against a deterministic basis."""

    def __init__(self, coefficients, basis):
        self.coefficients = np.asarray(coefficients, dtype=float)
        self.basis = list(basis)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for xi, phi in zip(self.coefficients, self.basis):
            out = out + xi * phi(t)
        return out


def sample_latent(cfg: LatentModelConfig, rng) -> LatentDraw:
    """Draw one latent curve from the configured family."""
    model = _MODELS[cfg.name](cfg)
    coefficients = [draw(rng) for _, draw in model]
    # the breakdown draws scale with c and r_scale.  Its basis is bounded by
    # sqrt(2) in size, and this sum bounds every partial sum of LatentDraw's,
    # taken in the same order: where it is finite, no curve overflows
    if not math.isfinite(sum(abs(xi) * _SQRT2 for xi in coefficients)):
        raise ValueError(f"c={cfg.c!r} and r_scale={cfg.r_scale!r} give a curve that is not finite")
    return LatentDraw(coefficients, [phi for phi, _ in model])


def observe(latent, warp: AnalyticWarp, grid, noise_halfwidth: float, rng) -> DiscreteCurve:
    """Warped point evaluations plus uniform measurement error."""
    grid = np.asarray(grid, dtype=float)
    noise = _noise(noise_halfwidth, grid.size, rng)
    values = latent(warp.inverse(grid))
    return DiscreteCurve(grid, values if noise is None else values + noise)


def _noise(halfwidth: float, size: int, rng):
    """Uniform measurement error on [-halfwidth, halfwidth]; None without noise."""
    if halfwidth > 0:
        return halfwidth * (2.0 * rng.random(size) - 1.0)
    return None


def true_variation_cdf(cfg: LatentModelConfig, dense_r: int, phi=None) -> StepCdf:
    """Local-variation CDF of the rank-1 template on a dense uniform grid."""
    if phi is None:
        if not cfg.is_rank_one:
            raise NotRankOne(f"model {cfg.name!r} is not rank one")
        phi = cfg.basis()[0]
    grid = np.linspace(0.0, 1.0, dense_r)
    curve = DiscreteCurve(grid, phi(grid))
    return discrete_variation_cdf(curve).cdf


class CounterexampleWarp(AnalyticWarp):
    """t - (2u - 1) * sin((2k-1)*pi*t) / ((2k-1)*pi)."""

    def __init__(self, k: int, u: float):
        self.k = int(k)
        self.u = float(u)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        m = (2 * self.k - 1) * np.pi
        out = t - (2.0 * self.u - 1.0) * np.sin(m * t) / m
        return np.clip(out, 0.0, 1.0)


def counterexample_pair(k: int, M: float, rng):
    """Analytic triple (X, Y_k, T_k) with X identical to Y_k after unwarping.

    X(t) = xi*(2t-1) is rank one; Y_k adds an orthogonal oscillation whose
    coefficient is tied to the warp draw so that Y_k composed with the
    inverse warp reproduces X exactly.
    """
    if M <= 1:
        raise ValueError("M must exceed 1")
    if k < 1:
        raise ValueError("k must be at least 1")
    a = 0.5 * (1.0 - 1.0 / M)
    b = 0.5 * (1.0 + 1.0 / M)
    u = a + (b - a) * rng.random()
    xi = _normal(rng)
    m = (2 * k - 1) * math.pi

    def x_fn(t):
        t = np.asarray(t, dtype=float)
        return xi * (2.0 * t - 1.0)

    def y_fn(t):
        t = np.asarray(t, dtype=float)
        return xi * (2.0 * t - 1.0) + xi * (2.0 - 4.0 * u) * np.sin(m * t) / m

    warp = CounterexampleWarp(k, u)
    return x_fn, y_fn, warp


@dataclass
class TruthBundle:
    """Ground truth for one simulated sample."""

    grid: np.ndarray
    latent: list            # DiscreteCurve per draw (no warp, no noise)
    observed: list          # DiscreteCurve per draw (warped, possibly noisy)
    warps: list             # AnalyticWarp per draw
    coefficients: np.ndarray  # (n, rank)
    f_phi: StepCdf = None     # rank-1 models only
    noise_halfwidth: float = 0.0

    @property
    def n(self) -> int:
        return len(self.observed)

    def warp_values(self, i: int, t) -> np.ndarray:
        """Warp i at the points ``t``, shaped like ``t``."""
        t = np.asarray(t, dtype=float)
        return self.warp_rows(slice(i, i + 1), t)[0].reshape(t.shape)

    def warp_rows(self, rows: slice, t) -> np.ndarray:
        """The warps ``rows`` at the points ``t``, one row per warp (``evaluate_warps``)."""
        return evaluate_warps(self.warps[rows], t)


def make_truth_bundle(
    cfg: LatentModelConfig,
    warp_cfg: WarpLawConfig,
    n: int,
    seed: int,
    stream_offset: int = 0,
    dense_r: int = 4096,
) -> TruthBundle:
    """n independent (latent, warp, observed) triples plus the template CDF.

    Curve i draws from substream (seed, stream_offset + i): coefficients
    first, then the warp, then observation noise.  ``warp_cfg`` may be None
    for identity warps.  All warps are then inverted on the grid in one
    ``invert_warps`` call.
    """
    if n < 1:
        raise EmptySample("need n >= 1 simulated curves")
    grid = np.linspace(0.0, 1.0, cfg.grid_size)
    draws, warps, noises = [], [], []
    for i in range(n):
        rng = substream(seed, stream_offset + i)
        draws.append(sample_latent(cfg, rng))
        warps.append(sample_warp(warp_cfg, rng) if warp_cfg is not None else IdentityWarp())
        noises.append(_noise(cfg.noise_halfwidth, grid.size, rng))
    latent, observed = [], []
    for draw, inverse, noise in zip(draws, invert_warps(warps, grid), noises):
        values = draw(inverse)
        latent.append(DiscreteCurve(grid, draw(grid)))
        observed.append(DiscreteCurve(grid, values if noise is None else values + noise))
    f_phi = true_variation_cdf(cfg, dense_r) if cfg.is_rank_one else None
    return TruthBundle(
        grid=grid,
        latent=latent,
        observed=observed,
        warps=warps,
        coefficients=np.array([draw.coefficients for draw in draws]),
        f_phi=f_phi,
        noise_halfwidth=cfg.noise_halfwidth,
    )
