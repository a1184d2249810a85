"""Numerical evaluation of the circle path integral for W(L, N).

Quadrature route: the angle integrals are discretized on a uniform tensor
grid (trapezoid rule; the integrand is periodic and entire in every angle, so
the error decays faster than any power of 1/M).  The grid sum is evaluated by
contracting a transfer matrix over the angle grid -- an exact reordering of
the same sum, so the tensor-product budget guard is kept as stated.  On the
uniform grid that matrix is circulant and is held as its cached first column;
a block of points is BLAS products with column blocks copied out of it, so no
M x M array exists at any time.  Outputs were measured byte-identical at
OpenBLAS thread counts 1, 2 and the default.  A point's end factor takes one
complex exp per grid angle, and the factor at the other end is its
conjugate; the incoherent mass of the realness check is formed only where
the relative test fails.  The overall constant is
anchored so that L = 1 reproduces the Poisson closed form exactly; this
fixes the 2/pi carried by the displaced-parity matrix element together with
the (2 pi)^{-L} angle measure.

Monte Carlo route: angles are sampled uniformly on the torus and the complex
weight exp(-S) is averaged; the surviving mean phase magnitude is the standard
severity measure of the sign problem and is reported with every estimate.
Batches are assigned counter-based RNG streams by batch index, so results are
bit-identical for a fixed (seed, batch schedule) regardless of worker count.
The path term is alpha-free and the end term depends only on the end angles
and |alpha|, so one set of draws serves every point of a profile; the result
at each point is bit-identical to a single-point call there.  The batches are
split into at most `workers` contiguous runs; each run allocates one complex
and one real buffer, sized to its largest (radius, sample) block, and
computes all its batches in them, so no batch allocates block-sized memory.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .action import circle_actions_batch
from .states import _WIGNER_BOUND, FamilyParams, WignerSample, _finite, _points

_IMAG_RESIDUE_TOL = 1e-10
# (radius, sample) entries per block of the Monte Carlo temporaries
_BLOCK_ENTRIES = 1_000_000
# (sample, angle) entries per chunk of a midpoint-histogram batch
_MIDPOINT_CHUNK_ENTRIES = 2**14
# rows from which numpy evaluates a whole batch's closing link e_L * conj(e_1)
# in its conj temporary, as conj(e_1) * e_L (temporary elision from 256 KiB);
# the two operand orders round the imaginary part differently
_ELIDED_ROWS = 2**14
# (radius, angle) entries per block of the quadrature factors, of at least
# 128 points (each block copies out all M^2 kernel entries), and kernel
# entries per column block of the product
_QUAD_BLOCK_ENTRIES = _KERNEL_BLOCK_ENTRIES = 2**16
_QUAD_MIN_BLOCK_POINTS = 128
# a Monte Carlo point below this effective sample size raises: a few samples
# carry its whole estimate and standard error
_MIN_ESS = 5.0


class BudgetError(ValueError):
    """Tensor-product quadrature would exceed the configured work budget."""


class RealnessError(RuntimeError):
    """Imaginary residue of the quadrature sum above tolerance."""


class SignProblemError(RuntimeError):
    """Monte Carlo weights too uneven at a point for its estimate to mean
    anything, or all underflowed to 0; carries that point's effective sample
    size and mean phase magnitude (None where every weight underflowed)."""

    def __init__(
        self, message: str, effective_sample_size: float, mean_phase_magnitude: float | None
    ):
        super().__init__(message)
        self.effective_sample_size = effective_sample_size
        self.mean_phase_magnitude = mean_phase_magnitude


@dataclass(frozen=True)
class QuadratureSpec:
    """Uniform-grid quadrature settings: M points per angle, M^L work budget.

    The budget guards the M^L grid points the sum stands for.  The work done
    is (L-2) M^2 for the kernel's convolutions, once per (L, N, M), plus
    k M^2 complex for a call at k points, plus M^2 real for each point that
    fails the relative realness test, with one complex exp per (point, angle).
    The memory is the kernel's circulant column, M complex, plus
    O(max(2^16, 128 M)) entries per call; the kernel cache keeps up to 16
    columns alive.
    """

    points_per_dim: int = 128
    budget: int = 2**30

    def __post_init__(self):
        m = self.points_per_dim
        if m < 8:
            raise ValueError(f"points_per_dim must be at least 8, got {m}")
        if m & (m - 1):
            raise ValueError(f"points_per_dim must be a power of two, got {m}")

    def check_budget(self, L: int) -> None:
        if self.points_per_dim**L > self.budget:
            raise BudgetError(
                f"M^L = {self.points_per_dim}^{L} exceeds the evaluation budget "
                f"{self.budget}; lower M or L, or from the library pass a larger "
                "QuadratureSpec(budget=...)"
            )


@dataclass(frozen=True)
class MonteCarloSpec:
    """Sampling plan; the (seed, batch schedule) pair fixes every draw."""

    samples: int
    seed: int = 0
    workers: int = 1
    batch_size: int | None = None

    def __post_init__(self):
        if self.samples < 1000:
            raise ValueError(f"need at least 1e3 samples, got {self.samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.batch_size is None:
            object.__setattr__(self, "batch_size", max(256, -(-self.samples // 64)))
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.batch_size >= self.samples:
            raise ValueError("batch_size must be below samples: one batch has no standard error")

    def batch_sizes(self) -> list[int]:
        full, rest = divmod(self.samples, self.batch_size)
        return [self.batch_size] * full + ([rest] if rest else [])


@lru_cache(maxsize=16)
def _circle_kernel(r: float, L: int, M: int) -> np.ndarray:
    """First column c of the circulant kernel B[j, k] = c[(j - k) mod M] that
    carries the alpha-independent part of the grid sum; read-only (shared).

    c[d] = p[d] h[(-d) mod M]: p is the rescaled inter-slice link factor t
    convolved with itself L - 2 times modulo M, directly in (L - 2) M^2 work
    (the column of T^{L-1} for T[j, k] = t[(j - k) mod M]), and h the combined
    closing-link and end-pair factor; each carries exp(-r^2) so entries stay
    bounded.  Raises FloatingPointError if every entry underflows to 0."""
    r2 = r * r
    phases = np.exp(2j * math.pi * np.arange(M) / M)
    t_link = np.exp(r2 * (phases - 1.0))
    h_end = np.exp(-r2 * (phases + 1.0))
    p = t_link if L > 1 else np.eye(1, M, dtype=complex)[0]
    for _ in range(L - 2):
        p = np.append(np.convolve(p, t_link), 0.0).reshape(2, M).sum(axis=0)
    c = p * np.roll(h_end[::-1], 1)
    if not np.abs(c).max() >= np.finfo(float).tiny:
        raise FloatingPointError(f"every kernel entry underflows at L={L}, N={r2:.6g}, M={M}")
    c.setflags(write=False)
    return c


def _kernel_product(u: np.ndarray, c: np.ndarray) -> np.ndarray:
    """u @ B for the circulant B of first column c, in column blocks of
    about _KERNEL_BLOCK_ENTRIES entries (powers of two, like M, so the width
    divides M), each one contiguous copy of a window view of the doubled,
    reversed c: no M x M array is formed."""
    M = c.size
    width = min(M, max(1, _KERNEL_BLOCK_ENTRIES // M))
    # window i reads c[(M - 1 - i - m) mod M] at column m: row j of the block
    # at k0 is window k0 + M - 1 - j
    windows = sliding_window_view(np.tile(c[::-1], 2), width)
    block, out = np.empty((M, width), dtype=c.dtype), np.empty_like(u)
    for k0 in range(0, M, width):
        np.copyto(block, windows[k0 : k0 + M][::-1])
        np.matmul(u, block, out=out[:, k0 : k0 + width])
    return out


def _check_realness(points: np.ndarray, totals: np.ndarray, mag: np.ndarray, c: np.ndarray):
    """Raise RealnessError at the first point whose grid sum has an imaginary
    residue above 1e-12 of its incoherent mass sum_jk |u_j| |B_jk| |u_k|, with
    |u| as one row of mag: a residue only signals a bug when it is large
    against both the real part and the incoherent mass (deep-cancellation
    tails sit at roundoff).  |B| is formed from |c| a column block at a time."""
    mass = _kernel_product(mag, np.abs(c))
    incoherent = (mass * mag).sum(axis=1)
    failed = np.flatnonzero(np.abs(totals.imag) > 1e-12 * incoherent)
    if failed.size:
        k = failed[0]
        z, inc, a = totals[k], incoherent[k], points[k]
        raise RealnessError(
            f"imaginary residue {z.imag:.3e} vs real part {z.real:.3e} "
            f"(incoherent scale {inc:.3e}) at alpha = {a:.6g}"
        )


def wigner_quadrature(
    alpha, params: FamilyParams, spec: QuadratureSpec = QuadratureSpec()
) -> WignerSample | list[WignerSample]:
    """W(L, N) at alpha from the uniform tensor grid over the L circle angles.

    alpha is a complex scalar, giving one WignerSample, or a 1-D array of
    points, giving one WignerSample per point in input order.  Raises
    :class:`BudgetError` upfront if M^L exceeds the work budget,
    FloatingPointError if the kernel underflows, and :class:`RealnessError`
    if the grid sum at a point fails to be real to 1e-10 relative (the
    uniform grid pairs every path with its time reverse, so a residue signals
    a bug rather than a numerical limit).  A non-finite value raises
    FloatingPointError, and a value above the 2/pi bound of every Wigner
    function ValueError, each naming the first such point.  Array rows equal
    one-point calls bit for bit.
    """
    spec.check_budget(params.L)
    points, scalar = _points(alpha)
    M = spec.points_per_dim
    r = params.radius
    c = _circle_kernel(r, params.L, M)
    theta = 2.0 * math.pi * np.arange(M) / M
    scale = _WIGNER_BOUND * math.exp(-params.log_z - params.L * math.log(M))
    per_block = max(_QUAD_MIN_BLOCK_POINTS, _QUAD_BLOCK_ENTRIES // M)
    totals = np.empty(points.size, dtype=complex)
    for lo in range(0, points.size, per_block):
        n = min(per_block, points.size - lo)
        # a lone point is stacked twice: numpy would send one row to BLAS gemv,
        # which adds in another order than the gemm of a block
        block = points[lo : lo + n] if n > 1 else np.repeat(points[lo], 2)
        s = np.abs(block)[:, None]
        # one unit phasor row per distinct point angle: a radial profile has one
        angles, rows = np.unique(np.angle(block), return_inverse=True)
        u = np.exp(-1j * (theta - angles[:, None]))[rows]
        u *= 2.0 * r * s
        u -= s * s
        np.exp(u, out=u)
        # the end factor at the other end is conj(u), formed in place (|u| stays)
        total = _kernel_product(u, c)
        total *= np.conjugate(u, out=u)
        total = total.sum(axis=1)[:n]
        totals[lo : lo + n] = total
        suspect = np.flatnonzero(np.abs(total.imag) > _IMAG_RESIDUE_TOL * np.abs(total.real))
        if suspect.size:
            _check_realness(points[lo + suspect], total[suspect], np.abs(u[suspect]), c)
    values = _finite(scale * totals.real, points, False, "quadrature")
    over = np.flatnonzero(np.abs(values) > _WIGNER_BOUND + 1e-9)
    if over.size:
        k = over[0]
        raise ValueError(
            f"|W| = {abs(values[k]):.6g} exceeds the 2/pi bound at alpha = {points[k]:.6g}"
        )
    results = [WignerSample(x) for x in values.tolist()]
    return results[0] if scalar else results


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    """The generator of one Monte Carlo batch, the Philox stream of `seed`
    jumped `batch_index` times: each batch is fixed by (seed, index) alone,
    whatever thread draws it and in whatever order."""
    return np.random.Generator(np.random.Philox(seed).jumped(batch_index))


def _batch_angles(seed: int, batch_index: int, size: int, L: int) -> np.ndarray:
    """The (size, L) uniform angles of one Monte Carlo batch."""
    return _batch_rng(seed, batch_index).uniform(0.0, 2.0 * math.pi, (size, L))


def _radii_per_block(size: int, radii: int) -> int:
    """Radii in one block of a batch of `size` samples: about _BLOCK_ENTRIES
    (radius, sample) entries, at least one radius and at most all of them."""
    return min(radii, max(1, _BLOCK_ENTRIES // size))


def _mc_batch_sums(
    batch_index: int, size: int, L: int, r: float, s: np.ndarray, seed: int,
    totals: np.ndarray, scratch: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Sums of one batch at every radius in s: rows sum w, sum |w| and
    sum (2^-k |w|)^2 for w = exp(-S), and the exponents k of each radius's
    largest |w| (np.frexp).  A scaled square underflows only where the weights
    do; where none is subnormal, the scaled sum is the unscaled one / 4^k.

    The batch is drawn once and serves every radius.  Radii are taken in
    blocks of about _BLOCK_ENTRIES (radius, sample) entries; a profile of more
    blocks re-evaluates the path terms once per block.  Each block is computed
    in views of the caller's flat buffers, totals (complex) and scratch
    (real), so a batch allocates no block-sized array: the actions become w
    in totals, and |w| is formed in the scratch and scaled and squared in
    place once summed.  Every reduction runs along the sample axis of a
    C-contiguous block, so each radius is summed as a one-radius call sums it.
    """
    thetas = _batch_angles(seed, batch_index, size, L)
    per_block = _radii_per_block(size, len(s))
    sums = np.empty((3, len(s)), dtype=complex)
    exps = np.empty(len(s), dtype=np.intc)
    for lo in range(0, len(s), per_block):
        rows = s[lo : lo + per_block]
        shape, entries = (rows.size, size), rows.size * size
        real = scratch[:entries].reshape(shape)
        w = circle_actions_batch(thetas, r, rows, out=(totals[:entries].reshape(shape), real))
        mag = np.exp(np.negative(w.real, out=real), out=real)
        np.exp(np.negative(w, out=w), out=w)
        cols = slice(lo, lo + per_block)
        sums[0, cols] = w.sum(axis=1)
        sums[1, cols] = mag.sum(axis=1)
        exps[cols] = k = np.frexp(mag.max(axis=1))[1]
        sums[2, cols] = np.square(np.ldexp(mag, -k[:, None], out=mag), out=mag).sum(axis=1)
    return sums, exps


def _mc_chunk_sums(
    batches: list[tuple[int, int]], L: int, r: float, s: np.ndarray, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sums and exponents of a run of (batch index, size) batches, stacked in
    order to (batch, 3, radii) and (batch, radii), computed in one buffer pair
    sized to the run's largest radius block."""
    entries = max(_radii_per_block(size, len(s)) * size for _, size in batches)
    totals, scratch = np.empty(entries, dtype=complex), np.empty(entries)
    sums = [_mc_batch_sums(b, size, L, r, s, seed, totals, scratch) for b, size in batches]
    return tuple(map(np.stack, zip(*sums)))


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den where den > 0, else 0."""
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def _batch_means_se(batch_values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Standard error of each point's weighted mean m of (batch, point) values
    m_b, with weights w_b = n_b / n: the square root of the batch-means
    variance sum_b w_b (m_b - m)^2 / (B - 1), unbiased for any batch sizes.
    Each point is reduced along a contiguous row, which numpy sums pairwise
    exactly as it sums a 1-D array."""
    rows = np.ascontiguousarray(batch_values.T)
    mean = (weights * rows).sum(axis=1)
    var = (weights * (rows - mean[:, None]) ** 2).sum(axis=1)
    return np.sqrt(var / (len(weights) - 1))


def wigner_montecarlo(
    alpha, params: FamilyParams, spec: MonteCarloSpec
) -> WignerSample | list[WignerSample]:
    """Monte Carlo estimate of W(L, N) at alpha by uniform torus sampling.

    alpha is a complex scalar, giving one WignerSample, or a 1-D array of
    points, giving one WignerSample per point in input order.  One set of
    draws serves every point, and the result at each point is bit-identical
    to a single-point call there.  Each sample carries the sign-problem
    diagnostics and the batch-means standard errors of its value and mean
    phase.  The estimate divides by the exact number-basis partition sum
    Z(L, N).  Raises :class:`SignProblemError`, naming the first such point,
    where the effective sample size is below 5 or every weight underflows,
    and FloatingPointError, naming it, at a non-finite estimate.

    The batch sums of every point are combined at once.  Totals run over the
    leading batch axis, which numpy adds in batch order; np.hypot and
    np.float_power(x, 2) give the bits of abs(complex) and of float ** 2.
    """
    points, scalar = _points(alpha)
    if not points.size:
        return []
    s = np.abs(points)
    sizes = spec.batch_sizes()
    # contiguous runs of batches, at most one per worker, each computed in its
    # own buffers; a single run stays in the calling thread
    batches = list(enumerate(sizes))
    runs = min(spec.workers, len(batches))
    bounds = [i * len(batches) // runs for i in range(runs + 1)]
    chunks = [batches[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    chunk_sums = partial(_mc_chunk_sums, L=params.L, r=params.radius, s=s, seed=spec.seed)
    if runs > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=runs) as pool:
            parts = list(pool.map(chunk_sums, chunks))
    else:
        parts = list(map(chunk_sums, chunks))
    # (batch, 3, point) sums; each point's squared row goes to its largest exponent
    stats, exps = (np.concatenate(part) for part in zip(*parts))
    top = exps.max(axis=0)
    stats.real[:, 2] = np.ldexp(stats.real[:, 2], 2 * (exps - top))
    sum_w, sum_mag, sum_mag2 = stats.sum(axis=0)
    sum_mag, sum_mag2 = sum_mag.real, sum_mag2.real

    n = sum(sizes)
    phase = np.fmin(1.0, _ratio(np.hypot(sum_w.real, sum_w.imag), sum_mag))
    ess = _ratio(np.float_power(np.ldexp(sum_mag, -top), 2), sum_mag2)
    low = np.flatnonzero(ess < _MIN_ESS)
    if low.size:
        k = low[0]
        if sum_mag[k] == 0:
            raise SignProblemError(
                f"every weight exp(-S) of {n} samples underflows to 0 at alpha = "
                f"{points[k]:.6g}: the samples carry no value",
                0.0, None,
            )
        raise SignProblemError(
            f"effective sample size {ess[k]:.3g} of {n} samples is below the floor "
            f"{_MIN_ESS:g} at alpha = {points[k]:.6g}: the sign problem hides the value",
            float(ess[k]), float(phase[k]),
        )
    # past the guard, so that a member whose weights all underflow raises
    # SignProblemError, not OverflowError: exp(-log Z) overflows at log Z < -709
    scale = _WIGNER_BOUND * math.exp(-params.log_z)
    estimate = _finite(scale * sum_w.real / n, points, False, "Monte Carlo")
    batch_w, batch_n = stats[:, 0], np.array(sizes)
    weights = batch_n / n
    # batch means in units of 2^top: their deviations square without underflow
    means = scale * np.ldexp(batch_w.real, -top) / batch_n[:, None]
    se = np.ldexp(_batch_means_se(means, weights), top)
    batch_phase = np.fmin(1.0, _ratio(np.hypot(batch_w.real, batch_w.imag), stats[:, 1].real))
    phase_se = _batch_means_se(batch_phase, weights)
    columns = (estimate, se, phase, ess, phase_se)
    results = [WignerSample(*row) for row in zip(*(c.tolist() for c in columns))]
    return results[0] if scalar else results


@dataclass(frozen=True)
class MidpointGrid:
    """Square binning of the phase plane, centered on the origin."""

    half_width: float
    bins: int

    def __post_init__(self):
        if not self.half_width > 0 or self.bins < 2:
            raise ValueError("need positive half_width and at least 2 bins")

    def centers(self) -> np.ndarray:
        step = 2.0 * self.half_width / self.bins
        return -self.half_width + step * (np.arange(self.bins) + 0.5)

    def index(self, x: np.ndarray) -> np.ndarray:
        ix = ((x + self.half_width) / (2.0 * self.half_width) * self.bins).astype(int)
        return np.clip(ix, 0, self.bins - 1)


def midpoint_histogram(
    params: FamilyParams, spec: MonteCarloSpec, grid: MidpointGrid
) -> np.ndarray:
    """Accumulate exp(-path term) of sampled paths into chord-midpoint bins.

    Returns the complex (bins, bins) array of bin sums: the unnormalized
    functional weight attached to each phase-space cell before the Gaussian
    end-gap factor ties it to an evaluation point.  Bins are indexed
    [re, im].  Only the alpha-free path terms are evaluated; no end term is
    formed.  Batches are accumulated serially, in batch order, and
    spec.workers is ignored: the bin sums depend on the order of the
    additions.  A warning counts the empty bins centred inside the circle,
    which an adequate sample reaches (none at L = 1).

    Each batch is drawn, summed and binned in chunks of 2^14 (sample, angle)
    entries, so the memory is one chunk's arrays (a traced peak of 1.2 MB at
    L = 3), whatever the batch size.  The bin sums are those of the
    whole-batch loop (circle_phasors and an np.add.at scatter per batch) bit
    for bit: a chunk's draws continue its batch's stream, its closing link
    takes the batch's operand order, and each bin adds the same weights in
    the same order.
    """
    if grid.half_width < params.radius + 3.0 - 1e-12:
        raise ValueError(
            f"grid must cover the square of half-width sqrt(N)+3 = {params.radius + 3.0:.3f}"
        )
    r = params.radius
    # chord midpoints fill the open disc |m| < r; at L = 1 the chord is one
    # point of the circle, so no bin can be counted on to receive a sample
    c = grid.centers()
    inside = (c[:, None] ** 2 + c[None, :] ** 2 < r * r) & (params.L > 1)
    cells, L = grid.bins * grid.bins, params.L
    hist = np.zeros(cells, dtype=complex)
    rows = max(1, _MIDPOINT_CHUNK_ENTRIES // L)
    for b, size in enumerate(spec.batch_sizes()):
        rng = _batch_rng(spec.seed, b)
        for lo in range(0, size, rows):
            # successive draws continue the batch's stream: the batch's angles,
            # and their unit phasors, equal to circle_phasors' bit for bit
            e = 1j * rng.uniform(0.0, 2.0 * math.pi, (min(rows, size - lo), L))
            np.exp(e, out=e)
            # the closing link in the operand order of a whole-batch call
            first, last = np.conjugate(e[:, 0]), e[:, -1]
            pair = (first, last) if size >= _ELIDED_ROWS else (last, first)
            links = np.multiply(*pair, out=first)
            step = np.empty_like(links)
            for l in range(1, L):
                links += np.multiply(e[:, l - 1], np.conjugate(e[:, l], out=step), out=step)
            links *= r * r
            # exp(-(L r^2 - links)): negating a difference is exact
            w = np.exp(np.subtract(links, L * r * r, out=links), out=links)
            mid = 0.5 * r * (e[:, 0] + e[:, -1])
            cell = grid.index(mid.real) * grid.bins + grid.index(mid.imag)
            # each bin adds the chunk's samples to its running sum in sample order
            np.add.at(hist.real, cell, w.real)
            np.add.at(hist.imag, cell, w.imag)
    hist = hist.reshape(grid.bins, grid.bins)
    empty = np.count_nonzero((hist == 0) & inside)
    if empty:
        warnings.warn(
            f"{empty} of the {np.count_nonzero(inside)} midpoint bins centred inside the circle "
            "received no samples",
            stacklevel=2,
        )
    return hist


def smoothed_wigner_from_histogram(
    hist: np.ndarray, grid: MidpointGrid, params: FamilyParams, samples: int
) -> np.ndarray:
    """Apply the end-gap Gaussian analytically from each bin center.

    Convolves the binned path weights with exp(-2 |alpha - mid|^2) and applies
    the same normalization as the direct estimator, giving a (bins, bins) real
    approximation to W on the grid centers.  The Gaussian factors into
    g(x - x') g(y - y'), so the map is G @ hist.real @ G.T with the
    (bins, bins) one-dimensional Gaussian G: O(bins^3) work and O(bins^2)
    memory.
    """
    c = grid.centers()
    g = np.exp(-2.0 * (c[:, None] - c[None, :]) ** 2)
    return g @ hist.real @ g.T * (_WIGNER_BOUND * math.exp(-params.log_z) / samples)
