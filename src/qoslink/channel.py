"""Block-fading channel model and effective capacity.

The channel gain seen by symbol i of a block follows the first-order
recursion h_i = rho*h_{i-1} + w_i with circularly symmetric complex
Gaussian innovations, so the power gains z_i = |h_i|^2 are exponential
marginally and correlated within a block (cov{z_i,z_j} =
sigma^4 rho^{2|i-j|}).  Blocks are independent of each other.

The effective capacity C_E(snr, theta) = -(1/theta) log_e E{e^{-theta*nu}}
of the per-block service nu = sum_i log2(1 + snr*z_i) is computed three
ways: a closed form for i.i.d. Rayleigh gains (rho = 0), seeded Monte
Carlo for any rho, and a deterministic quadrature route for any rho that
is smooth enough in snr to support numerical differentiation at snr -> 0.
"""

from __future__ import annotations

import math
import os
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    DegenerateEstimate, QuadratureFailure, ValidationError, _check_scalar, _check_seed,
    _exact_number, _known_fields,
)

LN2 = math.log(2.0)

# Gain sampling (Monte Carlo C_E and the simulator's service trace)
# runs in chunks of this many blocks, chunk c on its own counter-derived
# Philox stream; _gain_chunks fans the chunks out over threads and
# returns them in order, so any worker count gives the same bits.  The
# size is part of every seeded stream layout.
_GAIN_CHUNK = 1 << 15
# Blocks whose complex gains are built at a time, and whose imaginary
# draws are taken at a time: the complex tile (0.6 MB at m = 10) stays
# small next to a chunk's plane of real draws (2.6 MB at m = 10).
_FILL_ROWS = 1 << 12

# Panel edges (units of sigma_h_sq) for the composite Gauss-Legendre
# rule over the gain axis.  The fine leading panels resolve the sharp
# variation of (1+snr*z)^{-a} near z=0 at large snr; the geometric tail
# reaches e^{-45} where the exponential marginal is negligible.
_PANEL_EDGES = np.array(
    [0.0, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.02, 0.04, 0.07, 0.12]
    + [0.2, 0.3, 0.45, 0.65, 0.9, 1.2, 1.6, 2.1, 2.8, 3.6, 4.6, 6.0, 7.5,
       9.5, 12.0, 15.0, 19.0, 24.0, 30.0, 37.0, 45.0]
)
# Gauss-Legendre nodes per panel of that rule: (rho_max, order) rungs,
# each order serving rho up to its rho_max (measured accuracy in
# effective_capacity_quadrature's docstring).  The kernel is too sharp
# for the rule above the last rung.
_GAIN_AXIS_ORDERS = ((0.99, 10), (0.999, 24), (0.9997, 48), (0.9999, 80))
_KERNEL_DEFECT_TOL = 1e-9
# From rho _RHO_ONE up a block is one gain, up to _RHO_IID its gains are i.i.d.
_RHO_ONE, _RHO_IID = 1.0 - 1e-9, 1e-12
# The one-dimensional integrals run in x = log(1 + gamma t) over a fixed
# composite rule: the break points log1p(j / w) below, where the factor
# e^{-w expm1(x)} has fallen by e^{-j}, and a geometric run of
# _LOG_AXIS_RUN panels from 1/(|s| + w + 1) up to the cutoff.
_LOG_AXIS_BREAKS = np.array([1.0, 10.0, 100.0, 745.0])
_LOG_AXIS_RUN = 12
_LOG_AXIS_STEPS = np.linspace(0.0, 1.0, _LOG_AXIS_RUN + 1)
# Gauss-Legendre nodes per panel of the log-axis rule.
_LOG_AXIS_ORDER = 20
_LOG_AXIS_NODES, _LOG_AXIS_WEIGHTS = leggauss(_LOG_AXIS_ORDER)
# Gain-chain kernels kept at once: enough for a quadrature sweep to
# revisit its last few rho values without rebuilding.  A kernel holds
# 0.8 MiB up to rho 0.99 and 50 MiB on the top rung, so the worst case is
# four top-rung kernels, about 200 MiB, and 105 MiB more while a fifth
# is built (see _gain_chain_rule).
_KERNEL_CACHE_SIZE = 4
# The chain quadrature rescales its weight vector by a power of two
# whenever its largest entry falls below this, so long blocks at high
# snr * theta cannot underflow.
_RESCALE_BELOW = 2.0 ** -500
# The kernel's Bessel factor is evaluated on the upper triangle of its
# symmetric argument, this many rows at a time, and mirrored.
_KERNEL_ROWS = 64
# Chebyshev coefficients of e^{-x} I0(x) from Cephes (Moshier, "Methods
# and Programs for Mathematical Functions", 1989), the 30 + 25 numbers
# numpy also ships for np.i0: in x/2 - 2 on [0, 8], and of
# sqrt(x) e^{-x} I0(x) in 32/x - 2 above 8.
_I0E_NEAR = (
    -4.41534164647933937950e-18, 3.33079451882223809783e-17,
    -2.43127984654795469359e-16, 1.71539128555513303061e-15,
    -1.16853328779934516808e-14, 7.67618549860493561688e-14,
    -4.85644678311192946090e-13, 2.95505266312963983461e-12,
    -1.72682629144155570723e-11, 9.67580903537323691224e-11,
    -5.18979560163526290666e-10, 2.65982372468238665035e-9,
    -1.30002500998624804212e-8, 6.04699502254191894932e-8,
    -2.67079385394061173391e-7, 1.11738753912010371815e-6,
    -4.41673835845875056359e-6, 1.64484480707288970893e-5,
    -5.75419501008210370398e-5, 1.88502885095841655729e-4,
    -5.76375574538582365885e-4, 1.63947561694133579842e-3,
    -4.32430999505057594430e-3, 1.05464603945949983183e-2,
    -2.37374148058994688156e-2, 4.93052842396707084878e-2,
    -9.49010970480476444210e-2, 1.71620901522208775349e-1,
    -3.04682672343198398683e-1, 6.76795274409476084995e-1,
)
_I0E_FAR = (
    -7.23318048787475395456e-18, -4.83050448594418207126e-18,
    4.46562142029675999901e-17, 3.46122286769746109310e-17,
    -2.82762398051658348494e-16, -3.42548561967721913462e-16,
    1.77256013305652638360e-15, 3.81168066935262242075e-15,
    -9.55484669882830764870e-15, -4.15056934728722208663e-14,
    1.54008621752140982691e-14, 3.85277838274214270114e-13,
    7.18012445138366623367e-13, -1.79417853150680611778e-12,
    -1.32158118404477131188e-11, -3.14991652796324136454e-11,
    1.18891471078464383424e-11, 4.94060238822496958910e-10,
    3.39623202570838634515e-9, 2.26666899049817806459e-8,
    2.04891858946906374183e-7, 2.89137052083475648297e-6,
    6.88975834691682398426e-5, 3.36911647825569408990e-3,
    8.04490411014108831608e-1,
)
# The series runs over this many values at a time, so that its three
# working buffers (128 KiB each) stay in cache.
_I0E_BLOCK = 1 << 14


@dataclass(frozen=True)
class ChannelSpec:
    """Static description of the block-fading channel, whose gains are
    Gauss-Markov Rayleigh: the one model the library has."""

    m: int
    rho: float
    sigma_h_sq: float = 1.0

    def __post_init__(self):
        m = _block_length(self.m)
        rho = _exact_number("rho", float, self.rho)
        if not (0.0 <= rho <= 1.0):
            raise ValidationError("rho", f"must lie in [0, 1], got {rho}")
        s2 = _exact_number("sigma_h_sq", float, self.sigma_h_sq)
        if s2 <= 0:
            raise ValidationError("sigma_h_sq", f"must be > 0, got {s2}")
        for name, value in (("m", m), ("rho", rho), ("sigma_h_sq", s2)):
            object.__setattr__(self, name, value)


def _block_length(m) -> int:
    """m symbols per block, a positive integer by the one number rule."""
    m = _exact_number("m", int, m)
    if m < 1:
        raise ValidationError("m", f"must be a positive integer, got {m}")
    return m


@dataclass(frozen=True)
class EffCapEstimate:
    """Effective capacity value with its provenance.

    ``std_error`` is 0 for the deterministic methods; ``n_samples`` is 0
    unless the value came from Monte Carlo.
    """

    value: float
    std_error: float
    method: str  # closed_form_iid_rayleigh | monte_carlo | quadrature
    n_samples: int
    theta: float
    snr: float


@dataclass(frozen=True)
class FadingMoments:
    mean_z: float
    mean_z_sq: float
    cov_sum: float


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _gain_buffers(m: int, count: int):
    """Buffers for gain chunks of up to count blocks of m symbols: the
    flat float plane that takes a chunk's draws and becomes its gains,
    and the (rows, m) complex tile and (rows,) complex column of
    ``_fill_gains``, rows = min(_FILL_ROWS, count)."""
    rows = min(_FILL_ROWS, count)
    return np.empty(count * m), np.empty((rows, m), complex), np.empty(rows, complex)


def _fill_gains(spec: ChannelSpec, rng: np.random.Generator, buf, count: int) -> np.ndarray:
    """(count, m) power gains of count independent blocks, in buf's plane.

    buf is a ``_gain_buffers`` set for at least count blocks.  The plane
    takes the real draws of all count blocks in one call; then, one tile
    of _FILL_ROWS blocks at a time, the tile's real parts move into the
    complex tile, the tile's imaginary draws take their place in the
    plane, and the tile's gains are written over them.  Successive draws
    continue one stream, so this is the stream of one (2, count, m)
    call, real plane first.  Every value is the one the expression
    scale * (re + 1j * im) and the AR(1) recursion h_i = rho * h_{i-1} +
    innov * w_i give, bit for bit.
    """
    plane, w, col = buf
    z = plane[: count * spec.m].reshape(count, spec.m)
    rng.standard_normal(out=z)
    scale = math.sqrt(spec.sigma_h_sq / 2.0)
    rho = spec.rho
    innov = math.sqrt(1.0 - rho * rho)
    for lo in range(0, count, w.shape[0]):
        hi = min(lo + w.shape[0], count)
        h, c, tile = w[: hi - lo], col[: hi - lo], z[lo:hi]
        # (scale + 0j) * (re + 1j * im) has parts exactly scale * re, scale * im
        np.multiply(tile, scale, out=h.real)
        rng.standard_normal(out=tile)
        np.multiply(tile, scale, out=h.imag)
        if rho != 0.0:  # at rho == 0 the recursion is the identity
            for i in range(1, spec.m):
                np.multiply(h[:, i - 1], rho, out=c)
                np.multiply(h[:, i], innov, out=h[:, i])
                np.add(c, h[:, i], out=h[:, i])
        np.abs(h, out=tile)
    np.square(z, out=z)
    return z


def _gain_blocks(spec: ChannelSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, m) matrix of power gains; rows are independent blocks."""
    return _fill_gains(spec, rng, _gain_buffers(spec.m, count), count)


def _stream(seed: int, key: tuple) -> np.random.Generator:
    """Philox generator of the counter-derived stream ``key`` of a seed."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


@lru_cache(maxsize=1)
def _pool(pid: int):
    """(executor, worker count) for the gain chunks of process ``pid``.

    One thread per CPU the process may run on, started on first use and
    never at import.  Keyed by pid so that a forked child starts its own
    threads instead of waiting on its parent's.
    """
    if hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:
        workers = os.cpu_count() or 1
    return ThreadPoolExecutor(workers, thread_name_prefix="qoslink-gains"), workers


def _gain_chunks(spec: ChannelSpec, n: int, seed: int, key: tuple, work):
    """Yield ``work(start, z)`` for each chunk of n blocks, in chunk order.

    Chunk c holds blocks [c * _GAIN_CHUNK, (c + 1) * _GAIN_CHUNK) of n,
    drawn from ``_stream(seed, key + (c,))``; z is its (count, m) gain
    matrix, in buffers that ``work`` may overwrite.  Chunks run on the
    worker pool, about two per worker ahead of the consumer, and their
    results come back in chunk order, so any worker count gives the
    same results.  Each running chunk holds one ``_gain_buffers`` set,
    a plane of _GAIN_CHUNK m floats and _FILL_ROWS (m + 1) complex
    values, 3.3 MB at m = 10.  The sets are allocated up front in the
    calling thread and passed on to the next chunk: temporaries
    allocated in the workers would stay in glibc's per-thread arenas and
    raise the peak resident set.
    """
    pool, workers = _pool(os.getpid())
    n_chunks = -(-n // _GAIN_CHUNK)
    # one buffer set per chunk that can run at once; a running chunk pops
    # one and puts it back (list pop and append are atomic)
    spare = [_gain_buffers(spec.m, min(_GAIN_CHUNK, n)) for _ in range(min(workers, n_chunks))]

    def run(c):
        start = c * _GAIN_CHUNK
        count = min(_GAIN_CHUNK, n - start)
        buf = spare.pop()
        try:
            z = _fill_gains(spec, _stream(seed, key + (c,)), buf, count)
            return work(start, z)
        finally:
            spare.append(buf)

    pending = deque()
    try:
        for c in range(n_chunks):
            pending.append(pool.submit(run, c))
            if len(pending) > 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        # a chunk that has started cannot be cancelled: wait for it, so
        # that no chunk still writes into its buffers once this returns
        for future in pending:
            future.cancel()
        wait(pending)


def _block_rates(z: np.ndarray, snr: float, out=None) -> np.ndarray:
    """nu = sum_i log2(1 + snr * z_i) of each row of z, taken as the row
    sum of log1p(snr * z_i) over ln 2 into ``out``; z is overwritten.
    Monte Carlo C_E and the simulator's service trace share it."""
    np.multiply(z, snr, out=z)
    np.log1p(z, out=z)
    out = np.sum(z, axis=1, out=out)
    return np.divide(out, LN2, out=out)


# ---------------------------------------------------------------------------
# Effective capacity: Monte Carlo
# ---------------------------------------------------------------------------


def effective_capacity_mc(
    spec: ChannelSpec,
    snr: float,
    theta: float,
    n_samples: int = 10 ** 6,
    seed: int = 0,
) -> EffCapEstimate:
    """Monte Carlo estimate of C_E over n_samples independent blocks.

    The mean of e^{-theta*nu} is accumulated as a running log-sum-exp so
    deep tails (large theta*nu) cannot underflow, and the standard error
    of C_E follows from the sample variance by the delta method.
    """
    snr = _check_scalar("snr", snr)
    theta = _check_scalar("theta", theta)
    n = _exact_number("n_samples", int, n_samples)
    if n < 1:
        raise ValidationError("n_samples", f"must be >= 1, got {n}")
    seed = _check_seed("seed", seed)

    def exponents(start, z):
        e = _block_rates(z, snr)
        np.multiply(e, -theta, out=e)
        return e

    peak = -math.inf  # running max of the exponents
    s1 = 0.0  # sum of e^{exponent - peak}
    s2 = 0.0  # sum of squares of the same
    for e in _gain_chunks(spec, n, seed, (), exponents):
        top = float(np.max(e))
        if top > peak:
            shift = math.exp(peak - top) if math.isfinite(peak) else 0.0
            s1 *= shift
            s2 *= shift * shift
            peak = top
        d = np.exp(e - peak)
        s1 += float(np.sum(d))
        s2 += float(np.sum(d * d))
    log_mean = peak + math.log(s1 / n)
    if not math.isfinite(log_mean):
        raise DegenerateEstimate("sample mean of e^{-theta*nu} underflowed to 0")
    value = max(0.0, -log_mean / theta)
    if n >= 2:
        ratio = max(n * s2 / (s1 * s1) - 1.0, 0.0)
        std_error = math.sqrt(ratio / (n - 1)) / theta
    else:
        std_error = math.inf
    return EffCapEstimate(value, std_error, "monte_carlo", n, theta, snr)


# ---------------------------------------------------------------------------
# Effective capacity: deterministic routes
# ---------------------------------------------------------------------------


def _log_axis_rule(w: float, s: float):
    """Nodes x and weights g with sum(g * phi(x)) ~ int_0^X phi(x) e^{x - w expm1(x)} dx.

    With x = log(1 + t/w) and t ~ exponential(1), w * sum(g * phi(x)) is
    E{phi(log(1 + t/w))}.  The cutoff X = log1p(845/w) + 1 leaves out
    less than e^{-2000} of the mass.  The rule is one fixed composite
    Gauss-Legendre rule: panel edges at the break points log1p(j/w),
    j = 1, 10, 100, 745, which follow the double-exponential fall of the
    weight at small w, and a geometric run from 1/(|s| + w + 1) to X,
    which resolves phi = x^k e^{(s-1)x} near x = 0.  The number of panels
    is fixed and every edge moves smoothly with w, so the integrals do
    too (the numeric energy route differentiates them in snr).  Against
    40-digit mpmath, the integrals of x^k e^{(s-1)x}, k = 0, 1, 2, are
    within 1e-15 relative for 1/w in 1e-5..1e5 and 1 - s in 1e-3..721.
    """
    cutoff = math.log1p(845.0 / w) + 1.0
    start = 1.0 / (abs(s) + w + 1.0)
    edges = np.concatenate(
        ((0.0,), start * (cutoff / start) ** _LOG_AXIS_STEPS, np.log1p(_LOG_AXIS_BREAKS / w))
    )
    edges.sort()
    half = 0.5 * np.diff(edges)
    x = (edges[:-1] + half)[:, None] + half[:, None] * _LOG_AXIS_NODES
    return x, half[:, None] * _LOG_AXIS_WEIGHTS * np.exp(x - w * np.expm1(x))


def _log_neg_moment(gamma: float, a: float) -> float:
    """log E{(1 + gamma*t)^{-a}} for t ~ exponential(1), a > 0.

    The moment equals e^w w^a Gamma(1-a, w) with w = 1/gamma, and
    w * int_0^X e^{-a x} e^{x - w(e^x - 1)} dx on the log-axis rule
    (``_log_axis_rule``), which is smooth, finite and overflow-free for
    every a > 0, including a >= 1 where the incomplete gamma argument 1-a
    is nonpositive and library routines give up.  While the moment is
    above 1/2 its log is log1p of minus the deficit w * int_0^X
    -expm1(-a x) e^{x - w(e^x - 1)} dx, computed on the same nodes: at
    low snr * theta the moment is within a few 1e-8 of 1, and log(moment)
    would lose the digits that the deficit keeps.
    """
    w = 1.0 / gamma
    x, g = _log_axis_rule(w, 1.0 - a)
    ax = -a * x
    mean = w * float(np.sum(g * np.exp(ax)))
    if not (math.isfinite(mean) and mean > 0.0):
        raise QuadratureFailure(f"negative-moment integral left the positive reals ({mean})")
    if mean < 0.5:
        return math.log(mean)
    return math.log1p(w * float(np.sum(g * np.expm1(ax))))


def effective_capacity_rayleigh_iid(snr: float, theta: float, m: int) -> EffCapEstimate:
    """Closed-form C_E for i.i.d. unit-variance Rayleigh gains (rho = 0).

    C_E = -(m/theta) log_e[snr^{-theta/log_e 2} e^{1/snr}
    Gamma(1 - theta/log_e 2, 1/snr)] bits/block: the i.i.d. branch of
    ``effective_capacity_quadrature`` on ``ChannelSpec(m, 0.0)``, with
    m read by the same rule and the same bits, without building the spec.
    """
    m = _block_length(m)
    snr = _check_scalar("snr", snr)
    theta = _check_scalar("theta", theta)
    return EffCapEstimate(_iid_capacity(snr, theta, m), 0.0, "closed_form_iid_rayleigh", 0,
                          theta, snr)


def _iid_capacity(gamma: float, theta: float, m: int) -> float:
    """C_E of m i.i.d. Rayleigh symbols of mean snr gamma per block."""
    return max(0.0, -(m / theta) * _log_neg_moment(gamma, theta / LN2))


def ergodic_capacity(spec: ChannelSpec, snr: float) -> float:
    """m * E{log2(1 + snr*z)} bits/block; depends on rho not at all.

    The expectation is the first log-rate moment (``_log_rate_moments``).
    """
    snr = _check_scalar("snr", snr)
    return spec.m * _log_rate_moments(snr * spec.sigma_h_sq)[0]


def fading_moments(spec: ChannelSpec) -> FadingMoments:
    """Exact first/second gain moments and the intra-block covariance sum
    sum_{i,j} cov{z_i, z_j} = sigma^4 * sum_{i,j} rho^{2|i-j|}."""
    s2 = spec.sigma_h_sq
    q = spec.rho ** 2
    m = spec.m
    d = np.arange(1, m)
    weight = m + 2.0 * float(np.sum((m - d) * q ** d))
    return FadingMoments(mean_z=s2, mean_z_sq=2.0 * s2 * s2, cov_sum=s2 * s2 * weight)


def _log_rate_moments(gamma: float):
    """E{L} and E{L^2} for L = log2(1 + gamma*t), t ~ exponential(1).

    Both come from one pass of the log-axis rule (``_log_axis_rule`` at
    s = 1): E{log(1 + gamma t)^k} = w * int_0^X x^k e^{x - w(e^x - 1)} dx
    with w = 1/gamma.
    """
    w = 1.0 / gamma
    x, g = _log_axis_rule(w, 1.0)
    g = g * x
    e1 = w * float(np.sum(g))
    e2 = w * float(np.sum(g * x))
    if not (math.isfinite(e2) and e1 > 0.0):
        raise QuadratureFailure(f"log-rate moment integrals left the positive reals ({e1}, {e2})")
    return e1 / LN2, e2 / (LN2 * LN2)


def log_rate_cov_sum(spec: ChannelSpec, snr: float) -> float:
    """var(nu) = sum_{i,j} cov{L_i, L_j}, L_i = log2(1 + snr*z_i), bits^2/block.

    On ``effective_capacity_quadrature``'s split of rho: m (i.i.d.) or m^2
    (one gain) times the log-rate variance, else the gain-chain kernel's
    sum (``_chain_cov_sum``), and QuadratureFailure above rho 0.9999."""
    snr = _check_scalar("snr", snr)
    rho, m = spec.rho, spec.m
    if rho >= _RHO_ONE or rho <= _RHO_IID or m == 1:
        e1, e2 = _log_rate_moments(snr * spec.sigma_h_sq)
        return (m * m if rho >= _RHO_ONE else m) * (e2 - e1 * e1)
    rule = _gain_chain_rule(rho, spec.sigma_h_sq)
    return _chain_cov_sum(rule, m, np.log1p(snr * rule[0]) / LN2)


# ---------------------------------------------------------------------------
# Effective capacity: quadrature over the gain chain
# ---------------------------------------------------------------------------

def _chebyshev_in_place(y: np.ndarray, coef) -> None:
    """Overwrite the 1-d array ``y`` with the Chebyshev series ``coef``
    at ``y``: Cephes' ``chbevl`` recurrence b0 <- y b0 - b1 + c, operation
    for operation, one cache-sized block of values at a time."""
    scratch = np.empty((3, min(y.size, _I0E_BLOCK)))
    for start in range(0, y.size, _I0E_BLOCK):
        block = y[start:start + _I0E_BLOCK]
        b0, b1, b2 = scratch[:, :block.size]
        b0.fill(coef[0])
        b1.fill(0.0)
        for c in coef[1:]:
            # (b0, b1, b2) <- (y b0 - b1 + c, b0, b1), the new b0 written
            # over the b2 that is no longer needed
            np.multiply(block, b0, out=b2)
            b2 -= b1
            b2 += c
            b0, b1, b2 = b2, b0, b1
        np.subtract(b0, b2, out=block)
        block *= 0.5


def _i0e(x: np.ndarray) -> np.ndarray:
    """e^{-|x|} I0(x), elementwise: Cephes' ``i0e`` (Moshier 1989), with
    its operations in its order, and so its bits."""
    x = np.abs(x)
    out = np.empty_like(x)
    near = x <= 8.0
    y = x[near] * 0.5
    y -= 2.0
    _chebyshev_in_place(y, _I0E_NEAR)
    out[near] = y
    far = x[~near]  # nan lands here and stays nan
    y = 32.0 / far
    y -= 2.0
    _chebyshev_in_place(y, _I0E_FAR)
    y /= np.sqrt(far)
    out[~near] = y
    return out


def _gain_axis_rule(sigma_h_sq: float, order: int):
    """Nodes and weights of the composite rule for int_0^inf phi(z) dz,
    with ``order`` Gauss-Legendre nodes on each panel."""
    x, w = leggauss(order)
    edges = _PANEL_EDGES * sigma_h_sq
    a, b = edges[:-1, None], edges[1:, None]
    return (0.5 * (a + b) + 0.5 * (b - a) * x).ravel(), (0.5 * (b - a) * w).ravel()


def _gain_axis_order(rho: float) -> int:
    """Nodes per panel for the gain chain at rho: the first rung of
    ``_GAIN_AXIS_ORDERS`` that reaches rho."""
    for top, order in _GAIN_AXIS_ORDERS:
        if rho <= top:
            return order
    raise QuadratureFailure(
        f"gain-chain kernel too sharp at rho {rho}: above rho {top} its mass "
        "checks no longer bound the error in C_E"
    )


def _gain_chain_kernel(rho: float, sigma_h_sq: float, order: int):
    """Nodes z, weights W, kernel matrix K and marginal mass for the gain
    chain, on the gain-axis rule of ``order`` nodes per panel.

    K[k, l] approximates the conditional density of the next gain z_l
    given the current gain z_k; mass = W * marginal density at z.
    Validated on construction: kernel rows must integrate to 1 and the
    exponential marginal must be a fixed point, both in the
    marginal-weighted L1 sense (defects at gains the chain essentially
    never visits do not matter).  The arrays are read-only.

    The Bessel factor is ``_i0e`` (e^{-x} I0(x), Cephes' Chebyshev
    series, bit for bit) of the argument 2*rho*sqrt(z_k z_l)/v.  That
    argument is exactly symmetric, so only its upper triangle is
    evaluated, ``_KERNEL_ROWS`` rows at a time, and mirrored.
    """
    z, W = _gain_axis_rule(sigma_h_sq, order)
    v = (1.0 - rho * rho) * sigma_h_sq
    sq = np.sqrt(z)
    # conditional density of z' given z: noncentral exponential, written
    # with the scaled Bessel function so nothing overflows; pen, then
    # exp(-pen), then K are formed in place, so two n x n arrays are live
    pen = np.subtract(sq[None, :], rho * sq[:, None])
    np.square(pen, out=pen)
    np.divide(pen, v, out=pen)
    K = np.empty_like(pen)  # the Bessel factor, until it becomes K
    for top in range(0, len(z), _KERNEL_ROWS):
        rows, below = slice(top, top + _KERNEL_ROWS), top + _KERNEL_ROWS
        K[rows, top:] = _i0e(2.0 * rho * np.outer(sq[rows], sq[top:]) / v)
        K[below:, rows] = K[rows, below:].T
    np.negative(pen, out=pen)
    np.exp(pen, out=pen)
    np.multiply(K, pen, out=K)
    np.divide(K, v, out=K)
    marginal = np.exp(-z / sigma_h_sq) / sigma_h_sq
    mass = W * marginal
    row_defect = float(np.sum(mass * np.abs(K @ W - 1.0)))
    fix_defect = float(np.sum(W * np.abs(mass @ K - marginal)))
    if max(row_defect, fix_defect) > _KERNEL_DEFECT_TOL:
        raise QuadratureFailure(
            "gain-chain kernel failed its mass checks "
            f"(row defect {row_defect:.3g}, fixed-point defect {fix_defect:.3g}); "
            "correlation too close to 1 for this rule"
        )
    for arr in (z, W, K, mass):
        arr.setflags(write=False)
    return z, W, K, mass


@lru_cache(maxsize=_KERNEL_CACHE_SIZE)
def _gain_chain_rule(rho: float, sigma_h_sq: float):
    """``_gain_chain_kernel`` at the order the ladder gives rho.

    The kernel has 32 * order nodes: 320, 768, 1536 or 2560 by rung.  On
    a 2-core Xeon VM a cold build takes about 7, 34, 120 or 324 ms, and
    the kernel matrix holds 0.8, 4.5, 18 or 50 MiB.  A build peaks at
    2.4, 10.6, 39.2 or 105.5 MiB under tracemalloc (3.1, 2.35, 2.18 or
    2.11 times the matrix): the matrix, one more n x n array and the
    Bessel blocks of ``_KERNEL_ROWS`` rows.  The last
    ``_KERNEL_CACHE_SIZE`` rules are cached by (rho, sigma_h_sq); the
    order is a function of rho, so it needs no key of its own.
    """
    return _gain_chain_kernel(rho, sigma_h_sq, _gain_axis_order(rho))


def _chain_capacity(rule, m: int, snr: float, theta: float) -> float:
    """C_E of an m-symbol block from a gain-chain rule (z, W, K, mass).

    The chain's weight vector is rescaled by powers of two so that long
    blocks at high snr*theta cannot underflow.
    """
    z, W, K, mass = rule
    g = (1.0 + snr * z) ** (-(theta / LN2))
    vec = mass * g
    step = K * (W * g)[None, :]
    log2_scale = 0  # the chain's weights are vec * 2**log2_scale
    for _ in range(m - 1):
        vec = vec @ step
        top = vec.max()
        if top < _RESCALE_BELOW:
            _, e = math.frexp(top)
            vec = np.ldexp(vec, -e)
            log2_scale += e
    total = float(np.sum(vec))
    mean = math.ldexp(total, log2_scale)
    if not (0.0 < total and mean <= 1.0 + 1e-9):
        raise QuadratureFailure(f"chain quadrature left the unit interval ({mean})")
    if mean >= sys.float_info.min:
        log_mean = math.log(min(mean, 1.0))
    else:  # ldexp would drop digits below the normal range
        log_mean = math.log(total) + log2_scale * LN2
    return max(0.0, -log_mean / theta)


def _chain_cov_sum(rule, m: int, f: np.ndarray) -> float:
    """sum_{i,j} cov{f(z_i), f(z_j)} of an m-symbol block from a gain-chain
    rule (z, W, K, mass) and f on its nodes: m c_0 + 2 sum_{d<m} (m - d) c_d
    with c_d = mass . (f_c * P^d f_c), P = K diag(W) and f_c = f - E{f},
    centred first so that no E{f f'} - E{f}^2 cancels."""
    _, W, K, mass = rule
    v = f - mass @ f
    weighted = mass * v
    total = m * float(weighted @ v)
    for d in range(1, m):
        v = K @ (W * v)
        total += 2.0 * (m - d) * float(weighted @ v)
    return total


def effective_capacity_quadrature(
    spec: ChannelSpec, snr: float, theta: float
) -> EffCapEstimate:
    """Deterministic C_E for rho up to 0.9999, and from 1 - 1e-9 to 1.

    rho = 0 factorizes over symbols and rho = 1 collapses to a single
    gain, both handled by one-dimensional integration; in between, the
    expectation runs over the Markov chain of within-block gains with a
    panel-quadrature discretization of the conditional kernel
    (``_gain_chain_rule``).  Unlike the Monte Carlo route the result is
    smooth in snr, so it is safe to difference numerically.

    Accuracy, relative, measured against the same chain on a finer rule
    over snr 1e-4..100, theta 0.1..5 and m 2..100:

    - rho <= 0.99 (320 nodes): within 1e-13 where snr * theta >= 1e-2,
      and within 2e-11 below, where -log(mean) amplifies the mean's last
      bits.  At m = 2 the same bounds hold against the Laguerre series
      of the gain pair's law (``tests/gain_chain_reference.py``).
    - 0.99 < rho <= 0.9999 (768 to 2560 nodes): within 1e-10.
    - 0.9999 < rho < 1 - 1e-9: QuadratureFailure.  The kernel is too
      sharp for the rule, and its mass checks pass at errors far above
      1e-10 there.
    """
    snr = _check_scalar("snr", snr)
    theta = _check_scalar("theta", theta)
    gamma = snr * spec.sigma_h_sq
    if spec.rho >= _RHO_ONE:
        value = max(0.0, -_log_neg_moment(gamma, spec.m * (theta / LN2)) / theta)
    elif spec.rho <= _RHO_IID or spec.m == 1:
        value = _iid_capacity(gamma, theta, spec.m)
    else:
        rule = _gain_chain_rule(spec.rho, spec.sigma_h_sq)
        value = _chain_capacity(rule, spec.m, snr, theta)
    return EffCapEstimate(value, 0.0, "quadrature", 0, theta, snr)


def capacity_function(spec: ChannelSpec, method: str, *, n_samples: int = 10 ** 6,
                      seed: int | None = None):
    """(snr, theta) -> EffCapEstimate of the link by one named method.

    ``closed-iid`` is the i.i.d. Rayleigh closed form and needs rho = 0
    (sigma_h_sq folds into snr exactly); ``quadrature`` is the
    deterministic route; ``mc`` is Monte Carlo over ``n_samples`` blocks
    and needs an explicit ``seed``.  An unknown method or a missing
    precondition raises ValueError here, before any capacity is computed.
    """
    if method == "closed-iid":
        if spec.rho != 0.0:
            raise ValueError("closed-iid requires rho = 0; use quadrature or mc for rho > 0")
        return lambda snr, theta: effective_capacity_rayleigh_iid(
            snr * spec.sigma_h_sq, theta, spec.m
        )
    if method == "quadrature":
        return lambda snr, theta: effective_capacity_quadrature(spec, snr, theta)
    if method == "mc":
        if seed is None:
            raise ValueError("Monte Carlo capacity needs an explicit seed")
        return lambda snr, theta: effective_capacity_mc(
            spec, snr, theta, n_samples=n_samples, seed=seed
        )
    raise ValueError(f"unknown capacity method {method!r}")


# ---------------------------------------------------------------------------
# JSON construction
# ---------------------------------------------------------------------------


def channel_spec_from_json(doc) -> ChannelSpec:
    """ChannelSpec from {"m": ..., "rho": ..., "sigma_h_sq": ..., "distribution": ...}.

    ``m`` and ``rho`` are required.  ``distribution``, if given, must name
    the one channel model, gauss-markov-rayleigh (any case; ``-``, ``_``
    or no separators).  Any other field is rejected.  ``ChannelSpec``
    checks each of its fields; every rejection names its field.
    """
    if not isinstance(doc, dict):
        raise ValidationError("$", "channel document must be a JSON object")
    _known_fields(doc, ("m", "rho", "sigma_h_sq", "distribution"))
    for name in ("m", "rho"):
        if name not in doc:
            raise ValidationError(name, "missing required field")
    spec = ChannelSpec(**{name: doc[name] for name in ("m", "rho", "sigma_h_sq") if name in doc})
    dist = doc.get("distribution", "gauss-markov-rayleigh")
    if not isinstance(dist, str) or dist.lower().replace("_", "-") not in (
        "gauss-markov-rayleigh",
        "gaussmarkovrayleigh",
    ):
        raise ValidationError("distribution", f"must be gauss-markov-rayleigh, got {dist!r}")
    return spec
