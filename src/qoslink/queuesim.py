"""Monte Carlo queue simulator for checking the large-deviations slopes.

A FIFO queue is fed by a Markovian source trace and drained by the
instantaneous capacity of a sampled fading channel, one fading block at
a time.  The buffer-overflow tail should decay like e^{-theta q} and
the delay tail like e^{-theta a*(theta) d}; this module measures both
slopes so the analytical pair (theta, a*) can be validated end to end.

Block length is one unit of continuous time, matching the 1/block units
of the fluid and MMPP switching rates.  Those chains are sampled exactly
through their exponential holding times; fluid arrivals are the integral
of the rate over each block, MMPP arrivals a Poisson count of the
integrated intensity.

The samplers are batched numpy code with no Python loop per block or per
jump (except the per-step bisect walk of chains with many states), and
they consume the same draws in the same order as a per-step loop, so
every seeded output is reproducible bit for bit:

- a chain step from state s goes to the first j with u <= cdf[s, j];
  the last CDF entry of each row is pinned to 1.0; chains of up to four
  states are walked by a prefix scan of the per-step maps, larger ones
  by a per-step bisect; a scan block whose steps all take one map (every
  jump of an ON/OFF fluid or MMPP chain flips the state) follows that
  map's orbit instead of scanning;
- a discrete path takes its uniforms in blocks of _DRAW_BLOCK from one
  stream, the same bits a single ``rng.random(n)`` call gives;
- a continuous path draws batches of ``rng.exponential(size=4096)``
  then ``rng.random(4096)`` and uses each batch from its end; a holding
  time is ``e / exit_rate`` of the state left, and jump times are a
  sequential ``cumsum`` from the time carried over from the last batch;
- the path keeps the first jump that reaches the horizon, or that enters
  an absorbing state, and draws no batch after it, so the MMPP Poisson
  counts that follow on the same generator, in blocks of _DRAW_BLOCK,
  do not move;
- the path is integrated into the block grid batch by batch, as each
  batch is drawn, and is never held whole: the running sum and the
  interpolation at the block edges take the operands a whole-path
  ``cumsum`` and ``interp`` would, so memory scales with the blocks,
  not with the jumps;
- the service trace draws one Philox stream per chunk of 2^15 blocks
  (key (1, c) for chunk c); the chunks run on the channel's gain
  threads (``channel._gain_chunks``), each filling its slice of the
  trace, so the thread count never moves a bit; at rho = 0 the gains
  are |w|^2 of the draws, without the AR(1) recursion;
- the arrival trace runs as one task on those threads, beside the
  service chunks; the two traces share no generator, so the overlap
  moves no bit either.
"""

from __future__ import annotations

import math
import numbers
import os
from bisect import bisect_left
from concurrent import futures
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from . import channel
from .channel import LN2, ChannelSpec, _check_snr, _gain_chunks, _stream
from .errors import InsufficientTail, UnstableQueue
from .sources import DiscreteMarkovSource

_JUMP_BATCH = 4096
_SCAN_BLOCK = 4096
_SCAN_MAX_STATES = 5  # scan below, bisect from here; see _walk
# Discrete uniforms, MMPP Poisson counts and Lindley minima are taken
# this many blocks at a time, so no trace holds an n-sized temporary.
_DRAW_BLOCK = 1 << 12
_MIN_BLOCKS = 10 ** 4
_STABILITY_CHECK_AT = 10 ** 5
_STABILITY_MARGIN = 1.01
_MIN_EVENTS = 100
_AUTO_POINTS = 12


@dataclass(frozen=True)
class SimConfig:
    """One simulation cell: source, channel, load point and seeds."""

    source: object
    channel: ChannelSpec
    snr: float
    n_blocks: int
    seed: int
    q_thresholds: Optional[Tuple[float, ...]] = None
    d_thresholds: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "snr", _check_snr(self.snr))
        n = _exact("n_blocks", int, self.n_blocks)
        if n < _MIN_BLOCKS:
            raise ValueError(f"n_blocks must be >= {_MIN_BLOCKS}, got {n}")
        object.__setattr__(self, "n_blocks", n)
        seed = _exact("seed", int, self.seed)
        if not (0 <= seed < 2 ** 64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        object.__setattr__(self, "seed", seed)
        if self.q_thresholds is not None:
            q = tuple(_exact("q_thresholds entry", float, x) for x in self.q_thresholds)
            if any(x <= 0 for x in q) or any(b <= a for a, b in zip(q, q[1:])):
                raise ValueError("q_thresholds must be positive and strictly increasing")
            object.__setattr__(self, "q_thresholds", q)
        if self.d_thresholds is not None:
            d = tuple(_exact("d_thresholds entry", int, x) for x in self.d_thresholds)
            if any(x < 1 for x in d) or any(b <= a for a, b in zip(d, d[1:])):
                raise ValueError("d_thresholds must be >= 1 and strictly increasing")
            object.__setattr__(self, "d_thresholds", d)


def _exact(field: str, kind: type, x):
    """x as ``kind`` (int or float) when it is a real number that kind
    holds exactly: no bool, no string, no 2.5 for an int, no NaN."""
    try:
        value = kind(x) if isinstance(x, numbers.Real) and not isinstance(x, bool) else None
    except (ValueError, OverflowError):
        value = None
    if value is None or value != x:
        what = "an integer" if kind is int else "a real number"
        raise ValueError(f"{field} must be {what}, got {x!r}")
    return value


@dataclass(frozen=True)
class QueueSimReport:
    """Empirical tails plus the two fitted decay slopes.

    Slopes are NaN when the corresponding tail had too few usable
    points to fit (for example a queue that never builds up).
    """

    overflow_points: Tuple[Tuple[float, float], ...]
    delay_points: Tuple[Tuple[int, float], ...]
    theta_sim: float
    delay_slope_sim: float
    varsigma_hat: float
    varsigma_ratio: float


def _lindley(arrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
    """Queue lengths after each block, starting from an empty buffer,
    written over ``services``.

    The queue is the running sum of arrivals - services less its running
    minimum, floored at the empty start's 0; the minimum is taken one
    _DRAW_BLOCK at a time, carried from block to block.
    """
    queue = np.subtract(arrivals, services, out=services)
    np.cumsum(queue, out=queue)
    low = 0.0
    for lo in range(0, queue.shape[0], _DRAW_BLOCK):
        block = queue[lo : lo + _DRAW_BLOCK]
        run = np.minimum.accumulate(block)
        np.minimum(run, low, out=run)
        np.subtract(block, run, out=block)
        low = run[-1]
    return queue


def _delay_tail_mass(arrivals, cum_arrivals, departed, d, start, stop):
    """(bit mass, block count) of arrivals in blocks [start, stop] still
    queued d blocks on."""
    late = cum_arrivals[start : stop + 1] - departed[start + d - 1 : stop + d]
    np.clip(late, 0.0, arrivals[start : stop + 1], out=late)
    return float(late.sum()), int(np.count_nonzero(late))


def _jump_cdf(probs: np.ndarray) -> np.ndarray:
    """Row CDFs of a stochastic matrix with the last entry pinned to 1.0.

    Validation lets a row sum to 1 - 1e-12; without the pin a uniform
    above the last partial sum would step past the row.
    """
    cdf = np.cumsum(probs, axis=1)
    cdf[:, -1] = 1.0
    return cdf


@lru_cache(maxsize=None)
def _map_algebra(n_states: int):
    """The maps of {0..n-1} into itself as base-n codes.

    Code c sends x to digit x of c, ``digits[c, x]``; ``compose[a * M +
    b]`` is the code of x -> a(b(x)), for M = n ** n maps.
    """
    n_maps = n_states ** n_states
    digits = np.arange(n_maps)[:, None] // n_states ** np.arange(n_states) % n_states
    images = digits[np.arange(n_maps)[:, None, None], digits[None, :, :]]
    compose = images @ (n_states ** np.arange(n_states))
    return compose.ravel(), digits


def _orbit(image, s, count) -> np.ndarray:
    """The first ``count`` iterates of one map from s (excluding s):
    a tail, then a cycle, at most len(image) states in all."""
    path = [s]
    while (s := int(image[s])) not in path:
        path.append(s)
    cycle = path[path.index(s) :]
    reps = -(-count // len(cycle))
    return np.concatenate((np.array(path[1:], dtype=np.intp), np.tile(cycle, reps)))[:count]


def _walk(cdf: np.ndarray, s0, draws: np.ndarray) -> np.ndarray:
    """States of a chain after each uniform in ``draws``, from state s0.

    A step from s goes to the first j with u <= cdf[s, j], the index
    ``searchsorted(side="left")`` and ``bisect_left`` find.  Below
    _SCAN_MAX_STATES states each step's map s -> next(u, s) is one
    integer code, and the state sequence is a Hillis-Steele scan that
    composes the codes through a table, one _SCAN_BLOCK of steps at a
    time.  The table has n ** (2n) entries (65536 at n = 4, 9.8e6 at
    n = 5), so larger chains take a per-step bisect; at n = 2..4 the
    scan is 1.3-2 times faster than the bisect.  A block whose steps
    all take the same map, as every jump of a chain whose rows each have
    one possible next state does, skips the scan: its states are that
    map's orbit (``_orbit``).  A uniform of exactly 0.0 reads a
    different code (state 0 of every row), so its block is scanned.
    """
    n_states = cdf.shape[0]
    s = int(s0)
    if n_states >= _SCAN_MAX_STATES:
        rows = cdf.tolist()
        path = []
        for u in draws.tolist():
            s = bisect_left(rows[s], u)
            path.append(s)
        return np.array(path, dtype=np.intp)
    compose, digits = _map_algebra(n_states)
    n_maps = digits.shape[0]
    states = np.empty(draws.shape[0], dtype=np.intp)
    for lo in range(0, draws.shape[0], _SCAN_BLOCK):
        u = draws[lo : lo + _SCAN_BLOCK]
        codes = np.searchsorted(cdf[0], u)
        for x in range(1, n_states):
            codes += np.searchsorted(cdf[x], u) * n_states ** x
        out = states[lo : lo + u.shape[0]]
        if codes.min() == codes.max():
            out[:] = _orbit(digits[codes[0]], s, u.shape[0])
        else:
            off = 1
            while off < u.shape[0]:
                # step k after steps k-off..k-1: code[k] o code[k - off]
                codes[off:] = compose[codes[off:] * n_maps + codes[:-off]]
                off *= 2
            out[:] = digits[codes, s]
        s = int(out[-1])
    return states


def _continuous_path(generator: np.ndarray, horizon, s0, rng):
    """Batches (states, jump times) of the chain from state s0 at time 0
    until the horizon is covered.

    Holding times and jump uniforms come in batches of _JUMP_BATCH
    (exponentials first), used from the end of the batch backwards; the
    path stops at the first jump that reaches the horizon or enters an
    absorbing state, and no batch is drawn after that.  A last batch,
    one jump of the state held to itself at max(t, horizon) + 1, closes
    the final dwell.
    """
    exit_rates = -np.diag(generator)
    n_states = generator.shape[0]
    live = exit_rates > 0
    eye = np.eye(n_states)
    # row/exit has -1 on the diagonal; the identity lifts it to 0.  An
    # absorbing row is never left, so it keeps a placeholder self-loop.
    probs = np.where(
        live[:, None], generator / np.where(live, exit_rates, 1.0)[:, None] + eye, eye
    )
    cdf = _jump_cdf(probs)
    hold_rates = np.where(live, exit_rates, np.inf)
    t = 0.0
    s = int(s0)
    while t < horizon and live[s]:
        e = rng.exponential(size=_JUMP_BATCH)[::-1]
        u = rng.random(_JUMP_BATCH)[::-1]
        states = _walk(cdf, s, u)
        before = np.concatenate(([s], states[:-1]))
        # a sequential sum from the carried time, as t += dt would give
        times = np.cumsum(np.concatenate(([t], e / hold_rates[before])))[1:]
        stop = (times >= horizon) | ~live[states]
        if stop.any():
            end = int(np.argmax(stop)) + 1
            states, times = states[:end], times[:end]
        yield states, times
        s, t = int(states[-1]), float(times[-1])
    yield np.array([s]), np.array([max(t, horizon) + 1.0])


def _arrival_start(source, seed):
    """(matrix twin, path generator, initial state) of a typed source.

    ``simulate_queue`` builds these in the calling thread: a process's
    first generator imports ``numpy.random``, about 0.8 MiB of module
    objects that would otherwise stay in a worker thread's malloc arena.
    """
    if not hasattr(source, "as_matrix"):
        raise TypeError(
            f"unsupported source type {type(source).__name__}; two-state "
            "continuous parameters name no family: use OnOffFluidParams or "
            "OnOffMmppParams, or convert with as_fluid_source or as_mmpp_source"
        )
    source = source.as_matrix()
    pi = source._stationary
    return source, _stream(seed, (0,)), _stream(seed, (2,)).choice(len(pi), p=pi)


def _arrival_trace(source, n, seed):
    """Arrivals per block of any typed source, sampled on its matrix twin."""
    return _sampled_arrivals(*_arrival_start(source, seed), n, np.empty(n + 1))


def _sampled_arrivals(source, rng, s0, n, volume):
    """Arrivals per block of a matrix source whose path starts in s0 and
    draws from rng, written into volume[1:] (volume holds n + 1 floats)
    and returned."""
    trace = volume[1:]
    # the one family choice left here: the path sampler
    if isinstance(source, DiscreteMarkovSource):
        cdf = _jump_cdf(source.transition_probs)
        s = s0
        for lo in range(0, n, _DRAW_BLOCK):
            block = trace[lo : lo + _DRAW_BLOCK]
            states = _walk(cdf, s, rng.random(block.shape[0]))
            np.take(source._rates, states, out=block)
            s = states[-1]
        return trace
    # volume[k] is the integral of the rate over block k - 1.  Each batch
    # carries on from the last jump time t, the state s held since then
    # and the integral c up to t; edges before k are done, and g is the
    # integral up to edge k - 1
    t, s, c, k, g = 0.0, int(s0), 0.0, 0, 0.0
    for states, times in _continuous_path(source.generator, float(n), s0, rng):
        edges = np.concatenate(([t], times))
        step = np.diff(edges) * source._rates[np.concatenate(([s], states[:-1]))]
        cum = np.cumsum(np.concatenate(([c], step)))
        top = min(math.ceil(times[-1]), n + 1)  # edges k .. top - 1 lie before times[-1]
        if top > k:
            grid = np.interp(np.arange(k, top, dtype=float), edges, cum)
            volume[k:top] = np.diff(grid, prepend=g)
            k, g = top, grid[-1]
        s, t, c = int(states[-1]), float(times[-1]), float(cum[-1])
    if source._poisson:
        # counts over the intensities
        for lo in range(0, n, _DRAW_BLOCK):
            block = trace[lo : lo + _DRAW_BLOCK]
            block[:] = rng.poisson(block)
    return trace


def _service_trace(spec: ChannelSpec, snr, n, seed):
    out = np.empty(n)

    def rates(start, z):
        chunk = out[start : start + z.shape[0]]
        np.multiply(z, snr, out=z)
        np.log1p(z, out=z)
        np.sum(z, axis=1, out=chunk)
        np.divide(chunk, LN2, out=chunk)

    for _ in _gain_chunks(spec, n, seed, (1,), rates):
        pass
    return out


def _auto_q_thresholds(queue_tail: np.ndarray):
    lo, hi = np.percentile(queue_tail, [50.0, 99.99])
    grid = np.linspace(lo, hi, _AUTO_POINTS)
    return [float(q) for q in dict.fromkeys(grid) if q > 0]


def _auto_d_thresholds(arrivals, cum_arrivals, departed, start, stop_for):
    # double the lag until fewer than one bit in 1e4 is still waiting
    d = 1
    while d <= stop_for(d) - start:
        denom = float(arrivals[start : stop_for(d) + 1].sum())
        if denom == 0.0:
            return []
        mass, _ = _delay_tail_mass(arrivals, cum_arrivals, departed, d, start, stop_for(d))
        if mass / denom < 1e-4 or d >= 4096:
            break
        d *= 2
    grid = np.unique(np.linspace(1, max(d, 2), _AUTO_POINTS).astype(int))
    return [int(x) for x in grid]


def fit_decay_slope(points, counts=None, *, min_count: int = _MIN_EVENTS) -> dict:
    """OLS fit of log probability against threshold.

    Returns the negated slope (the decay rate), the intercept and r
    squared.  Points with fewer than ``min_count`` observed events are
    dropped when ``counts`` is supplied; fewer than 4 surviving points
    raise InsufficientTail.  A flat tail fits slope 0 with r_squared 0.
    """
    usable = []
    for i, (x, p) in enumerate(points):
        if p <= 0:
            continue
        if counts is not None and counts[i] < min_count:
            continue
        usable.append((float(x), math.log(p)))
    if len(usable) < 4:
        raise InsufficientTail(
            f"need >= 4 usable tail points, have {len(usable)}"
        )
    xs = np.array([x for x, _ in usable])
    ys = np.array([y for _, y in usable])
    xc = xs - xs.mean()
    yc = ys - ys.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise InsufficientTail("tail thresholds are all identical")
    slope = float(xc @ yc) / sxx
    intercept = float(ys.mean() - slope * xs.mean())
    ss_tot = float(yc @ yc)
    if ss_tot == 0.0:
        r_squared = 0.0 if slope == 0.0 else 1.0
    else:
        resid = ys - (intercept + slope * xs)
        r_squared = 1.0 - float(resid @ resid) / ss_tot
    return {"slope": -slope, "intercept": intercept, "r_squared": r_squared}


def simulate_queue(cfg: SimConfig) -> QueueSimReport:
    """Run the queue over n_blocks fading blocks and fit both tails."""
    n = cfg.n_blocks
    start = _arrival_start(cfg.source, cfg.seed)
    # the arrival trace runs on a gain thread beside the service chunks,
    # into a buffer allocated here (see _gain_chunks on thread arenas)
    pool, _ = channel._pool(os.getpid())
    task = pool.submit(_sampled_arrivals, *start, n, np.empty(n + 1))
    try:
        services = _service_trace(cfg.channel, cfg.snr, n, cfg.seed)
    except BaseException:
        task.cancel()
        futures.wait([task])
        raise
    arrivals = task.result()

    check_at = min(_STABILITY_CHECK_AT, n)
    mean_a = float(arrivals[:check_at].mean())
    mean_s = float(services[:check_at].mean())
    if mean_a > _STABILITY_MARGIN * mean_s:
        raise UnstableQueue(
            f"mean arrival rate {mean_a:.6g} exceeds mean service rate "
            f"{mean_s:.6g} by more than {100 * (_STABILITY_MARGIN - 1):.0f}%"
        )

    warmup = min(max(n // 100, _MIN_BLOCKS), n // 2)
    mean_service = float(services[warmup:].mean())
    queue = _lindley(arrivals, services)
    del services
    tail = queue[warmup:]

    q_grid = (
        list(cfg.q_thresholds)
        if cfg.q_thresholds is not None
        else _auto_q_thresholds(tail)
    )
    n_tail = tail.shape[0]
    overflow_points = []
    overflow_counts = []
    for q in q_grid:
        count = int(np.count_nonzero(tail >= q))
        if count == 0:
            continue
        overflow_points.append((float(q), count / n_tail))
        overflow_counts.append(count)
    varsigma_hat = float(np.count_nonzero(tail > 0)) / n_tail

    cum_arrivals = np.cumsum(arrivals)
    # the queue is not read again: departures take its buffer
    departed = np.subtract(cum_arrivals, queue, out=queue)
    del queue, tail
    stop_for = lambda d: n - d  # last block whose lag-d verdict is in horizon
    d_grid = (
        list(cfg.d_thresholds)
        if cfg.d_thresholds is not None
        else _auto_d_thresholds(arrivals, cum_arrivals, departed, warmup, stop_for)
    )
    delay_points = []
    delay_counts = []
    for d in d_grid:
        stop = stop_for(d)
        if stop < warmup:
            continue
        denom = float(arrivals[warmup : stop + 1].sum())
        if denom == 0.0:
            continue
        mass, count = _delay_tail_mass(arrivals, cum_arrivals, departed, d, warmup, stop)
        if mass <= 0.0:
            continue
        delay_points.append((int(d), mass / denom))
        delay_counts.append(count)

    def _slope(points, counts):
        try:
            return fit_decay_slope(points, counts)["slope"]
        except InsufficientTail:
            return math.nan

    mean_arrival = float(arrivals[warmup:].mean())
    ratio = mean_arrival / mean_service if mean_service > 0 else 0.0

    return QueueSimReport(
        overflow_points=tuple(overflow_points),
        delay_points=tuple(delay_points),
        theta_sim=_slope(overflow_points, overflow_counts),
        delay_slope_sim=_slope(delay_points, delay_counts),
        varsigma_hat=varsigma_hat,
        varsigma_ratio=ratio,
    )


def varsigma_estimate(report: QueueSimReport) -> dict:
    """Both estimates of the non-empty probability prefactor."""
    return {
        "empirical": report.varsigma_hat,
        "ratio_approx": report.varsigma_ratio,
    }
