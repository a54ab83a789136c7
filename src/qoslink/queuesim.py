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
jump (except the per-step bisect walk of chains of other than two
states), and they consume the same draws in the same order as a
per-step loop, so every seeded output is reproducible bit for bit:

- a chain step from state s goes to the first j with u <= cdf[s, j];
  the last CDF entry of each row is pinned to 1.0; a two-state chain
  (every ON/OFF source) is walked by one closed form over the whole
  batch of steps, any other chain by a per-step bisect;
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
  moves no bit either;
- the tail statistics (the overflow counts, and each delay lag's late
  mass, late count and arrived mass, taken once per lag) run in the
  caller, one block at a time down numpy's pairwise-sum tree, so every
  float sum is the whole array's ``sum()`` to the bit.
"""

from __future__ import annotations

import math
import operator
import os
from bisect import bisect_left
from concurrent import futures
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Optional, Tuple

import numpy as np

from . import channel
from .channel import ChannelSpec, _block_rates, _gain_chunks, _stream
from .errors import InsufficientTail, UnstableQueue, ValidationError, _check_seed, _exact_number
from .sources import _typed_source

_JUMP_BATCH = 4096
# Discrete uniforms and MMPP Poisson counts are taken this many blocks
# at a time, so no trace holds an n-sized temporary.
_DRAW_BLOCK = 1 << 12
_MIN_BLOCKS = 10 ** 4
_STABILITY_CHECK_AT = 10 ** 5
_STABILITY_MARGIN = 1.01
_MIN_EVENTS = 100
_AUTO_POINTS = 12
_TAIL_BLOCK = 1 << 16  # largest node of a tail reduction; see _tree_sum


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
        snr = _exact_number("snr", float, self.snr)
        if snr <= 0:
            raise ValidationError("snr", f"must be > 0 (linear), got {snr}")
        object.__setattr__(self, "snr", snr)
        n = _exact_number("n_blocks", int, self.n_blocks)
        if n < _MIN_BLOCKS:
            raise ValidationError("n_blocks", f"must be >= {_MIN_BLOCKS}, got {n}")
        object.__setattr__(self, "n_blocks", n)
        object.__setattr__(self, "seed", _check_seed("seed", self.seed))
        if self.q_thresholds is not None:
            q = _thresholds("q_thresholds", float, self.q_thresholds)
            if any(x <= 0 for x in q) or any(b <= a for a, b in zip(q, q[1:])):
                raise ValidationError("q_thresholds", "must be positive and strictly increasing")
            object.__setattr__(self, "q_thresholds", q)
        if self.d_thresholds is not None:
            d = _thresholds("d_thresholds", int, self.d_thresholds)
            if any(x < 1 for x in d) or any(b <= a for a, b in zip(d, d[1:])):
                raise ValidationError("d_thresholds", "must be >= 1 and strictly increasing")
            object.__setattr__(self, "d_thresholds", d)


def _thresholds(name: str, kind: type, values) -> tuple:
    """Thresholds as a tuple of ``kind``, each read by the one number rule."""
    try:
        numbers = iter(values)
    except TypeError:
        raise ValidationError(name, f"must be a list of numbers, got {values!r}") from None
    return tuple(_exact_number(name, kind, x) for x in numbers)


@dataclass(frozen=True)
class QueueSimReport:
    """Empirical tails plus the two fitted decay slopes.

    Slopes are NaN when the corresponding tail had too few usable
    points to fit (for example a queue that never builds up), and so is
    the fit's r squared.  ``overflow_counts`` and ``delay_counts`` are
    the events behind each point (blocks at or over q, blocks with bits
    still queued after d), ``warmup`` the blocks left out before the
    tails, and ``check_means`` the (arrival, service) means per block
    over the first min(10^5, n) blocks that the stability check compares.
    """

    overflow_points: Tuple[Tuple[float, float], ...]
    delay_points: Tuple[Tuple[int, float], ...]
    theta_sim: float
    delay_slope_sim: float
    varsigma_hat: float
    varsigma_ratio: float
    overflow_r_squared: float = math.nan
    delay_r_squared: float = math.nan
    overflow_counts: Tuple[int, ...] = ()
    delay_counts: Tuple[int, ...] = ()
    warmup: int = 0
    check_means: Tuple[float, float] = (math.nan, math.nan)


def _lindley(arrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
    """Queue lengths after each block, starting from an empty buffer,
    written over ``services``.

    The queue is the running sum of arrivals - services less its running
    minimum over the whole array, floored at the empty start's 0.
    """
    queue = np.subtract(arrivals, services, out=services)
    np.cumsum(queue, out=queue)
    low = np.minimum.accumulate(queue)
    np.minimum(low, 0.0, out=low)
    return np.subtract(queue, low, out=queue)


def _pairwise_split(n: int) -> int:
    """Where numpy's pairwise sum of n > 128 contiguous floats splits
    them: ``a.sum() == a[:h].sum() + a[h:].sum()`` bit for bit."""
    h = n // 2
    return h - h % 8


def _tree_sum(work, lo, hi, buf):
    """Elementwise sum of ``work(a, b, buf)`` over the nodes [a, b) of
    numpy's pairwise-sum tree on [lo, hi) that hold at most _TAIL_BLOCK
    items, added in the tree's order: a float sum that ``work`` takes
    over its node adds up to the whole range's ``sum()`` to the bit,
    with no temporary larger than one node."""
    if hi - lo <= _TAIL_BLOCK:
        return work(lo, hi, buf)
    mid = lo + _pairwise_split(hi - lo)
    return tuple(map(operator.add, _tree_sum(work, lo, mid, buf), _tree_sum(work, mid, hi, buf)))


def _tail_counts(tail, q_grid, lo, hi, buf):
    """(blocks of tail[lo:hi] with a queue >= q for each q in q_grid,
    blocks with a queue > 0)."""
    block, mask = tail[lo:hi], buf[1][: hi - lo]
    counts = [np.count_nonzero(np.greater_equal(block, q, out=mask)) for q in q_grid]
    counts.append(np.count_nonzero(np.greater(block, 0.0, out=mask)))
    return tuple(map(int, counts))


def _delay_tail(arrivals, cum_arrivals, departed, d, start, lo, hi, buf):
    """(bit mass, block count, bits arrived) of blocks start + [lo, hi):
    the mass and count are the arrivals still queued d blocks on."""
    a, b = start + lo, start + hi
    late, mask = buf[0][: hi - lo], buf[1][: hi - lo]
    np.subtract(cum_arrivals[a:b], departed[a + d - 1 : b + d - 1], out=late)
    # clip to [0, arrivals] by two branch-free ufuncs: the same values
    np.maximum(late, 0.0, out=late)
    np.minimum(late, arrivals[a:b], out=late)
    count = np.count_nonzero(np.not_equal(late, 0.0, out=mask))
    return float(late.sum()), int(count), float(arrivals[a:b].sum())


def _jump_cdf(probs: np.ndarray) -> np.ndarray:
    """Row CDFs of a stochastic matrix with the last entry pinned to 1.0.

    Validation lets a row sum to 1 - 1e-12; without the pin a uniform
    above the last partial sum would step past the row.
    """
    cdf = np.cumsum(probs, axis=1)
    cdf[:, -1] = 1.0
    return cdf


def _walk(cdf: np.ndarray, s0, draws: np.ndarray) -> np.ndarray:
    """States of a chain after each uniform in ``draws``, from state s0.

    A step from s goes to the first j with u <= cdf[s, j], the index
    ``bisect_left`` finds; a chain of other than two states takes one
    bisect per step.  On a two-entry row ``bisect_left`` first tests the
    pinned last entry, which no u < 1 passes, then returns u > cdf[s, 0],
    whether or not the row is sorted; so a two-state step is that test.
    With a = u > cdf[0, 0] and b = u > cdf[1, 0], a step with a == b
    sets the state to a, and any other step maps s to s ^ a.  With odd[k]
    the xor of a over steps 0..k, the state after step k is then
    odd[k] ^ odd[r - 1] for r the last setting step at or before k
    (odd[-1] = 0), or s0 ^ odd[k] if no step up to k sets it.
    """
    s = int(s0)
    if cdf.shape[0] != 2:
        rows = cdf.tolist()
        path = []
        for x in draws.tolist():
            s = bisect_left(rows[s], x)
            path.append(s)
        return np.array(path, dtype=np.intp)
    a = draws > cdf[0, 0]
    odd = np.logical_xor.accumulate(a)
    setting = np.where(a == (draws > cdf[1, 0]), np.arange(a.shape[0]), -1)
    last = np.maximum.accumulate(setting)
    # before[r + 1] = odd[r - 1], with 0 at r = 0; before[0] = s0 at r = -1
    before = np.concatenate(([s == 1, False], odd[:-1]))
    return (odd ^ before[last + 1]).astype(np.intp)


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
    source = _typed_source(source).as_matrix()
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
    # the path sampler follows the chain's time base
    if source._discrete:
        cdf = _jump_cdf(source._matrix)
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
    for states, times in _continuous_path(source._matrix, float(n), s0, rng):
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
        _block_rates(z, snr, out[start : start + z.shape[0]])

    for _ in _gain_chunks(spec, n, seed, (1,), rates):
        pass
    return out


def _auto_q_thresholds(queue_tail: np.ndarray):
    # np.percentile(queue_tail, [50, 99.99]) to the bit, by numpy's linear
    # rule: np.percentile dedupes its ranks with np.unique, whose first
    # call imports numpy.ma (about 20 ms of a fresh process)
    n = queue_tail.shape[0]
    ranks = []
    for q in (50.0 / 100, 99.99 / 100):
        at = (n - 1) * q
        below = math.floor(at)
        ranks.append((below, min(below + 1, n - 1), at - below))
    part = np.partition(queue_tail, list(dict.fromkeys(k for r in ranks for k in r[:2])))
    lo, hi = (_lerp(float(part[i]), float(part[j]), t) for i, j, t in ranks)
    grid = np.linspace(lo, hi, _AUTO_POINTS)
    return [float(q) for q in dict.fromkeys(grid) if q > 0]


def _lerp(a: float, b: float, t: float) -> float:
    """numpy's linear interpolation from a to b at t in [0, 1], exact at
    both ends: from b where t >= 0.5."""
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _auto_d_thresholds(delay_tail, start, n):
    # double the lag until fewer than one bit in 1e4 is still waiting
    d = 1
    while d <= n - d - start:
        mass, _, denom = delay_tail(d)
        if denom == 0.0:
            return []
        if mass / denom < 1e-4 or d >= 4096:
            break
        d *= 2
    # the grid ascends, so dropping repeats keeps it sorted
    return list(dict.fromkeys(np.linspace(1, max(d, 2), _AUTO_POINTS).astype(int).tolist()))


def fit_decay_slope(points, counts=None) -> dict:
    """OLS fit of log probability against threshold.

    Returns the negated slope (the decay rate), the intercept and r
    squared.  Each (threshold, probability) point and each count is read
    by the one number rule, and a point that is not such a pair, a
    probability above 1 or a ``counts`` of another length than
    ``points`` raises ValidationError.  Points
    with probability <= 0, or with fewer than _MIN_EVENTS (100) observed
    events when ``counts`` is supplied, are dropped; fewer than 4
    surviving points raise InsufficientTail.  A flat tail fits slope 0
    with r_squared 0.
    """
    points = list(points)
    if counts is not None:
        counts = [_exact_number(f"counts[{i}]", int, c) for i, c in enumerate(counts)]
        if len(counts) != len(points):
            raise ValidationError("counts", f"must have {len(points)} entries, got {len(counts)}")
    usable = []
    for i, point in enumerate(points):
        try:
            x, p = point
        except (TypeError, ValueError):
            raise ValidationError(
                f"points[{i}]", f"must be a (threshold, probability) pair, got {point!r}"
            ) from None
        x = _exact_number(f"points[{i}]", float, x)
        p = _exact_number(f"points[{i}]", float, p)
        if p > 1:
            raise ValidationError(f"points[{i}]", f"probability must be <= 1, got {p}")
        if p <= 0:
            continue
        if counts is not None and counts[i] < _MIN_EVENTS:
            continue
        usable.append((x, math.log(p)))
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
    scratch = np.empty(_TAIL_BLOCK), np.empty(_TAIL_BLOCK, bool)  # float and mask block
    *counts, busy = _tree_sum(partial(_tail_counts, tail, q_grid), 0, n_tail, scratch)
    overflow = [(float(q), count / n_tail, count) for q, count in zip(q_grid, counts) if count]
    varsigma_hat = float(busy) / n_tail

    cum_arrivals = np.cumsum(arrivals)
    # the queue is not read again: departures take its buffer
    departed = np.subtract(cum_arrivals, queue, out=queue)
    del queue, tail

    @lru_cache(maxsize=None)
    def delay_tail(d):
        # blocks warmup .. n - d, the last whose lag-d verdict is in horizon
        work = partial(_delay_tail, arrivals, cum_arrivals, departed, d, warmup)
        return _tree_sum(work, 0, n - d - warmup + 1, scratch)

    d_grid = (
        list(cfg.d_thresholds)
        if cfg.d_thresholds is not None
        else _auto_d_thresholds(delay_tail, warmup, n)
    )
    delay = []
    for d in d_grid:
        if n - d < warmup:
            continue
        mass, count, denom = delay_tail(d)
        if denom == 0.0 or mass <= 0.0:
            continue
        delay.append((int(d), mass / denom, count))

    def _fit(rows):
        # (x, probability, events) rows; NaN slope and r squared when too few
        try:
            return fit_decay_slope([r[:2] for r in rows], [r[2] for r in rows])
        except InsufficientTail:
            return {"slope": math.nan, "r_squared": math.nan}

    mean_arrival = float(arrivals[warmup:].mean())
    ratio = mean_arrival / mean_service if mean_service > 0 else 0.0
    overflow_fit, delay_fit = _fit(overflow), _fit(delay)

    return QueueSimReport(
        overflow_points=tuple(r[:2] for r in overflow),
        delay_points=tuple(r[:2] for r in delay),
        theta_sim=overflow_fit["slope"],
        delay_slope_sim=delay_fit["slope"],
        varsigma_hat=varsigma_hat,
        varsigma_ratio=ratio,
        overflow_r_squared=overflow_fit["r_squared"],
        delay_r_squared=delay_fit["r_squared"],
        overflow_counts=tuple(r[2] for r in overflow),
        delay_counts=tuple(r[2] for r in delay),
        warmup=warmup,
        check_means=(mean_a, mean_s),
    )
