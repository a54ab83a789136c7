"""The simulator's tail phase as one serial pass over whole arrays.

Oracle for ``queuesim.simulate_queue``: the same traces, then the
stability check, the Lindley recursion, the overflow counts and one
``_delay_tail_mass`` per lag, the auto lag search included, each over
the whole tail on the calling thread.  The report it builds must equal
the simulator's to the bit.
"""

import math

import numpy as np

from qoslink.errors import InsufficientTail, UnstableQueue
from qoslink.queuesim import (
    _MIN_BLOCKS,
    _STABILITY_CHECK_AT,
    _STABILITY_MARGIN,
    QueueSimReport,
    _arrival_trace,
    _auto_q_thresholds,
    _lindley,
    _service_trace,
    fit_decay_slope,
)


def _delay_tail_mass(arrivals, cum_arrivals, departed, d, start, stop):
    """(bit mass, block count) of arrivals in blocks [start, stop] still
    queued d blocks on."""
    late = cum_arrivals[start : stop + 1] - departed[start + d - 1 : stop + d]
    np.clip(late, 0.0, arrivals[start : stop + 1], out=late)
    return float(late.sum()), int(np.count_nonzero(late))


def _auto_d_thresholds(arrivals, cum_arrivals, departed, start, stop_for):
    d = 1
    while d <= stop_for(d) - start:
        denom = float(arrivals[start : stop_for(d) + 1].sum())
        if denom == 0.0:
            return []
        mass, _ = _delay_tail_mass(arrivals, cum_arrivals, departed, d, start, stop_for(d))
        if mass / denom < 1e-4 or d >= 4096:
            break
        d *= 2
    grid = np.unique(np.linspace(1, max(d, 2), 12).astype(int))
    return [int(x) for x in grid]


def serial_simulate_queue(cfg) -> QueueSimReport:
    n = cfg.n_blocks
    arrivals = _arrival_trace(cfg.source, n, cfg.seed)
    services = _service_trace(cfg.channel, cfg.snr, n, cfg.seed)

    check_at = min(_STABILITY_CHECK_AT, n)
    mean_a = float(arrivals[:check_at].mean())
    mean_s = float(services[:check_at].mean())
    if mean_a > _STABILITY_MARGIN * mean_s:
        raise UnstableQueue("unstable")

    warmup = min(max(n // 100, _MIN_BLOCKS), n // 2)
    mean_service = float(services[warmup:].mean())
    queue = _lindley(arrivals, services)
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
    departed = cum_arrivals - queue
    stop_for = lambda d: n - d
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

    def fit(points, counts):
        try:
            return fit_decay_slope(points, counts)
        except InsufficientTail:
            return {"slope": math.nan, "r_squared": math.nan}

    overflow_fit = fit(overflow_points, overflow_counts)
    delay_fit = fit(delay_points, delay_counts)
    mean_arrival = float(arrivals[warmup:].mean())
    return QueueSimReport(
        overflow_points=tuple(overflow_points),
        delay_points=tuple(delay_points),
        theta_sim=overflow_fit["slope"],
        delay_slope_sim=delay_fit["slope"],
        varsigma_hat=varsigma_hat,
        varsigma_ratio=mean_arrival / mean_service if mean_service > 0 else 0.0,
        overflow_r_squared=overflow_fit["r_squared"],
        delay_r_squared=delay_fit["r_squared"],
        overflow_counts=tuple(overflow_counts),
        delay_counts=tuple(delay_counts),
        warmup=warmup,
        check_means=(mean_a, mean_s),
    )
