"""Queue simulator: exact recursions, fits, tails, slope validation."""

import math
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor
from itertools import count
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qoslink import channel, queuesim
from qoslink.channel import ChannelSpec, effective_capacity_rayleigh_iid
from qoslink.errors import InsufficientTail, UnstableQueue
from qoslink.queuesim import (
    SimConfig,
    _arrival_trace,
    _continuous_path,
    _delay_tail_mass,
    _jump_cdf,
    _lindley,
    _service_trace,
    _walk,
    fit_decay_slope,
    simulate_queue,
    varsigma_estimate,
)
from qoslink.sources import (
    DiscreteMarkovSource,
    FluidMarkovSource,
    MmppSource,
    OnOffContinuousParams,
    OnOffDiscreteParams,
    OnOffFluidParams,
    OnOffMmppParams,
    as_fluid_source,
    as_mmpp_source,
)
from qoslink.throughput import (
    max_avg_rate_onoff_discrete,
    max_avg_rate_onoff_fluid,
    max_avg_rate_onoff_mmpp,
)

SPEC = ChannelSpec(m=10, rho=0.0)


def test_lindley_hand_trace():
    arrivals = np.array([3.0, 0.0, 5.0, 1.0, 0.0])
    services = np.array([1.0, 2.0, 2.0, 2.0, 10.0])
    assert np.array_equal(_lindley(arrivals, services), [2.0, 0.0, 3.0, 2.0, 0.0])


def test_lindley_in_place_equals_the_whole_array_minimum():
    # the running minimum carried block by block is the whole array's
    n = 3 * queuesim._DRAW_BLOCK + 17
    rng = np.random.default_rng(5)
    arrivals = rng.exponential(1.0, n)
    services = rng.exponential(1.02, n)
    net = np.concatenate(([0.0], np.cumsum(arrivals - services)))
    want = net[1:] - np.minimum.accumulate(net)[1:]
    got = _lindley(arrivals, services)
    assert got.tobytes() == want.tobytes()
    assert np.shares_memory(got, services)


def test_delay_tail_hand_trace():
    arrivals = np.array([3.0, 0.0, 5.0, 1.0, 0.0])
    services = np.array([1.0, 2.0, 2.0, 2.0, 10.0])
    queue = _lindley(arrivals, services)
    cum = np.cumsum(arrivals)
    departed = cum - queue
    # 6 of the 9 bits (from 3 blocks) wait at least one block, 1 (from
    # block 2) waits at least two
    assert _delay_tail_mass(arrivals, cum, departed, 1, 0, 4) == (6.0, 3)
    assert _delay_tail_mass(arrivals, cum, departed, 2, 0, 3) == (1.0, 1)


def test_fit_exact_exponential():
    pts = [(q, 0.5 * math.exp(-0.3 * q)) for q in (1.0, 2.0, 5.0, 8.0, 13.0)]
    fit = fit_decay_slope(pts)
    assert fit["slope"] == pytest.approx(0.3, rel=1e-12)
    assert fit["intercept"] == pytest.approx(math.log(0.5), rel=1e-12)
    assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)


def test_fit_flat_tail():
    fit = fit_decay_slope([(q, 0.25) for q in (1.0, 2.0, 3.0, 4.0)])
    assert fit["slope"] == 0.0
    assert fit["r_squared"] == 0.0


def test_fit_insufficient_points():
    with pytest.raises(InsufficientTail):
        fit_decay_slope([(1.0, 0.5), (2.0, 0.3), (3.0, 0.2)])
    # the count filter can empty an otherwise long list
    pts = [(q, 0.5 * math.exp(-0.3 * q)) for q in (1.0, 2.0, 3.0, 4.0, 5.0)]
    with pytest.raises(InsufficientTail):
        fit_decay_slope(pts, counts=[50, 50, 50, 200, 200])
    with pytest.raises(InsufficientTail):
        fit_decay_slope([(1.0, 0.5), (1.0, 0.5), (1.0, 0.5), (1.0, 0.5)])


def test_zero_rate_source_gives_empty_queue():
    cfg = SimConfig(
        source=OnOffDiscreteParams(0.8, 0.8, 0.0),
        channel=SPEC,
        snr=1.0,
        n_blocks=10 ** 4,
        seed=7,
    )
    rep = simulate_queue(cfg)
    assert rep.overflow_points == () and rep.delay_points == ()
    assert math.isnan(rep.theta_sim) and math.isnan(rep.delay_slope_sim)
    assert rep.varsigma_hat == 0.0 and rep.varsigma_ratio == 0.0
    assert varsigma_estimate(rep) == {"empirical": 0.0, "ratio_approx": 0.0}


def _loaded_config(theta, n_blocks, seed):
    ce = effective_capacity_rayleigh_iid(1.0, theta, 10).value
    lam = max_avg_rate_onoff_discrete(ce, theta, 0.8, 0.8).lambda_star
    cfg = SimConfig(
        source=OnOffDiscreteParams(0.8, 0.8, lam),
        channel=SPEC,
        snr=1.0,
        n_blocks=n_blocks,
        seed=seed,
    )
    return cfg, ce


def test_fitted_slopes_track_theory():
    theta = 0.2
    cfg, ce = _loaded_config(theta, 2 * 10 ** 5, 7)
    rep = simulate_queue(cfg)
    assert rep.theta_sim == pytest.approx(theta, rel=0.12)
    assert rep.delay_slope_sim == pytest.approx(theta * ce, rel=0.12)
    assert 0.0 < rep.varsigma_hat < 1.0
    assert 0.0 < rep.varsigma_ratio < 1.0


def test_reports_are_reproducible():
    cfg, _ = _loaded_config(0.2, 10 ** 4, 123)
    assert simulate_queue(cfg) == simulate_queue(cfg)
    other = SimConfig(
        source=cfg.source,
        channel=cfg.channel,
        snr=cfg.snr,
        n_blocks=cfg.n_blocks,
        seed=124,
    )
    assert simulate_queue(other) != simulate_queue(cfg)


def test_tails_are_nonincreasing():
    cfg, _ = _loaded_config(0.1, 10 ** 5, 11)
    rep = simulate_queue(cfg)
    over = [p for _, p in rep.overflow_points]
    delay = [p for _, p in rep.delay_points]
    assert all(b <= a for a, b in zip(over, over[1:]))
    assert all(b <= a for a, b in zip(delay, delay[1:]))
    assert all(0.0 < p <= 1.0 for p in over + delay)


def test_explicit_thresholds_are_used():
    cfg, _ = _loaded_config(0.2, 10 ** 5, 5)
    cfg2 = SimConfig(
        source=cfg.source,
        channel=cfg.channel,
        snr=cfg.snr,
        n_blocks=cfg.n_blocks,
        seed=cfg.seed,
        q_thresholds=(5.0, 10.0, 15.0),
        d_thresholds=(1, 2, 3),
    )
    rep = simulate_queue(cfg2)
    assert [q for q, _ in rep.overflow_points] == [5.0, 10.0, 15.0]
    assert [d for d, _ in rep.delay_points] == [1, 2, 3]
    # three points cannot support a fit
    assert math.isnan(rep.theta_sim)


def test_overload_raises():
    cfg = SimConfig(
        source=OnOffDiscreteParams(0.8, 0.8, 100.0),
        channel=SPEC,
        snr=1.0,
        n_blocks=10 ** 4,
        seed=1,
    )
    with pytest.raises(UnstableQueue):
        simulate_queue(cfg)


def test_config_validation():
    src = OnOffDiscreteParams(0.8, 0.8, 1.0)
    with pytest.raises(ValueError, match="n_blocks"):
        SimConfig(source=src, channel=SPEC, snr=1.0, n_blocks=100, seed=0)
    with pytest.raises(ValueError, match="snr"):
        SimConfig(source=src, channel=SPEC, snr=0.0, n_blocks=10 ** 4, seed=0)
    with pytest.raises(ValueError, match="seed"):
        SimConfig(source=src, channel=SPEC, snr=1.0, n_blocks=10 ** 4, seed=-1)
    with pytest.raises(ValueError, match="q_thresholds"):
        SimConfig(
            source=src, channel=SPEC, snr=1.0, n_blocks=10 ** 4, seed=0,
            q_thresholds=(3.0, 2.0),
        )
    with pytest.raises(ValueError, match="d_thresholds"):
        SimConfig(
            source=src, channel=SPEC, snr=1.0, n_blocks=10 ** 4, seed=0,
            d_thresholds=(0, 1),
        )


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_blocks", 10 ** 4 + 0.5),
        ("n_blocks", True),
        ("n_blocks", "20000"),
        ("seed", 1.5),
        ("seed", True),
        ("seed", "7"),
        ("d_thresholds", (2.5,)),
        ("d_thresholds", (1, "3")),
        ("d_thresholds", (True, 2)),
        ("q_thresholds", (True,)),
        ("q_thresholds", (np.True_,)),
        ("q_thresholds", ("1.0",)),
        ("q_thresholds", (math.nan,)),
    ],
)
def test_sim_config_numbers_must_fit_their_fields(field, value):
    fields = dict(source=OnOffDiscreteParams(0.8, 0.8, 1.0), channel=SPEC, snr=1.0,
                  n_blocks=10 ** 4, seed=0)
    fields[field] = value
    with pytest.raises(ValueError, match=field):
        SimConfig(**fields)


def test_sim_config_takes_numpy_numbers():
    cfg = SimConfig(
        source=OnOffDiscreteParams(0.8, 0.8, 1.0), channel=SPEC, snr=1.0,
        n_blocks=np.int64(10 ** 4), seed=np.uint64(3),
        q_thresholds=(1, np.float64(2.5)), d_thresholds=(np.int32(2), 3.0),
    )
    assert (cfg.n_blocks, cfg.seed, cfg.q_thresholds, cfg.d_thresholds) == (
        10 ** 4, 3, (1.0, 2.5), (2, 3)
    )
    assert type(cfg.n_blocks) is type(cfg.seed) is type(cfg.d_thresholds[0]) is int
    assert type(cfg.q_thresholds[0]) is float


def test_ambiguous_continuous_params_rejected():
    cfg = SimConfig(
        source=OnOffContinuousParams(2.0, 2.0, 3.0),
        channel=SPEC,
        snr=1.0,
        n_blocks=10 ** 4,
        seed=0,
    )
    with pytest.raises(TypeError, match="as_fluid_source or"):
        simulate_queue(cfg)


def test_service_trace_mean():
    # E{sum log2(1+z_i)} = 10 * 0.8603473822708859 at snr=1, rho=0
    trace = _service_trace(SPEC, 1.0, 2 * 10 ** 5, 11)
    se = trace.std() / math.sqrt(trace.size)
    assert abs(trace.mean() - 8.6034738227088595) < 4 * se


def test_discrete_arrival_statistics():
    lam = 9.0
    trace = _arrival_trace(OnOffDiscreteParams(0.8, 0.8, lam), 10 ** 5, 42)
    on = trace > 0
    assert trace.mean() == pytest.approx(0.5 * lam, rel=0.02)
    corr = np.corrcoef(on[:-1], on[1:])[0, 1]
    assert corr == pytest.approx(0.6, abs=0.02)
    assert np.array_equal(
        trace, _arrival_trace(OnOffDiscreteParams(0.8, 0.8, lam), 10 ** 5, 42)
    )


def test_fluid_arrival_statistics():
    src = as_fluid_source(OnOffContinuousParams(2.0, 2.0, 3.0))
    trace = _arrival_trace(src, 10 ** 5, 5)
    assert trace.min() >= 0.0 and trace.max() <= 3.0 + 1e-12
    assert trace.mean() == pytest.approx(1.5, rel=0.02)


def test_mmpp_arrival_statistics():
    params = OnOffContinuousParams(2.0, 2.0, 3.0)
    mm = _arrival_trace(as_mmpp_source(params), 10 ** 5, 5)
    fl = _arrival_trace(as_fluid_source(params), 10 ** 5, 5)
    assert np.array_equal(mm, np.round(mm))  # counts
    assert mm.mean() == pytest.approx(1.5, rel=0.03)
    # the Poisson layer adds variance on top of the rate modulation
    assert mm.var() > fl.var() + 0.5


def test_fluid_and_mmpp_simulations_run():
    for build in (as_fluid_source, as_mmpp_source):
        cfg = SimConfig(
            source=build(OnOffContinuousParams(2.0, 2.0, 3.0)),
            channel=SPEC,
            snr=1.0,
            n_blocks=10 ** 4,
            seed=3,
        )
        rep = simulate_queue(cfg)
        assert 0.0 <= rep.varsigma_hat <= 1.0
        assert 0.0 < rep.varsigma_ratio < 1.0


def test_theta_sim_value_pinned():
    # stream-layout golden: any change to seed derivation, chunking or
    # threshold selection moves this number
    cfg, _ = _loaded_config(0.2, 20000, 11)
    rep = simulate_queue(cfg)
    assert rep.theta_sim == pytest.approx(0.2063658433788864, rel=1e-9)
    assert rep.varsigma_hat == pytest.approx(0.4467, abs=1e-12)


@pytest.mark.parametrize(
    "build, solve, golden",
    [
        (as_fluid_source, max_avg_rate_onoff_fluid,
         (0.13340962189211036, 1.149781094140529, 0.8636)),
        (as_mmpp_source, max_avg_rate_onoff_mmpp,
         (0.08406041288673308, 0.7304520321532059, 0.7629)),
    ],
)
def test_continuous_sim_values_pinned(build, solve, golden):
    # stream-layout golden of the continuous samplers: jump batches, their
    # use from the end, the stop at the horizon and, for MMPP, the Poisson
    # counts drawn after the path
    theta = 0.1
    ce = effective_capacity_rayleigh_iid(1.0, theta, 10).value
    lam = solve(ce, theta, 9.0, 1.0).lambda_star
    cfg = SimConfig(
        source=build(OnOffContinuousParams(9.0, 1.0, lam)),
        channel=SPEC,
        snr=1.0,
        n_blocks=20000,
        seed=11,
    )
    rep = simulate_queue(cfg)
    assert (rep.theta_sim, rep.delay_slope_sim, rep.varsigma_hat) == pytest.approx(
        golden, rel=1e-9
    )


@pytest.mark.parametrize(
    "typed, build",
    [(OnOffFluidParams, as_fluid_source), (OnOffMmppParams, as_mmpp_source)],
)
def test_typed_continuous_sources_simulate_as_their_matrix_twins(typed, build):
    theta = 0.1
    ce = effective_capacity_rayleigh_iid(1.0, theta, 10).value
    lam = max_avg_rate_onoff_fluid(ce, theta, 9.0, 1.0).lambda_star
    reports = [
        simulate_queue(
            SimConfig(source=source, channel=SPEC, snr=1.0, n_blocks=20000, seed=11)
        )
        for source in (typed(9.0, 1.0, lam), build(OnOffContinuousParams(9.0, 1.0, lam)))
    ]
    assert math.isfinite(reports[0].theta_sim)
    assert reports[0] == reports[1]


def _discrete_state_path(src, n, s0, rng):
    """The discrete chain walked over one ``rng.random(n)`` call: the
    oracle of the block-drawn discrete trace."""
    return _walk(_jump_cdf(src.transition_probs), s0, rng.random(n))


class _TopUniform:
    """Stub generator: every uniform is the largest double below 1."""

    def random(self, size):
        return np.full(size, 1.0 - 2.0 ** -53)

    def exponential(self, size):
        return np.ones(size)


def test_short_cdf_row_stays_in_range():
    # rows may sum to 1 - 1e-12; a uniform above the last partial sum
    # must land on the last state, not step past the row
    src = DiscreteMarkovSource([[0.5, 0.5 - 1e-12], [0.5, 0.5]], [0.0, 1.0])
    assert np.array_equal(_discrete_state_path(src, 50, 0, _TopUniform()), np.ones(50))
    generator = np.array([[-1.0, 1.0 - 5e-13], [1.0, -1.0]])
    states, times = _joined_path(generator, 20.0, 0, _TopUniform())
    assert np.array_equal(states, np.arange(21) % 2)
    assert np.array_equal(times, np.append(np.arange(21.0), 21.0))


def _joined_path(generator, horizon, s0, rng):
    """The streamed batches joined into the whole path: the state held
    from each jump time (s0 from time 0), and the jump times, closed by
    the last batch's time past the horizon."""
    batches = list(_continuous_path(generator, horizon, s0, rng))
    states = np.concatenate([[s0]] + [s for s, _ in batches[:-1]])
    return states, np.concatenate([[0.0]] + [t for _, t in batches])


def _blocked_integral(values_per_state, states, times, n):
    """Integral of the piecewise-constant state value over each unit
    block, from the whole path: the streamed integral's oracle."""
    cum = np.empty(times.shape[0])
    cum[0] = 0.0
    step = cum[1:]
    np.subtract(times[1:], times[:-1], out=step)
    np.multiply(values_per_state[states], step, out=step)
    np.cumsum(step, out=step)
    grid = np.interp(np.arange(n + 1, dtype=float), times, cum)
    return np.diff(grid)


def _whole_path_trace(source, n, seed):
    """``_arrival_trace`` of a fluid or MMPP matrix source, computed from
    its whole path."""
    rng = queuesim._stream(seed, (0,))
    pi = source._stationary
    s0 = queuesim._stream(seed, (2,)).choice(len(pi), p=pi)
    states, times = _joined_path(source.generator, float(n), s0, rng)
    volume = _blocked_integral(source._rates, states, times, n)
    if isinstance(source, FluidMarkovSource):
        return volume
    return rng.poisson(volume).astype(float)


def _reference_walk(cdf_rows, s, draws):
    """Per-step linear search over the row CDFs: the walker's reference."""
    out = []
    for u in draws:
        row = cdf_rows[s]
        s = 0
        while u > row[s]:
            s += 1
        out.append(s)
    return out


def _reference_continuous_path(generator, horizon, s0, rng):
    """Per-jump loop: the batched continuous sampler's reference."""
    exit_rates = -np.diag(generator)
    n_states = generator.shape[0]
    jump_cdf = []
    for i in range(n_states):
        if exit_rates[i] > 0:
            probs = generator[i] / exit_rates[i] + (np.arange(n_states) == i)
            jump_cdf.append(np.cumsum(probs).tolist())
        else:
            jump_cdf.append(None)
    states, times = [int(s0)], [0.0]
    t, s = 0.0, int(s0)
    batch_e, batch_u = [], []
    while t < horizon:
        if exit_rates[s] <= 0:
            break
        if not batch_e:
            batch_e = rng.exponential(size=4096).tolist()
            batch_u = rng.random(4096).tolist()
        t += batch_e.pop() / exit_rates[s]
        (s,) = _reference_walk(jump_cdf, s, [batch_u.pop()])
        states.append(s)
        times.append(t)
    times.append(max(t, horizon) + 1.0)
    return np.asarray(states), np.asarray(times)


class _ZeroedUniforms:
    """Seeded generator whose every 97th uniform of a call is exactly 0.0."""

    def __init__(self, seed):
        self.gen = np.random.default_rng(seed)

    def random(self, size):
        u = self.gen.random(size)
        u[::97] = 0.0
        return u

    def exponential(self, size):
        return self.gen.exponential(size=size)


def _random_chain(n, seed):
    """Row-stochastic matrix with some zero entries (ties in the CDF)."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(n), size=n)
    probs[probs < 0.2 / n] = 0.0
    probs[np.arange(n), rng.integers(0, n, n)] += 0.1
    return probs / probs.sum(axis=1, keepdims=True)


@pytest.fixture(params=["default", "bisect"])
def walker(request, monkeypatch):
    """Runs a test with the walker's own choice (a scan for small chains,
    a bisect for large ones) and with the bisect forced on every chain."""
    if request.param == "bisect":
        monkeypatch.setattr(queuesim, "_SCAN_MAX_STATES", 1)
    return request.param


def test_walker_crossover_splits_the_sizes():
    # the equivalence tests below reach the scan at n <= 4 only
    assert 4 < queuesim._SCAN_MAX_STATES <= 10


@pytest.mark.parametrize("n", [2, 3, 4, 10, 50])
def test_discrete_walk_matches_reference(n, walker):
    probs = _random_chain(n, n)
    src = SimpleNamespace(transition_probs=probs)
    got_rng, ref_rng = _ZeroedUniforms(n), _ZeroedUniforms(n)
    got = _discrete_state_path(src, 10 ** 4 + 3, n - 1, got_rng)
    ref = _reference_walk(np.cumsum(probs, axis=1).tolist(), n - 1, ref_rng.random(10 ** 4 + 3))
    assert np.array_equal(got, ref)
    assert got_rng.gen.random() == ref_rng.gen.random()


def _random_generator(n, seed, absorbing=None):
    # about two jumps per unit time; jump chain rows with zero entries
    probs = _random_chain(n, seed)
    np.fill_diagonal(probs, 0.0)
    probs[probs.sum(axis=1) == 0.0, 0] = 1.0
    rates = np.random.default_rng(seed + 1).uniform(1.0, 3.0, n)
    generator = probs / probs.sum(axis=1, keepdims=True) * rates[:, None]
    if absorbing is not None:
        generator[absorbing] = 0.0
        generator[:, absorbing] *= 1e-3  # rarely entered: after many batches
    np.fill_diagonal(generator, 0.0)
    np.fill_diagonal(generator, -generator.sum(axis=1))
    return generator


@pytest.mark.parametrize(
    "n, absorbing",
    # two states would enter an absorbing state on the first jump
    [(2, None), (3, None), (10, None), (50, None), (3, 1), (10, 1), (50, 1)],
)
def test_continuous_path_matches_reference(n, absorbing, walker):
    generator = _random_generator(n, n, absorbing)
    horizon = 1.0e5 if absorbing is not None else 5000.0
    got_rng, ref_rng = _ZeroedUniforms(n), _ZeroedUniforms(n)
    states, times = _joined_path(generator, horizon, 0, got_rng)
    ref_states, ref_times = _reference_continuous_path(generator, horizon, 0, ref_rng)
    assert np.array_equal(states, ref_states)
    assert np.array_equal(times, ref_times)  # bit-identical jump times
    assert got_rng.gen.random() == ref_rng.gen.random()
    assert len(states) > 4096  # the path spans several batches
    if absorbing is not None:
        # stopped on entering the absorbing state, short of the horizon
        assert states[-1] == absorbing and times[-2] < horizon


def test_continuous_path_from_absorbing_state_draws_nothing():
    generator = _random_generator(3, 3, absorbing=1)
    rng = np.random.default_rng(4)
    states, times = _joined_path(generator, 100.0, 1, rng)
    assert np.array_equal(states, [1]) and np.array_equal(times, [0.0, 101.0])
    assert rng.random() == np.random.default_rng(4).random()


class _DyadicDraws:
    """Seeded generator whose exponentials are multiples of 1/4, zero
    included: over exit rates that are powers of two every jump time is
    exact, and many fall on block edges."""

    def __init__(self, seed):
        self.gen = np.random.default_rng(seed)

    def exponential(self, size):
        return self.gen.integers(0, 8, size) / 4.0

    def random(self, size):
        return self.gen.random(size)

    def poisson(self, lam):
        return self.gen.poisson(lam)


def _dyadic_generator(n, seed, absorbing=None):
    """Generator with exit rates in {1/2, 1, 2, 4} and jump probabilities
    in multiples of 2^-16, so its rows sum to exactly zero; the absorbing
    state, if any, is entered about once in 10^4 jumps."""
    rng = np.random.default_rng(seed)
    exit_rates = 2.0 ** rng.integers(-1, 3, n)
    generator = np.zeros((n, n))
    for i in range(n):
        others = [j for j in range(n) if j != i]
        weights = np.array([1e-4 if j == absorbing else 1.0 for j in others])
        counts = rng.multinomial(2 ** 16, weights / weights.sum())
        generator[i, others] = exit_rates[i] * counts / 2 ** 16
        generator[i, i] = -exit_rates[i]
    if absorbing is not None:
        generator[absorbing] = 0.0
    return generator


def _streamed_and_whole(source, n, seed, draws=None):
    """(streamed, whole-path) arrival traces, with the path's draws from
    ``draws(seed)`` when given."""
    real = queuesim._stream

    def stream(seed, key):
        return draws(seed) if draws is not None and key == (0,) else real(seed, key)

    with mock.patch.object(queuesim, "_stream", stream):
        return _arrival_trace(source, n, seed), _whole_path_trace(source, n, seed)


@settings(max_examples=80, deadline=None)
@given(
    n_states=st.integers(2, 6),
    absorbing=st.booleans(),
    n_blocks=st.integers(1, 3 * 4096 + 100).filter(lambda n: n % 4096),
    chain_seed=st.integers(0, 2 ** 16),
    seed=st.integers(0, 2 ** 32),
    dyadic=st.booleans(),
    family=st.sampled_from([FluidMarkovSource, MmppSource]),
)
def test_streamed_arrival_trace_equals_the_whole_path_integral(
    n_states, absorbing, n_blocks, chain_seed, seed, dyadic, family
):
    generator = _dyadic_generator(n_states, chain_seed, n_states - 1 if absorbing else None)
    rates = np.random.default_rng(chain_seed + 1).uniform(0.0, 10.0, n_states)
    rates[0] = 0.0
    source = family(generator, rates)
    # start anywhere: an absorbing chain's law sits in its absorbing state
    vars(source)["_stationary"] = np.full(n_states, 1.0 / n_states)
    got, want = _streamed_and_whole(source, n_blocks, seed, _DyadicDraws if dyadic else None)
    assert np.array_equal(got, want)


def test_streamed_arrival_trace_with_every_jump_on_a_block_edge():
    # unit holding times: a jump at every edge, and a batch ends on edge 4096
    source = FluidMarkovSource([[-1.0, 1.0], [1.0, -1.0]], [0.0, 3.0])
    got, want = _streamed_and_whole(source, 2 * 4096 + 5, 7, lambda seed: _TopUniform())
    assert np.array_equal(got, want)
    assert np.array_equal(got[1:], 3.0 - got[:-1]) and set(got) == {0.0, 3.0}


@pytest.mark.parametrize("build", [as_fluid_source, as_mmpp_source])
def test_arrival_trace_memory_scales_with_blocks_not_jumps(build):
    # about 1.8 jumps per block; the whole path held 7.4-7.9 times the trace
    n = 2 * 10 ** 5
    source = build(OnOffContinuousParams(9.0, 1.0, 2.0))
    _arrival_trace(source, 10 ** 4, 0)  # caches filled outside the count
    tracemalloc.start()
    try:
        _arrival_trace(source, n, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * n


@settings(max_examples=150, deadline=None)
@given(
    image=st.integers(1, 4).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    ),
    s0=st.integers(0, 3),
    length=st.integers(1, 3 * 4096 + 50),
    zero_at=st.none() | st.integers(0, 3 * 4096 + 49),
    seed=st.integers(0, 2 ** 32),
)
@example(image=[1, 0], s0=0, length=2 * 4096 + 3, zero_at=None, seed=0)  # ON/OFF flip
@example(image=[1, 2, 3, 3], s0=0, length=4100, zero_at=None, seed=1)  # tail to a fixed point
@example(image=[1, 2, 3, 1], s0=0, length=4100, zero_at=4097, seed=2)  # tail into a 3-cycle
@example(image=[0], s0=0, length=5000, zero_at=3, seed=3)  # one state
def test_single_map_walk_equals_the_stepwise_walk(image, s0, length, zero_at, seed):
    # every row has one possible next state, so every step with u > 0
    # takes the map x -> image[x]; u = 0.0 takes x -> 0 instead
    n = len(image)
    s0 %= n
    probs = np.eye(n)[image]
    draws = np.random.default_rng(seed).random(length)
    if zero_at is not None:
        draws[zero_at % length] = 0.0
    real_orbit = queuesim._orbit
    orbits = []

    def orbit(*args):
        orbits.append(args)
        return real_orbit(*args)

    with mock.patch.object(queuesim, "_orbit", orbit):
        got = _walk(_jump_cdf(probs), s0, draws)
    assert np.array_equal(got, _reference_walk(probs.tolist(), s0, draws))
    # the scan runs only on a block where the zero's map meets another
    scanned = False
    if zero_at is not None:
        block_start = zero_at % length // 4096 * 4096
        scanned = any(image) and min(4096, length - block_start) > 1
    assert len(orbits) == -(-length // 4096) - scanned


@pytest.mark.parametrize("n_states", [2, 3, 4, 7])
def test_block_drawn_discrete_trace_equals_one_walk(n_states):
    # the uniforms come in blocks of _DRAW_BLOCK: the same bits, and the
    # same next draw, as one rng.random(n) call
    probs = np.random.default_rng(n_states).dirichlet(np.ones(n_states), size=n_states)
    rates = np.random.default_rng(n_states + 1).uniform(0.0, 5.0, n_states)
    source = DiscreteMarkovSource(probs, rates)
    n = 3 * queuesim._DRAW_BLOCK + 17
    got, streams = _traced_streams(lambda: _arrival_trace(source, n, 9))
    rng = queuesim._stream(9, (0,))
    s0 = queuesim._stream(9, (2,)).choice(n_states, p=source._stationary)
    assert got.tobytes() == rates[_discrete_state_path(source, n, s0, rng)].tobytes()
    assert streams[(0,)][0].random() == rng.random()


def test_chunked_mmpp_counts_equal_one_poisson_call():
    source = as_mmpp_source(OnOffContinuousParams(9.0, 1.0, 6.0))
    n = 2 * queuesim._DRAW_BLOCK + 5
    (got, want), streams = _traced_streams(lambda: _streamed_and_whole(source, n, 4))
    assert got.tobytes() == want.tobytes()
    # the whole-path oracle drew the same path and counts from its own
    # stream of the seed, so the two streams stand at the same place
    assert streams[(0,)][0].random() == streams[(0,)][1].random()


def _traced_streams(run):
    """(run(), the generators queuesim._stream handed out, listed by key)."""
    real = queuesim._stream
    given = {}

    def stream(seed, key):
        rng = real(seed, key)
        given.setdefault(key, []).append(rng)
        return rng

    with mock.patch.object(queuesim, "_stream", stream):
        out = run()
    return out, given


def test_discrete_arrival_trace_memory_scales_with_its_output():
    n = 2 * 10 ** 5
    source = OnOffDiscreteParams(0.8, 0.8, 4.0)
    _arrival_trace(source, 10 ** 4, 0)  # caches filled outside the count
    tracemalloc.start()
    try:
        _arrival_trace(source, n, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * n


class _Inline:
    """Executor that runs each task at once in the caller: the
    simulator's two traces one after the other."""

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class _RecordingPool(ThreadPoolExecutor):
    """Thread pool that keeps every future it hands out."""

    def __init__(self, workers):
        super().__init__(workers)
        self.futures = []

    def submit(self, fn, *args, **kwargs):
        future = super().submit(fn, *args, **kwargs)
        self.futures.append(future)
        return future


def _sim_cells():
    theta = 0.1
    ce = effective_capacity_rayleigh_iid(1.0, theta, 10).value
    cells = [_loaded_config(0.2, 20000, 11)[0]]
    for build, solve in ((as_fluid_source, max_avg_rate_onoff_fluid),
                         (as_mmpp_source, max_avg_rate_onoff_mmpp)):
        lam = solve(ce, theta, 9.0, 1.0).lambda_star
        source = build(OnOffContinuousParams(9.0, 1.0, lam))
        cells.append(SimConfig(source=source, channel=ChannelSpec(10, 0.5), snr=1.0,
                               n_blocks=3 * (1 << 15) + 7, seed=11))
    return cells


def test_overlapped_traces_give_the_sequential_reports(monkeypatch):
    cells = _sim_cells()
    runs = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more workers than cores, switching often
    try:
        for workers in (1, 3):
            with ThreadPoolExecutor(workers) as pool:
                monkeypatch.setattr(channel, "_pool", lambda pid: (pool, workers))
                runs.append([repr(simulate_queue(cfg)) for cfg in cells])
        # the arrival trace in the caller, before the service trace
        monkeypatch.setattr(channel, "_pool", lambda pid: (_Inline(), 1))
        runs.append([repr(simulate_queue(cfg)) for cfg in cells])
    finally:
        sys.setswitchinterval(switch)
        monkeypatch.undo()
    runs.append([repr(simulate_queue(cfg)) for cfg in cells])
    assert runs[0] == runs[1] == runs[2] == runs[3]


def test_arrival_failure_reaches_caller_after_the_service_trace(monkeypatch):
    pool = _RecordingPool(3)
    monkeypatch.setattr(channel, "_pool", lambda pid: (pool, 3))

    def fail(*args):
        raise ArithmeticError("arrivals")

    monkeypatch.setattr(queuesim, "_walk", fail)
    cfg = SimConfig(source=OnOffDiscreteParams(0.8, 0.8, 1.0), channel=SPEC, snr=1.0,
                    n_blocks=3 * (1 << 15) + 7, seed=0)
    try:
        with pytest.raises(ArithmeticError, match="arrivals"):
            simulate_queue(cfg)
        assert len(pool.futures) == 5  # the arrival trace and four chunks
        assert all(f.done() for f in pool.futures)
    finally:
        pool.shutdown()


@pytest.mark.parametrize("chunk_hold, arrival_hold", [(0.3, 0.0), (0.0, 0.3)])
def test_service_failure_reaches_caller_with_no_task_left_running(
    chunk_hold, arrival_hold, monkeypatch
):
    # when the failure surfaces, a later chunk or the arrival trace is
    # still running: the one held longer shows whether it is waited for
    pool = _RecordingPool(3)
    monkeypatch.setattr(channel, "_pool", lambda pid: (pool, 3))
    real_fill, real_arrivals = channel._fill_gains, queuesim._sampled_arrivals
    calls = count()
    started, failed = threading.Event(), threading.Event()

    def fill(*args):
        k = next(calls)
        if k == 2:
            started.wait(10.0)
            failed.set()
            raise ArithmeticError("chunk")
        if k == 3:
            started.set()
            time.sleep(chunk_hold)
        return real_fill(*args)

    def arrivals(*args):
        failed.wait(10.0)
        time.sleep(arrival_hold)
        return real_arrivals(*args)

    monkeypatch.setattr(channel, "_fill_gains", fill)
    monkeypatch.setattr(queuesim, "_sampled_arrivals", arrivals)
    cfg = SimConfig(source=as_fluid_source(OnOffContinuousParams(9.0, 1.0, 2.0)),
                    channel=SPEC, snr=1.0, n_blocks=8 * (1 << 15), seed=0)
    try:
        with pytest.raises(ArithmeticError, match="chunk"):
            simulate_queue(cfg)
        assert all(f.done() for f in pool.futures)
    finally:
        pool.shutdown()


def test_arrival_generators_are_built_in_the_calling_thread(monkeypatch):
    # a process's first generator imports numpy.random; built in a worker,
    # its module objects would stay in that thread's malloc arena
    real = queuesim._stream
    builders = {}

    def stream(seed, key):
        builders[key] = threading.current_thread()
        return real(seed, key)

    monkeypatch.setattr(queuesim, "_stream", stream)
    cfg, _ = _loaded_config(0.2, 10 ** 4, 3)
    simulate_queue(cfg)
    assert builders == {(0,): threading.current_thread(), (2,): threading.current_thread()}


def test_unsupported_source_is_rejected_before_any_task(monkeypatch):
    pool = _RecordingPool(2)
    monkeypatch.setattr(channel, "_pool", lambda pid: (pool, 2))
    cfg = SimConfig(source=OnOffContinuousParams(2.0, 2.0, 3.0), channel=SPEC, snr=1.0,
                    n_blocks=10 ** 4, seed=0)
    try:
        with pytest.raises(TypeError, match="as_fluid_source or"):
            simulate_queue(cfg)
        assert pool.futures == []
    finally:
        pool.shutdown()
