"""Queue simulator: exact recursions, fits, tails, slope validation."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from qoslink import queuesim
from qoslink.channel import ChannelSpec, effective_capacity_rayleigh_iid
from qoslink.errors import InsufficientTail, UnstableQueue
from qoslink.queuesim import (
    SimConfig,
    _arrival_trace,
    _continuous_path,
    _delay_tail_mass,
    _discrete_state_path,
    _lindley,
    _service_trace,
    fit_decay_slope,
    simulate_queue,
    varsigma_estimate,
)
from qoslink.sources import (
    DiscreteMarkovSource,
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
    states, times = _continuous_path(generator, 20.0, 0, _TopUniform())
    assert np.array_equal(states, np.arange(21) % 2)
    assert np.array_equal(times, np.append(np.arange(21.0), 21.0))


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
    states, times = _continuous_path(generator, horizon, 0, got_rng)
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
    states, times = _continuous_path(generator, 100.0, 1, rng)
    assert np.array_equal(states, [1]) and np.array_equal(times, [0.0, 101.0])
    assert rng.random() == np.random.default_rng(4).random()
