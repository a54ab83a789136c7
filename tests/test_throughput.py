"""Max-average-rate solvers: frozen values, round trips, asymptotics."""

import ast
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qoslink.sources as sources_module
from qoslink import queuesim, throughput
from qoslink.channel import (
    ChannelSpec, effective_capacity_quadrature, effective_capacity_rayleigh_iid, ergodic_capacity,
)
from qoslink.energy import build_binomial_discrete_source, build_birth_death_fluid
from qoslink.errors import BracketFailure, NonConvergence
from qoslink.sources import (
    DiscreteMarkovSource,
    FluidMarkovSource,
    MmppSource,
    OnOffContinuousParams,
    OnOffDiscreteParams,
    OnOffFluidParams,
    OnOffMmppParams,
    as_discrete_source,
    as_fluid_source,
    as_mmpp_source,
    effective_bandwidth_discrete,
    effective_bandwidth_fluid,
    effective_bandwidth_mmpp,
    effective_bandwidth_onoff_discrete,
    effective_bandwidth_onoff_fluid,
    effective_bandwidth_onoff_mmpp,
)
from qoslink.throughput import (
    high_snr_slope,
    low_theta_asymptotics,
    max_avg_rate,
    max_avg_rate_nstate,
    max_avg_rate_onoff_discrete,
    max_avg_rate_onoff_fluid,
    max_avg_rate_onoff_mmpp,
)

LN2 = math.log(2.0)


# frozen solver outputs, computed with mpmath at 50 digits
def test_discrete_example_frozen():
    res = max_avg_rate_onoff_discrete(2.0, 1.0, 0.5, 0.5)
    assert res.r_avg_star == pytest.approx(1.3115406301998319, rel=1e-12)
    assert res.lambda_star == pytest.approx(2.6230812603996639, rel=1e-12)
    assert res.method == "closed_form"
    assert res.effective_capacity == 2.0 and res.theta == 1.0


def test_fluid_example_frozen():
    res = max_avg_rate_onoff_fluid(2.0, 1.0, 50.0, 50.0)
    assert res.r_avg_star == pytest.approx(1.9615384615384615, rel=1e-12)
    assert res.lambda_star == pytest.approx(3.9230769230769231, rel=1e-12)


def test_mmpp_example_frozen():
    res = max_avg_rate_onoff_mmpp(2.0, 1.0, 50.0, 50.0)
    assert res.r_avg_star == pytest.approx(1.1415696942436788, rel=1e-12)


def _mp_discrete_lambda(ce, theta, p11, p22):
    """lambda* of the discrete ON/OFF source in 50-digit mpmath."""
    import mpmath

    with mpmath.workdps(50):
        ce, theta, p11, p22 = map(mpmath.mpf, (ce, theta, p11, p22))
        em = mpmath.exp(-theta * ce)
        return ce + (mpmath.log(1 - p11 * em) - mpmath.log(p22 + (1 - p11 - p22) * em)) / theta


@pytest.mark.parametrize("p11, p22", [(0.8, 0.8), (0.5, 0.0), (0.3, 0.95), (0.999, 0.1),
                                      (0.05, 1e-9), (0.9, 0.0)])
@pytest.mark.parametrize("theta", [0.01, 1.0])
def test_discrete_lambda_star_keeps_its_digits_over_theta_ce(p11, p22, theta):
    # log(num) - log(den) lost digits as theta C_E -> 0 (2.4e-5 off) and
    # raised InvalidRegime once den = p22 + (1 - p11) e^{-theta C_E}
    # underflowed at p22 = 0
    for x in np.logspace(-12, 4, 33):
        ce = float(x) / theta
        got = max_avg_rate_onoff_discrete(ce, theta, p11, p22).lambda_star
        ref = _mp_discrete_lambda(ce, theta, p11, p22)
        assert abs(got - ref) <= 1e-13 * ref, (x, got, ref)


def test_discrete_lambda_star_without_on_persistence():
    # p22 = 0: lambda* = 2 C_E - ln(1 - p11)/theta once e^{-theta C_E} dies
    assert max_avg_rate_onoff_discrete(800.0, 1.0, 0.5, 0.0).lambda_star == pytest.approx(
        1600.0 + math.log(2.0), rel=1e-15
    )


def test_always_on_discrete_is_exactly_ce():
    res = max_avg_rate_onoff_discrete(1.7, 0.9, 0.4, 1.0)
    assert res.r_avg_star == 1.7
    assert res.lambda_star == 1.7


def test_always_on_fluid_is_exactly_ce():
    res = max_avg_rate_onoff_fluid(1.7, 0.9, 2.0, 0.0)
    assert res.r_avg_star == 1.7


def test_poisson_limit_mmpp():
    # beta = 0 leaves a plain Poisson stream: r* = ce * theta/(e^theta - 1)
    res = max_avg_rate_onoff_mmpp(1.7, 0.9, 2.0, 0.0)
    assert res.r_avg_star == pytest.approx(1.7 * 0.9 / math.expm1(0.9), rel=1e-14, abs=0)


def test_absorbing_off_gives_zero():
    with pytest.warns(UserWarning, match="absorbing"):
        res = max_avg_rate_onoff_discrete(2.0, 1.0, 1.0, 0.3)
    assert res.r_avg_star == 0.0 and res.lambda_star == 0.0


@settings(max_examples=10, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=0.98),
    st.floats(min_value=0.0, max_value=0.98),
    st.floats(min_value=0.01, max_value=20.0),
    st.floats(min_value=0.01, max_value=5.0),
)
def test_discrete_round_trip(p11, p22, ce, theta):
    res = max_avg_rate_onoff_discrete(ce, theta, p11, p22)
    back = effective_bandwidth_onoff_discrete(
        OnOffDiscreteParams(p11, p22, res.lambda_star), theta
    )
    assert back == pytest.approx(ce, rel=1e-9)
    # mean rate cannot beat the capacity it was matched to
    assert 0.0 <= res.r_avg_star <= ce * (1.0 + 1e-12)


@settings(max_examples=10, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=60.0),
    st.floats(min_value=0.0, max_value=60.0),
    st.floats(min_value=0.01, max_value=20.0),
    st.floats(min_value=0.01, max_value=5.0),
)
def test_continuous_round_trips(alpha, beta, ce, theta):
    params_of = lambda lam: OnOffContinuousParams(alpha, beta, lam)
    res = max_avg_rate_onoff_fluid(ce, theta, alpha, beta)
    assert effective_bandwidth_onoff_fluid(params_of(res.lambda_star), theta) == pytest.approx(ce, rel=1e-9)
    resm = max_avg_rate_onoff_mmpp(ce, theta, alpha, beta)
    assert effective_bandwidth_onoff_mmpp(params_of(resm.lambda_star), theta) == pytest.approx(ce, rel=1e-9)
    assert resm.r_avg_star <= res.r_avg_star * (1.0 + 1e-12)


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=0.05, max_value=5.0), st.floats(min_value=0.05, max_value=5.0))
def test_r_star_increases_with_capacity(ce_lo, gap):
    lo = max_avg_rate_onoff_discrete(ce_lo, 0.7, 0.6, 0.8).r_avg_star
    hi = max_avg_rate_onoff_discrete(ce_lo + gap, 0.7, 0.6, 0.8).r_avg_star
    assert hi > lo


def test_nstate_matches_closed_form_discrete():
    J = np.array([[0.3, 0.7], [0.4, 0.6]])
    src = DiscreteMarkovSource(J, np.array([0.0, 1.0]))
    num = max_avg_rate_nstate(src, 0.8, 1.7)
    ref = max_avg_rate_onoff_discrete(1.7, 0.8, 0.3, 0.6)
    assert num.lambda_star == pytest.approx(ref.lambda_star, rel=1e-8)
    assert num.r_avg_star == pytest.approx(ref.r_avg_star, rel=1e-8)
    assert num.method == "pencil"


def test_nstate_matches_closed_form_fluid_and_mmpp():
    G = np.array([[-2.0, 2.0], [3.0, -3.0]])
    shape = np.array([0.0, 1.0])
    num_f = max_avg_rate_nstate(FluidMarkovSource(G, shape), 0.5, 1.2)
    ref_f = max_avg_rate_onoff_fluid(1.2, 0.5, 2.0, 3.0)
    assert num_f.lambda_star == pytest.approx(ref_f.lambda_star, rel=1e-13, abs=0)
    num_m = max_avg_rate_nstate(MmppSource(G, shape), 0.5, 1.2)
    ref_m = max_avg_rate_onoff_mmpp(1.2, 0.5, 2.0, 3.0)
    assert num_m.lambda_star == pytest.approx(ref_m.lambda_star, rel=1e-13, abs=0)
    assert num_f.method == num_m.method == "pencil"


TWO_STATE_G = np.array([[-2.0, 2.0], [3.0, -3.0]])
TWO_STATE_CASES = [
    (DiscreteMarkovSource(np.array([[0.3, 0.7], [0.4, 0.6]]), np.array([0.0, 1.0])),
     lambda ce, th: max_avg_rate_onoff_discrete(ce, th, 0.3, 0.6)),
    (FluidMarkovSource(TWO_STATE_G, np.array([0.0, 1.0])),
     lambda ce, th: max_avg_rate_onoff_fluid(ce, th, 2.0, 3.0)),
    (MmppSource(TWO_STATE_G, np.array([0.0, 1.0])),
     lambda ce, th: max_avg_rate_onoff_mmpp(ce, th, 2.0, 3.0)),
]


@pytest.mark.parametrize("src,closed", TWO_STATE_CASES, ids=["discrete", "fluid", "mmpp"])
@pytest.mark.parametrize("theta", [0.1, 1.0])
def test_nstate_exact_at_small_capacity(src, closed, theta):
    # the root must be exact relative to C_E, not to max(1, C_E)
    num = max_avg_rate_nstate(src, theta, 1e-3)
    assert num.lambda_star == pytest.approx(closed(1e-3, theta).lambda_star, rel=1e-13, abs=0)


@pytest.mark.parametrize("src,closed", TWO_STATE_CASES, ids=["discrete", "fluid", "mmpp"])
def test_nstate_reports_evaluations_and_residual(src, closed, monkeypatch):
    theta, ce = 0.5, 1.2
    assert closed(ce, theta).iterations == 0 and closed(ce, theta).residual == 0.0
    calls = []
    ebw = type(src)._ebw
    monkeypatch.setattr(type(src), "_ebw", lambda self, r, t: calls.append(1) or ebw(self, r, t))
    res = max_avg_rate_nstate(src, theta, ce)
    monkeypatch.undo()
    assert res.iterations == len(calls) > 0
    at_root = _scaled_ebw(src, res.lambda_star, theta)
    assert res.residual == abs(at_root - ce) / ce
    assert res.residual <= 1e-12


def _scaled_ebw(src, scale, theta):
    """a*(theta) of ``src`` with its rates times ``scale``, by its own route."""
    eb = {DiscreteMarkovSource: effective_bandwidth_discrete,
          FluidMarkovSource: effective_bandwidth_fluid,
          MmppSource: effective_bandwidth_mmpp}[type(src)]
    matrix = src.transition_probs if isinstance(src, DiscreteMarkovSource) else src.generator
    shape = src.intensities if isinstance(src, MmppSource) else src.rates
    return eb(type(src)(matrix, scale * shape), theta)


def _lazy_walk(n):
    P = 0.3 * (np.eye(n, k=1) + np.eye(n, k=-1))
    P[np.arange(n), np.arange(n)] = 1.0 - P.sum(axis=1)
    return DiscreteMarkovSource(P, np.arange(n, dtype=float))


@pytest.mark.parametrize("family", ["discrete", "fluid", "mmpp"])
@pytest.mark.parametrize("theta,ce", [(0.1, 0.8), (0.5, 3.0), (1.0, 12.0)])
def test_nstate_meets_the_target_on_birth_death_chains_of_200_states(
        family, theta, ce, monkeypatch):
    # the tridiagonal route's root (every family's one residual call), at
    # the benchmark's own tolerance
    fluid = build_birth_death_fluid(200, 1.0, 2.0, 1.0)
    src = {"discrete": _lazy_walk(200), "fluid": fluid,
           "mmpp": MmppSource(fluid.generator, fluid.rates)}[family]
    calls, passes = [], []
    ebw, pivot_sums = type(src)._ebw, sources_module._pivot_sums
    monkeypatch.setattr(type(src), "_ebw", lambda self, r, t: calls.append(1) or ebw(self, r, t))
    monkeypatch.setattr(sources_module, "_pivot_sums",
                        lambda d, e, x: passes.append(1) or pivot_sums(d, e, x))
    res = max_avg_rate_nstate(src, theta, ce)
    monkeypatch.undo()
    assert res.iterations == len(calls) > 0 and passes
    assert abs(_scaled_ebw(src, res.lambda_star, theta) - ce) <= 1e-9 * max(1.0, ce)


def test_nstate_degenerate_chain_acts_constant():
    # every row jumps straight to the top state: the source is constant
    # at the top rate, so r* equals the capacity target
    J = np.tile(np.eye(10)[-1], (10, 1))
    src = DiscreteMarkovSource(J, np.arange(10.0))
    res = max_avg_rate_nstate(src, 1.0, 3.0)
    assert res.r_avg_star == pytest.approx(3.0, rel=1e-8)
    assert res.lambda_star == pytest.approx(3.0 / 9.0, rel=1e-8)


def test_nstate_silent_source_has_no_bracket():
    J = np.array([[0.3, 0.7], [0.4, 0.6]])
    src = DiscreteMarkovSource(J, np.zeros(2))
    with pytest.raises(BracketFailure):
        max_avg_rate_nstate(src, 0.8, 1.7)


def test_nstate_zero_capacity():
    J = np.array([[0.3, 0.7], [0.4, 0.6]])
    src = DiscreteMarkovSource(J, np.array([0.0, 1.0]))
    res = max_avg_rate_nstate(src, 0.8, 0.0)
    assert res.r_avg_star == 0.0 and res.lambda_star == 0.0
    assert res.iterations == 0 and res.residual == 0.0


# ---------------------------------------------------------------------------
# the pencil route of matrix sources
# ---------------------------------------------------------------------------

GENERATOR_FAMILIES = {"fluid": FluidMarkovSource, "mmpp": MmppSource}


def _reversible_generator(rng, n):
    """A random generator in detailed balance with a random law pi > 0:
    symmetric conductances k (a random spanning path, and each other
    pair with probability 1/2), each over two decades, and G_ij = k_ij / pi_i."""
    pi = 10.0 ** rng.uniform(-1.0, 1.0, n)
    k = np.triu(np.where(rng.random((n, n)) < 0.5, 10.0 ** rng.uniform(-1.0, 1.0, (n, n)), 0.0), 1)
    path = rng.permutation(n)
    lo, hi = np.minimum(path[:-1], path[1:]), np.maximum(path[:-1], path[1:])
    k[lo, hi] = 10.0 ** rng.uniform(-1.0, 1.0, n - 1)
    G = (k + k.T) / pi[:, None]
    np.fill_diagonal(G, -G.sum(axis=1))
    return G


def _non_reversible_generator(rng, n):
    """A random generator out of detailed balance: rates over two decades
    on a random cycle through every state, and on each other ordered pair
    with probability 1/2."""
    G = np.where(rng.random((n, n)) < 0.5, 10.0 ** rng.uniform(-1.0, 1.0, (n, n)), 0.0)
    cycle = rng.permutation(n)
    G[cycle, np.roll(cycle, -1)] = 10.0 ** rng.uniform(-1.0, 1.0, n)
    np.fill_diagonal(G, 0.0)
    np.fill_diagonal(G, -G.sum(axis=1))
    return G


# a non-reversible fluid 3-cycle: 0 -> 1 -> 2 -> 0
CYCLE_G = np.array([[-2.0, 2.0, 0.0], [0.0, -1.0, 1.0], [3.0, 0.0, -3.0]])


def _noise_norm(src, peak, theta):
    """eps times this, over C_E, bounds the rounding noise of a fluid or
    MMPP kernel call near a* = C_E at rates up to ``peak``: the fluid root
    is a* itself, the MMPP root theta a*."""
    row_norm = float(np.max(np.sum(np.abs(src._matrix), axis=1)))
    if src._poisson:
        return (math.expm1(theta) * peak + row_norm) / theta
    return peak + row_norm / theta


def _some_zero_rates(rng, n):
    """Rates in [0, 1) with about a third of them 0, and one of them 1."""
    rates = np.where(rng.random(n) < 1 / 3, 0.0, rng.random(n))
    rates[rng.integers(n)] = 1.0
    return rates


@pytest.mark.parametrize("family", sorted(GENERATOR_FAMILIES))
@pytest.mark.parametrize("alpha, beta", [(2.0, 3.0), (1e-9, 3e-9), (1e3, 2e3)])
def test_matrix_twin_meets_the_closed_form_down_to_tiny_capacity(family, alpha, beta):
    # far below the kernel's rounding noise a search raised NonConvergence
    # or returned a scale up to 1e9 times off, and at alpha = 1e3 it was
    # 2e-8 off even at C_E >= 1e-3
    params = OnOffContinuousParams(alpha, beta, 1.0)
    twin = {"fluid": as_fluid_source, "mmpp": as_mmpp_source}[family](params)
    closed = {"fluid": max_avg_rate_onoff_fluid, "mmpp": max_avg_rate_onoff_mmpp}[family]
    for ce in (1e-300, 1e-20, 1e-16, 1e-12, 1e-6, 1e-3, 1.0, 10.0, 1e300):
        for theta in (0.01, 0.5, 5.0):
            got = max_avg_rate_nstate(twin, theta, ce)
            ref = closed(ce, theta, alpha, beta)
            assert got.method == "pencil"
            assert got.lambda_star == pytest.approx(ref.lambda_star, rel=1e-13, abs=0), (ce, theta)


@pytest.mark.parametrize("family", sorted(GENERATOR_FAMILIES))
@pytest.mark.parametrize("chain", [5, 64, "cycle"])
def test_nstate_at_tiny_capacity_scales_the_mean_shape(family, chain):
    # a* -> lambda (u/theta) times the mean shape as theta C_E -> 0; a
    # search returned lambda* = 0 with residual 1 on the birth-death
    # chains, and 2.0 and 1.0e4 times the limit on the 3-cycle.  The
    # residual is the kernel's rounding noise over C_E, about 1e4 at
    # 1e-20, not lambda*'s error.
    if chain == "cycle":
        generator, rates = CYCLE_G, np.array([0.0, 1.0, 2.0])
    else:
        fluid = build_birth_death_fluid(chain, 1.0, 2.0, 1.0)
        generator, rates = fluid.generator, fluid.rates
    src = GENERATOR_FAMILIES[family](generator, rates)
    theta = 0.5
    u = math.expm1(theta) if family == "mmpp" else theta
    for ce in (1e-16, 1e-20):
        res = max_avg_rate_nstate(src, theta, ce)
        assert res.lambda_star == pytest.approx(ce * (theta / u) / src.mean_rate, rel=1e-13, abs=0)
        norm = _noise_norm(src, res.lambda_star * float(np.max(rates)), theta)
        assert res.residual <= np.finfo(float).eps * norm / ce


@pytest.mark.parametrize("family", sorted(GENERATOR_FAMILIES))
@pytest.mark.parametrize("n", range(3, 9))
def test_pencil_matches_mpmath(n, family):
    # 40-digit lambda* of the exact generator (tests/pencil_reference.py)
    # at theta C_E from 1e-11 to 10, for a reversible chain and for one
    # out of detailed balance
    from pencil_reference import lambda_star

    rng = np.random.default_rng(n)
    for reversible, make in ((True, _reversible_generator), (False, _non_reversible_generator)):
        G, rates = make(rng, n), _some_zero_rates(rng, n)
        src = GENERATOR_FAMILIES[family](G, rates)
        assert src.reversible == reversible
        for x in np.logspace(-11.0, 1.0, 7):
            theta = float(rng.uniform(0.01, 5.0))
            ce = float(x) / theta
            res = max_avg_rate_nstate(src, theta, ce)
            ref = lambda_star(G, rates, theta, ce, family == "mmpp")
            assert res.method == "pencil"
            assert abs(res.lambda_star - ref) <= 1e-14 * ref, (reversible, x, res.lambda_star, ref)


def _uniformized(G):
    """The transition matrix I + G/q at q = 2 max |G_ii|, exactly
    stochastic in its diagonal: in detailed balance exactly when G is."""
    J = G / (2.0 * np.max(np.abs(np.diagonal(G))))
    np.fill_diagonal(J, 0.0)
    np.fill_diagonal(J, 1.0 - J.sum(axis=1))
    return J


@pytest.mark.parametrize("n", range(3, 9))
def test_discrete_scale_matches_mpmath(n):
    # 40-digit lambda* of the exactly stochastic chain
    # (tests/pencil_reference.py) at theta C_E from 1e-11 to 3, for a
    # reversible chain and for one out of detailed balance; a bracket and
    # Brent search was up to 2.6e-7 off at theta C_E >= 1e-8
    from pencil_reference import discrete_lambda_star

    rng = np.random.default_rng(n)
    for reversible, make in ((True, _reversible_generator), (False, _non_reversible_generator)):
        J, rates = _uniformized(make(rng, n)), _some_zero_rates(rng, n)
        src = DiscreteMarkovSource(J, rates)
        assert src.reversible == reversible
        for x in np.logspace(-11.0, math.log10(3.0), 7):
            theta = float(rng.uniform(0.01, 5.0))
            ce = float(x) / theta
            res = max_avg_rate_nstate(src, theta, ce)
            ref = discrete_lambda_star(J, rates, theta, ce)
            assert res.method == "pencil"
            assert abs(res.lambda_star - ref) <= 1e-13 * ref, (reversible, x, res.lambda_star, ref)


def test_discrete_scale_matches_mpmath_at_large_theta_ce():
    # theta C_E of 10, 30 and 100, past the sweep above, against the
    # 80-digit balanced pencil: a binomial law of dyadic entries summing to
    # exactly 1, which takes the memoryless route, and a reversible chain,
    # which takes the dense secant
    from pencil_reference import discrete_lambda_star

    rng = np.random.default_rng(0)
    dense = DiscreteMarkovSource(_uniformized(_reversible_generator(rng, 6)),
                                 _some_zero_rates(rng, 6))
    binomial = build_binomial_discrete_source(8, 0.25, 1.0)
    assert isinstance(binomial._operand, sources_module._RankOne)
    assert dense.reversible and isinstance(dense._operand, sources_module._Dense)
    for src in (binomial, dense):
        for x in (10.0, 30.0, 100.0):
            theta = 0.7
            ce = x / theta
            lam = max_avg_rate_nstate(src, theta, ce).lambda_star
            ref = discrete_lambda_star(src.transition_probs, src.rates, theta, ce, dps=80)
            assert abs(lam - ref) <= 5e-16 * ref, (x, lam, ref)


@pytest.mark.parametrize("n", [2, 50, 400])
def test_memoryless_scale_matches_mpmath(n):
    # 50-digit lambda* of the law's log-moment generating function
    # (tests/log_mgf_reference.py) at theta C_E from 1e-11 to 100 and at
    # C_E = 1e-300: within 4.6e-16 over 173 binomial points, where the
    # dense pencil was up to 1.2e-15 off
    from log_mgf_reference import lambda_star

    src = build_binomial_discrete_source(n, 0.3, 1.0)
    rng = np.random.default_rng(n)
    for x in [*np.geomspace(1e-11, 100.0, 7), 1e-300]:
        theta = float(rng.uniform(0.01, 5.0))
        ce = float(x) / theta
        lam = max_avg_rate_nstate(src, theta, ce).lambda_star
        ref = lambda_star(src.transition_probs[0], src.rates, theta, ce)
        assert abs(lam - ref) <= 5e-16 * ref, (x, lam, ref)


@pytest.mark.parametrize("n, theta, ce", [(400, 1.0, 100.0), (400, 1.0, 300.0),
                                         (700, 50.0, 900.0)])
def test_memoryless_scale_runs_on_the_law_support(n, theta, ce):
    # binomial laws with s = 0.05 round to 0 at their top rates (the top
    # 85 of 400 states, 298 of 700): scaled by the top rate of every
    # state, not of the states the law visits, every factor underflowed
    # and the pencil root read 0
    from log_mgf_reference import lambda_star

    src = build_binomial_discrete_source(n, 0.05, 1.0)
    assert src.transition_probs[0][-1] == 0.0
    lam = max_avg_rate_nstate(src, theta, ce).lambda_star
    ref = lambda_star(src.transition_probs[0], src.rates, theta, ce)
    assert abs(lam - ref) <= 5e-16 * ref


@pytest.mark.parametrize("n, s, theta, ce", [(700, 0.05, 50.0, 18.0), (200, 0.01, 5.0, 100.0)])
def test_memoryless_law_with_subnormal_entries_keeps_its_digits(n, s, theta, ce):
    # binomial n = 700, s = 0.05 has law entries down to 2e-323 (state 401,
    # 0 above): at theta 50 the sums over the law were themselves
    # subnormal, a*(theta) 8.6e11 ulps off and lambda* 3.5e-5 off with
    # residual 0, the kernel and the solve sharing the error
    from log_mgf_reference import ebw, lambda_star

    src = build_binomial_discrete_source(n, s, 1.0)
    p = src.transition_probs[0]
    for t in (10.0, 50.0):
        ref = float(ebw(p, src.rates, t))
        assert abs(src.effective_bandwidth(t) - ref) <= 2 * math.ulp(ref), t
    lam = max_avg_rate_nstate(src, theta, ce).lambda_star
    ref = float(lambda_star(p, src.rates, theta, ce))
    assert abs(lam - ref) <= 5e-16 * ref


@pytest.mark.parametrize("ce", [1e-16, 1e-20, 1e-300])
def test_binomial_at_tiny_capacity_scales_the_mean_shape(ce):
    # a* -> lambda times the mean shape as theta C_E -> 0; a bracket search
    # was 3.6e4 times too large at C_E = 1e-20 and found no bracket at 1e-300
    src = build_binomial_discrete_source(50, 0.3, 1.0)
    for theta in (0.01, 0.5, 5.0):
        res = max_avg_rate_nstate(src, theta, ce)
        assert res.lambda_star == pytest.approx(ce / src.mean_rate, rel=1e-13, abs=0), theta


@settings(max_examples=200, deadline=None)
@given(
    family=st.sampled_from(sorted(GENERATOR_FAMILIES)),
    n=st.integers(2, 63),
    seed=st.integers(0, 2 ** 32 - 1),
    theta=st.floats(0.01, 5.0),
    ce=st.floats(-3.0, 1.0).map(lambda e: 10.0 ** e),
)
def test_pencil_meets_the_target_through_the_kernel(family, n, seed, theta, ce):
    # the one kernel call at lambda* meets C_E within the kernel's own
    # rounding noise, with no bracket and no other evaluation
    rng = np.random.default_rng(seed)
    src = GENERATOR_FAMILIES[family](_reversible_generator(rng, n), _some_zero_rates(rng, n))
    assert src.reversible
    res = max_avg_rate_nstate(src, theta, ce)
    assert (res.method, res.iterations) == ("pencil", 1)
    norm = _noise_norm(src, res.lambda_star * float(np.max(src._rates)), theta)
    assert res.residual <= max(1e-12, np.finfo(float).eps * norm / ce)


def test_pencil_route_makes_no_search():
    # every matrix source of any size, reversible or not, birth-death
    # chains on the tridiagonal route included, takes the pencil and
    # calls the kernel once, for its residual
    cycle = FluidMarkovSource(CYCLE_G, np.array([0.0, 1.0, 2.0]))
    lazy_cycle = DiscreteMarkovSource(0.5 * (np.eye(3) + np.roll(np.eye(3), 1, axis=1)),
                                      cycle.rates)
    assert not cycle.reversible and not lazy_cycle.reversible
    sources = [cycle, MmppSource(cycle.generator, cycle.rates), lazy_cycle,
               build_binomial_discrete_source(50, 0.3, 1.0), _lazy_walk(200)]
    for n in (50, 64, 200):
        fluid = build_birth_death_fluid(n, 1.0, 1.2, 1.0)
        sources += [fluid, MmppSource(fluid.generator, fluid.rates)]
    for src in sources:
        res = max_avg_rate_nstate(src, 0.5, 2.0)
        assert (res.method, res.iterations) == ("pencil", 1)


@pytest.mark.parametrize("family", sorted(GENERATOR_FAMILIES))
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_pencil_on_a_nearly_decomposable_chain(family, seed):
    # two 3-state blocks joined by a conductance of 1e-16 ||G||: the
    # spectral gap is within rounding of 0, so the chain's slow mode is
    # all but a second null vector.  A route through eigh's eigenvectors
    # read lambda* up to 7% off the 40-digit reference (seed 0) unless it
    # renormalized that mode against sqrt(pi); the deflated resolvent
    # needs only pi itself.  A dense solve for pi read it up to 38% off
    # (seed 3), failed to build it at seed 1, and left burstiness up to
    # 24% off; the elimination takes both to rounding.
    import mpmath as mp
    from burstiness_reference import burstiness, stationary
    from pencil_reference import exact_generator, lambda_star

    rng = np.random.default_rng(seed)
    pi = 10.0 ** rng.uniform(-1.0, 1.0, 6)
    k = np.zeros((6, 6))
    for block in ((0, 1, 2), (3, 4, 5)):
        for i in block:
            for j in block:
                if i < j:
                    k[i, j] = 10.0 ** rng.uniform(-1.0, 1.0)
    G = (k + k.T) / pi[:, None]
    k[2, 3] = 1e-16 * np.max(np.abs(G + np.diag(G.sum(axis=1))))
    G = (k + k.T) / pi[:, None]
    np.fill_diagonal(G, -G.sum(axis=1))
    rates = rng.random(6)
    src = GENERATOR_FAMILIES[family](G, rates)
    assert src.reversible
    with mp.workdps(50):
        exact = exact_generator(G)
        pi = stationary(exact)
        mean = mp.fsum(p * mp.mpf(float(r)) for p, r in zip(pi, rates))
        assert max(abs(float(a) - b) / b for a, b in zip(src._stationary, pi)) <= 1e-14
        assert abs(src.mean_rate - mean) <= 1e-13 * mean
        ref = burstiness(exact, rates, discrete=False)
        assert abs(src.burstiness - ref) <= 1e-13 * ref
    for theta, ce in ((0.5, 1.0), (0.1, 0.3), (2.0, 5.0)):
        res = max_avg_rate_nstate(src, theta, ce)
        ref = lambda_star(G, rates, theta, ce, family == "mmpp")
        assert res.method == "pencil"
        assert abs(res.lambda_star - ref) <= 1e-12 * ref, (theta, ce, res.lambda_star, ref)
        assert abs(res.r_avg_star - ref * mean) <= 1e-13 * ref * mean, (theta, ce)


@pytest.mark.parametrize("family", sorted(GENERATOR_FAMILIES))
def test_pencil_edge_cases(family):
    cls, theta = GENERATOR_FAMILIES[family], 0.8
    u = math.expm1(theta) if family == "mmpp" else theta
    with pytest.raises(BracketFailure):
        max_avg_rate_nstate(cls(TWO_STATE_G, np.zeros(2)), theta, 1.7)
    zero = max_avg_rate_nstate(cls(TWO_STATE_G, np.array([0.0, 1.0])), theta, 0.0)
    assert (zero.r_avg_star, zero.lambda_star, zero.iterations) == (0.0, 0.0, 0)
    # one state: a* is lambda c (u/theta) exactly
    one = max_avg_rate_nstate(cls(np.zeros((1, 1)), np.array([2.5])), theta, 1.7)
    assert one.method == "pencil"
    assert one.lambda_star == pytest.approx(1.7 * (theta / u) / 2.5, rel=1e-15, abs=0)


def test_pencil_raises_on_a_non_finite_root(monkeypatch):
    src = FluidMarkovSource(TWO_STATE_G, np.array([0.0, 1.0]))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda K: np.full(len(K), np.nan))
    with pytest.raises(NonConvergence, match="non-finite Perron root"):
        max_avg_rate_nstate(src, 0.5, 1.2)


def _onoff(kind, p_on):
    """The two-state source of a family with ON probability ``p_on``."""
    if kind == "discrete":
        return OnOffDiscreteParams(1.0 - p_on, p_on, 0.0)
    return {"fluid": OnOffFluidParams, "mmpp": OnOffMmppParams}[kind](p_on, 1.0 - p_on, 0.0)


def test_high_snr_slope_frozen():
    assert high_snr_slope(_onoff("discrete", 0.5), 2.0) == pytest.approx(
        0.17328679513998633, rel=1e-14, abs=0
    )
    # fluid shares the discrete branch structure
    discrete = high_snr_slope(_onoff("discrete", 0.5), 2.0)
    assert high_snr_slope(_onoff("fluid", 0.5), 2.0) == discrete


def test_high_snr_slope_branches():
    # below the seam the discrete/fluid prelog is flat at p_on
    assert high_snr_slope(_onoff("discrete", 0.7), 0.3) == 0.7
    assert high_snr_slope(_onoff("fluid", 0.25), 0.05) == 0.25
    # theta = 0 is the unconstrained (ergodic) prelog for every family
    for kind in ("discrete", "fluid", "mmpp"):
        assert high_snr_slope(_onoff(kind, 0.4), 0.0) == 1.0
    # seam continuity
    for kind in ("discrete", "fluid", "mmpp"):
        lo = high_snr_slope(_onoff(kind, 0.7), LN2 * (1 - 1e-12))
        hi = high_snr_slope(_onoff(kind, 0.7), LN2 * (1 + 1e-12))
        assert lo == pytest.approx(hi, rel=1e-9)


@pytest.mark.parametrize("theta", [0.2, 2.0])
@pytest.mark.parametrize("p22, factor", [(0.0, 2.0 / 3.0), (0.3, 0.5 / 1.2)])
def test_high_snr_slope_follows_the_top_cycle(p22, factor, theta):
    # the prelog is the mean rate over the top mean of the rates around a
    # cycle: at p22 = 0 ON never follows ON, the top cycle is OFF, ON, and
    # the factor is 2 p_on, not p_on (1/3 here); from theta = ln 2 on the
    # slope is that factor times ln 2 / theta.  Checked on the library's
    # own r*(snr) curve
    src, m = OnOffDiscreteParams(0.5, p22, 0.0), 10
    slope = factor if theta < LN2 else factor * LN2 / theta
    r = [max_avg_rate(src, effective_capacity_rayleigh_iid(snr, theta, m).value, theta).r_avg_star
         for snr in (1e12, 1e14)]
    climb = (r[1] - r[0]) / (m * math.log2(1e14 / 1e12))
    assert climb == pytest.approx(slope, rel=1e-8, abs=0)
    assert high_snr_slope(src, theta) == pytest.approx(slope, rel=1e-15, abs=0)


@settings(max_examples=10, deadline=None)
@given(
    st.sampled_from(["discrete", "fluid", "mmpp"]),
    st.floats(min_value=1e-3, max_value=10.0),
    st.floats(min_value=1e-3, max_value=10.0),
    st.floats(min_value=0.05, max_value=1.0),
)
def test_high_snr_slope_monotone_in_theta(kind, t1, t2, p_on):
    lo, hi = sorted((t1, t2))
    src = _onoff(kind, p_on)
    s_lo, s_hi = high_snr_slope(src, lo), high_snr_slope(src, hi)
    assert s_hi <= s_lo * (1.0 + 1e-12)
    assert 0.0 < s_hi and s_lo <= 1.0


# the two-state sources of the low-theta checks, built with lam = 0: the
# solvers find the rate
ONOFF_SOURCES = {
    "discrete": OnOffDiscreteParams(0.8, 0.7, 0.0),
    "fluid": OnOffFluidParams(1.0, 2.0, 0.0),
    "mmpp": OnOffMmppParams(1.0, 2.0, 0.0),
}


def _r_star_of_theta(kind, snr, m, theta):
    ce = effective_capacity_rayleigh_iid(snr, theta, m).value
    if kind == "discrete":
        return max_avg_rate_onoff_discrete(ce, theta, 0.8, 0.7).r_avg_star
    if kind == "fluid":
        return max_avg_rate_onoff_fluid(ce, theta, 1.0, 2.0).r_avg_star
    return max_avg_rate_onoff_mmpp(ce, theta, 1.0, 2.0).r_avg_star


@pytest.mark.parametrize("kind", ["discrete", "fluid", "mmpp"])
def test_low_theta_derivative_matches_finite_difference(kind):
    spec = ChannelSpec(m=10, rho=0.0)
    snr = 1.0
    asym = low_theta_asymptotics(ONOFF_SOURCES[kind], spec, snr)
    assert asym.low_theta_limit == pytest.approx(ergodic_capacity(spec, snr), rel=1e-12)
    erg = asym.low_theta_limit
    th = 1e-3
    s1 = (_r_star_of_theta(kind, snr, 10, th) - erg) / th
    s2 = (_r_star_of_theta(kind, snr, 10, 2 * th) - erg) / (2 * th)
    richardson = 2 * s1 - s2
    assert richardson == pytest.approx(asym.low_theta_derivative, rel=1e-2)


def _small_source(family):
    """A 6-state source of each family; ``None`` is constant-rate."""
    fluid = build_birth_death_fluid(6, 1.0, 2.0, 1.0)
    return {
        "constant": None,
        "discrete": build_binomial_discrete_source(6, 0.3, 1.0),
        "fluid": fluid,
        "mmpp": MmppSource(fluid.generator, fluid.rates),
    }[family]


@pytest.mark.parametrize("family", ["constant", "discrete", "fluid", "mmpp"])
def test_nstate_low_theta_derivative_matches_finite_difference(family):
    spec = ChannelSpec(m=10, rho=0.0)
    snr = 1.0
    src = _small_source(family)
    asym = low_theta_asymptotics(src, spec, snr)
    erg = ergodic_capacity(spec, snr)
    assert asym.low_theta_limit == erg

    def r_star(theta):
        ce = effective_capacity_rayleigh_iid(snr, theta, 10).value
        return ce if src is None else max_avg_rate_nstate(src, theta, ce).r_avg_star

    th = 1e-3
    s1 = (r_star(th) - erg) / th
    s2 = (r_star(2 * th) - erg) / (2 * th)
    assert 2 * s1 - s2 == pytest.approx(asym.low_theta_derivative, rel=1e-2)


@pytest.mark.parametrize(
    "kind, twin",
    [
        ("discrete", as_discrete_source(OnOffDiscreteParams(0.8, 0.7, 1.0))),
        ("fluid", as_fluid_source(OnOffContinuousParams(1.0, 2.0, 1.0))),
        ("mmpp", as_mmpp_source(OnOffContinuousParams(1.0, 2.0, 1.0))),
    ],
    ids=["discrete", "fluid", "mmpp"],
)
def test_matrix_twin_has_the_two_state_low_theta_derivative(kind, twin):
    spec = ChannelSpec(m=10, rho=0.0)
    closed = low_theta_asymptotics(ONOFF_SOURCES[kind], spec, 1.0)
    matrix = low_theta_asymptotics(twin, spec, 1.0)
    assert matrix.low_theta_limit == closed.low_theta_limit
    assert matrix.low_theta_derivative == pytest.approx(
        closed.low_theta_derivative, rel=1e-13
    )


def test_low_theta_derivative_on_a_correlated_channel_is_pinned():
    # var(nu) comes from the gain-chain kernel, so every call gives the
    # same slope; a Richardson difference of r*(theta) on the quadrature
    # C_E agrees to 2e-6 relative at theta = 1e-4
    spec, src = ChannelSpec(m=10, rho=0.75), OnOffFluidParams(1.0, 2.0, 0.0)
    asym = low_theta_asymptotics(src, spec, 1.0)
    assert asym.low_theta_derivative == pytest.approx(-54.647164668438194, rel=1e-12)
    assert low_theta_asymptotics(src, spec, 1.0) == asym

    def r_star(theta):
        ce = effective_capacity_quadrature(spec, 1.0, theta).value
        return max_avg_rate(src, ce, theta).r_avg_star

    th, erg = 1e-4, asym.low_theta_limit
    richardson = 2 * (r_star(th) - erg) / th - (r_star(2 * th) - erg) / (2 * th)
    assert richardson == pytest.approx(asym.low_theta_derivative, rel=1e-4)


def test_mmpp_derivative_sits_below_fluid_by_half_ergodic():
    spec = ChannelSpec(m=10, rho=0.0)
    a_f = low_theta_asymptotics(OnOffFluidParams(1.0, 2.0, 0.0), spec, 1.0)
    a_m = low_theta_asymptotics(OnOffMmppParams(1.0, 2.0, 0.0), spec, 1.0)
    gap = a_m.low_theta_derivative - a_f.low_theta_derivative
    assert gap == pytest.approx(-0.5 * a_f.low_theta_limit, rel=1e-12)


def test_low_theta_validation():
    spec = ChannelSpec(m=2, rho=0.0)
    # a source that names no family has no Poisson layer to read
    for src in (OnOffContinuousParams(1.0, 1.0, 0.0), object()):
        with pytest.raises(TypeError, match="source type"):
            low_theta_asymptotics(src, spec, 1.0)
    with pytest.warns(UserWarning, match="absorbing"):
        with pytest.raises(ValueError, match="p11"):
            low_theta_asymptotics(OnOffDiscreteParams(1.0, 0.5, 0.0), spec, 1.0)


@pytest.mark.parametrize(
    "src",
    [None, OnOffContinuousParams(1.0, 1.0, 0.0), build_birth_death_fluid(3, 1.0, 2.0, 1.0)],
    ids=["constant", "family-less", "matrix"],
)
def test_high_snr_slope_needs_a_two_state_family(src):
    # the prelog reads p_on and the Poisson layer: only a two-state
    # source of a named family carries both
    with pytest.raises(TypeError, match="source type"):
        high_snr_slope(src, 1.0)


def test_solver_input_validation():
    with pytest.raises(ValueError, match="theta"):
        max_avg_rate_onoff_discrete(1.0, 0.0, 0.5, 0.5)
    with pytest.raises(ValueError, match="capacity"):
        max_avg_rate_onoff_fluid(-1.0, 1.0, 1.0, 1.0)
    with pytest.warns(UserWarning, match="absorbing"):
        with pytest.raises(ValueError, match="p_on"):
            high_snr_slope(OnOffDiscreteParams(1.0, 0.5, 0.0), 1.0)
    with pytest.raises(TypeError, match="source type"):
        max_avg_rate_nstate(object(), 1.0, 1.0)


def test_overflow_free_at_extreme_theta_ce():
    # theta * ce = 5000 would overflow the naive closed form
    res = max_avg_rate_onoff_discrete(500.0, 10.0, 0.8, 0.7)
    assert math.isfinite(res.r_avg_star)
    # peak rate tends to ce + ln(1/p22)/theta when the exponential dies
    expect = 500.0 + math.log(1.0 / 0.7) / 10.0
    assert res.lambda_star == pytest.approx(expect, rel=1e-12)


def test_poisson_layer_past_the_float_range_is_zero_without_warnings():
    # e^theta - 1 overflows past theta = ln(DBL_MAX) ~ 709.78; the Poisson
    # layer's cost theta / (e^theta - 1) and the prelog's 1 / (e^theta - 1)
    # are then 0, their limits, and no RuntimeWarning may escape
    src = OnOffMmppParams(1.0, 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = max_avg_rate(src, 1.0, 800.0)
        slope = high_snr_slope(src, 800.0)
        # its n-state twin's lambda* is 0 too, with no kernel call, whose
        # e^theta - 1 overflows
        twin = max_avg_rate(as_mmpp_source(src), 1.0, 800.0)
    assert (res.r_avg_star, res.lambda_star, slope) == (0.0, 0.0, 0.0)
    assert (twin.r_avg_star, twin.lambda_star, twin.method) == (0.0, 0.0, "pencil")


def test_birth_death_nstate_golden():
    # 10-state birth-death fluid, xi = 0.5; the root is frozen and the
    # effective bandwidth at the root is re-derived through a finite
    # horizon log-MGF (matrix exponential with renormalized steps,
    # Richardson-extrapolated in the horizon) so the eigenvalue path is
    # checked by an independent route
    import scipy.linalg

    from qoslink.energy import build_birth_death_fluid
    from qoslink.sources import effective_bandwidth_fluid

    bd = build_birth_death_fluid(10, 1.0, 2.0, 1.5)
    theta, ce = 0.8, 5.0
    res = max_avg_rate_nstate(bd, theta, ce)
    assert res.lambda_star == pytest.approx(0.455225330661051, rel=1e-9)
    assert res.r_avg_star == pytest.approx(0.6761631377707392, rel=1e-9)

    scaled_rates = bd.rates * res.lambda_star
    eigen = effective_bandwidth_fluid(FluidMarkovSource(bd.generator, scaled_rates), theta)
    assert eigen == pytest.approx(ce, abs=5e-9)

    M = theta * np.diag(scaled_rates) + bd.generator
    pi = FluidMarkovSource(bd.generator, np.zeros(10))._stationary
    dt = 5.0
    E = scipy.linalg.expm(M * dt)

    def horizon(T):
        v = pi.copy()
        logz = 0.0
        for _ in range(int(round(T / dt))):
            v = v @ E
            s = v.sum()
            logz += math.log(s)
            v /= s
        return logz / (theta * T)

    # the horizon bias is O(1/T); two horizons extrapolate it away
    extrap = 2.0 * horizon(400.0) - horizon(200.0)
    assert extrap == pytest.approx(eigen, abs=1e-9)


# max_avg_rate_nstate on the n=50 fixtures: (family, theta, C_E,
# lambda_star, iterations, residual), every row from the pencil; the
# binomial lambda* are within 2.3e-16 of 25-digit mpmath
NSTATE_FROZEN = [
    ("binomial", 0.1, 0.5, 0.033973190934202986, 1, 1.1102230246251565e-16),
    ("binomial", 0.5, 2.0, 0.13293478015834972, 1, 1.1102230246251565e-16),
    ("binomial", 0.01, 7.25, 0.4923482984336718, 1, 0.0),
    ("fluid", 0.1, 0.5, 0.016477222811854386, 1, 1.532107773982716e-14),
    ("fluid", 0.5, 2.0, 0.04507303818362977, 1, 8.881784197001252e-16),
    ("fluid", 0.01, 7.25, 0.2184198233768613, 1, 1.6783509448126506e-14),
    ("mmpp", 0.1, 0.5, 0.015667090402313122, 1, 4.3298697960381105e-15),
    ("mmpp", 0.5, 2.0, 0.034739910821010224, 1, 6.661338147750939e-16),
    ("mmpp", 0.01, 7.25, 0.21732954442213817, 1, 1.9601178917520005e-15),
]

# mpmath lambda* of NSTATE_FROZEN's rows (tests/pencil_reference.py,
# a minute or less each to recompute): 25 digits for the binomial
# (``discrete_lambda_star``), 40 for fluid and MMPP (``lambda_star``)
_NSTATE_MPMATH = {
    ("binomial", 0.1, 0.5): 0.03397319093420298956563,
    ("binomial", 0.5, 2.0): 0.1329347801583497349082,
    ("binomial", 0.01, 7.25): 0.4923482984336717667572,
    ("fluid", 0.1, 0.5): 0.01647722281185437058809534,
    ("fluid", 0.5, 2.0): 0.0450730381836297137400396,
    ("fluid", 0.01, 7.25): 0.2184198233768607188169703,
    ("mmpp", 0.1, 0.5): 0.01566709040231310786423568,
    ("mmpp", 0.5, 2.0): 0.03473991082101018128358663,
    ("mmpp", 0.01, 7.25): 0.2173295444221376209377319,
}


@pytest.mark.parametrize("family,theta,ce,lam,iterations,residual", NSTATE_FROZEN)
def test_nstate_solve_is_frozen(family, theta, ce, lam, iterations, residual):
    from qoslink.energy import build_binomial_discrete_source, build_birth_death_fluid

    fluid = build_birth_death_fluid(50, 1.0, 1.2, 1.0)
    src = {
        "binomial": build_binomial_discrete_source(50, 0.3, 1.0),
        "fluid": fluid,
        "mmpp": MmppSource(fluid.generator, fluid.rates),
    }[family]
    res = max_avg_rate_nstate(src, theta, ce)
    assert (res.lambda_star, res.iterations, res.residual) == (lam, iterations, residual)
    # the pencil takes pi as the chain's exact null vector, so the law's
    # accuracy sets lambda*'s: a dense solve's pi left the fluid and MMPP
    # rows up to 1.2e-14 off
    rel = 2.3e-16 if family == "binomial" else 3e-15
    assert lam == pytest.approx(_NSTATE_MPMATH[family, theta, ce], rel=rel, abs=0)


def test_throughput_and_simulator_take_the_family_data_from_the_source():
    # the matrix family travels with the source: throughput reads the
    # kernel, the scale solve and the stationary law off it, and the
    # simulator reads the law off it too
    def imported(module):
        tree = ast.parse(Path(module.__file__).read_text())
        return {
            alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names
        }

    stationary = re.compile(r"stationary_distribution_\w+")
    family = re.compile(r"DiscreteMarkovSource|FluidMarkovSource|MmppSource|_ebw_\w+")
    assert not {n for n in imported(throughput) if family.fullmatch(n) or stationary.fullmatch(n)}
    assert not {n for n in imported(queuesim) if stationary.fullmatch(n)}
