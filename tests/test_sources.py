import math
import sys
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qoslink.sources as sources_module
from qoslink.channel import ChannelSpec
from qoslink.energy import build_binomial_discrete_source, build_birth_death_fluid
from qoslink.errors import NonConvergence, NoUniqueStationary, ValidationError
from qoslink.queuesim import SimConfig, simulate_queue
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
    source_from_json,
)
from qoslink.throughput import (
    max_avg_rate,
    max_avg_rate_nstate,
    max_avg_rate_onoff_discrete,
    max_avg_rate_onoff_fluid,
    max_avg_rate_onoff_mmpp,
)


def random_chain(rng, n):
    J = rng.random((n, n)) + 0.05
    J /= J.sum(axis=1, keepdims=True)
    return J


# ---------------------------------------------------------------------------
# frozen closed-form values (independently computed at 40-digit precision)
# ---------------------------------------------------------------------------


def test_onoff_discrete_frozen_values():
    p = OnOffDiscreteParams(0.8, 0.8, 2.0)
    assert effective_bandwidth_onoff_discrete(p, 0.5) == pytest.approx(
        1.6215329426932631, rel=1e-12
    )
    assert effective_bandwidth_onoff_discrete(p, 1.0) == pytest.approx(
        1.7864840699482065, rel=1e-12
    )


def test_onoff_discrete_matches_eigen_route():
    p = OnOffDiscreteParams(0.8, 0.8, 2.0)
    closed = effective_bandwidth_onoff_discrete(p, 1.0)
    eigen = effective_bandwidth_discrete(as_discrete_source(p), 1.0)
    assert eigen == pytest.approx(closed, rel=1e-9)


def test_onoff_fluid_frozen_value():
    p = OnOffContinuousParams(50.0, 50.0, 2.0)
    closed = effective_bandwidth_onoff_fluid(p, 1.0)
    assert closed == pytest.approx(1.0099990001999500, rel=1e-12)
    eigen = effective_bandwidth_fluid(as_fluid_source(p), 1.0)
    assert eigen == pytest.approx(closed, rel=1e-9)


def test_onoff_mmpp_frozen_value():
    p = OnOffContinuousParams(50.0, 50.0, 2.0)
    closed = effective_bandwidth_onoff_mmpp(p, 1.0)
    assert closed == pytest.approx(1.7477980408112546, rel=1e-12)
    eigen = effective_bandwidth_mmpp(as_mmpp_source(p), 1.0)
    assert eigen == pytest.approx(closed, rel=1e-9)


def _onoff_discrete_reference(p11, p22, lam, theta):
    """a*(theta) of the discrete ON/OFF source: the log of the larger root
    of r^2 - (p11 + p22 e^{lam theta}) r + (p11 + p22 - 1) e^{lam theta},
    in mpmath with enough digits to resolve e^{lam theta} - 1."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40 + max(0, int(-math.log10(lam * theta)))):
        # the floats' exact values go in before 1 - p11 is formed
        p11, p22, lam, theta = (mp.mpf(v) for v in (p11, p22, lam, theta))
        E = mp.exp(lam * theta)
        x = p11 + p22 * E
        return float(mp.log((x + mp.sqrt(x * x - 4 * (p11 + p22 - 1) * E)) / 2) / theta)


@pytest.mark.parametrize("theta", [1e-12, 1e-8, 1e-6, 1e-4, 0.01, 0.3, 2.0])
@pytest.mark.parametrize(
    "p11, p22, lam", [(0.8, 0.7, 1.0), (0.1, 0.95, 7.5), (0.99, 0.2, 0.3), (0.5, 0.0, 3.0)]
)
def test_onoff_discrete_matches_mpmath_down_to_small_theta(p11, p22, lam, theta):
    # e^{lam theta} once entered the quadratic whole, so its root lost
    # the digits of e^{lam theta} - 1: 3.1e-4 off at theta 1e-12
    got = effective_bandwidth_onoff_discrete(OnOffDiscreteParams(p11, p22, lam), theta)
    assert got == pytest.approx(_onoff_discrete_reference(p11, p22, lam, theta), rel=1e-15, abs=0)


@pytest.mark.parametrize("theta", [1e-16, 1e-20, 1e-300])
@pytest.mark.parametrize(
    "params",
    [OnOffDiscreteParams(0.8, 0.7, 1.0), OnOffFluidParams(1.0, 2.0, 1.0),
     OnOffMmppParams(1.0, 2.0, 1.0)],
)
def test_onoff_closed_forms_reach_the_mean_rate_as_theta_vanishes(params, theta):
    # the closed forms once returned 0.0 here
    assert params.effective_bandwidth(theta) == pytest.approx(params.mean_rate, rel=1e-15, abs=0)


def test_five_state_stationary_frozen():
    rng = np.random.default_rng(20260819)
    src = DiscreteMarkovSource(random_chain(rng, 5), np.arange(5.0))
    pi = src._stationary
    expected = [
        0.19276301480425845,
        0.17776759378768492,
        0.18201469652637375,
        0.27686258906938666,
        0.17059210581229828,
    ]
    np.testing.assert_allclose(pi, expected, rtol=1e-12)


@pytest.mark.parametrize("p", [0.9999, 0.99999, 0.999999])
@pytest.mark.parametrize("theta", [0.01, 0.1, 1.0, 10.0])
def test_eigen_route_exact_on_near_degenerate_chains(p, theta):
    # slowly mixing chains: the second eigenvalue lies within 2e-4 of the root
    params = OnOffDiscreteParams(p, p, 2.0)
    closed = effective_bandwidth_onoff_discrete(params, theta)
    eigen = effective_bandwidth_discrete(as_discrete_source(params), theta)
    assert eigen == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("theta", [0.01, 0.1])
def test_eigen_route_exact_on_stiff_generators(theta):
    # G / theta outweighs the rates by up to 1e4
    params = OnOffContinuousParams(50.0, 50.0, 2.0)
    fluid = effective_bandwidth_fluid(as_fluid_source(params), theta)
    assert fluid == pytest.approx(effective_bandwidth_onoff_fluid(params, theta), rel=1e-12)
    mmpp = effective_bandwidth_mmpp(as_mmpp_source(params), theta)
    assert mmpp == pytest.approx(effective_bandwidth_onoff_mmpp(params, theta), rel=1e-12)


def test_eigen_solver_failure_is_nonconvergence(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    # a biased 3-cycle has no detailed balance and takes the general
    # solver; the ON/OFF source is reversible and takes the symmetric one
    G = np.array([[-3.0, 2.0, 1.0], [1.0, -3.0, 2.0], [2.0, 1.0, -3.0]])
    cycle = FluidMarkovSource(G, np.array([0.0, 1.0, 2.0]))
    onoff = as_fluid_source(OnOffContinuousParams(2.0, 3.0, 1.0))
    assert not cycle.reversible and onoff.reversible
    for solver, src in (("eigvals", cycle), ("eigvalsh", onoff)):
        with monkeypatch.context() as patch:
            patch.setattr(sources_module.np.linalg, solver, fail)
            with pytest.raises(NonConvergence, match="did not converge"):
                effective_bandwidth_fluid(src, 1.0)


# ---------------------------------------------------------------------------
# reversible chains: the symmetric eigenproblem
# ---------------------------------------------------------------------------


def _family_sources(P, rates):
    """Discrete source on P, and fluid and MMPP sources on the generator
    whose jump chain is P without its diagonal."""
    G = P - np.diag(np.diag(P))
    G -= np.diag(G.sum(axis=1))
    return [
        DiscreteMarkovSource(P, rates),
        FluidMarkovSource(G, rates),
        MmppSource(G, rates),
    ]


def _general_route(src, theta):
    # the general dense spectrum, exactly as the kernels take it for any
    # chain without detailed balance
    if isinstance(src, DiscreteMarkovSource):
        r = src.rates
        lam_max = float(np.max(r))
        M = np.exp(theta * (r - lam_max))[:, None] * src.transition_probs
        return lam_max + math.log(float(np.max(np.linalg.eigvals(M).real))) / theta
    if isinstance(src, FluidMarkovSource):
        M = np.diag(src.rates) + src.generator / theta
        return float(np.max(np.linalg.eigvals(M).real))
    M = math.expm1(theta) * np.diag(src.intensities) + src.generator
    return float(np.max(np.linalg.eigvals(M).real)) / theta


_PUBLIC_ROUTE = {
    DiscreteMarkovSource: effective_bandwidth_discrete,
    FluidMarkovSource: effective_bandwidth_fluid,
    MmppSource: effective_bandwidth_mmpp,
}


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    theta=st.floats(min_value=0.02, max_value=5.0),
)
def test_random_walks_on_symmetric_weights_take_symmetric_route(n, seed, theta):
    rng = np.random.default_rng(seed)
    # symmetric weights over a random edge set that keeps a path through
    # every state, plus self-loops so the discrete chain is aperiodic
    W = np.exp(rng.uniform(-3.0, 3.0, (n, n))) * (rng.random((n, n)) < 0.5)
    W[np.arange(n - 1), np.arange(1, n)] += 1.0
    W = np.triu(W, 1)
    W = W + W.T + np.diag(np.exp(rng.uniform(-3.0, 3.0, n)))
    P = W / W.sum(axis=1, keepdims=True)
    rates = rng.uniform(0.0, 5.0, n)
    for src in _family_sources(P, rates):
        assert src.reversible
        assert _PUBLIC_ROUTE[type(src)](src, theta) == pytest.approx(
            _general_route(src, theta), rel=1e-10
        )


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    theta=st.floats(min_value=0.02, max_value=5.0),
)
def test_chains_without_detailed_balance_keep_general_route(n, seed, theta):
    rng = np.random.default_rng(seed)
    biased_cycle = np.array([[0.2, 0.6, 0.2], [0.2, 0.2, 0.6], [0.6, 0.2, 0.2]])
    chains = [(random_chain(rng, n), rng.uniform(0.0, 5.0, n)),
              (biased_cycle, rng.uniform(0.0, 5.0, 3))]
    for P, rates in chains:
        for src in _family_sources(P, rates):
            assert not src.reversible
            assert _PUBLIC_ROUTE[type(src)](src, theta) == _general_route(src, theta)


def test_reversibility_without_the_stationary_law():
    # pi spans 60+ decades on these chains; the decision never forms it
    bd = build_birth_death_fluid(200, 1.0, 2.0, 1.0)
    assert bd.reversible and MmppSource(bd.generator, bd.rates).reversible
    assert build_binomial_discrete_source(200, 0.3, 1.0).reversible
    # a one-way edge breaks the symmetric support
    G = np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]])
    assert not FluidMarkovSource(G, np.arange(3.0)).reversible
    # two closed ON/OFF pairs: each class balances on its own
    pair = np.array([[-2.0, 2.0], [3.0, -3.0]])
    split = np.block([[pair, np.zeros((2, 2))], [np.zeros((2, 2)), 2 * pair]])
    src = FluidMarkovSource(split, np.array([0.0, 1.0, 0.0, 4.0]))
    assert src.reversible
    assert effective_bandwidth_fluid(src, 0.7) == pytest.approx(_general_route(src, 0.7), rel=1e-12)


def test_reversible_is_computed_and_read_only():
    src = as_fluid_source(OnOffContinuousParams(2.0, 3.0, 1.0))
    assert src.reversible is True
    with pytest.raises(AttributeError):
        src.reversible = False
    with pytest.raises(TypeError):
        FluidMarkovSource(src.generator, src.rates, reversible=False)


# a*(theta) of n=30 sources from 40-digit mpmath Perron roots of the
# unsymmetrized matrices: tests/perron_reference.py
_MPMATH_EBW = {
    ("fluid", 0.01): 2.656844911364930850446586,
    ("fluid", 0.2): 25.81395024571339254865947,
    ("fluid", 1.5): 28.14854792201557700477867,
    ("mmpp", 0.01): 2.775345927640903667312506,
    ("mmpp", 0.2): 28.79808148501902760364153,
    ("mmpp", 1.5): 66.26501768736965853995024,
    ("binomial", 0.01): 8.730490533716433874476701,
    ("binomial", 0.2): 9.324662944492299286393,
    ("binomial", 1.5): 13.82635993231296211941155,
}


@pytest.mark.parametrize("family,theta", sorted(_MPMATH_EBW))
def test_eigen_route_matches_mpmath(family, theta):
    fluid = build_birth_death_fluid(30, 1.0, 2.0, 1.0)
    if family == "fluid":
        got = effective_bandwidth_fluid(fluid, theta)
    elif family == "mmpp":
        got = effective_bandwidth_mmpp(MmppSource(fluid.generator, fluid.rates), theta)
    else:
        got = effective_bandwidth_discrete(build_binomial_discrete_source(30, 0.3, 1.0), theta)
    assert got == pytest.approx(_MPMATH_EBW[family, theta], rel=1e-13, abs=0)


# ---------------------------------------------------------------------------
# tridiagonal chains: the O(n) Laguerre route
# ---------------------------------------------------------------------------


def lazy_walk(n):
    """Lazy reflecting walk on n states, up and down 0.3, rates 0..n-1."""
    P = 0.3 * (np.eye(n, k=1) + np.eye(n, k=-1))
    P[np.arange(n), np.arange(n)] = 1.0 - P.sum(axis=1)
    return DiscreteMarkovSource(P, np.arange(n, dtype=float))


def _birth_death_sources(n):
    fluid = build_birth_death_fluid(n, 1.0, 2.0, 1.0)
    return {"fluid": fluid, "mmpp": MmppSource(fluid.generator, fluid.rates),
            "discrete": lazy_walk(n)}


def _dense_root(A, symmetric):
    """``_perron_root`` of a dense matrix A by the route a source with A
    fixes when it is built: A's band where ``_band_of`` finds one and A
    has at least ``_TRIDIAGONAL_MIN_STATES`` rows."""
    band = sources_module._band_of(A) if len(A) >= sources_module._TRIDIAGONAL_MIN_STATES else None
    operand = sources_module._Dense(A) if band is None else band
    return sources_module._perron_root(operand, symmetric)


def _symmetrized(M):
    """The dense symmetrization the kernels hand a reversible chain's
    matrix to its root."""
    return sources_module._Dense(M).symmetrized().m


@pytest.fixture
def pivot_passes(monkeypatch):
    """The list of x at which the Laguerre route ran a pivot pass."""
    passes = []
    pivot_sums = sources_module._pivot_sums
    monkeypatch.setattr(sources_module, "_pivot_sums",
                        lambda d, e, x: passes.append(x) or pivot_sums(d, e, x))
    return passes


# a*(theta) of birth-death sources from 40-digit Perron roots of the
# unsymmetrized matrices (mpmath.eig at n=64, a Sturm bisection checked
# against it at n=200): tests/perron_reference.py
_MPMATH_EBW_TRIDIAGONAL = {
    ("fluid", 64, 0.01): 36.65401045557409524681963,
    ("fluid", 64, 0.2): 59.81395024571339254865947,
    ("fluid", 64, 1.5): 62.14854792201557700477867,
    ("mmpp", 64, 0.01): 36.9433546185973302670171,
    ("mmpp", 64, 0.2): 66.43655037224789958611912,
    ("mmpp", 64, 1.5): 145.1833032816991278522635,
    ("discrete", 64, 0.01): 60.31256804845997260483394,
    ("discrete", 64, 0.2): 62.27498007561053792671285,
    ("discrete", 64, 1.5): 62.79141915765414943056724,
    ("fluid", 200, 0.01): 172.6540104555740952464927,
    ("fluid", 200, 0.2): 195.8139502457133925486595,
    ("fluid", 200, 1.5): 198.1485479220155770047787,
    ("mmpp", 200, 0.01): 173.6256269632829128544314,
    ("mmpp", 200, 0.2): 216.9904259211633875160295,
    ("mmpp", 200, 1.5): 460.8564456590170051015165,
    ("discrete", 200, 0.01): 196.3125680484599726048339,
    ("discrete", 200, 0.2): 198.2749800756105379267128,
    ("discrete", 200, 1.5): 198.7914191576541494305672,
}


@pytest.mark.parametrize("family,n,theta", sorted(_MPMATH_EBW_TRIDIAGONAL))
def test_tridiagonal_route_matches_mpmath(family, n, theta, pivot_passes):
    src = _birth_death_sources(n)[family]
    got = _PUBLIC_ROUTE[type(src)](src, theta)
    assert pivot_passes, "the tridiagonal route was not taken"
    assert got == pytest.approx(_MPMATH_EBW_TRIDIAGONAL[family, n, theta], rel=1e-13)


def _random_tridiagonal(rng, n, kind, theta):
    """A tridiagonal Metzler matrix with off-diagonal entries log-uniform
    down to 1e-300, 1e-3 or 1e-1 and up to 1e3, some of them zero, so that
    pairs are one-sided or missing: a generator shifted by rates in [0,
    10], or a stochastic matrix with rows tilted by e^{theta (r - max r)}."""
    low = rng.choice([-300.0, -3.0, -1.0])
    up, down = 10.0 ** rng.uniform(low, 3.0, (2, n - 1))
    cut = rng.random(n - 1)
    up[cut < 0.1] = 0.0
    down[(cut > 0.05) & (cut < 0.15)] = 0.0
    M = np.diag(up, 1) + np.diag(down, -1)
    if kind == "generator":
        np.fill_diagonal(M, rng.uniform(0.0, 10.0, n) - M.sum(axis=1))
        return M
    np.fill_diagonal(M, 10.0 ** rng.uniform(low, 3.0, n))
    r = rng.uniform(0.0, 10.0, n)
    return np.exp(theta * (r - r.max()))[:, None] * M / M.sum(axis=1, keepdims=True)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=64, max_value=400),
    kind=st.sampled_from(["generator", "tilted"]),
    theta=st.floats(min_value=0.01, max_value=50.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_tridiagonal_route_matches_eigvalsh(n, kind, theta, seed):
    M = _random_tridiagonal(np.random.default_rng(seed), n, kind, theta)
    T = _symmetrized(M)
    want = np.linalg.eigvalsh(T)[-1]
    norm = np.max(np.sum(np.abs(T), axis=1))
    for A in (M, T):
        got = _dense_root(A, False)
        assert abs(got - want) <= 2e-14 * norm
        # it runs on T scaled by a power of two, so scaling M by one is
        # exact, also where the products M_ij M_ji overflow
        assert _dense_root(np.ldexp(A, 600), False) == np.ldexp(got, 600)


def test_tridiagonal_crossover_splits_the_sizes(pivot_passes):
    # every exactly pinned chain of 50 states or fewer keeps eigvalsh
    assert 50 < sources_module._TRIDIAGONAL_MIN_STATES <= 64
    n = sources_module._TRIDIAGONAL_MIN_STATES
    effective_bandwidth_fluid(build_birth_death_fluid(n - 1, 1.0, 2.0, 1.0), 0.5)
    assert not pivot_passes
    effective_bandwidth_fluid(build_birth_death_fluid(n, 1.0, 2.0, 1.0), 0.5)
    assert pivot_passes
    # a dense chain of any size keeps eigvalsh: a walk on symmetric
    # weights, whose rows differ (a binomial's rows are all its law)
    pivot_passes.clear()
    W = np.random.default_rng(0).random((n, n))
    dense = DiscreteMarkovSource((W + W.T) / (W + W.T).sum(axis=1, keepdims=True), np.arange(n))
    assert dense.reversible and isinstance(dense._operand, sources_module._Dense)
    effective_bandwidth_discrete(dense, 0.5)
    assert not pivot_passes


def test_tridiagonal_route_takes_few_steps(pivot_passes):
    # three birth-death sources, whose top roots stand apart, at each size:
    # the n=200 eigen sweep of the benchmark (8 theta in (0.05, 2)), and 12
    # theta in [0.01, 5] at n 64 and 2000; the probes that end a stall on
    # clustered roots must not slow these down
    for n, thetas in ((200, np.geomspace(0.05, 2.0, 8)), (64, np.geomspace(0.01, 5.0, 12)),
                      (2000, np.geomspace(0.01, 5.0, 12))):
        steps = []
        for src in _birth_death_sources(n).values():
            for theta in thetas:
                pivot_passes.clear()
                _PUBLIC_ROUTE[type(src)](src, theta)
                steps.append(len(pivot_passes))
        assert np.median(steps) <= 6 and max(steps) <= 8, n


def test_tridiagonal_route_failures_are_nonconvergence(monkeypatch):
    M = _symmetrized(lazy_walk(64).transition_probs)
    M[5, 5] = np.nan
    with pytest.raises(NonConvergence, match="non-finite"):
        _dense_root(M, True)
    monkeypatch.setattr(sources_module, "_LAGUERRE_MAX_STEPS", 1)
    with pytest.raises(NonConvergence, match="within 1 Laguerre steps"):
        effective_bandwidth_fluid(build_birth_death_fluid(64, 1.0, 2.0, 1.0), 0.5)


# The dense kernels that a birth-death source's band replaces, as they
# were: each builds the full n x n matrix and its root takes the same
# route, so the band must give the same float or the same error.


def _dense_ebw_discrete(transition_probs, rates, theta, reversible):
    lam_max = float(np.max(rates))
    with np.errstate(over="ignore"):
        M = np.exp(theta * (rates - lam_max))[:, None] * transition_probs
    sp = _dense_root(_symmetrized(M) if reversible else M, reversible)
    if sp <= 0.0:
        raise NonConvergence("spectral radius collapsed to zero")
    return lam_max + math.log(sp) / theta


def _dense_ebw_fluid(generator, rates, theta, reversible):
    with np.errstate(over="ignore"):
        M = np.diag(rates) + generator / theta
    return _dense_root(_symmetrized(M) if reversible else M, reversible)


def _dense_ebw_mmpp(generator, intensities, theta, reversible):
    with np.errstate(over="ignore"):
        M = math.expm1(theta) * np.diag(intensities) + generator
    return _dense_root(_symmetrized(M) if reversible else M, reversible) / theta


_DENSE_KERNELS = {DiscreteMarkovSource: _dense_ebw_discrete,
                  FluidMarkovSource: _dense_ebw_fluid, MmppSource: _dense_ebw_mmpp}


def _outcome(f, *args):
    """f(*args), or the class and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc)


def _dense_outcome(src, theta):
    # the dense symmetrization of an overflowed matrix multiplies inf by
    # its zeros and warns before the non-finite entries are refused
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return _outcome(_DENSE_KERNELS[type(src)], src._matrix, src._rates, theta, src.reversible)


def _random_birth_death(rng, n, cls, one_sided, huge_rates, huge_chain, zero_share):
    """A birth-death source of type ``cls``: dyadic up and down rates over
    30 octaves (so a generator's rows sum to exactly 0), a tenth of the
    down rates 0 where ``one_sided``, a ``zero_share`` of the state rates
    0, and rates or generator scaled by 2^1000 where asked."""
    up, down = np.ldexp(rng.integers(1, 1024, (2, n - 1)), rng.integers(-10, 10, (2, n - 1)))
    if one_sided:
        down[rng.random(n - 1) < 0.1] = 0.0
    M = np.diag(up, 1) + np.diag(down, -1)
    rates = rng.uniform(0.0, 10.0, n)
    rates[rng.random(n) < zero_share] = 0.0
    if cls is DiscreteMarkovSource:
        np.fill_diagonal(M, rng.uniform(0.0, 100.0, n))
        M /= M.sum(axis=1, keepdims=True)
    else:
        np.fill_diagonal(M, -M.sum(axis=1))
        M = np.ldexp(M, 1000 if huge_chain else 0)
    return cls(M, np.ldexp(rates, 1000 if huge_rates else 0))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=64, max_value=400),
    cls=st.sampled_from([DiscreteMarkovSource, FluidMarkovSource, MmppSource]),
    one_sided=st.booleans(),
    huge_rates=st.booleans(),
    huge_chain=st.booleans(),
    zero_share=st.sampled_from([0.0, 0.3, 1.0]),
    theta=st.floats(min_value=1e-3, max_value=50.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_birth_death_band_is_bit_identical_to_the_dense_kernels(
        n, cls, one_sided, huge_rates, huge_chain, zero_share, theta, seed):
    src = _random_birth_death(np.random.default_rng(seed), n, cls, one_sided,
                              huge_rates, huge_chain, zero_share)
    assert isinstance(src._operand, sources_module._Band)
    assert src.reversible is not one_sided
    assert _outcome(src.effective_bandwidth, theta) == _dense_outcome(src, theta)


@pytest.mark.parametrize("cls", [FluidMarkovSource, MmppSource])
def test_tridiagonal_route_ends_on_clustered_roots(cls):
    # rates all 0, so a*(theta) is rho(G) / theta = 0; the top roots of the
    # chain's 30-octave rates cluster at 0, where Laguerre steps from above
    # close in only linearly (each about 0.8 of the one before)
    src = _random_birth_death(np.random.default_rng(2), 64, cls, False, False, False, 1.0)
    theta = 0.01
    T = _symmetrized(src._matrix)
    norm = np.max(np.sum(np.abs(T), axis=1))
    assert abs(src.effective_bandwidth(theta)) <= 2e-14 * norm / theta


def _kernel_matrix(src, theta):
    """The dense matrix whose Perron root gives ``src``'s a*(theta)."""
    r, M = src._rates, src._matrix
    if src._discrete:
        return np.exp(theta * (r - np.max(r)))[:, None] * M
    return math.expm1(theta) * np.diag(r) + M if src._poisson else np.diag(r) + M / theta


def test_tridiagonal_route_meets_eigvalsh_on_clustered_chains():
    # a seeded draw of birth-death chains whose top roots cluster (30-octave
    # rates, a tenth of the down rates 0 on half of them, many rates 0),
    # where Laguerre steps alone ran out of steps on 9-38% of them
    rng = np.random.default_rng(20261020)
    families = (DiscreteMarkovSource, FluidMarkovSource, MmppSource)
    for i in range(45):
        n, theta = int(rng.integers(64, 401)), float(10.0 ** rng.uniform(-3.0, np.log10(50.0)))
        src = _random_birth_death(np.random.default_rng(int(rng.integers(2**32))), n,
                                  families[i % 3], i % 2 == 1, False, False,
                                  float(rng.choice([0.0, 0.3, 1.0])))
        M = _kernel_matrix(src, theta)
        T = _symmetrized(M)
        want = np.linalg.eigvalsh(T)[-1]
        norm = np.max(np.sum(np.abs(T), axis=1))
        got = _dense_root(T if src.reversible else M, src.reversible)
        assert abs(got - want) <= 2e-14 * norm, (i, n, theta)


def test_birth_death_effective_bandwidth_makes_no_dense_matrix():
    # one float matrix of 2000 states alone is 30.5 MiB
    src = build_birth_death_fluid(2000, 1.0, 2.0, 1.0)
    tracemalloc.start()
    try:
        src.effective_bandwidth(0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------------------
# memoryless chains: every row of J is the law p, J = 1 p^T
# ---------------------------------------------------------------------------


def _memoryless_sources():
    """Binomial laws of 2, 50 and 400 states (rates 0..n-1), and a law
    that is 0 at some states, the top rate's among them."""
    law = np.array([0.5, 0.0, 0.25, 0.0, 0.25, 0.0])
    rows = {f"binomial-{n}": build_binomial_discrete_source(n, 0.3, 1.0) for n in (2, 50, 400)}
    rows["zeros"] = DiscreteMarkovSource(np.tile(law, (6, 1)), [0.0, 9.0, 1.0, 2.0, 3.0, 1e3])
    return rows


@pytest.mark.parametrize("name", ["binomial-2", "binomial-50", "binomial-400", "zeros"])
def test_memoryless_kernel_matches_mpmath_within_two_ulps(name):
    # theta * max rate passes 709 from theta 15 at n = 50; a log of the sum
    # p.e^{theta (r - max r)} alone was up to 2400 ulps off at n = 2, and
    # at the zeros' law the dense route found its root collapsed to 0
    from log_mgf_reference import ebw

    src = _memoryless_sources()[name]
    assert isinstance(src._operand, sources_module._RankOne)
    for theta in np.geomspace(1e-3, 50.0, 13):
        ref = float(ebw(src.transition_probs[0], src.rates, theta))
        assert abs(src.effective_bandwidth(theta) - ref) <= 2 * math.ulp(ref), theta


def test_memoryless_on_off_source_meets_its_closed_form():
    # p11 + p22 = 1: both rows are the law (p11, p22)
    params = OnOffDiscreteParams(0.25, 0.75, 2.0)
    src = as_discrete_source(params)
    assert isinstance(src._operand, sources_module._RankOne)
    for theta in np.geomspace(1e-3, 50.0, 13):
        assert src.effective_bandwidth(theta) == pytest.approx(
            effective_bandwidth_onoff_discrete(params, theta), rel=1e-12, abs=0), theta
    shape = as_discrete_source(OnOffDiscreteParams(0.25, 0.75, 1.0))
    for theta, ce in ((0.01, 0.5), (0.5, 2.0), (5.0, 1e-300), (3.0, 40.0)):
        closed = max_avg_rate(params, ce, theta)
        assert max_avg_rate_nstate(shape, theta, ce).lambda_star == pytest.approx(
            closed.lambda_star, rel=1e-12, abs=0), (theta, ce)


def test_memoryless_chain_makes_no_square_array_and_no_solver_call(monkeypatch):
    # one float matrix of 2000 states alone is 30.5 MiB; the law, a*(theta)
    # and a rate-scale solve each read only the row
    class NoLinalg:
        def __getattr__(self, name):
            raise AssertionError(f"np.linalg.{name} was called")

    src = build_binomial_discrete_source(2000, 0.3, 1.0)
    monkeypatch.setattr(np, "linalg", NoLinalg())
    for call in (lambda: src._stationary, lambda: src.effective_bandwidth(0.5),
                 lambda: max_avg_rate_nstate(src, 0.5, 3.0)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_only_bitwise_equal_rows_are_memoryless():
    law = build_binomial_discrete_source(6, 0.3, 1.0).transition_probs[0]
    J = np.tile(law, (6, 1))
    assert isinstance(DiscreteMarkovSource(J, np.arange(6.0))._operand, sources_module._RankOne)
    # one ulp off in one entry of one row is a dense chain
    J[3, 2] = np.nextafter(J[3, 2], 1.0)
    J[3, 3] = np.nextafter(J[3, 3], 0.0)
    assert isinstance(DiscreteMarkovSource(J, np.arange(6.0))._operand, sources_module._Dense)
    # a generator's rows never take the route
    assert isinstance(FluidMarkovSource([[0.0]], [1.0])._operand, sources_module._Dense)


@pytest.mark.parametrize("u, v", [([1.0, np.inf], [0.5, 0.5]), ([1e308, 1e308], [1.0, 1.0])],
                         ids=["inf-entry", "inf-root"])
def test_rank_one_root_rejects_non_finite_values(u, v):
    M = sources_module._RankOne(np.array(u), np.array(v))
    with pytest.raises(NonConvergence, match="non-finite"):
        sources_module._perron_root(M, True)


@pytest.mark.parametrize("M", [
    [[np.inf, 1.0], [1.0, 0.0]],  # eigvalsh returned NaN
    [[1e308, 1e308], [1e308, 1e308]],  # finite, but eigvalsh returned inf
    [[np.nan, 1.0], [1.0, 0.0]],  # eigvals raised, naming no value
    1e308 * (np.eye(64) + np.eye(64, k=1) + np.eye(64, k=-1)),  # T's norm overflows
], ids=["inf-entry", "inf-root", "nan-entry", "tridiagonal-norm"])
def test_perron_root_rejects_non_finite_values(M):
    with pytest.raises(NonConvergence, match="non-finite"):
        _dense_root(np.array(M), True)


@pytest.mark.parametrize("source, theta", [
    (FluidMarkovSource([[-1e308, 1e308], [1e308, -1e308]], [0.0, 1.0]), 0.5),
    (MmppSource([[-1.0, 1.0], [1.0, -1.0]], [0.0, 1e308]), 5.0),
], ids=["fluid", "mmpp"])
def test_kernel_overflow_is_nonconvergence(source, theta):
    # G / theta, or (e^theta - 1) * rate, past DBL_MAX: one error, not a NaN
    with pytest.raises(NonConvergence, match="non-finite"):
        source.effective_bandwidth(theta)


def test_mmpp_past_the_float_range_raises_no_overflow_error():
    # e^theta - 1 passes DBL_MAX past theta = ln(DBL_MAX) ~ 709.78, where
    # math.expm1 raised a bare OverflowError on all three routes: the
    # kernel's matrix is not finite, the closed form and the bit-energy
    # penalty are inf
    from qoslink.energy import source_energy_metrics

    fluid = build_birth_death_fluid(64, 1.0, 2.0, 1.0)
    for src in (MmppSource([[-1.0, 1.0], [1.0, -1.0]], [0.0, 2.0]),
                MmppSource(fluid.generator, fluid.rates)):
        with pytest.raises(NonConvergence, match="non-finite"):
            src.effective_bandwidth(800.0)
    assert OnOffMmppParams(1.0, 2.0, 1.0).effective_bandwidth(800.0) == math.inf
    metrics = source_energy_metrics(OnOffMmppParams(1.0, 2.0, 0.0), ChannelSpec(2, 0.0), 800.0)[1]
    assert (metrics.ebn0_min_linear, metrics.ebn0_min_db, metrics.wideband_slope) == (
        math.inf, math.inf, 0.0)
    # math.expm1 stands wherever it is finite
    theta = math.log(sys.float_info.max)
    assert sources_module._expm1(theta) == math.expm1(theta)


def test_discrete_kernel_overflow_takes_its_limit():
    # theta * (rate - max rate) below -DBL_MAX: the row's factor is its
    # limit 0, with no RuntimeWarning (an error under the test filter)
    source = DiscreteMarkovSource([[0.5, 0.5], [0.5, 0.5]], [1.0, 1e308])
    assert source.effective_bandwidth(5.0) == 1e308


# ---------------------------------------------------------------------------
# degenerate / boundary cases
# ---------------------------------------------------------------------------


def test_always_on_source_has_peak_bandwidth():
    # p11=0, p22=1: the chain enters ON and stays, so a* equals the peak
    src = DiscreteMarkovSource(
        np.array([[0.0, 1.0], [0.0, 1.0]]), np.array([0.0, 2.0])
    )
    for theta in (0.01, 1.0, 10.0):
        assert effective_bandwidth_discrete(src, theta) == pytest.approx(2.0)


def test_absorbing_off_is_zero_with_warning():
    with pytest.warns(UserWarning, match="absorbing"):
        p = OnOffDiscreteParams(1.0, 0.5, 3.0)
    assert effective_bandwidth_onoff_discrete(p, 2.0) == 0.0
    assert p.mean_rate == 0.0


def test_fluid_beta_zero_gives_peak():
    G = np.array([[-4.0, 4.0], [0.0, 0.0]])
    src = FluidMarkovSource(G, np.array([0.0, 1.5]))
    for theta in (0.1, 1.0, 25.0):
        assert effective_bandwidth_fluid(src, theta) == pytest.approx(1.5)


def test_silent_source_is_zero():
    assert effective_bandwidth_onoff_discrete(OnOffDiscreteParams(0.5, 0.5, 0.0), 1.0) == 0.0
    assert effective_bandwidth_onoff_fluid(OnOffContinuousParams(1.0, 1.0, 0.0), 1.0) == 0.0
    assert effective_bandwidth_onoff_mmpp(OnOffContinuousParams(1.0, 1.0, 0.0), 1.0) == 0.0


def test_constant_rate_single_state():
    src = DiscreteMarkovSource(np.array([[1.0]]), np.array([3.25]))
    assert effective_bandwidth_discrete(src, 0.7) == pytest.approx(3.25)
    fl = FluidMarkovSource(np.array([[0.0]]), np.array([3.25]))
    assert effective_bandwidth_fluid(fl, 0.7) == pytest.approx(3.25)


def test_theta_must_be_positive():
    p = OnOffDiscreteParams(0.5, 0.5, 1.0)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            effective_bandwidth_onoff_discrete(p, bad)


def test_extreme_theta_lambda_product_stays_finite():
    """Scaled evaluation must survive lam*theta ~ 1e4 without overflow."""
    p = OnOffDiscreteParams(0.3, 0.7, 1000.0)
    a = effective_bandwidth_onoff_discrete(p, 10.0)
    # at this depth the root is p22*e^{lam*theta} to machine precision
    assert a == pytest.approx(1000.0 + math.log(0.7) / 10.0, rel=1e-12)
    eigen = effective_bandwidth_discrete(as_discrete_source(p), 10.0)
    assert eigen == pytest.approx(a, rel=1e-9)

    burst = OnOffDiscreteParams(0.3, 0.0, 1000.0)
    a2 = effective_bandwidth_onoff_discrete(burst, 10.0)
    assert a2 == pytest.approx(500.0 + math.log(0.7) / 20.0, rel=1e-12)


def test_branch_seam_is_continuous():
    # lam*theta = 300 is where the scaled evaluation takes over
    p = OnOffDiscreteParams(0.4, 0.6, 100.0)
    lo = effective_bandwidth_onoff_discrete(p, 2.99999)
    hi = effective_bandwidth_onoff_discrete(p, 3.00001)
    assert hi >= lo
    assert hi - lo < 1e-4


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(
    p11=st.floats(min_value=0.05, max_value=0.95),
    p22=st.floats(min_value=0.05, max_value=0.95),
    lam=st.floats(min_value=0.1, max_value=20.0),
    theta=st.floats(min_value=0.01, max_value=10.0),
)
def test_onoff_discrete_between_mean_and_peak(p11, p22, lam, theta):
    p = OnOffDiscreteParams(p11, p22, lam)
    a = effective_bandwidth_onoff_discrete(p, theta)
    assert p.mean_rate - 1e-9 <= a <= lam + 1e-9


@settings(max_examples=10, deadline=None)
@given(
    alpha=st.floats(min_value=0.05, max_value=60.0),
    beta=st.floats(min_value=0.05, max_value=60.0),
    lam=st.floats(min_value=0.1, max_value=20.0),
    theta=st.floats(min_value=0.01, max_value=10.0),
)
def test_onoff_continuous_bounds_and_ordering(alpha, beta, lam, theta):
    p = OnOffContinuousParams(alpha, beta, lam)
    af = effective_bandwidth_onoff_fluid(p, theta)
    am = effective_bandwidth_onoff_mmpp(p, theta)
    assert p.mean_rate - 1e-9 <= af <= lam + 1e-9
    # Poisson arrivals are burstier than fluid at the same mean profile
    assert am >= af - 1e-12


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_nstate_bandwidth_monotone_in_theta(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    src = DiscreteMarkovSource(random_chain(rng, n), rng.random(n) * 5.0)
    thetas = [0.01, 0.1, 1.0, 5.0, 20.0]
    vals = [effective_bandwidth_discrete(src, t) for t in thetas]
    mean = src.mean_rate
    peak = float(np.max(src.rates))
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - 1e-9
    assert vals[0] >= mean - 1e-6
    assert vals[-1] <= peak + 1e-9


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_small_theta_approaches_mean_rate(seed):
    rng = np.random.default_rng(seed)
    src = DiscreteMarkovSource(random_chain(rng, 4), rng.random(4) * 3.0)
    a = effective_bandwidth_discrete(src, 1e-6)
    assert a == pytest.approx(src.mean_rate, rel=1e-3)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_stationary_properties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    J = random_chain(rng, n)
    src = DiscreteMarkovSource(J, np.zeros(n))
    pi = src._stationary
    assert np.all(pi >= 0)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(pi @ J, pi, atol=1e-12)


def _reference_classes(adjacency):
    # scipy's strong components, and a per-edge loop for the exits
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n_comp, labels = connected_components(
        csr_matrix(adjacency), directed=True, connection="strong"
    )
    has_exit = np.zeros(n_comp, dtype=bool)
    rows, cols = np.nonzero(adjacency)
    for i, j in zip(rows, cols):
        if labels[i] != labels[j]:
            has_exit[labels[i]] = True
    return labels, [c for c in range(n_comp) if not has_exit[c]]


def _reference_forest(adjacency):
    # breadth-first trees from scipy, one per lowest vertex not yet reached
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    graph = csr_matrix(adjacency)
    n = adjacency.shape[0]
    parent = np.full(n, -1)
    reached = np.zeros(n, dtype=bool)
    for root in range(n):
        if reached[root]:
            continue
        order, pred = breadth_first_order(graph, root, directed=True, return_predecessors=True)
        new = order[~reached[order]]
        parent[new[1:]] = pred[new[1:]]
        reached[new] = True
    return parent


def _random_adjacency(kind, n, rng):
    if kind == "sparse":
        return rng.random((n, n)) < 0.15
    if kind == "dense":
        return rng.random((n, n)) < 0.9
    if kind == "periodic":
        # edges only from cyclic class c to class c + 1 (mod k)
        k = int(rng.integers(2, 5))
        cls = rng.integers(0, k, size=n)
        return ((cls[None, :] - cls[:, None]) % k == 1) & (rng.random((n, n)) < 0.7)
    if kind == "symmetric":
        a = rng.random((n, n)) < 3.0 / n
        return a | a.T
    if kind in ("path", "cycle"):
        # a long path through the states in random order, a few edges
        # back along it, and for "cycle" the edge that closes it: deep
        # searches, one class or many
        order = rng.permutation(n)
        a = np.zeros((n, n), dtype=bool)
        a[order[:-1], order[1:]] = True
        if kind == "cycle" and n > 1:
            a[order[-1], order[0]] = True
        back = rng.random(n) < 0.1
        a[order[back], order[rng.integers(0, np.arange(n)[back] + 1)]] = True
        return a
    # reducible: dense diagonal blocks, sparse edges from earlier blocks to later
    block = np.sort(rng.integers(0, 3, size=n))
    inside = (block[:, None] == block[None, :]) & (rng.random((n, n)) < 0.6)
    down = (block[:, None] < block[None, :]) & (rng.random((n, n)) < 0.1)
    return inside | down


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(
        ["sparse", "dense", "periodic", "symmetric", "path", "cycle", "reducible"]
    ),
    n=st.integers(min_value=1, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_class_structure_matches_loop_reference(kind, n, seed):
    adjacency = _random_adjacency(kind, n, np.random.default_rng(seed))
    support = sources_module._Support(adjacency)
    ref_labels, ref_terminal = _reference_classes(adjacency)
    root = support.recurrent_root
    assert (root is not None) == (len(ref_terminal) == 1)
    if root is not None:
        assert ref_labels[root] == ref_terminal[0]  # the root is recurrent
    off = adjacency & ~np.eye(n, dtype=bool)
    if support.symmetric or len(np.unique(ref_labels)) == 1:
        # there every breadth-first tree is a class's shortest-path tree
        assert np.array_equal(support.trees(range(n))[0], _reference_forest(off))


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(
        ["sparse", "dense", "periodic", "symmetric", "path", "cycle", "reducible"]
    ),
    n=st.integers(min_value=1, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_elimination_from_the_root_meets_no_zero_pivot(kind, n, seed):
    # each pivot sums a state's rates to the states not yet eliminated,
    # among them the root, which every state reaches: none is 0 on a chain
    # with one recurrent class, transient states included (a zero pivot
    # would raise here), and the law is exactly 0 off that class
    rng = np.random.default_rng(seed)
    adjacency = _random_adjacency(kind, n, rng)
    root = sources_module._Support(adjacency).recurrent_root
    if root is None:
        return
    labels, (recurrent,) = _reference_classes(adjacency)
    Q = (adjacency & ~np.eye(n, dtype=bool)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, n))
    G = Q - np.diag(Q.sum(axis=1))
    d = rng.random(n)
    pi = sources_module._gth(Q, root)
    d -= pi @ d
    x = sources_module._gth(Q, int(np.argmax(pi)), d)
    assert np.all(pi[labels == recurrent] > 0) and np.all(pi[labels != recurrent] == 0)
    assert pi.sum() == pytest.approx(1.0, rel=1e-15, abs=0)
    assert np.all(np.abs(pi @ G) <= 1e-13 * (pi @ np.abs(G)))
    assert np.all(np.isfinite(x))


@pytest.mark.parametrize("cls", [DiscreteMarkovSource, FluidMarkovSource])
def test_law_reads_a_tiny_negative_entry_as_no_edge(cls):
    # the entry rule accepts -1e-16 off the diagonal; the law reads only
    # the edges, so that chain's law is the one with 0 in that entry
    M = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.6, 0.4, 0.0]])
    if cls is FluidMarkovSource:
        M -= np.eye(3)
    tiny = M.copy()
    tiny[0, 2] = -1e-16
    rates = np.array([0.0, 1.0, 3.0])
    a, b = cls(M, rates), cls(tiny, rates)
    assert a._stationary.tobytes() == b._stationary.tobytes()
    assert a.burstiness == b.burstiness


def test_law_of_a_chain_with_strong_drift_does_not_overflow():
    # pi relative to the root's, pi_k / pi_0 = 10^k here, passes DBL_MAX
    # at k = 309; the back-substitution rescales as it goes, so the law
    # is the closed-form one (geometric, binomial) where it does not
    # underflow
    from qoslink.energy import _binomial_pmf

    n = 320
    bd = build_birth_death_fluid(n, 10.0, 1.0, 1.0)
    geometric = 0.9 * 0.1 ** np.arange(n)[::-1]
    top = slice(-100, None)  # entries down to 1e-100
    assert np.max(np.abs(bd._stationary[top] / geometric[top] - 1.0)) <= 1e-14
    assert bd.mean_rate == pytest.approx(n - 1 - 1.0 / 9.0, rel=1e-15, abs=0)
    binomial = build_binomial_discrete_source(400, 0.9, 1.0)
    pmf = _binomial_pmf(399, 0.9)
    big = pmf > 1e-290
    assert np.max(np.abs(binomial._stationary[big] / pmf[big] - 1.0)) <= 1e-14
    assert binomial.mean_rate == pytest.approx(399 * 0.9, rel=1e-15, abs=0)


def test_law_whose_pivot_underflows_is_refused():
    # eliminating state 2 leaves state 1 the rate 1e-200 * 1e-200 to the
    # root, which underflows to a zero pivot: the law is refused, not NaN
    G = np.array([[-1.0, 1.0, 0.0], [0.0, -1e-200, 1e-200], [1e-200, 1.0, -1.0]])
    src = FluidMarkovSource(G, np.array([0.0, 1.0, 2.0]))
    with pytest.raises(NonConvergence, match="pivot underflowed"):
        src.mean_rate
    with pytest.raises(NonConvergence, match="pivot underflowed"):
        src.burstiness


def test_strong_classes_of_a_long_cycle():
    # deeper than Python's recursion limit: the search is iterative
    n = 3000
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[np.arange(n), (np.arange(n) + 1) % n] = True
    adjacency[n - 1, n - 1] = True
    assert sources_module._Support(adjacency).recurrent_root == 0
    adjacency[n - 1, 0] = False  # now a path ending in a self-loop
    assert sources_module._Support(adjacency).recurrent_root == n - 1
    adjacency[n // 2, n // 2 + 1] = False  # two absorbing ends
    assert sources_module._Support(adjacency).recurrent_root is None


def test_one_recurrent_class_is_read_off_the_last_reversed_tree():
    # 0 -> 1 <-> 2: no edge leads into 0, so over the edges turned round
    # the trees have roots 0 and 1, and the tree from 1 must cover the graph
    adjacency = np.zeros((3, 3), dtype=bool)
    adjacency[0, 1] = adjacency[1, 2] = adjacency[2, 1] = True
    support = sources_module._Support(adjacency)
    assert not support.symmetric and support.recurrent_root == 1
    parent, tree = support.trees([2])
    assert parent.tolist() == [-1, 2, -1] and tree.tolist() == [-1, 0, 0]
    DiscreteMarkovSource(np.array([[0.0, 1.0, 0.0], [0.0, 0.5, 0.5], [0.0, 1.0, 0.0]]), np.ones(3))
    # 0 -> 1 and 0 -> 2, both absorbing: roots 0, 1 and 2, and from 2
    # only 0 is reached
    adjacency = np.zeros((3, 3), dtype=bool)
    adjacency[0, 1] = adjacency[0, 2] = True
    assert sources_module._Support(adjacency).recurrent_root is None
    with pytest.raises(NoUniqueStationary, match="multiple recurrent classes"):
        DiscreteMarkovSource(np.array([[0.0, 0.5, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                             np.ones(3))


def _entries(rng, size, top):
    """Positive entries log-uniform from 1e-300 to ``top``, a tenth of them
    subnormal."""
    x = 10.0 ** rng.uniform(-300.0, math.log10(top), size)
    tiny = rng.random(size) < 0.1
    x[tiny] = rng.choice([5e-324, 1e-320, 2.2e-310], np.count_nonzero(tiny))
    return x


def _shaped_chain(rng, n, discrete, kind, cut_share, one_way, negative):
    """A chain whose structure its shape shows, or nearly: a memoryless law
    (discrete only) with a ``cut_share`` of entries not positive, or a
    tridiagonal chain with a ``cut_share`` of its edge pairs cut, both ways
    or (``one_way``) one, plus (kind "off-band") three entries off the
    band.  A cut entry is 0, or -1e-16 on half of them where ``negative``.
    Off-diagonal rates reach 1e300 in continuous time, 0.3 in discrete."""
    top = 0.3 if discrete else 1e300

    def cut(size):
        return np.where(negative & (rng.random(size) < 0.5), -1e-16, 0.0)

    if kind == "memoryless":
        w = _entries(rng, n, 1.0)
        gone = rng.random(n) < cut_share
        w[gone] = cut(np.count_nonzero(gone))
        if not np.any(w > 0):
            w[rng.integers(n)] = 1.0
        p = np.where(w > 0, w / w[w > 0].sum(), w)
        return np.tile(p, (n, 1))
    up, down = _entries(rng, n - 1, top), _entries(rng, n - 1, top)
    gone = rng.random(n - 1) < cut_share
    side = rng.integers(0, 3 if one_way else 1, n - 1)  # 0 both ways, 1 up, 2 down
    up[gone & (side != 2)] = cut(np.count_nonzero(gone & (side != 2)))
    down[gone & (side != 1)] = cut(np.count_nonzero(gone & (side != 1)))
    M = np.diag(up, 1) + np.diag(down, -1)
    if kind == "off-band" and n > 3:
        i = rng.integers(0, n, 3)
        j = (i + rng.integers(2, n - 1, 3)) % n  # two or more from i, either way
        M[i, j] = np.where(rng.random(3) < 0.5, cut(3), _entries(rng, 3, top))
    np.fill_diagonal(M, float(discrete) - M.sum(axis=1))
    return M


@settings(max_examples=2000, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=200),
    discrete=st.booleans(),
    kind=st.sampled_from(["memoryless", "band", "off-band"]),
    cut_share=st.sampled_from([0.0, 0.02, 0.3]),
    one_way=st.booleans(),
    negative=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_structure_read_off_the_shape_matches_the_support_search(
        n, discrete, kind, cut_share, one_way, negative, seed):
    discrete = discrete or kind == "memoryless"
    M = _shaped_chain(np.random.default_rng(seed), n, discrete, kind, cut_share, one_way,
                      negative)
    _, reversible, root = sources_module._structure(M, discrete)
    support = sources_module._Support(M)
    assert reversible == sources_module._is_reversible(M, support)
    assert root == support.recurrent_root


def test_memoryless_and_birth_death_sources_build_without_a_support_search(monkeypatch):
    def no_search(M):
        raise AssertionError("the support graph was searched")

    monkeypatch.setattr(sources_module, "_Support", no_search)
    built = [as_discrete_source(OnOffDiscreteParams(0.3, 0.6, 4.0)),
             as_fluid_source(OnOffContinuousParams(2.0, 6.0, 4.0)),
             lazy_walk(50), build_binomial_discrete_source(50, 0.3, 1.0)]
    for n in (50, 200):
        fluid = build_birth_death_fluid(n, 1.0, 2.0, 1.0)
        built += [fluid, MmppSource(fluid.generator, fluid.rates)]
    assert all(src.reversible and src._root == 0 for src in built)


def test_generator_entry_check_copies_no_matrix():
    # one float matrix of 2000 states is 30.5 MiB; the builder's and the
    # source's read-only copy are two, and a third, made to clear the
    # diagonal before the sign check, put the peak at 95.4 MiB
    tracemalloc.start()
    try:
        build_birth_death_fluid(2000, 1.0, 2.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (95.4 - 28.0) * 2**20


def test_fluid_stationary_accepts_raw_generator():
    G = np.array([[-2.0, 2.0], [3.0, -3.0]])
    pi = FluidMarkovSource(G, np.zeros(2))._stationary
    np.testing.assert_allclose(pi, [0.6, 0.4], rtol=1e-12)


def test_average_rate_routes_match():
    p = OnOffDiscreteParams(0.3, 0.6, 4.0)
    assert as_discrete_source(p).mean_rate == pytest.approx(p.mean_rate, rel=1e-12)
    q = OnOffContinuousParams(2.0, 6.0, 4.0)
    assert as_fluid_source(q).mean_rate == pytest.approx(1.0, rel=1e-12)
    assert as_mmpp_source(q).mean_rate == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# construction failures
# ---------------------------------------------------------------------------


def test_disconnected_chain_rejected():
    J = np.array(
        [
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5, 0.5],
        ]
    )
    with pytest.raises(NoUniqueStationary):
        DiscreteMarkovSource(J, np.zeros(4))


@pytest.mark.parametrize(
    "p11, p22, field", [("0.5", 0.5, "p11"), (0.5, True, "p22"), (0.5, float("nan"), "p22")]
)
def test_two_state_discrete_probabilities_are_numbers(p11, p22, field):
    # ('0.5', True, 1) once built a source with p22 = 1.0
    with pytest.raises(ValidationError, match=f"^{field}: must be a finite number"):
        OnOffDiscreteParams(p11, p22, 1)
    assert OnOffDiscreteParams(np.float32(0.5), 1, 1).p22 == 1.0


def test_periodic_chains_are_accepted():
    # Perron-Frobenius needs only irreducibility; on a deterministic cycle
    # the queue sees its mean rate at every theta
    swap = DiscreteMarkovSource(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.0, 1.0]))
    cycle = DiscreteMarkovSource(np.roll(np.eye(3), 1, axis=1), np.array([0.0, 1.0, 5.0]))
    for theta in (0.01, 1.0, 10.0):
        assert effective_bandwidth_discrete(swap, theta) == pytest.approx(0.5, rel=1e-12, abs=0)
        assert effective_bandwidth_discrete(cycle, theta) == pytest.approx(2.0, rel=1e-12)
    assert swap.burstiness == pytest.approx(0.0, abs=1e-12)
    assert cycle.burstiness == pytest.approx(0.0, abs=1e-12)
    assert max_avg_rate(cycle, 2.0, 1.0).lambda_star == pytest.approx(1.0, rel=1e-12)


_SHARED_REJECTIONS = [
    ("square-2x3", np.zeros((2, 3)), "{} must be a square matrix"),
    ("square-3d", np.zeros((2, 2, 2)), "{} must be a square matrix"),
    ("finite", np.array([[np.nan, 1.0], [0.5, 0.5]]), "{} entries must be finite"),
]
_FAMILY_REJECTIONS = {
    DiscreteMarkovSource: [
        ("entries", np.array([[1.5, -0.5], [0.5, 0.5]]),
         "transition_probs entries must lie in [0, 1]"),
        ("row-sum", np.array([[0.5, 0.4], [0.5, 0.5]]),
         "transition_probs rows must sum to 1 within 1e-12 (worst error 0.1)"),
    ],
    FluidMarkovSource: [
        ("entries", np.array([[-1.0, 1.0], [-1.0, 1.0]]),
         "generator off-diagonal entries must be >= 0"),
        ("row-sum", np.array([[-1.0, 0.0], [1.0, -1.0]]),
         "generator rows must sum to 0 within 1e-12 (worst error 1)"),
    ],
}
_FAMILY_REJECTIONS[MmppSource] = _FAMILY_REJECTIONS[FluidMarkovSource]


@pytest.mark.parametrize(
    "cls, matrix, message",
    [pytest.param(cls, matrix, message.format(fields(cls)[0].name),
                  id=f"{cls.__name__}-{case}")
     for cls, own in _FAMILY_REJECTIONS.items()
     for case, matrix, message in _SHARED_REJECTIONS + own],
)
def test_bad_row_sum_rejected(cls, matrix, message):
    # every matrix family's rejection, message for message; the checks
    # run in order: shape, finiteness, the family's entry rule, row sums
    with pytest.raises(ValueError) as exc:
        cls(matrix, np.zeros(2))
    assert str(exc.value) == message


def test_fluid_stationary_rejects_split_generator():
    G = np.zeros((2, 2))  # two absorbing states, no unique stationary law
    with pytest.raises(NoUniqueStationary):
        FluidMarkovSource(G, np.zeros(2))._stationary


def test_onoff_param_validation():
    with pytest.raises(ValueError):
        OnOffDiscreteParams(1.2, 0.5, 1.0)
    with pytest.raises(ValueError):
        OnOffDiscreteParams(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        OnOffDiscreteParams(0.5, 0.5, -1.0)
    with pytest.raises(ValueError):
        OnOffContinuousParams(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        OnOffContinuousParams(1.0, -0.5, 1.0)


def test_source_arrays_are_read_only():
    src = as_discrete_source(OnOffDiscreteParams(0.5, 0.5, 1.0))
    with pytest.raises(ValueError):
        src.transition_probs[0, 0] = 0.0


# ---------------------------------------------------------------------------
# JSON construction
# ---------------------------------------------------------------------------


def test_source_from_json_discrete_round_trip():
    doc = {
        "kind": "discrete",
        "transition": [[0.8, 0.2], [0.2, 0.8]],
        "rates": [0.0, 2.0],
    }
    src = source_from_json(doc)
    assert isinstance(src, DiscreteMarkovSource)
    assert effective_bandwidth_discrete(src, 1.0) == pytest.approx(
        1.7864840699482065, rel=1e-9
    )


def test_source_from_json_onoff_kinds():
    p = source_from_json({"kind": "onoff-discrete", "p11": 0.8, "p22": 0.8, "lambda": 2})
    assert isinstance(p, OnOffDiscreteParams)
    q = source_from_json({"kind": "onoff-fluid", "alpha": 50, "beta": 50, "lambda": 2})
    assert isinstance(q, OnOffContinuousParams)
    assert source_from_json('{"kind": "onoff-mmpp", "alpha": 1, "beta": 1, "lambda": 2}')


def test_source_from_json_reports_field_paths():
    with pytest.raises(ValidationError) as err:
        source_from_json({"kind": "discrete", "transition": [[0.5, 0.5], [1.0]], "rates": [0, 1]})
    assert err.value.field_path == "transition[1]"

    with pytest.raises(ValidationError) as err:
        source_from_json(
            {"kind": "discrete", "transition": [[0.5, 0.5], [0.5, "x"]], "rates": [0, 1]}
        )
    assert err.value.field_path == "transition[1][1]"

    with pytest.raises(ValidationError) as err:
        source_from_json({"kind": "onoff-discrete", "p11": 0.5, "p22": 0.5})
    assert err.value.field_path == "lambda"

    with pytest.raises(ValidationError) as err:
        source_from_json({"kind": "telepathy"})
    assert err.value.field_path == "kind"

    with pytest.raises(ValidationError):
        source_from_json("not json at all {")


@pytest.mark.parametrize(
    "doc, path",
    [
        ({"kind": "onoff-fluid", "alpha": 1.0, "beta": -1.0, "lambda": 2.0}, "beta"),
        ({"kind": "onoff-fluid", "alpha": 0.0, "beta": 1.0, "lambda": 2.0}, "alpha"),
        ({"kind": "onoff-mmpp", "alpha": 1.0, "beta": 1.0, "lambda": -2.0}, "lambda"),
        ({"kind": "onoff-discrete", "p11": 0.5, "p22": 1.5, "lambda": 2.0}, "p22"),
        ({"kind": "onoff-discrete", "p11": 0.5, "p22": 0.5, "lambda": -2.0}, "lambda"),
        ({"kind": "onoff-discrete", "p11": 1.0, "p22": 1.0, "lambda": 2.0}, "p11"),
        ({"kind": "discrete", "transition": [[0.5, 0.5], [0.5, 0.5]], "rates": [0, -1]}, "rates"),
        ({"kind": "fluid", "transition": [[-1, 1], [1, -1]], "rates": [0, -1]}, "rates"),
        ({"kind": "mmpp", "transition": [[-1, 1], [1, -1]], "rates": [0, -1]}, "rates"),
        ({"kind": "mmpp", "transition": [[-1, 2], [1, -1]], "rates": [0, 1]}, "transition"),
        # a field the kind does not take was dropped, its default used
        ({"kind": "onoff-fluid", "alpha": 1.0, "beta": 1.0, "lambda": 2.0, "lamda": 5}, "lamda"),
        ({"kind": "onoff-discrete", "p11": 0.5, "p22": 0.5, "lambda": 2.0, "alpha": 1}, "alpha"),
        ({"kind": "fluid", "transition": [[-1, 1], [1, -1]], "rates": [0, 1], "lambda": 2},
         "lambda"),
    ],
)
def test_source_from_json_blames_the_rejected_field(doc, path):
    with pytest.raises(ValidationError) as err:
        source_from_json(doc)
    assert err.value.field_path == path


T3 = [[0.7, 0.2, 0.1], [0.3, 0.5, 0.2], [0.1, 0.3, 0.6]]
G3 = [[-2.0, 1.5, 0.5], [1.0, -3.0, 2.0], [0.5, 2.5, -3.0]]
R3 = [0.0, 1.0, 2.0]

# each JSON kind: its document, the type it builds, and per-family
# references of (a*(theta) by its own route, a*(theta) of its matrix twin
# or None, (ce, theta) -> ThroughputResult), built without the JSON path
JSON_FAMILIES = {
    "onoff-discrete": (
        {"kind": "onoff-discrete", "p11": 0.8, "p22": 0.7, "lambda": 2.0},
        OnOffDiscreteParams,
        lambda th: effective_bandwidth_onoff_discrete(OnOffDiscreteParams(0.8, 0.7, 2.0), th),
        lambda th: effective_bandwidth_discrete(
            as_discrete_source(OnOffDiscreteParams(0.8, 0.7, 2.0)), th),
        lambda ce, th: max_avg_rate_onoff_discrete(ce, th, 0.8, 0.7),
    ),
    "onoff-fluid": (
        {"kind": "onoff-fluid", "alpha": 9.0, "beta": 1.0, "lambda": 2.0},
        OnOffFluidParams,
        lambda th: effective_bandwidth_onoff_fluid(OnOffContinuousParams(9.0, 1.0, 2.0), th),
        lambda th: effective_bandwidth_fluid(
            as_fluid_source(OnOffContinuousParams(9.0, 1.0, 2.0)), th),
        lambda ce, th: max_avg_rate_onoff_fluid(ce, th, 9.0, 1.0),
    ),
    "onoff-mmpp": (
        {"kind": "onoff-mmpp", "alpha": 9.0, "beta": 1.0, "lambda": 2.0},
        OnOffMmppParams,
        lambda th: effective_bandwidth_onoff_mmpp(OnOffContinuousParams(9.0, 1.0, 2.0), th),
        lambda th: effective_bandwidth_mmpp(
            as_mmpp_source(OnOffContinuousParams(9.0, 1.0, 2.0)), th),
        lambda ce, th: max_avg_rate_onoff_mmpp(ce, th, 9.0, 1.0),
    ),
    "discrete": (
        {"kind": "discrete", "transition": T3, "rates": R3},
        DiscreteMarkovSource,
        lambda th: effective_bandwidth_discrete(DiscreteMarkovSource(T3, R3), th),
        None,
        lambda ce, th: max_avg_rate_nstate(DiscreteMarkovSource(T3, R3), th, ce),
    ),
    "fluid": (
        {"kind": "fluid", "transition": G3, "rates": R3},
        FluidMarkovSource,
        lambda th: effective_bandwidth_fluid(FluidMarkovSource(G3, R3), th),
        None,
        lambda ce, th: max_avg_rate_nstate(FluidMarkovSource(G3, R3), th, ce),
    ),
    "mmpp": (
        {"kind": "mmpp", "transition": G3, "rates": R3},
        MmppSource,
        lambda th: effective_bandwidth_mmpp(MmppSource(G3, R3), th),
        None,
        lambda ce, th: max_avg_rate_nstate(MmppSource(G3, R3), th, ce),
    ),
}


@pytest.mark.parametrize("kind", sorted(JSON_FAMILIES))
def test_json_source_keeps_its_family(kind):
    doc, cls, own, twin, solve = JSON_FAMILIES[kind]
    src = source_from_json(doc)
    assert type(src) is cls
    matrix = src.as_matrix()
    assert (matrix is src) == (twin is None)
    for th in (0.01, 0.5, 3.0):
        assert src.effective_bandwidth(th) == own(th)
        if twin is not None:
            assert matrix.effective_bandwidth(th) == twin(th)
        for ce in (0.3, 4.0):
            assert max_avg_rate(src, ce, th) == solve(ce, th)


def test_onoff_burstiness_is_the_variance_rate_over_the_squared_mean():
    # eta and zeta against the asymptotic variance of each chain's
    # arrivals: discrete p(1-p)(1+r)/(1-r) lam^2 with r = p11 + p22 - 1,
    # fluid 2 alpha beta / (alpha + beta)^3 lam^2
    d = OnOffDiscreteParams(0.8, 0.7, 2.0)
    r = d.p11 + d.p22 - 1.0
    var = d.p_on * (1 - d.p_on) * (1 + r) / (1 - r) * d.lam ** 2
    assert d.burstiness == pytest.approx(var / (d.lam * d.p_on) ** 2, rel=1e-14, abs=0)
    for cls in (OnOffFluidParams, OnOffMmppParams):
        c = cls(9.0, 1.0, 2.0)
        var = 2 * c.alpha * c.beta / (c.alpha + c.beta) ** 3 * c.lam ** 2
        assert c.burstiness == pytest.approx(var / (c.lam * c.p_on) ** 2, rel=1e-14, abs=0)
    with pytest.warns(UserWarning, match="absorbing"):
        silent = OnOffDiscreteParams(1.0, 0.5, 2.0)
    with pytest.raises(ValueError, match="p11"):
        silent.burstiness


# ---------------------------------------------------------------------------
# burstiness of matrix sources: one deviation-matrix solve
# ---------------------------------------------------------------------------


def test_matrix_twins_give_eta_and_zeta():
    # criterion 1's draw ranges
    rng = np.random.default_rng(20261018)
    worst = 0.0
    for _ in range(300):
        p11, p22 = rng.uniform(0.05, 0.95, 2)
        lam = rng.uniform(0.5, 8.0)
        alpha, beta = rng.uniform(0.1, 20.0, 2)
        disc = OnOffDiscreteParams(p11, p22, lam)
        cont = OnOffContinuousParams(alpha, beta, lam)
        for closed, twin in (
            (disc.burstiness, as_discrete_source(disc)),
            (cont.burstiness, as_fluid_source(cont)),
            (cont.burstiness, as_mmpp_source(cont)),
        ):
            worst = max(worst, abs(twin.burstiness - closed) / closed)
    assert worst <= 1e-13


def test_matrix_burstiness_on_a_near_degenerate_chain():
    d = OnOffDiscreteParams(0.99999, 0.99999, 1.0)
    assert as_discrete_source(d).burstiness == pytest.approx(d.burstiness, rel=1e-10)


@pytest.mark.parametrize("n,s", [(2, 0.5), (10, 0.1), (50, 0.3), (200, 0.9)])
def test_binomial_burstiness_is_exact(n, s):
    # every row is the binomial law, so blocks are independent and
    # sigma^2 is one block's variance (n-1) s (1-s), over a mean (n-1) s
    src = build_binomial_discrete_source(n, s, 1.0)
    assert src.burstiness == pytest.approx((1 - s) / ((n - 1) * s), rel=1e-13, abs=0)


@pytest.mark.parametrize("family", ["binomial", "birth-death"])
def test_stationary_law_matches_mpmath_in_every_entry(family):
    # the n=50 fixtures' laws span many decades (0.3^49 at the binomial's
    # all-ON state); a dense solve read their small entries up to 1.6e9
    # (binomial) and 5.1e-11 (birth-death) off
    import mpmath as mp
    from burstiness_reference import stationary
    from pencil_reference import exact_generator

    if family == "binomial":
        src = build_binomial_discrete_source(50, 0.3, 1.0)
    else:
        src = build_birth_death_fluid(50, 1.0, 1.2, 1.0)
    with mp.workdps(60):
        pi = stationary(exact_generator(src._matrix))
        assert max(abs(float(a) - b) / b for a, b in zip(src._stationary, pi)) <= 1e-14


def test_law_and_burstiness_match_mpmath_on_non_reversible_chains():
    # 30 chains of 3-8 states, rates over six decades, half of them in
    # discrete time; a dense solve read pi up to 3.5e-13 off here.  The
    # deviation solve is pinned at the most visited state: seed 51's
    # state 0 has pi 1e-3, and pinned there, centring read its
    # burstiness 3e-13 off
    import mpmath as mp
    from burstiness_reference import burstiness, stationary
    from pencil_reference import exact_generator

    for seed in (*range(30), 51):
        rng = np.random.default_rng(seed)
        n, discrete = 3 + seed % 6, seed % 2 == 1
        Q = 10.0 ** rng.uniform(-3.0, 3.0, (n, n))
        np.fill_diagonal(Q, 0.0)
        rates = rng.random(n)
        if discrete:
            J = Q / (1.25 * Q.sum(axis=1).max())
            np.fill_diagonal(J, 1.0 - J.sum(axis=1))
            src = DiscreteMarkovSource(J, rates)
        else:
            src = FluidMarkovSource(Q - np.diag(Q.sum(axis=1)), rates)
        assert not src.reversible
        with mp.workdps(50):
            exact = exact_generator(src._matrix)
            pi = stationary(exact)
            assert max(abs(float(a) - b) / b for a, b in zip(src._stationary, pi)) <= 1e-14
            ref = burstiness(exact, rates, discrete)
            assert abs(src.burstiness - ref) <= 1e-13 * ref, seed


# sigma^2 / mu^2 of the n=50 sources from 50-digit mpmath solves of the
# chains as the library defines them: tests/burstiness_reference.py
_MPMATH_BURSTINESS = {
    "binomial": 0.04761904761904762361251001,
    "fluid": 126.781849024970195545035,
    "mmpp": 126.781849024970195545035,
}


@pytest.mark.parametrize("family", sorted(_MPMATH_BURSTINESS))
def test_burstiness_matches_mpmath(family):
    fluid = build_birth_death_fluid(50, 1.0, 1.2, 1.0)
    src = {
        "binomial": build_binomial_discrete_source(50, 0.3, 1.0),
        "fluid": fluid,
        "mmpp": MmppSource(fluid.generator, fluid.rates),
    }[family]
    assert src.burstiness == pytest.approx(_MPMATH_BURSTINESS[family], rel=1e-14, abs=0)


@pytest.mark.parametrize("family", [DiscreteMarkovSource, FluidMarkovSource, MmppSource])
def test_burstiness_is_the_theta_term_of_the_effective_bandwidth(family):
    # a*(theta) = mu + theta sigma^2 / 2 + O(theta^2), on a chain without
    # detailed balance; an MMPP's Poisson layer adds mu to sigma^2
    rng = np.random.default_rng(7)
    J = random_chain(rng, 5)
    rates = rng.uniform(0.0, 3.0, 5)
    src = family(J, rates) if family is DiscreteMarkovSource else family(J - np.eye(5), rates)
    assert not src.reversible
    mu = src.mean_rate
    h = 1e-3
    d1 = (src.effective_bandwidth(h) - mu) / h
    d2 = (src.effective_bandwidth(2 * h) - mu) / (2 * h)
    poisson = mu if family is MmppSource else 0.0
    assert 2.0 * (2 * d1 - d2) == pytest.approx(src.burstiness * mu ** 2 + poisson, rel=1e-5)


def test_burstiness_ignores_the_rate_scale_and_needs_traffic():
    fluid = build_birth_death_fluid(6, 1.0, 2.0, 1.0)
    scaled = FluidMarkovSource(fluid.generator, 7.5 * fluid.rates)
    assert scaled.burstiness == pytest.approx(fluid.burstiness, rel=1e-14, abs=0)
    with pytest.raises(ValueError, match="burstiness is undefined"):
        FluidMarkovSource(fluid.generator, np.zeros(6)).burstiness


def test_family_less_continuous_params_have_no_twin():
    params = OnOffContinuousParams(9.0, 1.0, 2.0)
    assert not hasattr(params, "as_matrix")
    with pytest.raises(TypeError, match="source type"):
        max_avg_rate(params, 1.0, 0.5)


def test_source_from_json_rejects_unstable_matrix():
    doc = {"kind": "discrete", "transition": [[0.7, 0.2], [0.5, 0.5]], "rates": [0, 1]}
    with pytest.raises(ValidationError) as err:
        source_from_json(doc)
    assert err.value.field_path == "transition"


def test_converters_shape():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        src = as_discrete_source(OnOffDiscreteParams(0.4, 0.7, 5.0))
    np.testing.assert_allclose(src.rates, [0.0, 5.0])
    fl = as_fluid_source(OnOffContinuousParams(2.0, 3.0, 5.0))
    np.testing.assert_allclose(fl.generator, [[-2.0, 2.0], [3.0, -3.0]])


# ---------------------------------------------------------------------------
# the stationary law: solved once per source, read-only
# ---------------------------------------------------------------------------

FAMILIES = ["discrete", "fluid", "mmpp"]


def _family_source(family):
    # the discrete chain is not memoryless, so its law is eliminated too
    if family == "discrete":
        return lazy_walk(6)
    bd = build_birth_death_fluid(6, 1.0, 1.2, 1.0)
    return bd if family == "fluid" else MmppSource(bd.generator, bd.rates)


def _eliminations(src, monkeypatch):
    """Whether each ``_gth`` call that a round of solves, laws and
    simulations on ``src`` makes is for the law (True) or not."""
    calls = []
    solve = sources_module._gth
    monkeypatch.setattr(sources_module, "_gth",
                        lambda Q, root, d=None: calls.append(d is None) or solve(Q, root, d))
    for theta, ce in ((0.1, 1.0), (1.0, 0.5)):
        max_avg_rate_nstate(src, theta, ce)
        max_avg_rate(src, ce, theta)
        src.mean_rate
        src._stationary
        src.burstiness
    for seed in (1, 2):
        simulate_queue(SimConfig(src, ChannelSpec(2, 0.0), 10.0, 10 ** 4, seed))
    return calls


@pytest.mark.parametrize("family", FAMILIES)
def test_stationary_law_is_solved_once_per_source(family, monkeypatch):
    # the law once, and the deviation system behind burstiness once
    assert _eliminations(_family_source(family), monkeypatch) == [True, False]


def test_memoryless_law_is_its_row_read_once(monkeypatch):
    # every row of the binomial chain is its law: no elimination for it,
    # only for the deviation system behind burstiness
    src = build_binomial_discrete_source(6, 0.3, 1.0)
    assert _eliminations(src, monkeypatch) == [False]
    p = src.transition_probs[0]
    assert src._stationary.tobytes() == (p / p.sum()).tobytes()
    assert src._stationary is src._stationary
    with pytest.raises(ValueError):
        src._stationary[0] = 0.5


@pytest.mark.parametrize("family", FAMILIES)
def test_stationary_law_is_read_only(family):
    src = _family_source(family)
    pi = src._stationary
    assert src._stationary is pi
    with pytest.raises(ValueError):
        pi[0] = 0.5
    with pytest.raises(AttributeError):
        src._stationary = np.ones(src.n_states) / src.n_states


@pytest.mark.parametrize("family", FAMILIES)
def test_cached_law_is_the_direct_solve_bit_for_bit(family):
    src = _family_source(family)
    # a discrete chain passes J itself: the elimination reads only the
    # off-diagonal entries
    matrix = src.transition_probs if family == "discrete" else np.array(src.generator)
    root = sources_module._Support(matrix).recurrent_root
    direct = sources_module._gth(matrix, root)
    assert src._stationary.tobytes() == direct.tobytes()
    rates = src.intensities if family == "mmpp" else src.rates
    assert src.mean_rate == float(direct @ rates)


@pytest.mark.parametrize("cls", [FluidMarkovSource, MmppSource])
def test_split_generator_builds_and_fails_on_first_use(cls):
    src = cls(np.zeros((2, 2)), np.array([0.0, 1.0]))  # two absorbing states
    with pytest.raises(NoUniqueStationary):
        src.mean_rate
    with pytest.raises(NoUniqueStationary):
        max_avg_rate(src, 1.0, 1.0)
    with pytest.raises(NoUniqueStationary):
        simulate_queue(SimConfig(src, ChannelSpec(2, 0.0), 1.0, 10 ** 4, 1))
    with pytest.raises(NoUniqueStationary):
        src._stationary
