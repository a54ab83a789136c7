import functools
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import i0e, ive

from qoslink.channel import (
    _GAIN_AXIS_ORDERS,
    ChannelSpec,
    EffCapEstimate,
    _chain_capacity,
    _chain_cov_sum,
    _gain_chain_kernel,
    _gain_chain_rule,
    _i0e,
    channel_spec_from_json,
    effective_capacity_mc,
    effective_capacity_quadrature,
    effective_capacity_rayleigh_iid,
    ergodic_capacity,
    fading_moments,
    log_rate_cov_sum,
)
from qoslink.errors import QuadratureFailure, ValidationError

# closed-form values frozen from an independent 40-digit evaluation of
# the incomplete-gamma expression
IID_CASES = [
    (1.0, 1.0, 10, 7.0269930612366041),
    (1.0, 0.5, 1, 0.77521592219533126),
    (10.0, 2.0, 10, 15.136908397564801),
    (1e-4, 1.0, 10, 0.0014424467833899552),
    (1000.0, 2.0, 10, 37.715046826691132),
    (10000.0, 2.0, 10, 49.222939465322986),
    (1.0, 0.2, 10, 8.2471666862061463),
    (1.0, 0.1, 10, 8.4226625746964401),
]

# chain-quadrature values at intermediate correlation, recorded with the
# kernel's Bessel factor from scipy.special.ive(0, .) over the full matrix
INTERMEDIATE_RHO_CASES = [
    (0.3, 10, 0.5, 0.3, 4.93656230428856),
    (0.3, 10, 0.5, 1.3, 4.207992089587677),
    (0.3, 10, 10.0, 0.3, 26.162260687228382),
    (0.3, 10, 10.0, 1.3, 18.308081941487405),
    (0.3, 100, 0.5, 0.3, 49.32653023919022),
    (0.3, 100, 0.5, 1.3, 41.98247999914754),
    (0.3, 100, 10.0, 0.3, 261.31991712441965),
    (0.3, 100, 10.0, 1.3, 182.62923817331392),
    (0.75, 10, 0.5, 0.3, 4.603992571509283),
    (0.75, 10, 0.5, 1.3, 3.503866533478578),
    (0.75, 10, 10.0, 0.3, 23.5272270360811),
    (0.75, 10, 10.0, 1.3, 15.00460604350187),
    (0.75, 100, 0.5, 0.3, 45.27180155257145),
    (0.75, 100, 0.5, 1.3, 33.887429349990505),
    (0.75, 100, 10.0, 0.3, 230.4624589770188),
    (0.75, 100, 10.0, 1.3, 146.0468496418897),
]

FULLY_CORRELATED_CASES = [
    (1.0, 1.0, 10, 2.6741874650585501),
    (1.0, 0.5, 10, 3.9937374509014658),
    (10.0, 0.2, 10, 15.136908397564800),
]


@pytest.mark.parametrize("snr,theta,m,expected", IID_CASES)
def test_iid_closed_form_frozen(snr, theta, m, expected):
    est = effective_capacity_rayleigh_iid(snr, theta, m)
    assert est.value == pytest.approx(expected, rel=1e-10, abs=0)
    assert est.method == "closed_form_iid_rayleigh"
    assert est.std_error == 0.0


def test_iid_closed_form_is_the_quadrature_iid_branch():
    for snr in (1e-4, 0.3, 1.0, 1e4):
        for theta in (1e-3, 0.7, 40.0):
            for m in (1, 10, 100):
                closed = effective_capacity_rayleigh_iid(snr, theta, m)
                quad = effective_capacity_quadrature(ChannelSpec(m, 0.0), snr, theta)
                assert closed == EffCapEstimate(
                    quad.value, 0.0, "closed_form_iid_rayleigh", 0, theta, snr
                )


@pytest.mark.parametrize("m", [10.5, 2.9, "10", True])
def test_iid_closed_form_takes_an_integral_block_length(m):
    # 10.5 once ran as 10 symbols per block
    with pytest.raises(ValidationError, match="^m: must be an integer"):
        effective_capacity_rayleigh_iid(1.0, 1.0, m)


@pytest.mark.parametrize("m", [0, -3])
def test_iid_closed_form_takes_a_positive_block_length(m):
    # the ChannelSpec rule, read without building a spec
    with pytest.raises(ValidationError, match="^m: must be a positive integer, got"):
        effective_capacity_rayleigh_iid(1.0, 1.0, m)


@pytest.mark.parametrize(
    "kwargs, match",
    [({"n_samples": 2.9}, "^n_samples: must be an integer"),
     ({"n_samples": "3000"}, "^n_samples: must be an integer"),
     ({"seed": 1.5}, "^seed: must be an integer"),
     ({"seed": True}, "^seed: must be an integer"),
     ({"seed": -1}, "^seed: must fit in an unsigned 64-bit integer$"),
     ({"seed": 2 ** 70}, "^seed: must fit in an unsigned 64-bit integer$"),
     ({"n_samples": 0}, r"^n_samples: must be >= 1, got 0$")],
)
@pytest.mark.parametrize("route", ["mc"])  # the one route that samples
def test_monte_carlo_counts_and_seeds_are_not_truncated(route, kwargs, match):
    # n_samples=2.9 once ran 2 blocks, seed=1.5 ran seed 1 and 2**70 was
    # accepted; the simulator's seed already followed this rule.  A count
    # below 1 raised a bare ValueError that named no field
    spec = ChannelSpec(4, 0.5)
    with pytest.raises(ValidationError, match=match):
        effective_capacity_mc(spec, 1.0, 0.5, **{"n_samples": 3000, **kwargs})


def test_monte_carlo_takes_integral_floats_and_numpy_seeds():
    spec = ChannelSpec(4, 0.5)
    ref = effective_capacity_mc(spec, 1.0, 0.5, n_samples=3000, seed=5)
    assert effective_capacity_mc(spec, 1.0, 0.5, n_samples=3000.0, seed=np.uint64(5)) == ref


def test_iid_m_scaling():
    a = effective_capacity_rayleigh_iid(1.0, 0.7, 1).value
    b = effective_capacity_rayleigh_iid(1.0, 0.7, 10).value
    assert b == pytest.approx(10.0 * a, rel=1e-12)


@pytest.mark.parametrize("snr,theta,m,expected", FULLY_CORRELATED_CASES)
def test_quadrature_fully_correlated_frozen(snr, theta, m, expected):
    est = effective_capacity_quadrature(ChannelSpec(m, 1.0), snr, theta)
    assert est.value == pytest.approx(expected, rel=1e-10)
    assert est.method == "quadrature"


def test_quadrature_reduces_to_closed_form_at_zero_correlation():
    for snr, theta in ((0.01, 0.5), (1.0, 1.0), (100.0, 2.0)):
        ref = effective_capacity_rayleigh_iid(snr, theta, 10).value
        est = effective_capacity_quadrature(ChannelSpec(10, 0.0), snr, theta)
        assert est.value == pytest.approx(ref, rel=1e-10)


def test_quadrature_monotone_in_correlation():
    # more intra-block correlation means less diversity, lower C_E
    vals = [
        effective_capacity_quadrature(ChannelSpec(10, r), 1.0, 1.0).value
        for r in (0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)
    ]
    assert all(hi > lo for hi, lo in zip(vals, vals[1:]))


def test_quadrature_matches_mc_at_intermediate_correlation():
    spec = ChannelSpec(10, 0.75)
    quad_est = effective_capacity_quadrature(spec, 1.0, 1.0)
    mc_est = effective_capacity_mc(spec, 1.0, 1.0, n_samples=200_000, seed=42)
    assert abs(quad_est.value - mc_est.value) < 3.0 * mc_est.std_error


def test_quadrature_rejects_near_unit_correlation():
    # between the panel rule's reach and the exact rho=1 route the kernel
    # is too sharp to discretize; that must fail loudly, not quietly
    with pytest.raises(QuadratureFailure, match="mass"):
        effective_capacity_quadrature(ChannelSpec(10, 0.99999), 1.0, 1.0)


@pytest.mark.parametrize("rho,m,snr,theta,expected", INTERMEDIATE_RHO_CASES)
def test_quadrature_intermediate_correlation_frozen(rho, m, snr, theta, expected):
    est = effective_capacity_quadrature(ChannelSpec(m, rho), snr, theta)
    assert est.value == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("rho", [0.026, 0.41, 0.95])
def test_gain_chain_kernel_matches_ive(rho):
    z, _, K, _ = _gain_chain_rule(rho, 1.0)
    v = 1.0 - rho * rho
    sq = np.sqrt(z)
    pen = (sq[None, :] - rho * sq[:, None]) ** 2 / v
    ref = ive(0, 2.0 * rho * np.outer(sq, sq) / v) * np.exp(-pen) / v
    assert np.all(np.abs(K - ref) <= 4e-15 * ref)


def test_i0e_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(20261018)
    x = np.concatenate([
        rng.uniform(0.0, 8.0, 600_000),  # the series in x/2 - 2
        8.0 + rng.exponential(40.0, 600_000),  # the series in 32/x - 2
        np.exp(rng.uniform(-745.0, 709.0, 100_000)),  # every scale
        -rng.uniform(0.0, 30.0, 1000),  # an even function
        [0.0, 8.0, np.nextafter(8.0, np.inf), np.nextafter(8.0, 0.0), 1e-300, 5e-324,
         1e15, 1e300, np.inf],
    ])
    assert np.array_equal(_i0e(x), i0e(x))
    assert np.isnan(_i0e(np.array([np.nan, 1.0]))[0])


@pytest.mark.parametrize("rho", [0.026, 0.41, 0.95, 0.99, 0.995])
def test_gain_chain_kernel_equals_the_scipy_i0e_kernel(rho):
    z, _, K, _ = _gain_chain_rule(rho, 1.0)
    v = 1.0 - rho * rho
    sq = np.sqrt(z)
    pen = (sq[None, :] - rho * sq[:, None]) ** 2 / v
    assert np.array_equal(K, i0e(2.0 * rho * np.outer(sq, sq) / v) * np.exp(-pen) / v)


@pytest.mark.parametrize("rho,order", [(0.9995, 48), (0.9999, 80)])
def test_gain_chain_kernel_builds_in_two_matrices(rho, order):
    # pen, then exp(-pen), and the Bessel factor, then K, are the only
    # n x n arrays; the Bessel blocks of _KERNEL_ROWS rows come on top
    n = 32 * order
    tracemalloc.start()
    try:
        _gain_chain_kernel(rho, 1.0, order)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 8 * n * n


def test_gain_chain_cache_is_bounded_and_read_only():
    rules = [_gain_chain_rule(rho, 1.0) for rho in (0.11, 0.22, 0.33, 0.44, 0.55, 0.66)]
    assert _gain_chain_rule.cache_info().currsize <= 4
    assert _gain_chain_rule(0.66, 1.0) is rules[-1]
    for arr in rules[-1]:
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        rules[-1][2][0, 0] = 0.0


def test_quadrature_long_block_does_not_underflow():
    # at m=100, snr=1e3, theta=5 the chain's mean weight is about e^-870,
    # below the smallest double
    def ce(rho):
        return effective_capacity_quadrature(ChannelSpec(100, rho), 1e3, 5.0).value

    upper, lower = ce(0.0), ce(0.99)
    vals = [ce(rho) for rho in (0.026203, 0.5, 0.9)]
    assert all(math.isfinite(v) and lower < v < upper for v in vals)
    assert all(hi >= lo for hi, lo in zip(vals, vals[1:]))


def test_mc_matches_closed_form_iid():
    est = effective_capacity_mc(ChannelSpec(10, 0.0), 1.0, 1.0, n_samples=10 ** 6, seed=3)
    ref = effective_capacity_rayleigh_iid(1.0, 1.0, 10).value
    assert abs(est.value - ref) < 3.0 * est.std_error
    assert est.std_error < 0.01
    assert est.n_samples == 10 ** 6


def test_mc_deterministic_given_seed():
    a = effective_capacity_mc(ChannelSpec(5, 0.5), 2.0, 0.7, n_samples=40_000, seed=11)
    b = effective_capacity_mc(ChannelSpec(5, 0.5), 2.0, 0.7, n_samples=40_000, seed=11)
    c = effective_capacity_mc(ChannelSpec(5, 0.5), 2.0, 0.7, n_samples=40_000, seed=12)
    assert a == b
    assert a.value != c.value


def test_mc_small_theta_approaches_ergodic():
    spec = ChannelSpec(10, 0.0)
    est = effective_capacity_mc(spec, 1.0, 1e-4, n_samples=10 ** 5, seed=5)
    assert est.value == pytest.approx(ergodic_capacity(spec, 1.0), rel=0.01)


def test_mc_correlation_strictly_hurts():
    iid = effective_capacity_mc(ChannelSpec(10, 0.0), 1.0, 1.0, n_samples=10 ** 5, seed=9)
    cor = effective_capacity_mc(ChannelSpec(10, 1.0), 1.0, 1.0, n_samples=10 ** 5, seed=9)
    gap = iid.value - cor.value
    assert gap > 3.0 * math.hypot(iid.std_error, cor.std_error)


def test_mc_survives_deep_tail_exponents():
    # theta*nu ~ 2*10*log2(1+1000*z): e^{-theta nu} underflows without
    # log-domain accumulation
    est = effective_capacity_mc(ChannelSpec(10, 0.0), 1000.0, 2.0, n_samples=20_000, seed=1)
    assert math.isfinite(est.value)
    assert est.value > 0


def test_ergodic_capacity_frozen_values():
    assert ergodic_capacity(ChannelSpec(1, 0.0), 1.0) == pytest.approx(
        0.86034738227088595, rel=1e-10
    )
    assert ergodic_capacity(ChannelSpec(10, 0.3), 10.0) == pytest.approx(
        29.065148084148050, rel=1e-10
    )
    assert ergodic_capacity(ChannelSpec(10, 0.0), 0.001) == pytest.approx(
        0.014412552226164386, rel=1e-10, abs=0
    )


def test_ergodic_capacity_ignores_correlation():
    a = ergodic_capacity(ChannelSpec(10, 0.0), 3.0)
    b = ergodic_capacity(ChannelSpec(10, 0.9), 3.0)
    assert a == b


def test_ergodic_low_snr_expansion():
    spec = ChannelSpec(10, 0.0)
    snr = 1e-4
    assert ergodic_capacity(spec, snr) / snr == pytest.approx(
        10.0 / math.log(2.0), rel=1e-3
    )


def test_effective_capacity_below_ergodic():
    spec = ChannelSpec(10, 0.5)
    erg = ergodic_capacity(spec, 1.0)
    for theta in (0.1, 1.0, 2.0):
        assert effective_capacity_quadrature(spec, 1.0, theta).value < erg


@settings(max_examples=10, deadline=None)
@given(
    theta=st.floats(min_value=0.05, max_value=3.0),
    snr=st.floats(min_value=0.01, max_value=100.0),
)
def test_closed_form_nonincreasing_in_theta(theta, snr):
    a = effective_capacity_rayleigh_iid(snr, theta, 10).value
    b = effective_capacity_rayleigh_iid(snr, theta * 1.5, 10).value
    assert b <= a + 1e-12


def test_closed_form_concave_in_snr():
    for lo, hi in ((0.1, 1.0), (1.0, 10.0), (5.0, 50.0)):
        f = lambda s: effective_capacity_rayleigh_iid(s, 1.0, 10).value
        assert f(0.5 * (lo + hi)) >= 0.5 * (f(lo) + f(hi)) - 1e-12


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_block_shape_and_full_correlation():
    from qoslink.channel import _gain_blocks

    rng = np.random.default_rng(0)
    block = _gain_blocks(ChannelSpec(8, 1.0), 1, rng)[0]
    assert block.shape == (8,)
    assert np.all(block >= 0)
    np.testing.assert_allclose(block, block[0])


def test_sample_marginal_is_exponential():
    from qoslink.channel import _gain_blocks

    rng = np.random.default_rng(123)
    spec = ChannelSpec(4, 0.75, sigma_h_sq=2.0)
    draws = np.concatenate([_gain_blocks(spec, 1, rng)[0] for _ in range(25_000)])
    # KS test against exponential(mean 2) at the 1% level
    stat = stats.kstest(draws, "expon", args=(0.0, 2.0))
    assert stat.pvalue > 0.01


def test_sample_autocovariance_follows_power_law():
    rng = np.random.default_rng(7)
    spec = ChannelSpec(10, 0.75)
    from qoslink.channel import _gain_blocks

    gains = _gain_blocks(spec, 10 ** 6, rng)
    for i, j in ((0, 1), (0, 3), (2, 7)):
        prod = (gains[:, i] - gains[:, i].mean()) * (gains[:, j] - gains[:, j].mean())
        se = prod.std(ddof=1) / math.sqrt(len(prod))
        expected = 0.75 ** (2 * abs(i - j))
        assert abs(prod.mean() - expected) < 3.0 * se


def test_sample_zero_correlation_lag_one():
    rng = np.random.default_rng(21)
    spec = ChannelSpec(2, 0.0)
    from qoslink.channel import _gain_blocks

    gains = _gain_blocks(spec, 10 ** 6, rng)
    prod = (gains[:, 0] - gains[:, 0].mean()) * (gains[:, 1] - gains[:, 1].mean())
    se = prod.std(ddof=1) / math.sqrt(len(prod))
    assert abs(prod.mean()) < 3.0 * se


def test_iid_gains_match_recursion_bit_for_bit():
    # reference: the AR(1) recursion run at rho = 0 on the same draws
    from qoslink.channel import _gain_blocks

    spec = ChannelSpec(10, 0.0, sigma_h_sq=2.0)
    ref_rng = np.random.default_rng(8)
    scale = math.sqrt(spec.sigma_h_sq / 2.0)
    re = ref_rng.standard_normal((500, 10))
    w = scale * (re + 1j * ref_rng.standard_normal((500, 10)))
    h = np.empty_like(w)
    h[:, 0] = w[:, 0]
    for i in range(1, 10):
        h[:, i] = 0.0 * h[:, i - 1] + 1.0 * w[:, i]
    assert np.array_equal(_gain_blocks(spec, 500, np.random.default_rng(8)), np.abs(h) ** 2)


def test_service_rate_exact_values():
    from qoslink.channel import _block_rates

    # nu = sum_i log2(1 + snr z_i) of each block (row)
    assert _block_rates(np.zeros((1, 4)), 1.0)[0] == 0.0
    assert _block_rates(np.array([[1.0]]), 1.0)[0] == pytest.approx(1.0)
    assert _block_rates(np.array([[1.0, 3.0]]), 1.0)[0] == pytest.approx(3.0)


def test_fading_moments_closed_forms():
    fm0 = fading_moments(ChannelSpec(10, 0.0))
    assert fm0.mean_z == 1.0
    assert fm0.mean_z_sq == 2.0
    assert fm0.cov_sum == pytest.approx(10.0)
    fm1 = fading_moments(ChannelSpec(10, 1.0))
    assert fm1.cov_sum == pytest.approx(100.0)
    fm = fading_moments(ChannelSpec(10, 0.75, sigma_h_sq=3.0))
    q = 0.75 ** 2
    brute = sum(q ** abs(i - j) for i in range(10) for j in range(10)) * 9.0
    assert fm.cov_sum == pytest.approx(brute, rel=1e-12)


def test_fading_moments_cov_sum_matches_mc():
    spec = ChannelSpec(10, 0.75)
    from qoslink.channel import _gain_blocks

    rng = np.random.default_rng(99)
    s = _gain_blocks(spec, 10 ** 6, rng).sum(axis=1)
    var_hat = s.var(ddof=1)
    # standard error of a sample variance via the fourth central moment
    mu4 = np.mean((s - s.mean()) ** 4)
    se = math.sqrt((mu4 - var_hat ** 2) / len(s))
    assert abs(var_hat - fading_moments(spec).cov_sum) < 3.0 * se


def test_log_rate_cov_sum_routes():
    spec0 = ChannelSpec(10, 0.0)
    exact = log_rate_cov_sum(spec0, 1.0)
    assert log_rate_cov_sum(ChannelSpec(1, 0.0), 1.0) == pytest.approx(exact / 10, rel=1e-10)
    full = log_rate_cov_sum(ChannelSpec(10, 1.0), 1.0)
    assert full == pytest.approx(10.0 * exact, rel=1e-10)
    mid = log_rate_cov_sum(ChannelSpec(10, 0.75), 1.0)
    assert exact < mid < full


@pytest.mark.parametrize("rho", [0.3, 0.9, 0.99, 0.9999])
def test_chain_cov_sum_of_the_gains_is_exact(rho):
    # with z in place of the log-rate, the kernel's covariance sum is
    # sum_{i,j} rho^{2|i-j|}, which fading_moments has in closed form
    rule = _gain_chain_rule(rho, 1.0)
    for m in (2, 3, 10, 50, 100):
        got = _chain_cov_sum(rule, m, rule[0])
        assert got == pytest.approx(fading_moments(ChannelSpec(m, rho)).cov_sum, rel=1e-11, abs=0)


# (rho, snr, var(nu)) of a block of m = 2 symbols: 30-digit values of
# 2 var(L) + 2 sum_{n>=1} rho^{2n} c_n^2 with c_n = E{L L_n}, the
# Hille-Hardy series of the log-rate pair, from tests/log_rate_reference.py
TWO_SYMBOL_VAR_NU = [
    (0.5, 0.01, 0.000500364841944219631101243746858),
    (0.8, 1.0, 1.18912848052327808096605775457),
    (0.9, 100.0, 9.88140603713660346529189644783),
]


@pytest.mark.parametrize("rho,snr,expected", TWO_SYMBOL_VAR_NU)
def test_two_symbol_var_nu_matches_the_laguerre_series(rho, snr, expected):
    assert log_rate_cov_sum(ChannelSpec(2, rho), snr) == pytest.approx(expected, rel=1e-13, abs=0)


def test_var_nu_refuses_the_rho_that_c_e_refuses():
    spec = ChannelSpec(10, 0.99995)
    with pytest.raises(QuadratureFailure, match="too sharp"):
        effective_capacity_quadrature(spec, 1.0, 1.0)
    with pytest.raises(QuadratureFailure, match="too sharp"):
        log_rate_cov_sum(spec, 1.0)
    # from 1 - 1e-9 both take the one-gain integrals
    one = log_rate_cov_sum(ChannelSpec(10, 1.0), 1.0)
    assert log_rate_cov_sum(ChannelSpec(10, 1.0 - 1e-9), 1.0) == one


# ---------------------------------------------------------------------------
# gain sampling on the chunk workers
# ---------------------------------------------------------------------------


def _reference_gain_blocks(spec, count, rng):
    # the allocating sampler the buffered path replaced
    m, rho = spec.m, spec.rho
    scale = math.sqrt(spec.sigma_h_sq / 2.0)
    re = rng.standard_normal((count, m))
    im = rng.standard_normal((count, m))
    w = scale * (re + 1j * im)
    if rho == 0.0:
        return np.abs(w) ** 2
    h = np.empty((count, m), dtype=complex)
    h[:, 0] = w[:, 0]
    innov = math.sqrt(1.0 - rho * rho)
    for i in range(1, m):
        h[:, i] = rho * h[:, i - 1] + innov * w[:, i]
    return np.abs(h) ** 2


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.99, 1.0])
@pytest.mark.parametrize("m", [1, 3, 10])
def test_buffered_gains_match_allocating_sampler(rho, m):
    from qoslink.channel import _GAIN_CHUNK, _fill_gains, _gain_blocks, _gain_buffers

    spec = ChannelSpec(m, rho, sigma_h_sq=1.7)
    for count in (
        2 * (1 << 12) + 1001,  # three tiles, the last one partial
        1001,  # fewer blocks than one tile
        2 * (1 << 12),  # two whole tiles
    ):
        got = _gain_blocks(spec, count, np.random.default_rng(5))
        ref = _reference_gain_blocks(spec, count, np.random.default_rng(5))
        assert got.tobytes() == ref.tobytes(), count
    # a trace's last chunk, shorter than one tile, on a whole chunk's buffers
    buf = _gain_buffers(m, _GAIN_CHUNK)
    got = _fill_gains(spec, np.random.default_rng(5), buf, 1001)
    ref = _reference_gain_blocks(spec, 1001, np.random.default_rng(5))
    assert got.tobytes() == ref.tobytes()


def test_mc_memory_is_the_workers_buffers_and_chunk_results():
    # per worker a chunk's plane of draws and one complex tile; beside
    # them the chunk results in flight: 2 * workers + 1 queued, and the
    # one being reduced with its two temporaries
    from qoslink import channel

    spec = ChannelSpec(10, 0.5)
    effective_capacity_mc(spec, 1.0, 0.1, n_samples=10 ** 4, seed=0)  # threads started
    workers = channel._pool(os.getpid())[1]
    size, rows, m, n = channel._GAIN_CHUNK, channel._FILL_ROWS, spec.m, 10 ** 6
    buffers = min(workers, -(-n // size)) * (8 * size * m + 16 * (rows * m + rows))
    results = (2 * workers + 4) * 8 * size
    tracemalloc.start()
    try:
        effective_capacity_mc(spec, 1.0, 0.1, n_samples=n, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= buffers + results + 2 ** 20


_ODD_N = 3 * (1 << 15) + 1234  # three full chunks and a partial one


def _sampled_outputs(spec):
    from qoslink.queuesim import _service_trace

    mc = effective_capacity_mc(spec, 2.0, 0.3, n_samples=_ODD_N, seed=7)
    return (
        _service_trace(spec, 2.0, _ODD_N, 7).tobytes(),
        (mc.value, mc.std_error),
    )


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.99])
def test_gain_outputs_independent_of_worker_count(rho, monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    from qoslink import channel
    from qoslink.queuesim import _service_trace

    spec = ChannelSpec(10, rho)
    outputs = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more workers than cores, switching often
    try:
        for workers in (1, 3):
            with ThreadPoolExecutor(workers) as pool:
                monkeypatch.setattr(channel, "_pool", lambda pid: (pool, workers))
                outputs.append(_sampled_outputs(spec))
    finally:
        sys.setswitchinterval(switch)
        monkeypatch.undo()
    assert outputs[0] == outputs[1] == _sampled_outputs(spec)
    # the serial per-chunk loop the fan-out replaced
    ref = np.empty(_ODD_N)
    for c, start in enumerate(range(0, _ODD_N, 1 << 15)):
        count = min(1 << 15, _ODD_N - start)
        z = _reference_gain_blocks(spec, count, channel._stream(7, (1, c)))
        ref[start : start + count] = np.log1p(2.0 * z).sum(axis=1) / math.log(2.0)
    assert _service_trace(spec, 2.0, _ODD_N, 7).tobytes() == ref.tobytes()


def test_import_starts_no_thread():
    import subprocess
    from pathlib import Path

    import qoslink

    src_dir = str(Path(qoslink.__file__).resolve().parents[1])
    code = "import threading, qoslink; print(threading.active_count())"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src_dir}, timeout=120,
    )
    assert out.stdout.strip() == "1"


def test_chunk_failure_reaches_caller():
    from qoslink.channel import _gain_chunks

    def work(start, z):
        if start == 2 * (1 << 15):
            raise ArithmeticError("chunk 2")
        return start

    with pytest.raises(ArithmeticError, match="chunk 2"):
        list(_gain_chunks(ChannelSpec(2, 0.5), _ODD_N, 0, (), work))


# ---------------------------------------------------------------------------
# validation and JSON
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec(0, 0.5)
    with pytest.raises(ValueError):
        ChannelSpec(4, 1.5)
    with pytest.raises(ValueError):
        ChannelSpec(4, 0.5, sigma_h_sq=0.0)
    with pytest.raises(ValueError):
        channel_spec_from_json({"m": 4, "rho": 0.5, "distribution": "nakagami"})


@pytest.mark.parametrize(
    "fields, name",
    [
        (dict(m=math.inf, rho=0.0), "m"),
        (dict(m=True, rho=0.0), "m"),
        (dict(m=2.5, rho=0.0), "m"),
        (dict(m=0, rho=0.0), "m"),
        (dict(m=2, rho=math.nan), "rho"),
        (dict(m=2, rho="0.5"), "rho"),
        (dict(m=2, rho=2.0), "rho"),
        (dict(m=2, rho=0.0, sigma_h_sq=-1.0), "sigma_h_sq"),
        (dict(m=2, rho=0.0, sigma_h_sq=math.inf), "sigma_h_sq"),
        (dict(m=2, rho=0.0, distribution=5), "distribution"),
        (dict(m=2, rho=0.0, distribution="nakagami"), "distribution"),
        (dict(m=2, rho=0.0, sigma_hsq=4.0), "sigma_hsq"),
    ],
)
def test_spec_names_the_field_it_rejects(fields, name):
    # m = inf once raised OverflowError, a numeric distribution
    # AttributeError, and m = True built a one-symbol block
    with pytest.raises(ValidationError) as err:
        channel_spec_from_json(fields)
    assert err.value.field_path == name


def test_spec_takes_integral_and_numpy_numbers():
    spec = ChannelSpec(m=np.int64(4), rho=1, sigma_h_sq=np.float32(2.0))
    assert (spec.m, spec.rho, spec.sigma_h_sq) == (4, 1.0, 2.0)
    assert type(spec.m) is int and type(spec.rho) is type(spec.sigma_h_sq) is float
    doc = {"m": 4.0, "rho": 0.5, "distribution": "Gauss_Markov_Rayleigh"}
    assert channel_spec_from_json(doc) == ChannelSpec(4, 0.5)


def test_bad_snr_and_theta_rejected():
    spec = ChannelSpec(2, 0.0)
    with pytest.raises(ValueError):
        ergodic_capacity(spec, 0.0)
    with pytest.raises(ValueError):
        effective_capacity_rayleigh_iid(1.0, -0.5, 2)
    with pytest.raises(ValueError):
        effective_capacity_mc(spec, 1.0, 1.0, n_samples=0)


def test_channel_spec_from_json():
    spec = channel_spec_from_json({"m": 10, "rho": 0.75, "sigma_h_sq": 1.0})
    assert spec == ChannelSpec(10, 0.75, 1.0)
    assert channel_spec_from_json({"m": 3, "rho": 0.0}).sigma_h_sq == 1.0
    with pytest.raises(ValidationError) as err:
        channel_spec_from_json({"rho": 0.5})
    assert err.value.field_path == "m"
    with pytest.raises(ValidationError):
        channel_spec_from_json({"m": 10, "rho": "high"})
    with pytest.raises(ValidationError):
        channel_spec_from_json({"m": 10, "rho": 2.0})


def test_estimate_is_immutable():
    est = effective_capacity_rayleigh_iid(1.0, 1.0, 2)
    assert isinstance(est, EffCapEstimate)
    with pytest.raises(AttributeError):
        est.value = 0.0


def test_capacity_function_dispatches_each_method():
    from qoslink.channel import capacity_function

    iid = ChannelSpec(m=4, rho=0.0, sigma_h_sq=2.0)
    corr = ChannelSpec(m=4, rho=0.5)
    closed = capacity_function(iid, "closed-iid")(0.3, 0.7)
    assert closed == effective_capacity_rayleigh_iid(0.6, 0.7, 4)
    assert capacity_function(corr, "quadrature")(0.3, 0.7) == (
        effective_capacity_quadrature(corr, 0.3, 0.7)
    )
    mc = capacity_function(corr, "mc", n_samples=3000, seed=5)(0.3, 0.7)
    assert mc == effective_capacity_mc(corr, 0.3, 0.7, n_samples=3000, seed=5)
    with pytest.raises(
        ValueError, match=r"^closed-iid requires rho = 0; use quadrature or mc for rho > 0$"
    ):
        capacity_function(corr, "closed-iid")
    with pytest.raises(ValueError, match=r"^Monte Carlo capacity needs an explicit seed$"):
        capacity_function(corr, "mc")
    with pytest.raises(ValueError, match=r"^unknown capacity method 'exact'$"):
        capacity_function(corr, "exact")


# ---------------------------------------------------------------------------
# the log-axis rule of the one-dimensional integrals, in corners the frozen
# values above do not reach; 40-digit values from tests/log_axis_reference.py
# ---------------------------------------------------------------------------

# Every check below is relative only (abs=0.0): pytest.approx would
# otherwise accept any error below 1e-12 in these small values.

# (gamma, a, log E{(1 + gamma t)^-a}), t ~ exponential(1)
LOG_NEG_MOMENT_MPMATH = [
    (1e-05, 1.4426950408889634, -0.00001442670207898518644856124),
    (1e-05, 0.14426950408889636, -0.000001442679573585221077753177),
    (100000.0, 1.4426950408889634, -10.70784330185399468634205),
    (100000.0, 0.14426950408889636, -1.559281332075832887351018),
]
# (snr, theta, m, C_E) of i.i.d. gains at low snr * theta, where the moment
# is within 1.5e-5 of 1 (1.5e-8 in the first case): its log cancels digits
IID_LOW_SNR_MPMATH = [
    (1e-05, 0.001, 10, 0.0001442680603820656602778985),
    (0.0001, 0.01, 10, 0.001442549759962729255243011),
    (1e-05, 1.0, 10, 0.0001442670207898518644856124),
]
# (snr, m, theta, C_E) at rho = 1: the exponent m theta / log 2 is about 721
FULL_CORRELATION_MPMATH = [
    (0.01, 100, 5.0, 0.4209413181772893774361392),
    (1.0, 100, 5.0, 1.316224588694905572409495),
    (100.0, 100, 5.0, 2.236983570045126458155223),
]
# (snr, m, ergodic capacity)
ERGODIC_MPMATH = [
    (0.0001, 10, 0.001442550800230122688413653),
    (10000.0, 10, 124.5635604149445892903531),
]
# (gamma, E{log2(1 + gamma t)^2})
SECOND_LOG_MOMENT_MPMATH = [
    (0.0001, 4.161489598315765538629221e-8),
    (1.0, 1.107144204855339256743471),
    (10000.0, 158.5653373146279607580729),
]


@pytest.mark.parametrize("gamma,a,expected", LOG_NEG_MOMENT_MPMATH)
def test_negative_moment_matches_mpmath(gamma, a, expected):
    from qoslink.channel import _log_neg_moment

    assert _log_neg_moment(gamma, a) == pytest.approx(expected, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("snr,theta,m,expected", IID_LOW_SNR_MPMATH)
def test_iid_capacity_keeps_its_digits_at_low_snr(snr, theta, m, expected):
    expected = pytest.approx(expected, rel=1e-13, abs=0.0)
    assert effective_capacity_rayleigh_iid(snr, theta, m).value == expected
    quad = effective_capacity_quadrature(ChannelSpec(m=m, rho=0.0), snr, theta)
    assert quad.value == expected


@pytest.mark.parametrize("snr,m,theta,expected", FULL_CORRELATION_MPMATH)
def test_full_correlation_at_high_exponent_matches_mpmath(snr, m, theta, expected):
    est = effective_capacity_quadrature(ChannelSpec(m=m, rho=1.0), snr, theta)
    assert est.value == pytest.approx(expected, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("snr,m,expected", ERGODIC_MPMATH)
def test_ergodic_capacity_matches_mpmath(snr, m, expected):
    value = ergodic_capacity(ChannelSpec(m=m, rho=0.0), snr)
    assert value == pytest.approx(expected, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("gamma,expected", SECOND_LOG_MOMENT_MPMATH)
def test_second_log_rate_moment_matches_mpmath(gamma, expected):
    from qoslink.channel import _log_rate_moments

    assert _log_rate_moments(gamma)[1] == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_log_axis_rule_fails_loudly():
    from qoslink.channel import _log_neg_moment, _log_rate_moments

    # at gamma = 1e307 the cutoff log1p(845 gamma) + 1 overflows
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(QuadratureFailure, match="positive reals"):
            _log_rate_moments(1e307)
        with pytest.raises(QuadratureFailure, match="positive reals"):
            _log_neg_moment(1e307, 0.5)


# ---------------------------------------------------------------------------
# the gain-chain rule's order ladder: each rung against the next one up
# ---------------------------------------------------------------------------

LADDER_RHOS = (0.05, 0.5, 0.9, 0.99)
LADDER_POINTS = [
    (snr, theta, m) for snr in (1e-4, 1e-2, 1.0, 100.0) for theta in (0.1, 1.0, 5.0)
    for m in (2, 10, 100)
]
# each rung's order against the next one's, and the top rung against order 40
LADDER_PAIRS = list(zip(
    [order for _, order in _GAIN_AXIS_ORDERS],
    [order for _, order in _GAIN_AXIS_ORDERS[1:]] + [40],
))
# The whole grid takes about 25 s (QOSLINK_ACCEPT_FULL=1).  Tier-1 checks
# the first rung, which serves every rho up to 0.99, on all of it, and the
# rungs above at rho 0.99, on m <= 10.
FULL_LADDER = bool(os.environ.get("QOSLINK_ACCEPT_FULL"))
FULL_LADDER_ONLY = pytest.mark.skipif(
    not FULL_LADDER, reason="kernels of up to 3072 nodes; set QOSLINK_ACCEPT_FULL=1 to run")


def _ladder_bound(snr, theta):
    # below snr * theta = 1e-2 both orders sit on the floor that
    # -log(mean) sets by amplifying the mean's last bits
    return 1e-13 if snr * theta >= 1e-2 else 2e-11


def _ladder_checks(rho):
    """(low order, high order, grid points) to compare at rho."""
    for i, (low, high) in enumerate(LADDER_PAIRS):
        if FULL_LADDER or i == 0:
            yield low, high, LADDER_POINTS
        elif rho == LADDER_RHOS[-1]:
            yield low, high, [p for p in LADDER_POINTS if p[2] <= 10]


@pytest.mark.parametrize("rho", LADDER_RHOS)
def test_gain_axis_rungs_agree_with_the_next_rung(rho):
    kernel = functools.cache(lambda order: _gain_chain_kernel(rho, 1.0, order))
    capacity = functools.cache(
        lambda order, snr, theta, m: _chain_capacity(kernel(order), m, snr, theta))
    for low, high, points in _ladder_checks(rho):
        for snr, theta, m in points:
            want = pytest.approx(capacity(high, snr, theta, m),
                                 rel=_ladder_bound(snr, theta), abs=0.0)
            assert capacity(low, snr, theta, m) == want, (low, high, snr, theta, m)


@pytest.mark.parametrize("rho,order", [
    (0.999, 40),
    pytest.param(0.9997, 80, marks=FULL_LADDER_ONLY),
    pytest.param(0.9999, 96, marks=FULL_LADDER_ONLY),
])
def test_upper_rungs_within_1e10_at_their_top(rho, order):
    reference = _gain_chain_kernel(rho, 1.0, order)
    for snr, theta, m in LADDER_POINTS:
        got = effective_capacity_quadrature(ChannelSpec(m, rho), snr, theta).value
        want = _chain_capacity(reference, m, snr, theta)
        assert got == pytest.approx(want, rel=1e-10, abs=0.0), (snr, theta, m)


def test_quadrature_answers_at_rho_0_9995():
    value = effective_capacity_quadrature(ChannelSpec(10, 0.9995), 1.0, 1.0).value
    below = effective_capacity_quadrature(ChannelSpec(10, 0.999), 1.0, 1.0).value
    above = effective_capacity_quadrature(ChannelSpec(10, 1.0), 1.0, 1.0).value
    assert above < value < below


def test_quadrature_refuses_rho_above_the_ladder():
    top = _GAIN_AXIS_ORDERS[-1][0]
    assert [r for r, _ in _GAIN_AXIS_ORDERS] == sorted(r for r, _ in _GAIN_AXIS_ORDERS)
    effective_capacity_quadrature(ChannelSpec(10, top), 1.0, 1.0)
    with pytest.raises(QuadratureFailure, match="too sharp"):
        effective_capacity_quadrature(ChannelSpec(10, math.nextafter(top, 1.0)), 1.0, 1.0)


# (rho, snr, theta, C_E) of a block of m = 2 symbols: 30-digit values of
# -log(sum_n rho^{2n} c_n^2) / theta, the Hille-Hardy series of Kibble's
# bivariate exponential law, from tests/gain_chain_reference.py
TWO_SYMBOL_MPMATH = [
    (0.3, 0.0001, 0.1, 0.000288507892286329181143957486312),
    (0.3, 0.01, 0.5, 0.0284624655458615987969260666676),
    (0.3, 1.0, 1.0, 1.38899039885489314522751036509),
    (0.3, 100.0, 5.0, 2.55473581792964243939356441486),
    (0.5, 0.0001, 0.1, 0.00028850755941004611553020866604),
    (0.5, 0.01, 0.5, 0.0284466737254788708744221487638),
    (0.5, 1.0, 1.0, 1.35839862063473760320615713585),
    (0.5, 100.0, 5.0, 2.51624054511526927753360042306),
    (0.8, 0.0001, 0.1, 0.000288506748024100351210582599133),
    (0.8, 0.01, 0.5, 0.0284081759541608081683402131388),
    (0.8, 1.0, 1.0, 1.27429645651025693463845096215),
    (0.8, 100.0, 5.0, 2.37054531124536040810030827768),
    (0.9, 0.0001, 0.1, 0.000288506394343044498756397200685),
    (0.9, 0.01, 0.5, 0.0283913925613115035434997656275),
    (0.9, 1.0, 1.0, 1.2319877016879817249262890398),
    (0.9, 100.0, 5.0, 2.24460244327144022255669626739),
]


@pytest.mark.parametrize("rho,snr,theta,expected", TWO_SYMBOL_MPMATH)
def test_two_symbol_chain_matches_the_laguerre_series(rho, snr, theta, expected):
    # below snr * theta = 1e-2, -log(mean) amplifies the mean's last bits
    rel = 1e-12 if snr * theta >= 1e-2 else 1e-10
    est = effective_capacity_quadrature(ChannelSpec(2, rho), snr, theta)
    assert est.value == pytest.approx(expected, rel=rel, abs=0.0)
