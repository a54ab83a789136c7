"""Energy metrics: floors, slope orderings, builders, numeric route."""

import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

import qoslink
from qoslink import energy
from qoslink.channel import ChannelSpec, effective_capacity_quadrature
from qoslink.energy import (
    build_binomial_discrete_source,
    build_birth_death_fluid,
    ebn0_curve,
    energy_metrics_onoff_discrete,
    energy_metrics_onoff_fluid,
    energy_metrics_onoff_mmpp,
    numeric_energy_metrics,
    source_ebn0_curve,
    source_energy_metrics,
)
from qoslink.errors import BracketFailure, IllConditioned, ValidationError
from qoslink.sources import (
    FluidMarkovSource,
    MmppSource,
    OnOffContinuousParams,
    OnOffDiscreteParams,
    OnOffFluidParams,
    as_discrete_source,
    as_fluid_source,
    as_mmpp_source,
)
from qoslink.throughput import max_avg_rate

SPEC0 = ChannelSpec(m=10, rho=0.0)
SPEC75 = ChannelSpec(m=10, rho=0.75)
SPEC1 = ChannelSpec(m=10, rho=1.0)

# unit-mean Rayleigh floors, frozen: 10log10(ln 2) and 10log10(ln2 (e-1))
FLOOR_DB = -1.5917453895486159
FLOOR_MMPP_DB = 0.75919858320608798


def test_constant_floor_frozen():
    res = source_energy_metrics(None, SPEC0, 1.0)[1]
    assert res.ebn0_min_db == pytest.approx(FLOOR_DB, abs=1e-12)
    assert res.ebn0_min_linear == pytest.approx(math.log(2.0), rel=1e-14, abs=0)


def test_mmpp_floor_frozen():
    res = energy_metrics_onoff_mmpp(SPEC0, 1.0, 50.0, 50.0)
    assert res.ebn0_min_db == pytest.approx(FLOOR_MMPP_DB, abs=1e-12)


def test_theta_zero_slope_is_one_any_rho():
    for rho in (0.0, 0.5, 1.0):
        res = source_energy_metrics(None, ChannelSpec(m=10, rho=rho), 0.0)[1]
        assert res.wideband_slope == pytest.approx(1.0, rel=1e-14, abs=0)


def test_correlation_cuts_the_slope():
    assert (
        source_energy_metrics(None, SPEC1, 1.0)[1].wideband_slope
        < source_energy_metrics(None, SPEC0, 1.0)[1].wideband_slope
    )


def test_discrete_reduces_to_constant():
    assert energy_metrics_onoff_discrete(SPEC0, 1.0, 0.0, 1.0) == source_energy_metrics(
        None, SPEC0, 1.0
    )[1]


def test_fluid_reduces_to_constant():
    res = energy_metrics_onoff_fluid(SPEC0, 1.0, 2.0, 0.0)
    ref = source_energy_metrics(None, SPEC0, 1.0)[1]
    assert res.wideband_slope == ref.wideband_slope
    assert res.ebn0_min_linear == ref.ebn0_min_linear


def test_sparser_on_periods_cost_slope():
    # p11 = 1-s, p22 = s gives burstiness (1-s)/s, growing as s drops
    slopes = [
        energy_metrics_onoff_discrete(SPEC0, 1.0, 1.0 - s, s).wideband_slope
        for s in (1.0, 0.5, 0.25)
    ]
    assert slopes[0] > slopes[1] > slopes[2]


def test_faster_on_switching_helps_fluid():
    slow = energy_metrics_onoff_fluid(SPEC0, 1.0, 2.0, 3.0).wideband_slope
    fast = energy_metrics_onoff_fluid(SPEC0, 1.0, 4.0, 3.0).wideband_slope
    assert fast > slow


def test_mmpp_matches_fluid_as_theta_vanishes():
    fl = energy_metrics_onoff_fluid(SPEC0, 1e-6, 50.0, 50.0)
    mm = energy_metrics_onoff_mmpp(SPEC0, 1e-6, 50.0, 50.0)
    assert abs(mm.ebn0_min_db - fl.ebn0_min_db) < 1e-5
    assert energy_metrics_onoff_mmpp(SPEC0, 0.0, 50.0, 50.0) == energy_metrics_onoff_fluid(
        SPEC0, 0.0, 50.0, 50.0
    )


def test_mmpp_penalty_law():
    fl = energy_metrics_onoff_fluid(SPEC0, 0.0, 3.0, 7.0)
    for theta in (0.25, 1.0, 2.0):
        mm = energy_metrics_onoff_mmpp(SPEC0, theta, 3.0, 7.0)
        assert mm.ebn0_min_linear / fl.ebn0_min_linear == pytest.approx(
            math.expm1(theta) / theta, rel=1e-12
        )


def test_floor_is_invariant_to_everything_but_mmpp():
    ref = source_energy_metrics(None, SPEC0, 0.3)[1].ebn0_min_linear
    for theta in (0.0, 0.5, 2.0):
        for rho in (0.0, 0.75, 1.0):
            spec = ChannelSpec(m=10, rho=rho)
            vals = [
                source_energy_metrics(None, spec, theta)[1].ebn0_min_linear,
                energy_metrics_onoff_discrete(spec, theta, 0.3, 0.6).ebn0_min_linear,
                energy_metrics_onoff_fluid(spec, theta, 5.0, 2.0).ebn0_min_linear,
            ]
            assert all(abs(v - ref) <= 1e-12 for v in vals)


@settings(max_examples=10, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=3.0),
)
def test_slope_nonincreasing_in_theta_and_rho(t1, t2):
    lo, hi = sorted((t1, t2))
    s_lo = energy_metrics_onoff_fluid(SPEC75, lo, 2.0, 5.0).wideband_slope
    s_hi = energy_metrics_onoff_fluid(SPEC75, hi, 2.0, 5.0).wideband_slope
    assert s_hi <= s_lo * (1 + 1e-12)
    r_lo = source_energy_metrics(None, ChannelSpec(m=10, rho=min(t1, 1.0) ** 0.5), 1.0)[1]
    r_hi = source_energy_metrics(None, ChannelSpec(m=10, rho=1.0), 1.0)[1]
    assert r_hi.wideband_slope <= r_lo.wideband_slope * (1 + 1e-12)


def test_slope_monotone_in_burstiness_coefficients():
    # eta sweep via s = p22 = 1-p11; zeta sweep via beta at fixed alpha
    etas = [
        energy_metrics_onoff_discrete(SPEC0, 1.0, 1.0 - s, s).wideband_slope
        for s in (0.9, 0.6, 0.3, 0.1)
    ]
    assert all(a > b for a, b in zip(etas, etas[1:]))
    zetas = [
        energy_metrics_onoff_fluid(SPEC0, 1.0, 4.0, b).wideband_slope
        for b in (0.0, 1.0, 4.0, 20.0)
    ]
    assert all(a > b for a, b in zip(zetas, zetas[1:]))


def test_absorbing_discrete_rejected():
    with pytest.warns(UserWarning, match="absorbing"):
        with pytest.raises(ValueError, match="p11"):
            energy_metrics_onoff_discrete(SPEC0, 1.0, 1.0, 0.5)


# binomial stationary law for n=10, s=0.5, frozen from direct combinatorics
BINOM_PI = [
    0.001953125, 0.017578125, 0.0703125, 0.1640625, 0.24609375,
    0.24609375, 0.1640625, 0.0703125, 0.017578125, 0.001953125,
]


def test_binomial_builder_stationary_law():
    src = build_binomial_discrete_source(10, 0.5, 2.0)
    pi = src._stationary
    assert np.max(np.abs(pi - np.array(BINOM_PI))) < 1e-12
    assert src.mean_rate == pytest.approx(9 * 0.5 * 2.0, rel=1e-14, abs=0)


def test_binomial_builder_rank_one_rows():
    src = build_binomial_discrete_source(7, 0.3, 1.0)
    pmf = binom.pmf(np.arange(7), 6, 0.3)
    assert np.allclose(src.transition_probs, np.tile(pmf, (7, 1)), atol=0, rtol=1e-15)
    assert np.array_equal(src.rates, np.arange(7.0))


def test_binomial_builder_large_n_matches_scipy():
    # float(comb(1099, k)) overflows near k = 550; exact integers do not
    src = build_binomial_discrete_source(1100, 0.3, 1.0)
    pmf = binom.pmf(np.arange(1100), 1099, 0.3)
    np.testing.assert_allclose(src.transition_probs[0], pmf, rtol=1e-10, atol=0)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about half a second of every CLI start-up
    src_dir = str(Path(qoslink.__file__).resolve().parents[1])
    code = "import sys, qoslink; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src_dir}, timeout=120,
    )
    assert out.stdout.strip() == "False"


def test_binomial_all_on_collapses():
    src = build_binomial_discrete_source(10, 1.0, 2.0)
    pi = src._stationary
    assert pi[-1] == pytest.approx(1.0, abs=1e-15)
    assert src.mean_rate == pytest.approx(9 * 2.0, rel=1e-14, abs=0)


# birth-death stationary law n=10, xi = alpha/beta = 0.5, frozen from the
# geometric form (xi^(i-1) - xi^i)/(1 - xi^n)
BD_PI = [
    0.50048875855327468, 0.25024437927663734, 0.12512218963831867,
    0.062561094819159335, 0.031280547409579668, 0.015640273704789834,
    0.0078201368523949169, 0.0039100684261974585, 0.0019550342130987292,
    0.00097751710654936461,
]


def test_birth_death_builder_stationary_law():
    src = build_birth_death_fluid(10, 50.0, 100.0, 1.0)
    pi = src._stationary
    assert np.max(np.abs(pi - np.array(BD_PI))) < 1e-12
    assert src.mean_rate == pytest.approx(0.99022482893450635, rel=1e-12, abs=0)


def test_birth_death_two_states_reduce():
    src = build_birth_death_fluid(2, 3.0, 7.0, 1.5)
    assert src.mean_rate == pytest.approx(1.5 * 3.0 / 10.0, rel=1e-14, abs=0)


def test_birth_death_equal_rates_is_uniform():
    src = build_birth_death_fluid(4, 5.0, 5.0, 1.0)
    assert np.allclose(src._stationary, 0.25, atol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 50, 200])
def test_birth_death_builder_fills_the_generator_row_by_row(n):
    # the generator as a loop over the states filled it; 0.1 + 0.2 rounds
    alpha, beta = 0.1, 0.2
    G = np.zeros((n, n))
    G[0, 0], G[0, 1] = -alpha, alpha
    for i in range(1, n - 1):
        G[i, i - 1], G[i, i], G[i, i + 1] = beta, -(alpha + beta), alpha
    G[n - 1, n - 2], G[n - 1, n - 1] = beta, -beta
    src = build_birth_death_fluid(n, alpha, beta, 1.5)
    assert np.array_equal(src.generator, G)
    assert np.array_equal(src.rates, 1.5 * np.arange(n))


def test_birth_death_saturates_at_top_rate():
    src = build_birth_death_fluid(5, 2e6, 2.0, 1.0)
    assert src.mean_rate == pytest.approx(4.0, rel=1e-3)


def test_builder_validation():
    with pytest.raises(ValueError, match="n must be"):
        build_binomial_discrete_source(1, 0.5, 1.0)
    with pytest.raises(ValueError, match="s must"):
        build_binomial_discrete_source(5, 1.5, 1.0)
    with pytest.raises(ValueError, match="beta"):
        build_birth_death_fluid(5, 1.0, 0.0, 1.0)


@pytest.mark.parametrize("n", [5.9, 2.5, "5", True, np.float64(4.5)])
def test_builders_take_an_integral_state_count(n):
    # 5.9 once built 5 states, and "5" and True built sources too
    for build, args in ((build_binomial_discrete_source, (0.3, 1.0)),
                        (build_birth_death_fluid, (1.0, 2.0, 1.0))):
        with pytest.raises(ValidationError, match="^n: must be an integer"):
            build(n, *args)
    assert build_binomial_discrete_source(5.0, 0.3, 1.0).n_states == 5
    assert build_birth_death_fluid(np.int64(4), 1.0, 2.0, 1.0).n_states == 4


@pytest.mark.parametrize(
    "call, name",
    [(lambda: OnOffFluidParams("2", True, 1), "alpha"),
     (lambda: OnOffFluidParams(2, True, 1), "beta"),
     (lambda: effective_capacity_quadrature(ChannelSpec(2, 0.0), "1.0", True), "snr"),
     (lambda: effective_capacity_quadrature(ChannelSpec(2, 0.0), 1.0, True), "theta"),
     (lambda: build_binomial_discrete_source(3, "0.5", True), "s"),
     (lambda: build_binomial_discrete_source(3, 0.5, True), "lam"),
     (lambda: source_ebn0_curve(None, SPEC0, 1.0, [0.1, "1"]), "snr_grid[1]"),
     (lambda: max_avg_rate(OnOffFluidParams(1, 2, 0), math.nan, 1.0), "effective capacity")],
    ids=["alpha", "beta", "snr", "theta", "s", "lam", "snr-grid", "ce"],
)
def test_scalar_arguments_follow_the_number_rule(call, name):
    # '2' once built alpha 2.0, True a beta of 1.0 and '0.5' a binomial s
    with pytest.raises(ValidationError, match=f"^{re.escape(name)}: must be a finite number") as info:
        call()
    assert info.value.field_path == name


def test_a_failing_curve_point_keeps_its_type_and_names_its_snr():
    # zero rates never reach C_E: the n-state solver refuses every snr
    silent = FluidMarkovSource(np.array([[-1.0, 1.0], [2.0, -2.0]]), np.zeros(2))
    with pytest.raises(BracketFailure, match=r"^at snr = 0\.25: effective bandwidth never") as err:
        source_ebn0_curve(silent, SPEC0, 0.5, [0.25, 1.0])
    assert type(err.value.__cause__) is BracketFailure
    assert str(err.value) == f"at snr = 0.25: {err.value.__cause__}"


def test_numeric_route_retries_then_reports_a_rough_curve(monkeypatch):
    # r(snr) = sqrt(snr) has no derivative at 0: every step's
    # first-derivative extrapolants disagree by the same ratio
    calls = []

    def rough(spec, snr, theta):
        calls.append(snr)
        return SimpleNamespace(value=math.sqrt(snr))

    monkeypatch.setattr(energy, "effective_capacity_quadrature", rough)
    with pytest.raises(IllConditioned, match="^first-derivative extrapolants disagree"):
        numeric_energy_metrics("constant", SPEC0, 0.5)
    steps = [1e-4 * 0.5 ** k for k in range(5)]  # the first step and four halvings
    assert calls == [s * f for s in steps for f in (1, 2, 4)]


def test_curve_floor_and_monotonicity():
    grid = [1e-4, 2e-4, 1e-3, 1e-2, 0.1, 1.0]
    for rho in (0.0, 0.5, 0.75, 1.0):
        pts = ebn0_curve("constant", ChannelSpec(m=10, rho=rho), 1.0, grid)
        assert len(pts) == len(grid)
        assert abs(pts[0].ebn0_db - FLOOR_DB) < 0.05
        assert all(b.ebn0_db >= a.ebn0_db for a, b in zip(pts, pts[1:]))
        assert all(b.normalized_rate > a.normalized_rate for a, b in zip(pts, pts[1:]))


def test_curve_mmpp_floor():
    pts = ebn0_curve("mmpp", SPEC0, 1.0, [1e-4, 2e-4], alpha=50.0, beta=50.0)
    assert abs(pts[0].ebn0_db - FLOOR_MMPP_DB) < 0.05


def test_curve_slope_near_floor_matches_theorem():
    pts = ebn0_curve("discrete", SPEC0, 1.0, [1e-4, 2e-4], p11=0.5, p22=0.5)
    ref = energy_metrics_onoff_discrete(SPEC0, 1.0, 0.5, 0.5).wideband_slope
    fd = (pts[1].normalized_rate - pts[0].normalized_rate) / math.log2(
        10 ** (pts[1].ebn0_db / 10) / 10 ** (pts[0].ebn0_db / 10)
    )
    assert fd == pytest.approx(ref, rel=0.05)


def test_curve_drops_zero_rate_points():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pts = ebn0_curve("discrete", SPEC0, 1.0, [0.01, 0.1], p11=1.0, p22=0.3)
    assert pts == []


def test_curve_validation():
    with pytest.raises(ValueError, match="sorted"):
        ebn0_curve("constant", SPEC0, 1.0, [0.1, 0.01])
    with pytest.raises(ValueError, match="finite and > 0"):
        ebn0_curve("constant", SPEC0, 1.0, [0.0, 0.1])
    with pytest.raises(ValueError, match="requires alpha"):
        ebn0_curve("fluid", SPEC0, 1.0, [0.1])
    with pytest.raises(ValueError, match="kind"):
        ebn0_curve("bursty", SPEC0, 1.0, [0.1])


@pytest.mark.parametrize(
    "kind,spec,kw",
    [
        ("constant", SPEC0, {}),
        ("discrete", SPEC0, dict(p11=0.5, p22=0.5)),
        ("fluid", SPEC75, dict(alpha=50.0, beta=50.0)),
        ("mmpp", SPEC0, dict(alpha=50.0, beta=50.0)),
    ],
)
def test_numeric_route_matches_closed_forms(kind, spec, kw):
    closed = {
        "constant": lambda spec, theta: source_energy_metrics(None, spec, theta)[1],
        "discrete": energy_metrics_onoff_discrete,
        "fluid": energy_metrics_onoff_fluid,
        "mmpp": energy_metrics_onoff_mmpp,
    }[kind](spec, 1.0, **kw)
    num = numeric_energy_metrics(kind, spec, 1.0, **kw)
    assert num.ebn0_min_linear == pytest.approx(closed.ebn0_min_linear, rel=5e-3)
    assert num.wideband_slope == pytest.approx(closed.wideband_slope, rel=5e-3)


def test_numeric_route_serves_nstate_sources():
    src = build_binomial_discrete_source(10, 0.5, 1.0)
    num = numeric_energy_metrics("nstate", SPEC0, 1.0, source=src)
    assert abs(num.ebn0_min_db - FLOOR_DB) < 0.05


@pytest.mark.parametrize("rho", [0.0, 0.5])
@pytest.mark.parametrize(
    "source,closed",
    [
        (as_discrete_source(OnOffDiscreteParams(0.8, 0.7, 1.0)),
         lambda spec: energy_metrics_onoff_discrete(spec, 0.1, 0.8, 0.7)),
        (as_fluid_source(OnOffContinuousParams(2.0, 3.0, 1.0)),
         lambda spec: energy_metrics_onoff_fluid(spec, 0.1, 2.0, 3.0)),
        (as_mmpp_source(OnOffContinuousParams(2.0, 3.0, 1.0)),
         lambda spec: energy_metrics_onoff_mmpp(spec, 0.1, 2.0, 3.0)),
    ],
    ids=["discrete", "fluid", "mmpp"],
)
def test_nstate_numeric_slope_matches_closed_form(source, closed, rho):
    # the slope is a second difference of the solver's output at snr ~ 1e-4,
    # so it holds only if the root is exact to near machine precision
    spec = ChannelSpec(m=10, rho=rho)
    num = numeric_energy_metrics("nstate", spec, 0.1, source=source)
    assert num.wideband_slope == pytest.approx(closed(spec).wideband_slope, rel=2e-5)


def test_fluid_metrics_golden():
    # alpha = beta = 50, m = 10, rho = 0.75, theta = 1: slope frozen
    # from the theorem formula and cross-checked by the derivative route
    sp = ChannelSpec(m=10, rho=0.75, sigma_h_sq=1.0)
    closed = energy_metrics_onoff_fluid(sp, 1.0, 50.0, 50.0)
    assert closed.ebn0_min_linear == pytest.approx(math.log(2.0), rel=1e-14, abs=0)
    assert closed.wideband_slope == pytest.approx(0.30322515001658695, rel=1e-12, abs=0)
    num = numeric_energy_metrics("fluid", sp, 1.0, alpha=50.0, beta=50.0)
    assert num.wideband_slope == pytest.approx(closed.wideband_slope, rel=1e-4)


def test_mmpp_floor_does_not_depend_on_state_count():
    # observed for n in {2, 5, 10}; not claimed in general
    floor = 10.0 * math.log10(math.log(2.0) * math.expm1(1.0))
    spec = ChannelSpec(m=10, rho=0.0, sigma_h_sq=1.0)
    for n in (2, 5, 10):
        bd = build_birth_death_fluid(n, 1.0, 2.0, 1.5)
        got = numeric_energy_metrics(
            "nstate", spec, 1.0, source=MmppSource(bd.generator, bd.rates)
        )
        assert abs(got.ebn0_min_db - floor) <= 0.05
