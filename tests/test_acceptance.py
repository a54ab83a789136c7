"""Acceptance gate: one test per shipped guarantee.

Each test prints a single CRITERION line so a log scrape shows the
verdicts without parsing pytest output.  Tolerances and runtime budgets
are part of the guarantee and are asserted, not just printed.
"""

import json
import math
import os
import time

import numpy as np
import pytest
import scipy.linalg

from qoslink.channel import (
    ChannelSpec,
    effective_capacity_rayleigh_iid,
    ergodic_capacity,
)
from qoslink.energy import (
    build_binomial_discrete_source,
    build_birth_death_fluid,
    energy_metrics_onoff_discrete,
    energy_metrics_onoff_fluid,
    energy_metrics_onoff_mmpp,
    numeric_energy_metrics,
    source_energy_metrics,
)
from qoslink.queuesim import SimConfig, _lindley, simulate_queue
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
    max_avg_rate_onoff_discrete,
    max_avg_rate_onoff_fluid,
    max_avg_rate_onoff_mmpp,
)

IID10 = ChannelSpec(m=10, rho=0.0, sigma_h_sq=1.0)


def report(n: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def ce_iid(snr: float, theta: float) -> float:
    return effective_capacity_rayleigh_iid(snr, theta, 10).value


# ---------------------------------------------------------------------------
# 1. closed form vs spectral path
# ---------------------------------------------------------------------------


def test_criterion_1_closed_vs_spectral():
    # draw ranges keep the spectral path honest: theta in [0.05, 2] and
    # rates/intensities bounded so eigen conditioning stays far below
    # the 1e-9 budget
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for _ in range(1000):
        theta = 10.0 ** rng.uniform(math.log10(0.05), math.log10(2.0))
        p11, p22 = rng.uniform(0.05, 0.95, 2)
        lam = rng.uniform(0.5, 8.0)
        alpha, beta = rng.uniform(0.1, 20.0, 2)

        disc = OnOffDiscreteParams(p11, p22, lam)
        pairs = [
            (
                effective_bandwidth_onoff_discrete(disc, theta),
                effective_bandwidth_discrete(as_discrete_source(disc), theta),
            ),
        ]
        cont = OnOffContinuousParams(alpha, beta, lam)
        pairs.append(
            (
                effective_bandwidth_onoff_fluid(cont, theta),
                effective_bandwidth_fluid(as_fluid_source(cont), theta),
            )
        )
        pairs.append(
            (
                effective_bandwidth_onoff_mmpp(cont, theta),
                effective_bandwidth_mmpp(as_mmpp_source(cont), theta),
            )
        )
        for closed, eigen in pairs:
            worst = max(worst, abs(closed - eigen) / abs(closed))
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-9 and elapsed < 5.0,
        f"1000 draws x 3 families, worst rel {worst:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. fixed-point round trip
# ---------------------------------------------------------------------------


def test_criterion_2_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8221)
    worst = 0.0
    for i in range(500):
        theta = 10.0 ** rng.uniform(math.log10(0.05), math.log10(2.0))
        snr = 10.0 ** rng.uniform(-1.0, 2.0)
        ce = ce_iid(snr, theta)
        family = i % 3
        if family == 0:
            p11, p22 = rng.uniform(0.05, 0.95, 2)
            res = max_avg_rate_onoff_discrete(ce, theta, p11, p22)
            back = effective_bandwidth_onoff_discrete(
                OnOffDiscreteParams(p11, p22, res.lambda_star), theta
            )
        else:
            alpha, beta = rng.uniform(0.1, 20.0, 2)
            cont = lambda lam: OnOffContinuousParams(alpha, beta, lam)
            if family == 1:
                res = max_avg_rate_onoff_fluid(ce, theta, alpha, beta)
                back = effective_bandwidth_onoff_fluid(cont(res.lambda_star), theta)
            else:
                res = max_avg_rate_onoff_mmpp(ce, theta, alpha, beta)
                back = effective_bandwidth_onoff_mmpp(cont(res.lambda_star), theta)
        worst = max(worst, abs(back - ce) / ce)
    elapsed = time.perf_counter() - t0
    report(
        2,
        worst <= 1e-9 and elapsed < 5.0,
        f"500 triples, worst rel {worst:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 3. ergodic limit as theta -> 0
# ---------------------------------------------------------------------------


def r_star(kind: str, theta: float, snr: float = 1.0) -> float:
    ce = ce_iid(snr, theta)
    if kind == "discrete":
        return max_avg_rate_onoff_discrete(ce, theta, 0.8, 0.8).r_avg_star
    if kind == "fluid":
        return max_avg_rate_onoff_fluid(ce, theta, 2.0, 2.0).r_avg_star
    return max_avg_rate_onoff_mmpp(ce, theta, 2.0, 2.0).r_avg_star


def test_criterion_3_ergodic_limit():
    t0 = time.perf_counter()
    erg = ergodic_capacity(IID10, 1.0)
    ok = True
    finals = []
    for kind in ("discrete", "fluid", "mmpp"):
        errs = [abs(r_star(kind, th) - erg) / erg for th in (1e-2, 1e-3, 1e-4)]
        ok = ok and errs[0] > errs[1] > errs[2] and errs[2] < 0.01
        finals.append(errs[2])
    elapsed = time.perf_counter() - t0
    report(
        3,
        ok and elapsed < 10.0,
        f"final errs {', '.join(f'{e:.2e}' for e in finals)}, "
        f"monotone decrease, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 4. low-theta derivative
# ---------------------------------------------------------------------------


def test_criterion_4_low_theta_derivative():
    t0 = time.perf_counter()
    configs = {
        "discrete": dict(p11=0.5, p22=0.5),
        "fluid": dict(alpha=2.0, beta=2.0),
        "mmpp": dict(alpha=2.0, beta=2.0),
    }
    sources = {
        "discrete": OnOffDiscreteParams(0.5, 0.5, 0.0),
        "fluid": OnOffFluidParams(2.0, 2.0, 0.0),
        "mmpp": OnOffMmppParams(2.0, 2.0, 0.0),
    }

    def fd(kind, kw):
        def r(theta):
            ce = ce_iid(1.0, theta)
            if kind == "discrete":
                return max_avg_rate_onoff_discrete(ce, theta, kw["p11"], kw["p22"]).r_avg_star
            if kind == "fluid":
                return max_avg_rate_onoff_fluid(ce, theta, kw["alpha"], kw["beta"]).r_avg_star
            return max_avg_rate_onoff_mmpp(ce, theta, kw["alpha"], kw["beta"]).r_avg_star

        return (r(2e-3) - r(1e-3)) / 1e-3

    rels, slopes_fd = [], {}
    for kind, kw in configs.items():
        numeric = fd(kind, kw)
        slopes_fd[kind] = numeric
        formula = low_theta_asymptotics(sources[kind], IID10, 1.0).low_theta_derivative
        rels.append(abs(numeric - formula) / abs(formula))
    erg = ergodic_capacity(IID10, 1.0)
    gap = slopes_fd["mmpp"] - slopes_fd["fluid"]
    gap_rel = abs(gap + erg / 2.0) / (erg / 2.0)
    elapsed = time.perf_counter() - t0
    report(
        4,
        max(rels) <= 0.05 and gap_rel <= 0.05 and elapsed < 30.0,
        f"per-family rels {', '.join(f'{r:.3f}' for r in rels)}, "
        f"mmpp-fluid gap rel {gap_rel:.3f}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 5. high-snr slope
# ---------------------------------------------------------------------------


def test_criterion_5_high_snr_slope():
    t0 = time.perf_counter()
    lo, hi = 10.0 ** 3.0, 10.0 ** 4.0
    span = math.log2(hi) - math.log2(lo)

    def numeric(kind, theta):
        if theta == 0.0:
            return (ergodic_capacity(IID10, hi) - ergodic_capacity(IID10, lo)) / (10 * span)
        return (r_star(kind, theta, hi) - r_star(kind, theta, lo)) / (10 * span)

    # the sources r_star solves for, each with p_on = 0.5
    sources = {
        "discrete": OnOffDiscreteParams(0.8, 0.8, 0.0),
        "fluid": OnOffFluidParams(2.0, 2.0, 0.0),
        "mmpp": OnOffMmppParams(2.0, 2.0, 0.0),
    }
    worst = 0.0
    # 0.3 < ln2 < 1.5 covers both branches of the piecewise slope
    for kind in ("discrete", "fluid", "mmpp"):
        for theta in (0.3, 1.5):
            pred = high_snr_slope(sources[kind], theta)
            worst = max(worst, abs(numeric(kind, theta) - pred) / pred)
    worst = max(worst, abs(numeric("discrete", 0.0) - 1.0))
    elapsed = time.perf_counter() - t0
    report(
        5,
        worst <= 0.05 and elapsed < 10.0,
        f"both branches + theta=0, worst rel {worst:.3f}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 6. energy floors
# ---------------------------------------------------------------------------


def test_criterion_6_energy_floors():
    t0 = time.perf_counter()
    ok = True
    worst_closed = 0.0
    for theta in (0.1, 1.0):
        for rho in (0.0, 0.75, 1.0):
            sp = ChannelSpec(m=10, rho=rho, sigma_h_sq=1.0)
            dbs = [
                source_energy_metrics(None, sp, theta)[1].ebn0_min_db,
                energy_metrics_onoff_discrete(sp, theta, 0.8, 0.8).ebn0_min_db,
                energy_metrics_onoff_fluid(sp, theta, 2.0, 2.0).ebn0_min_db,
            ]
            worst_closed = max(worst_closed, max(abs(db + 1.59) for db in dbs))
    ok = ok and worst_closed <= 0.01
    worst_mmpp = 0.0
    for rho in (0.0, 0.75, 1.0):
        sp = ChannelSpec(m=10, rho=rho, sigma_h_sq=1.0)
        db = energy_metrics_onoff_mmpp(sp, 1.0, 2.0, 2.0).ebn0_min_db
        worst_mmpp = max(worst_mmpp, abs(db - 0.76))
    ok = ok and worst_mmpp <= 0.02

    floor = 10.0 * math.log10(math.log(2.0))
    floor_mmpp = 10.0 * math.log10(math.log(2.0) * math.expm1(1.0))
    binom = build_binomial_discrete_source(10, 0.5, 2.0)
    bd = build_birth_death_fluid(10, 1.0, 2.0, 1.5)
    nstate_diffs = [
        abs(numeric_energy_metrics("nstate", IID10, 1.0, source=binom).ebn0_min_db - floor),
        abs(numeric_energy_metrics("nstate", IID10, 1.0, source=bd).ebn0_min_db - floor),
        abs(
            numeric_energy_metrics(
                "nstate", IID10, 1.0, source=MmppSource(bd.generator, bd.rates)
            ).ebn0_min_db
            - floor_mmpp
        ),
    ]
    ok = ok and max(nstate_diffs) <= 0.05
    elapsed = time.perf_counter() - t0
    report(
        6,
        ok and elapsed < 60.0,
        f"closed worst {worst_closed:.4f} dB, mmpp worst {worst_mmpp:.4f} dB, "
        f"n-state worst {max(nstate_diffs):.2e} dB, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 7. wideband slope consistency
# ---------------------------------------------------------------------------


def test_criterion_7_wideband_slope():
    t0 = time.perf_counter()
    worst = 0.0
    for theta in (0.1, 0.5, 1.0):
        for rho in (0.0, 0.5, 0.9):
            sp = ChannelSpec(m=10, rho=rho, sigma_h_sq=1.0)
            pairs = [
                (
                    source_energy_metrics(None, sp, theta)[1],
                    numeric_energy_metrics("constant", sp, theta),
                ),
                (
                    energy_metrics_onoff_discrete(sp, theta, 0.8, 0.8),
                    numeric_energy_metrics("discrete", sp, theta, p11=0.8, p22=0.8),
                ),
                (
                    energy_metrics_onoff_fluid(sp, theta, 2.0, 2.0),
                    numeric_energy_metrics("fluid", sp, theta, alpha=2.0, beta=2.0),
                ),
                (
                    energy_metrics_onoff_mmpp(sp, theta, 2.0, 2.0),
                    numeric_energy_metrics("mmpp", sp, theta, alpha=2.0, beta=2.0),
                ),
            ]
            for closed, num in pairs:
                worst = max(
                    worst,
                    abs(num.wideband_slope - closed.wideband_slope) / closed.wideband_slope,
                )

    def slopes(values):
        return [m.wideband_slope for m in values]

    sp = ChannelSpec(m=10, rho=0.5, sigma_h_sq=1.0)
    sweep_theta = slopes(
        energy_metrics_onoff_fluid(sp, th, 2.0, 2.0) for th in np.linspace(0.05, 2.0, 10)
    )
    sweep_rho = slopes(
        energy_metrics_onoff_fluid(ChannelSpec(m=10, rho=r, sigma_h_sq=1.0), 0.5, 2.0, 2.0)
        for r in np.linspace(0.0, 0.95, 10)
    )
    # eta = p/(1-p) rises with p; zeta = 2 beta / (alpha (alpha+beta))
    # rises as alpha falls
    sweep_eta = slopes(
        energy_metrics_onoff_discrete(sp, 0.5, p, p) for p in np.linspace(0.1, 0.9, 10)
    )
    sweep_zeta = slopes(
        energy_metrics_onoff_fluid(sp, 0.5, a, 2.0) for a in np.linspace(10.0, 0.5, 10)
    )
    mono = all(
        all(x >= y - 1e-12 for x, y in zip(s, s[1:]))
        for s in (sweep_theta, sweep_rho, sweep_eta, sweep_zeta)
    )
    elapsed = time.perf_counter() - t0
    report(
        7,
        worst <= 0.005 and mono and elapsed < 60.0,
        f"3x3 grid x 4 kinds worst rel {worst:.2e}, "
        f"monotone in theta/rho/eta/zeta, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 8. queue-tail validation
# ---------------------------------------------------------------------------


def loaded_sim(theta: float, n_blocks: int, seed: int, family: str = "discrete") -> SimConfig:
    """ON/OFF source of the family loaded at lambda*(theta) on IID10 at 0 dB:
    discrete p11 = p22 = 0.8, fluid and MMPP alpha = 9, beta = 1."""
    ce = ce_iid(1.0, theta)
    if family == "discrete":
        lam = max_avg_rate_onoff_discrete(ce, theta, 0.8, 0.8).lambda_star
        source = OnOffDiscreteParams(0.8, 0.8, lam)
    else:
        solve, build = {
            "fluid": (max_avg_rate_onoff_fluid, as_fluid_source),
            "mmpp": (max_avg_rate_onoff_mmpp, as_mmpp_source),
        }[family]
        lam = solve(ce, theta, 9.0, 1.0).lambda_star
        source = build(OnOffContinuousParams(9.0, 1.0, lam))
    return SimConfig(
        source=source,
        channel=IID10,
        snr=1.0,
        n_blocks=n_blocks,
        seed=seed,
    )


def queue_tail_errors(theta: float, n_blocks: int, seed: int, family: str = "discrete"):
    report_ = simulate_queue(loaded_sim(theta, n_blocks, seed, family))
    target_delay = theta * ce_iid(1.0, theta)
    return (
        abs(report_.theta_sim - theta) / theta,
        abs(report_.delay_slope_sim - target_delay) / target_delay,
    )


def test_criterion_8_queue_tail():
    t0 = time.perf_counter()
    worst = 0.0
    details = []
    for theta in (0.1, 0.2):
        e_theta, e_delay = queue_tail_errors(theta, 10 ** 6, 42)
        worst = max(worst, e_theta, e_delay)
        details.append(f"theta={theta}: {e_theta:.3f}/{e_delay:.3f}")
    elapsed = time.perf_counter() - t0
    report(
        8,
        worst <= 0.15 and elapsed < 240.0,
        f"n=1e6 rel errs (overflow/delay) {'; '.join(details)}, {elapsed:.2f}s",
    )


@pytest.mark.skipif(
    not os.environ.get("QOSLINK_ACCEPT_FULL"),
    reason="10^7-block variant, about 30 s; set QOSLINK_ACCEPT_FULL=1 to run",
)
def test_criterion_8_queue_tail_full():
    # discrete keeps its tighter 10^7 budget; fluid and MMPP get the 0.15
    # criterion 8 states
    budget = {"discrete": 0.10, "fluid": 0.15, "mmpp": 0.15}
    t0 = time.perf_counter()
    worst = {
        family: max(max(queue_tail_errors(theta, 10 ** 7, 42, family)) for theta in (0.1, 0.2))
        for family in budget
    }
    elapsed = time.perf_counter() - t0
    report(
        8,
        all(worst[f] <= budget[f] for f in budget),
        "n=1e7 worst rel "
        + ", ".join(f"{f} {worst[f]:.3f}/{budget[f]}" for f in budget)
        + f", {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 9. property suite
# ---------------------------------------------------------------------------


def midpoint(f, grid, sense: str) -> bool:
    for i in range(len(grid) - 2):
        a, b = grid[i], grid[i + 2]
        mid, chord = f((a + b) / 2.0), (f(a) + f(b)) / 2.0
        if sense == "concave" and mid < chord - 1e-10:
            return False
        if sense == "convex" and mid > chord + 1e-10:
            return False
    return True


def test_criterion_9_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3434)

    # mean/peak bracketing (Poisson layer transforms both bounds)
    brackets_ok = True
    for _ in range(100):
        theta = 10.0 ** rng.uniform(-1.5, 0.5)
        p11, p22 = rng.uniform(0.05, 0.95, 2)
        lam = rng.uniform(0.2, 8.0)
        alpha, beta = rng.uniform(0.1, 10.0, 2)
        disc = OnOffDiscreteParams(p11, p22, lam)
        cont = OnOffContinuousParams(alpha, beta, lam)
        factor = math.expm1(theta) / theta
        checks = [
            (disc.p_on * lam, effective_bandwidth_onoff_discrete(disc, theta), lam),
            (cont.p_on * lam, effective_bandwidth_onoff_fluid(cont, theta), lam),
            (
                cont.p_on * lam * factor,
                effective_bandwidth_onoff_mmpp(cont, theta),
                lam * factor,
            ),
        ]
        for mean, eb, peak in checks:
            if not (mean - 1e-9 <= eb <= peak + 1e-9):
                brackets_ok = False

    # a* monotone in lambda and theta; convex in lambda; theta * a*
    # (the log-MGF) convex in theta; a* itself is NOT convex in theta
    disc_fixed = lambda l: OnOffDiscreteParams(0.7, 0.6, l)
    lam_grid = np.linspace(0.1, 10.0, 20)
    th_grid = np.linspace(0.05, 3.0, 20)
    eb_lam = lambda l: effective_bandwidth_onoff_discrete(disc_fixed(l), 0.8)
    eb_th = lambda t: effective_bandwidth_onoff_discrete(disc_fixed(3.0), t)
    vals_lam = [eb_lam(l) for l in lam_grid]
    vals_th = [eb_th(t) for t in th_grid]
    shape_ok = (
        all(x <= y + 1e-12 for x, y in zip(vals_lam, vals_lam[1:]))
        and all(x <= y + 1e-12 for x, y in zip(vals_th, vals_th[1:]))
        and midpoint(eb_lam, lam_grid, "convex")
        and midpoint(lambda t: t * eb_th(t), th_grid, "convex")
    )

    # concavity of C_E and r* in snr on 20-point grids
    snr_grid = np.linspace(0.1, 10.0, 20)
    ce_fn = lambda s: ce_iid(s, 1.0)
    rs_fn = lambda s: max_avg_rate_onoff_discrete(ce_fn(s), 1.0, 0.8, 0.8).r_avg_star
    concave_ok = midpoint(ce_fn, snr_grid, "concave") and midpoint(
        rs_fn, snr_grid, "concave"
    )

    # stationary distributions vs brute force
    J = rng.dirichlet(np.ones(5), size=5)
    src = DiscreteMarkovSource(J, rng.uniform(0.0, 3.0, 5))
    pi = src._stationary
    brute = np.linalg.matrix_power(J, 200)[0]
    G = rng.uniform(0.2, 2.0, (4, 4))
    np.fill_diagonal(G, 0.0)
    np.fill_diagonal(G, -G.sum(axis=1))
    pi_g = FluidMarkovSource(G, np.zeros(4))._stationary
    brute_g = scipy.linalg.expm(G * 200.0)[0]
    stationary_ok = np.allclose(pi, brute, atol=1e-12) and np.allclose(
        pi_g, brute_g, atol=1e-12
    )

    # exact 5-block queue trace
    q = _lindley(np.array([3.0, 0.0, 4.0, 1.0, 0.0]), np.array([1.0, 2.0, 1.0, 3.0, 5.0]))
    lindley_ok = np.array_equal(q, np.array([2.0, 0.0, 3.0, 1.0, 0.0]))

    # seed reproducibility of the simulator
    cfg = loaded_sim(0.2, 10 ** 4, 11)
    rep_a, rep_b = simulate_queue(cfg), simulate_queue(cfg)
    seed_ok = json.dumps(rep_a.overflow_points) == json.dumps(rep_b.overflow_points) and (
        rep_a.theta_sim == rep_b.theta_sim
    )

    elapsed = time.perf_counter() - t0
    checks = {
        "bracketing": brackets_ok,
        "shape": shape_ok,
        "concavity": concave_ok,
        "stationary": stationary_ok,
        "lindley": lindley_ok,
        "seeds": seed_ok,
    }
    report(
        9,
        all(checks.values()) and elapsed < 60.0,
        f"{', '.join(k for k in checks)} all hold, {elapsed:.2f}s",
    )
