"""Per-layer probe: each module timed on its own, on fixed small inputs.

Every traced run ends with this probe, whatever the workload, so each
per-layer metric is measured in every traced run.  Each item times a
loop of calls into one module and reports the median over repeats.  One
span wraps each item's whole loop, not each call, so the timings carry
no tracing cost while the item still counts as the module's self time.
"""

from __future__ import annotations

import contextlib
import io
import math
import resource
import statistics
import time
from pathlib import Path

import inputs
from worker import Pass, birth_death_discrete, cell_name, queue_cell


def _rss_mb() -> float:
    """Current resident set in MiB (Linux), else the peak so far."""
    try:
        pages = int(Path("/proc/self/statm").read_text().split()[1])
        return pages * resource.getpagesize() / 2 ** 20
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Probe:
    def __init__(self, rec):
        self.rec = rec
        self.metrics = {}

    def time(self, module, metric, fn, *, reps=5, inner=1, per=1, scale=1.0):
        """Median over ``reps`` of the mean time of ``inner`` calls of fn,
        divided by ``per`` (calls into the module per fn call) and
        multiplied by ``scale`` (the metric's unit per second)."""
        samples = []
        try:
            with self.rec.span(module, metric):
                for _ in range(reps):
                    t0 = time.perf_counter()
                    for _ in range(inner):
                        fn()
                    samples.append((time.perf_counter() - t0) / inner)
        except Exception as exc:  # the probe goes on; the run is marked failed
            self.rec.reject(module, f"probe {metric}: {type(exc).__name__}: {exc}")
            return
        finally:
            self.rec.calls[module] += per * inner * len(samples)
        self.metrics[metric] = statistics.median(samples) / per * scale

    def value(self, module, metric, fn, *, calls=0):
        """A value that is not a time, from ``calls`` calls into the module."""
        self.rec.calls[module] += calls
        try:
            with self.rec.span(module, metric):
                self.metrics[metric] = fn()
        except Exception as exc:
            self.rec.reject(module, f"probe {metric}: {type(exc).__name__}: {exc}")


def run(q, cli_main, rec, seed: int, tiny: bool, out_dir: Path) -> dict:
    pr = Probe(rec)
    US, MS = 1e6, 1e3
    theta, snr = 0.5, 1.0
    d2 = q.OnOffDiscreteParams(0.8, 0.7, 2.0)
    c2 = q.OnOffContinuousParams(2.0, 3.0, 2.0)
    deg = q.OnOffDiscreteParams(0.99999, 0.99999, 2.0)

    # sources
    pr.time("sources", "sources.ebw_closed_us", lambda: (
        q.effective_bandwidth_onoff_discrete(d2, theta),
        q.effective_bandwidth_onoff_fluid(c2, theta),
        q.effective_bandwidth_onoff_mmpp(c2, theta)), inner=200, per=3, scale=US)
    by_n = {2: [(q.as_discrete_source(d2), q.effective_bandwidth_discrete),
                (q.as_fluid_source(c2), q.effective_bandwidth_fluid),
                (q.as_mmpp_source(c2), q.effective_bandwidth_mmpp)]}
    for n in (50, 200):
        bd = q.build_birth_death_fluid(n, 1.0, 2.0, 1.0)
        by_n[n] = [(birth_death_discrete(q, n, 0.3, 0.3), q.effective_bandwidth_discrete),
                   (bd, q.effective_bandwidth_fluid),
                   (q.MmppSource(bd.generator, bd.rates), q.effective_bandwidth_mmpp)]
    inner = {2: 20, 50: 3, 200: 1}
    for n, rows in by_n.items():
        # one sweep point: the eigen route of all three families at this n
        pr.time("sources", f"sources.ebw_eigen_ms.n{n}",
                lambda rows=rows: [eb(src, theta) for src, eb in rows],
                reps=3 if n == 200 else 5, inner=inner[n], scale=MS)
    deg_src = q.as_discrete_source(deg)
    pr.time("sources", "sources.ebw_eigen_ms.degenerate",
            lambda: q.effective_bandwidth_discrete(deg_src, theta), inner=10, scale=MS)
    p50 = birth_death_discrete(q, 50, 0.3, 0.3)
    pr.time("sources", "sources.build_ms.n50",
            lambda: q.DiscreteMarkovSource(p50.transition_probs, p50.rates),
            inner=20, scale=MS)
    docs = [{"kind": "onoff-discrete", "p11": 0.8, "p22": 0.7, "lambda": 2.0},
            {"kind": "onoff-fluid", "alpha": 2.0, "beta": 3.0, "lambda": 2.0},
            {"kind": "onoff-mmpp", "alpha": 2.0, "beta": 3.0, "lambda": 2.0}]
    pr.time("sources", "sources.from_json_us",
            lambda: [q.source_from_json(d) for d in docs], inner=100, per=3, scale=US)

    # channel: three never-seen rho values give three cold kernel builds
    iid = q.ChannelSpec(10, 0.0, 1.0)
    pr.time("channel", "channel.ce_closed_iid_ms",
            lambda: q.effective_capacity_rayleigh_iid(snr, theta, 10), inner=20, scale=MS)
    cold = [q.ChannelSpec(10, 0.3 + 0.2 * k + 1e-7 * (1 + seed % 997), 1.0) for k in range(3)]
    cold_iter = iter(cold)
    before = _rss_mb()
    pr.time("channel", "channel.ce_quad_cold_ms",
            lambda: q.effective_capacity_quadrature(next(cold_iter), snr, theta),
            reps=len(cold), scale=MS)
    pr.value("channel", "channel.rss_mb_per_rho", lambda: (_rss_mb() - before) / len(cold))
    for m, n_inner in ((10, 10), (100, 2)):
        spec = q.ChannelSpec(m, cold[0].rho, 1.0)
        pr.time("channel", f"channel.ce_quad_warm_ms.m{m}",
                lambda spec=spec: q.effective_capacity_quadrature(spec, snr, theta),
                inner=n_inner, scale=MS)
    n_mc = 2 * 10 ** 4 if tiny else 25 * 10 ** 4
    for rho, tag in ((0.0, "rho0"), (0.5, "rho05")):
        spec = q.ChannelSpec(10, rho, 1.0)
        pr.time("channel", f"channel.ce_mc_s_per_1e6.{tag}",
                lambda spec=spec: q.effective_capacity_mc(spec, snr, theta, n_samples=n_mc,
                                                          seed=seed),
                reps=2, scale=1e6 / n_mc)
    pr.time("channel", "channel.ergodic_ms", lambda: q.ergodic_capacity(iid, snr),
            inner=20, scale=MS)

    # throughput
    ce = q.effective_capacity_quadrature(cold[0], snr, theta).value
    pr.time("throughput", "throughput.closed_us", lambda: (
        q.max_avg_rate_onoff_discrete(ce, theta, 0.8, 0.7),
        q.max_avg_rate_onoff_fluid(ce, theta, 2.0, 3.0),
        q.max_avg_rate_onoff_mmpp(ce, theta, 2.0, 3.0)), inner=200, per=3, scale=US)
    fluid50 = q.build_birth_death_fluid(50, 1.0, 2.0, 1.0)
    n50 = {"discrete": q.build_binomial_discrete_source(50, 0.3, 1.0),
           "fluid": fluid50,
           "mmpp": q.MmppSource(fluid50.generator, fluid50.rates)}
    for family, src in n50.items():
        pr.time("throughput", f"throughput.nstate_ms.{family}",
                lambda src=src: q.max_avg_rate_nstate(src, theta, ce),
                reps=1 if tiny else 3, scale=MS)

    # energy
    pr.time("energy", "energy.closed_us", lambda: (
        q.energy_metrics_onoff_discrete(cold[0], theta, 0.8, 0.7),
        q.energy_metrics_onoff_fluid(cold[0], theta, 2.0, 3.0),
        q.energy_metrics_onoff_mmpp(cold[0], theta, 2.0, 3.0)), inner=20, per=3, scale=US)
    snr_grid = [10.0 ** (db / 10.0) for db in range(-40, -9, 5)]
    pr.time("energy", "energy.ebn0_point_ms",
            lambda: q.ebn0_curve("discrete", iid, theta, snr_grid, p11=0.8, p22=0.7),
            reps=3, per=len(snr_grid), scale=MS)
    for family, src in n50.items():
        pr.time("energy", f"energy.numeric_ms.{family}",
                lambda src=src: q.numeric_energy_metrics("nstate", cold[0], 0.2, source=src),
                reps=1, scale=MS)

    def slope_err():
        numeric = q.numeric_energy_metrics("nstate", cold[0], 0.1, source=q.as_fluid_source(c2))
        closed = q.energy_metrics_onoff_fluid(cold[0], 0.1, c2.alpha, c2.beta)
        return abs(numeric.wideband_slope - closed.wideband_slope) / closed.wideband_slope

    pr.value("energy", "energy.numeric_slope_rel_err", slope_err, calls=2)

    # queuesim: the six cells of queue-sim at a tenth of the size
    n_blocks = 2 * 10 ** 4 if tiny else 10 ** 5
    p = Pass(rec)
    fit_points = None
    for family, rho, cell_seed in inputs.queue_inputs(seed)["cells"]:
        cell = cell_name(family, rho)
        with rec.span("queuesim", f"probe.{cell}"):
            out = queue_cell(q, p, family, rho, cell_seed, n_blocks, cell)
        if out is None:
            continue
        report, _ = out
        pr.metrics[f"queuesim.sim_s_per_1e6.{cell}"] = p.ops[cell][0] * 1e6 / n_blocks
        pr.metrics[f"queuesim.overflow_points.{cell}"] = len(report.overflow_points)
        pr.metrics[f"queuesim.delay_points.{cell}"] = len(report.delay_points)
        if cell == "discrete-rho0":
            fit_points = report.overflow_points
    if fit_points is not None:
        pr.time("queuesim", "queuesim.fit_decay_slope_us",
                lambda: q.fit_decay_slope(fit_points), inner=100, scale=US)

    # cli: each command of cli-onoff run in process, without start-up
    with contextlib.redirect_stdout(io.StringIO()):
        for name, argv in inputs.cli_commands(seed, tiny):
            out = str(out_dir / name)

            def command(argv=argv, out=out):
                code = cli_main(argv + ["--out-dir", out])
                if code != 0:
                    raise RuntimeError(f"qoslink {argv[0]} exited with {code}")

            pr.time("cli", f"cli.main_ms.{name}", command, reps=1 if tiny else 3, scale=MS)
    return {k: v for k, v in pr.metrics.items() if math.isfinite(v)}
