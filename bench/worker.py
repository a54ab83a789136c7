"""One pass of a library workload, and the layer probe, in a fresh process.

    python bench/worker.py --workload NAME --seed N --out FILE
                           [--pass] [--probe] [--trace] [--tiny]

bench/run.py starts one worker per pass, so every pass
imports qoslink afresh: quadrature kernels are cold in every pass of
``rho-sweep`` and peak RSS covers one pass only.  The timed region
starts after the import.  The result goes to FILE as JSON.

Only names exported from ``qoslink`` and ``qoslink.cli.main`` are used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import inputs
from spans import Recorder

ROOT = Path(__file__).resolve().parents[1]

EBW_REL_TOL = 1e-9  # closed form vs eigen route, criterion 1
CAL_ITERATIONS = 2 * 10 ** 5  # one calibration loop: about 15 ms on a 2.1 GHz Xeon
CAL_EVERY_S = 0.25  # at most one calibration loop per this much pass time
SOLVER_REL_TOL = 1e-9  # max_avg_rate_nstate residual, relative to max(1, C_E)
MC_SIGMAS = 6.0  # Monte Carlo C_E vs quadrature, in standard errors


def _db(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _rounded(x):
    if isinstance(x, float):
        return float(f"{x:.9g}") if math.isfinite(x) else repr(x)
    if isinstance(x, (list, tuple)):
        return [_rounded(v) for v in x]
    if isinstance(x, dict):
        return {k: _rounded(v) for k, v in x.items()}
    return x


def digest(material) -> str:
    """sha256 of seeded outputs with floats rounded to 9 significant
    digits: a moved random stream or changed arithmetic shows, while the
    last-bit differences of another CPU's vector math do not (the pinned
    simulator golden in tests/test_queuesim.py uses the same 1e-9)."""
    text = json.dumps(_rounded(material), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def calibration_loop_s() -> float:
    """Wall time of a fixed pure-Python loop that calls no library."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


class HostSpeed:
    """Calibration loops timed between the operations of a pass, never
    while the program runs, and the same code for every commit: what moves
    them is the host.  The shared host's speed drifts by 20% and more within
    minutes; a pass time divided by the median loop time of the same pass
    cancels most of that drift."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # wall time of the loops, to take out of the pass
        self._due = 0.0

    def sample(self, force: bool = False) -> None:
        """Times one loop if CAL_EVERY_S has gone by since the last one."""
        now = time.perf_counter()
        if force or now >= self._due:
            self.samples.append(calibration_loop_s())
            end = time.perf_counter()
            self.spent += end - now
            self._due = end + CAL_EVERY_S

    def median(self) -> float:
        return statistics.median(self.samples)


class Pass:
    """Timed operations of one pass; a failed operation yields None."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.ops = defaultdict(list)
        self.host = HostSpeed()

    def op(self, name: str, module: str, fn, *args, **kwargs):
        self.host.sample()
        t0 = time.perf_counter()
        try:
            out = self.rec.call(module, fn, *args, **kwargs)
        except Exception:  # recorded by the recorder; the pass goes on
            return None
        self.ops[name].append(time.perf_counter() - t0)
        return out


def birth_death_discrete(q, n: int, up: float, down: float):
    """Lazy reflecting random walk on n states with rates 0..n-1: a
    discrete chain whose Perron root has a small spectral gap."""
    import numpy as np

    P = np.zeros((n, n))
    idx = np.arange(n)
    P[idx[:-1], idx[:-1] + 1] = up
    P[idx[1:], idx[1:] - 1] = down
    P[idx, idx] = 1.0 - P.sum(axis=1)
    return q.DiscreteMarkovSource(P, np.arange(n, dtype=float))


def nstate_pass(q, p: Pass, inp: dict) -> dict:
    """Three n=50 sources on an m=10, rho=0.5 channel, plus the eigen
    sweep and the numeric energy route."""
    rec = p.rec
    spec = q.ChannelSpec(**inp["channel"])
    n = inp["n"]
    disc = p.op("sources.build.n50", "energy", q.build_binomial_discrete_source,
                n, inp["binomial_s"], 1.0)
    fluid = p.op("sources.build.n50", "energy", q.build_birth_death_fluid,
                 n, inp["bd_alpha"], inp["bd_beta"], 1.0)
    mmpp = p.op("sources.build.n50", "sources", q.MmppSource,
                fluid.generator, fluid.rates) if fluid is not None else None
    families = {
        "discrete": (disc, q.DiscreteMarkovSource, q.effective_bandwidth_discrete),
        "fluid": (fluid, q.FluidMarkovSource, q.effective_bandwidth_fluid),
        "mmpp": (mmpp, q.MmppSource, q.effective_bandwidth_mmpp),
    }

    for theta, snr_db in inp["grid"]:
        est = p.op("channel.quad_warm.m10", "channel",
                   q.effective_capacity_quadrature, spec, _db(snr_db), theta)
        if est is None:
            continue
        ce = est.value
        for family, (src, cls, eb) in families.items():
            if src is None:
                continue
            res = p.op(f"throughput.nstate.{family}", "throughput",
                       q.max_avg_rate_nstate, src, theta, ce)
            if res is None:
                continue
            shape = src.rates if family != "mmpp" else src.intensities
            gen = src.transition_probs if family == "discrete" else src.generator
            scaled = p.op("sources.build.n50", "sources", cls, gen, res.lambda_star * shape)
            a = p.op("sources.eigen.check", "sources", eb, scaled, theta) if scaled else None
            if a is not None:
                rec.check("throughput", abs(a - ce) <= SOLVER_REL_TOL * max(1.0, ce),
                          f"{family}: a*(lambda*) = {a!r} vs C_E = {ce!r} at theta {theta}")

    on = inp["onoff"]
    d2 = q.OnOffDiscreteParams(on["p11"], on["p22"], on["lam"])
    c2 = q.OnOffContinuousParams(on["alpha"], on["beta"], on["lam"])
    deg = q.OnOffDiscreteParams(inp["degenerate"]["p"], inp["degenerate"]["p"],
                                inp["degenerate"]["lam"])
    pairs = {  # eigen-route source, eigen route, closed form, its params
        "n2": [
            (q.as_discrete_source(d2), q.effective_bandwidth_discrete,
             q.effective_bandwidth_onoff_discrete, d2),
            (q.as_fluid_source(c2), q.effective_bandwidth_fluid,
             q.effective_bandwidth_onoff_fluid, c2),
            (q.as_mmpp_source(c2), q.effective_bandwidth_mmpp,
             q.effective_bandwidth_onoff_mmpp, c2),
        ],
        "degenerate": [(q.as_discrete_source(deg), q.effective_bandwidth_discrete,
                        q.effective_bandwidth_onoff_discrete, deg)],
    }
    for size in inp["sweep_n"]:
        if size == 2:
            continue
        build = f"sources.build.n{size}"
        bd = p.op(build, "energy", q.build_birth_death_fluid,
                  size, inp["bd_alpha"], inp["bd_beta"], 1.0)
        rows = [(p.op(build, "sources", birth_death_discrete, q, size, inp["bd_up"],
                      inp["bd_down"]), q.effective_bandwidth_discrete)]
        if bd is not None:
            rows += [(bd, q.effective_bandwidth_fluid),
                     (p.op(build, "sources", q.MmppSource, bd.generator, bd.rates),
                      q.effective_bandwidth_mmpp)]
        pairs[f"n{size}"] = [(src, eb, None, None) for src, eb in rows if src is not None]
    for label, rows in pairs.items():
        for theta in inp["sweep_theta"]:
            for src, eigen, closed, params in rows:
                a = p.op(f"sources.eigen.{label}", "sources", eigen, src, theta)
                if a is None or closed is None:
                    continue
                c = p.op("sources.ebw_closed", "sources", closed, params, theta)
                if c is not None:
                    rec.check("sources", _rel(a, c) <= EBW_REL_TOL,
                              f"{label} {eigen.__name__}: eigen {a!r} vs closed {c!r} "
                              f"at theta {theta}")

    for family, (src, _, _) in families.items():
        if src is not None:
            p.op(f"energy.numeric.{family}", "energy", q.numeric_energy_metrics,
                 "nstate", spec, inp["energy_theta"], source=src)
    return {}


def rho_pass(q, p: Pass, inp: dict) -> dict:
    """Cold quadrature kernels over many distinct rho, then Monte Carlo."""
    rec = p.rec
    for rho in inp["rhos"]:
        first = True
        for m in inp["ms"]:
            spec = q.ChannelSpec(m, rho, 1.0)
            for theta, snr_db in inp["points"]:
                name = "channel.quad_cold" if first else f"channel.quad_warm.m{m}"
                first = False
                est = p.op(name, "channel", q.effective_capacity_quadrature,
                           spec, _db(snr_db), theta)
                erg = p.op("channel.ergodic", "channel", q.ergodic_capacity, spec, _db(snr_db))
                if est is not None and erg is not None:
                    # Jensen: C_E never exceeds the ergodic capacity
                    rec.check("channel", 0.0 < est.value <= erg * (1 + 1e-9),
                              f"rho {rho} m {m}: C_E {est.value!r} vs ergodic {erg!r}")
    material = []
    snr = _db(inp["mc_snr_db"])
    theta = inp["mc_theta"]
    for rho in inp["mc_rhos"]:
        spec = q.ChannelSpec(10, rho, 1.0)
        tag = "rho0" if rho == 0.0 else "rho05"
        mc = p.op(f"channel.mc.{tag}", "channel", q.effective_capacity_mc, spec, snr,
                  theta, n_samples=inp["mc_samples"], seed=inp["mc_seed"])
        ref = p.op("channel.quad_warm.m10", "channel", q.effective_capacity_quadrature,
                   spec, snr, theta)
        if mc is None or ref is None:
            continue
        material.append([mc.value, mc.std_error])
        rec.check("channel", abs(mc.value - ref.value) <= MC_SIGMAS * mc.std_error + 1e-12,
                  f"{tag}: MC {mc.value!r} +- {mc.std_error!r} vs quadrature {ref.value!r}")
    return {"digest": digest(material)}


def cell_name(family: str, rho: float) -> str:
    return f"{family}-{'rho0' if rho == 0.0 else 'rho05'}"


def queue_cell(q, p: Pass, family: str, rho: float, seed: int, n_blocks: int, name: str):
    """Loads one ON/OFF source at lambda*(theta) of the channel's C_E and
    simulates it.  Returns (report, C_E) or None."""
    spec = q.ChannelSpec(10, rho, 1.0)
    theta, snr = inputs.QUEUE_THETA, inputs.QUEUE_SNR
    if rho == 0.0:
        est = p.op("channel.ce_closed_iid", "channel",
                   q.effective_capacity_rayleigh_iid, snr, theta, 10)
    else:
        est = p.op("channel.ce_quad", "channel",
                   q.effective_capacity_quadrature, spec, snr, theta)
    if est is None:
        return None
    ce = est.value
    if family == "discrete":
        solver, args = q.max_avg_rate_onoff_discrete, (inputs.QUEUE_P, inputs.QUEUE_P)
    elif family == "fluid":
        solver, args = q.max_avg_rate_onoff_fluid, (inputs.QUEUE_ALPHA, inputs.QUEUE_BETA)
    else:
        solver, args = q.max_avg_rate_onoff_mmpp, (inputs.QUEUE_ALPHA, inputs.QUEUE_BETA)
    res = p.op("throughput.closed", "throughput", solver, ce, theta, *args)
    if res is None:
        return None
    lam = res.lambda_star
    if family == "discrete":
        source = q.OnOffDiscreteParams(inputs.QUEUE_P, inputs.QUEUE_P, lam)
    elif family == "fluid":
        source = q.as_fluid_source(q.OnOffContinuousParams(*args, lam))
    else:
        source = q.as_mmpp_source(q.OnOffContinuousParams(*args, lam))
    cfg = q.SimConfig(source=source, channel=spec, snr=snr, n_blocks=n_blocks, seed=seed)
    report = p.op(name, "queuesim", q.simulate_queue, cfg)
    return None if report is None else (report, ce)


def queue_pass(q, p: Pass, inp: dict) -> dict:
    """Six simulator cells at 10^6 blocks: {discrete, fluid, mmpp} x rho."""
    rec = p.rec
    material, blocks = {}, 0
    theta = inputs.QUEUE_THETA
    full = inp["n_blocks"] == inputs.QUEUE_BLOCKS
    for family, rho, seed in inp["cells"]:
        cell = cell_name(family, rho)
        out = queue_cell(q, p, family, rho, seed, inp["n_blocks"], f"queuesim.sim.{cell}")
        if out is None:
            continue
        rep, ce = out
        blocks += inp["n_blocks"]
        material[cell] = [rep.theta_sim, rep.delay_slope_sim, rep.overflow_points,
                          rep.delay_points, rep.varsigma_hat, rep.varsigma_ratio]
        rec.check("queuesim", math.isfinite(rep.theta_sim) and math.isfinite(rep.delay_slope_sim),
                  f"{cell}: slopes {rep.theta_sim!r}, {rep.delay_slope_sim!r}")
        if cell == "discrete-rho0" and full:
            # criterion 8 is stated at 10^6 blocks
            e_q = abs(rep.theta_sim - theta) / theta
            e_d = abs(rep.delay_slope_sim - theta * ce) / (theta * ce)
            rec.check("queuesim", max(e_q, e_d) <= inputs.QUEUE_REL_TOL,
                      f"{cell}: overflow / delay slope errors {e_q:.4f} / {e_d:.4f} "
                      f"exceed {inputs.QUEUE_REL_TOL}")
    return {"digest": digest(material), "blocks": blocks}


PASSES = {
    "nstate-correlated": (nstate_pass, inputs.nstate_inputs),
    "rho-sweep": (rho_pass, inputs.rho_inputs),
    "queue-sim": (queue_pass, inputs.queue_inputs),
}


def warm_up(q, workload: str, inp: dict) -> None:
    """Work done before the timer starts.  nstate-correlated times its
    channel warm: its one quadrature kernel is built here."""
    if workload == "nstate-correlated":
        q.effective_capacity_quadrature(q.ChannelSpec(**inp["channel"]), 1.0, 0.5)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(PASSES) + ["cli-onoff"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--pass", dest="run_pass", action="store_true")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    import qoslink as q
    import qoslink.cli

    src = (ROOT / "src").resolve()
    if src not in Path(q.__file__).resolve().parents:
        print(f"qoslink imported from {q.__file__}, not from {src}", file=sys.stderr)
        return 2

    rec = Recorder(f"{args.workload}-{args.seed}-worker-{os.getpid()}", args.trace)
    result = {}
    if args.run_pass:
        run, make = PASSES[args.workload]
        inp = make(args.seed, args.tiny)
        warm_up(q, args.workload, inp)
        p = Pass(rec)
        t0 = time.perf_counter()
        with rec.span("bench", "pass"):
            extra = run(q, p, inp)
            p.host.sample(force=True)
        result["wall_s"] = time.perf_counter() - t0 - p.host.spent
        result["cal_s"] = p.host.median()
        result["ops"] = p.ops
        result.update(extra)
    if args.probe:
        import probe

        with rec.span("bench", "probe"):
            result["probe"] = probe.run(q, qoslink.cli.main, rec, args.seed, args.tiny,
                                        Path(args.out).parent / "probe")
    result.update(calls=rec.calls, failed=rec.failed, errors=rec.errors, spans=rec.spans)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
