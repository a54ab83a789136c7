"""Workload inputs drawn from the run seed.

Pure Python (no numpy, no qoslink), so bench/run.py can build the CLI
command lines without importing the library it times.  The same seed
always gives the same inputs: every draw comes from one
``random.Random(seed)`` stream per workload, in a fixed order, and every
float is rounded so it prints the same on any platform.
"""

from __future__ import annotations

import json
import math
import random

WORKLOADS = ("cli-onoff", "nstate-correlated", "rho-sweep", "queue-sim")
CLI_COMMANDS = ("ebw", "ecap", "throughput", "energy", "simulate")

# criterion 8 of tests/test_acceptance.py: discrete ON/OFF p11 = p22 = 0.8
# on an i.i.d. m = 10 channel at 0 dB, loaded at lambda*(theta), 10^6 blocks
QUEUE_THETA = 0.2
QUEUE_SNR = 1.0
QUEUE_BLOCKS = 10 ** 6
QUEUE_P = 0.8
# the fluid and MMPP ON/OFF sources of the README's quick start and source
# examples (1.8 jumps per block), the input ROADMAP's simulator baseline is for
QUEUE_ALPHA = 9.0
QUEUE_BETA = 1.0
QUEUE_REL_TOL = 0.15


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _u(r: random.Random, lo: float, hi: float) -> float:
    return round(r.uniform(lo, hi), 6)


def _logu(r: random.Random, lo: float, hi: float) -> float:
    return round(math.exp(r.uniform(math.log(lo), math.log(hi))), 6)


def _grid(values) -> str:
    return ",".join(repr(v) for v in sorted(set(values)))


def cli_commands(seed: int, tiny: bool = False):
    """(name, argv after ``python -m qoslink.cli``) for the five commands of
    the README's CLI quick start, on ON/OFF sources and an i.i.d. channel."""
    r = _rng("cli-onoff", seed)
    iid = json.dumps({"m": 10, "rho": 0.0, "sigma_h_sq": 1.0})
    ebw_src = {"kind": "onoff-discrete", "p11": _u(r, 0.5, 0.95),
               "p22": _u(r, 0.5, 0.95), "lambda": _u(r, 0.5, 8.0)}
    ebw_theta = _grid(_logu(r, 0.05, 2.0) for _ in range(20))
    ecap_theta = _grid(_logu(r, 0.05, 2.0) for _ in range(5))
    ecap_snr = _grid(_u(r, -5.0, 20.0) for _ in range(8))
    tp_src = {"kind": "onoff-fluid", "alpha": _u(r, 0.5, 10.0),
              "beta": _u(r, 0.5, 10.0), "lambda": 2.0}
    tp_theta = _grid(_logu(r, 0.05, 2.0) for _ in range(2))
    tp_snr = _grid(_u(r, -5.0, 20.0) for _ in range(6))
    en_src = {"kind": "onoff-discrete", "p11": _u(r, 0.5, 0.95),
              "p22": _u(r, 0.5, 0.95), "lambda": 2.0}
    en_theta = _logu(r, 0.1, 2.0)
    en_snr = _grid(_u(r, -40.0, -10.0) for _ in range(13))
    sim_cfg = {
        "source": {"kind": "onoff-discrete", "p11": _u(r, 0.6, 0.9),
                   "p22": _u(r, 0.6, 0.9), "lambda": _u(r, 3.0, 8.0)},
        "channel": {"m": 10, "rho": 0.0, "sigma_h_sq": 1.0},
        "snr_db": 0.0,
        "n_blocks": 20000 if tiny else 50000,
    }
    sim_seed = r.randrange(2 ** 32)
    return [
        ("ebw", ["ebw", "--source", json.dumps(ebw_src), "--theta", ebw_theta]),
        ("ecap", ["ecap", "--channel", iid, "--method", "closed-iid",
                  "--theta", ecap_theta, f"--snr-db={ecap_snr}"]),
        ("throughput", ["throughput", "--source", json.dumps(tp_src),
                        "--channel", iid, "--theta", tp_theta,
                        f"--snr-db={tp_snr}"]),
        ("energy", ["energy", "--source", json.dumps(en_src), "--channel", iid,
                    "--theta", repr(en_theta), f"--snr-db={en_snr}"]),
        ("simulate", ["simulate", "--sim-config", json.dumps(sim_cfg),
                      "--seed", str(sim_seed)]),
    ]


def nstate_inputs(seed: int, tiny: bool = False) -> dict:
    """The sources and the energy theta are fixed, so the work per pass is
    the same for every seed: the numeric energy route's Richardson retries
    and the bisection's bracket both depend on them."""
    r = _rng("nstate-correlated", seed)
    points = 1 if tiny else 4
    return {
        "n": 50,
        "channel": {"m": 10, "rho": 0.5, "sigma_h_sq": 1.0},
        "binomial_s": 0.3,
        "bd_alpha": 1.0,
        "bd_beta": 2.0,
        "energy_theta": 0.2,
        "grid": [(_logu(r, 0.1, 1.0), _u(r, -5.0, 10.0)) for _ in range(points)],
        "sweep_theta": sorted(_logu(r, 0.05, 2.0) for _ in range(2 if tiny else 8)),
        "sweep_n": (2, 50) if tiny else (2, 50, 200),
        # ranges of criterion 1, where closed and eigen routes must agree
        "onoff": {"p11": _u(r, 0.05, 0.95), "p22": _u(r, 0.05, 0.95),
                  "lam": _u(r, 0.5, 8.0), "alpha": _u(r, 0.1, 20.0),
                  "beta": _u(r, 0.1, 20.0)},
        "bd_up": 0.3,
        "bd_down": 0.3,
        "degenerate": {"p": 0.99999, "lam": _u(r, 0.5, 8.0)},
    }


def rho_inputs(seed: int, tiny: bool = False) -> dict:
    r = _rng("rho-sweep", seed)
    count = 2 if tiny else 12
    rhos = set()
    while len(rhos) < count:
        rhos.add(_u(r, 0.01, 0.95))
    return {
        "rhos": sorted(rhos),
        "ms": (10, 100),
        "points": [(_logu(r, 0.1, 2.0), _u(r, -5.0, 10.0)) for _ in range(2)],
        "mc_rhos": (0.0, 0.5),
        "mc_samples": 2 * 10 ** 4 if tiny else 10 ** 6,
        "mc_theta": _logu(r, 0.1, 1.0),
        "mc_snr_db": _u(r, -5.0, 10.0),
        "mc_seed": r.randrange(2 ** 32),
    }


def queue_inputs(seed: int, tiny: bool = False) -> dict:
    r = _rng("queue-sim", seed)
    cells = [
        (family, rho, r.randrange(2 ** 32))
        for rho in (0.0, 0.5)
        for family in ("discrete", "fluid", "mmpp")
    ]
    return {"cells": cells, "n_blocks": 10 ** 5 if tiny else QUEUE_BLOCKS}
