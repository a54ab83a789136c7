"""qoslink benchmark: end-to-end and per-layer timings of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root (any checkout of it).  The library is
imported from ``src/`` of that checkout; nothing is installed.

--trace 0 measures the end-to-end metrics: ``setup_s`` (fresh
interpreter until ``import qoslink`` returns, median over fresh
processes), ``pass_rel`` (one pass over the workload in units of a fixed
calibration loop timed between its operations, median over passes) and
``peak_rss_mb``.  Passes repeat while the next one is expected to end
within S seconds; there is always at least one.

--trace 1 runs untraced and traced passes in alternating pairs, then
the layer probe, and reports the per-layer metrics: the probe's timings,
per-module call counts, failures and self time, and the tracing overhead.

Every output is checked (see bench/README.md).  Human-readable lines
come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with machine facts and every operation's latency summary, is written to
``.bench_out/``; in a traced run so are the spans.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import inputs
from spans import MODULES, Recorder, self_times, span_cost_s
from worker import EBW_REL_TOL, HostSpeed, digest

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

DEFAULT_SEED = 0  # the seed bench/digests.json was recorded at
DIGEST_MODULE = {"cli-onoff": "cli", "rho-sweep": "channel", "queue-sim": "queuesim"}
SETUP_REPEATS = 5  # fresh-import samples per run, at least
SETUP_FIRST = 2  # of them taken before the first pass; one follows each pass
CHILD_TIMEOUT_S = 150.0

# units of the ungated figures; every gated and per-layer metric takes its
# unit from BENCHMARK.json
NAMED_UNITS = {"sweep_s": "s", "sim_blocks_per_s": "blocks/s", "fail_frac": "ratio",
               "pass_s": "s", "cal_s": "s", "untraced_pass_s": "s", "traced_pass_s": "s",
               **{f"cli_{cmd}_s": "s" for cmd in inputs.CLI_COMMANDS}}


def load_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]} | NAMED_UNITS


def summary(samples) -> dict:
    """Median, and the highest percentile with at least ten samples
    beyond it (when there are at least 20), with the sample count."""
    xs = sorted(samples)
    out = {"median": statistics.median(xs), "n": len(xs)}
    if len(xs) >= 20:
        pct = int(100 * (len(xs) - 10) / len(xs))
        out[f"p{pct}"] = statistics.quantiles(xs, n=100, method="inclusive")[pct - 1]
    return out


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    return env


def run_child(argv, scratch: Path, env: dict):
    """(wall seconds, exit code, peak RSS MiB, stdout, stderr) of one child
    process, timed from just before it starts until it has exited."""
    out_path, err_path = scratch / "child.out", scratch / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, proc.returncode, usage.ru_maxrss / 1024.0,
            out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def machine_facts(env: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "git_commit": commit or None,
    }


class Bench:
    """One invocation: runs passes, checks outputs, counts operations."""

    def __init__(self, args):
        self.args = args
        self.env = child_env()
        self.scratch = OUT / f"scratch-{os.getpid()}"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.recorders = []
        self.ops = {}
        self.digests = json.loads((BENCH / "digests.json").read_text())
        self.first_digest = None
        self.first_produced = None

    def recorder(self, tracing: bool) -> Recorder:
        rec = Recorder(f"{self.args.workload}-{self.args.seed}-main-{len(self.recorders)}",
                       tracing)
        self.recorders.append(rec)
        return rec

    def add_ops(self, ops: dict) -> None:
        for name, xs in ops.items():
            self.ops.setdefault(name, []).extend(xs)

    def check_digest(self, rec: Recorder, module: str, got) -> None:
        """Same inputs must give the same seeded outputs in every pass; at
        the default seed they must match the recorded digests."""
        if self.first_digest is None:
            self.first_digest = got
        rec.check(module, got == self.first_digest,
                  f"output digest changed between passes: {got} vs {self.first_digest}")
        if self.args.seed == DEFAULT_SEED and not self.args.tiny:
            want = self.digests.get(self.args.workload)
            rec.check(module, got == want,
                      f"seeded output digest {got} differs from the recorded {want}")

    # -- setup -------------------------------------------------------------

    def setup_times(self, repeats: int, warm: bool = True):
        code = "import time, qoslink; print(time.time_ns())"
        argv = [sys.executable, "-c", code]
        if warm:
            self.child(argv)  # untimed: compiles bytecode, warms the file cache
        times = []
        for _ in range(repeats):
            t0 = time.time_ns()
            _, rc, _, out, err = self.child(argv)
            if rc != 0:
                raise RuntimeError(f"import qoslink failed:\n{err}")
            times.append((int(out.split()[-1]) - t0) / 1e9)
        return times

    def child(self, argv):
        return run_child(argv, self.scratch, self.env)

    # -- cli-onoff ---------------------------------------------------------

    def cli_pass(self, rec: Recorder):
        """The five commands as fresh processes, with a calibration loop
        before each and after the last.  Returns (wall without the loops,
        per-command walls, largest peak RSS, median loop time)."""
        walls, rss = {}, 0.0
        produced = {}
        host = HostSpeed()
        t0 = time.perf_counter()
        with rec.span("bench", "pass"):
            for name, argv in inputs.cli_commands(self.args.seed, self.args.tiny):
                host.sample(force=True)
                out_dir = self.scratch / "cli" / name
                shutil.rmtree(out_dir, ignore_errors=True)
                rec.calls["cli"] += 1
                with rec.span("cli", name):
                    wall, rc, peak, _, err = self.child(
                        [sys.executable, "-m", "qoslink.cli", *argv, "--out-dir", str(out_dir)])
                if rc != 0:
                    rec.reject("cli", f"{name} exited with {rc}: {err.strip()[-500:]}")
                    continue
                walls[name], rss = wall, max(rss, peak)
                produced[name] = self.check_cli_outputs(rec, name, out_dir)
            host.sample(force=True)
        total = time.perf_counter() - t0 - host.spent
        report = self.scratch / "cli" / "simulate" / "simulate_report.json"
        if "simulate" in produced:
            self.check_digest(rec, "cli", digest(json.loads(report.read_text())))
        self.check_repeat(rec, produced)
        return total, walls, rss, host.median()

    def check_repeat(self, rec, produced) -> None:
        """Deterministic commands must rewrite their data byte for byte."""
        if self.first_produced is None:
            self.first_produced = produced
        for name, files in produced.items():
            before = self.first_produced.get(name)
            rec.check("cli", before is None or before == files,
                      f"{name} outputs changed between passes")

    def check_cli_outputs(self, rec, name: str, out_dir: Path) -> dict:
        manifest = json.loads((out_dir / f"{name}_manifest.json").read_text())
        files = {o["file"]: o["sha256"] for o in manifest["outputs"]}
        if name == "ebw":
            with open(out_dir / "ebw.csv", newline="") as f:
                for row in csv.DictReader(f):
                    a, e = float(row["a_star"]), float(row["a_star_eigen"])
                    rec.check("cli", abs(a - e) <= EBW_REL_TOL * abs(a),
                              f"ebw closed {a!r} vs eigen {e!r} at theta {row['theta']}")
        for table in ("throughput.csv", "energy_curve.csv"):
            if table in files:
                with open(out_dir / table, newline="") as f:
                    for row in csv.DictReader(f):
                        rec.check("cli", not row["error"], f"{table}: {row['error']}")
        return files

    # -- library workloads -------------------------------------------------

    def worker(self, *flags: str):
        """One worker process.  Returns (its result or None, its peak RSS,
        the recorder holding its counts)."""
        out = self.scratch / "worker.json"
        out.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "worker.py"), "--workload", self.args.workload,
                "--seed", str(self.args.seed), "--out", str(out), *flags]
        if self.args.tiny:
            argv.append("--tiny")
        _, rc, peak, _, err = self.child(argv)
        sub = self.recorder(False)
        sub.calls["worker"] += 1
        if rc != 0 or not out.exists():
            sub.reject("worker", f"worker {' '.join(flags)} exited with {rc}: "
                                 f"{err.strip()[-2000:]}")
            return None, peak, sub
        result = json.loads(out.read_text())
        sub.calls.update(result["calls"])
        sub.failed.update(result["failed"])
        sub.errors.extend(result["errors"])
        sub.spans = result["spans"]
        self.add_ops(result.get("ops", {}))
        if "digest" in result:
            self.check_digest(sub, DIGEST_MODULE[self.args.workload], result["digest"])
        return result, peak, sub

    # -- the two modes -----------------------------------------------------

    def one_pass(self, tracing: bool):
        """One pass of the workload.  Returns (its wall time or None, the
        recorder holding its counts and spans, the worker's result with the
        pass's peak RSS added)."""
        if self.args.workload == "cli-onoff":
            rec = self.recorder(tracing)
            wall, per_cmd, peak, cal = self.cli_pass(rec)
            return wall, rec, {"cli_walls": per_cmd, "peak_rss_mb": peak, "cal_s": cal}
        result, peak, sub = self.worker("--pass", *(["--trace"] if tracing else []))
        if result is None:
            return None, sub, None
        return result["wall_s"], sub, result | {"peak_rss_mb": peak}

    def measure(self):
        """--trace 0: setup times and passes; end-to-end metrics.  Setup is
        timed before the first pass, after every pass, and at the end until
        there are SETUP_REPEATS samples, so its median covers the whole run
        and not one moment of it."""
        setup = self.setup_times(1 if self.args.tiny else SETUP_FIRST)
        detail = {}
        walls, rel, cal, elapsed = [], [], [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            wall, _, result = self.one_pass(False)
            if wall is None:
                break
            detail.setdefault("peak_rss_mb", []).append(result["peak_rss_mb"])
            if self.args.workload == "cli-onoff":
                for name, w in result["cli_walls"].items():
                    detail.setdefault(f"cli_{name}_s", []).append(w)
            elif self.args.workload == "queue-sim":
                sim_s = sum(sum(v) for k, v in result["ops"].items()
                            if k.startswith("queuesim.sim."))
                detail.setdefault("sim_blocks_per_s", []).append(result["blocks"] / sim_s)
            else:
                detail.setdefault("sweep_s", []).append(wall)
            walls.append(wall)
            cal.append(result["cal_s"])
            rel.append(wall / cal[-1])
            if not self.args.tiny:
                setup += self.setup_times(1, warm=False)
            elapsed.append(time.perf_counter() - t0)
            spent = time.perf_counter() - start
            if self.args.tiny or spent + statistics.median(elapsed) > self.args.seconds:
                break
        if not self.args.tiny and len(setup) < SETUP_REPEATS:
            setup += self.setup_times(SETUP_REPEATS - len(setup), warm=False)
        detail["setup_s"] = setup
        if walls:
            detail.update(pass_s=walls, pass_rel=rel, cal_s=cal)
        metrics = {name: statistics.median(detail[name])
                   for name in ("setup_s", "pass_rel", "peak_rss_mb") if name in detail}
        return metrics, detail

    def traced(self):
        """--trace 1: untraced and traced passes in alternating order, then
        the probe in a fresh process of its own; per-layer metrics.

        The first traced pass and the probe give the counts and self times.
        The tracing overhead is the median over the pairs of traced minus
        untraced wall time; there are at least two pairs, more while they
        fit in the run length."""
        self.setup_times(0)  # the same start as an untraced run
        walls = {False: [], True: []}
        first = None
        start = time.perf_counter()
        while True:
            order = (False, True) if len(walls[True]) % 2 == 0 else (True, False)
            for tracing in order:
                wall, rec, _ = self.one_pass(tracing)
                walls[tracing].append(math.nan if wall is None else wall)
                if tracing and first is None:
                    first = rec
            pairs = len(walls[True])
            spent = time.perf_counter() - start
            if self.args.tiny or (pairs >= 2 and spent * (pairs + 1) / pairs > self.args.seconds):
                break
        probe, _, sub = self.worker("--probe", "--trace")
        recs = [first, sub]
        metrics = dict(probe["probe"]) if probe else {}
        spans = [s for r in recs for s in r.spans]
        selfs = self_times(spans)
        for m in MODULES:
            metrics[f"{m}.calls"] = sum(r.calls[m] for r in recs)
            metrics[f"{m}.failed"] = sum(r.failed[m] for r in recs)
            metrics[f"{m}.self_s"] = selfs.get(m, 0.0)
        metrics["trace.overhead_s"] = statistics.median(
            t - u for u, t in zip(walls[False], walls[True]))
        metrics["trace.span_cost_s"] = len(first.spans) * span_cost_s()
        spans_path = OUT / f"spans-{self.args.workload}-seed{self.args.seed}.json"
        spans_path.write_text(json.dumps(spans))
        detail = {"untraced_pass_s": walls[False], "traced_pass_s": walls[True]}
        return {k: v for k, v in metrics.items() if math.isfinite(v)}, detail

    def close(self):
        shutil.rmtree(self.scratch, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qoslink benchmark")
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs, one pass: for the smoke test only")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qoslink" / "__init__.py").is_file():
        print(f"error: no qoslink sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    bench = Bench(args)
    try:
        metrics, detail = bench.traced() if args.trace else bench.measure()
    finally:
        bench.close()

    attempted = sum(sum(r.calls.values()) for r in bench.recorders)
    failed = sum(sum(r.failed.values()) for r in bench.recorders)
    errors = [e for r in bench.recorders for e in r.errors]
    facts = machine_facts(bench.env)
    units = load_units()
    named = {name: summary(xs) | {"unit": units[name], "samples": xs}
             for name, xs in detail.items()}
    named["fail_frac"] = {"median": failed / max(attempted, 1), "n": attempted,
                          "unit": units["fail_frac"]}

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in facts.items()))
    for name, s in named.items():
        rest = " ".join(f"{k}={v:.6g}" for k, v in s.items()
                        if k not in ("median", "unit", "samples"))
        print(f"{name:34s} {s['median']:14.6g} {s['unit']:9s} {rest}")
    if args.trace:
        for name, value in sorted(metrics.items()):
            print(f"{name:34s} {value:14.6g} {units[name]}")
    for name, xs in sorted(bench.ops.items()):
        s = summary(xs)
        rest = " ".join(f"{k}={v * 1e3:.4g}ms" for k, v in s.items() if k.startswith("p"))
        print(f"  op {name:40s} median={s['median'] * 1e3:.4g}ms {rest} n={s['n']}")
    for e in errors:
        print(f"FAILED {e}")

    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted > 0 else 1,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "facts": facts, "named": named,
                    "ops": {k: summary(v) for k, v in bench.ops.items()},
                    "errors": errors, **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
