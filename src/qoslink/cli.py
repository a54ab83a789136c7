"""Command line front end: sweeps, energy metrics and queue simulations.

``main`` is the one driver.  It resolves the options (flags override an
optional JSON config file), makes --out-dir, runs the command and
writes ``<command>_manifest.json``: each data file the command returns,
with its sha256, the seed the command drew on, and as ``params`` every
resolved option but --out-dir, --config and --seed, so that ``params``
and ``seed`` replayed through --config reproduce the data.  A command
only writes its data files.  Data files are deterministic: fixed column
order, rows sorted by (theta, snr_db), '.' decimals, LF line endings, 17
significant digits, and every randomized computation demands an
explicit --seed.  dB to linear conversion happens here and only here;
the library wants linear snr throughout.  The CLI only parses and
formats: the source document becomes a typed source object, and which
closed form, eigen route or solver applies is the library's choice,
read from that type.

Exit codes: 0 success, 2 invalid inputs, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .channel import capacity_function, channel_spec_from_json
from .energy import source_ebn0_curve, source_energy_metrics, source_kind
from .errors import QoslinkError, ValidationError, _check_seed, _exact_number, _known_fields
from .queuesim import SimConfig, simulate_queue
from .sources import source_from_json
from .throughput import max_avg_rate

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


# ---------------------------------------------------------------------------
# Input parsing
# ---------------------------------------------------------------------------


def _load_json_arg(text, field: str) -> dict:
    """Accepts inline JSON (starts with '{'), a JSON file path, or an
    already-parsed object coming from a config file."""
    if isinstance(text, dict):
        return text
    if not isinstance(text, str):
        raise ValidationError(field, "expected a JSON object or a path")
    if text.strip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(field, f"inline JSON does not parse: {exc}")
    else:
        path = Path(text)
        if not path.is_file():
            raise ValidationError(field, f"no such file: {text}")
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValidationError(field, f"{text} does not parse: {exc}")
    if not isinstance(doc, dict):
        raise ValidationError(field, "expected a JSON object")
    return doc


def _parse_grid(value, path: str) -> list:
    """A grid: 'a,b,c' | 'lin:lo:hi:n' | 'log:lo:hi:n', or a JSON number
    or list of numbers; sorted, without repeats."""
    if isinstance(value, list):
        vals = np.array([_exact_number(path, float, v) for v in value])
    elif not isinstance(value, str):
        vals = np.array([_exact_number(path, float, value)])
    else:
        try:
            if value.startswith(("lin:", "log:")):
                kind, lo, hi, count = value.split(":")
                lo, hi, count = float(lo), float(hi), int(count)
                if count < 1 or hi < lo:
                    raise ValueError("need lo <= hi and count >= 1")
                if kind == "log":
                    if lo <= 0:
                        raise ValueError("log spacing needs lo > 0")
                    vals = np.geomspace(lo, hi, count)
                else:
                    vals = np.linspace(lo, hi, count)
            else:
                vals = np.array([float(v) for v in value.split(",")])
        except ValueError as exc:
            raise ValidationError(path, f"bad grid {value!r}: {exc}")
    if vals.size == 0 or not np.all(np.isfinite(vals)):
        raise ValidationError(path, "grid must be nonempty and finite")
    return sorted(set(float(v) for v in vals))


def _require_seed(seed):
    """The seed of a randomized command, which must be given; whatever
    runs on it checks its range."""
    if seed is None:
        raise ValidationError("seed", "randomized commands need an explicit --seed")
    return seed


def _nested(path: str, build, doc):
    """``build(doc)`` for a document nested at ``path``: its
    ValidationError names the field under that path."""
    try:
        return build(doc)
    except ValidationError as exc:
        inner = "" if exc.field_path == "$" else f".{exc.field_path}"
        raise ValidationError(path + inner, exc.message) from exc


def _db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


# ---------------------------------------------------------------------------
# Output writing
# ---------------------------------------------------------------------------


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    return value


def _write_rows(out_dir: Path, base: str, fmt: str, columns, rows,
                col_formats=None) -> Path:
    """One table, either as CSV (formatted cells) or JSON (typed cells)."""
    col_formats = col_formats or {}
    if fmt == "csv":
        path = out_dir / f"{base}.csv"
        with open(path, "w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                cells = []
                for c in columns:
                    value = row.get(c)
                    spec = col_formats.get(c)
                    if spec is not None and value is not None:
                        cells.append(format(float(value), spec))
                    else:
                        cells.append(_fmt_cell(value))
                writer.writerow(cells)
    else:
        path = out_dir / f"{base}.json"
        doc = [{c: _json_safe(row.get(c)) for c in columns} for row in rows]
        path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def _write_json(out_dir: Path, name: str, doc: dict) -> Path:
    path = out_dir / name
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


# the resolved options a manifest's params leave out: where the run
# wrote, where its options came from, and the seed, recorded on its own
_UNRECORDED = ("out_dir", "config", "seed")


def _write_manifest(out_dir, command, opts, seed, outputs, started, finished) -> Path:
    params = {name: value for name, value in vars(opts).items() if name not in _UNRECORDED}
    doc = {
        "command": command,
        "params": params,
        "seed": seed,
        "version": __version__,
        "started": started,
        "finished": finished,
        "outputs": [
            {"file": p.name, "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
            for p in outputs
        ],
    }
    return _write_json(out_dir, f"{command}_manifest.json", doc)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _capacity(opts):
    """The command's capacity function by --method (linear snr, theta ->
    EffCapEstimate) and the seed it draws on, None unless Monte Carlo."""
    spec = channel_spec_from_json(opts.channel)
    seed = _check_seed("seed", _require_seed(opts.seed)) if opts.method == "mc" else None
    try:
        return capacity_function(spec, opts.method, n_samples=opts.n_samples, seed=seed), seed
    except ValueError as exc:
        raise ValidationError("method", str(exc)) from exc


def _cmd_ebw(opts, out_dir):
    src = source_from_json(opts.source)
    # a matrix source is its own twin: its one route is the eigen route
    twin = src.as_matrix()
    rows = [{"theta": th, "a_star": src.effective_bandwidth(th),
             "a_star_eigen": twin.effective_bandwidth(th) if twin is not src else None}
            for th in opts.theta]
    columns = ("theta", "a_star", "a_star_eigen")
    return [_write_rows(out_dir, "ebw", opts.format, columns, rows)], None


def _cmd_ecap(opts, out_dir):
    cap, seed = _capacity(opts)
    rows = []
    for th in opts.theta:
        for snr_db in opts.snr_db:
            est = cap(_db_to_linear(snr_db), th)
            rows.append({"theta": th, "snr_db": snr_db, "c_e": est.value,
                         "std_error": est.std_error, "method": opts.method})
    columns = ("theta", "snr_db", "c_e", "std_error", "method")
    return [_write_rows(out_dir, "ecap", opts.format, columns, rows)], seed


def _cmd_throughput(opts, out_dir):
    src = source_from_json(opts.source)
    cap, seed = _capacity(opts)
    rows = []
    for th in opts.theta:
        for snr_db in opts.snr_db:
            row = {"theta": th, "snr_db": snr_db, "c_e": None,
                   "r_avg_star": None, "lambda_star": None,
                   "method": None, "error": None}
            try:
                ce = cap(_db_to_linear(snr_db), th).value
                res = max_avg_rate(src, ce, th)
                row.update(
                    c_e=ce, r_avg_star=res.r_avg_star,
                    lambda_star=res.lambda_star, method=res.method,
                )
            except QoslinkError as exc:
                row["error"] = str(exc)
            rows.append(row)
    columns = ("theta", "snr_db", "c_e", "r_avg_star", "lambda_star", "method", "error")
    return [_write_rows(out_dir, "throughput", opts.format, columns, rows)], seed


def _cmd_energy(opts, out_dir):
    spec = channel_spec_from_json(opts.channel)
    theta = opts.theta
    # constant-rate arrivals are no source object: the energy layer takes None
    src = None if opts.source.get("kind") == "constant" else source_from_json(opts.source)
    if src is None:  # {"kind": "constant"} holds nothing else
        _known_fields(opts.source, ("kind",))
    kind = source_kind(src)

    rows = []
    for snr_db in opts.snr_db:
        row = {"kind": kind, "theta": theta, "snr_db": round(snr_db, 4),
               "ebn0_db": None, "rate_per_symbol": None, "error": None}
        try:
            pts = source_ebn0_curve(src, spec, theta, [_db_to_linear(snr_db)])
            if not pts:
                continue  # zero-rate point: dropped, like the library does
            row.update(ebn0_db=round(pts[0].ebn0_db, 4), rate_per_symbol=pts[0].normalized_rate)
        except QoslinkError as exc:
            row["error"] = str(exc)
        rows.append(row)
    curve = _write_rows(
        out_dir, "energy_curve", opts.format,
        ("kind", "theta", "snr_db", "ebn0_db", "rate_per_symbol", "error"), rows,
        col_formats={"snr_db": ".4f", "ebn0_db": ".4f"},
    )
    # the curve is written first: it stands even when the metrics fail
    _, metrics, provenance = source_energy_metrics(src, spec, theta)
    metrics_doc = {
        "kind": kind,
        "theta": theta,
        "ebn0_min_linear": _json_safe(metrics.ebn0_min_linear),
        "ebn0_min_db": _json_safe(round(metrics.ebn0_min_db, 4)),
        "wideband_slope": metrics.wideband_slope,
        "provenance": provenance,
    }
    return [curve, _write_json(out_dir, "energy_metrics.json", metrics_doc)], None


def _cmd_simulate(opts, out_dir):
    doc = opts.sim_config
    _known_fields(doc, _SIM_KEYS, "sim-config.")
    for field in ("source", "channel", "snr_db", "n_blocks"):
        if field not in doc:
            raise ValidationError(f"sim-config.{field}", "missing")
    sim = {field: _read(f"sim-config.{field}", kind, doc.get(field))
           for field, kind in _SIM_FIELDS.items()}
    seed = _require_seed(doc.get("seed") if opts.seed is None else opts.seed)
    target = opts.theta if opts.theta is not None else sim["theta"]
    source = _nested("sim-config.source", source_from_json, doc["source"])
    spec = _nested("sim-config.channel", channel_spec_from_json, doc["channel"])
    try:
        cfg = SimConfig(source=source, channel=spec, snr=_db_to_linear(sim["snr_db"]),
                        n_blocks=doc["n_blocks"], seed=seed,
                        q_thresholds=doc.get("q_thresholds"),
                        d_thresholds=doc.get("d_thresholds"))
    except ValidationError as exc:
        # every field is the document's, except a seed given by --seed
        flag = exc.field_path == "seed" and opts.seed is not None
        raise ValidationError("seed" if flag else f"sim-config.{exc.field_path}", exc.message)
    report = simulate_queue(cfg)

    report_doc = {
        "theta_sim": _json_safe(report.theta_sim),
        "delay_slope_sim": _json_safe(report.delay_slope_sim),
        "varsigma_hat": report.varsigma_hat,
        "varsigma_ratio": report.varsigma_ratio,
        "overflow_points": [[q, p] for q, p in report.overflow_points],
        "delay_points": [[d, p] for d, p in report.delay_points],
    }
    report_path = _write_json(out_dir, "simulate_report.json", report_doc)
    over = _write_rows(
        out_dir, "simulate_overflow", opts.format, ("q", "prob"),
        [{"q": q, "prob": p} for q, p in report.overflow_points],
    )
    delay = _write_rows(
        out_dir, "simulate_delay", opts.format, ("d", "prob"),
        [{"d": d, "prob": p} for d, p in report.delay_points],
    )

    if target is not None and math.isfinite(report.theta_sim):
        rel = abs(report.theta_sim - target) / target
        print(
            f"theta_sim={report.theta_sim:.6g} target_theta={target:.6g} "
            f"rel_err={rel:.3g}"
        )
    else:
        print(f"theta_sim={report.theta_sim:.6g}")
    return [report_path, over, delay], cfg.seed


# ---------------------------------------------------------------------------
# Options
# ---------------------------------------------------------------------------


_COMMANDS = {
    "ebw": (_cmd_ebw, "effective bandwidth sweep"),
    "ecap": (_cmd_ecap, "effective capacity sweep"),
    "throughput": (_cmd_throughput, "max average arrival rate sweep"),
    "energy": (_cmd_energy, "E_b/N_0 curve and energy metrics"),
    "simulate": (_cmd_simulate, "queue simulation"),
}
_SWEEPS = ("ebw", "ecap", "throughput")
_SOURCE = ("ebw", "throughput", "energy")
_CHANNEL = ("ecap", "throughput", "energy")

# the capacity routes of --method
_METHODS = ("closed-iid", "quadrature", "mc")
# One row per option: its JSON kind (see _read) in each command that
# takes it, the commands that require it, its default, its choices and
# its help.  An option's value is its flag's, else its --config value,
# else its default; null in --config leaves it unset.
_OPTIONS = {
    "out_dir": (dict.fromkeys(_COMMANDS, "string"), (), ".", (),
                "directory for output files"),
    "format": (dict.fromkeys(_COMMANDS, "string"), (), "csv", ("csv", "json"),
               "data file format"),
    "config": (dict.fromkeys(_COMMANDS, "object"), (), None, (),
               "JSON file of defaults; flags override it"),
    "seed": (dict.fromkeys(_COMMANDS, "integer"), (), None, (),
             "seed for randomized computations"),
    "source": (dict.fromkeys(_SOURCE, "object"), _SOURCE, None, (),
               'source JSON (inline or file path); energy also takes {"kind": "constant"}'),
    "channel": (dict.fromkeys(_CHANNEL, "object"), _CHANNEL, None, (),
                "channel JSON (inline or file path)"),
    "sim_config": ({"simulate": "object"}, ("simulate",), None, (),
                   "simulation JSON (inline or file path)"),
    "theta": ({**dict.fromkeys(_SWEEPS, "theta grid"), "energy": "theta", "simulate": "theta"},
              (*_SWEEPS, "energy"), None, (),
              "QoS exponent: a grid 'a,b,c' | lin:lo:hi:n | log:lo:hi:n; for energy one "
              "value; for simulate the target of the summary line"),
    "snr_db": (dict.fromkeys(_CHANNEL, "dB grid"), _CHANNEL, None, (), "snr grid in dB"),
    "method": (dict.fromkeys(("ecap", "throughput"), "string"), (), "closed-iid", _METHODS,
               "capacity method"),
    "n_samples": (dict.fromkeys(("ecap", "throughput"), "integer"), (), 10 ** 6, (),
                  "Monte Carlo samples"),
}
# the kinds of the --sim-config fields the CLI reads; ``SimConfig`` reads
# the rest, and the library reads the source and channel
_SIM_FIELDS = {"snr_db": "dB", "theta": "theta"}
# every field a --sim-config document may hold
_SIM_KEYS = ("source", "channel", "n_blocks", "seed", "q_thresholds", "d_thresholds",
             *_SIM_FIELDS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qoslink",
        description="Throughput and energy analysis of QoS-constrained fading links",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name, (kinds, _, default, choices, help_text) in _OPTIONS.items():
            if command in kinds:
                p.add_argument(
                    "--" + name.replace("_", "-"),
                    type={"integer": int, "number": float, "theta": float}.get(kinds[command]),
                    choices=choices or None,
                    help=help_text if default is None else f"{help_text} (default {default})",
                )
    return parser


def _read(path: str, kind: str, value, choices=()):
    """``value`` read as ``kind``, or a ValidationError naming ``path``;
    ``None`` stays unset.  The kinds: "object" (JSON, inline or by file
    path), "string" (one of ``choices``, if any), "integer" and "number"
    (the one number rule, ``_exact_number``), "theta" (a number > 0),
    "dB" (a number whose linear snr 10^(dB/10) is a float > 0), "theta
    grid" and "dB grid" (grids of such numbers)."""
    if value is None:
        return None
    if kind == "object":
        return _load_json_arg(value, path)
    if kind == "string":
        if isinstance(value, str) and (not choices or value in choices):
            return value
        want = f"one of {', '.join(choices)}" if choices else "a string"
        raise ValidationError(path, f"must be {want}, got {value!r}")
    if kind.endswith("grid"):
        values = _parse_grid(value, path)
    else:
        values = [_exact_number(path, int if kind == "integer" else float, value)]
    if kind.startswith("theta") and values[0] <= 0:
        raise ValidationError(path, f"must be > 0, got {values[0]!r}")
    if kind.startswith("dB"):
        try:
            ok = min(_db_to_linear(v) for v in values) > 0
        except OverflowError:
            ok = False
        if not ok:
            raise ValidationError(path, "the linear snr 10^(dB/10) must be a finite number > 0")
    return values if kind.endswith("grid") else values[0]


def _resolve(args) -> argparse.Namespace:
    """The value of each option the command takes: its flag's, else its
    --config value, else its default.  Every config value is read, even
    one a flag overrides."""
    command = args.command
    rows = {name: row for name, row in _OPTIONS.items() if command in row[0] and name != "config"}
    config = _read("config", "object", args.config) or {}
    keys = {}
    for key in config:
        name = key.replace("-", "_")
        if name not in rows:
            raise ValidationError(f"config.{key}", "unknown parameter")
        if name in keys:
            raise ValidationError(f"config.{key}", f"names the same option as {keys[name]}")
        keys[name] = key
    opts = argparse.Namespace()
    for name, (kinds, required, default, choices, _) in rows.items():
        flag = name.replace("_", "-")
        value = _read(flag, kinds[command], getattr(args, name), choices)
        if name in keys:
            stored = _read(f"config.{keys[name]}", kinds[command], config[keys[name]], choices)
            value = stored if value is None else value
        if value is None and command in required:
            raise ValidationError(flag, "required (flag or config file)")
        setattr(opts, name, default if value is None else value)
    return opts


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        opts = _resolve(args)
        out_dir = Path(opts.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        started = _utc_now()
        outputs, seed = _COMMANDS[args.command][0](opts, out_dir)
        _write_manifest(out_dir, args.command, opts, seed, outputs, started, _utc_now())
        return EXIT_OK
    except ValidationError as exc:
        print(f"error: invalid {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (QoslinkError, ArithmeticError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
