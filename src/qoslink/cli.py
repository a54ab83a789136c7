"""Command line front end: sweeps, energy metrics and queue simulations.

Every command resolves its parameters (flags override an optional JSON
config file), runs the requested computation, writes the data files to
--out-dir and finishes with a run manifest naming each output and its
sha256.  Data files are deterministic: fixed column order, rows sorted
by (theta, snr_db), '.' decimals, LF line endings, 17 significant
digits, and every randomized computation demands an explicit --seed.
dB to linear conversion happens here and only here; the library wants
linear snr throughout.  The CLI only parses and formats: the source
document becomes a typed source object, and which closed form, eigen
route or solver applies is the library's choice, read from that type.

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
from .errors import QoslinkError, ValidationError
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


def _parse_grid(text, field: str, positive: bool = False) -> list:
    """Grid forms: 'a,b,c' | 'lin:lo:hi:n' | 'log:lo:hi:n' | JSON list."""
    try:
        if isinstance(text, (list, tuple)):
            vals = np.array([float(v) for v in text])
        elif isinstance(text, (int, float)):
            vals = np.array([float(text)])
        elif text.startswith(("lin:", "log:")):
            kind, lo, hi, count = text.split(":")
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
            vals = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ValidationError(field, f"bad grid {text!r}: {exc}")
    if vals.size == 0 or not np.all(np.isfinite(vals)):
        raise ValidationError(field, "grid must be nonempty and finite")
    if positive and np.any(vals <= 0):
        raise ValidationError(field, "grid values must be > 0")
    out = sorted(set(float(v) for v in vals))
    return out


def _require(args, names):
    for name in names:
        if getattr(args, name.replace("-", "_"), None) is None:
            raise ValidationError(name, "required (flag or config file)")


def _require_seed(args) -> int:
    if args.seed is None:
        raise ValidationError(
            "seed", "randomized commands need an explicit --seed"
        )
    seed = int(args.seed)
    if not (0 <= seed < 2 ** 64):
        raise ValidationError("seed", "must fit in an unsigned 64-bit integer")
    return seed


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


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_manifest(out_dir, command, params, seed, started, outputs) -> Path:
    doc = {
        "command": command,
        "params": params,
        "seed": seed,
        "version": __version__,
        "started": started,
        "finished": _utc_now(),
        "outputs": [
            {"file": p.name, "sha256": _sha256(p)} for p in outputs
        ],
    }
    return _write_json(out_dir, f"{command}_manifest.json", doc)


# ---------------------------------------------------------------------------
# Capacity helpers
# ---------------------------------------------------------------------------


def _capacity_fn(method, spec, n_samples, seed):
    """snr, theta -> EffCapEstimate. dB conversion already done."""
    try:
        return capacity_function(spec, method, n_samples=n_samples, seed=seed)
    except ValueError as exc:
        raise ValidationError("method", str(exc)) from exc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_ebw(args, out_dir) -> int:
    _require(args, ["source", "theta"])
    started = _utc_now()
    doc = _load_json_arg(args.source, "source")
    src = source_from_json(doc)
    thetas = _parse_grid(args.theta, "theta", positive=True)
    # a matrix source is its own twin: its one route is the eigen route
    twin = src.as_matrix()
    rows = []
    for th in thetas:
        rows.append(
            {
                "theta": th,
                "a_star": src.effective_bandwidth(th),
                "a_star_eigen": twin.effective_bandwidth(th) if twin is not src else None,
            }
        )
    data = _write_rows(out_dir, "ebw", args.format, ("theta", "a_star", "a_star_eigen"), rows)
    params = {"source": doc, "theta": thetas, "format": args.format}
    _write_manifest(out_dir, "ebw", params, None, started, [data])
    return EXIT_OK


def _cmd_ecap(args, out_dir) -> int:
    _require(args, ["channel", "theta", "snr-db"])
    started = _utc_now()
    doc = _load_json_arg(args.channel, "channel")
    spec = channel_spec_from_json(doc)
    thetas = _parse_grid(args.theta, "theta", positive=True)
    snr_dbs = _parse_grid(args.snr_db, "snr-db")
    seed = _require_seed(args) if args.method == "mc" else None
    cap = _capacity_fn(args.method, spec, args.n_samples, seed)
    rows = []
    for th in thetas:
        for snr_db in snr_dbs:
            est = cap(_db_to_linear(snr_db), th)
            rows.append(
                {
                    "theta": th,
                    "snr_db": snr_db,
                    "c_e": est.value,
                    "std_error": est.std_error,
                    "method": args.method,
                }
            )
    data = _write_rows(
        out_dir, "ecap", args.format,
        ("theta", "snr_db", "c_e", "std_error", "method"), rows,
    )
    params = {
        "channel": doc, "theta": thetas, "snr_db": snr_dbs,
        "method": args.method, "n_samples": args.n_samples, "format": args.format,
    }
    _write_manifest(out_dir, "ecap", params, seed, started, [data])
    return EXIT_OK


def _cmd_throughput(args, out_dir) -> int:
    _require(args, ["source", "channel", "theta", "snr-db"])
    started = _utc_now()
    src_doc = _load_json_arg(args.source, "source")
    src = source_from_json(src_doc)
    ch_doc = _load_json_arg(args.channel, "channel")
    spec = channel_spec_from_json(ch_doc)
    thetas = _parse_grid(args.theta, "theta", positive=True)
    snr_dbs = _parse_grid(args.snr_db, "snr-db")
    seed = _require_seed(args) if args.capacity == "mc" else None
    cap = _capacity_fn(args.capacity, spec, args.n_samples, seed)
    rows = []
    for th in thetas:
        for snr_db in snr_dbs:
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
    data = _write_rows(
        out_dir, "throughput", args.format,
        ("theta", "snr_db", "c_e", "r_avg_star", "lambda_star", "method", "error"),
        rows,
    )
    params = {
        "source": src_doc, "channel": ch_doc, "theta": thetas,
        "snr_db": snr_dbs, "capacity": args.capacity,
        "n_samples": args.n_samples, "format": args.format,
    }
    _write_manifest(out_dir, "throughput", params, seed, started, [data])
    return EXIT_OK


def _cmd_energy(args, out_dir) -> int:
    _require(args, ["source", "channel", "theta", "snr-db"])
    started = _utc_now()
    src_doc = _load_json_arg(args.source, "source")
    ch_doc = _load_json_arg(args.channel, "channel")
    spec = channel_spec_from_json(ch_doc)
    theta = float(args.theta)
    if not math.isfinite(theta) or theta <= 0:
        raise ValidationError("theta", f"must be finite and > 0, got {args.theta}")
    snr_dbs = _parse_grid(args.snr_db, "snr-db")
    # constant-rate arrivals are no source object: the energy layer takes None
    src = None if src_doc.get("kind") == "constant" else source_from_json(src_doc)
    kind = source_kind(src)

    rows = []
    for snr_db in snr_dbs:
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
        out_dir, "energy_curve", args.format,
        ("kind", "theta", "snr_db", "ebn0_db", "rate_per_symbol", "error"), rows,
        col_formats={"snr_db": ".4f", "ebn0_db": ".4f"},
    )
    # the curve is written first: it stands even when the metrics fail
    _, metrics, provenance = source_energy_metrics(src, spec, theta)
    metrics_doc = {
        "kind": kind,
        "theta": theta,
        "ebn0_min_linear": metrics.ebn0_min_linear,
        "ebn0_min_db": round(metrics.ebn0_min_db, 4),
        "wideband_slope": metrics.wideband_slope,
        "provenance": provenance,
    }
    metrics_path = _write_json(out_dir, "energy_metrics.json", metrics_doc)
    params = {
        "source": src_doc, "channel": ch_doc, "theta": theta,
        "snr_db": snr_dbs, "format": args.format,
    }
    _write_manifest(out_dir, "energy", params, None, started, [curve, metrics_path])
    return EXIT_OK


def _cmd_simulate(args, out_dir) -> int:
    _require(args, ["sim-config"])
    started = _utc_now()
    doc = _load_json_arg(args.sim_config, "sim-config")
    for field in ("source", "channel", "snr_db", "n_blocks"):
        if field not in doc:
            raise ValidationError(f"sim-config.{field}", "missing")

    def number(field: str, kind: type):
        return _config_number(f"sim-config.{field}", kind, doc.get(field))

    def numbers(field: str, kind: type):
        values = doc.get(field)
        if values is None:
            return None
        if not isinstance(values, list):
            raise ValidationError(f"sim-config.{field}", f"must be a list; got {values!r}")
        return tuple(_config_number(f"sim-config.{field}", kind, v) for v in values)

    seed = args.seed if args.seed is not None else number("seed", int)
    if seed is None:
        raise ValidationError("seed", "simulation needs a seed (--seed or config)")
    args.seed = seed
    seed = _require_seed(args)
    target = args.theta if args.theta is not None else number("theta", float)
    source = source_from_json(doc["source"])
    spec = channel_spec_from_json(doc["channel"])
    try:
        cfg = SimConfig(
            source=source,
            channel=spec,
            snr=_db_to_linear(number("snr_db", float)),
            n_blocks=number("n_blocks", int),
            seed=seed,
            q_thresholds=numbers("q_thresholds", float),
            d_thresholds=numbers("d_thresholds", int),
        )
    except (TypeError, ValueError) as exc:
        raise ValidationError("sim-config", str(exc))
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
        out_dir, "simulate_overflow", args.format, ("q", "prob"),
        [{"q": q, "prob": p} for q, p in report.overflow_points],
    )
    delay = _write_rows(
        out_dir, "simulate_delay", args.format, ("d", "prob"),
        [{"d": d, "prob": p} for d, p in report.delay_points],
    )

    if target is not None and math.isfinite(report.theta_sim):
        rel = abs(report.theta_sim - target) / target if target else math.inf
        print(
            f"theta_sim={report.theta_sim:.6g} target_theta={target:.6g} "
            f"rel_err={rel:.3g}"
        )
    else:
        print(f"theta_sim={report.theta_sim:.6g}")

    params = {"sim_config": doc, "format": args.format}
    _write_manifest(out_dir, "simulate", params, seed, started, [report_path, over, delay])
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


# defaults apply after the config file, so a config value counts unless
# its flag is given; flag and config value alike must be one of the choices
_DEFAULTS = {"out_dir": ".", "format": "csv", "method": "closed-iid",
             "capacity": "closed-iid", "n_samples": 10 ** 6}
_CHOICES = {"format": ("csv", "json"), "method": ("closed-iid", "quadrature", "mc"),
            "capacity": ("closed-iid", "mc")}
# the flags parsed with a type; the theta of energy and simulate is a
# number too, while the other commands' theta, like every snr_db, is a grid
_TYPES = {"seed": int, "n_samples": int}
_SCALAR_THETA = ("energy", "simulate")
_GRIDS = ("theta", "snr_db")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qoslink",
        description="Throughput and energy analysis of QoS-constrained fading links",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", help="directory for output files (default .)")
    common.add_argument("--format", choices=_CHOICES["format"], help="default csv")
    common.add_argument("--config", help="JSON file of defaults; flags override it")
    common.add_argument("--seed", type=_TYPES["seed"], help="seed for randomized computations")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ebw", parents=[common], help="effective bandwidth sweep")
    p.add_argument("--source", help="source JSON (inline or file path)")
    p.add_argument("--theta", help="grid: 'a,b,c' | lin:lo:hi:n | log:lo:hi:n")

    p = sub.add_parser("ecap", parents=[common], help="effective capacity sweep")
    p.add_argument("--channel", help="channel JSON (inline or file path)")
    p.add_argument("--theta", help="theta grid")
    p.add_argument("--snr-db", help="snr grid in dB")
    p.add_argument("--method", choices=_CHOICES["method"], help="default closed-iid")
    p.add_argument("--n-samples", type=_TYPES["n_samples"], help="default 10^6")

    p = sub.add_parser("throughput", parents=[common],
                       help="max average arrival rate sweep")
    p.add_argument("--source", help="source JSON (inline or file path)")
    p.add_argument("--channel", help="channel JSON (inline or file path)")
    p.add_argument("--theta", help="theta grid")
    p.add_argument("--snr-db", help="snr grid in dB")
    p.add_argument("--capacity", choices=_CHOICES["capacity"], help="default closed-iid")
    p.add_argument("--n-samples", type=_TYPES["n_samples"], help="default 10^6")

    p = sub.add_parser("energy", parents=[common],
                       help="E_b/N_0 curve and energy metrics")
    p.add_argument("--source", help="source JSON; {\"kind\": \"constant\"} allowed")
    p.add_argument("--channel", help="channel JSON (inline or file path)")
    p.add_argument("--theta", help="single QoS exponent")
    p.add_argument("--snr-db", help="snr grid in dB")

    p = sub.add_parser("simulate", parents=[common], help="queue simulation")
    p.add_argument("--sim-config", help="simulation JSON (inline or file path)")
    p.add_argument("--theta", type=float,
                   help="target theta for the summary line (optional)")

    return parser


def _config_number(path: str, kind: type, value):
    """A JSON value at ``path`` (``config.seed``, say) for an option of
    type ``kind`` (int or float): a JSON number that ``kind`` holds
    exactly, so neither a bool, a string nor 2000.5 for an int.  ``null``
    stays unset."""
    if value is None:
        return None
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if isinstance(value, (bool, str)) or number is None or number != value:
        what = "an integer" if kind is int else "a number"
        raise ValidationError(path, f"must be {what}; got {value!r}")
    return number


def _config_grid(path: str, value):
    """A config value for a grid option: a grid string, as the flag
    takes, or a JSON number or list of numbers."""
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, list):
        return [_config_number(path, float, v) for v in value]
    return _config_number(path, float, value)


def _merge_config(args) -> None:
    """Fill the options no flag gave from the config file, then from
    ``_DEFAULTS``; a config value must be one of its flag's choices and
    fit its flag's type."""
    doc = _load_json_arg(args.config, "config") if args.config else {}
    known = set(vars(args))
    types = {**_TYPES, "theta": float} if args.command in _SCALAR_THETA else _TYPES
    for key, value in doc.items():
        dest = key.replace("-", "_")
        if dest not in known or dest in ("command", "config"):
            raise ValidationError(f"config.{key}", "unknown parameter")
        if dest in _CHOICES and value not in _CHOICES[dest]:
            raise ValidationError(
                f"config.{key}", f"must be one of {', '.join(_CHOICES[dest])}; got {value!r}"
            )
        if dest in types:
            value = _config_number(f"config.{key}", types[dest], value)
        elif dest in _GRIDS:
            value = _config_grid(f"config.{key}", value)
        if getattr(args, dest) is None:
            setattr(args, dest, value)
    for dest, value in _DEFAULTS.items():
        if dest in known and getattr(args, dest) is None:
            setattr(args, dest, value)


_COMMANDS = {
    "ebw": _cmd_ebw,
    "ecap": _cmd_ecap,
    "throughput": _cmd_throughput,
    "energy": _cmd_energy,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](args, out_dir)
    except ValidationError as exc:
        print(f"error: invalid {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except QoslinkError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
