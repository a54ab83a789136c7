"""End-to-end checks of the command line front end.

Every test drives main() in-process and inspects the files it writes.
"""

import ast
import csv
import hashlib
import json
import math
import re
from pathlib import Path

import pytest

from qoslink import cli, queuesim
from qoslink.channel import ChannelSpec, effective_capacity_rayleigh_iid
from qoslink.cli import main
from qoslink.energy import source_energy_metrics
from qoslink.errors import IllConditioned
from qoslink.sources import source_from_json
from qoslink.throughput import max_avg_rate

ONOFF_DISC = '{"kind": "onoff-discrete", "p11": 0.8, "p22": 0.8, "lambda": 2.0}'
ONOFF_FLUID = '{"kind": "onoff-fluid", "alpha": 50.0, "beta": 50.0, "lambda": 2.0}'
ONOFF_MMPP = '{"kind": "onoff-mmpp", "alpha": 50.0, "beta": 50.0, "lambda": 2.0}'
MATRIX_FLUID = (
    '{"kind": "fluid", "transition": [[-50.0, 50.0], [50.0, -50.0]],'
    ' "rates": [0.0, 2.0]}'
)
CHAN_IID = '{"m": 10, "rho": 0.0, "sigma_h_sq": 1.0}'
CHAN_CORR = '{"m": 10, "rho": 0.75, "sigma_h_sq": 1.0}'


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(tmp_path, *argv):
    return main([*argv, "--out-dir", str(tmp_path)])


# ---------------------------------------------------------------------------
# ebw
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("source", [ONOFF_DISC, ONOFF_FLUID, ONOFF_MMPP])
def test_ebw_dual_columns_agree(tmp_path, source):
    assert run(tmp_path, "ebw", "--source", source, "--theta", "0.25,0.5,1.0") == 0
    for row in read_csv(tmp_path / "ebw.csv"):
        closed = float(row["a_star"])
        eigen = float(row["a_star_eigen"])
        assert abs(closed - eigen) <= 1e-9 * max(1.0, abs(closed))


def test_ebw_matrix_source_leaves_eigen_blank(tmp_path):
    assert run(tmp_path, "ebw", "--source", MATRIX_FLUID, "--theta", "1.0") == 0
    rows = read_csv(tmp_path / "ebw.csv")
    assert rows[0]["a_star_eigen"] == ""
    assert float(rows[0]["a_star"]) > 0


def test_ebw_poisson_limit(tmp_path):
    # beta = 0 never leaves ON, so the MMPP degenerates to a Poisson
    # stream with bandwidth lambda * (e^theta - 1) / theta
    src = '{"kind": "onoff-mmpp", "alpha": 3.0, "beta": 0.0, "lambda": 2.0}'
    assert run(tmp_path, "ebw", "--source", src, "--theta", "0.5,1.5") == 0
    for row in read_csv(tmp_path / "ebw.csv"):
        th = float(row["theta"])
        expect = 2.0 * math.expm1(th) / th
        assert float(row["a_star"]) == pytest.approx(expect, rel=1e-12)


def test_ebw_silent_source_is_all_zero(tmp_path):
    src = '{"kind": "onoff-discrete", "p11": 0.8, "p22": 0.8, "lambda": 0.0}'
    assert run(tmp_path, "ebw", "--source", src, "--theta", "log:0.1:10:5") == 0
    rows = read_csv(tmp_path / "ebw.csv")
    assert len(rows) == 5
    assert all(float(r["a_star"]) == 0.0 for r in rows)


def test_ebw_grid_is_sorted_and_deduplicated(tmp_path):
    assert run(tmp_path, "ebw", "--source", ONOFF_DISC, "--theta", "2,1,1,0.5") == 0
    thetas = [float(r["theta"]) for r in read_csv(tmp_path / "ebw.csv")]
    assert thetas == [0.5, 1.0, 2.0]


# ---------------------------------------------------------------------------
# ecap
# ---------------------------------------------------------------------------


def test_ecap_closed_iid_matches_library(tmp_path):
    assert run(
        tmp_path, "ecap", "--channel", CHAN_IID,
        "--theta", "1.0", "--snr-db", "0,10",
    ) == 0
    rows = read_csv(tmp_path / "ecap.csv")
    assert [r["method"] for r in rows] == ["closed-iid", "closed-iid"]
    expect = effective_capacity_rayleigh_iid(1.0, 1.0, 10).value
    assert float(rows[0]["c_e"]) == pytest.approx(expect, rel=1e-15)


def test_ecap_sigma_folds_into_snr(tmp_path):
    chan = '{"m": 4, "rho": 0.0, "sigma_h_sq": 2.0}'
    assert run(tmp_path, "ecap", "--channel", chan, "--theta", "0.7", "--snr-db", "3") == 0
    got = float(read_csv(tmp_path / "ecap.csv")[0]["c_e"])
    snr = 10.0 ** 0.3
    expect = effective_capacity_rayleigh_iid(2.0 * snr, 0.7, 4).value
    assert got == pytest.approx(expect, rel=1e-15)


def test_ecap_closed_iid_rejects_correlated_channel(tmp_path):
    rc = run(tmp_path, "ecap", "--channel", CHAN_CORR, "--theta", "1", "--snr-db", "0")
    assert rc == 2


def test_ecap_quadrature_handles_correlation(tmp_path):
    assert run(
        tmp_path, "ecap", "--channel", CHAN_CORR, "--method", "quadrature",
        "--theta", "1.0", "--snr-db", "0",
    ) == 0
    row = read_csv(tmp_path / "ecap.csv")[0]
    iid = effective_capacity_rayleigh_iid(1.0, 1.0, 10).value
    assert 0 < float(row["c_e"]) < iid


def test_throughput_quadrature_capacity_is_ecaps(tmp_path):
    # a correlated channel gets deterministic throughput from the same rule
    grid = ["--theta", "0.3,1", "--snr-db=-5,0,10"]
    chan = '{"m": 10, "rho": 0.5, "sigma_h_sq": 1.0}'
    assert run(tmp_path, "ecap", "--channel", chan, "--method", "quadrature", *grid) == 0
    assert run(tmp_path, "throughput", "--source", ONOFF_FLUID, "--channel", chan,
               "--method", "quadrature", *grid) == 0
    ecap, tput = read_csv(tmp_path / "ecap.csv"), read_csv(tmp_path / "throughput.csv")
    assert [r["c_e"] for r in tput] == [r["c_e"] for r in ecap]
    assert all(r["r_avg_star"] and not r["error"] for r in tput)


def test_ecap_mc_needs_seed(tmp_path):
    argv = ["ecap", "--channel", CHAN_IID, "--method", "mc",
            "--theta", "1", "--snr-db", "0", "--n-samples", "10000"]
    assert run(tmp_path, *argv) == 2
    assert run(tmp_path, *argv, "--seed", "5") == 0
    row = read_csv(tmp_path / "ecap.csv")[0]
    assert float(row["std_error"]) > 0
    closed = effective_capacity_rayleigh_iid(1.0, 1.0, 10).value
    assert float(row["c_e"]) == pytest.approx(closed, abs=6 * float(row["std_error"]))


def test_ecap_rows_sorted_by_theta_then_snr(tmp_path):
    assert run(
        tmp_path, "ecap", "--channel", CHAN_IID,
        "--theta", "1,0.1", "--snr-db", "10,0,5",
    ) == 0
    rows = read_csv(tmp_path / "ecap.csv")
    keys = [(float(r["theta"]), float(r["snr_db"])) for r in rows]
    assert keys == sorted(keys)
    assert len(keys) == 6


# ---------------------------------------------------------------------------
# throughput
# ---------------------------------------------------------------------------


def test_throughput_always_on_source_saturates_capacity(tmp_path):
    src = '{"kind": "onoff-discrete", "p11": 0.2, "p22": 1.0, "lambda": 5.0}'
    assert run(
        tmp_path, "throughput", "--source", src, "--channel", CHAN_IID,
        "--theta", "0.5", "--snr-db", "0",
    ) == 0
    row = read_csv(tmp_path / "throughput.csv")[0]
    assert float(row["r_avg_star"]) == float(row["c_e"])
    assert row["error"] == ""


def test_throughput_decreases_with_theta(tmp_path):
    assert run(
        tmp_path, "throughput", "--source", ONOFF_DISC, "--channel", CHAN_IID,
        "--theta", "0.1,0.5,1.0,2.0", "--snr-db", "0",
    ) == 0
    rates = [float(r["r_avg_star"]) for r in read_csv(tmp_path / "throughput.csv")]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_throughput_matrix_source_uses_root_finding(tmp_path):
    assert run(
        tmp_path, "throughput", "--source", MATRIX_FLUID, "--channel", CHAN_IID,
        "--theta", "1.0", "--snr-db", "0",
    ) == 0
    row = read_csv(tmp_path / "throughput.csv")[0]
    assert row["method"] == "pencil"
    assert 0 < float(row["r_avg_star"]) < float(row["c_e"])


def test_throughput_annotates_failed_rows_and_continues(tmp_path):
    # rate-0 source can never reach the capacity target; each row gets
    # an annotation and the sweep still exits 0
    src = '{"kind": "fluid", "transition": [[-1.0, 1.0], [1.0, -1.0]], "rates": [0.0, 0.0]}'
    assert run(
        tmp_path, "throughput", "--source", src, "--channel", CHAN_IID,
        "--theta", "0.5,1.0", "--snr-db", "0",
    ) == 0
    rows = read_csv(tmp_path / "throughput.csv")
    assert len(rows) == 2
    for row in rows:
        assert row["error"] != ""
        assert row["r_avg_star"] == ""


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


def test_energy_closed_form_metrics_and_curve(tmp_path):
    assert run(
        tmp_path, "energy", "--source", ONOFF_FLUID, "--channel", CHAN_CORR,
        "--theta", "1.0", "--snr-db=-30,-20,-10",
    ) == 0
    metrics = json.loads((tmp_path / "energy_metrics.json").read_text())
    assert metrics["provenance"] == "closed_form"
    assert metrics["kind"] == "fluid"
    assert metrics["ebn0_min_db"] == pytest.approx(-1.5917, abs=5e-5)
    rows = read_csv(tmp_path / "energy_curve.csv")
    assert len(rows) == 3
    for row in rows:
        assert re.fullmatch(r"-?\d+\.\d{4}", row["ebn0_db"])
        assert re.fullmatch(r"-?\d+\.\d{4}", row["snr_db"])
    # curve must sit above the zero-snr limit
    assert all(float(r["ebn0_db"]) >= metrics["ebn0_min_db"] for r in rows)


def test_energy_constant_source_spelling(tmp_path):
    assert run(
        tmp_path, "energy", "--source", '{"kind": "constant"}',
        "--channel", CHAN_IID, "--theta", "0.5", "--snr-db=-20",
    ) == 0
    metrics = json.loads((tmp_path / "energy_metrics.json").read_text())
    assert metrics["kind"] == "constant"
    assert metrics["ebn0_min_linear"] == pytest.approx(math.log(2), rel=1e-12)


def test_energy_matrix_source_goes_numeric(tmp_path):
    assert run(
        tmp_path, "energy", "--source", MATRIX_FLUID, "--channel", CHAN_CORR,
        "--theta", "1.0", "--snr-db=-20",
    ) == 0
    metrics = json.loads((tmp_path / "energy_metrics.json").read_text())
    assert metrics["provenance"] == "deviation_matrix"
    assert metrics["kind"] == "nstate"
    assert metrics["ebn0_min_db"] == pytest.approx(-1.5917, abs=1e-3)


def test_energy_rejects_nonpositive_theta(tmp_path):
    rc = run(
        tmp_path, "energy", "--source", ONOFF_FLUID, "--channel", CHAN_IID,
        "--theta", "0.0", "--snr-db=-20",
    )
    assert rc == 2


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def sim_config(tmp_path, **overrides):
    # lambda sits at the theta = 0.2 optimum so the tail is populated
    # even in short runs
    doc = {
        "source": {"kind": "onoff-discrete", "p11": 0.8, "p22": 0.8,
                   "lambda": 9.3064380760366},
        "channel": {"m": 10, "rho": 0.0, "sigma_h_sq": 1.0},
        "snr_db": 0.0,
        "n_blocks": 10000,
        "theta": 0.2,
    }
    doc.update(overrides)
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_simulate_writes_report_and_tails(tmp_path, capsys):
    cfg = sim_config(tmp_path)
    assert run(tmp_path, "simulate", "--sim-config", cfg, "--seed", "11") == 0
    out = capsys.readouterr().out
    assert "theta_sim=" in out and "target_theta=0.2" in out
    report = json.loads((tmp_path / "simulate_report.json").read_text())
    assert report["theta_sim"] > 0
    over = read_csv(tmp_path / "simulate_overflow.csv")
    assert [[float(r["q"]), float(r["prob"])] for r in over] == report["overflow_points"]
    delay = read_csv(tmp_path / "simulate_delay.csv")
    assert [[int(r["d"]), float(r["prob"])] for r in delay] == report["delay_points"]


def test_simulate_needs_a_seed_somewhere(tmp_path):
    cfg = sim_config(tmp_path)
    assert run(tmp_path, "simulate", "--sim-config", cfg) == 2
    cfg = sim_config(tmp_path, seed=9)
    assert run(tmp_path, "simulate", "--sim-config", cfg) == 0


def test_simulate_flag_seed_overrides_config_seed(tmp_path):
    cfg = sim_config(tmp_path, seed=9)
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert run(a, "simulate", "--sim-config", cfg, "--seed", "11") == 0
    assert run(b, "simulate", "--sim-config", cfg, "--seed", "9") == 0
    ra = json.loads((a / "simulate_report.json").read_text())
    rb = json.loads((b / "simulate_report.json").read_text())
    assert ra["theta_sim"] != rb["theta_sim"]


def test_simulate_unstable_exits_3(tmp_path):
    cfg = sim_config(tmp_path, source={"kind": "onoff-discrete", "p11": 0.8,
                                       "p22": 0.8, "lambda": 100.0})
    assert run(tmp_path, "simulate", "--sim-config", cfg, "--seed", "1") == 3
    assert not (tmp_path / "simulate_report.json").exists()


def test_simulate_missing_field_exits_2(tmp_path):
    cfg = sim_config(tmp_path)
    doc = json.loads((tmp_path / "sim.json").read_text())
    del doc["channel"]
    (tmp_path / "sim.json").write_text(json.dumps(doc))
    assert run(tmp_path, "simulate", "--sim-config", cfg, "--seed", "1") == 2


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def test_reruns_are_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(), b.mkdir()
    cfg = sim_config(tmp_path)
    for d in (a, b):
        assert run(d, "simulate", "--sim-config", cfg, "--seed", "42") == 0
        assert run(d, "ebw", "--source", ONOFF_MMPP, "--theta", "lin:0.1:2:9") == 0
    for name in ("simulate_report.json", "simulate_overflow.csv",
                 "simulate_delay.csv", "ebw.csv"):
        assert digest(a / name) == digest(b / name), name


def test_manifest_covers_every_output_exactly_once(tmp_path):
    assert run(tmp_path, "ebw", "--source", ONOFF_DISC, "--theta", "1") == 0
    assert run(
        tmp_path, "energy", "--source", ONOFF_FLUID, "--channel", CHAN_IID,
        "--theta", "1.0", "--snr-db=-20",
    ) == 0
    manifests = sorted(tmp_path.glob("*_manifest.json"))
    assert len(manifests) == 2
    referenced = []
    for man in manifests:
        doc = json.loads(man.read_text())
        assert doc["command"] in ("ebw", "energy")
        assert doc["version"]
        assert doc["started"] <= doc["finished"]
        for entry in doc["outputs"]:
            referenced.append(entry["file"])
            assert digest(tmp_path / entry["file"]) == entry["sha256"]
    data_files = sorted(p.name for p in tmp_path.iterdir()
                        if not p.name.endswith("_manifest.json"))
    assert sorted(referenced) == data_files


# one run of each command, with an option of each kind set away from its default
RERUN = {
    "ebw": ["--source", ONOFF_FLUID, "--theta", "log:0.2:5:7"],
    "ecap": ["--channel", CHAN_IID, "--method", "mc", "--seed", "3", "--n-samples", "2000",
             "--theta", "0.5,1", "--snr-db", "0,5"],
    "throughput": ["--source", ONOFF_DISC, "--channel", CHAN_CORR, "--method", "quadrature",
                   "--theta", "0.5,1", "--snr-db=-5,5"],
    "energy": ["--source", ONOFF_MMPP, "--channel", CHAN_IID, "--theta", "0.5",
               "--snr-db=-20,-10", "--format", "json"],
    "simulate": ["--seed", "11", "--theta", "0.2"],
}


@pytest.mark.parametrize("command", list(RERUN))
def test_manifest_params_rerun_reproduces_data(tmp_path, command):
    # the manifest's params and seed, replayed through --config alone,
    # rewrite every data file byte for byte
    argv = [command, *RERUN[command]]
    if command == "simulate":
        argv += ["--sim-config", sim_config(tmp_path)]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(a, *argv) == 0
    manifest = json.loads((a / f"{command}_manifest.json").read_text())
    assert set(manifest["params"]) == {
        name for name, (kinds, *_) in cli._OPTIONS.items() if command in kinds
    } - {"out_dir", "config", "seed"}
    cfg = tmp_path / "replay.json"
    cfg.write_text(json.dumps({**manifest["params"], "seed": manifest["seed"]}))
    assert run(b, command, "--config", str(cfg)) == 0
    outputs = [entry["file"] for entry in manifest["outputs"]]
    assert outputs and sorted(outputs) == sorted(
        p.name for p in a.iterdir() if not p.name.endswith("_manifest.json"))
    for name in outputs:
        assert digest(a / name) == digest(b / name), name


def test_only_main_stamps_and_writes_manifests():
    # the commands write their data files and nothing else
    callers = {}
    for func in ast.walk(_tree(cli)):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    callers.setdefault(node.func.id, set()).add(func.name)
    assert callers["_write_manifest"] == {"main"}
    assert callers["_utc_now"] == {"main"}


def test_json_format_switches_data_files(tmp_path):
    assert run(tmp_path, "ebw", "--source", ONOFF_DISC, "--theta", "0.5,1",
               "--format", "json") == 0
    assert not (tmp_path / "ebw.csv").exists()
    rows = json.loads((tmp_path / "ebw.json").read_text())
    assert len(rows) == 2
    assert isinstance(rows[0]["a_star"], float)


def test_config_flags_override_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "source": json.loads(ONOFF_DISC), "theta": [0.5, 1.0],
    }))
    assert run(tmp_path, "ebw", "--config", str(cfg), "--theta", "2.0") == 0
    rows = read_csv(tmp_path / "ebw.csv")
    assert [float(r["theta"]) for r in rows] == [2.0]


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sources": {}}))
    assert run(tmp_path, "ebw", "--config", str(cfg), "--theta", "1") == 2


def test_throughput_config_capacity_is_an_unknown_key(tmp_path, capsys):
    # throughput's capacity route is --method, as ecap's is
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"capacity": "quadrature"}))
    assert run(tmp_path, "throughput", "--config", str(cfg), *NEEDS["throughput"]) == 2
    assert capsys.readouterr().err == "error: invalid config.capacity: unknown parameter\n"


def test_config_keys_naming_one_option_are_refused(tmp_path, capsys):
    # snr_db and snr-db are one option: neither value may go unread
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"snr_db": "0", "snr-db": "10", "theta": "1"}))
    assert run(tmp_path, "ecap", "--config", str(cfg), "--channel", '{"m": 2, "rho": 0}') == 2
    assert capsys.readouterr().err == (
        "error: invalid config.snr-db: names the same option as snr_db\n"
    )
    assert not (tmp_path / "ecap.csv").exists()


@pytest.mark.parametrize(
    "command, argv, field",
    [
        ("ecap", ["--channel", '{"m": 10, "rho": 0, "sigma_hsq": 4}', "--theta", "1",
                  "--snr-db", "0"], "sigma_hsq"),
        ("throughput", ["--source", '{"kind": "onoff-fluid", "alpha": 9, "beta": 1, '
                        '"lambda": 2, "lamda": 5}', "--channel", CHAN_IID, "--theta", "1",
                        "--snr-db", "0"], "lamda"),
        ("energy", ["--source", '{"kind": "constant", "lambda": 2}', "--channel", CHAN_IID,
                    "--theta", "1", "--snr-db=-20"], "lambda"),
        ("simulate", ["--seed", "11"], "sim-config.q_threshold"),
    ],
)
def test_unknown_document_fields_are_named(tmp_path, capsys, command, argv, field):
    # each was dropped and its default used, and the command exited 0
    if command == "simulate":
        argv = [*argv, "--sim-config", sim_config(tmp_path, q_threshold=[1, 2])]
    out = tmp_path / "out"
    assert run(out, command, *argv) == 2
    assert capsys.readouterr().err == f"error: invalid {field}: unknown field\n"
    assert not list(out.glob(f"{command}*"))


def test_source_file_path_accepted(tmp_path):
    src = tmp_path / "src.json"
    src.write_text(ONOFF_DISC)
    assert run(tmp_path, "ebw", "--source", str(src), "--theta", "1") == 0
    assert run(tmp_path, "ebw", "--source", str(tmp_path / "nope.json"),
               "--theta", "1") == 2


def test_malformed_inline_json_exits_2(tmp_path):
    assert run(tmp_path, "ebw", "--source", '{"kind": ', "--theta", "1") == 2


def test_bad_grid_exits_2(tmp_path):
    assert run(tmp_path, "ebw", "--source", ONOFF_DISC, "--theta", "lin:1:0:5") == 2
    assert run(tmp_path, "ebw", "--source", ONOFF_DISC, "--theta", "0,1") == 2
    assert run(tmp_path, "ebw", "--source", ONOFF_DISC, "--theta", "abc") == 2


# ---------------------------------------------------------------------------
# the CLI formats what the library computes, and dispatches on nothing
# ---------------------------------------------------------------------------

T3 = [[0.7, 0.2, 0.1], [0.3, 0.5, 0.2], [0.1, 0.3, 0.6]]
G3 = [[-2.0, 1.5, 0.5], [1.0, -3.0, 2.0], [0.5, 2.5, -3.0]]
EVERY_KIND = {
    "onoff-discrete": {"kind": "onoff-discrete", "p11": 0.8, "p22": 0.7, "lambda": 2.0},
    "onoff-fluid": {"kind": "onoff-fluid", "alpha": 9.0, "beta": 1.0, "lambda": 2.0},
    "onoff-mmpp": {"kind": "onoff-mmpp", "alpha": 9.0, "beta": 1.0, "lambda": 2.0},
    "discrete": {"kind": "discrete", "transition": T3, "rates": [0.0, 1.0, 2.0]},
    "fluid": {"kind": "fluid", "transition": G3, "rates": [0.0, 1.0, 2.0]},
    "mmpp": {"kind": "mmpp", "transition": G3, "rates": [0.0, 1.0, 2.0]},
}


@pytest.mark.parametrize("kind", sorted(EVERY_KIND))
def test_ebw_and_throughput_cells_are_the_library_values(tmp_path, kind):
    doc = json.dumps(EVERY_KIND[kind])
    src = source_from_json(doc)
    twin = src.as_matrix()
    assert run(tmp_path, "ebw", "--source", doc, "--theta", "0.01,0.3,2.0") == 0
    rows = read_csv(tmp_path / "ebw.csv")
    assert len(rows) == 3
    for row in rows:
        th = float(row["theta"])
        assert float(row["a_star"]) == src.effective_bandwidth(th)
        if twin is src:
            assert row["a_star_eigen"] == ""
        else:
            assert float(row["a_star_eigen"]) == twin.effective_bandwidth(th)

    assert run(
        tmp_path, "throughput", "--source", doc, "--channel", CHAN_IID,
        "--theta", "0.01,0.3,2.0", "--snr-db=-10,0,10",
    ) == 0
    rows = read_csv(tmp_path / "throughput.csv")
    assert len(rows) == 9
    for row in rows:
        th = float(row["theta"])
        ce = effective_capacity_rayleigh_iid(10.0 ** (float(row["snr_db"]) / 10.0), th, 10).value
        res = max_avg_rate(src, ce, th)
        assert row["error"] == ""
        assert float(row["c_e"]) == ce
        assert float(row["r_avg_star"]) == res.r_avg_star
        assert float(row["lambda_star"]) == res.lambda_star
        assert row["method"] == res.method


@pytest.mark.parametrize(
    "kind, label, provenance",
    [
        ("constant", "constant", "closed_form"),
        ("onoff-discrete", "discrete", "closed_form"),
        ("onoff-fluid", "fluid", "closed_form"),
        ("onoff-mmpp", "mmpp", "closed_form"),
        ("discrete", "nstate", "deviation_matrix"),
        ("fluid", "nstate", "deviation_matrix"),
        ("mmpp", "nstate", "deviation_matrix"),
    ],
)
def test_energy_metrics_carry_the_library_kind_and_provenance(tmp_path, kind, label, provenance):
    doc = EVERY_KIND.get(kind, {"kind": "constant"})
    assert run(
        tmp_path, "energy", "--source", json.dumps(doc), "--channel", CHAN_IID,
        "--theta", "0.1", "--snr-db=-20,-10",
    ) == 0
    metrics = json.loads((tmp_path / "energy_metrics.json").read_text())
    assert (metrics["kind"], metrics["provenance"]) == (label, provenance)
    src = None if kind == "constant" else source_from_json(doc)
    _, expected, _ = source_energy_metrics(src, ChannelSpec(m=10, rho=0.0), 0.1)
    assert metrics["ebn0_min_linear"] == expected.ebn0_min_linear
    assert metrics["wideband_slope"] == expected.wideband_slope
    assert {row["kind"] for row in read_csv(tmp_path / "energy_curve.csv")} == {label}


def test_cli_blames_the_rejected_source_field(tmp_path, capsys):
    src = '{"kind": "onoff-fluid", "alpha": 1.0, "beta": -1.0, "lambda": 2.0}'
    assert run(tmp_path, "ebw", "--source", src, "--theta", "1.0") == 2
    assert capsys.readouterr().err.startswith("error: invalid beta: ")


def _tree(module):
    return ast.parse(Path(module.__file__).read_text())


def _string_constants_and_imports(module):
    tree = _tree(module)
    strings = {
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    imported = {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    return strings, imported


def test_cli_and_simulator_do_no_per_family_dispatch():
    # the source's type carries its family: the CLI may name no source
    # kind but the energy command's {"kind": "constant"}, and neither it
    # nor the simulator imports a per-family entry point
    per_family = re.compile(
        r".*_onoff_.*|as_\w+_source|effective_bandwidth_(discrete|fluid|mmpp)"
        r"|max_avg_rate_nstate|ebn0_curve|numeric_energy_metrics|OnOff\w+"
    )
    strings, imported = _string_constants_and_imports(cli)
    assert not {s for s in strings if "onoff-" in s}
    assert not strings & {"discrete", "fluid", "mmpp", "nstate"}
    assert not {name for name in imported if per_family.fullmatch(name)}
    _, imported = _string_constants_and_imports(queuesim)
    assert not {name for name in imported if per_family.fullmatch(name)}


def test_energy_curve_is_written_when_the_metrics_fail(tmp_path, capsys, monkeypatch):
    def fail(src, spec, theta):
        raise IllConditioned("extrapolants disagree")

    monkeypatch.setattr(cli, "source_energy_metrics", fail)
    assert run(
        tmp_path, "energy", "--source", ONOFF_FLUID, "--channel", CHAN_IID,
        "--theta", "0.1", "--snr-db=-20,-10",
    ) == 3
    assert capsys.readouterr().err == "error: IllConditioned: extrapolants disagree\n"
    rows = read_csv(tmp_path / "energy_curve.csv")
    assert [row["kind"] for row in rows] == ["fluid", "fluid"]
    assert all(row["ebn0_db"] and not row["error"] for row in rows)
    assert not (tmp_path / "energy_metrics.json").exists()


@pytest.mark.parametrize("command", ["ebw", "energy"])
@pytest.mark.parametrize("source", [
    ONOFF_MMPP,
    '{"kind": "mmpp", "transition": [[-1.0, 1.0], [1.0, -1.0]], "rates": [0.0, 2.0]}',
], ids=["onoff", "matrix"])
def test_poisson_arrivals_past_the_float_range_exit_3(tmp_path, capsys, command, source):
    # e^theta - 1 overflows past theta = ln(DBL_MAX) ~ 709.78: a runtime
    # failure, reported as one, not a traceback
    argv = [command, "--source", source, "--theta", "800"]
    if command == "energy":
        argv += ["--channel", CHAN_IID, "--snr-db=-10"]
    assert run(tmp_path, *argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: OverflowError: ") and err.endswith("math range error\n")
    assert not (tmp_path / f"{command}_manifest.json").exists()


def test_ebw_past_the_float_range_exits_3_without_a_table(tmp_path, capsys):
    # (e^5 - 1) * 1e308 overflows: the table had a NaN row and exit 0
    src = '{"kind": "mmpp", "transition": [[-1, 1], [1, -1]], "rates": [0, 1e308]}'
    assert run(tmp_path, "ebw", "--source", src, "--theta", "0.5,5") == 3
    assert "NonConvergence" in capsys.readouterr().err
    assert not (tmp_path / "ebw.csv").exists()


@pytest.mark.parametrize("command", ["ecap", "throughput"])
def test_mc_capacity_without_seed_names_the_seed(tmp_path, capsys, command):
    argv = [command, "--channel", CHAN_IID, "--theta", "1", "--snr-db", "0",
            "--n-samples", "1000", "--method", "mc"]
    if command == "throughput":
        argv += ["--source", ONOFF_DISC]
    assert run(tmp_path, *argv) == 2
    assert capsys.readouterr().err == (
        "error: invalid seed: randomized commands need an explicit --seed\n"
    )


@pytest.mark.parametrize("command", ["ecap", "throughput"])
def test_closed_iid_capacity_on_a_correlated_channel_names_the_method(
    tmp_path, capsys, command
):
    argv = [command, "--channel", CHAN_CORR, "--theta", "1", "--snr-db", "0"]
    if command == "throughput":
        argv += ["--source", ONOFF_DISC]
    assert run(tmp_path, *argv) == 2
    assert capsys.readouterr().err == (
        "error: invalid method: closed-iid requires rho = 0; use quadrature or mc for rho > 0\n"
    )


def test_import_leaves_scipy_integrate_and_optimize_unloaded():
    import os
    import subprocess
    import sys

    import qoslink

    src_dir = str(Path(qoslink.__file__).resolve().parents[1])
    code = (
        "import sys, qoslink, qoslink.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('scipy.integrate', 'scipy.optimize'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src_dir}, timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_import_loads_no_scipy():
    # scipy's array-API layer alone once cost about 0.4 s of every CLI
    # start-up; the package needs numpy only
    import os
    import subprocess
    import sys

    import qoslink

    src_dir = str(Path(qoslink.__file__).resolve().parents[1])
    code = (
        "import sys, qoslink, qoslink.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src_dir}, timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_no_module_imports_scipy():
    import qoslink

    for path in sorted(Path(qoslink.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), (path.name, node.lineno)


def test_config_sets_the_options_that_have_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "mc", "seed": 3, "n_samples": 2000, "format": "json"}))
    out = tmp_path / "out"
    assert run(out, "ecap", "--config", str(cfg), "--channel", CHAN_IID,
               "--theta", "1", "--snr-db", "0") == 0
    assert not (out / "ecap.csv").exists()
    rows = json.loads((out / "ecap.json").read_text())
    assert [row["method"] for row in rows] == ["mc"]
    assert rows[0]["std_error"] > 0.0
    params = json.loads((out / "ecap_manifest.json").read_text())["params"]
    assert params["n_samples"] == 2000


def test_flags_override_the_config_for_options_that_have_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "mc", "seed": 3, "format": "json"}))
    out = tmp_path / "out"
    assert run(out, "ecap", "--config", str(cfg), "--channel", CHAN_IID, "--theta", "1",
               "--snr-db", "0", "--method", "closed-iid", "--format", "csv") == 0
    assert not (out / "ecap.json").exists()
    assert [row["method"] for row in read_csv(out / "ecap.csv")] == ["closed-iid"]


@pytest.mark.parametrize("key,value", [("format", "xml"), ("method", "exact")])
def test_config_values_meet_the_flags_choices(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert run(tmp_path, "ecap", "--config", str(cfg), "--channel", CHAN_IID,
               "--theta", "1", "--snr-db", "0") == 2
    assert capsys.readouterr().err.startswith(f"error: invalid config.{key}: ")
    assert not list(tmp_path.glob("ecap*"))


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"method": "mc", "seed": 3, "n_samples": 2000.5}, "n_samples"),
        ({"seed": True, "n_samples": "2000"}, "seed"),
        ({"method": "mc", "seed": 3, "n_samples": "2000"}, "n_samples"),
        ({"method": "mc", "seed": 3, "n_samples": [2000]}, "n_samples"),
    ],
)
def test_config_values_must_fit_the_flags_types(tmp_path, capsys, doc, key):
    # as --n-samples 2000.5 does, a config value its flag's type does not
    # hold exits 2 before anything runs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run(out, "ecap", "--config", str(cfg), "--channel", CHAN_IID,
               "--theta", "1", "--snr-db", "0") == 2
    assert capsys.readouterr().err.startswith(f"error: invalid config.{key}: ")
    assert not list(out.glob("ecap*"))


def test_config_integral_number_is_the_flags_int(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "mc", "seed": 3.0, "n_samples": 2000.0}))
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(a, "ecap", "--config", str(cfg), "--channel", CHAN_IID,
               "--theta", "1", "--snr-db", "0") == 0
    manifest = json.loads((a / "ecap_manifest.json").read_text())
    assert type(manifest["seed"]) is int and type(manifest["params"]["n_samples"]) is int
    assert run(b, "ecap", "--channel", CHAN_IID, "--theta", "1", "--snr-db", "0",
               "--method", "mc", "--seed", "3", "--n-samples", "2000") == 0
    assert digest(a / "ecap.csv") == digest(b / "ecap.csv")


def test_simulate_config_theta_must_be_a_number(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta": True}))
    assert run(tmp_path, "simulate", "--config", str(cfg),
               "--sim-config", sim_config(tmp_path), "--seed", "11") == 2
    assert capsys.readouterr().err.startswith("error: invalid config.theta: ")


@pytest.mark.parametrize(
    "command, doc, key",
    [
        ("energy", {"theta": True}, "theta"),
        ("energy", {"theta": 0.5, "snr_db": True}, "snr_db"),
        ("energy", {"theta": 0.5, "snr_db": [0, False]}, "snr_db"),
        ("ebw", {"theta": True}, "theta"),
        ("ebw", {"theta": [0.5, True]}, "theta"),
        ("ecap", {"theta": True}, "theta"),
        ("throughput", {"snr_db": True}, "snr_db"),
    ],
)
def test_config_theta_and_grids_reject_booleans(tmp_path, capsys, command, doc, key):
    # true is no number: it once ran as 1.0, a grid of [1.0]
    flags = {"source": ONOFF_DISC, "channel": CHAN_IID, "theta": "0.5", "snr-db": "0"}
    needs = {"energy": ("source", "channel", "theta", "snr-db"), "ebw": ("source", "theta"),
             "ecap": ("channel", "theta", "snr-db"),
             "throughput": ("source", "channel", "theta", "snr-db")}
    argv = [command, "--config", str(tmp_path / "cfg.json")]
    for flag in needs[command]:
        if flag.replace("-", "_") not in doc:
            argv += [f"--{flag}", flags[flag]]
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run(out, *argv) == 2
    assert capsys.readouterr().err.startswith(f"error: invalid config.{key}: ")
    assert not list(out.glob(f"{command}*"))


def test_config_grids_take_numbers_and_lists(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta": [1, 0.5], "snr_db": 0}))
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(a, "throughput", "--config", str(cfg), "--source", ONOFF_DISC,
               "--channel", CHAN_IID) == 0
    assert run(b, "throughput", "--theta", "0.5,1", "--snr-db", "0", "--source", ONOFF_DISC,
               "--channel", CHAN_IID) == 0
    assert digest(a / "throughput.csv") == digest(b / "throughput.csv")


@pytest.mark.parametrize(
    "field, value",
    [("n_blocks", 10000.7), ("n_blocks", True), ("n_blocks", "10000"), ("snr_db", True),
     ("theta", True), ("seed", True), ("seed", 9.5), ("q_thresholds", [True, 5.5]),
     ("d_thresholds", [2.5, 3]), ("d_thresholds", [2, "3"]), ("d_thresholds", 3)],
)
def test_sim_config_numbers_must_fit_their_types(tmp_path, capsys, field, value):
    # 10000.7 blocks once ran 10000, true was the target theta 1.0, and a
    # delay threshold of 2.5 blocks was 2
    cfg = sim_config(tmp_path, **{field: value})
    argv = ["simulate", "--sim-config", cfg] + ([] if field == "seed" else ["--seed", "11"])
    out = tmp_path / "out"
    assert run(out, *argv) == 2
    assert capsys.readouterr().err.startswith(f"error: invalid sim-config.{field}: ")
    assert not list(out.glob("simulate*"))


@pytest.mark.parametrize(
    "flags, overrides, field",
    [(["--theta=-0.5"], {}, "theta"), (["--theta=0"], {}, "theta"),
     ([], {"theta": 0}, "sim-config.theta"), ([], {"theta": -0.5}, "sim-config.theta")],
    ids=["flag-negative", "flag-zero", "config-zero", "config-negative"],
)
def test_simulate_target_theta_must_be_positive(tmp_path, capsys, flags, overrides, field):
    # a target of -0.5 once printed rel_err=-2.63 and 0 printed
    # rel_err=inf, both exiting 0
    out = tmp_path / "out"
    assert run(out, "simulate", "--sim-config", sim_config(tmp_path, **overrides),
               "--seed", "11", *flags) == 2
    assert capsys.readouterr().err.startswith(f"error: invalid {field}: must be > 0, got ")
    assert not list(out.glob("simulate*"))


@pytest.mark.parametrize(
    "field, value",
    [("n_blocks", 10), ("seed", -1), ("seed", 2 ** 64), ("q_thresholds", [5.5, 1]),
     ("d_thresholds", [0, 1]), ("d_thresholds", [3, 2])],
)
def test_sim_config_range_errors_name_their_field(tmp_path, capsys, field, value):
    # SimConfig's range errors were reported at "sim-config", and a
    # seed of 2**64 at "seed", as if --seed had given it
    cfg = sim_config(tmp_path, **{field: value})
    argv = ["simulate", "--sim-config", cfg] + ([] if field == "seed" else ["--seed", "11"])
    out = tmp_path / "out"
    assert run(out, *argv) == 2
    assert capsys.readouterr().err.startswith(f"error: invalid sim-config.{field}: ")
    assert not list(out.glob("simulate*"))


_NESTED_SOURCE = {"kind": "onoff-discrete", "p11": 0.8, "p22": 0.8, "lambda": 9.3}


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"source": {**_NESTED_SOURCE, "p22": 1.8}},
         "sim-config.source.p22: p22 must lie in [0, 1], got 1.8"),
        ({"source": {**_NESTED_SOURCE, "lamda": 1}}, "sim-config.source.lamda: unknown field"),
        ({"channel": {"m": 0, "rho": 0.0}},
         "sim-config.channel.m: must be a positive integer, got 0"),
        ({"channel": [10, 0.0]}, "sim-config.channel: channel document must be a JSON object"),
    ],
    ids=["source-range", "source-unknown-field", "channel-range", "channel-not-an-object"],
)
def test_nested_sim_config_errors_name_their_full_path(tmp_path, capsys, overrides, message):
    # the nested documents' fields were named as if given on their own
    # (``invalid p22``, ``invalid lamda``, ``invalid m``)
    out = tmp_path / "out"
    assert run(out, "simulate", "--sim-config", sim_config(tmp_path, **overrides),
               "--seed", "11") == 2
    assert capsys.readouterr().err == f"error: invalid {message}\n"
    assert not list(out.glob("simulate*"))


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_simulate_seed_flag_range_is_named_at_the_flag(tmp_path, capsys, seed):
    out = tmp_path / "out"
    assert run(out, "simulate", "--sim-config", sim_config(tmp_path), f"--seed={seed}") == 2
    assert capsys.readouterr().err.startswith("error: invalid seed: ")


def test_sim_config_integral_numbers_run(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    cfg = sim_config(tmp_path, q_thresholds=[1, 5.5], d_thresholds=[2, 3])
    assert run(a, "simulate", "--sim-config", cfg, "--seed", "11") == 0
    cfg = sim_config(tmp_path, n_blocks=10000.0, q_thresholds=[1.0, 5.5], d_thresholds=[2.0, 3])
    assert run(b, "simulate", "--sim-config", cfg, "--seed", "11") == 0
    assert digest(a / "simulate_report.json") == digest(b / "simulate_report.json")
    report = json.loads((a / "simulate_report.json").read_text())
    assert [q for q, _ in report["overflow_points"]] == [1.0, 5.5]
    assert [d for d, _ in report["delay_points"]] == [2, 3]


# ---------------------------------------------------------------------------
# one option table, one number rule
# ---------------------------------------------------------------------------

# the flags each command cannot run without
NEEDS = {
    "ebw": ["--source", ONOFF_DISC, "--theta", "0.5"],
    "ecap": ["--channel", CHAN_IID, "--theta", "0.5", "--snr-db", "0"],
    "throughput": ["--source", ONOFF_DISC, "--channel", CHAN_IID, "--theta", "0.5",
                   "--snr-db", "0"],
    "energy": ["--source", ONOFF_DISC, "--channel", CHAN_IID, "--theta", "0.5",
               "--snr-db", "0"],
    "simulate": ["--seed", "11"],
}
# (option, the first command that takes it, its kind there) for every row
TABLE = [(name, *next(iter(kinds.items()))) for name, (kinds, *_) in cli._OPTIONS.items()]


def _argv(tmp_path, command, config):
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    argv = [command, "--config", str(tmp_path / "cfg.json"), *NEEDS[command]]
    if command == "simulate":
        argv += ["--sim-config", sim_config(tmp_path)]
    return argv


@pytest.mark.parametrize("name, command, kind", TABLE)
def test_every_option_names_its_wrong_typed_config_value(tmp_path, capsys, name, command, kind):
    wrong = 5 if kind in ("string", "object") else True
    out = tmp_path / "out"
    assert run(out, *_argv(tmp_path, command, {name: wrong})) == 2
    assert capsys.readouterr().err.startswith(f"error: invalid config.{name}: ")
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("name, command, kind", [row for row in TABLE if row[0] != "config"])
def test_null_leaves_every_option_unset(tmp_path, name, command, kind):
    # the config file itself takes no "config" key, so that row is left out
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(a, *_argv(tmp_path, command, {name: None})) == 0
    assert run(b, *_argv(tmp_path, command, {})) == 0
    for path in a.iterdir():
        if not path.name.endswith("_manifest.json"):
            assert digest(path) == digest(b / path.name)


@pytest.mark.parametrize(
    "channel, field",
    [('{"m": Infinity, "rho": 0}', "m"), ('{"m": 2.5, "rho": 0}', "m"),
     ('{"m": 2, "rho": 0, "distribution": 5}', "distribution"),
     ('{"m": 2, "rho": NaN}', "rho"), ('{"m": 0, "rho": 0}', "m"), ('{"m": 2, "rho": 2}', "rho"),
     ('{"m": 2, "rho": 0, "sigma_h_sq": -1}', "sigma_h_sq"),
     ('{"m": 2, "rho": 0, "distribution": "nakagami"}', "distribution")],
)
def test_channel_json_names_the_rejected_field(tmp_path, capsys, channel, field):
    # m = Infinity once crashed in int(), a numeric distribution in .lower()
    assert run(tmp_path, "ecap", "--channel", channel, "--theta", "1", "--snr-db", "0") == 2
    assert capsys.readouterr().err.startswith(f"error: invalid {field}: ")


@pytest.mark.parametrize("command", ["ecap", "throughput", "energy"])
@pytest.mark.parametrize("snr_db", ["4000", "-4000", "0,3083"])
def test_db_values_without_a_float_linear_snr_name_the_grid(tmp_path, capsys, command, snr_db):
    # 10^(4000/10) once raised OverflowError, past throughput's per-row catch
    argv = [command, *NEEDS[command][:-2], f"--snr-db={snr_db}"]
    assert run(tmp_path, *argv) == 2
    assert capsys.readouterr().err.startswith("error: invalid snr-db: ")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("snr_db", [4000, -4000])
def test_sim_config_db_without_a_float_linear_snr_is_named(tmp_path, capsys, snr_db):
    out = tmp_path / "out"
    assert run(out, "simulate", "--sim-config", sim_config(tmp_path, snr_db=snr_db),
               "--seed", "11") == 2
    assert capsys.readouterr().err.startswith("error: invalid sim-config.snr_db: ")


@pytest.mark.parametrize("value", ["abc", "inf", "nan", "0", "-1"])
def test_energy_theta_flag_names_itself(tmp_path, capsys, value):
    argv = ["energy", *NEEDS["energy"][:4], f"--theta={value}", "--snr-db", "0"]
    try:
        rc = run(tmp_path, *argv)
    except SystemExit as exc:  # argparse rejects what float() does not take
        rc = exc.code
    assert rc == 2
    assert re.search(r"invalid theta: |argument --theta: ", capsys.readouterr().err)


def test_cli_reads_every_option_from_the_one_table():
    tree = _tree(cli)
    loops = [
        node for node in ast.walk(tree) if isinstance(node, ast.For)
        and any(isinstance(n, ast.Name) and n.id == "_OPTIONS" for n in ast.walk(node.iter))
    ]
    in_loop = {id(n) for loop in loops for n in ast.walk(loop)}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    adds = [c for c in calls
            if isinstance(c.func, ast.Attribute) and c.func.attr == "add_argument"]
    assert adds and all(id(c) in in_loop for c in adds)
    casts = [
        c for c in calls if isinstance(c.func, ast.Name) and c.func.id in ("float", "int")
        and c.args and isinstance(c.args[0], ast.Attribute)
    ]
    assert not casts


def test_one_function_checks_numbers():
    # a number is checked by errors._exact_number and nowhere else: it is
    # the one function in the package that tests isinstance(..., bool)
    import qoslink

    owners = set()
    for path in sorted(Path(qoslink.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "isinstance" and len(node.args) == 2
                        and any(isinstance(n, ast.Name) and n.id == "bool"
                                for n in ast.walk(node.args[1]))):
                    owners.add((path.name, func.name))
    assert owners == {("errors.py", "_exact_number")}


def _public_casts(path):
    """(function, line) of each call in a public function or method of
    ``path`` that hands one of its own parameters straight to float()
    or int(), before any number rule could read it."""
    found = []
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) or func.name[0] == "_":
            continue
        a = func.args
        params = {p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if p}
        for node in ast.walk(func):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("float", "int") and node.args
                    and isinstance(node.args[0], ast.Name) and node.args[0].id in params):
                found.append((func.name, node.lineno))
    return found


def test_public_functions_read_their_numbers_by_the_number_rule():
    # a public argument reaches float() or int() only through the number
    # rule (errors._check_scalar, _exact_number): float("1e3") or
    # float(True) would otherwise pass; private helpers take checked values
    import qoslink

    casts = {path.name: _public_casts(path)
             for path in sorted(Path(qoslink.__file__).parent.glob("*.py"))}
    assert not {name: found for name, found in casts.items() if found}
