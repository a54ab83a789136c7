"""Smoke test of the benchmark itself: every workload at its tiny size.

    python3 -m pytest -q bench/test_bench.py

Takes about a minute.  Checks that each run is correct, emits exactly
the metrics BENCHMARK.json names with their units, reports the named
end-to-end figures of its workload, and that the benchmark touches no
private qoslink name.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

NAMED = {  # the workload's own figures, in the result file's "named" table
    "cli-onoff": ["cli_ebw_s", "cli_ecap_s", "cli_throughput_s", "cli_energy_s",
                  "cli_simulate_s"],
    "nstate-correlated": ["sweep_s"],
    "rho-sweep": ["sweep_s"],
    "queue-sim": ["sim_blocks_per_s"],
}


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0, proc.stdout
    return last


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_end_to_end_metrics(workload):
    last = run(workload, 0)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    assert all(v["value"] > 0 for v in last["metrics"].values())
    result = json.loads((ROOT / ".bench_out" / f"result-{workload}-seed7-trace0.json").read_text())
    for name in NAMED[workload] + ["setup_s", "pass_s", "pass_rel", "cal_s", "peak_rss_mb",
                                  "fail_frac"]:
        assert name in result["named"] and result["named"][name]["unit"], name
    assert result["named"]["fail_frac"]["median"] == 0.0
    assert {"nproc", "python", "numpy", "scipy", "blas_threads", "git_commit"} <= set(
        result["facts"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_per_layer_metrics(workload):
    last = run(workload, 1)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    for module in ("sources", "channel", "throughput", "energy", "queuesim", "cli"):
        assert last["metrics"][f"{module}.self_s"]["value"] > 0
    assert (ROOT / ".bench_out" / f"spans-{workload}-seed7.json").is_file()


def test_no_private_qoslink_name_is_used():
    """Only names exported from qoslink, plus qoslink.cli.main, so that
    renaming private helpers can never break the benchmark."""
    import_names = set()
    for path in BENCH.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qoslink"):
                assert node.module in ("qoslink", "qoslink.cli"), (path, node.module)
                import_names |= {a.name for a in node.names}
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("qoslink"):
                        assert alias.name in ("qoslink", "qoslink.cli"), (path, alias.name)
            if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                    and not node.attr.startswith("__"):
                base = node.value
                name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
                assert name not in ("q", "qoslink", "cli"), (path, node.attr)
    assert not any(n.startswith("_") for n in import_names)
