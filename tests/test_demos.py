"""The demos run against the package as it stands."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qoslink

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("demo_*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # a fresh interpreter on src/, so a name a demo imports cannot go
    # missing unnoticed
    src_dir = str(Path(qoslink.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src_dir}, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout
