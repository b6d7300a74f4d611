"""Each demo script runs to completion against the package in this tree,
and each llt-check and identities demo config writes the same CSV twice."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from brwllt import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


CONFIGS = sorted((ROOT / "demos" / "configs").glob("*.json"))
DETERMINISTIC_CONFIGS = [p for p in CONFIGS if json.loads(p.read_text())["experiment"] in ("llt-check", "identities")]


@pytest.mark.parametrize("config", DETERMINISTIC_CONFIGS, ids=[p.name for p in DETERMINISTIC_CONFIGS])
def test_llt_demo_config_repeats_byte_identical(config, tmp_path):
    # What the CI workflow checks with the installed script: each run
    # passes, and two runs write the same bytes.
    blobs = []
    for tag in ("a", "b"):
        path = tmp_path / f"{tag}.csv"
        assert cli.main(["run", str(config), "--output", str(path)]) == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
