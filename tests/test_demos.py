"""Each demo script, and each ```python block of README.md, runs to
completion against the package in this tree, and each llt-check and
identities demo config writes the same CSV twice."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from brwllt import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)


def _run_python(args, cwd):
    """Run python with ``args`` in ``cwd`` against this tree's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    _run_python([str(demo)], tmp_path)


def test_readme_has_a_tour():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS, ids=[f"block{k}" for k in range(len(README_BLOCKS))])
def test_readme_block_runs(block, tmp_path):
    _run_python(["-c", block], tmp_path)


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
