"""Each demo script, and each ```python block of README.md, runs to
completion against the package in this tree, and each llt-check and
identities demo config writes the same CSV twice.  ``brwllt validate``
and ``brwllt version`` import no numpy, and every name ``brwllt``
exports is its defining module's."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import brwllt
from brwllt import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)


def _run_python(args, cwd, status=0):
    """Run python with ``args`` in ``cwd`` against this tree's ``src``,
    expecting exit ``status``; returns its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == status, proc.stderr
    return proc.stdout


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


# numpy and every package module that imports it.
HEAVY = ("numpy", "brwllt.exact_dist", "brwllt.gw_brw", "brwllt.llt", "brwllt.martingales", "brwllt.harness")
# Runs the command line on its arguments, then prints which of HEAVY it loaded.
CLI_PROBE = (
    "import sys; from brwllt.cli import main; status = main(sys.argv[1:]); "
    f"print(sorted(set({HEAVY!r}) & set(sys.modules))); sys.exit(status)"
)
LAW_1D_LAZY = {"d": 1, "zeta0": 0.5, "axes": [[0.5]]}
LOAD_DOCS = {
    "brw_check.json": {
        "experiment": "brw-check", "step_law": LAW_1D_LAZY, "offspring": {"1": 0.5, "3": 0.5},
        "n_values": [8, 16], "n_est": 8, "replicates": 4, "count_width": 128,
    },
    "martingale_check.json": {
        "experiment": "martingale-check", "step_law": LAW_1D_LAZY, "offspring": {"2": 1.0}, "n_values": [10],
    },
    # Refused at load: martingale-check reads no replicates.
    "refused.json": {
        "experiment": "martingale-check", "step_law": LAW_1D_LAZY, "offspring": {"2": 1.0}, "replicates": 50,
    },
}
LOAD_PATH = [["version"], *(["validate", str(p)] for p in CONFIGS), *(["validate", name] for name in LOAD_DOCS)]


@pytest.mark.parametrize("argv", LOAD_PATH, ids=["-".join(Path(a).name for a in argv) for argv in LOAD_PATH])
def test_load_path_imports_no_numpy(argv, tmp_path):
    for name, doc in LOAD_DOCS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    out = _run_python(["-c", CLI_PROBE, *argv], tmp_path, status=2 if argv[-1] == "refused.json" else 0)
    assert out.splitlines()[-1] == "[]"


def test_exports_are_their_modules_names():
    for name, module in brwllt._EXPORTS.items():
        assert getattr(brwllt, name) is getattr(importlib.import_module(f"brwllt.{module}"), name)
    with pytest.raises(AttributeError, match="no_such_name"):
        brwllt.no_such_name
