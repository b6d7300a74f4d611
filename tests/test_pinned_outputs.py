"""Pinned output bytes: distribution dumps, llt-check and coeff-fit CSVs.

The digests were taken when ``LatticeDist`` stored the whole mirrored box,
and must not move with the stored layout.  The coeff-fit config includes a
point beyond reach, read as 0.0.  The llt-check digests skip the
``# exact_mass_drift=`` line, whose last digits follow the summation order
of the mixture's row totals.
"""

import hashlib
import json
from pathlib import Path

import pytest

from brwllt.config import load_config
from brwllt.exact_dist import dump_csv, walk_dist
from brwllt.harness import run_experiment, write_csv
from brwllt.step_law import lazy_simple_law, validate

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "law, n, want",
    [
        (validate(1, 0.5, [[0.5]]), 60, "eec8986ed2c07ffb6824b3619a2d5371d95b2dcb7792701ccb783fcad72c77cb"),
        (
            validate(2, 0.0, [[0.3, 0.0, 0.2], [0.5]]),
            12,
            "59124afb032a04ed0b8ec2f5420415b757915adf641ce7d37ad6d7211a56cb26",
        ),
        (lazy_simple_law(3, 0.25), 8, "37cb99ebf1ce1a34026304a48def5636d0bb0f59981c9bac84698e27da4e491b"),
    ],
    ids=["lazy-1d", "bipartite-2d", "lazy-3d"],
)
def test_dump_csv_bytes(tmp_path, law, n, want):
    path = tmp_path / "dist.csv"
    dump_csv(walk_dist(law, n), path)
    assert digest(path.read_text()) == want


def run_csv(tmp_path, doc) -> str:
    cfg = load_config(doc)
    path = tmp_path / "out.csv"
    write_csv(cfg, run_experiment(cfg), path)
    return path.read_text()


@pytest.mark.parametrize(
    "name, want",
    [
        ("llt_check_2d", "48b3ffef5f7e108dbc19f9013617d23c754e1c54b2befafcea70ace0797dd2d8"),
        ("llt_check_lazy_1d", "bec3b4a21b3dff70280ddeec30d24df88aca4a9dd01fa40d331c59ed724bbfb0"),
    ],
)
def test_llt_check_demo_bytes(tmp_path, name, want):
    text = run_csv(tmp_path, json.loads((CONFIGS / f"{name}.json").read_text()))
    kept = [line for line in text.splitlines(keepends=True) if not line.startswith("# exact_mass_drift=")]
    assert len(kept) == len(text.splitlines()) - 1
    assert digest("".join(kept)) == want


def test_coeff_fit_2d_bytes(tmp_path):
    doc = {
        "experiment": "coeff-fit",
        "step_law": {"d": 2, "zeta0": 0.2, "axes": [[0.3, 0.1], [0.4]]},
        "n_values": [40, 80, 160, 240],
        "z_set": [[0, 0], [1, -1], [-3, 2], [0, 250]],
        "base_seed": 1,
    }
    want = "eaacc10cf741fe6e3e8a34fc9e0e981df2bd31c3f4f43f9ffcd40ba134cdb4dd"
    assert digest(run_csv(tmp_path, doc)) == want
