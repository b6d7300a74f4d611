"""Pinned values of the walk expansion and the BRW correction terms.

Each digest hashes the ``repr`` of one function's results on fixed laws
(d = 1, 2, 3, the 1-d one bipartite), fixed points, and readouts that are
either seeded at random or read from a seeded branching walk.  Two CSVs
that run these functions end to end, a brw-check and a martingale-check,
are pinned whole.  The digests hold however the functions take their
arguments: only the call syntax below may follow a signature.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from brwllt.gw_brw import ReplicateSeed, simulate, validate_offspring
from brwllt.harness import load_config, run_experiment, write_csv
from brwllt.llt import bracket_coefficients, constants_for, rw_expansion
from brwllt.martingales import (
    FUNCTIONALS,
    MartingaleReadout,
    brw_residual,
    corollary_eval,
    f1_eval,
    f2_eval,
    harmonicity_defect,
    readout,
    theorem_prediction,
)
from brwllt.step_law import lazy_simple_law, moments, validate

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"

LAWS = (
    validate(1, 0.0, [[1.0]]),  # bipartite
    validate(2, 0.2, [[0.3, 0.1], [0.4]]),
    lazy_simple_law(3, 0.25),
)
POINTS = {
    1: ((0,), (2,), (-3,), (5,)),
    2: ((0, 0), (1, -1), (-3, 2), (0, 4)),
    3: ((0, 0, 0), (1, -1, 2), (-2, 0, 3)),
}
NS = (1, 7, 40, 41)
OFFSPRING = validate_offspring({1: 0.5, 3: 0.5})
GENERATION = 6


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def random_readout(d, z, rng):
    values = dict(
        N1=tuple(rng.normal(size=d)),
        N2=tuple(rng.normal(size=d)),
        N2z=float(rng.normal()),
        N3=tuple(rng.normal(size=d)),
        N4=float(rng.normal()),
        W=float(rng.uniform(0.5, 1.5)),
    )
    return MartingaleReadout(n=0, z=z, **values)


def readouts():
    """(law, constants, moments, snapshot or None, readout) per law and point:
    first the readouts of a seeded branching walk at generation 6, then
    seeded random limit values."""
    out = []
    for k, law in enumerate(LAWS):
        c, m = constants_for(law), moments(law)
        ((snap,),) = simulate(OFFSPRING, law, [ReplicateSeed(31 + k, 0)], [GENERATION])
        rng = np.random.default_rng(700 + law.d)
        for z in POINTS[law.d]:
            out.append((law, c, m, snap, readout(snap, OFFSPRING.mean, m, z)))
        for z in POINTS[law.d]:
            out.append((law, c, m, None, random_readout(law.d, z, rng)))
    return out


def values(name):
    results = []
    if name == "bracket_coefficients":
        for law in LAWS:
            c = constants_for(law)
            results += [bracket_coefficients(c, z) for z in POINTS[law.d]]
    elif name == "rw_expansion":
        for law in LAWS:
            c = constants_for(law)
            results += [rw_expansion(c, n, z) for z in POINTS[law.d] for n in NS]
    elif name == "f1_eval":
        results = [f1_eval(ro, c) for _, c, _, _, ro in readouts()]
    elif name == "f2_eval":
        results = [f2_eval(ro, c) for _, c, _, _, ro in readouts()]
    elif name == "theorem_prediction":
        results = [theorem_prediction(ro, c, n) for _, c, _, _, ro in readouts() for n in NS]
    elif name == "brw_residual":
        results = [
            brw_residual(snap, ro, c, OFFSPRING.mean)
            for _, c, _, snap, ro in readouts()
            if snap is not None
        ]
    elif name == "harmonicity_defect":
        for law in LAWS:
            z = POINTS[law.d][1]
            for x in POINTS[law.d]:
                for n in (0, 3, 17):
                    results += [harmonicity_defect(fid, law, x, n, z=z) for fid in FUNCTIONALS]
    elif name == "corollary_eval":
        for law, _, _, _, ro in readouts():
            results += [corollary_eval(sigma, ro) for sigma in (0.0, 0.25, 0.5)]
    return results


@pytest.mark.parametrize(
    "name, want",
    [
        ("bracket_coefficients", "84d3995cb44d46bea2896698b7b3336d40f1029a89c2c61ba265987f9b19c5c0"),
        ("rw_expansion", "acbb5951d8b5215672b35d35a6aa1558eb2d4f844f9320f7c0601014f59ab280"),
        ("f1_eval", "9a536ddda24b90648f8d26c8c1c78d102726d02c746ec114a9acdda5273ebf4f"),
        ("f2_eval", "4dfc7543fc8a4b77d09cf39922873d9bf191c8025c7a2ac8acea4546f09f80bd"),
        ("theorem_prediction", "bca88d8318466114b59e2627a3543f1a3e5655bd91286aa768f061b0ed3c5485"),
        ("brw_residual", "b25b00f3872e414293e0cfcac737686c28cb0c651b7d009b4f40c71170d848eb"),
        ("harmonicity_defect", "f42abd012a9bbb1f0e15ea6858b546a73806715b430f428cf0008fce0f3c03b3"),
        ("corollary_eval", "79fb88ed335bda0336080da4b046e0925804bfaae7c97896cb1f9fde26787453"),
    ],
)
def test_values(name, want):
    assert digest(repr(values(name))) == want


def run_csv(tmp_path, doc) -> str:
    cfg = load_config(doc)
    path = tmp_path / "out.csv"
    write_csv(cfg, run_experiment(cfg), path)
    return path.read_text()


def test_brw_check_demo_bytes(tmp_path):
    doc = json.loads((CONFIGS / "brw_check_binary_1d.json").read_text())
    assert digest(run_csv(tmp_path, doc)) == "bfb4e3a97c2856ffb08e8bd5f7cfc531975180057243bafb38e5927a38e496ee"


def test_martingale_check_bytes(tmp_path):
    doc = {
        "experiment": "martingale-check",
        "step_law": {"d": 2, "zeta0": 0.25, "axes": [[0.375], [0.375]]},
        "offspring": {"1": 0.5, "3": 0.5},
        "n_values": [12],
        "z_set": [[1, -1]],
        "base_seed": 7,
    }
    assert digest(run_csv(tmp_path, doc)) == "850032333b0899615f8852eae2cff7655ab86524e86ffc84209eea08c0240431"
