"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL
line (visible with ``pytest -s``); the assertion carries the same verdict.
"""

import math

import numpy as np
import pytest

from brwllt.config import load_config
from brwllt.exact_dist import cf_invert_box, convolve_step, delta_dist, dist_at, walk_dist
from brwllt.harness import run_experiment, write_csv
from brwllt.llt import (
    constants_for,
    fit_correction_coefficients,
    gaussian_identity_check,
    rw_expansion,
)
from brwllt.martingales import (
    FUNCTIONALS,
    MartingaleReadout,
    corollary_eval,
    f1_eval,
    f2_eval,
    functional_value,
    harmonicity_defect,
)
from brwllt.step_law import WalkClass, lazy_simple_law, moments, parity_matched, validate

SIMPLE = validate(1, 0.0, [[1.0]])


def report(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} ({name}) failed"


def random_law(rng):
    d = int(rng.integers(1, 4))
    zeta0 = float(rng.uniform(0.0, 0.5))
    lens = [int(rng.integers(1, 4)) for _ in range(d)]
    raw = [list(rng.uniform(0.1, 1.0, size=t)) for t in lens]
    total = math.fsum(math.fsum(row) for row in raw)
    scale = (1.0 - zeta0) / total
    return validate(d, zeta0, [[w * scale for w in row] for row in raw])


def random_readout(d, rng):
    """Random limit values, then a random z, drawn from ``rng`` in that order."""
    values = dict(
        N1=tuple(rng.normal(size=d)),
        N2=tuple(rng.normal(size=d)),
        N2z=float(rng.normal()),
        N3=tuple(rng.normal(size=d)),
        N4=float(rng.normal()),
        W=float(rng.uniform(0.5, 1.5)),
    )
    return MartingaleReadout(n=0, z=tuple(int(v) for v in rng.integers(-3, 4, size=d)), **values)


def test_criterion_01_dual_oracle_equivalence():
    worst = 0.0
    for d in (1, 2):
        for sigma in (0.0, 1.0 / 3.0):
            law = lazy_simple_law(d, sigma)
            dist = delta_dist(law)
            for n in range(1, 51):
                dist = convolve_step(dist, law)
                box = cf_invert_box(law, n)
                worst = max(worst, float(np.abs(dist.mass - box.mass).max()))
    report(1, f"dual-oracle equivalence, max gap {worst:.3g}", worst <= 1e-9)


def test_criterion_02_exact_harmonicity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        law = random_law(rng)
        mom = moments(law)
        x = tuple(int(v) for v in rng.integers(-8, 9, size=law.d))
        n = int(rng.integers(0, 60))
        z = tuple(int(v) for v in rng.integers(-3, 4, size=law.d))
        for fid in FUNCTIONALS:
            defect = harmonicity_defect(fid, law, x, n, z=z)
            val = functional_value(fid, mom, x, n, z=z)
            scale = 1.0 + (max(abs(v) for v in val) if isinstance(val, tuple) else abs(val))
            worst = max(worst, abs(defect) / scale)
    report(2, f"exact harmonicity, max relative defect {worst:.3g}", worst <= 1e-9)


FIT_NS = (1024, 2048, 4096)


@pytest.fixture(scope="module")
def coefficient_fits():
    lazy = lazy_simple_law(1, 0.5)
    return {
        "simple": (fit_correction_coefficients(SIMPLE, (0,), FIT_NS), constants_for(SIMPLE)),
        "lazy": (fit_correction_coefficients(lazy, (0,), FIT_NS), constants_for(lazy)),
    }


def test_criterion_03_first_order_coefficient(coefficient_fits):
    ok = True
    parts = []
    for name, (fit, c) in coefficient_fits.items():
        err = abs(fit.c1_hat - c.tau_d) / abs(c.tau_d)
        parts.append(f"{name}: c1={fit.c1_hat:.6g} vs {c.tau_d} (rel err {err:.2e})")
        ok = ok and err <= 0.01
    report(3, "first-order coefficient; " + "; ".join(parts), ok)


def test_criterion_04_second_order_coefficient(coefficient_fits):
    ok = True
    parts = []
    for name, (fit, c) in coefficient_fits.items():
        err = abs(fit.c2_hat - c.chi_d) / abs(c.chi_d)
        parts.append(f"{name}: c2={fit.c2_hat:.6g} vs {c.chi_d:.6g} (rel err {err:.2e})")
        ok = ok and err <= 0.05
    report(4, "second-order coefficient; " + "; ".join(parts), ok)


def _sup_gamma(law, n, cap):
    """sup |gamma_n(z)| over parity-matched z with ||z|| <= cap, from one
    exact n-step law."""
    dist = walk_dist(law, n)
    c = constants_for(law)
    bipartite = c.walk_class is WalkClass.BIPARTITE
    span = int(math.floor(cap))
    sup = 0.0
    for flat in np.ndindex(*(2 * span + 1,) * law.d):
        z = tuple(v - span for v in flat)
        if math.sqrt(sum(v * v for v in z)) > cap:
            continue
        if bipartite and not parity_matched(n, z):
            continue
        sup = max(sup, abs(n ** (law.d / 2.0 + 2.0) * (dist_at(dist, z) - rw_expansion(c, n, z))))
    return sup


def test_criterion_05_residual_decay():
    # The sup is taken over the z admissible (kappa=0.1, C=1) at both
    # endpoints, i.e. the window of the smaller n, so the two sups range
    # over the same family and the comparison measures decay only.
    kappa, radius_constant = 0.1, 1.0
    cases = [
        (SIMPLE, 128, 1024),
        (lazy_simple_law(1, 0.5), 128, 1024),
        (lazy_simple_law(2, 1.0 / 3.0), 128, 512),
    ]
    ok = True
    parts = []
    for law, n_lo, n_hi in cases:
        cap = radius_constant * min(n_lo, n_hi) ** kappa
        lo = _sup_gamma(law, n_lo, cap)
        hi = _sup_gamma(law, n_hi, cap)
        parts.append(f"d={law.d} zeta0={law.zeta0:.2g}: {lo:.3g} -> {hi:.3g}")
        ok = ok and hi < lo
    report(5, "residual decay; " + "; ".join(parts), ok)


def test_criterion_06_bipartite_factor_two():
    n = 1024
    c = constants_for(SIMPLE)
    dist = walk_dist(SIMPLE, n)
    worst = 0.0
    for z in ((0,), (2,), (-2,), (4,)):
        exact = dist_at(dist, z)
        pred = rw_expansion(c, n, z)
        worst = max(worst, abs(exact / pred - 1.0))
    report(6, f"bipartite factor 2, max relative gap {worst:.3g}", worst <= 0.01)


def test_criterion_07_gaussian_identities():
    from brwllt.step_law import Moments

    worst = 0.0
    for d in (1, 2, 3):
        rng = np.random.default_rng(500 + d)
        g2 = tuple(rng.uniform(0.3, 2.0, size=d))
        g4 = tuple(rng.uniform(0.3, 3.0, size=d))
        g6 = tuple(rng.uniform(0.3, 4.0, size=d))
        m = Moments(gamma2=g2, gamma4=g4, gamma6=g6)
        z = tuple(int(v) for v in rng.integers(-3, 4, size=d))
        worst = max(worst, *gaussian_identity_check(m, z))
    report(7, f"Gaussian identities, max relative error {worst:.3g}", worst <= 1e-8)


def test_criterion_08_corollary_theorem_consistency():
    rng = np.random.default_rng(88)
    ok = True
    worst_first = 0.0
    worst_second = 0.0
    for d in (1, 2, 3):
        c = constants_for(lazy_simple_law(d, 0.0))
        lam = c.lambda_d[0]
        for _ in range(20):
            ro = random_readout(d, rng)
            z2 = sum(v * v for v in ro.z)
            h1, h2 = corollary_eval(0.0, ro)
            worst_first = max(
                worst_first, abs(f1_eval(ro, c) - h1) / max(1.0, abs(h1))
            )
            gap = f2_eval(ro, c) - h2
            expect = 2.0 * (d * (d + 4) / 8.0) * z2 * ro.W
            assert abs(expect - (-2.0 * lam * z2 * ro.W)) <= 1e-12 * max(1.0, expect)
            worst_second = max(
                worst_second, abs(gap - expect) / max(1.0, abs(h2))
            )
    ok = worst_first <= 1e-12 and worst_second <= 1e-10

    # the empirical sign arbiter must emit a verdict row
    cfg = load_config(
        {
            "experiment": "coeff-fit",
            "step_law": {"d": 1, "zeta0": 0.0, "axes": [[1.0]]},
            "n_values": [256, 1024, 4096],
            "z_set": [[2]],
        }
    )
    res = run_experiment(cfg)
    verdicts = [r for r in res.rows if r[0] == "verdict"]
    ok = ok and len(verdicts) == 1 and verdicts[0][-1] == "theorem"
    report(
        8,
        f"corollary consistency, first {worst_first:.2g}, second {worst_second:.2g}, "
        f"sign verdict {verdicts[0][-1]!r}",
        ok,
    )


def test_criterion_09_brw_trend():
    cfg = load_config(
        {
            "experiment": "brw-check",
            "step_law": {"d": 1, "zeta0": 0.0, "axes": [[1.0]]},
            "offspring": {"2": 1.0},
            "replicates": 64,
            "n_values": [16, 32, 48],
            "n_est": 48,
            "z_set": [[0], [2], [-2]],
            "base_seed": 20260823,
        }
    )
    res = run_experiment(cfg)
    report(9, "branching-walk trend and first-order band; " + "; ".join(res.notes), res.passed)


def test_criterion_10_determinism(tmp_path):
    doc = {
        "experiment": "brw-check",
        "step_law": {"d": 1, "zeta0": 0.0, "axes": [[1.0]]},
        "offspring": {"1": 0.5, "3": 0.5},
        "replicates": 8,
        "n_values": [8, 16],
        "n_est": 16,
        "z_set": [[0]],
        "base_seed": 99,
    }
    blobs = []
    for tag in ("a", "b"):
        cfg = load_config(dict(doc))
        res = run_experiment(cfg)
        path = tmp_path / f"{tag}.csv"
        write_csv(cfg, res, path)
        blobs.append(path.read_bytes())
    report(10, "byte-identical repeated runs", blobs[0] == blobs[1])
