"""Experiment runners and CSV emission.

Config loading lives in ``brwllt.config``: ``load_config`` builds the
``ExperimentConfig`` a runner takes, and ``config.EXPERIMENTS`` names the
fields each experiment reads.  ``RUNNERS`` gives each of those experiments
its runner; every emitted row carries the config hash and base seed so it
can be reproduced bit-exactly.

A run's verdict is fixed by the code, not by its config.  Its gates are
``CF_AGREEMENT`` (llt-check, exact against CF), ``IDENTITY_REL_ERR``
(identities), ``HARMONICITY_REL`` (martingale-check's harmonicity grid)
and ``C1_REL_ERR`` (coeff-fit's relative c1 error), and martingale-check
draws ``HARMONICITY_POINTS`` grid points and ``ONE_STEP_SAMPLES``
one-step children whatever its config.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .exact_dist import axis_mixture, cf_invert_box, dist_at
from .gw_brw import ReplicateSeed, simulate
from .llt import constants_for, fit_points, gaussian_identity_check, leading_factor, rw_expansion
from .martingales import (
    FUNCTIONALS,
    f1_eval,
    functional_value,
    harmonicity_defect,
    readout,
)
from .step_law import moments

# Version of the random streams behind every sampled figure; it changes
# whenever the same config and seed would draw different numbers.  2: one
# Philox stream per (base seed, replicate, generation), cells drawn in
# lexicographic order.
STREAM_VERSION = 2

CF_AGREEMENT = 1e-9
IDENTITY_REL_ERR = 1e-8
HARMONICITY_REL = 1e-9
C1_REL_ERR = 0.01
HARMONICITY_POINTS = 100
ONE_STEP_SAMPLES = 200


@dataclass
class RunResult:
    columns: tuple[str, ...]
    rows: list[tuple]
    passed: bool
    notes: list[str] = field(default_factory=list)
    # Deterministic figures for the CSV's audit header, in this order.
    audit: dict = field(default_factory=dict)


def run_llt_check(cfg: ExperimentConfig) -> RunResult:
    """Exact probability vs CF inversion vs second-order prediction.

    The axis mixture (:func:`axis_mixture`) gives the exact value at the
    probe n only; one CF inversion per probe n (:func:`cf_invert_box`,
    read at orthant cell |z| by :func:`dist_at`) gives the independent
    value at every z.  The audit figures are the largest
    |exact - cf_invert| over the rows, the largest negative mass of a CF
    law over its whole box (``LatticeDist.negative_mass``, summed on the
    orthant with mirror multiplicities), and 1 - the mixture's whole mass
    at the largest probe.
    """
    c = constants_for(cfg.law)
    rows = []
    sup_gamma = {}
    gap_max = 0.0
    negative_mass = 0.0
    probes = sorted(set(cfg.n_values))
    exact_mass, total_mass = axis_mixture(cfg.law, probes, cfg.z_set)
    for n, at in zip(probes, exact_mass.tolist()):
        sup = 0.0
        dist = cf_invert_box(cfg.law, n)
        negative_mass = max(negative_mass, dist.negative_mass())
        for z, exact in zip(cfg.z_set, at):
            cf = dist_at(dist, z)
            pred = rw_expansion(c, n, z)
            gamma = n ** (cfg.law.d / 2.0 + 2.0) * (exact - pred)
            sup = max(sup, abs(gamma))
            gap_max = max(gap_max, abs(exact - cf))
            rows.append((n, *z, exact, cf, pred, gamma))
        sup_gamma[n] = sup
    for n in probes:
        rows.append((n, *("sup",) * cfg.law.d, "", "", "", sup_gamma[n]))
    decreasing = sup_gamma[probes[-1]] < sup_gamma[probes[0]]
    cf_ok = gap_max <= CF_AGREEMENT
    notes = [
        f"sup|gamma| at n={probes[0]}: {sup_gamma[probes[0]]:.6g}",
        f"sup|gamma| at n={probes[-1]}: {sup_gamma[probes[-1]]:.6g}",
        f"exact/cf agreement within {CF_AGREEMENT}: {cf_ok}",
    ]
    cols = ("n", *(f"z{s + 1}" for s in range(cfg.law.d)), "exact", "cf_invert", "predicted", "gamma")
    audit = {
        "oracle_gap_max": gap_max,
        "cf_negative_mass": negative_mass,
        "exact_mass_drift": 1.0 - float(total_mass[-1]),
    }
    return RunResult(cols, rows, cf_ok and decreasing, notes, audit)


def run_coeff_fit(cfg: ExperimentConfig) -> RunResult:
    """Empirical 1/n, 1/n^2 coefficients plus the Lambda-sign verdict."""
    rows = []
    ok = True
    notes = []
    for z, fit in zip(cfg.z_set, fit_points(cfg.law, cfg.z_set, cfg.n_values)):
        for n, c1, c2 in zip(fit.n_list, fit.c1_seq, fit.c2_seq):
            rows.append(("fit", *z, n, c1, c2, "", ""))
        err_theorem = abs(fit.c2_hat - fit.c2_theorem)
        err_flipped = abs(fit.c2_hat - fit.c2_flipped)
        verdict = "theorem" if err_theorem <= err_flipped else "flipped"
        rows.append(
            ("verdict", *z, fit.n_list[-1], fit.c1_hat, fit.c2_hat, fit.c2_theorem, verdict)
        )
        c1_err = abs(fit.c1_hat - fit.c1_exact) / max(abs(fit.c1_exact), 1e-30)
        if c1_err > C1_REL_ERR:
            ok = False
        notes.append(
            f"z={z}: c1_hat={fit.c1_hat:.6g} (exact {fit.c1_exact:.6g}), "
            f"c2_hat={fit.c2_hat:.6g}, sign verdict: {verdict}"
        )
    cols = ("kind", *(f"z{s + 1}" for s in range(cfg.law.d)), "n", "c1", "c2", "c2_candidate", "verdict")
    return RunResult(cols, rows, ok, notes)


def run_identities(cfg: ExperimentConfig) -> RunResult:
    """Relative errors of the Gaussian moment identities at the config's z."""
    errs = gaussian_identity_check(moments(cfg.law), cfg.z_set[0])
    ok = all(e <= IDENTITY_REL_ERR for e in errs)
    rows = list(enumerate(errs, start=1))
    return RunResult(("identity", "relative_error"), rows, ok, [f"all {len(errs)} <= {IDENTITY_REL_ERR}: {ok}"])


def run_martingale_check(cfg: ExperimentConfig) -> RunResult:
    """Exact harmonicity grid, one-step martingale Monte Carlo, trajectories."""
    m = moments(cfg.law)
    z = cfg.z_set[0]
    rng = np.random.Generator(np.random.Philox(key=np.array([cfg.base_seed, 0x6D61727467], dtype=np.uint64)))
    rows = []
    ok = True

    # (a) harmonicity on a randomized grid.
    span = 5 * cfg.law.max_range
    for _ in range(HARMONICITY_POINTS):
        x = tuple(rng.integers(-span, span + 1, size=cfg.law.d).tolist())
        n = rng.integers(0, 60).item()
        for fid in FUNCTIONALS:
            defect = harmonicity_defect(fid, cfg.law, x, n, z=z)
            val = functional_value(fid, m, x, n, z=z)
            scale = 1.0 + (max(abs(v) for v in val) if isinstance(val, tuple) else abs(val))
            rel = abs(defect) / scale
            if rel > HARMONICITY_REL:
                ok = False
            rows.append(("harmonicity", fid, *x, n, defect, rel))

    # (b) one-step annealed martingale check by Monte Carlo.
    ((base,),) = simulate(cfg.offspring, cfg.law, [ReplicateSeed(cfg.base_seed, 0)], (4,), cfg.count_width)
    parent = readout(base, cfg.offspring.mean, m, z)
    samples = {fid: [] for fid in ("W", "N2z", "N4")}
    seeds = [ReplicateSeed(cfg.base_seed, r) for r in range(1, ONE_STEP_SAMPLES + 1)]
    for (child_state,) in simulate(cfg.offspring, cfg.law, seeds, (base.n + 1,), cfg.count_width, start=base):
        child = readout(child_state, cfg.offspring.mean, m, z)
        for fid, vals in samples.items():
            vals.append(getattr(child, fid))
    for fid, vals in samples.items():
        mean = statistics.fmean(vals)
        se = statistics.stdev(vals) / math.sqrt(len(vals)) if len(vals) > 1 else 0.0
        parent_val = getattr(parent, fid)
        within = abs(mean - parent_val) <= 4.0 * se + 1e-12
        if not within:
            ok = False
        rows.append(("one-step", fid, *(("",) * cfg.law.d), base.n + 1, mean - parent_val, se))

    # (c) readout trajectory for visual convergence.
    n_max = max(cfg.n_values) if cfg.n_values else 30
    seed = ReplicateSeed(cfg.base_seed, 10**6)
    (states,) = simulate(cfg.offspring, cfg.law, [seed], range(1, n_max + 1), cfg.count_width)
    for state in states:
        ro = readout(state, cfg.offspring.mean, m, z)
        rows.append(("trajectory", "all", *(("",) * cfg.law.d), ro.n, ro.W, ro.N4))
    cols = ("kind", "functional", *(f"x{s + 1}" for s in range(cfg.law.d)), "n", "value", "aux")
    return RunResult(cols, rows, ok, [f"harmonicity and one-step checks pass: {ok}"])


def run_brw_check(cfg: ExperimentConfig) -> RunResult:
    """Per-replicate residual rows plus median/IQR aggregates across replicates;
    the F1 band, and its readouts at ``n_est``, only with 4 or more replicates."""
    c = constants_for(cfg.law)
    probes = sorted(set(cfg.n_values))
    n_est = cfg.n_est if cfg.n_est is not None else probes[-1]
    band = cfg.replicates >= 4
    schedule = probes + [n_est] if band else probes
    rows = []
    per_probe: dict = {(n, z): [] for n in probes for z in cfg.z_set}
    f1_bands: dict = {z: [] for z in cfg.z_set}
    mean = cfg.offspring.mean
    seeds = [ReplicateSeed(cfg.base_seed, rep) for rep in range(cfg.replicates)]
    for rep, snaps in enumerate(simulate(cfg.offspring, cfg.law, seeds, schedule, cfg.count_width)):
        by_n = {st.n: st for st in snaps}
        for z in cfg.z_set:
            if band:
                f1_bands[z].append(f1_eval(readout(by_n[n_est], mean, c.moments, z), c))
            for n in probes:
                st = by_n[n]
                observed = mean ** (-n) * st.counts.get(z, 0)
                lead = leading_factor(c, n)
                w_n = st.total / mean**n
                ratio = observed / lead - w_n
                per_probe[(n, z)].append(ratio)
                rows.append((rep, n, *z, observed, lead * w_n, ratio, w_n))
    ok = True
    notes = []
    for z in cfg.z_set:
        meds = {}
        for n in probes:
            vals = [abs(v) for v in per_probe[(n, z)]]
            meds[n] = statistics.median(vals)
            q = statistics.quantiles(per_probe[(n, z)], n=4) if band else ("",) * 3
            rows.append(("agg", n, *z, meds[n], q[0], q[2], ""))
        if meds[probes[-1]] >= meds[probes[0]]:
            ok = False
        notes.append(
            f"z={z}: median|ratio| {meds[probes[0]]:.4g} (n={probes[0]}) -> "
            f"{meds[probes[-1]]:.4g} (n={probes[-1]})"
        )
        # first-order band check at the largest probe
        if not band:
            notes.append(f"z={z}: F1 band not checked ({cfg.replicates} replicates, needs 4)")
            continue
        lo, _, hi = statistics.quantiles(f1_bands[z], n=4)
        med_scaled = statistics.median([probes[-1] * v for v in per_probe[(probes[-1], z)]])
        if not lo - 1e-9 <= med_scaled <= hi + 1e-9:
            ok = False
        notes.append(f"z={z}: n*(ratio) median {med_scaled:.4g} vs F1 IQR [{lo:.4g}, {hi:.4g}]")
    cols = ("replicate", "n", *(f"z{s + 1}" for s in range(cfg.law.d)), "observed", "predicted", "ratio", "W_n")
    return RunResult(cols, rows, ok, notes)


# One runner per experiment of ``config.EXPERIMENTS``, in its order.
RUNNERS = {
    "llt-check": run_llt_check,
    "coeff-fit": run_coeff_fit,
    "identities": run_identities,
    "martingale-check": run_martingale_check,
    "brw-check": run_brw_check,
}


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    return RUNNERS[cfg.experiment](cfg)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(cfg: ExperimentConfig, result: RunResult, path) -> None:
    """Emit rows with a #-prefixed audit header."""
    with open(path, "w") as fh:
        fh.write(f"# config_hash={cfg.config_hash}\n")
        fh.write(f"# tool_version={__version__}\n")
        fh.write(f"# stream_version={STREAM_VERSION}\n")
        fh.write(f"# base_seed={cfg.base_seed}\n")
        fh.write(f"# experiment={cfg.experiment}\n")
        fh.write(f"# passed={result.passed}\n")
        for key, value in result.audit.items():
            fh.write(f"# {key}={_fmt(value)}\n")
        fh.write(",".join(result.columns) + "\n")
        for row in result.rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
