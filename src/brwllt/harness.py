"""Experiment runners and CSV emission.

Config loading lives in ``brwllt.config``: ``load_config`` builds the
``ExperimentConfig`` a runner takes, and ``config.EXPERIMENTS`` names the
fields each experiment reads.  ``RUNNERS`` gives each of those experiments
its runner; every emitted row carries the config hash and base seed so it
can be reproduced bit-exactly.

A run's verdict is fixed by the code, not by its config: each runner
returns the ``Gate`` records it checked, and the run passes when all pass.
A NaN fails every gate.  A limit's value is its largest input, NaN if any
is, and brw-check's medians and quartiles over replicates are NaN if any
replicate's value is; a trend's value is its last figure and its bound its
first.  llt-check:
``cf_agreement`` (each |exact - cf| <= ``CF_AGREEMENT``),
``gamma_trend`` (sup|gamma| at the last probe < at the first) and, with 3
or more probes, ``n_gamma_converges`` (at each z, each change of n*gamma
smaller than the one before).  identities: ``identity_rel_err``
(<= ``IDENTITY_REL_ERR``).  coeff-fit: ``c1_rel_err z=(..)`` per point
(<= ``C1_REL_ERR``).  martingale-check, on ``HARMONICITY_POINTS`` grid points
and ``ONE_STEP_SAMPLES`` children: ``harmonicity`` (<= ``HARMONICITY_REL``)
and ``one_step W``, ``N2z``, ``N4`` (|mean - parent| <= 4 standard errors +
1e-12).  brw-check: ``ratio_trend z=(..)`` per point (median|ratio| at the
last probe < at the first) and, with 4 or more replicates, ``f1_band z=(..)``
(median n*ratio in the F1 quartiles, widened by 1e-9).
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
from .martingales import FUNCTIONALS, f1_eval, functional_value, harmonicity_defect, readout
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


@dataclass(frozen=True)
class Gate:
    """One check of a run: its ``value`` against its ``bound``."""

    name: str
    value: float
    bound: float | tuple[float, float]
    passed: bool


def _has_nan(values) -> bool:
    return any(map(math.isnan, values))


def _largest(values) -> float:
    """max(values), or NaN if any value is NaN: ``max`` keeps or drops a NaN by its place."""
    return math.nan if _has_nan(values) else max(values)


def _median(values) -> float:
    """The median, or NaN if any value is NaN: a sort moves a NaN anywhere."""
    return math.nan if _has_nan(values) else statistics.median(values)


def _quartiles(values) -> list[float]:
    """The three quartiles, or three NaNs if any value is NaN, as for ``_median``."""
    return [math.nan] * 3 if _has_nan(values) else statistics.quantiles(values, n=4)


def _limit(name: str, values: list, bound: float) -> Gate:
    """Every value <= bound."""
    return Gate(name, _largest(values), bound, all(v <= bound for v in values))


@dataclass
class RunResult:
    columns: tuple[str, ...]
    rows: list[tuple]
    gates: list[Gate]
    notes: list[str] = field(default_factory=list)
    # Deterministic figures for the CSV's audit header, in this order.
    audit: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.gates)


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
    rows, gaps, gammas = [], [], []  # gammas[i][j]: gamma at probes[i], z_set[j]
    negative_mass = 0.0
    probes = sorted(set(cfg.n_values))
    exact_mass, total_mass = axis_mixture(cfg.law, probes, cfg.z_set)
    for n, at in zip(probes, exact_mass.tolist()):
        dist = cf_invert_box(cfg.law, n)
        negative_mass = max(negative_mass, dist.negative_mass())
        gammas.append([])
        for z, exact in zip(cfg.z_set, at):
            cf = dist_at(dist, z)
            pred = rw_expansion(c, n, z)
            gammas[-1].append(n ** (cfg.law.d / 2.0 + 2.0) * (exact - pred))
            gaps.append(abs(exact - cf))
            rows.append((n, *z, exact, cf, pred, gammas[-1][-1]))
    sups = [_largest([abs(g) for g in at]) for at in gammas]
    rows += [(n, *("sup",) * cfg.law.d, "", "", "", sup) for n, sup in zip(probes, sups)]
    agreement = _limit("cf_agreement", gaps, CF_AGREEMENT)
    gates = [agreement, Gate("gamma_trend", sups[-1], sups[0], sups[-1] < sups[0])]
    if len(probes) >= 3:
        # |change of n*gamma(z)| from each probe to the next, then how much each outgrows the one before.
        moves = np.abs(np.diff(np.array(probes)[:, None] * np.array(gammas), axis=0))
        growth = np.diff(moves, axis=0).ravel().tolist()
        gates.append(Gate("n_gamma_converges", _largest(growth), 0.0, all(g < 0.0 for g in growth)))
    notes = [
        f"sup|gamma| at n={probes[0]}: {sups[0]:.6g}",
        f"sup|gamma| at n={probes[-1]}: {sups[-1]:.6g}",
        f"exact/cf agreement within {CF_AGREEMENT}: {agreement.passed}",
    ]
    cols = ("n", *(f"z{s + 1}" for s in range(cfg.law.d)), "exact", "cf_invert", "predicted", "gamma")
    audit = {
        "oracle_gap_max": agreement.value,
        "cf_negative_mass": negative_mass,
        "exact_mass_drift": 1.0 - float(total_mass[-1]),
    }
    return RunResult(cols, rows, gates, notes, audit)


def run_coeff_fit(cfg: ExperimentConfig) -> RunResult:
    """Empirical 1/n, 1/n^2 coefficients plus the Lambda-sign verdict."""
    rows, gates, notes = [], [], []
    for z, fit in zip(cfg.z_set, fit_points(cfg.law, cfg.z_set, cfg.n_values)):
        for n, c1, c2 in zip(fit.n_list, fit.c1_seq, fit.c2_seq):
            rows.append(("fit", *z, n, c1, c2, "", ""))
        verdict = "theorem" if abs(fit.c2_hat - fit.c2_theorem) <= abs(fit.c2_hat - fit.c2_flipped) else "flipped"
        rows.append(("verdict", *z, fit.n_list[-1], fit.c1_hat, fit.c2_hat, fit.c2_theorem, verdict))
        c1_err = abs(fit.c1_hat - fit.c1_exact) / max(abs(fit.c1_exact), 1e-30)
        gates.append(_limit(f"c1_rel_err z={z}", [c1_err], C1_REL_ERR))
        notes.append(
            f"z={z}: c1_hat={fit.c1_hat:.6g} (exact {fit.c1_exact:.6g}), "
            f"c2_hat={fit.c2_hat:.6g}, sign verdict: {verdict}"
        )
    cols = ("kind", *(f"z{s + 1}" for s in range(cfg.law.d)), "n", "c1", "c2", "c2_candidate", "verdict")
    return RunResult(cols, rows, gates, notes)


def run_identities(cfg: ExperimentConfig) -> RunResult:
    """Relative errors of the Gaussian moment identities at the config's z."""
    errs = gaussian_identity_check(moments(cfg.law), cfg.z_set[0])
    gate = _limit("identity_rel_err", errs, IDENTITY_REL_ERR)
    rows = list(enumerate(errs, start=1))
    return RunResult(("identity", "relative_error"), rows, [gate], [f"all {len(errs)} <= {IDENTITY_REL_ERR}: {gate.passed}"])


def run_martingale_check(cfg: ExperimentConfig) -> RunResult:
    """Exact harmonicity grid, one-step martingale Monte Carlo, trajectories."""
    m = moments(cfg.law)
    z = cfg.z_set[0]
    rng = np.random.Generator(np.random.Philox(key=np.array([cfg.base_seed, 0x6D61727467], dtype=np.uint64)))
    rows, rels = [], []

    # (a) harmonicity on a randomized grid.
    span = 5 * cfg.law.max_range
    for _ in range(HARMONICITY_POINTS):
        x = tuple(rng.integers(-span, span + 1, size=cfg.law.d).tolist())
        n = rng.integers(0, 60).item()
        for fid in FUNCTIONALS:
            defect = harmonicity_defect(fid, cfg.law, x, n, z=z)
            val = functional_value(fid, m, x, n, z=z)
            scale = 1.0 + (max(abs(v) for v in val) if isinstance(val, tuple) else abs(val))
            rels.append(abs(defect) / scale)
            rows.append(("harmonicity", fid, *x, n, defect, rels[-1]))
    gates = [_limit("harmonicity", rels, HARMONICITY_REL)]

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
        gates.append(_limit(f"one_step {fid}", [abs(mean - parent_val)], 4.0 * se + 1e-12))
        rows.append(("one-step", fid, *(("",) * cfg.law.d), base.n + 1, mean - parent_val, se))

    # (c) readout trajectory for visual convergence.
    n_max = max(cfg.n_values) if cfg.n_values else 30
    seed = ReplicateSeed(cfg.base_seed, 10**6)
    (states,) = simulate(cfg.offspring, cfg.law, [seed], range(1, n_max + 1), cfg.count_width)
    for state in states:
        ro = readout(state, cfg.offspring.mean, m, z)
        rows.append(("trajectory", "all", *(("",) * cfg.law.d), ro.n, ro.W, ro.N4))
    cols = ("kind", "functional", *(f"x{s + 1}" for s in range(cfg.law.d)), "n", "value", "aux")
    return RunResult(cols, rows, gates, [f"harmonicity and one-step checks pass: {all(g.passed for g in gates)}"])


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
    gates, notes = [], []
    for z in cfg.z_set:
        meds = {}
        for n in probes:
            meds[n] = _median([abs(v) for v in per_probe[(n, z)]])
            q = _quartiles(per_probe[(n, z)]) if band else ("",) * 3
            rows.append(("agg", n, *z, meds[n], q[0], q[2], ""))
        first, last = meds[probes[0]], meds[probes[-1]]
        gates.append(Gate(f"ratio_trend z={z}", last, first, last < first))
        notes.append(f"z={z}: median|ratio| {first:.4g} (n={probes[0]}) -> {last:.4g} (n={probes[-1]})")
        # first-order band check at the largest probe
        if not band:
            notes.append(f"z={z}: F1 band not checked ({cfg.replicates} replicates, needs 4)")
            continue
        lo, _, hi = _quartiles(f1_bands[z])
        med_scaled = _median([probes[-1] * v for v in per_probe[(probes[-1], z)]])
        gates.append(Gate(f"f1_band z={z}", med_scaled, (lo, hi), lo - 1e-9 <= med_scaled <= hi + 1e-9))
        notes.append(f"z={z}: n*(ratio) median {med_scaled:.4g} vs F1 IQR [{lo:.4g}, {hi:.4g}]")
    cols = ("replicate", "n", *(f"z{s + 1}" for s in range(cfg.law.d)), "observed", "predicted", "ratio", "W_n")
    return RunResult(cols, rows, gates, notes)


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
