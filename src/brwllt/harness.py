"""Experiment orchestration: config ingestion, runners, CSV emission.

A single JSON config describes one experiment; every emitted row carries
the config hash and base seed so it can be reproduced bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import BrwlltError, ConfigError
from .exact_dist import DEFAULT_ELEMENT_BUDGET, box_shape, cf_invert_box, convolve_step, delta_dist, dist_at
from .gw_brw import (
    OffspringLaw,
    ReplicateSeed,
    evolve_generation,
    initial_state,
    simulate,
    validate_offspring,
)
from .llt import (
    constants,
    fit_correction_coefficients,
    gaussian_identity_check,
    leading_factor,
    parity_matched,
    rw_expansion,
)
from .martingales import (
    FUNCTIONALS,
    f1_eval,
    functional_value,
    harmonicity_defect,
    readout,
)
from .step_law import StepLaw, WalkClass, classify, json_int, json_keys, json_number, law_from_dict, moments

EXPERIMENTS = ("llt-check", "coeff-fit", "identities", "martingale-check", "brw-check")
FIELDS = (
    "experiment", "step_law", "offspring", "n_values", "z_set", "replicates", "base_seed",
    "kappa", "z_radius_constant", "n_est", "count_width", "output", "thresholds",
)

# Version of the random streams behind every sampled figure; it changes
# whenever the same config and seed would draw different numbers.  2: one
# Philox stream per (base seed, replicate, generation), cells drawn in
# lexicographic order.
STREAM_VERSION = 2

DEFAULT_THRESHOLDS = {
    "cf_agreement": 1e-9,
    "identity_rel_err": 1e-8,
    "harmonicity_rel": 1e-9,
    "c1_rel_err": 0.01,
}


@dataclass
class ExperimentConfig:
    experiment: str
    law: StepLaw
    offspring: OffspringLaw | None
    n_values: tuple[int, ...]
    z_set: tuple[tuple[int, ...], ...]
    replicates: int
    base_seed: int
    kappa: float
    z_radius_constant: float
    n_est: int | None
    count_width: int
    output: str | None
    thresholds: dict
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def config_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@contextmanager
def _field(name: str):
    """Re-raise a failure to read config field ``name`` as an error that
    names it: typed package errors keep their type, bare Python errors
    become ``ConfigError``."""
    try:
        yield
    except ConfigError:
        raise
    except BrwlltError as exc:
        raise type(exc)(f"{name}: {exc}") from exc
    except KeyError as exc:
        raise ConfigError(f"{name}: missing key {exc}") from exc
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def _positive(value) -> float:
    value = float(json_number(value))
    if not 0.0 < value < math.inf:
        raise ValueError(f"{value} is not a positive finite number")
    return value


def load_config(doc: dict) -> ExperimentConfig:
    """Validate a config document and build the typed experiment config.

    Missing, malformed or inconsistent fields raise a ``BrwlltError`` whose
    message starts with the field name (``ConfigError`` unless the step law
    or offspring validator raised a more specific type), here rather than
    deep inside a runner.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"config: expected a JSON object, got {type(doc).__name__}")
    with _field("config"):
        json_keys(doc, FIELDS)
    for key in ("experiment", "step_law"):
        if key not in doc:
            raise ConfigError(f"{key}: required field missing")
    experiment = doc["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment: unknown {experiment!r}; expected one of {EXPERIMENTS}")
    with _field("step_law"):
        law = law_from_dict(doc["step_law"])
    offspring = None
    if "offspring" in doc:
        with _field("offspring"):
            offspring = validate_offspring(doc["offspring"])
    if experiment == "brw-check" and offspring is None:
        raise ConfigError("offspring: brw-check requires an offspring spec")
    with _field("kappa"):
        kappa = float(json_number(doc.get("kappa", 0.15)))
    if not 0.0 < kappa < 1.0 / 6.0:
        raise ConfigError(f"kappa: {kappa} outside (0, 1/6)")
    with _field("n_values"):
        n_values = tuple(json_int(n) for n in _list(doc.get("n_values", [])))
    if experiment in ("llt-check", "brw-check") and not n_values:
        raise ConfigError(f"n_values: {experiment} needs at least one probe n")
    if any(n < 1 for n in n_values):
        raise ConfigError(f"n_values: every probe n must be >= 1, got {list(n_values)}")
    if experiment in ("llt-check", "coeff-fit") and n_values:
        shape = box_shape(law, max(n_values))
        if math.prod(shape) > DEFAULT_ELEMENT_BUDGET:
            raise ConfigError(
                f"n_values: the {max(n_values)}-step box {shape} exceeds the "
                f"element budget {DEFAULT_ELEMENT_BUDGET}"
            )
    increasing = all(a < b for a, b in zip(n_values, n_values[1:]))
    if experiment == "coeff-fit" and not (len(n_values) >= 3 and increasing):
        raise ConfigError(f"n_values: coeff-fit needs 3 or more increasing probes, got {list(n_values)}")
    with _field("n_est"):
        n_est = json_int(doc["n_est"]) if "n_est" in doc else None
    if experiment == "brw-check" and n_est is not None and not 1 <= n_est <= max(n_values):
        raise ConfigError(f"n_est: {n_est} outside [1, max(n_values) = {max(n_values)}]")
    with _field("replicates"):
        replicates = json_int(doc.get("replicates", 1))
    if replicates < 1:
        raise ConfigError(f"replicates: {replicates} must be >= 1")
    with _field("z_set"):
        z_set = tuple(tuple(json_int(c) for c in _list(z)) for z in _list(doc.get("z_set", [[0] * law.d])))
    if not z_set:
        raise ConfigError("z_set: needs at least one lattice point")
    for z in z_set:
        if len(z) != law.d:
            raise ConfigError(f"z_set: z = {z} has wrong dimension, expected {law.d}")
        mismatched = [n for n in n_values if not parity_matched(n, z)]
        if experiment == "coeff-fit" and mismatched and classify(law) is WalkClass.BIPARTITE:
            raise ConfigError(f"z_set: z = {z} is parity-incompatible with n = {mismatched[0]} (bipartite law)")
    with _field("count_width"):
        count_width = json_int(doc.get("count_width", 64))
    if count_width not in (64, 128):
        raise ConfigError("count_width: must be 64 or 128")
    thresholds = dict(DEFAULT_THRESHOLDS)
    with _field("thresholds"):
        given = doc.get("thresholds", {})
        if not isinstance(given, dict):
            raise TypeError(f"expected an object, got {type(given).__name__}")
        json_keys(given, DEFAULT_THRESHOLDS)
        thresholds.update({key: _positive(value) for key, value in given.items()})
    with _field("base_seed"):
        base_seed = json_int(doc.get("base_seed", 0))
    with _field("z_radius_constant"):
        z_radius_constant = _positive(doc.get("z_radius_constant", 1.0))
    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError(f"output: expected a path string, got {type(output).__name__}")
    return ExperimentConfig(
        experiment=experiment,
        law=law,
        offspring=offspring,
        n_values=n_values,
        z_set=z_set,
        replicates=replicates,
        base_seed=base_seed,
        kappa=kappa,
        z_radius_constant=z_radius_constant,
        n_est=n_est,
        count_width=count_width,
        output=output,
        thresholds=thresholds,
        raw=doc,
    )


def load_config_file(path) -> ExperimentConfig:
    with open(path) as fh:
        return load_config(json.load(fh))


def admissible_z(cfg: ExperimentConfig, n: int):
    """The configured z set filtered to ||z|| <= C * n^kappa."""
    cap = cfg.z_radius_constant * n**cfg.kappa
    return [z for z in cfg.z_set if math.sqrt(sum(c * c for c in z)) <= cap]


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

    Stepwise convolution is the oracle; one CF box per probe n gives the
    independent value for every admissible z.  The audit figures are the
    largest |exact - cf_invert| over the rows, the largest total negative
    mass of a CF box, and 1 - sum of the convolution box at the largest
    probe.
    """
    m = moments(cfg.law)
    c = constants(m, classify(cfg.law))
    rows = []
    sup_gamma = {}
    gap_max = 0.0
    negative_mass = 0.0
    dist = delta_dist(cfg.law)
    probes = sorted(set(cfg.n_values))
    for n in range(1, max(probes) + 1):
        dist = convolve_step(dist, cfg.law)
        if n not in probes:
            continue
        sup = 0.0
        zs = admissible_z(cfg, n)
        box = cf_invert_box(cfg.law, n) if zs else None
        if box is not None:
            negative_mass = max(negative_mass, -float(np.minimum(box.mass, 0.0).sum()))
        for z in zs:
            exact = dist_at(dist, z)
            cf = dist_at(box, z)
            pred = rw_expansion(c, m, n, z)
            gamma = n ** (cfg.law.d / 2.0 + 2.0) * (exact - pred)
            sup = max(sup, abs(gamma))
            gap_max = max(gap_max, abs(exact - cf))
            rows.append((n, *z, exact, cf, pred, gamma))
        sup_gamma[n] = sup
    for n in probes:
        rows.append((n, *("sup",) * cfg.law.d, "", "", "", sup_gamma[n]))
    decreasing = sup_gamma[probes[-1]] < sup_gamma[probes[0]]
    cf_ok = gap_max <= cfg.thresholds["cf_agreement"]
    notes = [
        f"sup|gamma| at n={probes[0]}: {sup_gamma[probes[0]]:.6g}",
        f"sup|gamma| at n={probes[-1]}: {sup_gamma[probes[-1]]:.6g}",
        f"convolution/cf agreement within {cfg.thresholds['cf_agreement']}: {cf_ok}",
    ]
    cols = ("n", *(f"z{s + 1}" for s in range(cfg.law.d)), "exact", "cf_invert", "predicted", "gamma")
    audit = {
        "oracle_gap_max": gap_max,
        "cf_negative_mass": negative_mass,
        "conv_mass_drift": 1.0 - dist.total(),
    }
    return RunResult(cols, rows, cf_ok and decreasing, notes, audit)


def run_coeff_fit(cfg: ExperimentConfig) -> RunResult:
    """Empirical 1/n, 1/n^2 coefficients plus the Lambda-sign verdict."""
    rows = []
    ok = True
    notes = []
    for z in cfg.z_set:
        fit = fit_correction_coefficients(cfg.law, z, cfg.n_values)
        for n, c1, c2 in zip(fit.n_list, fit.c1_seq, fit.c2_seq):
            rows.append(("fit", *z, n, c1, c2, "", ""))
        err_theorem = abs(fit.c2_hat - fit.c2_theorem)
        err_flipped = abs(fit.c2_hat - fit.c2_flipped)
        verdict = "theorem" if err_theorem <= err_flipped else "flipped"
        rows.append(
            ("verdict", *z, fit.n_list[-1], fit.c1_hat, fit.c2_hat, fit.c2_theorem, verdict)
        )
        c1_err = abs(fit.c1_hat - fit.c1_exact) / max(abs(fit.c1_exact), 1e-30)
        if c1_err > cfg.thresholds["c1_rel_err"]:
            ok = False
        notes.append(
            f"z={z}: c1_hat={fit.c1_hat:.6g} (exact {fit.c1_exact:.6g}), "
            f"c2_hat={fit.c2_hat:.6g}, sign verdict: {verdict}"
        )
    cols = ("kind", *(f"z{s + 1}" for s in range(cfg.law.d)), "n", "c1", "c2", "c2_candidate", "verdict")
    return RunResult(cols, rows, ok, notes)


def run_identities(cfg: ExperimentConfig) -> RunResult:
    """Relative errors of the 13 Gaussian moment identities."""
    m = moments(cfg.law)
    z = cfg.z_set[0]
    rows = []
    ok = True
    for idx in range(1, 14):
        err = gaussian_identity_check(m, idx, z=z if idx <= 4 else None)
        if err > cfg.thresholds["identity_rel_err"]:
            ok = False
        rows.append((idx, err))
    return RunResult(("identity", "relative_error"), rows, ok, [f"all 13 <= {cfg.thresholds['identity_rel_err']}: {ok}"])


def run_martingale_check(cfg: ExperimentConfig) -> RunResult:
    """Exact harmonicity grid, one-step martingale Monte Carlo, trajectories."""
    m = moments(cfg.law)
    z = cfg.z_set[0]
    rng = np.random.Generator(np.random.Philox(key=np.array([cfg.base_seed, 0x6D61727467], dtype=np.uint64)))
    rows = []
    ok = True

    # (a) harmonicity on a randomized grid.
    grid = max(cfg.replicates, 100)
    span = 5 * cfg.law.max_range
    for _ in range(grid):
        x = tuple(int(v) for v in rng.integers(-span, span + 1, size=cfg.law.d))
        n = int(rng.integers(0, 60))
        for fid in FUNCTIONALS:
            defect = harmonicity_defect(fid, cfg.law, m, x, n, z=z)
            val = functional_value(fid, m, x, n, z=z)
            scale = 1.0 + (max(abs(v) for v in val) if isinstance(val, tuple) else abs(val))
            rel = abs(defect) / scale
            if rel > cfg.thresholds["harmonicity_rel"]:
                ok = False
            rows.append(("harmonicity", fid, *x, n, defect, rel))

    # (b) one-step annealed martingale check by Monte Carlo.
    if cfg.offspring is not None:
        base = initial_state(cfg.law.d)
        for _ in range(4):
            base = evolve_generation(
                base, cfg.offspring, cfg.law, ReplicateSeed(cfg.base_seed, 0), cfg.count_width
            )
        parent = readout(base, cfg.offspring.mean, m, z)
        samples = {fid: [] for fid in ("W", "N2z", "N4")}
        reps = max(cfg.replicates, 200)
        for r in range(1, reps + 1):
            child_state = evolve_generation(
                base, cfg.offspring, cfg.law, ReplicateSeed(cfg.base_seed, r), cfg.count_width
            )
            child = readout(child_state, cfg.offspring.mean, m, z)
            samples["W"].append(child.W)
            samples["N2z"].append(child.N2z)
            samples["N4"].append(child.N4)
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
        state = initial_state(cfg.law.d)
        for _ in range(n_max):
            state = evolve_generation(
                state, cfg.offspring, cfg.law, ReplicateSeed(cfg.base_seed, 10**6), cfg.count_width
            )
            ro = readout(state, cfg.offspring.mean, m, z)
            rows.append(("trajectory", "all", *(("",) * cfg.law.d), ro.n, ro.W, ro.N4))
    cols = ("kind", "functional", *(f"x{s + 1}" for s in range(cfg.law.d)), "n", "value", "aux")
    return RunResult(cols, rows, ok, [f"harmonicity and one-step checks pass: {ok}"])


def run_brw_check(cfg: ExperimentConfig) -> RunResult:
    """Per-replicate residual rows plus median/IQR aggregates across replicates."""
    if cfg.offspring is None:
        raise ValueError("brw-check requires an offspring spec")
    m = moments(cfg.law)
    c = constants(m, classify(cfg.law))
    probes = sorted(set(cfg.n_values))
    n_max = max(probes)
    n_est = cfg.n_est if cfg.n_est is not None else n_max
    schedule = sorted(set(probes) | {n_est})
    rows = []
    per_probe: dict = {(n, z): [] for n in probes for z in cfg.z_set}
    f1_bands: dict = {z: [] for z in cfg.z_set}
    mean = cfg.offspring.mean
    for rep in range(cfg.replicates):
        seed = ReplicateSeed(cfg.base_seed, rep)
        snaps = simulate(cfg.offspring, cfg.law, n_max, seed, schedule, cfg.count_width)
        by_n = {st.n: st for st in snaps}
        for z in cfg.z_set:
            f1_bands[z].append(f1_eval(readout(by_n[n_est], mean, m, z), c, m))
            for n in probes:
                st = by_n[n]
                observed = mean ** (-n) * st.counts.get(z, 0)
                lead = leading_factor(c, n)
                w_n = st.total / mean**n
                if c.walk_class is WalkClass.BIPARTITE and not parity_matched(n, z):
                    ratio = 0.0
                else:
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
            q = statistics.quantiles(per_probe[(n, z)], n=4) if len(vals) >= 4 else [0, 0, 0]
            rows.append(("agg", n, *z, meds[n], q[0], q[2], ""))
        if meds[probes[-1]] >= meds[probes[0]]:
            ok = False
        notes.append(
            f"z={z}: median|ratio| {meds[probes[0]]:.4g} (n={probes[0]}) -> "
            f"{meds[probes[-1]]:.4g} (n={probes[-1]})"
        )
        # first-order band check at the largest probe
        n_last = probes[-1]
        scaled = [n_last * v for v in per_probe[(n_last, z)]]
        med_scaled = statistics.median(scaled)
        band = statistics.quantiles(f1_bands[z], n=4) if len(f1_bands[z]) >= 4 else None
        if band is not None:
            lo, hi = band[0], band[2]
            in_band = lo - 1e-9 <= med_scaled <= hi + 1e-9
            if not in_band:
                ok = False
            notes.append(
                f"z={z}: n*(ratio) median {med_scaled:.4g} vs F1 IQR [{lo:.4g}, {hi:.4g}]"
            )
    cols = ("replicate", "n", *(f"z{s + 1}" for s in range(cfg.law.d)), "observed", "predicted", "ratio", "W_n")
    return RunResult(cols, rows, ok, notes)


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
