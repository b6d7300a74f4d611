"""Experiment orchestration: config ingestion, runners, CSV emission.

A single JSON config describes one experiment; every emitted row carries
the config hash and base seed so it can be reproduced bit-exactly.

``RUNNERS`` names each experiment once, with its runner and the config
fields it reads; ``load_config`` refuses any other key as a ``ConfigError``
naming the key and the experiment.

A run's verdict is fixed by the code, not by its config.  Its gates are
``CF_AGREEMENT`` (llt-check, exact against CF), ``IDENTITY_REL_ERR``
(identities), ``HARMONICITY_REL`` (martingale-check's harmonicity grid)
and ``C1_REL_ERR`` (coeff-fit's relative c1 error).

Its (n, z) grid is fixed at load: ``load_config`` refuses a repeated
``z_set`` point and, for llt-check, brw-check and coeff-fit, a point some
probe cannot check (parity unlike an n of a bipartite law; for llt-check,
||z|| > n^kappa at the smallest probe), so every runner computes every cell.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import BrwlltError, CapacityExceeded, ConfigError
from .exact_dist import axis_mixture, cf_grid, cf_invert_box, charge, dist_at
from .gw_brw import OffspringLaw, ReplicateSeed, simulate, validate_offspring
from .llt import (
    constants_for,
    fit_points,
    gaussian_identity_check,
    leading_factor,
    parity_forbidden,
    rw_expansion,
)
from .martingales import (
    FUNCTIONALS,
    f1_eval,
    functional_value,
    harmonicity_defect,
    readout,
)
from .step_law import StepLaw, classify, json_int, json_number, lattice_point, law_from_dict, moments

# Version of the random streams behind every sampled figure; it changes
# whenever the same config and seed would draw different numbers.  2: one
# Philox stream per (base seed, replicate, generation), cells drawn in
# lexicographic order.
STREAM_VERSION = 2

CF_AGREEMENT = 1e-9
IDENTITY_REL_ERR = 1e-8
HARMONICITY_REL = 1e-9
C1_REL_ERR = 0.01


@dataclass
class ExperimentConfig:
    experiment: str
    law: StepLaw
    offspring: OffspringLaw | None
    n_values: tuple[int, ...]
    z_set: tuple[tuple[int, ...], ...]
    replicates: int
    base_seed: int
    n_est: int | None
    count_width: int
    output: str | None
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


def load_config(doc: dict) -> ExperimentConfig:
    """Validate a config document and build the typed experiment config.

    Missing, malformed or inconsistent fields raise a ``BrwlltError`` whose
    message starts with the field name (``ConfigError`` unless the step law
    or offspring validator raised a more specific type), here rather than
    deep inside a runner.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"config: expected a JSON object, got {type(doc).__name__}")
    if "experiment" not in doc:
        raise ConfigError("experiment: required field missing")
    experiment = doc["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment: unknown {experiment!r}; expected one of {EXPERIMENTS}")
    fields = RUNNERS[experiment].fields
    for key in doc:
        if key not in fields:
            raise ConfigError(f"config: unknown key {key!r} for {experiment}; expected one of {fields}")
    if "step_law" not in doc:
        raise ConfigError("step_law: required field missing")
    with _field("step_law"):
        law = law_from_dict(doc["step_law"])
    if "offspring" in fields and "offspring" not in doc:
        raise ConfigError(f"offspring: {experiment} requires an offspring spec")
    offspring = None
    if "offspring" in doc:
        with _field("offspring"):
            offspring = validate_offspring(doc["offspring"])
    with _field("n_values"):
        n_values = tuple(json_int(n) for n in _list(doc.get("n_values", [])))
    if experiment in ("llt-check", "brw-check") and not n_values:
        raise ConfigError(f"n_values: {experiment} needs at least one probe n")
    if any(n < 1 for n in n_values):
        raise ConfigError(f"n_values: every probe n must be >= 1, got {list(n_values)}")
    if experiment in ("llt-check", "coeff-fit") and n_values:
        shape = cf_grid(law, max(n_values))
        try:
            charge(f"the {max(n_values)}-step CF grid {shape}", math.prod(shape))
        except CapacityExceeded as exc:
            raise ConfigError(f"n_values: {exc}") from None
    increasing = all(a < b for a, b in zip(n_values, n_values[1:]))
    if experiment == "coeff-fit" and not (len(n_values) >= 3 and increasing):
        raise ConfigError(f"n_values: coeff-fit needs 3 or more increasing probes, got {list(n_values)}")
    with _field("n_est"):
        n_est = json_int(doc["n_est"]) if "n_est" in doc else None
    if n_est is not None and not 1 <= n_est <= max(n_values):
        raise ConfigError(f"n_est: {n_est} outside [1, max(n_values) = {max(n_values)}]")
    with _field("replicates"):
        replicates = json_int(doc.get("replicates", 1))
    if replicates < 1:
        raise ConfigError(f"replicates: {replicates} must be >= 1")
    with _field("z_set"):
        z_set = tuple(lattice_point(z, law.d) for z in _list(doc.get("z_set", [[0] * law.d])))
    if not z_set:
        raise ConfigError("z_set: needs at least one lattice point")
    if len(set(z_set)) < len(z_set):
        repeated = next(z for i, z in enumerate(z_set) if z in z_set[:i])
        raise ConfigError(f"z_set: z = {repeated} is named more than once")
    if experiment in ("identities", "martingale-check") and len(z_set) > 1:
        raise ConfigError(f"z_set: {experiment} checks one lattice point, got {len(z_set)}")
    if experiment in ("llt-check", "brw-check", "coeff-fit"):
        if experiment == "llt-check":
            with _field("kappa"):
                kappa = float(json_number(doc.get("kappa", 0.15)))
            if not 0.0 < kappa < 1.0 / 6.0:
                raise ConfigError(f"kappa: {kappa} outside (0, 1/6)")
        walk_class = classify(law)
        n_min = min(n_values)
        for z in z_set:
            mismatched = [n for n in n_values if parity_forbidden(walk_class, n, z)]
            if mismatched:
                raise ConfigError(f"z_set: z = {z} is parity-incompatible with n = {mismatched[0]} (bipartite law)")
            if experiment == "llt-check" and not math.sqrt(sum(c * c for c in z)) <= n_min**kappa:
                raise ConfigError(f"z_set: z = {z} has ||z|| > n^kappa at the smallest probe n = {n_min}")
    with _field("count_width"):
        count_width = json_int(doc.get("count_width", 64))
    if count_width not in (64, 128):
        raise ConfigError("count_width: must be 64 or 128")
    with _field("base_seed"):
        base_seed = json_int(doc.get("base_seed", 0))
    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError(f"output: expected a path string, got {type(output).__name__}")
    # The trend gate compares the first probe with the last, so one
    # distinct probe would fail whatever the law; checked last, so a
    # fault in another field is still named by that field.
    if experiment in ("llt-check", "brw-check") and len(set(n_values)) < 2:
        raise ConfigError(f"n_values: {experiment} needs 2 or more distinct probes, got {list(n_values)}")
    return ExperimentConfig(
        experiment=experiment,
        law=law,
        offspring=offspring,
        n_values=n_values,
        z_set=z_set,
        replicates=replicates,
        base_seed=base_seed,
        n_est=n_est,
        count_width=count_width,
        output=output,
        raw=doc,
    )


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
    grid = max(cfg.replicates, 100)
    span = 5 * cfg.law.max_range
    for _ in range(grid):
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
    reps = max(cfg.replicates, 200)
    seeds = [ReplicateSeed(cfg.base_seed, r) for r in range(1, reps + 1)]
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


class Experiment(NamedTuple):
    run: Callable[[ExperimentConfig], RunResult]
    fields: tuple[str, ...]


# Each experiment's runner and the config fields it reads, the only keys
# load_config accepts for it.
_COMMON = ("experiment", "step_law", "z_set", "base_seed", "output")
_BRANCHING = (*_COMMON, "offspring", "n_values", "replicates", "count_width")
RUNNERS = {
    "llt-check": Experiment(run_llt_check, (*_COMMON, "n_values", "kappa")),
    "coeff-fit": Experiment(run_coeff_fit, (*_COMMON, "n_values")),
    "identities": Experiment(run_identities, _COMMON),
    "martingale-check": Experiment(run_martingale_check, _BRANCHING),
    "brw-check": Experiment(run_brw_check, (*_BRANCHING, "n_est")),
}
EXPERIMENTS = tuple(RUNNERS)


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    return RUNNERS[cfg.experiment].run(cfg)


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
