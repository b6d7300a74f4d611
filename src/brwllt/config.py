"""Experiment configs, read without numpy.

A single JSON config describes one experiment; ``load_config`` builds its
``ExperimentConfig``, whose hash, with the base seed, every emitted row
carries so it can be reproduced bit-exactly.

``EXPERIMENTS`` names each experiment once, with the config fields it
reads; ``load_config`` refuses any other key as a ``ConfigError`` naming
the key and the experiment.

Its (n, z) grid is fixed at load: ``load_config`` refuses a repeated
``z_set`` point and, for llt-check, brw-check and coeff-fit, a point some
probe cannot check (parity unlike an n of a bipartite law; for llt-check,
||z|| > n^kappa at the smallest probe), so every runner computes every cell.

The offspring law and the element budget live here as well: this module
and ``step_law`` import neither numpy nor a module that does, so
validating a config, or refusing one, loads no compute module.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

from .errors import BrwlltError, CapacityExceeded, ConfigError, HasExtinction, NonNormalized, SubcriticalOrCritical
from .step_law import (
    NORMALIZATION_TOL,
    StepLaw,
    cf_grid,
    classify,
    json_int,
    json_number,
    lattice_point,
    law_from_dict,
    parity_forbidden,
)

# The one memory policy of every dense array in the package, in elements;
# ``charge`` reads it at call time.
ELEMENT_BUDGET = 2**28
# An offspring table longer than this is refused: every occupied cell
# draws one count per offspring value.
MAX_OFFSPRING = 2**16


def charge(what: str, elements: int) -> None:
    """Refuse, before anything is allocated, ``elements`` dense elements
    that exceed ``ELEMENT_BUDGET``; ``what`` names them in the message."""
    if elements > ELEMENT_BUDGET:
        raise CapacityExceeded(f"{what} exceeds element budget {ELEMENT_BUDGET} ({elements} elements)")


@dataclass(frozen=True)
class OffspringLaw:
    """Finite offspring distribution with p_0 = 0 and mean > 1.

    ``probs[k-1]`` is P(N = k) for k = 1..K; the mean is read from them.
    """

    probs: tuple[float, ...]

    @functools.cached_property
    def mean(self) -> float:
        return math.fsum(k * p for k, p in enumerate(self.probs, start=1))


def validate_offspring(raw) -> OffspringLaw:
    """Validate an offspring table and return the normalized law.

    ``raw`` is either a mapping {k: P(N = k)} or a sequence of
    probabilities for k = 1..K.  Each k is read by ``json_int``, a JSON key
    string through ``int`` first: 2, 2.0 and "2" read as 2.

    Raises:
        TypeError: a probability, or an offspring number, is a bool or a str.
        ValueError: an empty table, an offspring number that is negative
            or not an integer (2.5, "2.5"), or one named twice (2 and "2").
        CapacityExceeded: an offspring number above ``MAX_OFFSPRING``.
        HasExtinction: positive mass on zero offspring.
        NonNormalized: negative entries, or sum != 1 within 1e-12.
        SubcriticalOrCritical: mean offspring number is <= 1.
    """
    if isinstance(raw, dict):
        table = {}
        for key, p in raw.items():
            k = json_int(int(key) if isinstance(key, str) else key)
            if k in table:
                raise ValueError(f"offspring number {k} is named twice")
            table[k] = p
        if not table:
            raise ValueError("empty offspring table")
        if min(table) < 0:
            raise ValueError("offspring counts must be nonnegative")
        if max(table) > MAX_OFFSPRING:
            raise CapacityExceeded(f"offspring number {max(table)} above {MAX_OFFSPRING}")
        p0 = float(json_number(table.get(0, 0.0)))
        if p0 > 0.0:
            raise HasExtinction(f"P(N=0) = {p0} > 0")
        probs = [0.0] * max(table)
        for k, p in table.items():
            if k >= 1:
                probs[k - 1] = float(json_number(p))
    else:
        probs = [float(json_number(p)) for p in raw]
        if len(probs) > MAX_OFFSPRING:
            raise CapacityExceeded(f"offspring number {len(probs)} above {MAX_OFFSPRING}")
    if any(p < 0.0 for p in probs):
        raise NonNormalized("offspring probabilities must be nonnegative")
    total = math.fsum(probs)
    if not abs(total - 1.0) <= NORMALIZATION_TOL:  # also refuses NaN entries
        raise NonNormalized(f"offspring probabilities sum to {total!r}")
    law = OffspringLaw(probs=tuple(p / total for p in probs))
    if law.mean <= 1.0:
        raise SubcriticalOrCritical(f"offspring mean {law.mean} <= 1")
    return law


# The config fields each experiment reads, the only keys load_config
# accepts for it; ``harness.RUNNERS`` holds a runner for each, in this order.
_COMMON = ("experiment", "step_law", "z_set", "base_seed", "output")
_BRANCHING = (*_COMMON, "offspring", "n_values")
EXPERIMENTS = {
    "llt-check": (*_COMMON, "n_values", "kappa"),
    "coeff-fit": (*_COMMON, "n_values"),
    "identities": _COMMON,
    "martingale-check": (*_BRANCHING, "count_width"),
    "brw-check": (*_BRANCHING, "replicates", "count_width", "n_est"),
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
    names = tuple(EXPERIMENTS)  # a tuple: ``in`` takes any JSON value, hashable or not
    if experiment not in names:
        raise ConfigError(f"experiment: unknown {experiment!r}; expected one of {names}")
    fields = EXPERIMENTS[experiment]
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
    # Predictions are computed in floats, which hold every integer below 2^53.
    if any(abs(c) >= 2**53 for z in z_set for c in z):
        raise ConfigError("z_set: a coordinate of 2^53 or more in absolute value, which a float cannot hold exactly")
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
    if not 0 <= base_seed < 2**64:
        raise ConfigError(f"base_seed: {base_seed} outside [0, 2^64)")
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
