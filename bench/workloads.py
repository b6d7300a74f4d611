"""Seeded inputs and output checks for the benchmark workloads.

Each workload is a list of `brwllt run` config documents drawn from the
benchmark seed.  The seed varies values (z points everywhere; moments and
base_seed on identities; base_seed on brw-deep-1d) but never what sets
the amount of work (dimension, ranges, probe generations, replicate
counts, and the llt-2d law and brw-2d base_seed, whose values change the
cost), so runs with different seeds measure the same amount of work.
README.md gives the reason for each workload.
"""

from __future__ import annotations

import csv
import io
import math
import random

WORKLOADS = ("llt-2d", "identities", "brw-2d", "brw-deep-1d")
SCALES = ("full", "small")

# How strongly each workload's time follows the host's speed: the log-log
# slope of its run time against the reference kernel's time (refkernel.py),
# measured over nine minutes of interleaved runs on the host that defined
# the benchmark.  Interpreter-bound BRW runs slow as much as the kernel;
# the numpy-bound workloads about half as much.
HOST_SENSITIVITY = {"llt-2d": 0.6, "identities": 0.55, "brw-2d": 1.0, "brw-deep-1d": 1.0}

CF_GAP_LIMIT = 1e-9
IDENTITY_ERR_LIMIT = 1e-8
IDENTITY_COUNT = 13

# Every atom of the llt-2d law keeps probability >= 0.06, so the smallest
# nonzero cell of the n=240 box is >= 0.06**240 ~ 1e-293: no subnormal
# floats in the convolution.  CF inversion still raises psi to the 240th
# power, and the share of its grid that lands on subnormals (which cost
# more) depends on the law: up to 20% of cf_invert time between laws.
# So the law is drawn once, from a fixed seed, and --seed varies only z.
_MIN_ATOM = 0.06


def _llt_2d(rng: random.Random, scale: str) -> list[dict]:
    law_rng = random.Random("llt-2d law")
    zeta0 = law_rng.uniform(2 * _MIN_ATOM, 0.3)
    free = 1.0 - zeta0 - 3 * 2 * _MIN_ATOM
    raw = [law_rng.uniform(0.2, 1.0) for _ in range(3)]
    w = [2 * _MIN_ATOM + free * r / sum(raw) for r in raw]
    n_max = 240 if scale == "full" else 48
    # Norms <= sqrt(2) stay admissible (||z|| <= n^0.15) at every probe n >= 10,
    # so the number of rows and CF inversions does not depend on the seed.
    sign = [rng.choice((-1, 1)) for _ in range(4)]
    return [
        {
            "experiment": "llt-check",
            "step_law": {"d": 2, "zeta0": zeta0, "axes": [[w[0], w[1]], [w[2]]]},
            "n_values": [n_max // 4, n_max // 2, n_max],
            "z_set": [[0, 0], [sign[0], 0], [0, sign[1]], [sign[2], sign[3]]],
            "kappa": 0.15,
            "base_seed": rng.getrandbits(32),
        }
    ]


def _identities(rng: random.Random, scale: str) -> list[dict]:
    docs = []
    for d in (1, 2, 3) if scale == "full" else (1,):
        zeta0 = rng.uniform(0.05, 0.3)
        axes = [[rng.uniform(0.1, 1.0) for _ in range(rng.randint(1, 3))] for _ in range(d)]
        total = sum(map(sum, axes)) / (1.0 - zeta0)
        docs.append(
            {
                "experiment": "identities",
                "step_law": {"d": d, "zeta0": zeta0, "axes": [[w / total for w in a] for a in axes]},
                "z_set": [[rng.randint(-3, 3) for _ in range(d)]],
                "base_seed": rng.getrandbits(32),
            }
        )
    return docs


# The {1, 3} offspring law makes each replicate's population, and with it
# the number of sites and the cost of a run, vary by about 1.5x from one
# base_seed to another.  brw-2d therefore keeps base_seed fixed and seeds
# only z, so that every seed does the same work.
BRW_2D_BASE_SEED = 104_857


def _brw_2d(rng: random.Random, scale: str) -> list[dict]:
    near = [(x, y) for x in range(-2, 3) for y in range(-2, 3) if 0 < abs(x) + abs(y) <= 2]
    full = scale == "full"
    return [
        {
            "experiment": "brw-check",
            "step_law": {"d": 2, "zeta0": 0.2, "axes": [[0.4], [0.4]]},
            "offspring": {"1": 0.5, "3": 0.5},
            "replicates": 2,
            "n_values": [10, 20, 30] if full else [4, 8],
            "n_est": 30 if full else 8,
            "z_set": [[0, 0], *(list(p) for p in rng.sample(near, 2))],
            "base_seed": BRW_2D_BASE_SEED,
        }
    ]


def _brw_deep_1d(rng: random.Random, scale: str) -> list[dict]:
    # Simple walk with binary offspring: bipartite, total exactly 2^n, and
    # site counts near 2^68 at n = 72, above the 2^62 chunk limit.
    j = rng.randint(1, 3)
    return [
        {
            "experiment": "brw-check",
            "step_law": {"d": 1, "zeta0": 0.0, "axes": [[1.0]]},
            "offspring": {"2": 1.0},
            "replicates": 8 if scale == "full" else 2,
            "n_values": [24, 48, 72],
            "n_est": 72,
            "z_set": [[0], [2 * j], [-2 * j]],
            "count_width": 128,
            "base_seed": rng.getrandbits(32),
        }
    ]


_GENERATORS = {
    "llt-2d": _llt_2d,
    "identities": _identities,
    "brw-2d": _brw_2d,
    "brw-deep-1d": _brw_deep_1d,
}


def configs(workload: str, seed: int, scale: str = "full") -> list[dict]:
    """The config documents one iteration of ``workload`` runs, in order."""
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"), scale)


class Checks:
    """Correctness checks attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def _parse(text: str):
    """(header dict, data rows as dicts) of a `brwllt run` CSV."""
    header = {}
    lines = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            header[key] = value
        else:
            lines.append(line)
    return header, list(csv.DictReader(io.StringIO("\n".join(lines))))


def check_output(workload: str, doc: dict, text: str, checks: Checks) -> dict:
    """Check one experiment's CSV; return its health figures and verdict.

    The brw-check trend/band verdict is statistical and changes whenever
    the random streams change, so it is reported but not checked.
    """
    header, rows = _parse(text)
    passed = header.get("passed") == "True"
    health = {"passed": passed}
    if workload == "llt-2d":
        checks.check(passed, "llt-check run did not pass")
        gaps = [abs(float(r["exact"]) - float(r["cf_invert"])) for r in rows if r["exact"] != ""]
        checks.check(len(gaps) > 0, "llt-check wrote no probe rows")
        for g in gaps:
            checks.check(g <= CF_GAP_LIMIT, f"|exact - cf_invert| = {g:.3g} > {CF_GAP_LIMIT}")
        health["oracle_gap_max"] = max(gaps, default=0.0)
    elif workload == "identities":
        checks.check(passed, f"identities run at d={doc['step_law']['d']} did not pass")
        errs = [float(r["relative_error"]) for r in rows]
        checks.check(len(errs) == IDENTITY_COUNT, f"{len(errs)} identity rows, expected {IDENTITY_COUNT}")
        for e in errs:
            checks.check(e <= IDENTITY_ERR_LIMIT, f"identity error {e:.3g} > {IDENTITY_ERR_LIMIT}")
        health["identity_rel_err_max"] = max(errs, default=0.0)
    else:
        reps = [r for r in rows if r["replicate"] != "agg"]
        want = doc["replicates"] * len(doc["n_values"]) * len(doc["z_set"])
        checks.check(len(reps) == want, f"{len(reps)} replicate rows, expected {want}")
        for r in reps:
            w_n = float(r["W_n"])
            checks.check(math.isfinite(w_n) and w_n > 0.0, f"W_n = {r['W_n']}")
            if workload == "brw-deep-1d":
                # Binary offspring: the total is exactly 2^n, so W_n is exactly 1.
                checks.check(w_n == 1.0, f"W_n = {r['W_n']} != 1 at n={r['n']}")
    return health
