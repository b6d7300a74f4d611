"""Stream version 2 pinned: the draws behind every BRW step.

The digests were taken from the snapshots of ``simulate`` before the
generator was rekeyed in place and before the one-point offspring split
was skipped; any change to a draw changes them, and with them
``stream_version``.
"""

import hashlib

import numpy as np
import pytest

from brwllt import gw_brw
from brwllt.config import validate_offspring
from brwllt.gw_brw import ReplicateSeed, derive_stream, simulate
from brwllt.step_law import lazy_simple_law, validate

SIMPLE = validate(1, 0.0, [[1.0]])


@pytest.mark.parametrize(
    "law, offspring, replicates, probes, width, digest",
    [
        # Counts pass 2^63 and are cut into blocks; the offspring split is skipped.
        (SIMPLE, {2: 1.0}, 8, [24, 48, 72], 128,
         "df4956827f8c4226a22e67f4e4189a5e354e0c89a979e8746d777647b5cb75ea"),
        (lazy_simple_law(2, 0.2), {1: 0.5, 3: 0.5}, 2, [10, 20, 30], 64,
         "55691a1890718038655de0c922508f21e18a86244bd5795ca1f012098123f061"),
        # A trailing zero: the binomial of p = 1 draws, so no skip.
        (SIMPLE, {2: 1.0, 3: 0.0}, 4, [20, 40], 64,
         "723672da15698043dbe115fce2b71710b581e65116f2401175503bad98e5371f"),
    ],
    ids=["binary-1d", "lazy-2d", "trailing-zero-1d"],
)
def test_snapshot_digest(law, offspring, replicates, probes, width, digest):
    seeds = [ReplicateSeed(7, r) for r in range(replicates)]
    h = hashlib.sha256()
    for run in simulate(validate_offspring(offspring), law, seeds, probes, width):
        for state in run:
            h.update(repr((state.n, sorted(state.counts.items()))).encode())
    assert h.hexdigest() == digest


def reference(seed, generation):
    """A new generator of the stream's key, built from the key's definition."""
    mix = gw_brw._mix64
    k0 = mix(mix(seed.base_seed & 0xFFFFFFFFFFFFFFFF) ^ mix(seed.replicate_index))
    key = np.array([k0, mix(k0 ^ mix(generation))], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draws(rng):
    return (
        rng.integers(0, 2**32, size=3, dtype=np.uint32).tolist(),
        rng.binomial(10**6, 0.3, size=2).tolist(),
        rng.multinomial([7, 10**12], [0.2, 0.3, 0.5]).tolist(),
        rng.random(2).tolist(),
    )


def test_rekeyed_generator_draws_each_stream():
    # One generator, rekeyed after it was left mid-buffer on another key
    # (a 32-bit draw keeps half a word) with a binomial set-up cached,
    # draws what a new generator of the key draws.
    # The rekey function is built once and reused, as ``simulate`` does.
    rekey = gw_brw._rekeyer(np.random.Generator(np.random.Philox(0)))
    mix = gw_brw._mix64
    pairs = [(ReplicateSeed(b, r), g) for b in (0, 5, -3, 2**70 + 1) for r in (0, 1, 63) for g in (0, 1, 71)]
    for seed, generation in pairs:
        expect = draws(reference(seed, generation))
        assert draws(derive_stream(seed, generation)) == expect
        rng = rekey(gw_brw._seed_key(ReplicateSeed(seed.base_seed + 1, 0)), mix(generation + 1))
        rng.binomial(10**6, 0.3)
        rng.integers(0, 2**32, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
        assert draws(rekey(gw_brw._seed_key(seed), mix(generation))) == expect


def position(rng):
    state = rng.bit_generator.state
    return state["state"]["counter"].tolist(), state["buffer_pos"], state["has_uint32"]


def test_one_point_split_draws_nothing():
    # The offspring split skipped for a point mass on the largest offspring
    # number leaves the stream where it was; a point mass on a smaller one
    # draws at its binomial of p = 1.
    sizes = np.array([1, 5, 2**61], dtype=np.int64)
    rng = derive_stream(ReplicateSeed(3, 0), 0)
    before = position(rng)
    assert rng.multinomial(sizes, (0.0, 0.0, 1.0)).tolist() == [[0, 0, s] for s in sizes.tolist()]
    assert position(rng) == before
    assert rng.multinomial(sizes, (0.0, 1.0, 0.0)).tolist() == [[0, s, 0] for s in sizes.tolist()]
    assert position(rng) != before
