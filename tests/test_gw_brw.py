import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from brwllt import errors
from brwllt.gw_brw import (
    GenerationState,
    ReplicateSeed,
    SiteCounts,
    derive_stream,
    evolve_generation,
    initial_state,
    simulate,
    validate_offspring,
)
from brwllt.exact_dist import dist_at, walk_dist
from brwllt.harness import load_config, run_experiment
from brwllt.step_law import lazy_simple_law, validate

SIMPLE = validate(1, 0.0, [[1.0]])


def state_of(counts, d=1, n=0):
    return GenerationState(n=n, d=d, counts=counts, total=sum(counts.values()))


def spaced(cells, count):
    """A 1-d state with ``count`` (< 2^32) particles on each of ``cells``
    sites three apart, so that one nearest-neighbour step keeps the
    children of different sites apart."""
    r = 3 * cells // 2 + 1
    digits = np.zeros((1, 2 * r + 1), dtype=np.int64)
    digits[0, 1 : 3 * cells : 3] = count
    return GenerationState(n=0, d=1, counts=SiteCounts((r,), digits), total=cells * count)


def children(new, cells):
    """Per parent of ``spaced``: its children at (x - 1, x, x + 1)."""
    digits = new.counts.digits
    assert len(digits) == 1
    # The first parent sits at 1 - r, r = 3 * cells // 2 + 1.
    start = new.counts.radius[0] - (3 * cells // 2 + 1)
    return digits[0, start : start + 3 * cells].reshape(cells, 3)


class TestOffspring:
    def test_binary(self):
        off = validate_offspring({2: 1.0})
        assert off.mean == 2.0
        assert off.probs == (0.0, 1.0)

    def test_mixed(self):
        off = validate_offspring({1: 0.5, 3: 0.5})
        assert off.mean == 2.0

    def test_extinction_rejected(self):
        with pytest.raises(errors.HasExtinction):
            validate_offspring({0: 0.1, 2: 0.9})

    def test_critical_rejected(self):
        with pytest.raises(errors.SubcriticalOrCritical):
            validate_offspring({1: 1.0})

    def test_non_normalized(self):
        with pytest.raises(errors.NonNormalized):
            validate_offspring({2: 0.9})

    def test_nan_rejected(self):
        with pytest.raises(errors.NonNormalized):
            validate_offspring({2: float("nan")})

    def test_table_size(self):
        with pytest.raises(ValueError):
            validate_offspring({})
        with pytest.raises(errors.CapacityExceeded):
            validate_offspring({2**40: 1.0})


class TestBinomialExact:
    """The exact binomial splits of the step: one offspring split and one
    displacement split per occupied site and generation."""

    def test_edges(self):
        seed = ReplicateSeed(0, 0)
        # P(N = 2) = 1: exactly two children per particle.
        new = evolve_generation(state_of({(0,): 10, (4,): 7}), validate_offspring({2: 1.0}), SIMPLE, seed)
        assert new.total == 34
        # P(N = 2) = 0: every site has 1 or 3 children, never 2.
        new = evolve_generation(spaced(500, 1), validate_offspring({1: 0.5, 3: 0.5}), SIMPLE, seed)
        per_site = children(new, 500).sum(axis=1)
        assert set(per_site.tolist()) == {1, 3}
        # No particles: nothing is drawn and nothing appears.
        empty = evolve_generation(state_of({}), validate_offspring({2: 1.0}), SIMPLE, seed)
        assert empty.total == 0
        assert len(empty.counts) == 0

    def test_large_trials_mean(self):
        # 10^4 sites of 5 * 10^8 particles, two children each: the count
        # one step left of a site is Binomial(10^9, 1/2).
        trials, p, reps = 10**9, 0.5, 10**4
        off = validate_offspring({2: 1.0})
        new = evolve_generation(spaced(reps, trials // 2), off, SIMPLE, ReplicateSeed(1, 0))
        draws = children(new, reps)[:, 0]
        se = math.sqrt(trials * p * (1 - p) / reps)
        assert abs(np.mean(draws) - trials * p) <= 4 * se

    def test_beyond_int64(self):
        count = 2**64 + 5
        trials = 2 * count
        new = evolve_generation(
            state_of({(0,): count}), validate_offspring({2: 1.0}), SIMPLE, ReplicateSeed(2, 0), count_width=128
        )
        x = new.counts[(-1,)]
        assert new.total == trials
        assert x + new.counts[(1,)] == trials
        assert 0 <= x <= trials
        se = math.sqrt(trials * 0.25)
        assert abs(x - trials / 2) <= 8 * se

    def test_small_pmf_chisquare(self):
        # One particle per site, five children each, P(step -1) = 0.3: the
        # count one step left is Binomial(5, 0.3).  10^6 sites over ten
        # replicates of 10^5.
        trials, p, reps = 5, 0.3, 10**6
        law = validate(1, 0.4, [[0.6]])
        off = validate_offspring({5: 1.0})
        draws = Counter()
        for r in range(10):
            new = evolve_generation(spaced(reps // 10, 1), off, law, ReplicateSeed(3, r))
            draws.update(children(new, reps // 10)[:, 0].tolist())
        observed = [draws.get(k, 0) for k in range(6)]
        expected = [reps * stats.binom.pmf(k, trials, p) for k in range(6)]
        _, pval = stats.chisquare(observed, expected)
        assert pval > 0.001


class TestMultinomial:
    def test_conserves_total(self):
        # 50 sites of 1000 particles, two children each, over three atoms.
        law = validate(1, 0.5, [[0.5]])
        new = evolve_generation(spaced(50, 1000), validate_offspring({2: 1.0}), law, ReplicateSeed(4, 0))
        parts = children(new, 50)
        assert (parts.sum(axis=1) == 2000).all()
        assert (parts >= 0).all()

    def test_chisquare_against_numpy_pmf(self):
        # One particle per site, three children each, split over
        # (stay, -1, +1) with probabilities (0.5, 0.25, 0.25).
        reps = 200_000
        law = validate(1, 0.5, [[0.5]])
        new = evolve_generation(spaced(reps, 1), validate_offspring({3: 1.0}), law, ReplicateSeed(5, 0))
        parts = children(new, reps)
        counts = Counter(zip(parts[:, 1].tolist(), parts[:, 0].tolist(), parts[:, 2].tolist()))
        observed, expected = [], []
        for combo, obs in counts.items():
            observed.append(obs)
            pmf = math.factorial(3)
            for c, p in zip(combo, [0.5, 0.25, 0.25]):
                pmf *= p**c / math.factorial(c)
            expected.append(reps * pmf)
        _, pval = stats.chisquare(observed, expected)
        assert pval > 0.001


class TestSiteCounts:
    def test_mapping_round_trip(self):
        counts = {(2, -1): 3, (0, 0): 2**70 + 1, (-1, 4): 1}
        box = SiteCounts.from_mapping(counts, 2)
        assert box.radius == (2, 4)
        assert box == counts
        assert list(box) == sorted(counts)
        assert len(box) == 3
        assert box.total() == sum(counts.values())
        assert box.bit_length() == 71
        assert box.get((1, 1), 0) == 0
        assert box.get((9, 9), 0) == 0
        assert dict(box.items()) == counts

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            SiteCounts.from_mapping({(0,): -1}, 1)
        # Two far sites would span a 2^32-cell box: refused before allocating.
        with pytest.raises(errors.CapacityExceeded):
            SiteCounts.from_mapping({(2**15, 0): 1, (0, 2**15): 1}, 2)


class TestEvolve:
    def test_binary_one_step(self):
        state = evolve_generation(
            initial_state(1), validate_offspring({2: 1.0}), SIMPLE, ReplicateSeed(0, 0)
        )
        assert state.total == 2
        assert set(state.counts) <= {(-1,), (1,)}
        assert sum(state.counts.values()) == 2

    def test_binary_total_deterministic(self):
        off = validate_offspring({2: 1.0})
        snaps = simulate(off, SIMPLE, 10, ReplicateSeed(11, 0), [10])
        assert snaps[0].total == 1024

    def test_deep_binary_total_exact(self):
        # The largest site counts pass 2^61, the block size for binary
        # offspring, in the last generations: the block split runs.
        off = validate_offspring({2: 1.0})
        snaps = simulate(off, SIMPLE, 72, ReplicateSeed(11, 0), [72], count_width=128)
        assert snaps[0].total == 2**72
        assert sum(snaps[0].counts.values()) == 2**72
        assert max(snaps[0].counts.values()).bit_length() > 63

    def test_conservation_and_support(self):
        off = validate_offspring({1: 0.5, 3: 0.5})
        law = lazy_simple_law(2, 0.25)
        state = initial_state(2)
        for gen in range(8):
            state = evolve_generation(state, off, law, ReplicateSeed(12, 0))
            assert state.total == sum(state.counts.values())
            assert all(max(abs(c) for c in site) <= state.n for site in state.counts)

    def test_parity_bipartite(self):
        off = validate_offspring({2: 1.0})
        state = initial_state(1)
        for _ in range(6):
            state = evolve_generation(state, off, SIMPLE, ReplicateSeed(13, 0))
            for site in state.counts:
                assert (state.n - site[0]) % 2 == 0

    def test_count_overflow(self):
        off = validate_offspring({2: 1.0})
        state = state_of({(0,): 2**63 - 1})
        with pytest.raises(errors.CountOverflow):
            evolve_generation(state, off, SIMPLE, ReplicateSeed(14, 0))
        new = evolve_generation(state, off, SIMPLE, ReplicateSeed(14, 0), count_width=128)
        assert new.total == 2**64 - 2
        with pytest.raises(errors.CountOverflow):
            evolve_generation(state_of({(0,): 2**127}), off, SIMPLE, ReplicateSeed(14, 0), count_width=128)

    def test_block_budget(self):
        # 2^90 particles need 2^29 blocks of 2^61, 2^126 need 2^65; both
        # are refused before any block is allocated.
        off = validate_offspring({2: 1.0})
        for count in (2**90, 2**126):
            state = state_of({(0,): count})
            tracemalloc.start()
            try:
                with pytest.raises(errors.CapacityExceeded):
                    evolve_generation(state, off, SIMPLE, ReplicateSeed(14, 0), 128)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    def test_multinomial_placement_mean(self):
        off = validate_offspring({2: 1.0})
        state = state_of({(0,): 10**6})
        new = evolve_generation(state, off, SIMPLE, ReplicateSeed(15, 0))
        total = 2 * 10**6
        for z in (-1, 1):
            expect = total * 0.5
            se = math.sqrt(total * 0.25)
            assert abs(new.counts[(z,)] - expect) <= 5 * se

    def test_mean_one_step_evolution(self):
        # E[counts_{n+1}(z)] = m * sum_y counts_n(y) P(L = z - y), statistically
        off = validate_offspring({1: 0.5, 3: 0.5})
        law = lazy_simple_law(1, 0.5)
        base = state_of({(0,): 400, (1,): 100})
        step = walk_dist(law, 1)
        reps = 3000
        acc = Counter()
        for r in range(reps):
            new = evolve_generation(base, off, law, ReplicateSeed(16, r))
            for site, c in new.counts.items():
                acc[site] += c
        for z in [(-1,), (0,), (1,), (2,)]:
            expect = 2.0 * sum(
                c * dist_at(step, (z[0] - y[0],)) for y, c in base.counts.items()
            )
            observed = acc[z] / reps
            # binomial-style bound on the standard error of the site mean
            se = math.sqrt(2.0 * base.total / reps)
            assert abs(observed - expect) <= 4 * se


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        off = validate_offspring({1: 0.5, 3: 0.5})
        a = simulate(off, SIMPLE, 15, ReplicateSeed(21, 4), [5, 10, 15])
        b = simulate(off, SIMPLE, 15, ReplicateSeed(21, 4), [5, 10, 15])
        for x, y in zip(a, b):
            assert x.counts == y.counts
            assert x.total == y.total

    def test_replicates_differ(self):
        off = validate_offspring({1: 0.5, 3: 0.5})
        a = simulate(off, SIMPLE, 15, ReplicateSeed(21, 0), [15])
        b = simulate(off, SIMPLE, 15, ReplicateSeed(21, 1), [15])
        assert a[0].counts != b[0].counts

    def test_stream_is_pure_function_of_coordinates(self):
        # One stream per (base seed, replicate, generation).
        def first(base, rep, gen):
            return int(derive_stream(ReplicateSeed(base, rep), gen).integers(0, 2**62))

        assert first(5, 7, 3) == first(5, 7, 3)
        others = {first(5, 7, 4), first(5, 8, 3), first(6, 7, 3)}
        assert first(5, 7, 3) not in others
        assert len(others) == 3

    def test_site_order_independent(self):
        # The step reads sites in lexicographic order, whatever order the
        # mapping lists them in.
        off = validate_offspring({1: 0.5, 3: 0.5})
        state = simulate(off, lazy_simple_law(2, 0.25), 6, ReplicateSeed(30, 0), [6])[0]
        items = state.counts.items()
        forward = GenerationState(n=6, d=2, counts=dict(items), total=state.total)
        backward = GenerationState(n=6, d=2, counts=dict(reversed(items)), total=state.total)
        seed = ReplicateSeed(30, 0)
        law = lazy_simple_law(2, 0.25)
        serial = evolve_generation(state, off, law, seed)
        assert evolve_generation(forward, off, law, seed).counts == serial.counts
        assert evolve_generation(backward, off, law, seed).counts == serial.counts

    def test_padded_box_same_next_generation(self):
        # The same occupied sites in a larger, zero-padded box draw the same
        # numbers: the stream is keyed by coordinates, not by box layout.
        off = validate_offspring({1: 0.5, 3: 0.5})
        law = lazy_simple_law(2, 0.25)
        state = simulate(off, law, 5, ReplicateSeed(31, 2), [5])[0]
        box = state.counts
        pad = [(0, 0)] + [(9 - r, 9 - r) for r in box.radius]
        padded = GenerationState(
            n=5, d=2, counts=SiteCounts((9, 9), np.pad(box.digits, pad)), total=state.total
        )
        assert padded.counts.digits.shape[1:] == (19, 19)
        seed = ReplicateSeed(31, 2)
        a = evolve_generation(state, off, law, seed)
        b = evolve_generation(padded, off, law, seed)
        assert a.counts == b.counts
        assert a.total == b.total
        # The new box is sized from the occupied sites, not the old box.
        assert a.counts.radius == b.counts.radius


@st.composite
def offspring_tables(draw):
    """A normalized offspring table, as a mapping or as a list for k = 1..K,
    sometimes with one probability replaced by a zero, negative, too large
    or non-finite value."""
    keys = draw(st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True))
    probs = [draw(st.floats(0.0, 1.0)) for _ in keys]
    total = sum(probs)
    if total > 0.0:
        probs = [p / total for p in probs]
    if draw(st.booleans()):
        broken = st.sampled_from([0.0, -0.1, 0.7, float("nan"), float("inf")])
        probs[draw(st.integers(0, len(probs) - 1))] = draw(broken)
    if draw(st.booleans()):
        dense = dict(zip(keys, probs))
        return [dense.get(k, 0.0) for k in range(1, max(keys) + 1)]
    return {str(k): p for k, p in zip(keys, probs)}


@settings(derandomize=True, max_examples=80, deadline=None)
@given(table=offspring_tables())
def test_validated_offspring_run(table):
    # validate_offspring refuses a table with a package error, or the table
    # runs a tiny brw-check to the end or stops with a package error.
    try:
        validate_offspring(table)
    except errors.BrwlltError:
        return
    doc = {"experiment": "brw-check", "step_law": {"d": 1, "zeta0": 0.5, "axes": [[0.5]]}, "n_values": [2, 3]}
    try:
        run_experiment(load_config({**doc, "offspring": table, "z_set": [[0], [1]]}))
    except errors.BrwlltError:
        pass
