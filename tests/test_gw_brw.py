import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from brwllt import config, errors, gw_brw
from brwllt.config import OffspringLaw, load_config, validate_offspring
from brwllt.gw_brw import (
    GenerationState,
    ReplicateSeed,
    SiteCounts,
    derive_stream,
    initial_state,
    simulate,
)
from brwllt.exact_dist import dist_at, walk_dist
from brwllt.harness import run_experiment
from brwllt.step_law import lazy_simple_law, validate

SIMPLE = validate(1, 0.0, [[1.0]])


def next_generation(state, off, law, seed, count_width=64):
    """The generation after ``state``, stepped by ``simulate``."""
    ((new,),) = simulate(off, law, [seed], [state.n + 1], count_width, start=state)
    return new


def state_of(counts, d=1, n=0):
    return GenerationState(n, SiteCounts.from_mapping(counts, d))


def spaced(cells, count):
    """A 1-d state with ``count`` (< 2^32) particles on each of ``cells``
    sites three apart, so that one nearest-neighbour step keeps the
    children of different sites apart."""
    r = 3 * cells // 2 + 1
    digits = np.zeros((1, 2 * r + 1), dtype=np.int64)
    digits[0, 1 : 3 * cells : 3] = count
    return GenerationState(0, SiteCounts(digits))


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

    def test_offspring_numbers_are_integers(self):
        # an offspring number of 2.5 is refused, not read as 2
        for key in [2.5, "2.5", True]:
            with pytest.raises((TypeError, ValueError)):
                validate_offspring({key: 1.0})
        for key in [2, 2.0, "2"]:
            assert validate_offspring({key: 1.0}) == validate_offspring([0.0, 1.0])

    def test_offspring_number_named_twice(self):
        # the later key's mass replaced the earlier's: probs (0, 0.5, 0.5)
        for table, k in [({2: 0.5, "2": 0.5, 3: 0.5}, 2), ({"3": 1.0, 3: 1.0}, 3)]:
            with pytest.raises(ValueError, match=f"offspring number {k} is named twice"):
                validate_offspring(table)

    def test_mean_read_from_probs(self):
        # a mean of 3.0 stored beside binary probs gave W_3 = 0.296
        assert OffspringLaw((0.0, 1.0)).mean == 2.0
        off = validate_offspring({1: 0.25, 3: 0.75})
        assert off.mean == math.fsum(k * p for k, p in enumerate(off.probs, start=1)) == 2.5


class TestBinomialExact:
    """The exact binomial splits of the step: one offspring split and one
    displacement split per occupied site and generation."""

    def test_edges(self):
        seed = ReplicateSeed(0, 0)
        # P(N = 2) = 1: exactly two children per particle.
        new = next_generation(state_of({(0,): 10, (4,): 7}), validate_offspring({2: 1.0}), SIMPLE, seed)
        assert new.total == 34
        # P(N = 2) = 0: every site has 1 or 3 children, never 2.
        new = next_generation(spaced(500, 1), validate_offspring({1: 0.5, 3: 0.5}), SIMPLE, seed)
        per_site = children(new, 500).sum(axis=1)
        assert set(per_site.tolist()) == {1, 3}
        # No particles: nothing is drawn and nothing appears.
        empty = next_generation(state_of({}), validate_offspring({2: 1.0}), SIMPLE, seed)
        assert empty.total == 0
        assert len(empty.counts) == 0

    def test_large_trials_mean(self):
        # 10^4 sites of 5 * 10^8 particles, two children each: the count
        # one step left of a site is Binomial(10^9, 1/2).
        trials, p, reps = 10**9, 0.5, 10**4
        off = validate_offspring({2: 1.0})
        new = next_generation(spaced(reps, trials // 2), off, SIMPLE, ReplicateSeed(1, 0))
        draws = children(new, reps)[:, 0]
        se = math.sqrt(trials * p * (1 - p) / reps)
        assert abs(np.mean(draws) - trials * p) <= 4 * se

    def test_beyond_int64(self):
        count = 2**64 + 5
        trials = 2 * count
        new = next_generation(
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
            new = next_generation(spaced(reps // 10, 1), off, law, ReplicateSeed(3, r))
            draws.update(children(new, reps // 10)[:, 0].tolist())
        observed = [draws.get(k, 0) for k in range(6)]
        expected = [reps * stats.binom.pmf(k, trials, p) for k in range(6)]
        _, pval = stats.chisquare(observed, expected)
        assert pval > 0.001


class TestMultinomial:
    def test_conserves_total(self):
        # 50 sites of 1000 particles, two children each, over three atoms.
        law = validate(1, 0.5, [[0.5]])
        new = next_generation(spaced(50, 1000), validate_offspring({2: 1.0}), law, ReplicateSeed(4, 0))
        parts = children(new, 50)
        assert (parts.sum(axis=1) == 2000).all()
        assert (parts >= 0).all()

    def test_chisquare_against_numpy_pmf(self):
        # One particle per site, three children each, split over
        # (stay, -1, +1) with probabilities (0.5, 0.25, 0.25).
        reps = 200_000
        law = validate(1, 0.5, [[0.5]])
        new = next_generation(spaced(reps, 1), validate_offspring({3: 1.0}), law, ReplicateSeed(5, 0))
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

    def test_off_lattice_keys_are_missing(self):
        # as in a dict: neither key is the site (0,), whose count is 3
        box = SiteCounts.from_mapping({(0,): 3, (1,): 2}, 1)
        assert box.get((0.0,), 0) == 3
        for key in [(0.5,), (0, 0), (True,), 0]:
            assert box.get(key, 0) == 0
            assert key not in box
            with pytest.raises(KeyError):
                box[key]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            SiteCounts.from_mapping({(0,): -1}, 1)
        # a site off the lattice is refused, not stored at the site it truncates to
        with pytest.raises(ValueError, match=r"^z = \(0.5,\) is not a lattice point$"):
            SiteCounts.from_mapping({(0.5,): 3}, 1)
        with pytest.raises(ValueError, match="^every point needs 2 coordinates$"):
            SiteCounts.from_mapping({(0, 0): 1, (1,): 3}, 2)
        # Two far sites would span a 2^32-cell box: refused before allocating.
        with pytest.raises(errors.CapacityExceeded):
            SiteCounts.from_mapping({(2**15, 0): 1, (0, 2**15): 1}, 2)


    def test_radius_read_from_odd_extents(self):
        assert SiteCounts(np.zeros((2, 5, 1), dtype=np.int64)).radius == (2, 0)
        for shape in [(1, 4), (1, 3, 2)]:
            with pytest.raises(ValueError, match="^a box needs an odd extent on every cell axis"):
                SiteCounts(np.zeros(shape, dtype=np.int64))


class TestGenerationState:
    def test_d_and_total_read_from_the_box(self):
        box = SiteCounts.from_mapping({(2, -1): 3, (0, 0): 2**70 + 1}, 2)
        state = GenerationState(4, box)
        assert [f.name for f in dataclasses.fields(state)] == ["n", "counts"]
        assert (state.d, state.total) == (2, 2**70 + 4)
        # The total is summed once and kept: a box is never changed.
        box.digits = np.zeros_like(box.digits)
        assert state.total == box.total() == 2**70 + 4

    def test_counts_must_be_a_box(self):
        with pytest.raises(TypeError, match=r"SiteCounts\.from_mapping\(counts, d\)$"):
            GenerationState(0, {(0,): 1})
        box = SiteCounts.from_mapping({(0, 0): 8}, 2)
        with pytest.raises(TypeError):
            GenerationState(n=3, d=1, counts=box, total=7)

    def test_n_is_a_step_count(self):
        # n = 2.5 reached simulate and died there with a bare AttributeError
        box = SiteCounts.from_mapping({(0,): 1}, 1)
        state = GenerationState(2.0, box)
        assert type(state.n) is int and state.n == 2
        for n in (2.5, True, -1, "2"):
            with pytest.raises(ValueError, match="number of steps"):
                GenerationState(n, box)


class TestEvolve:
    def test_binary_one_step(self):
        state = next_generation(
            initial_state(1), validate_offspring({2: 1.0}), SIMPLE, ReplicateSeed(0, 0)
        )
        assert state.total == 2
        assert set(state.counts) <= {(-1,), (1,)}
        assert sum(state.counts.values()) == 2

    def test_binary_total_deterministic(self):
        off = validate_offspring({2: 1.0})
        (snaps,) = simulate(off, SIMPLE, [ReplicateSeed(11, 0)], [10])
        assert snaps[0].total == 1024

    def test_deep_binary_total_exact(self):
        # The largest site counts pass 2^61, the block size for binary
        # offspring, in the last generations: the block split runs.
        off = validate_offspring({2: 1.0})
        (snaps,) = simulate(off, SIMPLE, [ReplicateSeed(11, 0)], [72], count_width=128)
        assert snaps[0].total == 2**72
        assert sum(snaps[0].counts.values()) == 2**72
        assert max(snaps[0].counts.values()).bit_length() > 63

    def test_conservation_and_support(self):
        off = validate_offspring({1: 0.5, 3: 0.5})
        law = lazy_simple_law(2, 0.25)
        state = initial_state(2)
        for gen in range(8):
            state = next_generation(state, off, law, ReplicateSeed(12, 0))
            assert state.total == sum(state.counts.values())
            assert all(max(abs(c) for c in site) <= state.n for site in state.counts)

    def test_parity_bipartite(self):
        off = validate_offspring({2: 1.0})
        state = initial_state(1)
        for _ in range(6):
            state = next_generation(state, off, SIMPLE, ReplicateSeed(13, 0))
            for site in state.counts:
                assert (state.n - site[0]) % 2 == 0

    def test_count_overflow(self):
        off = validate_offspring({2: 1.0})
        state = state_of({(0,): 2**63 - 1})
        with pytest.raises(errors.CountOverflow):
            next_generation(state, off, SIMPLE, ReplicateSeed(14, 0))
        new = next_generation(state, off, SIMPLE, ReplicateSeed(14, 0), count_width=128)
        assert new.total == 2**64 - 2
        with pytest.raises(errors.CountOverflow):
            next_generation(state_of({(0,): 2**127}), off, SIMPLE, ReplicateSeed(14, 0), count_width=128)

    def test_block_budget(self):
        # 2^90 particles need 2^29 blocks of 2^61, 2^126 need 2^65; both
        # are refused before any block is allocated.
        off = validate_offspring({2: 1.0})
        for count in (2**90, 2**126):
            state = state_of({(0,): count})
            tracemalloc.start()
            try:
                with pytest.raises(errors.CapacityExceeded):
                    next_generation(state, off, SIMPLE, ReplicateSeed(14, 0), 128)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    def test_box_charged_before_blocks(self, monkeypatch):
        # Four single particles 127 sites out on each axis: the next box is
        # 257^2 = 66049 cells and the blocks add 4 * 5 elements.  A budget
        # the box alone exceeds is refused before any block is cut.
        calls = []
        real = gw_brw._blocks
        monkeypatch.setattr(gw_brw, "_blocks", lambda *a: calls.append(a) or real(*a))
        far = SiteCounts.from_mapping({(x, y): 1 for x, y in ((-127, 0), (127, 0), (0, -127), (0, 127))}, 2)
        state = GenerationState(0, far)
        off = validate_offspring({2: 1.0})
        law = lazy_simple_law(2, 1.0 / 3.0)
        monkeypatch.setattr(config, "ELEMENT_BUDGET", 257**2 - 1)
        with pytest.raises(errors.CapacityExceeded, match=r"^the next generation's box exceeds"):
            next_generation(state, off, law, ReplicateSeed(0, 0))
        assert calls == []
        monkeypatch.setattr(config, "ELEMENT_BUDGET", 257**2)
        with pytest.raises(errors.CapacityExceeded, match=r"^the next generation's box and count blocks exceeds"):
            next_generation(state, off, law, ReplicateSeed(0, 0))
        assert len(calls) == 1
        monkeypatch.setattr(config, "ELEMENT_BUDGET", 257**2 + 20)
        assert next_generation(state, off, law, ReplicateSeed(0, 0)).total == 8
        assert len(calls) == 2

    def test_multinomial_placement_mean(self):
        off = validate_offspring({2: 1.0})
        state = state_of({(0,): 10**6})
        new = next_generation(state, off, SIMPLE, ReplicateSeed(15, 0))
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
        for (new,) in simulate(off, law, [ReplicateSeed(16, r) for r in range(reps)], [1], start=base):
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


class TestBatchedStep:
    """Replicates stepped together in one box draw what each draws alone."""

    def test_bit_length_reads_highest_nonzero_digit(self):
        # A count of 5 stored with zero upper digits is 3 bits wide, not 64
        # or 96, for the width check and for the block cut alike.
        off = validate_offspring({2: 1.0})
        for planes, width in ((3, 64), (4, 128)):
            box = SiteCounts(np.array([[5]] + [[0]] * (planes - 1), dtype=np.int64))
            assert box.bit_length() == 3
            new = next_generation(GenerationState(0, box), off, SIMPLE, ReplicateSeed(0, 0), width)
            assert new.total == 10
            assert len(new.counts.digits) == 1

    @pytest.mark.parametrize(
        "law, offspring, n, width",
        [
            # Counts pass 2^62 and are cut into several blocks.
            (SIMPLE, {2: 1.0}, 72, 128),
            # The replicates' own bounding boxes differ.
            (lazy_simple_law(2, 0.25), {1: 0.5, 3: 0.5}, 12, 64),
        ],
        ids=["deep-1d", "lazy-2d"],
    )
    def test_batch_matches_each_seed_alone(self, law, offspring, n, width):
        off = validate_offspring(offspring)
        seeds = [ReplicateSeed(41, r) for r in range(8)]
        probes = [n // 3, n]
        runs = simulate(off, law, seeds, probes, width)
        radii = set()
        for seed, run in zip(seeds, runs):
            state = initial_state(law.d)
            alone = []
            for _ in range(n):
                state = next_generation(state, off, law, seed, width)
                if state.n in probes:
                    alone.append(state)
            assert [(st.n, st.total, st.counts) for st in run] == [(st.n, st.total, st.counts) for st in alone]
            assert [len(st.counts.digits) for st in run] == [len(st.counts.digits) for st in alone]
            radii.add(alone[-1].counts.radius)
        if law.d == 1:
            assert max(c for run in runs for c in run[-1].counts.values()).bit_length() > 63
        else:
            assert len(radii) > 1

    def test_batches_fit_budget(self, monkeypatch):
        # A budget that holds one replicate's steps but not eight at once
        # splits the replicates into batches, and the rows do not change.
        doc = {
            "experiment": "brw-check",
            "step_law": {"d": 1, "zeta0": 0.0, "axes": [[1.0]]},
            "offspring": {"2": 1.0},
            "replicates": 8,
            "n_values": [24, 48, 72],
            "n_est": 72,
            "z_set": [[0], [4], [-4]],
            "count_width": 128,
            "base_seed": 3,
        }
        charged, batches = [], []
        real_charge, real_step = gw_brw.charge, gw_brw._step
        monkeypatch.setattr(gw_brw, "charge", lambda what, n: charged.append(n) or real_charge(what, n))
        monkeypatch.setattr(gw_brw, "_step", lambda *a: batches.append(len(a[4])) or real_step(*a))

        def largest_charge(replicates):
            charged.clear()
            rows = run_experiment(load_config({**doc, "replicates": replicates})).rows
            return max(charged), rows

        one, _ = largest_charge(1)
        eight, rows = largest_charge(8)
        assert set(batches) == {1, 8}
        monkeypatch.setattr(config, "ELEMENT_BUDGET", 3 * one)
        assert one <= config.ELEMENT_BUDGET < eight
        batches.clear()
        assert run_experiment(load_config(doc)).rows == rows
        assert 1 <= max(batches) < 8

    def test_kept_snapshots_charged(self, monkeypatch):
        # Each snapshot is a view that keeps its probe's whole batch box
        # alive.  Every such box is charged once, summed over probes and
        # batches, and a run whose kept boxes pass the budget is refused.
        off = validate_offspring({2: 1.0})
        seeds = [ReplicateSeed(5, r) for r in range(8)]
        charged = []
        real_charge = gw_brw.charge
        monkeypatch.setattr(gw_brw, "charge", lambda what, n: charged.append((what, n)) or real_charge(what, n))

        def kept(seeds, probes):
            charged.clear()
            runs = simulate(off, SIMPLE, seeds, probes)
            boxes = {id(st.counts.digits.base): st.counts.digits.base.size for run in runs for st in run}
            snaps = [n for what, n in charged if what == "the kept snapshots' boxes"]
            return snaps, sum(boxes.values())

        snaps, boxes = kept(seeds, range(1, 25))
        assert len(snaps) == 24
        assert snaps[-1] == boxes
        (whole,), _ = kept(seeds, [24])
        # A budget of one batch's box at the one probe splits the replicates
        # into batches, whose boxes are no larger; one box per batch.
        monkeypatch.setattr(config, "ELEMENT_BUDGET", whole)
        snaps, boxes = kept(seeds, [24])
        assert 1 < len(snaps) < 8
        assert snaps == sorted(snaps)
        assert snaps[-1] == boxes <= whole
        # The same steps with every generation kept are refused.
        with pytest.raises(errors.CapacityExceeded, match=r"^the kept snapshots' boxes exceeds"):
            kept(seeds, range(1, 25))


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        off = validate_offspring({1: 0.5, 3: 0.5})
        (a,) = simulate(off, SIMPLE, [ReplicateSeed(21, 4)], [5, 10, 15])
        (b,) = simulate(off, SIMPLE, [ReplicateSeed(21, 4)], [5, 10, 15])
        for x, y in zip(a, b):
            assert x.counts == y.counts
            assert x.total == y.total

    def test_schedule_is_read_as_steps(self):
        # a generation of 2.5 is refused, not read as generation 2
        off = validate_offspring({2: 1.0})
        for schedule in [[2.5], [4, 2.5], [-1], [-1, 4]]:
            with pytest.raises(ValueError, match="^number of steps must be"):
                simulate(off, SIMPLE, [ReplicateSeed(1, 0)], schedule)
        ((a,),) = simulate(off, SIMPLE, [ReplicateSeed(1, 0)], [4.0])
        ((b,),) = simulate(off, SIMPLE, [ReplicateSeed(1, 0)], [4])
        assert a.n == b.n == 4 and a.counts == b.counts

    def test_steps_to_last_scheduled_generation(self):
        # every scheduled generation is returned, the last one included
        off = validate_offspring({2: 1.0})
        (snaps,) = simulate(off, SIMPLE, [ReplicateSeed(1, 0)], [20, 5])
        assert [st.n for st in snaps] == [5, 20]
        assert [st.total for st in snaps] == [2**5, 2**20]

    def test_schedule_must_follow_the_start(self):
        off = validate_offspring({2: 1.0})
        seeds = [ReplicateSeed(1, 0)]
        ((start,),) = simulate(off, SIMPLE, seeds, [2])
        with pytest.raises(ValueError, match="^scheduled generation 1 lies before the start generation 2$"):
            simulate(off, SIMPLE, seeds, [1, 3, 4], start=start)
        # an empty schedule too: it names no generation to step to
        last = "^the last scheduled generation must exceed the start generation"
        for schedule in [[], [2], [1, 2]]:
            with pytest.raises(ValueError, match=last + " 2$"):
                simulate(off, SIMPLE, seeds, schedule, start=start)
        for schedule in [[], [0]]:
            with pytest.raises(ValueError, match=last + " 0$"):
                simulate(off, SIMPLE, seeds, schedule)
        # the start itself may be scheduled, and is returned as given
        ((first, last),) = simulate(off, SIMPLE, seeds, [2, 3], start=start)
        assert first is start and last.n == 3

    def test_start_of_other_dimension_refused(self):
        # a 2-d start stepped by a 1-d law is refused, not stepped as a 1-d generation
        off = validate_offspring({2: 1.0})
        ((start,),) = simulate(off, lazy_simple_law(2, 0.25), [ReplicateSeed(1, 0)], [3])
        assert (start.d, start.total) == (2, 8)
        with pytest.raises(ValueError, match="^the start generation is 2-dimensional but the step law is 1-dim"):
            simulate(off, SIMPLE, [ReplicateSeed(1, 0)], [5], start=start)
        with pytest.raises(ValueError, match="^the start generation is 1-dimensional but the step law is 2-dim"):
            next_generation(initial_state(1), off, lazy_simple_law(2, 0.25), ReplicateSeed(1, 0))

    def test_replicates_differ(self):
        off = validate_offspring({1: 0.5, 3: 0.5})
        (a,) = simulate(off, SIMPLE, [ReplicateSeed(21, 0)], [15])
        (b,) = simulate(off, SIMPLE, [ReplicateSeed(21, 1)], [15])
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
        ((state,),) = simulate(off, lazy_simple_law(2, 0.25), [ReplicateSeed(30, 0)], [6])
        items = state.counts.items()
        forward = GenerationState(6, SiteCounts.from_mapping(dict(items), 2))
        backward = GenerationState(6, SiteCounts.from_mapping(dict(reversed(items)), 2))
        seed = ReplicateSeed(30, 0)
        law = lazy_simple_law(2, 0.25)
        serial = next_generation(state, off, law, seed)
        assert next_generation(forward, off, law, seed).counts == serial.counts
        assert next_generation(backward, off, law, seed).counts == serial.counts

    def test_padded_box_same_next_generation(self):
        # The same occupied sites in a larger, zero-padded box draw the same
        # numbers: the stream is keyed by coordinates, not by box layout.
        off = validate_offspring({1: 0.5, 3: 0.5})
        law = lazy_simple_law(2, 0.25)
        ((state,),) = simulate(off, law, [ReplicateSeed(31, 2)], [5])
        box = state.counts
        pad = [(0, 0)] + [(9 - r, 9 - r) for r in box.radius]
        padded = GenerationState(5, SiteCounts(np.pad(box.digits, pad)))
        assert padded.counts.radius == (9, 9)
        assert padded.counts.digits.shape[1:] == (19, 19)
        seed = ReplicateSeed(31, 2)
        a = next_generation(state, off, law, seed)
        b = next_generation(padded, off, law, seed)
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
