import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from brwllt import errors
from brwllt.gw_brw import (
    ReplicateSeed,
    binomial_exact,
    derive_stream,
    evolve_generation,
    initial_state,
    multinomial_exact,
    simulate,
    validate_offspring,
)
from brwllt.exact_dist import dist_at, walk_dist
from brwllt.step_law import lazy_simple_law, validate

SIMPLE = validate(1, 0.0, [[1.0]])


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


class TestBinomialExact:
    def test_edges(self):
        rng = derive_stream(ReplicateSeed(0, 0), 0, 0)
        assert binomial_exact(10, 0.0, rng) == 0
        assert binomial_exact(10, 1.0, rng) == 10
        assert binomial_exact(0, 0.3, rng) == 0

    def test_large_trials_mean(self):
        rng = derive_stream(ReplicateSeed(1, 0), 0, 0)
        trials, p, reps = 10**9, 0.5, 10**4
        draws = [binomial_exact(trials, p, rng) for _ in range(reps)]
        se = math.sqrt(trials * p * (1 - p) / reps)
        assert abs(np.mean(draws) - trials * p) <= 4 * se

    def test_beyond_int64(self):
        rng = derive_stream(ReplicateSeed(2, 0), 0, 0)
        trials = 2**64 + 5
        x = binomial_exact(trials, 0.5, rng)
        assert 0 <= x <= trials
        se = math.sqrt(trials * 0.25)
        assert abs(x - trials / 2) <= 8 * se

    def test_small_pmf_chisquare(self):
        rng = derive_stream(ReplicateSeed(3, 0), 0, 0)
        trials, p, reps = 5, 0.3, 10**6
        draws = Counter(binomial_exact(trials, p, rng) for _ in range(reps))
        observed = [draws.get(k, 0) for k in range(6)]
        expected = [reps * stats.binom.pmf(k, trials, p) for k in range(6)]
        _, pval = stats.chisquare(observed, expected)
        assert pval > 0.001


class TestMultinomial:
    def test_conserves_total(self):
        rng = derive_stream(ReplicateSeed(4, 0), 0, 0)
        for _ in range(50):
            parts = multinomial_exact(1000, [0.2, 0.3, 0.5], rng)
            assert sum(parts) == 1000
            assert all(c >= 0 for c in parts)

    def test_chisquare_against_numpy_pmf(self):
        rng = derive_stream(ReplicateSeed(5, 0), 0, 0)
        reps = 200_000
        counts = Counter(tuple(multinomial_exact(3, [0.5, 0.25, 0.25], rng)) for _ in range(reps))
        observed, expected = [], []
        for combo, obs in counts.items():
            observed.append(obs)
            pmf = math.factorial(3)
            for c, p in zip(combo, [0.5, 0.25, 0.25]):
                pmf *= p**c / math.factorial(c)
            expected.append(reps * pmf)
        _, pval = stats.chisquare(observed, expected)
        assert pval > 0.001


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
        state = initial_state(1)
        state.counts[(0,)] = 2**63 - 1
        with pytest.raises(errors.CountOverflow):
            evolve_generation(state, off, SIMPLE, ReplicateSeed(14, 0))

    def test_multinomial_placement_mean(self):
        # 10^6 walkers, p1=1: occupancy mean tracks the one-step law
        off = validate_offspring({1: 0.999999999, 2: 1e-9})
        # p1=1 exactly is critical; use deterministic placement check instead
        off = validate_offspring({2: 1.0})
        state = initial_state(1)
        state.counts[(0,)] = 10**6
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
        base = initial_state(1)
        base.counts[(0,)] = 400
        base.counts[(1,)] = 100
        base = type(base)(n=base.n, d=1, counts=base.counts, total=500)
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
        g1 = derive_stream(ReplicateSeed(5, 7), 3, 11)
        g2 = derive_stream(ReplicateSeed(5, 7), 3, 11)
        assert g1.integers(0, 2**62) == g2.integers(0, 2**62)
        g3 = derive_stream(ReplicateSeed(5, 7), 3, 12)
        assert g2.integers(0, 2**62) != g3.integers(0, 2**62)  # streams independent

    def test_site_order_independent(self):
        # processing sites in any order must reproduce the sorted-order result,
        # because each site visit owns its ordinal-keyed stream
        off = validate_offspring({1: 0.5, 3: 0.5})
        law = SIMPLE
        state = initial_state(1)
        for _ in range(6):
            state = evolve_generation(state, off, law, ReplicateSeed(30, 0))
        seed = ReplicateSeed(30, 0)
        serial = evolve_generation(state, off, law, seed)

        # re-do the same step manually in reversed site order
        from brwllt.gw_brw import derive_stream as ds, multinomial_exact as me

        atoms = list(law.atoms())
        ordered = sorted(state.counts)
        merged = Counter()
        for ordinal in reversed(range(len(ordered))):
            site = ordered[ordinal]
            rng = ds(seed, state.n, ordinal)
            per_value = me(state.counts[site], off.probs, rng)
            offspring = sum(k * ck for k, ck in enumerate(per_value, start=1))
            placed = me(offspring, [p for _, p in atoms], rng)
            for (point, _), cnt in zip(atoms, placed):
                merged[(site[0] + point[0],)] += cnt
        assert dict(+merged) == serial.counts
