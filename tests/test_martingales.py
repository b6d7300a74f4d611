import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from brwllt.gw_brw import (
    GenerationState,
    ReplicateSeed,
    SiteCounts,
    initial_state,
    simulate,
    validate_offspring,
)
from brwllt.llt import constants_for, leading_factor, rw_expansion
from brwllt.martingales import (
    FUNCTIONALS,
    MartingaleReadout,
    _polynomials,
    brw_residual,
    chi_sigma_d,
    corollary_eval,
    f1_eval,
    f2_eval,
    functional_value,
    harmonicity_defect,
    mu_sigma_d,
    readout,
    theorem_prediction,
)
from brwllt.step_law import lazy_simple_law, moments, validate

SIMPLE = validate(1, 0.0, [[1.0]])
M1 = moments(SIMPLE)
C1 = constants_for(SIMPLE)
# Coordinates that are not integers: a fraction, a bool and a string.
OFF_LATTICE = (0.5, True, "1")


def make_readout(d, rng=None, W=1.0, z=None):
    """A readout standing in for the limits: W alone at z (default the
    origin), or random values and then a random z drawn from ``rng``."""
    if rng is None:
        zeros = (0.0,) * d
        z = (0,) * d if z is None else z
        return MartingaleReadout(n=0, W=W, N1=zeros, N2=zeros, N2z=0.0, N3=zeros, N4=0.0, z=z)
    values = dict(
        N1=tuple(rng.normal(size=d)),
        N2=tuple(rng.normal(size=d)),
        N2z=float(rng.normal()),
        N3=tuple(rng.normal(size=d)),
        N4=float(rng.normal()),
        W=float(rng.uniform(0.5, 1.5)),
    )
    return MartingaleReadout(n=0, z=tuple(int(v) for v in rng.integers(-3, 4, size=d)), **values)


def random_law(rng):
    d = int(rng.integers(1, 4))
    zeta0 = float(rng.uniform(0.0, 0.5))
    lens = [int(rng.integers(1, 4)) for _ in range(d)]
    raw = [list(rng.uniform(0.1, 1.0, size=t)) for t in lens]
    total = math.fsum(math.fsum(row) for row in raw)
    scale = (1.0 - zeta0) / total
    return validate(d, zeta0, [[w * scale for w in row] for row in raw])


def site_values(mom, x, n, z, sign=-1):
    """Exact per-particle values of the six functionals, written out from
    their definitions, as tuples of Fractions.

    With sign=+1 at (|x|, n, |z|) every term is added instead: a bound on
    the sum of the absolute values of the expanded monomial terms, which
    sets the scale of a float evaluation's rounding.
    """
    d = mom.d
    g = [Fraction(v) for v in mom.gamma2]
    q = sum(Fraction(x[s]) ** 2 / g[s] for s in range(d))
    gz = [Fraction(z[s]) / g[s] for s in range(d)]
    dot = sum(gz[s] * x[s] for s in range(d))
    return {
        "W": (Fraction(1),),
        "N1": tuple(Fraction(x[s]) for s in range(d)),
        "N2": tuple(Fraction(x[s]) ** 2 + sign * n * g[s] for s in range(d)),
        "N2z": (dot * dot + sign * n * sum(gz[s] * z[s] for s in range(d)),),
        "N3": tuple((q + sign * (d + 2) * n) * x[s] for s in range(d)),
        "N4": (
            q * q
            + sign * (4 + 2 * d) * n * q
            + d * (d + 2) * (n * n + n)
            + sign * Fraction(mom.tr_g4g2m2) * n,
        ),
    }


# Laws whose float moments are exact binary fractions.
EXACT_LAWS = {
    "simple-1d": SIMPLE,
    "simple-2d": lazy_simple_law(2, 0.0),
    "lazy-1d": lazy_simple_law(1, 0.5),
    "lazy-2d": lazy_simple_law(2, 0.5),
    "two-range-1d": validate(1, 0.375, [[0.5, 0.125]]),
}


def exact_value(poly, point):
    """One functional of the table, evaluated exactly at (x_1, ..., x_d, n):
    one value per component."""
    basis = [math.prod(v**e for v, e in zip(point, mono)) for mono in poly.monomials]
    return [sum(c * b for c, b in zip(row, basis)) for row in poly.coefs]


class TestFunctionalValues:
    def test_initial_particle_all_zero(self):
        # at the origin in generation 0 every centered functional vanishes
        for fid in FUNCTIONALS:
            val = functional_value(fid, M1, (0,), 0, z=(2,))
            expect = 1.0 if fid == "W" else (0.0,) if fid in ("N1", "N2", "N3") else 0.0
            assert val == expect

    def test_n4_vanishes_first_generation(self):
        for x in ((1,), (-1,)):
            assert functional_value("N4", M1, x, 1) == 0.0

    def test_functional_value_matches_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            law = random_law(rng)
            mom = moments(law)
            x = tuple(int(v) for v in rng.integers(-8, 9, size=law.d))
            n = int(rng.integers(0, 60))
            z = tuple(int(v) for v in rng.integers(-3, 4, size=law.d))
            exact = site_values(mom, x, n, z)
            size = site_values(mom, tuple(map(abs, x)), n, tuple(map(abs, z)), sign=1)
            for fid in FUNCTIONALS:
                got = functional_value(fid, mom, x, n, z=z)
                assert isinstance(got, float) == (fid in ("W", "N2z", "N4")), fid
                got = got if isinstance(got, tuple) else (got,)
                assert len(got) == len(exact[fid]), fid
                for v, e, bound in zip(got, exact[fid], size[fid]):
                    assert abs(Fraction(v) - e) <= Fraction(1e-15) * bound, fid

    def test_n2z_needs_z(self):
        with pytest.raises(ValueError, match="N2z needs a lattice point z"):
            functional_value("N2z", M1, (1,), 3)
        with pytest.raises(ValueError, match="N2z needs a lattice point z"):
            harmonicity_defect("N2z", SIMPLE, (1,), 3, z=None)
        # a z off the lattice is refused, not truncated to one on it
        with pytest.raises(ValueError, match=r"z = \(0.5,\) is not a lattice point"):
            functional_value("N2z", M1, (1,), 3, z=(0.5,))
        with pytest.raises(ValueError, match="is not a lattice point"):
            harmonicity_defect("N2z", SIMPLE, (1,), 3, z=(0.5,))
        with pytest.raises(ValueError, match="is not a lattice point"):
            readout(initial_state(1), 2.0, M1, (0.5,))
        assert functional_value("N2z", M1, (1,), 3, z=(2.0,)) == functional_value("N2z", M1, (1,), 3, z=(2,))

    def test_table_built_once_per_law_and_point(self):
        # however many points a run reads out, each (moments, z) pair is
        # built once and then found again
        zs = [(k, -k) for k in range(40)]
        state = initial_state(2)
        mom = moments(lazy_simple_law(2, 0.25))
        _polynomials.cache_clear()
        for _ in range(2):
            for z in zs:
                readout(state, 2.0, mom, z)
        info = _polynomials.cache_info()
        assert (info.misses, info.hits) == (len(zs), len(zs))

    def test_readout_single_ancestor(self):
        r = readout(initial_state(1), 2.0, M1, (0,))
        assert r.W == 1.0
        assert r.N1 == (0.0,)
        assert r.N2 == (0.0,)
        assert r.N2z == 0.0
        assert r.N3 == (0.0,)
        assert r.N4 == 0.0

    def test_readout_two_particles(self):
        state = GenerationState(1, SiteCounts.from_mapping({(-1,): 1, (1,): 1}, 1))
        r = readout(state, 2.0, M1, (1,))
        assert r.W == 1.0
        assert r.N1 == (0.0,)
        assert r.N2 == (0.0,)  # x^2 - n = 0 at x = +-1, n = 1
        # N2z at z=1: (x)^2 - 1 = 0 for both particles
        assert r.N2z == 0.0

    def test_readout_exact_above_2p53(self):
        # Counts above 2^53 lose their low bits in a float; readout must not.
        law = validate(2, 0.1, [[0.3, 0.2], [0.4]])
        mom = moments(law)
        counts = {(-3, 1): 2**60 + 7, (2, 2): 2**55 + 1, (0, -4): 3, (5, 0): 2**80 + 11}
        state = GenerationState(7, SiteCounts.from_mapping(counts, 2))
        z = (1, -2)
        values = {x: site_values(mom, x, state.n, z) for x in counts}
        scale = 2.0 ** (-state.n)
        r = readout(state, 2.0, mom, z)
        for fid in FUNCTIONALS:
            width = len(values[(5, 0)][fid])
            exact = [sum(c * values[x][fid][i] for x, c in counts.items()) for i in range(width)]
            expect = tuple(scale * float(v) for v in exact)
            got = getattr(r, fid)
            assert (got if isinstance(got, tuple) else (got,)) == expect, fid

    @pytest.mark.parametrize("radius", [7, 4100])
    def test_power_sums_exact(self, radius):
        # At radius 4100, sum over the box of x^4 passes 2^61 and the sums
        # are taken in python ints instead of int64 pieces.
        counts = {(-radius,): 2**70 + 3, (radius - 1,): 5, (2,): 2**40 + 1}
        assert SiteCounts.from_mapping(counts, 1).radius == (radius,)
        sums = SiteCounts.from_mapping(counts, 1).power_sums(4)
        assert sums == {(k,): sum(c * x[0] ** k for x, c in counts.items()) for k in range(5)}

    def test_power_sums_hold_one_piece(self):
        # A 3-digit 301 x 301 box is cut into six 16-bit pieces of 0.69 MiB;
        # the sums hold one piece at a time, not all six.
        rng = np.random.default_rng(5)
        box = SiteCounts(rng.integers(0, 2**32, size=(3, 301, 301), dtype=np.int64))
        tracemalloc.start()
        try:
            box.power_sums(4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * box.digits[0].nbytes

    def test_power_sums_once_per_snapshot(self, monkeypatch):
        # Readouts of one snapshot at several z take the power sums once and
        # read the same values as readouts of a fresh box, bit for bit.
        law = lazy_simple_law(2, 0.25)
        mom = moments(law)
        ((snap,),) = simulate(validate_offspring({1: 0.5, 3: 0.5}), law, [ReplicateSeed(9, 0)], [10])
        zs = [(0, 0), (1, -1), (2, 0), (-3, 1)]
        fresh = [
            readout(dataclasses.replace(snap, counts=SiteCounts(snap.counts.digits)), 2.0, mom, z)
            for z in zs
        ]
        calls = []
        real = np.tensordot
        monkeypatch.setattr(np, "tensordot", lambda *a, **k: calls.append(1) or real(*a, **k))
        assert [readout(snap, 2.0, mom, z) for z in zs] == fresh
        once = len(calls)
        assert 0 < once
        assert [readout(snap, 2.0, mom, z) for z in zs] == fresh
        assert len(calls) == once

    def test_readout_matches_site_sum(self):
        law = lazy_simple_law(2, 0.25)
        mom = moments(law)
        off = validate_offspring({1: 0.5, 3: 0.5})
        ((state,),) = simulate(off, law, [ReplicateSeed(8, 1)], [12])
        z = (2, -1)
        r = readout(state, 2.0, mom, z)
        scale = 2.0**-12
        for fid in FUNCTIONALS:
            vals = [(c, functional_value(fid, mom, x, 12, z=z)) for x, c in state.counts.items()]
            got = getattr(r, fid)
            if isinstance(got, tuple):
                for s in range(2):
                    terms = [c * v[s] for c, v in vals]
                    assert abs(got[s] - scale * math.fsum(terms)) <= 1e-12 * scale * math.fsum(map(abs, terms))
            else:
                terms = [c * v for c, v in vals]
                assert abs(got - scale * math.fsum(terms)) <= 1e-12 * scale * math.fsum(map(abs, terms))

    def test_readout_carries_its_z(self):
        law = lazy_simple_law(1, 0.25)
        mom = moments(law)
        ((snap,),) = simulate(validate_offspring({1: 0.5, 3: 0.5}), law, [ReplicateSeed(3, 0)], [6])
        at0, at4 = readout(snap, 2.0, mom, (0,)), readout(snap, 2.0, mom, (4,))
        assert (at0.z, at4.z, at4.n) == ((0,), (4,), 6)
        assert at0.N2z != at4.N2z
        assert dataclasses.replace(at4, N2z=at0.N2z, z=(0,)) == at0


class TestHarmonicity:
    @pytest.mark.parametrize("fid", FUNCTIONALS)
    def test_simple_walk_exact(self, fid):
        for x in ((0,), (3,), (-7,)):
            for n in (0, 1, 10):
                assert harmonicity_defect(fid, SIMPLE, x, n, z=(2,)) == 0.0

    @pytest.mark.parametrize("fid", FUNCTIONALS)
    def test_randomized_triples(self, fid):
        rng = np.random.default_rng(42)
        for _ in range(20):
            law = random_law(rng)
            mom = moments(law)
            x = tuple(int(v) for v in rng.integers(-6, 7, size=law.d))
            n = int(rng.integers(0, 40))
            z = tuple(int(v) for v in rng.integers(-3, 4, size=law.d))
            defect = harmonicity_defect(fid, law, x, n, z=z)
            ref = functional_value(fid, mom, x, n, z=z)
            scale = max(1.0, max(abs(v) for v in ref) if isinstance(ref, tuple) else abs(ref))
            assert abs(defect) <= 1e-9 * scale

    @pytest.mark.parametrize("name", sorted(EXACT_LAWS))
    def test_exact_polynomial_identity(self, name):
        # For each table row the defect sum_l P(L = l) f(x + l, n + 1) - f(x, n)
        # is a polynomial of degree <= 4 in each x_s and <= 2 in n, so its
        # zeros on the grid {-2..2}^d x {0, 1, 2} make it vanish for every x, n.
        law = EXACT_LAWS[name]
        mom = moments(law)
        atoms = [(a, Fraction(p)) for a, p in law.atoms()]
        g4 = [sum(p * a[s] ** 4 for a, p in atoms) for s in range(law.d)]
        g2 = [sum(p * a[s] ** 2 for a, p in atoms) for s in range(law.d)]
        assert [Fraction(v) for v in mom.gamma2] == g2
        assert Fraction(mom.tr_g4g2m2) == sum(a / b**2 for a, b in zip(g4, g2))
        table = _polynomials(mom, (2, -1)[: law.d])
        assert sorted(table) == sorted(FUNCTIONALS)
        for fid, poly in table.items():
            assert all(sum(m[:-1]) <= 4 and m[-1] <= 2 for m in poly.monomials), fid
            for x in itertools.product(range(-2, 3), repeat=law.d):
                for n in (0, 1, 2):
                    mean = [0] * len(poly.coefs)
                    for a, p in atoms:
                        shifted = exact_value(poly, (*(x[s] + a[s] for s in range(law.d)), n + 1))
                        mean = [m + p * v for m, v in zip(mean, shifted)]
                    assert mean == exact_value(poly, (*x, n)), (fid, x, n)


class TestMartingaleProperty:
    def test_mean_readout_is_constant(self):
        # E[m^{-n} sum f(S_u, n)] = f(0, 0) for every functional, statistically
        off = validate_offspring({1: 0.5, 3: 0.5})
        law = lazy_simple_law(1, 0.5)
        mom = moments(law)
        reps, n = 2000, 8
        acc = {fid: [] for fid in ("W", "N1", "N2", "N4")}
        for (snap,) in simulate(off, law, [ReplicateSeed(77, r) for r in range(reps)], [n]):
            ro = readout(snap, off.mean, mom, (0,))
            acc["W"].append(ro.W)
            acc["N1"].append(ro.N1[0])
            acc["N2"].append(ro.N2[0])
            acc["N4"].append(ro.N4)
        for fid, target in (("W", 1.0), ("N1", 0.0), ("N2", 0.0), ("N4", 0.0)):
            vals = np.array(acc[fid])
            se = vals.std(ddof=1) / math.sqrt(reps)
            assert abs(vals.mean() - target) <= 4 * se + 1e-12


class TestCorrectionTerms:
    def test_f1_arithmetic_example(self):
        ro = dataclasses.replace(make_readout(1, z=(2,)), N1=(0.3,), N2=(0.1,))
        # (tau - z^2/2) + V1 z - V2/2 = (-1/4 - 2) + 0.6 - 0.05
        assert abs(f1_eval(ro, C1) - (-1.7)) <= 1e-14

    def test_f2_v4_example(self):
        ro = dataclasses.replace(make_readout(1), N4=8.0)
        assert abs(f2_eval(ro, C1) - (1.0 / 32.0 + 1.0)) <= 1e-14

    def test_f2_v2_example(self):
        ro = dataclasses.replace(make_readout(1, W=0.0), N2=(2.0,))
        # V2 coefficient at z=0 is -lambda = 5/8
        assert abs(f2_eval(ro, C1) - 1.25) <= 1e-14

    def test_prediction_reduces_to_walk_expansion(self):
        for n in (10, 100):
            for z in ((0,), (2,), (-4,)):
                ro = make_readout(1, z=z)
                assert abs(theorem_prediction(ro, C1, n) - rw_expansion(C1, n, z)) <= 1e-15

    def test_prediction_n_is_a_step_count_of_at_least_one(self):
        ro = make_readout(1)
        for n, message in [
            (0, "the expansion needs n >= 1, got 0"),
            (-3, "number of steps must be >= 0, got -3"),
            (2.5, "number of steps must be an integer, got 2.5"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                theorem_prediction(ro, C1, n)
        assert theorem_prediction(ro, C1, 2.0) == theorem_prediction(ro, C1, 2)

    def test_prediction_parity_zero(self):
        assert theorem_prediction(make_readout(1), C1, 5) == 0.0

    def test_brw_residual_parity_zero(self):
        snap = GenerationState(4, SiteCounts.from_mapping({(0,): 5, (2,): 3}, 1))
        assert brw_residual(snap, make_readout(1, z=(1,)), C1, 2.0) == 0.0

    def test_f2_and_prediction_use_readout_z(self):
        # Readouts of one snapshot at z = 0 and z = 4: F2 and the prediction
        # at 4 take N2z at 4, never the N2z read at 0.
        off = validate_offspring({2: 1.0})
        ((snap,),) = simulate(off, SIMPLE, [ReplicateSeed(12345, 0)], [48])
        at0, at4 = readout(snap, off.mean, M1, (0,)), readout(snap, off.mean, M1, (4,))
        assert at4.N2z != at0.N2z
        z, lam, g = 4.0, C1.lambda_d[0], M1.gamma2[0]
        q = z * z / g
        f2 = (
            (q * q / 8.0 - lam * z * z + C1.chi_d) * at4.W
            + at4.N1[0] * (2.0 * lam - 0.5 * q / g) * z
            + at4.N2[0] * (0.25 * q / g - lam)
            + 0.5 * at4.N2z
            - 0.5 * at4.N3[0] * z / g
            + 0.125 * at4.N4
        )
        assert abs(f2_eval(at4, C1) - f2) <= 1e-12 * max(1.0, abs(f2))
        wrong_z = dataclasses.replace(at4, N2z=at0.N2z)
        shift = f2_eval(at4, C1) - f2_eval(wrong_z, C1)
        assert abs(shift - 0.5 * (at4.N2z - at0.N2z)) <= 1e-9
        n = 48
        pred = theorem_prediction(at4, C1, n)
        expect = leading_factor(C1, n) * (at4.W + f1_eval(at4, C1) / n + f2 / n**2)
        assert abs(pred - expect) <= 1e-12 * expect
        observed = off.mean**-n * snap.counts.get((4,), 0)
        assert brw_residual(snap, at4, C1, off.mean) == n**2.5 * (observed - pred)


class TestCorollary:
    def test_frozen_values_sigma0_d1(self):
        assert mu_sigma_d(0.0, 1) == -0.625
        assert abs(chi_sigma_d(0.0, 1) - 1.0 / 32.0) <= 1e-15
        h1, h2 = corollary_eval(0.0, make_readout(1))
        assert abs(h1 - (-0.25)) <= 1e-15
        assert abs(h2 - 1.0 / 32.0) <= 1e-15

    def test_sigma_gate(self):
        with pytest.raises(ValueError):
            corollary_eval(1.0, make_readout(1))

    @pytest.mark.parametrize("sigma", [0.0, 0.25, 0.5])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_first_order_consistency(self, sigma, d):
        rng = np.random.default_rng(10 * d + int(100 * sigma))
        c = constants_for(lazy_simple_law(d, sigma))
        for _ in range(10):
            ro = make_readout(d, rng)
            h1, _ = corollary_eval(sigma, ro)
            assert abs(f1_eval(ro, c) - h1) <= 1e-12 * max(1.0, abs(h1))

    @pytest.mark.parametrize("sigma", [0.0, 0.25, 0.5])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_second_order_discrepancy_is_exact(self, sigma, d):
        # the two displays differ only in the |z|^2 W coefficient:
        # f2 - H2 = -2 lambda |z|^2 W, with lambda the common diagonal entry
        rng = np.random.default_rng(17 * d + int(1000 * sigma))
        c = constants_for(lazy_simple_law(d, sigma))
        lam = c.lambda_d[0]
        for _ in range(10):
            ro = make_readout(d, rng)
            z2 = sum(v * v for v in ro.z)
            _, h2 = corollary_eval(sigma, ro)
            gap = f2_eval(ro, c) - h2
            expect = -2.0 * lam * z2 * ro.W
            assert abs(gap - expect) <= 1e-10 * max(1.0, abs(h2))

    def test_lambda_mu_identity(self):
        # lambda = (d/(1-sigma))^2 mu for every lazy nearest-neighbour law
        for sigma in (0.0, 0.25, 0.5):
            for d in (1, 2, 3):
                c = constants_for(lazy_simple_law(d, sigma))
                scale = (d / (1.0 - sigma)) ** 2
                assert abs(c.lambda_d[0] - scale * mu_sigma_d(sigma, d)) <= 1e-12


class TestPointDimension:
    """Every point and position enters the module through ``lattice_point``;
    one with a coordinate too few or too many, or off the integers, is
    refused, never cut to the law's d by a zip or broadcast by numpy."""

    def test_readout(self):
        for z in [(), (0, 9)]:
            with pytest.raises(ValueError, match="^every point needs 1 coordinates$"):
                readout(initial_state(1), 2.0, M1, z)
        for coord in OFF_LATTICE:
            with pytest.raises(ValueError, match="is not a lattice point$"):
                readout(initial_state(1), 2.0, M1, (coord,))
        # a 2-d generation read with 1-d moments is refused, not cut to its first axis
        with pytest.raises(ValueError, match="^a 2-dimensional generation read with 1-dimensional moments$"):
            readout(initial_state(2), 2.0, M1, (0,))

    def test_harmonicity_defect(self):
        law = lazy_simple_law(2, 0.25)
        for z in [(1,), (1, 2, 9)]:
            with pytest.raises(ValueError, match="^every point needs 2 coordinates$"):
                harmonicity_defect("N2z", law, (0, 1), 3, z=z)
        for coord in OFF_LATTICE:
            with pytest.raises(ValueError, match="is not a lattice point$"):
                harmonicity_defect("N2z", law, (0, 1), 3, z=(1, coord))
            with pytest.raises(ValueError, match="is not a lattice point$"):
                harmonicity_defect("N4", law, (0, coord), 3)
        # the position x: with x = () numpy would broadcast n over every coordinate
        for x in [(), (0, 1, 2)]:
            with pytest.raises(ValueError, match="^every point needs 2 coordinates$"):
                harmonicity_defect("N4", law, x, 3)

    def test_functional_value(self):
        mom = moments(lazy_simple_law(2, 0.25))
        for x in [(), (0, 1, 2)]:
            with pytest.raises(ValueError, match="^every point needs 2 coordinates$"):
                functional_value("N4", mom, x, 3)
        for coord in OFF_LATTICE:
            with pytest.raises(ValueError, match="is not a lattice point$"):
                functional_value("N4", mom, (coord, 0), 3)
            with pytest.raises(ValueError, match="is not a lattice point$"):
                functional_value("N2z", mom, (0, 0), 3, z=(coord, 0))

    def test_f1_eval(self):
        # a readout of one dimension with the constants of another
        c2 = constants_for(lazy_simple_law(2, 0.25))
        with pytest.raises(ValueError, match="^every point needs 2 coordinates$"):
            f1_eval(make_readout(1, z=(2,)), c2)
        with pytest.raises(ValueError, match="^every point needs 1 coordinates$"):
            f1_eval(make_readout(2, z=(2, 1)), C1)
