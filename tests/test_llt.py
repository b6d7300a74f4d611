import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from brwllt import config
from brwllt.errors import CapacityExceeded
from brwllt.exact_dist import cf_invert_box, dist_at
from brwllt.llt import (
    _IDENTITIES,
    ExpansionConstants,
    bracket_coefficients,
    constants_for,
    expansion_bracket,
    fit_correction_coefficients,
    gamma_residual,
    gaussian_identity_check,
    identity_expectations,
    leading_factor,
    quad_form,
    rw_expansion,
)
from brwllt.step_law import (
    Moments,
    WalkClass,
    lazy_simple_law,
    moments,
    validate,
)

SIMPLE = validate(1, 0.0, [[1.0]])
LAZY_HALF = validate(1, 0.5, [[0.5]])
# Coordinates that are not integers: a fraction, a bool and a string.
OFF_LATTICE = (0.5, True, "1")


def identity_moments(d):
    ones = (1.0,) * d
    return Moments(gamma2=ones, gamma4=ones, gamma6=ones)


def random_moments(d, rng):
    g2 = tuple(rng.uniform(0.3, 2.0, size=d))
    g4 = tuple(rng.uniform(0.3, 3.0, size=d))
    g6 = tuple(rng.uniform(0.3, 4.0, size=d))
    return Moments(gamma2=g2, gamma4=g4, gamma6=g6)


class TestConstants:
    def test_identity_d1(self):
        c = ExpansionConstants(identity_moments(1), WalkClass.APERIODIC)
        assert abs(c.tau_d - (-0.25)) <= 1e-13
        assert abs(c.lambda_d[0] - (-0.625)) <= 1e-13
        assert abs(c.chi_d - 1.0 / 32.0) <= 1e-13

    def test_chi_terms_identity_d1(self):
        # term-by-term: -15/64 + 1/12 + 1/128 - 1/48 + 75/384
        total = -15 / 64 + 1 / 12 + 1 / 128 - 1 / 48 + 75 / 384
        assert abs(total - 1 / 32) <= 1e-15
        c = ExpansionConstants(identity_moments(1), WalkClass.APERIODIC)
        assert abs(c.chi_d - total) <= 1e-13

    def test_tau_d2_half_moments(self):
        m = Moments(gamma2=(0.5, 0.5), gamma4=(0.5, 0.5), gamma6=(0.5, 0.5))
        assert (m.det_gamma2, m.tr_g4g2m2, m.tr_g6g2m3, m.tr_g4sq_g2m4) == (0.25, 4.0, 8.0, 8.0)
        c = ExpansionConstants(m, WalkClass.APERIODIC)
        assert abs(c.tau_d - (-0.5)) <= 1e-13

    def test_invariants_random(self):
        rng = np.random.default_rng(3)
        for d in (1, 2, 3):
            m = random_moments(d, rng)
            c = ExpansionConstants(m, WalkClass.APERIODIC)
            d_ = float(d)
            assert abs(c.tau_d - (m.tr_g4g2m2 / 8 - d_ * (d_ + 2) / 8)) <= 1e-13
            for s in range(d):
                expect = (m.tr_g4g2m2 - (d_ + 2) * (d_ + 4)) / (16 * m.gamma2[s]) + m.gamma4[
                    s
                ] / (4 * m.gamma2[s] ** 3)
                assert abs(c.lambda_d[s] - expect) <= 1e-13

    def test_scale_consistency(self):
        # constants from step_law-built moments match hand-built moments bit-for-bit
        law = validate(2, 0.1, [[0.2, 0.3], [0.15, 0.25]])
        m = moments(law)
        hand = Moments(gamma2=m.gamma2, gamma4=m.gamma4, gamma6=m.gamma6)
        a, b = ExpansionConstants(m, WalkClass.APERIODIC), ExpansionConstants(hand, WalkClass.APERIODIC)
        assert (a.tau_d, a.lambda_d, a.chi_d, a.norm) == (b.tau_d, b.lambda_d, b.chi_d, b.norm)


class TestRwExpansion:
    def test_z0_formula(self):
        c = constants_for(SIMPLE)
        n = 100
        expect = 2.0 * (2 * math.pi * n) ** -0.5 * (1 - 1 / (4 * n) + (1 / 32) / n**2)
        assert abs(rw_expansion(c, n, (0,)) - expect) <= 1e-15

    def test_parity_mismatch_zero(self):
        c = constants_for(SIMPLE)
        assert rw_expansion(c, 3, (0,)) == 0.0

    def test_factor_two(self):
        # bipartite value is exactly twice the aperiodic bracket
        c = constants_for(SIMPLE)
        n, z = 50, (2,)
        aper = (2 * math.pi * n) ** -0.5 * c.norm * expansion_bracket(c, n, z)
        assert rw_expansion(c, n, z) == 2.0 * aper

    def test_corollary_first_order_specialization(self):
        # tau_d - q/2 for the lazy nearest-neighbour law
        for sigma in (0.0, 0.25, 0.5):
            for d in (1, 2, 3):
                c = constants_for(lazy_simple_law(d, sigma))
                for z in [(0,) * d, (1,) + (0,) * (d - 1), (2,) * d]:
                    lhs = c.tau_d - 0.5 * quad_form(c.moments, z)
                    z2 = sum(v * v for v in z)
                    rhs = (d / (1 - sigma)) * (sigma * (d + 2) / 8 - 0.25 - z2 / 2)
                    assert abs(lhs - rhs) <= 1e-12


    def test_n_is_a_step_count_of_at_least_one(self):
        # n = 0 divided by zero, n = -3 gave a complex number and n = 2.5 a value
        c = constants_for(LAZY_HALF)
        for f in (
            lambda n: rw_expansion(c, n, (0,)),
            lambda n: leading_factor(c, n),
            lambda n: expansion_bracket(c, n, (0,)),
        ):
            for n, message in [
                (0, "the expansion needs n >= 1, got 0"),
                (-3, "number of steps must be >= 0, got -3"),
                (2.5, "number of steps must be an integer, got 2.5"),
            ]:
                with pytest.raises(ValueError, match=f"^{message}$"):
                    f(n)
            assert f(2.0) == f(2)


class TestGammaResidual:
    def test_decreasing_lazy(self):
        law = LAZY_HALF
        assert abs(gamma_residual(law, 1024, (0,))) < abs(gamma_residual(law, 64, (0,)))

    def test_definition_unrolled(self):
        c = constants_for(SIMPLE)
        g = gamma_residual(SIMPLE, 2, (0,))
        assert abs(g - 2**2.5 * (0.5 - rw_expansion(c, 2, (0,)))) <= 1e-14

    def test_parity_mismatch_residual_zero(self):
        assert gamma_residual(SIMPLE, 4, (1,)) == 0.0


class TestCoefficientFit:
    def test_simple_walk_z0(self):
        fit = fit_correction_coefficients(SIMPLE, (0,), (256, 1024, 4096))
        assert abs(fit.c1_hat - (-0.25)) <= 0.01 * 0.25
        assert abs(fit.c2_hat - 1 / 32) <= 0.05 * (1 / 32)

    def test_lazy_walk_z0(self):
        c = constants_for(LAZY_HALF)
        fit = fit_correction_coefficients(LAZY_HALF, (0,), (256, 1024, 4096))
        assert abs(fit.c1_hat - c.tau_d) <= 0.01 * abs(c.tau_d)

    def test_z0_independent_of_lambda(self):
        fit = fit_correction_coefficients(SIMPLE, (0,), (64, 128, 256))
        assert fit.c2_theorem == fit.c2_flipped

    def test_sign_arbiter_prefers_theorem(self):
        # the exact probabilities decide the Lambda sign question
        fit = fit_correction_coefficients(SIMPLE, (2,), (256, 1024, 4096))
        assert abs(fit.c2_hat - fit.c2_theorem) < abs(fit.c2_hat - fit.c2_flipped)

    @pytest.mark.parametrize(
        "law, z, n_list",
        [
            (SIMPLE, (2,), (4, 10, 30)),
            (SIMPLE, (12,), (2, 4, 6)),
            (validate(2, 0.0, [[0.3, 0.0, 0.2], [0.5]]), (40, 1), (3, 5, 15)),
            (lazy_simple_law(2, 1.0 / 3.0), (3, -1), (1, 2, 30)),
            (lazy_simple_law(3, 0.25), (1, 0, -2), (1, 3, 12)),
        ],
        ids=["simple-1d", "simple-1d-beyond-reach", "bipartite-2d", "lazy-2d", "lazy-3d"],
    )
    def test_probes_read_the_cf_box(self, law, z, n_list):
        # Each probe's P(S_n = z) is the CF box's cell, bit for bit (0.0
        # beyond reach): c1 = n * (p / leading - 1) as read from the box.
        c = constants_for(law)
        fit = fit_correction_coefficients(law, z, n_list)
        box_c1 = [n * (dist_at(cf_invert_box(law, n), z) / leading_factor(c, n) - 1.0) for n in n_list]
        assert list(fit.c1_seq) == box_c1

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_correction_coefficients(SIMPLE, (0,), (64, 128))

    def test_parity_gate(self):
        with pytest.raises(ValueError):
            fit_correction_coefficients(SIMPLE, (1,), (64, 128, 256))

    def test_probes_positive(self):
        with pytest.raises(ValueError):
            fit_correction_coefficients(SIMPLE, (0,), (0, 2, 4))

    def test_element_budget(self, monkeypatch):
        monkeypatch.setattr(config, "ELEMENT_BUDGET", 10)
        with pytest.raises(CapacityExceeded):
            fit_correction_coefficients(SIMPLE, (0,), (64, 128, 256))


def grid_expectations(m, z):
    """Reference for :func:`identity_expectations`: each identity's factor
    summed over the 6^d product grid of the per-axis Gauss-Hermite rule."""
    nodes, weights = hermegauss(6)
    weights = weights / weights.sum()
    d = m.d
    coords, weight = [], 1.0
    for s in range(d):
        shape = [1] * d
        shape[s] = 6
        coords.append((nodes / math.sqrt(m.gamma2[s])).reshape(shape))
        weight = weight * weights.reshape(shape)
    sums = [
        sum(float(c[s]) * coords[s] ** deg for s in range(d))
        for c, deg in zip((m.gamma2, m.gamma4, m.gamma6, z), (2, 4, 6, 1))
    ]
    return [float(np.sum(weight * math.prod(a**p for a, p in zip(sums, exps)))) for exps, _ in _IDENTITIES]


class TestGaussianIdentities:
    @pytest.mark.parametrize("idx", range(1, 14))
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 10, 11, 40])
    def test_randomized(self, idx, d):
        rng = np.random.default_rng(100 * d + idx)
        m = random_moments(d, rng)
        z = tuple(int(v) for v in rng.integers(-3, 4, size=d))
        assert gaussian_identity_check(m, z)[idx - 1] <= 1e-8

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_product_grid(self, d):
        rng = np.random.default_rng(40 + d)
        m = random_moments(d, rng)
        z = tuple(int(v) for v in rng.integers(-3, 4, size=d))
        np.testing.assert_allclose(identity_expectations(m, z), grid_expectations(m, z), rtol=1e-13, atol=0.0)

    def test_one_error_per_identity(self):
        errs = gaussian_identity_check(identity_moments(3), (1, 0, -2))
        assert len(errs) == len(_IDENTITIES) == 13

    def test_identity5_pure_mass(self):
        rng = np.random.default_rng(9)
        assert gaussian_identity_check(random_moments(2, rng), (0, 0))[4] <= 1e-8

    def test_identity7_d1_closed_form(self):
        # brute 4th moment: E[theta^4] = 3
        m = identity_moments(1)
        err = gaussian_identity_check(m, (0,))[6]
        assert err <= 1e-10

    def test_identity1_z0(self):
        m = identity_moments(2)
        assert gaussian_identity_check(m, (0, 0))[0] <= 1e-12

    def test_large_d_in_constant_memory(self):
        # The lazy simple walk's moments in d = 200: det Gamma_2 underflows to
        # 0, which the moment table never reads, and its arrays do not grow
        # with d (one 6^6 grid alone would hold 373 kB).
        m = Moments(gamma2=(1 / 400,) * 200, gamma4=(1 / 400,) * 200, gamma6=(1 / 400,) * 200)
        assert m.det_gamma2 == 0.0
        gaussian_identity_check(identity_moments(1), (0,))  # builds the cached rule and layout
        tracemalloc.start()
        try:
            errs = gaussian_identity_check(m, (1, -2) * 100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert max(errs) <= 1e-8
        assert peak < 1 << 18


class TestBracketCoefficients:
    def test_flipped_bracket_differs_off_origin(self):
        c = ExpansionConstants(moments(SIMPLE), WalkClass.BIPARTITE)
        _, a, b = bracket_coefficients(c, (2,))
        assert a != b
        assert abs((a - b) - 2 * (5 / 8) * 4) <= 1e-12  # 2*|Lambda|*z^2 at d=1

    def test_one_helper_feeds_bracket_and_fit(self):
        law = validate(2, 0.1, [[0.2, 0.3], [0.15, 0.25]])
        c = constants_for(law)
        z, n = (1, -2), 40
        c1, c2, c2_flipped = bracket_coefficients(c, z)
        assert c1 == c.tau_d - 0.5 * quad_form(c.moments, z)
        assert abs(c2_flipped - c2 - 2 * math.fsum(l * v * v for l, v in zip(c.lambda_d, z))) <= 1e-12
        assert expansion_bracket(c, n, z) == 1.0 + c1 / n + c2 / n**2
        fit = fit_correction_coefficients(law, z, (10, 20, 40))
        assert (fit.c1_exact, fit.c2_theorem, fit.c2_flipped) == (c1, c2, c2_flipped)


class TestPointDimension:
    """A point enters the module through ``quad_form`` or
    ``identity_expectations``, which read it by ``lattice_point``; one with
    a coordinate too few or too many, or off the integers, is refused
    there, never cut to the law's d by a zip or truncated by ``int``."""

    def test_rw_expansion(self):
        # n = 4 is parity-forbidden for (2, 7), and is refused all the same
        c = constants_for(SIMPLE)
        for z in [(), (2, 7)]:
            for n in (4, 9):
                with pytest.raises(ValueError, match="^every point needs 1 coordinates$"):
                    rw_expansion(c, n, z)
        for coord in OFF_LATTICE:
            for n in (4, 9):
                with pytest.raises(ValueError, match="is not a lattice point$"):
                    rw_expansion(c, n, (coord,))

    def test_bracket_coefficients(self):
        c = constants_for(validate(2, 0.1, [[0.2, 0.3], [0.15, 0.25]]))
        for z in [(1,), (1, -2, 3)]:
            with pytest.raises(ValueError, match="^every point needs 2 coordinates$"):
                bracket_coefficients(c, z)
        for coord in OFF_LATTICE:
            with pytest.raises(ValueError, match="is not a lattice point$"):
                bracket_coefficients(c, (1, coord))

    def test_gaussian_identity_check(self):
        m = random_moments(2, np.random.default_rng(4))
        for z in [(1,), (1, 2, 5)]:
            with pytest.raises(ValueError, match="^every point needs 2 coordinates$"):
                gaussian_identity_check(m, z)
        for coord in OFF_LATTICE:
            with pytest.raises(ValueError, match="is not a lattice point$"):
                gaussian_identity_check(m, (coord, 2))

    def test_fit_correction_coefficients(self):
        # at z = (0.5,) the fit would otherwise read the cell of (0,)
        for z, message in [((0.5,), "is not a lattice point$"), ((0, 0), "^every point needs 1 coordinates$")]:
            with pytest.raises(ValueError, match=message):
                fit_correction_coefficients(LAZY_HALF, z, [8, 16, 32])
        with pytest.raises(ValueError, match="^number of steps must be an integer, got 16.5$"):
            fit_correction_coefficients(LAZY_HALF, (0,), [8, 16.5, 32])
