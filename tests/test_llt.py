import math
import tracemalloc

import numpy as np
import pytest

from brwllt.errors import CapacityExceeded
from brwllt.llt import (
    bracket_coefficients,
    constants,
    constants_for,
    expansion_bracket,
    fit_correction_coefficients,
    gamma_residual,
    gaussian_identity_check,
    quad_form,
    rw_expansion,
)
from brwllt.step_law import (
    Moments,
    WalkClass,
    classify,
    lazy_simple_law,
    moments,
    validate,
)

SIMPLE = validate(1, 0.0, [[1.0]])
LAZY_HALF = validate(1, 0.5, [[0.5]])


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
        c = constants(identity_moments(1), WalkClass.APERIODIC)
        assert abs(c.tau_d - (-0.25)) <= 1e-13
        assert abs(c.lambda_d[0] - (-0.625)) <= 1e-13
        assert abs(c.chi_d - 1.0 / 32.0) <= 1e-13

    def test_chi_terms_identity_d1(self):
        # term-by-term: -15/64 + 1/12 + 1/128 - 1/48 + 75/384
        total = -15 / 64 + 1 / 12 + 1 / 128 - 1 / 48 + 75 / 384
        assert abs(total - 1 / 32) <= 1e-15
        c = constants(identity_moments(1), WalkClass.APERIODIC)
        assert abs(c.chi_d - total) <= 1e-13

    def test_tau_d2_half_moments(self):
        m = Moments(gamma2=(0.5, 0.5), gamma4=(0.5, 0.5), gamma6=(0.5, 0.5))
        assert (m.det_gamma2, m.tr_g4g2m2, m.tr_g6g2m3, m.tr_g4sq_g2m4) == (0.25, 4.0, 8.0, 8.0)
        c = constants(m, WalkClass.APERIODIC)
        assert abs(c.tau_d - (-0.5)) <= 1e-13

    def test_invariants_random(self):
        rng = np.random.default_rng(3)
        for d in (1, 2, 3):
            m = random_moments(d, rng)
            c = constants(m, WalkClass.APERIODIC)
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
        assert constants(m, WalkClass.APERIODIC) == constants(hand, WalkClass.APERIODIC)


class TestRwExpansion:
    def test_z0_formula(self):
        c = constants_for(SIMPLE)
        m = moments(SIMPLE)
        n = 100
        expect = 2.0 * (2 * math.pi * n) ** -0.5 * (1 - 1 / (4 * n) + (1 / 32) / n**2)
        assert abs(rw_expansion(c, m, n, (0,)) - expect) <= 1e-15

    def test_parity_mismatch_zero(self):
        c = constants_for(SIMPLE)
        m = moments(SIMPLE)
        assert rw_expansion(c, m, 3, (0,)) == 0.0

    def test_factor_two(self):
        # bipartite value is exactly twice the aperiodic bracket
        c = constants_for(SIMPLE)
        m = moments(SIMPLE)
        n, z = 50, (2,)
        aper = (2 * math.pi * n) ** -0.5 * c.norm * expansion_bracket(c, m, n, z)
        assert rw_expansion(c, m, n, z) == 2.0 * aper

    def test_corollary_first_order_specialization(self):
        # tau_d - q/2 for the lazy nearest-neighbour law
        for sigma in (0.0, 0.25, 0.5):
            for d in (1, 2, 3):
                law = lazy_simple_law(d, sigma)
                m = moments(law)
                c = constants(m, classify(law))
                for z in [(0,) * d, (1,) + (0,) * (d - 1), (2,) * d]:
                    lhs = c.tau_d - 0.5 * quad_form(m, z)
                    z2 = sum(v * v for v in z)
                    rhs = (d / (1 - sigma)) * (sigma * (d + 2) / 8 - 0.25 - z2 / 2)
                    assert abs(lhs - rhs) <= 1e-12


class TestGammaResidual:
    def test_decreasing_lazy(self):
        law = LAZY_HALF
        assert abs(gamma_residual(law, 1024, (0,))) < abs(gamma_residual(law, 64, (0,)))

    def test_definition_unrolled(self):
        c = constants_for(SIMPLE)
        m = moments(SIMPLE)
        g = gamma_residual(SIMPLE, 2, (0,))
        assert abs(g - 2**2.5 * (0.5 - rw_expansion(c, m, 2, (0,)))) <= 1e-14

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

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_correction_coefficients(SIMPLE, (0,), (64, 128))

    def test_parity_gate(self):
        with pytest.raises(ValueError):
            fit_correction_coefficients(SIMPLE, (1,), (64, 128, 256))

    def test_probes_positive(self):
        with pytest.raises(ValueError):
            fit_correction_coefficients(SIMPLE, (0,), (0, 2, 4))

    def test_element_budget(self):
        with pytest.raises(CapacityExceeded):
            fit_correction_coefficients(SIMPLE, (0,), (64, 128, 256), max_elements=10)


class TestGaussianIdentities:
    @pytest.mark.parametrize("idx", range(1, 14))
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_randomized(self, idx, d):
        rng = np.random.default_rng(100 * d + idx)
        m = random_moments(d, rng)
        z = tuple(int(v) for v in rng.integers(-3, 4, size=d)) if idx <= 4 else None
        assert gaussian_identity_check(m, idx, z=z) <= 1e-8

    def test_identity5_pure_mass(self):
        rng = np.random.default_rng(9)
        assert gaussian_identity_check(random_moments(2, rng), 5) <= 1e-8

    def test_identity7_d1_closed_form(self):
        # brute 4th moment: integral = 3 sqrt(2 pi)
        m = identity_moments(1)
        err = gaussian_identity_check(m, 7)
        assert err <= 1e-10

    def test_identity1_z0(self):
        m = identity_moments(2)
        assert gaussian_identity_check(m, 1, z=(0, 0)) <= 1e-12

    def test_grid_budget_checked_before_allocating(self):
        # 6^11 nodes exceed the element budget; the check must come first.
        m = random_moments(11, np.random.default_rng(11))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityExceeded):
                gaussian_identity_check(m, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_identity_arrays_budget_checked_before_allocating(self):
        # 6^10 nodes fit the element budget, but the arrays the check holds
        # at its peak do not; d = 9 is the largest dimension it runs in.
        m = random_moments(10, np.random.default_rng(10))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityExceeded, match="arrays of 6\\^10"):
                gaussian_identity_check(m, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_bad_index_and_missing_z(self):
        m = identity_moments(2)
        for idx in (0, 14):
            with pytest.raises(ValueError, match="1..13"):
                gaussian_identity_check(m, idx)
        for idx in (1, 2, 3, 4):
            with pytest.raises(ValueError, match="needs a lattice point z"):
                gaussian_identity_check(m, idx)


class TestBracketCoefficients:
    def test_flipped_bracket_differs_off_origin(self):
        m = moments(SIMPLE)
        c = constants(m, WalkClass.BIPARTITE)
        _, a, b = bracket_coefficients(c, m, (2,))
        assert a != b
        assert abs((a - b) - 2 * (5 / 8) * 4) <= 1e-12  # 2*|Lambda|*z^2 at d=1

    def test_one_helper_feeds_bracket_and_fit(self):
        law = validate(2, 0.1, [[0.2, 0.3], [0.15, 0.25]])
        m = moments(law)
        c = constants(m, classify(law))
        z, n = (1, -2), 40
        c1, c2, c2_flipped = bracket_coefficients(c, m, z)
        assert c1 == c.tau_d - 0.5 * quad_form(m, z)
        assert abs(c2_flipped - c2 - 2 * math.fsum(l * v * v for l, v in zip(c.lambda_d, z))) <= 1e-12
        assert expansion_bracket(c, m, n, z) == 1.0 + c1 / n + c2 / n**2
        fit = fit_correction_coefficients(law, z, (10, 20, 40))
        assert (fit.c1_exact, fit.c2_theorem, fit.c2_flipped) == (c1, c2, c2_flipped)
