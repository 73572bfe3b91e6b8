import math

import numpy as np
import pytest

from qbcsim.qcore import (
    BREIDBART,
    COMPUTATIONAL,
    KET_0,
    KET_1,
    KET_MINUS,
    KET_PLUS,
    Basis,
    Qubit,
    basis_at_angle,
    born,
    breidbart,
    helstrom_success,
)

ATOL = 1e-12


def scan_best_success(r: float, angles: int = 100_000) -> float:
    """Brute-force oracle: best discrimination success for |0> vs |+>
    over a dense grid of measurement angles (guess |0> on outcome 0)."""
    theta = np.linspace(0.0, 2.0 * math.pi, angles, endpoint=False)
    p_zero = (1.0 - r) * np.cos(theta) ** 2 + r / 2.0
    amp_plus = (np.cos(theta) + np.sin(theta)) * math.sqrt(0.5)
    p_plus = (1.0 - r) * amp_plus**2 + r / 2.0
    return float(np.max(0.5 * (p_zero + 1.0 - p_plus)))


class TestStates:
    def test_named_states_are_normalised(self):
        for ket in (KET_0, KET_1, KET_PLUS, KET_MINUS):
            assert abs(ket.a0**2 + ket.a1**2 - 1.0) <= ATOL

    def test_unnormalised_amplitudes_rejected(self):
        with pytest.raises(ValueError):
            Qubit(1.0, 1.0)

    def test_nonorthogonal_basis_rejected(self):
        with pytest.raises(ValueError):
            Basis(KET_0, KET_PLUS)

    def test_swapped_exchanges_outcomes(self):
        b = COMPUTATIONAL.swapped()
        assert b.v0 == KET_1 and b.v1 == KET_0


class TestBorn:
    def test_identity_case(self):
        assert born(COMPUTATIONAL, KET_0, 0.0) == 1.0

    def test_unbiased_state_is_noise_invariant(self):
        assert abs(born(COMPUTATIONAL, KET_PLUS, 0.3) - 0.5) <= ATOL

    def test_noisy_deterministic_state(self):
        assert abs(born(COMPUTATIONAL, KET_0, 0.16) - 0.92) <= ATOL

    @pytest.mark.parametrize("r", (-0.1, 1.5))
    def test_noise_domain_checked(self, r):
        with pytest.raises(ValueError):
            born(COMPUTATIONAL, KET_0, r)

    def test_outcome_probabilities_are_complementary(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            t, u = rng.uniform(0.0, 2.0 * math.pi, size=2)
            r = rng.uniform(0.0, 1.0)
            b = basis_at_angle(t)
            s = Qubit(math.cos(u), math.sin(u))
            assert abs(born(b, s, r) + born(b.swapped(), s, r) - 1.0) <= ATOL

    def test_affine_in_noise(self):
        b = breidbart()
        for s in (KET_0, KET_1, KET_PLUS, KET_MINUS):
            clean = born(b, s, 0.0)
            for r in np.linspace(0.0, 1.0, 11):
                assert abs(born(b, s, r) - ((1.0 - r) * clean + r / 2.0)) <= ATOL


class TestBreidbart:
    def test_basis_is_built_once(self):
        # the same frozen basis on every call, rotated by -pi/8
        assert breidbart() is BREIDBART
        assert BREIDBART == basis_at_angle(-math.pi / 8)

    def test_basis_is_orthonormal(self):
        b = breidbart()
        assert abs(b.v0.overlap(b.v1)) <= ATOL
        assert abs(b.v0.overlap(b.v0) - 1.0) <= ATOL

    def test_zero_state_probability(self):
        expected = (2.0 + math.sqrt(2.0)) / 4.0
        assert abs(born(breidbart(), KET_0, 0.0) - expected) <= ATOL

    def test_plus_state_probability(self):
        expected = (2.0 - math.sqrt(2.0)) / 4.0
        assert abs(born(breidbart(), KET_PLUS, 0.0) - expected) <= ATOL

    def test_minus_state_probability(self):
        # direct two-vector arithmetic: <b0|-> = (cos + sin)(pi/8) / sqrt(2)
        amp = (math.cos(math.pi / 8) + math.sin(math.pi / 8)) * math.sqrt(0.5)
        assert abs(born(breidbart(), KET_MINUS, 0.0) - amp * amp) <= ATOL


class TestHelstrom:
    @pytest.mark.parametrize("r", (0.0, 0.5))
    def test_matches_dense_angle_scan(self, r):
        # the grid can only undershoot the true optimum
        best = scan_best_success(r)
        assert best <= helstrom_success(r) + 1e-12
        assert helstrom_success(r) - best <= 1e-8

    def test_fully_mixed_states_indistinguishable(self):
        assert helstrom_success(1.0) == 0.5

    def test_known_values(self):
        assert abs(helstrom_success(0.0) - (2.0 + math.sqrt(2.0)) / 4.0) <= ATOL
        assert abs(helstrom_success(0.5) - (0.5 + 0.5 / (2.0 * math.sqrt(2.0)))) <= ATOL

    def test_equals_breidbart_average_success(self):
        b = breidbart()
        for r in np.linspace(0.0, 1.0, 101):
            avg = 0.5 * (born(b, KET_0, r) + 1.0 - born(b, KET_PLUS, r))
            assert abs(helstrom_success(r) - avg) <= ATOL

    @pytest.mark.parametrize("r", (0.0, 0.25, 0.5))
    def test_no_basis_beats_it(self, r):
        rng = np.random.default_rng(7)
        for theta in rng.uniform(0.0, 2.0 * math.pi, size=1000):
            b = basis_at_angle(theta)
            avg = 0.5 * (born(b, KET_0, r) + 1.0 - born(b, KET_PLUS, r))
            assert avg <= helstrom_success(r) + 1e-12
