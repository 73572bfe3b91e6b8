import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from qbcsim.protocol import (
    MAX_N_PER_STATE,
    AcceptanceTest,
    ConditionalTable,
    Variant,
    binding_failure,
    binomial_window_probability,
    build_test,
    log_binomial_window,
    log_binomial_window_derivatives,
    commit_observable,
    counted_outcomes,
    honest_table,
    pass_factors,
    pass_probability,
)
from qbcsim.qcore import KET_MINUS, KET_PLUS, born

ATOL = 1e-12
TWO = Variant.TWO_STATE
FOUR = Variant.FOUR_STATE


def exact_window_sum(n: int, p: Fraction, lo: int, hi: int) -> Fraction:
    """Exact rational binomial window mass (independent oracle)."""
    return sum(
        Fraction(math.comb(n, k)) * p**k * (1 - p) ** (n - k) for k in range(lo, hi + 1)
    )


def fsum_window(n: int, p: float, lo: int, hi: int) -> float:
    """Scalar reference for the kernel: ``P(lo <= X <= hi)`` for
    ``X ~ Binomial(n, p)`` as the compensated sum (``math.fsum``) of every
    term ``exp(log C(n, k) + k log p + (n - k) log(1 - p))``."""
    lo, hi = max(lo, 0), min(hi, n)
    if lo > hi:
        return 0.0
    if p in (0.0, 1.0):
        return float(lo <= (0 if p == 0.0 else n) <= hi)
    lg, log_p, log_q = math.lgamma, math.log(p), math.log1p(-p)
    return min(1.0, math.fsum(
        math.exp(lg(n + 1) - lg(k + 1) - lg(n - k + 1) + k * log_p + (n - k) * log_q)
        for k in range(lo, hi + 1)
    ))


class TestHonestTable:
    def test_two_state_commit_zero_closed_form(self):
        for r in (0.0, 0.16, 0.5, 1.0):
            t = honest_table(TWO, 0, r)
            assert abs(t.prob("0", 0) - (1.0 - r / 2.0)) <= ATOL
            assert abs(t.prob("0", 1) - r / 2.0) <= ATOL
            assert abs(t.prob("+", 0) - 0.5) <= ATOL

    def test_two_state_commit_one_closed_form(self):
        t = honest_table(TWO, 1, 0.0)
        assert abs(t.prob("+", 1) - 1.0) <= ATOL
        assert abs(t.prob("0", 0) - 0.5) <= ATOL
        for r in (0.1, 0.4):
            t = honest_table(TWO, 1, r)
            assert abs(t.prob("+", 0) - r / 2.0) <= ATOL
            assert abs(t.prob("+", 1) - (1.0 - r / 2.0)) <= ATOL

    def test_four_state_commit_one_matches_born_oracle(self):
        r = 0.1
        t = honest_table(FOUR, 1, r)
        assert abs(t.prob("+", 1) - 0.95) <= ATOL
        assert abs(t.prob("-", 0) - 0.95) <= ATOL
        assert abs(t.prob("0", 0) - 0.5) <= ATOL
        # independent evaluation against the measurement projectors
        obs = commit_observable(1)
        assert abs(t.prob("-", 0) - born(obs, KET_MINUS, r)) == 0.0
        assert abs(t.prob("+", 0) - born(obs, KET_PLUS, r)) == 0.0

    @pytest.mark.parametrize("variant", (TWO, FOUR))
    @pytest.mark.parametrize("claimed", (0, 1))
    def test_rows_sum_to_one(self, variant, claimed):
        for r in np.linspace(0.0, 1.0, 21):
            t = honest_table(variant, claimed, r)
            for s in variant.states:
                assert abs(t.prob(s, 0) + t.prob(s, 1) - 1.0) <= ATOL

    def test_two_state_commit_symmetry(self):
        # p(j | |0>) under commit 0 equals p(1-j | |+>) under commit 1
        for r in np.linspace(0.0, 1.0, 11):
            t0 = honest_table(TWO, 0, r)
            t1 = honest_table(TWO, 1, r)
            for j in (0, 1):
                assert abs(t0.prob("0", j) - t1.prob("+", 1 - j)) <= ATOL

    def test_bad_commitment_rejected(self):
        with pytest.raises(ValueError):
            honest_table(TWO, 2, 0.1)


class TestConditionalTable:
    def test_rejects_out_of_range(self):
        for p in (1.2, -0.2, math.nan):
            with pytest.raises(ValueError, match="out of range for state '0'"):
                ConditionalTable(("0",), {"0": p})

    def test_rejects_missing_state(self):
        with pytest.raises(ValueError, match="missing entry for state '\\+'"):
            ConditionalTable(("0", "+"), {"0": 1.0})

    def test_outcome_one_is_the_complement(self):
        t = ConditionalTable(("0", "+"), {"0": 0.25, "+": 1.0})
        assert (t.prob("0", 0), t.prob("0", 1), t.prob("+", 0), t.prob("+", 1)) == (
            0.25, 0.75, 1.0, 0.0
        )
        with pytest.raises(KeyError):
            t.prob("0", 2)


class TestCountedOutcomes:
    def test_two_state_convention(self):
        assert counted_outcomes(TWO, 0) == {"0": 0, "+": 1}
        assert counted_outcomes(TWO, 1) == {"0": 1, "+": 1}

    def test_four_state_convention(self):
        assert counted_outcomes(FOUR, 0) == {"0": 0, "1": 1, "+": 0, "-": 0}
        assert counted_outcomes(FOUR, 1) == {"0": 0, "1": 1, "+": 1, "-": 0}

    @pytest.mark.parametrize("variant", (TWO, FOUR))
    @pytest.mark.parametrize("claimed", (0, 1))
    def test_deterministic_states_count_their_outcome(self, variant, claimed):
        # wherever the honest statistics are deterministic at r=0, the
        # tallied outcome is the deterministic one
        t = honest_table(variant, claimed, 0.0)
        counted = counted_outcomes(variant, claimed)
        for s in variant.states:
            if abs(t.prob(s, 0) - 0.5) > ATOL:
                assert t.prob(s, counted[s]) == 1.0


class TestBuildTest:
    def test_deterministic_state_window_degenerates(self):
        test = build_test(TWO, 0, 0.0, 50, 3.0)
        assert test.windows["0"] == (50, 50)

    def test_windows_at_small_noise(self):
        # mu = 48.75, sigma = sqrt(1.21875) for |0>; mu = 25, sigma = sqrt(12.5) for |+>
        test = build_test(TWO, 0, 0.05, 50, 3.0)
        assert test.windows["0"] == (46, 50)
        assert test.windows["+"] == (15, 35)

    def test_rejects_zero_particles(self):
        with pytest.raises(ValueError):
            build_test(TWO, 0, 0.1, 0, 3.0)

    def test_rejects_nonpositive_sigma_factor(self):
        with pytest.raises(ValueError):
            build_test(TWO, 0, 0.1, 50, 0.0)

    def test_particle_count_capped_before_any_sum(self):
        # built, never summed: the windows stay a few thousand counts wide
        assert build_test(TWO, 0, 0.1, MAX_N_PER_STATE, 3.0).n_per_state == MAX_N_PER_STATE
        with pytest.raises(ValueError, match="n_per_state"):
            build_test(TWO, 0, 0.1, MAX_N_PER_STATE + 1, 3.0)
        with pytest.raises(ValueError, match="n_per_state"):
            AcceptanceTest(MAX_N_PER_STATE + 1, {"0": (0, 10)}, {"0": 0})

    def test_rejects_a_non_integer_particle_count_by_name(self):
        for n in (50.0, math.nan, "50"):
            with pytest.raises(ValueError, match="^n_per_state must be an integer"):
                build_test(TWO, 0, 0.1, n, 3.0)
            with pytest.raises(ValueError, match="^n_per_state must be an integer"):
                AcceptanceTest(n, {"0": (0, 10)}, {"0": 0})
        test = build_test(TWO, 0, 0.1, np.int64(50), 3.0)
        assert type(test.n_per_state) is int
        assert test == build_test(TWO, 0, 0.1, 50, 3.0)

    def test_rejects_nan_sigma_factor(self):
        with pytest.raises(ValueError, match="sigma_factor"):
            build_test(TWO, 0, 0.1, 50, math.nan)

    def test_rejects_infinite_sigma_factor(self):
        with pytest.raises(ValueError, match="sigma_factor"):
            build_test(TWO, 0, 0.1, 50, math.inf)

    def test_huge_finite_sigma_factor_gives_full_windows(self):
        # sigma_factor * sigma overflows to inf; each bound is clamped first
        for variant in (TWO, FOUR):
            test = build_test(variant, 0, 0.1, 25, 1e308)
            assert set(test.windows.values()) == {(0, 25)}
        # a deterministic state has sigma 0, so its window stays a point
        assert build_test(TWO, 0, 0.0, 25, 1e308).windows["0"] == (25, 25)

    def test_windows_widen_with_sigma_factor(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            variant = TWO if rng.random() < 0.5 else FOUR
            claimed = int(rng.integers(0, 2))
            r = float(rng.uniform(0.0, 0.6))
            n = int(rng.integers(10, 200))
            t2 = build_test(variant, claimed, r, n, 2.0)
            t3 = build_test(variant, claimed, r, n, 3.0)
            t4 = build_test(variant, claimed, r, n, 4.0)
            for s in variant.states:
                assert t3.windows[s][0] <= t2.windows[s][0]
                assert t3.windows[s][1] >= t2.windows[s][1]
                assert t4.windows[s][0] <= t3.windows[s][0]
                assert t4.windows[s][1] >= t3.windows[s][1]

    def test_invalid_acceptance_test_rejected(self):
        with pytest.raises(ValueError):
            AcceptanceTest(10, {"0": (5, 11)}, {"0": 0})
        with pytest.raises(ValueError):
            AcceptanceTest(10, {"0": (6, 5)}, {"0": 0})
        with pytest.raises(ValueError, match=r"missing counted outcome for state '\+'"):
            AcceptanceTest(10, {"0": (0, 5), "+": (2, 8)}, {"0": 0})
        with pytest.raises(ValueError, match="at least one window"):
            AcceptanceTest(5, {}, {})

    def test_tallied_names_a_state_the_table_lacks(self):
        # a two-state table has no row for the four-state test's '1'
        with pytest.raises(ValueError, match=r"no row for window state '1'"):
            build_test(FOUR, 0, 0.1, 50).tallied(honest_table(TWO, 0, 0.1))

    def test_empty_window_is_an_input_error(self):
        # at n = 1 and r = 0.1 the '+' tally has mean 0.5 and sigma 0.5, so
        # no count lies within half a sigma of it
        with pytest.raises(ValueError, match=r"'\+'.*sigma_factor=0\.5.*n_per_state=1"):
            build_test(TWO, 0, 0.1, 1, 0.5)


class TestTallied:
    def test_reads_the_counted_outcome_of_each_state(self):
        for variant in (TWO, FOUR):
            # a distinct outcome-0 probability per state
            table = ConditionalTable(
                variant.states, {s: 0.1 + 0.2 * i for i, s in enumerate(variant.states)}
            )
            for claimed in (0, 1):
                test = build_test(variant, claimed, 0.1, 50, 3.0)
                counted = counted_outcomes(variant, claimed)
                tallied = test.tallied(table)
                assert list(tallied) == list(test.windows) == list(variant.states)
                for s in variant.states:
                    assert tallied[s] == table.prob(s, counted[s])

    def test_clips_an_ulp_outside_the_unit_interval(self):
        one_up = math.nextafter(1.0, 2.0)
        table = ConditionalTable(("0", "+"), {"0": one_up, "+": one_up})
        assert table.prob("+", 1) < 0.0
        # claim 0 of the two-state protocol tallies 0s for |0> and 1s for |+>
        tallied = build_test(TWO, 0, 0.1, 50, 3.0).tallied(table)
        assert tallied == {"0": 1.0, "+": 0.0}


class TestBinomialWindowProbability:
    def test_matches_exact_rational_sum(self):
        cases = [
            (10, Fraction(3, 10), 2, 5),
            (50, Fraction(1, 2), 15, 35),
            (50, Fraction(19, 20), 43, 50),
            (25, Fraction(1, 25), 0, 3),
        ]
        for n, p, lo, hi in cases:
            exact = float(exact_window_sum(n, p, lo, hi))
            got = binomial_window_probability(n, float(p), lo, hi)
            assert abs(got - exact) <= 1e-13

    def test_degenerate_probabilities(self):
        assert binomial_window_probability(10, 0.0, 0, 4) == 1.0
        assert binomial_window_probability(10, 0.0, 1, 10) == 0.0
        assert binomial_window_probability(10, 1.0, 4, 10) == 1.0
        assert binomial_window_probability(10, 1.0, 0, 9) == 0.0

    def test_empty_window(self):
        assert binomial_window_probability(10, 0.5, 7, 3) == 0.0

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValueError, match=r"probability must lie in \[0, 1\], got 1\.5"):
            binomial_window_probability(10, 1.5, 0, 5)

    def test_full_support_is_one(self):
        for n in (1, 17, 1000, 100_000):
            assert abs(binomial_window_probability(n, 0.3, 0, n) - 1.0) <= 1e-12

    def test_large_n_tail(self):
        # stable far beyond where naive factorials overflow
        n = 100_000
        got = binomial_window_probability(n, 0.5, n // 2 - 500, n // 2 + 500)
        # normal approximation: about 3.16 sigma on each side
        assert 0.99 < got < 1.0


class TestLogBinomialWindow:
    CASES = [(10, 2, 5), (50, 15, 35), (50, 43, 50), (25, 0, 3), (1000, 380, 620)]

    def test_matches_log_of_scalar_sum(self):
        rng = np.random.default_rng(41)
        p = np.concatenate([rng.uniform(0.0, 1.0, 200), [1e-9, 0.5, 1.0 - 1e-9]])
        for n, lo, hi in self.CASES:
            got = log_binomial_window(n, p, lo, hi)
            for pi, gi in zip(p.tolist(), got.tolist()):
                want = fsum_window(n, pi, lo, hi)
                if want > 1e-300:
                    assert abs(gi - math.log(want)) <= 1e-12

    def test_degenerate_probabilities_are_exact(self):
        p = np.array([0.0, 1.0])
        assert log_binomial_window(10, p, 0, 4).tolist() == [0.0, -math.inf]
        assert log_binomial_window(10, p, 1, 10).tolist() == [-math.inf, 0.0]
        assert log_binomial_window(10, p, 7, 3).tolist() == [-math.inf, -math.inf]

    def test_stays_finite_where_the_probability_underflows(self):
        got = float(log_binomial_window(5000, np.array(0.9), 0, 100))
        assert binomial_window_probability(5000, 0.9, 0, 100) == 0.0
        assert math.isfinite(got) and got < -700.0

    def test_block_size_does_not_change_values(self, monkeypatch):
        from qbcsim import protocol

        p = np.random.default_rng(43).uniform(0.0, 1.0, 37)
        for n, lo, hi in self.CASES:
            whole = log_binomial_window(n, p, lo, hi)
            monkeypatch.setattr(protocol, "_BLOCK", 7)
            blocked = log_binomial_window(n, p, lo, hi)
            monkeypatch.undo()
            assert np.allclose(blocked, whole, rtol=0.0, atol=1e-12)

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValueError):
            log_binomial_window(10, np.array([0.5, math.nan]), 0, 5)

    def test_stacked_windows_need_one_column_each(self):
        lo, hi = np.array([0, 2]), np.array([5, 7])
        assert log_binomial_window(10, np.full((3, 2), 0.5), lo, hi).shape == (3, 2)
        with pytest.raises(ValueError, match="one entry per window"):
            log_binomial_window(10, np.full(4, 0.5), lo, hi)

    def test_a_call_past_one_block_is_one_call_per_window(self):
        # the two-state start scan at n = 5000: 121 points x 2 windows x 213
        # counts of padded terms pass one block
        lo, hi = np.array(list(build_test(Variant.TWO_STATE, 0, 0.1, 5000).windows.values())).T
        p = np.random.default_rng(53).uniform(lo / 5000, hi / 5000, (121, 2))
        single = [log_binomial_window(5000, p[:, s], int(lo[s]), int(hi[s])) for s in range(2)]
        assert np.array_equal(log_binomial_window(5000, p, lo, hi), np.stack(single, axis=-1))

    def test_a_scalar_end_gives_one_window_per_entry_of_the_other(self):
        p, hi = np.full((2, 2), 0.5), np.array([5, 9])
        for kernel in (log_binomial_window, log_binomial_window_derivatives):
            got = kernel(10, p, 0, hi)
            for s, b in enumerate(hi.tolist()):
                want = kernel(10, p[:, s], 0, b)
                assert np.allclose(np.asarray(got)[..., s], want, rtol=1e-12, atol=0.0)
        want = [math.log(fsum_window(10, 0.5, 0, b)) for b in (5, 9)]
        assert np.allclose(log_binomial_window(10, p, 0, hi), [want, want], rtol=1e-12)

    def test_window_ends_that_disagree_are_rejected(self):
        for kernel in (log_binomial_window, log_binomial_window_derivatives):
            with pytest.raises(ValueError, match="^lo and hi must broadcast"):
                kernel(10, np.full((3, 2), 0.5), np.array([0, 2]), np.array([5, 6, 7]))
            # two windows, or one given as an array, for a single column of p
            for p, lo, hi in (
                (np.full((3, 1), 0.5), np.array([0, 2]), np.array([5])),
                (np.full(2, 0.5), 0, np.array([5])),
            ):
                with pytest.raises(ValueError, match="one entry per window"):
                    kernel(10, p, lo, hi)

    def test_rejects_a_bad_n_or_window_end_by_name(self):
        for args, name in (
            ((-3, 0.5, 0, 2), "n"),
            ((5.0, 0.5, 0, 2), "n"),
            ((5, 0.5, 2.0, 3), "lo"),
            ((5, 0.5, 2, 3.0), "hi"),
            ((10, np.full(2, 0.5), np.array([0, 2]), np.array([5.0, 7.0])), "hi"),
        ):
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                log_binomial_window(*args)
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                log_binomial_window_derivatives(*args)

    def test_numpy_integer_n_gives_the_int_results_bit_for_bit(self):
        # windows that end at n take the one-sided limits at p = 1; the
        # cache is cleared so that no int call has resolved them first
        from qbcsim import protocol

        p = np.array([[0.9, 1.0, 0.0], [1.0, 0.5, 1.0]])
        lo, hi = np.array([43, 0, 50]), np.array([50, 50, 50])
        for kernel in (log_binomial_window, log_binomial_window_derivatives):
            protocol._windows.cache_clear()
            got = np.array(kernel(np.int64(50), p, lo, hi))
            protocol._windows.cache_clear()
            want = np.array(kernel(50, p, lo, hi))
            assert got.tobytes() == want.tobytes()

    def test_rejects_n_above_the_cap_before_sizing_a_window(self, monkeypatch):
        from qbcsim import protocol

        monkeypatch.setattr(protocol, "MAX_N_PER_STATE", 20)
        assert binomial_window_probability(20, 0.5, 0, 20) == 1.0
        with pytest.raises(ValueError, match=r"^n must be an integer in \[0, 20\], got 21"):
            log_binomial_window(21, 0.5, 0, 21)

    def test_window_cache_is_bounded(self):
        # a long sweep resolves many window sets; the cache keeps at most 64
        from qbcsim import protocol

        for n in range(200_000, 200_100):
            log_binomial_window(n, 0.5, 0, 1)
        assert protocol._windows.cache_info().currsize <= 64


class TestLogBinomialWindowDerivativesNearTheEdges:
    def derivatives(self, n, p, lo, hi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return map(float, log_binomial_window_derivatives(n, np.array(p), lo, hi))

    @pytest.mark.parametrize(
        "n, lo, hi, p, d1_want",
        (
            # F ~ C(n, lo) p**lo, so d1 ~ lo/p and d2 ~ -lo/p**2, past the float range
            (180, 167, 167, 2.5e-232, 167 / 2.5e-232),
            # at a subnormal p, d1 is past the float range too
            (140, 13, 114, 2.2e-311, math.inf),
        ),
    )
    def test_overflowing_derivatives_are_their_limits(self, n, lo, hi, p, d1_want):
        log_f, d1, d2 = self.derivatives(n, p, lo, hi)
        assert math.isfinite(log_f)
        assert d1 == pytest.approx(d1_want, rel=1e-9)
        assert d2 == -math.inf

    def test_d2_stays_finite_where_only_its_terms_overflow(self):
        # F = p**n on the window [n, n]: d1 = n/p, d2 = -n/p**2, while d1**2
        # and the F''/F term are both past the float range
        n, p = 1000, 7e-152
        log_f, d1, d2 = self.derivatives(n, p, n, n)
        assert log_f == pytest.approx(n * math.log(p), rel=1e-12)
        assert d1 == pytest.approx(n / p, rel=1e-9)
        assert d2 == pytest.approx(-n / p / p, rel=1e-6)


class TestIncompleteBetaCrossCheck:
    """``P(lo <= X <= hi) = I_p(lo, n - lo + 1) - I_p(hi + 1, n - hi)`` for
    the regularised incomplete beta ``I``; only where SciPy is installed,
    as it is no dependency."""

    CASES = [
        (1, 0, 1), (1, 1, 1), (10, 0, 0), (10, 2, 5), (10, 10, 10), (50, 15, 35),
        (50, 43, 50), (25, 0, 3), (1000, 380, 620), (5000, 0, 4400), (5000, 4600, 5000),
    ]
    P = (1e-6, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-6)

    @staticmethod
    def betainc_window(n, p, lo, hi):
        betainc = pytest.importorskip("scipy.special").betainc
        # one tail each: upper tail from lo, lower tail up to hi
        upper = betainc(lo, n - lo + 1, p) if lo > 0 else 1.0
        lower = betainc(n - hi, hi + 1, 1.0 - p) if hi < n else 1.0
        if lo == 0 or hi == n:
            return min(upper, lower)
        return upper - betainc(hi + 1, n - hi, p)

    def test_scalar_sum(self):
        for n, lo, hi in self.CASES:
            for p in self.P:
                want = self.betainc_window(n, p, lo, hi)
                got = binomial_window_probability(n, p, lo, hi)
                assert abs(got - want) <= 1e-13 + 1e-9 * want, (n, lo, hi, p)

    def test_log_window(self):
        for n, lo, hi in self.CASES:
            got = np.exp(log_binomial_window(n, np.array(self.P), lo, hi))
            for p, g in zip(self.P, got.tolist()):
                want = self.betainc_window(n, p, lo, hi)
                assert abs(g - want) <= 1e-13 + 1e-9 * want, (n, lo, hi, p)

    def test_tails_match_to_relative_precision(self):
        # an open-ended window is one incomplete beta, with no cancellation
        for n, lo, hi in ((5000, 0, 4400), (5000, 4600, 5000), (200, 0, 5), (200, 190, 200)):
            for p in (0.05, 0.5, 0.95):
                want = self.betainc_window(n, p, lo, hi)
                if want > 1e-300:
                    got = float(np.exp(log_binomial_window(n, np.array(p), lo, hi)))
                    assert abs(got - want) <= 1e-9 * want, (n, lo, hi, p)


class TestPassProbability:
    def test_full_windows_accept_everything(self):
        windows = {s: (0, 50) for s in TWO.states}
        test = AcceptanceTest(50, windows, counted_outcomes(TWO, 0))
        assert pass_probability(test, honest_table(TWO, 1, 0.3)) == 1.0

    def test_honest_noiseless_value(self):
        # |0> factor is exactly 1; |+> factor is the exact 3-sigma mass
        test = build_test(TWO, 0, 0.0, 50, 3.0)
        got = pass_probability(test, honest_table(TWO, 0, 0.0))
        exact = float(exact_window_sum(50, Fraction(1, 2), 15, 35))
        assert abs(got - exact) <= 1e-13
        factors = pass_factors(test, honest_table(TWO, 0, 0.0))
        assert factors["0"] == 1.0
        assert abs(factors["+"] - 0.997) < 6e-4

    def test_cross_commitment_matches_monte_carlo(self):
        # Monte Carlo of an honest commit-1 party against the commit-0 test
        test = build_test(TWO, 0, 0.1, 50, 3.0)
        analytic = pass_probability(test, honest_table(TWO, 1, 0.1))
        rng = np.random.default_rng(11)
        trials = 1_000_000
        t1 = honest_table(TWO, 1, 0.1)
        c0 = rng.binomial(50, t1.prob("0", test.counted_outcome["0"]), size=trials)
        cp = rng.binomial(50, t1.prob("+", test.counted_outcome["+"]), size=trials)
        lo0, hi0 = test.windows["0"]
        lop, hip = test.windows["+"]
        ok = (c0 >= lo0) & (c0 <= hi0) & (cp >= lop) & (cp <= hip)
        rate = ok.mean()
        se = math.sqrt(max(analytic * (1.0 - analytic), 1e-12) / trials)
        assert abs(rate - analytic) <= 3.0 * se + 1e-9

    @pytest.mark.parametrize("variant", (TWO, FOUR))
    @pytest.mark.parametrize("claimed", (0, 1))
    @pytest.mark.parametrize("r", (0.0, 0.1, 0.2, 0.3))
    def test_honest_self_acceptance_stays_high(self, variant, claimed, r):
        # two-state stays above 0.99; the four-state product of four
        # near-0.997 factors bottoms out just below, at ~0.988
        for n in (25, 50, 100):
            test = build_test(variant, claimed, r, n, 3.0)
            p = pass_probability(test, honest_table(variant, claimed, r))
            floor = 0.99 if variant is TWO else 0.98
            assert p >= floor, (variant, claimed, r, n, p)

    def test_pass_probability_monotone_in_sigma_factor(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            variant = TWO if rng.random() < 0.5 else FOUR
            claimed = int(rng.integers(0, 2))
            r = float(rng.uniform(0.0, 0.6))
            n = int(rng.integers(10, 120))
            actual = honest_table(variant, 1 - claimed, r)
            values = [
                pass_probability(build_test(variant, claimed, r, n, k), actual)
                for k in (1.0, 2.0, 3.0, 4.0)
            ]
            for a, b in zip(values, values[1:]):
                assert b >= a - ATOL


class TestBindingFailure:
    def test_noiseless_is_negligible(self):
        assert binding_failure(TWO, 0.0, 50, 3.0) < 1e-6

    def test_full_noise_equals_self_acceptance(self):
        # at r=1 both commitments produce identical uniform statistics
        test = build_test(TWO, 0, 1.0, 50, 3.0)
        self_accept = pass_probability(test, honest_table(TWO, 0, 1.0))
        assert binding_failure(TWO, 1.0, 50, 3.0) == self_accept

    def test_grows_with_noise(self):
        assert binding_failure(TWO, 0.4, 50, 3.0) > binding_failure(TWO, 0.2, 50, 3.0)

    @pytest.mark.parametrize("r", (0.1, 0.2))
    def test_decreases_with_sample_size(self, r):
        values = [binding_failure(TWO, r, n, 3.0) for n in (25, 50, 100, 200)]
        for a, b in zip(values, values[1:]):
            assert b < a
