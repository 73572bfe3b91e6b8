import decimal
import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from qbcsim import attacks, protocol, strategy
from qbcsim.protocol import (
    STATE_VECTORS,
    ConditionalTable,
    Variant,
    build_test,
    honest_table,
    log_binomial_window_derivatives,
    log_pass_probabilities,
    pass_probability,
)
from qbcsim.qcore import basis_at_angle, born
from qbcsim.strategy import (
    BeamSplitter,
    BreidbartFlips,
    FlipParams,
    Honest,
    IdealMultiPhoton,
    LogObjective,
    OptimizationResult,
    apply_flips,
    breidbart_table,
    cheat_success,
    flip_axis,
    optimize,
    single_photon_share,
)

ATOL = 1e-12
TWO = Variant.TWO_STATE
FOUR = Variant.FOUR_STATE

C2 = (2.0 + math.sqrt(2.0)) / 4.0  # cos^2(pi/8)
S2 = (2.0 - math.sqrt(2.0)) / 4.0  # sin^2(pi/8)


def random_table(rng, states=("0", "+")) -> ConditionalTable:
    return ConditionalTable(tuple(states), {s: float(rng.uniform(0.0, 1.0)) for s in states})


class TestBreidbartTable:
    def test_two_state_closed_forms(self):
        r = 0.16
        t = breidbart_table(TWO, r)
        assert abs(t.prob("0", 0) - (r / 2.0 + C2 * (1.0 - r))) <= ATOL
        assert abs(t.prob("0", 0) - 0.796985) <= 5e-7
        assert abs(t.prob("+", 0) - (S2 + r * math.sqrt(2.0) / 4.0)) <= ATOL

    def test_fully_mixed_input(self):
        t = breidbart_table(TWO, 1.0)
        for s in TWO.states:
            for o in (0, 1):
                assert abs(t.prob(s, o) - 0.5) <= ATOL

    def test_four_state_rows(self):
        t = breidbart_table(FOUR, 0.0)
        assert abs(t.prob("1", 0) - S2) <= ATOL
        assert abs(t.prob("-", 0) - C2) <= ATOL

    def test_mirror_structure(self):
        # |1> and |+> rows mirror the |0> and |-> rows
        for r in (0.0, 0.2, 0.7):
            t = breidbart_table(FOUR, r)
            assert abs(t.prob("1", 0) - t.prob("0", 1)) <= ATOL
            assert abs(t.prob("+", 0) - t.prob("-", 1)) <= ATOL


class TestApplyFlips:
    def test_identity_kernel(self):
        t = breidbart_table(TWO, 0.3)
        out = apply_flips(t, FlipParams(0.0, 0.0))
        assert out.p_zero == t.p_zero

    def test_full_swap(self):
        t = breidbart_table(TWO, 0.3)
        out = apply_flips(t, FlipParams(1.0, 1.0))
        for s in TWO.states:
            assert abs(out.prob(s, 0) - t.prob(s, 1)) <= ATOL
            assert abs(out.prob(s, 1) - t.prob(s, 0)) <= ATOL

    def test_half_flip_arithmetic(self):
        t = ConditionalTable(("0",), {"0": C2})
        out = apply_flips(t, FlipParams(0.0, 0.5))
        assert abs(out.prob("0", 0) - (C2 + 0.5 * S2)) <= ATOL
        assert abs(out.prob("0", 0) - 0.926777) <= 5e-7

    def test_rows_stay_normalised(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            t = random_table(rng)
            f = FlipParams(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            out = apply_flips(t, f)
            for s in t.states:
                assert abs(out.prob(s, 0) + out.prob(s, 1) - 1.0) <= ATOL

    def test_identity_then_flip_equals_flip(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            t = random_table(rng)
            f = FlipParams(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            once = apply_flips(t, f)
            twice = apply_flips(apply_flips(t, FlipParams(0.0, 0.0)), f)
            assert twice.p_zero == once.p_zero

    def test_flip_params_validated(self):
        with pytest.raises(ValueError):
            FlipParams(-0.1, 0.5)
        with pytest.raises(ValueError):
            FlipParams(0.5, 1.1)


class TestCheatSuccess:
    def test_full_windows_give_certainty(self):
        # a huge sigma factor opens every window to [0, N]
        assert cheat_success(TWO, 0, 0.2, 50, 1e9, FlipParams(0.3, 0.3)) == 1.0

    def test_fully_mixed_equals_honest_acceptance(self):
        from qbcsim.protocol import honest_table

        test = build_test(TWO, 0, 1.0, 50, 3.0)
        honest = pass_probability(test, honest_table(TWO, 0, 1.0))
        for f in (FlipParams(0.0, 0.0), FlipParams(0.3, 0.3), FlipParams(1.0, 1.0)):
            assert abs(cheat_success(TWO, 0, 1.0, 50, 3.0, f) - honest) <= ATOL

    def test_noiseless_origin_matches_monte_carlo(self):
        analytic = cheat_success(TWO, 0, 0.0, 50, 3.0, FlipParams(0.0, 0.0))
        test = build_test(TWO, 0, 0.0, 50, 3.0)
        t = apply_flips(breidbart_table(TWO, 0.0), FlipParams(0.0, 0.0))
        rng = np.random.default_rng(2)
        trials = 1_000_000
        c0 = rng.binomial(50, t.prob("0", test.counted_outcome["0"]), size=trials)
        cp = rng.binomial(50, t.prob("+", test.counted_outcome["+"]), size=trials)
        lo0, hi0 = test.windows["0"]
        lop, hip = test.windows["+"]
        rate = ((c0 >= lo0) & (c0 <= hi0) & (cp >= lop) & (cp <= hip)).mean()
        se = math.sqrt(max(analytic * (1.0 - analytic), 1e-12) / trials)
        assert abs(rate - analytic) <= 3.0 * se + 1e-9

    def test_four_state_flip_swap_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            p, q = (float(x) for x in rng.uniform(0.0, 1.0, size=2))
            r = float(rng.uniform(0.0, 1.0))
            a = cheat_success(FOUR, 0, r, 25, 3.0, FlipParams(p, q))
            b = cheat_success(FOUR, 0, r, 25, 3.0, FlipParams(q, p))
            assert abs(a - b) <= ATOL


class TestOptimize:
    def test_result_invariants(self):
        res = optimize(TWO, 0, 0.1, 50, 3.0)
        assert isinstance(res, OptimizationResult)
        direct = cheat_success(TWO, 0, 0.1, 50, 3.0, res.best)
        assert abs(res.value - direct) <= ATOL
        # beats every point of the 0.01 grid, certified, in few evaluations
        axis = flip_axis(0.01)
        grid = LogObjective(TWO, 0, 0.1, 50, 3.0)(axis[:, None], axis)
        assert res.log_value >= grid.max() - ATOL
        assert res.gap <= ATOL
        assert res.evaluations < 1000

    def test_deterministic(self):
        a = optimize(TWO, 0, 0.1, 50, 3.0)
        b = optimize(TWO, 0, 0.1, 50, 3.0)
        assert a == b

    def test_beats_origin_and_random_candidates(self):
        res = optimize(TWO, 0, 0.1, 50, 3.0)
        assert res.value >= cheat_success(TWO, 0, 0.1, 50, 3.0, FlipParams(0.0, 0.0))
        rng = np.random.default_rng(13)
        for _ in range(1000):
            f = FlipParams(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            assert cheat_success(TWO, 0, 0.1, 50, 3.0, f) <= res.value + ATOL

    @pytest.mark.parametrize("r", (0.0, 0.25, 0.5))
    def test_two_state_optimum_sits_on_boundary(self, r):
        res = optimize(TWO, 0, r, 50, 3.0)
        assert res.best.p01 <= 0.01

    def test_two_state_reference_optimum(self):
        res = optimize(TWO, 0, 0.1, 50, 3.0)
        assert abs(res.best.p01 - 0.0) <= 0.01
        assert abs(res.best.p10 - 0.489663) <= 0.01

    def test_four_state_reference_optimum(self):
        res = optimize(FOUR, 0, 0.1, 50, 3.0)
        assert abs(res.best.p01 - 0.0658591) <= 0.01
        assert abs(res.best.p10 - 0.0658591) <= 0.01

    def test_multiphoton_objective_reference_optimum(self):
        res = optimize(TWO, 0, 0.1, 50, 3.0, objective=IdealMultiPhoton(0.2))
        assert abs(res.best.p01 - 0.0) <= 0.01
        assert abs(res.best.p10 - 0.492572) <= 0.01

    def test_multiphoton_objective_matches_public_path(self):
        res = optimize(TWO, 0, 0.1, 50, 3.0, objective=IdealMultiPhoton(0.2))
        direct = attacks.multiphoton_success(
            TWO, 0, 0.1, 50, 3.0, 0.2, res.best, attacks.MultiPhotonMode.IDEAL
        )
        assert res.value == direct

    def test_single_photon_objective_matches_public_path(self):
        res = optimize(FOUR, 0, 0.1, 25, 3.0)
        assert res.value == cheat_success(FOUR, 0, 0.1, 25, 3.0, res.best)

    def test_success_shrinks_with_sample_size(self):
        values = [
            optimize(TWO, 0, 0.1, m // 2, 3.0).value for m in (100, 200)
        ]
        assert values[1] < values[0]

    def test_step_limit_raises_naming_the_configuration(self, monkeypatch):
        monkeypatch.setattr(strategy, "_MAX_STEPS", 1)
        with pytest.raises(
            ValueError,
            match=r"two-state .*r=0\.1, n_per_state=50, .*"
            r"objective=BreidbartFlips\(flips=FlipParams\(p01=0\.0, p10=0\.0\)\)",
        ):
            optimize(TWO, 0, 0.1, 50, 3.0)

    def test_gives_up_when_no_halving_gains(self, monkeypatch):
        # an ascent gradient over a flat value: every one of the 40 halved
        # steps is rejected, and optimize returns the scan's start point
        def flat(self, p01, p10):
            return 0.0, (1.0, 1.0), ((-1.0, 0.0), (0.0, -1.0))

        monkeypatch.setattr(LogObjective, "derivatives", flat)
        axis = strategy._START
        values = LogObjective(TWO, 0, 0.1, 50, 3.0)(axis[:, None], axis)
        tied = values >= values.max() - strategy._TIE_LOG
        i, j = np.unravel_index(np.argmax(tied), values.shape)
        res = optimize(TWO, 0, 0.1, 50, 3.0)
        assert res.best == FlipParams(float(axis[i]), float(axis[j]))
        assert res.evaluations == axis.size**2 + 1 + 40
        assert res.gap > 0.0

    def test_numpy_integer_n_per_state_gives_the_int_result(self):
        # the |0> window [43, 50] ends at n; the cache is cleared so that no
        # int call has resolved it first
        protocol._windows.cache_clear()
        got = repr(optimize(TWO, 0, 0.1, np.int64(50), 3.0))
        protocol._windows.cache_clear()
        assert got == repr(optimize(TWO, 0, 0.1, 50, 3.0))

    @pytest.mark.parametrize("variant", (TWO, FOUR))
    def test_only_the_four_state_optimum_is_on_the_diagonal(self, variant):
        for r in (0.05, 0.1, 0.3):
            res = optimize(variant, 1, r, 100, 3.0, objective=IdealMultiPhoton(0.2))
            assert (res.best.p01 == res.best.p10) is (variant is FOUR)
            assert res.gap <= ATOL

    def test_multiphoton_mu_validated(self):
        with pytest.raises(ValueError):
            IdealMultiPhoton(0.0)

    def test_multiphoton_mu_rejects_nan(self):
        with pytest.raises(ValueError, match="mu"):
            IdealMultiPhoton(math.nan)

    def test_log_value_is_the_kernel_at_the_optimum(self):
        for objective in (BreidbartFlips(), IdealMultiPhoton(0.2)):
            res = optimize(FOUR, 0, 0.1, 50, 3.0, objective=objective)
            kernel = LogObjective(FOUR, 0, 0.1, 50, 3.0, objective)
            assert res.log_value == float(kernel(res.best.p01, res.best.p10))
            assert abs(res.log_value - math.log(res.value)) <= ATOL

    @pytest.mark.parametrize(
        "n, p_ref, log_ref", ((2500, 0.13, -1180.350), (5000, 0.14, -2490.185))
    )
    def test_four_state_large_n_optimum_does_not_underflow(self, n, p_ref, log_ref):
        res = optimize(FOUR, 0, 0.1, n, 3.0)
        assert res.value == 0.0  # the product underflows; the log does not
        assert res.best.p01 == res.best.p10
        assert abs(res.best.p01 - p_ref) <= 0.01
        assert abs(res.log_value - log_ref) <= 1e-3


class TestLogObjective:
    @pytest.mark.parametrize("variant", (TWO, FOUR))
    @pytest.mark.parametrize("mu", (None, 0.2))
    def test_matches_scalar_public_path(self, variant, mu):
        rng = np.random.default_rng(47)
        for r, n in ((0.0, 25), (0.1, 50), (0.3, 200), (0.16, 500)):
            p01, p10 = rng.uniform(0.0, 1.0, (2, 40))
            p01[:3], p10[:3] = (0.0, 1.0, 1.0), (0.0, 0.0, 1.0)
            objective = BreidbartFlips() if mu is None else IdealMultiPhoton(mu)
            got = LogObjective(variant, 0, r, n, 3.0, objective)(p01, p10)
            for x, y, g in zip(p01.tolist(), p10.tolist(), got.tolist()):
                f = FlipParams(x, y)
                if mu is None:
                    want = cheat_success(variant, 0, r, n, 3.0, f)
                else:
                    want = attacks.multiphoton_success(
                        variant, 0, r, n, 3.0, mu, f, attacks.MultiPhotonMode.IDEAL
                    )
                if want > 1e-300:
                    assert abs(g - math.log(want)) <= ATOL, (r, n, x, y)
                else:
                    assert g < math.log(1e-300) + 1e-9

    @pytest.mark.parametrize(
        "variant, claimed, r, n, objective, p01, p10",
        (
            (TWO, 0, 0.2, 9, BreidbartFlips(), 0.04, 0.89),
            (TWO, 1, 0.29, 143, BreidbartFlips(), 0.4, 0.03),
            (TWO, 0, 0.18, 177, IdealMultiPhoton(0.2), 0.0, 0.38),
            (FOUR, 0, 0.09, 28, BreidbartFlips(), 0.39, 0.66),
            (FOUR, 0, 0.17, 84, IdealMultiPhoton(0.2), 0.11, 0.63),
        ),
    )
    def test_one_pair_is_the_value_of_derivatives(self, variant, claimed, r, n, objective,
                                                  p01, p10):
        kernel = LogObjective(variant, claimed, r, n, 3.0, objective)
        assert float(kernel(p01, p10)) == kernel.derivatives(p01, p10)[0]

    PINS = pytest.mark.parametrize(
        "objective",
        (BreidbartFlips(), IdealMultiPhoton(0.2), IdealMultiPhoton(1e-9), IdealMultiPhoton(2.0)),
        ids=("breidbart", "ideal-0.2", "ideal-1e-9", "ideal-2"),
    )

    @PINS
    @pytest.mark.parametrize("n", (5, 50, 5000))
    @pytest.mark.parametrize("claimed", (0, 1))
    @pytest.mark.parametrize("variant", (TWO, FOUR))
    def test_coefficients_are_the_tallied_corner_tables(self, variant, claimed, n, objective):
        # the reference: the party's table() rebuilt at each corner
        for r in (0.0, 0.1, 0.37, 1.0):
            kernel = LogObjective(variant, claimed, r, n, 3.0, objective)
            corners = (
                kernel.test.tallied(
                    replace(objective, flips=FlipParams(x, y)).table(variant, claimed, r)
                )
                for x, y in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
            )
            c, t10, t01 = (np.array(list(t.values())) for t in corners)
            want = list(zip(c.tolist(), (t10 - c).tolist(), (t01 - c).tolist()))
            assert kernel.coefficients == want, r

    @PINS
    @pytest.mark.parametrize("n", (5, 50, 5000))
    @pytest.mark.parametrize("claimed", (0, 1))
    @pytest.mark.parametrize("variant", (TWO, FOUR))
    def test_derivatives_are_the_public_kernel(self, variant, claimed, n, objective):
        # the public kernel on the same clipped p, summed as derivatives() sums
        def dot(*columns):
            return sum(map(math.prod, zip(*columns)))

        for r in (0.0, 0.1, 0.37):
            kernel = LogObjective(variant, claimed, r, n, 3.0, objective)
            a, b = ([row[k] for row in kernel.coefficients] for k in (1, 2))
            for x, y in ((0.0, 0.0), (1.0, 1.0), (0.0, 0.49), (0.07, 0.07), (0.61, 0.23)):
                p = [min(max(c + a * x + b * y, 0.0), 1.0) for c, a, b in kernel.coefficients]
                log_f, d1, d2 = log_binomial_window_derivatives(
                    n, np.array(p), kernel.lo, kernel.hi
                )
                d1, d2 = d1.tolist(), d2.tolist()
                want = (float(log_f.sum()), dot(a, d1), dot(b, d1),
                        dot(a, d2, a), dot(a, d2, b), dot(a, d2, b), dot(b, d2, b))
                value, grad, hess = kernel.derivatives(x, y)
                got = (value, *grad, *hess[0], *hess[1])
                assert np.array_equal(got, want, equal_nan=True), (r, x, y)

    def test_derivatives_reject_flips_outside_unit_interval(self):
        kernel = LogObjective(TWO, 0, 0.1, 50, 3.0)
        for x, y in ((math.nan, 0.5), (0.5, 1.5), (-0.1, 0.0)):
            with pytest.raises(ValueError, match="flips must lie in"):
                kernel.derivatives(x, y)

    def test_broadcasts_and_keeps_shape(self):
        kernel = LogObjective(TWO, 1, 0.1, 50, 3.0)
        grid = kernel(np.linspace(0.0, 1.0, 3)[:, None], np.linspace(0.0, 1.0, 4))
        assert grid.shape == (3, 4)
        assert grid[1, 2] == kernel(0.5, 2.0 / 3.0)

    def test_block_size_does_not_change_values(self, monkeypatch):
        axis = flip_axis(0.05)
        p01, p10 = np.repeat(axis, axis.size), np.tile(axis, axis.size)
        kernel = LogObjective(FOUR, 0, 0.2, 100, 3.0)
        whole = kernel(p01, p10)
        # no window is wider than 64 counts here, so only the points regroup
        assert max(hi - lo + 1 for lo, hi in kernel.test.windows.values()) <= 64
        monkeypatch.setattr(protocol, "_BLOCK", 64)
        assert np.array_equal(kernel(p01, p10), whole)

    @pytest.mark.parametrize("variant", (TWO, FOUR))
    @pytest.mark.parametrize("step", (0.1, 0.01))
    def test_broadcast_grid_is_the_flat_grid(self, step, variant):
        # at 0.1 and n = 25 a stacked call fits in one kernel block; at 0.01
        # each window is summed alone
        axis = flip_axis(step)
        flat = np.repeat(axis, axis.size), np.tile(axis, axis.size)
        for claimed in (0, 1):
            for r in (0.0, 0.16):
                for n in (25, 2500):
                    for party in (BreidbartFlips(), IdealMultiPhoton(0.3)):
                        kernel = LogObjective(variant, claimed, r, n, 3.0, party)
                        got = kernel(axis[:, None], axis).ravel()
                        assert np.array_equal(got, kernel(*flat)), (claimed, r, n, party)

    def test_rejects_flips_outside_unit_interval(self):
        kernel = LogObjective(TWO, 0, 0.1, 50, 3.0)
        with pytest.raises(ValueError, match="p10"):
            kernel(np.array([0.1]), np.array([1.5]))
        with pytest.raises(ValueError, match="p01"):
            kernel(np.array([math.nan]), np.array([0.5]))


FLIPS = FlipParams(0.05, 0.45)
SCENARIO = attacks.DistanceScenario(r_distant=0.1, r_near=0.0)

#: Each strategy type, with the public value its ``table()`` must reproduce
#: as ``f(variant, claimed, r, n)`` at ``sigma_factor = 3``.
PARTIES = (
    (
        Honest(),
        lambda v, c, r, n: pass_probability(build_test(v, c, r, n), honest_table(v, c, r)),
    ),
    (BreidbartFlips(FLIPS), lambda v, c, r, n: cheat_success(v, c, r, n, 3.0, FLIPS)),
    (
        IdealMultiPhoton(0.2, FLIPS),
        lambda v, c, r, n: attacks.multiphoton_success(
            v, c, r, n, 3.0, 0.2, FLIPS, attacks.MultiPhotonMode.IDEAL
        ),
    ),
    (
        BeamSplitter(0.2),
        lambda v, c, r, n: attacks.multiphoton_success(
            v, c, r, n, 3.0, 0.2, FLIPS, attacks.MultiPhotonMode.BEAM_SPLITTER
        ),
    ),
    (
        attacks.FakedDistance(SCENARIO, 17.0, 0.2),
        # the scenario's noise levels set the table, whatever ``r`` is
        lambda v, c, r, n: pass_probability(
            build_test(v, c, r, n),
            attacks.FakedDistance(SCENARIO, 17.0, 0.2).table(v, c, 0.3),
        ),
    ),
)


class TestStrategyTable:
    @pytest.mark.parametrize("variant", (TWO, FOUR))
    @pytest.mark.parametrize(
        "party, public", PARTIES, ids=[type(party).__name__ for party, _ in PARTIES]
    )
    def test_pass_probability_equals_public_value(self, variant, party, public):
        for claimed in (0, 1):
            for r, n in ((0.1, 50), (0.2, 200)):
                test = build_test(variant, claimed, r, n)
                got = pass_probability(test, party.table(variant, claimed, r))
                assert got == public(variant, claimed, r, n), (claimed, r, n)

    @pytest.mark.parametrize("variant", (TWO, FOUR))
    @pytest.mark.parametrize(
        "objective", (BreidbartFlips(), IdealMultiPhoton(0.2)), ids=("single", "ideal")
    )
    def test_optimize_value_is_table_of_optimum(self, variant, objective):
        res = optimize(variant, 0, 0.1, 50, 3.0, objective=objective)
        table = replace(objective, flips=res.best).table(variant, 0, 0.1)
        assert res.value == pass_probability(build_test(variant, 0, 0.1, 50), table)

    def test_objectives_name_their_party(self):
        # the old objective names are the party types themselves
        assert strategy.SinglePhoton is BreidbartFlips
        assert strategy.MultiPhotonIdeal is IdealMultiPhoton
        assert BreidbartFlips() == BreidbartFlips(FlipParams(0.0, 0.0))
        assert IdealMultiPhoton(0.3) == IdealMultiPhoton(0.3, FlipParams(0.0, 0.0))

    @pytest.mark.parametrize("variant", (TWO, FOUR))
    def test_optimize_ignores_the_flips_the_party_was_built_with(self, variant):
        for party in (BreidbartFlips, lambda f: IdealMultiPhoton(0.2, f)):
            res = optimize(variant, 0, 0.1, 50, 3.0, objective=party(FLIPS))
            assert res == optimize(variant, 0, 0.1, 50, 3.0, objective=party(FlipParams(0, 0)))

    @pytest.mark.parametrize(
        "party",
        (Honest(), BeamSplitter(0.2), attacks.FakedDistance(SCENARIO, 20.0, 0.2)),
        ids=("honest", "beam-splitter", "faked"),
    )
    def test_optimize_needs_a_party_with_flips(self, party):
        with pytest.raises(TypeError, match="flips"):
            optimize(TWO, 0, 0.1, 50, 3.0, objective=party)


def decimal_share(mu: float) -> float:
    """``mu*exp(-mu) / (1 - exp(-mu))`` evaluated at 700 decimal digits, so
    that the subtraction keeps 400 of them even at ``mu = 1e-300``."""
    with decimal.localcontext() as ctx:
        ctx.prec = 700
        m = decimal.Decimal(mu)
        e = (-m).exp()
        return float(m * e / (1 - e))


class TestPhotonWeights:
    @pytest.mark.parametrize("mu", (1e-3, 0.1, 0.2, 0.5, 1.0, 3.0, 20.0))
    def test_weights_partition_the_non_empty_pulses(self, mu):
        share = single_photon_share(mu)
        assert share == mu * math.exp(-mu) / -math.expm1(-mu)
        assert 0.0 < share < 1.0
        assert abs(share - mu * math.exp(-mu) / (1.0 - math.exp(-mu))) <= ATOL

    @pytest.mark.parametrize("mu", (5e-324, 1e-17, 1e-12, 1e-9, 1e-6, 9.99e-4))
    def test_weights_of_a_faint_source_keep_their_digits(self, mu):
        # 1 - exp(-mu) cancels here; the multi-photon share is about mu/2
        share = single_photon_share(mu)
        assert 0.0 < share <= 1.0
        assert abs((1.0 - share) - mu / 2.0) <= 1e-15 + mu * mu

    def test_share_matches_a_700_digit_evaluation(self):
        # within 5e-16 relative on both sides of mu = 1e-3, where a
        # 1 - exp(-mu) denominator loses up to 5.4e-14
        for mu in np.geomspace(1e-300, 700.0, 1500).tolist():
            want = decimal_share(mu)
            assert abs(single_photon_share(mu) - want) <= 5e-16 * want, mu

    def test_share_of_the_faintest_source_is_one(self):
        assert single_photon_share(5e-324) == 1.0

    @pytest.mark.parametrize("mu", (710.0, 746.0, 1e300))
    def test_share_of_a_bright_source_does_not_overflow(self, mu):
        # mu / expm1(mu) is the same number, but expm1 overflows above 709.78
        share = single_photon_share(mu)
        assert isinstance(share, float) and 0.0 <= share <= 1.0

    @pytest.mark.parametrize("mu", (1e-17, 1e-12))
    def test_faint_source_tables_are_valid(self, mu):
        # all flips to 1 leave only the multi-photon share on outcome 0 of |0>
        table = IdealMultiPhoton(mu, FlipParams(1.0, 0.0)).table(TWO, 0, 0.0)
        assert 0.0 <= table.prob("0", 0) <= mu
        # a single photon lands on the wrong observable half the time
        assert abs(BeamSplitter(mu).table(TWO, 0, 0.0).prob("0", 0) - 0.75) <= mu

    def test_beam_splitter_weight_is_bit_equal_to_closed_form(self):
        # quartering is exact, so the flip probability is the closed form's
        for mu in np.linspace(0.01, 20.0, 400).tolist():
            w = mu * math.exp(-mu) / (4.0 * -math.expm1(-mu))
            assert single_photon_share(mu) / 4.0 == w, mu
            want = apply_flips(honest_table(TWO, 0, 0.1), FlipParams(w, w))
            assert BeamSplitter(mu).table(TWO, 0, 0.1) == want, mu


@dataclass(frozen=True)
class RotatedFlips:
    """Measure every particle in the basis ``theta`` radians from the
    computational one, then flip outcomes as :class:`BreidbartFlips` does,
    which is this party at ``theta = -pi/8``.  It has only ``table`` and
    ``flips``, and its table is affine in the flips, so :func:`optimize`
    tunes it as it is."""

    theta: float
    flips: FlipParams = FlipParams(0.0, 0.0)

    def table(self, variant: Variant, claimed: int, r: float) -> ConditionalTable:
        basis = basis_at_angle(self.theta)
        p_zero = {s: born(basis, STATE_VECTORS[s], r) for s in variant.states}
        return apply_flips(ConditionalTable(variant.states, p_zero), self.flips)


class TestPaperClaims:
    """The abstract's two measurement claims: (a) inferring the states with
    the Breidbart basis is not by itself an optimal cheat, as flipping its
    outcomes does better; (b) no other projective basis does better than
    Breidbart's once its flips are tuned too.  Measurements with three or
    more outcomes, coarse-grained differently for each bit, are another
    attack family, which neither claim covers."""

    #: log10 of the two-state pass probability at n = 50, direct and optimised
    TWO_STATE_MARGINS = {0.0: (-5.815, -1.399), 0.1: (-2.078, -0.054), 0.2: (-1.188, -0.012)}

    @pytest.mark.parametrize("r", (0.0, 0.1, 0.2))
    @pytest.mark.parametrize("claimed", (0, 1))
    @pytest.mark.parametrize("variant, n", ((TWO, 50), (FOUR, 25)), ids=("two", "four"))
    def test_flips_beat_the_direct_breidbart_attack(self, variant, n, claimed, r):
        test = build_test(variant, claimed, r, n, 3.0)
        direct = log_pass_probabilities([(test, BreidbartFlips().table(variant, claimed, r))])[0]
        best = optimize(variant, claimed, r, n, 3.0).log_value
        assert best >= direct - 1e-12
        if variant is TWO:
            # the gain is large here; for the four-state protocol it is small
            # or, at r = 0, none
            want = self.TWO_STATE_MARGINS[r]
            got = (direct / math.log(10.0), best / math.log(10.0))
            assert all(abs(g - w) <= 5e-4 for g, w in zip(got, want)), got

    @staticmethod
    def score(variant, r, n, degrees):
        # the cheater must be able to open either bit
        party = RotatedFlips(math.radians(degrees))
        return min(optimize(variant, c, r, n, 3.0, objective=party).log_value for c in (0, 1))

    @pytest.mark.parametrize(
        "variant, r, n",
        ((TWO, 0.1, 50), (TWO, 0.2, 25), (FOUR, 0.1, 50), (FOUR, 0.2, 25)),
        ids=("two-0.1-50", "two-0.2-25", "four-0.1-50", "four-0.2-25"),
    )
    def test_no_rotated_basis_beats_breidbart(self, variant, r, n):
        breidbart = self.score(variant, r, n, -22.5)
        angles = [5.0 * k for k in range(-18, 18)]
        angles += [a + d for a in (-22.5, -67.5) for d in (-1.0, -0.1, 0.1, 1.0)]
        for degrees in angles:
            assert self.score(variant, r, n, degrees) <= breidbart + 1e-12, degrees
        # -67.5 degrees mirrors Breidbart's basis in the |+> axis, which swaps
        # |0> and |1>: a tie where the sent states are that mirror's own
        if variant is FOUR:
            assert abs(self.score(variant, r, n, -67.5) - breidbart) <= 1e-12

    @pytest.mark.parametrize("r, n", ((0.1, 25), (0.1, 50), (0.2, 25), (0.2, 50)))
    def test_rotated_four_state_optimum_lies_on_the_diagonal(self, r, n):
        # optimize searches the four-state flips on p01 = p10 alone, which is
        # exact only if the objective is swap-symmetric for every basis
        axis = flip_axis(0.05)
        for degrees in range(-90, 91, 15):
            party = RotatedFlips(math.radians(degrees))
            for claimed in (0, 1):
                grid = LogObjective(FOUR, claimed, r, n, 3.0, party)(axis[:, None], axis)
                np.testing.assert_allclose(grid, grid.T, rtol=0.0, atol=1e-10)
                best = optimize(FOUR, claimed, r, n, 3.0, objective=party).log_value
                assert grid.max() <= best + 1e-9, (degrees, claimed)
