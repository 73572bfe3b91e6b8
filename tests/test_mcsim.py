import dataclasses
import hashlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbcsim import mcsim, protocol
from qbcsim.attacks import (
    DistanceScenario,
    MultiPhotonMode,
    multiphoton_success,
)
from qbcsim.protocol import (
    Variant,
    build_test,
    honest_table,
    log_binomial_window,
    pass_probability,
)
from qbcsim.strategy import FlipParams, cheat_success, single_photon_share

TWO = Variant.TWO_STATE
FOUR = Variant.FOUR_STATE


def config(**overrides) -> mcsim.TrialConfig:
    base = dict(
        variant=TWO,
        claimed=0,
        r=0.1,
        n_per_state=50,
        sigma_factor=3.0,
        strategy=mcsim.Honest(),
        trials=100_000,
        seed=0,
    )
    base.update(overrides)
    return mcsim.TrialConfig(**base)


def assert_within_3se(report: mcsim.TrialReport, analytic: float) -> None:
    se = math.sqrt(max(analytic * (1.0 - analytic), 1e-12) / report.trials)
    assert abs(report.accept_rate - analytic) <= 3.0 * se, (
        report.accept_rate,
        analytic,
        se,
    )


class TestReproducibility:
    @pytest.mark.parametrize(
        "strategy",
        (
            mcsim.Honest(),
            mcsim.BreidbartFlips(FlipParams(0.1, 0.45)),
            mcsim.BeamSplitter(0.2),
            mcsim.IdealMultiPhoton(0.2, FlipParams(0.0, 0.49)),
        ),
    )
    def test_same_seed_bitwise_identical(self, strategy):
        a = mcsim.run(config(strategy=strategy, trials=20_000, seed=123))
        b = mcsim.run(config(strategy=strategy, trials=20_000, seed=123))
        assert a.accept_rate == b.accept_rate
        assert a.standard_error == b.standard_error
        for s in TWO.states:
            assert np.array_equal(
                a.per_state_count_histograms[s], b.per_state_count_histograms[s]
            )

    def test_different_seeds_differ(self):
        a = mcsim.run(config(trials=20_000, seed=1))
        b = mcsim.run(config(trials=20_000, seed=2))
        assert a.accept_rate != b.accept_rate


class TestReports:
    def test_histogram_totals_equal_trials(self):
        report = mcsim.run(config(variant=FOUR, n_per_state=25, trials=30_000))
        assert set(report.per_state_count_histograms) == set(FOUR.states)
        for s in FOUR.states:
            hist = report.per_state_count_histograms[s]
            assert hist.sum() == report.trials
            assert len(hist) == 26

    def test_standard_error_formula(self):
        report = mcsim.run(config(trials=30_000))
        p = report.accept_rate
        assert report.standard_error == math.sqrt(p * (1.0 - p) / report.trials)

    @pytest.mark.parametrize("variant", (TWO, FOUR), ids=("two", "four"))
    @pytest.mark.parametrize("sigma_factor", (1e9, 1e308))
    def test_full_windows_always_accept(self, variant, sigma_factor):
        # 1e308 sigma overflows to the full window 0..n
        report = mcsim.run(config(variant=variant, sigma_factor=sigma_factor,
                                  strategy=mcsim.BreidbartFlips(FlipParams(0.0, 0.0))))
        assert report.accept_rate == 1.0

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            config(trials=0)

    def test_seed_validated_by_name(self):
        assert config(seed=0).seed == 0
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            config(seed=-1)

    @pytest.mark.parametrize(
        "name, value", (("trials", math.nan), ("trials", 1e3), ("seed", 0.5), ("seed", math.nan))
    )
    def test_counts_must_be_integers(self, name, value):
        # NaN passes every range comparison; a float fails only inside run
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            config(**{name: value})

    def test_trials_capped_before_sampling(self):
        assert config(trials=mcsim.MAX_TRIALS).trials == mcsim.MAX_TRIALS
        with pytest.raises(ValueError, match="trials"):
            config(trials=mcsim.MAX_TRIALS + 1)

    @pytest.mark.parametrize(
        "make",
        (
            lambda mu: mcsim.BeamSplitter(mu),
            lambda mu: mcsim.IdealMultiPhoton(mu, FlipParams(0.0, 0.0)),
        ),
        ids=("beam-splitter", "ideal"),
    )
    @pytest.mark.parametrize("mu", (math.nan, 0.0, -1.0))
    def test_photon_source_mu_validated(self, make, mu):
        with pytest.raises(ValueError, match="mu must be positive"):
            make(mu)


STRATEGIES = (
    mcsim.Honest(),
    mcsim.BreidbartFlips(FlipParams(0.1, 0.45)),
    mcsim.BeamSplitter(0.2),
    mcsim.IdealMultiPhoton(0.2, FlipParams(0.0, 0.49)),
    mcsim.FakedDistance(DistanceScenario(r_distant=0.1, r_near=0.0), 17.0, 0.2),
)


def tallied_probs(cfg: mcsim.TrialConfig, party=None) -> dict[str, float]:
    """Per sent state, the probability ``party`` (by default the
    configured one) gives the tallied outcome."""
    party = cfg.strategy if party is None else party
    test = build_test(cfg.variant, cfg.claimed, cfg.r, cfg.n_per_state, cfg.sigma_factor)
    return test.tallied(party.table(cfg.variant, cfg.claimed, cfg.r))


def single_stream(cfg: mcsim.TrialConfig, draw) -> mcsim.TrialReport:
    """The report of ``cfg`` sampled trial by trial from one ``Philox(seed)``
    stream; ``draw(rng, state, size)`` gives the tallied counts of one sent
    state, the states are drawn in order, and a trial is accepted when
    every count lies in its window.  Philox is not the generator of
    ``mcsim.run``, so this reference draws from an independent stream."""
    test = build_test(cfg.variant, cfg.claimed, cfg.r, cfg.n_per_state, cfg.sigma_factor)
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    accept = np.ones(cfg.trials, dtype=bool)
    histograms = {}
    for s in cfg.variant.states:
        counts = draw(rng, s, cfg.trials)
        lo, hi = test.windows[s]
        accept &= (counts >= lo) & (counts <= hi)
        histograms[s] = np.bincount(counts, minlength=cfg.n_per_state + 1)
    rate = np.count_nonzero(accept) / cfg.trials
    se = math.sqrt(rate * (1.0 - rate) / cfg.trials)
    return mcsim.TrialReport(rate, se, cfg.trials, histograms)


def binomial_draw(cfg: mcsim.TrialConfig):
    """One ``Generator.binomial`` count per sent state and trial."""
    p = tallied_probs(cfg)

    def draw(rng, s, size):
        return rng.binomial(cfg.n_per_state, p[s], size=size)

    return draw


def inversion_report(cfg: mcsim.TrialConfig) -> mcsim.TrialReport:
    """The report of ``cfg`` from one ``SFC64(seed)`` stream: each sent
    state's histogram of the plain inversions ``a + searchsorted(C, u,
    "right")`` of one ``Generator.random`` call, the states in order, then
    the accepted count by the hypergeometric chain over the window masses."""
    test = build_test(cfg.variant, cfg.claimed, cfg.r, cfg.n_per_state, cfg.sigma_factor)
    p = tallied_probs(cfg)
    rng = np.random.Generator(np.random.SFC64(cfg.seed))
    histograms = {}
    for s in cfg.variant.states:
        a, cdf = mcsim._binomial_cdf(cfg.n_per_state, p[s])
        counts = np.searchsorted(cdf, rng.random(cfg.trials), "right") + a
        histograms[s] = np.bincount(counts, minlength=cfg.n_per_state + 1)
    accepted = cfg.trials
    for s in cfg.variant.states:
        lo, hi = test.windows[s]
        accepted = mcsim._overlap(rng, accepted, int(histograms[s][lo:hi + 1].sum()), cfg.trials)
    rate = accepted / cfg.trials
    se = math.sqrt(rate * (1.0 - rate) / cfg.trials)
    return mcsim.TrialReport(rate, se, cfg.trials, histograms)


def assert_same_report(report: mcsim.TrialReport, want: mcsim.TrialReport) -> None:
    assert report.accept_rate == want.accept_rate
    assert report.standard_error == want.standard_error
    assert list(report.per_state_count_histograms) == list(want.per_state_count_histograms)
    for s, hist in want.per_state_count_histograms.items():
        assert np.array_equal(report.per_state_count_histograms[s], hist), s


def photon_number_draw(cfg: mcsim.TrialConfig):
    """The photon-number route for the two photon sources: first how many
    of the ``n`` tallied particles came from single-photon pulses, then
    their outcomes and the multi-photon ones separately."""
    party, n = cfg.strategy, cfg.n_per_state
    p_honest = tallied_probs(cfg, mcsim.Honest())
    w_single = single_photon_share(party.mu)  # P(one photon | at least one)
    if isinstance(party, mcsim.IdealMultiPhoton):
        p_flip = tallied_probs(cfg, mcsim.BreidbartFlips(party.flips))

        def draw_ideal(rng, s, size):
            n_single = rng.binomial(n, w_single, size=size)
            return rng.binomial(n_single, p_flip[s]) + rng.binomial(n - n_single, p_honest[s])

        return draw_ideal

    def draw_split(rng, s, size):
        n_single = rng.binomial(n, w_single, size=size)
        n_wrong = rng.binomial(n_single, 0.5)
        return (
            rng.binomial(n - n_single, p_honest[s])
            + rng.binomial(n_single - n_wrong, p_honest[s])
            + rng.binomial(n_wrong, 0.5)
        )

    return draw_split


class TestSampler:
    @pytest.mark.parametrize("variant", (TWO, FOUR), ids=("two", "four"))
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: type(s).__name__)
    def test_one_inversion_per_draw_on_one_stream(self, strategy, variant):
        # 19 blocks per state, the last one 5,089 draws long
        cfg = config(variant=variant, strategy=strategy, trials=300_001, seed=5)
        assert_same_report(mcsim.run(cfg), inversion_report(cfg))

    def test_block_size_leaves_the_report_unchanged(self, monkeypatch):
        # 401 blocks per state, the last one a single draw: the report is
        # the one of three blocks per state
        cfg = config(trials=40_001, seed=11)
        want = mcsim.run(cfg)
        monkeypatch.setattr(mcsim, "_BLOCK", 100)
        assert_same_report(mcsim.run(cfg), want)

    @pytest.mark.parametrize("r", (0.1, 0.0), ids=("wide-supports", "one-point-mass"))
    def test_memory_is_bounded_by_the_totals(self, r):
        # each block of draws is tallied into its state's totals as it is
        # drawn, and the accepted count is drawn from the histograms, so a
        # run holds its n + 1 totals, a _CELLS-entry cell table and tally
        # per state and one block's scratch, and nothing per trial: the
        # peak does not grow with trials (one bool flag per trial of the
        # longer run would be 320 KB); at r = 0 state "0" has p = 1, a
        # support of one count
        cfg = config(r=r, n_per_state=10**6)
        mcsim.run(dataclasses.replace(cfg, trials=1))  # fill the test's caches
        peaks = []
        for trials in (2 * mcsim._BLOCK + 1, 20 * mcsim._BLOCK + 1):
            tracemalloc.start()
            try:
                report = mcsim.run(dataclasses.replace(cfg, trials=trials))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            for hist in report.per_state_count_histograms.values():
                assert hist.sum() == trials
        totals = len(TWO.states) * (cfg.n_per_state + 1) * 8
        assert peaks[0] <= totals + 2 * 2**20, (peaks, totals)
        assert peaks[1] <= peaks[0] + 32 * 2**10, peaks

    def test_cli_mc_loads_no_executor(self):
        # a run draws from one stream on the calling thread, so mc imports
        # no thread or process pool
        src = os.path.dirname(os.path.dirname(os.path.abspath(mcsim.__file__)))
        code = (
            "import sys, qbcsim.cli\n"
            "qbcsim.cli.main(['mc', '--strategy', 'ideal', '--r', '0.1', '--m', '100',\n"
            "                 '--mu', '0.2', '--p01', '0', '--p10', '0.4926'])\n"
            "print('concurrent.futures' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60, check=True,
        )
        lines = out.stdout.splitlines()
        assert lines[0].startswith("strategy,") and len(lines) == 3
        assert lines[-1] == "False"


SAMPLER_PS = (0.0, 5e-324, 1e-300, 1e-12, 0.05, math.nextafter(0.5, 0.0), 0.5,
              math.nextafter(0.5, 1.0), 0.95, 1.0 - 1e-12, 1.0 - 2.0**-53, 1.0)
SUPPORT_PS = (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.5, 0.95, 1.0 - 1e-3, 1.0 - 1e-6,
              1.0 - 1e-12, 1.0)


def exact_cdf(n: int, p: float) -> list[Fraction]:
    """``P(X <= k)`` for ``k = 0..n``, ``X ~ Binomial(n, p)``, in exact
    arithmetic on the float ``p``."""
    p = Fraction(p)
    terms = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
    return list(itertools.accumulate(terms))


class TestInversionTable:
    @pytest.mark.parametrize("p", (0.0, 1e-12, 0.05, 0.123456789, 0.3, math.nextafter(0.5, 0.0),
                                   0.5, 0.7, 0.95, 1.0 - 1e-12, 1.0 - 2.0**-53, 1.0))
    def test_cdf_matches_exact_sums(self, p):
        # within 1e-15 of the exact CDF at every count, the counts outside
        # the support included (0 below it, 1 above it)
        for n in (1, 2, 3, 4, 5, 7, 10, 13, 20, 25, 31, 40, 50, 59, 60):
            a, cdf = mcsim._binomial_cdf(n, p)
            assert cdf[-1] == 1.0 and np.all(cdf[:-1] <= cdf[1:])
            full = np.concatenate((np.zeros(a), cdf, np.ones(n + 1 - a - len(cdf))))
            for k, want in enumerate(exact_cdf(n, p)):
                assert abs(Fraction(float(full[k])) - want) <= 1e-15, (n, k)

    @pytest.mark.parametrize("n", (1, 2, 5, 12, 13, 25, 50, 61, 400, 10**4, 10**6))
    def test_support_leaves_out_less_than_2_to_the_minus_53(self, n):
        # the mass of both tails outside the support, summed in the log
        # domain by the analytic kernel, is below 2**-53; at n = 10**6 each
        # tail costs about 0.3 s, so only four p are summed there
        ps = SUPPORT_PS if n < 10**6 else (1e-12, 1e-6, 0.05, 0.5)
        try:
            for p in ps:
                a, cdf = mcsim._binomial_cdf(n, p)
                b = a + len(cdf) - 1
                assert 0 <= a <= b <= n
                tails = np.logaddexp(log_binomial_window(n, p, 0, a - 1),
                                     log_binomial_window(n, p, b + 1, n))
                assert tails < -53 * math.log(2.0), (p, a, b, tails)
        finally:
            # the n = 10**6 windows are megabytes each
            protocol._windows.cache_clear()

    @pytest.mark.parametrize("n", (1, 2, 25, 50, 61, 600, 10**6))
    @pytest.mark.parametrize("p", SAMPLER_PS)
    def test_clean_cells_hold_the_count_of_every_uniform(self, p, n):
        # a cell is clean where its least and its greatest uniform, and so
        # every uniform between, have one count, its first, and crossed
        # elsewhere
        state = mcsim._StateDraws(n, p)
        cell = np.arange(mcsim._CELLS)
        least = np.searchsorted(state.cdf, cell / mcsim._CELLS, "right")
        greatest = np.searchsorted(state.cdf, (cell + 1) / mcsim._CELLS - 2.0**-53, "right")
        assert np.array_equal(state.crossed, least != greatest)
        assert np.array_equal(state.first, least)

    @pytest.mark.parametrize("n", (1, 2, 25, 50, 61, 600, 10**6))
    @pytest.mark.parametrize("p", SAMPLER_PS)
    def test_crossed_cells_are_those_holding_a_cdf_value(self, p, n):
        # cell c is crossed where some C_k lies strictly inside
        # [c, c + 1) / _CELLS; C_k * _CELLS is exact, so a C_k on a cell's
        # edge (0 and 1 among them) crosses no cell
        state = mcsim._StateDraws(n, p)
        scaled = state.cdf * mcsim._CELLS
        crossed = np.zeros(mcsim._CELLS, dtype=bool)
        crossed[np.floor(scaled[scaled % 1.0 != 0.0]).astype(np.intp)] = True
        assert np.array_equal(state.crossed, crossed)
        assert np.count_nonzero(crossed) < len(state.cdf)

    @pytest.mark.parametrize("variant", (TWO, FOUR), ids=("two", "four"))
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: type(s).__name__)
    def test_looking_up_every_draw_gives_the_same_reports(self, strategy, variant, monkeypatch):
        # with every cell marked crossed, each draw is looked up with
        # searchsorted and nothing is folded, and the report is unchanged
        cfg = config(variant=variant, strategy=strategy, trials=20_000, seed=13)
        want = mcsim.run(cfg)
        init = mcsim._StateDraws.__init__

        def every_cell_crossed(self, *args):
            init(self, *args)
            self.crossed.fill(True)

        monkeypatch.setattr(mcsim._StateDraws, "__init__", every_cell_crossed)
        assert_same_report(mcsim.run(cfg), want)

    @pytest.mark.parametrize("n", (1, 2, 25, 50, 61, 600, 10**6))
    @pytest.mark.parametrize("p", SAMPLER_PS)
    @pytest.mark.parametrize("seed, size", ((0, 1), (3, 20_001), (7, 131_072)))
    def test_blocks_equal_plain_inversion(self, p, n, seed, size):
        # the blocks' folded histogram is that of the inverse-CDF counts of
        # Generator.random's uniforms on a twin stream, and both streams
        # move as far
        bits = np.random.SFC64(seed)
        reference = np.random.Generator(np.random.SFC64(seed))
        state = mcsim._StateDraws(n, p)
        for start in range(0, size, mcsim._BLOCK):
            state.block(bits.random_raw(min(mcsim._BLOCK, size - start)))
        a, cdf = mcsim._binomial_cdf(n, p)
        want = np.searchsorted(cdf, reference.random(size), "right") + a
        assert np.array_equal(state.histogram(), np.bincount(want, minlength=n + 1))
        assert bits.random_raw() == reference.bit_generator.random_raw()

    @pytest.mark.parametrize("seed", (0, 3, 7, 2**63, 2**64 - 1))
    def test_raw_words_give_the_uniforms_and_their_cells(self, seed):
        # the NumPy contract the blocks rest on: Generator.random turns each
        # raw SFC64 word w into (w >> 11) * 2**-53 and moves the stream as far,
        # and the top 12 bits of w are the uniform's cell int(u * _CELLS)
        words = np.random.Generator(np.random.SFC64(seed))
        uniforms = np.random.Generator(np.random.SFC64(seed))
        for size in (1, 2, 3, 1000, 16_384, 5):
            w = words.bit_generator.random_raw(size)
            u = uniforms.random(size)
            assert np.array_equal(((w >> 11) * 2.0**-53).view(np.uint64), u.view(np.uint64))
            assert np.array_equal(w >> 52, (u * mcsim._CELLS).astype(np.intp))
            assert repr(words.bit_generator.state) == repr(uniforms.bit_generator.state)

    @settings(derandomize=True, database=None, deadline=None, max_examples=45)
    @given(
        variant=st.sampled_from((TWO, FOUR)),
        claimed=st.sampled_from((0, 1)),
        r=st.floats(0.0, 1.0),
        n=st.integers(1, 600),
        strategy=st.sampled_from(STRATEGIES),
        seed=st.integers(0, 2**64),
        trials=st.integers(1, 3 * mcsim._BLOCK),
    )
    def test_sweep_keeps_the_single_stream(
        self, variant, claimed, r, n, strategy, seed, trials
    ):
        # the cell tallies, the edge look-ups, the fold and the accepted
        # count give the report of one plain inversion per state on one
        # stream
        cfg = config(variant=variant, claimed=claimed, r=r, n_per_state=n,
                     strategy=strategy, trials=trials, seed=seed)
        assert_same_report(mcsim.run(cfg), inversion_report(cfg))


class TestAcceptedCount:
    #: False-alarm rate of each two-sample test, fixed with the cases and
    #: the seeds before the first run.
    ALPHA = 1e-6

    @pytest.mark.parametrize("t", (1, 2, 300, mcsim.MAX_TRIALS))
    def test_an_empty_or_full_subset_makes_no_draw(self, t):
        # no generator is passed, so a draw would raise
        for a in (0, 1, t // 2, t - 1, t):
            assert mcsim._overlap(None, a, 0, t) == mcsim._overlap(None, 0, a, t) == 0
            assert mcsim._overlap(None, a, t, t) == mcsim._overlap(None, t, a, t) == a

    @pytest.mark.parametrize(
        "a, b",
        ((1, 1), (1, mcsim.MAX_TRIALS - 1), (mcsim.MAX_TRIALS - 1, mcsim.MAX_TRIALS - 1),
         (mcsim.MAX_TRIALS // 2, mcsim.MAX_TRIALS // 3)),
    )
    def test_partial_subsets_draw_at_the_trial_cap(self, a, b):
        # at t = MAX_TRIALS = 10**9 both sizes of the draw, a and t - a, stay
        # below NumPy's hypergeometric bound of 10**9
        t = mcsim.MAX_TRIALS
        rng = np.random.Generator(np.random.Philox(3))
        k = mcsim._overlap(rng, a, b, t)
        assert max(0, a + b - t) <= k <= min(a, b)
        assert repr(rng.bit_generator.state) != repr(np.random.Philox(3).state)

    @pytest.mark.parametrize("variant", (TWO, FOUR), ids=("two", "four"))
    def test_an_empty_window_accepts_none(self, variant):
        # p01 = 1 puts every |0> count at 0, outside its window
        cfg = config(variant=variant, strategy=mcsim.BreidbartFlips(FlipParams(1.0, 0.0)),
                     n_per_state=50 // variant.state_count)
        report = mcsim.run(cfg)
        assert build_test(variant, 0, 0.1, cfg.n_per_state, 3.0).windows["0"][0] > 0
        assert report.per_state_count_histograms["0"][0] == cfg.trials
        assert report.accept_rate == 0.0

    @pytest.mark.parametrize(
        "variant, n, strategy",
        (
            (TWO, 50, mcsim.BreidbartFlips(FlipParams(0.0, 0.4897))),
            (TWO, 50, mcsim.BeamSplitter(0.2)),
            (FOUR, 25, mcsim.BreidbartFlips(FlipParams(0.0659, 0.0659))),
            (FOUR, 25, mcsim.IdealMultiPhoton(0.2, FlipParams(0.047, 0.047))),
        ),
        ids=("two-flips", "two-beam-splitter", "four-flips", "four-ideal"),
    )
    def test_accepted_count_matches_per_trial_windows(self, variant, n, strategy):
        # the accept rates of 1,000 runs of 300 trials against those of a
        # per-trial sampler (Generator.binomial per state, then the windows)
        # on other seeds, by a two-sample KS test; the rates tie, which
        # makes its p-value conservative, so false alarms stay below ALPHA
        stats = pytest.importorskip("scipy.stats")
        cfg = config(variant=variant, n_per_state=n, strategy=strategy, trials=300)
        draw = binomial_draw(cfg)
        seeds = range(1000)
        rates = [mcsim.run(dataclasses.replace(cfg, seed=s)).accept_rate for s in seeds]
        per_trial = [single_stream(dataclasses.replace(cfg, seed=10**6 + s), draw).accept_rate
                     for s in seeds]
        assert stats.ks_2samp(rates, per_trial).pvalue >= self.ALPHA


class TestOracleAgreement:
    def test_honest(self):
        cfg = config(r=0.0)
        analytic = pass_probability(
            build_test(TWO, 0, 0.0, 50, 3.0), honest_table(TWO, 0, 0.0)
        )
        assert_within_3se(mcsim.run(cfg), analytic)

    def test_breidbart_flips(self):
        flips = FlipParams(0.0, 0.4897)
        cfg = config(strategy=mcsim.BreidbartFlips(flips))
        assert_within_3se(mcsim.run(cfg), cheat_success(TWO, 0, 0.1, 50, 3.0, flips))

    def test_beam_splitter(self):
        cfg = config(strategy=mcsim.BeamSplitter(1.0))
        analytic = multiphoton_success(
            TWO, 0, 0.1, 50, 3.0, 1.0, FlipParams(0.0, 0.0), MultiPhotonMode.BEAM_SPLITTER
        )
        assert_within_3se(mcsim.run(cfg), analytic)

    def test_ideal_multiphoton(self):
        flips = FlipParams(0.0, 0.4926)
        cfg = config(strategy=mcsim.IdealMultiPhoton(0.2, flips))
        analytic = multiphoton_success(
            TWO, 0, 0.1, 50, 3.0, 0.2, flips, MultiPhotonMode.IDEAL
        )
        assert_within_3se(mcsim.run(cfg), analytic)

    @pytest.mark.parametrize(
        "strategy",
        (mcsim.BeamSplitter(1.0), mcsim.IdealMultiPhoton(0.2, FlipParams(0.0, 0.4926))),
        ids=("beam-splitter", "ideal"),
    )
    def test_photon_number_route(self, strategy):
        # drawing the photon numbers first gives the table's distribution
        cfg = config(strategy=strategy, seed=17)
        analytic = pass_probability(
            build_test(TWO, 0, 0.1, 50, 3.0), strategy.table(TWO, 0, 0.1)
        )
        assert_within_3se(single_stream(cfg, photon_number_draw(cfg)), analytic)

    def test_faked_distance(self):
        scenario = DistanceScenario(r_distant=0.1, r_near=0.0)
        strategy = mcsim.FakedDistance(scenario, 17.0, 0.2)
        cfg = config(strategy=strategy)
        table = strategy.table(TWO, 0, 0.1)
        analytic = pass_probability(build_test(TWO, 0, 0.1, 50, 3.0), table)
        assert_within_3se(mcsim.run(cfg), analytic)


def pooled_chi_square(observed: np.ndarray, expected: np.ndarray) -> tuple[float, int]:
    """Pearson's statistic and its degrees of freedom, adjacent counts
    pooled in order until each pool expects at least 5 trials (the last
    pool takes the remainder)."""
    pools, o, e = [], 0, 0.0
    for oi, ei in zip(observed.tolist(), expected.tolist()):
        o, e = o + oi, e + ei
        if e >= 5.0:
            pools.append((o, e))
            o, e = 0, 0.0
    pools[-1] = (pools[-1][0] + o, pools[-1][1] + e)
    return sum((o - e) ** 2 / e for o, e in pools), len(pools) - 1


class TestDistribution:
    #: False-alarm rate of each histogram's chi-square test, fixed with the
    #: cases before the first run.
    ALPHA = 1e-6

    @pytest.mark.parametrize(
        "variant, claimed, r, n, strategy, trials, seed",
        (
            (TWO, 0, 0.1, 5, mcsim.Honest(), 300_001, 41),
            (FOUR, 0, 0.1, 25, mcsim.BreidbartFlips(FlipParams(0.0659, 0.0659)), 300_001, 42),
            (TWO, 0, 0.1, 50, mcsim.BeamSplitter(0.2), 300_001, 43),
            (FOUR, 1, 0.3, 400, mcsim.IdealMultiPhoton(0.2, FlipParams(0.047, 0.047)),
             300_001, 44),
            (TWO, 0, 0.0, 50, mcsim.Honest(), 300_001, 45),
            (TWO, 1, 0.1, 10**6, mcsim.BreidbartFlips(FlipParams(0.0, 0.45)), 300_001, 46),
        ),
        ids=("two-honest-5", "four-flips-25", "two-split-50", "four-ideal-400",
             "two-noiseless-50", "two-flips-1e6"),
    )
    def test_histograms_follow_the_binomial_pmf(
        self, variant, claimed, r, n, strategy, trials, seed
    ):
        # each state's histogram against trials * Binomial(n, p) pmf from
        # SciPy, over 19 blocks; no count lands where the pmf is 0
        stats = pytest.importorskip("scipy.stats")
        cfg = config(variant=variant, claimed=claimed, r=r, n_per_state=n,
                     strategy=strategy, trials=trials, seed=seed)
        report = mcsim.run(cfg)
        for s, p in tallied_probs(cfg).items():
            hist = report.per_state_count_histograms[s]
            expected = trials * stats.binom.pmf(np.arange(n + 1), n, p)
            assert hist.sum() == trials and not hist[expected == 0.0].any()
            statistic, dof = pooled_chi_square(hist, expected)
            if dof:
                assert stats.chi2.sf(statistic, dof) >= self.ALPHA, (s, p, statistic, dof)


@pytest.mark.parametrize(
    "variant, digest",
    (
        (TWO, "17c2dc1cdf1e4c150a20fadc206359debde3a5de1b599f38e780240d9285342c"),
        (FOUR, "4a6b86be7e819c9d27d820d26daf180e945c3ddb4fda90b6812983f67ea5ebd1"),
    ),
    ids=("two", "four"),
)
def test_report_grid_is_pinned(variant, digest):
    # every party at n in {5, 50, 400} and 1, 131,072 and 300,001 trials
    # (8 and 19 blocks per state), bit for bit
    sha = hashlib.sha256()
    for strategy in STRATEGIES:
        for n in (5, 50, 400):
            for trials in (1, 131_072, 300_001):
                cfg = config(variant=variant, strategy=strategy, n_per_state=n,
                             trials=trials, seed=29)
                report = mcsim.run(cfg)
                sha.update(repr((report.accept_rate, report.standard_error)).encode())
                for s, hist in report.per_state_count_histograms.items():
                    sha.update(s.encode() + hist.tobytes())
    assert sha.hexdigest() == digest


MIXTURE_FLIPS = FlipParams(0.047, 0.4926)


@pytest.mark.parametrize("variant", (TWO, FOUR), ids=("two", "four"))
@pytest.mark.parametrize("claimed", (0, 1))
@pytest.mark.parametrize("r", (0.0, 0.1, 0.5, 1.0))
@pytest.mark.parametrize("mu", (5e-324, 1e-12, 1e-3, 0.2, 1.0, 20.0))
def test_photon_tables_tally_the_photon_number_mixture(variant, claimed, r, mu):
    # with w = P(one photon | at least one), each particle is tallied with
    # w p_flip + (1 - w) p_honest (ideal) or (1 - w/2) p_honest + w/4 (beam
    # splitter), so one binomial per state has the photon-number distribution
    cfg = config(variant=variant, claimed=claimed, r=r)
    w = single_photon_share(mu)
    p_honest = tallied_probs(cfg, mcsim.Honest())
    p_flip = tallied_probs(cfg, mcsim.BreidbartFlips(MIXTURE_FLIPS))
    ideal = tallied_probs(cfg, mcsim.IdealMultiPhoton(mu, MIXTURE_FLIPS))
    split = tallied_probs(cfg, mcsim.BeamSplitter(mu))
    for s in variant.states:
        assert abs(ideal[s] - (w * p_flip[s] + (1.0 - w) * p_honest[s])) <= 1e-15
        assert abs(split[s] - ((1.0 - w / 2.0) * p_honest[s] + w / 4.0)) <= 1e-15
