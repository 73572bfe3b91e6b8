import math
import os
import subprocess
import sys

import numpy as np
import pytest

from qbcsim import mcsim
from qbcsim.attacks import (
    DistanceScenario,
    MultiPhotonMode,
    multiphoton_success,
)
from qbcsim.protocol import Variant, build_test, honest_table, pass_probability
from qbcsim.strategy import FlipParams, cheat_success, photon_weights

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

    def test_full_windows_always_accept(self):
        report = mcsim.run(
            config(strategy=mcsim.BreidbartFlips(FlipParams(0.0, 0.0)), sigma_factor=1e9)
        )
        assert report.accept_rate == 1.0

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            config(trials=0)

    def test_seed_validated_by_name(self):
        assert config(seed=0).seed == 0
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            config(seed=-1)

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
    """The report of ``cfg`` sampled from one ``Philox(seed)`` stream;
    ``draw(rng, state, size)`` gives the tallied counts of one sent state,
    and the states are drawn in order."""
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


def table_draw(cfg: mcsim.TrialConfig):
    """One ``Binomial(n, p_s)`` per sent state, ``p_s`` from the table."""
    p = tallied_probs(cfg)
    return lambda rng, s, size: rng.binomial(cfg.n_per_state, p[s], size=size)


def photon_number_draw(cfg: mcsim.TrialConfig):
    """The photon-number route for the two photon sources: first how many
    of the ``n`` tallied particles came from single-photon pulses, then
    their outcomes and the multi-photon ones separately."""
    party, n = cfg.strategy, cfg.n_per_state
    p_honest = tallied_probs(cfg, mcsim.Honest())
    single, _, norm = photon_weights(party.mu)
    w_single = single / norm  # P(one photon | at least one)
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


class TestChunkedSampler:
    @pytest.mark.parametrize("variant", (TWO, FOUR), ids=("two", "four"))
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: type(s).__name__)
    def test_one_full_chunk_draws_one_binomial_per_state(self, strategy, variant):
        assert mcsim._CHUNK == 131_072
        cfg = config(variant=variant, strategy=strategy, trials=mcsim._CHUNK, seed=5)
        report = mcsim.run(cfg)
        want = single_stream(cfg, table_draw(cfg))
        assert report.accept_rate == want.accept_rate
        assert report.standard_error == want.standard_error
        assert list(report.per_state_count_histograms) == list(variant.states)
        for s in variant.states:
            assert np.array_equal(
                report.per_state_count_histograms[s], want.per_state_count_histograms[s]
            )

    @pytest.mark.parametrize(
        "variant, n, strategy, accept_rate",
        (
            (TWO, 50, mcsim.BeamSplitter(0.2), 0.04033660888671875),
            (FOUR, 25, mcsim.IdealMultiPhoton(0.2, FlipParams(0.047, 0.047)),
             0.11005401611328125),
        ),
        ids=("two-beam-splitter", "four-ideal"),
    )
    def test_one_full_chunk_keeps_the_single_stream(self, variant, n, strategy, accept_rate):
        # one binomial per sent state from the table, drawn from Philox(3)
        cfg = config(variant=variant, n_per_state=n, strategy=strategy,
                     trials=mcsim._CHUNK, seed=3)
        assert mcsim.run(cfg).accept_rate == accept_rate
        assert single_stream(cfg, table_draw(cfg)).accept_rate == accept_rate
        # both lie within 2 SE of the analytic value
        test = build_test(variant, 0, 0.1, n, 3.0)
        analytic = pass_probability(test, strategy.table(variant, 0, 0.1))
        se = math.sqrt(analytic * (1.0 - analytic) / cfg.trials)
        assert abs(accept_rate - analytic) <= 2.0 * se

    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: type(s).__name__)
    def test_report_independent_of_worker_count(self, strategy, monkeypatch):
        monkeypatch.setattr(mcsim, "_CHUNK", 1024)
        cfg = config(strategy=strategy, trials=10_001, seed=11)
        default = mcsim.run(cfg)
        for cpus in ({0}, {0, 1, 2}):
            monkeypatch.setattr(mcsim.os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            report = mcsim.run(cfg)
            assert report.accept_rate == default.accept_rate
            for s in TWO.states:
                assert np.array_equal(
                    report.per_state_count_histograms[s],
                    default.per_state_count_histograms[s],
                )
        for hist in default.per_state_count_histograms.values():
            assert hist.sum() == cfg.trials

    def test_cli_import_leaves_thread_pool_unloaded(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(mcsim.__file__)))
        code = "import sys, qbcsim.cli; print('concurrent.futures' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert out.stdout.strip() == "False"


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
    single, _, norm = photon_weights(mu)
    w = single / norm
    p_honest = tallied_probs(cfg, mcsim.Honest())
    p_flip = tallied_probs(cfg, mcsim.BreidbartFlips(MIXTURE_FLIPS))
    ideal = tallied_probs(cfg, mcsim.IdealMultiPhoton(mu, MIXTURE_FLIPS))
    split = tallied_probs(cfg, mcsim.BeamSplitter(mu))
    for s in variant.states:
        assert abs(ideal[s] - (w * p_flip[s] + (1.0 - w) * p_honest[s])) <= 1e-15
        assert abs(split[s] - ((1.0 - w / 2.0) * p_honest[s] + w / 4.0)) <= 1e-15
