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
from qbcsim.strategy import FlipParams, cheat_success

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


class TestChunkedSampler:
    @pytest.mark.parametrize(
        "variant, n, strategy, accept_rate",
        (
            (TWO, 50, mcsim.BeamSplitter(0.2), 0.04161834716796875),
            (FOUR, 25, mcsim.IdealMultiPhoton(0.2, FlipParams(0.047, 0.047)),
             0.109466552734375),
        ),
        ids=("two-beam-splitter", "four-ideal"),
    )
    def test_one_full_chunk_keeps_the_single_stream(self, variant, n, strategy, accept_rate):
        # Values of the single-stream sampler that predates chunking.
        assert mcsim._CHUNK == 131_072
        cfg = config(variant=variant, n_per_state=n, strategy=strategy,
                     trials=131_072, seed=3)
        assert mcsim.run(cfg).accept_rate == accept_rate

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

    def test_faked_distance(self):
        scenario = DistanceScenario(r_distant=0.1, r_near=0.0)
        strategy = mcsim.FakedDistance(scenario, 17.0, 0.2)
        cfg = config(strategy=strategy)
        table = strategy.table(TWO, 0, 0.1)
        analytic = pass_probability(build_test(TWO, 0, 0.1, 50, 3.0), table)
        assert_within_3se(mcsim.run(cfg), analytic)
