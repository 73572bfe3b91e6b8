import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    def test_every_chunk_tallies_its_trials(self, strategy, monkeypatch):
        # ten chunks, the last one short
        monkeypatch.setattr(mcsim, "_CHUNK", 1024)
        cfg = config(strategy=strategy, trials=10_001, seed=11)
        for hist in mcsim.run(cfg).per_state_count_histograms.values():
            assert hist.sum() == cfg.trials

    def test_block_size_leaves_the_report_unchanged(self, monkeypatch):
        # eleven blocks per state in each chunk, the last one short: the
        # report is the one of one block per chunk
        monkeypatch.setattr(mcsim, "_CHUNK", 1024)
        cfg = config(trials=40_001, seed=11)
        want = mcsim.run(cfg)
        monkeypatch.setattr(mcsim, "_BLOCK", 100)
        report = mcsim.run(cfg)
        assert report.accept_rate == want.accept_rate
        for s in TWO.states:
            assert np.array_equal(
                report.per_state_count_histograms[s], want.per_state_count_histograms[s]
            )

    def test_a_failing_chunk_stops_the_run(self, monkeypatch):
        monkeypatch.setattr(mcsim, "_CHUNK", 1024)
        started = []
        philox = np.random.Philox

        class FailingPhilox:
            def __init__(self, seed):
                self.bit_generator = philox(seed)

            def jumped(self, i):
                started.append(i)
                if i == 2:
                    raise RuntimeError("chunk 2 failed")
                return self.bit_generator.jumped(i)

        monkeypatch.setattr(np.random, "Philox", FailingPhilox)
        with pytest.raises(RuntimeError, match="chunk 2 failed"):
            mcsim.run(config(trials=200 * 1024))
        assert started == [0, 1, 2]

    @pytest.mark.parametrize("r", (0.1, 0.0), ids=("btpe", "inverted"))
    def test_memory_is_bounded_by_the_totals(self, r):
        # each block of draws is tallied into its state's totals as it is
        # drawn, so a run holds its n + 1 totals per state, a _CELLS-entry
        # cell tally per state that NumPy inverts, and O(_BLOCK) scratch,
        # never a chunk's counts or a histogram of length n + 1 per block;
        # at r = 0 state "0" has p = 1, which NumPy inverts
        cfg = config(r=r, n_per_state=10**6, trials=2 * mcsim._BLOCK + 1)
        mcsim.run(dataclasses.replace(cfg, trials=1))  # fill the test's caches
        tracemalloc.start()
        try:
            report = mcsim.run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        totals = len(TWO.states) * (cfg.n_per_state + 1) * 8
        assert peak <= totals + 2 * 2**20, (peak, totals)
        for hist in report.per_state_count_histograms.values():
            assert hist.sum() == cfg.trials

    def test_cli_import_leaves_thread_pool_unloaded(self):
        # a run of one chunk, like the README's mc command, needs no pool
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


def numpy_walk(n: int, p: float, u: float) -> int | None:
    """NumPy's ``random_binomial`` inversion branch on the uniform ``u``,
    step for step; None where it would draw another uniform."""
    mirrored = p > 0.5
    if mirrored:
        p = 1.0 - p
    q = 1.0 - p
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    px = math.exp(n * math.log1p(-p))
    x = 0
    while u > px:
        x += 1
        if x > bound:
            return None
        u -= px
        px = (n - x + 1) * p * px / (x * q)
    return n - x if mirrored else x


SAMPLER_PS = (0.0, 5e-324, 1e-300, 0.05, math.nextafter(0.5, 0.0), 0.5,
              math.nextafter(0.5, 1.0), 0.95, 1.0 - 2.0**-53, 1.0)
TABLE_NS = (1, 2, 5, 25, 50, 60, 61, 400, 599, 600, 10**6)


def merging_table(n: int, p: float):
    """An inversion table whose overlapping bands are merged into one band:
    sorted band edges, and the count of each ``searchsorted`` index into
    them (-1 inside a band or past the last band); None where NumPy does
    not invert."""
    if n == 0 or p == 0.0:
        return None
    mirrored = p > 0.5
    if mirrored:
        p = 1.0 - p
    if p * n > 30.0:
        return None
    q = 1.0 - p
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    px = cdf = math.exp(n * math.log1p(-p))
    edges = []
    below = [0]  # per gap, the number of C_X below it
    for x in range(bound + 1):
        if x:
            px = (n - x + 1) * p * px / (x * q)
            cdf += px
        if edges and cdf - mcsim._MARGIN <= edges[-1]:
            edges[-1] = cdf + mcsim._MARGIN
            below[-1] = x + 1
        else:
            edges += [cdf - mcsim._MARGIN, cdf + mcsim._MARGIN]
            below.append(x + 1)
    lookup = np.full(len(edges) + 1, -1, dtype=np.int64)
    lookup[0:-1:2] = below[:-1]
    if mirrored:
        lookup[0:-1:2] = n - lookup[0:-1:2]
    return np.array(edges), lookup


class TestInversionTable:
    @pytest.mark.parametrize("n", (1, 2, 25, 50, 60, 61, 599, 600, 10**6))
    @pytest.mark.parametrize("p", SAMPLER_PS)
    @pytest.mark.parametrize("seed, jump, size", ((0, 0, 1), (1, 3, 20_001), (2, 7, 131_072)))
    def test_draws_equal_generator_binomial(self, p, n, seed, jump, size):
        # the blocks' window flags and the folded histogram are those of one
        # Generator.binomial call on a twin stream, for a window about the mean
        ours = np.random.Generator(np.random.Philox(seed).jumped(jump))
        reference = np.random.Generator(np.random.Philox(seed).jumped(jump))
        half = math.sqrt(n * p * (1.0 - p)) / 2.0
        lo, hi = math.floor(n * p - half), math.floor(n * p + half)
        state = mcsim._StateDraws(n, p, (lo, hi))
        flags = np.concatenate([state.block(ours, min(mcsim._BLOCK, size - start))
                                for start in range(0, size, mcsim._BLOCK)])
        want = reference.binomial(n, p, size=size)
        assert flags.dtype == bool
        assert np.array_equal(flags, (want >= lo) & (want <= hi))
        assert np.array_equal(state.histogram(), np.bincount(want, minlength=n + 1))
        # both streams are left at the same place
        assert ours.random() == reference.random()

    @pytest.mark.parametrize("seed, jump", ((0, 0), (1, 3), (2, 7), (2**63, 1)))
    def test_raw_words_give_the_uniforms_and_their_cells(self, seed, jump):
        # the NumPy contract the blocks rest on: Generator.random turns each
        # raw Philox word w into (w >> 11) * 2**-53 and moves the stream as far,
        # and the top 12 bits of w are the uniform's cell int(u * _CELLS); the
        # sizes start the draws at every place in Philox's buffer of 4 words
        words = np.random.Generator(np.random.Philox(seed).jumped(jump))
        uniforms = np.random.Generator(np.random.Philox(seed).jumped(jump))
        for size in (1, 2, 3, 1000, 16_384, 5):
            w = words.bit_generator.random_raw(size)
            u = uniforms.random(size)
            assert np.array_equal(((w >> 11) * 2.0**-53).view(np.uint64), u.view(np.uint64))
            assert np.array_equal(w >> 52, (u * mcsim._CELLS).astype(np.intp))
            assert repr(words.bit_generator.state) == repr(uniforms.bit_generator.state)

    def test_table_only_where_numpy_inverts(self):
        # NumPy inverts while n * min(p, 1 - p) <= 30 and p > 0
        assert mcsim._inversion_table(60, 0.5) is not None
        assert mcsim._inversion_table(61, 0.5) is None
        # the mirror inverts on q = 1.0 - 0.95, a little above 0.05
        assert mcsim._inversion_table(600, 0.05) is not None
        assert mcsim._inversion_table(599, 0.95) is not None
        assert mcsim._inversion_table(600, 0.95) is None
        assert mcsim._inversion_table(50, 0.0) is None
        assert mcsim._inversion_table(50, 1.0) is not None

    @pytest.mark.parametrize("n, p", ((1, 0.3), (25, 0.5), (50, 0.95), (60, 0.5), (400, 0.05)))
    def test_table_agrees_with_the_walk_between_and_beside_its_bands(self, n, p):
        # probes at the midpoints of the CDF's steps and next to it reach every
        # count, the tails included; probes one ulp outside each of the
        # table's bands check that no step of the CDF lies in a gap
        edges, lookup = mcsim._inversion_table(n, p)
        k = min(p, 1.0 - p)
        pmf = [math.comb(n, x) * k**x * (1.0 - k) ** (n - x) for x in range(n + 1)]
        cdf = np.cumsum(pmf)
        probes = np.concatenate(((cdf[:-1] + cdf[1:]) / 2, cdf - 3e-12, cdf + 3e-12,
                                 np.nextafter(edges[0::2], 0.0),
                                 np.nextafter(edges[1::2], 1.0)))
        probes = probes[(probes >= 0.0) & (probes < 1.0)]
        counts = lookup[np.searchsorted(edges, probes)]
        for u, count in zip(probes, counts):
            if count >= 0:
                assert count == numpy_walk(n, p, float(u)), (u, count)
        # every count of probability above 1e-9 is reached
        likely = {n - x if p > 0.5 else x for x in range(n + 1) if pmf[x] > 1e-9}
        assert likely <= set(counts.tolist())

    @pytest.mark.parametrize("n, p", ((25, 0.5), (50, 0.5), (50, 0.95), (60, 0.5), (50, 0.05)))
    def test_table_resolves_every_uniform_of_a_chunk(self, n, p):
        # with the default margin a chunk never goes back to Generator.binomial
        edges, lookup = mcsim._inversion_table(n, p)
        u = np.random.Generator(np.random.Philox(0)).random(mcsim._CHUNK)
        assert lookup[np.searchsorted(edges, u)].min() >= 0

    @pytest.mark.parametrize("n", TABLE_NS)
    @pytest.mark.parametrize("p", SAMPLER_PS)
    def test_table_classifies_like_merged_bands(self, n, p):
        # each uniform gets the same count, or the same -1, as from a table
        # whose overlapping bands are merged: at random uniforms, and at every
        # edge of both tables and one ulp either side of it
        table, reference = mcsim._inversion_table(n, p), merging_table(n, p)
        assert (table is None) == (reference is None)
        if table is None:
            return
        (edges, lookup), (ref_edges, ref_lookup) = table, reference
        assert np.all(edges[:-1] <= edges[1:])  # searchsorted needs them sorted
        at = np.concatenate((edges, ref_edges))
        probes = np.concatenate((np.random.Generator(np.random.Philox(n)).random(100_000),
                                 at, np.nextafter(at, -1.0), np.nextafter(at, 2.0)))
        assert np.array_equal(lookup[np.searchsorted(edges, probes)],
                              ref_lookup[np.searchsorted(ref_edges, probes)])

    def test_some_reference_tables_merge_bands(self):
        # the comparison above reaches tables whose bands overlap, where the
        # merged table has fewer edges than ours
        tables = [(merging_table(n, p), mcsim._inversion_table(n, p))
                  for n in TABLE_NS for p in SAMPLER_PS]
        assert any(len(ref[0]) < len(ours[0]) for ref, ours in tables if ref is not None)

    @pytest.mark.parametrize("variant", (TWO, FOUR), ids=("two", "four"))
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: type(s).__name__)
    def test_wide_margin_falls_back_to_the_same_reports(self, strategy, variant, monkeypatch):
        # with bands 0.1 wide nearly every draw restores its stream state
        # and calls Generator.binomial, which gives the same numbers
        monkeypatch.setattr(mcsim, "_MARGIN", 0.05)
        edges, lookup = mcsim._inversion_table(50, 0.5)
        u = np.random.Generator(np.random.Philox(0)).random(1000)
        assert lookup[np.searchsorted(edges, u)].min() < 0
        cfg = config(variant=variant, strategy=strategy, trials=20_000, seed=13)
        report = mcsim.run(cfg)
        want = single_stream(cfg, table_draw(cfg))
        assert report.accept_rate == want.accept_rate
        for s in variant.states:
            assert np.array_equal(
                report.per_state_count_histograms[s], want.per_state_count_histograms[s]
            )

    def test_fallback_in_a_later_block_keeps_the_single_stream(self, monkeypatch):
        # bands 4e-6 wide: the first block of state "0" is clean and the
        # second holds a uniform in a band, so only that block restores its
        # stream state and calls Generator.binomial
        monkeypatch.setattr(mcsim, "_MARGIN", 2e-6)
        cfg = config(trials=3 * mcsim._BLOCK, seed=4)
        edges, lookup = mcsim._inversion_table(cfg.n_per_state, tallied_probs(cfg)["0"])
        u = np.random.Generator(np.random.Philox(cfg.seed)).random(cfg.trials)
        least = lookup[np.searchsorted(edges, u)].reshape(3, mcsim._BLOCK).min(axis=1)
        assert least[0] >= 0 and least[1] < 0
        report = mcsim.run(cfg)
        want = single_stream(cfg, table_draw(cfg))
        assert report.accept_rate == want.accept_rate
        for s in TWO.states:
            assert np.array_equal(
                report.per_state_count_histograms[s], want.per_state_count_histograms[s]
            )

    @settings(derandomize=True, database=None, deadline=None, max_examples=45)
    @given(
        margin=st.sampled_from((1e-12, 1e-6, 1e-3)),
        variant=st.sampled_from((TWO, FOUR)),
        claimed=st.sampled_from((0, 1)),
        r=st.floats(0.0, 1.0),
        n=st.integers(1, 60),
        strategy=st.sampled_from(STRATEGIES),
        seed=st.integers(0, 2**64),
        trials=st.integers(1, 3 * mcsim._BLOCK),
    )
    def test_margin_sweep_keeps_the_single_stream(
        self, margin, variant, claimed, r, n, strategy, seed, trials
    ):
        # wider bands give more edge cells and more blocks that fall back to
        # Generator.binomial; the cell flags, the edge look-ups and the fold
        # still give the report of one binomial call per state
        cfg = config(variant=variant, claimed=claimed, r=r, n_per_state=n,
                     strategy=strategy, trials=trials, seed=seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mcsim, "_MARGIN", margin)
            report = mcsim.run(cfg)
        want = single_stream(cfg, table_draw(cfg))
        assert report.accept_rate == want.accept_rate
        for s in variant.states:
            assert np.array_equal(
                report.per_state_count_histograms[s], want.per_state_count_histograms[s]
            )


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


@pytest.mark.parametrize(
    "variant, digest",
    (
        (TWO, "8d9d5a65f2cdb23878025980f5149c651f5481d14c1e188ab59bcd350ccb5d8b"),
        (FOUR, "519e8b359db11d426bf58148596f0e7c03c6be43925c3b58b2e0db652868f858"),
    ),
    ids=("two", "four"),
)
def test_report_grid_is_pinned(variant, digest):
    # every party at n in {5, 50, 400} and 1, one full chunk and 300,001
    # trials (three chunks, the last one trial long), bit for bit
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
    single, _, norm = photon_weights(mu)
    w = single / norm
    p_honest = tallied_probs(cfg, mcsim.Honest())
    p_flip = tallied_probs(cfg, mcsim.BreidbartFlips(MIXTURE_FLIPS))
    ideal = tallied_probs(cfg, mcsim.IdealMultiPhoton(mu, MIXTURE_FLIPS))
    split = tallied_probs(cfg, mcsim.BeamSplitter(mu))
    for s in variant.states:
        assert abs(ideal[s] - (w * p_flip[s] + (1.0 - w) * p_honest[s])) <= 1e-15
        assert abs(split[s] - ((1.0 - w / 2.0) * p_honest[s] + w / 4.0)) <= 1e-15
