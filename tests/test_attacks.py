import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from qbcsim.attacks import (
    DistanceScenario,
    FakedDistance,
    MultiPhotonMode,
    beam_splitter_table,
    ideal_multiphoton_table,
    max_safe_distance,
    max_safe_distance_noisy,
    multiphoton_success,
)
from qbcsim.protocol import Variant, build_test, honest_table, pass_probability
from qbcsim.strategy import FlipParams, IdealMultiPhoton, optimize, photon_weights

ATOL = 1e-12
TWO = Variant.TWO_STATE
FOUR = Variant.FOUR_STATE


@dataclass(frozen=True)
class SourceModel:
    """Pulsed Poisson photon source feeding a lossy fibre and a detector:
    the count chain behind :func:`max_safe_distance`, kept here as the
    oracle of its bisection test.

    Attributes
    ----------
    mu : float
        Mean photons per pulse.
    alpha : float
        Fibre attenuation in dB/km.
    length_km : float
        Fibre length.
    eta : float
        Detector efficiency in ``(0, 1]``.
    pulses : int
        Number of pulses emitted.
    """

    mu: float
    alpha: float
    length_km: float
    eta: float
    pulses: int

    def __post_init__(self) -> None:
        photon_weights(self.mu)
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")
        if self.length_km < 0.0:
            raise ValueError(f"length_km must be non-negative, got {self.length_km!r}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta!r}")
        if self.pulses < 0:
            raise ValueError(f"pulses must be non-negative, got {self.pulses!r}")

    @property
    def transmittance(self) -> float:
        """Fraction of photons surviving the fibre, ``10**(-alpha*L/10)``."""
        return 10.0 ** (-self.alpha * self.length_km / 10.0)

    @property
    def n_emitted(self) -> float:
        return self.mu * self.pulses

    @property
    def n_received(self) -> float:
        return self.transmittance * self.n_emitted

    @property
    def n_measured(self) -> float:
        """Expected measurement count of an honest party at ``length_km``."""
        return self.eta * self.n_received

    @property
    def n_cheat_measured(self) -> float:
        """Expected measurement count of a cheater intercepting at the
        source (no fibre loss, same detector)."""
        return self.eta * self.n_emitted


def equal_statistics_length(alpha: float, scenario: DistanceScenario) -> float:
    """Claimed length at which the padded low-noise statistics coincide
    with honest statistics at the distant noise level (padding fraction
    (r_d - r_n) / (2*(1 - r_d)) )."""
    gap = (scenario.r_distant - scenario.r_near) / (1.0 - scenario.r_distant)
    return (10.0 / alpha) * (math.log10(2.0) - math.log10(1.0 - gap))


class TestSourceModel:
    def test_count_chain(self):
        m = SourceModel(mu=0.2, alpha=0.2, length_km=15.0, eta=0.1, pulses=10**6)
        assert abs(m.n_emitted - 0.2e6) <= 1e-6
        assert abs(m.n_received - m.transmittance * m.n_emitted) <= 1e-9
        assert abs(m.n_measured - 0.1 * m.n_received) <= 1e-9
        assert abs(m.n_cheat_measured - 0.1 * m.n_emitted) <= 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            SourceModel(mu=0.0, alpha=0.2, length_km=1.0, eta=0.1, pulses=10)
        with pytest.raises(ValueError):
            SourceModel(mu=0.2, alpha=0.2, length_km=1.0, eta=1.5, pulses=10)
        with pytest.raises(ValueError):
            SourceModel(mu=0.2, alpha=0.2, length_km=-1.0, eta=0.1, pulses=10)


class TestMaxSafeDistance:
    def test_typical_fibre(self):
        assert abs(max_safe_distance(0.2) - 15.0515) <= 1e-3

    def test_scales_inversely_with_attenuation(self):
        assert abs(max_safe_distance(2.0) - 1.50515) <= 1e-4
        assert abs(max_safe_distance(2.0) - max_safe_distance(0.2) / 10.0) <= 1e-9

    def test_matches_half_count_root(self):
        # bisection oracle: the length where the honest detection count
        # drops to half the source-side cheater's
        base = SourceModel(mu=0.2, alpha=0.2, length_km=0.0, eta=0.1, pulses=10**6)

        def gap(length):
            m = replace(base, length_km=length)
            return m.n_measured - m.n_cheat_measured / 2.0

        lo, hi = 0.0, 100.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if gap(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - max_safe_distance(0.2)) <= 1e-9

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            max_safe_distance(0.0)

    def test_nan_alpha_rejected_and_infinite_alpha_is_the_zero_limit(self):
        with pytest.raises(ValueError, match="alpha must be positive"):
            max_safe_distance(math.nan)
        with pytest.raises(ValueError, match="alpha must be positive"):
            max_safe_distance_noisy(math.nan, DistanceScenario(0.1, 0.0))
        assert max_safe_distance(math.inf) == 0.0


class TestMaxSafeDistanceNoisy:
    def test_no_noise_gap_reduces_to_noiseless(self):
        for r in (0.0, 0.1, 0.3):
            got = max_safe_distance_noisy(0.2, DistanceScenario(r, r))
            assert got == max_safe_distance(0.2)

    def test_reference_value(self):
        got = max_safe_distance_noisy(0.2, DistanceScenario(r_distant=0.1, r_near=0.0))
        # independent evaluation: 50 * (log10(2) + log10(8/9))
        expected = 50.0 * (math.log10(2.0) + math.log10(8.0 / 9.0))
        assert abs(got - expected) <= 1e-12
        assert abs(got - 12.4938) <= 5e-4

    def test_no_safe_distance_region(self):
        assert max_safe_distance_noisy(0.2, DistanceScenario(0.5, 0.0)) is None
        assert max_safe_distance_noisy(0.2, DistanceScenario(0.75, 0.5)) is None
        assert max_safe_distance_noisy(0.2, DistanceScenario(0.4999, 0.0)) is not None

    def test_boundary_is_exact(self):
        # r_d exactly (r_n + 1)/2 already has no safe distance
        assert max_safe_distance_noisy(0.2, DistanceScenario(0.55, 0.1)) is None

    def test_non_increasing_in_distant_noise(self):
        r_n = 0.05
        grid = np.linspace(r_n, 0.52, 20)
        values = [
            max_safe_distance_noisy(0.2, DistanceScenario(float(rd), r_n)) for rd in grid
        ]
        numeric = [v for v in values if v is not None]
        for a, b in zip(numeric, numeric[1:]):
            assert b <= a + ATOL

    def test_never_negative(self):
        # past r_d = (1 + 2 r_n)/3 the closed form is below 0: no length is safe
        assert max_safe_distance_noisy(0.2, DistanceScenario(0.4, 0.0)) == 0.0
        for r_n in np.linspace(0.0, 0.9, 10):
            for r_d in np.linspace(r_n, 1.0, 41):
                got = max_safe_distance_noisy(0.2, DistanceScenario(float(r_d), float(r_n)))
                assert got is None or got >= 0.0, (r_d, r_n)

    def test_scenario_ordering_validated(self):
        with pytest.raises(ValueError):
            DistanceScenario(r_distant=0.1, r_near=0.2)


class TestFakedTable:
    def test_zero_padding_reproduces_nearby_noise(self):
        # at the 50%-loss length the padding fraction vanishes
        scenario = DistanceScenario(0.2, 0.05)
        L = max_safe_distance(0.2)
        got = FakedDistance(scenario, L, 0.2).table(TWO, 0, scenario.r_distant)
        want = honest_table(TWO, 0, scenario.r_near)
        for s in TWO.states:
            for o in (0, 1):
                assert abs(got.prob(s, o) - want.prob(s, o)) <= ATOL

    @pytest.mark.parametrize("variant", (TWO, FOUR))
    @pytest.mark.parametrize("claimed", (0, 1))
    def test_matches_distant_honesty_at_equalising_length(self, variant, claimed):
        scenario = DistanceScenario(r_distant=0.1, r_near=0.0)
        L = equal_statistics_length(0.2, scenario)
        got = FakedDistance(scenario, L, 0.2).table(variant, claimed, scenario.r_distant)
        want = honest_table(variant, claimed, scenario.r_distant)
        for s in variant.states:
            for o in (0, 1):
                assert abs(got.prob(s, o) - want.prob(s, o)) <= 1e-9

    def test_equalising_length_reduces_to_half_loss_at_equal_noise(self):
        scenario = DistanceScenario(0.3, 0.3)
        assert abs(equal_statistics_length(0.2, scenario) - max_safe_distance(0.2)) <= ATOL

    def test_direct_arithmetic_value(self):
        # alpha=0.2, L=20: delta = 1/2 - 10^-0.4; p(0||0>) = (1/2 + delta/2)/(1/2 + delta)
        delta = 0.5 - 10.0 ** (-0.4)
        expected = (0.5 + 0.5 * delta) / (0.5 + delta)
        got = FakedDistance(DistanceScenario(0.1, 0.0), 20.0, 0.2).table(TWO, 0, 0.1)
        assert abs(got.prob("0", 0) - expected) <= ATOL
        assert abs(expected - 0.915356) <= 5e-7

    def test_rows_normalised_on_random_inputs(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            r_n = float(rng.uniform(0.0, 0.5))
            r_d = float(rng.uniform(r_n, min(1.0, r_n + 0.4)))
            alpha = float(rng.uniform(0.05, 2.0))
            L = float(rng.uniform(1.0, 3.0)) * max_safe_distance(alpha)
            variant = TWO if rng.random() < 0.5 else FOUR
            t = FakedDistance(DistanceScenario(r_d, r_n), L, alpha).table(variant, 0, r_d)
            for s in variant.states:
                assert abs(t.prob(s, 0) + t.prob(s, 1) - 1.0) <= ATOL

    def test_rejects_lengths_below_half_loss(self):
        with pytest.raises(ValueError):
            FakedDistance(DistanceScenario(0.1, 0.0), 10.0, 0.2).table(TWO, 0, 0.1)

    def test_rejects_nan_inputs_by_name(self):
        scenario = DistanceScenario(0.1, 0.0)
        with pytest.raises(ValueError, match="alpha must be positive, got nan"):
            FakedDistance(scenario, 17.0, math.nan).table(TWO, 0, 0.1)
        with pytest.raises(ValueError, match="length_km must be non-negative, got nan"):
            FakedDistance(scenario, math.nan, 0.2).table(TWO, 0, 0.1)

    @pytest.mark.parametrize("alpha", (0.2, math.inf))
    def test_zero_length_is_below_half_loss_whatever_the_attenuation(self, alpha):
        # nothing is lost over 0 km, though alpha * 0 is nan at alpha = inf
        with pytest.raises(ValueError, match=r"claimed length 0\.0 km is below the 50%-loss"):
            FakedDistance(DistanceScenario(0.1, 0.0), 0.0, alpha).table(TWO, 0, 0.1)

    def test_infinite_length_or_attenuation_pads_half_the_tally(self):
        # all light is lost, so delta = 1/2 and each row is (p_near + 1/2) / 2
        near = honest_table(FOUR, 1, 0.0)
        for length, alpha in ((math.inf, 0.2), (17.0, math.inf)):
            party = FakedDistance(DistanceScenario(0.1, 0.0), length, alpha)
            table = party.table(FOUR, 1, 0.1)
            for s in FOUR.states:
                assert abs(table.prob(s, 0) - (near.prob(s, 0) + 0.5) / 2.0) <= ATOL


class TestMultiPhoton:
    def test_bright_source_approaches_honest(self):
        flips = FlipParams(0.0, 0.4897)
        ideal = ideal_multiphoton_table(TWO, 0, 0.1, 50.0, flips)
        honest = honest_table(TWO, 0, 0.1)
        for s in TWO.states:
            for o in (0, 1):
                assert abs(ideal.prob(s, o) - honest.prob(s, o)) <= 1e-12

    def test_honest_distance_shrinks_with_mu(self):
        flips = FlipParams(0.3, 0.3)
        honest = honest_table(TWO, 0, 0.1)

        def max_distance(mu):
            t = ideal_multiphoton_table(TWO, 0, 0.1, mu, flips)
            return max(
                abs(t.prob(s, o) - honest.prob(s, o))
                for s in TWO.states
                for o in (0, 1)
            )

        distances = [max_distance(mu) for mu in (0.2, 1.0, 5.0, 20.0)]
        for a, b in zip(distances, distances[1:]):
            assert b < a

    def test_beam_splitter_reference_value(self):
        # mu=0.2, r=0: mixing weight w = mu e^-mu / (2 (1 - e^-mu))
        w = 0.5 * 0.2 * math.exp(-0.2) / (1.0 - math.exp(-0.2))
        t = beam_splitter_table(TWO, 0, 0.0, 0.2)
        expected = (1.0 - w) * 1.0 + w * 0.5
        assert abs(t.prob("0", 0) - expected) <= ATOL
        assert abs(expected - 0.7741672) <= 5e-7

    def test_beam_splitter_rows_normalised(self):
        for mu in (0.1, 0.5, 2.0):
            for r in (0.0, 0.3):
                t = beam_splitter_table(FOUR, 1, r, mu)
                for s in FOUR.states:
                    assert abs(t.prob(s, 0) + t.prob(s, 1) - 1.0) <= ATOL

    def test_ideal_rows_normalised(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            mu = float(rng.uniform(0.05, 3.0))
            r = float(rng.uniform(0.0, 1.0))
            f = FlipParams(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            t = ideal_multiphoton_table(FOUR, int(rng.integers(0, 2)), r, mu, f)
            for s in FOUR.states:
                assert abs(t.prob(s, 0) + t.prob(s, 1) - 1.0) <= ATOL

    def test_success_uses_honest_windows(self):
        flips = FlipParams(0.0, 0.4926)
        got = multiphoton_success(
            TWO, 0, 0.1, 50, 3.0, 0.2, flips, MultiPhotonMode.IDEAL
        )
        test = build_test(TWO, 0, 0.1, 50, 3.0)
        table = ideal_multiphoton_table(TWO, 0, 0.1, 0.2, flips)
        assert got == pass_probability(test, table)

    def test_flips_ignored_in_beam_splitter_mode(self):
        a = multiphoton_success(
            TWO, 0, 0.1, 50, 3.0, 0.2, FlipParams(0.0, 0.0), MultiPhotonMode.BEAM_SPLITTER
        )
        b = multiphoton_success(
            TWO, 0, 0.1, 50, 3.0, 0.2, FlipParams(0.9, 0.9), MultiPhotonMode.BEAM_SPLITTER
        )
        assert a == b

    def test_optimised_ideal_beats_beam_splitter(self):
        for r, mu in ((0.0, 0.2), (0.1, 0.2), (0.2, 0.5)):
            res = optimize(TWO, 0, r, 50, 3.0, objective=IdealMultiPhoton(mu))
            bs = multiphoton_success(
                TWO, 0, r, 50, 3.0, mu, FlipParams(0.0, 0.0),
                MultiPhotonMode.BEAM_SPLITTER,
            )
            assert res.value >= bs >= 0.0

    def test_mu_validated(self):
        with pytest.raises(ValueError):
            ideal_multiphoton_table(TWO, 0, 0.1, 0.0, FlipParams(0.0, 0.0))
        with pytest.raises(ValueError):
            beam_splitter_table(TWO, 0, 0.1, -0.5)

    def test_nan_mu_rejected_by_name(self):
        nan = math.nan
        for build in (
            lambda: photon_weights(nan),
            lambda: SourceModel(mu=nan, alpha=0.2, length_km=1.0, eta=0.1, pulses=10),
            lambda: ideal_multiphoton_table(TWO, 0, 0.1, nan, FlipParams(0.0, 0.0)),
            lambda: beam_splitter_table(TWO, 0, 0.1, nan),
        ):
            with pytest.raises(ValueError, match="mu must be positive"):
                build()

    def test_infinite_mu_rejected_by_name(self):
        for build in (
            lambda: photon_weights(math.inf),
            lambda: IdealMultiPhoton(math.inf),
            lambda: ideal_multiphoton_table(TWO, 0, 0.1, math.inf, FlipParams(0.0, 0.0)),
            lambda: beam_splitter_table(TWO, 0, 0.1, math.inf),
        ):
            with pytest.raises(ValueError, match="mu must be positive and finite, got inf"):
                build()
