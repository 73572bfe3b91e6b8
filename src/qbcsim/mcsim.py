"""Monte Carlo cross-check of the analytic acceptance probabilities.

Full protocol runs are sampled pulse by pulse for a configurable party
(honest, flipped mid-basis, beam-splitter, ideal multi-photon, or
faking-distance) and pushed through the verifier's windows, giving an
empirical acceptance rate to compare against the closed-form results.

Trials are sampled in chunks of ``_CHUNK`` trials.  Chunk ``i`` draws
from its own counter-based stream, ``Philox(seed).jumped(i)``, in a
fixed draw order, and the chunks' accepted counts and histograms are
summed as integers in chunk order.  The chunks run on one thread per
available core, but a given :class:`TrialConfig` always produces a
bit-identical :class:`TrialReport`, whatever the number of cores.
Since ``jumped(0)`` is ``Philox(seed)`` itself, a run of at most
``_CHUNK`` (131,072) trials draws the same numbers as one
``Philox(seed)`` stream.
"""

from __future__ import annotations

import math
import os
from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .attacks import DistanceScenario, faked_table
from .protocol import ConditionalTable, Variant, build_test, honest_table
from .strategy import FlipParams, apply_flips, breidbart_table

#: Trials per chunk; each chunk has its own random stream.
_CHUNK = 1 << 17
#: Largest accepted ``TrialConfig.trials``, checked before any sampling.
MAX_TRIALS = 10**9


def _check_mu(mu: float) -> None:
    if not mu > 0.0:
        raise ValueError(f"mu must be positive, got {mu!r}")


@dataclass(frozen=True)
class Honest:
    """Measure the claimed observable on every particle."""


@dataclass(frozen=True)
class BreidbartFlips:
    """Mid-basis measurement with outcome flipping."""

    flips: FlipParams


@dataclass(frozen=True)
class BeamSplitter:
    """Split every pulse between both observables; coin-flip the rest."""

    mu: float

    def __post_init__(self) -> None:
        _check_mu(self.mu)


@dataclass(frozen=True)
class IdealMultiPhoton:
    """Photon-number-resolved splitting with mid-basis fallback."""

    mu: float
    flips: FlipParams

    def __post_init__(self) -> None:
        _check_mu(self.mu)


@dataclass(frozen=True)
class FakedDistance:
    """Claim a remote location and reveal the favourable half."""

    scenario: DistanceScenario
    length_km: float
    alpha: float


Strategy = Honest | BreidbartFlips | BeamSplitter | IdealMultiPhoton | FakedDistance


@dataclass(frozen=True)
class TrialConfig:
    variant: Variant
    claimed: int
    r: float
    n_per_state: int
    sigma_factor: float
    strategy: Strategy
    trials: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials!r}")
        if self.trials > MAX_TRIALS:
            raise ValueError(f"trials must be at most {MAX_TRIALS}, got {self.trials!r}")


@dataclass(frozen=True)
class TrialReport:
    """Empirical acceptance estimate plus the raw tally histograms.

    ``per_state_count_histograms[s][c]`` counts the trials in which the
    tallied outcome for state ``s`` appeared exactly ``c`` times.
    """

    accept_rate: float
    standard_error: float
    trials: int
    per_state_count_histograms: dict[str, np.ndarray]


def _single_photon_weight(mu: float) -> float:
    """P(pulse carried one photon | it carried at least one)."""
    return mu * math.exp(-mu) / (1.0 - math.exp(-mu))


@lru_cache(maxsize=256)
def _strategy_table(
    strategy: Strategy, variant: Variant, claimed: int, r: float
) -> ConditionalTable:
    """Analytic conditional table of a direct-sampling strategy, or the
    honest fallback rows used by the pulse-splitting modes."""
    if isinstance(strategy, Honest):
        return honest_table(variant, claimed, r)
    if isinstance(strategy, BreidbartFlips):
        return apply_flips(breidbart_table(variant, r), strategy.flips)
    if isinstance(strategy, FakedDistance):
        return faked_table(
            variant, claimed, strategy.scenario, strategy.length_km, strategy.alpha
        )
    raise TypeError(f"no direct table for strategy {strategy!r}")


def _sampler(
    config: TrialConfig, state: str, counted: int
) -> Callable[[np.random.Generator, int], np.ndarray]:
    """``draw(rng, size)``: the tallied outcome counts of ``state`` in
    ``size`` trials.  The table lookups happen here, once per run."""
    strategy, n = config.strategy, config.n_per_state

    def prob(party: Strategy) -> float:
        table = _strategy_table(party, config.variant, config.claimed, config.r)
        return table.prob(state, counted)

    if isinstance(strategy, (Honest, BreidbartFlips, FakedDistance)):
        p = prob(strategy)
        return lambda rng, size: rng.binomial(n, p, size=size)
    if isinstance(strategy, IdealMultiPhoton):
        p_flip = prob(BreidbartFlips(strategy.flips))
        p_honest = prob(Honest())
        w_single = _single_photon_weight(strategy.mu)

        def draw_ideal(rng: np.random.Generator, size: int) -> np.ndarray:
            n_single = rng.binomial(n, w_single, size=size)
            return rng.binomial(n_single, p_flip) + rng.binomial(n - n_single, p_honest)

        return draw_ideal
    if isinstance(strategy, BeamSplitter):
        p_honest = prob(Honest())
        w_single = _single_photon_weight(strategy.mu)

        def draw_split(rng: np.random.Generator, size: int) -> np.ndarray:
            n_single = rng.binomial(n, w_single, size=size)
            n_wrong = rng.binomial(n_single, 0.5)
            return (
                rng.binomial(n - n_single, p_honest)
                + rng.binomial(n_single - n_wrong, p_honest)
                + rng.binomial(n_wrong, 0.5)
            )

        return draw_split
    raise TypeError(f"unknown strategy {strategy!r}")


def _in_order(job: Callable[[int], tuple], count: int, workers: int) -> Iterator[tuple]:
    """``job(0), ..., job(count - 1)`` in index order, computed on
    ``workers`` threads.  At most ``2 * workers`` jobs are submitted and
    not yet yielded, so the bookkeeping does not grow with ``count``."""
    if workers == 1:
        yield from map(job, range(count))
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        pending: deque = deque()
        for i in range(count):
            pending.append(pool.submit(job, i))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def run(config: TrialConfig) -> TrialReport:
    """Estimate the acceptance probability of ``config.strategy``.

    Each trial draws the tallied outcome count for every sent state
    (directly from the strategy's conditional table, or, for the photon
    source modes, by first drawing how many of the ``n_per_state``
    successful measurements came from single-photon pulses and branching
    the outcome distribution accordingly), then applies the verifier's
    windows.  Empty pulses never contribute: counts are per successful
    measurement, which is exactly the at-least-one-photon conditioning.
    """
    test = build_test(
        config.variant, config.claimed, config.r, config.n_per_state, config.sigma_factor
    )
    n = config.n_per_state
    states = config.variant.states
    samplers = [_sampler(config, s, test.counted_outcome[s]) for s in states]
    windows = [test.windows[s] for s in states]

    def chunk(i: int) -> tuple[int, list[np.ndarray]]:
        size = min(_CHUNK, config.trials - i * _CHUNK)
        rng = np.random.Generator(np.random.Philox(config.seed).jumped(i))
        accept = np.ones(size, dtype=bool)
        histograms = []
        for draw, (lo, hi) in zip(samplers, windows):
            counts = draw(rng, size)
            accept &= (counts >= lo) & (counts <= hi)
            histograms.append(np.bincount(counts, minlength=n + 1))
        return int(np.count_nonzero(accept)), histograms

    chunks = -(-config.trials // _CHUNK)
    workers = min(len(os.sched_getaffinity(0)), chunks)
    accepted = 0
    totals = [np.zeros(n + 1, dtype=np.int64) for _ in states]
    for chunk_accepted, histograms in _in_order(chunk, chunks, workers):
        accepted += chunk_accepted
        for total, histogram in zip(totals, histograms):
            total += histogram

    rate = accepted / config.trials
    se = math.sqrt(rate * (1.0 - rate) / config.trials)
    return TrialReport(
        accept_rate=rate,
        standard_error=se,
        trials=config.trials,
        per_state_count_histograms=dict(zip(states, totals)),
    )


def sample_pulse_outcome(
    strategy: Strategy,
    variant: Variant,
    claimed: int,
    r: float,
    state: str,
    rng: np.random.Generator,
) -> int | None:
    """Sample the revealed outcome of a single pulse of ``state``.

    Returns 0 or 1, or ``None`` for pulses that produce no detection
    (empty Poisson draws in the photon-source modes; the direct-table
    strategies always detect).
    """
    if isinstance(strategy, (Honest, BreidbartFlips, FakedDistance)):
        p0 = _strategy_table(strategy, variant, claimed, r).prob(state, 0)
        return 0 if rng.random() < p0 else 1
    if isinstance(strategy, (IdealMultiPhoton, BeamSplitter)):
        photons = rng.poisson(strategy.mu)
        if photons == 0:
            return None
        honest_p0 = _strategy_table(Honest(), variant, claimed, r).prob(state, 0)
        if photons >= 2:
            return 0 if rng.random() < honest_p0 else 1
        if isinstance(strategy, IdealMultiPhoton):
            p0 = _strategy_table(
                BreidbartFlips(strategy.flips), variant, claimed, r
            ).prob(state, 0)
            return 0 if rng.random() < p0 else 1
        # Beam splitter, one photon: half the time it hit the wrong set-up.
        if rng.random() < 0.5:
            return 0 if rng.random() < honest_p0 else 1
        return 0 if rng.random() < 0.5 else 1
    raise TypeError(f"unknown strategy {strategy!r}")
