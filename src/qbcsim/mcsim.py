"""Monte Carlo cross-check of the analytic acceptance probabilities.

Full protocol runs are sampled for a configurable party, any
:data:`Strategy` (honest, flipped mid-basis, beam-splitter, ideal
multi-photon, or faking-distance), from its ``table()`` rows and pushed
through the verifier's windows, giving an empirical acceptance rate to
compare against the closed-form results.

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

import numpy as np

from .attacks import FakedDistance
from .protocol import AcceptanceTest, Variant, build_test
from .strategy import BeamSplitter, BreidbartFlips, Honest, IdealMultiPhoton, photon_weights

#: Trials per chunk; each chunk has its own random stream.
_CHUNK = 1 << 17
#: Largest accepted ``TrialConfig.trials``, checked before any sampling.
MAX_TRIALS = 10**9


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


def _sampler(
    config: TrialConfig, test: AcceptanceTest, state: str
) -> Callable[[np.random.Generator, int], np.ndarray]:
    """``draw(rng, size)``: the tallied outcome counts of ``state`` in
    ``size`` trials.  The table lookups happen here, once per run."""
    strategy, n = config.strategy, config.n_per_state

    def prob(party: Strategy) -> float:
        return test.tallied(party.table(config.variant, config.claimed, config.r))[state]

    if not isinstance(strategy, (IdealMultiPhoton, BeamSplitter)):
        p = prob(strategy)
        return lambda rng, size: rng.binomial(n, p, size=size)
    p_honest = prob(Honest())
    single, _, norm = photon_weights(strategy.mu)
    w_single = single / norm  # P(one photon | at least one)
    if isinstance(strategy, IdealMultiPhoton):
        p_flip = prob(BreidbartFlips(strategy.flips))

        def draw_ideal(rng: np.random.Generator, size: int) -> np.ndarray:
            n_single = rng.binomial(n, w_single, size=size)
            return rng.binomial(n_single, p_flip) + rng.binomial(n - n_single, p_honest)

        return draw_ideal

    def draw_split(rng: np.random.Generator, size: int) -> np.ndarray:
        n_single = rng.binomial(n, w_single, size=size)
        n_wrong = rng.binomial(n_single, 0.5)
        return (
            rng.binomial(n - n_single, p_honest)
            + rng.binomial(n_single - n_wrong, p_honest)
            + rng.binomial(n_wrong, 0.5)
        )

    return draw_split


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
    samplers = [_sampler(config, test, s) for s in states]
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

