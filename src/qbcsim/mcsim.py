"""Monte Carlo cross-check of the analytic acceptance probabilities.

Full protocol runs are sampled for any :data:`Strategy` (honest, flipped
mid-basis, beam-splitter, ideal multi-photon, or faking-distance) and
pushed through the verifier's windows, giving an empirical acceptance
rate to compare against the closed-form results.

One rule samples every party: each sent state's tallied count is
``Binomial(n_per_state, p)``, with ``p`` the tallied entry of the
party's ``table()`` row.  It is exact because each particle is tallied
independently with that probability; for the photon sources the row is
already the photon-number mixture, so first drawing how many pulses
carried one photon would give the same distribution.

Chunk ``i`` of ``_CHUNK`` trials draws from its own counter-based
stream, ``Philox(seed).jumped(i)``, one binomial per sent state in state
order; the chunks run on one thread per available core, and each adds
its histograms into shared totals under a lock, in whatever order the
chunks finish.  Integer sums are exact in any order and each chunk's
numbers are fixed by its own stream, so a :class:`TrialConfig` always
gives a bit-identical :class:`TrialReport`, whatever the number of
cores or the order the chunks ran in.  Since ``jumped(0)`` is
``Philox(seed)``, a run of at most ``_CHUNK`` (131,072) trials draws the
same numbers as one ``Philox(seed)`` stream.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .attacks import FakedDistance
from .protocol import Variant, build_test
from .strategy import BeamSplitter, BreidbartFlips, Honest, IdealMultiPhoton

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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")


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


def run(config: TrialConfig) -> TrialReport:
    """Estimate the acceptance probability of ``config.strategy``.

    Each trial draws every sent state's tallied count as
    ``Binomial(n_per_state, p)``, ``p`` read once per run by
    ``test.tallied`` from the party's table, and applies the verifier's
    windows.  Counts are per successful measurement, which is exactly
    the photon-source tables' at-least-one-photon conditioning.
    """
    test = build_test(
        config.variant, config.claimed, config.r, config.n_per_state, config.sigma_factor
    )
    n = config.n_per_state
    states = config.variant.states
    tallied = test.tallied(config.strategy.table(config.variant, config.claimed, config.r))
    probs = [tallied[s] for s in states]
    windows = [test.windows[s] for s in states]

    totals = np.zeros((len(states), n + 1), dtype=np.int64)
    lock = threading.Lock()

    def chunk(i: int) -> int:
        size = min(_CHUNK, config.trials - i * _CHUNK)
        rng = np.random.Generator(np.random.Philox(config.seed).jumped(i))
        accept = np.ones(size, dtype=bool)
        histograms = []
        for p, (lo, hi) in zip(probs, windows):
            counts = rng.binomial(n, p, size=size)
            accept &= (counts >= lo) & (counts <= hi)
            histograms.append(np.bincount(counts, minlength=n + 1))
        with lock:
            np.add(totals, histograms, out=totals)
        return int(np.count_nonzero(accept))

    chunks = -(-config.trials // _CHUNK)
    workers = min(len(os.sched_getaffinity(0)), chunks)
    if workers == 1:
        accepted = sum(map(chunk, range(chunks)))
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            accepted = sum(pool.map(chunk, range(chunks)))

    rate = accepted / config.trials
    se = math.sqrt(rate * (1.0 - rate) / config.trials)
    return TrialReport(
        accept_rate=rate,
        standard_error=se,
        trials=config.trials,
        per_state_count_histograms=dict(zip(states, totals)),
    )

