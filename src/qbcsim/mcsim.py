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

A count is the inverse CDF of one uniform ``u`` in ``[0, 1)``: the
least ``k`` with ``u < C_k``, where ``C_k`` is the binomial CDF built
once per run for each sent state (:func:`_binomial_cdf`).  ``C`` is kept
only on a support ``[a, b]`` around ``n * p`` that leaves out less than
2**-53 of the mass, and is divided by its last entry, so ``C_b`` is 1
and every uniform has a count: none needs a second uniform or another
sampler.  A block never builds its counts (:class:`_StateDraws`).  It
reads raw Philox words ``w``, whose uniforms ``Generator.random`` would
make ``(w >> 11) * 2**-53``, and ``w >> 52`` is each uniform's cell among
``_CELLS`` equal cells of ``[0, 1)``.  A cell that no ``C_k`` crosses
holds one count for all its uniforms, a guide table (Chen and Asau,
AIIE Trans. 6, 163 (1974); Devroye, *Non-Uniform Random Variate
Generation*, 1986, section III.2).  One int8 lookup per cell gives the
block's window flags: 1 where the cell's count lies in the window, 0
where it does not, and -1 where some ``C_k`` crosses the cell; only
those uniforms are rebuilt, looked up with ``searchsorted`` on the same
``C`` and tallied as counts.  Cells and counts compare the same floats,
so a clean cell's count is the one ``searchsorted`` gives each of its
uniforms, with no margin.  The cells drawn are tallied, and once per run
each clean cell's tally is folded into its count.

Chunk ``i`` of ``_CHUNK`` trials draws from its own counter-based
stream, ``Philox(seed).jumped(i)``, one count per sent state in state
order, each in blocks of ``_BLOCK`` draws; the chunks run in order on the
calling thread.  A block's window flags go into the chunk's acceptance
flags, and its tallies into the state's totals.  So a run holds its
totals, a support-long CDF and a ``_CELLS``-entry flag table and cell
tally per state, one flag per trial of a chunk and one block's scratch,
whatever the chunk size.  Each chunk's numbers are fixed by its own
stream, so a :class:`TrialConfig` always gives a bit-identical
:class:`TrialReport`.  Since ``jumped(0)`` is ``Philox(seed)``, a run of
at most ``_CHUNK`` (131,072) trials draws the counts
``a + searchsorted(C, u, "right")`` of the uniforms ``u`` of one
``Generator(Philox(seed)).random`` call per state.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .attacks import FakedDistance
from .protocol import Variant, build_test
from .strategy import BeamSplitter, BreidbartFlips, Honest, IdealMultiPhoton

#: Trials per chunk; each chunk has its own random stream.
_CHUNK = 1 << 17
#: Largest accepted ``TrialConfig.trials``, checked before any sampling.
MAX_TRIALS = 10**9
#: Draws of one sent state that a chunk samples, window-tests and
#: tallies at a time.
_BLOCK = 1 << 14
#: Equal cells of ``[0, 1)`` in a state's guide; ``u * _CELLS`` is exact
#: for a power of two, so a uniform's cell is ``int(u * _CELLS)``, the top
#: 12 bits of its raw word.
_CELLS = 1 << 12


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
        for name, value in (("trials", self.trials), ("seed", self.seed)):
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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


def _binomial_cdf(n: int, p: float) -> tuple[int, np.ndarray]:
    """``a`` and ``C``, the CDF of ``Binomial(n, p)`` on its support
    ``[a, a + len(C) - 1]``: ``C[j] = P(X <= a + j)``, divided by the
    support's mass so that ``C[-1]`` is 1.

    The support spans ``12 sigma + 12`` counts either side of ``n p``
    (``sigma**2 = n p q``), clipped to ``0..n``; the mass it leaves out is
    below 2**-53.  The pmf is built relative to the mode ``m``, from the
    ratios ``pmf(k + 1) / pmf(k) = (n - k) p / ((k + 1) q)``, by log sums
    that start at ``m`` and run outward, so the terms that carry the mass
    are those with the fewest rounding steps, and no term overflows.  The
    division removes the mode's own probability, which is never formed.
    """
    q = 1.0 - p
    half = 12.0 * math.sqrt(n * p * q) + 12.0
    a = max(0, math.floor(n * p - half))
    k = np.arange(a, min(n, math.ceil(n * p + half)))
    with np.errstate(divide="ignore"):  # p = 0 and q = 0 give -inf and inf
        step = np.log((n - k) * p / ((k + 1) * q))
    m = min(int((n + 1) * p), n) - a
    below = np.cumsum(step[:m][::-1])[::-1]
    cdf = np.cumsum(np.exp(np.concatenate((-below, [0.0], np.cumsum(step[m:])))))
    return a, cdf / cdf[-1]


class _StateDraws:
    """One sent state's ``Binomial(n, p)`` draws in a run: the window flags
    of each block, and the histogram of every count drawn (see the module
    docstring).

    Counts are kept as offsets into the support of ``cdf`` and tallied
    into ``support``, the view of ``totals`` on it; only the counts drawn
    are written.  ``flag`` holds each cell's window flag, -1 where some
    CDF value crosses the cell, and ``cells`` tallies the cells drawn
    until :meth:`histogram` folds each clean cell's tally into its count.
    """

    def __init__(self, n: int, p: float, window: tuple[int, int]) -> None:
        start, self.cdf = _binomial_cdf(n, p)
        self.lo, self.hi = window[0] - start, window[1] - start
        self.totals = np.zeros(n + 1, dtype=np.int64)
        self.support = self.totals[start:start + len(self.cdf)]
        # cell c holds the uniforms of [c, c + 1) / _CELLS
        bounds = np.arange(_CELLS + 1) / _CELLS
        first = np.searchsorted(self.cdf, bounds[:-1], "right")
        clean = first == np.searchsorted(self.cdf, bounds[1:], "left")
        inside = (first >= self.lo) & (first <= self.hi)
        self.flag = np.where(clean, inside, -1).astype(np.int8)
        self.cells = np.zeros(_CELLS, dtype=np.int64)

    def block(self, words: np.ndarray) -> np.ndarray:
        """The window flags of the counts of the raw words ``words``, whose
        counts are tallied."""
        cells = (words >> 52).view(np.int64)
        self.cells += np.bincount(cells, minlength=_CELLS)
        flags = self.flag.take(cells)
        del cells  # the scratch of the edge look-ups takes its place
        edge = flags < 0
        counts = np.searchsorted(self.cdf, (words[edge] >> 11) * 2.0**-53, "right")
        np.add.at(self.support, counts, 1)
        flags[edge] = (counts >= self.lo) & (counts <= self.hi)
        return flags.view(bool)

    def histogram(self) -> np.ndarray:
        """The count histogram of every draw so far: the totals, into which
        the cell tallies are folded (and cleared)."""
        clean = self.flag >= 0
        first = np.searchsorted(self.cdf, np.arange(_CELLS) / _CELLS, "right")
        np.add.at(self.support, first[clean], self.cells[clean])
        self.cells.fill(0)
        return self.totals


def run(config: TrialConfig) -> TrialReport:
    """Estimate the acceptance probability of ``config.strategy``.

    Each trial draws every sent state's tallied count as
    ``Binomial(n_per_state, p)``, ``p`` read once per run by
    ``test.tallied`` from the party's table, and applies the verifier's
    windows.  Counts are per successful measurement, which is exactly
    the photon-source tables' at-least-one-photon conditioning.  Each
    block of ``_BLOCK`` draws of a state reads one raw Philox word per
    draw and gives the window flags of the words' inverse-CDF counts: from
    the word's cell where no CDF value crosses it, and from ``searchsorted``
    elsewhere.  The chunks run in order; a block's tallies go into the
    state's totals at once, and each state's cell tally is folded into its
    histogram at the end (see the module docstring).
    """
    test = build_test(
        config.variant, config.claimed, config.r, config.n_per_state, config.sigma_factor
    )
    n = config.n_per_state
    states = config.variant.states
    tallied = test.tallied(config.strategy.table(config.variant, config.claimed, config.r))
    draws = [_StateDraws(n, tallied[s], test.windows[s]) for s in states]

    def chunk(i: int) -> int:
        size = min(_CHUNK, config.trials - i * _CHUNK)
        bits = np.random.Philox(config.seed).jumped(i)
        accept = np.ones(size, dtype=bool)
        for state in draws:
            for start in range(0, size, _BLOCK):
                stop = min(start + _BLOCK, size)
                accept[start:stop] &= state.block(bits.random_raw(stop - start))
        return int(np.count_nonzero(accept))

    chunks = -(-config.trials // _CHUNK)
    accepted = sum(map(chunk, range(chunks)))

    rate = accepted / config.trials
    se = math.sqrt(rate * (1.0 - rate) / config.trials)
    return TrialReport(
        accept_rate=rate,
        standard_error=se,
        trials=config.trials,
        per_state_count_histograms={s: d.histogram() for s, d in zip(states, draws)},
    )
