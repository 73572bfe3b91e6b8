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

The counts come from an inversion table built once per run for each
sent state (:func:`_inversion_table`): the cumulative probabilities that
NumPy's own inversion sampler walks from ``k = 0`` for every draw of
``Generator.binomial(n, p)``.  A block never builds its counts
(:class:`_StateDraws`).  It reads raw Philox words ``w``, whose uniforms
``Generator.random`` would make ``(w >> 11) * 2**-53``, and ``w >> 52``
is each uniform's cell among ``_CELLS`` equal cells of ``[0, 1)``.  One
int8 lookup per cell gives the block's window flags: 1 where the cell's
count lies in the window, 0 where it does not, and -1 where a band edge
crosses the cell; only those uniforms are rebuilt, looked up with
``searchsorted`` and tallied as counts.  The cells drawn are tallied, and
once per run each clean cell's tally is folded into its count.  So the
flags and histograms are those of ``Generator.binomial``'s counts, bit
for bit, and the stream is left where it would be.  Two kinds of draw
still go to ``Generator.binomial``, whose counts are window-tested and
tallied directly:

- those NumPy does not sample by inversion: ``n * min(p, 1 - p) > 30``,
  where it uses BTPE, and ``p = 0``, where it draws no uniform;
- one block of one state's draws in which some uniform lies within
  ``_MARGIN`` of a cumulative probability, where the rounding of NumPy's
  walk may decide the count, or past the walk's bound, where NumPy draws
  a new uniform.  The block restores the stream state saved before its
  uniforms and lets ``Generator.binomial`` draw them all.  The blocks
  before it drew one uniform per count, as ``Generator.binomial`` would
  have, so the stream stays the one binomial call's.  At ``n <= 60``
  these bands around the cumulative probabilities cover about 1e-10 of
  ``[0, 1)``, so few blocks ever do.

Chunk ``i`` of ``_CHUNK`` trials draws from its own counter-based
stream, ``Philox(seed).jumped(i)``, one binomial per sent state in state
order, each in blocks of ``_BLOCK`` draws; the chunks run in order on the
calling thread.  A block's window flags go into the chunk's acceptance
flags, and its tallies into the state's totals.  So a run holds its
totals, a ``_CELLS``-entry cell tally per state, one flag per trial of a
chunk and one block's scratch, whatever ``n`` and the chunk size.  Each
chunk's numbers are fixed by its own stream, so a :class:`TrialConfig`
always gives a bit-identical :class:`TrialReport`.  Since ``jumped(0)``
is ``Philox(seed)``, a run of at most ``_CHUNK`` (131,072) trials draws
the same numbers as one ``Philox(seed)`` stream.
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
#: tallies at a time, and the unit that falls back to ``Generator.binomial``.
_BLOCK = 1 << 14
#: Equal cells of ``[0, 1)`` in a state's guide; ``u * _CELLS`` is exact
#: for a power of two, so a uniform's cell is ``int(u * _CELLS)``, the top
#: 12 bits of its raw word.
_CELLS = 1 << 12
#: Half-width of the band around each cumulative probability of an
#: inversion table; the rounding of NumPy's walk of at most ~90 steps, and
#: of our sums, moves ``U - C_k`` by at most ~1e-14.
_MARGIN = 1e-12


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


def _inversion_table(n: int, p: float) -> tuple[np.ndarray, np.ndarray] | None:
    """The inversion table of ``Generator.binomial(n, p)``, or None where
    NumPy does not sample it by inversion.

    NumPy inverts on ``p`` if ``p <= 0.5`` and ``n * p <= 30``, and on
    ``q = 1 - p`` if ``n * q <= 30``, returning ``n - X``.  Its walk
    subtracts ``px_0 = exp(n * log1p(-p))``, ``px_1``, ... from one uniform
    ``U`` and returns the first ``X`` with ``U <= C_X = px_0 + ... + px_X``;
    past ``X = bound`` it starts again with a new uniform.  Its rounding,
    and ours of ``C_X``, stay far inside ``_MARGIN``, so a uniform outside
    every band ``C_X -+ _MARGIN`` gets NumPy's count.

    Returns the edges ``C_0 - _MARGIN, C_0 + _MARGIN, C_1 - _MARGIN, ...``,
    each raised to its running maximum so that a band overlapping the one
    before starts where that one ends, and the count for each
    ``searchsorted`` index into them: an even index ``2X`` is ``X``, the
    mirror folded in; -1 marks an odd index, inside a band, and the index
    past the last edge.
    """
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
    px = [math.exp(n * math.log1p(-p))]
    for x in range(1, bound + 1):
        px.append((n - x + 1) * p * px[-1] / (x * q))
    cdf = np.cumsum(px)
    edges = np.maximum.accumulate(np.column_stack((cdf - _MARGIN, cdf + _MARGIN)).ravel())
    lookup = np.full(len(edges) + 1, -1, dtype=np.int64)
    lookup[0:-1:2] = n - np.arange(bound + 1) if mirrored else np.arange(bound + 1)
    return edges, lookup


class _StateDraws:
    """One sent state's ``Binomial(n, p)`` draws in a run: the window flags
    of each block, and the histogram of every count drawn (see the module
    docstring).

    Where NumPy inverts, ``guide`` holds each cell's count and ``flag`` its
    window flag, both -1 where a band edge crosses the cell or it lies past
    the walk's bound, and ``cells`` tallies the cells drawn until
    :meth:`histogram` folds it into ``totals``.
    """

    def __init__(self, n: int, p: float, window: tuple[int, int]) -> None:
        self.n, self.p = n, p
        self.lo, self.hi = window
        self.totals = np.zeros(n + 1, dtype=np.int64)
        self.table = _inversion_table(n, p)
        if self.table is not None:
            edges, lookup = self.table
            # cell c holds the uniforms whose searchsorted index lies in [ends[c], ends[c + 1]]
            ends = np.searchsorted(edges, np.arange(_CELLS + 1) / _CELLS)
            self.guide = np.where(ends[:-1] == ends[1:], lookup[ends[:-1]], -1)
            inside = (self.guide >= self.lo) & (self.guide <= self.hi)
            self.flag = np.where(self.guide < 0, -1, inside).astype(np.int8)
            self.cells = np.zeros(_CELLS, dtype=np.int64)

    def block(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """The window flags of ``rng.binomial(n, p, size)``, leaving ``rng``
        where that call would; the counts are tallied."""
        if self.table is not None:
            edges, lookup = self.table
            saved = rng.bit_generator.state
            words = rng.bit_generator.random_raw(size)
            cells = (words >> 52).view(np.int64)
            flags = self.flag.take(cells)
            edge = np.flatnonzero(flags < 0)
            counts = lookup[np.searchsorted(edges, (words[edge] >> 11) * 2.0**-53)]
            if counts.min(initial=0) >= 0:
                if edge.size:
                    flags[edge] = self._tally(counts)
                self.cells += np.bincount(cells, minlength=_CELLS)
                return flags.view(bool)
            rng.bit_generator.state = saved
        return self._tally(rng.binomial(self.n, self.p, size=size))

    def _tally(self, counts: np.ndarray) -> np.ndarray:
        """Add ``counts`` into the totals and return their window flags."""
        least = int(counts.min())
        tally = np.bincount(counts - least)
        self.totals[least:least + len(tally)] += tally
        return (counts >= self.lo) & (counts <= self.hi)

    def histogram(self) -> np.ndarray:
        """The count histogram of every draw so far: the totals, into which
        the cell tallies are folded (and cleared)."""
        if self.table is not None:
            clean = self.guide >= 0
            np.add.at(self.totals, self.guide[clean], self.cells[clean])
            self.cells.fill(0)
        return self.totals


def run(config: TrialConfig) -> TrialReport:
    """Estimate the acceptance probability of ``config.strategy``.

    Each trial draws every sent state's tallied count as
    ``Binomial(n_per_state, p)``, ``p`` read once per run by
    ``test.tallied`` from the party's table, and applies the verifier's
    windows.  Counts are per successful measurement, which is exactly
    the photon-source tables' at-least-one-photon conditioning.  Each
    block of ``_BLOCK`` draws of a state gives its window flags from the
    cells of its raw words, bit-identical to those of
    ``Generator.binomial``'s counts, which still draws where NumPy would
    not invert and for a block with a uniform too close to the table's
    edges.  The chunks run in order; a block's tallies go into the
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
        rng = np.random.Generator(np.random.Philox(config.seed).jumped(i))
        accept = np.ones(size, dtype=bool)
        for state in draws:
            for start in range(0, size, _BLOCK):
                stop = min(start + _BLOCK, size)
                accept[start:stop] &= state.block(rng, stop - start)
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

