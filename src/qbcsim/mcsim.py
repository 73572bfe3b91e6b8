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
reads raw SFC64 words ``w``, whose uniforms ``Generator.random`` would
make ``(w >> 11) * 2**-53``, and ``w >> 52`` is each uniform's cell among
``_CELLS`` equal cells of ``[0, 1)``.  A cell that no ``C_k`` crosses
holds one count for all its uniforms, a guide table (Chen and Asau,
AIIE Trans. 6, 163 (1974); Devroye, *Non-Uniform Random Variate
Generation*, 1986, section III.2).  The cells drawn are tallied; only
the uniforms of crossed cells are rebuilt, looked up with
``searchsorted`` on the same ``C`` and tallied as counts, and once per
run each clean cell's tally is folded into its count.  Cells and counts
compare the same floats, so a clean cell's count is the one
``searchsorted`` gives each of its uniforms, with no margin.

Each sent state in turn draws its ``trials`` counts from one
``SFC64(seed)`` stream, in blocks of ``_BLOCK``, so a run draws the
counts ``a + searchsorted(C, u, "right")`` of the uniforms ``u`` of one
``Generator(SFC64(seed)).random`` call per state.  The draw order is
fixed and nothing is drawn in parallel, so the run needs neither a
counter-based nor a jumpable generator; SFC64 is used for its cheap raw
words.  No trial's counts are kept: the accepted count follows from the
histograms.  With ``A_s`` the mass of state ``s``'s histogram inside its
window, the trials that pass that window are a uniformly random ``A_s``
of the ``T`` trials, independently across states, because the trials are
exchangeable.  So the number ``K`` that pass every window is ``A_1``,
then ``Hypergeometric(K, T - K, A_s)`` for each further state
(:func:`_overlap`), drawn from the same stream after the counts.  A run
holds each state's totals, a support-long CDF, a ``_CELLS``-entry cell
table and tally, and one block's scratch, whatever ``trials``, and a
:class:`TrialConfig` always gives a bit-identical :class:`TrialReport`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .attacks import FakedDistance
from .protocol import Variant, build_test
from .strategy import BeamSplitter, BreidbartFlips, Honest, IdealMultiPhoton

#: Largest accepted ``TrialConfig.trials``, checked before any sampling.
MAX_TRIALS = 10**9
#: Draws of one sent state that a run samples and tallies at a time.
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
    """One sent state's ``Binomial(n, p)`` draws in a run, tallied into the
    histogram of every count drawn (see the module docstring).

    Counts are kept as offsets into the support of ``cdf`` and tallied
    into ``support``, the view of ``totals`` on it; only the counts drawn
    are written.  ``first`` holds each cell's least count, ``crossed``
    marks the cells that some CDF value crosses, and ``cells`` tallies the
    cells drawn until :meth:`histogram` folds each clean cell's tally into
    its count.
    """

    def __init__(self, n: int, p: float) -> None:
        start, self.cdf = _binomial_cdf(n, p)
        self.totals = np.zeros(n + 1, dtype=np.int64)
        self.support = self.totals[start:start + len(self.cdf)]
        # cell c holds the uniforms of [c, c + 1) / _CELLS
        bounds = np.arange(_CELLS + 1) / _CELLS
        self.first = np.searchsorted(self.cdf, bounds[:-1], "right")
        self.crossed = self.first != np.searchsorted(self.cdf, bounds[1:], "left")
        self.cells = np.zeros(_CELLS, dtype=np.int64)

    def block(self, words: np.ndarray) -> None:
        """Tally the counts of the raw words ``words``."""
        cells = (words >> 52).view(np.int64)
        self.cells += np.bincount(cells, minlength=_CELLS)
        edge = self.crossed.take(cells)
        del cells  # the scratch of the edge look-ups takes its place
        counts = np.searchsorted(self.cdf, (words[edge] >> 11) * 2.0**-53, "right")
        np.add.at(self.support, counts, 1)

    def histogram(self) -> np.ndarray:
        """The count histogram of every draw so far: the totals, into which
        the cell tallies are folded (and cleared)."""
        clean = ~self.crossed
        np.add.at(self.support, self.first[clean], self.cells[clean])
        self.cells.fill(0)
        return self.totals


def _overlap(rng: np.random.Generator, a: int, b: int, t: int) -> int:
    """How many of ``t`` trials lie in both of two independent, uniformly
    random subsets of sizes ``a`` and ``b``: ``Hypergeometric(a, t - a, b)``.
    An empty or a full subset gives ``a * b // t`` with no draw; only these
    cases reach NumPy's bound of 10**9 on ``a`` and ``t - a`` at
    ``t = MAX_TRIALS``.
    """
    if a in (0, t) or b in (0, t):
        return a * b // t
    return int(rng.hypergeometric(a, t - a, b))


def run(config: TrialConfig) -> TrialReport:
    """Estimate the acceptance probability of ``config.strategy``.

    Every sent state's tallied count is ``Binomial(n_per_state, p)``,
    ``p`` read once per run by ``test.tallied`` from the party's table;
    counts are per successful measurement, which is exactly the
    photon-source tables' at-least-one-photon conditioning.  The states
    draw their ``trials`` counts in turn from one ``SFC64(seed)`` stream,
    ``_BLOCK`` raw words at a time, into their histograms, and the same
    stream then draws how many trials pass every verifier window, by the
    hypergeometric chain over the histograms (see the module docstring).
    One stream read in a fixed order needs no counter-based or jumpable
    generator, and a seed always gives a bit-identical report.
    """
    test = build_test(
        config.variant, config.claimed, config.r, config.n_per_state, config.sigma_factor
    )
    trials = config.trials
    states = config.variant.states
    tallied = test.tallied(config.strategy.table(config.variant, config.claimed, config.r))
    bits = np.random.SFC64(config.seed)
    histograms = {}
    for s in states:
        draws = _StateDraws(config.n_per_state, tallied[s])
        for start in range(0, trials, _BLOCK):
            draws.block(bits.random_raw(min(_BLOCK, trials - start)))
        histograms[s] = draws.histogram()

    rng = np.random.Generator(bits)
    accepted = trials
    for s in states:
        lo, hi = test.windows[s]
        accepted = _overlap(rng, accepted, int(histograms[s][lo:hi + 1].sum()), trials)

    rate = accepted / trials
    se = math.sqrt(rate * (1.0 - rate) / trials)
    return TrialReport(
        accept_rate=rate,
        standard_error=se,
        trials=trials,
        per_state_count_histograms=histograms,
    )
