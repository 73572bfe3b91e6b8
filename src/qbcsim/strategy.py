"""Per-particle cheating strategies, and the optimiser of the flip pair.

Each strategy is one frozen type whose ``table(variant, claimed, r)``
gives its revealed-outcome statistics (the faking-distance one lives in
:mod:`qbcsim.attacks`).  A mid-basis committer who wants to defer her
choice measures every particle in the basis halfway between the two
commitment observables, then post-processes the raw outcomes: each 0 is
flipped to 1 with probability ``p01`` and each 1 to 0 with probability
``p10``.  The flip pair is tuned numerically to maximise the probability
of passing the verifier's acceptance test for the claimed bit.

The optimiser is a deterministic coarse grid scan followed by a
shrinking-step local pattern search, both evaluated in batches by one
log-domain kernel; evaluations are pure, the scan order is fixed, and
near-ties resolve to the lexicographically smallest parameter pair, so
results are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .protocol import (
    STATE_VECTORS,
    ConditionalTable,
    Variant,
    build_test,
    honest_table,
    log_binomial_window,
    pass_probability,
)
from .qcore import born, breidbart

#: Absolute tolerance under which two log objective values count as
#: tied: the log form of a relative tolerance of 1e-12.
_TIE_LOG = 1e-12

#: Flip pairs per step of :class:`LogObjective`, so its scratch memory
#: stays fixed whatever the number of pairs.
_POINTS = 2048

#: Offsets of the 24-point 5x5 neighbour ring, in the pattern search's
#: consideration order.
_RING_DX, _RING_DY = np.array(
    [(dx, dy) for dx in range(-2, 3) for dy in range(-2, 3) if (dx, dy) != (0, 0)],
    dtype=np.float64,
).T


@dataclass(frozen=True)
class FlipParams:
    """Post-processing pair: ``p01`` flips measured 0s, ``p10`` measured 1s."""

    p01: float
    p10: float

    def __post_init__(self) -> None:
        for name, p in (("p01", self.p01), ("p10", self.p10)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p!r}")


@dataclass(frozen=True)
class OptimizationResult:
    """``value`` is the pass probability at ``best`` and ``log_value`` its
    natural log from :class:`LogObjective`, finite where ``value``
    underflows to 0."""

    best: FlipParams
    value: float
    log_value: float
    evaluations: int
    grid_step: float


def breidbart_table(variant: Variant, r: float) -> ConditionalTable:
    """Raw outcome statistics of the mid-basis measurement at noise ``r``."""
    basis = breidbart()
    p_zero = {s: born(basis, STATE_VECTORS[s], r) for s in variant.states}
    return ConditionalTable.from_zero_probs(variant.states, p_zero)


def _flip_row(p0: float, p1: float, p01: float, p10: float) -> tuple[float, float]:
    # 2x2 stochastic flip kernel applied to one row.
    return p0 * (1.0 - p01) + p1 * p10, p1 * (1.0 - p10) + p0 * p01


def apply_flips(table: ConditionalTable, flips: FlipParams) -> ConditionalTable:
    """Post-process a conditional table with the flip kernel; rows stay
    normalised."""
    entries: dict[tuple[str, int], float] = {}
    for s in table.states:
        q0, q1 = _flip_row(
            table.prob(s, 0), table.prob(s, 1), flips.p01, flips.p10
        )
        entries[(s, 0)] = q0
        entries[(s, 1)] = q1
    return ConditionalTable(table.states, entries)


def photon_weights(mu: float) -> tuple[float, float, float]:
    """``(single, multi, norm)``: the probabilities that a pulse of a Poisson
    source with mean ``mu`` carries one photon, two or more, or at least one."""
    if not mu > 0.0:
        raise ValueError(f"mu must be positive, got {mu!r}")
    e = math.exp(-mu)
    return mu * e, 1.0 - e - mu * e, 1.0 - e


@dataclass(frozen=True)
class Honest:
    """Measure the claimed observable on every particle."""

    def table(self, variant: Variant, claimed: int, r: float) -> ConditionalTable:
        return honest_table(variant, claimed, r)


@dataclass(frozen=True)
class BreidbartFlips:
    """Mid-basis measurement with outcome flipping."""

    flips: FlipParams

    def table(self, variant: Variant, claimed: int, r: float) -> ConditionalTable:
        return apply_flips(breidbart_table(variant, r), self.flips)


@dataclass(frozen=True)
class IdealMultiPhoton:
    """Photon-number-resolved splitting of a Poisson source with mean
    ``mu``: multi-photon pulses yield honest outcomes (she learns the
    state), single-photon pulses fall back to the flipped mid-basis
    strategy."""

    mu: float
    flips: FlipParams

    def __post_init__(self) -> None:
        photon_weights(self.mu)

    def table(self, variant: Variant, claimed: int, r: float) -> ConditionalTable:
        w_single, w_multi, norm = photon_weights(self.mu)
        flipped = BreidbartFlips(self.flips).table(variant, claimed, r)
        honest = honest_table(variant, claimed, r)
        entries = {
            (s, o): (w_single * flipped.prob(s, o) + w_multi * honest.prob(s, o)) / norm
            for s in variant.states
            for o in (0, 1)
        }
        return ConditionalTable(variant.states, entries)


@dataclass(frozen=True)
class BeamSplitter:
    """Split every pulse between both observables; a single photon lands
    on the wrong one half the time, and coin flips replace those outcomes.
    Each row is the honest row mixed with weight
    ``w = mu*exp(-mu) / (2*(1 - exp(-mu)))`` of uniform noise."""

    mu: float

    def __post_init__(self) -> None:
        photon_weights(self.mu)

    def table(self, variant: Variant, claimed: int, r: float) -> ConditionalTable:
        w_single, _, norm = photon_weights(self.mu)
        w = 0.5 * (w_single / norm)
        honest = honest_table(variant, claimed, r)
        entries = {
            (s, o): (1.0 - w) * honest.prob(s, o) + w * 0.5
            for s in variant.states
            for o in (0, 1)
        }
        return ConditionalTable(variant.states, entries)


@dataclass(frozen=True)
class SinglePhoton:
    """Maximise the plain flipped mid-basis pass probability."""

    #: No photon-number mixture: every pulse is measured mid-basis.
    mixture = None

    def at(self, flips: FlipParams) -> BreidbartFlips:
        return BreidbartFlips(flips)


@dataclass(frozen=True)
class MultiPhotonIdeal:
    """Maximise the pass probability of a cheater who also exploits
    multi-photon pulses of a Poisson source with mean ``mu``."""

    mu: float

    def __post_init__(self) -> None:
        photon_weights(self.mu)

    @property
    def mixture(self) -> tuple[float, float, float]:
        return photon_weights(self.mu)

    def at(self, flips: FlipParams) -> IdealMultiPhoton:
        return IdealMultiPhoton(self.mu, flips)


Objective = SinglePhoton | MultiPhotonIdeal


def cheat_success(
    variant: Variant,
    claimed: int,
    r: float,
    n_per_state: int,
    sigma_factor: float,
    flips: FlipParams,
) -> float:
    """Probability that the flipped mid-basis strategy passes every
    acceptance window of the test for ``claimed``."""
    test = build_test(variant, claimed, r, n_per_state, sigma_factor)
    return pass_probability(test, BreidbartFlips(flips).table(variant, claimed, r))


class LogObjective:
    """Log pass probability of the flipped mid-basis strategy, batched
    over arrays of flip pairs.

    The acceptance test, the raw mid-basis rows and the honest rows are
    built once.  For each sent state the tallied-outcome probability is
    affine in ``(p01, p10)`` (the flip kernel, mixed with the honest row
    for :class:`MultiPhotonIdeal`, with the arithmetic of the public table
    functions); its log window probability comes from
    :func:`~qbcsim.protocol.log_binomial_window`, and the states' logs
    add.  Nothing underflows: the four-state optimum at ``n = 5000`` per
    state has a log value near -2490.
    """

    def __init__(
        self,
        variant: Variant,
        claimed: int,
        r: float,
        n_per_state: int,
        sigma_factor: float,
        objective: Objective = SinglePhoton(),
    ) -> None:
        test = build_test(variant, claimed, r, n_per_state, sigma_factor)
        raw = breidbart_table(variant, r)
        self.n = n_per_state
        self.mixture = objective.mixture
        honest = honest_table(variant, claimed, r)
        self.rows = []
        for s in variant.states:
            counted = test.counted_outcome[s]
            lo, hi = test.windows[s]
            self.rows.append(
                (
                    raw.prob(s, 0),
                    raw.prob(s, 1),
                    honest.prob(s, counted),
                    counted,
                    lo,
                    hi,
                )
            )

    def __call__(self, p01, p10) -> np.ndarray:
        """Log pass probability at each pair of the broadcast arrays."""
        p01, p10 = np.broadcast_arrays(
            np.asarray(p01, dtype=np.float64), np.asarray(p10, dtype=np.float64)
        )
        for name, p in (("p01", p01), ("p10", p10)):
            if not np.all((p >= 0.0) & (p <= 1.0)):
                raise ValueError(f"{name} must lie in [0, 1]")
        out = np.empty(p01.shape)
        flat, x, y = out.reshape(-1), p01.reshape(-1), p10.reshape(-1)
        for a in range(0, flat.size, _POINTS):
            flat[a : a + _POINTS] = self._block(x[a : a + _POINTS], y[a : a + _POINTS])
        return out

    def _block(self, p01: np.ndarray, p10: np.ndarray) -> np.ndarray:
        total = np.zeros(p01.size)
        for p0, p1, hon, counted, lo, hi in self.rows:
            p = _flip_row(p0, p1, p01, p10)[counted]
            if self.mixture is not None:
                w_single, w_multi, norm = self.mixture
                p = (w_single * p + w_multi * hon) / norm
            # tables admit an ulp of rounding slack around [0, 1]
            total += log_binomial_window(self.n, np.clip(p, 0.0, 1.0), lo, hi)
        return total


def flip_grid(step: float) -> tuple[np.ndarray, np.ndarray]:
    """The ``(p01, p10)`` points of the ``step`` grid over ``[0, 1]^2``,
    in scan order: ``p01`` major, ``p10`` minor."""
    points = round(1.0 / step) + 1
    axis = np.minimum(1.0, np.arange(points) * step)
    return np.repeat(axis, points), np.tile(axis, points)


def optimize(
    variant: Variant,
    claimed: int,
    r: float,
    n_per_state: int,
    sigma_factor: float = 3.0,
    objective: Objective = SinglePhoton(),
    grid_step: float = 0.01,
    resolution: float = 1e-4,
) -> OptimizationResult:
    """Maximise the cheating success over the flip pair ``(p01, p10)``.

    One :class:`LogObjective` call scans the full ``grid_step`` grid over
    ``[0, 1]^2`` to locate the basin; a 5x5 pattern search with step
    halving, one batched call per 24-point neighbour ring, then refines
    the maximiser to a parameter resolution of at most ``resolution``.
    Log values within ``1e-12`` of the running maximum count as ties and
    resolve to the lexicographically smallest pair, making the output
    deterministic.  ``value`` is recomputed at the optimum by the public
    scalar path, the table of ``objective.at(best)``; ``log_value`` is the kernel's log value there, which
    stays finite where ``value`` underflows to zero.
    """
    if not 0.0 < grid_step <= 0.5:
        raise ValueError(f"grid_step must lie in (0, 0.5], got {grid_step!r}")
    if not resolution > 0.0:
        raise ValueError(f"resolution must be positive, got {resolution!r}")
    fn = LogObjective(variant, claimed, r, n_per_state, sigma_factor, objective)

    xs, ys = flip_grid(grid_step)
    values = fn(xs, ys)
    # the first point in scan order that ties with the grid maximum
    i = int(np.argmax(values >= values.max() - _TIE_LOG))
    best, best_v = (float(xs[i]), float(ys[i])), float(values[i])
    evaluations = values.size

    s = grid_step / 2.0
    while s >= resolution / 2.0:
        improved = True
        while improved:
            improved = False
            x0, y0 = best
            xs = np.minimum(1.0, np.maximum(0.0, x0 + _RING_DX * s))
            ys = np.minimum(1.0, np.maximum(0.0, y0 + _RING_DY * s))
            values = fn(xs, ys)
            evaluations += values.size
            for x, y, v in zip(xs.tolist(), ys.tolist(), values.tolist()):
                if v > best_v + _TIE_LOG:
                    best_v, best = v, (x, y)
                    improved = True
                elif v >= best_v - _TIE_LOG and (x, y) < best:
                    best = (x, y)
        s /= 2.0

    flips = FlipParams(*best)
    return OptimizationResult(
        best=flips,
        value=pass_probability(
            build_test(variant, claimed, r, n_per_state, sigma_factor),
            objective.at(flips).table(variant, claimed, r),
        ),
        log_value=float(fn(*best)),
        evaluations=evaluations,
        grid_step=grid_step,
    )
