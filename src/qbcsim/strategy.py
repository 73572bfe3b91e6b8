"""Per-particle cheating strategies, and the optimiser of the flip pair.

Each strategy is one frozen type whose ``table(variant, claimed, r)``
gives its revealed-outcome statistics (the faking-distance one lives in
:mod:`qbcsim.attacks`); a flip party is also its own objective for
:func:`optimize`.  A mid-basis committer who wants to defer her
choice measures every particle in the basis halfway between the two
commitment observables, then post-processes the raw outcomes: each 0 is
flipped to 1 with probability ``p01`` and each 1 to 0 with probability
``p10``.  The flip pair is tuned numerically to maximise the probability
of passing the verifier's acceptance test for the claimed bit.

The log pass probability is concave in the flip pair: each state's
window probability is log-concave in its tallied probability, which is
affine in ``(p01, p10)``.  So the optimiser needs no global search: a
coarse start scan, then projected Newton steps with closed-form
derivatives, reach the global maximum and certify it by the Newton
decrement.  Every step is deterministic, so results are reproducible bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .protocol import (
    STATE_VECTORS,
    ConditionalTable,
    Variant,
    build_test,
    honest_table,
    log_binomial_window,
    log_binomial_window_derivatives,
    pass_probability,
)
from .qcore import born, breidbart

#: Absolute tolerance under which two log objective values count as
#: tied: the log form of a relative tolerance of 1e-12.
_TIE_LOG = 1e-12

#: Newton steps ``optimize`` may take before it gives up.
_MAX_STEPS = 50

#: ``optimize`` stops once the Newton decrement, twice the log gain a
#: Newton step predicts, is at most this.
_DECREMENT = 2e-12


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
    underflows to 0.  ``gap`` is half the Newton decrement at ``best``,
    the log gain a further Newton step predicts; as the log objective is
    concave, a small gap certifies the global maximum.  ``evaluations``
    counts the kernel points, derivative points included."""

    best: FlipParams
    value: float
    log_value: float
    evaluations: int
    gap: float


def breidbart_table(variant: Variant, r: float) -> ConditionalTable:
    """Raw outcome statistics of the mid-basis measurement at noise ``r``."""
    basis = breidbart()
    p_zero = {s: born(basis, STATE_VECTORS[s], r) for s in variant.states}
    return ConditionalTable.from_zero_probs(variant.states, p_zero)


def apply_flips(table: ConditionalTable, flips: FlipParams) -> ConditionalTable:
    """Post-process a conditional table with the 2x2 stochastic flip
    kernel; rows stay normalised."""
    p01, p10 = flips.p01, flips.p10
    entries: dict[tuple[str, int], float] = {}
    for s in table.states:
        p0, p1 = table.prob(s, 0), table.prob(s, 1)
        entries[(s, 0)] = p0 * (1.0 - p01) + p1 * p10
        entries[(s, 1)] = p1 * (1.0 - p10) + p0 * p01
    return ConditionalTable(table.states, entries)


def photon_weights(mu: float) -> tuple[float, float, float]:
    """``(single, multi, norm)``: the probabilities that a pulse of a Poisson
    source with mean ``mu`` carries one photon, two or more, or at least one.

    Below ``mu = 1e-3`` the difference ``1 - exp(-mu)`` loses digits (it is
    0 below about 1e-16), so ``norm`` is ``-expm1(-mu)`` there, and ``single``
    is capped at ``norm`` so that ``multi`` cannot round below 0."""
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mu must be positive and finite, got {mu!r}")
    e = math.exp(-mu)
    if mu >= 1e-3:
        return mu * e, 1.0 - e - mu * e, 1.0 - e
    norm = -math.expm1(-mu)
    single = min(mu * e, norm)
    return single, norm - single, norm


@dataclass(frozen=True)
class Honest:
    """Measure the claimed observable on every particle."""

    def table(self, variant: Variant, claimed: int, r: float) -> ConditionalTable:
        return honest_table(variant, claimed, r)


@dataclass(frozen=True)
class BreidbartFlips:
    """Mid-basis measurement with outcome flipping."""

    flips: FlipParams = FlipParams(0.0, 0.0)

    def table(self, variant: Variant, claimed: int, r: float) -> ConditionalTable:
        return apply_flips(breidbart_table(variant, r), self.flips)


@dataclass(frozen=True)
class IdealMultiPhoton:
    """Photon-number-resolved splitting of a Poisson source with mean
    ``mu``: multi-photon pulses yield honest outcomes (she learns the
    state), single-photon pulses fall back to the flipped mid-basis
    strategy."""

    mu: float
    flips: FlipParams = FlipParams(0.0, 0.0)

    def __post_init__(self) -> None:
        photon_weights(self.mu)

    def table(self, variant: Variant, claimed: int, r: float) -> ConditionalTable:
        single, multi, norm = photon_weights(self.mu)
        w_single, w_multi = single / norm, multi / norm  # no subnormal products
        flipped = BreidbartFlips(self.flips).table(variant, claimed, r)
        honest = honest_table(variant, claimed, r)
        entries = {
            (s, o): w_single * flipped.prob(s, o) + w_multi * honest.prob(s, o)
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


#: Other names of the two flip parties, which ``perfbench/workloads.py``
#: and ``tests/test_acceptance.py`` still import.
SinglePhoton, MultiPhotonIdeal = BreidbartFlips, IdealMultiPhoton


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
    """Log pass probability of a flip party, batched over arrays of flip
    pairs, with its gradient and Hessian at a pair.

    ``objective`` is the party, a frozen type with a ``flips`` field; the
    flips it was built with are ignored.  For each sent state the
    tallied-outcome probability of ``replace(objective, flips=FlipParams(p01,
    p10))`` is affine in ``(p01, p10)``; its coefficients ``c + a*p01 +
    b*p10`` are the test's ``tallied()`` of that party's ``table()`` at the
    corners (0, 0), (1, 0) and (0, 1), so any party with an affine table
    works unchanged.  Each state's log window probability comes from
    :func:`~qbcsim.protocol.log_binomial_window`, and the states' logs add.  Nothing underflows: the four-state optimum
    at ``n = 5000`` per state has a log value near -2490.
    """

    def __init__(
        self,
        variant: Variant,
        claimed: int,
        r: float,
        n_per_state: int,
        sigma_factor: float,
        objective: BreidbartFlips | IdealMultiPhoton = BreidbartFlips(),
    ) -> None:
        self.test = build_test(variant, claimed, r, n_per_state, sigma_factor)
        corners = (
            self.test.tallied(
                replace(objective, flips=FlipParams(x, y)).table(variant, claimed, r)
            )
            for x, y in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
        )
        c, t10, t01 = (np.array(list(t.values())) for t in corners)
        self.n = n_per_state
        #: per state, in window order: c, and the coefficients (a, b) as a 2 x S matrix
        self.c, self.ab = c, np.stack((t10 - c, t01 - c))
        self.lo, self.hi = np.array(list(self.test.windows.values())).T

    def _tallied(self, p01, p10, s=slice(None)) -> np.ndarray:
        """The tallied probability at the flattened pairs of state ``s``, or
        of every state with one row each."""
        a, b = self.ab[:, s, None]
        p = self.c[s, None] + a * np.ravel(p01) + b * np.ravel(p10)
        return np.minimum(np.maximum(p, 0.0), 1.0)

    def __call__(self, p01, p10) -> np.ndarray:
        """Log pass probability at each pair of the broadcast arrays, one
        window call per state: padding every state to the widest window
        would cost more ``exp`` terms than the calls save, and one state's
        points at a time measured faster than every state's at once."""
        p01, p10 = np.broadcast_arrays(
            np.asarray(p01, dtype=np.float64), np.asarray(p10, dtype=np.float64)
        )
        for name, p in (("p01", p01), ("p10", p10)):
            if not np.all((p >= 0.0) & (p <= 1.0)):
                raise ValueError(f"{name} must lie in [0, 1]")
        total = np.zeros(p01.size)
        for s, (lo, hi) in enumerate(zip(self.lo.tolist(), self.hi.tolist())):
            total += log_binomial_window(self.n, self._tallied(p01, p10, s), lo, hi)
        return total.reshape(p01.shape)

    def derivatives(
        self, p01: float, p10: float
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """Log pass probability at one pair, with its gradient and Hessian in
        ``(p01, p10)``, from one window call for all states: each state adds
        ``d1*(a, b)`` and ``d2*(a, b)(a, b)^T``.  The value matches this
        kernel's to 1e-12, not bit for bit, as the states' windows are
        padded to one width."""
        log_f, d1, d2 = log_binomial_window_derivatives(
            self.n, self._tallied(p01, p10)[:, 0], self.lo, self.hi
        )
        return float(log_f.sum()), self.ab @ d1, (self.ab * d2) @ self.ab.T


def flip_grid(step: float) -> tuple[np.ndarray, np.ndarray]:
    """The ``(p01, p10)`` points of the ``step`` grid over ``[0, 1]^2``,
    in scan order: ``p01`` major, ``p10`` minor."""
    points = round(1.0 / step) + 1
    axis = np.minimum(1.0, np.arange(points) * step)
    return np.repeat(axis, points), np.tile(axis, points)


def _newton_step(grad: np.ndarray, hess: np.ndarray, free: np.ndarray):
    """The Newton step that maximises over the ``free`` coordinates, and
    the Newton decrement ``g.(-H)^+.g``; directions in which ``-H`` has no
    curvature are left out."""
    step = np.zeros(grad.size)
    w, vecs = np.linalg.eigh(-hess[np.ix_(free, free)])
    curved = w > 1e-12 * w.max(initial=0.0)
    coef = vecs[:, curved].T @ grad[free]
    scaled = coef / w[curved]
    step[free] = vecs[:, curved] @ scaled
    return step, float(coef @ scaled)


def optimize(
    variant: Variant,
    claimed: int,
    r: float,
    n_per_state: int,
    sigma_factor: float = 3.0,
    objective: BreidbartFlips | IdealMultiPhoton = BreidbartFlips(),
) -> OptimizationResult:
    """Maximise the pass probability of the flip party ``objective`` over
    its flip pair ``(p01, p10)``; the flips it was built with are ignored.
    Any party whose table is affine in the flips can be tuned.

    The log objective is concave on ``[0, 1]^2``, so a local maximum is
    the global one.  One :class:`LogObjective` call scans the 0.1 grid;
    its first point in scan order within ``1e-12`` of the maximum starts
    projected Newton steps on the coordinates not held at a bound (a
    coordinate is held at 0 while its gradient is negative, at 1 while it
    is positive), each projected onto the box and backtracked until it
    meets the Armijo rule (1e-4).  The search stops when the Newton
    decrement is at most ``2e-12``, or when a step gains nothing, and
    raises ``ValueError`` after ``_MAX_STEPS`` steps.  The four-state
    objective is swap-symmetric, so a concave maximum lies on the
    diagonal, and the search there runs on ``p01 = p10`` alone.

    ``value`` is recomputed at the optimum by the public scalar path, the
    table of ``replace(objective, flips=best)``; ``log_value`` is the
    kernel's log value there, which stays finite where ``value`` underflows
    to zero.
    """
    fn = LogObjective(variant, claimed, r, n_per_state, sigma_factor, objective)
    # search coordinates z in [0, 1]^d map to the flip pair basis @ z
    xs, ys = flip_grid(0.1)
    if variant is Variant.FOUR_STATE:
        basis, starts = np.ones((2, 1)), xs[xs == ys][None]
    else:
        basis, starts = np.eye(2), np.stack((xs, ys))
    values = fn(*(basis @ starts))
    z = starts[:, int(np.argmax(values >= values.max() - _TIE_LOG))]
    v, grad, hess = fn.derivatives(*(basis @ z))
    evaluations = values.size + 1

    for _ in range(_MAX_STEPS):
        grad, hess = basis.T @ grad, basis.T @ hess @ basis
        held = ((z <= 0.0) & (grad < 0.0)) | ((z >= 1.0) & (grad > 0.0))
        step, decrement = _newton_step(grad, hess, ~held)
        if decrement <= _DECREMENT:
            break
        for t in 0.5 ** np.arange(40):
            trial = np.clip(z + t * step, 0.0, 1.0)
            tv, t_grad, t_hess = fn.derivatives(*(basis @ trial))
            evaluations += 1
            if tv > v and tv - v >= 1e-4 * float(grad @ (trial - z)):
                z, v, grad, hess = trial, tv, t_grad, t_hess
                break
        else:
            break  # no step along the Newton direction gains anything
    else:
        raise ValueError(
            f"optimize did not converge in {_MAX_STEPS} Newton steps for the "
            f"{variant.value}-state protocol, claimed={claimed}, r={r!r}, "
            f"n_per_state={n_per_state}, sigma_factor={sigma_factor!r}, "
            f"objective={objective!r}"
        )

    flips = FlipParams(*(float(p) for p in basis @ z))
    return OptimizationResult(
        best=flips,
        value=pass_probability(
            fn.test, replace(objective, flips=flips).table(variant, claimed, r)
        ),
        log_value=v,
        evaluations=evaluations,
        gap=decrement / 2.0,
    )
