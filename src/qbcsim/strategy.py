"""Per-particle cheating strategies, and the optimiser of the flip pair.

Each strategy is one frozen type whose ``table(variant, claimed, r)``
gives its revealed-outcome statistics (the faking-distance one lives in
:mod:`qbcsim.attacks`); a flip party also has a ``flips`` field, and is
its own objective for :func:`optimize`.  A mid-basis committer who wants
to defer her choice measures every particle in the basis halfway between
the two commitment observables, then post-processes the raw outcomes:
each 0 is flipped to 1 with probability ``p01`` and each 1 to 0 with
probability ``p10``.  The flip pair is tuned numerically to maximise the
probability of passing the verifier's acceptance test for the claimed
bit.

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
    ConditionalTable,
    Variant,
    _basis_table,
    _log_window_derivatives,
    _stacked,
    build_test,
    honest_table,
    log_binomial_window,
    pass_probability,
)
from .qcore import breidbart

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
    return _basis_table(breidbart(), variant, r)


def apply_flips(table: ConditionalTable, flips: FlipParams) -> ConditionalTable:
    """Post-process a conditional table with the 2x2 stochastic flip
    kernel: a 0 stays a 0 with probability ``1 - p01`` and a 1 becomes a 0
    with probability ``p10``, so each row's ``p(0|s)`` is
    ``p0*(1 - p01) + (1 - p0)*p10``."""
    p01, p10, p = flips.p01, flips.p10, table.p_zero
    return ConditionalTable(
        table.states, {s: p[s] * (1.0 - p01) + (1.0 - p[s]) * p10 for s in table.states}
    )


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
    strategy.  Each row's ``p(0|s)`` mixes the two parties' by photon
    number."""

    mu: float
    flips: FlipParams = FlipParams(0.0, 0.0)

    def __post_init__(self) -> None:
        photon_weights(self.mu)

    def table(self, variant: Variant, claimed: int, r: float) -> ConditionalTable:
        single, multi, norm = photon_weights(self.mu)
        w_single, w_multi = single / norm, multi / norm  # no subnormal products
        flipped = BreidbartFlips(self.flips).table(variant, claimed, r).p_zero
        honest = honest_table(variant, claimed, r).p_zero
        return ConditionalTable(
            variant.states,
            {s: w_single * flipped[s] + w_multi * honest[s] for s in variant.states},
        )


@dataclass(frozen=True)
class BeamSplitter:
    """Split every pulse between both observables; a single photon lands
    on the wrong one half the time, and coin flips replace those outcomes.
    Each honest row goes through symmetric flips with probability ``w/2``,
    ``w = mu*exp(-mu) / (2*(1 - exp(-mu)))``."""

    mu: float

    def __post_init__(self) -> None:
        photon_weights(self.mu)

    def table(self, variant: Variant, claimed: int, r: float) -> ConditionalTable:
        single, _, norm = photon_weights(self.mu)
        w = single / (4.0 * norm)
        return apply_flips(honest_table(variant, claimed, r), FlipParams(w, w))


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


#: The flip pairs at which :class:`LogObjective` reads a party's tables.
_CORNERS = (FlipParams(0.0, 0.0), FlipParams(1.0, 0.0), FlipParams(0.0, 1.0))


class LogObjective:
    """Log pass probability of a flip party, batched over arrays of flip
    pairs, with its gradient and Hessian at a pair.

    ``objective`` is the flip party; the flips it was built with are
    ignored.  For each sent state the tallied-outcome probability at flips
    ``(p01, p10)`` is affine in them; its coefficients ``c + a*p01 +
    b*p10`` are the test's ``tallied()`` of the tables of
    ``replace(objective, flips=corner)`` at the corners (0, 0), (1, 0) and
    (0, 1), so any party with affine tables works unchanged.  The test's
    windows are resolved and checked once, here.  Every state's log window
    probability comes from one :func:`~qbcsim.protocol.log_binomial_window`
    call, and the states' logs add.  Nothing underflows: the four-state
    optimum at ``n = 5000`` per state has a log value near -2490.
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
        corners = (replace(objective, flips=f).table(variant, claimed, r) for f in _CORNERS)
        c, t10, t01 = (np.array(list(self.test.tallied(t).values())) for t in corners)
        self.n = self.test.n_per_state
        #: per state, in window order, the float triple (c, a, b)
        self.coefficients = list(zip(c.tolist(), (t10 - c).tolist(), (t01 - c).tolist()))
        self.lo, self.hi = np.array(list(self.test.windows.values())).T
        # the kernel's checks, made once on c, which tallied() clipped into [0, 1]
        self._windows = _stacked(n_per_state, c, self.lo, self.hi)[2]

    def __call__(self, p01, p10) -> np.ndarray:
        """Log pass probability at each pair of the broadcast arrays, from
        one window call for all states."""
        p01, p10 = np.asarray(p01, dtype=np.float64), np.asarray(p10, dtype=np.float64)
        for name, p in (("p01", p01), ("p10", p10)):
            if not np.all((p >= 0.0) & (p <= 1.0)):
                raise ValueError(f"{name} must lie in [0, 1]")
        c, a, b = np.array(self.coefficients).T
        p = c + a * p01[..., None] + b * p10[..., None]
        p = np.minimum(np.maximum(p, 0.0), 1.0)
        return log_binomial_window(self.n, p, self.lo, self.hi).sum(axis=-1)

    def derivatives(self, p01: float, p10: float) -> tuple[
        float, tuple[float, float], tuple[tuple[float, float], tuple[float, float]]
    ]:
        """Log pass probability at one pair in ``[0, 1]^2``, with its gradient
        and Hessian in ``(p01, p10)`` as Python floats, from one call of the
        kernel's value-and-derivative interior on the windows resolved at
        construction: each state adds ``d1*(a, b)`` and ``d2*(a, b)(a, b)^T``.
        It is :func:`~qbcsim.protocol.log_binomial_window_derivatives` of the
        clipped tallied probabilities, bit for bit.  The value is
        :meth:`__call__`'s at the same pair, bit for bit, unless one pair's
        windows pass a kernel block (windows thousands of counts wide);
        there the two agree to 1e-12."""
        if not (0.0 <= p01 <= 1.0 and 0.0 <= p10 <= 1.0):
            raise ValueError(f"flips must lie in [0, 1], got ({p01!r}, {p10!r})")
        p = [min(max(c + a * p01 + b * p10, 0.0), 1.0) for c, a, b in self.coefficients]
        log_f, d1, d2 = _log_window_derivatives(self.n, np.array([p]), self._windows)[:, 0]
        g01 = g10 = h00 = h01 = h11 = 0.0
        for (_, a, b), e1, e2 in zip(self.coefficients, d1.tolist(), d2.tolist()):
            g01 += a * e1
            g10 += b * e1
            h00 += a * e2 * a
            h01 += a * e2 * b
            h11 += b * e2 * b
        return float(log_f.sum()), (g01, g10), ((h00, h01), (h01, h11))


def flip_axis_size(step: float) -> int:
    """How many points one axis of the ``step`` grid has: the multiples of
    ``step`` below 1, where a multiple within 1e-9 of 1 counts as 1, and 1."""
    return math.ceil((1.0 - 1e-9) / step) + 1


def flip_axis(step: float) -> np.ndarray:
    """One axis of the ``step`` grid over ``[0, 1]^2``: the multiples of
    ``step`` below 1, then exactly 1.  The grid is this axis crossed with
    itself, ``p01`` major: ``(axis[:, None], axis)`` to a broadcasting
    :class:`LogObjective` call."""
    return np.append(np.arange(flip_axis_size(step) - 1) * step, 1.0)


#: :func:`optimize`'s start scan: the axis of the 0.1 grid.
_START = flip_axis(0.1)


def _eigenpairs(a: float, b: float, c: float):
    """Unit eigenvectors and eigenvalues of the symmetric ``[[a, b], [b, c]]``
    in closed form, largest first.  The eigenvalues are ``max(a, c)`` and
    ``min(a, c)`` moved apart by ``radius - |half|``, taken as a quotient so
    that nothing cancels; a diagonal matrix gives its entries exactly."""
    half = 0.5 * (a - c)
    radius = math.hypot(half, b)
    if b:
        shrink = b * (b / (radius + abs(half)))
        # of the two forms of the top eigenvector, the one with no cancellation
        x, y = (radius + half, b) if half >= 0.0 else (b, radius - half)
        norm = math.hypot(x, y)
        x, y = x / norm, y / norm
    else:
        shrink, (x, y) = 0.0, ((1.0, 0.0) if half >= 0.0 else (0.0, 1.0))
    return [((x, y), max(a, c) + shrink), ((-y, x), min(a, c) - shrink)]


def _newton_step(grad, hess, free) -> tuple[tuple[float, ...], float]:
    """The Newton step that maximises over the ``free`` coordinates, and
    the Newton decrement ``g.(-H)^+.g``, for a gradient of one or two
    floats, their Hessian as nested tuples, and one bool per coordinate.
    ``-H`` on the free coordinates is diagonalised in closed form (1x1 or
    2x2), and directions whose curvature is at most 1e-12 of the largest
    are left out."""
    idx = [i for i, f in enumerate(free) if f]
    g = [grad[i] for i in idx]
    if len(idx) == 2:
        pairs = _eigenpairs(-hess[0][0], -hess[0][1], -hess[1][1])
    else:
        pairs = [((1.0,), -hess[i][i]) for i in idx]
    cut = 1e-12 * max([w for _, w in pairs] + [0.0])
    step, decrement = [0.0] * len(grad), 0.0
    for v, w in pairs:
        if w > cut:
            coef = sum(vi * gi for vi, gi in zip(v, g))
            scaled = coef / w
            for i, vi in zip(idx, v):
                step[i] += vi * scaled
            decrement += coef * scaled
    return tuple(step), decrement


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
    its first point, ``p01`` major, within ``1e-12`` of the maximum starts
    projected Newton steps on the coordinates not held at a bound (a
    coordinate is held at 0 while its gradient is negative, at 1 while it
    is positive), each projected onto the box and backtracked until it
    meets the Armijo rule (1e-4).  The search stops when the Newton
    decrement is at most ``2e-12``, or when a step gains nothing, and
    raises ``ValueError`` after ``_MAX_STEPS`` steps.  The four-state
    objective is swap-symmetric, so a concave maximum lies on the
    diagonal, and the scan and the search there run on ``p01 = p10`` alone.
    The search runs on Python floats: each step is one
    :meth:`LogObjective.derivatives` call and a closed-form 1x1 or 2x2
    :func:`_newton_step`.

    ``value`` is :func:`~qbcsim.protocol.pass_probability` of the table of
    ``replace(objective, flips=best)``, so it equals what any command
    reports for that party; ``log_value`` is the kernel's log value there,
    which stays finite where ``value`` underflows to zero.
    """
    fn = LogObjective(variant, claimed, r, n_per_state, sigma_factor, objective)
    diagonal = variant is Variant.FOUR_STATE
    values = fn(_START, _START) if diagonal else fn(_START[:, None], _START)
    i = np.unravel_index(np.argmax(values >= values.max() - _TIE_LOG), values.shape)
    # search coordinates z in [0, 1]^d: the flip pair (z[0], z[-1])
    z = tuple(float(_START[k]) for k in i)

    def at(z: tuple[float, ...]):
        v, grad, hess = fn.derivatives(z[0], z[-1])
        if diagonal:  # derivatives of f(z, z)
            (g0, g1), ((h00, h01), (_, h11)) = grad, hess
            grad, hess = (g0 + g1,), (((h00 + h01) + (h01 + h11),),)
        return v, grad, hess

    v, grad, hess = at(z)
    evaluations = values.size + 1
    for _ in range(_MAX_STEPS):
        free = [not ((x <= 0.0 and g < 0.0) or (x >= 1.0 and g > 0.0))
                for x, g in zip(z, grad)]
        step, decrement = _newton_step(grad, hess, free)
        if decrement <= _DECREMENT:
            break
        t = 1.0
        for _ in range(40):
            trial = tuple(min(max(x + t * s, 0.0), 1.0) for x, s in zip(z, step))
            tv, t_grad, t_hess = at(trial)
            evaluations += 1
            ascent = sum(g * (y - x) for g, x, y in zip(grad, z, trial))
            if tv > v and tv - v >= 1e-4 * ascent:
                z, v, grad, hess = trial, tv, t_grad, t_hess
                break
            t *= 0.5
        else:
            break  # no step along the Newton direction gains anything
    else:
        raise ValueError(
            f"optimize did not converge in {_MAX_STEPS} Newton steps for the "
            f"{variant.value}-state protocol, claimed={claimed}, r={r!r}, "
            f"n_per_state={n_per_state}, sigma_factor={sigma_factor!r}, "
            f"objective={objective!r}"
        )

    flips = FlipParams(z[0], z[-1])
    return OptimizationResult(
        best=flips,
        value=pass_probability(fn.test, replace(objective, flips=flips).table(variant, claimed, r)),
        log_value=v,
        evaluations=evaluations,
        gap=decrement / 2.0,
    )
