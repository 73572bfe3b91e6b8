"""Honest-party statistics and the verifier's binomial acceptance test.

The committer measures one of two observables on every particle the
verifier sends and later reveals the outcomes.  The verifier checks,
separately for each sent state, that the tallied outcome count falls
inside a ``mu +/- k*sigma`` window of the honest binomial distribution,
and accepts only if every window test passes.  Every window probability
is the exp of :func:`log_binomial_window`, the one window sum, taken for
all of a test's states in one stacked call.

Two protocol variants are supported: the two-state one (verifier sends
``|0>`` or ``|+>``) and the four-state one (``|0>``, ``|1>``, ``|+>``,
``|->``).  Everything here is a pure function of its arguments.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Mapping, NamedTuple

import numpy as np

from .qcore import (
    COMPUTATIONAL, HADAMARD, KET_0, KET_1, KET_MINUS, KET_PLUS, Basis, Qubit, born,
)

_ATOL = 1e-12

#: Largest accepted ``n_per_state``, checked before any window sum or
#: histogram is sized by it.
MAX_N_PER_STATE = 10**6

#: State label -> prepared state.
STATE_VECTORS: Mapping[str, Qubit] = {
    "0": KET_0,
    "1": KET_1,
    "+": KET_PLUS,
    "-": KET_MINUS,
}


class Variant(Enum):
    """Which set of states the verifier prepares."""

    TWO_STATE = "two"
    FOUR_STATE = "four"

    @property
    def states(self) -> tuple[str, ...]:
        if self is Variant.TWO_STATE:
            return ("0", "+")
        return ("0", "1", "+", "-")

    @property
    def state_count(self) -> int:
        return len(self.states)


def check_commitment(claimed: int) -> int:
    """Validate a commitment bit."""
    if claimed not in (0, 1):
        raise ValueError(f"commitment bit must be 0 or 1, got {claimed!r}")
    return claimed


def commit_observable(claimed: int) -> Basis:
    """The measurement an honest committer uses for the given bit.

    Committing to 0 measures in the computational basis (outcome 0 on
    ``|0>``, outcome 1 on ``|1>``).  Committing to 1 measures in the
    Hadamard basis with outcome 0 on ``|->`` and outcome 1 on ``|+>``,
    so that each deterministic state maps to a fixed outcome at zero
    noise in both variants.
    """
    check_commitment(claimed)
    return COMPUTATIONAL if claimed == 0 else HADAMARD.swapped()


@dataclass(frozen=True)
class ConditionalTable:
    """Outcome probabilities ``p(outcome | sent state)`` for one strategy.

    The committer's measurements have two outcomes, so a row is one
    number: ``p_zero[s]`` is ``p(0 | s)`` and ``p(1 | s)`` is
    ``1 - p_zero[s]``.
    """

    states: tuple[str, ...]
    p_zero: Mapping[str, float]

    def __post_init__(self) -> None:
        for s in self.states:
            if s not in self.p_zero:
                raise ValueError(f"missing entry for state {s!r}")
            p = self.p_zero[s]
            if not -_ATOL <= p <= 1.0 + _ATOL:
                raise ValueError(f"probability out of range for state {s!r}: {p!r}")

    def prob(self, state: str, outcome: int) -> float:
        p0 = self.p_zero[state]
        return {0: p0, 1: 1.0 - p0}[outcome]


def honest_table(variant: Variant, claimed: int, r: float) -> ConditionalTable:
    """Conditional outcome statistics of an honest committer.

    Parameters
    ----------
    variant : Variant
        Protocol variant (fixes the sent-state set).
    claimed : int
        Commitment bit; selects the measured observable.
    r : float
        Depolarizing-noise level in ``[0, 1]``.
    """
    obs = commit_observable(claimed)
    return ConditionalTable(
        variant.states, {s: born(obs, STATE_VECTORS[s], r) for s in variant.states}
    )


def counted_outcomes(variant: Variant, claimed: int) -> dict[str, int]:
    """Which outcome the verifier tallies for each sent state.

    Wherever the claimed observable is deterministic at zero noise the
    deterministic outcome is tallied.  For states with coin-flip honest
    statistics the window is symmetric and the choice is inert; the fixed
    convention is: the two-state protocol tallies 1s for ``|+>`` under
    either claim (and 1s for ``|0>`` under a claim of 1), the four-state
    protocol tallies 0s for ``|0>``, 1s for ``|1>``, and 0s for ``|+->``
    under a claim of 0.
    """
    check_commitment(claimed)
    if variant is Variant.TWO_STATE:
        return {"0": 0, "+": 1} if claimed == 0 else {"0": 1, "+": 1}
    if claimed == 0:
        return {"0": 0, "1": 1, "+": 0, "-": 0}
    return {"0": 0, "1": 1, "+": 1, "-": 0}


def _check_n_per_state(n_per_state: int) -> None:
    if not 1 <= n_per_state <= MAX_N_PER_STATE:
        raise ValueError(
            f"n_per_state must lie in [1, {MAX_N_PER_STATE}], got {n_per_state!r}"
        )


@dataclass(frozen=True)
class AcceptanceTest:
    """Per-state integer count windows the verifier checks at reveal time.

    ``windows[s]`` is the inclusive ``[lo, hi]`` range the tally of
    ``counted_outcome[s]`` must fall in when state ``s`` was sent.
    """

    n_per_state: int
    windows: Mapping[str, tuple[int, int]]
    counted_outcome: Mapping[str, int]

    def __post_init__(self) -> None:
        _check_n_per_state(self.n_per_state)
        for s, (lo, hi) in self.windows.items():
            if not 0 <= lo <= hi <= self.n_per_state:
                raise ValueError(f"invalid window for state {s!r}: [{lo}, {hi}]")
            if self.counted_outcome.get(s) not in (0, 1):
                raise ValueError(f"missing counted outcome for state {s!r}")

    def tallied(self, table: ConditionalTable) -> dict[str, float]:
        """Per window state, in window order, the probability ``table`` gives the
        tallied outcome, clipped to [0, 1]: tables admit an ulp of rounding slack."""
        return {
            s: min(1.0, max(0.0, table.prob(s, self.counted_outcome[s])))
            for s in self.windows
        }


def build_test(
    variant: Variant,
    claimed: int,
    r: float,
    n_per_state: int,
    sigma_factor: float = 3.0,
) -> AcceptanceTest:
    """Acceptance windows derived from the honest statistics.

    For each sent state, with ``p`` the honest probability of the tallied
    outcome, the window is ``[ceil(mu - k*sigma), floor(mu + k*sigma)]``
    clamped to ``[0, N]``, where ``mu = N*p`` and
    ``sigma = sqrt(N*p*(1-p))``.
    """
    _check_n_per_state(n_per_state)
    if not 0.0 < sigma_factor < math.inf:
        raise ValueError(f"sigma_factor must be positive and finite, got {sigma_factor!r}")
    honest = honest_table(variant, claimed, r)
    counted = counted_outcomes(variant, claimed)
    windows: dict[str, tuple[int, int]] = {}
    for s in variant.states:
        p = honest.prob(s, counted[s])
        mu = n_per_state * p
        sigma = math.sqrt(n_per_state * p * (1.0 - p))
        # each bound is clamped into [0, N] first, so a huge finite
        # sigma_factor whose product overflows gives the full window
        lo = math.ceil(min(max(mu - sigma_factor * sigma, 0.0), n_per_state))
        hi = math.floor(min(max(mu + sigma_factor * sigma, 0.0), n_per_state))
        if lo > hi:
            raise ValueError(
                f"empty acceptance window for state {s!r}: no count is within "
                f"sigma_factor={sigma_factor!r} sigma at n_per_state={n_per_state}"
            )
        windows[s] = (lo, hi)
    return AcceptanceTest(n_per_state, windows, counted)


#: Elements of the (points x terms) block that one step of
#: :func:`log_binomial_window` works on, so its scratch memory stays fixed
#: whatever the window width; a stacked call past one block sums each
#: window alone.
_BLOCK = 1 << 14


def binomial_window_probability(n: int, p: float, lo: int, hi: int) -> float:
    """``P(lo <= X <= hi)`` for ``X ~ Binomial(n, p)``: the exp of a
    one-window :func:`log_binomial_window` call."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p!r}")
    return math.exp(float(log_binomial_window(n, p, lo, hi)))


def log_binomial_window(n: int, p: np.ndarray, lo, hi) -> np.ndarray:
    """``log P(lo <= X <= hi)`` for ``X ~ Binomial(n, p)``, elementwise over
    the array ``p``.

    ``lo`` and ``hi`` are integers, or integer arrays that broadcast to one
    window per entry of ``p``'s last axis, so every sent state's window is
    summed in one call.  While the terms, padded to the widest window, fit
    in one ``_BLOCK`` (points x windows x widest window) they are summed
    together, as a block's fixed cost outweighs the padding; past one block
    each window is summed alone at its own width, where padding would only
    add ``exp`` terms.  The terms ``log C(n, k) + k log p + (n - k)
    log(1 - p)``, with log-gamma coefficients, are combined by a
    log-sum-exp shifted by the largest term in the window (the binomial
    mode ``floor((n + 1) p)`` clipped into it), so the result stays finite
    where the probability itself underflows.  ``p`` of exactly 0 or 1 puts
    all mass on ``k = 0`` or ``k = n`` and is handled without forming
    ``0 * log(0)``.
    """
    shape, p, w, ends = _stacked(n, p, lo, hi)
    if w.filled.size > 1 and p.size * w.logc.shape[1] > _BLOCK:
        log_f = np.empty_like(p)
        for s, (a, b) in enumerate(zip(*(e.ravel().tolist() for e in ends))):
            log_f[:, s] = log_binomial_window(n, p[:, s], a, b)
        return log_f.reshape(shape)
    inner, q, log_q, log_1mq = _interior_points(p, w)
    log_f = _log_window_interior(n, q, log_q, log_1mq, w)
    return np.where(inner, log_f, np.where(p == 0.0, *w.limits[:, 0])).reshape(shape)


class _Windows(NamedTuple):
    """Read-only constants of S windows ``[lo, hi]`` clamped into ``0..n``,
    in the shapes noted; an empty window is summed as the stand-in
    ``[0, 0]``, and its limits make it ``-inf``."""

    filled: np.ndarray  # the window is not empty
    lo: np.ndarray  # (S, 1), as floats
    hi: np.ndarray  # (S, 1), as floats
    logc: np.ndarray  # (S, W): log C(n, k), padded with -inf to the widest window
    k: np.ndarray  # (S, W): the counts k of logc
    rest_k: np.ndarray  # (S, W): n - k
    offset: np.ndarray  # (S, 1): log C(n, k) is logc.flat[k + offset]
    ends: np.ndarray  # (2, 1, S): k = lo - 1 and k = hi
    rest: np.ndarray  # (2, 1, S): n - 1 - ends
    log_below: np.ndarray  # (2, 1, S): log C(n - 1, ends), -inf off 0..n-1
    limits: np.ndarray  # (2, 3, 1, S): (log F, d1, d2) at p = 0 and at p = 1


@lru_cache(maxsize=256)
def _windows(n: int, lo: tuple[int, ...], hi: tuple[int, ...]) -> _Windows:
    """The :class:`_Windows` of ``Binomial(n)`` windows ``[lo[i], hi[i]]``."""
    lo = [max(a, 0) for a in lo]
    hi = [min(b, n) for b in hi]
    filled = [a <= b for a, b in zip(lo, hi)]
    lo, hi = ([x if f else 0 for x, f in zip(v, filled)] for v in (lo, hi))
    width = max(b - a for a, b in zip(lo, hi)) + 1
    lg = math.lgamma
    logc = np.full((len(lo), width), -np.inf)
    for row, a, b in zip(logc, lo, hi):
        row[: b - a + 1] = [lg(n + 1) - lg(k + 1) - lg(n - k + 1) for k in range(a, b + 1)]
    ends = np.array([[a - 1 for a in lo], hi])
    log_below = [
        [lg(n) - lg(j + 1) - lg(n - j) if 0 <= j <= n - 1 else -np.inf for j in row]
        for row in ends.tolist()
    ]

    def limits(f: bool, passes: bool, k: int, sign: int) -> tuple[float, float, float]:
        # one-sided limits at an edge; they depend only on whether k, the
        # window's distance from that edge's count, is 0 or 1
        if not (f and passes):
            return -np.inf, np.nan, np.nan
        e1 = sign * n * (k == 0)
        return 0.0, e1, n * (n - 1) * ((k == 0) - (k == 1)) - e1 * e1

    at = [
        [limits(f, a == 0, b, -1) for f, a, b in zip(filled, lo, hi)],
        [limits(f, b == n, n - a, 1) for f, a, b in zip(filled, lo, hi)],
    ]
    table = _Windows(
        filled=np.array(filled),
        lo=np.array(lo, dtype=np.float64)[:, None],
        hi=np.array(hi, dtype=np.float64)[:, None],
        logc=logc,
        k=np.add.outer(lo, np.arange(width)).astype(np.float64),
        rest_k=(n - np.add.outer(lo, np.arange(width))).astype(np.float64),
        offset=(np.arange(len(lo)) * width - np.array(lo))[:, None],
        ends=ends[:, None, :].astype(np.float64),
        rest=(n - 1 - ends)[:, None, :].astype(np.float64),
        log_below=np.array(log_below)[:, None, :],
        limits=np.array(at, dtype=np.float64).transpose(0, 2, 1)[:, :, None, :],
    )
    for array in table:
        array.flags.writeable = False
    return table


def _stacked(n: int, p, lo, hi) -> tuple[tuple[int, ...], np.ndarray, _Windows, tuple]:
    """The shape of ``p``, ``p`` as a (points, windows) array, the
    windows' constants, and ``lo`` and ``hi`` broadcast together; the
    arguments are checked before anything is sized by them."""
    if not (isinstance(n, numbers.Integral) and 0 <= n <= MAX_N_PER_STATE):
        raise ValueError(f"n must be an integer in [0, {MAX_N_PER_STATE}], got {n!r}")
    try:
        ends = np.broadcast_arrays(lo, hi)
    except ValueError:
        raise ValueError(f"lo and hi must broadcast, got shapes {np.shape(lo)}, {np.shape(hi)}")
    for name, e in zip(("lo", "hi"), ends):
        if e.dtype.kind not in "iu":
            raise ValueError(f"{name} must be an integer or integer array, got {e.dtype}")
    p = np.asarray(p, dtype=np.float64)
    if not ((p >= 0.0) & (p <= 1.0)).all():
        raise ValueError("probabilities must lie in [0, 1]")
    w = _windows(n, *(tuple(e.ravel().tolist()) for e in ends))
    if ends[0].ndim and p.shape[-1:] != w.filled.shape:
        raise ValueError(f"p needs one entry per window on its last axis, has shape {p.shape}")
    return p.shape, p.reshape(-1, w.filled.size), w, ends


def _interior_points(p: np.ndarray, w: _Windows):
    """Where ``p`` is inside (0, 1) and its window not empty, and ``q``, the
    ``p`` there and 0.5 elsewhere, with ``log q`` and ``log(1 - q)``."""
    inner = (p > 0.0) & (p < 1.0) & w.filled
    q = np.where(inner, p, 0.5)
    return inner, q, np.log(q), np.log1p(-q)


def _log_window_interior(n: int, q, log_q, log_1mq, w: _Windows) -> np.ndarray:
    """:func:`log_binomial_window` of the (points, windows) array ``q``
    inside (0, 1), in blocks of at most ``_BLOCK`` terms per window."""
    count, width = w.logc.shape
    chunk = max(1, min(width, _BLOCK // count))
    rows = max(1, _BLOCK // (count * chunk))
    flat = w.logc.ravel()
    out = np.empty(q.shape)
    for a in range(0, q.shape[0], rows):
        block = slice(a, a + rows)
        lq, l1q = log_q[block, :, None], log_1mq[block, :, None]
        mode = np.minimum(np.maximum(np.floor((n + 1) * q[block, :, None]), w.lo), w.hi)
        shift = flat[mode.astype(np.intp) + w.offset] + mode * lq + (n - mode) * l1q
        total = 0.0
        for c in range(0, width, chunk):
            t = slice(c, c + chunk)
            terms = w.logc[:, t] + w.k[:, t] * lq
            terms += w.rest_k[:, t] * l1q
            terms -= shift
            np.exp(terms, out=terms)
            total = total + terms.sum(axis=-1)
        np.minimum(0.0, shift[..., 0] + np.log(total), out=out[block])
    return out


def log_binomial_window_derivatives(
    n: int, p: np.ndarray, lo, hi
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`log_binomial_window` and its first and second derivatives in
    ``p``, as ``(log_f, d1, d2)``; ``lo`` and ``hi`` are integers or one
    window per entry of ``p``'s last axis, as there, but every window is
    summed in one call whatever its size, as a Newton step needs one point.

    With ``F`` the window probability, ``F' = n*(b(lo-1) - b(hi))`` for the
    ``Binomial(n - 1, p)`` masses ``b``, and ``b'(k) = b(k)*u(k)`` with
    ``u(k) = k/p - (n-1-k)/(1-p)``.  So with ``A = b(lo-1)/F`` and
    ``B = b(hi)/F``, both formed in the log domain, ``d1 = n*(A - B)`` and
    ``d2 = n*(A*u(lo-1) - B*u(hi)) - d1**2``.  ``p`` of exactly 0 or 1
    uses the one-sided limits; where ``F`` is 0 both come back as nan.

    Near 0 or 1 the terms of ``d2`` can overflow where ``d2`` does not.
    There it is formed from ``A*s`` and ``B*s``, with ``s = p*(1-p)``,
    which are at most 1: ``u(k)*s = k - (n-1)*p``, so ``d2*s**2`` is the
    formula above with ``A*s``, ``B*s`` and ``u*s`` in place of ``A``, ``B``
    and ``u``.  A value past the float range comes back as the infinity of
    its limit: ``+-inf`` for ``d1``, and ``-inf`` for ``d2`` as ``log F``
    is concave.
    """
    shape, p, w, _ = _stacked(n, p, lo, hi)
    inner, q, log_q, log_1mq = _interior_points(p, w)
    log_f = _log_window_interior(n, q, log_q, log_1mq, w)
    # b(k; n-1, q)/F and u(k) at k = lo - 1 and k = hi; b is 0 off 0..n-1
    log_ratio = w.log_below + w.ends * log_q + w.rest * log_1mq - log_f
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = np.exp(log_ratio)
        u = w.ends / q - w.rest / (1.0 - q)
        d1 = n * (ratio[0] - ratio[1])
        ru = np.where(ratio == 0.0, 0.0, ratio * u)
        d2 = n * (ru[0] - ru[1]) - d1 * d1
        finite = np.isfinite(d2)
        if not finite.all():
            s = q * (1.0 - q)
            ratio_s = np.exp(log_ratio + log_q + log_1mq)
            d1_s = n * (ratio_s[0] - ratio_s[1])
            ru_s = ratio_s * (w.ends - (n - 1) * q)
            d2 = np.where(finite, d2, (n * (ru_s[0] - ru_s[1]) - d1_s * d1_s) / s / s)
    edge = np.where(p == 0.0, *w.limits)
    return tuple(np.where(inner, (log_f, d1, d2), edge).reshape((3, *shape)))


def _log_pass_factors(test: AcceptanceTest, actual: ConditionalTable) -> np.ndarray:
    """Every window state's log window probability, in window order, when
    the revealed outcomes are distributed per ``actual``: one stacked
    :func:`log_binomial_window` call."""
    p = np.array(list(test.tallied(actual).values()))
    lo, hi = np.array(list(test.windows.values())).T
    return log_binomial_window(test.n_per_state, p, lo, hi)


def pass_factors(test: AcceptanceTest, actual: ConditionalTable) -> dict[str, float]:
    """Per-state probability that the tallied count lands in its window,
    when the revealed outcomes are distributed per ``actual``."""
    return dict(zip(test.windows, np.exp(_log_pass_factors(test, actual)).tolist()))


def pass_probability(test: AcceptanceTest, actual: ConditionalTable) -> float:
    """Probability of passing every window test: the product of the
    per-state factors (counts for different sent states are independent),
    taken as the exp of :func:`log_pass_probability`.

    ``actual`` must cover every state the test windows refer to.
    """
    return math.exp(log_pass_probability(test, actual))


def log_pass_probability(test: AcceptanceTest, actual: ConditionalTable) -> float:
    """Natural log of :func:`pass_probability`: the sum of every state's
    log window probability, which stays finite where the product
    underflows to 0."""
    return float(_log_pass_factors(test, actual).sum())


def binding_failure(
    variant: Variant, r: float, n_per_state: int, sigma_factor: float = 3.0
) -> float:
    """Probability that an honest committer to 1 passes the verifier's
    test for a commitment to 0: the statistical binding failure rate."""
    test = build_test(variant, 0, r, n_per_state, sigma_factor)
    return pass_probability(test, honest_table(variant, 1, r))
