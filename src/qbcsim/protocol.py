"""Honest-party statistics and the verifier's binomial acceptance test.

The committer measures one of two observables on every particle the
verifier sends and later reveals the outcomes.  The verifier checks,
separately for each sent state, that the tallied outcome count falls
inside a ``mu +/- k*sigma`` window of the honest binomial distribution,
and accepts only if every window test passes.

Two protocol variants are supported: the two-state one (verifier sends
``|0>`` or ``|+>``) and the four-state one (``|0>``, ``|1>``, ``|+>``,
``|->``).  Everything here is a pure function of its arguments.
"""

from __future__ import annotations

import math
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

    ``entries`` maps ``(state label, outcome)`` to a probability; the two
    entries of every state sum to one.
    """

    states: tuple[str, ...]
    entries: Mapping[tuple[str, int], float]

    def __post_init__(self) -> None:
        for s in self.states:
            if (s, 0) not in self.entries or (s, 1) not in self.entries:
                raise ValueError(f"missing entries for state {s!r}")
            p0, p1 = self.entries[(s, 0)], self.entries[(s, 1)]
            for p in (p0, p1):
                if not -_ATOL <= p <= 1.0 + _ATOL:
                    raise ValueError(f"probability out of range for state {s!r}: {p!r}")
            if abs(p0 + p1 - 1.0) > _ATOL:
                raise ValueError(f"row for state {s!r} does not sum to 1: {p0 + p1!r}")

    @classmethod
    def from_zero_probs(
        cls, states: tuple[str, ...], p_zero: Mapping[str, float]
    ) -> ConditionalTable:
        """Build a table from the outcome-0 probability of each state."""
        entries: dict[tuple[str, int], float] = {}
        for s in states:
            p0 = p_zero[s]
            entries[(s, 0)] = p0
            entries[(s, 1)] = 1.0 - p0
        return cls(tuple(states), entries)

    def prob(self, state: str, outcome: int) -> float:
        return self.entries[(state, outcome)]


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
    p_zero = {s: born(obs, STATE_VECTORS[s], r) for s in variant.states}
    return ConditionalTable.from_zero_probs(variant.states, p_zero)


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
#: whatever the window width.
_BLOCK = 1 << 14


@lru_cache(maxsize=256)
def _log_binomial_coefficients(n: int, lo: int, hi: int) -> np.ndarray:
    """``log C(n, k)`` for ``k = lo..hi``; read-only, as callers share it."""
    lg = math.lgamma
    lg_n1 = lg(n + 1)
    out = np.array([lg_n1 - lg(k + 1) - lg(n - k + 1) for k in range(lo, hi + 1)])
    out.flags.writeable = False
    return out


def binomial_window_probability(n: int, p: float, lo: int, hi: int) -> float:
    """``P(lo <= X <= hi)`` for ``X ~ Binomial(n, p)``.

    Terms are formed in the log domain (log-gamma coefficients) and
    accumulated with compensated summation, so the sum stays accurate up
    to ``n ~ 1e5`` where naive factorials overflow.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p!r}")
    lo, hi = max(lo, 0), min(hi, n)
    if lo > hi:
        return 0.0
    if p == 0.0:
        return 1.0 if lo == 0 else 0.0
    if p == 1.0:
        return 1.0 if hi == n else 0.0
    k = np.arange(lo, hi + 1, dtype=np.float64)
    logs = (
        _log_binomial_coefficients(n, lo, hi)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )
    return min(1.0, math.fsum(np.exp(logs).tolist()))


def log_binomial_window(n: int, p: np.ndarray, lo, hi) -> np.ndarray:
    """``log P(lo <= X <= hi)`` for ``X ~ Binomial(n, p)``, elementwise over
    the array ``p``.

    ``lo`` and ``hi`` are integers, or integer arrays of one window per
    entry of ``p``'s last axis, so every sent state's window is summed in
    one call.  The log terms are those of :func:`binomial_window_probability`;
    they are combined by a log-sum-exp shifted by the largest term in the
    window (the binomial mode ``floor((n + 1) p)`` clipped into it), so the
    result stays finite where the probability itself underflows.  ``p`` of
    exactly 0 or 1 puts all mass on ``k = 0`` or ``k = n`` and is handled
    without forming ``0 * log(0)``.
    """
    shape, p, w = _stacked(n, p, lo, hi)
    inner, q, log_q, log_1mq = _interior_points(p, w)
    log_f = _log_window_interior(n, q, log_q, log_1mq, w)
    return np.where(inner, log_f, np.where(p == 0.0, *w.limits[:, 0])).reshape(shape)


class _Windows(NamedTuple):
    """Read-only constants of S windows ``[lo, hi]`` clamped into ``0..n``,
    in the shapes noted; an empty window is summed as the stand-in
    ``[0, 0]``, and its limits make it ``-inf``."""

    filled: np.ndarray  # the window is not empty
    lo: np.ndarray  # (S, 1)
    hi: np.ndarray  # (S, 1)
    logc: np.ndarray  # (S, W): log C(n, k), padded with -inf to the widest window
    k: np.ndarray  # (S, W): the counts k of logc
    offset: np.ndarray  # (S, 1): log C(n, k) is logc.flat[k + offset]
    ends: np.ndarray  # (2, 1, S): k = lo - 1 and k = hi
    rest: np.ndarray  # (2, 1, S): n - 1 - ends
    log_below: np.ndarray  # (2, 1, S): log C(n - 1, ends), -inf off 0..n-1
    limits: np.ndarray  # (2, 3, 1, S): (log F, d1, d2) at p = 0 and at p = 1


@lru_cache(maxsize=256)
def _windows(n: int, lo: tuple[int, ...], hi: tuple[int, ...]) -> _Windows:
    """The :class:`_Windows` of ``Binomial(n)`` windows ``[lo[i], hi[i]]``,
    built from :func:`_log_binomial_coefficients`."""
    lo = [max(a, 0) for a in lo]
    hi = [min(b, n) for b in hi]
    filled = [a <= b for a, b in zip(lo, hi)]
    lo, hi = ([x if f else 0 for x, f in zip(v, filled)] for v in (lo, hi))
    width = max(b - a for a, b in zip(lo, hi)) + 1
    logc = np.full((len(lo), width), -np.inf)
    for row, a, b in zip(logc, lo, hi):
        row[: b - a + 1] = _log_binomial_coefficients(n, a, b)
    ends = np.array([[a - 1 for a in lo], hi])
    lg = math.lgamma
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
        lo=np.array(lo)[:, None],
        hi=np.array(hi)[:, None],
        logc=logc,
        k=np.add.outer(lo, np.arange(width)).astype(np.float64),
        offset=(np.arange(len(lo)) * width - np.array(lo))[:, None],
        ends=ends[:, None, :].astype(np.float64),
        rest=(n - 1 - ends)[:, None, :].astype(np.float64),
        log_below=np.array(log_below)[:, None, :],
        limits=np.array(at, dtype=np.float64).transpose(0, 2, 1)[:, :, None, :],
    )
    for array in table:
        array.flags.writeable = False
    return table


def _stacked(n: int, p, lo, hi) -> tuple[tuple[int, ...], np.ndarray, _Windows]:
    """The shape of ``p``, ``p`` as a (points, windows) array, and the
    windows' constants."""
    p = np.asarray(p, dtype=np.float64)
    if not ((p >= 0.0) & (p <= 1.0)).all():
        raise ValueError("probabilities must lie in [0, 1]")
    w = _windows(n, tuple(np.ravel(lo).tolist()), tuple(np.ravel(hi).tolist()))
    if np.ndim(lo) and p.shape[-1:] != w.filled.shape:
        raise ValueError(f"p needs one entry per window on its last axis, has shape {p.shape}")
    return p.shape, p.reshape(-1, w.filled.size), w


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
        mode = mode.astype(np.intp)
        shift = flat[mode + w.offset] + mode * lq + (n - mode) * l1q
        total = 0.0
        for c in range(0, width, chunk):
            t = slice(c, c + chunk)
            terms = w.logc[:, t] + w.k[:, t] * lq
            terms += (n - w.k[:, t]) * l1q
            terms -= shift
            np.exp(terms, out=terms)
            total = total + terms.sum(axis=-1)
        out[block] = shift[..., 0] + np.log(total)
    return np.minimum(0.0, out)


def log_binomial_window_derivatives(
    n: int, p: np.ndarray, lo, hi
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`log_binomial_window` and its first and second derivatives in
    ``p``, as ``(log_f, d1, d2)``; ``lo`` and ``hi`` are integers or one
    window per entry of ``p``'s last axis, as there.

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
    shape, p, w = _stacked(n, p, lo, hi)
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
        lost = ~np.isfinite(d2)
        if lost.any():
            s = q * (1.0 - q)
            ratio_s = np.exp(log_ratio + log_q + log_1mq)
            d1_s = n * (ratio_s[0] - ratio_s[1])
            ru_s = ratio_s * (w.ends - (n - 1) * q)
            d2 = np.where(lost, (n * (ru_s[0] - ru_s[1]) - d1_s * d1_s) / s / s, d2)
    edge = np.where(p == 0.0, *w.limits)
    return tuple(
        np.where(inner, v, e).reshape(shape) for v, e in zip((log_f, d1, d2), edge)
    )


def pass_factors(test: AcceptanceTest, actual: ConditionalTable) -> dict[str, float]:
    """Per-state probability that the tallied count lands in its window,
    when the revealed outcomes are distributed per ``actual``."""
    return {
        s: binomial_window_probability(test.n_per_state, p, *test.windows[s])
        for s, p in test.tallied(actual).items()
    }


def pass_probability(test: AcceptanceTest, actual: ConditionalTable) -> float:
    """Probability of passing every window test: the product of the
    per-state factors (counts for different sent states are independent).

    ``actual`` must cover every state the test windows refer to.
    """
    return math.prod(pass_factors(test, actual).values())


def log_pass_probability(test: AcceptanceTest, actual: ConditionalTable) -> float:
    """Natural log of :func:`pass_probability`: the sum of every state's
    :func:`log_binomial_window`, taken in one call, which stays finite
    where the product underflows to 0."""
    p = np.array(list(test.tallied(actual).values()))
    lo, hi = np.array(list(test.windows.values())).T
    return float(log_binomial_window(test.n_per_state, p, lo, hi).sum())


def binding_failure(
    variant: Variant, r: float, n_per_state: int, sigma_factor: float = 3.0
) -> float:
    """Probability that an honest committer to 1 passes the verifier's
    test for a commitment to 0: the statistical binding failure rate."""
    test = build_test(variant, 0, r, n_per_state, sigma_factor)
    return pass_probability(test, honest_table(variant, 1, r))
