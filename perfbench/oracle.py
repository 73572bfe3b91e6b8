"""Independent oracle for the benchmark's correctness checks.

Nothing here imports qbcsim.  Every probability is rebuilt from the
protocol's definitions:

* the outcome-0 probability of a state measured through an
  ``r``-depolarizing channel is ``(1 - r) * |<v0|s>|^2 + r/2``;
* the verifier tallies one outcome per sent state and accepts the tally
  when it lies in ``[ceil(mu - 3 sigma), floor(mu + 3 sigma)]`` of the
  honest binomial, clamped to ``[0, n]``;
* a window probability is ``logsumexp(binom.logpmf(k, n, p))`` over the
  window, so no check reuses ``protocol.binomial_window_probability``.

All results are natural logarithms, so nothing underflows.  Variants are
the strings ``"two"`` and ``"four"``; every function assumes a claimed
bit of 0, the only claim the benchmark exercises.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp
from scipy.stats import binom

SIGMA_FACTOR = 3.0

_COS2 = (2.0 + math.sqrt(2.0)) / 4.0  # cos^2(pi/8)
_SIN2 = (2.0 - math.sqrt(2.0)) / 4.0  # sin^2(pi/8)

#: Squared overlap of each sent state with the outcome-0 vector of the
#: commit-0 observable (|0>), of the mid-basis measurement
#: (cos(pi/8)|0> - sin(pi/8)|1>), and of the commit-1 observable (|->).
_Z2 = {"0": 1.0, "1": 0.0, "+": 0.5, "-": 0.5}
_MID2 = {"0": _COS2, "1": _SIN2, "+": _SIN2, "-": _COS2}
_MINUS2 = {"0": 0.5, "1": 0.5, "+": 0.0, "-": 1.0}

#: Outcome the verifier tallies for each sent state under a claim of 0.
TALLIED = {
    "two": {"0": 0, "+": 1},
    "four": {"0": 0, "1": 1, "+": 0, "-": 0},
}


def outcome0(a2: float, r: float) -> float:
    """Outcome-0 probability for squared overlap ``a2`` at noise ``r``."""
    return (1.0 - r) * a2 + 0.5 * r


def _tallied(variant: str, p0: dict) -> dict:
    return {s: p0[s] if t == 0 else 1.0 - p0[s] for s, t in TALLIED[variant].items()}


def honest_zero_probs(variant: str, r: float) -> dict:
    """``p(0 | s)`` of an honest committer to 0."""
    return {s: outcome0(_Z2[s], r) for s in TALLIED[variant]}


def honest(variant: str, r: float) -> dict:
    """Tallied-outcome probability of an honest committer to 0."""
    return _tallied(variant, honest_zero_probs(variant, r))


def committed_one(variant: str, r: float) -> dict:
    """Tallied-outcome probability (of the commit-0 test) for an honest
    committer to 1, who measures with outcome 0 on ``|->``."""
    return _tallied(variant, {s: outcome0(_MINUS2[s], r) for s in TALLIED[variant]})


def flipped(variant: str, r: float, p01, p10) -> dict:
    """Mid-basis measurement followed by the flip kernel; ``p01`` and
    ``p10`` may be arrays."""
    p0 = {}
    for s in TALLIED[variant]:
        raw = outcome0(_MID2[s], r)
        p0[s] = raw * (1.0 - p01) + (1.0 - raw) * p10
    return _tallied(variant, p0)


def ideal_multiphoton(variant: str, r: float, mu: float, p01, p10) -> dict:
    """Poisson source: single-photon pulses fall back to the flipped
    mid-basis strategy, multi-photon pulses reveal the state."""
    e = math.exp(-mu)
    single, multi, norm = mu * e, 1.0 - e - mu * e, 1.0 - e
    hon = honest(variant, r)
    flip = flipped(variant, r, p01, p10)
    return {s: (single * flip[s] + multi * hon[s]) / norm for s in hon}


def beam_splitter(variant: str, r: float, mu: float) -> dict:
    """Every pulse split between both set-ups; a single photon that hit
    the wrong one is replaced by a coin flip."""
    w = 0.5 * mu * math.exp(-mu) / (1.0 - math.exp(-mu))
    return {s: (1.0 - w) * p + 0.5 * w for s, p in honest(variant, r).items()}


def window(n: int, p: float) -> tuple[int, int]:
    """The verifier's acceptance window for honest probability ``p``."""
    mu = n * p
    sigma = math.sqrt(n * p * (1.0 - p))
    lo = max(0, math.ceil(mu - SIGMA_FACTOR * sigma))
    hi = min(n, math.floor(mu + SIGMA_FACTOR * sigma))
    return lo, hi


def log_window(n: int, p, lo: int, hi: int):
    """``log P(lo <= X <= hi)`` for ``X ~ Binomial(n, p)``; ``p`` may be
    an array, and the result then has its shape."""
    p = np.asarray(p, dtype=np.float64)
    lo, hi = max(lo, 0), min(hi, n)
    if lo > hi:
        return np.full(p.shape, -np.inf)[()]
    k = np.arange(lo, hi + 1)
    with np.errstate(divide="ignore"):
        return logsumexp(binom.logpmf(k, n, p[..., None]), axis=-1)[()]


def log_pass(variant: str, r: float, n: int, tallied: dict):
    """Log probability that tallies distributed per ``tallied`` pass
    every window of the commit-0 test."""
    total = 0.0
    for s, p_honest in honest(variant, r).items():
        lo, hi = window(n, p_honest)
        total = total + log_window(n, tallied[s], lo, hi)
    return total


def objective(variant: str, r: float, n: int, mu: float | None, p01, p10):
    """Log pass probability of the flipped strategy (single-photon when
    ``mu`` is None, ideal multi-photon otherwise)."""
    if mu is None:
        tallied = flipped(variant, r, p01, p10)
    else:
        tallied = ideal_multiphoton(variant, r, mu, p01, p10)
    return log_pass(variant, r, n, tallied)


def grid_max(variant: str, r: float, n: int, mu: float | None, step: float = 0.01):
    """Best ``(log value, p01, p10)`` on the ``step`` grid over [0, 1]^2."""
    axis = np.minimum(1.0, np.arange(round(1.0 / step) + 1) * step)
    p01, p10 = (a.ravel() for a in np.meshgrid(axis, axis, indexing="ij"))
    values = objective(variant, r, n, mu, p01, p10)
    i = int(np.argmax(values))
    return float(values[i]), float(p01[i]), float(p10[i])


def max_safe_km(alpha: float) -> float:
    """Fibre length at which an honest party sees half the detections of
    a source-side cheater: ``(10 / alpha) * log10(2)``."""
    return 10.0 / alpha * math.log10(2.0)
