"""Minimal real-plane qubit kernel.

All states used by the bit-commitment protocols lie in the real span of
the computational basis, so a state is a real unit two-vector and a
measurement is an orthonormal pair of such vectors.  White noise enters
only through the depolarizing channel, which is applied analytically
inside :func:`born` (the outcome probability is affine in the noise
level, so no density matrices are needed).

All functions here are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_ATOL = 1e-12


@dataclass(frozen=True)
class Qubit:
    """Pure qubit state ``a0|0> + a1|1>`` with real amplitudes."""

    a0: float
    a1: float

    def __post_init__(self) -> None:
        norm = self.a0 * self.a0 + self.a1 * self.a1
        if abs(norm - 1.0) > _ATOL:
            raise ValueError(f"amplitudes must be normalised, got |psi|^2 = {norm!r}")

    def overlap(self, other: Qubit) -> float:
        """Inner product ``<self|other>``."""
        return self.a0 * other.a0 + self.a1 * other.a1


@dataclass(frozen=True)
class Basis:
    """Two-outcome projective measurement; ``v0`` is the outcome-0 eigenvector."""

    v0: Qubit
    v1: Qubit

    def __post_init__(self) -> None:
        if abs(self.v0.overlap(self.v1)) > _ATOL:
            raise ValueError("basis vectors must be orthogonal")

    def swapped(self) -> Basis:
        """The same measurement with the outcome labels exchanged."""
        return Basis(self.v1, self.v0)


KET_0 = Qubit(1.0, 0.0)
KET_1 = Qubit(0.0, 1.0)
KET_PLUS = Qubit(math.sqrt(0.5), math.sqrt(0.5))
KET_MINUS = Qubit(math.sqrt(0.5), -math.sqrt(0.5))

COMPUTATIONAL = Basis(KET_0, KET_1)
HADAMARD = Basis(KET_PLUS, KET_MINUS)


def _check_noise(r: float) -> None:
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"noise level must lie in [0, 1], got {r!r}")


#: Few-ulp slack for recognising exactly parallel, orthogonal, or
#: mutually unbiased vector pairs from their rounded squared overlap.
_AMP2_SNAP = 5e-16


def born(basis: Basis, state: Qubit, r: float) -> float:
    """Probability of outcome 0 when measuring ``state`` through an
    ``r``-depolarizing channel.

    The channel keeps the state with probability ``1 - r`` and replaces
    it with the maximally mixed state otherwise, so the probability is
    ``(1 - r) * <v0|state>**2 + r/2``.  The outcome-1 probability is the
    complement.
    """
    _check_noise(r)
    amp = basis.v0.overlap(state)
    amp2 = amp * amp
    # Squared overlaps that are exactly 0, 1/2 or 1 must not drift by an
    # ulp: probability-1/2 outcomes feed acceptance windows whose edges
    # can sit on integers, where any drift breaks their symmetry.
    for anchor in (0.0, 0.5, 1.0):
        if abs(amp2 - anchor) <= _AMP2_SNAP:
            amp2 = anchor
            break
    # unit-norm slack can still push amp^2 slightly past 1
    return min(1.0, max(0.0, (1.0 - r) * amp2 + 0.5 * r))


def basis_at_angle(theta: float) -> Basis:
    """Measurement basis rotated by ``theta`` from the computational one."""
    c, s = math.cos(theta), math.sin(theta)
    return Basis(Qubit(c, s), Qubit(-s, c))


#: The :func:`breidbart` basis, built once.
BREIDBART = basis_at_angle(-math.pi / 8)


def breidbart() -> Basis:
    """The basis lying halfway between ``{|0>,|1>}`` and ``{|+>,|->}``:

        ``|b0> = cos(pi/8)|0> - sin(pi/8)|1>``
        ``|b1> = sin(pi/8)|0> + cos(pi/8)|1>``

    Measuring it is the minimum-error way to tell ``|0>`` from ``|+>``
    with a single projective measurement, and (by the symmetry of white
    noise) stays optimal for the depolarized versions of those states.
    It is the computational basis rotated by ``-pi/8``.
    """
    return BREIDBART


def helstrom_success(r: float) -> float:
    """Best achievable probability of discriminating ``|0>`` from ``|+>``
    (equal priors, one projective measurement) at noise level ``r``:
    ``1/2 + (1 - r) / (2 * sqrt(2))``.

    Equals the average of guessing ``|0>`` on outcome 0 and ``|+>`` on
    outcome 1 of the :func:`breidbart` measurement.
    """
    _check_noise(r)
    return 0.5 + (1.0 - r) / (2.0 * math.sqrt(2.0))
