"""Channel-loss and photon-source attacks on the commitment protocols.

Two families are modelled here.  The faking-distance attack exploits
expected fibre loss: a committer sitting next to the verifier while
claiming a remote location measures both observables on disjoint halves
of the pulses and later reveals whichever half suits her, padding with
random outcomes where needed; its strategy type is :class:`FakedDistance`.
Her padding flips her low-noise honest outcomes symmetrically, through
:func:`~qbcsim.strategy.apply_flips`, the one flip kernel of every party.
The multi-photon attacks exploit a weak Poisson source: pulses carrying
two or more photons can be split and measured in both observables at
once, pinning down the sent state.  Their strategy types live in
:mod:`qbcsim.strategy`; the functions here wrap their tables.
Only the tables import :mod:`qbcsim.protocol` and :mod:`qbcsim.strategy`,
when they are built, so the distance bounds load without NumPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only; the tables import these on use
    from .protocol import ConditionalTable, Variant
    from .strategy import FlipParams


@dataclass(frozen=True)
class DistanceScenario:
    """Noise levels of the claimed remote location and the cheater's
    actual nearby one."""

    r_distant: float
    r_near: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.r_near <= self.r_distant <= 1.0:
            raise ValueError(
                "need 0 <= r_near <= r_distant <= 1, got "
                f"r_near={self.r_near!r}, r_distant={self.r_distant!r}"
            )


def max_safe_distance(alpha: float) -> float:
    """Fibre length (km) beyond which an honest party detects at most
    half of what a source-side cheater would: ``(10/alpha) * log10(2)``.

    This is the 50%-loss length.  Which side of it the reveal-half-the-data
    attack works on is an open question; see
    :func:`max_safe_distance_noisy`.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    return (10.0 / alpha) * math.log10(2.0)


def max_safe_distance_noisy(alpha: float, scenario: DistanceScenario) -> float | None:
    """Maximum safe fibre length when the cheater also enjoys a noise
    advantage (``r_near < r_distant``).

    Returns ``(10/alpha) * [log10(2) + log10(1 - (r_d - r_n)/(1 - r_d))]``,
    which reduces to :func:`max_safe_distance` at ``r_d == r_n``.  Where
    that is negative (``(1 + 2 r_n)/3 < r_d``), no positive length is safe
    and the result is ``0.0``, as :func:`max_safe_distance` gives for an
    infinite ``alpha``.  Returns ``None`` when ``r_d >= (r_n + 1)/2``: the noise gap
    is then so large that the cheater can always fake her statistics and no
    safe distance exists.  Whether this bound or :class:`FakedDistance`'s
    table models the attack is an open question: the two disagree about
    which side of the 50%-loss length it works on.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    r_d, r_n = scenario.r_distant, scenario.r_near
    if r_d >= (r_n + 1.0) / 2.0:
        return None
    gap = (r_d - r_n) / (1.0 - r_d)
    return max(0.0, (10.0 / alpha) * (math.log10(2.0) + math.log10(1.0 - gap)))


@dataclass(frozen=True)
class FakedDistance:
    """Claim a remote location and reveal the favourable half; the table
    uses the scenario's noise levels, not ``r``."""

    scenario: DistanceScenario
    length_km: float
    alpha: float

    def __post_init__(self) -> None:
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")
        if not self.length_km >= 0.0:
            raise ValueError(f"length_km must be non-negative, got {self.length_km!r}")

    def table(self, variant: Variant, claimed: int, r: float) -> ConditionalTable:
        """Revealed-outcome statistics of the faking-distance cheater.

        The cheater fills half of the expected tally with her own low-noise
        (``r_near``) measurements and pads the remaining fraction
        ``delta = 1/2 - 10**(-alpha*L/10)`` with fair coin flips, giving each
        row ``(p_near/2 + delta/2) / (1/2 + delta)``: the ``r_near`` honest
        row through symmetric flips with probability
        ``delta / (2*(1/2 + delta))``.

        Raises ``ValueError`` when ``delta < 0`` (claimed distance short of
        the 50%-loss length): the cheater cannot even fill the expected count
        and the attack degenerates to honest play.
        """
        from .protocol import honest_table
        from .strategy import FlipParams, apply_flips

        alpha, length_km = self.alpha, self.length_km
        # nothing is lost over 0 km, even at infinite attenuation (inf * 0 is nan)
        loss_db = alpha * length_km if length_km > 0.0 else 0.0
        delta = 0.5 - 10.0 ** (-loss_db / 10.0)
        if delta < -1e-12:
            raise ValueError(
                f"claimed length {length_km!r} km is below the 50%-loss distance "
                f"{max_safe_distance(alpha)!r} km; the attack does not apply"
            )
        delta = max(delta, 0.0)  # length exactly at the boundary rounds to zero padding
        w = delta / (2.0 * (0.5 + delta))
        near = honest_table(variant, claimed, self.scenario.r_near)
        return apply_flips(near, FlipParams(w, w))


class MultiPhotonMode(Enum):
    """How the cheater exploits an imperfect single-photon source."""

    #: Split multi-photon pulses, measure single-photon pulses mid-basis.
    IDEAL = "ideal"
    #: Beam-split every pulse; add coin flips where the wrong observable fired.
    BEAM_SPLITTER = "beam-splitter"


def ideal_multiphoton_table(
    variant: Variant,
    claimed: int,
    r: float,
    mu: float,
    flips: FlipParams,
) -> ConditionalTable:
    """Revealed statistics of :class:`~qbcsim.strategy.IdealMultiPhoton`."""
    from .strategy import IdealMultiPhoton

    return IdealMultiPhoton(mu, flips).table(variant, claimed, r)


def beam_splitter_table(
    variant: Variant, claimed: int, r: float, mu: float
) -> ConditionalTable:
    """Revealed statistics of :class:`~qbcsim.strategy.BeamSplitter`."""
    from .strategy import BeamSplitter

    return BeamSplitter(mu).table(variant, claimed, r)


def multiphoton_success(
    variant: Variant,
    claimed: int,
    r: float,
    n_per_state: int,
    sigma_factor: float,
    mu: float,
    flips: FlipParams,
    mode: MultiPhotonMode,
) -> float:
    """Pass probability of the selected photon-source attack against the
    honest acceptance test.  ``flips`` is ignored in beam-splitter mode,
    which has no tunable parameters."""
    from .protocol import build_test, pass_probability
    from .strategy import BeamSplitter, IdealMultiPhoton

    if mode is MultiPhotonMode.IDEAL:
        party = IdealMultiPhoton(mu, flips)
    else:
        party = BeamSplitter(mu)
    table = party.table(variant, claimed, r)
    test = build_test(variant, claimed, r, n_per_state, sigma_factor)
    return pass_probability(test, table)
