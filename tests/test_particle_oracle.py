"""A per-particle physics oracle for the ``Honest``, ``BreidbartFlips``,
``IdealMultiPhoton`` and ``BeamSplitter`` tables.

The simulation reads no party table.  From ``qcore``'s state vectors and
bases alone it draws, for each particle:

- the sent state, uniformly among the variant's states;
- for a photon source of mean ``mu``, the detected pulse's photon number
  ``k``, from Poisson(``mu``) given ``k >= 1``;
- depolarisation: with probability ``r`` the particle becomes ``I/2``,
  which gives either outcome with probability 1/2 in any basis;
- otherwise the Born outcome of the pure state in the basis the party
  measures: the claimed observable for an honest committer (the
  computational basis for a claim of 0, the Hadamard basis with outcome 0
  on ``|->`` for a claim of 1), the Breidbart basis for a mid-basis one.
  An ideal multi-photon committer measures a single photon (``k = 1``) in
  the Breidbart basis and learns the claimed observable's outcome from a
  pulse of ``k >= 2``.  A beam-splitting committer's claimed set-up fires
  for ``k >= 2``; for ``k = 1`` it fires with probability 1/2, and a fair
  coin replaces the outcome otherwise;
- the flips of a Breidbart-basis outcome, for a mid-basis committer and a
  multi-photon one's single photons: a 0 becomes a 1 with probability
  ``p01`` and a 1 becomes a 0 with probability ``p10``;
- the revealed bit, which counts if it is the outcome ``build_test``
  tallies for the sent state.

Each state's tallied frequency is compared by z-score with the tallied
probability ``build_test(...).tallied`` reads from the party's table.
"""

import math

import numpy as np
import pytest

from qbcsim import qcore
from qbcsim.protocol import Variant, build_test
from qbcsim.strategy import BeamSplitter, BreidbartFlips, FlipParams, Honest, IdealMultiPhoton

TWO = Variant.TWO_STATE
FOUR = Variant.FOUR_STATE

#: Mean particles per sent state: a standard error of at most 5e-4.
PARTICLES_PER_STATE = 10**6
#: Particles simulated at a time.
BATCH = 1 << 18
#: Largest accepted |z| over the whole grid.
Z_LIMIT = 5.0

KETS = {"0": qcore.KET_0, "1": qcore.KET_1, "+": qcore.KET_PLUS, "-": qcore.KET_MINUS}


def born_zero(basis: qcore.Basis, states) -> np.ndarray:
    """Per state, the Born probability of outcome 0 of ``basis``."""
    v0 = basis.v0
    return np.array([(KETS[s].a0 * v0.a0 + KETS[s].a1 * v0.a1) ** 2 for s in states])


def detected_photons(rng, mu: float, size: int) -> np.ndarray:
    """Photon numbers of ``size`` detected pulses: Poisson(``mu``) given ``k >= 1``."""
    k = rng.poisson(mu, size)
    while (empty := np.flatnonzero(k == 0)).size:
        k[empty] = rng.poisson(mu, empty.size)
    return k


def measurement(party, rng, size: int):
    """Per particle: whether the party measures it in the Breidbart basis
    (and then flips) rather than the claimed observable, and whether a
    coin replaces its outcome."""
    none = np.zeros(size, dtype=bool)
    if isinstance(party, Honest):
        return none, none
    if isinstance(party, BreidbartFlips):
        return ~none, none
    single = detected_photons(rng, party.mu, size) == 1
    if isinstance(party, IdealMultiPhoton):
        return single, none
    return none, single & (rng.random(size) < 0.5)


def simulate(variant: Variant, claimed: int, r: float, party, rng):
    """Per sent state, in ``variant.states`` order: the particles sent and
    those whose revealed bit is the tallied outcome."""
    states = variant.states
    counted = build_test(variant, claimed, r, 50).counted_outcome
    tallied_bit = np.array([counted[s] for s in states], dtype=np.int8)
    claimed_basis = qcore.COMPUTATIONAL if claimed == 0 else qcore.HADAMARD.swapped()
    honest_zero = born_zero(claimed_basis, states)
    breidbart_zero = born_zero(qcore.breidbart(), states)
    flips = getattr(party, "flips", FlipParams(0.0, 0.0))
    sent_total = np.zeros(len(states), dtype=np.int64)
    hits = np.zeros(len(states), dtype=np.int64)
    remaining = PARTICLES_PER_STATE * len(states)
    while remaining:
        size = min(BATCH, remaining)
        remaining -= size
        sent = rng.integers(len(states), size=size)
        mixed = rng.random(size) < r
        breidbart, coin = measurement(party, rng, size)
        pure = np.where(breidbart, breidbart_zero[sent], honest_zero[sent])
        zero = rng.random(size) < np.where(mixed | coin, 0.5, pure)
        flipped = breidbart & (rng.random(size) < np.where(zero, flips.p01, flips.p10))
        bit = (~zero ^ flipped).astype(np.int8)
        sent_total += np.bincount(sent, minlength=len(states))
        hits += np.bincount(sent[bit == tallied_bit[sent]], minlength=len(states))
    return sent_total, hits


@pytest.mark.parametrize(
    "variant, claimed, r, party",
    (
        (TWO, 0, 0.1, Honest()),
        (TWO, 1, 0.0, Honest()),
        (FOUR, 0, 0.1, Honest()),
        (FOUR, 1, 0.3, Honest()),
        (TWO, 0, 0.1, BreidbartFlips(FlipParams(0.0, 0.4897))),
        (TWO, 1, 0.2, BreidbartFlips(FlipParams(0.047, 0.4926))),
        (FOUR, 0, 0.1, BreidbartFlips(FlipParams(0.0659, 0.0659))),
        (FOUR, 1, 0.0, BreidbartFlips(FlipParams(0.0, 0.0))),
        (TWO, 0, 0.1, IdealMultiPhoton(0.2, FlipParams(0.0, 0.4926))),
        (FOUR, 1, 0.0, IdealMultiPhoton(1.0, FlipParams(0.047, 0.047))),
        (TWO, 0, 0.1, BeamSplitter(0.2)),
        (FOUR, 1, 0.0, BeamSplitter(1.0)),
        (TWO, 1, 0.2, BeamSplitter(1.0)),
        (FOUR, 0, 0.1, IdealMultiPhoton(0.2, FlipParams(0.0659, 0.0659))),
    ),
    ids=("two-honest", "two-honest-claim1", "four-honest", "four-honest-claim1",
         "two-flips", "two-flips-claim1", "four-flips", "four-breidbart-claim1",
         "two-ideal", "four-ideal-claim1", "two-beam-splitter", "four-beam-splitter-claim1",
         "two-beam-splitter-claim1", "four-ideal"),
)
def test_table_tallies_its_physics(variant, claimed, r, party):
    rng = np.random.default_rng(7)
    sent, hits = simulate(variant, claimed, r, party, rng)
    test = build_test(variant, claimed, r, 50)
    expected = test.tallied(party.table(variant, claimed, r))
    for s, count, hit in zip(variant.states, sent, hits):
        p = expected[s]
        se = math.sqrt(max(p * (1.0 - p), 1e-12) / count)
        z = (hit / count - p) / se
        assert abs(z) <= Z_LIMIT, (s, hit / count, p, z)
