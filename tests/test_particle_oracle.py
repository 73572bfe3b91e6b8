"""A per-particle physics oracle for the ``Honest`` and ``BreidbartFlips``
tables.

The simulation reads no party table.  From ``qcore``'s state vectors and
bases alone it draws, for each particle:

- the sent state, uniformly among the variant's states;
- depolarisation: with probability ``r`` the particle becomes ``I/2``,
  which gives either outcome with probability 1/2 in any basis;
- otherwise the Born outcome of the pure state in the basis the party
  measures: the claimed observable for an honest committer (the
  computational basis for a claim of 0, the Hadamard basis with outcome 0
  on ``|->`` for a claim of 1), the Breidbart basis for a mid-basis one;
- the flips of a mid-basis committer: a 0 becomes a 1 with probability
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
from qbcsim.strategy import BreidbartFlips, FlipParams, Honest

TWO = Variant.TWO_STATE
FOUR = Variant.FOUR_STATE

#: Mean particles per sent state: a standard error of at most 5e-4.
PARTICLES_PER_STATE = 10**6
#: Particles simulated at a time.
BATCH = 1 << 18
#: Largest accepted |z| over the whole grid.
Z_LIMIT = 5.0

KETS = {"0": qcore.KET_0, "1": qcore.KET_1, "+": qcore.KET_PLUS, "-": qcore.KET_MINUS}


def measured_basis(party, claimed: int) -> qcore.Basis:
    """The basis the party measures every particle in."""
    if isinstance(party, Honest):
        return qcore.COMPUTATIONAL if claimed == 0 else qcore.HADAMARD.swapped()
    return qcore.breidbart()


def simulate(variant: Variant, claimed: int, r: float, party, rng):
    """Per sent state, in ``variant.states`` order: the particles sent and
    those whose revealed bit is the tallied outcome."""
    states = variant.states
    counted = build_test(variant, claimed, r, 50).counted_outcome
    tallied_bit = np.array([counted[s] for s in states], dtype=np.int8)
    v0 = measured_basis(party, claimed).v0
    amplitude = np.array([KETS[s].a0 * v0.a0 + KETS[s].a1 * v0.a1 for s in states])
    born_zero = amplitude**2
    p01, p10 = (party.flips.p01, party.flips.p10) if isinstance(party, BreidbartFlips) else (0, 0)
    sent_total = np.zeros(len(states), dtype=np.int64)
    hits = np.zeros(len(states), dtype=np.int64)
    remaining = PARTICLES_PER_STATE * len(states)
    while remaining:
        size = min(BATCH, remaining)
        remaining -= size
        sent = rng.integers(len(states), size=size)
        mixed = rng.random(size) < r
        zero = rng.random(size) < np.where(mixed, 0.5, born_zero[sent])
        flipped = rng.random(size) < np.where(zero, p01, p10)
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
    ),
    ids=("two-honest", "two-honest-claim1", "four-honest", "four-honest-claim1",
         "two-flips", "two-flips-claim1", "four-flips", "four-breidbart-claim1"),
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
