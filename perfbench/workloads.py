"""The benchmark's workloads: fixed lists of public qbcsim calls, each
with the check that judges its output against the independent oracle.

A round runs every operation of a workload once.  ``Op.call`` is the
timed public call; ``Op.reduce`` turns its output into a hashable
result outside the timed interval; ``Op.check(result, oracle)`` returns
``None`` when the result is right, or ``(kind, message)`` where kind is
``FAILED`` (the known class of silent wrong optimum, counted against
``attempted``) or ``WRONG`` (any other wrong output, which makes the run
incorrect).  Only the Monte Carlo seed depends on ``--seed``.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass
from typing import Callable, Hashable

import numpy as np

from qbcsim import cli, mcsim, strategy
from qbcsim.protocol import Variant
from qbcsim.strategy import FlipParams

FAILED, WRONG = "failed", "wrong"

VARIANTS = {"two": Variant.TWO_STATE, "four": Variant.FOUR_STATE}

#: Paper's optimal flip pairs at r = 0.1, m/2 particles per state, for
#: m = 100, 200, 300, 400.  Two-state optima have p01 = 0 and the listed
#: p10; four-state optima have p01 = p10 = the listed value.  Keyed by
#: (variant, multi-photon mu or None for single-photon).
TABLE_M = (100, 200, 300, 400)
REFERENCE = {
    ("two", None): (0.489663, 0.490563, 0.479936, 0.47544),
    ("two", 0.2): (0.492572, 0.494314, 0.483053, 0.478355),
    ("four", None): (0.0658591, 0.0793028, 0.0939039, 0.101166),
    ("four", 0.2): (0.0470355, 0.0592754, 0.0743531, 0.0818707),
}
REFERENCE_TOL = 0.01

#: Slack on the log pass probability when asking whether a 0.01 grid
#: point beats the returned optimum: ties within the optimiser's 1e-12
#: relative tie rule are not a loss.
GRID_TIE_LOG = 1e-9
#: The same slack for the large-n calls, whose windows are hundreds of
#: terms wide.
LARGE_N_TOL_LOG = 1e-6
#: Relative agreement of a returned value with the oracle; artifact
#: values carry 9 significant digits.
VALUE_REL, CSV_REL = 1e-9, 1e-8
#: Values the oracle puts below this are taken as underflowed to zero.
TINY = 1e-300

MC_TRIALS = 1_000_000
MC_SE = 4.0


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    reduce: Callable[[object], Hashable]
    units: int
    check: Callable[[Hashable, object], tuple[str, str] | None]


def _mismatch(got, expected, rel) -> int | None:
    """Index of the first value off the oracle's, or None."""
    got, expected = np.atleast_1d(got), np.atleast_1d(expected)
    bad = np.flatnonzero(np.abs(got - expected) > rel * expected + TINY)
    return int(bad[0]) if bad.size else None


def _optimize_op(variant, n, r, mu=None, reference=None, tol=GRID_TIE_LOG, worse=WRONG):
    objective = strategy.SinglePhoton() if mu is None else strategy.MultiPhotonIdeal(mu)
    label = f"optimize-{variant}-n{n}-r{r}" + ("" if mu is None else f"-mu{mu}")

    def call():
        return strategy.optimize(VARIANTS[variant], 0, r, n, 3.0, objective=objective)

    def reduce(res):
        return res.best.p01, res.best.p10, res.value

    def check(result, oracle):
        p01, p10, value = result
        at = float(oracle.objective(variant, r, n, mu, p01, p10))
        if _mismatch(value, math.exp(at), VALUE_REL) is not None:
            return WRONG, f"{label}: value {value!r} but oracle gives exp({at!r})"
        best, g01, g10 = oracle.grid_max(variant, r, n, mu)
        if at < best - tol:
            return worse, (
                f"{label}: returned ({p01}, {p10}) has oracle log {at:.1f}, "
                f"grid point ({g01}, {g10}) has {best:.1f}"
            )
        if reference is not None:
            want = (0.0 if variant == "two" else reference, reference)
            if max(abs(p01 - want[0]), abs(p10 - want[1])) > REFERENCE_TOL:
                return WRONG, f"{label}: ({p01}, {p10}) vs paper's {want}"
        return None

    return Op(label, call, reduce, 1, check)


def paper_tables():
    """The paper's optimal flip-pair tables and a short r sweep."""
    ops = []
    for variant in ("two", "four"):
        for i, m in enumerate(TABLE_M):
            for mu in (None, 0.2):
                ref = REFERENCE[(variant, mu)][i]
                ops.append(_optimize_op(variant, m // 2, 0.1, mu, reference=ref))
        # r = 0 gives degenerate [n, n] windows
        for r in (0.0, 0.2, 0.4):
            ops.append(_optimize_op(variant, 50, r))
    return ops


def large_n():
    """The optimiser with windows hundreds of terms wide."""
    return [
        _optimize_op(variant, n, 0.1, tol=LARGE_N_TOL_LOG, worse=FAILED)
        for variant in ("two", "four")
        for n in (1000, 2500, 5000)
    ]


def _sweep(a, step, count):
    """The values ``cli.parse_range`` yields for ``a:b:step``."""
    return [a + i * step for i in range(count)]


def _cli_op(tmp, label, argv, rows, check_rows):
    path = os.path.join(tmp, f"{label}.csv")

    def call():
        return cli.main(argv + ["--out", path])

    def reduce(code):
        with open(path, encoding="utf-8") as fh:
            return code, fh.read()

    def check(result, oracle):
        code, text = result
        table = list(csv.reader(io.StringIO(text)))
        if code != 0 or len(table) != rows + 1:
            return WRONG, f"{label}: exit {code}, {len(table) - 1} rows, want {rows}"
        problem = check_rows(table[0], table[1:], oracle)
        return None if problem is None else (WRONG, f"{label}: {problem}")

    return Op(label, call, reduce, 1, check)


def _cheat_surface(variant, r, m, step):
    k = round(1.0 / step)
    axis = np.minimum(1.0, np.arange(k + 1) * step)
    p01, p10 = np.repeat(axis, k + 1), np.tile(axis, k + 1)

    def check_rows(header, rows, oracle):
        got = np.array(rows, dtype=np.float64)
        if header != ["p01", "p10", "success"]:
            return f"header {header}"
        if _mismatch(got[:, :2], np.column_stack([p01, p10]), CSV_REL) is not None:
            return "flip grid differs"
        n = m // VARIANTS[variant].state_count
        want = np.exp(oracle.objective(variant, r, n, None, p01, p10))
        bad = _mismatch(got[:, 2], want, CSV_REL)
        if bad is not None:
            return f"row {bad}: {rows[bad]} vs oracle {want[bad]!r}"
        if variant == "four":
            square = got[:, 2].reshape(k + 1, k + 1)
            if _mismatch(square, square.T, CSV_REL) is not None:
                return "four-state surface is not swap-symmetric"
        return None

    argv = ["cheat-surface", "--variant", variant, "--r", str(r), "--m", str(m),
            "--grid-step", str(step)]
    return argv, (k + 1) ** 2, check_rows


def _check_column(rows, col, want):
    bad = _mismatch(np.array([float(row[col]) for row in rows]), np.array(want), CSV_REL)
    return None if bad is None else f"row {bad} column {col}: {rows[bad]} vs {want[bad]!r}"


def _binding_failure(m, rs):
    def check_rows(header, rows, oracle):
        n = m // 2
        want = [math.exp(oracle.log_pass("two", r, n, oracle.committed_one("two", r)))
                for r in rs]
        problem = _check_column(rows, 0, rs) or _check_column(rows, 1, want)
        got = [float(row[1]) for row in rows]
        if problem is None and any(b < a for a, b in zip(got, got[1:])):
            problem = "binding failure is not monotone in r"
        return problem

    argv = ["binding-failure", "--m", str(m), "--r-range", "0:0.5:0.01"]
    return argv, len(rs), check_rows


def _honest(m, rs):
    def check_rows(header, rows, oracle):
        n = m // 2
        cols = [rs]
        for s in ("0", "+"):
            p0 = [oracle.honest_zero_probs("two", r)[s] for r in rs]
            cols += [p0, [1.0 - p for p in p0]]
        cols.append([math.exp(oracle.log_pass("two", r, n, oracle.honest("two", r)))
                     for r in rs])
        for col, want in enumerate(cols):
            problem = _check_column(rows, col, want)
            if problem:
                return problem
        return None

    argv = ["honest", "--variant", "two", "--r-range", "0:0.5:0.1", "--m", str(m)]
    return argv, len(rs), check_rows


def _multiphoton(m, mus, r, p01, p10):
    def check_rows(header, rows, oracle):
        n = m // 2
        ideal = [math.exp(oracle.log_pass(
            "two", r, n, oracle.ideal_multiphoton("two", r, mu, p01, p10))) for mu in mus]
        split = [math.exp(oracle.log_pass("two", r, n, oracle.beam_splitter("two", r, mu)))
                 for mu in mus]
        cols = [[m] * len(mus), mus, [r] * len(mus), [p01] * len(mus), [p10] * len(mus),
                ideal, split]
        for col, want in enumerate(cols):
            problem = _check_column(rows, col, want)
            if problem:
                return problem
        return None

    argv = ["multiphoton", "--m", str(m), "--mu-range", "0.1:1:0.1", "--r", str(r),
            "--p01", str(p01), "--p10", str(p10)]
    return argv, len(mus), check_rows


def surface(tmp):
    """README sweeps through ``cli.main``; the optimiser is never called."""
    specs = {
        "cheat-surface-two": _cheat_surface("two", 0.16, 100, 0.01),
        "cheat-surface-four": _cheat_surface("four", 0.16, 100, 0.01),
        "binding-failure": _binding_failure(100, _sweep(0.0, 0.01, 51)),
        "honest": _honest(100, _sweep(0.0, 0.1, 6)),
        "multiphoton": _multiphoton(100, _sweep(0.1, 0.1, 10), 0.1, 0.0, 0.4926),
    }
    return [_cli_op(tmp, label, *spec) for label, spec in specs.items()]


def _mc_op(variant, kind, mu, flips, seed):
    r, m = 0.1, 100
    n = m // VARIANTS[variant].state_count
    party = {
        "honest": lambda: mcsim.Honest(),
        "flips": lambda: mcsim.BreidbartFlips(FlipParams(*flips)),
        "beam-splitter": lambda: mcsim.BeamSplitter(mu),
        "ideal": lambda: mcsim.IdealMultiPhoton(mu, FlipParams(*flips)),
    }[kind]()
    config = mcsim.TrialConfig(VARIANTS[variant], 0, r, n, 3.0, party, MC_TRIALS, seed)
    label = f"mc-{variant}-{kind}"

    def call():
        return mcsim.run(config)

    def reduce(rep):
        sums = tuple(int(h.sum()) for h in rep.per_state_count_histograms.values())
        return rep.accept_rate, rep.trials, sums

    def check(result, oracle):
        rate, trials, sums = result
        tallied = {
            "honest": lambda: oracle.honest(variant, r),
            "flips": lambda: oracle.flipped(variant, r, *flips),
            "beam-splitter": lambda: oracle.beam_splitter(variant, r, mu),
            "ideal": lambda: oracle.ideal_multiphoton(variant, r, mu, *flips),
        }[kind]()
        analytic = math.exp(oracle.log_pass(variant, r, n, tallied))
        se = math.sqrt(max(analytic * (1.0 - analytic), 1e-12) / MC_TRIALS)
        if trials != MC_TRIALS or any(s != MC_TRIALS for s in sums):
            return WRONG, f"{label}: {trials} trials, histogram totals {sums}"
        if abs(rate - analytic) > MC_SE * se:
            return WRONG, f"{label}: accept {rate} vs analytic {analytic} ({MC_SE} SE = {MC_SE * se:.2e})"
        return None

    return Op(label, call, reduce, MC_TRIALS, check)


def monte_carlo(seed, tmp):
    setups = {
        "two": ((0.0, 0.4897), (0.0, 0.4926)),
        "four": ((0.0659, 0.0659), (0.047, 0.047)),
    }
    ops = []
    for variant, (flips, ideal_flips) in setups.items():
        for kind, f in (("honest", None), ("flips", flips), ("beam-splitter", None),
                        ("ideal", ideal_flips)):
            ops.append(_mc_op(variant, kind, 0.2, f, seed * 8 + len(ops)))
    return ops


def analytic(seed, tmp):
    """Every path that sums binomial windows, in one round."""
    return paper_tables() + large_n() + surface(tmp)


WORKLOADS = {"analytic": analytic, "monte-carlo": monte_carlo}
