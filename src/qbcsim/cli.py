"""Command-line front end emitting CSV/JSON sweep artifacts.

Every command is a pure function of its resolved parameters (flags
override an optional ``key=value`` config file, which overrides the
built-in defaults), so reruns with the same invocation produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Sequence

import numpy as np

from . import attacks, mcsim, protocol, strategy
from .attacks import DistanceScenario
from .protocol import Variant
from .strategy import BeamSplitter, FlipParams, IdealMultiPhoton

#: Most values a sweep expression, and most points a ``cheat-surface``
#: grid, may have; checked before any is allocated.  The 0.001 grid
#: (1,002,001 points) fits.
MAX_SWEEP_POINTS = 2**20

#: The settings a ``--config`` file may set, by flag spelling, with their
#: built-in defaults; a file's value is read with its default's type.
DEFAULTS = {"sigma-factor": 3.0, "grid-step": 0.01, "trials": 100_000, "seed": 0}


class CliError(Exception):
    """Invalid parameters; reported as a one-line diagnostic."""


@dataclass(frozen=True)
class Artifact:
    """A command's table.  ``body`` holds its rows, except for a
    ``cheat-surface`` artifact, which sets ``axis``: its table is that flip
    axis crossed with itself, p01 major, and ``body`` holds the one
    ``success`` value of each point, so :func:`to_csv` builds no rows."""

    columns: tuple[str, ...]
    body: list
    axis: list[float] | None = None

    @property
    def rows(self) -> list[Sequence]:
        """The table's rows; a surface's are built here, when something
        iterates them."""
        if self.axis is None:
            return self.body
        return [(*point, v) for point, v in zip(product(self.axis, repeat=2), self.body)]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def to_csv(artifact: Artifact) -> str:
    """The artifact as :mod:`csv` writes its header and the cells of
    :func:`_fmt`.  A ``cheat-surface`` artifact, which alone sets ``axis``
    and can have a million rows, is written from its axis in one format
    operation: each axis value is formatted once as ``"%.9g,"``, the
    ``"p01,p10,"`` prefix of each point is two of those joined, and the
    prefixes joined by ``"%.9g\\n"`` are the template that formats every
    success cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(artifact.columns)
    if artifact.axis is not None:
        cells = ["%.9g," % x for x in artifact.axis]
        prefixes = [a + b for a in cells for b in cells]
        template = "%.9g\n".join(prefixes) + "%.9g\n"
        return buf.getvalue() + template % tuple(artifact.body)
    writer.writerows(map(_fmt, row) for row in artifact.rows)
    return buf.getvalue()


def to_json(artifact: Artifact) -> str:
    def jsonable(v):
        if isinstance(v, float):
            return float(f"{v:.9g}") if math.isfinite(v) else None
        return v

    records = [
        {c: jsonable(v) for c, v in zip(artifact.columns, row)} for row in artifact.rows
    ]
    return json.dumps(records, indent=2, allow_nan=False) + "\n"


def parse_range(text: str, name: str) -> list[float]:
    """Parse an ``a:b:step`` sweep expression (inclusive endpoints)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"{name} must look like a:b:step, got {text!r}")
    try:
        a, b, step = (float(p) for p in parts)
    except ValueError:
        raise CliError(f"{name} has non-numeric parts: {text!r}") from None
    if not all(map(math.isfinite, (a, b, step))):
        raise CliError(f"{name} parts must be finite, got {text!r}")
    if step <= 0.0:
        raise CliError(f"{name} step must be positive, got {step!r}")
    if b < a:
        raise CliError(f"{name} upper end {b!r} is below lower end {a!r}")
    steps = (b - a) / step + 1e-9
    if not steps < MAX_SWEEP_POINTS:
        raise CliError(f"{name} {text!r} has more than {MAX_SWEEP_POINTS} values")
    # a + i * step can round one ulp past b
    return [min(a + i * step, b) for i in range(int(steps) + 1)]


def parse_m_list(text: str) -> list[int]:
    try:
        values = [int(p) for p in text.split(",")]
    except ValueError:
        raise CliError(f"--m must be an integer or comma list, got {text!r}") from None
    if any(v < 1 for v in values):
        raise CliError(f"--m values must be positive, got {text!r}")
    return values


def derive_n(m: int, variant: Variant) -> int:
    if m < 1:
        raise CliError(f"--m must be positive, got {m}")
    if m % variant.state_count != 0:
        raise CliError(
            f"--m {m} is not divisible by the {variant.value}-state particle count "
            f"{variant.state_count}"
        )
    return _capped(m, m // variant.state_count)


def _capped(m: int, n: int) -> int:
    """``n``, the per-state count of ``--m m``, checked against the cap
    before any test is sized by it."""
    if n > protocol.MAX_N_PER_STATE:
        raise CliError(
            f"--m {m} gives {n} particles per state, more than "
            f"{protocol.MAX_N_PER_STATE}"
        )
    return n


def _read_config(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in DEFAULTS:
                    raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
                try:
                    values[key] = type(DEFAULTS[key])(value.strip())
                except ValueError:
                    raise CliError(
                        f"{path}:{lineno}: bad value for {key!r}: {value.strip()!r}"
                    ) from None
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from None
    return values


def _resolve(args: argparse.Namespace) -> None:
    """Fill `None` defaults from the config file, then the built-ins."""
    config = _read_config(args.config) if args.config else {}
    for key, default in DEFAULTS.items():
        dest = key.replace("-", "_")
        if dest in vars(args) and getattr(args, dest) is None:
            setattr(args, dest, config.get(key, default))


def _values(args: argparse.Namespace, name: str, default: str) -> list[float]:
    """The value of ``--name``, or the sweep of ``--name-range``, which is
    ``default`` when neither flag is given."""
    value, sweep = getattr(args, name), getattr(args, f"{name}_range")
    if value is not None and sweep is not None:
        raise CliError(f"give either --{name} or --{name}-range, not both")
    if value is not None:
        return [value]
    return parse_range(default if sweep is None else sweep, f"--{name}-range")


def cmd_honest(args: argparse.Namespace) -> Artifact:
    variant = Variant(args.variant)
    rs = _values(args, "r", "0:0.5:0.1")
    n = derive_n(args.m, variant)
    columns = ["r"]
    for s in variant.states:
        columns += [f"p(0|{s})", f"p(1|{s})"]
    columns.append("pass_probability")
    tables = [protocol.honest_table(variant, args.commit, r) for r in rs]
    log_ps = protocol.log_pass_probabilities(
        (protocol.build_test(variant, args.commit, r, n, args.sigma_factor), table)
        for r, table in zip(rs, tables)
    )
    rows = []
    for r, table, log_p in zip(rs, tables, log_ps):
        row: list = [r]
        for s in variant.states:
            row += [table.prob(s, 0), table.prob(s, 1)]
        row.append(math.exp(log_p))
        rows.append(row)
    return Artifact(tuple(columns), rows)


def cmd_binding_failure(args: argparse.Namespace) -> Artifact:
    variant = Variant(args.variant)
    rs = _values(args, "r", "0:0.5:0.01")
    n = derive_n(args.m, variant)
    log_ps = protocol.log_pass_probabilities(
        (protocol.build_test(variant, 0, r, n, args.sigma_factor),
         protocol.honest_table(variant, 1, r))
        for r in rs
    )
    rows = [[r, math.exp(log_p), _log10(log_p)] for r, log_p in zip(rs, log_ps)]
    return Artifact(("r", "probability", "log10_probability"), rows)


def _log10(log_value: float) -> float:
    return log_value / math.log(10.0)


def cmd_cheat_surface(args: argparse.Namespace) -> Artifact:
    variant = Variant(args.variant)
    n = derive_n(args.m, variant)
    step = args.grid_step
    if not 0.0 < step <= 0.5:
        raise CliError(f"--grid-step must lie in (0, 0.5], got {step!r}")
    if 1.0 / step > MAX_SWEEP_POINTS or strategy.flip_axis_size(step) ** 2 > MAX_SWEEP_POINTS:
        raise CliError(
            f"--grid-step {step!r} gives more than {MAX_SWEEP_POINTS} surface points"
        )
    axis = strategy.flip_axis(step)
    kernel = strategy.LogObjective(variant, args.commit, args.r, n, args.sigma_factor)
    success = np.exp(kernel(axis[:, None], axis).ravel())
    return Artifact(("p01", "p10", "success"), success.tolist(), axis=axis.tolist())


def cmd_cheat_max(args: argparse.Namespace) -> Artifact:
    variant = Variant(args.variant)
    rs = _values(args, "r", "0:0.5:0.05")
    rows = []
    for m in sorted(parse_m_list(args.m)):
        n = derive_n(m, variant)
        for r in rs:
            res = strategy.optimize(variant, args.commit, r, n, args.sigma_factor)
            rows.append(
                [m, r, res.best.p01, res.best.p10, res.value, _log10(res.log_value)]
            )
    return Artifact(("m", "r", "p01", "p10", "p_max", "log10_p_max"), rows)


def cmd_tables(args: argparse.Namespace) -> Artifact:
    """Optimal flip pairs for the standard measurement budgets.

    Follows the reference tables' convention of m/2 particles per sent
    state for both protocol variants.
    """
    variant = Variant(args.variant)
    if not 0.0 < args.mu < math.inf:
        raise CliError(f"--mu must be positive and finite, got {args.mu!r}")
    rows = []
    for m in sorted(parse_m_list(args.m)):
        if m % 2 != 0:
            raise CliError(f"--m {m} must be even (per-state count is m/2)")
        n = _capped(m, m // 2)
        sp = strategy.optimize(variant, args.commit, args.r, n, args.sigma_factor)
        mp = strategy.optimize(
            variant, args.commit, args.r, n, args.sigma_factor,
            objective=IdealMultiPhoton(args.mu),
        )
        rows.append([
            m, sp.best.p01, sp.best.p10, sp.value, mp.best.p01, mp.best.p10, mp.value,
            _log10(sp.log_value), _log10(mp.log_value),
        ])
    return Artifact(
        ("m", "sp_p01", "sp_p10", "sp_success", "mp_p01", "mp_p10", "mp_success",
         "sp_log10", "mp_log10"),
        rows,
    )


def cmd_distance(args: argparse.Namespace) -> Artifact:
    if not args.alpha > 0.0:
        raise CliError(f"--alpha must be positive, got {args.alpha!r}")
    scenario = DistanceScenario(r_distant=args.rd, r_near=args.rn)
    noiseless = attacks.max_safe_distance(args.alpha)
    noisy = attacks.max_safe_distance_noisy(args.alpha, scenario)
    return Artifact(
        ("alpha", "rd", "rn", "max_safe_km", "max_safe_noisy_km"),
        [[args.alpha, args.rd, args.rn, noiseless, noisy]],
    )


def cmd_multiphoton(args: argparse.Namespace) -> Artifact:
    variant = Variant(args.variant)
    rs = _values(args, "r", "0:0.2:0.1")
    mus = _values(args, "mu", "0.1:1:0.1")
    if not all(0.0 < mu < math.inf for mu in mus):
        raise CliError("--mu values must be positive and finite")
    fixed = _optional_flips(args)
    rows = []
    for m in sorted(parse_m_list(args.m)):
        n = derive_n(m, variant)
        configs = [
            (mu, r, fixed or strategy.optimize(
                variant, args.commit, r, n, args.sigma_factor,
                objective=IdealMultiPhoton(mu),
            ).best)
            for mu in mus
            for r in rs
        ]
        pairs = []
        for mu, r, flips in configs:
            test = protocol.build_test(variant, args.commit, r, n, args.sigma_factor)
            for party in (IdealMultiPhoton(mu, flips), BeamSplitter(mu)):
                pairs.append((test, party.table(variant, args.commit, r)))
        p = [math.exp(log_p) for log_p in protocol.log_pass_probabilities(pairs)]
        rows += [
            [m, mu, r, flips.p01, flips.p10, ideal, bs]
            for (mu, r, flips), ideal, bs in zip(configs, p[::2], p[1::2])
        ]
    return Artifact(
        ("m", "mu", "r", "ideal_p01", "ideal_p10", "ideal_success", "beam_splitter_success"),
        rows,
    )


def _optional_flips(args: argparse.Namespace) -> FlipParams | None:
    p01, p10 = getattr(args, "p01", None), getattr(args, "p10", None)
    if p01 is None and p10 is None:
        return None
    return FlipParams(p01 or 0.0, p10 or 0.0)


#: ``mc`` flags that only some strategies read, with those strategies.
_MC_FLAG_USERS = {
    ("p01", "p10"): ("breidbart", "ideal"),
    ("mu",): ("beam-splitter", "ideal"),
    ("rd", "rn", "length_km", "alpha"): ("faked",),
}


def _mc_strategy(args: argparse.Namespace) -> mcsim.Strategy:
    name = args.strategy
    for dests, users in _MC_FLAG_USERS.items():
        for dest in dests:
            if getattr(args, dest) is not None and name not in users:
                flag = "--" + dest.replace("_", "-")
                raise CliError(f"{flag} is not used by strategy {name!r}")
    if name == "honest":
        return mcsim.Honest()
    if name == "breidbart":
        return mcsim.BreidbartFlips(_optional_flips(args) or FlipParams(0.0, 0.0))
    if name in ("beam-splitter", "ideal"):
        if args.mu is None:
            raise CliError(f"--mu is required for strategy {name!r}")
        if name == "beam-splitter":
            return mcsim.BeamSplitter(args.mu)
        return mcsim.IdealMultiPhoton(
            args.mu, _optional_flips(args) or FlipParams(0.0, 0.0)
        )
    if args.rd is None or args.rn is None or args.length_km is None or args.alpha is None:
        raise CliError("--rd, --rn, --length-km and --alpha are required for 'faked'")
    scenario = DistanceScenario(r_distant=args.rd, r_near=args.rn)
    if args.rd != args.r:
        raise CliError(
            f"--rd {args.rd!r} must equal --r {args.r!r}: the test is built for "
            "the claimed remote noise"
        )
    return mcsim.FakedDistance(scenario, args.length_km, args.alpha)


def cmd_mc(args: argparse.Namespace) -> Artifact:
    variant = Variant(args.variant)
    n = derive_n(args.m, variant)
    mc_strategy = _mc_strategy(args)
    config = mcsim.TrialConfig(
        variant=variant,
        claimed=args.commit,
        r=args.r,
        n_per_state=n,
        sigma_factor=args.sigma_factor,
        strategy=mc_strategy,
        trials=args.trials,
        seed=args.seed,
    )
    analytic = protocol.pass_probability(
        protocol.build_test(variant, args.commit, args.r, n, args.sigma_factor),
        mc_strategy.table(variant, args.commit, args.r),
    )
    report = mcsim.run(config)
    return Artifact(
        (
            "strategy", "variant", "commit", "r", "m", "trials", "seed",
            "accept_rate", "standard_error", "analytic",
        ),
        [[
            args.strategy, args.variant, args.commit, args.r, args.m,
            args.trials, args.seed, report.accept_rate, report.standard_error,
            analytic,
        ]],
    )


_COMMANDS = {
    "honest": cmd_honest,
    "binding-failure": cmd_binding_failure,
    "cheat-surface": cmd_cheat_surface,
    "cheat-max": cmd_cheat_max,
    "tables": cmd_tables,
    "distance": cmd_distance,
    "multiphoton": cmd_multiphoton,
    "mc": cmd_mc,
}


def _add_common(p: argparse.ArgumentParser, *, protocol=True, commit=False) -> None:
    if protocol:  # nested so that every usage line keeps its flag order
        p.add_argument("--variant", choices=("two", "four"), default="two")
        if commit:
            p.add_argument("--commit", type=int, choices=(0, 1), default=0)
        p.add_argument("--sigma-factor", type=float, default=None)
    p.add_argument("--config", default=None, help="key=value defaults file")
    p.add_argument("--out", default=None, help="output path (stdout if omitted)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every :func:`main` call shares it."""
    parser = argparse.ArgumentParser(
        prog="qbcsim",
        description="Bit-commitment protocol sweeps: honest statistics, "
        "binding failure, cheating-strategy optimisation, loss and "
        "photon-source attacks, and Monte Carlo cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("honest", help="honest conditional tables over a noise grid")
    _add_common(p, commit=True)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--r-range", default=None)
    p.add_argument("--m", type=int, default=100)

    p = sub.add_parser("binding-failure", help="commit-1 vs commit-0 test leakage curve")
    _add_common(p)
    p.add_argument("--r-range", default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--m", type=int, default=100)

    p = sub.add_parser("cheat-surface", help="flip-pair success surface at fixed noise")
    _add_common(p, commit=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--grid-step", type=float, default=None)

    p = sub.add_parser("cheat-max", help="optimised cheating success over a noise grid")
    _add_common(p, commit=True)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--r-range", default=None)
    p.add_argument("--m", default="100")

    p = sub.add_parser(
        "tables",
        help="optimal flip pairs per measurement budget (m/2 particles per state)",
    )
    _add_common(p, commit=True)
    p.add_argument("--r", type=float, default=0.1)
    p.add_argument("--mu", type=float, default=0.2)
    p.add_argument("--m", default="100,200,300,400")

    p = sub.add_parser("distance", help="maximum safe fibre lengths")
    _add_common(p, protocol=False)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--rd", type=float, default=0.0)
    p.add_argument("--rn", type=float, default=0.0)

    p = sub.add_parser("multiphoton", help="photon-source attack success surfaces")
    _add_common(p, commit=True)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--r-range", default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--mu-range", default=None)
    p.add_argument("--m", default="100")
    p.add_argument("--p01", type=float, default=None, help="fix flips instead of optimising")
    p.add_argument("--p10", type=float, default=None)

    p = sub.add_parser("mc", help="Monte Carlo acceptance estimate vs analytic value")
    _add_common(p, commit=True)
    p.add_argument("--strategy", required=True,
                   choices=("honest", "breidbart", "beam-splitter", "ideal", "faked"))
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--p01", type=float, default=None)
    p.add_argument("--p10", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--rd", type=float, default=None)
    p.add_argument("--rn", type=float, default=None)
    p.add_argument("--length-km", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve(args)
        artifact = _COMMANDS[args.command](args)
        text = to_json(artifact) if args.format == "json" else to_csv(artifact)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write --out {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0
