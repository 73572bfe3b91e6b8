"""Command-line front end emitting CSV/JSON sweep artifacts.

Every command is a pure function of its resolved parameters (flags
override an optional ``key=value`` config file, which overrides the
built-in defaults), so reruns with the same invocation produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from itertools import repeat
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

DEFAULTS = {"sigma_factor": 3.0, "grid_step": 0.01, "trials": 100_000, "seed": 0}

_CONFIG_KEYS = {
    "sigma-factor": ("sigma_factor", float),
    "grid-step": ("grid_step", float),
    "trials": ("trials", int),
    "seed": ("seed", int),
}


class CliError(Exception):
    """Invalid parameters; reported as a one-line diagnostic."""


@dataclass(frozen=True)
class Artifact:
    columns: tuple[str, ...]
    rows: list[Sequence]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _field(value) -> str:
    """``_fmt(value)`` as :mod:`csv` writes a cell: quoted, with its quotes
    doubled, when it holds a comma, a quote or a line break."""
    text = _fmt(value)
    if any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def to_csv(artifact: Artifact) -> str:
    """The artifact as CSV, byte for byte what :mod:`csv` writes for the
    cells of :func:`_fmt`, with one format operation per row: the row
    template has ``%.9g`` for a column of floats and ``%s`` for any other
    column, whose cells :func:`_field` renders first."""
    width = len(artifact.columns)
    columns = list(zip(*artifact.rows)) or [()] * width
    floats = [all(map(isinstance, column, repeat(float))) for column in columns]
    # csv quotes a record that is a single empty cell
    blank = '""' if width == 1 else ""
    cells = [
        column if f else [_field(v) or blank for v in column]
        for column, f in zip(columns, floats)
    ]
    template = ",".join("%.9g" if f else "%s" for f in floats) + "\n"
    header = ",".join(map(_field, artifact.columns)) or blank
    return header + "\n" + "".join(map(template.__mod__, zip(*cells)))


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
    return [a + i * step for i in range(int(steps) + 1)]


def parse_m_list(text: str) -> list[int]:
    try:
        values = [int(p) for p in text.split(",")]
    except ValueError:
        raise CliError(f"--m must be an integer or comma list, got {text!r}") from None
    if any(v < 1 for v in values):
        raise CliError(f"--m values must be positive, got {text!r}")
    return values


def derive_n(m: int, variant: Variant) -> int:
    if m % variant.state_count != 0:
        raise CliError(
            f"--m {m} is not divisible by the {variant.value}-state particle count "
            f"{variant.state_count}"
        )
    return m // variant.state_count


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
                if key not in _CONFIG_KEYS:
                    raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
                dest, conv = _CONFIG_KEYS[key]
                try:
                    values[dest] = conv(value.strip())
                except ValueError:
                    raise CliError(
                        f"{path}:{lineno}: bad value for {key!r}: {value.strip()!r}"
                    ) from None
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from None
    return values


def _resolve(args: argparse.Namespace) -> None:
    """Fill `None` defaults from the config file, then the built-ins."""
    config = _read_config(args.config) if getattr(args, "config", None) else {}
    for key, default in DEFAULTS.items():
        if getattr(args, key, None) is None and hasattr(args, key):
            setattr(args, key, config.get(key, default))


def _r_values(args: argparse.Namespace, default: str | None = None) -> list[float]:
    if getattr(args, "r", None) is not None and getattr(args, "r_range", None) is not None:
        raise CliError("give either --r or --r-range, not both")
    if getattr(args, "r", None) is not None:
        return [args.r]
    if getattr(args, "r_range", None) is not None:
        return parse_range(args.r_range, "--r-range")
    if default is not None:
        return parse_range(default, "--r-range")
    raise CliError("one of --r or --r-range is required")


def cmd_honest(args: argparse.Namespace) -> Artifact:
    variant = Variant(args.variant)
    rs = _r_values(args, default="0:0.5:0.1")
    n = derive_n(args.m, variant)
    columns = ["r"]
    for s in variant.states:
        columns += [f"p(0|{s})", f"p(1|{s})"]
    columns.append("pass_probability")
    rows = []
    for r in rs:
        table = protocol.honest_table(variant, args.commit, r)
        test = protocol.build_test(variant, args.commit, r, n, args.sigma_factor)
        row: list = [r]
        for s in variant.states:
            row += [table.prob(s, 0), table.prob(s, 1)]
        row.append(protocol.pass_probability(test, table))
        rows.append(row)
    return Artifact(tuple(columns), rows)


def cmd_binding_failure(args: argparse.Namespace) -> Artifact:
    variant = Variant(args.variant)
    rs = _r_values(args, default="0:0.5:0.01")
    n = derive_n(args.m, variant)
    rows = []
    for r in rs:
        test = protocol.build_test(variant, 0, r, n, args.sigma_factor)
        committed_one = protocol.honest_table(variant, 1, r)
        log_p = protocol.log_pass_probability(test, committed_one)
        rows.append([r, protocol.pass_probability(test, committed_one), _log10(log_p)])
    return Artifact(("r", "probability", "log10_probability"), rows)


def _log10(log_value: float) -> float:
    return log_value / math.log(10.0)


def cmd_cheat_surface(args: argparse.Namespace) -> Artifact:
    variant = Variant(args.variant)
    n = derive_n(args.m, variant)
    step = args.grid_step
    if not 0.0 < step <= 0.5:
        raise CliError(f"--grid-step must lie in (0, 0.5], got {step!r}")
    if 1.0 / step > MAX_SWEEP_POINTS or (round(1.0 / step) + 1) ** 2 > MAX_SWEEP_POINTS:
        raise CliError(
            f"--grid-step {step!r} gives more than {MAX_SWEEP_POINTS} surface points"
        )
    p01, p10 = strategy.flip_grid(step)
    kernel = strategy.LogObjective(variant, args.commit, args.r, n, args.sigma_factor)
    success = np.exp(kernel(p01, p10))
    rows = list(zip(p01.tolist(), p10.tolist(), success.tolist()))
    return Artifact(("p01", "p10", "success"), rows)


def cmd_cheat_max(args: argparse.Namespace) -> Artifact:
    variant = Variant(args.variant)
    rs = _r_values(args, default="0:0.5:0.05")
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
        n = m // 2
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
    rd = args.rd if args.rd is not None else 0.0
    rn = args.rn if args.rn is not None else 0.0
    scenario = DistanceScenario(r_distant=rd, r_near=rn)
    noiseless = attacks.max_safe_distance(args.alpha)
    noisy = attacks.max_safe_distance_noisy(args.alpha, scenario)
    return Artifact(
        ("alpha", "rd", "rn", "max_safe_km", "max_safe_noisy_km"),
        [[args.alpha, rd, rn, noiseless, noisy]],
    )


def cmd_multiphoton(args: argparse.Namespace) -> Artifact:
    variant = Variant(args.variant)
    rs = _r_values(args, default="0:0.2:0.1")
    if args.mu is not None and args.mu_range is not None:
        raise CliError("give either --mu or --mu-range, not both")
    if args.mu is not None:
        mus = [args.mu]
    else:
        mus = parse_range(args.mu_range or "0.1:1:0.1", "--mu-range")
    if not all(0.0 < mu < math.inf for mu in mus):
        raise CliError("--mu values must be positive and finite")
    fixed = _optional_flips(args)
    rows = []
    for m in sorted(parse_m_list(args.m)):
        n = derive_n(m, variant)
        for mu in mus:
            for r in rs:
                test = protocol.build_test(variant, args.commit, r, n, args.sigma_factor)
                flips = fixed or strategy.optimize(
                    variant, args.commit, r, n, args.sigma_factor,
                    objective=IdealMultiPhoton(mu),
                ).best
                ideal, bs = (
                    protocol.pass_probability(test, party.table(variant, args.commit, r))
                    for party in (IdealMultiPhoton(mu, flips), BeamSplitter(mu))
                )
                rows.append([m, mu, r, flips.p01, flips.p10, ideal, bs])
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
    if name == "faked":
        if args.rd is None or args.rn is None or args.length_km is None or args.alpha is None:
            raise CliError("--rd, --rn, --length-km and --alpha are required for 'faked'")
        scenario = DistanceScenario(r_distant=args.rd, r_near=args.rn)
        if args.rd != args.r:
            raise CliError(
                f"--rd {args.rd!r} must equal --r {args.r!r}: the test is built for "
                "the claimed remote noise"
            )
        return mcsim.FakedDistance(scenario, args.length_km, args.alpha)
    raise CliError(f"unknown strategy {name!r}")


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


def _add_common(p: argparse.ArgumentParser, *, variant=True, commit=False) -> None:
    if variant:
        p.add_argument("--variant", choices=("two", "four"), default="two")
    if commit:
        p.add_argument("--commit", type=int, choices=(0, 1), default=0)
    p.add_argument("--sigma-factor", type=float, default=None)
    p.add_argument("--config", default=None, help="key=value defaults file")
    p.add_argument("--out", default=None, help="output path (stdout if omitted)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
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
    _add_common(p, variant=False)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--rd", type=float, default=None)
    p.add_argument("--rn", type=float, default=None)

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
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0
