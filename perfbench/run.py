#!/usr/bin/env python3
"""Layered benchmark of qbcsim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds nothing: it imports qbcsim from ``src/`` of the checkout it sits
in.  The first stdout line is a JSON record of the machine and versions;
the last is the JSON result ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones,
measured with no wrappers installed; with ``--trace 1`` they are the
per-layer ones from a traced run (see README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 5
SETUP_COMMAND = ["-m", "qbcsim", "distance", "--alpha", "0.2"]
SETUP_ALPHA = 0.2

BWP = "protocol.binomial_window_probability"

#: (module, function, keep spans, counter) wrapped in a traced run; a
#: counter maps (result, *call args) to counts added under the name.
TRACE_TARGETS = [
    ("qcore", "born", False, None),
    ("protocol", "binomial_window_probability", False,
     lambda res, n, p, lo, hi: {"terms": max(0, min(hi, n) - max(lo, 0) + 1)}),
    ("protocol", "build_test", False, None),
    ("protocol", "honest_table", False, None),
    ("protocol", "pass_probability", False, None),
    ("protocol", "binding_failure", False, None),
    ("strategy", "breidbart_table", False, None),
    ("strategy", "apply_flips", False, None),
    ("strategy", "cheat_success", False, None),
    ("strategy", "optimize", True, lambda res, *a, **k: {"evaluations": res.evaluations}),
    ("attacks", "multiphoton_success", False, None),
    ("attacks", "ideal_multiphoton_table", False, None),
    ("attacks", "beam_splitter_table", False, None),
    ("mcsim", "run", True,
     lambda res, config: {"trial_states": config.trials * config.variant.state_count}),
    ("cli", "main", True, None),
    ("cli", "to_csv", True, lambda res, artifact: {"bytes": len(res.encode())}),
]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_hash() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_hash() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "qbcsim")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def env_record(args) -> dict:
    return {
        "record": "env",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git": _git_hash(),
        "src_sha256": _source_hash(),
    }


def measure_setup() -> tuple[list[float], list[str]]:
    """Fresh-interpreter times of the cheapest CLI command.  One untimed
    run first writes the bytecode cache, as any earlier use would."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    times, outputs = [], []
    for i in range(SETUP_REPEATS + 1):
        start = perf_counter()
        done = subprocess.run([sys.executable, *SETUP_COMMAND], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        elapsed = perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"setup command failed: {done.stderr.strip()}")
        if i:
            times.append(elapsed)
            outputs.append(done.stdout)
    return times, outputs


@dataclass(frozen=True)
class Raised:
    """Result of a call that raised: a failed operation."""

    message: str


def run_rounds(ops, seconds, invoke) -> list[list]:
    """Whole rounds of ``ops`` until ``seconds`` have passed (at least
    one).  Each round is a list of (duration, op index, result); equal
    results share one object, so memory does not grow with the rounds."""
    rounds = []
    distinct: dict = {}
    deadline = perf_counter() + seconds
    while not rounds or perf_counter() < deadline:
        row = []
        for i, op in enumerate(ops):
            start = perf_counter()
            try:
                out = invoke(op)
            except Exception as exc:  # counted as a failed operation
                row.append((perf_counter() - start, i, Raised(repr(exc))))
                continue
            duration = perf_counter() - start
            result = op.reduce(out)
            row.append((duration, i, distinct.setdefault((i, result), result)))
        rounds.append(row)
    return rounds


def check_rounds(ops, rounds, oracle) -> tuple[int, int, list]:
    """Judge every result; a result repeated across rounds is judged once.
    Returns (attempted, failed, [(kind, message)] for each distinct
    problem)."""
    from workloads import FAILED

    verdicts: dict = {}
    failed = 0
    for row in rounds:
        for _, i, result in row:
            key = (i, result)
            if key not in verdicts:
                if isinstance(result, Raised):
                    verdicts[key] = (FAILED, f"{ops[i].label}: raised {result.message}")
                else:
                    verdicts[key] = ops[i].check(result, oracle)
            if verdicts[key] is not None and verdicts[key][0] == FAILED:
                failed += 1
    attempted = sum(len(row) for row in rounds)
    return attempted, failed, [v for v in verdicts.values() if v is not None]


def check_setup(outputs, oracle) -> list:
    from workloads import WRONG

    want = oracle.max_safe_km(SETUP_ALPHA)
    problems = []
    for text in outputs:
        got = float(text.splitlines()[1].split(",")[3])
        if abs(got - want) > 1e-8 * want:
            problems.append((WRONG, f"setup: distance prints {got}, oracle gives {want}"))
    return problems


def _wall(row) -> float:
    return sum(duration for duration, _, _ in row)


def end_to_end(ops, args) -> tuple[dict, list, list[str]]:
    """Set-up time, then untraced rounds; returns (metrics, rounds, set-up
    command outputs)."""
    setup_times, setup_outputs = measure_setup()
    rounds = run_rounds(ops, args.seconds, lambda op: op.call())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.median(_wall(row) for row in rounds)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall_s, "s"),
        "ops_per_s": (sum(op.units for op in ops) / wall_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, rounds, setup_outputs


def per_layer(ops, args) -> tuple[dict, list, list[str]]:
    """One untraced round as the reference, then traced rounds; metrics
    are per traced round."""
    import qbcsim
    from qbcsim import attacks, cli, mcsim, protocol, qcore, strategy
    from spans import Tracer

    modules = {"qbcsim": qbcsim, "qcore": qcore, "protocol": protocol,
               "strategy": strategy, "attacks": attacks, "mcsim": mcsim, "cli": cli}
    untraced = run_rounds(ops, 0, lambda op: op.call())
    tracer = Tracer()
    tracer.install(modules, TRACE_TARGETS)
    try:
        traced = run_rounds(ops, args.seconds,
                            lambda op: tracer.span(f"bench.{op.label}", op.call))
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"))

    k = len(traced)
    calls, secs, self_s, counts = (tracer.calls, tracer.seconds, tracer.self_seconds,
                                   tracer.counts)

    def ratio(num, den, scale):
        return scale * num / den if den else 0.0

    evaluations = counts["strategy.optimize.evaluations"]
    metrics = {
        f"{BWP}.calls": (calls[BWP] / k, "count"),
        f"{BWP}.s": (secs[BWP] / k, "s"),
        f"{BWP}.us_per_call": (ratio(secs[BWP], calls[BWP], 1e6), "us"),
        f"{BWP}.terms": (counts[f"{BWP}.terms"] / k, "count"),
        "strategy.optimize.calls": (calls["strategy.optimize"] / k, "count"),
        "strategy.optimize.self_s": (self_s["strategy.optimize"] / k, "s"),
        "strategy.optimize.evaluations": (evaluations / k, "count"),
        "strategy.optimize.us_per_eval": (
            ratio(secs["strategy.optimize"], evaluations, 1e6), "us"),
        "protocol.build_test.calls": (calls["protocol.build_test"] / k, "count"),
        "protocol.build_test.s": (secs["protocol.build_test"] / k, "s"),
        "qcore.born.calls": (calls["qcore.born"] / k, "count"),
        "strategy.cheat_success.calls": (calls["strategy.cheat_success"] / k, "count"),
        "strategy.cheat_success.s": (secs["strategy.cheat_success"] / k, "s"),
        "attacks.multiphoton_success.calls": (
            calls["attacks.multiphoton_success"] / k, "count"),
        "attacks.multiphoton_success.s": (secs["attacks.multiphoton_success"] / k, "s"),
        "cli.main.s": (secs["cli.main"] / k, "s"),
        "cli.to_csv.s": (secs["cli.to_csv"] / k, "s"),
        "cli.artifact_bytes": (counts["cli.to_csv.bytes"] / k, "bytes"),
        "mcsim.run.calls": (calls["mcsim.run"] / k, "count"),
        "mcsim.run.s": (secs["mcsim.run"] / k, "s"),
        "mcsim.run.ns_per_trial_state": (
            ratio(secs["mcsim.run"], counts["mcsim.run.trial_states"], 1e9), "ns"),
        "trace.overhead_s": (
            statistics.median(_wall(row) for row in traced) - _wall(untraced[0]), "s"),
    }
    return metrics, untraced + traced, []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("analytic", "monte-carlo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")

    package = os.path.join(SRC, "qbcsim", "__init__.py")
    if not os.path.isfile(package):
        print(f"error: no qbcsim sources at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import qbcsim

    if os.path.abspath(qbcsim.__file__) != package:
        print(f"error: imported qbcsim from {qbcsim.__file__}, not {package}",
              file=sys.stderr)
        return 2
    print(json.dumps(env_record(args)), flush=True)

    from workloads import WORKLOADS, WRONG

    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        ops = WORKLOADS[args.workload](args.seed, tmp)
        measure = per_layer if args.trace else end_to_end
        metrics, rounds, setup_outputs = measure(ops, args)
        import oracle  # after the timed part, so scipy is not in peak_rss_mb

        attempted, failed, problems = check_rounds(ops, rounds, oracle)
    problems += check_setup(setup_outputs, oracle)
    for name, (value, unit) in metrics.items():
        print(f"{name:50s} {value:14.6g} {unit}", file=sys.stderr)
    print(f"rounds {len(rounds)}, attempted {attempted}, failed {failed}", file=sys.stderr)
    for kind, message in problems:
        print(f"{kind}: {message}", file=sys.stderr)
    result = {
        "correct": all(kind != WRONG for kind, _ in problems),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
