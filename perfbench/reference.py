#!/usr/bin/env python3
"""Reference figures: the single-layer and CLI timings of the ROADMAP
baseline table, each the median of several repeats after one warm-up.

    python3 perfbench/reference.py

Prints a Markdown table.  The CLI rows run fresh interpreters, so they
include the start-up floor; everything else runs in this process.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from time import perf_counter

from run import ROOT, SRC

sys.path.insert(0, SRC)

from qbcsim import mcsim, protocol, strategy  # noqa: E402
from qbcsim.protocol import Variant  # noqa: E402
from qbcsim.strategy import FlipParams  # noqa: E402

TWO, FOUR = Variant.TWO_STATE, Variant.FOUR_STATE

CLI = {
    "tables --variant two": ["tables", "--variant", "two"],
    "tables --variant four": ["tables", "--variant", "four"],
    "README cheat-max": ["cheat-max", "--m", "100,200", "--r-range", "0:0.4:0.05"],
    "README multiphoton": ["multiphoton", "--m", "100", "--mu-range", "0.1:1:0.1", "--r", "0.1"],
    "cheat-surface --r 0.16": ["cheat-surface", "--r", "0.16", "--m", "100"],
    "distance (start-up floor)": ["distance", "--alpha", "0.2"],
}


def median_time(fn, repeats):
    fn()
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def main() -> None:
    rows = []
    for variant, n in ((TWO, 50), (FOUR, 50), (FOUR, 1000)):
        res = strategy.optimize(variant, 0, 0.1, n)
        t = median_time(lambda: strategy.optimize(variant, 0, 0.1, n), 5)
        rows.append((f"`optimize` {variant.value}-state, n = {n}",
                     f"{t * 1e3:.0f} ms ({res.evaluations} evaluations, "
                     f"{t / res.evaluations * 1e6:.1f} µs each)"))
    for n in (50, 5000):
        lo, hi = protocol.build_test(TWO, 0, 0.1, n).windows["+"]
        calls = 2000
        t = median_time(
            lambda: [protocol.binomial_window_probability(n, 0.48, lo, hi)
                     for _ in range(calls)], 5)
        rows.append((f"`binomial_window_probability`, n = {n} ({hi - lo + 1} terms)",
                     f"{t / calls * 1e6:.1f} µs"))
    for party in (mcsim.BreidbartFlips(FlipParams(0.0, 0.4897)), mcsim.BeamSplitter(0.2)):
        config = mcsim.TrialConfig(TWO, 0, 0.1, 50, 3.0, party, 100_000, 0)
        rows.append((f"`mcsim.run`, 100k trials, two-state `{type(party).__name__}`",
                     f"{median_time(lambda: mcsim.run(config), 5) * 1e3:.0f} ms"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for label, argv in CLI.items():
        t = median_time(lambda: subprocess.run(
            [sys.executable, "-m", "qbcsim", *argv], cwd=ROOT, env=env,
            capture_output=True, check=True, timeout=300), 3)
        rows.append((f"CLI `{label}`", f"{t:.2f} s"))
    print("| Layer or command | Median |\n|---|---|")
    for label, value in rows:
        print(f"| {label} | {value} |")


if __name__ == "__main__":
    main()
