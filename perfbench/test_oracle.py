"""Cross-checks of the benchmark's oracle against exact rational sums."""

import math
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("scipy")

import oracle  # noqa: E402  (the benchmark's directory is on sys.path)


def exact_window(n, p, lo, hi):
    """P(lo <= X <= hi) for X ~ Binomial(n, p), with p a Fraction."""
    return sum(
        math.comb(n, k) * p**k * (1 - p) ** (n - k)
        for k in range(max(lo, 0), min(hi, n) + 1)
    )


@pytest.mark.parametrize("n", [1, 5, 12, 30])
@pytest.mark.parametrize("p", [1 / 7, 0.5, 5 / 6, 0.95])
def test_log_window_matches_exact_sum(n, p):
    for lo, hi in [(0, n), (0, 0), (n, n), (1, n - 1), (n // 3, 2 * n // 3), (-4, n + 9)]:
        exact = exact_window(n, Fraction(p), lo, hi)
        got = oracle.log_window(n, p, lo, hi)
        if exact == 0:
            assert got == -math.inf
        else:
            assert math.exp(got) == pytest.approx(float(exact), rel=1e-12)


def test_log_window_edges():
    assert oracle.log_window(10, 0.3, 6, 5) == -math.inf
    assert oracle.log_window(10, 0.0, 0, 3) == 0.0
    assert oracle.log_window(10, 0.0, 1, 10) == -math.inf
    assert oracle.log_window(10, 1.0, 10, 10) == 0.0
    assert oracle.log_window(10, 1.0, 0, 9) == -math.inf


def test_log_window_vectorises_over_p():
    ps = np.array([0.0, 0.1, 0.5, 0.9, 1.0])
    many = oracle.log_window(20, ps, 4, 15)
    assert many.shape == ps.shape
    for p, value in zip(ps, many):
        assert value == oracle.log_window(20, float(p), 4, 15)


def test_windows_follow_three_sigma_rule():
    assert oracle.window(50, 0.95) == (43, 50)
    assert oracle.window(100, 0.5) == (35, 65)
    assert oracle.window(50, 1.0) == (50, 50)
    assert oracle.window(50, 0.0) == (0, 0)


def test_closed_form_probabilities():
    assert oracle.honest("two", 0.1) == pytest.approx({"0": 0.95, "+": 0.5})
    raw = oracle.flipped("four", 0.0, 0.0, 0.0)
    assert raw["0"] == pytest.approx(math.cos(math.pi / 8) ** 2, abs=1e-15)
    assert raw["1"] == pytest.approx(math.cos(math.pi / 8) ** 2, abs=1e-15)
    assert oracle.committed_one("four", 0.2) == pytest.approx(
        {"0": 0.5, "1": 0.5, "+": 0.1, "-": 0.9}
    )


def exact_pass(variant, r, n, tallied):
    total = Fraction(1)
    for s, p_honest in oracle.honest(variant, r).items():
        lo, hi = oracle.window(n, p_honest)
        total *= exact_window(n, Fraction(float(tallied[s])), lo, hi)
    return total


@pytest.mark.parametrize("variant", ["two", "four"])
@pytest.mark.parametrize("mu", [None, 0.2])
def test_objective_and_grid_max_match_exact_products(variant, mu):
    r, n, step = 0.1, 12, 0.25
    axis = [i * step for i in range(5)]
    exact = {}
    for p01 in axis:
        for p10 in axis:
            tallied = (
                oracle.flipped(variant, r, p01, p10)
                if mu is None
                else oracle.ideal_multiphoton(variant, r, mu, p01, p10)
            )
            exact[(p01, p10)] = exact_pass(variant, r, n, tallied)
            got = oracle.objective(variant, r, n, mu, p01, p10)
            assert math.exp(got) == pytest.approx(float(exact[(p01, p10)]), rel=1e-12)
    best, p01, p10 = oracle.grid_max(variant, r, n, mu, step=step)
    assert math.exp(best) == pytest.approx(float(max(exact.values())), rel=1e-12)
    assert exact[(p01, p10)] == max(exact.values())
