"""Property tests of the log-domain kernel, the pass probability (against
a scalar ``fsum`` reference), the Newton optimiser and the sweep parser.

Every property is drawn by ``hypothesis`` from a fixed seed, so the suite
gives the same examples on every run.
"""

import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbcsim import cli, protocol
from qbcsim.attacks import DistanceScenario, FakedDistance, max_safe_distance
from qbcsim.protocol import (
    STATE_VECTORS,
    ConditionalTable,
    Variant,
    build_test,
    commit_observable,
    honest_table,
    log_binomial_window,
    log_binomial_window_derivatives,
    log_pass_probabilities,
    pass_factors,
    pass_probability,
)
from qbcsim.strategy import (
    BeamSplitter,
    BreidbartFlips,
    FlipParams,
    Honest,
    IdealMultiPhoton,
    LogObjective,
    _newton_step,
    apply_flips,
    optimize,
    single_photon_share,
)
from qbcsim.qcore import born, breidbart
from test_protocol import fsum_window

TWO = Variant.TWO_STATE
FOUR = Variant.FOUR_STATE

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

unit = st.floats(0.0, 1.0)
objectives = st.one_of(
    st.just(BreidbartFlips()), st.sampled_from((0.05, 0.2, 1.0)).map(IdealMultiPhoton)
)


@st.composite
def windows(draw):
    """``(n, lo, hi)`` with a non-empty window; edges are often at or next
    to 0 and n."""
    n = draw(st.integers(1, 400))
    edge = st.one_of(st.sampled_from((0, 1, n - 1, n)), st.integers(0, n))
    lo, hi = sorted((min(max(draw(edge), 0), n), min(max(draw(edge), 0), n)))
    return n, lo, hi


@st.composite
def kernels(draw, max_n=300):
    variant = draw(st.sampled_from((TWO, FOUR)))
    claimed = draw(st.sampled_from((0, 1)))
    r = draw(st.one_of(st.sampled_from((0.0, 0.1, 1.0)), unit))
    n = draw(st.integers(1, max_n))
    objective = draw(objectives)
    config = (variant, claimed, r, n, objective)
    return LogObjective(variant, claimed, r, n, 3.0, objective), config


def log_window(n, p, lo, hi):
    return float(log_binomial_window(n, np.array(p), lo, hi))


@st.composite
def windows_and_probabilities(draw):
    """A window and a ``p`` anywhere in (0, 1), near 0 or 1, or near an
    edge of the window (a mean of ``lo`` or ``hi``)."""
    n, lo, hi = draw(windows())
    shift = draw(st.floats(-0.02, 0.02))
    p = draw(
        st.one_of(
            st.floats(1e-6, 1.0 - 1e-6),
            st.floats(1e-6, 1e-3),
            st.floats(1e-6, 1e-3).map(lambda x: 1.0 - x),
            st.sampled_from((lo, hi)).map(lambda k: k / n + shift),
        )
    )
    return n, lo, hi, min(max(p, 1e-6), 1.0 - 1e-6)


@SETTINGS
@given(windows_and_probabilities())
def test_derivatives_match_central_differences(case):
    n, lo, hi, p = case
    log_f, d1, d2 = map(float, log_binomial_window_derivatives(n, np.array(p), lo, hi))
    assert log_f == log_window(n, p, lo, hi)
    h = 1e-4 * min(p, 1.0 - p)
    f = [log_window(n, p + k * h, lo, hi) for k in (-2, -1, 0, 1, 2)]
    # fourth-order central differences; rounding of f limits them to about
    # eps*|f|/h and eps*|f|/h^2
    fd1 = (f[0] - 8.0 * f[1] + 8.0 * f[3] - f[4]) / (12.0 * h)
    fd2 = (-f[0] + 16.0 * f[1] - 30.0 * f[2] + 16.0 * f[3] - f[4]) / (12.0 * h * h)
    noise = 1e-15 * (1.0 + max(abs(v) for v in f))
    assert abs(d1 - fd1) <= 1e-6 * abs(d1) + 10.0 * noise / h
    assert abs(d2 - fd2) <= 1e-4 * abs(d2) + 100.0 * noise / (h * h)


@SETTINGS
@given(
    windows(),
    st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(0.0, 1e-200, exclude_min=True),
        st.floats(2.0**-53, 1e-13).map(lambda x: 1.0 - x),
    ),
)
def test_derivatives_are_finite_or_their_limit_anywhere_inside(window, p):
    # subnormal p included; next to 0 and 1 the terms of d2 overflow
    n, lo, hi = window
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log_f, d1, d2 = map(float, log_binomial_window_derivatives(n, np.array(p), lo, hi))
    assert math.isfinite(log_f)
    assert not math.isnan(d1)
    # log F is concave, so d2 is finite or -inf, and not above rounding of 0
    assert -math.inf <= d2 <= 1e-9 * (1.0 + d1 * d1)


@SETTINGS
@given(windows())
def test_derivatives_at_zero_and_one_are_the_one_sided_limits(window):
    n, lo, hi = window
    eps = 1e-12
    _, d1, d2 = log_binomial_window_derivatives(n, np.array([0.0, 1.0]), lo, hi)
    _, near1, near2 = log_binomial_window_derivatives(n, np.array([eps, 1.0 - eps]), lo, hi)
    # the derivatives move by at most about n^3 * eps over that distance
    slack = 10.0 * n**3 * eps
    for edge in (0, 1):
        if math.isinf(log_window(n, float(edge), lo, hi)):
            assert math.isnan(d1[edge]) and math.isnan(d2[edge])
        else:
            assert abs(d1[edge] - near1[edge]) <= 1e-6 * abs(d1[edge]) + slack
            assert abs(d2[edge] - near2[edge]) <= 1e-6 * abs(d2[edge]) + slack


@SETTINGS
@given(kernels(), unit, unit, unit, unit)
def test_kernel_is_concave_along_segments(kernel, x0, y0, x1, y1):
    fn, _ = kernel
    t = np.linspace(0.0, 1.0, 9)
    values = fn(x0 + t * (x1 - x0), y0 + t * (y1 - y0))
    finite = values[np.isfinite(values)]
    tol = 1e-9 * (1.0 + (np.abs(finite).max() if finite.size else 0.0))
    second = values[:-2] - 2.0 * values[1:-1] + values[2:]
    assert not np.any(second > tol), second


@settings(SETTINGS, max_examples=30)
@given(kernels(max_n=200), st.lists(st.tuples(unit, unit), min_size=1, max_size=20))
def test_optimum_beats_the_kernel_at_random_pairs(kernel, pairs):
    fn, (variant, claimed, r, n, objective) = kernel
    res = optimize(variant, claimed, r, n, 3.0, objective=objective)
    x, y = np.array(pairs).T
    assert np.all(res.log_value >= fn(x, y) - 1e-12)


@SETTINGS
@given(
    st.sampled_from((TWO, FOUR)), st.sampled_from((0, 1)), unit, objectives, unit, unit
)
def test_tables_are_affine_in_the_flips(variant, claimed, r, objective, x, y):
    # the kernel's coefficients come from the corners; a party whose table
    # is not affine in (p01, p10) would break it
    def table(a, b):
        return replace(objective, flips=FlipParams(a, b)).table(variant, claimed, r)

    t00, t10, t01, txy = table(0.0, 0.0), table(1.0, 0.0), table(0.0, 1.0), table(x, y)
    for s in variant.states:
        for o in (0, 1):
            c = t00.prob(s, o)
            want = c + (t10.prob(s, o) - c) * x + (t01.prob(s, o) - c) * y
            assert abs(txy.prob(s, o) - want) <= 1e-15


@SETTINGS
@given(st.sampled_from((0, 1)), unit, st.integers(1, 200), objectives, unit, unit)
def test_four_state_kernel_is_swap_symmetric(claimed, r, n, objective, x, y):
    fn = LogObjective(FOUR, claimed, r, n, 3.0, objective)
    a, b = fn(x, y), fn(y, x)
    assert a == b or abs(a - b) <= 1e-12


flip_pairs = st.builds(FlipParams, unit, unit)
mus = st.floats(0.01, 2.0)
parties = st.one_of(
    st.just(Honest()),
    st.builds(BreidbartFlips, flip_pairs),
    st.builds(IdealMultiPhoton, mus, flip_pairs),
    st.builds(BeamSplitter, mus),
    st.builds(
        FakedDistance,
        st.tuples(unit, unit).map(lambda rs: DistanceScenario(max(rs), min(rs))),
        st.floats(16.0, 60.0),
        st.just(0.2),
    ),
)


@SETTINGS
@given(
    st.sampled_from((TWO, FOUR)),
    st.sampled_from((0, 1)),
    st.sampled_from((0, 1)),
    unit,
    st.integers(1, 400),
    parties,
)
def test_log_pass_probability_is_the_log_of_the_scalar_path(
    variant, claimed, table_claim, r, n, party
):
    # the party may reveal for either bit, so binding failures are covered;
    # the kernel's sums are checked against the scalar fsum reference
    test = build_test(variant, claimed, r, n, 3.0)
    table = party.table(variant, table_claim, r)
    want = {s: fsum_window(n, p, *test.windows[s]) for s, p in test.tallied(table).items()}
    p = math.prod(want.values())
    if p > 1e-300:
        assert abs(log_pass_probabilities([(test, table)])[0] - math.log(p)) <= 1e-12
    assert abs(pass_probability(test, table) - p) <= 1e-12 * p + 1e-300
    factors = pass_factors(test, table)
    assert list(factors) == list(test.windows)
    for s, got in factors.items():
        assert abs(got - want[s]) <= 1e-12 * want[s] + 1e-300, (s, got, want[s])


@st.composite
def any_parties(draw):
    """Any of the five party types, with ``mu`` in (0, 20], ``r_near <= r``
    and a length at or past the 50%-loss distance; and ``r``."""
    r = draw(unit)
    flips = draw(flip_pairs)
    mu = draw(st.floats(0.0, 20.0, exclude_min=True))
    alpha = draw(st.floats(0.0, 1.0, exclude_min=True))
    stretch = draw(st.one_of(st.just(1.0), st.floats(1.0, 10.0), st.just(math.inf)))
    party = draw(
        st.sampled_from((
            Honest(),
            BreidbartFlips(flips),
            IdealMultiPhoton(mu, flips),
            BeamSplitter(mu),
            FakedDistance(
                DistanceScenario(r, draw(st.floats(0.0, r))),
                stretch * max_safe_distance(alpha),
                alpha,
            ),
        ))
    )
    return party, r


@settings(SETTINGS, max_examples=200)
@given(st.sampled_from((TWO, FOUR)), st.sampled_from((0, 1)), any_parties())
def test_table_rows_are_normalised(variant, claimed, party_and_r):
    party, r = party_and_r
    table = party.table(variant, claimed, r)
    for s in variant.states:
        p0, p1 = table.prob(s, 0), table.prob(s, 1)
        assert 0.0 <= p0 <= 1.0 and 0.0 <= p1 <= 1.0, (s, p0, p1)
        assert abs(p0 + p1 - 1.0) <= 1e-15, (s, p0 + p1)


def _two_entry_flips(rows, p01, p10):
    """The flip kernel on rows ``{s: (p(0|s), p(1|s))}``, each outcome
    formed on its own: the arithmetic of tables that stored both entries."""
    return {
        s: (p0 * (1.0 - p01) + p1 * p10, p1 * (1.0 - p10) + p0 * p01)
        for s, (p0, p1) in rows.items()
    }


def _born_rows(basis, variant, r):
    born_zero = {s: born(basis, STATE_VECTORS[s], r) for s in variant.states}
    return {s: (p, 1.0 - p) for s, p in born_zero.items()}


def _two_entry_rows(party, variant, claimed, r):
    """Both entries of every row of ``party``'s table, from the Born rule
    and the two-entry flip and photon-number mixture arithmetic."""
    honest = _born_rows(commit_observable(claimed), variant, r)
    if isinstance(party, Honest):
        return honest
    if isinstance(party, BreidbartFlips):
        raw = _born_rows(breidbart(), variant, r)
        return _two_entry_flips(raw, party.flips.p01, party.flips.p10)
    if isinstance(party, IdealMultiPhoton):
        w = single_photon_share(party.mu)
        flipped = _two_entry_rows(BreidbartFlips(party.flips), variant, claimed, r)
        return {
            s: tuple(w * f + (1.0 - w) * h for f, h in zip(flipped[s], honest[s]))
            for s in variant.states
        }
    if isinstance(party, BeamSplitter):
        w = single_photon_share(party.mu) / 4.0
        return _two_entry_flips(honest, w, w)
    near = _born_rows(commit_observable(claimed), variant, party.scenario.r_near)
    delta = max(0.5 - 10.0 ** (-party.alpha * party.length_km / 10.0), 0.0)
    w = delta / (2.0 * (0.5 + delta))
    return _two_entry_flips(near, w, w)


@settings(SETTINGS, max_examples=200)
@given(
    st.sampled_from((TWO, FOUR)),
    st.sampled_from((0, 1)),
    any_parties(),
    st.lists(unit, min_size=4, max_size=4),
    flip_pairs,
)
def test_one_number_rows_match_the_two_entry_reference(
    variant, claimed, party_and_r, p_zero, flips
):
    # a random table through the flip kernel, and every party type's table
    table = ConditionalTable(variant.states, dict(zip(variant.states, p_zero)))
    rows = {s: (p, 1.0 - p) for s, p in table.p_zero.items()}
    cases = [(apply_flips(table, flips), _two_entry_flips(rows, flips.p01, flips.p10))]
    party, r = party_and_r
    cases.append((party.table(variant, claimed, r), _two_entry_rows(party, variant, claimed, r)))
    for got, want in cases:
        for s in variant.states:
            for o in (0, 1):
                assert abs(got.prob(s, o) - want[s][o]) <= 1e-15, (party, s, o)


@settings(SETTINGS, max_examples=200)
@given(
    st.sampled_from((TWO, FOUR)),
    st.sampled_from((0, 1)),
    unit,
    unit,
    st.floats(1e-3, 5.0),
    st.one_of(st.just(1.0), st.floats(1.0, 100.0), st.just(math.inf)),
)
def test_faked_table_is_the_padded_closed_form(variant, claimed, x, y, alpha, stretch):
    # half the tally from the r_near measurements, the fraction delta of
    # coin flips: each entry is (p_near/2 + delta/2) / (1/2 + delta)
    r_near, r_distant = sorted((x, y))
    length = stretch * max_safe_distance(alpha)
    party = FakedDistance(DistanceScenario(r_distant, r_near), length, alpha)
    table = party.table(variant, claimed, r_distant)
    near = honest_table(variant, claimed, r_near)
    delta = max(0.5 - 10.0 ** (-alpha * length / 10.0), 0.0)
    for s in variant.states:
        for o in (0, 1):
            want = (near.prob(s, o) / 2.0 + delta / 2.0) / (0.5 + delta)
            assert abs(table.prob(s, o) - want) <= 1e-15, (s, o, table.prob(s, o), want)


@st.composite
def stacked_windows(draw):
    """``n``, one to four windows and an array of ``p`` with one column per
    window; windows include ``[0, 0]``, ``[n, n]``, ``[0, n]`` and
    ``lo = hi``, and ``p`` includes 0 and 1."""
    n = draw(st.integers(1, 300))
    count = draw(st.integers(1, 4))
    edge = st.one_of(st.sampled_from((0, 1, n - 1, n)), st.integers(0, n))
    pairs = []
    for _ in range(count):
        kind = draw(st.sampled_from(("any", "zero", "full", "top", "point")))
        if kind == "any":
            lo, hi = sorted((min(max(draw(edge), 0), n), min(max(draw(edge), 0), n)))
        elif kind == "zero":
            lo, hi = 0, 0
        elif kind == "full":
            lo, hi = 0, n
        elif kind == "top":
            lo, hi = n, n
        else:
            lo = hi = draw(st.integers(0, n))
        pairs.append((lo, hi))
    lo, hi = (np.array(v) for v in zip(*pairs))
    # p nearer 0 or 1 than 1e-6 can take d2 past the float range
    p_value = st.one_of(
        st.sampled_from((0.0, 1.0)), st.floats(1e-6, 1.0 - 1e-6), st.floats(1e-6, 1e-3)
    )
    rows = draw(st.integers(1, 5))
    p = np.array(draw(st.lists(p_value, min_size=rows * count, max_size=rows * count)))
    return n, lo, hi, p.reshape(rows, count)


def assert_close(got, want, *, atol=0.0, rtol=0.0):
    """Equal where either is not finite, else within the tolerances."""
    exact = ~(np.isfinite(got) & np.isfinite(want))
    assert np.array_equal(got[exact], want[exact], equal_nan=True)
    got, want = got[~exact], want[~exact]
    assert np.all(np.abs(got - want) <= atol + rtol * np.abs(want))


@SETTINGS
@given(stacked_windows())
def test_stacked_windows_match_one_call_per_window(case):
    n, lo, hi, p = case
    stacked = log_binomial_window_derivatives(n, p, lo, hi)
    single = [
        log_binomial_window_derivatives(n, p[:, s], int(lo[s]), int(hi[s]))
        for s in range(lo.size)
    ]
    (log_f, d1, d2) = (np.stack(parts, axis=-1) for parts in zip(*single))
    assert_close(stacked[0], log_f, atol=1e-12)
    assert_close(stacked[1], d1, rtol=1e-9)
    assert_close(stacked[2], d2, rtol=1e-9)
    assert_close(log_binomial_window(n, p, lo, hi), log_f, atol=1e-12)


def window_runs(points: int, lo: np.ndarray, hi: np.ndarray, block: int) -> list[slice]:
    """The runs the kernel sums a stacked call in, for windows inside
    ``0..n``: each window joins the run before it while the run's points
    x windows x widest window stay within ``block``, and else starts one."""
    runs = [[0]]
    for s in range(1, lo.size):
        joined = runs[-1] + [s]
        if points * len(joined) * max(int(hi[i] - lo[i]) + 1 for i in joined) <= block:
            runs[-1] = joined
        else:
            runs.append([s])
    return [slice(run[0], run[-1] + 1) for run in runs]


@SETTINGS
@given(stacked_windows())
def test_a_stacked_call_is_one_call_per_run(case):
    # padded terms that fit in one block are one run, as with the default
    # block; past it, down to a block of 1, the call is one call per run
    n, lo, hi, p = case
    padded = p.size * int((hi - lo).max() + 1)
    whole = log_binomial_window(n, p, lo, hi)
    for block in (padded, padded - 1, 1):
        with mock.patch.object(protocol, "_BLOCK", block):
            got = log_binomial_window(n, p, lo, hi)
            runs = window_runs(p.shape[0], lo, hi, block)
            want = [log_binomial_window(n, p[:, run], lo[run], hi[run]) for run in runs]
        assert np.array_equal(got, np.concatenate(want, axis=-1))
        if block == padded:
            assert np.array_equal(got, whole)


@SETTINGS
@given(stacked_windows())
def test_one_stacked_window_is_the_scalar_window(case):
    n, lo, hi, p = case
    column = p[:, :1]
    scalar = log_binomial_window_derivatives(n, column[:, 0], int(lo[0]), int(hi[0]))
    stacked = log_binomial_window_derivatives(n, column, lo[:1], hi[:1])
    for got, want in zip(stacked, scalar):
        assert np.array_equal(got[:, 0], want, equal_nan=True)
    got = log_binomial_window(n, column, lo[:1], hi[:1])[:, 0]
    assert np.array_equal(got, log_binomial_window(n, column[:, 0], int(lo[0]), int(hi[0])))


@st.composite
def stacked_pairs(draw):
    """A list of (test, table) pairs of one ``n``: tests of either variant
    and bit, with windows of mixed widths (``r = 0`` gives ``[n, n]``
    windows), and tables that are any party's or put ``p`` at exactly 0 or 1."""
    n = draw(st.integers(1, 300))
    pairs = []
    for _ in range(draw(st.integers(1, 30))):
        variant = draw(st.sampled_from((TWO, FOUR)))
        claimed = draw(st.sampled_from((0, 1)))
        r = draw(st.one_of(st.just(0.0), unit))
        sigma = draw(st.sampled_from((3.0, 10.0, 1e308)))
        test = build_test(variant, claimed, r, n, sigma)
        party, party_r = draw(any_parties())
        extreme = ConditionalTable(
            variant.states, {s: draw(st.sampled_from((0.0, 1.0))) for s in variant.states}
        )
        table = draw(st.sampled_from((party.table(variant, claimed, party_r), extreme)))
        pairs.append((test, table))
    return pairs


@SETTINGS
@given(stacked_pairs(), st.sampled_from((protocol._BLOCK, 256, 1)))
def test_stacked_scoring_matches_one_pair_at_a_time(pairs, block):
    # a smaller block splits the stack into more calls, down to one per pair
    with mock.patch.object(protocol, "_BLOCK", block):
        stacked = log_pass_probabilities(pairs)
    assert len(stacked) == len(pairs)
    for (test, table), got in zip(pairs, stacked):
        # the pair's own kernel call: its tallied probabilities and windows
        lo, hi = np.array(list(test.windows.values())).T
        p = np.array(list(test.tallied(table).values()))
        want = float(log_binomial_window(test.n_per_state, p, lo, hi).sum())
        # a batch of one is that call, bit for bit
        assert log_pass_probabilities([(test, table)]) == [want]
        if want == -math.inf:
            assert got == want
        else:
            # relative in the log, and so in the probability where the log is near 0
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)


@SETTINGS
@given(st.integers(1, 300), st.integers(1, 3), st.integers(0, 3),
       st.sampled_from((protocol._BLOCK, 1)))
def test_stacked_scoring_needs_one_n(n, shift, at, block):
    # with a block of 1 every pair is its own call, and n must still agree
    table = honest_table(TWO, 0, 0.1)
    pairs = [(build_test(TWO, 0, 0.1, n), table)] * 4
    pairs[at] = (build_test(TWO, 0, 0.1, n + shift), table)
    with mock.patch.object(protocol, "_BLOCK", block):
        with pytest.raises(ValueError, match="must share n_per_state"):
            protocol.log_pass_probabilities(pairs)


def eigh_newton_step(grad, hess, free):
    """The Newton step and decrement by ``numpy.linalg.eigh``, and the
    largest curvature: the reference for the closed form of ``_newton_step``."""
    grad, hess, free = np.array(grad), np.array(hess), np.array(free)
    step = np.zeros(grad.size)
    w, vecs = np.linalg.eigh(-hess[np.ix_(free, free)])
    curved = w > 1e-12 * w.max(initial=0.0)
    coef = vecs[:, curved].T @ grad[free]
    scaled = coef / w[curved]
    step[free] = vecs[:, curved] @ scaled
    return step, float(coef @ scaled), w.max(initial=0.0)


@st.composite
def newton_problems(draw):
    """A gradient, a negative-semidefinite Hessian ``-R diag(top, low) R^T``
    and a free mask, in one or two coordinates.  ``low`` is ``top``, 0, well
    off the 1e-12 cut or at it; near the cut, where one rounding of rotated
    entries would decide which side ``low`` falls, the Hessian is diagonal."""
    top = draw(st.sampled_from((0.0, 1.0, 10.0 ** draw(st.floats(-6.0, 6.0)))))
    component = st.floats(-1.0, 1.0)
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    if draw(st.sampled_from((1, 2, 2, 2))) == 1:
        grad = (draw(component) * scale,)
        hess = ((-top,),)
        free = (draw(st.sampled_from((True, True, False))),)
    else:
        grad = (draw(component) * scale, draw(component) * scale)
        kind = draw(st.sampled_from(("equal", "singular", "well", "below", "above", "at")))
        low = top * draw({
            "equal": st.just(1.0),
            "singular": st.just(0.0),
            "well": st.floats(1e-3, 1.0),
            "below": st.floats(1e-14, 0.5e-12),
            "above": st.floats(2e-12, 1e-10),
            "at": st.just(1e-12),
        }[kind])
        if kind in ("above", "at"):
            cos, sin = draw(st.sampled_from(((1.0, 0.0), (0.0, 1.0))))
        else:
            # near pi/2 the top eigenvector's first entry is all cancellation
            near_axis = st.floats(-1e-6, 1e-6).map(lambda e: 0.5 * math.pi + e)
            angle = draw(st.one_of(st.floats(0.0, math.pi), near_axis))
            cos, sin = math.cos(angle), math.sin(angle)
        h01 = -(top - low) * cos * sin
        hess = ((-(top * cos * cos + low * sin * sin), h01),
                (h01, -(top * sin * sin + low * cos * cos)))
        free = draw(st.sampled_from(
            ((True, True),) * 3 + ((True, False), (False, True), (False, False))
        ))
    return grad, hess, free


@settings(SETTINGS, max_examples=400)
@given(newton_problems())
def test_closed_form_newton_step_matches_eigh(problem):
    grad, hess, free = problem
    step, decrement = _newton_step(grad, hess, free)
    want_step, want_decrement, top = eigh_newton_step(grad, hess, free)
    # rounding of a projection that cancels is relative to |g| / top
    g = math.hypot(*(x for x, f in zip(grad, free) if f))
    unit = g / top if top > 0.0 else 0.0
    assert len(step) == len(grad)
    gap = float(np.max(np.abs(np.array(step) - want_step)))
    assert gap <= 1e-12 * (float(np.max(np.abs(want_step))) + unit), (step, want_step)
    assert abs(decrement - want_decrement) <= 1e-12 * (abs(want_decrement) + g * unit)
    assert decrement >= 0.0


@SETTINGS
@given(st.integers(-500, 500), st.integers(1, 200), st.integers(0, 100),
       st.sampled_from((10, 100, 1000)))
def test_sweep_values_lie_in_the_range(start, step, count, scale):
    # a decimal a:b:step whose upper end is a whole number of steps from a
    a, b, d = start / scale, (start + count * step) / scale, step / scale
    values = cli.parse_range(f"{a!r}:{b!r}:{d!r}", "--r-range")
    assert len(values) == count + 1
    assert all(a <= v <= b for v in values), (a, b, d, values)
