import argparse
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import pytest

from qbcsim import cli, strategy
from qbcsim.attacks import MultiPhotonMode, multiphoton_success
from qbcsim.protocol import Variant, honest_table
from qbcsim.strategy import FlipParams, cheat_success, optimize


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_one_line_error(args, subject, capsys):
    code, out, err = run_cli(args, capsys)
    assert code != 0 and out == ""
    assert err.startswith(f"error: {subject}") and err.count("\n") == 1, err


#: The one-line error of an ``--m`` of 2,000,002 where the per-state count is m/2.
ABOVE_CAP = "--m 2000002 gives 1000001 particles per state, more than 1000000"


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def reference_csv(artifact):
    """CSV text as ``cli.to_csv`` wrote it with one ``csv.writer`` call and
    one format call per cell."""

    def fmt(value):
        if value is None:
            return ""
        if isinstance(value, float):
            return f"{value:.9g}"
        return str(value)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(artifact.columns)
    for row in artifact.rows:
        writer.writerow([fmt(v) for v in row])
    return buf.getvalue()


class TestToCsv:
    FLOATS = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e22, 0.1, -1.5e-300, 2.0]

    @pytest.mark.parametrize(
        "artifact",
        (
            cli.Artifact(("x", "y"), [[v, -v] for v in FLOATS]),
            cli.Artifact(("x", "y"), [(v, v) for v in FLOATS]),
            cli.Artifact(
                ("f", "n", "s", "mixed"),
                [
                    [0.5, 3, 'say "hi", then go', None],
                    [-0.0, -7, "a,b", 1.25],
                    [math.nan, 10**30, 'quote"', "line\nbreak"],
                    [1e22, 0, "", 4],
                ],
            ),
            cli.Artifact(("a,b", 'q"', "plain"), [[None, None, None], [True, "x", 2.5]]),
            cli.Artifact(("only",), [[None], [""], [1.5], ["a,b"]]),
            cli.Artifact(("only",), [[0.25], [math.inf]]),
            cli.Artifact(("x", "y"), []),
        ),
        ids=("floats", "float-tuples", "mixed", "quoted-header", "one-column",
             "one-float-column", "empty"),
    )
    def test_matches_a_csv_writer_per_row(self, artifact):
        assert cli.to_csv(artifact) == reference_csv(artifact)

    @pytest.mark.parametrize(
        "args",
        (
            ["honest", "--variant", "four", "--r-range", "0:0.3:0.1", "--m", "100"],
            ["binding-failure", "--m", "100", "--r-range", "0:0.2:0.02"],
            ["cheat-surface", "--r", "0.1", "--m", "100", "--grid-step", "0.05"],
            *(
                ["cheat-surface", "--r", "0.16", "--m", "100", "--grid-step", step,
                 "--variant", variant, "--commit", claimed]
                # 0.3 gives an axis whose last step, to exactly 1, is shorter
                for step in ("0.5", "0.3", "0.05", "0.01")
                for variant in ("two", "four")
                for claimed in ("0", "1")
            ),
            ["cheat-max", "--m", "100", "--r-range", "0:0.2:0.1"],
            ["tables", "--m", "100,200"],
            ["distance", "--alpha", "0.2", "--rd", "0.6", "--rn", "0"],
            ["multiphoton", "--m", "100", "--mu", "0.2", "--r", "0.1"],
            ["mc", "--strategy", "honest", "--r", "0.1", "--m", "100", "--trials", "1000"],
            pytest.param(
                ["binding-failure", "--m", "100", "--r-range", "0:1:0.0001"],
                id="binding-failure-10001-rows",
            ),
        ),
        ids=lambda a: "-".join((a[0], a[8], a[10], a[6])) if a[2] == "0.16" else a[0],
    )
    def test_every_command_artifact_matches_a_csv_writer_per_row(self, args):
        parsed = cli.build_parser().parse_args(args)
        cli._resolve(parsed)
        artifact = cli._COMMANDS[parsed.command](parsed)
        assert cli.to_csv(artifact) == reference_csv(artifact)


class TestHonest:
    def test_grid_rows_and_normalisation(self, capsys):
        code, out, _ = run_cli(
            ["honest", "--variant", "two", "--r-range", "0:0.2:0.1", "--m", "100"], capsys
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 3
        assert header[0] == "r"
        for row in rows:
            p00, p10 = float(row[1]), float(row[2])
            assert abs(p00 + p10 - 1.0) <= 1e-9

    def test_reference_noise_row(self, capsys):
        _, out, _ = run_cli(["honest", "--r", "0.16", "--m", "100"], capsys)
        header, rows = parse_csv(out)
        assert "0.92" in rows[0]

    def test_round_trip_recovers_canonicalised_values(self, capsys):
        _, out, _ = run_cli(["honest", "--r-range", "0:0.3:0.1", "--m", "100"], capsys)
        header, rows = parse_csv(out)
        for row in rows:
            r = float(row[0])
            table = honest_table(Variant.TWO_STATE, 0, r)
            for cell, value in ((row[1], table.prob("0", 0)), (row[3], table.prob("+", 0))):
                # the artifact encodes the 9-significant-digit canonical form
                assert float(cell) == float(f"{value:.9g}")
                assert abs(float(cell) - value) <= 1e-9 * max(1.0, abs(value))

    def test_formatting_is_idempotent(self, capsys):
        _, out, _ = run_cli(["honest", "--r-range", "0:0.3:0.1", "--m", "100"], capsys)
        header, rows = parse_csv(out)
        for row in rows:
            for cell in row:
                assert f"{float(cell):.9g}" == cell

    def test_json_format(self, capsys):
        _, out, _ = run_cli(
            ["honest", "--r", "0.16", "--m", "100", "--format", "json"], capsys
        )
        records = json.loads(out)
        assert len(records) == 1
        assert records[0]["p(0|0)"] == 0.92

    def test_rejects_indivisible_m(self, capsys):
        code, _, err = run_cli(["honest", "--r", "0.1", "--m", "101"], capsys)
        assert code != 0
        assert "not divisible" in err

    def test_rejects_conflicting_noise_flags(self, capsys):
        code, _, err = run_cli(
            ["honest", "--r", "0.1", "--r-range", "0:1:0.5", "--m", "100"], capsys
        )
        assert code != 0
        assert "--r" in err

    @pytest.mark.parametrize("command", ("honest", "cheat-max"))
    def test_empty_window_names_its_inputs(self, command, capsys):
        args = [command, "--m", "2", "--r", "0.1", "--sigma-factor", "0.5"]
        code, out, err = run_cli(args, capsys)
        assert code != 0 and out == "" and err.count("\n") == 1
        assert "empty acceptance window for state '+'" in err
        assert "sigma_factor=0.5" in err and "n_per_state=1" in err


class TestBindingFailure:
    def test_default_grid(self, capsys):
        code, out, _ = run_cli(["binding-failure", "--m", "100"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["r", "probability", "log10_probability"]
        assert len(rows) == 51
        values = [float(row[1]) for row in rows]
        assert values[0] < 1e-6
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-15

    def test_rejects_bad_range(self, capsys):
        code, _, err = run_cli(
            ["binding-failure", "--m", "100", "--r-range", "0:0.5:-0.1"], capsys
        )
        assert code != 0
        assert "step" in err

    def test_log10_column_carries_an_underflowed_failure(self, capsys):
        code, out, _ = run_cli(["binding-failure", "--m", "3200", "--r", "0.1"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header[2] == "log10_probability"
        r, probability, log10_probability = (float(cell) for cell in rows[0])
        assert probability == 0.0
        assert math.isfinite(log10_probability) and log10_probability < -320.0

    def test_json_is_strict_and_writes_a_zero_probability_log_as_null(self, capsys):
        args = ["binding-failure", "--m", "100", "--r", "0"]

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        _, out, _ = run_cli(args + ["--format", "json"], capsys)
        records = json.loads(out, parse_constant=reject)
        assert records == [{"r": 0.0, "probability": 0.0, "log10_probability": None}]
        _, out, _ = run_cli(args, capsys)
        assert parse_csv(out)[1] == [["0", "0", "-inf"]]

    def test_log10_column_matches_the_probability(self, capsys):
        _, out, _ = run_cli(["binding-failure", "--m", "100", "--variant", "four"], capsys)
        for row in parse_csv(out)[1]:
            probability, log10_probability = float(row[1]), float(row[2])
            if probability > 0.0:
                # both columns carry 9 significant digits
                want = math.log10(probability)
                assert abs(log10_probability - want) <= 1e-8 * (1.0 + abs(want))

    @pytest.mark.parametrize("variant", ("two", "four"))
    @pytest.mark.parametrize("m", ("100", "3200"))
    def test_probability_is_the_exp_of_the_log_column(self, variant, m):
        # the README sweep, at full precision: one kernel call gives both
        # columns, so they agree wherever the probability does not underflow
        args = ["binding-failure", "--variant", variant, "--m", m,
                "--r-range", "0:0.5:0.01"]
        parsed = cli.build_parser().parse_args(args)
        cli._resolve(parsed)
        rows = cli._COMMANDS[parsed.command](parsed).rows
        assert len(rows) == 51
        # exp rounds to 0 below ln(2**-1075), a log10 of about -323.606
        for r, probability, log10_probability in rows:
            if log10_probability < -323.61:
                assert probability == 0.0, r
            else:
                assert log10_probability > -323.6 and probability > 0.0, r
            if probability > 0.0:
                want = 10.0**log10_probability
                assert abs(probability - want) <= 1e-8 * want + 1e-320, r


class TestCheatSurface:
    def test_grid_size_and_optimizer_dominance(self, capsys):
        code, out, _ = run_cli(
            ["cheat-surface", "--r", "0.1", "--m", "100", "--grid-step", "0.02"], capsys
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 51 * 51
        best = max(float(row[2]) for row in rows)
        res = optimize(Variant.TWO_STATE, 0, 0.1, 50, 3.0)
        assert best <= res.value + 1e-9
        for row in rows:
            flips = FlipParams(float(row[0]), float(row[1]))
            value = cheat_success(Variant.TWO_STATE, 0, 0.1, 50, 3.0, flips)
            assert row[2] == f"{value:.9g}"

    def test_noiseless_optimum_on_boundary(self, capsys):
        _, out, _ = run_cli(
            ["cheat-surface", "--r", "0", "--m", "100", "--grid-step", "0.05"], capsys
        )
        header, rows = parse_csv(out)
        best_row = max(rows, key=lambda row: float(row[2]))
        assert float(best_row[0]) == 0.0

    @pytest.mark.parametrize(
        "step, multiples", (("0.3", 4), ("0.4", 3), ("0.07", 15), ("0.35", 3))
    )
    def test_axis_is_the_multiples_below_one_then_one(self, step, multiples, capsys):
        # a step that does not divide 1 still ends each axis at exactly 1
        _, out, _ = run_cli(
            ["cheat-surface", "--r", "0.1", "--m", "100", "--grid-step", step], capsys
        )
        _, rows = parse_csv(out)
        axis = [f"{k * float(step):.9g}" for k in range(multiples)] + ["1"]
        assert [row[0] for row in rows] == [x for x in axis for _ in axis]
        assert [row[1] for row in rows] == axis * len(axis)


class TestTables:
    def test_two_state_reference_row(self, capsys):
        code, out, _ = run_cli(["tables", "--variant", "two", "--m", "200"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header[:4] == ["m", "sp_p01", "sp_p10", "sp_success"]
        row = rows[0]
        assert abs(float(row[1]) - 0.0) <= 0.01
        assert abs(float(row[2]) - 0.490563) <= 0.01
        assert abs(float(row[4]) - 0.0) <= 0.01
        assert abs(float(row[5]) - 0.494314) <= 0.01

    def test_four_state_reference_row(self, capsys):
        _, out, _ = run_cli(["tables", "--variant", "four", "--m", "400"], capsys)
        header, rows = parse_csv(out)
        row = rows[0]
        assert abs(float(row[1]) - 0.101166) <= 0.01
        assert abs(float(row[2]) - 0.101166) <= 0.01

    def test_rejects_odd_m(self, capsys):
        code, _, err = run_cli(["tables", "--m", "101"], capsys)
        assert code != 0
        assert "even" in err

    def test_appended_log10_columns(self, capsys):
        _, out, _ = run_cli(["tables", "--variant", "four", "--m", "100"], capsys)
        header, rows = parse_csv(out)
        assert header[7:] == ["sp_log10", "mp_log10"]
        row = rows[0]
        assert abs(float(row[7]) - math.log10(float(row[3]))) <= 1e-8
        assert abs(float(row[8]) - math.log10(float(row[6]))) <= 1e-8

    def test_rejects_nan_mu(self, capsys):
        code, _, err = run_cli(["tables", "--m", "100", "--mu", "nan"], capsys)
        assert code != 0
        assert "--mu must be positive" in err


class TestCheatMax:
    def test_log10_column_carries_an_underflowed_optimum(self, capsys):
        code, out, _ = run_cli(
            ["cheat-max", "--m", "10000", "--r", "0.1", "--variant", "four"], capsys
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["m", "r", "p01", "p10", "p_max", "log10_p_max"]
        m, r, p01, p10, p_max, log10_p_max = (float(cell) for cell in rows[0])
        assert p01 == p10 and abs(p01 - 0.13) <= 0.01
        assert p_max == 0.0
        assert abs(log10_p_max * math.log(10.0) - (-1180.350)) <= 1e-3

    def test_rejects_infinite_sigma_factor(self, capsys):
        assert_one_line_error(
            ["cheat-max", "--m", "100", "--r", "0.1", "--sigma-factor", "inf"],
            "sigma_factor", capsys,
        )


class TestDistance:
    def test_noiseless_value(self, capsys):
        code, out, _ = run_cli(["distance", "--alpha", "0.2"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        value = float(rows[0][header.index("max_safe_km")])
        assert abs(value - 15.0515) <= 1e-3

    def test_noisy_value(self, capsys):
        _, out, _ = run_cli(
            ["distance", "--alpha", "0.2", "--rd", "0.1", "--rn", "0"], capsys
        )
        header, rows = parse_csv(out)
        value = float(rows[0][header.index("max_safe_noisy_km")])
        assert abs(value - 12.4938) <= 5e-4

    def test_no_safe_distance_is_empty_cell(self, capsys):
        _, out, _ = run_cli(
            ["distance", "--alpha", "0.2", "--rd", "0.6", "--rn", "0"], capsys
        )
        header, rows = parse_csv(out)
        assert rows[0][header.index("max_safe_noisy_km")] == ""

    def test_json_null_for_no_safe_distance(self, capsys):
        _, out, _ = run_cli(
            ["distance", "--alpha", "0.2", "--rd", "0.6", "--rn", "0", "--format", "json"],
            capsys,
        )
        records = json.loads(out)
        assert records[0]["max_safe_noisy_km"] is None

    def test_rejects_nonpositive_alpha(self, capsys):
        code, _, err = run_cli(["distance", "--alpha", "0"], capsys)
        assert code != 0

    def test_rejects_nan_alpha(self, capsys):
        assert_one_line_error(["distance", "--alpha", "nan"], "--alpha must be positive", capsys)

    def test_infinite_alpha_is_the_zero_length_limit(self, capsys):
        code, out, _ = run_cli(["distance", "--alpha", "inf"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert float(rows[0][header.index("max_safe_km")]) == 0.0

    def test_no_positive_safe_length_is_zero(self, capsys):
        # the closed form reads -8.80456295 km here
        _, out, _ = run_cli(["distance", "--alpha", "0.2", "--rd", "0.4", "--rn", "0"], capsys)
        header, rows = parse_csv(out)
        assert rows[0][header.index("max_safe_noisy_km")] == "0"

    def test_rejects_sigma_factor_but_not_its_config_key(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["distance", "--alpha", "0.2", "--sigma-factor", "3"])
        assert exit_.value.code == 2
        assert "error: unrecognized arguments: --sigma-factor 3" in capsys.readouterr().err
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("sigma-factor=2\n")
        assert run_cli(["distance", "--alpha", "0.2", "--config", str(cfg)], capsys) == (
            run_cli(["distance", "--alpha", "0.2"], capsys)
        )


class TestMultiphoton:
    def test_optimised_point(self, capsys):
        code, out, _ = run_cli(
            ["multiphoton", "--m", "100", "--mu", "0.2", "--r", "0.1"], capsys
        )
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert abs(float(row["ideal_p10"]) - 0.492572) <= 0.01
        assert float(row["ideal_success"]) >= float(row["beam_splitter_success"])

    def test_fixed_flips_skip_optimisation(self, capsys):
        _, out, _ = run_cli(
            [
                "multiphoton", "--m", "100", "--mu", "0.2", "--r", "0.1",
                "--p01", "0", "--p10", "0.4926",
            ],
            capsys,
        )
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        expected = multiphoton_success(
            Variant.TWO_STATE, 0, 0.1, 50, 3.0, 0.2,
            FlipParams(0.0, 0.4926), MultiPhotonMode.IDEAL,
        )
        assert abs(float(row["ideal_success"]) - expected) <= 1e-8

    def test_rejects_conflicting_mu_flags(self, capsys):
        code, _, err = run_cli(
            ["multiphoton", "--m", "100", "--mu", "0.2", "--mu-range", "0.1:1:0.1",
             "--r", "0.1"],
            capsys,
        )
        assert code != 0

    @pytest.mark.parametrize(
        "flags",
        (["--r", "0.1", "--mu-range", ""], ["--mu", "0.2", "--r-range", ""]),
        ids=("mu-range", "r-range"),
    )
    def test_rejects_an_empty_range(self, flags, capsys):
        assert_one_line_error(
            ["multiphoton", "--m", "100"] + flags,
            f"{flags[2]} must look like a:b:step, got ''", capsys,
        )


class TestMc:
    def test_honest_run_matches_analytic_column(self, capsys):
        code, out, _ = run_cli(
            ["mc", "--strategy", "honest", "--r", "0.1", "--m", "100",
             "--trials", "40000", "--seed", "5"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        rate, analytic = float(row["accept_rate"]), float(row["analytic"])
        se = math.sqrt(max(analytic * (1 - analytic), 1e-12) / 40000)
        assert abs(rate - analytic) <= 3.0 * se

    def test_breidbart_run(self, capsys):
        code, out, _ = run_cli(
            ["mc", "--strategy", "breidbart", "--r", "0.1", "--m", "100",
             "--p01", "0", "--p10", "0.4897", "--trials", "40000"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        expected = cheat_success(
            Variant.TWO_STATE, 0, 0.1, 50, 3.0, FlipParams(0.0, 0.4897)
        )
        assert abs(float(row["analytic"]) - expected) <= 1e-8

    def test_ideal_requires_mu(self, capsys):
        code, _, err = run_cli(
            ["mc", "--strategy", "ideal", "--r", "0.1", "--m", "100"], capsys
        )
        assert code != 0
        assert "--mu" in err

    def test_faked_has_no_remote_noise_flag(self, capsys):
        # the claimed remote noise is --r, the noise the test is built for
        with pytest.raises(SystemExit) as exc:
            cli.main(["mc", "--strategy", "faked", "--r", "0.1", "--rd", "0.1", "--rn", "0",
                      "--length-km", "17", "--alpha", "0.2", "--trials", "1000"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --rd 0.1" in capsys.readouterr().err

    def test_faked_rejects_near_noise_above_the_tested_one(self, capsys):
        assert_one_line_error(
            ["mc", "--strategy", "faked", "--r", "0.1", "--rn", "0.2",
             "--length-km", "17", "--alpha", "0.2", "--m", "100", "--trials", "1000"],
            "need 0 <= r_near <= r_distant <= 1, got r_near=0.2, r_distant=0.1", capsys,
        )

    def test_faked_requires_scenario(self, capsys):
        code, _, err = run_cli(
            ["mc", "--strategy", "faked", "--r", "0.1", "--m", "100"], capsys
        )
        assert code != 0

    def test_rejects_infinite_sigma_factor(self, capsys):
        assert_one_line_error(
            ["mc", "--strategy", "honest", "--r", "0.1", "--sigma-factor", "inf"],
            "sigma_factor", capsys,
        )

    @pytest.mark.parametrize("strategy", ("beam-splitter", "ideal"))
    def test_rejects_nan_mu(self, strategy, capsys):
        assert_one_line_error(
            ["mc", "--strategy", strategy, "--r", "0.1", "--mu", "nan"],
            "mu must be positive", capsys,
        )

    def test_rejects_budget_above_particle_cap(self, capsys):
        # 1,000,001 per state: rejected by the flag that set it, before sampling
        assert_one_line_error(
            ["mc", "--strategy", "honest", "--r", "0.1", "--m", "2000002", "--trials", "1"],
            ABOVE_CAP, capsys,
        )

    @pytest.mark.parametrize(
        "strategy, flags, flag",
        (
            ("honest", ["--mu", "0.2", "--p01", "0.5"], "--p01"),
            ("honest", ["--mu", "0.2"], "--mu"),
            ("breidbart", ["--p01", "0.1", "--mu", "0.2"], "--mu"),
            ("breidbart", ["--alpha", "0.2"], "--alpha"),
            ("beam-splitter", ["--mu", "0.2", "--p10", "0.9"], "--p10"),
            ("beam-splitter", ["--mu", "0.2", "--rn", "0"], "--rn"),
            ("ideal", ["--mu", "0.2", "--p10", "0.4", "--length-km", "17"], "--length-km"),
            (
                "faked",
                ["--rn", "0", "--length-km", "17", "--alpha", "0.2",
                 "--mu", "0.2"],
                "--mu",
            ),
            (
                "faked",
                ["--rn", "0", "--length-km", "17", "--alpha", "0.2",
                 "--p01", "0.1"],
                "--p01",
            ),
        ),
    )
    def test_rejects_flags_the_strategy_ignores(self, strategy, flags, flag, capsys):
        code, out, err = run_cli(
            ["mc", "--strategy", strategy, "--r", "0.1", "--trials", "100"] + flags, capsys
        )
        assert code != 0 and out == ""
        assert err == f"error: {flag} is not used by strategy {strategy!r}\n"


class TestInputLimits:
    @pytest.mark.parametrize(
        "args",
        (
            ["cheat-max", "--m", "100", "--r", "0.1"],
            ["mc", "--strategy", "honest", "--m", "100", "--r", "0.1", "--trials", "1000"],
        ),
        ids=lambda a: a[0],
    )
    def test_huge_finite_sigma_factor_accepts_everything(self, args, capsys):
        code, out, err = run_cli(args + ["--sigma-factor", "1e308"], capsys)
        assert code == 0 and err == ""
        header, rows = parse_csv(out)
        column = "p_max" if args[0] == "cheat-max" else "accept_rate"
        assert float(rows[0][header.index(column)]) == 1.0

    @pytest.mark.parametrize(
        "args",
        (
            ["tables", "--m", "100", "--mu", "inf"],
            ["multiphoton", "--m", "100", "--r", "0.1", "--mu", "inf"],
        ),
        ids=("tables", "multiphoton"),
    )
    def test_rejects_infinite_mu_by_flag(self, args, capsys):
        code, out, err = run_cli(args, capsys)
        assert code != 0 and out == ""
        assert "--mu" in err and "positive and finite" in err and err.count("\n") == 1

    @pytest.mark.parametrize("strategy", ("beam-splitter", "ideal"))
    def test_mc_rejects_infinite_mu(self, strategy, capsys):
        assert_one_line_error(
            ["mc", "--strategy", strategy, "--r", "0.1", "--mu", "inf"],
            "mu must be positive and finite, got inf", capsys,
        )

    FAKED = ["mc", "--strategy", "faked", "--r", "0.1", "--rn", "0",
             "--m", "100", "--trials", "1000"]

    @pytest.mark.parametrize(
        "flags, subject",
        (
            (["--length-km", "17", "--alpha", "nan"], "alpha must be positive"),
            (["--length-km", "nan", "--alpha", "0.2"], "length_km must be non-negative"),
        ),
        ids=("alpha", "length"),
    )
    def test_mc_faked_rejects_nan_by_name(self, flags, subject, capsys):
        assert_one_line_error(self.FAKED + flags, subject, capsys)

    @pytest.mark.parametrize(
        "flags",
        (["--length-km", "inf", "--alpha", "0.2"], ["--length-km", "17", "--alpha", "inf"]),
        ids=("length", "alpha"),
    )
    def test_mc_faked_accepts_total_loss(self, flags, capsys):
        code, out, err = run_cli(self.FAKED + flags, capsys)
        assert code == 0 and err == ""

    @pytest.mark.parametrize("alpha", ("0.2", "inf"))
    def test_mc_faked_rejects_zero_length_as_below_half_loss(self, alpha, capsys):
        # nothing is lost over 0 km, whatever the attenuation
        assert_one_line_error(
            self.FAKED + ["--length-km", "0", "--alpha", alpha],
            "claimed length 0.0 km is below the 50%-loss distance", capsys,
        )

    @pytest.mark.parametrize(
        "args",
        (
            ["honest", "--r", "1.5"],
            ["binding-failure", "--r-range", "0:1.5:0.5"],
            ["cheat-surface", "--r", "1.5"],
            ["cheat-max", "--r", "1.5"],
            ["tables", "--r", "1.5"],
            ["multiphoton", "--r", "1.5", "--mu", "0.2"],
            ["mc", "--strategy", "honest", "--r", "1.5"],
        ),
        ids=lambda a: a[0],
    )
    def test_noise_level_outside_unit_interval_is_one_error_line(self, args, capsys):
        assert_one_line_error(args, "noise level must lie in [0, 1], got 1.5", capsys)

    @pytest.mark.parametrize(
        "text", ("0:nan:0.1", "nan:1:0.1", "0:0.1:inf", "-inf:0:0.1", "0:inf:0.1")
    )
    def test_range_rejects_non_finite_parts_by_flag(self, text, capsys):
        assert_one_line_error(
            ["binding-failure", "--m", "100", f"--r-range={text}"],
            "--r-range parts must be finite", capsys,
        )

    @pytest.mark.parametrize("text", ("0:1:1e-9", "-1e308:1e308:1"))
    def test_range_longer_than_the_cap_is_rejected_before_allocation(self, text, capsys):
        assert_one_line_error(
            ["binding-failure", "--m", "100", f"--r-range={text}"],
            f"--r-range {text!r} has more than {cli.MAX_SWEEP_POINTS} values", capsys,
        )

    @pytest.mark.parametrize(
        "args, subject",
        (
            (
                ["honest", "--r-range", "0:0.1"],
                "--r-range must look like a:b:step, got '0:0.1'",
            ),
            (["honest", "--r-range", "0:x:0.1"], "--r-range has non-numeric parts: '0:x:0.1'"),
            (
                ["multiphoton", "--r", "0.1", "--mu-range", "1:0:0.1"],
                "--mu-range upper end 0.0 is below lower end 1.0",
            ),
            (
                ["cheat-max", "--m", "1,x", "--r", "0.1"],
                "--m must be an integer or comma list, got '1,x'",
            ),
            (["cheat-max", "--m", "0", "--r", "0.1"], "--m values must be positive, got '0'"),
            (["honest", "--m", "-4"], "--m must be positive, got -4"),
            (["binding-failure", "--m", "-3"], "--m must be positive, got -3"),
            (["cheat-surface", "--r", "0.1", "--m", "0"], "--m must be positive, got 0"),
            (
                ["mc", "--strategy", "honest", "--r", "0.1", "--m", "0"],
                "--m must be positive, got 0",
            ),
            (
                ["cheat-surface", "--r", "0.1", "--grid-step", "0.6"],
                "--grid-step must lie in (0, 0.5], got 0.6",
            ),
            (["honest", "--m", "2000002"], ABOVE_CAP),
            (["cheat-max", "--m", "2000002", "--r", "0.1"], ABOVE_CAP),
            (["tables", "--m", "2000002"], ABOVE_CAP),
            (["mc", "--strategy", "honest", "--r", "0.1", "--m", "2000002"], ABOVE_CAP),
            (
                ["multiphoton", "--m", "2000002", "--r", "0.1", "--mu", "0.2",
                 "--p01", "0", "--p10", "0.4"],
                ABOVE_CAP,
            ),
            (
                ["binding-failure", "--m", "4000004", "--r", "0.1"],
                "--m 4000004 gives 2000002 particles per state, more than 1000000",
            ),
            (
                ["honest", "--sigma-factor", "nan"],
                "sigma_factor must be positive and finite, got nan",
            ),
            (["honest", "--r", "nan"], "noise level must lie in [0, 1], got nan"),
            (
                ["multiphoton", "--mu", "0.2", "--r", "0.1", "--p01", "nan"],
                "p01 must lie in [0, 1], got nan",
            ),
        ),
        ids=("range-parts", "range-numbers", "range-order", "m-integers", "m-positive",
             "honest-m-negative", "binding-failure-m-odd-negative", "cheat-surface-m-zero",
             "mc-m-zero", "grid-step", "honest-m-above-cap", "cheat-max-m-above-cap",
             "tables-m-above-cap", "mc-m-above-cap", "multiphoton-m-above-cap",
             "binding-failure-m-above-cap", "honest-sigma-factor-nan", "honest-r-nan",
             "multiphoton-p01-nan"),
    )
    def test_malformed_flag_is_one_error_line(self, args, subject, capsys):
        assert_one_line_error(args, subject, capsys)

    @pytest.mark.parametrize(
        "args",
        (["honest"], ["binding-failure"], ["cheat-max"], ["multiphoton", "--mu", "0.2"]),
        ids=lambda a: a[0],
    )
    def test_range_ends_at_its_upper_end(self, args, capsys):
        # 0.09 + 13 * 0.07 rounds to one ulp above 1
        code, out, err = run_cli(args + ["--m", "100", "--r-range", "0.09:1:0.07"], capsys)
        assert code == 0, err
        header, rows = parse_csv(out)
        r = [float(row[header.index("r")]) for row in rows]
        assert len(r) == 14 and r[-1] == 1.0

    def test_range_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 11)
        assert len(cli.parse_range("0:1:0.1", "--r-range")) == 11
        with pytest.raises(cli.CliError, match="more than 11 values"):
            cli.parse_range("0:1.1:0.1", "--r-range")

    def test_surface_larger_than_the_cap_is_rejected_before_allocation(self, capsys):
        assert_one_line_error(
            ["cheat-surface", "--r", "0.1", "--grid-step", "1e-4"],
            f"--grid-step 0.0001 gives more than {cli.MAX_SWEEP_POINTS} surface points",
            capsys,
        )

    @pytest.mark.parametrize("step", ("5e-324", "5e-309"))
    def test_surface_step_whose_inverse_overflows_is_one_error_line(self, step, capsys):
        # 1 / step is inf here, which round() cannot take
        assert_one_line_error(
            ["cheat-surface", "--r", "0.1", "--grid-step", step],
            f"--grid-step {float(step)!r} gives more than {cli.MAX_SWEEP_POINTS} "
            "surface points",
            capsys,
        )

    def test_surface_cap_is_inclusive(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 121)
        code, out, _ = run_cli(["cheat-surface", "--r", "0.1", "--grid-step", "0.1"], capsys)
        assert code == 0 and len(parse_csv(out)[1]) == 121
        assert_one_line_error(
            ["cheat-surface", "--r", "0.1", "--grid-step", "0.09"], "--grid-step", capsys
        )

    def test_the_finest_documented_grid_fits_the_cap(self):
        # 0.001 gives 1001 x 1001 points; checked by arithmetic, never built
        assert strategy.flip_axis_size(0.001) == 1001
        assert strategy.flip_axis_size(0.001) ** 2 <= cli.MAX_SWEEP_POINTS


class TestConfigPrecedence:
    def test_config_overrides_default_and_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("# defaults for sweeps\nsigma-factor=2\nseed=9\n")
        # config tightens the windows relative to the default factor 3
        _, narrow, _ = run_cli(
            ["honest", "--r", "0.1", "--m", "100", "--config", str(cfg)], capsys
        )
        _, default, _ = run_cli(["honest", "--r", "0.1", "--m", "100"], capsys)
        header, rows_n = parse_csv(narrow)
        _, rows_d = parse_csv(default)
        pass_n = float(rows_n[0][header.index("pass_probability")])
        pass_d = float(rows_d[0][header.index("pass_probability")])
        assert pass_n < pass_d
        # an explicit flag beats the config value
        _, flagged, _ = run_cli(
            ["honest", "--r", "0.1", "--m", "100", "--config", str(cfg),
             "--sigma-factor", "3"],
            capsys,
        )
        assert flagged == default

    def test_negative_seed_rejected_by_name(self, tmp_path, capsys):
        mc = ["mc", "--strategy", "honest", "--r", "0.1", "--trials", "100"]
        assert_one_line_error(
            mc + ["--seed", "-1"], "seed must be non-negative, got -1", capsys
        )
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed=-1\n")
        assert_one_line_error(
            mc + ["--config", str(cfg)], "seed must be non-negative, got -1", capsys
        )

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("threads=4\n")
        code, _, err = run_cli(
            ["honest", "--r", "0.1", "--m", "100", "--config", str(cfg)], capsys
        )
        assert code != 0
        assert "unknown config key" in err

    @pytest.mark.parametrize(
        "text, subject",
        (
            # a file spells its keys as the flags do
            ("sigma_factor=3\n", ":1: unknown config key 'sigma_factor'"),
            ("# seed\n\nseed\n", ":3: expected key=value, got 'seed'"),
            ("trials=abc\n", ":1: bad value for 'trials': 'abc'"),
            ("seed=1.5\n", ":1: bad value for 'seed': '1.5'"),
        ),
        ids=("underscore-key", "no-equals", "bad-int", "float-for-int"),
    )
    def test_bad_config_line_is_one_error_line(self, text, subject, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        mc = ["mc", "--strategy", "honest", "--r", "0.1", "--config", str(cfg)]
        assert_one_line_error(mc, f"{cfg}{subject}", capsys)

    def test_unreadable_config_file_is_one_error_line(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        assert_one_line_error(
            ["honest", "--r", "0.1", "--config", str(missing)],
            "cannot read config file: ", capsys,
        )

    @pytest.mark.parametrize("where", ("missing-dir", "directory"))
    def test_unwritable_out_is_one_error_line(self, where, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv" if where == "missing-dir" else tmp_path
        assert_one_line_error(
            ["honest", "--r", "0.1", "--out", str(out)],
            f"cannot write --out {out}: ", capsys,
        )


class ReadRecorder(argparse.Namespace):
    """A namespace that records the name of every attribute read from it."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "__dict__").setdefault("_read", set()).add(name)
        return object.__getattribute__(self, name)


#: One minimal invocation of each command, after its name.
MINIMAL_ARGS = {
    "honest": ["--r", "0.1"],
    "binding-failure": ["--r", "0.1"],
    "cheat-surface": ["--r", "0.1", "--grid-step", "0.5"],
    "cheat-max": ["--r", "0.1"],
    "tables": ["--m", "100"],
    "distance": ["--alpha", "0.2"],
    "multiphoton": ["--r", "0.1", "--mu", "0.2"],
    "mc": ["--strategy", "honest", "--r", "0.1", "--trials", "100"],
}


class TestEveryFlagIsRead:
    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_command_reads_every_flag_of_its_parser(self, command):
        parsed = cli.build_parser().parse_args([command, *MINIMAL_ARGS[command]])
        cli._resolve(parsed)
        recorder = ReadRecorder(**vars(parsed))
        cli._COMMANDS[command](recorder)
        # the output flags are main's, and the config file is _resolve's
        dests = set(vars(parsed)) - {"command", "config", "out", "format"}
        assert sorted(dests - vars(recorder)["_read"]) == []


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        (
            ["honest", "--r-range", "0:0.3:0.1", "--m", "100"],
            ["binding-failure", "--m", "100", "--r-range", "0:0.2:0.02"],
            ["cheat-surface", "--r", "0.1", "--m", "100", "--grid-step", "0.1"],
            ["cheat-max", "--m", "100", "--r", "0.1"],
            ["tables", "--m", "100"],
            ["distance", "--alpha", "0.2", "--rd", "0.1", "--rn", "0"],
            ["multiphoton", "--m", "100", "--mu", "0.2", "--r", "0.1",
             "--p01", "0", "--p10", "0.49"],
            ["mc", "--strategy", "honest", "--r", "0.1", "--m", "100",
             "--trials", "20000"],
        ),
        ids=lambda a: a[0],
    )
    @pytest.mark.parametrize("fmt", ("csv", "json"))
    def test_rerun_is_byte_identical(self, args, fmt, tmp_path):
        first = tmp_path / "first.out"
        second = tmp_path / "second.out"
        assert cli.main(args + ["--format", fmt, "--out", str(first)]) == 0
        assert cli.main(args + ["--format", fmt, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "args, digest",
        (
            (["tables", "--variant", "two"],
             "c6c938ee122aeb97996e0e49f61e13bcce9f93ee8811d6478a0b6546ad678dbe"),
            (["tables", "--variant", "four"],
             "597c6d5fd7d8b82351c82488c0350baa570e53da9194fea20adc64048111691a"),
            (["cheat-max", "--m", "100,10000", "--r-range", "0:0.5:0.05", "--variant", "two"],
             "82e4e99c4e1006e81ccf53acdb86f656749f2134b71e01991fea885beeb55ba6"),
            (["cheat-max", "--m", "100,10000", "--r-range", "0:0.5:0.05", "--variant", "four"],
             "0d7dce1491a6da96ff1d448c4d206131f5fd6dc8423c6e0453c7a950a1fa1735"),
            (["multiphoton", "--m", "100"],
             "99d35a16e305bcb8b24eb7bff9f1af0faee82a59ace62213d60608e3d0c70b4d"),
            (["tables", "--mu", "0.001", "--m", "100,200,1000"],
             "efdaf8734c7fc6bc1dd8fd2ffd55b6c57ae3f05031b47fd0f6f9a53f1854295c"),
            (["tables", "--variant", "four", "--mu", "5", "--r", "0.2"],
             "9c2dbc379aa19474d09ac7d7e2494e311ab5bc4a3225fd4a9c97949fefbb6d2d"),
            (["multiphoton", "--m", "100,400", "--mu-range", "0.001:0.02:0.001",
              "--r-range", "0:0.3:0.1"],
             "23048a163dee78480a5f2072e816892c5857bc768f0978105fd8b9db37d5b5b9"),
            (["multiphoton", "--m", "100", "--r", "0.1", "--mu-range", "700:760:10"],
             "f52048c849b37123e1864311757a916dfa2e7eb7afe95b16070616651d25cb39"),
        ),
        ids=("tables-two", "tables-four", "cheat-max-two", "cheat-max-four", "multiphoton",
             "tables-faint", "tables-four-bright", "multiphoton-faint", "multiphoton-huge-mu"),
    )
    def test_optimizer_artifacts_are_pinned(self, args, digest, capsys):
        # every optimum of the paper's tables and sweeps, byte for byte; the
        # photon-source rows read the single-photon share of faint sources,
        # and of sources past mu = 709.78, where expm1(mu) overflows
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "args, digest",
        (
            (["cheat-surface", "--r", "0.16", "--m", "100", "--grid-step", "0.01"],
             "fa7d8e37f624263fc75c16c8c05c4f1045779a7ecb2a636c941bd666c12e46f0"),
            (["cheat-surface", "--r", "0.16", "--m", "100", "--grid-step", "0.01",
              "--variant", "four"],
             "367803e712d688342cf15746b902f1198363ba774906b953df22d8ed5fe218a1"),
            (["cheat-surface", "--r", "0.1", "--m", "10000", "--grid-step", "0.01"],
             "0cb13caa125d7b7d2865cb266d050ce71cc970867b0cb42104ee6b7af6bb687d"),
            (["cheat-surface", "--r", "0.16", "--m", "100", "--grid-step", "0.05",
              "--variant", "four", "--commit", "1", "--format", "json"],
             "11c8d80c867a63a77023340d6c8107c608dda8a6ac46b717976e9263aefdc4bc"),
        ),
        ids=("surface-two", "surface-four", "surface-two-wide", "surface-four-json"),
    )
    def test_surface_artifacts_are_pinned(self, args, digest, capsys):
        # every cell of a 10,201-point surface, byte for byte; the last one's
        # windows are 93 and 213 counts wide
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "args, digest",
        (
            (["honest", "--variant", "two", "--commit", "0"],
             "4fe2486cce9776ae522c9aee49c3205f25d643047c2743690c5104c3ef567419"),
            (["honest", "--variant", "two", "--commit", "1"],
             "eef190842dfb7c07adb73a7b3ca2d69b140e1a92fd2e0e36690d4957facd256d"),
            (["honest", "--variant", "four", "--commit", "0"],
             "ea315abeef4cdac7a3af66dab77015e07581bcdff196b2071f1b1f5d33facfa3"),
            (["honest", "--variant", "four", "--commit", "1"],
             "4e57c6e5e3bbaa27e8e2b45303def80a8b8389b6ec704bec1fc37e5f930c9e3b"),
            (["mc", "--strategy", "honest", "--r", "0.1"],
             "0c034c80ebc983eb923f05ccf951caecc3e74780e75e6ed4e34d483e1e05e5b3"),
            (["mc", "--strategy", "breidbart", "--r", "0.1", "--p01", "0", "--p10", "0.49"],
             "f60da4e25dec590660d54501110a3e9c6c439d71cf3a4538614cae723acb86bc"),
            (["mc", "--strategy", "beam-splitter", "--r", "0.1", "--mu", "0.2"],
             "d527031e96b84dba0f65d60045508950354321a6b0b10b0d92b038407ccae6e3"),
            (["mc", "--strategy", "ideal", "--r", "0.1", "--mu", "0.2",
              "--p01", "0", "--p10", "0.4926"],
             "a90bb10361d2ef31565934b7b478ac3e5b3e38b03eef086d773cda4bbf021b44"),
            (["mc", "--strategy", "faked", "--r", "0.1", "--rn", "0",
              "--length-km", "17", "--alpha", "0.2"],
             "ef8a5bdaa74b27d03e5e3de99ba5f922398275eef89acf0b3357f15837e0fd4b"),
        ),
        ids=("honest-two-0", "honest-two-1", "honest-four-0", "honest-four-1",
             "mc-honest", "mc-breidbart", "mc-beam-splitter", "mc-ideal", "mc-faked"),
    )
    def test_table_reading_artifacts_are_pinned(self, args, digest, capsys):
        # both entries of every honest row, and every party's Monte Carlo
        # draws and analytic value at the default trial count, byte for byte
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_parser_is_built_once_per_process(self, capsys):
        commands = (["distance", "--alpha", "0.2"], ["honest", "--r", "0.1"])
        cli.build_parser.cache_clear()
        shared = [run_cli(args, capsys) for args in commands]
        assert cli.build_parser.cache_info().misses == 1
        for args, got in zip(commands, shared):
            cli.build_parser.cache_clear()
            assert got == run_cli(args, capsys)
            assert got[0] == 0 and got[1]

    def test_stdout_mirrors_file(self, tmp_path, capsys):
        args = ["distance", "--alpha", "0.2"]
        path = tmp_path / "out.csv"
        cli.main(args + ["--out", str(path)])
        capsys.readouterr()
        cli.main(args)
        printed = capsys.readouterr().out
        assert printed == path.read_text()


class TestModuleEntryPoint:
    """``python -m qbcsim``, the command a fresh interpreter runs."""

    @staticmethod
    def run_module(args):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        return subprocess.run(
            [sys.executable, "-m", "qbcsim", *args], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60,
        )

    def test_writes_what_main_writes(self, capsys):
        args = ["distance", "--alpha", "0.2"]
        done = self.run_module(args)
        assert done.returncode == 0, done.stderr
        assert done.stdout == run_cli(args, capsys)[1]

    def test_bad_input_exits_2_with_one_error_line(self):
        done = self.run_module(["distance", "--alpha", "nan"])
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1

    #: The modules a command that only parses or computes a closed form
    #: leaves unloaded.
    NUMERICAL = ("numpy", "qbcsim.mcsim", "qbcsim.protocol", "qbcsim.strategy")

    #: How each entry point starts on ``sys.argv``: ``python -m qbcsim``,
    #: and the ``qbcsim`` console script of ``[project.scripts]``.
    ENTRY = {
        "module": "runpy.run_module('qbcsim', run_name='__main__')",
        "script": "import qbcsim.cli; sys.exit(qbcsim.cli.main())",
    }

    @classmethod
    def exit_and_loaded(cls, entry, args):
        """The exit code of ``entry`` on ``args`` in a fresh interpreter,
        and which of :data:`NUMERICAL` it left in ``sys.modules``."""
        probe = (
            "import json, runpy, sys\n"
            f"sys.argv[1:] = {args!r}\n"
            "try:\n"
            f"    {cls.ENTRY[entry]}\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            f"print(json.dumps([code, sorted(set({cls.NUMERICAL!r}) & set(sys.modules))]))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60,
        )
        assert done.stdout, done.stderr
        return tuple(json.loads(done.stdout.splitlines()[-1]))

    @pytest.mark.parametrize(
        "entry, args, code, loaded",
        (
            ("module", ["distance", "--alpha", "0.2"], 0, []),
            ("module", ["--help"], 0, []),
            ("module", ["honest", "--help"], 0, []),
            ("module", ["distance"], 2, []),
            ("script", ["distance", "--alpha", "0.2"], 0, []),
            (
                "module", ["cheat-max", "--r", "0.1"], 0,
                ["numpy", "qbcsim.protocol", "qbcsim.strategy"],
            ),
            (
                "module", ["mc", "--strategy", "beam-splitter", "--r", "0.1", "--mu", "nan"],
                2, ["numpy", "qbcsim.mcsim", "qbcsim.protocol", "qbcsim.strategy"],
            ),
        ),
        ids=("distance", "help", "command-help", "usage-error", "console-script",
             "cheat-max", "mc-error"),
    )
    def test_a_command_imports_only_the_modules_it_runs(self, entry, args, code, loaded):
        assert self.exit_and_loaded(entry, args) == (code, loaded)
