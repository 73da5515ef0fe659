"""Command-line interface: rows, formats, determinism, exit codes."""

import cmath
import json
import math

import pytest
from click.testing import CliRunner

from barnesg import BoundKind, best_bound, family_bounds
from barnesg.cli import main
from _reference import terminant_quadrature


@pytest.fixture
def runner():
    return CliRunner()


def csv_rows(output):
    lines = [ln for ln in output.strip().splitlines() if ln]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def json_rows(output):
    return [json.loads(ln) for ln in output.strip().splitlines() if ln]


class TestEval:
    def test_oracle_anchor(self, runner):
        res = runner.invoke(main, ["eval", "--z-re", "3", "--method", "oracle"])
        assert res.exit_code == 0
        row = csv_rows(res.output)[0]
        assert abs(float(row["value_re"]) - 0.6931471806) < 1e-9
        assert float(row["err"]) < 1e-10

    def test_asym_positive_axis_source(self, runner):
        res = runner.invoke(main, ["eval", "--z-re", "10", "--method", "asym"])
        assert res.exit_code == 0
        row = csv_rows(res.output)[0]
        assert row["err_kind"] == "positive_axis_sign"

    def test_hyper_matches_oracle(self, runner):
        args = ["eval", "--z-abs", "2.5", "--z-arg", "1.5707963", "--method"]
        hyper = csv_rows(
            runner.invoke(main, args + ["hyper", "--k-max", "3"]).output
        )[0]
        oracle = csv_rows(runner.invoke(main, args + ["oracle"]).output)[0]
        dv = complex(
            float(hyper["value_re"]) - float(oracle["value_re"]),
            float(hyper["value_im"]) - float(oracle["value_im"]),
        )
        assert abs(dv) < 1e-8

    def test_arg_pi_flag(self, runner):
        a = runner.invoke(
            main,
            ["eval", "--z-abs", "2", "--z-arg-pi", "0.5", "--method", "asym"],
        )
        row = csv_rows(a.output)[0]
        assert float(row["z_im"]) == pytest.approx(2.0, rel=1e-15)

    def test_domain_error_exit(self, runner):
        res = runner.invoke(main, ["eval", "--z-re", "-3", "--method", "oracle"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("z_re", ["1e-300", "1e200", "inf", "nan"])
    def test_unrepresentable_z_exits_2(self, runner, z_re):
        res = runner.invoke(main, ["eval", "--z-re", z_re, "--method", "asym"])
        assert res.exit_code == 2
        assert res.exception is None or isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize("k_max", ["0", "-1"])
    def test_nonpositive_k_max_exits_2(self, runner, k_max):
        res = runner.invoke(main, ["eval", "--z-re", "2.5", "--method", "hyper",
                                   "--k-max", k_max])
        assert res.exit_code == 2

    def test_default_k_max(self, runner):
        res = runner.invoke(main, ["eval", "--z-re", "2.5", "--method", "hyper"])
        assert res.exit_code == 0
        assert csv_rows(res.output)[0]["n_used"] == "5"

    def test_missing_z_exit(self, runner):
        res = runner.invoke(main, ["eval", "--method", "oracle"])
        assert res.exit_code == 2


class TestBounds:
    def test_real_axis_ratios(self, runner):
        res = runner.invoke(
            main,
            ["bounds", "--z-abs", "5", "--theta", "0", "--n-min", "1", "--n-max", "4"],
        )
        assert res.exit_code == 0
        rows = csv_rows(res.output)
        assert len(rows) == 4
        for row in rows:
            assert float(row["ratio"]) >= 1.0

    def test_imaginary_axis_phi_star(self, runner):
        res = runner.invoke(
            main,
            ["bounds", "--z-abs", "5", "--theta-pi", "0.5", "--n-min", "1", "--n-max", "3"],
        )
        rows = csv_rows(res.output)
        for row in rows:
            n = int(row["n"])
            expected = math.atan(1.0 / math.sqrt(2 * n + 2))
            assert float(row["phi_star"]) == pytest.approx(expected, abs=1e-12)

    def test_degenerate_grid_single_row(self, runner):
        res = runner.invoke(
            main,
            ["bounds", "--z-abs", "4", "--theta", "0.3", "--n-min", "2", "--n-max", "2"],
        )
        assert res.exit_code == 0
        assert len(csv_rows(res.output)) == 1

    def test_columns_are_family_bounds(self, runner):
        res = runner.invoke(
            main,
            ["bounds", "--z-abs", "2,5", "--theta-pi",
             "-0.8,-0.5,-0.3,-0.25,0,0.2,0.25,0.3,0.5,0.6,0.75,0.9,0.95",
             "--n-min", "1", "--n-max", "6", "--format", "json"],
        )
        assert res.exit_code == 0
        rows = json_rows(res.output)
        assert len(rows) == 2 * 13 * 6
        for row in rows:
            z, n = row["z_abs"] * cmath.exp(1j * row["theta"]), row["n"]
            families = family_bounds(z, n)
            sector = families.get(BoundKind.SECTOR)
            opt = families.get(BoundKind.OPTIMIZED)
            got = (row["bound_sector"], row["bound_half_angle"], row["bound_optimized"],
                   row["phi_star"], row["best_bound"])
            want = (sector.bound if sector else math.nan, families[BoundKind.HALF_ANGLE].bound,
                    opt.bound if opt else math.nan, opt.phi_star if opt else math.nan,
                    best_bound(z, n).bound)
            # repr compares bit for bit and treats nan as equal to nan
            assert [repr(v) for v in got] == [repr(v) for v in want]

    def test_inapplicable_bounds_are_nan(self, runner):
        res = runner.invoke(
            main,
            ["bounds", "--z-abs", "4", "--theta-pi", "0.8", "--n-min", "1", "--n-max", "1"],
        )
        row = csv_rows(res.output)[0]
        assert math.isnan(float(row["bound_sector"]))
        assert not math.isnan(float(row["bound_optimized"]))


class TestStokes:
    def test_profile_rises_through_half(self, runner):
        res = runner.invoke(
            main,
            [
                "stokes", "--z-abs", "3", "--k", "1",
                "--theta-min", "1.0707963", "--theta-max", "2.0707963",
                "--theta-steps", "51",
            ],
        )
        assert res.exit_code == 0
        rows = csv_rows(res.output)
        assert len(rows) == 51
        first, mid, last = rows[0], rows[25], rows[-1]
        assert abs(float(first["normalized_re"])) < 0.1
        assert abs(float(mid["normalized_re"]) - 0.5) < 0.05
        assert abs(float(last["normalized_re"]) - 1.0) < 0.1

    def test_reversed_range_usage_error(self, runner):
        res = runner.invoke(
            main,
            [
                "stokes", "--z-abs", "3", "--k", "1",
                "--theta-min", "2.0", "--theta-max", "1.0", "--theta-steps", "5",
            ],
        )
        assert res.exit_code == 2


class TestTerminantCommand:
    def test_quadrature_method_is_rejected(self, runner):
        res = runner.invoke(
            main,
            [
                "terminant", "--p", "7", "--w-abs", "10",
                "--w-arg", str(math.pi / 3), "--method", "quadrature",
            ],
        )
        assert res.exit_code == 2

    def test_paths_agree(self, runner):
        base = ["terminant", "--p", "7", "--w-abs", "10", "--w-arg", str(math.pi / 3)]
        rec = csv_rows(runner.invoke(main, base + ["--method", "recurrence"]).output)[0]
        quad, _ = terminant_quadrature(7, 10.0 * cmath.exp(1j * math.pi / 3))
        dv = complex(float(rec["value_re"]), float(rec["value_im"])) - quad
        assert abs(dv) < 1e-9

    def test_continued_branch_flag(self, runner):
        res = runner.invoke(
            main,
            [
                "terminant", "--p", "9", "--w-abs", "10",
                "--w-arg", str(math.pi + 0.2), "--method", "recurrence",
            ],
        )
        assert res.exit_code == 0
        row = csv_rows(res.output)[0]
        assert float(row["arg_w"]) > math.pi


class TestOutputContracts:
    def test_csv_json_identical_values(self, runner):
        base = ["eval", "--z-re", "4", "--z-im", "1", "--method", "asym"]
        csv_row = csv_rows(runner.invoke(main, base + ["--format", "csv"]).output)[0]
        json_row = json_rows(runner.invoke(main, base + ["--format", "json"]).output)[0]
        for key, jval in json_row.items():
            if isinstance(jval, float):
                assert float(csv_row[key]) == jval
            else:
                assert str(jval) == csv_row[key]

    def test_deterministic_reruns(self, runner):
        args = [
            "stokes", "--z-abs", "2", "--k", "1",
            "--theta-min", "1.2", "--theta-max", "1.9", "--theta-steps", "7",
        ]
        a = runner.invoke(main, args).output
        b = runner.invoke(main, args).output
        assert a == b

    def test_row_round_trip(self, runner):
        # feed a row's inputs back; 17 significant digits round-trip binary64
        res = runner.invoke(
            main, ["eval", "--z-abs", "2.7", "--z-arg", "0.9", "--method", "asym"]
        )
        row = csv_rows(res.output)[0]
        res2 = runner.invoke(
            main,
            [
                "eval", "--z-re", row["z_re"], "--z-im", row["z_im"],
                "--method", "asym", "--n", row["n_used"],
            ],
        )
        row2 = csv_rows(res2.output)[0]
        assert row2["value_re"] == row["value_re"]
        assert row2["value_im"] == row["value_im"]
        assert row2["err"] == row["err"]
