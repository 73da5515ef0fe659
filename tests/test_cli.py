"""Command-line interface: rows, formats, determinism, exit codes."""

import cmath
import json
import math

import pytest

import barnesg
from barnesg import BoundKind, best_bound, family_bounds
from barnesg.oracle import _wide_integral
from _cli import invoke
from _reference import (log_g_error, remainder_error, remainder_reference,
                        terminant_quadrature)


def csv_rows(output):
    lines = [ln for ln in output.strip().splitlines() if ln]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def json_rows(output):
    return [json.loads(ln) for ln in output.strip().splitlines() if ln]


class TestEval:
    def test_oracle_anchor(self):
        res = invoke(["eval", "--z-re", "3", "--method", "oracle"])
        assert res.exit_code == 0
        row = csv_rows(res.output)[0]
        assert abs(float(row["value_re"]) - 0.6931471806) < 1e-9
        assert float(row["err"]) < 1e-10

    def test_asym_positive_axis_source(self):
        res = invoke(["eval", "--z-re", "10", "--method", "asym"])
        assert res.exit_code == 0
        row = csv_rows(res.output)[0]
        assert row["err_kind"] == "positive_axis_sign"

    def test_hyper_matches_oracle(self):
        args = ["eval", "--z-abs", "2.5", "--z-arg", "1.5707963", "--method"]
        hyper = csv_rows(
            invoke(args + ["hyper"]).output
        )[0]
        oracle = csv_rows(invoke(args + ["oracle"]).output)[0]
        dv = complex(
            float(hyper["value_re"]) - float(oracle["value_re"]),
            float(hyper["value_im"]) - float(oracle["value_im"]),
        )
        assert abs(dv) < 1e-8

    def test_arg_pi_flag(self):
        a = invoke(
            ["eval", "--z-abs", "2", "--z-arg-pi", "0.5", "--method", "asym"],
        )
        row = csv_rows(a.output)[0]
        assert float(row["z_im"]) == pytest.approx(2.0, rel=1e-15)

    def test_domain_error_exit(self):
        res = invoke(["eval", "--z-re", "-3", "--method", "oracle"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("z_re", ["1e200", "inf", "nan"])
    def test_unrepresentable_z_exits_2(self, z_re):
        res = invoke(["eval", "--z-re", z_re, "--method", "asym"])
        assert res.exit_code == 2
        assert res.exception is None or isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize("z_re", ["1e-300", "5e-324"])
    @pytest.mark.parametrize("method", ["asym", "hyper"])
    def test_tiny_z_is_within_its_error_of_mpmath(self, method, z_re):
        # both routes shift a tiny z and print log G(1+z) ~ 0 with its error
        res = invoke(["eval", "--z-re", z_re, "--method", method])
        assert res.exit_code == 0
        row = csv_rows(res.output)[0]
        value = complex(float(row["value_re"]), float(row["value_im"]))
        assert abs(value) < 1e-12 and log_g_error(value, float(z_re)) <= float(row["err"])

    @pytest.mark.parametrize("method", ["asym", "oracle", "hyper"])
    def test_k_max_is_no_option(self, method):
        # the improved route picks its pair count from its error target
        res = invoke(["eval", "--z-re", "2.5", "--method", method, "--k-max", "3"])
        assert res.exit_code == 2 and res.output == ""
        assert "unrecognized arguments: --k-max" in res.stderr

    @pytest.mark.parametrize("method", ["asym", "oracle", "hyper"])
    def test_n_is_no_option(self, method):
        # the certified route picks N and the shift from its bound
        res = invoke(["eval", "--z-re", "2", "--z-im", "1", "--method", method, "--n", "3"])
        assert res.exit_code == 2 and res.output == ""
        assert "unrecognized arguments: --n" in res.stderr

    def test_hyper_row_has_no_n_used(self):
        # the improved route's pair count is its own; a constant column would say nothing
        res = invoke(["eval", "--z-re", "2.5", "--method", "hyper"])
        assert res.exit_code == 0
        assert not {"n_used", "shift"} & set(csv_rows(res.output)[0])

    def test_oracle_row_has_no_n_used(self):
        # log_barnes_oracle is always the prefix plus the quadrature of R_1
        res = invoke(["eval", "--z-re", "3", "--method", "oracle"])
        assert res.exit_code == 0
        assert not {"n_used", "shift"} & set(csv_rows(res.output)[0])

    def test_missing_z_exit(self):
        res = invoke(["eval", "--method", "oracle"])
        assert res.exit_code == 2


class TestBounds:
    def test_real_axis_ratios(self):
        res = invoke(
            ["bounds", "--z-abs", "5", "--theta", "0", "--n-min", "1", "--n-max", "4"],
        )
        assert res.exit_code == 0
        rows = csv_rows(res.output)
        assert len(rows) == 4
        for row in rows:
            assert float(row["ratio"]) >= 1.0

    def test_imaginary_axis_phi_star(self):
        res = invoke(
            ["bounds", "--z-abs", "5", "--theta-pi", "0.5", "--n-min", "1", "--n-max", "3"],
        )
        rows = csv_rows(res.output)
        for row in rows:
            n = int(row["n"])
            expected = math.atan(1.0 / math.sqrt(2 * n + 2))
            assert float(row["phi_star"]) == pytest.approx(expected, abs=1e-12)

    def test_degenerate_grid_single_row(self):
        res = invoke(
            ["bounds", "--z-abs", "4", "--theta", "0.3", "--n-min", "2", "--n-max", "2"],
        )
        assert res.exit_code == 0
        assert len(csv_rows(res.output)) == 1

    @pytest.mark.parametrize("grid", [["--z-abs", ",", "--theta", "0.5"],
                                      ["--z-abs", "3", "--theta", ","],
                                      ["--z-abs", "3", "--theta-pi", ""]], ids=repr)
    def test_empty_grid_is_a_usage_error(self, grid):
        res = invoke(["bounds", *grid, "--n-min", "1", "--n-max", "1"])
        assert (res.exit_code, res.output) == (2, "")
        assert "no number in the grid" in res.stderr

    def test_columns_are_family_bounds(self):
        res = invoke(
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

    def test_inapplicable_bounds_are_nan(self):
        res = invoke(
            ["bounds", "--z-abs", "4", "--theta-pi", "0.8", "--n-min", "1", "--n-max", "1"],
        )
        row = csv_rows(res.output)[0]
        assert math.isnan(float(row["bound_sector"]))
        assert not math.isnan(float(row["bound_optimized"]))

    # 1·e^{0.92πi}: the pole t = -z lies 0.25 from the path, so the oracle runs at
    # w = z + 2, and T is the same for N = 1..4.  Each oracle_abs_rn is checked
    # against mpmath in test_shifted_rows_match_mpmath.
    SHIFTED_CSV = (
        "z_abs,theta,n,oracle_abs_rn,oracle_err,bound_sector,bound_half_angle,"
        "bound_optimized,phi_star,best_bound,ratio\n"
        "1,2.8902652413026098,1,0.034954295801749476,1.3717100103165245e-14,nan,"
        "0.70545411333809815,1.684284101209669,1.3826107569790818,0.70545411333809815,"
        "20.18218639961243\n"
        "1,2.8902652413026098,2,0.035334979232525217,1.3722518118896874e-14,nan,"
        "6.4156142163712602,6.1029093814925224,1.3617886242332256,6.1029093814925224,"
        "172.71580496288797\n"
        "1,2.8902652413026098,3,0.035193021861856404,1.3721753740756616e-14,nan,"
        "204.2094127496068,67.206448249665598,1.3512964740985407,67.206448249665598,"
        "1909.6526724380726\n"
        "1,2.8902652413026098,4,0.035288569195732838,1.3721959233709601e-14,nan,"
        "13787.876092932996,1458.8164296538396,1.3449735895670312,1458.8164296538396,"
        "41339.631016557127\n"
    )

    def test_orders_at_one_z_share_one_quadrature(self):
        _wide_integral.cache_clear()
        res = invoke(
            ["bounds", "--z-abs", "1", "--theta-pi", "0.92", "--n-min", "1", "--n-max", "4"],
        )
        assert res.exit_code == 0
        assert res.output == self.SHIFTED_CSV
        info = _wide_integral.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    @pytest.mark.parametrize("z_abs,theta_pi,csv", [("1", "0.92", SHIFTED_CSV),
                                                    ("0.3", "0.9", None)])
    def test_shifted_rows_match_mpmath(self, z_abs, theta_pi, csv):
        """|R_N| against mpmath within the row's own oracle_err.  At 0.3·e^{0.9πi}
        R_1 = 0.0715 - 0.0324i (mpmath) lies inside the half-angle bound 4.03."""
        res = invoke(["bounds", "--z-abs", z_abs, "--theta-pi", theta_pi,
                      "--n-min", "1", "--n-max", "4"])
        assert res.exit_code == 0
        assert csv is None or res.output == csv
        z = float(z_abs) * cmath.exp(1j * float(theta_pi) * math.pi)
        for row in csv_rows(res.output):
            n = int(row["n"])
            error = abs(float(row["oracle_abs_rn"]) - abs(complex(remainder_reference(z, n))))
            assert error <= float(row["oracle_err"]), n
        r1 = barnesg.remainder_wide(z, 1)
        assert remainder_error(r1.value, z, 1) <= r1.est_error

    def test_disagreement_names_the_point_and_blames_neither_side(self, monkeypatch):
        """An oracle value 1e8 off (as the unshifted quadrature once returned at
        0.3·e^{0.9πi}) exceeds the bound plus its est_error."""
        remainder_wide = barnesg.oracle.remainder_wide
        monkeypatch.setattr(barnesg.oracle, "remainder_wide", lambda z, n: barnesg.OracleValue(
            value=remainder_wide(z, n).value + 2.4e8, est_error=0.25))
        res = invoke(["bounds", "--z-abs", "0.3", "--theta-pi", "0.9",
                      "--n-min", "1", "--n-max", "4"])
        assert res.exit_code == 3
        rows = csv_rows(res.output)
        assert [row["n"] for row in rows] == ["1", "2", "3", "4"]
        first = rows[0]
        assert float(first["oracle_abs_rn"]) > float(first["best_bound"])
        message = res.stderr
        assert "remainder oracle and the certified bound disagree" in message
        assert "N = 1:" in message and "violated" not in message
        for key in ("oracle_abs_rn", "oracle_err", "best_bound"):
            assert first[key] in message


NEGATIVES = ["-3", "-.5", "-1e-15", "-1E+3", "-inf"]
NEGATIVE_LISTS = NEGATIVES + ["-0.8,-0.5"]
#: (a command line complete without the option, every float option, its values)
FLOAT_OPTIONS = [
    (["eval", "--method", "asym", "--z-im", "0.5"], "--z-re", NEGATIVES),
    (["eval", "--method", "asym", "--z-re", "2"], "--z-im", NEGATIVES),
    (["eval", "--method", "asym", "--z-arg", "0.5"], "--z-abs", NEGATIVES),
    (["eval", "--method", "asym", "--z-abs", "2"], "--z-arg", NEGATIVES),
    (["eval", "--method", "asym", "--z-abs", "2"], "--z-arg-pi", NEGATIVES),
    (["bounds", "--n-min", "1", "--n-max", "1", "--theta", "0.5"], "--z-abs", NEGATIVE_LISTS),
    (["bounds", "--n-min", "1", "--n-max", "1", "--z-abs", "3"], "--theta", NEGATIVE_LISTS),
    (["bounds", "--n-min", "1", "--n-max", "1", "--z-abs", "3"], "--theta-pi", NEGATIVE_LISTS),
    (["stokes", "--theta-min", "-1.9", "--theta-max", "-1.3", "--theta-steps", "3"], "--z-abs",
     NEGATIVES),
    # the last value of each angle lies in the lower Stokes window
    (["stokes", "--z-abs", "3", "--theta-max", "-1.3", "--theta-steps", "3"], "--theta-min",
     NEGATIVES + ["-1.9e0"]),
    (["stokes", "--z-abs", "3", "--theta-min", "-1.9", "--theta-steps", "3"], "--theta-max",
     NEGATIVES + ["-1.3e0"]),
    (["terminant", "--p", "7", "--w-im", "1"], "--w-re", NEGATIVES),
    (["terminant", "--p", "7", "--w-re", "2"], "--w-im", NEGATIVES),
    (["terminant", "--p", "7", "--w-arg", "1"], "--w-abs", NEGATIVES),
    (["terminant", "--p", "7", "--w-abs", "10"], "--w-arg", NEGATIVES),
]
NEGATIVE_CASES = [(base, option, value) for base, option, values in FLOAT_OPTIONS
                  for value in values]


@pytest.mark.parametrize("base,option,value", NEGATIVE_CASES,
                         ids=[f"{b[0]} {o} {v}" for b, o, v in NEGATIVE_CASES])
def test_negative_values_parse_in_both_spellings(base, option, value):
    """`--opt v` and `--opt=v` give the same rows, and neither is a usage error: the
    value reaches the command, which may still reject it (exit 2, "error: ...")."""
    apart = invoke(base + [option, value])
    joined = invoke(base + [f"{option}={value}"])
    assert apart.exit_code in (0, 2, 3) and apart.exception is None
    assert "usage" not in apart.stderr.lower(), apart.stderr
    assert (apart.exit_code, apart.output, apart.stderr) == (
        joined.exit_code, joined.output, joined.stderr)
    if apart.exit_code == 0:
        assert apart.output


def test_version_is_the_package_version():
    res = invoke(["--version"])
    assert res.exit_code == 0
    assert res.output == f"barnesg, version {barnesg.__version__}\n"


class TestStokes:
    def test_profile_rises_through_half(self):
        res = invoke(
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
        assert all(0.0 < float(row["est_error"]) < 1e-6 for row in rows)

    def test_reversed_range_usage_error(self):
        res = invoke(
            [
                "stokes", "--z-abs", "3", "--k", "1",
                "--theta-min", "2.0", "--theta-max", "1.0", "--theta-steps", "5",
            ],
        )
        assert res.exit_code == 2


class TestTerminantCommand:
    def test_quadrature_method_is_rejected(self):
        res = invoke(
            [
                "terminant", "--p", "7", "--w-abs", "10",
                "--w-arg", str(math.pi / 3), "--method", "quadrature",
            ],
        )
        assert res.exit_code == 2

    def test_paths_agree(self):
        base = ["terminant", "--p", "7", "--w-abs", "10", "--w-arg", str(math.pi / 3)]
        rec = csv_rows(invoke(base).output)[0]
        assert rec["method"] == "gamma_recurrence"
        quad, _ = terminant_quadrature(7, 10.0 * cmath.exp(1j * math.pi / 3))
        dv = complex(float(rec["value_re"]), float(rec["value_im"])) - quad
        assert abs(dv) < 1e-9

    def test_continued_branch_flag(self):
        res = invoke(
            [
                "terminant", "--p", "9", "--w-abs", "10",
                "--w-arg", str(math.pi + 0.2),
            ],
        )
        assert res.exit_code == 0
        row = csv_rows(res.output)[0]
        assert row["method"] == "gamma_recurrence"
        assert float(row["arg_w"]) > math.pi


class TestOutputContracts:
    def test_csv_json_identical_values(self):
        base = ["eval", "--z-re", "4", "--z-im", "1", "--method", "asym"]
        csv_row = csv_rows(invoke(base + ["--format", "csv"]).output)[0]
        json_row = json_rows(invoke(base + ["--format", "json"]).output)[0]
        for key, jval in json_row.items():
            if isinstance(jval, float):
                assert float(csv_row[key]) == jval
            else:
                assert str(jval) == csv_row[key]

    def test_deterministic_reruns(self):
        args = [
            "stokes", "--z-abs", "2", "--k", "1",
            "--theta-min", "1.2", "--theta-max", "1.9", "--theta-steps", "7",
        ]
        a = invoke(args).output
        b = invoke(args).output
        assert a == b

    def test_row_round_trip(self):
        # feed a row's point back; 17 significant digits round-trip binary64, and
        # the route picks N and the shift again (at |z| = 2.7 it shifts to w = z + 11,
        # at |z| = 27 nothing shifts), so the row comes back whole
        for z_abs, shift in (("2.7", "11"), ("27", "0")):
            res = invoke(
                ["eval", "--z-abs", z_abs, "--z-arg", "0.9", "--method", "asym"]
            )
            row = csv_rows(res.output)[0]
            assert row["shift"] == shift
            res2 = invoke(
                ["eval", "--z-re", row["z_re"], "--z-im", row["z_im"], "--method", "asym"],
            )
            assert csv_rows(res2.output)[0] == row
