import io
import math
import re
import sys

import pytest
from mpmath import mp, mpf

from regamma.cli import _bench_reference, main
from regamma.errors import PoleError, RegammaError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_recip_gamma_half(self, capsys):
        code, out, _ = run(capsys, "eval", "0.5", "--method", "real")
        assert code == 0
        assert "0.5641895835" in out
        assert "method = real_axis" in out
        assert "flag   = ok" in out

    def test_integer_fast_path(self, capsys):
        code, out, _ = run(capsys, "eval", "3", "--fn", "recip-gamma")
        assert code == 0
        assert "value  = 0.5" in out
        assert "flag   = exact" in out

    def test_gamma_negative(self, capsys):
        # eleven digits need a tolerance tighter than the default 1e-8
        code, out, _ = run(capsys, "eval", "0.5", "--fn", "gamma-neg", "--eps-rel", "1e-12")
        assert code == 0
        assert "-3.5449077018" in out

    @pytest.mark.parametrize("method", ["real", "cs"])
    def test_gamma_negative_overflow_is_one_error_line(self, capsys, method):
        code, out, err = run(capsys, "eval", "1e-310", "--fn", "gamma-neg", "--method", method)
        assert code == 1
        assert out == ""
        assert err == "regamma: error: Gamma(-1e-310) overflows double precision\n"

    def test_gamma_ratio_needs_b(self, capsys):
        code, _, err = run(capsys, "eval", "2.5", "--fn", "gamma-ratio")
        assert code == 1
        assert "--b" in err

    def test_gamma_ratio(self, capsys):
        code, out, _ = run(capsys, "eval", "2.5", "--fn", "gamma-ratio", "--b", "1.5")
        assert code == 0
        value = float(out.splitlines()[0].split("=")[1])
        assert abs(value - 1.5) <= 1e-8

    def test_gamma_ratio_tiny_numerator(self, capsys):
        # Gamma(1e-17)/Gamma(1.5) = 1e17 / Gamma(1.5) to within 6e-17
        code, out, _ = run(capsys, "eval", "1e-17", "--fn", "gamma-ratio", "--b", "1.5")
        assert code == 0
        value = float(out.splitlines()[0].split("=")[1])
        assert abs(value - 2.0e17 / math.sqrt(math.pi)) <= 1e-8 * value
        assert "flag   = ok" in out

    def test_gamma_ratio_near_integer_denominator(self, capsys):
        code, out, _ = run(
            capsys, "eval", "2.5", "--fn", "gamma-ratio", "--b", "0.9999", "--eps-rel", "1e-12"
        )
        assert code == 0
        value = float(out.splitlines()[0].split("=")[1])
        assert abs(value - 1.32926364785073646) <= 1e-11 * value
        assert "flag   = ok" in out

    def test_gamma_ratio_too_many_factors(self, capsys):
        code, _, err = run(capsys, "eval", "1000000000.5", "--fn", "gamma-ratio", "--b", "1e9")
        assert code == 1
        assert "m = 999999992" in err

    def test_abs_err_is_the_error_of_the_value(self, capsys):
        # the integral I(0.9999) is about 3.2e4 times 1/Gamma(0.9999), and
        # its estimate is rescaled to the printed value
        code, out, _ = run(capsys, "eval", "0.9999", "--eps-rel", "1e-12")
        assert code == 0
        err_line = [l for l in out.splitlines() if l.startswith("abs_err")][0]
        assert float(err_line.split("=")[1]) < 1e-12

    def test_inverse_laplace(self, capsys):
        code, out, _ = run(capsys, "eval", "1.5", "--fn", "inv-laplace", "--t", "2")
        assert code == 0
        assert "2.8284271247" in out
        assert "method = hankel" in out
        assert "abs_err = " in out
        assert "flag   = ok" in out
        assert "evals  = " in out

    def test_subnormal_tolerance_is_a_flag(self, capsys):
        # half of 5e-324 rounds to 0, which no part's config takes
        code, out, err = run(capsys, "eval", "2.5", "--eps-rel", "5e-324")
        assert code == 2
        assert err == ""
        assert "0.7522527780" in out
        assert "flag   = tolerance_not_met" in out

    def test_inverse_laplace_reports_contour_flag(self, capsys):
        # each factor meets 5e-15 alone, and their product does not
        code, out, _ = run(
            capsys, "eval", "1.5", "--fn", "inv-laplace", "--t", "2", "--eps-rel", "5e-15"
        )
        assert code == 2
        assert "flag   = tolerance_not_met" in out

    def test_pole_reports_error(self, capsys):
        code, _, err = run(capsys, "eval", "-2", "--fn", "gamma")
        assert code == 1
        assert "pole" in err.lower()

    def test_malformed_argument_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "not-a-number"])
        assert exc.value.code == 1

    def test_every_method_agrees(self, capsys):
        values = []
        for method in ("real", "power", "log", "cs", "hankel"):
            code, out, _ = run(capsys, "eval", "1.7", "--method", method)
            assert code == 0
            values.append(float(out.splitlines()[0].split("=")[1]))
        assert max(values) - min(values) <= 1e-7


class TestInputErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "nan"),
            ("eval", "inf", "--fn", "gamma"),
            ("eval", "0.5", "--eps-rel", "2"),
            ("eval", "0.5", "--eps-rel", "0"),
            ("eval", "1.5", "--fn", "inv-laplace", "--t", "inf"),
            ("bench", "--eps-rel", "2", "--min", "0.5", "--max", "0.5"),
        ],
    )
    def test_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("regamma: error: ") and err.count("\n") == 1

    def test_env_tolerance_out_of_range(self, capsys, monkeypatch):
        monkeypatch.setenv("REGAMMA_EPS_REL", "2")
        code, out, err = run(capsys, "eval", "0.5")
        assert code == 1
        assert out == ""
        assert err.startswith("regamma: error: ") and err.count("\n") == 1


class TestNegativeArguments:
    """Every float argument takes what float() takes, a leading '-' included."""

    @pytest.mark.parametrize(
        "argv, plain",
        [
            (("eval", "-1e-3"), ("eval", "--", "-1e-3")),
            (("eval", "-2.5e0"), ("eval", "-2.5")),
            (("eval", "-1E-3", "--fn", "gamma"), ("eval", "--fn", "gamma", "--", "-0.001")),
        ],
    )
    def test_exponent_forms_are_values(self, capsys, argv, plain):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert (code, out, err) == run(capsys, *plain)

    def test_double_dash_still_works(self, capsys):
        code, out, _ = run(capsys, "eval", "--", "-1e-3")
        assert code == 0
        assert float(out.splitlines()[0].split("=")[1]) == pytest.approx(
            -0.000999422128499185, rel=1e-8
        )

    @pytest.mark.parametrize("text", ["-inf", "-nan"])
    def test_non_finite_is_one_error_line(self, capsys, text):
        code, out, err = run(capsys, "eval", text)
        assert code == 1
        assert out == ""
        assert err.startswith("regamma: error: ") and err.count("\n") == 1
        assert "finite" in err

    def test_option_value(self, capsys):
        code, out, err = run(capsys, "eval", "2.5", "--fn", "gamma-ratio", "--b", "-1e-3")
        assert code == 1
        assert out == ""
        assert err == "regamma: error: B must be > 0, got -0.001\n"

    def test_sweep_range(self, capsys, tmp_path):
        out_path = tmp_path / "neg.csv"
        code, _, err = run(
            capsys, "sweep", "--min", "-1e-3", "--max", "1", "--step", "0.25",
            "--out", str(out_path),
        )
        assert (code, err) == (0, "")
        lines = out_path.read_text().splitlines()
        assert [float(l.split(",")[0]) for l in lines[1:]] == pytest.approx(
            [0.249, 0.499, 0.749, 0.999]
        )


class TestSweep:
    def test_abs_err_is_the_error_of_the_value(self, capsys, tmp_path):
        out_path = tmp_path / "near.csv"
        code, _, _ = run(
            capsys, "sweep", "--min", "0.9998", "--max", "0.9999", "--step", "1e-4",
            "--eps-rel", "1e-12", "--out", str(out_path),
        )
        assert code == 0
        (row,) = out_path.read_text().splitlines()[1:]
        z, value, err, method, flag = row.split(",")
        assert float(err) < 1e-12 * float(value)

    def test_fig3_preset(self, capsys, tmp_path):
        out_path = tmp_path / "fig3.csv"
        code, _, _ = run(capsys, "sweep", "--preset", "fig3", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "z,value,abs_err,method,flag"
        assert len(lines) == 201  # 200 grid points on (0, 10]
        # integer abscissae, and only they, are exact rows
        exact = [l for l in lines if l.endswith(",exact")]
        assert [l.split(",")[0] for l in exact] == [str(m) for m in range(1, 11)]
        for line in lines[1:]:
            z, value, err, method, flag = line.split(",")
            if flag == "ok":
                assert math.isfinite(float(value))

    def test_points_next_to_an_integer_are_evaluated(self, capsys, tmp_path):
        # only the integer itself is exact; 2.9999997 is 3e-7 from 3
        out_path = tmp_path / "near3.csv"
        code, _, _ = run(
            capsys, "sweep", "--min", "2.9999995", "--max", "3.0000005", "--step", "2e-7",
            "--out", str(out_path),
        )
        assert code == 0
        rows = [l.split(",") for l in out_path.read_text().splitlines()[1:]]
        assert [flag for *_, flag in rows] == ["ok"] * 5
        assert float(rows[0][0]) == 2.9999997
        assert float(rows[0][1]) == pytest.approx(0.50000013841766, rel=1e-12)

    def test_byte_identical_reruns(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "sweep", "--preset", "fig1", "--out", str(p1))
        run(capsys, "sweep", "--preset", "fig1", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert b"\r" not in p1.read_bytes()

    def test_fig4_flags_poles(self, capsys, tmp_path):
        out_path = tmp_path / "fig4.csv"
        run(capsys, "sweep", "--preset", "fig4", "--out", str(out_path))
        lines = out_path.read_text().splitlines()[1:]
        poles = [l for l in lines if l.endswith(",pole")]
        assert len(poles) == 5  # z = 1, 2, 3, 4, 5
        for line in poles:
            assert line.split(",")[1] == "nan"

    def test_custom_range(self, capsys, tmp_path):
        out_path = tmp_path / "custom.csv"
        code, _, _ = run(
            capsys, "sweep", "--min", "0", "--max", "1", "--step", "0.25",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 5  # header + 0.25, 0.5, 0.75, 1.0

    def test_missing_range_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "preset" in err

    def test_infinite_range_is_one_error_line(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--min", "0", "--max", "inf", "--step", "1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert err.startswith("regamma: error:") and err.count("\n") == 1

    def test_unwritable_path_reports_context(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--preset", "fig4", "--out", "/nonexistent/dir/x.csv"
        )
        assert code == 1
        assert "/nonexistent/dir/x.csv" in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--fn", "gamma"), ("--fn", "recip-gamma"), ("--min", "2"), ("--max", "3"),
         ("--step", "0.1")],
    )
    def test_preset_refuses_a_grid_or_function_flag(self, capsys, tmp_path, flag, value):
        # fig3 fixes its grid and function; --fn gamma --min 2 used to be
        # ignored, and fig3's 1/Gamma grid written with exit 0
        out_path = tmp_path / "refused.csv"
        code, out, err = run(capsys, "sweep", "--preset", "fig3", flag, value,
                             "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err == f"regamma: error: sweep --preset fig3 takes no {flag}\n"
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "fn, method, step, refusal",
        [
            ("gamma-neg", "hankel", "0.25",
             "regamma: error: --fn gamma-neg does not take --method hankel; it takes real, cs"),
            ("gamma-ratio", "real", "0.25", "argument --fn: invalid choice: 'gamma-ratio'"),
            ("recip-gamma", "real", "0", "regamma: error: need step > 0 and finite min < max"),
        ],
        ids=["gamma-neg-hankel", "gamma-ratio", "zero-step"],
    )
    def test_refusal_writes_no_file(self, capsys, tmp_path, fn, method, step, refusal):
        # every refusal exits 1 with one error line before any work
        out_path = tmp_path / "refused.csv"
        argv = ["sweep", "--min", "0", "--max", "1", "--step", step, "--fn", fn,
                "--method", method, "--out", str(out_path)]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own refusal
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert refusal in err and err.endswith("\n")
        assert not out_path.exists()


class TestMethodContract:
    """--method is honoured by the function it names, or refused."""

    def test_sweep_method_column_is_the_route(self, capsys, tmp_path):
        out_path = tmp_path / "fig1.csv"
        code, _, _ = run(
            capsys, "sweep", "--preset", "fig1", "--method", "hankel", "--out", str(out_path)
        )
        assert code == 0
        rows = [l.split(",") for l in out_path.read_text().splitlines()[1:]]
        assert len(rows) == 120
        assert {method for _, _, _, method, _ in rows} == {"hankel"}

    def test_recip_gamma_neg_honours_the_method(self, capsys):
        values = {}
        for method in ("power", "real"):
            argv = ("eval", "2.5", "--fn", "recip-gamma-neg", "--method", method)
            code, out, _ = run(capsys, *argv)
            assert code == 0
            values[method] = float(out.splitlines()[0].split("=")[1])
            if method == "power":
                assert "method = power_subst" in out
        assert abs(values["power"] - values["real"]) <= 1e-7

    def test_recip_gamma_neg_zeros_are_exact(self, capsys):
        code, out, _ = run(capsys, "eval", "2", "--fn", "recip-gamma-neg", "--method", "log")
        assert code == 0
        assert "value  = 0\n" in out
        assert "method = log_form" in out
        assert "flag   = exact" in out

    @pytest.mark.parametrize(
        "argv, accepted",
        [
            (("eval", "2.5", "--fn", "gamma-ratio", "--b", "3", "--method", "hankel"), "real"),
            (("eval", "1.5", "--fn", "inv-laplace", "--method", "real"), "hankel"),
            (("eval", "0.5", "--fn", "gamma-neg", "--method", "power"), "real, cs"),
            (("sweep", "--preset", "fig4", "--method", "log"), "real, cs"),
        ],
        ids=["gamma-ratio", "inv-laplace", "gamma-neg", "sweep-fig4"],
    )
    def test_refused_method_is_one_error_line(self, capsys, tmp_path, argv, accepted):
        out_path = tmp_path / "refused.csv"
        if argv[0] == "sweep":
            argv += ("--out", str(out_path))
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("regamma: error: ") and err.count("\n") == 1
        assert err.rstrip("\n").endswith(f"it takes {accepted}")
        assert not out_path.exists()

    def test_defaults_do_not_move(self, capsys):
        code, out, _ = run(capsys, "eval", "1.5", "--fn", "inv-laplace")
        assert code == 0
        assert "method = hankel" in out
        code, out, _ = run(capsys, "eval", "170.3", "--fn", "gamma-neg", "--method", "cs")
        assert code == 0
        assert "method = cauchy_saalschutz" in out

    def test_sweep_takes_every_function_of_z_alone(self, capsys, tmp_path):
        out_path = tmp_path / "gamma.csv"
        code, _, _ = run(
            capsys, "sweep", "--min", "0", "--max", "2", "--step", "0.5", "--fn", "gamma",
            "--out", str(out_path),
        )
        assert code == 0
        rows = [l.split(",") for l in out_path.read_text().splitlines()[1:]]
        assert [flag for *_, flag in rows] == ["ok", "exact", "ok", "exact"]
        assert float(rows[0][1]) == pytest.approx(math.sqrt(math.pi), rel=1e-8)
        with pytest.raises(SystemExit):
            main(["sweep", "--preset", "fig1", "--fn", "gamma-ratio", "--out", str(out_path)])


class TestVerify:
    def test_default_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 6

    def test_gamma_ratio_check(self, capsys):
        code, out, _ = run(capsys, "verify", "--eps-rel", "1e-12")
        assert code == 0
        assert "PASS gamma_ratio_recurrence" in out

    def test_hankel_suite(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "hankel_contour_invariance" in out
        assert "hankel_real_axis_agreement" in out

    def test_hankel_flag_fails_the_check(self, capsys):
        # below the rounding of the contour's nodes its results are not ok
        code, out, _ = run(capsys, "verify", "--eps-rel", "1e-15")
        assert code == 1
        fails = [l for l in out.splitlines() if l.startswith("FAIL hankel_")]
        assert len(fails) == 2
        assert all("flag=tolerance_not_met" in l for l in fails)

    def test_report_lines(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        lines = out.splitlines()
        assert [l.split()[1] for l in lines] == [
            "recurrence",
            "reflection",
            "gamma_ratio_recurrence",
            "representation_equivalence",
            "cauchy_saalschutz",
            "gamma_negative_sign_pattern",
            "entire_function_zeros",
            "hankel_real_axis_agreement",
            "hankel_contour_invariance",
        ]
        pattern = re.compile(
            r"^(PASS|FAIL) [a-z_]+ max_dev=\S+ tol=\S+( flag=tolerance_not_met)?$"
        )
        assert all(pattern.match(l) for l in lines), lines

    def test_real_line_flag_fails_the_check(self, capsys):
        # below the round-off floor the real-line results are not ok either:
        # at 1e-14 gamma_ratio's 68 roundings at A = 41.2, and the adaptive
        # power_subst and log_form routes, reach it; the fixed rule does not
        code, out, _ = run(capsys, "verify", "--eps-rel", "1e-14")
        assert code == 1
        fails = [l.split()[1] for l in out.splitlines() if l.startswith("FAIL")]
        assert fails == ["gamma_ratio_recurrence", "representation_equivalence"]
        assert all(
            l.endswith("flag=tolerance_not_met") for l in out.splitlines() if l.startswith("FAIL")
        )
        assert "PASS entire_function_zeros" in out

    def test_a_raising_check_fails_and_the_rest_run(self, capsys):
        # at 5e-15 gamma_ratio(41.2, 40.2) raises before any work: its 68
        # roundings alone pass the tolerance
        code, out, err = run(capsys, "verify", "--eps-rel", "5e-15")
        assert code == 1
        assert err == ""
        lines = out.splitlines()
        assert len(lines) == 9
        assert lines[2].startswith("FAIL gamma_ratio_recurrence tol=1e-07 error=RegammaError: ")
        assert "PASS entire_function_zeros" in out


class TestBench:
    def test_small_grid_table(self, capsys, tmp_path):
        csv_path = tmp_path / "bench.csv"
        code, out, _ = run(
            capsys, "bench", "--min", "0.3", "--max", "0.9", "--step", "0.3",
            "--csv", str(csv_path),
        )
        assert code == 0
        for method in ("real", "power", "log", "cs", "hankel"):
            assert method in out
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "method,eps_rel,mean_ms,max_rel_err"
        assert len(lines) == 6

    def test_eps_rel_sweep_rows(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--min", "0.7", "--max", "0.7", "--step", "1.0",
            "--eps-rel", "1e-4", "1e-8",
        )
        assert code == 0
        assert out.count("real ") == 2

    def test_step_below_float_spacing_ends(self, capsys):
        # 10 + 1e-16 == 10, so an accumulated grid would never pass --max
        code, out, _ = run(
            capsys, "bench", "--min", "10", "--max", "10", "--step", "1e-16",
        )
        assert code == 0
        assert out.count("real ") == 1

    @pytest.mark.parametrize(
        "grid",
        [
            ("--step", "0"),
            ("--step", "-0.1"),
            ("--min", "3", "--max", "1"),
            ("--max", "inf"),
        ],
    )
    def test_bad_grid_is_one_error_line(self, capsys, grid):
        code, out, err = run(capsys, "bench", *grid)
        assert code == 1
        assert out == ""
        assert err.startswith("regamma: error:") and err.count("\n") == 1

    def test_top_of_gammas_range(self, capsys, tmp_path):
        # Gamma(171.5) is about 9.5e307, finite: the reference takes it, and
        # every route meets its tolerance against it
        csv_path = tmp_path / "bench.csv"
        code, _, err = run(capsys, "bench", "--min", "170.5", "--max", "171.5", "--step", "0.5",
                           "--eps-rel", "1e-8", "--csv", str(csv_path))
        assert code == 0 and err == ""
        rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
        assert len(rows) == 5
        assert all(0.0 <= float(max_rel_err) <= 1e-8 for *_, max_rel_err in rows)

    def test_pole_is_one_error_line(self, capsys):
        code, out, err = run(capsys, "bench", "--min", "-2", "--max", "-1", "--step", "0.5")
        assert code == 1
        assert out == ""
        assert err == "regamma: error: Gamma has a pole at -2.0\n"

    @pytest.mark.parametrize("lo, hi, past", [("171.5", "172", "171.75"),
                                              ("-172.5", "-171.5", "-172.5")])
    def test_past_the_range_is_one_error_line(self, capsys, lo, hi, past):
        code, out, err = run(capsys, "bench", "--min", lo, "--max", hi, "--step", "0.25")
        assert code == 1
        assert out == ""
        assert err.startswith("regamma: error: bench has no reference at z = " + past + ":")
        assert err.count("\n") == 1 and "math range error" not in err

    def test_next_to_zero_stops_on_the_cs_route(self, capsys, tmp_path):
        # the reference is z itself there; cauchy_saalschutz integrates
        # Gamma(-z), which overflows, and raises its documented OverflowError
        csv_path = tmp_path / "bench.csv"
        code, out, err = run(capsys, "bench", "--min", "1e-310", "--max", "1e-310",
                             "--step", "1", "--csv", str(csv_path))
        assert (code, out) == (1, "")
        assert err == "regamma: error: Gamma(-1e-310) overflows double precision\n"
        assert not csv_path.exists()

    def test_unwritable_csv_is_one_error_line(self, capsys, tmp_path):
        csv_path = tmp_path / "missing" / "bench.csv"
        code, out, err = run(
            capsys, "bench", "--min", "0.5", "--max", "0.5", "--step", "1", "--csv", str(csv_path)
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"regamma: error: cannot write {csv_path}") and err.count("\n") == 1


class TestBenchReference:
    """bench's reference 1/Gamma, from math.gamma, over Gamma's whole range."""

    ULPS = 4 * 2.0**-53

    def test_half(self):
        assert _bench_reference(0.5) == pytest.approx(1 / 1.7724538509055160273, rel=self.ULPS)

    def test_five(self):
        assert _bench_reference(5.0) == 1 / 24

    def test_five_halves(self):
        assert _bench_reference(2.5) == pytest.approx(1 / 1.3293403881791370205, rel=self.ULPS)

    @pytest.mark.parametrize(
        "z", [0.05, 0.3, 0.9, 1.1, 2.7, 4.2, 7.77, 13.4, 21.0, 29.5, 142.4, 171.5, -29.5, -170.5]
    )
    def test_accuracy_against_extended_precision(self, z):
        with mp.workdps(40):
            ref = float(1 / mp.gamma(mpf(z)))
        assert abs(_bench_reference(z) - ref) <= self.ULPS * abs(ref)

    @pytest.mark.parametrize("z", [0.3, 1.7, 5.5])
    def test_recurrence(self, z):
        assert _bench_reference(z) == pytest.approx(z * _bench_reference(z + 1.0), rel=self.ULPS)

    def test_reflection_branch(self):
        assert _bench_reference(-0.5) == pytest.approx(1 / -3.5449077018110320546, rel=self.ULPS)

    @pytest.mark.parametrize("z", [1e-310, -1e-310, 5e-309, 5e-324, -5e-324])
    def test_next_to_zero(self, z):
        # Gamma(z) overflows below about 5.6e-309 in modulus, where
        # 1/Gamma(z) = z/Gamma(1 + z) rounds to z
        assert _bench_reference(z) == z

    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0])
    def test_poles(self, z):
        with pytest.raises(PoleError, match="pole"):
            _bench_reference(z)

    @pytest.mark.parametrize("z", [171.7, -171.7])
    def test_past_the_range(self, z):
        with pytest.raises(RegammaError, match=f"no reference at z = {z!r}:"):
            _bench_reference(z)


class TestBrokenPipe:
    def test_closed_reader_exits_quietly(self, capsys, monkeypatch, tmp_path):
        # `regamma verify | head -n 1`: every write after the reader left fails
        with open(tmp_path / "sink", "w") as sink:

            class ClosedPipe(io.TextIOBase):
                def write(self, text):
                    raise BrokenPipeError(32, "Broken pipe")

                def fileno(self):
                    return sink.fileno()

            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            code = main(["verify"])
        assert code == 1
        assert capsys.readouterr().err == ""


class TestEnvOverride:
    def test_env_sets_default(self, capsys, monkeypatch):
        monkeypatch.setenv("REGAMMA_EPS_REL", "1e-4")
        code, out, _ = run(capsys, "eval", "0.5")
        assert code == 0
        assert "0.5641" in out

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REGAMMA_EPS_REL", "1e-2")
        code, out, _ = run(capsys, "eval", "0.5", "--eps-rel", "1e-10")
        assert code == 0
        err_line = [l for l in out.splitlines() if l.startswith("abs_err")][0]
        assert float(err_line.split("=")[1]) < 1e-9

    def test_bad_env_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("REGAMMA_EPS_REL", "banana")
        with pytest.raises(SystemExit):
            main(["eval", "0.5"])
