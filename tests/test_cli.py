import io
import math
import sys

import pytest

from regamma.cli import main


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
        code, out, _ = run(capsys, "eval", "0.5", "--fn", "gamma-neg")
        assert code == 0
        assert "-3.5449077018" in out

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

    def test_inverse_laplace(self, capsys):
        code, out, _ = run(capsys, "eval", "1.5", "--fn", "inv-laplace", "--t", "2")
        assert code == 0
        assert "2.8284271247" in out
        assert "method = hankel" in out
        assert "abs_err = " in out
        assert "flag   = ok" in out
        assert "evals  = " in out

    def test_inverse_laplace_reports_contour_flag(self, capsys):
        code, out, _ = run(
            capsys, "eval", "1.5", "--fn", "inv-laplace", "--t", "2", "--eps-rel", "1e-14"
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
    def test_fig3_preset(self, capsys, tmp_path):
        out_path = tmp_path / "fig3.csv"
        code, _, _ = run(capsys, "sweep", "--preset", "fig3", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "z,value,abs_err,method,flag"
        assert len(lines) == 201  # 200 grid points on (0, 10]
        # integer abscissae are exact rows
        exact = [l for l in lines if l.endswith(",exact")]
        assert len(exact) == 10
        for line in lines[1:]:
            z, value, err, method, flag = line.split(",")
            if flag == "ok":
                assert math.isfinite(float(value))

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


class TestVerify:
    def test_default_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 6

    def test_near_integer_is_informational(self, capsys):
        code, out, _ = run(capsys, "verify", "--near-integer")
        assert code == 0
        assert "near_integer_diagnostic" in out

    def test_hankel_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--hankel")
        assert code == 0
        assert "hankel_contour_invariance" in out
        assert "hankel_real_axis_agreement" in out

    def test_hankel_flag_fails_the_check(self, capsys):
        # below the estimator floor the contour results are not ok
        code, out, _ = run(capsys, "verify", "--hankel", "--eps-rel", "1e-14")
        assert code == 1
        fails = [l for l in out.splitlines() if l.startswith("FAIL hankel_")]
        assert len(fails) == 2
        assert all("flag=tolerance_not_met" in l for l in fails)

    def test_real_line_flag_fails_the_check(self, capsys):
        # below the round-off floor the real-line results are not ok either
        code, out, _ = run(capsys, "verify", "--eps-rel", "1e-14")
        assert code == 1
        fails = [l.split()[1] for l in out.splitlines() if l.startswith("FAIL")]
        assert fails == [
            "recurrence",
            "reflection",
            "representation_equivalence",
            "cauchy_saalschutz",
            "gamma_negative_sign_pattern",
        ]
        assert all(
            l.endswith("flag=tolerance_not_met") for l in out.splitlines() if l.startswith("FAIL")
        )
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

    def test_product_oracle_column(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--min", "0.7", "--max", "0.7", "--step", "1.0",
            "--compare-oracle", "product", "--terms", "20000",
        )
        assert code == 0
        # the product oracle converges like 1/terms, so the error column
        # reflects the oracle gap rather than quadrature noise
        last_cols = [l.split() for l in out.splitlines()[2:]]
        assert all(1e-7 < float(cols[-1]) < 1e-3 for cols in last_cols)

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
