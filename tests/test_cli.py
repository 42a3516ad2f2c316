import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from rgas import cli, quadrature, zerofinder


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestZerosCommand:
    def test_writes_table(self, capsys, tmp_path):
        out = tmp_path / "z.csv"
        code, stdout, _ = run_cli(capsys, "zeros", "--count", "10", "--out", str(out))
        assert code == 0
        table = zerofinder.load_table(out)
        assert table.count == 10
        assert table.gammas[0] == pytest.approx(14.134725, abs=1e-6)

    def test_flat_slope_is_numerical_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(
            zerofinder, "_central_slope",
            lambda search, mid: (np.zeros_like(mid), np.zeros_like(mid)),
        )
        code, stdout, err = run_cli(capsys, "zeros", "--count", "50")
        assert (code, stdout) == (3, "")
        assert "numerical failure" in err

    def test_count_zero_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "zeros", "--count", "0")
        assert code == 2
        assert "count" in err

    def test_reuse_skips_recomputation(self, capsys, tmp_path):
        src = tmp_path / "z.csv"
        dst = tmp_path / "z2.csv"
        assert run_cli(capsys, "zeros", "--count", "12", "--out", str(src))[0] == 0
        code, _, _ = run_cli(capsys, "zeros", "--in", str(src), "--count", "5", "--out", str(dst))
        assert code == 0
        small = zerofinder.load_table(dst)
        big = zerofinder.load_table(src)
        assert np.array_equal(small.gammas, big.gammas[:5])

    def test_malformed_file_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nonsense\n")
        code, _, err = run_cli(capsys, "zeros", "--in", str(bad))
        assert code == 2
        assert "header" in err

    def test_stdout_is_the_file_text(self, capsys, tmp_path):
        out = tmp_path / "z.txt"
        assert run_cli(capsys, "zeros", "--count", "25", "--out", str(out))[0] == 0
        code, stdout, _ = run_cli(capsys, "zeros", "--count", "25")
        assert code == 0
        assert stdout == out.read_text(encoding="ascii")
        assert stdout.startswith("# rgas-zeros v1 count=25 abs_error=")
        assert stdout.splitlines()[1] == "14.1347251417"


class TestEvalCommand:
    def test_zeta_csv(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--fn", "zeta", "--re", "2")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "fn,re,im,value_re,value_im"
        fields = row.split(",")
        assert fields[0] == "zeta"
        assert float(fields[3]) == pytest.approx(1.6449340668482264, abs=1e-10)

    def test_pole_is_numerical_failure(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--fn", "zeta", "--re", "1")
        assert code == 3
        assert "pole" in err.lower()

    def test_huge_cutoff_is_numerical_failure_with_a_short_message(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--fn", "hardy-z", "--re", "1e300")
        assert (code, out) == (3, "")
        assert "Euler-Maclaurin cutoff 5e+299 exceeds max_terms=200000" in err
        assert len(err) < 100

    def test_ei_at_a_negative_argument(self, capsys):
        # Ei(-30) = -3.02155201068e-15 (mpmath); its power series cancels there
        code, out, _ = run_cli(capsys, "eval", "--fn", "ei", "--re", "-30")
        assert code == 0
        value = float(out.strip().splitlines()[1].split(",")[3])
        assert value == pytest.approx(-3.0215520106888125e-15, rel=1e-11)

    def test_ei_overflow_is_numerical_failure(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--fn", "ei", "--re", "800")
        assert (code, out) == (3, "")
        assert "float range" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--fn", "zeta", "--re", "-300.5"),
            ("eval", "--fn", "zeta-derivative", "--re", "-2500"),
        ],
    )
    def test_reflection_overflow_is_numerical_failure(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert "float range" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--fn", "digamma", "--re", "1e-320"),
            ("eval", "--fn", "log-gamma", "--re", "1e308", "--im", "1e308"),
            ("eval", "--fn", "hurwitz", "--re", "2", "--q", "1e-320"),
        ],
    )
    def test_non_finite_value_is_numerical_failure(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert "float range" in err

    @pytest.mark.parametrize("re_s", ["1e14", "1e20", "1e30"])
    @pytest.mark.parametrize(
        "fn,value",
        [("zeta", "1"), ("zeta-derivative", "0"), ("zeta-log-derivative", "0"), ("log-zeta", "0")],
    )
    def test_zeta_family_at_huge_re_s(self, capsys, fn, value, re_s):
        # 2^-Re s underflows: this printed nan,nan after overflow warnings
        code, out, err = run_cli(capsys, "eval", "--fn", fn, "--re", re_s)
        assert (code, err) == (0, "")
        assert out.splitlines()[1].split(",")[3:] == [value, "0"]

    @pytest.mark.parametrize(
        "q,value", [("1", ["1", "0"]), ("2", ["0", "0"]), ("0.5", None)]
    )
    def test_hurwitz_at_huge_re_z(self, capsys, q, value):
        # zeta(1e14, q) is q^-1e14 to rounding: 1, an underflow to 0, and an
        # overflow (exit 3); the first two exited 3 when the sum's rising
        # product overflowed.  RuntimeWarnings are errors under pytest.
        code, out, err = run_cli(capsys, "eval", "--fn", "hurwitz", "--re", "1e14", "--q", q)
        if value is None:
            assert (code, out) == (3, "")
            assert err == "rgas: numerical failure: hurwitz_zeta exceeds the float range\n"
        else:
            assert (code, err) == (0, "")
            assert out.splitlines()[1].split(",")[3:] == value

    def test_budget_miss_names_the_target_only(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--fn", "zeta", "--re", "0.1", "--im", "1500")
        assert (code, out) == (3, "")
        assert err == "rgas: numerical failure: zeta: truncation estimate 3.313e-12 exceeds target 1.000e-12\n"

    def test_json_matches_csv(self, capsys):
        _, out_csv, _ = run_cli(capsys, "eval", "--fn", "digamma", "--re", "2")
        _, out_json, _ = run_cli(capsys, "eval", "--fn", "digamma", "--re", "2", "--format", "json")
        csv_value = out_csv.strip().splitlines()[1].split(",")[3]
        json_value = json.loads(out_json)["value_re"]
        assert float(csv_value) == json_value


class TestThermoCommand:
    def test_continuum_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "thermo", "--lam", "1", "--beta-min", "0.5", "--beta-max", "4",
            "--steps", "8",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "beta,f_re,f_im,eps,entropy,flags"
        assert len(lines) == 9
        for line in lines[1:]:
            fields = line.split(",")
            assert all(np.isfinite(float(x)) for x in fields[:5])
            assert fields[5] == "complex_branch_active"

    def test_discrete_flags_divergent_rows(self, capsys, tmp_path):
        spec = tmp_path / "ensemble.csv"
        spec.write_text("# omega, probability\n1.0, 0.6\n2.0, 0.4\n")
        code, out, _ = run_cli(
            capsys, "thermo", "--spec-file", str(spec), "--beta-min", "0.5",
            "--beta-max", "2.0", "--steps", "4",
        )
        assert code == 0
        lines = out.strip().splitlines()[1:]
        assert lines[0].endswith("hagedorn_divergent")
        assert "nan" in lines[0]
        assert lines[-1].endswith(",")

    @pytest.mark.parametrize("lam", ["0.01", "0.1"])
    def test_small_beta_at_a_tight_tolerance(self, lam):
        # the principal-value energy oracle exited 3 (lam 0.01) and 2 (lam
        # 0.1) here, after a 0/0 RuntimeWarning on stderr
        proc = subprocess.run(
            [sys.executable, "-m", "rgas", "thermo", "--lam", lam, "--beta-min", "0.05",
             "--beta-max", "0.05", "--steps", "1", "--tol", "1e-11"],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))),
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert len(proc.stdout.splitlines()) == 2

    def test_json_numbers_match_csv(self, capsys):
        args = ("thermo", "--lam", "1", "--beta-min", "1", "--beta-max", "2", "--steps", "2")
        _, out_csv, _ = run_cli(capsys, *args)
        _, out_json, _ = run_cli(capsys, *args, "--format", "json")
        rows = [line.split(",") for line in out_csv.strip().splitlines()[1:]]
        payload = json.loads(out_json)
        for row, obj in zip(rows, payload):
            assert float(row[1]) == obj["f_re"]
            assert float(row[3]) == obj["eps"]

    def test_deterministic_output(self, capsys):
        args = ("thermo", "--lam", "2", "--beta-min", "0.7", "--beta-max", "3", "--steps", "5")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_unnormalized_spec_rejected(self, capsys, tmp_path):
        spec = tmp_path / "bad.csv"
        spec.write_text("1.0,0.5\n2.0,0.4\n")
        code, _, err = run_cli(
            capsys, "thermo", "--spec-file", str(spec), "--beta-min", "1",
            "--beta-max", "2", "--steps", "2",
        )
        assert code == 2
        assert "refusing to rescale" in err


class TestContinuumEdges:
    # kappa = lam/beta at and past the ends of the float range: 1e300 and
    # inf are refused by name, an underflow to 0 gives the (vanishing)
    # values; these exited 1 with a ZeroDivisionError traceback, printed
    # inf cells, or named an internal kernel
    @pytest.mark.parametrize(
        "lam,beta,code",
        [("1", "1e-300", 2), ("1e-300", "1e300", 0), ("1e200", "1e-100", 2), ("1e300", "1e-10", 2)],
    )
    def test_extreme_kappa(self, capsys, lam, beta, code):
        got, out, err = run_cli(
            capsys, "thermo", "--lam", lam, "--beta-min", beta, "--beta-max", beta, "--steps", "1"
        )
        assert got == code
        if code == 0:
            assert err == ""
            (row,) = out.splitlines()[1:]
            assert all(np.isfinite(float(x)) for x in row.split(",")[:5])
        else:
            assert out == ""
            assert "kappa = lam/beta" in err

    def test_float_range_is_a_numerical_failure(self, capsys):
        code, out, err = run_cli(
            capsys, "thermo", "--lam", "1", "--beta-min", "1", "--beta-max", "1", "--steps", "1",
            "--volume", "1e-310",
        )
        assert (code, out) == (3, "")
        assert "lam/beta^2" in err

    def test_unconverged_rows_are_flagged(self, capsys, monkeypatch):
        # rows whose leaves may not be split miss their tolerance: the flags
        # column says so in both formats
        monkeypatch.setattr(quadrature, "_MAX_DEPTH", 0)
        args = ("thermo", "--lam", "1", "--beta-min", "1", "--beta-max", "2", "--steps", "2",
                "--tol", "1e-10")
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        rows = out.splitlines()[1:]
        assert [r.split(",")[5] for r in rows] == ["complex_branch_active;unconverged"] * 2
        code, out, _ = run_cli(capsys, *args, "--format", "json")
        assert code == 0
        assert [r["flags"] for r in json.loads(out)] == ["complex_branch_active;unconverged"] * 2

    def test_panel_budget_is_a_numerical_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 10)
        code, out, err = run_cli(
            capsys, "thermo", "--lam", "1", "--beta-min", "1", "--beta-max", "2", "--steps", "2",
            "--tol", "1e-12",
        )
        assert (code, out) == (3, "")
        assert "10-panel budget exhausted" in err


SPEC_ROWS = "# omega,probability\n1.0,0.5\n2.0,0.3\n3.5,0.2\n"

# sha256 of stdout; these bytes predate the batched kernel calls, the
# lockstep continuum scan, its rows on one dyadic panel tree and the
# once-per-process invariants of the breakdown, which must leave every
# printed digit as it was.  The three
# breakdowns are those of the closed-form eps3: each printed value that
# moved from the earlier pair-integral grid moved by less than the old
# abs_error and toward the oracle (and toward a 30-digit eps3).  The eps
# and entropy cells of the second, eighth and ninth moved when eps became an
# integral of ln|zeta| in place of a principal value of zeta'/zeta: by at
# most 4.9e-14, within the earlier eps budget.  The three breakdowns moved
# again when the eps3 tail and the eps5 integral became rows of the one
# GK15 engine: abs_error by at most 1.6e-10, and the total of the third by
# 2e-14, within its abs_error.  The ninth moved when Im f became the closed
# form at every kappa: f_im at beta = 3.27391304348 went from
# -0.00584412818272 to -0.00584412818273, the 12-digit rounding of
# -0.0058441281827250019 (30 digits); 1 - exp(-kappa) rounds to the old digit.
# The three breakdowns moved when eps5 became its closed-form sum over the
# trivial zeros: abs_error fell by the old psi row's budget (9.6e-11, 1.0e-11
# and 1.8e-11), eps5 kept its 12 digits, and the total of the second and third
# moved by 2e-13 and 4.2e-13, within that budget
PINNED_DIGESTS = [
    (
        ("thermo", "--lam", "1", "--beta-min", "0.5", "--beta-max", "4", "--steps", "8"),
        "b38000afd0555f7046ad03a0790f9e61205761674a24f67ec125bbd4e35cee6e",
    ),
    (
        ("thermo", "--lam", "0.05", "--beta-min", "0.1", "--beta-max", "10", "--steps", "5",
         "--format", "json"),
        "6db797c9732bf87426399ff50d8217dd150bfa08bad551b53f0c7310a07e8458",
    ),
    (
        ("thermo", "--spec-file", "SPEC", "--beta-min", "0.5", "--beta-max", "3", "--steps", "11"),
        "71e3a208ab488f9089a72da3b1ddd69ccfa49b89f007c7860fd47fa9a210f7bb",
    ),
    (
        ("hagedorn", "--spec-file", "SPEC", "--beta-min", "0.5", "--beta-max", "3",
         "--steps", "11", "--format", "json"),
        "285c6684bdc0e8b3107711140f094255504a54de51c21c3d69476e44ec8bdfc8",
    ),
    (
        ("breakdown", "--lam", "1", "--beta", "1", "--zeros-count", "300"),
        "c4ac43bd4a5ccc16e6c68f8db32e397a02f68884fcb74b32f4341fe9f130821e",
    ),
    (
        ("breakdown", "--lam", "0.03", "--beta", "0.9", "--zeros-count", "500"),
        "105c2464ea0bc720da50423d6e6aae1146e3262ede703cba4ba510f8e33404a6",
    ),
    (
        ("breakdown", "--lam", "0.02", "--beta", "3", "--zeros-count", "500"),
        "b5d2017c78ccc5652914ced9ff2803a7b513b471e148420b2e06beeb2b5939d7",
    ),
    (
        ("thermo", "--lam", "1", "--beta-min", "0.05", "--beta-max", "20", "--steps", "200"),
        "11612d7043c1cd41bc102278437b78286324708384f21658fc9bf3d4cf81dbcc",
    ),
    (
        ("thermo", "--lam", "0.02", "--beta-min", "0.3", "--beta-max", "6", "--steps", "24",
         "--format", "json"),
        "ab6d36f76d73d69446898f7ebef54c8f2c17f93bc3e26bef6f8b0eb7f6096d53",
    ),
    (
        ("hagedorn", "--spec-file", "SPEC", "--beta-min", "0.5", "--beta-max", "3", "--steps", "11"),
        "51e3fa6c5fc693dfb4104e873a787445e3fed16c5414ed424ad44035111192b2",
    ),
    (
        ("thermo", "--spec-file", "SPEC", "--beta-min", "0.5", "--beta-max", "3", "--steps", "11",
         "--format", "json"),
        "d43b48a16dda7ac7e46308e3e56b1aa02f424eb38fd06b4d3b665f6c8d086558",
    ),
]


class TestPinnedOutput:
    @pytest.mark.parametrize("argv,digest", PINNED_DIGESTS)
    def test_stdout_bytes(self, capsys, tmp_path, argv, digest):
        spec = tmp_path / "ensemble.csv"
        spec.write_text(SPEC_ROWS)
        code, out, _ = run_cli(capsys, *[str(spec) if a == "SPEC" else a for a in argv])
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--fn", "zeta", "--re", "nan"),
            ("eval", "--fn", "zeta", "--re", "2", "--im", "inf"),
            ("thermo", "--lam", "1", "--beta-min", "inf", "--beta-max", "inf", "--steps", "1"),
            ("thermo", "--lam", "nan", "--beta-min", "1", "--beta-max", "2", "--steps", "2"),
            ("breakdown", "--lam", "1", "--beta", "1", "--volume", "inf"),
        ],
    )
    def test_argument_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("rows", ["1.0,0.5\nnan,0.5\n", "1.0,0.5\n2.0,nan\n"])
    def test_spec_file_is_usage_error(self, capsys, tmp_path, rows):
        spec = tmp_path / "ensemble.csv"
        spec.write_text(rows)
        code, out, err = run_cli(
            capsys, "thermo", "--spec-file", str(spec), "--beta-min", "1",
            "--beta-max", "2", "--steps", "2",
        )
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("rows,line", [("abc,1\n", 1), ("1.0,0.5\n# note\n2.0,x\n", 3)])
    def test_non_numeric_field_is_usage_error(self, capsys, tmp_path, rows, line):
        spec = tmp_path / "ensemble.csv"
        spec.write_text(rows)
        code, out, err = run_cli(
            capsys, "thermo", "--spec-file", str(spec), "--beta-min", "1",
            "--beta-max", "2", "--steps", "2",
        )
        assert code == 2
        assert out == ""
        assert f"{spec}:{line}: expected 'omega,probability'" in err


class TestBreakdownCommand:
    def test_fields_and_contract(self, capsys):
        code, out, _ = run_cli(
            capsys, "breakdown", "--lam", "1", "--beta", "1", "--zeros-count", "300"
        )
        assert code == 0
        payload = json.loads(out)
        for key in (
            "eps1", "eps2", "eps3", "eps4", "eps5", "eps6", "eps_A", "eps_B",
            "total", "oracle", "eps3_printed", "eps5_printed", "thermal_printed",
            "deviation_eps1", "deviation_eps3", "deviation_thermal",
        ):
            assert key in payload
        assert abs(payload["total"] - payload["oracle"]) <= 1e-6 * abs(payload["oracle"])
        assert payload["eps1_printed"] == pytest.approx(2.837877, abs=1e-6)
        assert np.isfinite(payload["deviation_thermal"])

    def test_lambda_over_beta_past_the_exp_range(self, capsys):
        # e^(lam/beta) overflows a float; e^(-x) Ei(x) does not
        code, out, _ = run_cli(
            capsys, "breakdown", "--lam", "100", "--beta", "0.1", "--zeros-count", "300"
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["total"] - payload["oracle"]) <= payload["abs_error"]
        assert np.isfinite(payload["thermal_printed"])

    def test_tightest_tolerance(self, capsys):
        # the smallest tolerance the CLI accepts
        code, out, _ = run_cli(
            capsys, "breakdown", "--lam", "0.01", "--beta", "1", "--tol", "1e-12", "--zeros-count", "300"
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["total"] - payload["oracle"]) <= payload["abs_error"]

    def test_fewer_than_ten_zeros_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "breakdown", "--lam", "1", "--beta", "1", "--zeros-count", "9")
        assert (code, out) == (2, "")
        assert err == "rgas: superzeta sums need at least 10 zeros\n"

    def test_zeros_file_reuse(self, capsys, tmp_path):
        zfile = tmp_path / "z.csv"
        assert run_cli(capsys, "zeros", "--count", "150", "--out", str(zfile))[0] == 0
        code, out, _ = run_cli(
            capsys, "breakdown", "--lam", "1", "--beta", "2", "--zeros-file", str(zfile)
        )
        assert code == 0
        assert json.loads(out)["zeros_used"] == 150


class TestHagedornCommand:
    def test_rows(self, capsys, tmp_path):
        spec = tmp_path / "ensemble.csv"
        spec.write_text("1.0,1.0\n")
        code, out, _ = run_cli(
            capsys, "hagedorn", "--spec-file", str(spec), "--beta-min", "0.5",
            "--beta-max", "2.0", "--steps", "4",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "beta,f,flags"
        assert lines[1].endswith("hagedorn_divergent")
        assert lines[-1].endswith(",")


class TestValidateCommand:
    def test_default_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--zeros-count", "60")
        assert code == 0
        assert "all checks passed" in out
        assert out.count("PASS") == 7

    def test_zero_table_computed_once(self, capsys, monkeypatch):
        counts = []
        original = zerofinder.find_zeros

        def counted(n, *args, **kwargs):
            counts.append(n)
            return original(n, *args, **kwargs)

        monkeypatch.setattr(zerofinder, "find_zeros", counted)
        code, out, _ = run_cli(capsys, "validate", "--zeros-count", "60")
        assert code == 0 and out.count("PASS") == 7
        assert counts == [60]

    def test_out_of_range_tolerance_fails_controlled(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--tolerance", "1e-15")
        assert code == 2
        assert "outside the supported range" in err
        code, _, err = run_cli(capsys, "validate", "--tolerance", "0.5")
        assert code == 2

    def test_check_failure_exits_one(self, capsys, monkeypatch):
        # break one identity on purpose to exercise the failure exit path
        from rgas import superzeta

        monkeypatch.setattr(superzeta, "g1_via_identity", lambda t: 1e9)
        code, out, _ = run_cli(capsys, "validate", "--zeros-count", "60")
        assert code == 1
        assert "FAIL" in out


class TestUsageErrors:
    def test_zero_steps(self, capsys):
        code, _, err = run_cli(
            capsys, "thermo", "--lam", "1", "--beta-min", "1", "--beta-max", "2",
            "--steps", "0",
        )
        assert code == 2
        assert "steps" in err

    def test_missing_ensemble(self, capsys):
        code, _, err = run_cli(
            capsys, "thermo", "--beta-min", "1", "--beta-max", "2", "--steps", "2"
        )
        assert code == 2
        assert "--lam or --spec-file" in err


class TestParserCache:
    def test_built_once_per_environment_default(self, capsys):
        cli._build_parser.cache_clear()
        argv = ("thermo", "--lam", "1", "--beta-min", "1", "--beta-max", "1", "--steps", "1")
        for _ in range(3):
            assert run_cli(capsys, *argv)[0] == 0
        assert cli._build_parser.cache_info().misses == 1


class TestInputPaths:
    @pytest.mark.parametrize(
        "argv",
        [
            ("thermo", "--spec-file", "PATH", "--beta-min", "1", "--beta-max", "2", "--steps", "2"),
            ("hagedorn", "--spec-file", "PATH", "--beta-min", "1", "--beta-max", "2", "--steps", "2"),
            ("breakdown", "--lam", "1", "--beta", "1", "--zeros-file", "PATH"),
            ("zeros", "--in", "PATH"),
        ],
    )
    @pytest.mark.parametrize("kind", ["directory", "missing", "not-ascii"])
    def test_unreadable_input_is_usage_error(self, capsys, tmp_path, argv, kind):
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-ascii":
            path.write_bytes(b"\xff\xfe1.0,1.0\n")
        code, out, err = run_cli(capsys, *[str(path) if a == "PATH" else a for a in argv])
        assert code == 2
        assert out == ""
        assert err.startswith("rgas: ")


class TestSubprocessEntry:
    def test_module_invocation(self):
        # run from the directory holding the imported package, so the child
        # finds the same rgas whether or not PYTHONPATH names it
        proc = subprocess.run(
            [sys.executable, "-m", "rgas", "eval", "--fn", "zeta", "--re", "3"],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))),
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "fn,re,im,value_re,value_im"


class TestEvalDomainGuards:
    def test_imaginary_part_rejected_for_real_functions(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--fn", "digamma", "--re", "2", "--im", "1")
        assert code == 2
        assert "real argument" in err
