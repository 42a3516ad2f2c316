import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from rgas import cli, zerofinder


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


SPEC_ROWS = "# omega,probability\n1.0,0.5\n2.0,0.3\n3.5,0.2\n"

# sha256 of stdout; these bytes predate the batched kernel calls and the
# once-per-process invariants of the breakdown, which must leave every printed
# digit as it was (the three breakdowns stop at 40, 80 and 160 pair-integral
# panels)
PINNED_DIGESTS = [
    (
        ("thermo", "--lam", "1", "--beta-min", "0.5", "--beta-max", "4", "--steps", "8"),
        "6dcb96b5dd9a2e225160254126a586ff1976f70376d3cfb5042486e12ff18f5a",
    ),
    (
        ("thermo", "--lam", "0.05", "--beta-min", "0.1", "--beta-max", "10", "--steps", "5",
         "--format", "json"),
        "2334cb7957f871bc50023d9295258826d1040d00e48e9434a9ec7144c9df9cba",
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
        "9b5cb4e35bca05399a4ca0df2613bd3f99297c6f7dd984f7476b7bed2efd66c9",
    ),
    (
        ("breakdown", "--lam", "0.03", "--beta", "0.9", "--zeros-count", "500"),
        "38e82b64f15ede9db80490defa2c4279bff011d9668bae0ec4cc814893ce8430",
    ),
    (
        ("breakdown", "--lam", "0.02", "--beta", "3", "--zeros-count", "500"),
        "186398dd03d093c9fd6f1b4b0e7d35fe6dd4a9084f91e1d3e61eaedba6efacc3",
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
        assert out.count("PASS") == 6

    def test_out_of_range_tolerance_fails_controlled(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--tolerance", "1e-15")
        assert code == 2
        assert "outside the supported range" in err
        code, _, err = run_cli(capsys, "validate", "--tolerance", "0.5")
        assert code == 2

    def test_check_failure_exits_one(self, capsys, monkeypatch):
        # break one identity on purpose to exercise the failure exit path
        from rgas import superzeta

        monkeypatch.setattr(superzeta, "g1_via_identity", lambda t, opts=None: 1e9)
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


class TestEnvironmentDefaults:
    def test_rgas_zeros_env(self, capsys, monkeypatch):
        monkeypatch.setenv("RGAS_ZEROS", "25")
        code, out, _ = run_cli(capsys, "breakdown", "--lam", "1", "--beta", "2")
        assert code == 0
        assert json.loads(out)["zeros_used"] == 25

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("RGAS_ZEROS", "25")
        code, out, _ = run_cli(
            capsys, "breakdown", "--lam", "1", "--beta", "2", "--zeros-count", "40"
        )
        assert code == 0
        assert json.loads(out)["zeros_used"] == 40

    def test_bad_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("RGAS_TOL", "banana")
        code, _, err = run_cli(capsys, "validate")
        assert code == 2
        assert "RGAS_TOL" in err


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
