"""Command-line interface: formats, exit codes, determinism."""

import csv
import io
import json

import pytest

from gammadex.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAIL,
    main,
    read_sample,
)
from gammadex.errors import DataError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def plain_file(tmp_path):
    p = tmp_path / "data.txt"
    p.write_text("1\n3\n")
    return str(p)


@pytest.fixture()
def csv_file(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("id,y\n1,1\n2,2\n3,3\n4,4\n")
    return str(p)


class TestReadSample:
    def test_plain_column(self, plain_file):
        assert read_sample(plain_file).values.tolist() == [1.0, 3.0]

    def test_csv_default_column(self, csv_file):
        assert read_sample(csv_file).values.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_csv_custom_column(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("w,y\n5,1\n6,2\n")
        assert read_sample(str(p), column="w").values.tolist() == [5.0, 6.0]

    def test_single_column_csv_with_header(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("y\n1.5\n2.5\n")
        assert read_sample(str(p)).values.tolist() == [1.5, 2.5]

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1\n\n2\n\n")
        assert read_sample(str(p)).values.tolist() == [1.0, 2.0]

    def test_plain_column_after_blank_line(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("\n1\n2\n3\n")
        assert read_sample(str(p)).values.tolist() == [1.0, 2.0, 3.0]

    def test_only_blank_lines(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("\n  \n\n")
        with pytest.raises(DataError):
            read_sample(str(p))

    def test_missing_file(self):
        with pytest.raises(DataError):
            read_sample("/nonexistent/file.txt")

    def test_line_number_in_error(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1\nbogus\n3\n")
        with pytest.raises(DataError, match=r":2:"):
            read_sample(str(p))

    def test_nonpositive_line_number(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1\n2\n-3\n")
        with pytest.raises(DataError, match=r":3:"):
            read_sample(str(p))

    def test_csv_line_number_counts_blank_lines(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("id,y\n1,1\n\n2,2\n3,0\n")
        with pytest.raises(DataError, match=r":5:"):
            read_sample(str(p))

    def test_csv_line_number_after_multiline_field(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text('id,y\n"a\nb",1\n2,-1\n')
        with pytest.raises(DataError, match=r":4:"):
            read_sample(str(p))

    def test_csv_header_after_blank_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("\nid,y\n1,1\n2,3\n")
        assert read_sample(str(p)).values.tolist() == [1.0, 3.0]

    def test_missing_csv_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="no column named"):
            read_sample(str(p))


class TestCompute:
    def test_gini_json(self, capsys, plain_file):
        code, out, _ = run_cli(capsys, "compute", "--input", plain_file, "--index", "gini")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["indices"]["gini"] == 0.5
        assert doc["n"] == 2

    def test_all_indices_on_constant_sample(self, capsys, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("4\n4\n4\n")
        code, out, _ = run_cli(capsys, "compute", "--input", str(p), "--index", "all")
        assert code == EXIT_OK
        values = json.loads(out)["indices"]
        assert set(values) == {"gini", "theil", "atkinson", "vmr"}
        assert all(abs(v) <= 1e-14 for v in values.values())

    def test_vmr_from_csv(self, capsys, csv_file):
        code, out, _ = run_cli(capsys, "compute", "--input", csv_file, "--index", "vmr")
        assert code == EXIT_OK
        assert json.loads(out)["indices"]["vmr"] == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_debias_with_given_alpha(self, capsys, plain_file):
        code, out, _ = run_cli(
            capsys, "compute", "--input", plain_file, "--index", "vmr",
            "--debias", "--alpha", "1",
        )
        doc = json.loads(out)
        assert code == EXIT_OK
        assert doc["alpha_source"] == "given"
        # raw VMR 1.0, correction factor (na+1)/na = 3/2
        assert doc["debiased"]["vmr"] == pytest.approx(1.5, rel=1e-14)

    def test_debias_with_bad_alpha_is_usage_error(self, capsys, plain_file):
        code, _, err = run_cli(
            capsys, "compute", "--input", plain_file, "--index", "vmr",
            "--debias", "--alpha", "-1",
        )
        assert code == EXIT_USAGE
        assert err.startswith("USAGE_ERROR:")

    def test_debias_plug_in_flagged(self, capsys, csv_file):
        code, out, _ = run_cli(
            capsys, "compute", "--input", csv_file, "--index", "theil", "--debias"
        )
        doc = json.loads(out)
        assert code == EXIT_OK
        assert doc["alpha_source"] == "plug_in"
        assert doc["alpha"] == pytest.approx(2.5 / (2.0 / 3.0), rel=1e-12)

    def test_missing_file_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--input", "/no/such/file")
        assert code == EXIT_DATA
        assert err.startswith("DATA_ERROR:")

    def test_bad_value_reports_line(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1\n0\n")
        code, _, err = run_cli(capsys, "compute", "--input", str(p))
        assert code == EXIT_DATA
        assert ":2:" in err

    def test_debias_on_constant_sample_is_data_error(self, capsys, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("4\n4\n4\n")
        code, out, err = run_cli(capsys, "compute", "--input", str(p), "--debias")
        assert code == EXIT_DATA
        assert err.startswith("DATA_ERROR:")
        assert "constant sample" in err
        assert out == ""

    def test_singleton_too_small_for_gini(self, capsys, tmp_path):
        p = tmp_path / "one.txt"
        p.write_text("5\n")
        code, _, err = run_cli(capsys, "compute", "--input", str(p), "--index", "gini")
        assert code == EXIT_DATA
        assert "at least 2" in err

    def test_table_format(self, capsys, csv_file):
        code, out, _ = run_cli(
            capsys, "compute", "--input", csv_file, "--index", "all", "--format", "table"
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].split() == ["index", "value"]
        assert len(lines) == 6

    def test_csv_format(self, capsys, csv_file):
        code, out, _ = run_cli(
            capsys, "compute", "--input", csv_file, "--index", "gini", "--format", "csv"
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["index", "value"]
        assert rows[1][0] == "gini"


class TestPopulation:
    def test_gini_value(self, capsys):
        code, out, _ = run_cli(capsys, "population", "--alpha", "2", "--index", "gini")
        assert code == EXIT_OK
        assert json.loads(out)["values"]["gini"] == pytest.approx(0.375, rel=1e-12)

    def test_vmr_needs_lambda(self, capsys):
        code, _, err = run_cli(capsys, "population", "--alpha", "2", "--index", "vmr")
        assert code == EXIT_USAGE
        assert err.startswith("USAGE_ERROR:")

    def test_negative_alpha_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "population", "--alpha", "-2", "--index", "gini")
        assert code == EXIT_USAGE
        assert err.startswith("USAGE_ERROR:")

    def test_all_with_lambda(self, capsys):
        code, out, _ = run_cli(
            capsys, "population", "--alpha", "1", "--lambda", "4", "--index", "all"
        )
        doc = json.loads(out)
        assert doc["values"]["vmr"] == 0.25
        assert doc["values"]["gini"] == pytest.approx(0.5, rel=1e-12)


class TestExpect:
    def test_theil_spot(self, capsys):
        code, out, _ = run_cli(
            capsys, "expect", "--index", "theil", "--alpha", "1", "--n", "2"
        )
        doc = json.loads(out)
        assert code == EXIT_OK
        (res,) = doc["results"]
        assert res["expectation"] == pytest.approx(0.1931472, abs=5e-8)
        assert res["population"] == pytest.approx(0.4227843, abs=5e-8)

    def test_gini_bias_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "expect", "--index", "gini", "--alpha", "2", "--n", "5"
        )
        (res,) = json.loads(out)["results"]
        assert res["bias"] == 0.0

    def test_vmr_spot(self, capsys):
        code, out, _ = run_cli(
            capsys, "expect", "--index", "vmr", "--alpha", "1", "--lambda", "1", "--n", "2"
        )
        (res,) = json.loads(out)["results"]
        assert res["expectation"] == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert res["bias"] == pytest.approx(-1.0 / 3.0, rel=1e-12)

    def test_missing_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "expect", "--index", "gini", "--alpha", "2")
        assert exc.value.code == EXIT_USAGE


class TestSimulate:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--index", "vmr", "--alpha", "1", "--lambda", "1",
            "--n", "2", "--reps", "20000", "--seed", "7",
        )
        doc = json.loads(out)
        assert code == EXIT_OK
        assert doc["pass"] is True
        assert doc["mc_mean"] == pytest.approx(2.0 / 3.0, abs=0.03)

    def test_low_reps_refused(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--index", "gini", "--alpha", "1", "--n", "5",
            "--reps", "100",
        )
        assert code == EXIT_USAGE
        assert err.startswith("USAGE_ERROR:")

    def test_index_required(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--alpha", "1", "--n", "2", "--reps", "20000"
        )
        assert code == EXIT_USAGE


SIMULATE_ARGS = ["simulate", "--alpha", "1", "--n", "2", "--reps", "10000"]
NARROW_VERIFY_ARGS = ["verify", "--reps", "10000", "--grid", "alpha=1", "n=2", "lambda=1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["population", "--alpha", "1", "--index", "foo"],
        ["compute", "--index", "foo", "--input", "/no/such/file"],
        ["compute", "--alpha", "-1", "--input", "/no/such/file"],
        [*SIMULATE_ARGS, "--index", "all"],
        [*NARROW_VERIFY_ARGS, "--seed", "-1"],
        [*SIMULATE_ARGS, "--index", "gini", "--seed", "-1"],
        ["population", "--index", "vmr", "--alpha", "1", "--lambda", "0"],
        [*NARROW_VERIFY_ARGS, "--workers", "0"],
        [*NARROW_VERIFY_ARGS, "--workers", "-3"],
        [*SIMULATE_ARGS, "--index", "gini", "--z-max", "-1"],
        [*SIMULATE_ARGS, "--index", "gini", "--z-max", "inf"],
        [*NARROW_VERIFY_ARGS, "--z-max", "inf"],
        ["verify", "--z-max", "0", "--grid", "alpha=3.7", "n=3", "--reps", "10000"],
        ["verify", "--z-max", "nan", "--grid", "alpha=3.7", "n=3", "--reps", "10000"],
        ["verify", "--grid", "alpha=3.7", "n=3", "--reps", "10000", "--workers", "0"],
        ["verify", "--grid", "alpha=3.7", "n=3", "--reps", "10000", "--seed", "-1"],
    ],
    ids=" ".join,
)
def test_bad_flag_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert err.startswith("USAGE_ERROR:")
    assert out == ""


VERIFY_ARGS = [
    "verify", "--reps", "10000", "--seed", "99", "--grid", "alpha=1", "n=2,5",
]


class TestVerify:
    def test_reduced_grid_passes_and_is_deterministic(self, capsys):
        code1, out1, err1 = run_cli(capsys, *VERIFY_ARGS)
        code2, out2, _ = run_cli(capsys, *VERIFY_ARGS)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        assert "PASS" in err1
        reports = json.loads(out1)
        keys = {"kind", "n", "reps", "mc_mean", "mc_stderr", "target", "z_score", "pass"}
        assert all(set(r) == keys for r in reports)

    def test_worker_count_does_not_change_output(self, capsys):
        _, out1, _ = run_cli(capsys, *VERIFY_ARGS)
        _, out3, _ = run_cli(capsys, *VERIFY_ARGS, "--workers", "3")
        assert out1 == out3

    def test_tight_z_max_fails(self, capsys):
        code, out, err = run_cli(capsys, *VERIFY_ARGS, "--z-max", "0.5")
        assert code == EXIT_VERIFY_FAIL
        assert "FAIL" in err

    def test_table_format(self, capsys):
        code, out, _ = run_cli(capsys, *VERIFY_ARGS, "--format", "table")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("kind")
        assert len(lines) == 2 + 60  # header, rule, one line per report
        assert len({len(line) for line in lines[2:]}) == 1  # rows equally padded

    @pytest.mark.parametrize("token", ["alpha=7", "lambda=2", "n=2.5"])
    def test_value_outside_the_grid_is_usage_error(self, capsys, token):
        code, out, err = run_cli(capsys, "verify", "--reps", "10000", "--grid", token)
        assert code == EXIT_USAGE
        assert err.startswith("USAGE_ERROR:")
        assert out == ""

    def test_bad_grid_token(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--grid", "gamma=1")
        assert code == EXIT_USAGE

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "verify", "--bogus")
        assert exc.value.code == EXIT_USAGE
