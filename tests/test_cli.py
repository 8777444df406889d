"""Command-line interface: formats, exit codes, determinism."""

import csv
import gzip
import io
import json
import os
import threading
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gammadex import cli, verify
from gammadex.cli import (
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAIL,
    main,
    read_sample,
)
from gammadex.errors import DataError
from gammadex.gamma_forms import GammaParams, population_value
from gammadex.indices import IndexKind, Sample


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

    @pytest.mark.parametrize(
        "end", ["\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_first_line_ends_where_splitlines_ends_it(self, tmp_path, end):
        """Past blank lines, the first value line stops at any str.splitlines line end."""
        p = tmp_path / "d.txt"
        p.write_bytes(end.join(["", " ", "1.5", "2.5"]).encode())
        assert read_sample(str(p)).values.tolist() == [1.5, 2.5]

    def test_only_blank_lines(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("\n  \n\n")
        with pytest.raises(DataError):
            read_sample(str(p))

    def test_missing_file(self):
        with pytest.raises(DataError):
            read_sample("/nonexistent/file.txt")

    def test_comma_in_a_plain_column_is_not_a_number(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1\n2,3\n4\n")
        with pytest.raises(DataError, match=r":2: not a number: '2,3'"):
            read_sample(str(p))

    def test_header_only_csv_has_no_values_and_warns_nothing(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("id,y\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's reader warns on empty input
            with pytest.raises(DataError, match="contains no values"):
                read_sample(str(p))

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

    def test_bytes_that_are_not_utf8(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"id,y\n1,2\n2,\xe93\n")
        with pytest.raises(DataError, match=r"latin1\.csv:3: not UTF-8 text: byte 0xe9"):
            read_sample(str(p))

    def test_plain_column_with_byte_order_mark(self, tmp_path):
        p = tmp_path / "bom.txt"
        p.write_bytes("\ufeff1.5\n2.5\n".encode("utf-8"))
        assert read_sample(str(p)).values.tolist() == [1.5, 2.5]

    def test_csv_first_header_with_byte_order_mark(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes("\ufeffid,y\n3,1\n4,2\n".encode("utf-8"))
        assert read_sample(str(p), column="id").values.tolist() == [3.0, 4.0]


    def test_plain_bad_byte_line_counts_splitlines_ends(self, tmp_path):
        """A plain column numbers a bad byte's line as it numbers a bad value's."""
        p = tmp_path / "d.txt"
        p.write_bytes(b"1.5\f2.5\n-3\n")
        with pytest.raises(DataError, match=r"d\.txt:3: values must be strictly positive"):
            read_sample(str(p))
        p.write_bytes(b"1.5\f2.5\n\xff\n")
        with pytest.raises(DataError, match=r"d\.txt:3: not UTF-8 text: byte 0xff"):
            read_sample(str(p))

    def test_csv_bad_byte_line_counts_csv_line_ends(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b'id,y\n1,"2\v"\n\v2,-3\n')
        with pytest.raises(DataError, match=r"d\.csv:3: values must be strictly positive"):
            read_sample(str(p))
        p.write_bytes(b'id,y\n1,"2\v"\n\v2,\xe93\n')
        with pytest.raises(DataError, match=r"d\.csv:3: not UTF-8 text: byte 0xe9"):
            read_sample(str(p))


@pytest.fixture()
def no_fallback(monkeypatch):
    """Fail any read that leaves the path read for the per-value fallback."""
    def fail(cells, path):
        raise AssertionError(f"{path} went to the per-value fallback")

    monkeypatch.setattr(cli, "_checked_values", fail)


class TestPathRead:
    """numpy reads a valid regular file from its path; the fallback takes the rest."""

    @pytest.mark.parametrize("suffix", ["txt", "csv"])
    def test_large_file_is_read_from_its_path(self, tmp_path, no_fallback, suffix):
        y = np.random.default_rng(31).gamma(0.5, 2.0, 200_000)
        text = [repr(v) for v in y.tolist()]
        p = tmp_path / f"data.{suffix}"
        if suffix == "txt":
            p.write_text("\n".join(text) + "\n")
        else:
            p.write_text("id,y,w\n" + "".join(f"{j},{v},1\n" for j, v in enumerate(text)))
        assert read_sample(str(p)).values.tobytes() == y.tobytes()

    @pytest.mark.parametrize("content, column, expected", [
        ("\ufeffy\n1.5\n2.5\n", None, [1.5, 2.5]),
        ("\n \r\n\t\nid,y\r\n1,2\r\n3,4\r\n", None, [2.0, 4.0]),
        ('id,"a\nb",y\n1,2,3\n4,5,6\n', None, [3.0, 6.0]),
        ('\n"x\r\ny",y\n1,2\n', None, [2.0]),
    ], ids=["bom-header", "blank-lines-before-header",
            "quoted-newline-in-header", "blank-line-and-quoted-newline"])
    def test_lines_through_the_header_are_skipped(self, tmp_path, no_fallback,
                                                  content, column, expected):
        p = tmp_path / "d.csv"
        p.write_bytes(content.encode("utf-8"))
        assert read_sample(str(p), column).values.tolist() == expected

    def test_relative_path(self, tmp_path, monkeypatch, no_fallback):
        monkeypatch.chdir(tmp_path)
        Path("d.txt").write_text("1.5\n2.5\n")
        assert read_sample("d.txt").values.tolist() == [1.5, 2.5]

    def test_path_that_parses_as_a_url_is_the_local_file(self, tmp_path, monkeypatch,
                                                          no_fallback):
        # numpy's reader fetches a str with a scheme and a host; the path it is
        # given is absolute, so it opens the local file
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:" / "localhost:1").mkdir(parents=True)
        Path("http://localhost:1/d.txt").write_text("1.5\n2.5\n")
        assert read_sample("http://localhost:1/d.txt").values.tolist() == [1.5, 2.5]

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma", ".GZ"])
    def test_plain_text_named_like_a_compressed_file(self, tmp_path, monkeypatch, suffix):
        """numpy would open the path through a decompressor, so the fallback reads it."""
        def no_path_read(*args, **kwargs):
            raise AssertionError("a compressed suffix reached numpy's reader")

        monkeypatch.setattr(cli.np, "loadtxt", no_path_read)
        p = tmp_path / f"d{suffix}"
        p.write_text("1.5\n2.5\n")
        assert read_sample(str(p)).values.tolist() == [1.5, 2.5]

    def test_compressed_file_is_refused(self, tmp_path):
        p = tmp_path / "d.gz"
        p.write_bytes(gzip.compress(b"1.5\n2.5\n"))
        with pytest.raises(DataError, match="not UTF-8 text"):
            read_sample(str(p))

    def test_named_pipe_is_read_once(self, tmp_path):
        """A second open of a pipe would wait for a writer that never comes."""
        fifo = tmp_path / "d.fifo"
        os.mkfifo(fifo)

        def write():
            with open(fifo, "w") as f:
                f.write("1.5\n2.5\n")

        read = []
        writer = threading.Thread(target=write, daemon=True)
        reader = threading.Thread(target=lambda: read.append(read_sample(str(fifo))), daemon=True)
        writer.start()
        reader.start()
        reader.join(timeout=30)
        assert not reader.is_alive(), "read_sample opened the pipe a second time"
        assert read[0].values.tolist() == [1.5, 2.5]

    @pytest.mark.parametrize("change", ["size", "mtime"])
    def test_file_changed_between_reads_gives_the_first_read(self, tmp_path, monkeypatch,
                                                             change):
        """Values and format come from one read: the text the format was found in."""
        p = tmp_path / "d.txt"
        p.write_text("1.5\n2.5\n")
        mtime = p.stat().st_mtime_ns
        loadtxt = np.loadtxt

        def rewritten_first(fname, *args, **kwargs):
            if change == "size":
                p.write_text("1.5\n2.5\n4.5\n")
            else:
                p.write_text("7.5\n9.5\n")
                os.utime(p, ns=(mtime + 10**9, mtime + 10**9))
            return loadtxt(fname, *args, **kwargs)

        monkeypatch.setattr(cli.np, "loadtxt", rewritten_first)
        assert read_sample(str(p)).values.tolist() == [1.5, 2.5]

    def test_stat_that_changes_between_reads_gives_the_fallback(self, tmp_path, monkeypatch):
        p = tmp_path / "d.txt"
        p.write_text("1.5\n2.5\n")
        read = []
        checked_values = cli._checked_values
        monkeypatch.setattr(cli, "_checked_values",
                            lambda cells, path: read.append(path) or checked_values(cells, path))
        real_stat = os.stat

        def later_stat(path, *args, **kwargs):
            status = real_stat(path, *args, **kwargs)
            if os.fspath(path) != str(p):
                return status
            return SimpleNamespace(st_mode=status.st_mode, st_dev=status.st_dev,
                                   st_ino=status.st_ino, st_size=status.st_size,
                                   st_mtime_ns=status.st_mtime_ns + 1)

        monkeypatch.setattr(cli.os, "stat", later_stat)
        assert read_sample(str(p)).values.tolist() == [1.5, 2.5]
        assert read == [str(p)]


def _line_by_line_read_sample(path: str, column: str | None = None) -> Sample:
    """The reader before its fast path: every value checked on its own line.

    Kept as the oracle for ``read_sample``, with its decoding (UTF-8 without
    a byte-order mark) brought in line.
    """
    text = Path(path).read_text(encoding="utf-8-sig")
    lines = text.splitlines()
    first = next((line.strip() for line in lines if line.strip()), None)
    if first is None:
        raise DataError(f"input file {path!r} is empty")

    def _is_number(token: str) -> bool:
        try:
            float(token)
            return True
        except ValueError:
            return False

    def _parse_value(raw: str, lineno: int) -> float:
        try:
            value = float(raw)
        except ValueError:
            raise DataError(f"{path}:{lineno}: not a number: {raw!r}") from None
        if not np.isfinite(value):
            raise DataError(f"{path}:{lineno}: non-finite value {raw!r}")
        if value <= 0.0:
            raise DataError(f"{path}:{lineno}: values must be strictly positive, got {raw}")
        return value

    values: list[float] = []
    if column is not None or "," in first or not _is_number(first):
        column = column or "y"
        reader = csv.reader(io.StringIO(text))
        header = next((row for row in reader if "".join(row).strip()), [])
        if column not in header:
            raise DataError(f"CSV file {path!r} has no column named {column!r}")
        col = header.index(column)
        for row in reader:
            if row:
                raw = row[col].strip() if col < len(row) else ""
                values.append(_parse_value(raw, reader.line_num))
    else:
        for lineno, raw in enumerate(lines, start=1):
            raw = raw.strip()
            if raw:
                values.append(_parse_value(raw, lineno))
    if not values:
        raise DataError(f"input file {path!r} contains no values")
    return Sample(np.array(values))


_VALUES = st.floats(min_value=5e-324, allow_infinity=False).map(repr)
# valid for float(), though numpy's reader rejects them
_ODD_VALUES = st.sampled_from(["1_0", "\uff11\uff0e\uff15", "\u0663"])
_BAD_VALUES = st.sampled_from(
    ["nan", "inf", "-inf", "0", "-0.0", "-1", "abc", "1e999", "1,2", "3,", "\uff10"]
)
_PADS = st.sampled_from(["", " ", "\t", " \t ", "\x1c", "\x1f", "\x85", "\xa0", "\u2028"])
# Line ends of str.splitlines, of which csv knows only the first three.
_LINE_ENDS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x85", "\u2028"]


@st.composite
def _data_files(draw):
    """A plain column or a CSV file, and the ``column`` to read it with.

    Half the files hold only valid values, padded with whitespace and set
    among blank lines; the other half may also hold bad values and, in a
    CSV, short rows, whitespace-only rows and pads before an opening quote.
    Half the files may also hold what numpy's reader rejects but float()
    reads: underscores and non-ASCII digits and, in a plain column,
    whitespace-only lines and any line end of ``_LINE_ENDS``.  CSV rows may
    carry extra columns, a quoted field with newlines or doubled quotes in
    it, a quoted ``y`` value with pads inside and after the quotes, and a
    last quote left open; blank lines may come before the header.
    """
    bad, odd = draw(st.booleans()), draw(st.booleans())
    valid = st.one_of(_VALUES, _ODD_VALUES) if odd else _VALUES
    value = (st.one_of(valid, _BAD_VALUES) if bad else valid).flatmap(
        lambda v: st.tuples(_PADS, _PADS).map(lambda pads: pads[0] + v + pads[1])
    )
    values = draw(st.lists(value, max_size=25))
    newline = draw(st.sampled_from(_LINE_ENDS[:3]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    if draw(st.booleans()):
        blank_line = _PADS if odd else st.just("")
        lines = []
        for v in values:
            lines += draw(st.lists(blank_line, max_size=2)) + [v]
        ends = [draw(st.sampled_from(_LINE_ENDS)) if odd else newline for _ in lines]
        if ends and draw(st.booleans()):
            ends[-1] = ""
        return bom + "".join(line + end for line, end in zip(lines, ends)), None
    blank_line = _PADS if bad else st.just("")  # a whitespace-only CSV row is a bad value
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=newline)
    out.write(bom + "".join(pad + newline for pad in draw(st.lists(_PADS, max_size=3))))
    writer.writerow(["id", "y", "note"])
    shapes = ["full", "quoted", "long", "raw"] + (["short"] if bad else [])
    for i, v in enumerate(values, start=1):
        if draw(st.booleans()):
            out.write(draw(blank_line) + newline)
        shape = draw(st.sampled_from(shapes))
        if shape == "raw":  # y quoted by hand; a pad before the quote makes it literal
            lead, inside, after = (draw(_PADS) for _ in range(3))
            out.write(f'{i},{lead if bad else ""}"{inside}{v}{inside}"{after},"a""b"{newline}')
        else:
            note = {"quoted": "a\nb", "long": "c"}.get(shape, "")
            writer.writerow([i] if shape == "short" else
                            [i, v, note] + (["d", 7] if shape == "long" else []))
    if draw(st.booleans()):
        out.write(f'{len(values) + 1},"{draw(value)}{newline}')  # the quote is never closed
    return out.getvalue(), draw(st.sampled_from([None, "y", "id", "note"]))


@pytest.fixture(scope="module")
def oracle_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("oracle") / "data")


def _read_outcome(reader, path, column):
    """The values read, bit for bit, or the message of the DataError raised."""
    try:
        return [v.hex() for v in reader(path, column).values.tolist()]
    except DataError as exc:
        return f"DataError: {exc}"


@settings(max_examples=400, deadline=None)
@given(_data_files())
def test_read_sample_matches_line_by_line_oracle(oracle_path, case):
    text, column = case
    Path(oracle_path).write_bytes(text.encode("utf-8"))
    expected = _read_outcome(_line_by_line_read_sample, oracle_path, column)
    assert _read_outcome(read_sample, oracle_path, column) == expected


@pytest.mark.parametrize("suffix", ["txt", "csv"])
def test_read_sample_matches_oracle_on_a_large_file(tmp_path, suffix):
    # the benchmark's data format: repr of each value, as a column or as y
    text = [repr(v) for v in np.random.default_rng(19).gamma(0.5, 2.0, 5000).tolist()]
    p = tmp_path / f"data.{suffix}"
    if suffix == "txt":
        p.write_text("\n".join(text) + "\n")
    else:
        p.write_text("id,y,weight\n" + "".join(f"{j},{v},{1 + j % 7}\n" for j, v in enumerate(text)))
    got = _read_outcome(read_sample, str(p), None)
    assert got == _read_outcome(_line_by_line_read_sample, str(p), None)
    assert got == [float(v).hex() for v in text]


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

    def test_theil_of_a_value_tiny_against_the_mean(self, capsys, tmp_path):
        p = tmp_path / "tiny.txt"
        p.write_text("5e-324\n1e10\n3e10\n")
        code, out, err = run_cli(capsys, "compute", "--input", str(p), "--index", "theil")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["indices"]["theil"] == 0.5362771440493014

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

    def test_alpha_without_debias_is_usage_error(self, capsys, plain_file):
        code, out, err = run_cli(capsys, "compute", "--input", plain_file, "--alpha", "1")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("USAGE_ERROR:") and "--debias" in err

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

    def test_plain_and_csv_forms_print_the_same_json(self, capsys, tmp_path):
        y = np.random.default_rng(7).gamma(2.5, 1.0, 500)
        plain = tmp_path / "y.txt"
        plain.write_text("".join(f"{v!r}\n" for v in y.tolist()))
        table = tmp_path / "y.csv"
        table.write_text("id,y\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(y.tolist())))
        outs = []
        for p in (plain, table):
            code, out, _ = run_cli(capsys, "compute", "--input", str(p), "--index", "all", "--debias")
            assert code == EXIT_OK
            outs.append(out.replace(json.dumps(str(p)), '"<input>"'))
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["n"] == 500

    def test_undecodable_file_is_data_error(self, capsys, tmp_path):
        p = tmp_path / "latin1.txt"
        p.write_bytes(b"1.5\n\xe92\n")
        code, out, err = run_cli(capsys, "compute", "--input", str(p))
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith(f"DATA_ERROR: {p}:2: not UTF-8 text")

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

    @pytest.mark.parametrize("index", ["theil", "atkinson"])
    def test_least_subnormal_shape(self, capsys, index):
        code, out, _ = run_cli(capsys, "population", "--alpha", "5e-324", "--index", index)
        assert code == EXIT_OK
        expected = population_value(IndexKind.parse(index), GammaParams(5e-324))
        assert json.loads(out)["values"][index] == expected

    def test_all_with_lambda(self, capsys):
        code, out, _ = run_cli(
            capsys, "population", "--alpha", "1", "--lambda", "4", "--index", "all"
        )
        doc = json.loads(out)
        assert doc["values"]["vmr"] == 0.25
        assert doc["values"]["gini"] == pytest.approx(0.5, rel=1e-12)


class TestNonFiniteResult:
    """A NaN or an infinity is a numeric error (exit 4) and never reaches stdout."""

    @staticmethod
    def _numeric_error(code, out, err):
        assert code == EXIT_NUMERIC
        assert err.startswith("NUMERIC_ERROR:")
        assert out == ""

    @pytest.mark.parametrize("fmt", ["json", "table", "csv"])
    def test_population_at_a_subnormal_shape(self, capsys, fmt):
        # the population VMR is 1/lambda, which overflows at a subnormal rate
        self._numeric_error(*run_cli(
            capsys, "population", "--index", "vmr", "--alpha", "1", "--lambda", "1e-320",
            "--format", fmt,
        ))

    @pytest.mark.parametrize("debias", [[], ["--debias"]], ids=["raw", "debias"])
    def test_vmr_overflow(self, capsys, tmp_path, debias):
        p = tmp_path / "big.txt"
        p.write_text("1e200\n2e200\n")
        code, out, err = run_cli(capsys, "compute", "--index", "all", "--input", str(p), *debias)
        self._numeric_error(code, out, err)
        assert err.count("\n") == 1  # numpy's overflow warning does not reach stderr

    @pytest.mark.parametrize("index", ["gini", "theil", "atkinson", "vmr"])
    def test_plug_in_vmr_overflow(self, capsys, tmp_path, index):
        # the plug-in shape's VMR overflows as the vmr index does
        p = tmp_path / "big.txt"
        p.write_text("1e200\n2e200\n")
        code, out, err = run_cli(capsys, "compute", "--index", index, "--debias", "--input", str(p))
        self._numeric_error(code, out, err)
        assert err == "NUMERIC_ERROR: overflow encountered in square while computing the indices\n"

    def test_sum_overflow(self, capsys, tmp_path):
        p = tmp_path / "huge.txt"
        p.write_text("1e308\n1e308\n")
        self._numeric_error(*run_cli(capsys, "compute", "--index", "all", "--input", str(p)))


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

    @pytest.mark.parametrize("alpha", ["0.5", "1", "2", "5"])
    @pytest.mark.parametrize("index", ["theil", "atkinson"])
    def test_debiased_single_observation_passes(self, capsys, index, alpha):
        # T_1 = A_1 = 0: every debiased replicate is the population value, up to rounding
        code, out, _ = run_cli(
            capsys, "simulate", "--index", index, "--alpha", alpha, "--n", "1",
            "--reps", "10000", "--debias",
        )
        doc = json.loads(out)
        assert code == EXIT_OK
        assert doc["pass"] is True and doc["mc_stderr"] == 0.0

    def test_index_required(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--alpha", "1", "--n", "2", "--reps", "20000"
        )
        assert code == EXIT_USAGE

    def test_huge_n_is_refused_before_drawing(self, capsys, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(verify, "gamma_variates", no_draws)
        tracemalloc.start()
        try:
            code, out, err = run_cli(
                capsys, "simulate", "--index", "gini", "--alpha", "2",
                "--n", "1000000000", "--reps", "10000",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_USAGE and out == ""
        assert err.count("\n") == 1 and err.startswith("USAGE_ERROR:")
        assert "n = 1000000000" in err and "10000000000000 variates" in err
        assert peak < 1 << 20


SIMULATE_ARGS = ["simulate", "--alpha", "1", "--n", "2", "--reps", "10000"]
NARROW_VERIFY_ARGS = ["verify", "--reps", "10000", "--grid", "alpha=1", "n=2", "lambda=1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["population", "--alpha", "1", "--index", "foo"],
        ["compute", "--index", "foo", "--input", "/no/such/file"],
        ["compute", "--alpha", "-1", "--input", "/no/such/file"],
        # --alpha is the shape of --debias, checked before the file is read
        ["compute", "--alpha", "1", "--input", "/no/such/file"],
        [*SIMULATE_ARGS, "--index", "gini", "--reps", str(verify.MAX_REPS + 1)],
        [*NARROW_VERIFY_ARGS, "--reps", str(verify.MAX_REPS + 1)],
        [*SIMULATE_ARGS, "--index", "all"],
        [*NARROW_VERIFY_ARGS, "--seed", "-1"],
        [*SIMULATE_ARGS, "--index", "gini", "--seed", "-1"],
        ["population", "--index", "vmr", "--alpha", "1", "--lambda", "0"],
        [*NARROW_VERIFY_ARGS, "--workers", "0"],
        [*NARROW_VERIFY_ARGS, "--workers", "-3"],
        [*NARROW_VERIFY_ARGS, "--workers", str(verify.MAX_WORKERS + 1)],
        [*SIMULATE_ARGS, "--index", "gini", "--workers", str(verify.MAX_WORKERS + 1)],
        ["verify", "--grid", "alpha=3.7", "n=3", "--reps", "10000", "--workers", "0"],
        ["verify", "--grid", "alpha=3.7", "n=3", "--reps", "10000", "--seed", "-1"],
        # vmr scales with the rate, so no command runs it at an unstated one
        ["expect", "--index", "vmr", "--alpha", "1", "--n", "2"],
        [*SIMULATE_ARGS, "--index", "vmr"],
        ["verify", "--grid", "alpha"],
        ["verify", "--grid", "alpha=x"],
        ["verify", "--grid", "alpha="],
        ["verify", "--grid", "n=2", "n=5"],
    ],
    ids=" ".join,
)
def test_bad_flag_is_usage_error(capsys, monkeypatch, argv):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was constructed")

    monkeypatch.setattr(verify, "ThreadPoolExecutor", no_pool)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert err.startswith("USAGE_ERROR:") and err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize(
    "argv", [[*SIMULATE_ARGS, "--index", "gini"], NARROW_VERIFY_ARGS], ids=["simulate", "verify"]
)
def test_z_max_is_not_a_flag(capsys, argv):
    """The pass rule is the constant verify.Z_MAX; no flag loosens it."""
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, *argv, "--z-max", "100")
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --z-max 100" in capsys.readouterr().err


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

    def test_tight_z_max_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "Z_MAX", 0.5)
        code, out, err = run_cli(capsys, *VERIFY_ARGS)
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
