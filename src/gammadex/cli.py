"""Command-line interface.

Subcommands:

* ``compute``     indices of a data file (one value per line, or CSV)
* ``population``  closed-form population values for gamma parameters
* ``expect``      exact finite-sample expectation, population value, bias
* ``simulate``    one seeded Monte Carlo check of a chosen estimator
* ``verify``      the full verification grid; exit 0 only if it passes

JSON (the default format) is canonical and byte-stable for a fixed
command line; ``table`` and ``csv`` carry the same numbers rounded to
7 significant digits.  Exit codes: 0 success/pass, 1 verification
failure, 2 usage error, 3 data error, 4 numeric error.

``main`` picks the error exit code from the exception type alone:
``DomainError`` and ``SizeError`` are usage errors (exit 2), ``DataError``
is a data error (exit 3) and ``NumericError`` exit 4.  Only ``compute``
reads a data file, so it is the one command that turns the domain and
size errors raised after reading its sample into ``DataError``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import stat
import sys
import warnings
from functools import cache
from pathlib import Path

import numpy as np

from .errors import DataError, DomainError, NumericError, SizeError
from .gamma_forms import GammaParams, alpha_plug_in, debias, expectation, population_value
from .indices import IndexKind, Sample, compute_indices
from .rng import RngStream
from .verify import (
    DEFAULT_SEED, MAX_REPS, MAX_WORKERS, MIN_REPS, VerifyConfig, mc_expectation, run_verification,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_ALL_KINDS = tuple(IndexKind)

# From the first non-whitespace character to the next line end that
# str.splitlines knows: the first non-blank line, less its leading space.
_FIRST_LINE = re.compile(r"\S[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        print(f"USAGE_ERROR: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_kinds(label: str) -> tuple[IndexKind, ...]:
    if label.strip().lower() == "all":
        return _ALL_KINDS
    return (IndexKind.parse(label),)


def read_sample(path: str, column: str | None = None) -> Sample:
    """Load a sample from a plain column of numbers or a headered CSV.

    The file is read once as UTF-8, and a leading byte-order mark (Excel's
    "CSV UTF-8") is dropped.  CSV mode is selected by the ``--column`` flag,
    or when the first non-blank line holds a comma or is not a number (a
    lone header); that line is the header, and the default column name is
    ``y``.  A value is read as ``float(text.strip())``.  A valid regular
    file is parsed by ``np.loadtxt`` from its path, which numpy's C reader
    reads in chunks, past the lines up to the header.  Every other file is
    read once more from the text already read, one float() per value: one
    the C reader rejects, one whose name ends in a compression suffix that
    numpy would decompress (``.gz``, ``.bz2``, ``.xz``, ``.lzma``), one that
    is not a regular file, and one whose ``os.stat`` changed between the two
    reads, so the values always come from the text the format was found in.
    Bytes that are not UTF-8, or a missing, non-numeric, non-finite or
    non-positive value, abort the run with a ``DataError`` that names the
    first bad line, counted as the file's reader counts lines.
    """
    text, stamp = _read_text(path, column)
    is_csv = _is_csv(text, column)
    if is_csv is None:
        raise DataError(f"input file {path!r} is empty")
    col, skip = None, 0
    if is_csv:
        column = column or "y"
        reader, header = _csv_reader(_lines(text))
        if column not in header:
            raise DataError(f"CSV file {path!r} has no column named {column!r}")
        col = header.index(column)
        skip = reader.line_num  # physical lines through the header

    def cells():
        """``(line number, text)`` of each value, from a fresh reader of ``text``."""
        if is_csv:
            reader, _ = _csv_reader(io.StringIO(text, newline=None))
            return ((reader.line_num, row[col] if col < len(row) else "")
                    for row in reader if row)
        return ((lineno, raw) for lineno, raw in enumerate(text.splitlines(), start=1)
                if raw.strip())

    # numpy's C reader strips each value as str.strip() does and parses it
    # as float() does, and Sample checks that the values are finite and
    # positive (its DomainError is a ValueError).  A file that either
    # rejects is read once more, one float() per stripped value: float()
    # also takes underscores, non-ASCII digits and whitespace-only plain
    # lines, and a bad value names its line.
    if stamp is not None and not path.lower().endswith(_COMPRESSED):
        quoting = {} if col is None else {"quotechar": '"', "usecols": col}
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                # without usecols a plain line holding a comma is an error, not a first field;
                # an absolute path is never taken for a URL
                values = np.loadtxt(os.path.abspath(path), dtype=float, delimiter=",",
                                    comments=None, ndmin=1, encoding="utf-8-sig",
                                    skiprows=skip, **quoting)
            if len(values) and _stamp(os.stat(path)) == stamp:
                return Sample(values)
        except (ValueError, OSError):
            pass
    values = _checked_values(cells(), path)
    if values:
        return Sample(np.asarray(values))
    raise DataError(f"input file {path!r} contains no values")


# Suffixes for which numpy's reader opens a path through a decompressor.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")

# The line ends that csv counts in ``reader.line_num``, and those of
# str.splitlines, by which a plain column numbers its lines.
_CSV_LINE_END = re.compile(r"\r\n|\r|\n")
_LINE_END = re.compile(r"\r\n|[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")


def _is_csv(text: str, column: str | None) -> bool | None:
    """Whether ``text`` is read as CSV; None when it has no non-blank line."""
    match = _FIRST_LINE.search(text)
    if match is None:
        return None
    first = match.group().rstrip()
    if column is not None or "," in first:
        return True
    try:
        float(first)
    except ValueError:
        return True  # a lone header
    return False


def _stamp(status: os.stat_result) -> tuple | None:
    """What changes when a regular file is replaced or written; None for any other file."""
    if not stat.S_ISREG(status.st_mode):
        return None
    return status.st_dev, status.st_ino, status.st_size, status.st_mtime_ns


def _read_text(path: str, column: str | None) -> tuple[str, tuple | None]:
    """The file decoded as UTF-8, without a leading byte-order mark, and its ``_stamp``.

    A byte that is not UTF-8 is a ``DataError`` naming its line, counted
    as the reader of the file, plain or CSV, would count it.
    """
    try:
        with Path(path).open("rb") as f:
            data = f.read()
            stamp = _stamp(os.fstat(f.fileno()))
    except OSError as exc:
        raise DataError(f"cannot read input file {path!r}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        is_csv = _is_csv(data.decode("utf-8", "replace").removeprefix("\ufeff"), column)
        ends = _CSV_LINE_END if is_csv else _LINE_END
        lineno = len(ends.findall(data[: exc.start].decode("utf-8"))) + 1
        raise DataError(
            f"{path}:{lineno}: not UTF-8 text: byte 0x{data[exc.start]:02x} ({exc.reason})"
        ) from None
    return text.removeprefix("\ufeff"), stamp


def _lines(text: str):
    """The lines of ``text`` one at a time, as ``io.StringIO(text, newline=None)`` gives them.

    Each ``\\r\\n``, ``\\r`` or ``\\n`` ends a line and is read as ``\\n``.
    Unlike the stream, this builds no copy of the whole text, so the lines
    through a CSV header cost only their own length.
    """
    start = 0
    for end in _CSV_LINE_END.finditer(text):
        yield text[start : end.start()] + "\n"
        start = end.end()
    if start < len(text):
        yield text[start:]


def _csv_reader(lines):
    """A CSV reader of ``lines`` and its header, the first non-blank row.

    With the lines' ends read as ``\\n``, ``reader.line_num`` counts physical
    lines whatever their ends, as numpy's reader does when it opens the file.
    """
    reader = csv.reader(lines)
    return reader, next((row for row in reader if "".join(row).strip()), [])


def _checked_values(cells, path: str) -> list[float]:
    """The values of ``(line, text)`` cells, or the ``DataError`` of the first bad one."""
    values = []
    for lineno, raw in cells:
        raw = raw.strip()
        try:
            value = float(raw)
        except ValueError:
            raise DataError(f"{path}:{lineno}: not a number: {raw!r}") from None
        if not math.isfinite(value):
            raise DataError(f"{path}:{lineno}: non-finite value {raw!r}") from None
        if value <= 0.0:
            raise DataError(
                f"{path}:{lineno}: values must be strictly positive, got {raw}"
            ) from None
        values.append(value)
    return values


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "pass" if v else "FAIL"
    if isinstance(v, float):
        return f"{v:.7g}"
    return "" if v is None else str(v)


def _print_rows(rows: list[dict], fmt: str) -> None:
    headers = list(rows[0].keys())
    cells = [[_fmt_cell(r.get(h)) for h in headers] for r in rows]
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(cells)
        return
    widths = [max(len(h), *(len(c[i]) for c in cells)) for i, h in enumerate(headers)]
    print("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    print("  ".join("-" * w for w in widths))
    for c in cells:
        print("  ".join(c[i].ljust(widths[i]) for i in range(len(headers))))


def _emit(obj, rows: list[dict], fmt: str) -> None:
    """Print ``obj`` as canonical JSON, or ``rows`` as a table or CSV.

    ``rows`` carry the numbers of ``obj``; in every format a NaN or an
    infinity among them is a ``NumericError`` and nothing is printed.
    """
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError:
        raise NumericError("a result is not a finite number") from None
    if fmt == "json":
        print(text)
    else:
        _print_rows(rows, fmt)


def cmd_compute(args) -> int:
    if args.alpha is not None and not args.debias:
        raise DomainError("--alpha is the shape for --debias; give both or neither")
    kinds = _parse_kinds(args.index)
    given = None if args.alpha is None else GammaParams(args.alpha)
    sample = read_sample(args.input, args.column)
    try:
        # an overflow or an undefined value in a kernel is the error, not a
        # warning, and the plug-in's VMR is one more index of the sample
        with np.errstate(all="raise", under="ignore"):
            values = compute_indices(kinds, sample)
            plug_in = alpha_plug_in(sample) if args.debias and given is None else None
        indices = {k.value: v for k, v in values.items()}
        result = {"command": "compute", "input": args.input, "n": sample.n, "indices": indices}
        if args.debias:
            params = given or GammaParams(plug_in)
            result["alpha"] = params.alpha
            result["alpha_source"] = "plug_in" if given is None else "given"
            result["debiased"] = {
                k.value: debias(k, params, sample.n, indices[k.value]) for k in kinds
            }
    except (DomainError, SizeError) as exc:
        # every flag is checked above, so the sample is at fault
        raise DataError(str(exc)) from exc
    except FloatingPointError as exc:
        raise NumericError(f"{exc} while computing the indices") from None

    rows = [
        {
            "index": name,
            "value": value,
            **({"debiased": result["debiased"][name]} if args.debias else {}),
        }
        for name, value in indices.items()
    ]
    _emit(result, rows, args.format)
    return EXIT_OK


def _gamma_params(args, kinds: tuple[IndexKind, ...]) -> GammaParams:
    """``--alpha`` and ``--lambda``; the rate defaults to 1, except for VMR, which scales with it."""
    if IndexKind.VMR in kinds and args.lam is None:
        raise DomainError(f"{args.command} --index vmr needs --lambda")
    return GammaParams(args.alpha, 1.0 if args.lam is None else args.lam)


def cmd_population(args) -> int:
    kinds = _parse_kinds(args.index)
    params = _gamma_params(args, kinds)
    values = {k.value: population_value(k, params) for k in kinds}
    obj = {
        "command": "population",
        "alpha": params.alpha,
        "lambda": params.rate,
        "values": values,
    }
    _emit(obj, [{"index": k, "population": v} for k, v in values.items()], args.format)
    return EXIT_OK


def cmd_expect(args) -> int:
    kinds = _parse_kinds(args.index)
    params = _gamma_params(args, kinds)
    results = []
    for kind in kinds:
        r = expectation(kind, params, args.n)
        results.append(
            {
                "kind": kind.value,
                "expectation": r.expectation,
                "population": r.population,
                "bias": r.bias,
            }
        )
    obj = {
        "command": "expect",
        "alpha": params.alpha,
        "lambda": params.rate,
        "n": args.n,
        "results": results,
    }
    _emit(obj, results, args.format)
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.index is None:
        raise DomainError("--index is required for this command")
    kind = IndexKind.parse(args.index)
    report = mc_expectation(kind, _gamma_params(args, (kind,)), args.n, args.reps,
                            RngStream(args.seed), debias_values=args.debias, workers=args.workers)
    row = report.to_dict()
    _emit(row, [row], args.format)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def _parse_grid(tokens: list[str]) -> dict:
    """Parse --grid tokens like ``alpha=0.5,1`` ``n=2,5`` into value tuples."""
    subsets: dict = {}
    for token in tokens:
        if "=" not in token:
            raise DomainError(f"--grid expects key=v1,v2 tokens, got {token!r}")
        key, _, raw = token.partition("=")
        key = key.strip().lower()
        if key not in ("alpha", "lambda", "n"):
            raise DomainError(f"--grid key must be alpha, lambda, or n, got {key!r}")
        if key in subsets:
            raise DomainError(f"--grid key {key} is given twice")
        try:
            values = [float(v) for v in raw.split(",") if v]
        except ValueError:
            raise DomainError(f"--grid values for {key} must be numbers, got {raw!r}") from None
        if not values:
            raise DomainError(f"--grid {key} needs at least one value")
        subsets[key] = tuple(values)
    return subsets


def cmd_verify(args) -> int:
    grid = _parse_grid(args.grid or [])
    cfg = VerifyConfig(
        alphas=grid.get("alpha"),
        lambdas=grid.get("lambda"),
        ns=grid.get("n"),
        reps=args.reps,
        seed=args.seed,
        workers=args.workers,
    )
    outcome = run_verification(cfg)
    rows = [r.to_dict() for r in outcome.reports]
    _emit(rows, rows, args.format)
    summary = (
        f"verify: {len(outcome.reports)} checks, {outcome.n_failed} beyond z_max; "
        + ("PASS" if outcome.passed else f"FAIL (families: {', '.join(outcome.failed_families)})")
    )
    print(summary, file=sys.stderr)
    return EXIT_OK if outcome.passed else EXIT_VERIFY_FAIL


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``gammadex`` argument parser, built once per process."""
    parser = _Parser(prog="gammadex", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "table", "csv"), default="json")

    def add_common(p, *, index_default="all"):
        p.add_argument("--index", default=index_default,
                       help="gini, theil, atkinson, vmr, or all")
        add_format(p)

    def add_law(p, *, n=False):
        p.add_argument("--alpha", type=float, required=True, help="gamma shape")
        p.add_argument("--lambda", dest="lam", type=float, default=None, help="gamma rate")
        if n:
            p.add_argument("--n", type=int, required=True, help="sample size")

    def add_run(p, *, debias=False):
        p.add_argument("--reps", type=int, default=200_000,
                       help=f"Monte Carlo replicates, {MIN_REPS} to {MAX_REPS}")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if debias:
            p.add_argument("--debias", action="store_true", help="check the debiased estimator")
        p.add_argument("--workers", type=int, default=1, help=f"worker threads, 1 to {MAX_WORKERS}")

    p = sub.add_parser("compute", help="compute indices from a data file")
    add_common(p)
    p.add_argument("--input", required=True, help="data file (plain column or CSV)")
    p.add_argument("--column", default=None, help="CSV column name (default y)")
    p.add_argument("--debias", action="store_true",
                   help="also report debiased values (--alpha or plug-in estimate)")
    p.add_argument("--alpha", type=float, default=None,
                   help="gamma shape for --debias, which it needs")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("population", help="closed-form population index values")
    add_common(p)
    add_law(p)
    p.set_defaults(func=cmd_population)

    p = sub.add_parser("expect", help="exact finite-sample expectation and bias")
    add_common(p)
    add_law(p, n=True)
    p.set_defaults(func=cmd_expect)

    p = sub.add_parser("simulate", help="seeded Monte Carlo check of one estimator")
    add_common(p, index_default=None)
    add_law(p, n=True)
    add_run(p, debias=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the full verification grid")
    add_format(p)
    add_run(p)
    p.add_argument("--grid", nargs="*", default=None,
                   help="subset the grid, e.g. --grid alpha=0.5,1 n=2")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"DATA_ERROR: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DomainError, SizeError) as exc:
        print(f"USAGE_ERROR: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"NUMERIC_ERROR: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
