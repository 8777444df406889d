"""The three benchmark workloads: seeded inputs, one operation, output checks.

Inputs come from ``numpy.random.default_rng(seed)``, never from gammadex's
own sampler, so the program under test only receives generated inputs.  Each
workload runs in the benchmark's own process.  ``run(op)`` is the timed
operation; ``check(ops, outputs)`` runs after the timed loop and returns one
verdict per operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import gammadex
from gammadex import cli

ALPHAS = (0.5, 1.0, 2.0, 5.0)
KINDS = tuple(gammadex.IndexKind)


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``gammadex`` in process; (exit code, stdout).  stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue()


class VerifyGrid:
    """The default ``gammadex verify`` grid through ``cli.main``, two workers.

    reps=50000 keeps every Monte Carlo cell at two 25k-replicate blocks:
    the thread pool only splits blocks within one cell, so with one block per
    cell workers=2 would run no faster than workers=1 and hide the pool.
    """

    name = "verify_grid"
    workers = 2
    tail_pct = 100.0  # about seven operations a run: the tail is the maximum

    def __init__(self, reps: int = 50_000, grid: tuple[str, ...] = ()) -> None:
        self.reps = reps
        self.grid = list(grid)
        self._reference: tuple[int, str] | None = None

    def argv(self, workers: int, grid: list[str]) -> list[str]:
        argv = ["verify", "--reps", str(self.reps), "--workers", str(workers),
                "--seed", str(self.verify_seed)]
        return argv + (["--grid", *grid] if grid else [])

    def prepare(self, seed: int, workdir: Path) -> None:
        self.verify_seed = int(np.random.default_rng(seed).integers(1, 2**32))
        self._reference = None

    def warm_up(self) -> None:
        # One cell of the grid touches every check family and the pool.
        call_cli(self.argv(self.workers, self.grid or ["alpha=1", "lambda=1", "n=2"]))

    def ops(self) -> list:
        return [self.argv(self.workers, self.grid)]

    def run(self, op):
        return call_cli(op)

    def items(self, op, output) -> int:
        rc, text = output
        try:
            return len(json.loads(text))
        except ValueError:
            return 0

    def check(self, ops, outputs) -> list[bool]:
        """Exit 0 and stdout byte-identical to one workers=1 run."""
        if self._reference is None:
            self._reference = call_cli(self.argv(1, self.grid))
        ref_rc, ref_text = self._reference
        return [ref_rc == 0 and rc == 0 and text == ref_text for rc, text in outputs]


def _fsum_oracles(y: list[float]) -> tuple[float, float, float, float]:
    """Theil, Atkinson, VMR and the plug-in shape from plain fsum formulas."""
    n = len(y)
    total = math.fsum(y)
    mu = total / n
    theil = math.fsum(v * math.log(v / mu) for v in y) / total
    atkinson = -math.expm1(math.fsum(math.log(v) for v in y) / n - math.log(mu))
    vmr = math.fsum((v - mu) ** 2 for v in y) / (n - 1) / mu
    return theil, atkinson, vmr, mu / vmr


class PanelDebias:
    """Thousands of small samples through the library API, no RNG calls.

    Per sample: ``Sample``, the four ``compute_index``, ``debias`` of each
    with the known shape, and ``alpha_plug_in``.  This is per-call overhead
    in indices, gamma_forms and special.
    """

    name = "panel_debias"
    workers = 1
    tail_pct = 99.0
    rel_tol = 1e-12

    def __init__(self, samples: int = 2000) -> None:
        self.samples = samples

    def prepare(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.pool = []
        for _ in range(self.samples):
            alpha = float(rng.choice(ALPHAS))
            n = int(rng.integers(2, 201))
            self.pool.append((alpha, rng.gamma(alpha, 1.0, n)))

    def warm_up(self) -> None:
        self.run(0)

    def ops(self) -> list:
        return list(range(len(self.pool)))

    def run(self, op):
        alpha, y = self.pool[op]
        s = gammadex.Sample(y)
        params = gammadex.GammaParams(alpha)
        values = [gammadex.compute_index(k, s) for k in KINDS]
        debiased = [gammadex.debias(k, params, s.n, v) for k, v in zip(KINDS, values)]
        return values, debiased, gammadex.alpha_plug_in(s)

    def items(self, op, output) -> int:
        return 1

    def check(self, ops, outputs) -> list[bool]:
        """Each index and the plug-in shape against oracles to 1e-12 relative."""
        oracles: dict[int, tuple] = {}
        verdicts = []
        for op, out in zip(ops, outputs):
            if op not in oracles:
                alpha, y = self.pool[op]
                theil, atk, vmr, alpha_hat = _fsum_oracles(y.tolist())
                n = len(y)
                oracles[op] = ((gammadex.gini_pairwise(y), theil, atk, vmr), alpha_hat,
                               vmr * (n * alpha + 1.0) / (n * alpha))
            (want, want_alpha, want_vmr_debiased) = oracles[op]
            if out is None:
                verdicts.append(False)
                continue
            values, debiased, alpha_hat = out
            ok = all(math.isclose(v, w, rel_tol=self.rel_tol) for v, w in zip(values, want))
            ok &= math.isclose(alpha_hat, want_alpha, rel_tol=self.rel_tol)
            ok &= debiased[0] == values[0]  # Gini is unbiased: returned unchanged
            ok &= math.isclose(debiased[3], want_vmr_debiased, rel_tol=self.rel_tol)
            ok &= all(math.isfinite(d) for d in debiased)
            verdicts.append(ok)
        return verdicts


class ComputeFile:
    """``gammadex compute --index all --debias`` over files of mixed sizes.

    Sixteen datasets of 300 to 2e5 values, each written as a plain column
    and as a headered CSV.  This stresses ``cli.read_sample`` parsing and the
    per-value cost of the indices at large n (few large samples, where
    panel_debias has many tiny ones).

    Twelve sizes step evenly in log from 1000 to 10000, and a CSV file takes
    about 1.7 times as long as a plain column of the same size, so those 24
    files form one band of latencies, about 4 to 50 ms.  Four files are
    faster and four slower, so op_p50_ms lies in the middle of the band, and
    op_tail_ms (p95) inside the 2e5-value plain column's latencies.  A band
    of many sizes gives the median a smooth distribution to fall in: among
    copies of one small file it followed whichever of the machine's speeds
    most samples happened to meet, and between two files of far-apart sizes
    it jumped from one to the other.
    """

    name = "compute_file"
    workers = 1
    tail_pct = 95.0
    BAND = (1000, 10000)
    SIZES = (300, 300, *[int(round(1000 * 10 ** (k / 11))) for k in range(12)], 30000, 200000)

    def __init__(self, sizes: tuple[int, ...] = SIZES) -> None:
        self.sizes = sizes

    def prepare(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.datasets = []
        self.files = []
        for i, size in enumerate(self.sizes):
            # Shape and rate set the length of the printed values, so they are
            # fixed per file; the seed only draws the values.
            alpha, rate = ALPHAS[i % len(ALPHAS)], (1.0, 3.0)[i // len(ALPHAS) % 2]
            y = rng.gamma(alpha, 1.0 / rate, size)
            if not np.all(y > 0.0):
                raise RuntimeError("generated a non-positive value; the data would be invalid")
            self.datasets.append(y)
            text = [repr(v) for v in y.tolist()]
            plain = workdir / f"data{i:02d}.txt"
            plain.write_text("\n".join(text) + "\n")
            csv = workdir / f"data{i:02d}.csv"
            csv.write_text("id,y,weight\n" + "".join(
                f"{j},{v},{1 + j % 7}\n" for j, v in enumerate(text)))
            self.files += [(i, str(plain)), (i, str(csv))]

    def warm_up(self) -> None:
        self.run(self.files[0])

    def ops(self) -> list:
        """The files, with the band's dealt round-robin between the others.

        The machine's speed changes within a second, and band samples taken
        back to back would share one spell of it.
        """
        band = [f for f in self.files if self.BAND[0] <= self.sizes[f[0]] <= self.BAND[1]]
        rest = [f for f in self.files if f not in band]
        if not band or not rest:
            return list(self.files)
        return [op for j, r in enumerate(rest) for op in [r, *band[j::len(rest)]]]

    def run(self, op):
        return call_cli(["compute", "--input", op[1], "--index", "all", "--debias"])

    def items(self, op, output) -> int:
        return len(self.datasets[op[0]])

    def expected(self, i: int) -> dict:
        """The CLI's JSON fields, computed by the library on the same data."""
        s = gammadex.Sample(self.datasets[i])
        indices = {k.value: gammadex.compute_index(k, s) for k in KINDS}
        alpha = gammadex.alpha_plug_in(s)
        params = gammadex.GammaParams(alpha)
        return {
            "command": "compute", "n": s.n, "indices": indices,
            "alpha": alpha, "alpha_source": "plug_in",
            "debiased": {k.value: gammadex.debias(k, params, s.n, indices[k.value])
                         for k in KINDS},
        }

    def check(self, ops, outputs) -> list[bool]:
        """CLI JSON equals the library's values exactly.

        The plain and CSV copies of a dataset are checked against the same
        library values, so they agree with each other as well.
        """
        expected: dict[int, dict] = {}
        verdicts = []
        for (i, path), out in zip(ops, outputs):
            if i not in expected:
                expected[i] = self.expected(i)
            rc, text = out if out is not None else (None, "")
            try:
                got = json.loads(text)
            except ValueError:
                verdicts.append(False)
                continue
            verdicts.append(rc == 0 and got == {**expected[i], "input": path})
        return verdicts


WORKLOADS = {w.name: w for w in (VerifyGrid, PanelDebias, ComputeFile)}
