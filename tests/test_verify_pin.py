"""The default ``gammadex verify`` output, pinned line by line.

``verify_seed1729.json`` holds each of the 241 lines that ``gammadex
verify`` prints at its defaults (seed 1729, 200k reps): the label, n,
``mc_mean`` and ``z_score``.  A change to the draws, a target or the grid
moves ``mc_mean`` by about one standard error and fails here.  The
tolerances only absorb numpy's CPU-specific loops: between its SIMD and
libm ``tan`` and ``log`` loops the default run's ``mc_mean`` differed by at
most 1.2e-15 relative (1.1e-16 absolute on the near-zero ``lambda_sweep``
differences) and z by at most 1.1e-8.  A change that moves a line on
purpose updates this pin and lists the moved lines.
"""

import json
import math
from pathlib import Path

from gammadex.cli import EXIT_OK, main

PIN = Path(__file__).with_name("verify_seed1729.json")
MEAN_REL = 1e-12
MEAN_ABS_NEAR_ZERO = 1e-14  # lambda_sweep lines: differences of two cells, about 0
Z_ABS = 1e-6


def test_default_verify_output_is_pinned(capsys):
    assert main(["verify"]) == EXIT_OK
    got = json.loads(capsys.readouterr().out)
    pinned = json.loads(PIN.read_text())
    assert [(r["kind"], r["n"]) for r in got] == [(kind, n) for kind, n, _, _ in pinned]
    for row, (kind, n, mean, z) in zip(got, pinned):
        if kind.startswith("lambda_sweep:"):
            assert math.isclose(row["mc_mean"], mean, rel_tol=0.0, abs_tol=MEAN_ABS_NEAR_ZERO), kind
        else:
            assert math.isclose(row["mc_mean"], mean, rel_tol=MEAN_REL), (kind, n)
        assert math.isclose(row["z_score"], z, rel_tol=0.0, abs_tol=Z_ABS), (kind, n)
