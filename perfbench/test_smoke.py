"""Tiny-size smoke test of the benchmark.

    python3 -m pytest -q perfbench/test_smoke.py

Runs each workload once at a tiny size, untraced and traced, and checks that
every metric BENCHMARK.json names comes back with its unit; then checks the
output gate: a corrupted output, or counts that drift between traced passes,
must be reported as failures.
"""

from __future__ import annotations

import json

import pytest

import run

gammadex = run.import_gammadex()

import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "verify_grid": lambda: workloads.VerifyGrid(reps=10_000, grid=("alpha=1", "lambda=1", "n=2")),
    "panel_debias": lambda: workloads.PanelDebias(samples=20),
    "compute_file": lambda: workloads.ComputeFile(sizes=(200, 1000)),
}
BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_tiny_workloads_cover_the_benchmark():
    assert sorted(TINY) == sorted(w["name"] for w in BENCH["workloads"])
    assert [name for name, _ in tracing.PER_LAYER] == [m["name"] for m in BENCH["per_layer"]]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_present_with_unit(name, trace):
    result = run.run(TINY[name](), seed=3, seconds=0.01, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def _flip_report_byte(output):
    rc, text = output
    i = text.index('"mc_mean": ') + len('"mc_mean": ') + 2
    return rc, text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1:]


def _perturb_panel_index(output):
    values, debiased, alpha_hat = output
    return [values[0], values[1] * (1.0 + 1e-9), *values[2:]], debiased, alpha_hat


def _perturb_compute_index(output):
    rc, text = output
    obj = json.loads(text)
    obj["indices"]["atkinson"] *= 1.0 + 1e-12
    return rc, json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("name, corrupt", [
    ("verify_grid", _flip_report_byte),
    ("panel_debias", _perturb_panel_index),
    ("compute_file", _perturb_compute_index),
])
def test_corrupted_output_counts_as_failed(name, corrupt):
    wl = TINY[name]()
    real = wl.run

    def run_corrupting_last_op(op):
        out = real(op)
        return corrupt(out) if op == wl.ops()[-1] else out

    wl.run = run_corrupting_last_op
    result = run.run(wl, seed=3, seconds=0.01, trace=False)
    assert not result["correct"]
    assert result["failed"] * len(wl.ops()) == result["attempted"]  # one op in every pass
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_raising_operation_counts_as_failed_and_is_reported(capsys):
    wl = TINY["panel_debias"]()
    real = wl.run

    def run_raising_on_last_op(op):
        if op == wl.ops()[-1]:
            raise ZeroDivisionError("boom")
        return real(op)

    wl.run = run_raising_on_last_op
    result = run.run(wl, seed=3, seconds=0.01, trace=False)
    assert result["failed"] * len(wl.ops()) == result["attempted"]
    assert "ZeroDivisionError: boom" in capsys.readouterr().out


def test_counts_that_differ_between_traced_passes_fail():
    class Drifting(workloads.PanelDebias):
        calls = 0

        def run(self, op):
            self.calls += 1
            if self.calls % 7 == 0:  # extra work the output does not show
                gammadex.sample_mean(self.pool[op][1])
            return super().run(op)

    result = run.run(Drifting(samples=20), seed=3, seconds=0.01, trace=True)
    assert not result["correct"] and result["failed"] >= 1


def test_verify_self_time_counts_pool_threads():
    def span(name, layer, start, end, parent=None, thread=1, items=0):
        return [name, layer, start, end, parent, thread, 0, items, 0]

    rv = span("verify.run_verification", "verify", 0.0, 10.0, items=3)
    spans = [
        span("cli.main", "cli", 0.0, 10.0),
        rv,
        span("sampling.gamma_variates", "sampling", 1.0, 4.0, thread=2, items=5),
        span("sampling.gamma_variates", "sampling", 2.0, 6.0, thread=3, items=5),
        span("special.digamma", "special", 7.0, 8.0, parent=rv),
    ]
    spans[1][tracing.PARENT] = spans[0]
    m = tracing.layer_metrics(spans, 0.0, 10.0, workers=2)
    assert m["verify.self_s"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert m["verify.thread_busy_frac"] == pytest.approx((3.0 + 4.0 + 1.0) / 20.0)
    assert m["sampling.gamma_variates.items"] == 10
    assert m["verify.checks"] == 3
    assert m["trace.coverage"] == pytest.approx(1.0)


def test_compute_file_deals_the_band_between_the_other_files(tmp_path):
    wl = workloads.ComputeFile(sizes=(200, 3000, 5000, 30000))
    wl.prepare(3, tmp_path)
    ops = wl.ops()
    assert sorted(ops) == sorted(wl.files)
    assert [wl.sizes[i] for i, _ in ops[::2]] == [200, 200, 30000, 30000]
