"""gammadex benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload verify_grid --seed 1 --seconds 30 --trace 0

Run from the repository root; gammadex is imported from ``src/`` of the
same tree, and the run fails if it is not there.  With ``--trace 0`` the
workload's operations run in a timed loop for ``--seconds`` and the
end-to-end metrics are printed; with ``--trace 1`` untraced and traced
passes over one fixed set of operations alternate for ``--seconds`` and
the per-layer metrics are printed (see tracing.py).  The last line of stdout
is the result as one JSON object.  Set-up, the output checks, and the
workers=1 reference run of verify_grid are outside the timed loop.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

# At most two threads in all: the verify pool's workers.  numpy's BLAS would
# otherwise start its own threads on top of them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
ROTATE_S = 0.25  # seconds on one CPU before moving to the next


def import_gammadex():
    """Import gammadex from this tree's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gammadex
    except ImportError as exc:
        raise SystemExit(f"cannot import gammadex from {src}: {exc}") from None
    if not Path(gammadex.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"gammadex was imported from {gammadex.__file__}, not from {src}")
    return gammadex


def import_time() -> float:
    """Wall time for a fresh interpreter to import gammadex from src/ and exit."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import gammadex"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t


@contextlib.contextmanager
def pinned(cpu: int | None):
    """Run this thread (and processes it starts) on one CPU, then restore."""
    if cpu is None:
        yield
        return
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


@contextlib.contextmanager
def rotating_cpus(enabled: bool):
    """Move this thread to the next allowed CPU every ROTATE_S seconds.

    A single-threaded loop stays on one CPU, and on a shared VM one vCPU can
    run 30-40 % slower than another for minutes at a time.  Rotating over
    the CPUs the process may use makes every run sample all of them alike.
    A helper thread, asleep between moves, does the rotating, so long
    operations are split too.  Threads started meanwhile would inherit a
    one-CPU mask, so multi-threaded workloads do not rotate.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if not enabled or len(cpus) < 2:
        yield
        return
    tid = threading.get_native_id()
    stop = threading.Event()

    def rotate() -> None:
        i = 0
        while not stop.is_set():
            os.sched_setaffinity(tid, {cpus[i % len(cpus)]})
            i += 1
            stop.wait(ROTATE_S)

    mover = threading.Thread(target=rotate, name="cpu-rotation")
    mover.start()
    try:
        yield
    finally:
        stop.set()
        mover.join()
        os.sched_setaffinity(tid, cpus)


def attempt(wl, op, errors: list[str]):
    """One operation.  An error it raises makes its output None; the first
    traceback is kept in ``errors`` for the report."""
    try:
        return wl.run(op)
    except Exception:
        if not errors:
            errors.append(traceback.format_exc())
        return None


def measure(wl, seconds: float) -> tuple[dict, list[str], int, int]:
    """Whole passes over the workload's operations until ``seconds`` passed.

    Only the first pass's outputs are kept and checked; every later output
    must equal the first output of the same operation, so the process holds
    no more than one pass of results.
    """
    ops = wl.ops()
    first, latencies, repeats_ok, errors = [], [], [True] * len(ops), []
    clock = time.perf_counter
    with rotating_cpus(wl.workers == 1):
        t0 = clock()
        while True:
            for j, op in enumerate(ops):
                t = clock()
                out = attempt(wl, op, errors)
                latencies.append(clock() - t)
                if len(first) < len(ops):
                    first.append(out)
                elif out != first[j]:
                    repeats_ok[j] = False
            if clock() - t0 >= seconds:
                break
        wall = clock() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = len(latencies) // len(ops)
    verdicts = [ok and again for ok, again in zip(wl.check(ops, first), repeats_ok)]
    failed = passes * verdicts.count(False)
    items = passes * sum(wl.items(op, out) for op, out, ok in zip(ops, first, verdicts) if ok)
    n = len(latencies)
    tail = float(np.percentile(latencies, wl.tail_pct))
    beyond = sum(lat > tail for lat in latencies)
    notes = [
        f"{wl.name}: {passes} passes of {len(ops)} operations in {wall:.3f} s; "
        f"op_p50_ms over {n} operations",
        f"op_tail_ms is p{wl.tail_pct:g} of {n} operations, {beyond} beyond it"
        + ("" if beyond >= 10 else "; fewer than ten beyond, so it is the slowest operations"),
        f"ok_frac is 1 - failed_frac; failed_frac = {failed}/{n}",
        *errors,
    ]
    metrics = {
        "items_per_s": (items / wall, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "ok_frac": (1.0 - failed / n, "frac"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, notes, n, failed


def measure_traced(wl, seconds: float, spans_path: Path) -> tuple[dict, list[str], int, int]:
    """Alternate untraced and traced passes over one fixed set of operations.

    At least two traced passes run, so that the exact counts can be compared;
    every pass must give the outputs of the first, untraced one.
    """
    from tracing import EXACT_COUNTS, PER_LAYER, Tracer, layer_metrics

    ops = wl.ops()
    first, repeats_ok, errors = None, [True] * len(ops), []
    walls = {False: [], True: []}
    per_pass = []
    t_begin = time.perf_counter()
    while len(per_pass) < 2 or time.perf_counter() - t_begin < seconds:
        for traced in (False, True):
            tracer = Tracer()
            with (tracer.installed() if traced else contextlib.nullcontext()), \
                    rotating_cpus(wl.workers == 1):
                outputs = []
                t0 = time.perf_counter()
                for i, op in enumerate(ops):
                    tracer.op = i
                    outputs.append(attempt(wl, op, errors))
                t1 = time.perf_counter()
            walls[traced].append(t1 - t0)
            if first is None:
                first = outputs
            repeats_ok = [ok and out == want for ok, out, want in zip(repeats_ok, outputs, first)]
            if traced:
                per_pass.append(layer_metrics(tracer.spans, t0, t1, wl.workers))
                if len(per_pass) == 1:
                    spans_path.parent.mkdir(parents=True, exist_ok=True)
                    tracer.write(spans_path)

    passes = 2 * len(per_pass)
    verdicts = [ok and again for ok, again in zip(wl.check(ops, first), repeats_ok)]
    mismatched = [c for c in EXACT_COUNTS if len({m[c] for m in per_pass}) != 1]
    failed = passes * verdicts.count(False) + len(mismatched)
    units = dict(PER_LAYER)
    metrics = {name: (statistics.median(m[name] for m in per_pass), units[name])
               for name in per_pass[0]}
    overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "frac")
    metrics = {name: metrics[name] for name, _ in PER_LAYER}
    notes = [
        f"{wl.name}: {len(per_pass)} traced and {len(per_pass)} untraced passes "
        f"of {len(ops)} operations; per-layer values are medians over the traced passes",
        "exact counts " + ("repeat across traced passes" if not mismatched
                           else "DIFFER across traced passes: " + ", ".join(mismatched)),
        f"spans of the first traced pass: {spans_path.relative_to(ROOT)}",
        *errors,
    ]
    return metrics, notes, passes * len(ops) + len(EXACT_COUNTS), failed


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def run(wl, seed: int, seconds: float, trace: bool) -> dict:
    """Set the workload up, measure it, and return the result object.

    setup_s is the median time a fresh process takes to import gammadex,
    plus the median of the in-process set-ups (write the inputs, run one
    warm-up operation).  Set-up is repeated nine times, alternating the
    CPU it runs on, so the medians take in every CPU; the multi-threaded
    verify warm-up is not pinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    workdir = HERE / ".work" / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        imports, setups = [], []
        for k in range(SETUP_REPEATS):
            cpu = cpus[k % len(cpus)]
            with pinned(cpu):
                imports.append(import_time())
            with pinned(cpu if wl.workers == 1 else None):
                t = time.perf_counter()
                wl.prepare(seed, workdir)
                wl.warm_up()
                setups.append(time.perf_counter() - t)
        if trace:
            spans = HERE / "out" / f"{wl.name}-seed{seed}.spans.jsonl.gz"
            metrics, notes, attempted, failed = measure_traced(wl, seconds, spans)
        else:
            metrics, notes, attempted, failed = measure(wl, seconds)
            metrics["setup_s"] = (statistics.median(imports) + statistics.median(setups), "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import gammadex

    print(json.dumps({"workload": wl.name, "seed": seed, "trace": int(trace),
                      "python": sys.version.split()[0], "numpy": np.__version__,
                      "gammadex": gammadex.__version__, "nproc": os.cpu_count()}))
    for note in notes:
        print(note)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    import_gammadex()
    raise SystemExit(main())
