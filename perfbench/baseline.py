"""Record a baseline: every workload over several seeds, into one results file.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 30

Runs ``run.py`` once per (workload, seed) untraced, and once per workload
traced at the first seed, then writes ``perfbench/results/BENCH_<commit>.json``:
a header describing the machine and the tree, every run's result, and for
each end-to-end metric the median, the quartiles and their spread
(q3 - q1) / median, printed next to the bound BENCHMARK.json gives it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _last_level_cache() -> str:
    """Size of the highest cache level cpu0 reports, as the kernel prints it."""
    best = (0, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        best = max(best, (level, f"L{level} {size}"))
    return best[1]


def header(seeds: list[int], seconds: int) -> dict:
    import numpy as np

    status = _git("status", "--porcelain", "--", "src", "pyproject.toml")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "git_commit": _git("rev-parse", "HEAD"),
        # Dirty means the measured program (src/, pyproject.toml) differs from the commit.
        "git_dirty": None if status is None else bool(status),
        "seeds": seeds,
        "seconds": seconds,
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    record = {"header": header(args.seeds, args.seconds), "workloads": {}}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in args.seeds:
            runs.append({"seed": seed, **run_once(workload, seed, args.seconds, 0)})
            print(workload, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        summary = {}
        for name, bound in bounds.items():
            summary[name] = spread([r["metrics"][name]["value"] for r in runs])
            print(f"  {name:12s} median {summary[name]['median']:.6g}  "
                  f"spread {summary[name]['spread']:.4f}  bound {bound}", flush=True)
        traced = {"seed": args.seeds[0], **run_once(workload, args.seeds[0], args.seconds, 1)}
        record["workloads"][workload] = {"summary": summary, "untraced": runs, "traced": traced}

    commit = (record["header"]["git_commit"] or "unknown")[:12]
    out = HERE / "results" / f"BENCH_{commit}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
