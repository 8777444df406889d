"""Outside-in tracing of gammadex: timing wrappers around public functions.

``Tracer.installed()`` replaces each function listed in ``TARGETS`` with a
wrapper that records one span per call, at every gammadex module that holds
a reference to it (``gamma_forms.log_gamma`` and ``verify.log_gamma`` are the
same function imported twice, and both are wrapped).  Nothing under
``src/`` is edited: the wrappers are installed for one traced pass and the
originals are put back afterwards.

A span is ``[name, layer, start, end, parent, thread, op, items, extra]``:
``parent`` is the enclosing span on the same thread (``None`` at the top of
a thread, as for blocks run on the verify thread pool), ``op`` is the
benchmark operation that was running, ``items`` a work count taken from the
call (values in a sample, uniforms drawn, ...) and ``extra`` a second count
where one layer reports two (lines beyond z_max, integrand evaluations).
Spans are kept in memory; ``layer_metrics`` reduces them at the end.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import threading
import time
from contextlib import contextmanager

NAME, LAYER, START, END, PARENT, THREAD, OP, ITEMS, EXTRA = range(9)

MODULES = ("rng", "sampling", "verify", "quadrature", "gamma_forms", "special", "indices", "cli")


def _n(x) -> int:
    """Number of observations in a Sample, an array or a sequence."""
    return x.n if hasattr(x, "n") else len(x)


class _CountedIntegrand:
    """An integrand that counts the points it is evaluated at."""

    def __init__(self, f) -> None:
        self.f = f
        self.evals = 0

    def __call__(self, x):
        self.evals += len(x)
        return self.f(x)


def _len_result(args, kwargs, result):
    return len(result), 0


def _sample_arg(pos):
    return lambda args, kwargs, result: (_n(args[pos]), 0)


# (module, attribute, how to count the work of one call); the module is the
# layer.  Methods are named
# "Class.method" and wrapped on the class.  A counter returns (items, extra).
TARGETS = (
    ("rng", "RngStream.uniforms", _len_result),
    ("rng", "RngStream.spawn", None),
    ("sampling", "standard_normals", _len_result),
    ("sampling", "gamma_variates", _len_result),
    ("sampling", "gamma_variate", None),
    ("sampling", "beta_variates", None),
    ("sampling", "beta_variate", None),
    ("sampling", "dirichlet_variates", None),
    ("sampling", "dirichlet_variate", None),
    ("verify", "run_verification",
     lambda args, kwargs, r: (len(r.reports), r.n_failed)),
    ("verify", "mc_expectation", None),
    ("verify", "lukacs_independence_check", None),
    ("verify", "dirichlet_product_moment_check", None),
    ("verify", "beta_ulogu_check", None),
    ("verify", "abs_2r_minus_1_check", None),
    ("verify", "two_point_remark_check", None),
    ("quadrature", "integrate", lambda args, kwargs, r: (r.intervals, args[0].evals)),
    ("gamma_forms", "pop_gini", None),
    ("gamma_forms", "pop_theil", None),
    ("gamma_forms", "pop_atkinson", None),
    ("gamma_forms", "pop_vmr", None),
    ("gamma_forms", "population_value", None),
    ("gamma_forms", "expect_gini", None),
    ("gamma_forms", "expect_theil", None),
    ("gamma_forms", "expect_atkinson", None),
    ("gamma_forms", "expect_vmr", None),
    ("gamma_forms", "expectation", None),
    ("gamma_forms", "debias", None),
    ("gamma_forms", "alpha_plug_in", None),
    ("special", "log_gamma", None),
    ("special", "digamma", None),
    ("special", "log_beta", None),
    ("special", "duplication_residual", None),
    ("indices", "Sample.__init__", lambda args, kwargs, r: (_n(args[0]), 0)),
    ("indices", "sample_mean", _sample_arg(0)),
    ("indices", "gini", _sample_arg(0)),
    ("indices", "gini_pairwise", _sample_arg(0)),
    ("indices", "gini_sorted", _sample_arg(0)),
    ("indices", "theil_t", _sample_arg(0)),
    ("indices", "atkinson", _sample_arg(0)),
    ("indices", "vmr", _sample_arg(0)),
    ("indices", "compute_index", _sample_arg(1)),
    ("cli", "main", None),
    ("cli", "read_sample", lambda args, kwargs, r: (r.n, 0)),
)

# Counts that must repeat exactly between two traced passes of the same
# inputs; a later change may claim a gain on them as counts.
EXACT_COUNTS = (
    "rng.uniforms.items",
    "sampling.gamma_variates.items",
    "sampling.standard_normals.items",
    "verify.blocks",
    "quadrature.intervals",
    "quadrature.integrand_evals",
    "special.calls",
    "indices.values",
)


def _counting_integrand(traced_integrate):
    @functools.wraps(traced_integrate)
    def call(f, *args, **kwargs):
        return traced_integrate(_CountedIntegrand(f), *args, **kwargs)

    return call


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1  # set by the benchmark before each operation
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, layer: str, count):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = [name, layer, clock(), 0.0, stack[-1] if stack else None,
                    threading.get_ident(), tracer.op, 0, 0]
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                span[ITEMS], span[EXTRA] = count(args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every target at every gammadex module that refers to it."""
        mods = {m: importlib.import_module(f"gammadex.{m}") for m in MODULES}
        holders = [importlib.import_module("gammadex"), *mods.values()]
        undo = []
        try:
            for layer, attr, count in TARGETS:
                name = f"{layer}.{attr}"
                if "." in attr:  # a method, wrapped once on its class
                    cls_name, meth = attr.split(".")
                    cls = getattr(mods[layer], cls_name)
                    fn = cls.__dict__[meth]
                    undo.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(fn, name, layer, count))
                    continue
                fn = getattr(mods[layer], attr)
                wrapped = self._wrap(fn, name, layer, count)
                if attr == "integrate":
                    wrapped = _counting_integrand(wrapped)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            undo.append((holder, key, fn))
                            setattr(holder, key, wrapped)
            yield self
        finally:
            for holder, key, fn in reversed(undo):
                setattr(holder, key, fn)

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines, parents as span indices."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with gzip.open(path, "wt") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": None if s[PARENT] is None else index[id(s[PARENT])],
                    "thread": s[THREAD], "op": s[OP], "items": s[ITEMS], "extra": s[EXTRA],
                }) + "\n")


# Every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("rng.uniforms.calls", "count"),
    ("rng.uniforms.items", "count"),
    ("rng.uniforms.self_s", "s"),
    ("rng.uniforms.ns_per_item", "ns"),
    ("sampling.gamma_variates.calls", "count"),
    ("sampling.gamma_variates.items", "count"),
    ("sampling.gamma_variates.self_s", "s"),
    ("sampling.standard_normals.items", "count"),
    ("sampling.standard_normals.self_s", "s"),
    ("sampling.normals_per_variate", "ratio"),
    ("sampling.uniforms_per_variate", "ratio"),
    ("verify.checks", "count"),
    ("verify.blocks", "count"),
    ("verify.lines_beyond_zmax", "count"),
    ("verify.self_s", "s"),
    ("verify.thread_busy_frac", "frac"),
    ("quadrature.integrate.calls", "count"),
    ("quadrature.intervals", "count"),
    ("quadrature.integrand_evals", "count"),
    ("quadrature.self_s", "s"),
    ("gamma_forms.calls", "count"),
    ("gamma_forms.self_s", "s"),
    ("gamma_forms.us_per_call", "us"),
    ("special.calls", "count"),
    ("special.self_s", "s"),
    ("special.ns_per_call", "ns"),
    ("indices.calls", "count"),
    ("indices.values", "count"),
    ("indices.self_s", "s"),
    ("indices.ns_per_value", "ns"),
    ("indices.sample_init_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.read_sample.s", "s"),
    ("cli.read_sample.values_per_s", "1/s"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.coverage", "frac"),
)


def _union(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(spans: list[list], t0: float, t1: float, workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass that ran from t0 to t1.

    Self time is a span's duration minus that of its direct children (which
    run on the same thread, nested inside it).  ``calls`` of a layer counts
    entries into it: spans whose parent lies in another layer or is absent.
    ``trace.overhead_frac`` needs an untraced pass and is left to the caller.
    """
    children: dict[int, float] = {}
    for s in spans:
        if s[PARENT] is not None:
            key = id(s[PARENT])
            children[key] = children.get(key, 0.0) + s[END] - s[START]

    def self_time(s) -> float:
        return s[END] - s[START] - children.get(id(s), 0.0)

    def named(name):
        return [s for s in spans if s[NAME] == name]

    def layer_self(layer):
        return sum(self_time(s) for s in spans if s[LAYER] == layer)

    def entries(layer):
        return [s for s in spans
                if s[LAYER] == layer and (s[PARENT] is None or s[PARENT][LAYER] != layer)]

    m: dict[str, float] = {}
    uni, gam, nrm = named("rng.RngStream.uniforms"), named("sampling.gamma_variates"), \
        named("sampling.standard_normals")
    m["rng.uniforms.calls"] = len(uni)
    m["rng.uniforms.items"] = sum(s[ITEMS] for s in uni)
    m["rng.uniforms.self_s"] = sum(self_time(s) for s in uni)
    m["rng.uniforms.ns_per_item"] = _ratio(m["rng.uniforms.self_s"], m["rng.uniforms.items"], 1e9)
    m["sampling.gamma_variates.calls"] = len(gam)
    m["sampling.gamma_variates.items"] = sum(s[ITEMS] for s in gam)
    m["sampling.gamma_variates.self_s"] = sum(self_time(s) for s in gam)
    m["sampling.standard_normals.items"] = sum(s[ITEMS] for s in nrm)
    m["sampling.standard_normals.self_s"] = sum(self_time(s) for s in nrm)
    m["sampling.normals_per_variate"] = _ratio(
        m["sampling.standard_normals.items"], m["sampling.gamma_variates.items"])
    m["sampling.uniforms_per_variate"] = _ratio(
        m["rng.uniforms.items"], m["sampling.gamma_variates.items"])

    # verify: the run_verification wall time not covered by a span of another
    # layer on any thread (pool threads included), and how busy those spans
    # kept the workers.
    runs = named("verify.run_verification")
    m["verify.checks"] = sum(s[ITEMS] for s in runs)
    m["verify.blocks"] = len(named("rng.RngStream.spawn"))
    m["verify.lines_beyond_zmax"] = sum(s[EXTRA] for s in runs)
    verify_self = busy = wall = 0.0
    for r in runs:
        ancestors, up = set(), r[PARENT]
        while up is not None:
            ancestors.add(id(up))
            up = up[PARENT]
        inside = [s for s in spans if s[LAYER] != "verify" and id(s) not in ancestors
                  and r[START] <= s[START] and s[END] <= r[END]]
        verify_self += r[END] - r[START] - _union((s[START], s[END]) for s in inside)
        for tid in {s[THREAD] for s in inside}:
            busy += _union((s[START], s[END]) for s in inside if s[THREAD] == tid)
        wall += r[END] - r[START]
    m["verify.self_s"] = verify_self
    m["verify.thread_busy_frac"] = _ratio(busy, workers * wall)

    quad = named("quadrature.integrate")
    m["quadrature.integrate.calls"] = len(quad)
    m["quadrature.intervals"] = sum(s[ITEMS] for s in quad)
    m["quadrature.integrand_evals"] = sum(s[EXTRA] for s in quad)
    m["quadrature.self_s"] = layer_self("quadrature")

    m["gamma_forms.calls"] = len(entries("gamma_forms"))
    m["gamma_forms.self_s"] = layer_self("gamma_forms")
    m["gamma_forms.us_per_call"] = _ratio(m["gamma_forms.self_s"], m["gamma_forms.calls"], 1e6)
    m["special.calls"] = len(entries("special"))
    m["special.self_s"] = layer_self("special")
    m["special.ns_per_call"] = _ratio(m["special.self_s"], m["special.calls"], 1e9)
    idx = entries("indices")
    m["indices.calls"] = len(idx)
    m["indices.values"] = sum(s[ITEMS] for s in idx)
    m["indices.self_s"] = layer_self("indices")
    m["indices.ns_per_value"] = _ratio(m["indices.self_s"], m["indices.values"], 1e9)
    m["indices.sample_init_s"] = sum(s[END] - s[START] for s in named("indices.Sample.__init__"))

    mains, reads = named("cli.main"), named("cli.read_sample")
    m["cli.main.calls"] = len(mains)
    m["cli.read_sample.s"] = sum(s[END] - s[START] for s in reads)
    m["cli.read_sample.values_per_s"] = _ratio(sum(s[ITEMS] for s in reads), m["cli.read_sample.s"])
    m["cli.self_s"] = sum(self_time(s) for s in mains)

    covered = _union((max(s[START], t0), min(s[END], t1)) for s in spans if s[PARENT] is None)
    m["trace.coverage"] = _ratio(covered, t1 - t0)
    return m
