"""Layered benchmark of the analyze / factor / solve pipeline.

One run generates a workload from the seed, writes it as Matrix Market (plus a
permutation file where the workload is ordered by nested dissection), then
repeats rounds until ``--seconds`` have passed.  A round times, from outside
the package (all calls go through ``adapter``):

* ``setup_s``     read, order, permute, symbolic analysis, relabel;
* ``factor_s.<c>`` scatter plus one factorization, per method/backend config;
* ``solve_s``     one solve for one right-hand side (every config's factor);
* ``total_s``     read + ``run_factorization`` (rlb) + solve, the package's
  own input-to-solution driver.

Each timed call is bracketed by a fixed reference workload and reported in
reference seconds (see ``Clock``); the raw wall times are reported alongside
under ``wall.<metric>``.

Every factorization and solve of a round is checked: scale-safe residuals,
panel agreement across configs, rlb's zero workspace and assembly, and the
counters against ``run_factorization`` with the same options.

With ``--trace 1`` untraced and traced rounds alternate.  Traced rounds record
spans around the adapter calls and inside the package's symbolic steps, and
time every kernel call; they give the per-layer metrics as self times.  The
untraced rounds give the tracing overhead and ``numeric.rlb_vs_best``.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import adapter
import workloads

TOL = 1e-10
MIN_ROUNDS = 3

# Sizes chosen so a round takes about 2 s on a 2-core sandbox, giving a dozen
# or more rounds per run; see BENCHMARK.json for why each workload is in the set.
WORKLOADS = {
    "grid2d": lambda seed: workloads.grid2d(40, seed),
    "grid3d-nd": lambda seed: workloads.grid3d_nd(14, seed),
    "random": lambda seed: workloads.random_pattern(1000, 2, 1, 4, seed),
}

CONFIG_NAMES = tuple(c for c, _, _ in adapter.CONFIGS)
SETUP_SPANS = ("matrix.read", "matrix.order", "matrix.permute", "symbolic.etree",
               "symbolic.colstruct", "symbolic.supernodes", "symbolic.merge",
               "symbolic.build", "reorder.pr", "symbolic")


def kinds_used(config: str) -> tuple:
    """Kernel kinds a method calls: mf and rl apply their updates with syrk only."""
    return adapter.KINDS[:3] if config in ("mf", "rl") else adapter.KINDS


END_TO_END = (("setup_s", "s"), *((f"factor_s.{c}", "s") for c in CONFIG_NAMES),
              ("solve_s", "s"), ("total_s", "s"), ("peak_rss_mb", "MB"))


def per_layer_metrics() -> list:
    """(name, unit) of every metric a traced run reports."""
    out = [(f"{s}_s", "s") for s in SETUP_SPANS if s != "symbolic"]
    out += [("symbolic.other_s", "s"), ("symbolic.builds", "count"),
            ("symbolic.nsuper", "count"), ("symbolic.factor_nnz", "count"),
            ("reorder.blocks_before", "count"), ("reorder.blocks_after", "count"),
            ("numeric.scatter_s", "s"), ("numeric.solve_s", "s")]
    for c in CONFIG_NAMES:
        out += [(f"numeric.{c}.driver_s", "s"), (f"numeric.{c}.assembly_ops", "count"),
                (f"numeric.{c}.workspace_peak", "count")]
        for k in kinds_used(c):
            out += [(f"kernels.{c}.{k}.calls", "count"), (f"kernels.{c}.{k}.s", "s"),
                    (f"kernels.{c}.{k}.gflops", "GF/s")]
        out += [(f"kernels.{c}.us_per_call", "us"), (f"kernels.{c}.mbytes", "MB")]
    out += [("numeric.rlb_vs_best", "ratio"), ("trace.overhead_s", "s"),
            ("trace.kernel_wrap_us", "us")]
    return out


# -- checks ---------------------------------------------------------------------

class SymmetricCSC:
    """Lower-triangle CSC of a symmetric matrix, for a sparse y = A x."""

    def __init__(self, colptr, rowind, values):
        self.n = colptr.size - 1
        self.rows = np.asarray(rowind)
        self.cols = np.repeat(np.arange(self.n), np.diff(colptr))
        self.vals = np.asarray(values)
        self.off = self.rows != self.cols

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = np.bincount(self.rows, self.vals * x[self.cols], minlength=self.n)
        o = self.off
        y += np.bincount(self.cols[o], self.vals[o] * x[self.rows[o]], minlength=self.n)
        return y

    def residual(self, x: np.ndarray, b: np.ndarray) -> float:
        """||A x - b|| / ||b||, without forming A densely."""
        nb = float(np.linalg.norm(b))
        return float(np.linalg.norm(self.matvec(x) - b)) / (nb if nb > 0 else 1.0)


def panel_deviation(got: np.ndarray, ref: np.ndarray) -> float:
    """Max-norm deviation relative to max(1, |ref|), as the package's oracle check."""
    scale = max(1.0, float(np.abs(ref).max(initial=0.0)))
    return float(np.abs(got - ref).max(initial=0.0)) / scale


def check_factors(factored: list, solutions: dict, A2: SymmetricCSC, b2: np.ndarray,
                  expected: dict) -> list:
    """Failure messages for one round of layered factorizations and solves.

    ``factored`` holds one ``adapter.Factored`` per config, ``solutions`` the
    config's solve of ``A2 x = b2``, ``expected`` the counters
    ``run_factorization`` reported for the same config.
    """
    fails = []
    ref = adapter.panels(factored[0].F)
    flops = {f.config: adapter.counters(f.stats)["flops"] for f in factored}
    if len(set(flops.values())) != 1:
        fails.append(f"flop totals differ across methods: {flops}")
    for f in factored:
        got = adapter.counters(f.stats)
        if got != expected[f.config]:
            fails.append(f"{f.config}: counters {got} differ from run_factorization "
                         f"{expected[f.config]}")
        if f.config.startswith("rlb") and (got["assembly_ops"] or got["workspace_peak"]):
            fails.append(f"{f.config}: assembly_ops={got['assembly_ops']} "
                         f"workspace_peak={got['workspace_peak']}, expected 0 and 0")
        dev = panel_deviation(adapter.panels(f.F), ref)
        if not dev <= TOL:
            fails.append(f"{f.config}: panels deviate {dev:.3e} from {factored[0].config}")
        res = A2.residual(solutions[f.config], b2)
        if not res <= TOL:
            fails.append(f"{f.config}: solve residual {res:.3e}")
    return fails


# -- host speed -------------------------------------------------------------------

# The benchmark runs on a shared host whose speed drifts by up to ~30% over
# minutes, moving every wall time alike, while the ratio of two workloads timed
# side by side stays within a few percent.  So each timed call is bracketed by
# a fixed reference workload (the same Python, numpy and BLAS mix in every
# version of the package) and its wall time is scaled by REF_NOMINAL_S over the
# mean of the two reference times around it: the call's duration on a host that
# runs the reference in REF_NOMINAL_S.  A change to the package moves the
# scaled time in the same proportion as the wall time.
REF_NOMINAL_S = 0.015
_ref_rng = np.random.default_rng(12345)
_REF_M = _ref_rng.standard_normal((64, 64))
_REF_SPD = _REF_M @ _REF_M.T + 64.0 * np.eye(64)
_REF_V = _ref_rng.standard_normal(2048)


def reference_seconds() -> float:
    """Wall time of the fixed reference workload."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(30000):
        acc[i % 97] = acc.get(i % 97, 0) + i
    for _ in range(100):
        L = np.linalg.cholesky(_REF_SPD)
        L @ _REF_M
        np.cumsum(_REF_V[np.argsort(_REF_V)])
        _REF_V[::3] * 2.0 + _REF_V[1::3]
    return time.perf_counter() - t0


class Clock:
    """Times one call at a time: ``start()`` right before it, ``stop()`` right
    after; ``stop`` returns (wall seconds, reference seconds).  A call started
    within CHAIN_S of the previous stop shares that stop's reference."""

    CHAIN_S = 0.005

    def __init__(self):
        self.refs = []
        self.last = None  # (reference time, when it ended) of the last stop

    def start(self) -> None:
        if self.last and time.perf_counter() - self.last[1] < self.CHAIN_S:
            self.before = self.last[0]
        else:
            self.before = reference_seconds()
        self.t0 = time.perf_counter()

    def stop(self) -> tuple:
        wall = time.perf_counter() - self.t0
        after = reference_seconds()
        self.last = (after, time.perf_counter())
        ref = 0.5 * (self.before + after)
        self.refs.append(ref)
        return wall, wall * REF_NOMINAL_S / ref


class WallClock:
    """A Clock without the reference workload, for rounds whose times are not
    end-to-end metrics (traced rounds, tests)."""

    def start(self) -> None:
        self.t0 = time.perf_counter()

    def stop(self) -> tuple:
        wall = time.perf_counter() - self.t0
        return wall, wall


# -- tracing ----------------------------------------------------------------------

class Tracer:
    """In-memory spans: per name, the self time of each occurrence (duration
    minus the time covered by child spans)."""

    def __init__(self):
        self.self_times = {}
        self._stack = []

    @contextmanager
    def span(self, name: str):
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            child = self._stack.pop()
            if self._stack:
                self._stack[-1] += dur
            self.self_times.setdefault(name, []).append(dur - child)

    def take(self) -> dict:
        out, self.self_times = self.self_times, {}
        return out


class NoTracer:
    def span(self, name: str):
        return nullcontext()


# -- one run ----------------------------------------------------------------------

@dataclass
class Context:
    mm: Path
    ordering: str
    b: np.ndarray
    A: SymmetricCSC
    backends: dict
    expected: dict = field(default_factory=dict)
    wrap_s: float = 0.0  # timing wrapper's own cost per kernel call
    attempted: int = 0
    failures: list = field(default_factory=list)

    def record(self, attempted: int, fails: list) -> None:
        self.attempted += attempted
        self.failures += fails


def prepare(w: workloads.Workload, seed: int, workdir: Path) -> Context:
    """Write the workload, then run the package's driver once per config,
    untimed: it warms lazy imports and BLAS, and its counters are the ones
    every layered factorization must reproduce."""
    mm = workdir / f"{w.name}.mtx"
    workloads.write_matrix_market(mm, w)
    ordering = "mindeg"
    if w.perm is not None:
        pfile = workdir / f"{w.name}.perm"
        workloads.write_permutation(pfile, w.perm)
        ordering = f"file:{pfile}"
    b = np.random.default_rng([seed, 7]).standard_normal(w.n)
    A = adapter.read(mm)
    ctx = Context(mm, ordering, b, SymmetricCSC(*adapter.csc_lower(A)), adapter.backends())
    for config, method, backend in adapter.CONFIGS:
        result = adapter.run_driver(A, method, backend, ordering)
        ctx.expected[config] = adapter.counters(adapter.driver_stats(result))
        res = ctx.A.residual(adapter.driver_solve(result, b), b)
        ctx.record(2, [] if res <= TOL else [f"driver {config}: residual {res:.3e}"])
    flops = {c: e["flops"] for c, e in ctx.expected.items()}
    if len(set(flops.values())) != 1:
        ctx.record(0, [f"driver flop totals differ across methods: {flops}"])
    return ctx


def setup(ctx: Context, tr):
    with tr.span("matrix.read"):
        A = adapter.read(ctx.mm)
    with tr.span("matrix.order"):
        P = adapter.order(A, ctx.ordering)
    with tr.span("matrix.permute"):
        A1 = adapter.permute(A, P)
    with tr.span("symbolic"):
        S = adapter.analyze(A1)
    with tr.span("matrix.permute"):
        A2 = adapter.relabel(A1, S)
    return A2, S


def factor(A2, S, config: str, method: str, backend, tr, clock=None):
    """(factorization, (wall, reference) seconds of scatter plus factor)."""
    clock = clock or WallClock()
    R, W = adapter.workspace(S, method)
    stats = adapter.new_stats(method, backend, S)
    clock.start()
    with tr.span("numeric.scatter"):
        F = adapter.scatter(A2, S)
    with tr.span(f"numeric.{config}"):
        adapter.factor(method, F, S, R, W, backend, stats)
    return adapter.Factored(config, F, stats), clock.stop()


@dataclass
class Round:
    """Times are (wall, reference) seconds, as ``Clock.stop`` gives them."""

    S: object
    setup_s: tuple
    factor_s: dict
    solve_s: list
    factored: list
    tallies: dict


def layered_round(ctx: Context, tr, time_kernels: bool, clock=None) -> Round:
    """Set up once, then factor and solve with every config, and check it all."""
    clock = clock or WallClock()
    clock.start()
    A2, S = setup(ctx, tr)
    setup_s = clock.stop()
    A2csc = SymmetricCSC(*adapter.csc_lower(A2))
    b2 = A2csc.matvec(np.ones(A2csc.n))  # the exact solution is all ones
    r = Round(S, setup_s, {}, [], [], {})
    solutions = {}
    for config, method, _ in adapter.CONFIGS:
        backend = ctx.backends[config]
        if time_kernels:
            r.tallies[config] = tally = adapter.KernelTally()
            backend = adapter.timed_backend(backend, tally)
        f, r.factor_s[config] = factor(A2, S, config, method, backend, tr, clock)
        r.factored.append(f)
        clock.start()
        with tr.span("numeric.solve"):
            solutions[config] = adapter.solve(f.F, S, b2)
        r.solve_s.append(clock.stop())
    ctx.record(2 * len(r.factored),
               check_factors(r.factored, solutions, A2csc, b2, ctx.expected))
    return r


def untraced_round(ctx: Context, samples: dict) -> None:
    """End-to-end samples in reference seconds, and as ``wall.<metric>``."""
    clock = Clock()
    r = layered_round(ctx, NoTracer(), False, clock)
    timed = [("setup_s", r.setup_s), *((f"factor_s.{c}", t) for c, t in r.factor_s.items()),
             *(("solve_s", t) for t in r.solve_s), ("total_s", timed_total(ctx, clock))]
    for name, (wall, ref) in timed:
        samples.setdefault(name, []).append(ref)
        samples.setdefault(f"wall.{name}", []).append(wall)
    samples.setdefault("reference_s", []).extend(clock.refs)


def traced_round(ctx: Context, samples: dict) -> dict:
    """Per-layer values of one traced round; its total_s goes to trace.total_s."""
    tr, counts = Tracer(), adapter.SymbolicCounts()
    with adapter.traced(tr.span, counts, adapter.KernelTally()):
        r = layered_round(ctx, tr, True)
        spans = tr.take()
        layer = {"symbolic.builds": counts.builds,
                 "reorder.blocks_before": adapter.block_count(counts.unreordered),
                 "reorder.blocks_after": adapter.block_count(r.S)}
        samples.setdefault("trace.total_s", []).append(timed_total(ctx, WallClock())[0])
    layer.update(setup_layer(spans, r.S))
    for f in r.factored:
        layer.update(kernel_layer(f, r.tallies[f.config], spans, ctx.wrap_s))
    return layer


def timed_total(ctx: Context, clock) -> tuple:
    """(wall, reference) seconds from input to solution through the package's
    own driver, with rlb."""
    clock.start()
    A = adapter.read(ctx.mm)
    result = adapter.run_driver(A, "rlb", "reference", ctx.ordering)
    x = adapter.driver_solve(result, ctx.b)
    dt = clock.stop()
    fails = []
    got = adapter.counters(adapter.driver_stats(result))
    if got != ctx.expected["rlb"]:
        fails.append(f"driver rlb: counters {got} differ from the first run")
    res = ctx.A.residual(x, ctx.b)
    if not res <= TOL:
        fails.append(f"driver rlb: residual {res:.3e}")
    ctx.record(2, fails)
    return dt


def kernel_layer(f, tally, spans: dict, wrap_s: float) -> dict:
    """Driver time is the factor span minus in-kernel time, minus the timing
    wrapper's own per-call cost."""
    c = f.config
    kern_s = tally.total_seconds()
    calls = sum(tally.calls(k) for k in adapter.KINDS)
    got = adapter.counters(f.stats)
    out = {f"numeric.{c}.driver_s": spans[f"numeric.{c}"][0] - kern_s - calls * wrap_s,
           f"numeric.{c}.assembly_ops": got["assembly_ops"],
           f"numeric.{c}.workspace_peak": got["workspace_peak"]}
    for k in kinds_used(c):
        s = tally.seconds(k)
        out[f"kernels.{c}.{k}.calls"] = tally.calls(k)
        out[f"kernels.{c}.{k}.s"] = s
        out[f"kernels.{c}.{k}.gflops"] = tally.flops(k) / s / 1e9 if s > 0 else 0.0
    out[f"kernels.{c}.us_per_call"] = 1e6 * kern_s / calls if calls else 0.0
    out[f"kernels.{c}.mbytes"] = sum(tally.bytes(k) for k in adapter.KINDS) / 1e6
    return out


def setup_layer(spans: dict, S) -> dict:
    """Per-round self times: setup spans summed per name; scatter and solve
    per call."""
    out = {("symbolic.other_s" if s == "symbolic" else f"{s}_s"): sum(spans.get(s, [0.0]))
           for s in SETUP_SPANS}
    out["numeric.scatter_s"] = statistics.median(spans["numeric.scatter"])
    out["numeric.solve_s"] = statistics.median(spans["numeric.solve"])
    out["symbolic.nsuper"], out["symbolic.factor_nnz"] = adapter.symbolic_size(S)
    return out


# -- reporting ----------------------------------------------------------------------

def summary(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def git_commit(root: Path) -> str:
    """The checkout's commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path, seed: int) -> dict:
    import scipy

    def blas_version(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, AttributeError):
            return "unknown"

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "openblas_numpy": blas_version(np), "openblas_scipy": blas_version(scipy),
            "blas_threads": {k: v for k, v in sorted(os.environ.items())
                             if k.endswith("_NUM_THREADS")},
            "commit": git_commit(root), "seed": seed,
            "note": "2-core shared sandbox; timings include noise from other tenants"}


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-") as tmp:
        ctx = prepare(WORKLOADS[workload](seed), seed, Path(tmp))
        if trace:
            ctx.wrap_s = adapter.wrapper_overhead()
        samples, layers = {}, []
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds < MIN_ROUNDS * (2 if trace else 1) or time.perf_counter() < deadline:
            gc.collect()
            if trace and rounds % 2:
                layers.append(traced_round(ctx, samples))
            else:
                untraced_round(ctx, samples)
            rounds += 1
    samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    report = {"workload": workload, "rounds": rounds,
              "env": environment(root, seed),
              "attempted": ctx.attempted, "failed": len(ctx.failures),
              "failures": ctx.failures[:20],
              "samples": {k: summary(v) for k, v in samples.items()}}
    if trace:
        report["layers"] = {k: statistics.median([d[k] for d in layers])
                            for k in layers[0]}
        med = report["samples"]
        best = min(med[f"factor_s.{c}"]["median"] for c in ("mf", "ll", "rl"))
        report["layers"]["numeric.rlb_vs_best"] = med["factor_s.rlb"]["median"] / best
        report["layers"]["trace.kernel_wrap_us"] = 1e6 * ctx.wrap_s
        report["layers"]["trace.overhead_s"] = (med["trace.total_s"]["median"]
                                                - med["wall.total_s"]["median"])
        report["rlb_vs_best_base"] = {c: med[f"factor_s.{c}"]["median"]
                                      for c in ("mf", "ll", "rl", "rlb")}
    return report


def result_line(report: dict, trace: bool) -> dict:
    if trace:
        metrics = {name: {"value": report["layers"][name], "unit": unit}
                   for name, unit in per_layer_metrics()}
    else:
        metrics = {name: {"value": report["samples"][name]["median"], "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def print_report(report: dict, trace: bool) -> None:
    print(f"# workload={report['workload']} rounds={report['rounds']} "
          f"attempted={report['attempted']} failed={report['failed']} "
          f"error_rate={report['failed'] / report['attempted']:.6g}")
    print(f"# env {json.dumps(report['env'], sort_keys=True)}")
    for msg in report["failures"]:
        print(f"# FAIL {msg}")
    units = dict(END_TO_END)
    print(f"# end-to-end times are reference seconds: wall time x {REF_NOMINAL_S} s / "
          f"reference workload time (reference_s); wall.<metric> are the raw times")
    for name, s in sorted(report["samples"].items()):
        print(f"# {name:24s} median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g} "
              f"n={s['n']} {units.get(name, 's')}")
    if trace:
        L, med = report["layers"], report["samples"]
        for name, unit in per_layer_metrics():
            print(f"# layer {name:36s} {L[name]:.6g} {unit}")
        print(f"# rlb_vs_best base (untraced factor_s medians, reference seconds): "
              f"{json.dumps(report['rlb_vs_best_base'])}")
        setup_sum = sum(L[f"{s}_s"] for s in SETUP_SPANS if s != "symbolic") \
            + L["symbolic.other_s"]
        print(f"# accounting: setup self-times {setup_sum:.6g} s vs untraced wall "
              f"setup_s {med['wall.setup_s']['median']:.6g} s")
        for c in CONFIG_NAMES:
            kern = sum(L[f"kernels.{c}.{k}.s"] for k in kinds_used(c))
            parts = L["numeric.scatter_s"] + L[f"numeric.{c}.driver_s"] + kern
            print(f"# accounting: {c} scatter+driver+kernels {parts:.6g} s vs untraced "
                  f"wall factor_s.{c} {med[f'wall.factor_s.{c}']['median']:.6g} s")
        print(f"# accounting: numeric.solve_s {L['numeric.solve_s']:.6g} s vs untraced "
              f"wall solve_s {med['wall.solve_s']['median']:.6g} s")
    print(f"# report {json.dumps(report, sort_keys=True)}")
