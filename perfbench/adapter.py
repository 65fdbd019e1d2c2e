"""Every call the benchmark makes into the ``snchol`` package.

The rest of the benchmark times these functions from outside and never
imports the package itself, so a change to the package's API touches this
file only.  Tracing wraps the package's own functions for the duration of a
``with traced(...)`` block and restores them on exit.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import snchol
from snchol import kernels, numeric, reorder, symbolic

# (config name, method, kernel backend); "rlb-vendor" is where kernel-backend
# work shows.
CONFIGS = (("mf", "mf", "reference"), ("ll", "ll", "reference"),
           ("rl", "rl", "reference"), ("rlb", "rlb", "reference"),
           ("rlb-vendor", "rlb", "vendor"))
KINDS = ("potrf", "trsm", "syrk", "gemm")
BUILD = snchol.BuildOptions(merge_cap=12.5, pr=True)


def backends() -> dict:
    """Config name -> kernel backend, created once per run."""
    return {name: snchol.get_backend(be) for name, _, be in CONFIGS}


# -- matrix layer -----------------------------------------------------------

def read(path):
    return snchol.read_matrix_market(str(path))


def order(A, ordering: str):
    """``mindeg`` or ``file:<path>``, as the package's driver accepts them."""
    if ordering == "mindeg":
        return snchol.minimum_degree_order(A.pattern)
    return snchol.Permutation.from_file(ordering[len("file:"):])


def permute(A, P):
    return snchol.apply_symmetric_permutation(A, P)


# -- symbolic layer ----------------------------------------------------------

def analyze(A1):
    return snchol.build_symbolic_factor(A1.pattern, BUILD)


def relabel(A1, S):
    return snchol.apply_symmetric_permutation(A1, S.relabel)


def symbolic_size(S) -> tuple:
    return int(S.nsuper), int(S.factor_nnz)


def block_count(S) -> int:
    return int(sum(S.nblocks(j) for j in range(S.nsuper)))


# -- numeric layer -----------------------------------------------------------

@dataclass
class Factored:
    """One factorization by the layered path: its panels and counters."""

    config: str
    F: object
    stats: object


def workspace(S, method: str) -> tuple:
    """Relative index map and update workspace, built outside the timed part."""
    R = snchol.RelativeIndexMap(S) if method in ("mf", "rl", "rlb") else None
    W = snchol.UpdateWorkspace(S, method) if method in ("mf", "ll", "rl") else None
    return R, W


def new_stats(method: str, backend, S):
    return snchol.RunStats(method, backend.name, S.n, factor_nnz=S.factor_nnz,
                           panel_storage=S.panel_storage)


def scatter(A2, S):
    return snchol.scatter_into_factor(A2, S)


def factor(method: str, F, S, R, W, backend, stats) -> None:
    if method == "mf":
        snchol.factor_mf(F, S, R, W, backend, stats)
    elif method == "ll":
        snchol.factor_ll(F, S, W, backend, stats)
    elif method == "rl":
        snchol.factor_rl(F, S, R, W, backend, stats)
    else:
        snchol.factor_rlb(F, S, R, backend, stats)


def solve(F, S, b: np.ndarray) -> np.ndarray:
    return snchol.solve(F, S, b)


def panels(F) -> np.ndarray:
    return F.data


def counters(stats) -> dict:
    return {"calls": dict(stats.calls), "flops": int(stats.flops),
            "factor_nnz": int(stats.factor_nnz),
            "assembly_ops": int(stats.assembly_ops),
            "workspace_peak": int(stats.workspace_peak)}


def csc_lower(A) -> tuple:
    """(colptr, rowind, values) of A's lower triangle, diagonal first per column."""
    return A.pattern.colptr, A.pattern.rowind, A.values


# -- the package's own driver --------------------------------------------------

def run_driver(A, method: str, backend: str, ordering: str):
    """``run_factorization`` with the same options the layered path uses."""
    return snchol.run_factorization(
        A, snchol.RunOptions(method=method, backend=backend, ordering=ordering,
                             pr=BUILD.pr, merge_cap=BUILD.merge_cap))


def driver_solve(result, b: np.ndarray) -> np.ndarray:
    """Solve A x = b in the original numbering through the driver's result."""
    P = result.perm_total
    return result.solve(b[P.inv])[P.perm]


def driver_stats(result):
    return result.stats


# -- tracing ----------------------------------------------------------------------

def _bytes(kind: str, shapes: tuple) -> int:
    """Bytes a kernel call reads and writes, computed from its operand shapes:
    triangles count half, and the updated operand is read and written."""
    if kind == "potrf":
        (m,) = shapes
        return 8 * m * (m + 1)
    if kind == "trsm":
        rows, m = shapes
        return 8 * (m * (m + 1) // 2 + 2 * rows * m)
    if kind == "syrk":
        m, k = shapes
        return 8 * (m * k + m * (m + 1))
    rows, cols, k = shapes
    return 8 * ((rows + cols) * k + 2 * rows * cols)


class KernelTally:
    """Per kind, one (seconds, first operand shape, last operand shape) entry
    per kernel call; the shapes give model flops and computed bytes."""

    def __init__(self):
        self.log = {k: [] for k in KINDS}

    def calls(self, kind: str) -> int:
        return len(self.log[kind])

    def seconds(self, kind: str) -> float:
        return sum(e[0] for e in self.log[kind])

    def total_seconds(self) -> float:
        return sum(self.seconds(k) for k in KINDS)

    def flops(self, kind: str) -> int:
        return sum(_FLOPS[kind](*_sizes(kind, a, z)) for _, a, z in self.log[kind])

    def bytes(self, kind: str) -> int:
        return sum(_bytes(kind, _sizes(kind, a, z)) for _, a, z in self.log[kind])


def _sizes(kind: str, first: tuple, last: tuple) -> tuple:
    """Flop-model arguments from the shapes of a call's first and last operand:
    potrf(T), trsm(T, B), syrk(C, X), gemm(C, X, Y)."""
    if kind == "potrf":
        return (first[0],)
    if kind == "trsm":
        return last[0], first[0]
    if kind == "syrk":
        return first[0], last[1]
    return first[0], first[1], last[1]


_FLOPS = {"potrf": kernels.potrf_flops, "trsm": kernels.trsm_flops,
          "syrk": kernels.syrk_flops, "gemm": kernels.gemm_flops}


def timed_backend(base, tally: KernelTally):
    """A KernelBackend that times every call of ``base`` into ``tally``.
    Operands are the numpy panel views the factorizations pass."""
    clock = time.perf_counter

    def wrap(kind, fn):
        log = tally.log[kind]

        def call(*args):
            t0 = clock()
            fn(*args)
            log.append((clock() - t0, args[0].shape, args[-1].shape))
        return call

    return snchol.KernelBackend(base.name, wrap("potrf", base.chol), wrap("trsm", base.trsm),
                                wrap("syrk", base.syrk), wrap("gemm", base.gemm))


def wrapper_overhead(calls: int = 20000) -> float:
    """Seconds per call that ``timed_backend`` adds outside the interval it
    records, measured against a direct call of a kernel that does nothing."""
    def noop(*args):
        pass

    x = np.zeros((1, 1))
    plain = snchol.KernelBackend("noop", noop, noop, noop, noop)
    tally = KernelTally()
    timed = timed_backend(plain, tally)
    best = float("inf")
    for _ in range(3):
        tally.log["gemm"].clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            plain.gemm(x, x, x)
        t1 = time.perf_counter()
        for _ in range(calls):
            timed.gemm(x, x, x)
        t2 = time.perf_counter()
        best = min(best, (t2 - t1) - (t1 - t0) - tally.seconds("gemm"))
    return max(best, 0.0) / calls


@dataclass
class SymbolicCounts:
    """What the traced symbolic wrappers saw: how many SymbolicFactor builds
    ran, and the factor partition refinement started from."""

    builds: int = 0
    unreordered: object = None


# Functions build_symbolic_factor looks up at call time, with their span names.
_SYMBOLIC_SPANS = ((symbolic, "elimination_tree", "symbolic.etree"),
                   (symbolic, "symbolic_factorization", "symbolic.colstruct"),
                   (symbolic, "fundamental_supernodes", "symbolic.supernodes"),
                   (symbolic, "merge_supernodes", "symbolic.merge"))


@contextmanager
def traced(span, counts: SymbolicCounts, tally: KernelTally):
    """Wrap the package's symbolic steps in spans, and the backends that
    ``run_factorization`` creates in ``timed_backend``, until the block exits.

    ``span(name)`` must return a context manager that records one span.
    """
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in _SYMBOLIC_SPANS]
    saved += [(reorder, "reorder_within_supernodes", reorder.reorder_within_supernodes),
              (symbolic.SymbolicFactor, "__init__", symbolic.SymbolicFactor.__init__),
              (numeric, "get_backend", numeric.get_backend)]
    reorder_fn, init_fn, get_backend_fn = (fn for _, _, fn in saved[-3:])

    def spanned(name, fn):
        def call(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)
        return call

    def reorder_within(S):
        counts.unreordered = S
        with span("reorder.pr"):
            return reorder_fn(S)

    def init(self, *args, **kwargs):
        counts.builds += 1
        with span("symbolic.build"):
            init_fn(self, *args, **kwargs)

    try:
        for (mod, attr, fn), (_, _, name) in zip(saved, _SYMBOLIC_SPANS):
            setattr(mod, attr, spanned(name, fn))
        reorder.reorder_within_supernodes = reorder_within
        symbolic.SymbolicFactor.__init__ = init
        numeric.get_backend = lambda name: timed_backend(get_backend_fn(name), tally)
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
