"""Numeric phase: factor storage, update workspaces, the five factorization
methods and the supernodal triangular solves.

Methods
-------
ref   column-by-column left-looking algorithm with a length-n scatter vector;
      the oracle the supernodal methods are checked against
mf    multifrontal: postorder, children's update matrices popped off a stack,
      the first one extended in place into the square update matrix, each
      triangle moved by one flat-indexed copy or add
ll    left-looking supernodal with one scratch update matrix; an update that
      is dense with respect to its target goes straight into factor storage
rl    right-looking: one square update matrix per supernode, assembled into
      each ancestor it updates
rlb   right-looking blocked: dense blocks updated straight into ancestor
      panels by the kernel calls of ``S.rlb_schedule``, compiled once at
      analysis; no floating-point workspace, no assembly at all

Every method takes the same supernode steps, from ``kernels.supernode_calls``:
the Cholesky of the diagonal triangle and the triangular solve below it, as
``S.rlb_schedule.diag`` gives them, by address on ``F.data`` (checked once
per run).  mf, ll and rl make their syrk/gemm updates through the same
helper, by address on ``F.data`` and on the workspace arena (checked once
per run), at offsets from that table and ``S.update_table``.  Whatever
order a method factors in, a failure
names the first bad pivot in column order: each run ends with one NaN scan
of all pivots.  No method counts
call by call: each run adds the calls and flops the analysis predicts, and
the lower-triangle entries its updates add (``assembly_ops``).  Assembly is
priced in numpy calls: a slice-add costs about as much as K entries through
a flat index that each run builds once, in one vectorized pass
(``_pair_index``).  mf, ll and rl add each update into its targets through
``_assembler``: an ``S.update_table`` pair with more than K lower-trapezoid
entries per ``S.rlb_schedule`` row by one slice-add per rectangle of its
rows, the other pairs of one call (mf's pair with the parent, one ll slab,
all of one rl updater's pairs) by one scatter-add through the run's index of
their lower trapezoids.  mf's triangles of at most 3K entries take their
flat offsets in the update matrices from one more such index, larger ones
compute theirs (``_stack_offsets``).  ll's pairs whose updater is one column
wide take no kernel call: each subtracts its outer product by one
gather-multiply-subtract on ``F.data``, through a flat index of its own; its
dense pairs read their targets' offsets from lists made once per run.
rlb's schedule holds the whole factorization: per supernode, its diagonal
step and its updates.  rlb is the ``run()`` of the same helper, which
checks ``F.data`` once.  With a
backend that has no ``run_schedule`` (a logging or timing wrapper), the
helper makes every method's calls, rlb's ``run()`` too, through that
backend's four kernels on views.
The solve goes by address too, level by level of the supernodal tree
(``kernels.supernodal_solve``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .kernels import (KernelBackend, NotPositiveDefiniteError, final_pivot_scan, get_backend,
                      supernodal_solve, supernode_calls)
from .matrix import (Permutation, PermutationFileError, SymmetricSparseMatrix,
                     SymmetricSparsePattern, apply_symmetric_permutation, minimum_degree_order)
from .symbolic import (BuildOptions, SymbolicFactor, _ranges, _trap_nnz, build_symbolic_factor,
                       elimination_tree, symbolic_factorization)


class StructureError(ValueError):
    """A numeric entry does not fit the symbolic structure."""


class NonFiniteEntryError(ValueError):
    """A NaN or infinite ``value`` at (``row``, ``col``), 0-based;
    ``numbered`` counts them from another base."""

    def __init__(self, value: float, row: int, col: int):
        self.value, self.row, self.col = value, row, col
        super().__init__(self.numbered(0))

    def numbered(self, base: int) -> str:
        return f"non-finite entry {self.value} at ({self.row + base}, {self.col + base})"


class FactorStateError(RuntimeError):
    """Operation requires the factor storage in a different state."""


@dataclass
class RunStats:
    """Counters for one factorization run.  A supernodal method's ``calls``
    and ``flops`` are the analysis's prediction, added once per run (tests
    check them against the calls a logging backend sees); ``assembly_ops``
    and ``workspace_peak`` are measured as it runs."""

    method: str
    backend: str
    n: int
    wall_seconds: float = 0.0
    calls: dict = field(default_factory=lambda: {"potrf": 0, "trsm": 0, "syrk": 0, "gemm": 0})
    flops: int = 0
    factor_nnz: int = 0
    panel_storage: int = 0
    workspace_peak: int = 0
    assembly_ops: int = 0


class FactorStorage:
    """One dense column-major panel per supernode, concatenated in a single
    array.  Holds A's scattered entries (``state`` "A"), then L's nonzeros
    ("L"); a factorization that fails leaves it "partial", which nothing accepts."""

    def __init__(self, S: SymbolicFactor):
        self.S = S
        self.data = np.zeros(S.panel_storage)
        self.state = "A"

    def lower_csc(self) -> tuple:
        """The panels' lower-triangular entries as (colptr, rowind, values),
        the layout ``factor_reference`` returns.  Column c of supernode j
        keeps the panel's rows c and below: one range of ``data`` and one of
        the concatenated row lists per column."""
        S = self.S
        owner = S.col_to_snode
        c = np.arange(S.n, dtype=np.int64) - S.first_col[owner]
        g = S._lens[owner]
        count = g - c
        colptr = np.zeros(S.n + 1, dtype=np.int64)
        np.cumsum(count, out=colptr[1:])
        return (colptr, S._glbind.rows[_ranges(S._glbind.ptr[owner] + c, count)],
                self.data[_ranges(S.panel_offsets[owner] + c * g + c, count)])


def scatter_slots(pattern: SymmetricSparsePattern, S: SymbolicFactor) -> np.ndarray:
    """The offset in ``F.data`` of each stored entry of ``pattern``.  Raises
    StructureError naming the first entry, in column order, outside the
    factor structure."""
    if pattern.n != S.n:
        raise ValueError("matrix and symbolic factor dimensions differ")
    cols = np.repeat(np.arange(S.n, dtype=np.int64), np.diff(pattern.colptr))
    owner = S.col_to_snode[cols]
    pos = S.row_positions(owner, pattern.rowind)
    bad = np.flatnonzero(pos < 0)
    if bad.size:
        k = int(bad[0])
        raise StructureError(f"entry ({pattern.rowind[k]},{cols[k]}) of A is outside the "
                             "factor structure")
    return S.panel_offsets[owner] + (cols - S.first_col[owner]) * S._lens[owner] + pos


def scatter_into_factor(A: SymmetricSparseMatrix, S: SymbolicFactor) -> FactorStorage:
    """Scatter A's lower triangle into fresh panels; all other slots are zero.

    A must already carry the full ordering the symbolic factor was built for.
    """
    slots = scatter_slots(A.pattern, S)
    F = FactorStorage(S)
    F.data[slots] = A.values
    return F


class UpdateWorkspace:
    """Floating-point arena sized by the symbolic plan.  The blocked
    right-looking method never has one."""

    def __init__(self, S: SymbolicFactor, method: str):
        if method not in ("mf", "ll", "rl"):
            raise ValueError(f"method '{method}' takes no update workspace: "
                             "only mf, ll and rl take one")
        self.arena = np.zeros(int(getattr(S.plans, f"{method}_peak")))
        self.peak = 0

    def slab(self, rows: int, cols: int) -> np.ndarray:
        v = self.arena[:rows * cols].reshape((rows, cols), order="F")
        v[:] = 0.0
        self.peak = max(self.peak, rows * cols)
        return v


def _pivot_error(col: int, S: SymbolicFactor = None) -> NotPositiveDefiniteError:
    """The error for a failed pivot at column ``col`` of the factored matrix,
    with the supernode holding it when ``S`` is given."""
    where = ""
    if S is not None:
        j = int(S.col_to_snode[col])
        where = f" (supernode {j}, local {col - int(S.first_col[j])})"
    return NotPositiveDefiniteError(col, f"non-positive pivot at column {{}}{where}")


@contextmanager
def _supernodal_run(F: FactorStorage, S: SymbolicFactor, W: UpdateWorkspace | None,
                    stats: RunStats, updates: dict, assembled=slice(0)):
    """The frame of one supernodal factorization of F, which must hold A.  The
    run ends with one scan of all pivots for NaN; a failed pivot is named
    with its supernode; a run that fails leaves F partial.  On success F holds L, and ``stats`` gains the analysis's
    prediction: the diagonal steps' calls, ``updates`` (the method's update
    calls per kind), ``S.work_flops``, which every method does, and the lower
    triangles, c r - c (c - 1) / 2 entries each, of the ``S.update_table``
    pairs ``assembled`` selects; the workspace peak is W's, 0 without one."""
    if F.state != "A":
        raise FactorStateError("factor storage does not hold A")
    F.state = "partial"
    try:
        yield
        final_pivot_scan(F.data, S.rlb_schedule)
    except NotPositiveDefiniteError as e:
        raise _pivot_error(e.index, S) from None
    for kind, count in (S.rlb_schedule.diag_calls | updates).items():
        stats.calls[kind] += count
    stats.flops += S.work_flops
    c, r = S.update_table.c[assembled], S.update_table.r[assembled]
    stats.assembly_ops += int((c * r - c * (c - 1) // 2).sum())
    stats.workspace_peak = W.peak if W else 0
    F.state = "L"


# One slice-add of a schedule rectangle costs about as much as K entries
# through a flat index, built each run and scatter-added once.  Measured on
# the bench workloads' rl pairs (seed 0), every pair sent each way in turn,
# with numpy 2.4, one OpenBLAS thread, 2-core shared sandbox: a rectangle
# about 2.1-2.5 us in ``_assembler``'s loop, its build included, on grid2d
# and random, whose rectangles are a few entries; an entry about 27-29 ns on
# grid3d-nd and random, whose flat pairs are long enough to spread the
# scatter-add's own call.  K from 60 to 150 read the same within noise.
K = 80


def _by_rectangles(S: SymbolicFactor) -> np.ndarray:
    """The ``S.update_table`` pairs ``_assembler`` adds by their
    ``S.rlb_schedule`` rectangles, one slice-add each: those whose lower
    trapezoid holds more than K entries per rectangle.  The others are
    cheaper through the flat index."""
    T = S.update_table
    return _trap_nnz(T.c, T.r) > K * np.diff(S.rlb_schedule.pair_ptr)


def _assembler(F: FactorStorage, S: SymbolicFactor, assembled: np.ndarray, ld: np.ndarray):
    """``assemble(e0, e1, U)``: add U, the update matrix of the
    ``S.update_table`` pairs e0 to e1 - 1 of one updater, into their targets'
    panels, each entry of each pair's lower trapezoid once.  U has ``ld[e]``
    rows, column-major; pair e's r rows are its last, and its columns start
    at the same offset.  The method adds the pairs ``assembled`` selects.  A
    pair ``_by_rectangles`` selects adds each row's rectangle as one slice (a
    SYRK row the whole square: the strict upper triangle of U's square must
    be zero); the others' entries go in one scatter-add per call, through
    the run's ``_pair_index`` over their whole lower trapezoids: one
    updater's pairs have distinct targets, so no offset repeats within a
    call."""
    T, sched = S.update_table, S.rlb_schedule
    count = np.diff(sched.pair_ptr)
    by_rows = assembled & _by_rectangles(S)
    # the rectangles' rows, by pair, their operands as offsets into U
    first = np.repeat((S.panel_offsets[T.k] + S._lens[T.k] - ld)[by_rows], count[by_rows])
    rows = sched.rows[np.repeat(by_rows, count)]
    rects = np.column_stack([rows[:, 1:5], rows[:, 5] - first, rows[:, 6] - first]).tolist()
    rp = np.append(0, np.cumsum(count * by_rows)).tolist()
    dst, src, fp = _pair_index(S, assembled & ~by_rows, ld, np.zeros_like(T.c), T.c,
                               S.panel_offsets[T.p], S._lens[T.p])
    fp = fp.tolist()
    data, view, f8 = F.data, np.ndarray, F.data.dtype

    def assemble(e0: int, e1: int, U: np.ndarray) -> None:
        for c, ldc, m, n, x, y in rects[rp[e0]:rp[e1]]:
            C = view((m, n), f8, data, 8 * c, (8, 8 * ldc))
            C += U[x:x + m, y:y + n]
        a, b = fp[e0], fp[e1]
        if a < b:
            data[dst[a:b]] += U.ravel("F")[src[a:b]]
    return assemble


def _pair_index(S: SymbolicFactor, pairs: np.ndarray, ld: np.ndarray, t0: np.ndarray,
                t1: np.ndarray, base: np.ndarray, lead: np.ndarray) -> tuple:
    """``(dst, src, ptr)`` over the ``S.update_table`` pairs ``pairs``
    selects: columns ``t0[e]`` to ``t1[e] - 1`` of pair e's r-by-r lower
    triangle, entry by entry in packed column-major order, from ``ptr[e]`` to
    ``ptr[e + 1]``.  Entry (i, t) is at ``dst`` = base + lead pos[t] +
    pos[i], pos the pair's r positions in its target's row list, and at
    ``src`` = (d + i) + (d + t) w in a column-major matrix of w = ``ld[e]``
    rows, d = w - r.  One pass for all pairs: each column's part of both
    offsets once, then the entries by ``_runs`` into one buffer, which holds
    each entry's index into ``T.pos``, then its column's part of ``dst``,
    then ``src``: besides the two results, nothing of the entries' length."""
    T = S.update_table
    columns = ptr, col, t, count, at = _pair_columns(T, pairs, t0, t1)
    dst, buffer = _pair_dst(T, columns, base, lead)
    w, d = ld[col], ld[col] - T.r[col]
    return dst, _runs(buffer, (d + t) * (w + 1), count, at, 1), ptr


def _pair_columns(T, pairs: np.ndarray, t0: np.ndarray, t1: np.ndarray) -> tuple:
    """``(ptr, col, t, count, at)``: the columns ``t0[e]`` to ``t1[e] - 1``
    of the r-by-r lower triangles of the update table ``T``'s pairs ``pairs``
    selects, pair by pair, packed column-major: pair e's entries from
    ``ptr[e]`` to ``ptr[e + 1]``, and per column its pair, its index t, its
    r - t entries and its first entry's place."""
    size = np.where(pairs, _trap_nnz(t1, T.r) - _trap_nnz(t0, T.r), 0)
    ptr = np.zeros(size.size + 1, dtype=np.int64)
    np.cumsum(size, out=ptr[1:])
    e = np.flatnonzero(pairs)
    k = (t1 - t0)[e]
    col = e.repeat(k)
    t = _ranges(t0[e], k)
    count = T.r[col] - t
    return ptr, col, t, count, np.cumsum(count) - count


def _pair_dst(T, columns: tuple, base: np.ndarray, lead: np.ndarray) -> tuple:
    """``(dst, buffer)``: ``_pair_index``'s ``dst`` over the ``columns`` of
    ``_pair_columns``, and the buffer of the same length it filled on the
    way (each entry's index into ``T.pos``), free for the caller to refill."""
    ptr, col, t, count, at = columns
    first = T.at[col] + t  # the column's diagonal entry, as an index into T.pos
    buffer = _runs(np.empty(int(ptr[-1]), dtype=np.intp), first, count, at, 1)
    dst = T.pos.take(buffer)
    dst += _runs(buffer, base[col] + lead[col] * T.pos[first], count, at, 0)
    return dst, buffer


def _runs(out: np.ndarray, lo: np.ndarray, count: np.ndarray, at: np.ndarray,
          step: int) -> np.ndarray:
    """``out``, filled in place with one run per column c: lo[c], lo[c] +
    step, ..., ``count[c]`` >= 1 entries from ``out[at[c]]`` on, the runs
    back to back.  One cumulative sum of the steps."""
    out.fill(step)
    if at.size:
        out[0] = lo[0]
        out[at[1:]] = lo[1:] - lo[:-1] - step * (count[:-1] - 1)
    np.cumsum(out, out=out)
    return out


def _outer_updater(F: FactorStorage, S: SymbolicFactor, pairs: np.ndarray):
    """``outer(e)``: subtract v v^T, v the one column of pair e's updater
    at the pair's r rows, from the pair's lower trapezoid, for the
    ``S.update_table`` pairs ``pairs`` selects: one gather-multiply-subtract,
    entry (i, t) at ``_pair_index``'s ``dst`` less v[i] v[t].  The factors'
    offsets in ``F.data`` are filled column by column by ``_runs``, v[i] a
    run from v[t] (into ``_pair_dst``'s buffer) and v[t] repeated: one
    enumeration of the columns, and nothing else of the entries' length."""
    T = S.update_table
    columns = fp, col, t, count, at = _pair_columns(T, pairs, np.zeros_like(T.c), T.c)
    dst, vi = _pair_dst(T, columns, S.panel_offsets[T.p], S._lens[T.p])
    lo = (S.panel_offsets[T.k] + 1 + T.lo)[col] + t  # each column's v[t]
    _runs(vi, lo, count, at, 1)
    vt = _runs(np.empty_like(dst), lo, count, at, 0)
    fp, data = fp.tolist(), F.data

    def outer(e: int) -> None:
        a, b = fp[e], fp[e + 1]
        data[dst[a:b]] -= data[vi[a:b]] * data[vt[a:b]]
    return outer


# ---------------------------------------------------------------------------
# Reference column algorithm.

def factor_reference(A: SymmetricSparseMatrix, glb: list, stats: RunStats = None):
    """Left-looking column factorization through a length-n scatter vector.

    ``glb`` holds the per-column factor row lists (diagonal first).  Returns
    the factor as (colptr, rowind, values) in CSC layout.
    """
    n = A.n
    if stats is None:
        stats = RunStats("ref", "none", n)
    updaters = [[] for _ in range(n)]
    for k in range(n):
        for j in glb[k][1:]:
            updaters[int(j)].append(k)
    colptr = np.cumsum([0] + [g.size for g in glb], dtype=np.int64)
    rowind = np.concatenate(glb) if n else np.zeros(0, np.int64)
    values = np.zeros(int(colptr[-1]))
    t = np.zeros(n)
    for j in range(n):
        rows = glb[j]
        t[rows] = 0.0
        t[A.pattern.col(j)] = A.col_values(j)
        for k in updaters[j]:
            gk = glb[k]
            s = int(np.searchsorted(gk, j))
            seg = gk[s:]
            lv = values[colptr[k] + s:colptr[k + 1]]
            t[seg] -= lv * lv[0]
            stats.flops += 2 * seg.size
        col = t[rows]
        d = col[0]
        if not d > 0.0:
            raise _pivot_error(j)
        d = np.sqrt(d)
        col[0] = d
        col[1:] /= d
        stats.flops += rows.size  # one sqrt + (len-1) divisions
        values[colptr[j]:colptr[j + 1]] = col
    stats.factor_nnz = int(colptr[-1])
    return colptr, rowind, values


# ---------------------------------------------------------------------------
# Multifrontal.

def _stack_offsets(S: SymbolicFactor) -> tuple:
    """``(offsets, pack_offsets)``: the packed triangle supernode c pushes,
    entry (i, t) counted from the end, as flat offsets into a column-major
    square: ``offsets(c)`` into its parent's m-by-m update matrix, at the
    pushed rows' positions q there, q[i] + m q[t]; ``pack_offsets(c)`` into
    its own, the trailing triangle, (m + i) + m (m + t).  A triangle of at
    most 3K entries reads both from one index over the pairs with the
    parent, built once per run by ``_pair_index``; a larger one computes its
    own, a few calls that its many entries outweigh, from the last n(n+1)/2
    entries of one (i, t) list: the run's largest such triangle's, packed
    column-major, column t's w = n - t entries from i = -w to -1."""
    T = S.update_table
    a = np.diff(S.first_col)
    m = S._lens - a
    n = T.r - T.c  # the rows each pair's updater pushes, if the pair is with its parent
    small = (T.lo == 0) & (_trap_nnz(n, n) <= 3 * K)
    into, own, ptr = _pair_index(S, small, T.r, T.c, T.r, -a[T.p] * (1 + m[T.p]), m[T.p])
    w = np.arange(n[(T.lo == 0) & ~small].max(initial=0), 0, -1, dtype=np.int32)
    packed_t = np.repeat(-w, w)
    packed_i = np.arange(packed_t.size, dtype=np.int32)
    packed_i -= np.repeat(np.cumsum(w, dtype=np.int32), w)  # less each column's end
    up, at, cs, rs, ps = (x.tolist() for x in (T.ptr[:-1], T.at, T.c, T.r, T.p))
    a, m, small, ptr = a.tolist(), m.tolist(), small.tolist(), ptr.tolist()

    def packed(k: int) -> tuple:
        """(i, t) of a k-by-k triangle: the list's last k(k+1)/2 entries."""
        first = packed_t.size - k * (k + 1) // 2
        return packed_i[first:], packed_t[first:]

    def offsets(c: int) -> np.ndarray:
        e = up[c]
        if small[e]:
            return into[ptr[e]:ptr[e + 1]]
        p = ps[e]
        q = T.pos[at[e] + cs[e]:at[e] + rs[e]] - a[p]
        i, t = packed(q.size)
        o = q[t]
        o *= m[p]
        o += q[i]
        return o

    def pack_offsets(c: int) -> np.ndarray:
        e = up[c]
        if small[e]:
            return own[ptr[e]:ptr[e + 1]]
        mc = rs[e]
        i, t = packed(mc - cs[e])
        o = np.multiply(t, mc, dtype=np.intp)
        o += i
        o += mc + mc * mc
        return o
    return offsets, pack_offsets


def factor_mf(F: FactorStorage, S: SymbolicFactor, R, W: UpdateWorkspace,
              backend: KernelBackend, stats: RunStats) -> None:
    """Multifrontal factorization: one syrk per supernode with rows below
    into its square update matrix, whose columns in the parent are added
    there by ``_assembler`` at the updater's pair with its parent in
    ``S.update_table``; the rest is pushed as one packed triangle.  The
    square starts as the top child's triangle, extended in place; the other
    children's triangles are added into it.  Each extension, merge and push
    moves a whole triangle by one flat-indexed copy or add, at the offsets
    ``_stack_offsets`` gives.  ``R`` is not read; it stays for existing
    callers."""
    T = S.update_table
    up, cs = T.ptr.tolist(), T.c.tolist()  # up[j]: pair with parent
    diag, parent = S.rlb_schedule.diag.tolist(), S.snode_parent.tolist()
    arena = W.arena
    top = cap = arena.size
    tags = []
    push = S.plans.push_size
    # one syrk per supernode with rows below, as many as there are trsm steps
    with_parent = T.lo == 0
    with _supernodal_run(F, S, W, stats, {"syrk": S.rlb_schedule.diag_calls["trsm"]},
                         with_parent):
        step, syrk, _, _ = supernode_calls(backend, F.data, S.rlb_schedule, arena,
                                           S.plans.mf_peak)
        assemble = _assembler(F, S, with_parent, T.lo + T.r)
        offsets, pack_offsets = _stack_offsets(S)
        for j in S.plans.mf_postorder.tolist():
            p, ld, a, _ = diag[j]
            m = ld - a
            sq = None  # j's square update matrix, flat
            # in postorder, the children that pushed are the stack's top entries
            while tags and parent[tags[-1][0]] == j:
                c, u_c = tags.pop()
                if sq is None:
                    # extension is a scatter-copy, not a scatter-add: no assembly count
                    sq_off = top + u_c - m * m
                    packed = arena[top:top + u_c].copy()  # the square may overlap it
                    sq = arena[sq_off:sq_off + m * m]
                    sq[:] = 0.0
                    sq[offsets(c)] = packed
                else:
                    sq[offsets(c)] += arena[top:top + u_c]
                    stats.assembly_ops += u_c
                top += u_c
            step(j)
            if m == 0:
                # only roots have no rows below, and the stack must drain per root
                assert parent[j] < 0 and not tags
                continue
            if sq is None:
                sq_off = top - m * m
                sq = arena[sq_off:top]
                sq[:] = 0.0
            if sq_off < 0:
                raise RuntimeError("update-matrix stack overflows its arena")
            W.peak = max(W.peak, cap - sq_off)
            syrk(arena, sq_off, m, m, p + a, ld, a)
            assemble(up[j], up[j] + 1, sq.reshape((m, m), order="F"))
            k = cs[up[j]]
            u_j = (m - k) * (m - k + 1) // 2
            assert u_j == push[j], "runtime push size disagrees with the plan"
            if u_j:
                top -= u_j
                arena[top:top + u_j] = sq[pack_offsets(j)]  # a gather: it copies
                tags.append((j, u_j))
        assert not tags and top == cap, "update-matrix stack not empty at exit"


# ---------------------------------------------------------------------------
# Left-looking supernodal.

def factor_ll(F: FactorStorage, S: SymbolicFactor, W: UpdateWorkspace,
              backend: KernelBackend, stats: RunStats) -> None:
    """Left-looking factorization: supernode j first takes the updates of
    ``S.update_table``'s pairs into j.  A pair whose updater is one column
    v wide subtracts v v^T over its r-by-c trapezoid by one
    gather-multiply-subtract on ``F.data`` (``_outer_updater``); every other
    pair is one syrk, and one gemm where it has rows below its target's
    columns, straight into j's panel where the pair is dense, else into the
    slab, which ``_assembler`` adds into the panel.  Both index their
    pairs' trapezoids once per run each (``_pair_columns``)."""
    T = S.update_table
    ks, los, cs, rs, dense = (x.tolist() for x in (T.k, T.lo, T.c, T.r, T.dense))
    into, ptr = T.by_target.tolist(), T.target_ptr.tolist()
    diag = S.rlb_schedule.diag
    wide = diag[T.k, 2] > 1
    updates = {"syrk": int(np.count_nonzero(wide)),
               "gemm": int(np.count_nonzero(wide & (T.r > T.c)))}
    steps = diag.tolist()
    # a dense pair's syrk and gemm targets in F.data: its first row in the
    # target's columns, and its first row below them (where it has one)
    p0, below = T.pos[T.at], T.pos[np.where(T.r > T.c, T.at + T.c, T.at)]
    col = S.panel_offsets[T.p] + p0 * S._lens[T.p]  # the pair's first column
    syrk_at, gemm_at = (col + p0).tolist(), (col + below).tolist()
    with _supernodal_run(F, S, W, stats, updates, ~(wide & T.dense)):
        step, syrk, gemm, _ = supernode_calls(backend, F.data, S.rlb_schedule, W.arena,
                                              S.plans.ll_peak)
        assemble, outer = _assembler(F, S, wide & ~T.dense, T.r), _outer_updater(F, S, ~wide)
        for j, (_, ld_j, _, _) in enumerate(steps):
            for e in into[ptr[j]:ptr[j + 1]]:
                k, c, r = ks[e], cs[e], rs[e]
                pk_at, ld, a, _ = steps[k]
                if a == 1:
                    outer(e)
                    continue
                x = pk_at + a + los[e]  # the pair's r rows of k's panel, Y its first c
                if dense[e]:
                    syrk(F.data, syrk_at[e], ld_j, c, x, ld, a)
                    if r > c:
                        gemm(F.data, gemm_at[e], ld_j, r - c, c, x + c, x, ld, a)
                else:
                    U = W.slab(r, c)
                    syrk(W.arena, 0, r, c, x, ld, a)
                    if r > c:
                        gemm(W.arena, c, r, r - c, c, x + c, x, ld, a)
                    assemble(e, e + 1, U)
            step(j)


# ---------------------------------------------------------------------------
# Right-looking supernodal.

def factor_rl(F: FactorStorage, S: SymbolicFactor, R, W: UpdateWorkspace,
              backend: KernelBackend, stats: RunStats) -> None:
    """Right-looking factorization: each update matrix, one syrk per
    supernode with rows below, is added into every target of its
    ``S.update_table`` pairs by ``_assembler``.  ``R`` is not read; it stays
    for existing callers."""
    T = S.update_table
    up, every = T.ptr.tolist(), np.ones(T.k.size, dtype=bool)
    with _supernodal_run(F, S, W, stats, {"syrk": S.rlb_schedule.diag_calls["trsm"]}, every):
        step, syrk, _, _ = supernode_calls(backend, F.data, S.rlb_schedule, W.arena,
                                           S.plans.rl_peak)
        assemble = _assembler(F, S, every, T.lo + T.r)
        for j, (p, ld, a, _) in enumerate(S.rlb_schedule.diag.tolist()):
            step(j)
            if ld == a:
                continue
            m = ld - a
            U = W.slab(m, m)
            syrk(W.arena, 0, m, m, p + a, ld, a)
            assemble(up[j], up[j + 1], U)


# ---------------------------------------------------------------------------
# Right-looking blocked.

def factor_rlb(F: FactorStorage, S: SymbolicFactor, R, backend: KernelBackend,
               stats: RunStats) -> None:
    """Blocked right-looking factorization: ``S.rlb_schedule`` factors each
    supernode's columns in its panel, then makes every update as a dense
    kernel call straight into an ancestor panel.  It is the ``run()`` of
    ``supernode_calls``, by address on a library backend, else on views
    through the backend's four kernels; the update calls counted are the
    schedule's rows.  No floating-point workspace exists and the assembly
    counter stays at zero by construction.  ``R`` is not used; the
    parameter stays so that existing callers keep working."""
    schedule = S.rlb_schedule
    with _supernodal_run(F, S, None, stats, schedule.calls):
        supernode_calls(backend, F.data, schedule)[3]()


# ---------------------------------------------------------------------------
# Triangular solves.

def solve(F: FactorStorage, S: SymbolicFactor, b) -> np.ndarray:
    """Solve L L^T x = b by supernodal forward and backward substitution,
    level by level of the supernodal tree (``S.solve_plan``), on x, a copy of
    b: per supernode and direction one ``dtrsv`` against its diagonal block
    and one ``dgemv`` with the panel rows below it, and per level one scatter
    (forward) or gather (backward) of x at the level's rows, by address on
    ``F.data`` (``kernels.supernodal_solve``).  It uses no kernel backend, so
    factors from either backend are solved the same way.  ``b`` may be any
    array-like of length n; a wrong length raises ValueError."""
    if F.state != "L":
        raise FactorStateError("factor storage does not hold L; factor first")
    x = np.array(b, dtype=np.float64)
    if x.shape != (S.n,):
        got = f"length {x.shape[0]}" if x.ndim == 1 else f"shape {x.shape}"
        raise ValueError(f"right-hand side has {got}, expected length {S.n}")
    supernodal_solve(F.data, S.rlb_schedule, S.solve_plan, x)
    return x


# ---------------------------------------------------------------------------
# Driver.

METHODS = ("ref", "mf", "ll", "rl", "rlb")


@dataclass
class RunOptions:
    method: str = "rlb"
    backend: str = "reference"
    ordering: str = "mindeg"  # natural | mindeg | file:<path>
    pr: bool = True
    merge_cap: float | None = 12.5


@dataclass
class FactorizationResult:
    stats: RunStats
    A_factored: SymmetricSparseMatrix  # the permuted matrix the method saw
    perm_total: Permutation
    S: SymbolicFactor = None
    F: FactorStorage = None
    ref_factor: tuple = None  # (colptr, rowind, values) for method "ref"

    def factor_csc(self) -> tuple:
        """The factor's lower triangle as (colptr, rowind, values)."""
        return self.ref_factor if self.F is None else self.F.lower_csc()

    def solve(self, b) -> np.ndarray:
        if self.F is None:
            raise FactorStateError("solve is available for the supernodal methods")
        return solve(self.F, self.S, b)


def ordering_permutation(A: SymmetricSparseMatrix, spec: str) -> Permutation:
    if spec == "natural":
        return Permutation.identity(A.n)
    if spec == "mindeg":
        return minimum_degree_order(A.pattern)
    if spec.startswith("file:"):
        P = Permutation.from_file(spec[5:])
        if P.n != A.n:
            raise PermutationFileError(f"{spec[5:]}: permutation is for n={P.n}, "
                                       f"matrix has n={A.n}")
        return P
    raise ValueError(f"unknown ordering '{spec}'")


def _check_entries(A: SymmetricSparseMatrix) -> None:
    """Reject a non-finite value (NonFiniteEntryError) or a diagonal entry that
    is missing or not positive (NotPositiveDefiniteError), naming it in A's
    own numbering."""
    bad = np.flatnonzero(~np.isfinite(A.values))
    if bad.size:
        k = int(bad[0])
        j = int(np.searchsorted(A.pattern.colptr, k, side="right")) - 1
        raise NonFiniteEntryError(A.values[k], int(A.pattern.rowind[k]), j)
    bad = np.flatnonzero(~(A.diagonal() > 0.0))
    if bad.size:
        j = int(bad[0])
        what = "is missing" if A.missing_diag[j] else "is not positive"
        raise NotPositiveDefiniteError(j, f"diagonal entry {{}} {what}")


@dataclass(frozen=True)
class Analysis:
    """What every method factors from, derived once by ``analyze``: the
    ordering ``p_order``, the ordered matrix ``A1`` (what ``ref`` factors), the
    symbolic factor ``S``, ``A2`` (``A1`` relabelled by ``S``, what the
    supernodal methods factor) and the offset in ``F.data`` of each stored
    entry of ``A2``."""

    p_order: Permutation
    A1: SymmetricSparseMatrix
    S: SymbolicFactor
    A2: SymmetricSparseMatrix
    slots: np.ndarray

    @cached_property
    def _ref_rows(self) -> list:
        """``ref``'s per-column row lists of ``A1``, derived on its first run."""
        return symbolic_factorization(self.A1.pattern, elimination_tree(self.A1.pattern))

    def factor(self, method: str = "rlb", backend: str = "reference") -> FactorizationResult:
        """Factor fresh panels with one method, timing only the numeric
        factorization.  A failed pivot raises NotPositiveDefiniteError naming
        its column in the analyzed matrix's numbering."""
        if method not in METHODS:
            raise ValueError(f"unknown method '{method}'")
        backend = get_backend(backend)
        if method == "ref":
            S = F = None
            glb = self._ref_rows
            result = FactorizationResult(RunStats("ref", "none", self.A1.n), self.A1, self.p_order)
        else:
            S, F = self.S, FactorStorage(self.S)
            F.data[self.slots] = self.A2.values
            W = UpdateWorkspace(S, method) if method in ("mf", "ll", "rl") else None
            stats = RunStats(method, backend.name, S.n,
                             factor_nnz=S.factor_nnz, panel_storage=S.panel_storage)
            result = FactorizationResult(stats, self.A2, self.p_order.compose(S.relabel), S, F)
        stats = result.stats
        t0 = time.perf_counter()
        try:
            if method == "ref":
                result.ref_factor = factor_reference(self.A1, glb, stats)
            elif method == "mf":
                factor_mf(F, S, None, W, backend, stats)
            elif method == "ll":
                factor_ll(F, S, W, backend, stats)
            elif method == "rl":
                factor_rl(F, S, None, W, backend, stats)
            else:
                factor_rlb(F, S, None, backend, stats)
        except NotPositiveDefiniteError as e:  # the column in the input's numbering
            raise NotPositiveDefiniteError(int(result.perm_total.inv[e.index]),
                                           e.template) from None
        stats.wall_seconds = time.perf_counter() - t0
        return result


def analyze(A: SymmetricSparseMatrix, ordering: str = "mindeg", merge_cap: float | None = 12.5,
            pr: bool = True) -> Analysis:
    """Check A's entries, order it, build the symbolic factor and map A's entries
    to panel slots.  A non-finite entry raises NonFiniteEntryError, a missing or
    non-positive diagonal NotPositiveDefiniteError, named in A's numbering."""
    _check_entries(A)
    p_order = ordering_permutation(A, ordering)
    A1 = apply_symmetric_permutation(A, p_order)
    S = build_symbolic_factor(A1.pattern, BuildOptions(merge_cap, pr))
    A2 = apply_symmetric_permutation(A1, S.relabel)
    return Analysis(p_order, A1, S, A2, scatter_slots(A2.pattern, S))


def run_factorization(A: SymmetricSparseMatrix, opts: RunOptions) -> FactorizationResult:
    """``analyze`` A, then factor it with ``opts.method``."""
    if opts.method not in METHODS:
        raise ValueError(f"unknown method '{opts.method}'")
    return analyze(A, opts.ordering, opts.merge_cap, opts.pr).factor(opts.method, opts.backend)


def column_factor(A: SymmetricSparseMatrix) -> tuple:
    """The column algorithm's factor of A as (colptr, rowind, values)."""
    return factor_reference(A, symbolic_factorization(A.pattern, elimination_tree(A.pattern)))


def deviation_from_reference(result: FactorizationResult, ref: tuple = None) -> float:
    """Max-norm relative deviation of a factor from ``ref``, the column
    algorithm's factor of the same permuted matrix (computed here when not
    given), compared entry by entry in CSC form: an entry only one side holds
    counts against a zero on the other."""
    n = result.A_factored.n
    if ref is None:
        ref = column_factor(result.A_factored)
    got = result.factor_csc()

    def keys(csc):
        colptr, rowind, _ = csc
        return np.repeat(np.arange(n, dtype=np.int64), np.diff(colptr)) * n + rowind

    _, slot = np.unique(np.concatenate([keys(got), keys(ref)]), return_inverse=True)
    diff = np.bincount(slot, weights=np.concatenate([got[2], -ref[2]]))
    scale = max(1.0, float(np.abs(ref[2]).max(initial=0.0)))
    return float(np.abs(diff).max(initial=0.0)) / scale
