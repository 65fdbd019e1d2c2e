"""Symbolic analysis for supernodal sparse Cholesky.

Everything that can be computed from the pattern alone: the elimination tree,
fundamental supernodes with their row lists, supernode merging under a
storage-growth cap, a stack-minimizing sibling order for the multifrontal
schedule, dense-block lists, the update table, workspace size plans for each
factorization method, the ``rlb`` call schedule and the solve's levels.

A supernode partition travels as its first columns (sentinel n included) plus
one row list per supernode.  ``fundamental_supernodes`` finds both on the
postordered pattern from the leaves of the row subtrees, without per-column
structures; ``merge_supernodes`` returns them relabelled and merged; and
``SymbolicFactor`` derives the column owners and the supernodal tree from the
two.  The per-column structures (``symbolic_factorization``) serve only the
column algorithm ``ref`` and the tests.

Where an updater's rows sit in a target's row list is found once, for every
(updater, target) pair, by one key search: ``SymbolicFactor.update_table``.
The plans, the ``rlb`` schedule and the methods mf, ll and rl all read it.
The pairs come from one grouping of the below-diagonal rows by updater and
owner, which the within-supernode reorder reads too.

The table also splits each pair's positions into runs: maximal stretches of
consecutive positions, cut as well where the rows leave the target's columns.
That one description gives the rest.  The runs inside the target's columns
are the updater's dense blocks; a pair is dense when it has one run there and
at most one below; and ``rlb`` makes one call per block and later run of the
block's pair.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernels import GEMM, SYRK, CallSchedule, potrf_flops, syrk_flops, trsm_flops
from .matrix import Permutation, SymmetricSparsePattern


@dataclass(frozen=True)
class EliminationTree:
    """Column elimination forest: parent[j] = -1 marks a root."""

    parent: np.ndarray
    postorder: np.ndarray

    @property
    def n(self) -> int:
        return self.parent.size


def _lower_by_row(pattern: SymmetricSparsePattern, perm: np.ndarray) -> tuple:
    """Rows and columns of the pattern's strictly-lower entries, relabelled by
    ``perm`` (old label to new, keeping every entry below the diagonal, as a
    postorder of the elimination tree does), sorted by row, then column."""
    cols = np.repeat(np.arange(pattern.n, dtype=np.int64), np.diff(pattern.colptr))
    offd = pattern.rowind != cols
    r, c = perm[pattern.rowind[offd]], perm[cols[offd]]
    order = np.argsort(r * pattern.n + c)
    return r[order], c[order]


def elimination_tree(pattern: SymmetricSparsePattern) -> EliminationTree:
    """Column elimination tree via path-compressed ancestor links, without
    forming the factor."""
    n = pattern.n
    r, c = _lower_by_row(pattern, np.arange(n, dtype=np.int64))
    parent = [-1] * n
    anc = [-1] * n
    for j, i in zip(r.tolist(), c.tolist()):
        a = anc[i]
        while a != -1 and a != j:
            anc[i] = j
            i = a
            a = anc[i]
        if a == -1:
            anc[i] = j
            parent[i] = j
    parent = np.asarray(parent, dtype=np.int64)
    return EliminationTree(parent, _postorder(parent, np.argsort(parent, kind="stable")))


def postorder_relabel(tree: EliminationTree):
    """The permutation numbering ``tree``'s columns in its postorder, and the
    tree under that numbering.  A postorder is an equivalent reordering, so the
    relabelled tree is the elimination tree of the permuted pattern; its own
    postorder is the identity."""
    P = Permutation(np.argsort(tree.postorder, kind="stable"))
    old_parent = tree.parent[P.inv]
    parent = np.where(old_parent >= 0, P.perm[old_parent], -1)
    return P, EliminationTree(parent, np.arange(tree.n, dtype=np.int64))


def _child_index(parent: np.ndarray) -> tuple:
    """Each node's children, ascending, as ``kids[ptr[j]:ptr[j + 1]]`` (the
    nodes with a negative parent first), by one stable argsort of ``parent``."""
    kids = np.argsort(parent, kind="stable")
    return kids, np.searchsorted(parent[kids], np.arange(parent.size + 1))


def _postorder(parent: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Postorder of a forest whose parents have larger ids than their
    children, -1 marking a root and -2 a node left out.  ``order`` lists the
    nodes grouped by parent, the roots first, each group in visiting order.
    A node's place is its parent's subtree start, plus the sizes of its
    earlier siblings, plus its own size, less one."""
    order = order[parent[order] >= -1]
    up, size = parent.tolist(), [1] * parent.size
    for j, p in enumerate(up):  # children precede their parents
        if p >= 0:
            size[p] += size[j]
    sz = np.asarray(size, dtype=np.int64)[order]
    before = np.cumsum(sz) - sz
    lead = np.flatnonzero(np.diff(parent[order], prepend=-3))  # where each group starts
    start = np.zeros(parent.size, dtype=np.int64)
    start[order] = before - np.repeat(before[lead], np.diff(lead, append=order.size))
    start = start.tolist()
    for j in range(parent.size - 1, -1, -1):  # parents precede their children
        if up[j] >= 0:
            start[j] += start[up[j]]
    return order[np.argsort(np.asarray(start, dtype=np.int64)[order] + sz)]


def symbolic_factorization(pattern: SymmetricSparsePattern, tree: EliminationTree) -> list:
    """Per-column factor row lists: glb[j] lists the rows of column j of L,
    ascending, diagonal first, merged column by column from the children's
    lists.  The column algorithm ``ref`` and the tests use it; the supernodal
    build forms its row lists once per supernode instead
    (``fundamental_supernodes``)."""
    n = pattern.n
    glb = [None] * n
    kids, ptr = (a.tolist() for a in _child_index(tree.parent))
    for j in range(n):
        pieces = [pattern.col(j)]
        pieces.extend(glb[c][1:] for c in kids[ptr[j]:ptr[j + 1]])
        glb[j] = np.unique(np.concatenate(pieces)) if len(pieces) > 1 else pattern.col(j).copy()
    return glb


class RowLists(Sequence):
    """Row lists as views of one flat array: list s is ``rows[ptr[s]:ptr[s + 1]]``."""

    def __init__(self, rows: np.ndarray, ptr: np.ndarray):
        self.rows, self.ptr, self._at = rows, ptr, ptr.tolist()

    def __len__(self) -> int:
        return len(self._at) - 1

    def __getitem__(self, s: int) -> np.ndarray:
        s = range(len(self))[s]
        return self.rows[self._at[s]:self._at[s + 1]]


def _supernodal_tree(first_col: np.ndarray, rows: RowLists) -> tuple:
    """Column owners and supernode parents of a partition (first columns,
    sentinel n included) with each supernode's row list: a supernode's parent
    owns its first row below the diagonal, and a root has none (-1)."""
    widths = np.diff(first_col)
    owner = np.repeat(np.arange(widths.size, dtype=np.int64), widths)
    at = rows.ptr[:-1] + widths  # where each list's first row below would be
    below = at < rows.ptr[1:]
    return owner, np.where(below, owner[rows.rows[np.where(below, at, 0)]], -1)


def fundamental_supernodes(lower: tuple, tree: EliminationTree) -> tuple:
    """Fundamental supernodes of a pattern whose elimination tree ``tree`` is
    postordered, from the rows and columns of its strictly-lower entries
    sorted by row, then column (``_lower_by_row``): (first_col, rows), where
    first_col holds each supernode's first column followed by the sentinel n,
    and rows[s] is the row list of supernode s's first column (its own
    columns, then the rows below them).  Raises ValueError if the tree is not
    postordered.

    Column j-1 joins j when j is its parent and only child, and j is a leaf of
    no row subtree (Liu, Ng & Peyton): then column j-1's structure is column
    j's plus j-1.  Entry (i, k) of A is a leaf of row i's subtree when no
    earlier entry of row i lies in k's subtree, that is when the previous
    column of row i is below k's first descendant (Gilbert, Ng & Peyton).

    Row i is below supernode s exactly when s lies on the path from an entry
    (i, k) up to i.  Taken by column, each entry's path need only climb until
    a supernode's subtree holds the previous entry of row i, whose path goes
    on from there, so one climb of the supernodal tree finds each (s, i) once."""
    n = tree.n
    if not np.array_equal(tree.postorder, np.arange(n)):
        raise ValueError("the elimination tree is not postordered")
    parent = tree.parent
    first_desc = np.arange(n)  # each column's first child, then its first descendant
    np.minimum.at(first_desc, parent[parent >= 0], np.flatnonzero(parent >= 0))
    while (first_desc[first_desc] != first_desc).any():
        first_desc = first_desc[first_desc]
    i, k = lower
    prev = np.where(np.diff(i, prepend=-1) == 0, np.roll(k, 1), -1)  # in the same row, or -1
    leaf_col = np.zeros(n, dtype=bool)
    leaf_col[k[first_desc[k] > prev]] = True
    nkids = np.bincount(parent[parent >= 0], minlength=n)
    joined = (parent[:-1] == np.arange(1, n)) & (nkids[1:] == 1) & ~leaf_col[1:]
    first_col = np.concatenate([[0], np.flatnonzero(~joined) + 1, [n]]) if n else np.zeros(1, np.int64)

    ns = first_col.size - 1
    owner = np.repeat(np.arange(ns, dtype=np.int64), np.diff(first_col))
    last = first_col[1:] - 1
    up = parent[last]
    snode_parent = np.where(up >= 0, owner[up], -1)
    reach = first_desc[last]  # each supernode's subtree holds the columns reach..last
    s = owner[k]
    found, at = [owner * n + np.arange(n)], [owner]  # each supernode's own columns
    while s.size:
        climbs = (last[s] < i) & (reach[s] > prev)
        s, i, prev = s[climbs], i[climbs], prev[climbs]
        found.append(s * n + i)
        at.append(s)
        s = snode_parent[s]
    keys = np.concatenate(found)
    keys.sort()
    return first_col, _row_lists(keys, np.bincount(np.concatenate(at), minlength=ns), n)


def _row_lists(keys: np.ndarray, counts: np.ndarray, n: int) -> RowLists:
    """Ascending keys s * n + row split into row lists, ``counts[s]`` for s."""
    ptr = np.cumsum(np.append(0, counts))
    return RowLists(keys - np.repeat(np.arange(counts.size, dtype=np.int64) * n, counts), ptr)


def _trap_nnz(a: int, g: int) -> int:
    return a * g - a * (a - 1) // 2


def _work_flops(a: int, m: int) -> int:
    return potrf_flops(a) + trsm_flops(m, a) + syrk_flops(m, a)


@dataclass(frozen=True)
class MergeStats:
    """How merging changed the factor.  ``blocks_before_reorder`` is the
    merged factor's block count and ``blocks_after_refinement`` its count
    after partition refinement alone, both recorded when within-supernode
    reordering follows (None when it does not)."""

    nsuper_before: int
    nsuper_after: int
    nnz_before: int
    nnz_after: int
    work_before: int
    work_after: int
    merges: int
    blocks_before_reorder: int | None = None
    blocks_after_refinement: int | None = None


def merge_supernodes(first_col: np.ndarray, rows: RowLists, cap: float | None):
    """Greedily merge child-parent supernode pairs, cheapest new fill first.

    ``rows[s]`` is supernode s's row list, its own columns first, as
    ``fundamental_supernodes`` returns it.  The candidate cost is the true
    growth in factor nonzeros: the child's columns adopt the parent's row
    structure, so merging child C into parent P adds
    |C| * (|glbind(P)| - |below(C)|) entries.  Merging stops before the merge
    that would push cumulative growth above ``cap`` percent of the unmerged
    factor nonzero count; ``cap=inf`` sets no limit and ``cap=None`` disables
    merging entirely; a NaN or negative cap raises ValueError.  Ties go to the
    child with the smaller first column.  A heap key (growth * n + smallest
    column) * ns + child sorts as that triple; a stale one is pushed again.

    Merging a non-adjacent child into its parent is only representable after a
    relabeling, so the columns are relabelled by a postorder of the merged tree
    (children by ascending id, each merged supernode keeping its original
    column order).  Returns the relabelled first columns (sentinel included),
    the old-to-new column permutation, the relabelled row lists and the stats.
    """
    if cap is not None and not cap >= 0:
        raise ValueError(f"merge cap must be a percentage >= 0 or None, not {cap}")
    fc = np.asarray(first_col, dtype=np.int64)
    n = int(fc[-1])
    ns = fc.size - 1
    owner, parent = _supernodal_tree(fc, rows)
    widths = np.diff(fc)
    mrows = np.diff(rows.ptr) - widths  # unchanged in a survivor
    nnz_before = int(_trap_nnz(widths, widths + mrows).sum())
    work_before = int(_work_flops(widths, mrows).sum())
    up, ncols, nbelow = parent.tolist(), widths.tolist(), mrows.tolist()
    lowest = fc[:-1].tolist()  # each supernode's smallest column
    into = list(range(ns))  # what each supernode merged into; itself while alive

    def find(s: int) -> int:
        top = s
        while into[top] != top:
            top = into[top]
        while into[s] != top:
            into[s], s = top, into[s]
        return top

    merges = grown = 0
    if cap is not None:
        allowed = nnz_before * cap / 100.0
        child = np.flatnonzero(parent >= 0)
        p = parent[child]
        growth = (widths[child] * (widths[p] + mrows[p] - mrows[child])).tolist()
        heap = [(d * n + f) * ns + c for d, f, c in zip(growth, fc[child].tolist(), child.tolist())]
        heapq.heapify(heap)
        while heap:
            key = heapq.heappop(heap)
            c = key % ns
            if into[c] != c:
                continue
            p = up[c]
            if into[p] != p:
                p = find(p)
            d = ncols[c] * (ncols[p] + nbelow[p] - nbelow[c])
            now = (d * n + lowest[c]) * ns + c
            if now != key:
                heapq.heappush(heap, now)
                continue
            if grown + d > allowed:
                break
            ncols[p] += ncols[c]
            lowest[p] = min(lowest[p], lowest[c])
            into[c] = p
            grown += d
            merges += 1

    survivor = np.asarray(into, dtype=np.int64)
    while (survivor[survivor] != survivor).any():  # follow the merges to their ends
        survivor = survivor[survivor]
    alive = survivor == np.arange(ns)
    # -2 marks a merged-away supernode, neither a root nor anyone's child
    merged_parent = np.where(alive, np.where(parent >= 0, survivor[parent], -1), -2)
    post = _postorder(merged_parent, np.argsort(merged_parent, kind="stable"))
    rank = np.empty(ns, dtype=np.int64)
    rank[post] = np.arange(post.size)
    # new labels: the merged supernodes in postorder, each one's columns ascending
    perm = np.empty(n, dtype=np.int64)
    perm[np.argsort(rank[survivor[owner]], kind="stable")] = np.arange(n)
    width, m = np.asarray(ncols, dtype=np.int64)[post], mrows[post]
    below = perm[rows.rows[_ranges(rows.ptr[post] + widths[post], m)]]
    # one key t * n + row per entry of merged supernode t's row list
    t = np.arange(post.size) * n
    keys = np.concatenate([np.repeat(t, width) + np.arange(n), np.repeat(t, m) + below])
    keys.sort()
    nnz_after = int(_trap_nnz(width, width + m).sum())
    work_after = int(_work_flops(width, m).sum())
    stats = MergeStats(ns, int(post.size), nnz_before, nnz_after, work_before, work_after, merges)
    return np.cumsum(np.append(0, width)), Permutation(perm), _row_lists(keys, width + m, n), stats


# ---------------------------------------------------------------------------
# Multifrontal stack simulation and sibling ordering.

def _eval_stack(order, speak, push, square) -> int:
    """Peak stack usage (in floats) while processing one node's children in
    ``order`` and then overlaying the node's square update matrix in place over
    the last-pushed child."""
    run = 0
    peak = 0
    last_push = 0
    for c in order:
        peak = max(peak, run + speak[c])
        run += push[c]
        if push[c] > 0:
            last_push = push[c]
    return max(peak, run - last_push + square)


def stack_minimizing_postorder(snode_parent: np.ndarray, square_size: np.ndarray,
                               push_size: np.ndarray):
    """Postorder of the supernodal tree whose sibling order minimizes the
    update-matrix stack peak.

    Children are ordered by decreasing (subtree peak - retained size), Liu's
    rule for the classical stack recurrence; because the square update matrix
    is built in place over the first-popped (= last-pushed) child, the choice
    of last-pushed child also matters, so every candidate last child is
    evaluated exactly.  Returns (postorder, predicted peak).
    """
    kids, ptr = _child_index(snode_parent)
    order, push, square = kids.tolist(), push_size.tolist(), square_size.tolist()
    speak = list(square)  # a leaf's subtree peak is its square
    inner = np.flatnonzero(np.diff(ptr))  # ascending toward the roots: children come first
    for j, a, b in zip(inner.tolist(), ptr[inner].tolist(), ptr[inner + 1].tolist()):
        base = sorted(order[a:b], key=lambda c: speak[c] - push[c], reverse=True)
        best, best_peak = base, _eval_stack(base, speak, push, square[j])
        for lp in (c for c in base if push[c] > 0):
            cand = [c for c in base if c != lp] + [lp]
            p = _eval_stack(cand, speak, push, square[j])
            if p < best_peak:
                best, best_peak = cand, p
        speak[j] = best_peak
        order[a:b] = best
    peak = max((s for s, p in zip(speak, snode_parent.tolist()) if p < 0), default=0)
    return _postorder(snode_parent, np.asarray(order, dtype=np.int64)), peak


# ---------------------------------------------------------------------------
# Relative indices.

class RelativeIndexMap:
    """Each supernode's below-diagonal rows as relative indices against its
    parent: a row's distance from the bottom of the parent's row list.  Read
    out of ``S.update_table``; no factorization reads the map."""

    def __init__(self, S: "SymbolicFactor"):
        T = S.update_table
        self._rel = np.repeat(S._lens[T.p], T.r) - 1 - T.pos
        self._rel.flags.writeable = False
        self._at = np.append(T.at, T.pos.size)[T.ptr[:-1]].tolist()
        self._mrows = (S._lens - np.diff(S.first_col)).tolist()

    def rel(self, j: int) -> np.ndarray:
        return self._rel[self._at[j]:self._at[j] + self._mrows[j]]


# ---------------------------------------------------------------------------
# The assembled symbolic factor.

@dataclass(frozen=True)
class BuildOptions:
    merge_cap: float | None = 12.5
    pr: bool = True


@dataclass(frozen=True)
class Plans:
    """Workspace sizes (in floats) each numeric method will need."""

    mf_postorder: np.ndarray
    mf_peak: int
    push_size: np.ndarray
    ll_peak: int
    rl_peak: int


@dataclass(frozen=True)
class UpdateTable:
    """One read-only entry per (updater k, target p) pair, by k then p, so
    k's first is with its parent (entries ``ptr[k]`` to ``ptr[k + 1]``; those
    into p are ``by_target[target_ptr[p]:target_ptr[p + 1]]``, by k).  The
    pair's rows start at offset ``lo`` of ``below(k)``; ``c`` of them lie in
    p's columns, and the r = ``mrows(k)`` - lo rows to the end sit at
    ``pos[at:at + r]`` of p's row list.

    Those positions split into runs, cut where they stop being consecutive
    and at index at + c, where the rows leave p's columns.  ``run`` holds
    every run's first index into ``pos``, pair e's from ``run[run_ptr[e]]``
    on; its first ``heads`` runs lie in p's columns and are k's blocks into
    p.  ``dense``: one run in p's columns and at most one below."""

    k: np.ndarray
    p: np.ndarray
    lo: np.ndarray
    c: np.ndarray
    r: np.ndarray
    dense: np.ndarray
    at: np.ndarray
    pos: np.ndarray
    ptr: np.ndarray
    by_target: np.ndarray
    target_ptr: np.ndarray
    run: np.ndarray
    run_ptr: np.ndarray
    heads: np.ndarray


@dataclass(frozen=True)
class SolvePlan:
    """The supernodes by level of the supernodal tree, for the triangular
    solves: a supernode's level is its height above the leaves, so every
    parent is at a higher level than its children.  ``order`` holds the
    supernodes level by level, by index within a level, level l's from
    ``order[level_ptr[l]]`` to ``order[level_ptr[l + 1] - 1]``.  ``rows``
    lists their rows below the diagonal blocks in that order, the i-th's from
    ``row_ptr[i]`` to ``row_ptr[i + 1]``.  Read-only."""

    order: np.ndarray
    level_ptr: np.ndarray
    row_ptr: np.ndarray
    rows: np.ndarray


class SymbolicFactor:
    """Supernode partition, per-supernode row lists, block lists and workspace
    plans for the numeric factorizations.  Immutable once built.

    The partition's first columns (sentinel n included) and the row lists
    (``RowLists`` over one int64 array) determine the supernodal tree:
    ``col_to_snode`` repeats each supernode id over its columns, and a
    supernode's parent owns its first row below the diagonal (-1 for a root).

    The derived structure (``update_table``, the blocks ``block_sizes``/
    ``block_starts`` read out of its runs, ``plans``, ``rlb_schedule`` and
    ``solve_plan``) is computed on first access and cached as read-only
    arrays, so a factor that is only reordered pays for nothing but the pairs
    and row keys the reordering reads.  A target's updaters are the table's ``k`` in
    ``by_target`` order.
    """

    def __init__(self, first_col, glbind, relabel, merge_stats):
        self.first_col = np.asarray(first_col, dtype=np.int64)
        self.n = int(self.first_col[-1])
        self.nsuper = self.first_col.size - 1
        self._glbind = glbind
        self.relabel = relabel
        self.merge_stats = merge_stats
        self.col_to_snode, self.snode_parent = _supernodal_tree(self.first_col, self._glbind)

        self._lens = np.diff(self._glbind.ptr)
        widths = np.diff(self.first_col)
        self.factor_nnz = int(_trap_nnz(widths, self._lens).sum())
        # where each supernode's column-major panel starts in the factor storage
        self.panel_offsets = np.cumsum(np.append(0, widths * self._lens))
        self.panel_storage = int(self.panel_offsets[-1])
        self.work_flops = int(_work_flops(widths, self._lens - widths).sum())

    # -- geometry -----------------------------------------------------------
    def cols(self, j: int):
        return int(self.first_col[j]), int(self.first_col[j + 1] - 1)

    def width(self, j: int) -> int:
        return int(self.first_col[j + 1] - self.first_col[j])

    def glbind(self, j: int) -> np.ndarray:
        return self._glbind[j]

    def mrows(self, j: int) -> int:
        return int(self._lens[j]) - self.width(j)

    def nblocks(self, j: int) -> int:
        return self.block_sizes[j].size

    def row_positions(self, snodes: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Where each row sits in its supernode's row list, or -1 where the
        list lacks it."""
        keys, starts = self._row_keys
        want = np.asarray(snodes, dtype=np.int64) * self.n + rows
        at = np.searchsorted(keys, want)
        return np.where(keys.take(at, mode="clip") == want, at - starts[snodes], -1)

    # -- derived structure, computed on first use ------------------------------
    @cached_property
    def _row_keys(self) -> tuple:
        """One ascending key per (supernode, row) of the row lists, and where
        each supernode's keys start."""
        keys = self._glbind.rows + np.repeat(np.arange(self.nsuper) * self.n, self._lens)
        return keys, self._glbind.ptr[:-1]

    def _pairs(self) -> tuple:
        """The (updater k, target p) pairs, by k then p: every below-diagonal
        row list concatenated, and per pair where its rows start there, k, p
        and how many rows it holds (those of ``below(k)`` in p's columns)."""
        widths = np.diff(self.first_col)
        m = np.maximum(self._lens - widths, 0)  # the sizes of the below(j)
        rows = self._glbind.rows[_ranges(self._glbind.ptr[:-1] + widths, m)]
        src = np.repeat(np.arange(self.nsuper), m)
        owner = self.col_to_snode[rows]
        new = np.ones(rows.size, dtype=bool)
        new[1:] = (owner[1:] != owner[:-1]) | (src[1:] != src[:-1])
        start = np.flatnonzero(new)
        return rows, start, src[start], owner[start], np.diff(start, append=rows.size)

    @cached_property
    def _blocks(self) -> tuple:
        """Per supernode, the sizes and the offsets into ``below(j)`` of its
        dense blocks: the head runs of its pairs in the update table."""
        T = self.update_table
        head = _ranges(T.run_ptr[:-1], T.heads)
        pair = np.repeat(np.arange(T.k.size), T.heads)
        bounds = np.cumsum(np.append(0, T.heads))[T.ptr]
        return (_frozen_split(np.diff(T.run, append=T.pos.size)[head], bounds),
                _frozen_split(T.lo[pair] + T.run[head] - T.at[pair], bounds))

    block_sizes = property(lambda self: self._blocks[0])
    block_starts = property(lambda self: self._blocks[1])

    @cached_property
    def update_table(self) -> UpdateTable:
        """The update table, its positions from one ``row_positions`` call.
        Raises ValueError, naming the updater, when a target lacks a row."""
        rows, start, k, p, c = self._pairs()
        ns = np.arange(self.nsuper + 1)
        ptr = np.searchsorted(k, ns)
        r = np.append(start, rows.size)[ptr[k + 1]] - start  # to the end of below(k)
        want = rows[_ranges(start, r)]
        pos = self.row_positions(np.repeat(p, r), want)
        at = np.cumsum(r) - r
        bad = np.flatnonzero(pos < 0)
        if bad.size:
            e = int(np.searchsorted(at, bad[0], side="right")) - 1
            raise ValueError(f"update rows missing from the target: row {want[bad[0]]} of "
                             f"supernode {k[e]} missing from parent or ancestor {p[e]}")
        run = _run_starts(pos, np.concatenate([at, (at + c)[c < r]]))
        run_ptr = np.searchsorted(run, np.append(at, pos.size))
        heads = np.searchsorted(run, at + c) - run_ptr[:-1]
        lo = (self._lens - np.diff(self.first_col))[k] - r
        T = UpdateTable(k, p, lo, c, r, (heads == 1) & (np.diff(run_ptr) <= 2), at, pos, ptr,
                        np.argsort(p, kind="stable"), np.searchsorted(np.sort(p), ns),
                        run, run_ptr, heads)
        for a in vars(T).values():
            a.flags.writeable = False
        return T

    @cached_property
    def plans(self) -> Plans:
        """A supernode pushes what its parent does not take of its update
        matrix; ``ll``'s slab fits its largest non-dense update from a
        supernode wider than one column."""
        T = self.update_table
        widths = np.diff(self.first_col)
        m = self._lens - widths
        rest = np.zeros(self.nsuper, dtype=np.int64)
        first = T.lo == 0  # each updater's pair with its parent
        rest[T.k[first]] = (T.r - T.c)[first]
        push = rest * (rest + 1) // 2
        square = m * m
        post, mf_peak = stack_minimizing_postorder(self.snode_parent, square, push)
        slab = T.r * T.c * ((widths[T.k] > 1) & ~T.dense)
        rl_peak = int(square.max()) if self.nsuper else 0
        for a in (post, push):
            a.flags.writeable = False
        return Plans(post, int(mf_peak), push, int(slab.max(initial=0)), rl_peak)

    @cached_property
    def rlb_schedule(self) -> CallSchedule:
        """``factor_rlb`` as a ``CallSchedule`` over the panel storage, group j
        factoring supernode j's columns in its panel (the diagonal step), then
        making its updates in execution order.

        Block b of supernode j lands in the columns of the supernode P owning
        its rows.  It updates P's diagonal triangle at its own rows (SYRK),
        then, for each maximal run of later blocks of j whose rows sit directly
        below one another in P's row list, the rectangle at those rows (GEMM).
        Every step and rectangle is checked against its panel
        (``check_call_extents``).
        """
        schedule = CallSchedule(*_rlb_rows(self))
        check_call_extents(self, schedule)
        # derive the prediction here, as part of the analysis
        schedule.calls, schedule.flops, schedule.diag_calls
        return schedule

    @cached_property
    def solve_plan(self) -> SolvePlan:
        """The supernodes by level, with their rows below the diagonal
        blocks, for ``kernels.supernodal_solve``."""
        height = [0] * (self.nsuper + 1)  # the last entry takes the roots' parent, -1
        for j, p in enumerate(self.snode_parent.tolist()):  # a parent comes after its children
            if height[p] <= height[j]:
                height[p] = height[j] + 1
        level = np.fromiter(height, np.int64, self.nsuper)
        order = np.argsort(level, kind="stable")
        level_ptr = np.append(0, np.cumsum(np.bincount(level)))
        m = (self._lens - np.diff(self.first_col))[order]
        row_ptr = np.append(0, np.cumsum(m))
        rows = self._glbind.rows[_ranges(self._glbind.ptr[1:][order] - m, m)]
        plan = SolvePlan(order, level_ptr, row_ptr, rows)
        for a in vars(plan).values():
            a.flags.writeable = False
        return plan


def _rlb_rows(S: SymbolicFactor) -> tuple:
    """``rlb_schedule``'s rows, row pointer, storage, diagonal steps and
    pair pointer, before they are checked.  The rows run by update-table
    pair, those of pair e from ``pair_ptr[e]``.

    Pair e's head runs are its updater's blocks into its target, and its runs
    cover the updater's rows from the first block to the end.  Each head run
    a takes one call per run t >= a of e: t == a is a's SYRK, the rest GEMMs
    of t's rows against a's.  The cut where the rows leave the target's
    columns is no gap, so when the positions continue across it, the GEMM of
    an earlier head run covers the runs on both sides in one call."""
    T = S.update_table
    blocks = np.bincount(T.k, T.heads, S.nsuper).astype(np.int64)  # each updater's blocks
    pairs = int(blocks @ (blocks + 1)) // 2  # bounds every index below
    it = np.int32 if max(S.panel_storage, pairs) < 2**31 else np.int64
    width, lens, offsets = (a.astype(it) for a in (np.diff(S.first_col), S._lens,
                                                   S.panel_offsets))
    run_ptr, nh = T.run_ptr.astype(it), T.heads.astype(it)
    size = np.diff(T.run, append=T.pos.size).astype(it)
    pair = np.repeat(np.arange(T.k.size, dtype=it), np.diff(run_ptr))  # each run's pair
    pos = T.pos[T.run].astype(it)  # each run's first position in the target's row list
    # each run's first row, as an offset into its updater's row list
    first = ((S._lens[T.k] - T.r - T.at)[pair] + T.run).astype(it)
    joins = np.zeros(size.size, dtype=bool)  # continues the previous run past the cut
    joins[1:] = pos[1:] == T.pos[T.run[1:] - 1] + 1
    joins[T.run_ptr[:-1]] = False
    # one (head run a, run t >= a of its pair) per call candidate, by a then t
    a = _ranges(run_ptr[:-1], nh)
    count = run_ptr[1:][pair[a]] - a
    b = a.repeat(count)
    t = _ranges(a, count)
    call = np.flatnonzero(~(joins[t] & (t > b + 1)))
    m = np.add.reduceat(size[t], call) if call.size else size[:0]
    b, t = b[call], t[call]
    e = pair[b]
    P, j = T.p[e], T.k[e]
    rows = np.column_stack([np.where(t == b, SYRK, GEMM), offsets[P] + lens[P] * pos[b] + pos[t],
                            lens[P], m, size[b], offsets[j] + first[t],
                            offsets[j] + first[b]]).astype(it)
    pair_ptr = np.searchsorted(e, np.arange(T.k.size + 1))  # pairs run by updater
    ptr = pair_ptr[T.ptr]
    diag = np.column_stack([offsets[:-1], lens, width, S.first_col[:-1].astype(it)])
    for x in (rows, ptr, diag, pair_ptr):
        x.flags.writeable = False
    return rows, ptr, S.panel_storage, diag, pair_ptr


def _run_starts(v: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Where the maximal runs of consecutive integers in ``v`` start, each
    index in ``first`` starting one as well."""
    cut = np.ones(v.size, dtype=bool)
    cut[1:] = v[1:] != v[:-1] + 1
    cut[first] = True
    return np.flatnonzero(cut)


def _ranges(lo: np.ndarray, count: np.ndarray) -> np.ndarray:
    """lo[0], ..., lo[0] + count[0] - 1, lo[1], ..., concatenated, in lo's
    dtype."""
    at = np.cumsum(count, dtype=lo.dtype) - count
    return (lo - at).repeat(count) + np.arange(at[-1] + count[-1] if count.size else 0,
                                               dtype=lo.dtype)


def _frozen_split(a: np.ndarray, bounds: np.ndarray) -> tuple:
    """Read-only views a[bounds[i]:bounds[i + 1]]."""
    a.flags.writeable = False
    b = bounds.tolist()
    return tuple(a[lo:hi] for lo, hi in zip(b, b[1:]))


def check_call_extents(S: SymbolicFactor, schedule: CallSchedule) -> None:
    """Raise ValueError unless ``schedule`` indexes S's panel storage, the
    diagonal step of its group j is supernode j's panel (offset, leading
    dimension, width and first column), and every call of group
    j reads two row ranges of supernode j's panel and writes a rectangle of
    a later panel, with that panel's leading dimension and inside its rows
    and columns."""
    rows, ptr, diag = schedule.rows, schedule.ptr, schedule.diag
    if (schedule.storage != S.panel_storage or ptr.shape != (S.nsuper + 1,) or ptr[0] != 0
            or ptr[-1] != rows.shape[0] or (np.diff(ptr) < 0).any()
            or diag.shape != (S.nsuper, 4)):
        raise ValueError("schedule does not match the symbolic factor's panels")
    offsets, widths, lens = S.panel_offsets, np.diff(S.first_col), S._lens
    bad = np.flatnonzero((diag != np.column_stack([offsets[:-1], lens, widths,
                                                   S.first_col[:-1]])).any(axis=1))
    if bad.size:
        j = int(bad[0])
        raise ValueError(f"diagonal step {j} {diag[j].tolist()} is not its supernode's panel")
    group = np.repeat(np.arange(S.nsuper), np.diff(ptr))
    chunk = 2048  # rows checked at a time, which bounds the temporaries
    for lo in range(0, rows.shape[0], chunk):
        _, c, ldc, m, n, x, y = np.ascontiguousarray(rows[lo:lo + chunk].T, np.int64)
        j = group[lo:lo + chunk]
        # C: an m-by-n rectangle of panel P
        P = np.clip(np.searchsorted(offsets, c, side="right") - 1, 0, S.nsuper - 1)
        col, row = np.divmod(c - offsets[P], np.maximum(ldc, 1))
        ok = ((c >= 0) & (P > j) & (ldc == lens[P]) & (np.minimum(m, n) >= 1)
              & (row + m <= ldc) & (col + n <= widths[P]))
        # X and Y: m and n rows of panel j
        ok &= (np.minimum(x, y) >= offsets[j]) & (np.maximum(x + m, y + n) <= offsets[j] + lens[j])
        if not ok.all():
            i = lo + int(np.flatnonzero(~ok)[0])
            raise ValueError(f"kernel call {i} {rows[i].tolist()} leaves its panels")


def build_symbolic_factor(pattern: SymmetricSparsePattern,
                          options: BuildOptions = BuildOptions()) -> SymbolicFactor:
    """Full symbolic pipeline on an already fill-ordered pattern.

    Steps: elimination tree, postorder relabel, fundamental supernodes with
    their row lists, merging under the storage cap (with its relabel),
    optional within-supernode reordering, block lists, the update table,
    workspace plans, the ``rlb`` call schedule and the solve plan.
    ``.relabel`` holds the composed permutation this analysis applied on top of
    the input pattern; apply it to the matrix before scattering values.
    """
    p_post, t1 = postorder_relabel(elimination_tree(pattern))
    first_col, rows = fundamental_supernodes(_lower_by_row(pattern, p_post.perm), t1)
    first_col, relabel, glbind, stats = merge_supernodes(first_col, rows, options.merge_cap)
    S = SymbolicFactor(first_col, glbind, p_post.compose(relabel), stats)
    if options.pr:
        from .reorder import reorder_within_supernodes
        _, S = reorder_within_supernodes(S)
    S.block_sizes, S.update_table, S.plans, S.rlb_schedule, S.solve_plan  # derive them here
    return S
