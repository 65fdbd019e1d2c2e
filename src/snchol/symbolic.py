"""Symbolic analysis for supernodal sparse Cholesky.

Everything that can be computed from the pattern alone: the elimination tree,
fundamental supernodes with their row lists, supernode merging under a
storage-growth cap, a stack-minimizing sibling order for the multifrontal
schedule, dense-block lists, the update table, workspace size plans for each
factorization method and the ``rlb`` call schedule.

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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernels import GEMM, SYRK, CallSchedule, potrf_flops, syrk_flops, trsm_flops
from .matrix import Permutation, SymmetricSparseMatrix, SymmetricSparsePattern, apply_symmetric_permutation


@dataclass(frozen=True)
class EliminationTree:
    """Column elimination forest: parent[j] = -1 marks a root."""

    parent: np.ndarray
    children: tuple
    postorder: np.ndarray

    @property
    def n(self) -> int:
        return self.parent.size


def _lower_by_row(pattern: SymmetricSparsePattern) -> tuple:
    """Rows and columns of the pattern's strictly-lower entries, sorted by row,
    then column."""
    n = pattern.n
    cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(pattern.colptr))
    offd = pattern.rowind != cols
    r, c = pattern.rowind[offd], cols[offd]
    order = np.argsort(r, kind="stable")
    return r[order], c[order]


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of ``a``, ascending, by one sort and a neighbour
    mask (``np.unique`` hashes, which costs more on short integer lists)."""
    a = np.sort(a)
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def elimination_tree(pattern: SymmetricSparsePattern) -> EliminationTree:
    """Column elimination tree via path-compressed ancestor links, without
    forming the factor."""
    n = pattern.n
    r, c = _lower_by_row(pattern)
    rptr = np.searchsorted(r, np.arange(n + 1)).tolist()
    cols = c.tolist()
    parent = [-1] * n
    anc = [-1] * n
    for j in range(n):
        for k in range(rptr[j], rptr[j + 1]):
            i = cols[k]
            while anc[i] != -1 and anc[i] != j:
                t = anc[i]
                anc[i] = j
                i = t
            if anc[i] == -1:
                anc[i] = j
                parent[i] = j
    children = _children_lists(parent)
    return EliminationTree(np.asarray(parent, dtype=np.int64), children,
                           _postorder_forest(parent, children))


def postorder_relabel(tree: EliminationTree):
    """The permutation numbering ``tree``'s columns in its postorder, and the
    tree under that numbering.  A postorder is an equivalent reordering, so the
    relabelled tree is the elimination tree of the permuted pattern; its own
    postorder is the identity."""
    P = Permutation(np.argsort(tree.postorder, kind="stable"))
    old_parent = tree.parent[P.inv]
    parent = np.where(old_parent >= 0, P.perm[old_parent], -1)
    return P, EliminationTree(parent, _children_lists(parent), np.arange(tree.n, dtype=np.int64))


def _children_lists(parent) -> tuple:
    """Each node's children, ascending, from a parent array or list."""
    parent = parent.tolist() if isinstance(parent, np.ndarray) else parent
    kids = [[] for _ in range(len(parent))]
    for j, p in enumerate(parent):
        if p >= 0:
            kids[p].append(j)
    return tuple(tuple(k) for k in kids)


def _postorder_forest(parent, children) -> np.ndarray:
    """Postorder of the forest, visiting roots by ascending id and each node's
    children in the order ``children`` lists them; nodes no root reaches are
    left out."""
    out = []
    for root in (j for j in range(len(parent)) if parent[j] == -1):
        stack = [(root, 0)]
        while stack:
            v, ci = stack[-1]
            kids = children[v]
            if ci < len(kids):
                stack[-1] = (v, ci + 1)
                stack.append((kids[ci], 0))
            else:
                stack.pop()
                out.append(v)
    return np.asarray(out, dtype=np.int64)


def symbolic_factorization(pattern: SymmetricSparsePattern, tree: EliminationTree) -> list:
    """Per-column factor row lists: glb[j] lists the rows of column j of L,
    ascending, diagonal first, merged column by column from the children's
    lists.  The column algorithm ``ref`` and the tests use it; the supernodal
    build forms its row lists once per supernode instead
    (``fundamental_supernodes``)."""
    n = pattern.n
    glb = [None] * n
    for j in range(n):
        pieces = [pattern.col(j)]
        pieces.extend(glb[c][1:] for c in tree.children[j])
        glb[j] = _sorted_unique(np.concatenate(pieces)) if len(pieces) > 1 else pattern.col(j).copy()
    return glb


def _supernodal_tree(first_col: np.ndarray, glbind: list) -> tuple:
    """Column owners and supernode parents of a partition (first columns,
    sentinel n included) with each supernode's row list: a supernode's parent
    owns its first row below the diagonal, and a root has none (-1)."""
    widths = np.diff(first_col)
    owner = np.repeat(np.arange(widths.size, dtype=np.int64), widths)
    first_below = np.array([g[a] if g.size > a else -1 for g, a in zip(glbind, widths.tolist())],
                           dtype=np.int64)
    return owner, np.where(first_below >= 0, owner[first_below], -1)


def fundamental_supernodes(pattern: SymmetricSparsePattern, tree: EliminationTree) -> tuple:
    """Fundamental supernodes of a pattern whose elimination tree ``tree`` is
    postordered: (first_col, rows), where first_col holds each supernode's
    first column followed by the sentinel n, and rows[s] is the row list of
    supernode s's first column (its own columns, then the rows below them).
    Raises ValueError if the tree is not postordered.

    Column j-1 joins j when j is its parent and only child, and j is a leaf of
    no row subtree (Liu, Ng & Peyton): then column j-1's structure is column
    j's plus j-1.  Entry (i, k) of A is a leaf of row i's subtree when no
    earlier entry of row i lies in k's subtree, that is when the previous
    column of row i is below k's first descendant (Gilbert, Ng & Peyton).

    Row i is below supernode s exactly when s lies on the path from a leaf
    (i, k) up to i, so the row lists come from one climb of the supernodal
    tree: each leaf starts a pair (owner of k, i), and each step keeps the
    pairs whose supernode ends before i and moves them to its parent."""
    n = tree.n
    if not np.array_equal(tree.postorder, np.arange(n)):
        raise ValueError("the elimination tree is not postordered")
    parent = tree.parent
    first_desc = list(range(n))
    for j, p in enumerate(parent.tolist()):  # children precede their parents
        if p >= 0 and first_desc[j] < first_desc[p]:
            first_desc[p] = first_desc[j]
    r, c = _lower_by_row(pattern)
    prev = np.full(c.size, -1, dtype=np.int64)
    same_row = r[1:] == r[:-1]
    prev[1:][same_row] = c[:-1][same_row]
    leaf = np.asarray(first_desc, dtype=np.int64)[c] > prev
    leaf_col = np.zeros(n, dtype=bool)
    leaf_col[c[leaf]] = True
    nkids = np.bincount(parent[parent >= 0], minlength=n)
    joined = (parent[:-1] == np.arange(1, n)) & (nkids[1:] == 1) & ~leaf_col[1:]
    first_col = np.concatenate([[0], np.flatnonzero(~joined) + 1, [n]]) if n else np.zeros(1, np.int64)

    ns = first_col.size - 1
    owner = np.repeat(np.arange(ns, dtype=np.int64), np.diff(first_col))
    last = first_col[1:] - 1
    up = parent[last]
    snode_parent = np.where(up >= 0, owner[up], -1)
    keys = owner[c[leaf]] * n + r[leaf]  # pair (s, i) as s * n + i
    found = [owner * n + np.arange(n)]   # each supernode's own columns
    while keys.size:
        keys = _sorted_unique(keys)
        s = keys // n
        below = last[s] < keys - s * n
        found.append(keys[below])
        keys = keys[below] + (snode_parent[s[below]] - s[below]) * n
    return first_col, _row_lists(_sorted_unique(np.concatenate(found)), n, ns)


def _row_lists(keys: np.ndarray, n: int, count: int) -> list:
    """Ascending keys s * n + row (s < count) split into one row list per s,
    views of one array."""
    s = keys // n
    bounds = np.searchsorted(s, np.arange(count + 1)).tolist()
    rows = keys - s * n
    return [rows[a:b] for a, b in zip(bounds, bounds[1:])]


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


def merge_supernodes(first_col: np.ndarray, rows: list, cap: float | None):
    """Greedily merge child-parent supernode pairs, cheapest new fill first.

    ``rows[s]`` is supernode s's row list, its own columns first, as
    ``fundamental_supernodes`` returns it.  The candidate cost is the true
    growth in factor nonzeros: the child's columns adopt the parent's row
    structure, so merging child C into parent P adds
    |C| * (|glbind(P)| - |below(C)|) entries.  Merging stops before the merge
    that would push cumulative growth above ``cap`` percent of the unmerged
    factor nonzero count; ``cap=None`` disables merging entirely.  Ties go to
    the child with the smaller first column.

    Merging a non-adjacent child into its parent is only representable after a
    relabeling, so the columns are relabelled by a postorder of the merged tree
    (children by ascending id, each merged supernode keeping its original
    column order).  Returns the relabelled first columns (sentinel included),
    the old-to-new column permutation, the relabelled row lists and the stats.
    """
    fc = np.asarray(first_col, dtype=np.int64)
    n = int(fc[-1])
    ns = fc.size - 1
    owner, parent = _supernodal_tree(fc, rows)
    parent = parent.tolist()
    widths = np.diff(fc)
    mrows = np.array([r.size for r in rows], dtype=np.int64) - widths  # unchanged in a survivor
    nnz_before = int(_trap_nnz(widths, widths + mrows).sum())
    work_before = int(_work_flops(widths, mrows).sum())
    ncols, nbelow = widths.tolist(), mrows.tolist()
    lowest = fc[:-1].tolist()  # each supernode's smallest column
    into = list(range(ns))  # what each supernode merged into; itself while alive

    def find(s: int) -> int:
        top = s
        while into[top] != top:
            top = into[top]
        while into[s] != top:
            into[s], s = top, into[s]
        return top

    merges = 0
    grown = 0

    def delta_of(c: int) -> int:
        p = find(parent[c])
        return ncols[c] * (ncols[p] + nbelow[p] - nbelow[c])

    if cap is not None:
        allowed = nnz_before * cap / 100.0
        heap = [(delta_of(s), lowest[s], s) for s in range(ns) if parent[s] >= 0]
        heapq.heapify(heap)
        while heap:
            d, f, c = heapq.heappop(heap)
            if into[c] != c:
                continue
            cur = (delta_of(c), lowest[c])
            if cur != (d, f):
                heapq.heappush(heap, (cur[0], cur[1], c))
                continue
            if grown + d > allowed:
                break
            p = find(parent[c])
            ncols[p] += ncols[c]
            lowest[p] = min(lowest[p], lowest[c])
            into[c] = p
            grown += d
            merges += 1

    survivor = np.array([find(s) for s in range(ns)], dtype=np.int64)
    alive = survivor == np.arange(ns)
    up = np.asarray(parent, dtype=np.int64)
    # -2 marks a merged-away supernode, neither a root nor anyone's child
    merged_parent = np.where(alive, np.where(up >= 0, survivor[up], -1), -2)
    post = _postorder_forest(merged_parent, _children_lists(merged_parent))
    rank = np.empty(ns, dtype=np.int64)
    rank[post] = np.arange(post.size)
    # new labels: the merged supernodes in postorder, each one's columns ascending
    perm = np.empty(n, dtype=np.int64)
    perm[np.lexsort((np.arange(n), rank[survivor[owner]]))] = np.arange(n)
    width, m = np.array(ncols, dtype=np.int64)[post], mrows[post]
    below = perm[np.concatenate([rows[s][widths[s]:] for s in post.tolist()]
                                + [np.zeros(0, np.int64)])]
    # one key t * n + row per entry of merged supernode t's row list
    t = np.arange(post.size)
    keys = np.concatenate([np.repeat(t, width) * n + np.arange(n), np.repeat(t, m) * n + below])
    keys.sort()
    glbind = _row_lists(keys, n, post.size)
    nnz_after = int(_trap_nnz(width, width + m).sum())
    work_after = int(_work_flops(width, m).sum())
    stats = MergeStats(ns, int(post.size), nnz_before, nnz_after, work_before, work_after, merges)
    return np.cumsum(np.append(0, width)), Permutation(perm), glbind, stats


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
    ns = snode_parent.size
    children = _children_lists(snode_parent)
    speak = np.zeros(ns, dtype=np.int64)
    chosen = [None] * ns
    for j in range(ns):  # ids ascend toward the roots, so children come first
        kids = children[j]
        sq = int(square_size[j])
        if not kids:
            speak[j] = sq
            chosen[j] = ()
            continue
        base = sorted(kids, key=lambda c: (-(int(speak[c]) - int(push_size[c])), c))
        best = tuple(base)
        best_peak = _eval_stack(base, speak, push_size, sq)
        for lp in (c for c in base if push_size[c] > 0):
            cand = [c for c in base if c != lp] + [lp]
            p = _eval_stack(cand, speak, push_size, sq)
            if p < best_peak:
                best, best_peak = tuple(cand), p
        speak[j] = best_peak
        chosen[j] = best
    peak = 0
    for s in range(ns):
        if snode_parent[s] < 0:
            peak = max(peak, int(speak[s]))
    post = _postorder_forest(snode_parent, chosen)
    return post, peak


# ---------------------------------------------------------------------------
# Relative indices.

def compose_relative(rel_jc: np.ndarray, rel_cp: np.ndarray) -> np.ndarray:
    """Relative indices against a grandparent: gather each distance through the
    intermediate list.  Entry d becomes rel_cp[len(rel_cp) - 1 - d]."""
    rel_jc = np.asarray(rel_jc)
    if rel_jc.size and (rel_jc.min() < 0 or rel_jc.max() >= rel_cp.size):
        raise ValueError("relative index out of range for the intermediate list")
    return rel_cp[rel_cp.size - 1 - rel_jc]


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
    square_size: np.ndarray
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


class SymbolicFactor:
    """Supernode partition, per-supernode row lists, block lists and workspace
    plans for the numeric factorizations.  Immutable once built.

    The partition's first columns (sentinel n included) and the row lists
    determine the supernodal tree: ``col_to_snode`` repeats each supernode id
    over its columns, and a supernode's parent owns its first row below the
    diagonal (-1 for a root).

    The derived structure (``update_table``, the blocks ``block_sizes``/
    ``block_starts`` read out of its runs, ``plans`` and ``rlb_schedule``) is
    computed on first access and cached as read-only arrays, so a factor that
    is only reordered pays for nothing but the pairs and row keys the
    reordering reads.  A target's updaters are the table's ``k`` in
    ``by_target`` order.
    """

    def __init__(self, first_col, glbind, relabel, merge_stats):
        self.first_col = np.asarray(first_col, dtype=np.int64)
        self.n = int(self.first_col[-1])
        self.nsuper = self.first_col.size - 1
        self._glbind = [np.asarray(g, dtype=np.int64) for g in glbind]
        self.relabel = relabel
        self.merge_stats = merge_stats
        self.col_to_snode, self.snode_parent = _supernodal_tree(self.first_col, self._glbind)
        self.snode_children = _children_lists(self.snode_parent)

        self._lens = np.array([g.size for g in self._glbind], dtype=np.int64)
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

    def below(self, j: int) -> np.ndarray:
        return self._glbind[j][self.width(j):]

    def mrows(self, j: int) -> int:
        return self._glbind[j].size - self.width(j)

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
        keys = np.concatenate(self._glbind + [np.zeros(0, np.int64)])
        keys += np.repeat(np.arange(self.nsuper) * self.n, self._lens)
        return keys, np.cumsum(self._lens) - self._lens

    def _pairs(self) -> tuple:
        """The (updater k, target p) pairs, by k then p: every below-diagonal
        row list concatenated, and per pair where its rows start there, k, p
        and how many rows it holds (those of ``below(k)`` in p's columns)."""
        below = [self.below(j) for j in range(self.nsuper)] + [np.zeros(0, np.int64)]
        rows = np.concatenate(below)
        src = np.repeat(np.arange(self.nsuper), [b.size for b in below[:-1]])
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
        for a in (post, push, square):
            a.flags.writeable = False
        return Plans(post, int(mf_peak), push, square, int(slab.max(initial=0)), rl_peak)

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
    pairs = sum(b.size * (b.size + 1) // 2 for b in S.block_sizes)  # bounds every index below
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
    rows = np.empty((b.size, 9), dtype=it)
    rows[:, 0] = np.where(t == b, SYRK, GEMM)
    rows[:, 1] = offsets[P] + lens[P] * pos[b] + pos[t]
    rows[:, 2] = lens[P]
    rows[:, 3] = m
    rows[:, 4] = size[b]
    rows[:, 5] = width[j]
    rows[:, 6] = offsets[j] + first[t]
    rows[:, 7] = offsets[j] + first[b]
    rows[:, 8] = lens[j]
    pair_ptr = np.searchsorted(e, np.arange(T.k.size + 1))  # pairs run by updater
    ptr = pair_ptr[T.ptr]
    diag = np.column_stack([offsets[:-1], lens, width, lens - width,
                            S.first_col[:-1].astype(it)])
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
    dimension, width, rows below and first column), and every call of group
    j reads two row ranges of supernode j's panel, over all its columns, and
    writes a rectangle of a later panel, each with its panel's leading
    dimension and inside its rows and columns."""
    rows, ptr, diag = schedule.rows, schedule.ptr, schedule.diag
    if (schedule.storage != S.panel_storage or ptr.shape != (S.nsuper + 1,) or ptr[0] != 0
            or ptr[-1] != rows.shape[0] or (np.diff(ptr) < 0).any()
            or diag.shape != (S.nsuper, 5)):
        raise ValueError("schedule does not match the symbolic factor's panels")
    offsets, widths, lens = S.panel_offsets, np.diff(S.first_col), S._lens
    bad = np.flatnonzero((diag != np.column_stack([offsets[:-1], lens, widths, lens - widths,
                                                   S.first_col[:-1]])).any(axis=1))
    if bad.size:
        j = int(bad[0])
        raise ValueError(f"diagonal step {j} {diag[j].tolist()} is not its supernode's panel")
    group = np.repeat(np.arange(S.nsuper), np.diff(ptr))
    chunk = 2048  # rows checked at a time, which bounds the temporaries
    for lo in range(0, rows.shape[0], chunk):
        _, c, ldc, m, n, k, x, y, ldx = np.ascontiguousarray(rows[lo:lo + chunk].T, np.int64)
        j = group[lo:lo + chunk]
        # C: an m-by-n rectangle of panel P
        P = np.clip(np.searchsorted(offsets, c, side="right") - 1, 0, S.nsuper - 1)
        col, row = np.divmod(c - offsets[P], np.maximum(ldc, 1))
        ok = ((c >= 0) & (P > j) & (ldc == lens[P]) & (np.minimum(m, n) >= 1)
              & (row + m <= ldc) & (col + n <= widths[P]))
        # X and Y: m and n rows of panel j, all its columns
        x, y = x - offsets[j], y - offsets[j]
        ok &= ((k == widths[j]) & (ldx == lens[j]) & (np.minimum(x, y) >= 0)
               & (x + m <= ldx) & (y + n <= ldx))
        if not ok.all():
            i = lo + int(np.flatnonzero(~ok)[0])
            raise ValueError(f"kernel call {i} {rows[i].tolist()} leaves its panels")


def _permute_pattern(pattern: SymmetricSparsePattern, P: Permutation) -> SymmetricSparsePattern:
    dummy = SymmetricSparseMatrix(pattern, np.zeros(pattern.nnz))
    return apply_symmetric_permutation(dummy, P).pattern


def build_symbolic_factor(pattern: SymmetricSparsePattern,
                          options: BuildOptions = BuildOptions()) -> SymbolicFactor:
    """Full symbolic pipeline on an already fill-ordered pattern.

    Steps: elimination tree, postorder relabel, fundamental supernodes with
    their row lists, merging under the storage cap (with its relabel),
    optional within-supernode reordering, block lists, the update table,
    workspace plans and the ``rlb`` call schedule.
    ``.relabel`` holds the composed permutation this analysis applied on top of
    the input pattern; apply it to the matrix before scattering values.
    """
    p_post, t1 = postorder_relabel(elimination_tree(pattern))
    first_col, rows = fundamental_supernodes(_permute_pattern(pattern, p_post), t1)
    first_col, relabel, glbind, stats = merge_supernodes(first_col, rows, options.merge_cap)
    S = SymbolicFactor(first_col, glbind, p_post.compose(relabel), stats)
    if options.pr:
        from .reorder import reorder_within_supernodes
        _, S = reorder_within_supernodes(S)
    S.block_sizes, S.update_table, S.plans, S.rlb_schedule  # derive them here
    return S
