"""Reordering of columns within supernodes by ordered partition refinement.

Each supernode's columns start as a single cell; every descendant supernode
that updates it splits the cells by its row set.  The refined cell order makes
the rows each descendant touches contiguous wherever the splits allow, which
turns its updates into fewer, larger dense blocks.  A partition is a plain
list of cells, each a list of columns.  The permutation never moves a column
out of its supernode, so the factor nonzero count, the first columns and the
supernodal tree are unchanged.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .matrix import Permutation
from .symbolic import SymbolicFactor


def refine(cells: list, pivot) -> list:
    """Split every cell of an ordered partition (a list of disjoint lists; cell
    order and the order inside each cell both count) into its pivot and
    non-pivot parts, stable inside each part.

    Split parts are placed toward the pivot's span: the leftmost split cell
    keeps its non-pivot part first, the rightmost keeps its pivot part first,
    so that across cells the pivot lands in one contiguous run whenever the
    existing cells allow it.  A pivot wholly inside one cell goes in front.
    """
    pivot = set(pivot)
    insides = [[x for x in cell if x in pivot] for cell in cells]
    if sum(map(len, insides)) != len(pivot):
        raise ValueError("pivot contains elements outside the ground set")
    hits = [i for i, inside in enumerate(insides) if inside]
    out = []
    for i, (inside, cell) in enumerate(zip(insides, cells)):
        if not inside or len(inside) == len(cell):
            out.append(list(cell))
            continue
        outside = [x for x in cell if x not in pivot]
        if len(hits) > 1 and i == hits[0]:
            out.extend([outside, inside])
        else:
            out.extend([inside, outside])
    return out


def _run_count(xs: list) -> int:
    """Number of maximal runs of consecutive integers in an ascending list."""
    return len(xs) - sum(b == a + 1 for a, b in zip(xs, xs[1:]))


def reorder_within_supernodes(S: SymbolicFactor):
    """Refine every supernode's column order by its updaters' row sets.

    Updaters are applied largest row set first (ties by ascending supernode).
    If refinement would increase a supernode's incoming block count, that
    supernode keeps its original order.  Returns the global permutation
    (identity across supernode boundaries) and the symbolic factor rebuilt
    from the same first columns and the permuted row lists, whose
    ``merge_stats.blocks_before_reorder`` is S's block count.
    """
    n = S.n
    perm = np.arange(n, dtype=np.int64)
    blocks = 0  # S's blocks: the runs of each updater's rows, summed over supernodes
    for p in range(S.nsuper):
        f, l = S.cols(p)
        pivots = []
        for k in S.updaters[p].tolist():
            b = S.below(k)
            s0, s1 = b.searchsorted((f, l + 1)).tolist()
            pivots.append((s1 - s0, k, b[s0:s1].tolist()))
        if not pivots:
            continue
        pivots.sort(key=lambda t: (-t[0], t[1]))
        cells = [list(range(f, l + 1))]
        for _, _, rows in pivots:
            cells = refine(cells, rows)
        new_order = [x for cell in cells for x in cell]
        cand = dict(zip(new_order, range(len(new_order))))
        before = after = 0
        for _, _, rows in pivots:
            before += _run_count(rows)
            after += _run_count(sorted(cand[x] for x in rows))
        blocks += before
        if after <= before:
            perm[new_order] = np.arange(f, l + 1)
    P = Permutation(perm)
    glb_new = [np.sort(P.perm[S.glbind(j)]) for j in range(S.nsuper)]
    stats = replace(S.merge_stats, blocks_before_reorder=blocks)
    S2 = SymbolicFactor(S.first_col, glb_new, S.relabel.compose(P), stats)
    return P, S2
