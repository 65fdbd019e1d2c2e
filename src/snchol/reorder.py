"""Reordering of columns within supernodes, so that each updater's rows inside
a supernode fall into as few dense blocks as possible.

Give every column of supernode p the set of p's updaters whose rows contain
it.  Along p's column order an updater's rows form one block per entry into
its set, so p's incoming block count is half the Hamming length of the path
that starts at an empty city, visits the columns in order and ends at an
empty city: a travelling-salesman path, the view PaStiX takes of block
reordering (Pichon, Faverge, Ramet and Roman, 2017).

Two passes shorten that path; both work on flat arrays and the symbolic
factor is rebuilt once.  Ordered partition refinement (Jacquelin, Ng and
Peyton, 2018) applies each supernode's updaters largest row set first, ties by
ascending updater, splitting the cells of an ordered partition of its columns.
Round r applies the rank-r updater of every supernode at once, over arrays
indexed by position: the column there, the start of its cell and, at a cell's
start, its end.  A supernode whose refinement would add blocks keeps its
order.  Then 2-opt segment reversals shorten the path of the few supernodes
that still have more blocks than updaters.  An updater that refinement left as
one run weighs more in the path length than any single reversal can win back,
so no move splits it.

The permutation never moves a column out of its supernode, so the factor
nonzero count, the first columns and the supernodal tree are unchanged.
"""

from __future__ import annotations

import bisect
from dataclasses import replace

import numpy as np

from .matrix import Permutation
from .symbolic import SymbolicFactor, _ranges, _row_lists, _run_starts


def _runs(vals: np.ndarray, start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Per pair, the maximal runs of consecutive integers among its values,
    the pairs being the slices ``vals[start:start + size]``."""
    gid = np.repeat(np.arange(size.size), size)
    v = vals[np.lexsort((vals, gid))]
    return np.bincount(gid[_run_starts(v, start)], minlength=size.size)


def _refine(S: SymbolicFactor, rows, start, k, p, size) -> tuple:
    """Ordered partition refinement of every supernode's columns by its
    pairs' rows (``S._pairs()``).  Returns where[column] = new position, and
    each pair's runs before and after (a supernode that refinement would
    worsen keeps its order, and its pairs their runs).

    Each hit cell splits into its pivot and non-pivot parts, stable inside
    each part.  The first hit cell of a supernode puts its non-pivot part
    first when other cells are hit too; every other cell puts its pivot part
    first, so the pivot lands in one run whenever the cells allow it."""
    n = S.n
    by_size = np.lexsort((k, -size, p))
    rank = np.arange(p.size) - np.searchsorted(p[by_size], p[by_size])
    in_round = np.argsort(rank, kind="stable")
    g = by_size[in_round]  # pairs round by round, each round's by ascending target
    elems = rows[_ranges(start[g], size[g])]
    bounds = np.concatenate([[0], np.cumsum(size[g])])[
        np.searchsorted(rank[in_round], np.arange(rank.max(initial=-1) + 2))]

    where = np.arange(n)
    order = np.arange(n)  # the column at each position
    cell = S.first_col[S.col_to_snode]  # per position, its cell's first position
    end = S.first_col[S.col_to_snode + 1]  # at a cell's first position, its end
    hit = np.zeros(n, dtype=bool)
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        pos = where[elems[lo:hi]]
        hit_cell = np.sort(cell[pos])
        head = np.flatnonzero(np.concatenate(([True], hit_cell[1:] != hit_cell[:-1], [True])))
        cells, inside = hit_cell[head[:-1]], np.diff(head)
        width = end[cells] - cells
        split = inside < width
        if not split.any():
            continue
        sn = S.col_to_snode[cells]
        same = sn[1:] == sn[:-1]
        # a supernode's first hit cell, when others are hit too
        lead = np.concatenate(([True], ~same)) & np.concatenate((same, [False]))
        cells, inside, width, lead = cells[split], inside[split], width[split], lead[split]
        at = _ranges(cells, width)
        hit[pos] = True
        back = hit[at] == np.repeat(lead, width)  # the part that goes second
        hit[pos] = False
        moved = order[at[np.argsort(np.repeat(2 * np.arange(cells.size), width) + back,
                                    kind="stable")]]
        order[at] = moved
        where[moved] = at
        mid = cells + np.where(lead, width - inside, inside)
        cell[at] = np.where(at < np.repeat(mid, width), np.repeat(cells, width),
                            np.repeat(mid, width))
        end[mid] = cells + width
        end[cells] = mid

    before, after = _runs(rows, start, size), _runs(where[rows], start, size)
    worse = np.bincount(p, after, S.nsuper) > np.bincount(p, before, S.nsuper)
    keep = np.flatnonzero(worse[S.col_to_snode])
    where[keep] = keep
    return where, before, np.where(worse[p], before, after)


def _shortest_path(dist: np.ndarray) -> np.ndarray:
    """A path from the last city through all the others back to it, shortened
    from the identity by 2-opt segment reversals until none improves it.

    Reversing path[i + 1 : j + 1] trades edges i and j for the pairs (i, j)
    and (i + 1, j + 1).  Each round takes, for every i, the j that gains most,
    then applies the improving reversals best first, skipping any that shares
    an edge with one already applied, so the gains add up."""
    m = dist.shape[0] - 1
    path = np.concatenate([[m], np.arange(m), [m]])
    upper = np.triu(np.ones((m + 1, m + 1), dtype=bool), 1)  # j > i
    while True:
        d = dist[np.ix_(path, path)]
        edge = d.diagonal(1)
        gain = (edge[:, None] + edge[None, :] - d[:-1, :-1] - d[1:, 1:]) * upper
        best = gain.argmax(axis=1)
        won = gain[np.arange(best.size), best]
        moves = np.flatnonzero(won > 0)
        if moves.size == 0:
            return path
        moves = moves[np.argsort(-won[moves], kind="stable")]
        lo, hi = [], []  # the edge spans of this round's reversals, ascending
        for i, j in zip(moves.tolist(), best[moves].tolist()):
            at = bisect.bisect_left(hi, i)
            if at == len(lo) or lo[at] > j:
                lo.insert(at, i)
                hi.insert(at, j)
                path[i + 1:j + 1] = path[j:i:-1].copy()


def _two_opt(S: SymbolicFactor, where, rows, start, size, p, runs) -> None:
    """Shorten by 2-opt the column path of every supernode with more blocks
    than updaters, updating ``where`` in place.  ``runs`` holds each pair's
    runs under ``where``.

    Consecutive columns with the same updaters form one city.  The distance
    between cities is their Hamming distance with a weight of 4u + 1 (u the
    supernode's updaters) on each updater that is one run, 1 on the others.
    A reversal changes by at most 2 the path edges that cross one updater's
    set, so splitting a one-run updater costs more than the other updaters
    can gain together, and every improving reversal removes blocks."""
    excess = np.bincount(p, runs, S.nsuper) > np.bincount(p, minlength=S.nsuper)
    for t in np.flatnonzero(excess).tolist():
        g = np.flatnonzero(p == t)
        f, w, u = int(S.first_col[t]), S.width(t), g.size
        member = np.zeros((w, u), dtype=bool)
        member[where[rows[_ranges(start[g], size[g])]] - f, np.repeat(np.arange(u), size[g])] = True
        first = np.flatnonzero(np.concatenate([[True], (member[1:] != member[:-1]).any(axis=1)]))
        cities = np.concatenate([member[first], np.zeros((1, u), dtype=bool)])
        weight = np.where(runs[g] == 1, 4 * u + 1, 1).astype(float)
        c = cities.astype(float)
        load = c @ weight
        it = np.int32 if 4 * u * (4 * u + 1) < 2**31 else np.int64  # holds two edges' sum
        dist = np.rint(load[:, None] + load[None, :] - 2 * (c * weight) @ c.T).astype(it)
        path = _shortest_path(dist)
        assert np.count_nonzero(cities[path[1:]] != cities[path[:-1]]) <= 2 * runs[g].sum(), \
            "2-opt added blocks"
        cols = np.empty(w, dtype=np.int64)
        cols[where[f:f + w] - f] = np.arange(f, f + w)
        seq = path[1:-1]
        where[cols[_ranges(first[seq], np.diff(np.append(first, w))[seq])]] = np.arange(f, f + w)


def reorder_within_supernodes(S: SymbolicFactor):
    """Reorder every supernode's columns by partition refinement, then 2-opt.

    Returns the global permutation (identity across supernode boundaries) and
    the symbolic factor rebuilt from the same first columns and the permuted
    row lists, whose ``merge_stats`` record S's block count
    (``blocks_before_reorder``) and the count after refinement alone
    (``blocks_after_refinement``)."""
    rows, start, k, p, size = S._pairs()
    where, before, after = _refine(S, rows, start, k, p, size)
    _two_opt(S, where, rows, start, size, p, after)
    n = S.n
    keys, _ = S._row_keys  # supernode * n + row
    s = keys // n
    keys = s * n + where[keys - s * n]
    keys.sort()
    stats = replace(S.merge_stats, blocks_before_reorder=int(before.sum()),
                    blocks_after_refinement=int(after.sum()))
    P = Permutation(where)
    return P, SymbolicFactor(S.first_col, _row_lists(keys, n, S.nsuper), S.relabel.compose(P),
                             stats)
