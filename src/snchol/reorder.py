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


def _two_opt(S: SymbolicFactor, where, rows, start, size, p, runs) -> None:
    """Shorten by 2-opt the column path of every supernode with more blocks
    than updaters, updating ``where`` in place.  ``runs`` holds each pair's
    runs under ``where``.

    Consecutive columns with the same updaters form one city.  The distance
    between cities is their Hamming distance with a weight of 4u + 1 (u the
    supernode's updaters) on each updater that is one run, 1 on the others.
    A reversal changes by at most 2 the path edges that cross one updater's
    set, so splitting a one-run updater costs more than the other updaters
    can gain together, and every improving reversal removes blocks.  The
    supernodes are shortened together, a stack per size class (``_shorten``)
    as wide as the class's most updaters."""
    count = np.bincount(p, minlength=S.nsuper)
    excess = np.bincount(p, runs, S.nsuper) > count
    t, e = np.flatnonzero(excess), np.flatnonzero(excess[p])
    u = count[t]
    e = e[np.argsort(p[e], kind="stable")]  # the pairs into t, by target
    item = np.repeat(np.arange(t.size), u)  # each pair's supernode, by its place in t
    col = np.arange(e.size) - (np.cumsum(u) - u)[item]  # the pair's updater there
    f, w = S.first_col[t], S.first_col[t + 1] - S.first_col[t]
    off = np.cumsum(w) - w  # where each supernode's positions start
    # member[x, k]: updater k of the supernode at position x holds that column
    member = np.zeros((w.sum(), u.max(initial=0)), dtype=bool)
    member[(where[rows[_ranges(start[e], size[e])]] - (f - off)[item].repeat(size[e])),
           col.repeat(size[e])] = True
    new = np.ones(member.shape[0], dtype=bool)
    new[1:] = (member[1:] != member[:-1]).any(axis=1)
    new[off] = True
    first = np.flatnonzero(new)  # each city's first position
    m = np.add.reduceat(new, off)  # cities per supernode
    city = np.cumsum(m) - m
    weight = np.zeros((t.size, member.shape[1]))
    weight[item, col] = np.where(runs[e] == 1, 4 * u[item] + 1, 1)
    tour = np.empty(first.size, dtype=np.int64)  # the cities in their new order
    size_class = np.frexp(m + 1)[1]
    for k in sorted(set(size_class.tolist())):
        b = np.flatnonzero(size_class == k)
        seq, mb, ub = _ranges(city[b], m[b]), m[b], u[b].max()
        stack = np.arange(b.size)[:, None]
        cities = np.zeros((b.size, mb.max() + 1, ub), dtype=bool)
        cities[stack.repeat(mb), seq - city[b].repeat(mb)] = member[first[seq], :ub]
        path = _shorten(cities, weight[b, :ub], mb)
        flips = cities[stack, path[:, 1:]] != cities[stack, path[:, :-1]]
        assert (flips.sum(axis=(1, 2)) <= 2 * np.bincount(item, runs[e])[b]).all(), \
            "2-opt added blocks"
        tour[seq] = path[:, 1:-1][np.arange(path.shape[1] - 2) < mb[:, None]] + city[b].repeat(mb)
    cols = np.empty(member.shape[0], dtype=np.int64)  # the column at each position
    at = _ranges(f, w)
    cols[where[at] - (f - off).repeat(w)] = at
    where[cols[_ranges(first[tour], np.diff(first, append=at.size)[tour])]] = at


def _shorten(cities: np.ndarray, weight: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Stacked paths shortened by 2-opt segment reversals until none improves
    them.  Entry b's path runs from the empty city m[b] through the cities
    ``cities[b, :m[b]]`` in order, back to it, and comes out padded with m[b];
    distances are Hamming distances weighted by ``weight[b]``.

    Reversing path[i + 1 : j + 1] trades edges i and j for the pairs (i, j)
    and (i + 1, j + 1).  Each round takes, for every i, the j that gains most,
    then applies the improving reversals best first, skipping any that shares
    an edge with one already applied, so the gains add up.  Gains past edge
    m[b] count as zero; an entry leaves the stack after a round without moves."""
    c, u = cities.astype(float), cities.shape[2]
    load = c @ weight[:, :, None]
    it = np.int32 if 4 * u * (4 * u + 1) < 2**31 else np.int64  # holds two edges' sum
    dist = np.rint(load + load.transpose(0, 2, 1)
                   - 2 * (c * weight[:, None, :]) @ c.transpose(0, 2, 1)).astype(it)
    n = cities.shape[1]  # edges per padded path
    path = np.minimum(np.arange(-1, n), m[:, None])
    path[:, 0] = m
    final, live = path.copy(), np.arange(m.size)
    ok = np.triu(np.ones((n, n), dtype=bool), 1) & (np.arange(n) <= m[:, None, None])  # j > i
    while live.size:
        row = (np.arange(live.size)[:, None] * n + path) * n  # where path[:, x]'s row starts
        d = dist.take(row[:, :, None] + path[:, None, :])
        edge = d.diagonal(1, 1, 2)
        gain = (edge[:, :, None] + edge[:, None, :] - d[:, :-1, :-1] - d[:, 1:, 1:]) * ok
        best, won = gain.argmax(axis=2), gain.max(axis=2)
        b, i = np.nonzero(won > 0)
        order = np.lexsort((i, -won[b, i], b))
        spans = {}  # per entry, the edge spans of this round's reversals, ascending
        for bb, ii, jj in zip(b[order].tolist(), i[order].tolist(), best[b, i][order].tolist()):
            lo, hi = spans.setdefault(bb, ([], []))
            at = bisect.bisect_left(hi, ii)
            if at == len(lo) or lo[at] > jj:
                lo.insert(at, ii)
                hi.insert(at, jj)
                path[bb, ii + 1:jj + 1] = path[bb, jj:ii:-1].copy()
        done = np.bincount(b, minlength=live.size) == 0
        final[live[done]] = path[done]
        live, path, dist, ok = live[~done], path[~done], dist[~done], ok[~done]
    return final


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
    keys = np.repeat(np.arange(S.nsuper) * S.n, S._lens) + where[S._glbind.rows]
    keys.sort()
    stats = replace(S.merge_stats, blocks_before_reorder=int(before.sum()),
                    blocks_after_refinement=int(after.sum()))
    P = Permutation(where)
    return P, SymbolicFactor(S.first_col, _row_lists(keys, S._lens, S.n), S.relabel.compose(P),
                             stats)
