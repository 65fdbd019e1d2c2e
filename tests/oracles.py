"""Independent oracles the tests check the library against.

These deliberately avoid the library's own code paths: dense boolean
elimination for structure, numpy's Cholesky for values, numpy products and
scipy's f2py wrappers for the dense kernels, brute-force enumeration for
orderings and stack schedules.
"""

import bisect
import itertools
import math

import numpy as np

from snchol.kernels import KernelBackend, NotPositiveDefiniteError
from snchol.matrix import SymmetricSparsePattern, SymmetricSparseMatrix, apply_symmetric_permutation
from snchol.symbolic import RowLists


def pattern_from_columns(n: int, cols: list) -> SymmetricSparsePattern:
    """A pattern from per-column row lists; the diagonal is added if absent."""
    colptr = np.zeros(n + 1, dtype=np.int64)
    rows = []
    for j in range(n):
        c = np.unique(np.asarray(list(cols[j]) + [j], dtype=np.int64))
        if c[0] != j:
            raise ValueError(f"column {j} contains rows above the diagonal")
        rows.append(c)
        colptr[j + 1] = colptr[j] + c.size
    return SymmetricSparsePattern(n, colptr, np.concatenate(rows) if rows else np.zeros(0, np.int64))


def below(S, j: int) -> np.ndarray:
    """Supernode j's rows below its diagonal block: its row list after its
    width."""
    return S.glbind(j)[S.width(j):]


def reference_to_dense(n: int, colptr, rowind, values) -> np.ndarray:
    """Dense n x n image of a CSC lower triangle."""
    L = np.zeros((n, n))
    for j in range(n):
        seg = slice(colptr[j], colptr[j + 1])
        L[rowind[seg], j] = values[seg]
    return L


def dense_matrix(A: SymmetricSparseMatrix) -> np.ndarray:
    """Dense n x n image of a symmetric matrix stored as its lower triangle."""
    D = np.zeros((A.n, A.n))
    for j in range(A.n):
        rows, vals = A.pattern.col(j), A.col_values(j)
        D[rows, j] = vals
        D[j, rows] = vals
    return D


def dense_factor(result) -> np.ndarray:
    """A factorization result's factor as a dense n x n lower triangle."""
    return reference_to_dense(result.stats.n, *result.factor_csc())


def boolean_fill(pattern: SymmetricSparsePattern) -> list:
    """Per-column factor row lists by dense boolean elimination."""
    n = pattern.n
    B = np.zeros((n, n), dtype=bool)
    for j in range(n):
        B[pattern.col(j), j] = B[j, pattern.col(j)] = True
    np.fill_diagonal(B, True)
    for k in range(n):
        rows = np.flatnonzero(B[k + 1:, k]) + k + 1
        for a in rows:
            B[rows, a] = True
            B[a, rows] = True
    return [np.flatnonzero(B[j:, j]) + j for j in range(n)]


def row_lists(lists) -> RowLists:
    """Per-supernode row lists as the one flat array ``SymbolicFactor`` reads."""
    lists = [np.asarray(g, dtype=np.int64) for g in lists]
    return RowLists(np.concatenate(lists + [np.zeros(0, np.int64)]),
                    np.cumsum([0] + [g.size for g in lists]))


def permute_pattern(pattern: SymmetricSparsePattern, P) -> SymmetricSparsePattern:
    """The pattern of P A P^T, by permuting a matrix of zeros on it."""
    dummy = SymmetricSparseMatrix(pattern, np.zeros(pattern.nnz))
    return apply_symmetric_permutation(dummy, P).pattern


def lower_by_row(pattern: SymmetricSparsePattern) -> tuple:
    """Rows and columns of the pattern's strictly-lower entries, sorted by
    row, then column, gathered column by column."""
    pairs = sorted((int(i), j) for j in range(pattern.n) for i in pattern.col(j)[1:])
    return (np.array([i for i, _ in pairs], dtype=np.int64),
            np.array([j for _, j in pairs], dtype=np.int64))


def fundamental_by_definition(tree, glb: list) -> np.ndarray:
    """First column of each fundamental supernode, followed by the sentinel n,
    column by column from the per-column structures: column j-1 joins j when j
    is its parent and only child and j-1's structure is j's plus j-1 itself
    (compared by size, since j-1's rows below j all lie in j's structure)."""
    n = tree.n
    firsts = [0] if n else []
    for j in range(1, n):
        joined = (tree.parent[j - 1] == j and np.count_nonzero(tree.parent == j) == 1
                  and glb[j - 1].size == glb[j].size + 1)
        if not joined:
            firsts.append(j)
    return np.asarray(firsts + [n], dtype=np.int64)


def merge_by_column_sets(first_col, rows: list, cap) -> tuple:
    """Supernode merging as ``merge_supernodes`` specifies it, with each
    supernode's columns held as a sorted array and its children as a list that
    every merge edits: pop the cheapest (growth, smallest column, id), re-push
    it if stale, stop before the cap is exceeded, then relabel by the merged
    tree's postorder (children by ascending id).  Returns (first_col, perm,
    row lists, (nsuper_after, nnz_after, merges))."""
    import heapq
    fc = np.asarray(first_col, dtype=np.int64)
    n, ns = int(fc[-1]), fc.size - 1
    ncols = np.diff(fc).tolist()
    cols = [np.arange(fc[s], fc[s + 1]) for s in range(ns)]
    below = [rows[s][ncols[s]:] for s in range(ns)]
    owner = np.repeat(np.arange(ns), ncols)
    parent = [int(owner[b[0]]) if b.size else -1 for b in below]
    children = [[c for c in range(ns) if parent[c] == s] for s in range(ns)]
    alive = [True] * ns
    nnz = sum(a * (a + b.size) - a * (a - 1) // 2 for a, b in zip(ncols, below))
    allowed = nnz * cap / 100.0 if cap is not None else -1.0

    def delta(c):
        p = parent[c]
        return ncols[c] * (ncols[p] + below[p].size - below[c].size)

    heap = [(delta(s), int(cols[s][0]), s) for s in range(ns) if parent[s] >= 0]
    heapq.heapify(heap)
    grown = merges = 0
    while heap and cap is not None:
        d, f, c = heapq.heappop(heap)
        if not alive[c]:
            continue
        if (delta(c), int(cols[c][0])) != (d, f):
            heapq.heappush(heap, (delta(c), int(cols[c][0]), c))
            continue
        if grown + d > allowed:
            break
        p = parent[c]
        cols[p] = np.sort(np.concatenate([cols[c], cols[p]]))
        ncols[p] += ncols[c]
        children[p].remove(c)
        for g in children[c]:
            parent[g] = p
        children[p].extend(children[c])
        alive[c] = False
        grown += d
        merges += 1
    post = []

    def visit(s):
        for c in sorted(children[s]):
            visit(c)
        post.append(s)

    for s in range(ns):
        if alive[s] and parent[s] < 0:
            visit(s)
    firsts = np.cumsum([0] + [ncols[s] for s in post])
    perm = np.empty(n, dtype=np.int64)
    for s, f in zip(post, firsts):
        perm[cols[s]] = np.arange(f, f + ncols[s])
    glbind = [np.concatenate([np.arange(f, f + ncols[s]), np.sort(perm[below[s]])])
              for s, f in zip(post, firsts)]
    nnz_after = sum(ncols[s] * (ncols[s] + below[s].size) - ncols[s] * (ncols[s] - 1) // 2
                    for s in post)
    return firsts, perm, glbind, (len(post), nnz_after, merges)


def panel_totals(first_col, glbind: list) -> tuple:
    """Factor nonzeros, factor work (potrf, trsm and syrk flops) and panel
    offsets of a partition, one supernode at a time in Python ints."""
    from snchol.kernels import potrf_flops, syrk_flops, trsm_flops
    nnz = work = 0
    offsets = [0]
    for a, g in zip(np.diff(first_col).tolist(), [x.size for x in glbind]):
        nnz += a * g - a * (a - 1) // 2
        work += potrf_flops(a) + trsm_flops(g - a, a) + syrk_flops(g - a, a)
        offsets.append(offsets[-1] + a * g)
    return nnz, work, offsets


def etree_from_structure(glb: list) -> np.ndarray:
    parent = np.full(len(glb), -1, dtype=np.int64)
    for j, g in enumerate(glb):
        if g.size > 1:
            parent[j] = g[1]
    return parent


def fill_count(pattern: SymmetricSparsePattern, perm: np.ndarray) -> int:
    """Number of factor entries after symmetrically permuting by perm."""
    n = pattern.n
    cols = [[] for _ in range(n)]
    for j in range(n):
        for i in pattern.col(j)[1:]:
            a, b = sorted((int(perm[i]), int(perm[j])))
            cols[a].append(b)
    p2 = pattern_from_columns(n, [sorted(set(c)) for c in cols])
    return sum(g.size for g in boolean_fill(p2))


def dense_permute(A: np.ndarray, perm: np.ndarray) -> np.ndarray:
    n = A.shape[0]
    out = np.zeros_like(A)
    idx = np.asarray(perm)
    out[np.ix_(idx, idx)] = A
    return out


def relind_direct(child_rows, parent_rows) -> np.ndarray:
    """Distance of each shared row from the bottom of the parent list."""
    parent_rows = list(parent_rows)
    return np.array([len(parent_rows) - 1 - parent_rows.index(r) for r in child_rows],
                    dtype=np.int64)


def compose_relative(rel_jc: np.ndarray, rel_cp: np.ndarray) -> np.ndarray:
    """Relative indices against a grandparent: gather each distance through the
    intermediate list.  Entry d becomes rel_cp[len(rel_cp) - 1 - d]."""
    rel_jc = np.asarray(rel_jc)
    if rel_jc.size and (rel_jc.min() < 0 or rel_jc.max() >= rel_cp.size):
        raise ValueError("relative index out of range for the intermediate list")
    return rel_cp[rel_cp.size - 1 - rel_jc]


def parent_relative_indices(S) -> list:
    """Each supernode's below rows as distances from the bottom of its
    parent's row list, by one binary search per supernode."""
    rels = []
    for j in range(S.nsuper):
        rows = below(S, j)
        rel = np.zeros(0, dtype=np.int64)
        if rows.size:  # only roots have no rows below
            pg = S.glbind(int(S.snode_parent[j]))
            at = np.searchsorted(pg, rows)
            assert np.array_equal(pg.take(at, mode="clip"), rows), j
            rel = pg.size - 1 - at
        rels.append(rel)
    return rels


def walk(S, rels: list, j: int, rel: np.ndarray):
    """Carry ``rel`` up the ancestor chain: a writable copy of some of
    supernode j's relative indices against its parent, in their order (all of
    them, or each block's first), ``rels`` holding every supernode's.  At each
    step up, the entries not yet placed are composed in place against the next
    ancestor with ``compose_relative``.  Yields (P, lo, hi) where rel[lo:hi]
    land in ancestor P's own columns; the segments cover 0..len(rel) in order,
    and on each yield rel[lo:] is relative to P."""
    n = rel.size
    lo, C, P = 0, j, int(S.snode_parent[j])
    while lo < n:
        assert P >= 0, "rows left after the root"
        if C != j:
            rel[lo:] = compose_relative(rel[lo:], rels[C])
        # rel descends, so P's own columns (indices >= mrows(P)) come first
        hi = lo
        while hi < n and rel[hi] >= S.mrows(P):
            hi += 1
        if hi > lo:
            yield P, lo, hi
            lo = hi
        C, P = P, int(S.snode_parent[P])


def build_indmap(S, j: int, indmap: np.ndarray) -> None:
    """Scatter supernode j's relative indices (distance from the bottom of its
    row list) into the length-n index map."""
    g = S.glbind(j)
    indmap[g] = g.size - 1 - np.arange(g.size, dtype=np.int64)


def dense_target(pos, c: int) -> bool:
    """Whether an update's rows, at ascending positions ``pos`` of the target's
    row list with the first ``c`` in the target's columns, land on contiguous
    storage: the triangle part and the part below it each one run."""
    return all(p.size <= 1 or bool(np.all(np.diff(p) == 1)) for p in (pos[:c], pos[c:]))


def table_entries(T) -> list:
    """An ``UpdateTable``'s entries as (k, p, lo, c, r, positions, dense)
    tuples of plain ints, lists and bools, in the table's order."""
    cols = zip(T.k.tolist(), T.p.tolist(), T.lo.tolist(), T.c.tolist(), T.r.tolist(),
               T.at.tolist(), T.dense.tolist())
    return [(k, p, lo, c, r, T.pos[at:at + r].tolist(), d) for k, p, lo, c, r, at, d in cols]


def table_runs(T) -> tuple:
    """An ``UpdateTable``'s runs (run, run_ptr, heads) as lists, one pair at
    a time: a run starts at a pair's first position, at its first position
    below the target's columns and wherever the positions skip."""
    run, run_ptr, heads = [], [0], []
    for at, c, r in zip(T.at.tolist(), T.c.tolist(), T.r.tolist()):
        ps = T.pos[at:at + r].tolist()
        starts = [i for i in range(r) if i in (0, c) or ps[i] != ps[i - 1] + 1]
        run += [at + i for i in starts]
        run_ptr.append(len(run))
        heads.append(sum(i < c for i in starts))
    return run, run_ptr, heads


def update_pairs_by_walk(S) -> list:
    """Every (updater k, target p) update as (k, p, lo, c, r, positions,
    dense), by k then p, from walking all of k's relative indices up the
    ancestor chain: each segment is one target, and the indices not yet placed
    give the positions of the rows from lo to the end."""
    rels = parent_relative_indices(S)
    out = []
    for k in range(S.nsuper):
        rel = rels[k].copy()
        for P, lo, hi in walk(S, rels, k, rel):
            pos = S.glbind(P).size - 1 - rel[lo:]
            out.append((k, P, lo, hi - lo, rel.size - lo, pos.tolist(),
                        dense_target(pos, hi - lo)))
    return out


def update_pairs_by_indmap(S) -> list:
    """The same updates as ``update_pairs_by_walk``, found the left-looking
    way: for each target p, its index map and, per updater, binary searches
    for the first row in p's columns and the last."""
    indmap = np.full(S.n, -1, dtype=np.int64)
    out = []
    for p, ks in enumerate(updater_lists(S)):
        f, l = S.cols(p)
        build_indmap(S, p, indmap)
        for k in ks:
            b = below(S, k)
            lo = int(np.searchsorted(b, f))
            c = int(np.searchsorted(b, l, side="right")) - lo
            pos = S.glbind(p).size - 1 - indmap[b[lo:]]
            out.append((k, p, lo, c, b.size - lo, pos.tolist(), dense_target(pos, c)))
    return sorted(out, key=lambda t: (t[0], t[1]))


def simulate_stack_peak(parent, square, push, child_order) -> int:
    """Step-by-step stack simulation: pushes in postorder, the square update
    matrix laid in place over the first pop.  Independent of the library's
    recurrence."""
    ns = len(parent)
    children = [[] for _ in range(ns)]
    for s in range(ns):
        if parent[s] >= 0:
            children[parent[s]].append(s)
    peak = 0

    def process(j, base):
        nonlocal peak
        run = base
        last = 0
        for c in child_order[j]:
            process(c, run)
            run += push[c]
            if push[c] > 0:
                last = push[c]
        peak = max(peak, run - last + square[j])

    for s in range(ns):
        if parent[s] < 0:
            process(s, 0)
    return peak


def stack_child_orders(parent, square, push) -> list:
    """Each node's children in the order the stack-minimizing postorder visits
    them: by decreasing (subtree peak - pushed size), ties by id, then the
    best choice of last-pushed child, tried one candidate at a time.  Per-node
    lists, with the subtree peaks kept as plain ints."""
    ns = len(parent)
    children = [[c for c in range(ns) if parent[c] == j] for j in range(ns)]
    peak = [0] * ns
    chosen = [[] for _ in range(ns)]

    def stack(order, sq):
        run = top = last = 0
        for c in order:
            top = max(top, run + peak[c])
            run += int(push[c])
            if push[c] > 0:
                last = int(push[c])
        return max(top, run - last + sq)

    for j in range(ns):
        base = sorted(children[j], key=lambda c: (int(push[c]) - peak[c], c))
        best, best_peak = base, stack(base, int(square[j]))
        for lp in [c for c in base if push[c] > 0]:
            cand = [c for c in base if c != lp] + [lp]
            if stack(cand, int(square[j])) < best_peak:
                best, best_peak = cand, stack(cand, int(square[j]))
        peak[j] = best_peak if children[j] else int(square[j])
        chosen[j] = best
    return chosen


def exhaustive_stack_minimum(parent, square, push) -> int:
    """Minimum stack peak over all sibling orders, by full enumeration."""
    ns = len(parent)
    children = [[] for _ in range(ns)]
    for s in range(ns):
        if parent[s] >= 0:
            children[parent[s]].append(s)
    best = [0] * ns
    for j in range(ns):
        kids = children[j]
        if not kids:
            best[j] = int(square[j])
            continue
        opt = None
        for order in itertools.permutations(kids):
            run = 0
            peak = 0
            last = 0
            for c in order:
                peak = max(peak, run + best[c])
                run += push[c]
                if push[c] > 0:
                    last = push[c]
            peak = max(peak, run - last + int(square[j]))
            opt = peak if opt is None else min(opt, peak)
        best[j] = opt
    return max((best[s] for s in range(ns) if parent[s] < 0), default=0)


def incoming_block_count(S, p: int, col_positions=None, updaters=None) -> int:
    """Blocks delivered into supernode p's columns, optionally under a
    relabeling of p's columns given by col_positions[col - first].
    ``updaters`` is ``updater_lists(S)``, found here when not given."""
    f, l = S.cols(p)
    total = 0
    for k in (updater_lists(S) if updaters is None else updaters)[p]:
        b = below(S, int(k))
        rows = b[(b >= f) & (b <= l)]
        if rows.size == 0:
            continue
        pos = rows - f if col_positions is None else np.sort(col_positions[rows - f])
        total += 1 + int(np.count_nonzero(np.diff(pos) != 1))
    return total


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


def run_count(xs: list) -> int:
    """Number of maximal runs of consecutive integers in an ascending list."""
    return len(xs) - sum(b == a + 1 for a, b in zip(xs, xs[1:]))


def reorder_by_refinement(S) -> tuple:
    """Partition refinement of every supernode's columns, one supernode and
    one list of cells at a time: updaters applied largest row set first (ties
    by ascending supernode), a supernode that would gain blocks keeping its
    order.  Returns the global permutation (perm[old] = new) and S's block
    count."""
    perm = np.arange(S.n, dtype=np.int64)
    blocks = 0
    ups = updater_lists(S)
    for p in range(S.nsuper):
        f, l = S.cols(p)
        pivots = []
        for k in ups[p]:
            b = below(S, k)
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
            before += run_count(rows)
            after += run_count(sorted(cand[x] for x in rows))
        blocks += before
        if after <= before:
            perm[new_order] = np.arange(f, l + 1)
    return perm, blocks


def shortest_path(dist: np.ndarray) -> np.ndarray:
    """A path from the last city through all the others back to it, shortened
    from the identity by 2-opt segment reversals until none improves it.

    Reversing path[i + 1 : j + 1] trades edges i and j for the pairs (i, j)
    and (i + 1, j + 1).  Each round takes, for every i, the j that gains most,
    then applies the improving reversals best first, skipping any that shares
    an edge with one already applied, so the gains add up.  This is the
    per-supernode loop the lockstep rounds of ``reorder._shorten`` replaced."""
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


def two_opt_by_supernode(S, where, rows, start, size, p, runs) -> np.ndarray:
    """``reorder._two_opt`` one supernode at a time, each path shortened by
    ``shortest_path`` on its own distance matrix; returns the new ``where``
    and leaves the argument as it was."""
    where = where.copy()
    excess = np.bincount(p, runs, S.nsuper) > np.bincount(p, minlength=S.nsuper)
    for t in np.flatnonzero(excess).tolist():
        g = np.flatnonzero(p == t)
        f, w, u = int(S.first_col[t]), S.width(t), g.size
        member = np.zeros((w, u), dtype=bool)
        for k, e in enumerate(g.tolist()):
            member[where[rows[start[e]:start[e] + size[e]]] - f, k] = True
        first = np.flatnonzero(np.concatenate([[True], (member[1:] != member[:-1]).any(axis=1)]))
        path = shortest_path(city_distances(np.concatenate([member[first],
                                                            np.zeros((1, u), dtype=bool)]),
                                            np.where(runs[g] == 1, 4 * u + 1, 1)))
        cols = np.empty(w, dtype=np.int64)
        cols[where[f:f + w] - f] = np.arange(f, f + w)
        ends = np.append(first, w)
        order = [x for c in path[1:-1].tolist() for x in cols[ends[c]:ends[c + 1]].tolist()]
        where[order] = np.arange(f, f + w)
    return where


def city_distances(cities: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Weighted Hamming distances between the rows of ``cities``, in the
    integer type that holds the sum of two of them."""
    c, weight = cities.astype(float), np.asarray(weight, dtype=float)
    load = c @ weight
    u = cities.shape[1]
    it = np.int32 if 4 * u * (4 * u + 1) < 2**31 else np.int64
    return np.rint(load[:, None] + load[None, :] - 2 * (c * weight) @ c.T).astype(it)


def postorder_by_recursion(parent, children) -> list:
    """Postorder of a forest: roots (parent -1) by ascending id, each node's
    children in the order ``children[v]`` lists them, nodes marked -2 left
    out."""
    out = []

    def visit(v):
        for c in children[v]:
            visit(c)
        out.append(v)

    for v in range(len(parent)):
        if parent[v] == -1:
            visit(v)
    return out


def min_incoming_blocks_exhaustive(S, p: int) -> int:
    """Exhaustive minimum of incoming_block_count over all column orders of
    supernode p (small widths only)."""
    f, l = S.cols(p)
    w = l + 1 - f
    ups = updater_lists(S)
    best = None
    for order in itertools.permutations(range(w)):
        pos = np.empty(w, dtype=np.int64)
        for t, o in enumerate(order):
            pos[o] = t
        c = incoming_block_count(S, p, pos, ups)
        best = c if best is None else min(best, c)
    return best


def ll_peak_per_pair(S) -> int:
    """The left-looking slab plan by one binary search per (updater, target)
    pair: for every supernode k wider than one column that updates j, the
    update's rows are located in j's row list, and a non-contiguous placement
    of either the triangle part or the part below needs rows x columns."""
    peak = 0
    ups = updater_lists(S)
    for j in range(S.nsuper):
        f, l = S.cols(j)
        gj = S.glbind(j)
        for k in ups[j]:
            if S.width(int(k)) == 1:
                continue
            gk = S.glbind(int(k))
            rows = gk[int(np.searchsorted(gk, f)):]
            c = int(np.searchsorted(rows, l, side="right"))
            pos = np.searchsorted(gj, rows)
            if pos.size and not np.array_equal(gj[pos], rows):
                raise AssertionError("update rows missing from target structure")
            if not dense_target(pos, c):
                peak = max(peak, rows.size * c)
    return peak


def column_error(n: int, colptr, rowind):
    """First per-column rejection of a CSC lower-triangle pattern, checked
    column by column (colptr itself assumed valid), or None."""
    for j in range(n):
        col = rowind[colptr[j]:colptr[j + 1]]
        if col[0] != j:
            return f"column {j} must store its diagonal first"
        if col.size > 1 and (np.any(np.diff(col) <= 0) or col[-1] >= n):
            return f"column {j} rows must be strictly ascending and < n"
    return None


def block_lists(S) -> tuple:
    """(sizes, starts) of each supernode's dense blocks, one supernode at a time."""
    sizes, starts = [], []
    for j in range(S.nsuper):
        b = below(S, j)
        owner = S.col_to_snode[b]
        brk = np.flatnonzero((np.diff(b) != 1) | (np.diff(owner) != 0)) + 1
        st = np.concatenate([[0], brk]).astype(np.int64) if b.size else brk
        sizes.append(np.diff(np.concatenate([st, [b.size]])))
        starts.append(st)
    return sizes, starts


def updater_lists(S) -> list:
    """updaters[p] by appending each k to the owners of its below rows."""
    ups = [[] for _ in range(S.nsuper)]
    for k in range(S.nsuper):
        for p in np.unique(S.col_to_snode[below(S, k)]):
            ups[int(p)].append(k)
    return ups


def dense_deviation(result) -> float:
    """Deviation of a factorization result from the column algorithm by
    comparing two dense n x n factors (the check the sparse comparison
    replaced; small cases only)."""
    from snchol.numeric import column_factor
    A2 = result.A_factored
    Lref = reference_to_dense(A2.n, *column_factor(A2))
    Lgot = dense_factor(result)
    scale = max(1.0, float(np.abs(Lref).max(initial=0.0)))
    return float(np.abs(Lgot - Lref).max(initial=0.0)) / scale


def panels(F) -> list:
    """Supernode j's panel: the g-by-a column-major view of ``F.data`` at
    the offset and leading dimension of its diagonal step
    ``S.rlb_schedule.diag[j]``."""
    return [F.data[p:p + ld * a].reshape((ld, a), order="F")
            for p, ld, a, _ in F.S.rlb_schedule.diag.tolist()]


def scatter_per_column(A, S):
    """Scatter A's lower triangle into fresh panels one column at a time,
    locating each column's rows in its supernode's row list by binary search
    (the loop the slot map replaced)."""
    from snchol.numeric import FactorStorage, StructureError
    if A.n != S.n:
        raise ValueError("matrix and symbolic factor dimensions differ")
    F = FactorStorage(S)
    P = panels(F)
    for j in range(S.n):
        sj = int(S.col_to_snode[j])
        c = j - int(S.first_col[sj])
        g = S.glbind(sj)
        rows = A.pattern.col(j)
        pos = np.searchsorted(g, rows)
        ok = (pos < g.size) & (g[np.minimum(pos, g.size - 1)] == rows)
        if not ok.all():
            bad = int(rows[~ok][0])
            raise StructureError(f"entry ({bad},{j}) of A is outside the factor structure")
        P[sj][pos, c] = A.col_values(j)
    return F


def rlb_calls_by_walk(S) -> tuple:
    """rlb's kernel calls as ``CallSchedule`` rows ``(kind, c, ldc, m, n, x,
    y)`` and the number of calls per supernode, found the way
    ``factor_rlb`` found them before its schedule was compiled: carry each
    supernode's block-first relative indices (blocks from ``block_lists``)
    up the ancestor chain with ``walk``; each block landing in ancestor P
    updates P's triangle at its rows (syrk), then the rectangle at each run
    of later blocks whose rows sit directly below one another in P's row list
    (gemm), rescanning for the run's end."""
    from snchol.kernels import GEMM, SYRK
    rels = parent_relative_indices(S)
    block_sizes, block_starts = block_lists(S)
    rows, per = [], []
    for j in range(S.nsuper):
        a, g, off = S.width(j), S.glbind(j).size, int(S.panel_offsets[j])
        sizes = block_sizes[j].tolist()
        starts = (block_starts[j] + a).tolist() + [g]
        rb = rels[j][block_starts[j]]
        before = len(rows)
        for P, lo, hi in walk(S, rels, j, rb):
            rbl = rb.tolist()
            gp = S.glbind(P).size
            for bi in range(lo, hi):
                p0 = gp - 1 - rbl[bi]
                col = int(S.panel_offsets[P]) + p0 * gp
                y = off + starts[bi]
                rows.append([SYRK, col + p0, gp, sizes[bi], sizes[bi], y, y])
                q = bi + 1
                while q < len(sizes):
                    e = q + 1
                    while e < len(sizes) and rbl[e] == rbl[e - 1] - sizes[e - 1]:
                        e += 1
                    rows.append([GEMM, col + gp - 1 - rbl[q], gp, starts[e] - starts[q],
                                 sizes[bi], off + starts[q], y])
                    q = e
        per.append(len(rows) - before)
    return np.array(rows, dtype=np.int64).reshape(-1, 7), per


def assembler_by_columns(F, S, assembled, ld):
    """``numeric._assembler`` as it was before its flat scatter-add, pair by
    pair: a pair with no more ``S.rlb_schedule`` rows than columns adds each
    row's rectangle as one slice, any other each column as one scatter-add
    into its target's panel view.  The same contract: ``assemble(e0, e1, U)``
    adds pairs e0 to e1 - 1, all ``assembled``, whose update matrix U has
    ``ld[e]`` rows, pair e's r rows and its columns from row ld[e] - r on."""
    T, sched = S.update_table, S.rlb_schedule
    data, P, view, f8 = F.data, panels(F), np.ndarray, F.data.dtype
    pp = sched.pair_ptr
    by_rows = np.diff(pp) <= T.c
    base = S.panel_offsets[T.k] + S._lens[T.k] - T.r  # pair's first row in F.data

    def add(e: int, U: np.ndarray) -> None:
        if by_rows.item(e):
            b = base.item(e)
            for _, c, ldc, m, n, x, y in sched.rows[pp.item(e):pp.item(e + 1)].tolist():
                C = view((m, n), f8, data, 8 * c, (8, 8 * ldc))
                C += U[x - b:x - b + m, y - b:y - b + n]
            return
        at = T.at.item(e)
        Pe, pos = P[T.p.item(e)], T.pos[at:at + T.r.item(e)]
        for t in range(T.c.item(e)):
            Pe[pos[t:], pos[t]] += U[t:, t]

    def assemble(e0: int, e1: int, U: np.ndarray) -> None:
        assert assembled[e0:e1].all(), (e0, e1)
        for e in range(e0, e1):
            lo = int(ld[e] - T.r[e])
            add(e, U[lo:, lo:])
    return assemble


def packed(n: int) -> np.ndarray:
    """(rows, columns) of an n-by-n lower triangle in packed column-major
    order, the update-matrix stack's layout, counted from the end: entry
    (i, t) is (i - n, t - n).  Its first c n - c(c-1)/2 entries are the
    n-by-c trapezoid of the first c columns."""
    t, i = np.triu_indices(n)
    return np.array((i - n, t - n))


def outer_updater_by_panels(F, S, pairs):
    """``numeric._outer_updater`` as ``factor_ll`` made its width-1 updates
    before their flat index: pair e's r-by-c trapezoid, the first
    c r - c(c-1)/2 entries of ``packed(r)``, of v v^T, v the updater's one
    column at the pair's r rows in its panel view, subtracted from the
    target's panel view by one 2-D tuple index, row factor times column
    factor.  The same contract: ``outer(e)`` for a pair e that ``pairs``
    selects."""
    T, P = S.update_table, panels(F)

    def outer(e: int) -> None:
        assert pairs[e], e
        at, r, c = T.at.item(e), T.r.item(e), T.c.item(e)
        v, i = P[T.k.item(e)][1 + T.lo.item(e):, 0], packed(r)[:, :c * r - c * (c - 1) // 2]
        P[T.p.item(e)][tuple(T.pos[at:at + r][i])] -= np.multiply(*v[i])
    return outer


def extend_in_place(arena, src_off, nrows, dst_off, m, qpos) -> None:
    """Scatter a packed lower triangle over ``nrows`` rows at ``src_off`` into
    the m-by-m square at ``dst_off``: entry (i, t) goes to (qpos[i], qpos[t]),
    every other entry is zero.  The square may overlap the source: the source
    is copied out before the square is zeroed."""
    rows, cols = qpos[packed(nrows)]
    source = arena[src_off:src_off + rows.size].copy()
    arena[dst_off:dst_off + m * m] = 0.0
    arena[dst_off + rows + m * cols] = source


def pack_descending(arena, sq_off, m, k, dst_off) -> None:
    """Pack the trailing (m-k) lower triangle of the m-by-m square at
    ``sq_off`` into a packed triangle at ``dst_off``.  One gather, which
    copies: the destination may overlap the square."""
    square = arena[sq_off:sq_off + m * m].reshape((m, m), order="F")
    trailing = packed(m - k)  # counted from the end of the square's rows and columns
    arena[dst_off:dst_off + trailing.shape[1]] = square[tuple(trailing)]


def factor_mf_per_child(F, S, R, W, backend, stats) -> None:
    """``numeric.factor_mf`` as it moved its triangles before their flat
    offsets, child by child through 2-D indexes read from ``packed``: the
    top child's triangle extended in place (``extend_in_place``), the
    others' added by one 2-D tuple index into the square, the push packed by
    ``pack_descending``.  The same contract, calls and counters."""
    from snchol.kernels import supernode_calls
    from snchol.numeric import _assembler, _supernodal_run
    T = S.update_table
    up, cs, rs, at = (x.tolist() for x in (T.ptr, T.c, T.r, T.at))
    diag, parent = S.rlb_schedule.diag.tolist(), S.snode_parent.tolist()
    top = cap = W.arena.size
    tags = []
    with_parent = T.lo == 0
    with _supernodal_run(F, S, W, stats, {"syrk": S.rlb_schedule.diag_calls["trsm"]},
                         with_parent):
        step, syrk, _, _ = supernode_calls(backend, F.data, S.rlb_schedule, W.arena,
                                           S.plans.mf_peak)
        assemble = _assembler(F, S, with_parent, T.lo + T.r)
        for j in S.plans.mf_postorder.tolist():
            p, ld, a, _ = diag[j]
            m = ld - a
            sq = None
            while tags and parent[tags[-1][0]] == j:
                c, u_c = tags.pop()
                e = up[c]
                qpos = T.pos[at[e] + cs[e]:at[e] + rs[e]] - a  # pushed rows, in j's square
                if sq is None:
                    sq_off = top + u_c - m * m
                    extend_in_place(W.arena, top, qpos.size, sq_off, m, qpos)
                    sq = W.arena[sq_off:sq_off + m * m].reshape((m, m), order="F")
                else:
                    sq[tuple(qpos[packed(qpos.size)])] += W.arena[top:top + u_c]
                    stats.assembly_ops += u_c
                top += u_c
            step(j)
            if m == 0:
                continue
            if sq is None:
                sq_off = top - m * m
                sq = W.arena[sq_off:top].reshape((m, m), order="F")
                sq[:] = 0.0
            W.peak = max(W.peak, cap - sq_off)
            syrk(W.arena, sq_off, m, m, p + a, ld, a)
            assemble(up[j], up[j] + 1, sq)
            k = cs[up[j]]
            u_j = (m - k) * (m - k + 1) // 2
            if u_j:
                top -= u_j
                pack_descending(W.arena, sq_off, m, k, top)
                tags.append((j, u_j))
        assert not tags and top == cap


def generate_spd_by_table(n: int, density: float, seed: int):
    """``generate_spd`` as it was written first: the same draws, each linear
    index looked up in the n x n table of ``np.tril_indices``."""
    from snchol.matrix import _assemble_lower
    rng = np.random.default_rng(seed)
    ti, tj = np.tril_indices(n, -1)
    k = int(round(density * ti.size))
    if k > 0:
        pick = np.sort(rng.choice(ti.size, size=k, replace=False))
        oi, oj = ti[pick], tj[pick]
        ov = rng.uniform(-1.0, 1.0, size=k)
    else:
        oi = oj = np.zeros(0, dtype=np.int64)
        ov = np.zeros(0)
    rowsum = np.zeros(n)
    np.add.at(rowsum, oi, np.abs(ov))
    np.add.at(rowsum, oj, np.abs(ov))
    dd = np.arange(n, dtype=np.int64)
    return _assemble_lower(n, np.concatenate([oi, dd]), np.concatenate([oj, dd]),
                           np.concatenate([ov, 1.0 + rowsum]), pattern_only=False)


def solve_per_column(F, S, b):
    """Solve L L^T x = b supernode by supernode with one Python statement per
    column of each diagonal triangle, gathering each supernode's columns of x
    through its row list (the loops the per-supernode solve replaced)."""

    def lower(T, y):
        for j in range(T.shape[0]):
            y[j] = (y[j] - T[j, :j] @ y[:j]) / T[j, j]

    def lower_t(T, y):
        for j in range(T.shape[0] - 1, -1, -1):
            y[j] = (y[j] - T[j + 1:, j] @ y[j + 1:]) / T[j, j]

    x = np.asarray(b, dtype=np.float64).copy()
    P = panels(F)
    for j in range(S.nsuper):
        a, g, panel = S.width(j), S.glbind(j), P[j]
        y = x[g[:a]]
        lower(panel[:a, :a], y)
        x[g[:a]] = y
        if g.size > a:
            x[g[a:]] -= panel[a:, :] @ y
    for j in range(S.nsuper - 1, -1, -1):
        a, g, panel = S.width(j), S.glbind(j), P[j]
        y = x[g[:a]]
        if g.size > a:
            y -= panel[a:, :].T @ x[g[a:]]
        lower_t(panel[:a, :a], y)
        x[g[:a]] = y
    return x


def lower_csc_per_column(F):
    """A factor storage's lower triangle as (colptr, rowind, values), appending
    one row slice and one value slice per column (the loop the range gather
    replaced)."""
    S = F.S
    rows, vals = [], []
    for j, P in enumerate(panels(F)):
        g = S.glbind(j)
        for c in range(S.width(j)):
            rows.append(g[c:])
            vals.append(P[c:, c])
    colptr = np.cumsum([0] + [r.size for r in rows], dtype=np.int64)
    if not rows:  # n = 0
        return colptr, np.zeros(0, np.int64), np.zeros(0)
    return colptr, np.concatenate(rows), np.concatenate(vals)


def minimum_degree_by_cliques(pattern: SymmetricSparsePattern) -> np.ndarray:
    """Greedy minimum external degree, ties broken by smallest index, one
    vertex per step with an explicit clique formed on each elimination (the
    form mass elimination replaced).  Returns ``perm`` (old -> new)."""
    import heapq
    n = pattern.n
    adj = [set() for _ in range(n)]
    for j in range(n):
        for i in pattern.col(j)[1:]:
            adj[int(i)].add(j)
            adj[j].add(int(i))
    alive = np.ones(n, dtype=bool)
    perm = np.empty(n, dtype=np.int64)
    heap = [(len(adj[v]), v) for v in range(n)]
    heapq.heapify(heap)
    for step in range(n):
        while True:
            d, v = heapq.heappop(heap)
            if alive[v] and d == len(adj[v]):
                break
        alive[v] = False
        perm[v] = step
        nbrs = adj[v]
        for u in nbrs:
            adj[u].discard(v)
        for u in nbrs:
            grow = nbrs - adj[u]
            grow.discard(u)
            if grow:
                adj[u] |= grow
            heapq.heappush(heap, (len(adj[u]), u))
        adj[v] = set()
    return perm


def read_matrix_market_per_line(path):
    """``read_matrix_market`` as it was first written: every entry line split
    and converted on its own, three numpy scalar stores per entry, with no
    bound on the declared dimension."""
    from snchol.matrix import (MatrixMarketError, MatrixMarketHeaderError,
                               MatrixMarketIndexError, MatrixMarketSymmetryError,
                               _assemble_lower)
    with open(path, "r") as fh:
        lines = fh.readlines()
    if not lines:
        raise MatrixMarketHeaderError("line 1: empty file")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "%%MatrixMarket" or head[1].lower() != "matrix":
        raise MatrixMarketHeaderError("line 1: malformed MatrixMarket header")
    fmt, fieldkind, sym = (t.lower() for t in head[2:5])
    if fmt != "coordinate":
        raise MatrixMarketHeaderError("line 1: only coordinate format is supported")
    if fieldkind not in ("real", "integer", "pattern"):
        raise MatrixMarketHeaderError(f"line 1: unsupported field type '{fieldkind}'")
    if sym != "symmetric":
        raise MatrixMarketSymmetryError(f"line 1: matrix declared '{sym}', expected symmetric")
    pattern_only = fieldkind == "pattern"

    lineno = 1
    k = 1
    while k < len(lines) and (lines[k].startswith("%") or not lines[k].strip()):
        k += 1
    if k >= len(lines):
        raise MatrixMarketHeaderError(f"line {k}: missing size line")
    lineno = k + 1
    toks = lines[k].split()
    if len(toks) != 3:
        raise MatrixMarketHeaderError(f"line {lineno}: size line must have 3 integers")
    try:
        nrows, ncols, nent = (int(t) for t in toks)
    except ValueError:
        raise MatrixMarketHeaderError(f"line {lineno}: size line must have 3 integers")
    if min(nrows, ncols, nent) < 0:
        raise MatrixMarketHeaderError(f"line {lineno}: negative dimension or entry count")
    if nent > len(lines) - lineno:  # checked before the entry arrays are allocated
        raise MatrixMarketHeaderError(f"line {lineno}: declares {nent} entries but only "
                                      f"{len(lines) - lineno} line(s) follow")
    if nrows != ncols:
        raise MatrixMarketSymmetryError(f"line {lineno}: matrix is {nrows}x{ncols}, not square")
    n = nrows

    ii = np.empty(nent, dtype=np.int64)
    jj = np.empty(nent, dtype=np.int64)
    vv = np.empty(nent, dtype=np.float64)
    want = 3 if not pattern_only else 2
    m = 0
    for off, line in enumerate(lines[k + 1:]):
        lineno = k + 2 + off
        if line.startswith("%") or not line.strip():
            continue
        toks = line.split()
        if len(toks) < want:
            raise MatrixMarketError(f"line {lineno}: expected {want} fields, got {len(toks)}")
        if m >= nent:
            raise MatrixMarketError(f"line {lineno}: more entries than declared ({nent})")
        try:
            i = int(toks[0])
            j = int(toks[1])
            v = 1.0 if pattern_only else float(toks[2])
        except ValueError:
            raise MatrixMarketError(f"line {lineno}: malformed entry")
        if not (1 <= i <= n and 1 <= j <= n):
            raise MatrixMarketIndexError(f"line {lineno}: index ({i},{j}) out of range for n={n}")
        # mirror explicit upper entries into the lower triangle
        ii[m], jj[m] = (i - 1, j - 1) if i >= j else (j - 1, i - 1)
        vv[m] = v
        m += 1
    if m != nent:
        raise MatrixMarketError(f"line {lineno}: {m} entries read, {nent} declared")

    return _assemble_lower(n, ii[:m], jj[:m], vv[:m], pattern_only)


def assemble_lower_two_sorts(n, ii, jj, vv, pattern_only):
    """``matrix._assemble_lower`` as it was before it sorted once: sort and
    sum duplicates, then append the missing diagonals as explicit zeros and
    sort again."""
    from snchol.matrix import SymmetricSparseMatrix, SymmetricSparsePattern
    order = np.lexsort((ii, jj))
    ii, jj, vv = ii[order], jj[order], vv[order]
    if ii.size:
        keep = np.concatenate([[True], (np.diff(ii) != 0) | (np.diff(jj) != 0)])
        idx = np.flatnonzero(keep)
        ii, jj, vv = ii[idx], jj[idx], np.add.reduceat(vv, idx)
    missing = np.ones(n, dtype=bool)
    missing[jj[ii == jj]] = False
    if np.any(missing):
        add = np.flatnonzero(missing)
        ii = np.concatenate([ii, add])
        jj = np.concatenate([jj, add])
        vv = np.concatenate([vv, np.zeros(add.size)])
        order = np.lexsort((ii, jj))
        ii, jj, vv = ii[order], jj[order], vv[order]
    if pattern_only:
        deg = np.zeros(n, dtype=np.int64)
        off = ii != jj
        np.add.at(deg, ii[off], 1)
        np.add.at(deg, jj[off], 1)
        vv = np.where(ii == jj, deg[ii] + 1.0, -1.0)
        missing = np.zeros(n, dtype=bool)
    colptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(colptr, jj + 1, 1)
    np.cumsum(colptr, out=colptr)
    return SymmetricSparseMatrix(SymmetricSparsePattern(n, colptr, ii), vv, missing)


def chol_columns(T) -> None:
    """Cholesky of square T's lower triangle in place, column by column,
    raising NotPositiveDefiniteError at the first pivot that is not positive.
    It decides pivots by its own arithmetic, not by LAPACK's."""
    for j in range(T.shape[0]):
        d = T[j, j] - T[j, :j] @ T[j, :j]
        if not d > 0.0:
            raise NotPositiveDefiniteError(j)
        d = T[j, j] = np.sqrt(d)
        T[j + 1:, j] = (T[j + 1:, j] - T[j + 1:, :j] @ T[j, :j]) / d


def chol_numpy(T) -> None:
    """``numpy.linalg.cholesky`` of square T's lower triangle, written back
    through a lower-triangle mask: T's strict upper triangle is not written."""
    np.copyto(T, np.linalg.cholesky(T), where=np.tri(T.shape[0], dtype=bool))


def trsm_numpy(T, B) -> None:
    """B <- B T^{-T}: ``numpy.linalg.solve`` of T's lower triangle against B^T."""
    B[...] = np.linalg.solve(np.tril(T), B.T).T


def trsm_columns(T, B) -> None:
    """B <- B T^{-T}, one column of B at a time against T's lower triangle,
    each column scaled by the reciprocal of its pivot, as the reference BLAS
    dtrsm does for a right, lower, transposed solve."""
    for j in range(T.shape[0]):
        B[:, j] = (B[:, j] - B[:, :j] @ T[j, :j]) * (1.0 / T[j, j])


def numpy_backend() -> KernelBackend:
    """A second kernel set to check the library's by-address LAPACK/BLAS
    calls against: syrk and gemm as numpy products (syrk's subtracted through
    a lower-triangle mask), chol and trsm as scipy's copying f2py wrappers of
    dpotrf and dtrsm, written back.  chol leaves T untouched when it fails,
    naming the first NaN pivot before dpotrf's failed column, or that column.
    It has no schedule runner, so the factorizations run it on panel views."""
    from scipy.linalg.blas import dtrsm
    from scipy.linalg.lapack import dpotrf

    def chol(T):
        m = T.shape[0]
        if T.shape[1] != m:
            raise ValueError("chol needs a square view")
        L, info = dpotrf(T, lower=1, clean=0)
        done = info - 1 if info else m
        nan = np.flatnonzero(np.isnan(L.diagonal()[:done]))
        if nan.size or info:
            raise NotPositiveDefiniteError(int(nan[0]) if nan.size else done)
        np.copyto(T, L, where=np.tri(m, dtype=bool))

    def trsm(T, B):
        m = T.shape[0]
        if T.shape[1] != m or B.shape[1] != m:
            raise ValueError("shape mismatch in trsm")
        zero = np.flatnonzero(T.diagonal() == 0.0)
        if zero.size:
            raise ValueError(f"zero diagonal at index {zero[0]} in triangular solve")
        B[...] = dtrsm(1.0, T, B, side=1, lower=1, trans_a=1)

    def syrk(C, X):
        if C.shape != (X.shape[0], X.shape[0]):
            raise ValueError("shape mismatch in syrk")
        np.subtract(C, X @ X.T, out=C, where=np.tri(C.shape[0], dtype=bool))

    def gemm(C, X, Y):
        if X.shape[1] != Y.shape[1] or C.shape != (X.shape[0], Y.shape[0]):
            raise ValueError("shape mismatch in gemm")
        C -= X @ Y.T

    return KernelBackend("numpy", chol, trsm, syrk, gemm)


def profile_at(times: dict, tau: float) -> dict:
    """method -> fraction of matrices whose time is within tau times the
    per-matrix best, counted one matrix at a time; a failed run (inf) never
    counts.  The ratio is time / best, as Dolan and More define it, so a tau
    that is itself a rounded ratio counts the run it came from."""
    methods = list(times)
    nmat = len(times[methods[0]])
    out = {}
    for m in methods:
        count = 0
        for j in range(nmat):
            best = min(times[k][j] for k in methods)
            if math.isfinite(times[m][j]) and times[m][j] / best <= tau:
                count += 1
        out[m] = count / nmat
    return out
