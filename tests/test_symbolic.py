import heapq
from functools import cached_property

import numpy as np
import pytest

from snchol import reorder, symbolic
from snchol.matrix import (Permutation, SymmetricSparsePattern, apply_symmetric_permutation,
                           generate_spd, minimum_degree_order)
from snchol.symbolic import (BuildOptions, RelativeIndexMap, SymbolicFactor,
                             build_symbolic_factor, elimination_tree, fundamental_supernodes,
                             merge_supernodes, postorder_relabel,
                             stack_minimizing_postorder, symbolic_factorization)

import oracles
from oracles import compose_relative
from conftest import fig1_matrix, fig1_pattern, grid_laplacian


def build_fig1(merge_cap=None, pr=False):
    return build_symbolic_factor(fig1_pattern(), BuildOptions(merge_cap, pr))


# -- elimination tree ---------------------------------------------------------

def test_etree_fig1():
    t = elimination_tree(fig1_pattern())
    assert (t.parent + 1).tolist() == [2, 5, 4, 5, 6, 7, 8, 9, 0]  # 0 marks the root


def test_etree_diagonal_all_roots():
    pat = oracles.pattern_from_columns(5, [[]] * 5)
    t = elimination_tree(pat)
    assert np.all(t.parent == -1)


def test_etree_matches_brute_force():
    for seed in range(6):
        A = generate_spd(20, 0.15, seed)
        t = elimination_tree(A.pattern)
        glb = oracles.boolean_fill(A.pattern)
        assert np.array_equal(t.parent, oracles.etree_from_structure(glb))


def forest_patterns():
    """Seeded patterns plus the edge cases: n=1, diagonal-only, a forest of
    disconnected trees and a long chain."""
    pats = [generate_spd(n, d, seed).pattern
            for n, d, seed in ((12, 0.2, 1), (30, 0.1, 2), (40, 0.05, 3), (25, 0.3, 4))]
    pats.append(oracles.pattern_from_columns(1, [[]]))
    pats.append(oracles.pattern_from_columns(7, [[]] * 7))
    # three components, labels interleaved so the postorder moves columns
    pats.append(oracles.pattern_from_columns(
        9, [[3, 6], [4], [5, 8], [6], [7], [8], [], [], []]))
    pats.append(oracles.pattern_from_columns(6, [[j + 1] for j in range(5)] + [[]]))
    return pats


def test_postorder_relabel_is_the_etree_of_the_permuted_pattern():
    for pat in forest_patterns():
        P, t1 = postorder_relabel(elimination_tree(pat))
        want = elimination_tree(oracles.permute_pattern(pat, P))
        assert np.array_equal(t1.parent, want.parent)
        assert all(np.array_equal(a, b) for a, b in zip(symbolic._child_index(t1.parent),
                                                        symbolic._child_index(want.parent)))
        assert np.array_equal(t1.postorder, want.postorder)
        assert np.array_equal(t1.postorder, np.arange(pat.n))


# -- per-column structure -----------------------------------------------------

def test_structure_fig1():
    pat = fig1_pattern()
    t = elimination_tree(pat)
    glb = symbolic_factorization(pat, t)
    assert (glb[0] + 1).tolist() == [1, 2, 5, 6, 9]
    assert (glb[2] + 1).tolist() == [3, 4, 5, 7, 8]
    assert (glb[4] + 1).tolist() == [5, 6, 7, 8, 9]
    fill = []
    for j in range(9):
        extra = set(glb[j].tolist()) - set(pat.col(j).tolist())
        fill.extend((i + 1, j + 1) for i in sorted(extra))
    assert fill == [(6, 2), (7, 4), (7, 5), (9, 5), (8, 6), (9, 7)]


def test_structure_tridiagonal():
    pat = oracles.pattern_from_columns(5, [[1], [2], [3], [4], []])
    glb = symbolic_factorization(pat, elimination_tree(pat))
    for j in range(4):
        assert glb[j].tolist() == [j, j + 1]
    assert glb[4].tolist() == [4]


def test_structure_matches_boolean_elimination():
    for seed in range(6):
        A = generate_spd(20, 0.2, seed + 10)
        glb = symbolic_factorization(A.pattern, elimination_tree(A.pattern))
        ref = oracles.boolean_fill(A.pattern)
        assert all(np.array_equal(a, b) for a, b in zip(glb, ref))


# -- fundamental supernodes ---------------------------------------------------

def test_fundamental_fig1():
    pat = fig1_pattern()
    first_col, _ = fundamental_supernodes(oracles.lower_by_row(pat), elimination_tree(pat))
    assert (first_col + 1).tolist() == [1, 3, 5, 10]


def test_fundamental_diagonal_singletons():
    pat = oracles.pattern_from_columns(4, [[]] * 4)
    first_col, _ = fundamental_supernodes(oracles.lower_by_row(pat), elimination_tree(pat))
    assert first_col.tolist() == [0, 1, 2, 3, 4]


def test_fundamental_matches_definition():
    for seed in range(6):
        A = generate_spd(20, 0.25, seed + 20)
        P = minimum_degree_order(A.pattern)
        pat = apply_symmetric_permutation(A, P).pattern
        t = elimination_tree(pat)
        post = Permutation(np.argsort(t.postorder, kind="stable"))
        pat = apply_symmetric_permutation(
            apply_symmetric_permutation(A, P), post).pattern
        t = elimination_tree(pat)
        glb = symbolic_factorization(pat, t)
        first_col, _ = fundamental_supernodes(oracles.lower_by_row(pat), t)
        col_to_snode = np.repeat(np.arange(first_col.size - 1), np.diff(first_col))
        nchild = np.zeros(pat.n, dtype=int)
        for j in range(pat.n):
            if t.parent[j] >= 0:
                nchild[t.parent[j]] += 1
        for j in range(1, pat.n):
            same_def = (t.parent[j - 1] == j and nchild[j] == 1 and
                        np.array_equal(glb[j - 1][1:], glb[j]))
            same_got = col_to_snode[j - 1] == col_to_snode[j]
            assert same_def == same_got


def test_fundamental_rejects_a_tree_that_is_not_postordered():
    # three components with interleaved labels: the etree's postorder moves columns
    pat = forest_patterns()[-2]
    t = elimination_tree(pat)
    assert not np.array_equal(t.postorder, np.arange(pat.n))
    with pytest.raises(ValueError, match="not postordered"):
        fundamental_supernodes(oracles.lower_by_row(pat), t)


@pytest.mark.parametrize("cap", [None, 0.0, 12.5])
@pytest.mark.parametrize("pr", [False, True])
def test_build_forms_no_per_column_row_lists(monkeypatch, cap, pr):
    """The build finds supernodes and their row lists without the per-column
    structures and without np.unique, and still builds the same factor."""
    def forbidden(*args, **kwargs):
        raise AssertionError("per-column structure formed during the build")

    A = generate_spd(60, 0.06, 9)
    pat = apply_symmetric_permutation(A, minimum_degree_order(A.pattern)).pattern
    want = build_symbolic_factor(pat, BuildOptions(cap, pr))
    monkeypatch.setattr(symbolic, "symbolic_factorization", forbidden)
    monkeypatch.setattr(np, "unique", forbidden)
    S = build_symbolic_factor(pat, BuildOptions(cap, pr))
    monkeypatch.undo()
    assert np.array_equal(S.first_col, want.first_col)
    assert np.array_equal(S.relabel.perm, want.relabel.perm)
    assert all(np.array_equal(S.glbind(j), want.glbind(j)) for j in range(S.nsuper))
    assert S.merge_stats == want.merge_stats
    assert S.rlb_schedule.calls == want.rlb_schedule.calls


# -- merging ------------------------------------------------------------------

def _fig1_merge_inputs():
    pat = fig1_pattern()
    return fundamental_supernodes(oracles.lower_by_row(pat), elimination_tree(pat))


def test_merge_cap_zero_keeps_fig1():
    first_col, rows = _fig1_merge_inputs()
    merged_first_col, relabel, _, stats = merge_supernodes(first_col, rows, 0.0)
    assert stats.merges == 0
    assert np.array_equal(merged_first_col, first_col)
    assert np.array_equal(relabel.perm, np.arange(9))


def test_merge_fig1_picks_cheapest_pair():
    first_col, rows = _fig1_merge_inputs()
    # exhaustive pair costs: merging a child with |C| columns and m below rows
    # into a parent with row list length g adds |C| * (g - m) entries
    cost_j1 = 2 * (5 - 3)
    cost_j2 = 2 * (5 - 3)
    assert min(cost_j1, cost_j2) == 4
    merged_first_col, relabel, _, stats = merge_supernodes(first_col, rows, 12.5)
    # tie broken by the smaller first column: {1,2} merges into {5..9}
    assert stats.merges == 1
    assert stats.nnz_after - stats.nnz_before == 4
    assert (merged_first_col + 1).tolist() == [1, 3, 10]
    # relabeled: {3,4} now leads, the merged supernode spans 7 columns
    assert (relabel.perm + 1).tolist() == [3, 4, 1, 2, 5, 6, 7, 8, 9]
    assert stats.nnz_before == 33


def test_merge_zero_cost_chain_collapses():
    # supernode chain 5,6,7,8 whose below rows equal the parent's whole row
    # list; each chain node also has a cheap-to-keep leaf child so the
    # fundamental partition keeps them separate; the pattern is postordered
    # first, as fundamental_supernodes requires
    cols = {1: [6, 9], 2: [7, 9], 3: [8, 9], 4: [9],
            5: [6, 7, 8, 9, 10], 6: [7, 8, 9, 10], 7: [8, 9, 10],
            8: [9, 10], 9: [10], 10: []}
    pat = oracles.pattern_from_columns(
        10, [sorted(r - 1 for r in cols[j + 1]) for j in range(10)])
    P, t = postorder_relabel(elimination_tree(pat))
    pat = oracles.permute_pattern(pat, P)
    glb = symbolic_factorization(pat, t)
    assert all(np.array_equal(g, pat.col(j)) for j, g in enumerate(glb))  # no fill
    first_col, rows = fundamental_supernodes(oracles.lower_by_row(pat), t)
    assert (first_col + 1).tolist() == [1, 2, 3, 4, 5, 6, 7, 8, 9, 11]
    merged_first_col, _, _, stats = merge_supernodes(first_col, rows, 0.0)
    assert stats.nnz_after == stats.nnz_before
    widths = np.diff(merged_first_col)
    assert widths.max() == 6  # columns 5..10 collapsed into one supernode
    assert stats.nsuper_after == 5


def test_merge_pops_equal_growth_by_lowest_column_and_repushes_stale_entries(monkeypatch):
    """On this 8-column matrix in its own order, merging pops candidates of
    equal growth whose lowest columns and ids disagree, and re-pushes entries
    that earlier merges made stale; every cap gives the column-set oracle's
    merges."""
    A = generate_spd(8, 0.3, 50)
    P, t = postorder_relabel(elimination_tree(A.pattern))
    first_col, rows = fundamental_supernodes(symbolic._lower_by_row(A.pattern, P.perm), t)
    n, ns = A.n, first_col.size - 1
    popped, pushed = [], []
    pop, push = heapq.heappop, heapq.heappush
    monkeypatch.setattr(heapq, "heappop", lambda h: popped.append(pop(h)) or popped[-1])
    monkeypatch.setattr(heapq, "heappush", lambda h, x: pushed.append(x) or push(h, x))
    for cap in (0.0, 12.5, 50.0, float("inf")):
        popped.clear()
        pushed.clear()
        fc, relabel, glbind, stats = merge_supernodes(first_col, rows, cap)
        keys, stale = list(popped), len(pushed)
        want = oracles.merge_by_column_sets(first_col, rows, cap)
        assert np.array_equal(fc, want[0]) and np.array_equal(relabel.perm, want[1]), cap
        assert [g.tolist() for g in glbind] == [g.tolist() for g in want[2]], cap
        assert (stats.nsuper_after, stats.nnz_after, stats.merges) == want[3], cap
    assert stats.nsuper_after == 1 and stale
    # (growth, lowest column, child) of each pop without a limit
    keys = [(k // ns // n, k // ns % n, k % ns) for k in keys]
    assert any(d1 == d2 and c1 > c2 for i, (d1, _, c1) in enumerate(keys)
               for d2, _, c2 in keys[i + 1:])


@pytest.mark.parametrize("cap", [float("nan"), -1.0, -float("inf")])
def test_merge_rejects_a_nan_or_negative_cap(cap):
    first_col, rows = _fig1_merge_inputs()
    with pytest.raises(ValueError, match="merge cap"):
        merge_supernodes(first_col, rows, cap)
    with pytest.raises(ValueError, match="merge cap"):
        build_symbolic_factor(fig1_pattern(), BuildOptions(cap, False))


def test_merge_cap_inf_sets_no_limit():
    first_col, rows = _fig1_merge_inputs()
    _, _, _, stats = merge_supernodes(first_col, rows, float("inf"))
    assert stats.nsuper_after == 1 and stats.merges == first_col.size - 2


def test_merge_matches_the_column_set_oracle():
    """The heap over plain lists, the union-find parents and the one-sort
    relabel give what merging with per-supernode column arrays and edited
    child lists gives, tie order included, under every cap.  The storage and
    work totals, before and after, and the factor's own are the Python-int
    sums of a per-supernode loop."""
    merged = 0
    for seed, (n, d) in enumerate([(81, 0.02), (112, 0.005), (60, 0.05), (40, 0.2), (90, 0.01)]):
        A = generate_spd(n, d, seed + 70)
        for pat in (A.pattern,
                    apply_symmetric_permutation(A, minimum_degree_order(A.pattern)).pattern):
            P, t = postorder_relabel(elimination_tree(pat))
            first_col, rows = fundamental_supernodes(symbolic._lower_by_row(pat, P.perm), t)
            for cap in (None, 0.0, 5.0, 12.5, 50.0):
                fc, relabel, glbind, stats = merge_supernodes(first_col, rows, cap)
                want = oracles.merge_by_column_sets(first_col, rows, cap)
                where = (seed, cap)
                assert np.array_equal(fc, want[0]), where
                assert np.array_equal(relabel.perm, want[1]), where
                assert [g.tolist() for g in glbind] == [g.tolist() for g in want[2]], where
                assert (stats.nsuper_after, stats.nnz_after, stats.merges) == want[3], where
                nnz, work, _ = oracles.panel_totals(first_col, rows)
                after = oracles.panel_totals(fc, glbind)
                assert (stats.nnz_before, stats.work_before) == (nnz, work), where
                assert (stats.nnz_after, stats.work_after) == after[:2], where
                S = SymbolicFactor(fc, glbind, relabel, stats)
                assert (S.factor_nnz, S.work_flops, S.panel_offsets.tolist()) == after, where
                totals = (S.factor_nnz, S.work_flops, *vars(stats).values())
                assert all(type(x) is int for x in totals if x is not None), where
                merged += stats.merges
    assert merged > 100


def test_merge_growth_respects_cap():
    for seed in range(8):
        A = generate_spd(40, 0.08, seed + 31)
        P = minimum_degree_order(A.pattern)
        pat = apply_symmetric_permutation(A, P).pattern
        S = build_symbolic_factor(pat, BuildOptions(12.5, False))
        ms = S.merge_stats
        assert ms.nnz_after >= ms.nnz_before
        assert ms.nnz_after - ms.nnz_before <= 0.125 * ms.nnz_before + 1e-9


# -- sibling ordering ---------------------------------------------------------

def test_sibling_order_single_child_unchanged():
    parent = np.array([1, -1])
    post, peak = stack_minimizing_postorder(parent, np.array([4, 9]), np.array([3, 0]))
    assert post.tolist() == [0, 1]


def test_sibling_order_two_profiles_picks_better():
    # children with (peak, retained) = (10, 2) and (6, 5) under one parent
    parent = np.array([2, 2, -1])
    square = np.array([10, 6, 9])
    push = np.array([2, 5, 0])
    post, peak = stack_minimizing_postorder(parent, square, push)
    both = []
    for order in ([0, 1], [1, 0]):
        run = m = 0
        last = 0
        for c in order:
            m = max(m, run + square[c])
            run += push[c]
            last = push[c]
        both.append(max(m, run - last + square[2]))
    assert peak == min(both)


def test_sibling_order_matches_exhaustive():
    rng = np.random.default_rng(7)
    for _ in range(150):
        ns = int(rng.integers(1, 9))
        parent = np.full(ns, -1, dtype=np.int64)
        for s in range(ns - 1):
            parent[s] = rng.integers(s + 1, ns)
        square = rng.integers(0, 50, ns).astype(np.int64)
        push = np.minimum(rng.integers(0, 25, ns), square).astype(np.int64)
        post, peak = stack_minimizing_postorder(parent, square, push)
        assert peak == oracles.exhaustive_stack_minimum(parent, square, push)
        # and the emitted postorder really achieves that peak
        children_order = [[] for _ in range(ns)]
        seen = [[] for _ in range(ns)]
        for v in post:
            p = parent[v]
            if p >= 0:
                seen[p].append(int(v))
        assert oracles.simulate_stack_peak(parent, square, push, seen) == peak


# -- relative indices ---------------------------------------------------------

def test_relind_fig1():
    S = build_fig1()
    R = RelativeIndexMap(S)
    assert R.rel(0).tolist() == [4, 3, 0]
    assert R.rel(1).tolist() == [4, 2, 1]
    assert R.rel(2).tolist() == []  # the root has no parent
    assert (oracles.below(S, 0) + 1).tolist() == [5, 6, 9]


def test_relind_full_overlap_and_round_trip():
    # child sharing the parent's entire row list of length m maps to m-1..0
    cols = {1: [2, 3, 4], 2: [3, 4], 3: [4], 4: []}
    pat = oracles.pattern_from_columns(4, [sorted(r - 1 for r in cols[j + 1])
                                                  for j in range(4)])
    S = build_symbolic_factor(pat, BuildOptions(None, False))
    if S.nsuper >= 2:
        R = RelativeIndexMap(S)
        m = S.glbind(S.nsuper - 1).size
        assert R.rel(0).tolist() == list(range(m - 1, -1, -1))
    for seed in range(5):
        A = generate_spd(25, 0.2, seed + 40)
        S = build_symbolic_factor(A.pattern, BuildOptions(12.5, True))
        R = RelativeIndexMap(S)
        for j in range(S.nsuper):
            p = S.snode_parent[j]
            if p >= 0:  # each distance leads back to the row it stands for
                pg = S.glbind(p)
                assert np.array_equal(pg[pg.size - 1 - R.rel(j)], oracles.below(S, j))


def test_relind_arrays_are_read_only():
    A = generate_spd(40, 0.1, 6)
    S = build_symbolic_factor(A.pattern, BuildOptions(12.5, True))
    R = RelativeIndexMap(S)
    for j in range(S.nsuper):
        assert not R.rel(j).flags.writeable
    j = next(j for j in range(S.nsuper) if R.rel(j).size)
    with pytest.raises(ValueError):
        R.rel(j)[0] = 0


def test_relind_rejects_row_missing_from_parent():
    S = build_fig1()
    glb = [S.glbind(j) for j in range(S.nsuper)]
    glb[2] = glb[2][glb[2] != 5]  # drop row 6 (0-based 5), which supernode 0 needs
    broken = SymbolicFactor(S.first_col, oracles.row_lists(glb), S.relabel, S.merge_stats)
    with pytest.raises(ValueError, match="supernode 0 missing from parent"):
        RelativeIndexMap(broken)


def walk_factors():
    """Symbolic factors of fig1, two grids and seeded ``gen:`` matrices under
    every merge cap / reorder combination the driver offers."""
    mats = [fig1_matrix(), grid_laplacian(6), grid_laplacian(9)]
    mats += [generate_spd(n, d, seed) for n, d, seed in ((40, 0.1, 1), (60, 0.05, 2),
                                                        (30, 0.3, 3))]
    for A in mats:
        pat = apply_symmetric_permutation(A, minimum_degree_order(A.pattern)).pattern
        for cap in (None, 12.5):
            for pr in (False, True):
                yield build_symbolic_factor(pat, BuildOptions(cap, pr))


def test_walk_segments_match_composition_and_direct_indices():
    """Every segment the oracle walk yields holds, for rows that land in that
    ancestor's own columns, the indices a chain of compose_relative calls and
    the direct search give; the segments cover the list in order."""
    segments = 0
    for S in walk_factors():
        rels = oracles.parent_relative_indices(S)
        for j in range(S.nsuper):
            for idx in (np.arange(S.mrows(j)), S.block_starts[j]):  # rows, block firsts
                rows = oracles.below(S, j)[idx]
                rel = rels[j][idx]
                covered = 0
                for P, lo, hi in oracles.walk(S, rels, j, rel):
                    assert lo == covered < hi
                    assert (S.col_to_snode[rows[lo:hi]] == P).all()
                    chain = rels[j][idx][lo:hi]
                    A = int(S.snode_parent[j])
                    while A != P:
                        chain = compose_relative(chain, rels[A])
                        A = int(S.snode_parent[A])
                    assert np.array_equal(rel[lo:hi], chain)
                    # everything not placed yet is relative to P as well
                    assert np.array_equal(rel[lo:], oracles.relind_direct(rows[lo:],
                                                                          S.glbind(P)))
                    covered = hi
                    segments += 1
                assert covered == rows.size
    assert segments > 2000


def test_update_table_is_the_walk_and_the_index_map():
    """Every (updater, target) entry of the table, with its offset, its rows in
    the target's columns and below, their positions and the dense flag, is
    what the ancestor walk and the left-looking index map find."""
    entries = dense = 0
    for S in walk_factors():
        got = oracles.table_entries(S.update_table)
        assert got == oracles.update_pairs_by_walk(S) == oracles.update_pairs_by_indmap(S)
        assert table_updaters(S) == oracles.updater_lists(S)
        entries += len(got)
        dense += sum(e[6] for e in got)
    assert entries > 1000 and 0 < dense < entries


def test_compose_relative_worked_example():
    rel_jc = np.array([5, 3, 1])
    rel_cp = np.array([9, 9, 7, 9, 4, 9, 2, 9])  # only positions 2, 4, 6 matter
    assert compose_relative(rel_jc, rel_cp).tolist() == [7, 4, 2]
    assert compose_relative(np.array([], dtype=np.int64), rel_cp).tolist() == []
    with pytest.raises(ValueError):
        compose_relative(np.array([8]), rel_cp)


def test_compose_relative_matches_direct():
    rng = np.random.default_rng(11)
    for _ in range(200):
        np_rows = int(rng.integers(2, 30))
        p_rows = sorted(rng.choice(200, size=np_rows, replace=False).tolist())
        c_sz = int(rng.integers(1, np_rows + 1))
        c_rows = sorted(rng.choice(p_rows, size=c_sz, replace=False).tolist())
        j_sz = int(rng.integers(0, c_sz + 1))
        j_rows = sorted(rng.choice(c_rows, size=j_sz, replace=False).tolist())
        rel_jc = oracles.relind_direct(j_rows, c_rows)
        rel_cp = oracles.relind_direct(c_rows, p_rows)
        direct = oracles.relind_direct(j_rows, p_rows)
        assert np.array_equal(compose_relative(rel_jc, rel_cp), direct)


def test_compose_relative_associative_along_paths():
    rng = np.random.default_rng(12)
    for _ in range(50):
        q_rows = sorted(rng.choice(100, size=20, replace=False).tolist())
        p_rows = sorted(rng.choice(q_rows, size=12, replace=False).tolist())
        c_rows = sorted(rng.choice(p_rows, size=7, replace=False).tolist())
        j_rows = sorted(rng.choice(c_rows, size=4, replace=False).tolist())
        jc = oracles.relind_direct(j_rows, c_rows)
        cp = oracles.relind_direct(c_rows, p_rows)
        pq = oracles.relind_direct(p_rows, q_rows)
        a = compose_relative(compose_relative(jc, cp), pq)
        b = oracles.relind_direct(j_rows, q_rows)
        assert np.array_equal(a, b)


# -- assembled factor ---------------------------------------------------------

def test_build_fig1_blocks_and_plans():
    S = build_fig1()
    assert S.block_sizes[0].tolist() == [2, 1]
    assert S.block_sizes[1].tolist() == [1, 2]
    assert S.block_sizes[2].tolist() == []
    assert S.factor_nnz == 33
    Spr = build_fig1(pr=True)
    assert Spr.block_sizes[0].tolist() == [3]
    assert Spr.block_sizes[1].tolist() == [3]
    assert Spr.factor_nnz == 33


def test_build_diagonal_trivial_plans():
    pat = oracles.pattern_from_columns(6, [[]] * 6)
    S = build_symbolic_factor(pat, BuildOptions(0.0, True))
    assert S.factor_nnz == 6
    assert S.plans.mf_peak == 0 and S.plans.ll_peak == 0 and S.plans.rl_peak == 0


def test_containment_invariant():
    for seed in range(5):
        A = generate_spd(30, 0.15, seed + 50)
        S = build_symbolic_factor(A.pattern, BuildOptions(12.5, True))
        for j in range(S.nsuper):
            p = S.snode_parent[j]
            if p < 0:
                continue
            assert set(oracles.below(S, j).tolist()) <= set(S.glbind(p).tolist())


def test_supernode_interior_permutation_keeps_panels_valid():
    # Reordering inside supernodes keeps the panel structure valid (the true
    # structure of the permuted matrix fits inside the permuted panels) and
    # the library's own within-supernode reorder preserves nnz and boundaries
    # exactly.  Recomputed fill can legitimately shrink: a column that adopted
    # rows it has no path to may lose them under another interior order.
    from snchol.reorder import reorder_within_supernodes
    for seed in range(4):
        A = generate_spd(25, 0.2, seed + 60)
        S = build_symbolic_factor(A.pattern, BuildOptions(12.5, False))
        Ppr, S2 = reorder_within_supernodes(S)
        assert S2.factor_nnz == S.factor_nnz
        assert np.array_equal(S2.first_col, S.first_col)
        rng = np.random.default_rng(seed)
        perm = np.arange(A.n, dtype=np.int64)
        for j in range(S.nsuper):
            f, l = S.cols(j)
            perm[f:l + 1] = f + rng.permutation(l + 1 - f)
        A2 = apply_symmetric_permutation(
            apply_symmetric_permutation(A, S.relabel), Permutation(perm))
        true_glb = oracles.boolean_fill(A2.pattern)
        for jcol in range(A.n):
            sj = int(S.col_to_snode[jcol])
            panel_rows = set(int(perm[r]) for r in S.glbind(sj).tolist())
            assert set(true_glb[jcol].tolist()) <= panel_rows


def ll_peak_cases():
    mats = [("fig1", fig1_matrix()), ("grid6", grid_laplacian(6)), ("grid9", grid_laplacian(9))]
    mats += [(f"gen{d}", generate_spd(60, d, 7)) for d in (0.02, 0.05, 0.1, 0.3)]
    opts = [BuildOptions(None, True), BuildOptions(12.5, True), BuildOptions(None, False),
            BuildOptions(12.5, False)]
    for name, A in mats:
        if name != "fig1":
            A = apply_symmetric_permutation(A, minimum_degree_order(A.pattern))
        for o in opts:
            yield name, o, A.pattern


def test_ll_peak_matches_per_pair_reference():
    peaks = set()
    for name, opts, pat in ll_peak_cases():
        S = build_symbolic_factor(pat, opts)
        assert S.plans.ll_peak == oracles.ll_peak_per_pair(S), (name, opts)
        peaks.add(S.plans.ll_peak)
    assert len(peaks) > 3  # the cases exercise the plan, not just zeros


def table_updaters(S) -> list:
    """Each target's updaters as the update table lists them (``by_target``)."""
    T = S.update_table
    b = T.target_ptr.tolist()
    return [T.k[T.by_target[lo:hi]].tolist() for lo, hi in zip(b, b[1:])]


def test_blocks_and_updaters_match_per_supernode_loops():
    for name, opts, pat in ll_peak_cases():
        S = build_symbolic_factor(pat, opts)
        sizes, starts = oracles.block_lists(S)
        assert [b.tolist() for b in S.block_sizes] == [b.tolist() for b in sizes], name
        assert [b.tolist() for b in S.block_starts] == [b.tolist() for b in starts], name
        assert table_updaters(S) == oracles.updater_lists(S), name


def count_derivations(monkeypatch, names) -> dict:
    """Wrap the named cached properties of SymbolicFactor so each derivation
    is counted; returns name -> count."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        func = SymbolicFactor.__dict__[name].func

        def counted(self, name=name, func=func):
            counts[name] += 1
            return func(self)
        prop = cached_property(counted)
        prop.__set_name__(SymbolicFactor, name)
        monkeypatch.setattr(SymbolicFactor, name, prop)
    return counts


def test_one_build_derives_blocks_and_plans_once(monkeypatch):
    names = ("_blocks", "update_table", "plans", "rlb_schedule")
    counts = count_derivations(monkeypatch, names)
    builds, grouped = [], []
    orig = reorder.reorder_within_supernodes
    monkeypatch.setattr(reorder, "reorder_within_supernodes",
                        lambda S: builds.append(S) or orig(S))
    pairs = SymbolicFactor._pairs
    monkeypatch.setattr(SymbolicFactor, "_pairs", lambda S: grouped.append(S) or pairs(S))
    A = generate_spd(80, 0.05, 3)
    S = build_symbolic_factor(A.pattern, BuildOptions(12.5, True))
    assert len(builds) == 1
    # the reorder reads the unreordered factor's pairs, so only the final
    # factor derives its update table, from its own pairs
    assert counts == dict.fromkeys(names, 1)
    assert len(grouped) == 2 and grouped[0] is builds[0] and grouped[1] is S
    # blocks, plans and the schedule were derived during the build; using them
    # derives nothing
    _ = ([S.nblocks(j) for j in range(S.nsuper)], S.plans, S.block_starts, S.rlb_schedule,
         S.update_table)
    assert counts == dict.fromkeys(names, 1) and len(grouped) == 2
    assert not {"plans", "_blocks", "update_table", "rlb_schedule"} & set(vars(builds[0]))


def test_derived_structure_is_read_only():
    A = generate_spd(50, 0.08, 5)
    S = build_symbolic_factor(A.pattern, BuildOptions(12.5, True))
    assert {"run", "run_ptr", "heads"} <= set(vars(S.update_table))
    arrays = [*S.block_sizes, *S.block_starts, S.plans.mf_postorder,
              S.plans.push_size, S.rlb_schedule.rows, S.rlb_schedule.ptr,
              *vars(S.update_table).values()]
    assert arrays and not any(a.flags.writeable for a in arrays)
    assert all(isinstance(x, tuple) for x in (S.block_sizes, S.block_starts))


def test_row_positions_keys_do_not_overflow_narrow_supernode_ids():
    n = 50_000  # n * nsuper is past the int32 range
    pat = SymmetricSparsePattern(n, np.arange(n + 1, dtype=np.int64), np.arange(n))
    S = build_symbolic_factor(pat, BuildOptions(None, False))
    last = np.array([n - 1], dtype=np.int32)
    assert S.row_positions(last, last).tolist() == [0]
    assert S.row_positions(last, last - 1).tolist() == [-1]
