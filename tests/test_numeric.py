import dataclasses
import tracemalloc

import numpy as np
import pytest

from snchol import kernels, numeric, symbolic
from snchol.kernels import (GEMM, SYRK, CallSchedule, KernelBackend, NotPositiveDefiniteError,
                            gemm_flops, get_backend, potrf_flops, syrk_flops, trsm_flops)
from snchol.matrix import (SymmetricSparseMatrix, _assemble_lower, apply_symmetric_permutation,
                           generate_spd, minimum_degree_order, read_matrix_market)
from snchol.numeric import (METHODS, FactorizationResult, FactorStateError, FactorStorage,
                            NonFiniteEntryError, RunOptions, RunStats, StructureError,
                            UpdateWorkspace, analyze,
                            deviation_from_reference, factor_ll, factor_mf, factor_reference,
                            factor_rl, factor_rlb, run_factorization, scatter_into_factor, solve)
from snchol.symbolic import (BuildOptions, RelativeIndexMap, SymbolicFactor,
                             build_symbolic_factor, check_call_extents, elimination_tree,
                             symbolic_factorization)

import oracles
from conftest import fig1_matrix, fig1_pattern, grid3d_laplacian, grid_laplacian


def build_fig1(pr=False):
    return build_symbolic_factor(fig1_pattern(), BuildOptions(None, pr))


def run(A, method, **kw):
    opts = RunOptions(method=method, ordering=kw.pop("ordering", "natural"),
                      pr=kw.pop("pr", False), merge_cap=kw.pop("merge_cap", None), **kw)
    return run_factorization(A, opts)


# -- scatter ------------------------------------------------------------------

def test_scatter_diagonal():
    pat = oracles.pattern_from_columns(3, [[]] * 3)
    A = SymmetricSparseMatrix(pat, np.array([2.0, 3.0, 4.0]))
    S = build_symbolic_factor(pat, BuildOptions(None, False))
    F = scatter_into_factor(A, S)
    assert F.state == "A"
    assert [float(oracles.panels(F)[j][0, 0]) for j in range(3)] == [2.0, 3.0, 4.0]


def test_scatter_fig1_values_and_fill_zeros():
    A = fig1_matrix()
    S = build_fig1()
    F = scatter_into_factor(A, S)
    p0 = oracles.panels(F)[0]  # supernode {1,2}: rows 1,2,5,6,9
    assert p0[:, 0].tolist() == [10.0, 1.0, 1.0, 1.0, 1.0]
    # column 2 has no entry at row 6: that fill slot must hold zero
    assert p0[:, 1].tolist() == [0.0, 10.0, 1.0, 0.0, 1.0]


def test_panels_are_column_major_views_of_the_factor_storage():
    for name, an in schedule_cases():
        S = an.S
        F = scatter_into_factor(an.A2, S)
        panels = oracles.panels(F)
        assert len(panels) == S.nsuper, name
        for j, P in enumerate(panels):
            assert np.shares_memory(P, F.data), (name, j)
            assert P.shape == (len(S.glbind(j)), S.width(j)), (name, j)
            assert P.flags.f_contiguous, (name, j)


def test_scatter_gather_round_trip():
    A = generate_spd(30, 0.2, 1)
    S = build_symbolic_factor(A.pattern, BuildOptions(12.5, True))
    from snchol.matrix import apply_symmetric_permutation
    A2 = apply_symmetric_permutation(A, S.relabel)
    F = scatter_into_factor(A2, S)
    assert F.data.size == S.panel_storage  # one slot per panel entry
    L = oracles.reference_to_dense(S.n, *F.lower_csc())
    assert np.array_equal(L, np.tril(oracles.dense_matrix(A2)))


def test_scatter_rejects_foreign_entry():
    pat = oracles.pattern_from_columns(3, [[2], [], []])
    A = SymmetricSparseMatrix(pat, np.array([1.0, 0.5, 1.0, 1.0]))
    diag = oracles.pattern_from_columns(3, [[]] * 3)
    S = build_symbolic_factor(diag, BuildOptions(None, False))
    with pytest.raises(StructureError):
        scatter_into_factor(A, S)


def scatter_cases():
    """(A2, S) for fig1, two grids and seeded ``gen:`` matrices, each ordered by
    minimum degree and analyzed under merge cap off/12.5 and reorder on/off."""
    mats = [fig1_matrix(), grid_laplacian(6), grid_laplacian(11)]
    mats += [generate_spd(n, d, seed) for n, d, seed in ((40, 0.1, 1), (80, 0.05, 2),
                                                        (30, 0.3, 3), (120, 0.02, 4))]
    for A in mats:
        A1 = apply_symmetric_permutation(A, minimum_degree_order(A.pattern))
        for cap in (None, 12.5):
            for pr in (False, True):
                S = build_symbolic_factor(A1.pattern, BuildOptions(cap, pr))
                yield apply_symmetric_permutation(A1, S.relabel), S


def test_slot_map_scatters_what_the_column_loop_scatters():
    for A2, S in scatter_cases():
        F = scatter_into_factor(A2, S)
        want = oracles.scatter_per_column(A2, S)
        assert np.diff(S.panel_offsets).tolist() == [S.glbind(j).size * S.width(j)
                                                     for j in range(S.nsuper)]
        assert F.data.tobytes() == want.data.tobytes()


def test_slot_map_names_the_entry_the_column_loop_names():
    rng = np.random.default_rng(41)
    corrupted = 0
    for A2, S in scatter_cases():
        n = A2.n
        outside = [(i, j) for j in range(n)
                   for i in np.setdiff1d(np.arange(j + 1, n), S.glbind(int(S.col_to_snode[j])))]
        if not outside:
            continue
        for _ in range(3):
            pick = rng.choice(len(outside), size=min(len(outside), int(rng.integers(1, 4))),
                              replace=False)
            rows, cols = np.array([outside[k] for k in pick], dtype=np.int64).T
            p = A2.pattern
            B = _assemble_lower(n, np.concatenate([p.rowind, rows]),
                                np.concatenate([np.repeat(np.arange(n), np.diff(p.colptr)), cols]),
                                np.concatenate([A2.values, np.ones(rows.size)]), False)
            with pytest.raises(StructureError) as got:
                scatter_into_factor(B, S)
            with pytest.raises(StructureError) as want:
                oracles.scatter_per_column(B, S)
            assert str(got.value) == str(want.value)
            corrupted += 1
    assert corrupted >= 30


# -- reference column algorithm ------------------------------------------------

def test_reference_one_by_one_and_dense_2x2():
    pat = oracles.pattern_from_columns(1, [[]])
    A = SymmetricSparseMatrix(pat, np.array([4.0]))
    glb = symbolic_factorization(pat, elimination_tree(pat))
    _, _, vals = factor_reference(A, glb)
    assert vals.tolist() == [2.0]

    pat = oracles.pattern_from_columns(2, [[1], []])
    A = SymmetricSparseMatrix(pat, np.array([4.0, 2.0, 5.0]))
    glb = symbolic_factorization(pat, elimination_tree(pat))
    L = oracles.reference_to_dense(2, *factor_reference(A, glb))
    assert np.allclose(L, [[2.0, 0.0], [1.0, 2.0]])


def test_reference_matches_dense_cholesky_on_fig1():
    A = fig1_matrix()
    glb = symbolic_factorization(A.pattern, elimination_tree(A.pattern))
    L = oracles.reference_to_dense(9, *factor_reference(A, glb))
    assert np.abs(L - np.linalg.cholesky(oracles.dense_matrix(A))).max() <= 1e-12


def test_reference_raises_on_indefinite():
    pat = oracles.pattern_from_columns(2, [[1], []])
    A = SymmetricSparseMatrix(pat, np.array([1.0, 3.0, 1.0]))  # not SPD
    glb = symbolic_factorization(pat, elimination_tree(pat))
    with pytest.raises(NotPositiveDefiniteError) as e:
        factor_reference(A, glb)
    assert e.value.index == 1


# -- multifrontal machinery -----------------------------------------------------

def test_extend_in_place_matches_out_of_place():
    rng = np.random.default_rng(2)
    for _ in range(60):
        m = int(rng.integers(1, 9))
        nr = int(rng.integers(1, m + 1))
        qpos = np.sort(rng.choice(m, size=nr, replace=False))
        packed = rng.standard_normal(nr * (nr + 1) // 2)
        want = np.zeros((m, m))
        k = 0
        for c in range(nr):
            for r in range(c, nr):
                want[qpos[r], qpos[c]] = packed[k]
                k += 1
        cap = packed.size + m * m + 7
        arena = np.full(cap, np.nan)
        top = cap - packed.size
        arena[top:] = packed  # packed triangle sits at the top of the stack
        dst = top + packed.size - m * m
        oracles.extend_in_place(arena, top, nr, dst, m, qpos)
        got = arena[dst:dst + m * m].reshape((m, m), order="F")
        assert np.array_equal(got, want)


def test_pack_descending_matches_out_of_place():
    rng = np.random.default_rng(3)
    for _ in range(60):
        m = int(rng.integers(1, 9))
        k = int(rng.integers(0, m))
        c = m - k
        sq = rng.standard_normal((m, m))
        want = []
        for t in range(c):
            want.extend(sq[k + t:, k + t].tolist())
        arena = np.zeros(m * m + c * (c + 1) // 2 + 5)
        arena[:m * m] = sq.reshape(-1, order="F")
        dst = m * m - 3  # overlaps the square's tail on purpose
        oracles.pack_descending(arena, 0, m, k, dst)
        assert np.allclose(arena[dst:dst + len(want)], want)


def trapezoid(n: int, cols: int = None) -> np.ndarray:
    """The first ``cols`` columns (default all) of ``_packed(n)``."""
    index = numeric._packed(n)
    return index if cols is None else index[:, :cols * n - cols * (cols - 1) // 2]


def test_packed_index_is_the_column_by_column_list(monkeypatch):
    """``_packed(n)`` lists an n-by-n lower triangle column by column,
    counted from the end (n is added back here), read-only, whether its
    cached list was built for this n or a larger one; its first
    cols n - cols(cols-1)/2 entries are the first cols columns."""
    monkeypatch.setattr(numeric, "_PACKED", numeric._PACKED[:, :0])
    first = {}
    for n in range(41):  # each n rebuilds the cached list
        for cols in (None, *range(n + 1)):
            want = [(i, t) for t in range(n if cols is None else cols) for i in range(t, n)]
            index = trapezoid(n, cols)
            assert index.shape == (2, len(want)) and not index.flags.writeable, (n, cols)
            assert list(zip(*(n + index).tolist())) == want, (n, cols)
            first[n, cols] = index.tobytes()
    numeric._packed(75)
    for (n, cols), got in reversed(first.items()):  # now all cut from the list of 75
        assert trapezoid(n, cols).tobytes() == got, (n, cols)
    assert numeric._PACKED.shape == (2, 75 * 76 // 2) and not numeric._PACKED.flags.writeable


def test_packed_moves_match_out_of_place_loops_above_size_8():
    """Extension, a child merge and a push of triangles over 9 to 40 rows,
    all cut from the cached list of a larger triangle, against column loops."""
    rng = np.random.default_rng(4)
    numeric._packed(80)
    for _ in range(40):
        m = int(rng.integers(9, 41))
        nr = int(rng.integers(1, m + 1))
        qpos = np.sort(rng.choice(m, size=nr, replace=False))
        packed = rng.standard_normal(nr * (nr + 1) // 2)
        tri = np.zeros((m, m))  # the packed triangle at rows and columns qpos
        at = 0
        for t in range(nr):
            tri[qpos[t:], qpos[t]] = packed[at:at + nr - t]
            at += nr - t
        cap = packed.size + m * m + 3
        arena = np.full(cap, np.nan)
        arena[cap - packed.size:] = packed
        oracles.extend_in_place(arena, cap - packed.size, nr, cap - m * m, m, qpos)
        assert np.array_equal(arena[cap - m * m:].reshape((m, m), order="F"), tri)
        sq = rng.standard_normal((m, m))
        merged = sq.copy()
        merged[tuple(qpos[numeric._packed(nr)])] += packed  # the oracle's child merge
        assert np.array_equal(merged, sq + tri)
        k = int(rng.integers(0, m))
        want = np.concatenate([sq[t:, t] for t in range(k, m)])
        arena = np.zeros(m * m + want.size)
        arena[:m * m] = sq.reshape(-1, order="F")
        dst = int(rng.integers(0, m * m + 1))  # anywhere over the square
        oracles.pack_descending(arena, 0, m, k, dst)
        assert np.array_equal(arena[dst:dst + want.size], want)


def test_mf_diagonal_no_stack_traffic():
    pat = oracles.pattern_from_columns(4, [[]] * 4)
    A = SymmetricSparseMatrix(pat, np.full(4, 9.0))
    r = run(A, "mf")
    assert r.stats.workspace_peak == 0
    assert np.allclose(np.diag(oracles.dense_factor(r)), 3.0)


def test_mf_fig1_matches_reference_and_plan():
    A = fig1_matrix()
    r = run(A, "mf")
    assert deviation_from_reference(r) <= 1e-12
    assert r.stats.workspace_peak == r.S.plans.mf_peak


def test_ll_indmap_and_gather_example():
    S = build_fig1()
    indmap = np.full(9, -1, dtype=np.int64)
    oracles.build_indmap(S, 2, indmap)  # third supernode {5..9}
    assert indmap[4:9].tolist() == [4, 3, 2, 1, 0]
    # gathering the shared rows {5,6,9} of the first supernode picks [4,3,0]
    shared = S.below(0)
    assert indmap[shared].tolist() == [4, 3, 0]


def test_rl_fig1_update_matrix_path():
    A = fig1_matrix()
    r = run(A, "rl")
    assert deviation_from_reference(r) <= 1e-12
    # both 3x3 child update triangles are assembled at the parent in one visit
    assert r.stats.assembly_ops == 12
    assert r.stats.workspace_peak == 9 == r.S.plans.rl_peak


def test_rlb_fig1_kernel_counts_drop_after_reordering():
    A = fig1_matrix()
    pre = run(A, "rlb")
    post = run(A, "rlb", pr=True)
    assert np.diff(pre.S.rlb_schedule.ptr).tolist() == [3, 3, 0]
    assert np.diff(post.S.rlb_schedule.ptr).tolist() == [1, 1, 0]
    for r in (pre, post):
        assert r.stats.assembly_ops == 0
        assert r.stats.workspace_peak == 0
        assert deviation_from_reference(r) <= 1e-12


def schedule_cases():
    """(name, analysis) for fig1 in its own order, with and without
    reordering, and for a grid and seeded gen: matrices under minimum degree,
    merge cap off/12.5 and reordering off/on."""
    for pr in (False, True):
        yield f"fig1-pr{int(pr)}", analyze(fig1_matrix(), "natural", None, pr)
    mats = {"grid9": grid_laplacian(9)}
    mats.update({f"gen{n}-{d}": generate_spd(n, d, seed)
                 for n, d, seed in ((40, 0.1, 1), (60, 0.05, 2), (30, 0.3, 3), (80, 0.08, 21))})
    for name, A in mats.items():
        for cap in (None, 12.5):
            for pr in (False, True):
                yield f"{name}-{cap}-pr{int(pr)}", analyze(A, "mindeg", cap, pr)


def test_rlb_schedule_is_the_walk_row_for_row():
    calls = 0
    for name, an in schedule_cases():
        S = an.S
        sched = S.rlb_schedule
        rows, per = oracles.rlb_calls_by_walk(S)
        assert np.array_equal(sched.rows, rows), name
        assert np.diff(sched.ptr).tolist() == per, name
        assert sched.rows.dtype == np.int32 and not sched.rows.flags.writeable
        calls += rows.shape[0]
    assert calls > 1000


def test_schedule_rows_cut_each_update_pair_into_its_rectangles():
    """``pair_ptr`` cuts rlb_schedule's rows by update-table pair: supernode
    j's rows are those of its pairs, and pair e's rectangles lie in its
    target's panel and cover its lower triangle, c r - c (c - 1) / 2 entries
    (n (n + 1) / 2 per SYRK row, m n per GEMM row)."""
    for name, an in schedule_cases():
        S = an.S
        T, sched = S.update_table, S.rlb_schedule
        assert np.array_equal(sched.ptr, sched.pair_ptr[T.ptr]), name
        assert not sched.pair_ptr.flags.writeable
        kind, c, _, m, n = (sched.rows[:, i].astype(np.int64) for i in range(5))
        area = np.where(kind == SYRK, n * (n + 1) // 2, m * n)
        covered = np.diff(np.append(0, np.cumsum(area))[sched.pair_ptr])
        assert covered.tolist() == (T.c * T.r - T.c * (T.c - 1) // 2).tolist(), name
        pair = np.repeat(np.arange(T.k.size), np.diff(sched.pair_ptr))
        target = np.searchsorted(S.panel_offsets, c, side="right") - 1
        assert np.array_equal(target, T.p[pair]), name


class ReadLog(np.ndarray):
    """An update matrix that logs how it, or a view of it, is indexed."""

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)

    def __getitem__(self, key):
        self.log.append(key)
        return np.asarray(self)[key]


def assembled_pairs(S) -> dict:
    """The update-table pairs each of mf, ll and rl assembles, and the rows
    of the update matrix it adds them from, the pair's r rows its last: mf
    and rl the updater's whole update matrix, ll its slab of the pair."""
    T = S.update_table
    wide = np.diff(S.first_col)[T.k] > 1
    return {"mf": (T.lo == 0, T.lo + T.r), "ll": (wide & ~T.dense, T.r),
            "rl": (np.ones(T.k.size, dtype=bool), T.lo + T.r)}


def test_mf_ll_rl_assemble_pairs_by_rectangles_and_one_flat_scatter(monkeypatch):
    """mf assembles each supernode's pair with its parent, ll its non-dense
    pairs from updaters wider than one column, each in a call of its own,
    and rl every pair, one call per updater; each pair once.  A pair with
    more than K entries per schedule row (``numeric._by_rectangles``) reads
    its update matrix in rectangles, one two-slice read per schedule row;
    the other pairs of a call are read together in one flat gather of all
    their lower-trapezoid entries.  Each method takes both ways on these
    inputs.  ``assembly_ops`` is those pairs' lower triangles, plus ll's
    width-1 pairs (added without a slab) and the packed triangles mf merges
    from all but the first child it pops."""
    seen, real = [], numeric._assembler

    def spy(F, S, assembled, ld):
        assemble = real(F, S, assembled, ld)

        def logged(e0, e1, U):
            U = U.view(ReadLog)
            U.log = []
            assemble(e0, e1, U)
            seen.append((e0, e1, U.log))
        return logged
    monkeypatch.setattr(numeric, "_assembler", spy)
    taken = {"mf": set(), "ll": set(), "rl": set()}
    # ll's non-dense pairs seldom hold K entries per rectangle below n = 100
    cases = [*schedule_cases(), ("grid3d7", analyze(grid3d_laplacian(7), "mindeg", 12.5, True))]
    for name, an in cases:
        T, sched = an.S.update_table, an.S.rlb_schedule
        count = np.diff(sched.pair_ptr)
        by_rows = numeric._by_rectangles(an.S)
        pairs = assembled_pairs(an.S)
        entries = T.c * T.r - T.c * (T.c - 1) // 2
        push, order = an.S.plans.push_size, an.S.plans.mf_postorder.tolist()
        pushers = [[] for _ in range(an.S.nsuper)]
        for c, p in enumerate(an.S.snode_parent.tolist()):
            if p >= 0 and push[c]:
                pushers[p].append(c)
        wide = np.diff(an.S.first_col)[T.k] > 1
        besides = {"mf": int(push.sum()) - sum(int(push[max(cs, key=order.index)])
                                               for cs in pushers if cs),
                   "ll": int(entries[~wide].sum()), "rl": 0}
        up = T.ptr.tolist()
        per_updater = [(a, b) for a, b in zip(up, up[1:]) if a < b]
        for method in taken:
            seen.clear()
            r = an.factor(method)
            assembled = pairs[method][0]
            calls = [(e0, e1) for e0, e1, _ in seen]
            added = [e for e0, e1 in calls for e in range(e0, e1)]
            assert sorted(added) == np.flatnonzero(assembled).tolist(), (name, method)
            if method == "rl":
                assert calls == per_updater, name
            else:
                assert all(e1 == e0 + 1 for e0, e1 in calls), (name, method)
            for e0, e1, log in seen:
                e = np.arange(e0, e1)
                slices = [key for key in log if isinstance(key, tuple)]
                flat = [key for key in log if not isinstance(key, tuple)]
                assert all(isinstance(k, slice) for key in slices for k in key), (name, method)
                assert len(slices) == count[e][by_rows[e]].sum(), (name, method)
                gathered = int(entries[e][~by_rows[e]].sum())
                assert [key.size for key in flat] == ([gathered] if gathered else []), name
                taken[method] |= {"rectangles"} if slices else set()
                taken[method] |= {"flat"} if flat else set()
            assert r.stats.assembly_ops == entries[assembled].sum() + besides[method], name
    assert all(ways == {"rectangles", "flat"} for ways in taken.values()), taken


def test_a_runs_flat_index_holds_its_column_pairs_trapezoids_only(monkeypatch):
    """Each mf, ll and rl run builds one flat index for ``_assembler``.  It
    holds the lower trapezoids of the pairs the method assembles that
    ``numeric._by_rectangles`` leaves out, by pair and column by column: entry
    (i, t) of pair e's r-by-c trapezoid at its target's panel offset of rows
    pos[i] and pos[t], and at (d + i, d + t) of the column-major update
    matrix of ld rows, d = ld - r.  A rectangle pair, or one the method does
    not assemble, has no entry, so the index is no larger than those
    trapezoids.  An ll run then builds a second one, for
    ``_outer_updater``: the trapezoids of its pairs whose updater is one
    column wide, whatever their schedule rows, with ld = r.  One updater's
    entries in an index land on distinct offsets, so one scatter-add adds
    each once."""
    built, real = [], numeric._flat_index

    def spy(S, pairs, ld):
        built.append((pairs, ld, real(S, pairs, ld)))
        return built[-1][2]
    monkeypatch.setattr(numeric, "_flat_index", spy)
    total = {"assembled": 0, "outer": 0}
    for name, an in schedule_cases():
        S, T = an.S, an.S.update_table
        by_columns = ~numeric._by_rectangles(S)
        narrow = np.diff(S.first_col)[T.k] == 1
        offsets, lens, up = S.panel_offsets.tolist(), S._lens.tolist(), T.ptr.tolist()
        for method, (assembled, rows) in assembled_pairs(S).items():
            built.clear()
            an.factor(method)
            want = {"assembled": (assembled & by_columns, rows)}
            if method == "ll":
                want["outer"] = (narrow, T.r)
            assert len(built) == len(want), (name, method)
            for (pairs, ld, (dst, src, ptr)), (which, (keep, rows)) in zip(built, want.items()):
                where = (name, method, which)
                assert np.array_equal(pairs, keep), where
                assert np.array_equal(ld[keep], rows[keep]), where
                want_dst, want_src, sizes = [], [], []
                for e in range(T.k.size):
                    at, r, c, p = (int(x[e]) for x in (T.at, T.r, T.c, T.p))
                    d, w = int(rows[e]) - r, int(rows[e])
                    pos = T.pos[at:at + r].tolist()
                    sizes.append(c * r - c * (c - 1) // 2 if keep[e] else 0)
                    for t in range(c if keep[e] else 0):
                        for i in range(t, r):
                            want_dst.append(offsets[p] + pos[t] * lens[p] + pos[i])
                            want_src.append(d + i + (d + t) * w)
                assert dst.tolist() == want_dst, where
                assert src.tolist() == want_src, where
                assert np.diff(ptr).tolist() == sizes, where
                for a, b in zip(up, up[1:]):
                    one = dst[ptr[a]:ptr[b]]
                    assert np.unique(one).size == one.size, where
                total[which] += dst.size
    assert total["assembled"] > 1000 and total["outer"] > 1000, total


def assembles_like_the_column_loop(an, where) -> None:
    """mf, ll and rl write the panel bytes, and count the counters, of a run
    whose ``_assembler`` is the per-column loop they replaced
    (``oracles.assembler_by_columns``)."""
    for method in ("mf", "ll", "rl"):
        got = an.factor(method)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numeric, "_assembler", oracles.assembler_by_columns)
            want = an.factor(method)
        assert got.F.data.tobytes() == want.F.data.tobytes(), (where, method)
        assert counters(got) == counters(want), (where, method)


def test_mf_ll_rl_assemble_what_the_column_loop_assembles():
    for name, an in schedule_cases():
        assembles_like_the_column_loop(an, name)


def updates_outer_like_the_panel_index(an, where) -> int:
    """ll writes the panel bytes, and counts the counters, of a run whose
    width-1 pairs subtract v v^T from their targets' panel views by one 2-D
    tuple index (``oracles.outer_updater_by_panels``), the update its flat
    gather-multiply-subtract replaced.  Returns the number of such pairs."""
    got = an.factor("ll")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numeric, "_outer_updater", oracles.outer_updater_by_panels)
        want = an.factor("ll")
    assert got.F.data.tobytes() == want.F.data.tobytes(), where
    assert counters(got) == counters(want), where
    return int(np.count_nonzero(np.diff(an.S.first_col)[an.S.update_table.k] == 1))


def test_ll_updates_its_width_1_pairs_as_the_panel_index_does():
    pairs = sum(updates_outer_like_the_panel_index(an, name) for name, an in schedule_cases())
    assert pairs > 100, pairs


def offsets_taken(taken: set, swap: bool = False):
    """A stand-in for ``numeric._stack_offsets`` that adds to ``taken``, per
    triangle mf moves, "index" where its offsets are a slice of the run's
    index (the one ``_pair_index`` builds in ``_stack_offsets``) and "per
    child" where they are not.  With ``swap`` the offsets into the parent's
    square swap row and column, a fault the oracle must catch."""
    real, real_index = numeric._stack_offsets, numeric._pair_index

    def spy(S):
        built = []

        def index(*args):
            built.append(real_index(*args))
            return built[-1]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numeric, "_pair_index", index)
            offsets, pack_offsets = real(S)
        (into, own, _), = built
        a = np.diff(S.first_col)
        m = (S._lens - a)[S.snode_parent]  # each child's parent's square side

        def logged(fn, index, swapped):
            def call(c):
                o = fn(c)
                taken.add("index" if np.shares_memory(o, index) else "per child")
                return o % m[c] * m[c] + o // m[c] if swapped else o
            return call
        return logged(offsets, into, swap), logged(pack_offsets, own, False)
    return spy


def extends_like_the_per_child_oracle(an, where, taken: set = None, swap=False) -> bool:
    """Whether mf writes the panel bytes, and counts the counters, of a run
    that moves each child's triangle by 2-D indexes
    (``oracles.factor_mf_per_child``: the in-place extension, the 2-D tuple
    merge and the push that its flat offsets replaced); ``taken`` and
    ``swap`` as in ``offsets_taken``.  Unless ``swap``, it must."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numeric, "_stack_offsets", offsets_taken(set() if taken is None else taken,
                                                               swap))
        got = an.factor("mf")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numeric, "factor_mf", oracles.factor_mf_per_child)
        want = an.factor("mf")
    same = got.F.data.tobytes() == want.F.data.tobytes()
    assert counters(got) == counters(want), where
    assert same or swap, where
    return same


def test_mf_extends_and_merges_what_the_per_child_oracle_does():
    """Small triangles take their offsets from the run's index, large ones
    compute their own: both ways write the oracle's bytes."""
    taken = set()
    for name, an in schedule_cases():
        extends_like_the_per_child_oracle(an, name, taken)
    assert taken == {"index", "per child"}, taken


def test_a_transposed_merge_offset_is_caught_by_the_per_child_oracle():
    """Swapping row and column in the offsets of the triangles mf merges
    into its parent's square changes the panels of every input where a
    pushed triangle has an entry off its diagonal."""
    caught = 0
    for name, an in schedule_cases():
        if an.S.plans.push_size.max(initial=0) > 1:
            assert not extends_like_the_per_child_oracle(an, name, swap=True), name
            caught += 1
    assert caught >= 10, caught


@pytest.mark.parametrize("backend", ["reference", "vendor"])
def test_diagonal_blocks_keep_an_exactly_zero_upper_triangle(backend):
    """A SYRK rectangle adds the whole square of an update, whose strict
    upper triangle is zero: after every supernodal method the strict upper
    triangle of each diagonal block holds +0.0 only, as after rlb."""
    for name, an in schedule_cases():
        for method in ("mf", "ll", "rl", "rlb"):
            for j, P in enumerate(oracles.panels(an.factor(method, backend).F)):
                upper = P[np.triu_indices(P.shape[1], 1)]
                assert upper.tobytes() == bytes(upper.nbytes), (name, method, j)


def logging_backend(base, log):
    """``base``'s four kernels with every call logged as (kind, flops from the
    operand shapes); a plain backend, so rlb runs it on views."""
    def logged(kind, fn, flops):
        def call(*args):
            log.append((kind, flops(*args)))
            fn(*args)
        return call
    return KernelBackend(
        base.name, logged("potrf", base.chol, lambda T: potrf_flops(T.shape[0])),
        logged("trsm", base.trsm, lambda T, B: trsm_flops(B.shape[0], T.shape[0])),
        logged("syrk", base.syrk, lambda C, X: syrk_flops(*X.shape)),
        logged("gemm", base.gemm, lambda C, X, Y: gemm_flops(X.shape[0], *Y.shape)))


def without_view_kernels(name):
    """``get_backend(name)`` whose four view kernels fail if called."""
    def no_view_kernel(*args):
        raise AssertionError("a view kernel was called")
    return dataclasses.replace(get_backend(name), chol=no_view_kernel, trsm=no_view_kernel,
                               syrk=no_view_kernel, gemm=no_view_kernel)


def updates_per_group(log) -> list:
    """The syrk/gemm calls a logging backend saw after each potrf."""
    per = []
    for kind, _ in log:
        if kind == "potrf":
            per.append(0)
        elif kind in ("syrk", "gemm"):
            per[-1] += 1
    return per


# each supernodal method called directly, with a fresh workspace
DIRECT = {
    "mf": lambda F, S, be, st: factor_mf(F, S, None, UpdateWorkspace(S, "mf"), be, st),
    "ll": lambda F, S, be, st: factor_ll(F, S, UpdateWorkspace(S, "ll"), be, st),
    "rl": lambda F, S, be, st: factor_rl(F, S, None, UpdateWorkspace(S, "rl"), be, st),
    "rlb": lambda F, S, be, st: factor_rlb(F, S, None, be, st)}


@pytest.mark.parametrize("backend", ["reference", "vendor"])
def test_mf_ll_rl_run_what_the_analysis_predicts(backend):
    """mf, ll and rl count no call as they run: the calls a logging backend
    sees are their counters per kind, and the flops of those calls their flop
    count, once ll's width-1 pairs (applied without a kernel: 2rc - c(c-1)
    flops each) are added.  The panels are the
    driver's."""
    for name, an in schedule_cases():
        S = an.S
        T = S.update_table
        fused = int((2 * T.r * T.c - T.c * (T.c - 1))[np.diff(S.first_col)[T.k] == 1].sum())
        for method in ("mf", "ll", "rl"):
            r = an.factor(method, backend)
            log = []
            F = scatter_into_factor(an.A2, S)
            stats = RunStats(method, backend, S.n)
            DIRECT[method](F, S, logging_backend(get_backend(backend), log), stats)
            where = (name, method)
            assert {k: [c for c, _ in log].count(k) for k in stats.calls} == stats.calls, where
            assert sum(f for _, f in log) + (fused if method == "ll" else 0) == stats.flops, where
            assert all(P.tobytes() == Q.tobytes()
                       for P, Q in zip(oracles.panels(F), oracles.panels(r.F))), where
            assert counters(FactorizationResult(stats, None, None)) == counters(r), where


@pytest.mark.parametrize("backend", ["reference", "vendor"])
def test_rlb_runs_what_its_schedule_predicts(backend):
    """The driver's counters, and the calls a logging backend sees on the view
    path, are the schedule's rows, group by group; the schedule runner and the
    view path give the driver's panels."""
    for name, an in schedule_cases():
        S = an.S
        sched = S.rlb_schedule
        diagonal = sum(potrf_flops(S.width(j)) + trsm_flops(S.mrows(j), S.width(j))
                       for j in range(S.nsuper))
        r = an.factor("rlb", backend)
        log = []
        for be in (get_backend(backend), logging_backend(get_backend(backend), log)):
            F = scatter_into_factor(an.A2, S)
            stats = RunStats("rlb", backend, S.n)
            factor_rlb(F, S, None, be, stats)
            for got in (stats, r.stats):
                assert {k: got.calls[k] for k in ("syrk", "gemm")} == sched.calls, name
                assert got.flops - diagonal == sched.flops, name
            assert np.array_equal(F.data, r.F.data), name
        assert updates_per_group(log) == np.diff(sched.ptr).tolist(), name
        updates = [(k, f) for k, f in log if k in sched.calls]
        assert [k for k, _ in updates].count("syrk") == sched.calls["syrk"], name
        assert [k for k, _ in updates].count("gemm") == sched.calls["gemm"], name
        assert sum(f for _, f in updates) == sched.flops, name


def vendor_case():
    an = analyze(generate_spd(80, 0.08, 21), "mindeg", 12.5, True)
    return an.S, scatter_into_factor(an.A2, an.S).data


def read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# a float64 vector made unfit for running on by address, as each key says
UNFIT = {"float32": lambda a: a.astype(np.float32),
         "strided": lambda a: np.repeat(a, 2)[::2],
         "read-only": lambda a: read_only(a.copy()),
         "short": lambda a: a[:-1].copy(),
         "long": lambda a: np.append(a, 0.0)}


@pytest.mark.parametrize("bad", ["float32", "strided", "read-only", "short", "long",
                                 "partial"])
def test_vendor_schedule_runner_rejects_storage_before_any_call(bad):
    """The schedule runner refuses storage it cannot run on before it writes
    anything, and rlb refuses storage a failed factorization left partial."""
    S, data = vendor_case()
    sched = S.rlb_schedule
    storage = data.copy() if bad == "partial" else UNFIT[bad](data)
    before = storage.copy()
    if bad == "partial":
        F = FactorStorage(S)
        F.data, F.state = storage, "partial"
        with pytest.raises(FactorStateError, match="does not hold A"):
            factor_rlb(F, S, None, get_backend("reference"), RunStats("rlb", "reference", S.n))
    else:
        with pytest.raises(ValueError, match="schedule storage"):
            get_backend("reference").run_schedule(storage, sched)
    assert storage.tobytes() == before.tobytes()


@pytest.mark.parametrize("method", ["rlb", "ref", "lu"])
def test_only_mf_ll_rl_take_an_update_workspace(method):
    """Any other method name is a ValueError that names it, not a KeyError."""
    S, _ = vendor_case()
    with pytest.raises(ValueError, match=f"method '{method}' takes no update workspace: "
                                         "only mf, ll and rl take one"):
        UpdateWorkspace(S, method)


@pytest.mark.parametrize("method", ["mf", "ll", "rl"])
@pytest.mark.parametrize("bad", ["float32", "strided", "read-only", "short", "long", "partial",
                                 "arena float32", "arena strided", "arena read-only",
                                 "arena short"])
def test_mf_ll_rl_reject_storage_and_arena_before_any_call(method, bad):
    """By address, mf, ll and rl refuse storage and an update arena they
    cannot run on before they write anything: storage as the schedule
    runner refuses it, storage a failed factorization left partial, and an
    arena that is not a writeable contiguous float64 vector of at least the
    method's plan words."""
    S, data = vendor_case()
    words = getattr(S.plans, f"{method}_peak")
    assert words > 0
    storage, arena = data.copy(), np.zeros(words)
    if bad.startswith("arena "):
        arena = UNFIT[bad[len("arena "):]](arena)
    elif bad != "partial":
        storage = UNFIT[bad](data)
    before = storage.tobytes(), arena.tobytes()
    F = FactorStorage(S)
    F.data = storage
    if bad == "partial":
        F.state = "partial"
    W = UpdateWorkspace(S, method)
    W.arena = arena
    be = get_backend("reference")
    run = {"mf": lambda stats: factor_mf(F, S, None, W, be, stats),
           "ll": lambda stats: factor_ll(F, S, W, be, stats),
           "rl": lambda stats: factor_rl(F, S, None, W, be, stats)}[method]
    error, match = (FactorStateError, "does not hold A") if bad == "partial" else \
        (ValueError, "update arena" if bad.startswith("arena") else "schedule storage")
    with pytest.raises(error, match=match):
        run(RunStats(method, "reference", S.n))
    assert (storage.tobytes(), arena.tobytes()) == before


def corrupt(rows, i, col, value):
    bad = rows.copy()
    bad[i, col] = value
    return bad


@pytest.mark.parametrize("how", ["rows past the column end", "columns past the panel",
                                 "leading dimension", "writes its own panel", "negative offset",
                                 "Y in another panel", "offset past the storage", "empty"])
def test_extent_check_rejects_a_call_that_leaves_its_panel(how):
    S, _ = vendor_case()
    sched = S.rlb_schedule
    rows, ptr = sched.rows, sched.ptr
    check_call_extents(S, sched)
    i = int(np.flatnonzero(rows[:, 0] == GEMM)[0])
    j = int(np.searchsorted(ptr, i, side="right")) - 1
    kind, c, ldc, m, n, x, y = rows[i].tolist()
    bad = {"rows past the column end": lambda: corrupt(rows, i, 3, ldc),
           "columns past the panel": lambda: corrupt(rows, i, 4, n + S.width(j + 1) + ldc),
           "leading dimension": lambda: corrupt(rows, i, 2, ldc + 1),
           "writes its own panel": lambda: corrupt(rows, i, 1, int(S.panel_offsets[j])),
           "negative offset": lambda: corrupt(rows, i, 5, -1),
           "Y in another panel": lambda: corrupt(rows, i, 6, int(S.panel_offsets[j + 1])),
           "offset past the storage": lambda: corrupt(rows, i, 1, S.panel_storage),
           "empty": lambda: corrupt(rows, i, 3, 0)}[how]()
    with pytest.raises(ValueError, match="leaves its panels"):
        check_call_extents(S, CallSchedule(bad, ptr, sched.storage, sched.diag, sched.pair_ptr))


@pytest.mark.parametrize("field", ["offset", "leading dimension", "width", "first column"])
def test_extent_check_rejects_a_diagonal_step_off_its_panel(field):
    S, _ = vendor_case()
    sched = S.rlb_schedule
    j = int(np.flatnonzero(sched.diag[:, 1] != sched.diag[:, 2])[1])  # one with rows below
    col = ["offset", "leading dimension", "width", "first column"].index(field)
    diag = sched.diag.copy()
    diag[j, col] += 1
    with pytest.raises(ValueError, match=f"diagonal step {j} .* is not its supernode's panel"):
        check_call_extents(S, CallSchedule(sched.rows, sched.ptr, sched.storage, diag,
                                           sched.pair_ptr))
    with pytest.raises(ValueError, match="does not match the symbolic factor's panels"):
        check_call_extents(S, CallSchedule(sched.rows, sched.ptr, sched.storage, diag[:-1],
                                           sched.pair_ptr))


@pytest.mark.parametrize("backend", ["reference", "vendor"])
def test_rlb_is_one_schedule_run(monkeypatch, backend):
    """On either backend name, rlb checks its storage once and calls no view
    kernel at all; the view run, on a logging backend without a runner,
    makes the calls the counters report, group by group, and gives the same
    panels."""
    checks = []
    check = kernels._storage_address
    monkeypatch.setattr(kernels, "_storage_address", lambda *a: checks.append(a) or check(*a))
    for name, an in schedule_cases():
        checks.clear()
        with monkeypatch.context() as m:
            m.setattr(numeric, "get_backend", without_view_kernels)
            r = an.factor("rlb", backend)
        assert len(checks) == 1, name
        log = []
        F = scatter_into_factor(an.A2, an.S)
        stats = RunStats("rlb", backend, an.S.n, factor_nnz=an.S.factor_nnz,
                         panel_storage=an.S.panel_storage)
        factor_rlb(F, an.S, None, logging_backend(get_backend(backend), log), stats)
        assert F.data.tobytes() == r.F.data.tobytes(), name
        assert counters(r) == counters(FactorizationResult(stats, None, None, an.S)), name
        assert {k: [c for c, _ in log].count(k) for k in stats.calls} == stats.calls, name
        assert sum(f for _, f in log) == stats.flops, name
        assert updates_per_group(log) == np.diff(an.S.rlb_schedule.ptr).tolist(), name
        assert len(checks) == 1, name


def pivot_case(postorder: bool = False):
    """The analysis of a grid, with two supernodes at least three columns wide
    and neither an ancestor of the other, the earlier one j1 first, and a
    one-column supernode with rows below: the last one, or with
    ``postorder`` the last one after j1 that is not its ancestor, where j1
    also comes first in mf's postorder."""
    an = analyze(grid_laplacian(9), "mindeg", 12.5, True)
    S = an.S
    rank = np.argsort(S.plans.mf_postorder).tolist()  # supernode -> place in mf's order
    wide = [j for j in range(S.nsuper - 1) if S.width(j) >= 3]
    narrow = [j for j in range(S.nsuper) if S.width(j) == 1 and S.mrows(j)]
    for j1 in wide:
        up, p = set(), j1
        while p >= 0:
            up.add(p)
            p = int(S.snode_parent[p])
        after = [j for j in range(j1 + 1, S.nsuper)
                 if j not in up and (rank[j] > rank[j1] or not postorder)]
        later = [j for j in wide if j in after]
        last = [j for j in narrow if j in after][-1:] if postorder else narrow[-1:]
        if later and last:
            return an, j1, later[0], last[0]
    raise AssertionError("no two unrelated wide supernodes")


BAD_PIVOTS = {"non-positive": lambda j1, j2, narrow: {j1: (1, -1.0)},
              "nan": lambda j1, j2, narrow: {j1: (1, np.nan)},
              "nan then non-positive": lambda j1, j2, narrow: {j1: (1, np.nan), j2: (1, -1.0)},
              "one column": lambda j1, j2, narrow: {narrow: (0, -1.0)},
              "nan then one column": lambda j1, j2, narrow: {j1: (1, np.nan),
                                                             narrow: (0, -1.0)}}


def pivot_errors(method: str, case: str, postorder: bool = False) -> tuple:
    """The (index, message) a direct call of ``method`` raises after
    ``pivot_case(postorder)``'s panels get ``BAD_PIVOTS[case]``, and the
    (index, message) naming the first of those bad pivots."""
    an, j1, j2, narrow = pivot_case(postorder)
    S = an.S
    bad = BAD_PIVOTS[case](j1, j2, narrow)  # supernode -> (local column, pivot value)
    F = scatter_into_factor(an.A2, S)
    for j, (local, value) in bad.items():
        F.data[S.panel_offsets[j] + local * (S._lens[j] + 1)] = value
    with pytest.raises(NotPositiveDefiniteError) as e:
        DIRECT[method](F, S, get_backend("reference"), RunStats(method, "reference", S.n))
    j, (local, _) = next(iter(bad.items()))
    col = int(S.first_col[j]) + local
    first = (col, f"non-positive pivot at column {col} (supernode {j}, local {local})")
    return (e.value.index, str(e.value)), first


# an id is the case alone for rlb, method-case for the others, then "-postorder"
# where the later bad pivot also comes after the NaN in mf's postorder
@pytest.mark.parametrize("method, case, postorder", [
    pytest.param(method, case, postorder,
                 id=("" if method == "rlb" else f"{method}-") + case + "-postorder" * postorder)
    for method in DIRECT for case in BAD_PIVOTS for postorder in (False, True)
    if case.startswith("nan then") or not postorder])
def test_rlb_pivot_errors_agree_on_both_backends(method, case, postorder):
    """A bad pivot, a NaN pivot, a NaN pivot followed by a bad pivot, wide or
    one column wide, in a supernode it does not update, or a bad pivot of a
    one-column supernode: every method's diagonal steps go on past a NaN
    pivot, and the first failure in column order is named, with its
    supernode.  Without ``postorder``, mf meets the later bad pivot first and
    names the NaN all the same; with it, every method meets the NaN first and
    names it, as when the views' chol stopped there."""
    error, first = pivot_errors(method, case, postorder)
    assert error == first


def test_schedule_build_rejects_rows_missing_from_the_target():
    S = build_fig1()
    glb = [S.glbind(j) for j in range(S.nsuper)]
    glb[2] = glb[2][glb[2] != 5]  # drop row 6 (0-based 5), which supernode 0 updates
    broken = SymbolicFactor(S.first_col, oracles.row_lists(glb), S.relabel, S.merge_stats)
    with pytest.raises(ValueError, match="missing from the target"):
        broken.rlb_schedule


def test_every_method_factors_without_a_relative_index_map(monkeypatch):
    built = []
    monkeypatch.setattr(symbolic, "RelativeIndexMap", lambda S: built.append(S))
    analysis = analyze(grid_laplacian(8))
    for method in METHODS:
        assert deviation_from_reference(analysis.factor(method)) <= 1e-12, method
    assert built == []


def counters(r):
    """A run's counters and, for rlb, its schedule's update calls per supernode."""
    s = r.stats
    per = np.diff(r.S.rlb_schedule.ptr).tolist() if s.method == "rlb" else None
    return (dict(s.calls), s.flops, s.assembly_ops, s.workspace_peak, per)


VENDOR_CASES = {"fig1": fig1_matrix, "grid": lambda: grid_laplacian(9),
                "gen": lambda: generate_spd(80, 0.08, 21)}


def run_on_oracle_kernels(A, method, **kw):
    """``run`` with ``oracles.numpy_backend()`` in place of the named kernels."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numeric, "get_backend", lambda name: oracles.numpy_backend())
        return run(A, method, **kw)


@pytest.mark.parametrize("case", list(VENDOR_CASES))
def test_vendor_backend_matches_reference_backend(case):
    """The by-address kernels against the numpy/f2py oracle kernels, which the
    methods run on panel views."""
    A = VENDOR_CASES[case]()
    kw = dict(ordering="mindeg", merge_cap=12.5, pr=True)
    for method in ("mf", "ll", "rl", "rlb"):
        ref = run_on_oracle_kernels(A, method, **kw)
        assert ref.stats.backend == "numpy"
        ven = run(A, method, backend="vendor", **kw)
        assert ven.stats.backend == "vendor"
        assert deviation_from_reference(ven) <= 1e-10
        assert counters(ven) == counters(ref)


def test_rlb_on_vendor_allocates_no_float_scratch():
    A = generate_spd(150, 0.3, 5)
    A1 = apply_symmetric_permutation(A, minimum_degree_order(A.pattern))
    S = build_symbolic_factor(A1.pattern, BuildOptions(12.5, True))
    R = RelativeIndexMap(S)
    widest = max(S.width(j) for j in range(S.nsuper))
    F = scatter_into_factor(apply_symmetric_permutation(A1, S.relabel), S)
    backend = get_backend("reference")
    stats = RunStats("rlb", backend.name, S.n)
    tracemalloc.start()
    try:
        factor_rlb(F, S, R, backend, stats)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # less than one float copy of the widest diagonal block
    assert widest >= 40 and peak < 8 * widest * widest


def test_single_supernode_dense_case():
    A = generate_spd(6, 1.0, 4)
    for method in ("mf", "ll", "rl", "rlb"):
        r = run(A, method)
        assert r.S.nsuper == 1
        assert deviation_from_reference(r) <= 1e-12
        assert r.stats.assembly_ops == 0


def test_ll_single_column_updaters_path():
    # tridiagonal with merging off: every supernode is one column wide, so the
    # left-looking method takes its fused scale-scatter path throughout
    pat = oracles.pattern_from_columns(6, [[1], [2], [3], [4], [5], []])
    vals = np.concatenate([[4.0, -1.0]] * 5 + [[4.0]])
    A = SymmetricSparseMatrix(pat, vals)
    r = run(A, "ll")
    assert r.S.nsuper == 5  # the tail pair {5,6} is one fundamental supernode
    assert max(r.S.width(j) for j in range(4)) == 1
    assert r.stats.calls["syrk"] == 0 and r.stats.calls["gemm"] == 0
    assert r.stats.workspace_peak == 0
    assert deviation_from_reference(r) <= 1e-14


@pytest.mark.parametrize("backend", ["reference", "vendor"])
def test_ll_single_column_updaters_with_rows_below_their_targets(backend):
    """Width-1 updaters with c >= 2 rows in their target's columns and rows
    below them: the width-1 branch adds an r-by-c trapezoid, not a column.
    The factor is the column algorithm's, and the counters are the calls and
    flops a logging backend sees plus the width-1 pairs' 2rc - c(c-1) flops."""
    an = analyze(generate_spd(16, 0.15, 2), "natural", None, False)
    S, T = an.S, an.S.update_table
    one = np.diff(S.first_col)[T.k] == 1
    assert np.count_nonzero(one & (T.c >= 2) & (T.r > T.c)) >= 2
    r = an.factor("ll", backend)
    assert deviation_from_reference(r) <= 1e-14
    log = []
    stats = RunStats("ll", backend, S.n)
    DIRECT["ll"](scatter_into_factor(an.A2, S), S, logging_backend(get_backend(backend), log),
                 stats)
    fused = int((2 * T.r * T.c - T.c * (T.c - 1))[one].sum())
    assert r.stats.calls == {k: [c for c, _ in log].count(k) for k in r.stats.calls}
    assert r.stats.calls["syrk"] == np.count_nonzero(~one)
    assert r.stats.flops == sum(f for _, f in log) + fused == S.work_flops
    entries = T.c * T.r - T.c * (T.c - 1) // 2
    assert r.stats.assembly_ops == entries[one | ~T.dense].sum()
    assert r.stats.workspace_peak == S.plans.ll_peak


def test_cross_method_equivalence_and_structure():
    rng = np.random.default_rng(5)
    for seed in range(10):
        A = generate_spd(int(rng.integers(2, 60)), float(rng.uniform(0.05, 0.5)), seed)
        for cap, pr in [(None, False), (12.5, True)]:
            base = None
            for method in ("mf", "ll", "rl", "rlb"):
                r = run(A, method, ordering="mindeg", merge_cap=cap, pr=pr)
                Ld = np.linalg.cholesky(oracles.dense_matrix(r.A_factored))
                scale = max(1.0, np.abs(Ld).max())
                assert np.abs(oracles.dense_factor(r) - Ld).max() / scale <= 1e-10
                if base is None:
                    base = r.stats.flops
                assert r.stats.flops == base  # identical kernel flop totals


def test_mf_rl_flops_equal_assembly_differs():
    A = generate_spd(60, 0.06, 11)
    rmf = run(A, "mf")
    rrl = run(A, "rl")
    assert rmf.stats.flops == rrl.stats.flops
    assert rmf.stats.assembly_ops != rrl.stats.assembly_ops


def test_workspace_peaks_match_plans():
    for seed in range(6):
        A = generate_spd(45, 0.12, seed + 90)
        for method in ("mf", "ll", "rl"):
            r = run(A, method, ordering="mindeg", merge_cap=12.5, pr=True)
            plans = r.S.plans
            want = {"mf": plans.mf_peak, "ll": plans.ll_peak, "rl": plans.rl_peak}[method]
            assert r.stats.workspace_peak == want


def test_relative_map_restored_after_each_method():
    A = generate_spd(30, 0.2, 13)
    for method in ("mf", "rl", "rlb"):
        r = run(A, method)
        b = np.ones(A.n)
        x = r.solve(b)  # the map the method read leaves the panels solvable
        assert np.isfinite(x).all()


def test_solve_identity_and_2x2():
    pat = oracles.pattern_from_columns(3, [[]] * 3)
    A = SymmetricSparseMatrix(pat, np.ones(3))
    r = run(A, "rlb")
    b = np.array([3.0, -1.0, 2.0])
    assert np.allclose(r.solve(b), b)

    pat = oracles.pattern_from_columns(2, [[1], []])
    A = SymmetricSparseMatrix(pat, np.array([4.0, 2.0, 5.0]))
    r = run(A, "rlb")
    b = np.array([8.0, 9.0])
    assert np.allclose(r.solve(b), np.linalg.solve(oracles.dense_matrix(A), b))


def test_solve_residuals_random():
    rng = np.random.default_rng(7)
    for seed in range(8):
        A = generate_spd(40, 0.15, seed + 100)
        r = run(A, ["mf", "ll", "rl", "rlb"][seed % 4], ordering="mindeg",
                merge_cap=12.5, pr=True)
        b = rng.standard_normal(A.n)
        x = r.solve(b)
        res = np.linalg.norm(oracles.dense_matrix(r.A_factored) @ x - b) / np.linalg.norm(b)
        assert res <= A.n * 1e-12


def test_solve_requires_factored_state():
    A = fig1_matrix()
    S = build_fig1()
    F = scatter_into_factor(A, S)
    with pytest.raises(FactorStateError):
        solve(F, S, np.ones(9))


@pytest.mark.parametrize("backend", ["reference", "vendor"])
@pytest.mark.parametrize("method", ["mf", "ll", "rl", "rlb"])
def test_storage_a_failed_factorization_touched_is_refused(method, backend):
    """A pivot lost at the last column fails the run after it has overwritten
    the panels: a second factorization and a solve both refuse them."""
    an = analyze(generate_spd(60, 0.1, 21))
    S = an.S
    F = scatter_into_factor(an.A2, S)
    j = S.nsuper - 1
    c = S.n - 1 - int(S.first_col[j])
    F.data[S.panel_offsets[j] + c * (S._lens[j] + 1)] *= 0.02
    before = F.data.copy()
    with pytest.raises(NotPositiveDefiniteError, match=f"column {S.n - 1} "):
        DIRECT[method](F, S, get_backend(backend), RunStats(method, backend, S.n))
    assert F.data.tobytes() != before.tobytes()
    with pytest.raises(FactorStateError, match="does not hold A"):
        DIRECT[method](F, S, get_backend(backend), RunStats(method, backend, S.n))
    with pytest.raises(FactorStateError, match="does not hold L"):
        solve(F, S, np.ones(S.n))


def solve_cases():
    """(name, matrix, run options): generated inputs under every merge and
    reorder setting, patterns whose supernodes are all one column wide, a
    small dense matrix (one wide supernode) and n = 1."""
    for n, d, seed in ((40, 0.15, 100), (80, 0.08, 21), (150, 0.04, 7)):
        for cap, pr in ((None, False), (12.5, True)):
            yield f"gen{n}", generate_spd(n, d, seed), dict(ordering="mindeg", merge_cap=cap,
                                                            pr=pr)
    diag = SymmetricSparseMatrix(oracles.pattern_from_columns(7, [[]] * 7),
                                 np.arange(1.0, 8.0))
    yield "diagonal", diag, {}
    # a tridiagonal matrix with its middle row numbered last: the root has two
    # children, so no column joins another (the natural order joins the last two)
    tri = oracles.pattern_from_columns(8, [[1], [2], [3], [7], [5], [6], [7], []])
    vals = np.concatenate([[4.0, -1.0]] * 7 + [[4.0]])
    yield "tridiagonal", SymmetricSparseMatrix(tri, vals), {}
    yield "dense", generate_spd(12, 1.0, 3), {}
    yield "n=1", SymmetricSparseMatrix(oracles.pattern_from_columns(1, [[]]), np.array([2.5])), {}


def test_solve_matches_the_per_column_solve():
    rng = np.random.default_rng(17)
    widths = {}
    for name, A, kw in solve_cases():
        b = rng.standard_normal(A.n)
        for method in ("mf", "ll", "rl", "rlb"):
            r = run(A, method, **kw)
            x = r.solve(b)
            want = oracles.solve_per_column(r.F, r.S, b)
            scale = max(1.0, float(np.abs(want).max()))
            assert float(np.abs(x - want).max()) <= 1e-12 * scale, (name, method)
        widths[name] = {r.S.width(j) for j in range(r.S.nsuper)}
    assert widths["diagonal"] == widths["tridiagonal"] == widths["n=1"] == {1}
    assert widths["dense"] == {12}
    assert max(max(w) for k, w in widths.items() if k.startswith("gen")) > 1


def test_solve_accepts_a_list_and_names_a_wrong_length():
    A = generate_spd(5, 0.6, 2)
    r = run(A, "rlb")
    b = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert np.array_equal(r.solve(b), r.solve(np.array(b)))
    for bad in ([1.0, 2.0], np.ones(6)):
        with pytest.raises(ValueError, match=rf"length {len(bad)}, expected length 5"):
            r.solve(bad)
    with pytest.raises(ValueError, match="expected length 5"):
        r.solve(np.ones((5, 1)))


def test_solve_leaves_the_right_hand_side_alone():
    A = generate_spd(30, 0.2, 4)
    r = run(A, "rl")
    b = np.arange(1.0, 31.0)
    r.solve(b)
    assert np.array_equal(b, np.arange(1.0, 31.0))


def test_lower_csc_equals_the_per_column_loop():
    cases = list(solve_cases())
    cases.append(("empty", SymmetricSparseMatrix(oracles.pattern_from_columns(0, []),
                                                 np.zeros(0)), {}))
    for name, A, kw in cases:
        r = run(A, "rlb", **kw)
        got, want = r.F.lower_csc(), oracles.lower_csc_per_column(r.F)
        for u, v in zip(got, want):
            assert u.dtype == v.dtype and np.array_equal(u, v), name


def test_diagonal_flops_are_square_roots_only():
    pat = oracles.pattern_from_columns(5, [[]] * 5)
    A = SymmetricSparseMatrix(pat, np.full(5, 4.0))
    r = run(A, "rlb")
    assert r.stats.flops == 5


def test_errors_keep_their_precedence():
    """Unknown method, then non-finite entry, then a missing or non-positive
    diagonal, then unknown backend."""
    pat = oracles.pattern_from_columns(3, [[1], [], []])
    nan = SymmetricSparseMatrix(pat, np.array([1.0, np.nan, 1.0, -1.0]))
    negative = SymmetricSparseMatrix(pat, np.array([1.0, 0.5, 1.0, -1.0]))
    good = SymmetricSparseMatrix(pat, np.array([1.0, 0.5, 1.0, 1.0]))
    cases = [(nan, "xyz", "turbo", ValueError, "unknown method"),
             (nan, "rlb", "turbo", NonFiniteEntryError, "non-finite"),
             (negative, "ref", "turbo", NotPositiveDefiniteError, "diagonal entry 2"),
             (good, "mf", "turbo", ValueError, "unknown kernel backend")]
    for A, method, backend, exc, message in cases:
        with pytest.raises(exc, match=message):
            run_factorization(A, RunOptions(method=method, backend=backend))


def test_entry_check_rejects_nonpositive_diagonal():
    pat = oracles.pattern_from_columns(2, [[1], []])
    A = SymmetricSparseMatrix(pat, np.array([1.0, 0.5, -2.0]))
    with pytest.raises(NotPositiveDefiniteError):
        run(A, "rlb")


def test_pivot_error_names_supernode_and_column():
    # A leading 2x2 that is positive definite but a trailing block that is not
    pat = oracles.pattern_from_columns(3, [[1, 2], [2], []])
    A = SymmetricSparseMatrix(pat, np.array([4.0, 2.0, 2.0, 4.0, 4.0, 3.0]))
    with pytest.raises(NotPositiveDefiniteError) as e:
        run(A, "ll")
    assert "column" in str(e.value)


# -- relative index map shared across factorizations ----------------------------

RIGHT_LOOKING = {"mf": lambda F, S, R, be, st: factor_mf(F, S, R, UpdateWorkspace(S, "mf"),
                                                         be, st),
                 "rl": lambda F, S, R, be, st: factor_rl(F, S, R, UpdateWorkspace(S, "rl"),
                                                         be, st),
                 "rlb": factor_rlb}


def layered(A):
    """Permuted matrix and symbolic factor, as the driver builds them."""
    A1 = apply_symmetric_permutation(A, minimum_degree_order(A.pattern))
    S = build_symbolic_factor(A1.pattern, BuildOptions(12.5, True))
    return apply_symmetric_permutation(A1, S.relabel), S


def test_one_relative_map_serves_repeated_factorizations():
    A2, S = layered(generate_spd(70, 0.08, 17))
    R = RelativeIndexMap(S)
    for method, factor in RIGHT_LOOKING.items():
        panels = []
        for _ in range(2):
            F = scatter_into_factor(A2, S)
            factor(F, S, R, get_backend("reference"), RunStats(method, "reference", S.n))
            panels.append(F.data)
        assert np.array_equal(panels[0], panels[1]), method


def test_one_analysis_serves_every_method_on_both_backends():
    for A in (grid_laplacian(8), generate_spd(90, 0.04, 21)):
        analysis = analyze(A)
        for method in METHODS:
            got = analysis.factor(method)
            fresh = run_factorization(A, RunOptions(method=method))
            assert counters(got) == counters(fresh), method
            assert got.stats.factor_nnz == fresh.stats.factor_nnz
            assert np.array_equal(got.perm_total.perm, fresh.perm_total.perm)
            if method == "ref":  # the ordered matrix, not the relabelled one
                assert got.A_factored is analysis.A1
                assert all(x.tobytes() == y.tobytes()
                           for x, y in zip(got.ref_factor, fresh.ref_factor))
            else:
                assert got.F.data.tobytes() == fresh.F.data.tobytes(), method


def with_component(seed: int, block: np.ndarray):
    """An SPD gen: matrix plus a disconnected dense component ``block``,
    labels shuffled.  Returns the matrix and the component's columns."""
    base = oracles.dense_matrix(generate_spd(24, 0.15, seed))
    k = block.shape[0]
    n = base.shape[0] + k
    D = np.zeros((n, n))
    D[:n - k, :n - k] = base
    D[n - k:, n - k:] = block
    new = np.random.default_rng(seed).permutation(n)  # new[old]
    M = np.zeros_like(D)
    M[np.ix_(new, new)] = D
    cols = [np.flatnonzero(M[j + 1:, j]) + j + 1 for j in range(n)]
    pat = oracles.pattern_from_columns(n, [c.tolist() for c in cols])
    vals = np.concatenate([M[pat.col(j), j] for j in range(n)])
    return SymmetricSparseMatrix(pat, vals), set(new[n - k:].tolist())


def indefinite_pair_matrix(seed: int):
    """``with_component`` of the 2x2 [[1, 3], [3, 1]] (positive diagonal, not
    positive definite)."""
    return with_component(seed, np.array([[1.0, 3.0], [3.0, 1.0]]))


def test_failed_factorization_leaves_the_map_as_built():
    A, _ = indefinite_pair_matrix(8)
    A2, S = layered(A)
    R = RelativeIndexMap(S)
    fresh = RelativeIndexMap(S)
    for method, factor in RIGHT_LOOKING.items():
        F = scatter_into_factor(A2, S)
        with pytest.raises(NotPositiveDefiniteError):
            factor(F, S, R, get_backend("reference"), RunStats(method, "reference", S.n))
        for j in range(S.nsuper):
            assert np.array_equal(R.rel(j), fresh.rel(j))


# -- entry checks and error numbering ------------------------------------------

@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_are_rejected_in_input_numbering(value):
    A = generate_spd(30, 0.2, 3)
    off = 1  # (1, 0): column 0 stores its diagonal, then row 1
    diag = int(A.pattern.colptr[7])  # (7, 7)
    assert A.pattern.rowind[off] == 1 and A.pattern.rowind[diag] == 7
    for k, (i, j) in ((off, (1, 0)), (diag, (7, 7))):
        v = A.values.copy()
        v[k] = value
        B = SymmetricSparseMatrix(A.pattern, v)
        for method in METHODS:
            for ordering in ("natural", "mindeg"):
                with pytest.raises(NonFiniteEntryError) as e:
                    run(B, method, ordering=ordering, merge_cap=12.5, pr=True)
                assert (e.value.row, e.value.col) == (i, j), method
                assert str(e.value) == f"non-finite entry {value} at ({i}, {j})", method
                assert e.value.numbered(1) == f"non-finite entry {value} at ({i + 1}, {j + 1})"


def test_missing_diagonal_is_named_as_missing(tmp_path):
    path = tmp_path / "missing.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    "3 3 3\n1 1 4\n3 1 1\n3 3 4\n")
    A = read_matrix_market(path)
    assert A.missing_diag.tolist() == [False, True, False]
    for method in METHODS:
        with pytest.raises(NotPositiveDefiniteError) as e:
            run(A, method, ordering="mindeg")
        assert e.value.index == 1
        assert str(e.value) == "diagonal entry 1 is missing"
        assert e.value.numbered(1) == "diagonal entry 2 is missing"
    zero = SymmetricSparseMatrix(A.pattern, A.values)  # the inserted zero, not flagged
    with pytest.raises(NotPositiveDefiniteError, match="diagonal entry 1 is not positive"):
        run(zero, "rlb")


def test_pivot_error_names_a_column_of_the_input():
    for seed in range(4):
        A, pair = indefinite_pair_matrix(seed)
        for method in METHODS:
            for ordering in ("natural", "mindeg"):
                with pytest.raises(NotPositiveDefiniteError) as e:
                    run(A, method, ordering=ordering, merge_cap=12.5, pr=True)
                assert e.value.index in pair, (seed, method, ordering)
                assert f"column {e.value.index}" in str(e.value)
                assert f"column {e.value.index + 1}" in e.value.numbered(1)
                assert ("supernode" in str(e.value)) == (method != "ref")


def test_every_chol_and_runner_decides_pivots_by_one_rule(monkeypatch):
    """chol and every method's run hand dpotrf's result to
    ``kernels._check_pivots``, the one place the rule lives: a run that
    succeeds scans all its pivots once, at the end."""
    seen = []
    rule = kernels._check_pivots
    monkeypatch.setattr(kernels, "_check_pivots", lambda *a: seen.append(a) or rule(*a))
    get_backend("reference").chol(np.asfortranarray(np.array([[4.0, 0.0], [2.0, 5.0]])))
    assert len(seen) == 1
    an = analyze(grid_laplacian(5))
    for method in DIRECT:
        seen.clear()
        an.factor(method)
        assert len(seen) == 1, method
        assert seen[0][0].size == an.S.n and seen[0][1] == 0, method


def test_every_method_steps_by_address_and_the_solve_builds_no_view(monkeypatch):
    """Every supernodal method checks its storage once and takes its
    diagonal steps and its updates by address: it calls none of the view
    kernels.
    No method leaves anything on the storage beyond its symbolic factor, its
    data and its state, nor does the solve: there are no cached panel
    views.  Factors and solutions are the same bytes."""
    b = np.random.default_rng(3).standard_normal(81)
    an = analyze(grid_laplacian(9))
    want = {}
    for method in DIRECT:
        r = an.factor(method)
        want[method] = r.F.data.tobytes(), r.solve(b).tobytes()
    checks = []
    check = kernels._storage_address
    monkeypatch.setattr(kernels, "_storage_address", lambda *a: checks.append(a) or check(*a))
    monkeypatch.setattr(numeric, "get_backend", without_view_kernels)
    for method, (data, x) in want.items():
        checks.clear()
        got = an.factor(method)
        assert len(checks) == 1, method
        assert got.F.data.tobytes() == data, method
        assert vars(got.F).keys() == {"S", "data", "state"}, method
        checks.clear()
        assert got.solve(b).tobytes() == x, method
        assert len(checks) == 1, method
        assert vars(got.F).keys() == {"S", "data", "state"}, method


def graph_laplacian(seed: int) -> SymmetricSparseMatrix:
    """The Laplacian of a seeded dense, chain or random connected graph on
    2-39 vertices with positive edge weights, labels shuffled: singular, so
    its last pivot is roundoff."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    if seed % 3 == 0:  # dense
        i, j = np.tril_indices(n, -1)
    elif seed % 3 == 1:  # chain
        i = np.arange(1, n)
        j = i - 1
    else:  # a random tree plus random edges
        i, j = np.tril_indices(n, -1)
        keep = rng.random(i.size) < rng.uniform(0.0, 0.3)
        v = np.arange(1, n)
        i = np.concatenate([v, i[keep]])
        j = np.concatenate([(rng.random(n - 1) * v).astype(np.int64), j[keep]])
    label = rng.permutation(n)
    i, j = label[i], label[j]
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    w = rng.uniform(0.5, 2.0, lo.size)
    diag = np.zeros(n)
    np.add.at(diag, lo, w)
    np.add.at(diag, hi, w)
    d = np.arange(n, dtype=np.int64)
    return _assemble_lower(n, np.concatenate([hi, d]), np.concatenate([lo, d]),
                           np.concatenate([-w, diag]), pattern_only=False)


def rank_deficient_cases():
    """(matrix, the columns a failure may name): 200 gen: matrices with a
    disconnected component B B^T, B k-by-(k-1), whose last pivot is roundoff,
    then 300 graph Laplacians."""
    for seed in range(200):
        rng = np.random.default_rng(1000 + seed)
        k = int(rng.integers(2, 9))
        B = rng.standard_normal((k, k - 1))
        yield with_component(seed, B @ B.T)
    for seed in range(300):
        A = graph_laplacian(seed)
        yield A, set(range(A.n))


def test_rank_deficient_component_fails_alike_on_both_backends():
    """Both backend names run the same kernels: on ``schedule_cases()`` and on
    matrices singular to roundoff (``rank_deficient_cases``), every
    supernodal method gives the same panel bytes and counters under both,
    or the same pivot error, naming one of the matrix's singular columns.
    The name is all that differs, in ``stats.backend``."""
    def cases():
        for name, an in schedule_cases():
            yield name, an, None
        for case, (A, component) in enumerate(rank_deficient_cases()):
            yield case, analyze(A), component

    outcomes = []
    for case, analysis, component in cases():
        for method in METHODS[1:]:
            got = []
            for backend in ("reference", "vendor"):
                try:
                    r = analysis.factor(method, backend)
                    assert r.stats.backend == backend, (case, method)
                    got.append((r.F.data.tobytes(), counters(r)))
                except NotPositiveDefiniteError as e:
                    assert component is not None and e.index in component, (case, method, backend)
                    got.append((e.index, str(e)))
            assert got[0] == got[1], (case, method)
            if component is not None:
                outcomes.append(isinstance(got[0][0], bytes))
    assert 0 < sum(outcomes) < len(outcomes)  # both outcomes occur


# -- sparse deviation check ------------------------------------------------------

def test_sparse_deviation_equals_the_dense_comparison():
    cases = [fig1_matrix(), grid_laplacian(7)] + [generate_spd(n, d, seed) for n, d, seed in
                                                 ((30, 0.2, 1), (60, 0.05, 2), (45, 0.3, 3))]
    for A in cases:
        for cap, pr in ((None, False), (12.5, True)):
            for method in METHODS:
                r = run(A, method, ordering="mindeg", merge_cap=cap, pr=pr)
                assert deviation_from_reference(r) == oracles.dense_deviation(r)
                # an entry only the panels hold (merged fill) must count too
                slot = None if r.F is None else fill_slot(r)
                if slot is not None:
                    r.F.data[slot] += 0.5
                    assert deviation_from_reference(r) == oracles.dense_deviation(r) > 1e-3


def fill_slot(r):
    """Offset into F.data of a lower-triangle panel entry outside the column
    algorithm's structure (a slot supernode merging added), or None."""
    A2, S, F = r.A_factored, r.S, r.F
    glb = symbolic_factorization(A2.pattern, elimination_tree(A2.pattern))
    for j in range(S.nsuper):
        g = S.glbind(j)
        for c in range(S.width(j)):
            missing = np.flatnonzero(~np.isin(g[c:], glb[int(S.first_col[j]) + c]))
            if missing.size:
                return int(S.panel_offsets[j]) + c * g.size + c + int(missing[0])
    return None
