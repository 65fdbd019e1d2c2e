"""Property-based differential tests over generated patterns.

Each pattern family (n = 1, diagonal-only, dense, disconnected forests, long
chains, random sparse) is drawn with random vertex labels and diagonally
dominant values, so every matrix is SPD.  Every supernodal method, on both
kernel backends and under every merge cap / reorder setting, must match the
column oracle, hit its workspace plan exactly, and (for rlb) use no workspace
and no assembly and make exactly the calls its precompiled schedule lists, the
calls the ancestor walk finds.  On ``gen:`` matrices mf, ll and rl must
write the panels the per-column assembly loop writes, ll's width-1 pairs
the panels the 2-D tuple update on panel views writes, mf the panels its
per-child 2-D extend-add writes, and the update table
must be what the ancestor walk and the left-looking index map find, its runs
what a loop over each pair's positions finds, and its blocks the
per-supernode block lists.  The supernodal solve must leave a residual of at most n * 1e-12 and
agree with the per-column solve.  Examples are derandomized, so the suite is
reproducible.  The symbolic partition is also checked on its own against its
per-column definition, the empty pattern included, and the within-supernode
reorder against the list-based partition refinement it starts from.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from snchol import symbolic
from snchol.kernels import get_backend, supernode_calls
from snchol.matrix import (_assemble_lower, apply_symmetric_permutation, generate_spd,
                           minimum_degree_order)
from snchol.numeric import (RunOptions, RunStats, analyze, deviation_from_reference,
                            run_factorization, scatter_into_factor)
from snchol.reorder import reorder_within_supernodes
from snchol.symbolic import (BuildOptions, SymbolicFactor,
                             build_symbolic_factor, elimination_tree, fundamental_supernodes,
                             postorder_relabel, stack_minimizing_postorder,
                             symbolic_factorization)

import oracles
from test_numeric import (DIRECT, assembles_like_the_column_loop,
                          extends_like_the_per_child_oracle, logging_backend,
                          updates_outer_like_the_panel_index, updates_per_group)

PROPERTY_SETTINGS = settings(max_examples=25, derandomize=True, database=None, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])
KINDS = ("single", "diagonal", "dense", "forest", "chain", "random")
SIZES = {"single": st.just(1), "dense": st.integers(2, 10), "chain": st.integers(2, 60)}
MERGE_CAPS = (None, 0.0, 12.5)


def edges(kind: str, n: int, rng) -> tuple:
    """Undirected edges (i > j) of one pattern family on vertices 0..n-1."""
    if kind in ("single", "diagonal"):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    if kind == "dense":
        return np.tril_indices(n, -1)
    if kind == "chain":
        v = np.arange(1, n)
        return v, v - 1
    if kind == "forest":  # each vertex links to an earlier one, unless it starts a new tree
        v = np.arange(1, n)
        links = rng.random(n - 1) > 0.2
        up = (rng.random(n - 1) * v).astype(np.int64)
        return v[links], up[links]
    i, j = np.tril_indices(n, -1)
    keep = rng.random(i.size) < rng.uniform(0.05, 0.5)
    return i[keep], j[keep]


@st.composite
def spd_matrices(draw, kind: str):
    n = draw(SIZES.get(kind, st.integers(2, 30)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    i, j = edges(kind, n, rng)
    label = rng.permutation(n)
    i, j = label[i], label[j]
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    w = rng.uniform(-1.0, 1.0, lo.size)
    diag = np.ones(n)
    np.add.at(diag, lo, np.abs(w))
    np.add.at(diag, hi, np.abs(w))
    d = np.arange(n, dtype=np.int64)
    return _assemble_lower(n, np.concatenate([hi, d]), np.concatenate([lo, d]),
                           np.concatenate([w, diag]), pattern_only=False)


@pytest.mark.parametrize("kind", ("empty",) + KINDS)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_fundamental_supernodes_match_the_per_column_definition(kind, data):
    """The skeleton-leaf partition and the once-per-supernode row lists equal
    the partition the per-column structures define and each supernode's
    first-column structure, on the postordered (and possibly min-degree
    ordered) pattern."""
    if kind == "empty":
        pat = oracles.pattern_from_columns(0, [])
    else:
        A = data.draw(spd_matrices(kind))
        if data.draw(st.booleans()):
            A = apply_symmetric_permutation(A, minimum_degree_order(A.pattern))
        pat = A.pattern
    P, tree = postorder_relabel(elimination_tree(pat))
    pat = oracles.permute_pattern(pat, P)
    glb = symbolic_factorization(pat, tree)
    first_col, rows = fundamental_supernodes(oracles.lower_by_row(pat), tree)
    assert np.array_equal(first_col, oracles.fundamental_by_definition(tree, glb)), kind
    assert len(rows) == first_col.size - 1
    assert all(np.array_equal(r, glb[f]) for r, f in zip(rows, first_col.tolist())), kind


def supernodal_tree(S) -> tuple:
    """Column owners and supernode parents, worked out from the first columns
    and the row lists alone."""
    owner = np.searchsorted(S.first_col, np.arange(S.n), side="right") - 1
    parent = [int(owner[S.glbind(j)[S.width(j)]]) if S.mrows(j) else -1
              for j in range(S.nsuper)]
    return owner.tolist(), parent


def runs_per_updater(S) -> list:
    """Per supernode p, the runs of each of p's updaters' rows inside p's
    columns, by ascending updater."""
    out = []
    for p, ks in enumerate(oracles.updater_lists(S)):
        f, l = S.cols(p)
        out.append([oracles.run_count([r for r in oracles.below(S, k).tolist() if f <= r <= l])
                    for k in ks])
    return out


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_reorder_improves_on_partition_refinement_alone(kind, data):
    """After the full reorder every supernode has at most the blocks the
    list-based partition refinement leaves it and at least one per updater,
    and every updater that refinement leaves as one run is still one.  The
    first columns, the tree, the row-list sets and the factor size are
    unchanged, and rlb makes no more calls than after refinement alone."""
    A = data.draw(spd_matrices(kind))
    if data.draw(st.booleans()):
        A = apply_symmetric_permutation(A, minimum_degree_order(A.pattern))
    cap = data.draw(st.sampled_from(MERGE_CAPS))
    S = build_symbolic_factor(A.pattern, BuildOptions(cap, False))
    P, S2 = reorder_within_supernodes(S)
    perm, _ = oracles.reorder_by_refinement(S)
    S_pr = SymbolicFactor(S.first_col,
                          oracles.row_lists([np.sort(perm[S.glbind(j)]) for j in range(S.nsuper)]),
                          S.relabel, S.merge_stats)
    where = (kind, A.n, cap)
    refined = 0
    for p, (pr, got) in enumerate(zip(runs_per_updater(S_pr), runs_per_updater(S2))):
        assert len(pr) <= sum(got) <= sum(pr), where + (p,)
        assert all(g == 1 for g, r in zip(got, pr) if r == 1), where + (p,)
        refined += sum(pr)
    assert S2.merge_stats.blocks_after_refinement == refined, where
    assert np.array_equal(S2.first_col, S.first_col), where
    assert np.array_equal(S2.snode_parent, S.snode_parent), where
    for j in range(S.nsuper):
        assert set(P.perm[S.glbind(j)].tolist()) == set(S2.glbind(j).tolist()), where
    assert S2.factor_nnz == S.factor_nnz, where
    assert S2.rlb_schedule.rows.shape[0] <= S_pr.rlb_schedule.rows.shape[0], where


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_every_method_matches_ref_and_its_plans(kind, data):
    A = data.draw(spd_matrices(kind))
    cap = data.draw(st.sampled_from(MERGE_CAPS))
    pr = data.draw(st.booleans())
    ordering = data.draw(st.sampled_from(("natural", "mindeg")))
    for method in ("mf", "ll", "rl", "rlb"):
        r = run_factorization(A, RunOptions(method=method, ordering=ordering, pr=pr,
                                            merge_cap=cap))
        where = (kind, A.n, cap, pr, ordering, method)
        assert deviation_from_reference(r) <= 1e-10, where
        S, stats = r.S, r.stats
        assert supernodal_tree(S) == (S.col_to_snode.tolist(), S.snode_parent.tolist()), where
        if method == "rlb":
            assert stats.assembly_ops == stats.workspace_peak == 0, where
            sched = S.rlb_schedule
            assert {k: stats.calls[k] for k in ("syrk", "gemm")} == sched.calls, where
        else:
            plan = {"mf": S.plans.mf_peak, "ll": S.plans.ll_peak, "rl": S.plans.rl_peak}
            assert stats.workspace_peak == plan[method], where
    rows, per = oracles.rlb_calls_by_walk(S)
    assert np.array_equal(S.rlb_schedule.rows, rows), where
    assert np.diff(S.rlb_schedule.ptr).tolist() == per, where
    assert S.plans.ll_peak == oracles.ll_peak_per_pair(S), where


@PROPERTY_SETTINGS
@given(n=st.integers(1, 90), density=st.floats(0.005, 0.5), seed=st.integers(0, 2**16),
       cap=st.sampled_from(MERGE_CAPS), pr=st.booleans(), mindeg=st.booleans())
def test_update_table_is_the_walk_and_the_index_map(n, density, seed, cap, pr, mindeg):
    """On ``gen:`` matrices, every (updater, target) entry of the update table
    is what the ancestor walk and the left-looking index map find, its runs
    are what a loop over each pair's positions finds, and the blocks are the
    per-supernode block lists."""
    A = generate_spd(n, density, seed)
    if mindeg:
        A = apply_symmetric_permutation(A, minimum_degree_order(A.pattern))
    S = build_symbolic_factor(A.pattern, BuildOptions(cap, pr))
    T = S.update_table
    got = oracles.table_entries(T)
    assert got == oracles.update_pairs_by_walk(S) == oracles.update_pairs_by_indmap(S)
    assert (T.run.tolist(), T.run_ptr.tolist(), T.heads.tolist()) == oracles.table_runs(T)
    sizes, starts = oracles.block_lists(S)
    assert [b.tolist() for b in S.block_sizes] == [b.tolist() for b in sizes]
    assert [b.tolist() for b in S.block_starts] == [b.tolist() for b in starts]


@pytest.mark.parametrize("backend", ["reference", "vendor"])
@PROPERTY_SETTINGS
@given(n=st.integers(1, 90), density=st.floats(0.005, 0.5), seed=st.integers(0, 2**16),
       cap=st.sampled_from((None, 12.5)), pr=st.booleans())
def test_schedule_runner_is_the_view_path(backend, n, density, seed, cap, pr):
    """On ``gen:`` matrices the schedule runner, which sets each group's
    depth and leading dimension once and takes its diagonal steps by
    address, writes the bytes that the view ``run()`` of ``supernode_calls``
    writes through the public kernels, under either backend name; the view
    path takes its steps through chol and trsm.  The rows have 7 columns,
    and the schedule's calls and flops are those of the update calls the
    view path makes, by the flop model of their operand shapes."""
    an = analyze(generate_spd(n, density, seed), "mindeg", cap, pr)
    S, sched = an.S, an.S.rlb_schedule
    assert sched.rows.shape == (sched.ptr[-1], 7)
    be, log = get_backend(backend), []
    F, G = scatter_into_factor(an.A2, S), scatter_into_factor(an.A2, S)
    be.run_schedule(F.data, sched)
    logged = logging_backend(be, log)
    supernode_calls(logged, G.data, sched)[3]()
    assert F.data.tobytes() == G.data.tobytes()
    assert updates_per_group(log) == np.diff(sched.ptr).tolist()
    updates = [(kind, f) for kind, f in log if kind in sched.calls]
    assert {k: [kind for kind, _ in updates].count(k) for k in sched.calls} == sched.calls
    assert sum(f for _, f in updates) == sched.flops


@pytest.mark.parametrize("backend", ["reference", "vendor"])
@PROPERTY_SETTINGS
@given(n=st.integers(1, 90), density=st.floats(0.005, 0.5), seed=st.integers(0, 2**16),
       cap=st.sampled_from((None, 12.5)), pr=st.booleans())
def test_mf_ll_rl_by_address_are_the_view_path(backend, n, density, seed, cap, pr):
    """On ``gen:`` matrices mf, ll and rl, which make their updates by
    address on the backend, write the bytes and count the counters they do
    on a logging wrapper of it, which takes the view path.  The logged calls
    and their flops are the counters, once ll's width-1 pairs (no kernel
    call: 2rc - c(c-1) flops each) are added."""
    an = analyze(generate_spd(n, density, seed), "mindeg", cap, pr)
    S, T = an.S, an.S.update_table
    fused = int((2 * T.r * T.c - T.c * (T.c - 1))[np.diff(S.first_col)[T.k] == 1].sum())
    for method in ("mf", "ll", "rl"):
        log, runs = [], []
        for be in (get_backend(backend), logging_backend(get_backend(backend), log)):
            F = scatter_into_factor(an.A2, S)
            stats = RunStats(method, backend, S.n)
            DIRECT[method](F, S, be, stats)
            runs.append((F.data.tobytes(), stats))
        assert runs[0] == runs[1], method
        assert {k: [c for c, _ in log].count(k) for k in stats.calls} == stats.calls, method
        assert sum(f for _, f in log) + (fused if method == "ll" else 0) == stats.flops, method


@PROPERTY_SETTINGS
@given(n=st.integers(1, 90), density=st.floats(0.005, 0.5), seed=st.integers(0, 2**16),
       cap=st.sampled_from((None, 12.5)), pr=st.booleans())
def test_mf_ll_rl_assemble_what_the_column_loop_assembles(n, density, seed, cap, pr):
    """On ``gen:`` matrices mf, ll and rl, which add their column pairs by
    one flat scatter-add, write the panel bytes and count the counters of the
    per-column loop they replaced."""
    an = analyze(generate_spd(n, density, seed), "mindeg", cap, pr)
    assembles_like_the_column_loop(an, (n, density, seed, cap, pr))


@PROPERTY_SETTINGS
@given(n=st.integers(1, 90), density=st.floats(0.005, 0.5), seed=st.integers(0, 2**16),
       cap=st.sampled_from((None, 12.5)), pr=st.booleans())
def test_mf_extends_and_merges_what_the_per_child_oracle_does(n, density, seed, cap, pr):
    """On ``gen:`` matrices mf, which moves each child's triangle by flat
    offsets, from the run's index or computed per child, writes the panel
    bytes and counts the counters of the 2-D indexes it replaced."""
    an = analyze(generate_spd(n, density, seed), "mindeg", cap, pr)
    extends_like_the_per_child_oracle(an, (n, density, seed, cap, pr))


@PROPERTY_SETTINGS
@given(n=st.integers(1, 90), density=st.floats(0.005, 0.5), seed=st.integers(0, 2**16),
       cap=st.sampled_from((None, 12.5)), pr=st.booleans())
def test_ll_updates_width_1_pairs_as_the_panel_index_does(n, density, seed, cap, pr):
    """On ``gen:`` matrices ll, which subtracts each width-1 pair's outer
    product by one flat gather-multiply-subtract, writes the panel bytes and
    counts the counters of the 2-D tuple update on panel views it replaced."""
    an = analyze(generate_spd(n, density, seed), "mindeg", cap, pr)
    updates_outer_like_the_panel_index(an, (n, density, seed, cap, pr))


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_solve_residual_and_per_column_agreement(kind, data):
    A = data.draw(spd_matrices(kind))
    method = data.draw(st.sampled_from(("mf", "ll", "rl", "rlb")))
    cap = data.draw(st.sampled_from(MERGE_CAPS))
    pr = data.draw(st.booleans())
    r = run_factorization(A, RunOptions(method=method, ordering="mindeg", pr=pr, merge_cap=cap))
    b = np.random.default_rng(A.n).standard_normal(A.n)
    x = r.solve(b)
    where = (kind, A.n, method, cap, pr)
    res = np.linalg.norm(r.A_factored.matvec(x) - b) / np.linalg.norm(b)
    assert res <= A.n * 1e-12, where
    want = oracles.solve_per_column(r.F, r.S, b)
    assert np.abs(x - want).max() <= 1e-12 * max(1.0, np.abs(want).max()), where


@st.composite
def forests(draw, max_nodes=40):
    """A parent array in which parents carry larger ids than their children:
    -1 marks a root and -2 a node outside the forest, which no node has for
    its parent (as merged-away supernodes are marked)."""
    ns = draw(st.integers(0, max_nodes))
    parent = [-1] * ns
    for s in range(ns - 1, -1, -1):
        above = [p for p in range(s + 1, ns) if parent[p] != -2]
        parent[s] = draw(st.sampled_from([-1, -2] + above))
    return np.array(parent, dtype=np.int64)


@PROPERTY_SETTINGS
@given(parent=forests(), data=st.data())
def test_child_index_and_postorder_match_a_recursive_walk(parent, data):
    """The child index lists each node's children ascending, after the nodes
    with a negative parent, and ``_postorder`` visits the forest as a
    recursive walk does, with children ascending or in any drawn order."""
    ns = parent.size
    kids, ptr = symbolic._child_index(parent)
    want = [[c for c in range(ns) if parent[c] == j] for j in range(ns)]
    assert [kids[ptr[j]:ptr[j + 1]].tolist() for j in range(ns)] == want
    assert kids[:ptr[0]].tolist() == (np.flatnonzero(parent == -2).tolist()
                                      + np.flatnonzero(parent == -1).tolist())
    post = symbolic._postorder(parent, kids)
    assert post.tolist() == oracles.postorder_by_recursion(parent.tolist(), want)
    assert post.dtype == np.int64
    drawn = [data.draw(st.permutations(c)) for c in want]
    order = np.array(np.flatnonzero(parent == -1).tolist() + [c for cs in drawn for c in cs],
                     dtype=np.int64)
    assert symbolic._postorder(parent, order).tolist() == \
        oracles.postorder_by_recursion(parent.tolist(), drawn)


@PROPERTY_SETTINGS
@given(parent=forests(), data=st.data())
def test_stack_minimizing_postorder_visits_the_chosen_child_orders(parent, data):
    """The stack-minimizing postorder is the recursive walk over the sibling
    orders Liu's rule and the last-child choice pick, with the peak its stack
    simulation reaches."""
    parent = np.where(parent == -2, -1, parent)  # a supernodal tree has no merged marks
    ns = parent.size
    square = np.array(data.draw(st.lists(st.integers(0, 60), min_size=ns, max_size=ns)),
                      dtype=np.int64)
    push = np.minimum(square, data.draw(st.lists(st.integers(0, 30), min_size=ns,
                                                 max_size=ns))).astype(np.int64)
    post, peak = stack_minimizing_postorder(parent, square, push)
    chosen = oracles.stack_child_orders(parent, square, push)
    assert post.tolist() == oracles.postorder_by_recursion(parent.tolist(), chosen)
    assert peak == oracles.simulate_stack_peak(parent, square, push, chosen)
