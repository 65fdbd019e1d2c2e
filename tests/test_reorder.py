import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from snchol.matrix import (Permutation, _assemble_lower, apply_symmetric_permutation,
                           generate_spd, minimum_degree_order)
from snchol import reorder
from snchol.reorder import reorder_within_supernodes
from snchol.symbolic import BuildOptions, build_symbolic_factor

import oracles
from conftest import fig1_pattern
from oracles import refine
from test_numeric import schedule_cases


def test_refine_splits_single_cell():
    assert refine([[5, 6, 7, 8, 9]], {5, 6, 9}) == [[5, 6, 9], [7, 8]]


def test_refine_full_and_empty_pivots_no_change():
    cells = [[5, 6, 7, 8, 9]]
    assert refine(cells, {5, 6, 7, 8, 9}) == [[5, 6, 7, 8, 9]]
    assert refine(cells, set()) == [[5, 6, 7, 8, 9]]


def test_refine_rejects_foreign_elements():
    with pytest.raises(ValueError, match="outside the ground set"):
        refine([[1, 2, 3]], {2, 9})


def test_refine_keeps_first_pivot_contiguous():
    rng = np.random.default_rng(0)
    for _ in range(50):
        ground = list(range(int(rng.integers(3, 12))))
        cells = [ground]
        pivots = [set(rng.choice(ground, size=rng.integers(1, len(ground) + 1),
                                 replace=False).tolist()) for _ in range(4)]
        for piv in pivots:
            cells = refine(cells, piv)
        order = [x for cell in cells for x in cell]
        pos = sorted(order.index(x) for x in pivots[0])
        assert pos == list(range(pos[0], pos[0] + len(pos)))


@pytest.mark.parametrize("cap", [None, 12.5])
def test_array_refinement_matches_the_list_oracle(cap):
    """The array pass of partition refinement gives the list-based
    per-supernode refinement's permutation and block count, on fig1 and on
    160 generated builds per merge cap.  The 2-opt pass after it removes
    blocks from some of them and adds none."""
    patterns = [fig1_pattern()]
    for seed in range(160):
        A = generate_spd(5 + 7 * seed % 70, (0.02, 0.05, 0.1, 0.2, 0.4)[seed % 5], seed + 300)
        if seed % 2 == 0:
            A = apply_symmetric_permutation(A, minimum_degree_order(A.pattern))
        patterns.append(A.pattern)
    shortened = 0
    for i, pat in enumerate(patterns):
        S = build_symbolic_factor(pat, BuildOptions(cap, False))
        where, before, after = reorder._refine(S, *S._pairs())
        perm, blocks = oracles.reorder_by_refinement(S)
        assert np.array_equal(where, perm), (cap, i)
        assert before.sum() == blocks, (cap, i)
        _, S2 = reorder_within_supernodes(S)
        final = sum(S2.nblocks(j) for j in range(S2.nsuper))
        assert S2.merge_stats.blocks_before_reorder == blocks, (cap, i)
        assert S2.merge_stats.blocks_after_refinement == after.sum() >= final, (cap, i)
        shortened += final < after.sum()
    assert shortened >= 40  # 55 and 60 of the 161 builds


def test_reorder_fig1_single_blocks():
    S = build_symbolic_factor(fig1_pattern(), BuildOptions(None, False))
    P, S2 = reorder_within_supernodes(S)
    assert S2.block_sizes[0].tolist() == [3]
    assert S2.block_sizes[1].tolist() == [3]
    # identity outside supernode interiors
    assert np.array_equal(S.col_to_snode[P.inv], S.col_to_snode)
    assert S2.factor_nnz == S.factor_nnz


def test_reorder_single_descendant_single_block():
    # each supernode updated by at most one descendant ends with one block
    cols = {1: [5, 7], 2: [5, 7], 3: [6, 8], 4: [6, 8],
            5: [6, 7, 8], 6: [7, 8], 7: [8], 8: []}
    pat = oracles.pattern_from_columns(
        8, [sorted(r - 1 for r in cols[j + 1]) for j in range(8)])
    S = build_symbolic_factor(pat, BuildOptions(None, False))
    _, S2 = reorder_within_supernodes(S)
    for p, ks in enumerate(oracles.updater_lists(S2)):
        if len(ks) == 1:
            k = ks[0]
            f, l = S2.cols(p)
            b = S2.below(k)
            rows = b[(b >= f) & (b <= l)]
            if rows.size:
                assert rows.max() - rows.min() + 1 == rows.size


def test_reorder_never_worsens_and_reports_vs_exhaustive():
    ratios = []
    for seed in range(12):
        A = generate_spd(30, [0.08, 0.18, 0.3][seed % 3], seed + 70)
        P = minimum_degree_order(A.pattern)
        pat = apply_symmetric_permutation(A, P).pattern
        S = build_symbolic_factor(pat, BuildOptions(12.5, False))
        _, S2 = reorder_within_supernodes(S)
        before = sum(oracles.incoming_block_count(S, p) for p in range(S.nsuper))
        after = sum(oracles.incoming_block_count(S2, p) for p in range(S2.nsuper))
        assert after <= before
        # totals agree with the stored block lists
        assert after == sum(S2.nblocks(j) for j in range(S2.nsuper))
        if max(S.width(j) for j in range(S.nsuper)) <= 8:
            floor = sum(oracles.min_incoming_blocks_exhaustive(S, p)
                        for p in range(S.nsuper))
            ratios.append(after / max(1, floor))
    assert ratios, "no small-supernode instances sampled"
    print(f"\nblock count after reordering vs exhaustive floor: "
          f"mean ratio {float(np.mean(ratios)):.3f} over {len(ratios)} instances")


def test_reorder_keeps_structure_sets():
    for seed in range(6):
        A = generate_spd(24, 0.25, seed + 80)
        S = build_symbolic_factor(A.pattern, BuildOptions(12.5, False))
        P, S2 = reorder_within_supernodes(S)
        assert np.array_equal(S2.first_col, S.first_col)
        assert np.array_equal(S2.snode_parent, S.snode_parent)
        for j in range(S.nsuper):
            mapped = set(int(P.perm[r]) for r in S.glbind(j).tolist())
            assert mapped == set(S2.glbind(j).tolist())
        assert S2.factor_nnz == S.factor_nnz


# -- 2-opt in lockstep ----------------------------------------------------------

def two_opt_against_the_oracle(S) -> int:
    """Run the lockstep 2-opt after refinement on S and check that it leaves
    every column where shortening each visited supernode's path on its own
    (``oracles.shortest_path``) leaves it.  Returns how many supernodes it
    visited."""
    rows, start, k, p, size = S._pairs()
    where, _, after = reorder._refine(S, rows, start, k, p, size)
    want = oracles.two_opt_by_supernode(S, where, rows, start, size, p, after)
    reorder._two_opt(S, where, rows, start, size, p, after)
    assert np.array_equal(where, want)
    return int((np.bincount(p, after, S.nsuper) > np.bincount(p, minlength=S.nsuper)).sum())


def bench_workload_patterns():
    """The benchmark's three workloads at seed 0, ordered as it orders them."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads
    for w in (workloads.grid2d(40, 0), workloads.grid3d_nd(14, 0),
              workloads.random_pattern(1000, 2, 1, 4, 0)):
        A = _assemble_lower(w.n, w.rows, w.cols, w.vals, False)
        P = minimum_degree_order(A.pattern) if w.perm is None else Permutation(w.perm)
        yield w.name, apply_symmetric_permutation(A, P).pattern


def test_lockstep_two_opt_gives_every_supernode_its_own_path():
    visited = 0
    for name, an in schedule_cases():
        visited += two_opt_against_the_oracle(an.S)
    for name, pat in bench_workload_patterns():
        visited += two_opt_against_the_oracle(build_symbolic_factor(pat, BuildOptions(12.5, False)))
    assert visited >= 40  # 32 of them on grid2d


@settings(max_examples=40, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(5, 90), density=st.sampled_from([0.02, 0.05, 0.1, 0.2, 0.4]),
       seed=st.integers(0, 10**6), cap=st.sampled_from([None, 12.5, 50.0]),
       ordered=st.booleans())
def test_lockstep_two_opt_matches_the_oracle_on_generated_matrices(n, density, seed, cap,
                                                                    ordered):
    A = generate_spd(n, density, seed)
    if ordered:
        A = apply_symmetric_permutation(A, minimum_degree_order(A.pattern))
    two_opt_against_the_oracle(build_symbolic_factor(A.pattern, BuildOptions(cap, False)))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_padded_paths_never_gain(data):
    """Stacked paths of different lengths, padded to the longest, come out as
    each one does alone."""
    count = data.draw(st.integers(1, 5))
    m = [data.draw(st.integers(1, 12)) for _ in range(count)]
    u = [data.draw(st.integers(1, 6)) for _ in range(count)]
    cities = np.zeros((count, max(m) + 1, max(u)), dtype=bool)
    weight = np.zeros((count, max(u)))
    for b in range(count):
        bits = data.draw(st.lists(st.booleans(), min_size=m[b] * u[b], max_size=m[b] * u[b]))
        cities[b, :m[b], :u[b]] = np.reshape(bits, (m[b], u[b]))
        weight[b, :u[b]] = data.draw(st.lists(st.sampled_from([1, 4 * u[b] + 1]),
                                              min_size=u[b], max_size=u[b]))
    path = reorder._shorten(cities, weight, np.array(m))
    for b in range(count):
        want = oracles.shortest_path(oracles.city_distances(cities[b, :m[b] + 1, :u[b]],
                                                            weight[b, :u[b]]))
        assert path[b, :m[b] + 2].tolist() == want.tolist()
        assert (path[b, m[b] + 2:] == m[b]).all()
