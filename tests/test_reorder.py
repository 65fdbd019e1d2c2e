import numpy as np
import pytest

from snchol.matrix import (apply_symmetric_permutation, generate_spd,
                           minimum_degree_order)
from snchol import reorder
from snchol.reorder import reorder_within_supernodes
from snchol.symbolic import BuildOptions, build_symbolic_factor

import oracles
from conftest import fig1_pattern
from oracles import refine


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
