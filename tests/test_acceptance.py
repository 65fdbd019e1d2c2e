"""Acceptance criteria, one test per criterion.

Each test prints one PASS line (run with ``pytest -s`` or ``-rA`` to see them);
a pytest failure is the corresponding FAIL line.  Criterion 9 is advisory and
prints PASS or WARN but never fails: reference-kernel timing is not expected
to mirror a tuned BLAS.
"""

import time

import numpy as np
import pytest

from snchol.matrix import generate_spd
from snchol.numeric import RunOptions, run_factorization
from snchol.reorder import reorder_within_supernodes
from snchol.symbolic import (BuildOptions, RelativeIndexMap, build_symbolic_factor,
                             elimination_tree, fundamental_supernodes,
                             stack_minimizing_postorder, symbolic_factorization)

import oracles
from oracles import compose_relative
from conftest import fig1_matrix, fig1_pattern, grid_laplacian

RELTOL = 1e-10


def _passline(k, detail):
    print(f"\nACCEPTANCE {k}: PASS - {detail}")


def test_criterion_1_figure1_structural_suite():
    t0 = time.perf_counter()
    pat = fig1_pattern()
    tree = elimination_tree(pat)
    assert (tree.parent + 1).tolist() == [2, 5, 4, 5, 6, 7, 8, 9, 0]
    glb = symbolic_factorization(pat, tree)
    assert (glb[0] + 1).tolist() == [1, 2, 5, 6, 9]
    assert (glb[2] + 1).tolist() == [3, 4, 5, 7, 8]
    assert (glb[4] + 1).tolist() == [5, 6, 7, 8, 9]
    first_col, rows = fundamental_supernodes(oracles.lower_by_row(pat), tree)
    assert (first_col + 1).tolist() == [1, 3, 5, 10]
    assert [r.tolist() for r in rows] == [glb[f].tolist() for f in first_col[:-1]]
    S = build_symbolic_factor(pat, BuildOptions(None, False))
    assert (S.glbind(0) + 1).tolist() == [1, 2, 5, 6, 9]
    assert (S.glbind(1) + 1).tolist() == [3, 4, 5, 7, 8]
    assert (S.glbind(2) + 1).tolist() == [5, 6, 7, 8, 9]
    R = RelativeIndexMap(S)
    assert R.rel(0).tolist() == [4, 3, 0]
    assert R.rel(1).tolist() == [4, 2, 1]
    assert S.block_sizes[0].tolist() == [2, 1]
    assert S.block_sizes[1].tolist() == [1, 2]
    assert R.rel(0)[S.block_starts[0]].tolist() == [4, 0]
    assert R.rel(1)[S.block_starts[1]].tolist() == [4, 2]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passline(1, f"tree, supernodes, row lists, relative and block indices exact "
                 f"({elapsed:.3f}s)")


def test_criterion_2_figure2_reordering_suite():
    t0 = time.perf_counter()
    S = build_symbolic_factor(fig1_pattern(), BuildOptions(None, False))
    _, S2 = reorder_within_supernodes(S)
    assert S2.block_sizes[0].tolist() == [3]
    assert S2.block_sizes[1].tolist() == [3]
    A = fig1_matrix()
    pre = run_factorization(A, RunOptions(method="rlb", ordering="natural",
                                          merge_cap=None, pr=False))
    post = run_factorization(A, RunOptions(method="rlb", ordering="natural",
                                           merge_cap=None, pr=True))
    assert np.diff(pre.S.rlb_schedule.ptr).tolist() == [3, 3, 0]
    assert np.diff(post.S.rlb_schedule.ptr).tolist() == [1, 1, 0]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passline(2, f"single block per child after reordering; kernel calls per child "
                 f"3 -> 1 ({elapsed:.3f}s)")


@pytest.fixture(scope="module")
def oracle_suite():
    """>= 200 generated SPD instances, all five methods, dense-Cholesky oracle,
    solve residuals, plus the counters the storage criteria inspect."""
    rng = np.random.default_rng(20240810)
    sizes = ([int(x) for x in rng.integers(1, 51, size=120)] +
             [int(x) for x in rng.integers(51, 121, size=60)] +
             [int(x) for x in rng.integers(121, 201, size=20)])
    densities = [0.05, 0.1, 0.2, 0.4]
    toggles = [(12.5, True), (None, False), (12.5, False), (None, True)]
    records = []
    t0 = time.perf_counter()
    for idx, n in enumerate(sizes):
        A = generate_spd(n, densities[idx % 4], seed=idx)
        cap, pr = toggles[idx % 4]
        b = rng.standard_normal(n)
        instance = {"n": n, "cap": cap, "pr": pr, "runs": {}}
        for method in ("ref", "mf", "ll", "rl", "rlb"):
            r = run_factorization(A, RunOptions(method=method, ordering="mindeg",
                                                merge_cap=cap, pr=pr))
            L = oracles.dense_factor(r)
            Ld = np.linalg.cholesky(oracles.dense_matrix(r.A_factored))
            dev = float(np.abs(L - Ld).max() / max(1.0, np.abs(Ld).max()))
            if method == "ref":
                x = np.linalg.solve(L.T, np.linalg.solve(L, b))
            else:
                x = r.solve(b)
            res = float(np.linalg.norm(oracles.dense_matrix(r.A_factored) @ x - b) /
                        max(np.linalg.norm(b), 1e-300))
            instance["runs"][method] = {
                "dev": dev, "res": res,
                "workspace": int(r.stats.workspace_peak),
                "assembly": int(r.stats.assembly_ops),
                "panel": int(r.stats.panel_storage),
                "merge_stats": None if r.S is None else r.S.merge_stats,
            }
        records.append(instance)
    return records, time.perf_counter() - t0


def test_criterion_3_oracle_equivalence(oracle_suite):
    records, elapsed = oracle_suite
    assert len(records) >= 200
    worst_dev = worst_res = 0.0
    for inst in records:
        for method, run in inst["runs"].items():
            assert run["dev"] <= RELTOL, (inst["n"], inst["cap"], inst["pr"], method)
            assert run["res"] <= inst["n"] * 1e-12, (inst["n"], method)
            worst_dev = max(worst_dev, run["dev"])
            worst_res = max(worst_res, run["res"] / max(inst["n"], 1))
    assert elapsed < 120.0
    _passline(3, f"{len(records)} instances x 5 methods: worst deviation "
                 f"{worst_dev:.2e}, worst residual/n {worst_res:.2e} ({elapsed:.1f}s)")


def test_criterion_4_relative_index_composition():
    t0 = time.perf_counter()
    rel_cp = np.array([0, 0, 7, 0, 4, 0, 2, 0])
    assert compose_relative(np.array([5, 3, 1]), rel_cp).tolist() == [7, 4, 2]
    rng = np.random.default_rng(99)
    for _ in range(1000):
        p_rows = sorted(rng.choice(300, size=int(rng.integers(2, 40)),
                                   replace=False).tolist())
        c_rows = sorted(rng.choice(p_rows, size=int(rng.integers(1, len(p_rows) + 1)),
                                   replace=False).tolist())
        j_rows = sorted(rng.choice(c_rows, size=int(rng.integers(0, len(c_rows) + 1)),
                                   replace=False).tolist())
        got = compose_relative(oracles.relind_direct(j_rows, c_rows),
                               oracles.relind_direct(c_rows, p_rows))
        assert np.array_equal(got, oracles.relind_direct(j_rows, p_rows))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passline(4, f"worked example and 1000 random compositions exact ({elapsed:.2f}s)")


def test_criterion_5_blocked_method_uses_no_workspace(oracle_suite):
    records, _ = oracle_suite
    for inst in records:
        run = inst["runs"]["rlb"]
        assert run["workspace"] == 0
        assert run["assembly"] == 0
    _passline(5, f"blocked right-looking runs on all {len(records)} instances: "
                 f"0 floats of scratch, 0 assembly operations")


def test_criterion_6_stack_schedule_is_optimal():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    checked = 0
    attempts = 0
    while checked < 100:
        attempts += 1
        n = int(rng.integers(3, 14))
        A = generate_spd(n, float(rng.uniform(0.1, 0.6)), seed=1000 + attempts)
        S = build_symbolic_factor(A.pattern, BuildOptions(None, False))
        if S.nsuper > 8:
            continue
        parent = S.snode_parent
        square = (S._lens - np.diff(S.first_col)) ** 2  # each square update matrix's size
        push = S.plans.push_size
        _, peak = stack_minimizing_postorder(parent, square, push)
        assert peak == oracles.exhaustive_stack_minimum(parent, square, push)
        assert peak == S.plans.mf_peak
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _passline(6, f"{checked} instances with <= 8 supernodes: simulated stack peak "
                 f"equals the exhaustive minimum ({elapsed:.1f}s)")


def test_criterion_7_merging_growth_cap(oracle_suite):
    records, _ = oracle_suite
    capped = 0
    worst_growth = 0.0
    work_growth = []
    for inst in records:
        if inst["cap"] is None:
            continue
        ms = inst["runs"]["rlb"]["merge_stats"]
        growth = 100.0 * (ms.nnz_after - ms.nnz_before) / max(1, ms.nnz_before)
        wg = 100.0 * (ms.work_after - ms.work_before) / max(1, ms.work_before)
        assert growth <= 12.5 + 1e-9, (inst["n"], growth)
        worst_growth = max(worst_growth, growth)
        work_growth.append(wg)
        capped += 1
    assert capped >= 90
    _passline(7, f"{capped} capped instances: max storage growth {worst_growth:.2f}% "
                 f"<= 12.5%; work growth mean {np.mean(work_growth):.2f}% "
                 f"max {np.max(work_growth):.2f}% (reported)")


def test_criterion_8_total_storage_ordering(oracle_suite):
    records, _ = oracle_suite
    for inst in records:
        runs = inst["runs"]
        rlb_total = runs["rlb"]["panel"] + runs["rlb"]["workspace"]
        assert runs["rlb"]["workspace"] == 0
        for method in ("mf", "ll", "rl"):
            other = runs[method]["panel"] + runs[method]["workspace"]
            assert rlb_total <= other
    _passline(8, f"factor + workspace floats: blocked right-looking lowest on all "
                 f"{len(records)} instances, with zero workspace")


def test_criterion_9_directional_performance_advisory():
    A = grid_laplacian(55)  # 3025 unknowns
    meds = {}
    for method in ("mf", "ll", "rl", "rlb"):
        samples = []
        for _ in range(7):
            r = run_factorization(A, RunOptions(method=method, ordering="mindeg",
                                                merge_cap=12.5, pr=True))
            samples.append(r.stats.wall_seconds)
        meds[method] = float(np.median(samples))
    bound = 1.10 * min(meds["mf"], meds["ll"], meds["rl"])
    detail = (f"median-of-7 on {A.n}-dof grid: rlb {meds['rlb']:.3f}s vs "
              f"1.10*min(mf,ll,rl) {bound:.3f}s "
              f"(mf {meds['mf']:.3f} ll {meds['ll']:.3f} rl {meds['rl']:.3f})")
    if meds["rlb"] <= bound:
        _passline(9, detail)
    else:
        print(f"\nACCEPTANCE 9: WARN - {detail}; advisory only: rlb makes more, smaller "
              f"kernel calls than the others, and each pays Python and ctypes overhead")
