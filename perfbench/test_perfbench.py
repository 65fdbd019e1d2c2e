"""Tests of the benchmark itself: deterministic inputs, a check that catches a
corrupted factor, and metric names the benchmark contract accepts."""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import adapter  # noqa: E402
import bench  # noqa: E402
import workloads  # noqa: E402

SMALL = {"grid2d": lambda seed: workloads.grid2d(7, seed),
         "grid3d-nd": lambda seed: workloads.grid3d_nd(4, seed),
         "random": lambda seed: workloads.random_pattern(60, 2, 1, 2, seed)}


def written(tmp_path: Path, w: workloads.Workload, tag: str) -> bytes:
    mm = tmp_path / f"{tag}.mtx"
    workloads.write_matrix_market(mm, w)
    data = mm.read_bytes()
    if w.perm is not None:
        pf = tmp_path / f"{tag}.perm"
        workloads.write_permutation(pf, w.perm)
        data += pf.read_bytes()
    return data


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_same_seed_same_files_other_seed_other_labels(tmp_path, name):
    make = bench.WORKLOADS[name]
    a, b, c = make(3), make(3), make(4)
    assert written(tmp_path, a, "a") == written(tmp_path, b, "b")
    assert written(tmp_path, a, "a") != written(tmp_path, c, "c")
    off_a, off_c = a.rows != a.cols, c.rows != c.cols
    assert not np.array_equal(a.rows[off_a][:50], c.rows[off_c][:50])


def test_nested_dissection_orders_every_vertex_once():
    order = workloads.nested_dissection((5, 6, 7))
    assert np.array_equal(np.sort(order), np.arange(5 * 6 * 7))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_clean_round_passes_and_corrupt_panel_is_counted(tmp_path, name):
    ctx = bench.prepare(SMALL[name](1), 1, tmp_path)
    bench.layered_round(ctx, bench.NoTracer(), False)
    assert ctx.failures == [] and ctx.attempted > 0

    A2, S = bench.setup(ctx, bench.NoTracer())
    A2csc = bench.SymmetricCSC(*adapter.csc_lower(A2))
    b2 = A2csc.matvec(np.ones(A2csc.n))
    factored = [bench.factor(A2, S, c, m, ctx.backends[c], bench.NoTracer())[0]
                for c, m, _ in adapter.CONFIGS]
    solutions = {f.config: adapter.solve(f.F, S, b2) for f in factored}
    adapter.panels(factored[2].F)[-1] += 1e-6
    fails = bench.check_factors(factored, solutions, A2csc, b2, ctx.expected)
    assert any(msg.startswith(f"{factored[2].config}: panels deviate") for msg in fails)
    ctx.record(2 * len(factored), fails)
    report = {"attempted": ctx.attempted, "failed": len(ctx.failures),
              "samples": {n: {"median": 1.0} for n, _ in bench.END_TO_END}}
    line = bench.result_line(report, trace=False)
    assert line["failed"] >= 1 and line["correct"] is False


def test_residual_is_sparse_and_exact():
    w = SMALL["grid2d"](2)
    A = np.zeros((w.n, w.n))
    A[w.rows, w.cols] = w.vals
    A[w.cols, w.rows] = w.vals
    colptr = np.searchsorted(np.sort(w.cols), np.arange(w.n + 1))
    order = np.lexsort((w.rows, w.cols))
    csc = bench.SymmetricCSC(colptr, w.rows[order], w.vals[order])
    x = np.arange(w.n, dtype=float)
    assert np.allclose(csc.matvec(x), A @ x)
    assert csc.residual(np.linalg.solve(A, x), x) < 1e-12


def test_clock_scales_wall_time_by_the_reference_around_it(monkeypatch):
    refs = iter([0.01, 0.03])
    monkeypatch.setattr(bench, "reference_seconds", lambda: next(refs))
    clock = bench.Clock()
    clock.start()
    wall, ref = clock.stop()
    assert clock.refs == [0.02]
    assert ref == pytest.approx(wall * bench.REF_NOMINAL_S / 0.02)


def test_metric_names_match_contract():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    assert all(name.fullmatch(n) for n in e2e + layer)
    assert len(e2e) <= 16 and len(layer) <= 128
    assert len(set(e2e + layer)) == len(e2e) + len(layer)
    assert e2e == [n for n, _ in bench.END_TO_END]
    assert layer == [n for n, _ in bench.per_layer_metrics()]
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_run_reports_every_metric(tmp_path, monkeypatch, trace):
    monkeypatch.setattr(bench, "WORKLOADS", SMALL)
    patched = [(adapter.symbolic, "elimination_tree"),
               (adapter.reorder, "reorder_within_supernodes"),
               (adapter.symbolic.SymbolicFactor, "__init__"),
               (adapter.numeric, "get_backend")]
    before = [getattr(obj, attr) for obj, attr in patched]
    report = bench.run("random", 0, 0.0, trace, tmp_path)
    assert [getattr(obj, attr) for obj, attr in patched] == before
    line = bench.result_line(report, trace)
    names = bench.per_layer_metrics() if trace else bench.END_TO_END
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert list(line["metrics"]) == [n for n, _ in names]
    assert all(np.isfinite(m["value"]) for m in line["metrics"].values())
    assert list(tmp_path.iterdir()) == []  # the work directory is removed
