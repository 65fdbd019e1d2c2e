import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snchol.cli import (BenchRecord, CSV_HEADER, load_matrix, main, performance_profile,
                        residual)
from snchol.matrix import (SymmetricSparseMatrix, apply_symmetric_permutation, generate_spd,
                           minimum_degree_order)
import snchol
from snchol import numeric
from snchol.kernels import potrf_flops, trsm_flops
from snchol.numeric import RunOptions, analyze, deviation_from_reference, run_factorization
from snchol.symbolic import BuildOptions, build_symbolic_factor

import oracles


def run_cli(*argv):
    return main(list(argv))


def from_row(row: list) -> BenchRecord:
    """A ``BenchRecord.to_row`` CSV row read back."""
    return BenchRecord(row[0], row[1], row[2], bool(int(row[3])),
                       None if row[4] == "off" else float(row[4]), int(row[5]),
                       float(row[6]), int(row[7]), int(row[8]), int(row[9]),
                       int(row[10]), row[11])


def test_factor_rlb_check_reports_tiny_deviation(fig1_mtx, capsys):
    assert run_cli("factor", str(fig1_mtx), "--method", "rlb",
                   "--order", "natural", "--check") == 0
    out = capsys.readouterr().out
    line = [ln for ln in out.splitlines() if "deviation" in ln][0]
    assert float(line.rsplit("=", 1)[1]) <= 1e-10


def test_factor_mf_diagonal_zero_workspace(tmp_path, capsys):
    p = tmp_path / "diag.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                 "3 3 3\n1 1 4\n2 2 4\n3 3 4\n")
    assert run_cli("factor", str(p), "--method", "mf") == 0
    out = capsys.readouterr().out
    assert "workspace_peak=0" in out


def test_factor_rlb_kernel_counts_with_and_without_reordering(fig1_mtx, capsys):
    assert run_cli("factor", str(fig1_mtx), "--method", "rlb", "--order", "natural",
                   "--merge-cap", "off", "--no-pr") == 0
    no_pr = capsys.readouterr().out
    assert run_cli("factor", str(fig1_mtx), "--method", "rlb", "--order", "natural",
                   "--merge-cap", "off", "--pr") == 0
    with_pr = capsys.readouterr().out
    # two child supernodes, three calls each without reordering, one each with
    assert "syrk=4 gemm=2" in no_pr
    assert "syrk=2 gemm=0" in with_pr


def test_factor_errors_exit_nonzero(tmp_path, capsys):
    missing = run_cli("factor", str(tmp_path / "nope.mtx"))
    assert missing == 1
    bad = tmp_path / "indef.mtx"
    bad.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                   "2 2 3\n1 1 1\n2 1 3\n2 2 1\n")
    assert run_cli("factor", str(bad), "--method", "rlb") == 1
    err = capsys.readouterr().err
    assert "factorization (rlb)" in err


@pytest.mark.parametrize("size_line", ["3 3 -1", "-2 -2 0", "3 3 100000000000000"])
def test_bad_size_line_is_an_input_error(tmp_path, capsys, size_line):
    p = tmp_path / "bad.mtx"
    p.write_text(f"%%MatrixMarket matrix coordinate real symmetric\n{size_line}\n1 1 4\n")
    assert run_cli("factor", str(p)) == 1
    assert capsys.readouterr().err.startswith("error: input: line 2: ")
    lst = tmp_path / "list.txt"
    lst.write_text(f"{p}\n")
    out_csv = tmp_path / "bench.csv"
    assert run_cli("bench", str(lst), "--methods", "rlb", "--repeats", "1",
                   "--csv", str(out_csv)) == 0
    rec = from_row(list(csv.reader(out_csv.open()))[1])
    assert rec.status.startswith("input error: line 2: ")


@pytest.mark.parametrize("spec", ["gen:n=10000000000000,density=1",
                                  "gen:n=100000000,density=1",
                                  "gen:n=1" + "0" * 200], ids=["columns", "entries", "n=1e200"])
def test_a_gen_spec_beyond_memory_is_an_input_error(tmp_path, capsys, monkeypatch, spec):
    """A spec that cannot fit, by its columns or by its entries, fails before
    the generator draws a number."""
    def no_draw(*args):
        raise AssertionError("the generator started on a matrix that cannot fit")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    for command in ("analyze", "factor", "check"):
        assert run_cli(command, spec) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: input: {spec}: ") and "machine's memory" in err, command
    lst = tmp_path / "list.txt"
    lst.write_text(f"{spec}\n")
    out_csv = tmp_path / "bench.csv"
    assert run_cli("bench", str(lst), "--methods", "rlb", "--repeats", "1",
                   "--csv", str(out_csv)) == 0
    assert from_row(list(csv.reader(out_csv.open()))[1]).status.startswith(
        f"input error: {spec}: ")


@pytest.mark.parametrize("spec,why", [("gen:n=0", "n must be >= 1"),
                                      ("gen:n=abc", "invalid literal for int()"),
                                      ("gen:density=0.1", "n= is missing"),
                                      ("gen:n=5,density=2", "density must be in (0, 1]"),
                                      ("gen:n=5,density", "item 'density' is not n="),
                                      ("gen:n=5,seed=-1", "expected non-negative integer")])
def test_bad_gen_spec_is_an_input_error(tmp_path, capsys, spec, why):
    for command in ("analyze", "factor", "check"):
        assert run_cli(command, spec) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: input: {spec}: ") and why in err, command
    lst = tmp_path / "list.txt"
    lst.write_text(f"{spec}\ngen:n=12,density=0.3,seed=3\n")
    out_csv = tmp_path / "bench.csv"
    assert run_cli("bench", str(lst), "--methods", "rlb", "--repeats", "1",
                   "--csv", str(out_csv)) == 0
    recs = [from_row(r) for r in list(csv.reader(out_csv.open()))[1:]]
    assert recs[0].status.startswith(f"input error: {spec}: ")
    assert recs[1].status == "ok"


@pytest.mark.parametrize("text,why", [("", "not a permutation file"),
                                      ("1\n1\n3\n", "not a permutation file"),
                                      ("1\n2.5\n3\n", "not a permutation file"),
                                      ("2\n1\n", "permutation is for n=2, matrix has n=3")])
def test_bad_order_file_is_an_input_error(tmp_path, capsys, recwarn, text, why):
    path = tmp_path / "perm.txt"
    path.write_text(text)
    for command in ("analyze", "factor", "check"):
        assert run_cli(command, "gen:n=3,density=0.5", "--order", f"file:{path}") == 1, command
        out, err = capsys.readouterr()
        assert err.startswith(f"error: input: {path}: {why}"), command
        assert err.count("\n") == 1 and not out, command
    assert not recwarn.list
    lst, out_csv = tmp_path / "list.txt", tmp_path / "bench.csv"
    lst.write_text("gen:n=3,density=0.5\n")
    assert run_cli("bench", str(lst), "--methods", "rlb", "--repeats", "1", "--order",
                   f"file:{path}", "--csv", str(out_csv)) == 0
    assert from_row(list(csv.reader(out_csv.open()))[1]).status.startswith(
        f"input error: {path}: {why}")


def test_check_subcommand(fig1_mtx):
    assert run_cli("check", str(fig1_mtx), "--order", "natural") == 0


def test_check_runs_ordering_analysis_and_oracle_once(monkeypatch):
    calls = {}

    def count(name):
        fn = getattr(numeric, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(numeric, name, counted)

    names = ("minimum_degree_order", "build_symbolic_factor", "factor_reference")
    for name in names:
        count(name)
    assert run_cli("check", "gen:n=150,density=0.03,seed=5") == 0
    assert calls == {name: 1 for name in names}


def fresh_inputs(fig1_mtx) -> dict:
    """Spec -> matrix for the fig1 file and two ``gen:`` inputs."""
    specs = [str(fig1_mtx), "gen:n=150,density=0.03,seed=5", "gen:n=90,density=0.08,seed=11"]
    return {spec: load_matrix(spec, 0) for spec in specs}


def test_check_prints_what_a_fresh_pipeline_per_method_gives(fig1_mtx, capsys):
    for spec, A in fresh_inputs(fig1_mtx).items():
        assert run_cli("check", spec) == 0
        want = []
        for method in ("mf", "ll", "rl", "rlb"):
            dev = deviation_from_reference(run_factorization(A, RunOptions(method=method)))
            want.append(f"{spec} {method}: deviation={dev:.3e} {'ok' if dev <= 1e-10 else 'FAIL'}")
        assert capsys.readouterr().out.splitlines() == want


def test_bench_rows_match_a_fresh_pipeline_per_repeat(fig1_mtx, tmp_path):
    inputs = fresh_inputs(fig1_mtx)
    lst = tmp_path / "mats.txt"
    lst.write_text("".join(f"{spec}\n" for spec in inputs))
    out_csv = tmp_path / "bench.csv"
    assert run_cli("bench", str(lst), "--repeats", "3", "--csv", str(out_csv)) == 0
    rows = list(csv.reader(out_csv.open()))[1:]
    want = []
    for spec, A in inputs.items():
        for method in ("ref", "mf", "ll", "rl", "rlb"):
            s = run_factorization(A, RunOptions(method=method)).stats
            want.append(BenchRecord(spec, method, "mindeg", True, 12.5, 3, 0.0, s.flops,
                                    s.factor_nnz, s.workspace_peak, s.assembly_ops).to_row())
    wall = CSV_HEADER.index("wall_seconds")
    for row in rows + want:
        row[wall] = "-"
    assert rows == want


def test_analyze_fig1(fig1_mtx, capsys, tmp_path):
    csvp = tmp_path / "per_snode.csv"
    assert run_cli("analyze", str(fig1_mtx), "--order", "natural",
                   "--merge-cap", "off", "--csv", str(csvp)) == 0
    out = capsys.readouterr().out
    assert "supernodes: fundamental=3 merged=3" in out
    assert "blocks before reordering: count=4" in out
    assert "blocks after  reordering: count=2" in out
    rows = list(csv.reader(csvp.open()))
    assert rows[0][0] == "snode" and len(rows) == 4


def test_analyze_gen_reordered_lines_match_a_full_build(capsys):
    # analyze reorders the unreordered factor it already built instead of
    # running the pipeline again; the result must be the pr=True build
    spec = "gen:n=200,density=0.03,seed=3"
    assert run_cli("analyze", spec) == 0
    out = capsys.readouterr().out.splitlines()
    A = generate_spd(200, 0.03, 3)
    A1 = apply_symmetric_permutation(A, minimum_degree_order(A.pattern))
    S = build_symbolic_factor(A1.pattern, BuildOptions(12.5, True))
    count = sum(S.nblocks(j) for j in range(S.nsuper))
    mean = sum(S.mrows(j) for j in range(S.nsuper)) / count
    assert f"blocks after  reordering: count={count} mean_len={mean:.3f}" in out
    assert (f"workspace plans (floats): mf={S.plans.mf_peak} ll={S.plans.ll_peak} "
            f"rl={S.plans.rl_peak} rlb=0") in out
    before = [ln for ln in out if ln.startswith("blocks before")][0]
    assert before != f"blocks before reordering: count={count} mean_len={mean:.3f}"


def test_analyze_reports_the_update_table_after_the_plans(fig1_mtx, capsys):
    # fig1: supernodes 0 and 1 each update supernode 2, with 3 rows each
    assert run_cli("analyze", str(fig1_mtx), "--order", "natural", "--merge-cap", "off") == 0
    out = capsys.readouterr().out.splitlines()
    at = [i for i, ln in enumerate(out) if ln.startswith("workspace plans")][0]
    assert out[at + 1] == "update table: pairs=2 positions=6"
    spec = "gen:n=200,density=0.03,seed=3"
    assert run_cli("analyze", spec) == 0
    out = capsys.readouterr().out.splitlines()
    A = generate_spd(200, 0.03, 3)
    A1 = apply_symmetric_permutation(A, minimum_degree_order(A.pattern))
    pairs = oracles.update_pairs_by_walk(build_symbolic_factor(A1.pattern))
    assert f"update table: pairs={len(pairs)} positions={sum(e[4] for e in pairs)}" in out


def test_analyze_reports_blocks_after_refinement(capsys):
    # the middle line counts partition refinement alone, as the list-based
    # oracle does it; the 2-opt pass after it only removes blocks
    spec = "gen:n=200,density=0.03,seed=3"
    A = generate_spd(200, 0.03, 3)
    A1 = apply_symmetric_permutation(A, minimum_degree_order(A.pattern))
    S = build_symbolic_factor(A1.pattern, BuildOptions(12.5, False))
    perm, _ = oracles.reorder_by_refinement(S)
    refined = 0
    for p in range(S.nsuper):
        f, l = S.cols(p)
        refined += oracles.incoming_block_count(S, p, perm[f:l + 1] - f)
    for pr in ("--pr", "--no-pr"):
        assert run_cli("analyze", spec, pr) == 0
        out = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("blocks")]
        assert [ln.split(":")[0] for ln in out] == ["blocks before reordering",
                                                    "blocks after refinement",
                                                    "blocks after  reordering"]
        counts = [int(re.search(r"count=(\d+)", ln).group(1)) for ln in out]
        if pr == "--pr":
            assert counts[0] > counts[1] == refined > counts[2]
        else:
            assert counts[0] == counts[1] == counts[2]


def test_analyze_builds_one_schedule_and_one_plan_set(capsys, monkeypatch):
    # the "blocks before reordering" line comes from the reordering's own
    # tally, not from schedules and plans of a second, unreordered factor
    from snchol import symbolic
    spec = "gen:n=200,density=0.03,seed=3"
    A = generate_spd(200, 0.03, 3)
    A1 = apply_symmetric_permutation(A, minimum_degree_order(A.pattern))
    want = []
    for pr in (False, True):
        S = build_symbolic_factor(A1.pattern, BuildOptions(12.5, pr))
        count = sum(S.nblocks(j) for j in range(S.nsuper))
        mean = sum(S.mrows(j) for j in range(S.nsuper)) / count
        want.append(f"count={count} mean_len={mean:.3f}")
    calls = {"_rlb_rows": 0, "stack_minimizing_postorder": 0}
    for name in calls:
        def counted(*args, _fn=getattr(symbolic, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(symbolic, name, counted)
    assert run_cli("analyze", spec) == 0
    out = capsys.readouterr().out.splitlines()
    assert calls == {"_rlb_rows": 1, "stack_minimizing_postorder": 1}
    assert f"blocks before reordering: {want[0]}" in out
    assert f"blocks after  reordering: {want[1]}" in out


@pytest.mark.parametrize("order,cap,pr", [("natural", "off", False), ("natural", "off", True),
                                          ("mindeg", "12.5", True)])
def test_analyze_predicts_the_rlb_kernel_calls(fig1_mtx, capsys, order, cap, pr):
    opts = ["--order", order, "--merge-cap", cap, "--pr" if pr else "--no-pr"]
    for matrix in (str(fig1_mtx), "gen:n=200,density=0.03,seed=3"):
        assert run_cli("analyze", matrix, *opts) == 0
        line = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("rlb schedule")]
        syrk, gemm, flops = re.fullmatch(r"rlb schedule: syrk=(\d+) gemm=(\d+) flops=(\d+)",
                                         line[0]).groups()
        assert run_cli("factor", matrix, "--method", "rlb", *opts) == 0
        out = capsys.readouterr().out
        assert f"syrk={syrk} gemm={gemm}" in out
        S = analyze(load_matrix(matrix, 0), order, None if cap == "off" else 12.5, pr).S
        diagonal = sum(potrf_flops(S.width(j)) + trsm_flops(S.mrows(j), S.width(j))
                       for j in range(S.nsuper))
        assert int(re.search(r" flops=(\d+)", out).group(1)) == int(flops) + diagonal


def test_analyze_diagonal(tmp_path, capsys):
    p = tmp_path / "diag.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                 "4 4 4\n1 1 2\n2 2 2\n3 3 2\n4 4 2\n")
    assert run_cli("analyze", str(p)) == 0
    out = capsys.readouterr().out
    assert "fill=0" in out
    assert "count=0" in out


def test_bench_creates_csv_and_profile(tmp_path, capsys):
    lst = tmp_path / "mats.txt"
    lst.write_text("gen:n=25,density=0.2,seed=1\ngen:n=30,density=0.15,seed=2\n")
    out_csv = tmp_path / "bench.csv"
    prof_csv = tmp_path / "profile.csv"
    assert run_cli("bench", str(lst), "--repeats", "3", "--methods", "mf,rl,rlb",
                   "--csv", str(out_csv), "--profile-csv", str(prof_csv)) == 0
    rows = list(csv.reader(out_csv.open()))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 1 + 2 * 3
    # every row round-trips through the parser
    for row in rows[1:]:
        rec = from_row(row)
        assert rec.to_row() == row
        assert rec.repeats == 3 and rec.status == "ok"
    rlb_rows = [from_row(r) for r in rows[1:] if r[1] == "rlb"]
    assert all(r.workspace_peak == 0 for r in rlb_rows)
    prows = list(csv.reader(prof_csv.open()))
    assert prows[0] == ["method", "tau", "fraction"]


def test_bench_rejects_even_repeats(tmp_path, capsys):
    lst = tmp_path / "mats.txt"
    lst.write_text("gen:n=10,density=0.3,seed=1\n")
    assert run_cli("bench", str(lst), "--repeats", "2") == 1


@pytest.mark.parametrize("flag", ["--tau-max", "--tau-step"])
def test_bench_takes_no_tau_options(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exit_:
        run_cli("bench", str(tmp_path / "mats.txt"), flag, "2")
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag", [("factor", "--csv"), ("analyze", "--csv"),
                                          ("bench", "--csv"), ("bench", "--profile-csv")])
def test_an_unwritable_result_file_is_an_output_error(tmp_path, capsys, command, flag):
    lst = tmp_path / "mats.txt"
    lst.write_text("gen:n=10,density=0.3,seed=1\n")
    matrix = str(lst) if command == "bench" else "gen:n=10,density=0.3,seed=1"
    path = tmp_path / "missing" / "out.csv"
    assert run_cli(command, matrix, flag, str(path)) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: output: [Errno 2] ") and str(path) in err, err
    assert out == ""  # the path is checked before any matrix is read


@pytest.mark.parametrize("command", ["analyze", "factor", "check", "bench"])
def test_a_negative_seed_is_rejected_when_parsing(tmp_path, capsys, command):
    lst = tmp_path / "mats.txt"
    lst.write_text("gen:n=10,density=0.3\n")
    matrix = str(lst) if command == "bench" else "gen:n=10,density=0.3"
    extra = ["--solve"] if command == "factor" else []
    with pytest.raises(SystemExit) as exit_:
        run_cli(command, matrix, *extra, "--seed", "-1")
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "seed must be an integer >= 0, not -1" in err


@pytest.mark.parametrize("command", ["analyze", "factor", "check", "bench"])
def test_no_subcommand_takes_a_backend(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        run_cli(command, "gen:n=10,density=0.3", "--backend", "vendor")
    assert exit_.value.code == 2
    assert "unrecognized arguments: --backend vendor" in capsys.readouterr().err
    assert "backend" not in CSV_HEADER and "backend" not in BenchRecord.__dataclass_fields__


def test_bench_derives_the_column_structure_once_per_matrix(tmp_path, monkeypatch):
    """``ref``'s row lists come from the analysis, once, whatever the repeats."""
    calls = []
    build = numeric.symbolic_factorization
    monkeypatch.setattr(numeric, "symbolic_factorization",
                        lambda *a: calls.append(a) or build(*a))
    lst = tmp_path / "mats.txt"
    lst.write_text("gen:n=30,density=0.2,seed=1\ngen:n=20,density=0.3,seed=2\n")
    assert run_cli("bench", str(lst), "--repeats", "3", "--methods", "ref,rlb") == 0
    assert len(calls) == 2


@pytest.mark.parametrize("lines,methods,why", [
    ("", "rlb", "lists no matrices"),
    ("# only a comment\n\n", "rlb", "lists no matrices"),
    ("gen:n=10,density=0.3,seed=1\n", "rlb,rlb", "method 'rlb' is listed twice"),
    ("gen:n=10,density=0.3,seed=1\n", "mf,rl,mf", "method 'mf' is listed twice")])
def test_bench_rejects_an_empty_list_or_a_repeated_method_before_any_work(
        tmp_path, capsys, monkeypatch, lines, methods, why):
    def no_work(*args, **kw):
        raise AssertionError("bench analyzed a matrix for a run it rejects")

    monkeypatch.setattr("snchol.cli.analyze", no_work)
    lst = tmp_path / "mats.txt"
    lst.write_text(lines)
    assert run_cli("bench", str(lst), "--repeats", "1", "--methods", methods) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and why in out.err


@pytest.mark.parametrize("cap", ["nan", "NaN", "-1", "-0.5", "-inf"])
def test_merge_cap_rejects_nan_and_negative_values(capsys, cap):
    with pytest.raises(SystemExit) as exit_:
        run_cli("analyze", "gen:n=300,density=0.02,seed=1", f"--merge-cap={cap}")
    assert exit_.value.code == 2
    assert "merge cap must be a percentage >= 0" in capsys.readouterr().err


def test_merge_cap_inf_merges_without_limit_and_off_not_at_all(capsys):
    spec = "gen:n=60,density=0.05,seed=1"
    lines = {}
    for cap in ("inf", "off", "0"):
        assert run_cli("analyze", spec, "--merge-cap", cap) == 0
        lines[cap] = capsys.readouterr().out
    A = generate_spd(60, 0.05, 1)
    pat = apply_symmetric_permutation(A, minimum_degree_order(A.pattern)).pattern
    roots = int((build_symbolic_factor(pat, BuildOptions(None)).snode_parent < 0).sum())
    assert f"merged={roots}\n" in lines["inf"]  # one supernode per tree
    fundamental = re.search(r"fundamental=(\d+)", lines["off"]).group(1)
    assert f"merged={fundamental}\n" in lines["off"]


def test_bench_records_failures_and_continues(tmp_path):
    lst = tmp_path / "mats.txt"
    lst.write_text(f"{tmp_path}/missing.mtx\ngen:n=12,density=0.3,seed=3\n")
    out_csv = tmp_path / "bench.csv"
    assert run_cli("bench", str(lst), "--repeats", "1", "--methods", "rlb",
                   "--csv", str(out_csv)) == 0
    recs = [from_row(r) for r in list(csv.reader(out_csv.open()))[1:]]
    assert recs[0].status.startswith("input error")
    assert recs[1].status == "ok"


def step(curve: tuple, tau: float) -> float:
    """A profile curve (breakpoints, fractions) read as a step function at tau."""
    taus, fracs = curve
    return float(np.r_[0.0, fracs][np.searchsorted(taus, tau, side="right")])


def test_performance_profile_properties():
    prof = performance_profile({"a": [2.0], "b": [1.0]})
    # the slower method reaches 1 exactly at tau = 2
    assert step(prof["b"], 1.0) == 1.0
    assert step(prof["a"], 1.0) == 0.0
    assert step(prof["a"], 2.0) == 1.0
    assert step(prof["a"], np.nextafter(2.0, 0.0)) == 0.0
    assert prof["a"][0].tolist() == [2.0] and prof["b"][0].tolist() == [1.0]
    # tau = 1 values sum to at least one (ties allowed), curves are monotone
    prof2 = performance_profile({"a": [1.0, 3.0], "b": [1.0, 1.0]})
    assert step(prof2["a"], 1.0) + step(prof2["b"], 1.0) >= 1.0
    for taus, fracs in prof2.values():
        assert np.all(np.diff(taus) > 0) and np.all(np.diff(fracs) >= 0)
        assert fracs[-1] <= 1.0
    # failures never enter within any tau
    prof3 = performance_profile({"a": [np.inf], "b": [1.0]})
    assert prof3["a"][0].size == 0 and step(prof3["a"], np.inf) == 0.0


TIMES = st.one_of(st.sampled_from([0.1, 0.25, 0.3, 1.0, 3.0, np.inf]),
                  st.floats(min_value=1e-6, max_value=1e6))


@st.composite
def time_tables(draw) -> dict:
    """method -> per-matrix seconds, with ties, failed runs and matrices on
    which every method failed."""
    k = draw(st.integers(1, 4))
    row = st.one_of(st.lists(TIMES, min_size=k, max_size=k), st.just([np.inf] * k))
    table = draw(st.lists(row, min_size=1, max_size=8))
    return {f"m{i}": [r[i] for r in table] for i in range(k)}


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(time_tables())
def test_performance_profile_is_the_step_function_of_a_plain_count(times):
    prof = performance_profile(times)
    assert list(prof) == list(times)
    nmat = len(times["m0"])
    for m, (taus, fracs) in prof.items():
        finite = sum(np.isfinite(t) for t in times[m])
        assert taus.size == fracs.size <= finite
        assert np.all(np.diff(taus) > 0) and np.all(taus >= 1.0) and np.all(np.isfinite(taus))
        assert np.all(np.diff(fracs) > 0) and np.all(fracs <= 1.0)
        # failures never count: past the last breakpoint only the finite runs do
        assert step((taus, fracs), np.inf) == finite / nmat
        between = (taus[:-1] + taus[1:]) / 2
        below = np.nextafter(taus, 0.0)
        for tau in [1.0, *taus, *between, *below, 2.0 * taus.max(initial=1.0), np.inf]:
            assert step((taus, fracs), tau) == oracles.profile_at(times, tau)[m], (m, tau)


@pytest.mark.parametrize("lines", [
    "gen:n=25,density=0.2,seed=1\n{missing}\ngen:n=30,density=0.15,seed=2\n"
    "gen:n=12,density=0.3,seed=3\n",
    "{missing}\ngen:n=0\n"], ids=["mixed", "all failed"])
def test_bench_profile_csv_is_the_exact_profile_of_its_bench_csv(tmp_path, capsys, lines):
    lst, out_csv, prof_csv = (tmp_path / n for n in ("mats.txt", "bench.csv", "profile.csv"))
    lst.write_text(lines.format(missing=tmp_path / "missing.mtx"))
    methods = ["mf", "rl", "rlb"]
    assert run_cli("bench", str(lst), "--repeats", "1", "--methods", ",".join(methods),
                   "--csv", str(out_csv), "--profile-csv", str(prof_csv)) == 0
    recs = [from_row(r) for r in list(csv.reader(out_csv.open()))[1:]]
    times = {m: [r.wall_seconds if r.status == "ok" else np.inf for r in recs if r.method == m]
             for m in methods}
    prows = list(csv.reader(prof_csv.open()))
    assert prows[0] == ["method", "tau", "fraction"] and len(prows) <= 1 + len(recs)
    best = [min(col) for col in zip(*times.values())]
    for m in methods:
        points = [(float(t), float(v)) for name, t, v in prows[1:] if name == m]
        # one row per distinct finite ratio, ascending
        ratios = {t / b for t, b in zip(times[m], best) if np.isfinite(t)}
        assert [t for t, _ in points] == sorted(ratios)
        for tau, fraction in points:
            assert fraction == oracles.profile_at(times, tau)[m]
    if not any(np.isfinite(t) for t in sum(times.values(), [])):
        assert prows == [["method", "tau", "fraction"]]
        assert capsys.readouterr().out.count("no run succeeded") == len(methods)


def test_bench_single_repeat_matches_factor_counters(tmp_path):
    lst = tmp_path / "mats.txt"
    lst.write_text("gen:n=20,density=0.25,seed=9\n")
    bench_csv = tmp_path / "b.csv"
    factor_csv = tmp_path / "f.csv"
    assert run_cli("bench", str(lst), "--repeats", "1", "--methods", "rl",
                   "--csv", str(bench_csv)) == 0
    assert run_cli("factor", "gen:n=20,density=0.25,seed=9", "--method", "rl",
                   "--csv", str(factor_csv)) == 0
    b = from_row(list(csv.reader(bench_csv.open()))[1])
    f = from_row(list(csv.reader(factor_csv.open()))[1])
    assert (b.flops, b.factor_nnz, b.workspace_peak, b.assembly_ops) == \
           (f.flops, f.factor_nnz, f.workspace_peak, f.assembly_ops)


def test_solve_flag_reports_residual(fig1_mtx, capsys):
    assert run_cli("factor", str(fig1_mtx), "--method", "rl", "--solve") == 0
    out = capsys.readouterr().out
    line = [ln for ln in out.splitlines() if "residual" in ln][0]
    assert float(line.rsplit("=", 1)[1]) <= 9e-12
    wall = [ln for ln in out.splitlines() if ln.startswith("  solve: wall=")]
    assert len(wall) == 1 and float(wall[0].rsplit("=", 1)[1].rstrip("s")) >= 0.0


def refuse_to_densify():
    """The matrix class offers no dense copy; the tests build theirs with
    ``oracles.dense_matrix``."""
    assert not hasattr(SymmetricSparseMatrix, "to_dense")


def test_residual_matches_dense_without_densifying():
    rng = np.random.default_rng(3)
    cases = []
    for n, density in [(1, 1.0), (9, 0.5), (40, 0.1)]:
        A = generate_spd(n, density, n)
        x = rng.standard_normal(n)
        b = rng.standard_normal(n)
        want = np.linalg.norm(oracles.dense_matrix(A) @ x - b) / np.linalg.norm(b)
        cases.append((A, x, b, want, np.linalg.norm(oracles.dense_matrix(A) @ x)))
    refuse_to_densify()
    for A, x, b, want, ax in cases:
        assert abs(residual(A, x, b) - want) <= 1e-12 * max(1.0, want)
        assert abs(residual(A, x, np.zeros_like(b)) - ax) <= 1e-12 * max(1.0, ax)


def test_factor_vendor_check_solve(capsys):
    """The one kernel set, with no backend option and no backend in the record."""
    refuse_to_densify()
    assert run_cli("factor", "gen:n=120,density=0.05,seed=4", "--method", "rlb",
                   "--check", "--solve") == 0
    out = capsys.readouterr().out
    assert "backend" not in out
    for key in ("deviation", "residual"):
        line = [ln for ln in out.splitlines() if key in ln][0]
        assert float(line.rsplit("=", 1)[1]) <= 1e-10


@pytest.mark.parametrize("method", ["ref", "mf", "rlb"])
def test_factor_check_compares_factors_sparsely(capsys, method):
    refuse_to_densify()
    assert run_cli("factor", "gen:n=120,density=0.05,seed=4", "--method", method,
                   "--check") == 0
    line = [ln for ln in capsys.readouterr().out.splitlines() if "deviation" in ln][0]
    assert float(line.rsplit("=", 1)[1]) <= 1e-10


def test_check_subcommand_compares_factors_sparsely(capsys):
    refuse_to_densify()
    assert run_cli("check", "gen:n=120,density=0.05,seed=4") == 0
    assert capsys.readouterr().out.count(" ok") == 4


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_input_is_reported_without_traceback(tmp_path, capsys, value):
    p = tmp_path / "bad.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                 f"3 3 4\n1 1 4\n3 1 {value}\n2 2 4\n3 3 4\n")
    assert run_cli("factor", str(p), "--method", "mf") == 1
    err = capsys.readouterr().err
    assert "non-finite" in err and "(3, 1)" in err
    assert run_cli("check", str(p)) == 1
    out = capsys.readouterr().out
    assert out.count("non-finite") == 4


# Matrix Market files count rows and columns from 1, and so do the messages
# the command line prints about them.
ONE_BASED_ERRORS = {
    "non-finite": ("3 3 4\n1 1 4\n3 1 nan\n2 2 4\n3 3 4\n", "non-finite entry nan at (3, 1)"),
    "missing-diagonal": ("3 3 3\n1 1 4\n3 1 1\n3 3 4\n", "diagonal entry 2 is missing"),
    "indefinite": ("2 2 3\n1 1 1\n2 1 3\n2 2 1\n", "non-positive pivot at column 2"),
}


@pytest.mark.parametrize("case", sorted(ONE_BASED_ERRORS))
def test_errors_name_rows_and_columns_as_the_file_does(tmp_path, capsys, case):
    body, message = ONE_BASED_ERRORS[case]
    p = tmp_path / "bad.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real symmetric\n" + body)
    for method in ("ref", "mf", "rlb"):
        assert run_cli("factor", str(p), "--method", method) == 1
        assert message in capsys.readouterr().err, method
    assert run_cli("check", str(p)) == 1
    assert capsys.readouterr().out.count(message) == 4
    lst = tmp_path / "list.txt"
    lst.write_text(f"{p}\n")
    assert run_cli("bench", str(lst), "--methods", "mf", "--repeats", "1") == 0
    assert message in capsys.readouterr().out


# [[10, 4, -10], [4, 2, -4], [-10, -4, 10]]: column 3 is minus column 1, so the
# last pivot is roundoff.  The same file is a CI step.
SINGULAR_3X3 = ("%%MatrixMarket matrix coordinate real symmetric\n"
                "3 3 6\n1 1 10\n2 1 4\n3 1 -10\n2 2 2\n3 2 -4\n3 3 10\n")


def test_singular_matrix_fails_alike_on_both_backends(tmp_path, capsys):
    """The roundoff pivot fails every command; both backend names giving the
    same error is ``test_numeric``'s rank-deficient test."""
    p = tmp_path / "singular.mtx"
    p.write_text(SINGULAR_3X3)
    message = "non-positive pivot at column 3 (supernode 0, local 2)"
    for command in ("factor", "check"):
        assert run_cli(command, str(p)) == 1, command
        seen = capsys.readouterr()
        assert message in seen.err + seen.out, command


# The same one-liner is a CI step.
NO_SCIPY_ON_IMPORT = ("import sys, snchol, snchol.cli; "
                      "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']")


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this snchol; its stdout."""
    src = str(Path(snchol.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_importing_the_package_and_cli_loads_no_scipy():
    """Importing loads no scipy at all: the kernels load scipy.linalg's two
    Cython modules on first use (``kernels._scipy_linalg_module``)."""
    run_python(NO_SCIPY_ON_IMPORT)


# Every supernodal method, each factor solved and checked against the column
# oracle; the digest covers every factor and solution.
FACTOR_EVERY_WAY = """
import hashlib, sys
import numpy as np
import snchol
from snchol.cli import load_matrix, solve_original
from snchol.numeric import RunOptions, deviation_from_reference, run_factorization

def factor_every_way():
    A = load_matrix("gen:n=300,density=0.02,seed=1", 0)
    b = np.random.default_rng(0).standard_normal(A.n)
    digest = hashlib.sha256()
    for method in ("mf", "ll", "rl", "rlb"):
        result = run_factorization(A, RunOptions(method=method))
        x = solve_original(result, b)
        assert deviation_from_reference(result) < 1e-10, method
        digest.update(result.F.data.tobytes())
        digest.update(x.tobytes())
    return digest.hexdigest()
"""


@pytest.fixture(scope="module")
def every_way_digest() -> str:
    namespace = {}
    exec(FACTOR_EVERY_WAY, namespace)
    return namespace["factor_every_way"]()


def test_factoring_and_solving_load_no_scipy_linalg(every_way_digest):
    """The kernels and the solve load scipy.linalg's extension modules by
    file, so scipy/linalg/__init__.py never runs, and the bytes are the same."""
    out = run_python(FACTOR_EVERY_WAY + """
print(factor_every_way())
assert "scipy.linalg" not in sys.modules, "factoring imported scipy.linalg"
""")
    assert out.split() == [every_way_digest]


def test_scipy_linalg_imported_after_the_package_works(every_way_digest):
    out = run_python(FACTOR_EVERY_WAY + """
print(factor_every_way())
import scipy.linalg
from scipy.linalg import blas, cholesky, lapack, qr, qr_update
rng = np.random.default_rng(1)
X = rng.standard_normal((6, 6))
A = X @ X.T + 6 * np.eye(6)
L = cholesky(A, lower=True)
assert np.allclose(L @ L.T, A)
assert np.allclose(blas.dgemm(1.0, X, X, trans_b=1), A - 6 * np.eye(6))
Lp, info = lapack.dpotrf(A, lower=1)
assert info == 0 and np.allclose(np.tril(Lp), L)
Q, R = qr(X)
u, v = rng.standard_normal(6), rng.standard_normal(6)
Q1, R1 = qr_update(Q, R, u, v)  # through scipy.linalg.cython_blas
assert np.allclose(Q1 @ R1, X + np.outer(u, v))
print(factor_every_way())
""")
    assert out.split() == [every_way_digest] * 2


def test_reference_runs_load_no_f2py_module_and_scipy_linalg_names_its_own():
    """Factoring and solving by every method, and ``check`` (the column
    oracle), load the Cython BLAS and LAPACK modules under their real names
    and no f2py module; a later ``import scipy.linalg`` then finds them as its
    own submodules, named as such, and its routines work."""
    run_python("""
import sys
import numpy as np
from snchol.cli import main
for method in ("mf", "ll", "rl", "rlb"):
    assert main(["factor", "gen:n=300,density=0.02,seed=1", "--method", method,
                 "--solve"]) == 0
assert main(["check", "gen:n=300,density=0.02,seed=1"]) == 0
f2py = [m for m in sys.modules if m.endswith(("._fblas", "._flapack"))]
assert not f2py, f2py
assert "scipy.linalg" not in sys.modules
import scipy.linalg
from scipy.linalg import blas, lapack, qr, qr_update
for name in ("cython_blas", "cython_lapack"):
    module = sys.modules["scipy.linalg." + name]
    assert module.__name__ == "scipy.linalg." + name, module.__name__
    assert getattr(scipy.linalg, name) is module, name
rng = np.random.default_rng(1)
X = rng.standard_normal((6, 6))
A = X @ X.T + 6 * np.eye(6)
assert np.allclose(blas.dgemm(1.0, X, X, trans_b=1), A - 6 * np.eye(6))
L, info = lapack.dpotrf(A, lower=1)
assert info == 0 and np.allclose(np.tril(L) @ np.tril(L).T, A)
Q, R = qr(X)
u, v = rng.standard_normal(6), rng.standard_normal(6)
Q1, R1 = qr_update(Q, R, u, v)  # through scipy.linalg.cython_blas
assert np.allclose(Q1 @ R1, X + np.outer(u, v))
""")


def test_scipy_linalg_imported_first_is_the_one_used():
    run_python("""
import sys
import scipy.linalg
from snchol import kernels
for name in ("cython_blas", "cython_lapack"):
    assert kernels._scipy_linalg_module(name) is sys.modules["scipy.linalg." + name], name
""")


def test_loader_falls_back_to_importing_scipy_linalg(every_way_digest, tmp_path):
    """Where an extension module cannot be loaded from its file, the loader
    imports it through scipy.linalg, with the same results."""
    out = run_python(FACTOR_EVERY_WAY + f"""
import os
from snchol import kernels
kernels._extension_path = lambda name: os.path.join({str(tmp_path)!r}, name + ".so")
print(factor_every_way())
assert "scipy.linalg" in sys.modules
""")
    assert out.split() == [every_way_digest]
