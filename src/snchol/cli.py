"""Command line front end: analyze, factor, check and bench subcommands, each
over one ``numeric.analyze`` per matrix (``check`` runs the column oracle once).

``bench`` emits one CSV row per (matrix, method) with median-of-N timings plus
a companion performance-profile CSV: for each method, the fraction of matrices
factored within a factor tau of the per-matrix best, at every tau where that
fraction changes.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from .kernels import NotPositiveDefiniteError
from .matrix import (MatrixMarketError, PermutationFileError, SymmetricSparseMatrix, generate_spd,
                     read_matrix_market)
from .numeric import (METHODS, FactorizationResult, NonFiniteEntryError, analyze, column_factor,
                      deviation_from_reference)

@dataclass
class BenchRecord:
    matrix: str
    method: str
    ordering: str
    pr: bool
    merge_cap: float | None
    repeats: int
    wall_seconds: float
    flops: int
    factor_nnz: int
    workspace_peak: int
    assembly_ops: int
    status: str = "ok"

    def to_row(self) -> list:
        cap = "off" if self.merge_cap is None else repr(float(self.merge_cap))
        return [self.matrix, self.method, self.ordering,
                str(int(self.pr)), cap, str(self.repeats), repr(self.wall_seconds),
                str(self.flops), str(self.factor_nnz), str(self.workspace_peak),
                str(self.assembly_ops), self.status]


CSV_HEADER = [f.name for f in fields(BenchRecord)]


def performance_profile(times: dict) -> dict:
    """times maps method -> per-matrix seconds (inf marks a failed run).
    Returns method -> (taus, fractions): the method's distinct finite ratios
    to the per-matrix best, ascending, and the fraction of matrices within
    each.  The profile is a step function that changes only at those taus."""
    mat = np.vstack([np.asarray(t, dtype=float) for t in times.values()])
    with np.errstate(invalid="ignore"):  # inf / inf where every method failed
        ratio = mat / mat.min(axis=0)
    out = {}
    for m, r in zip(times, ratio):
        taus, counts = np.unique(r[np.isfinite(r)], return_counts=True)
        out[m] = (taus, np.cumsum(counts) / mat.shape[1])
    return out


class SpecError(ValueError):
    """A malformed ``gen:`` matrix spec."""


class OutputError(Exception):
    """A result file that cannot be written."""


# main reports these; ``analyze`` reads an ``--order file:``, so commands pass them on
INPUT_ERRORS = (OSError, MatrixMarketError, SpecError, PermutationFileError)
GEN_KEYS = {"n": int, "density": float, "seed": int}


def load_matrix(spec: str, default_seed: int) -> SymmetricSparseMatrix:
    """A path, or ``gen:n=...,density=...[,seed=...]`` for a synthetic SPD
    matrix.  A malformed ``gen:`` spec raises SpecError."""
    if not spec.startswith("gen:"):
        return read_matrix_market(spec)
    args = {"density": 0.1, "seed": default_seed}
    try:
        for item in spec[4:].split(","):
            key, eq, value = item.partition("=")
            if not eq or key not in GEN_KEYS:
                raise ValueError(f"item '{item}' is not n=, density= or seed=")
            args[key] = GEN_KEYS[key](value)
        if "n" not in args:
            raise ValueError("n= is missing")
        return generate_spd(args["n"], args["density"], args["seed"])
    except ValueError as e:
        raise SpecError(f"{spec}: {e}") from None


def _print_record(rec: BenchRecord, stats=None) -> None:
    cap = "off" if rec.merge_cap is None else f"{rec.merge_cap:g}"
    print(f"matrix={rec.matrix} method={rec.method} order={rec.ordering} pr={int(rec.pr)} "
          f"merge_cap={cap}")
    print(f"  wall={rec.wall_seconds:.6f}s flops={rec.flops} factor_nnz={rec.factor_nnz} "
          f"workspace_peak={rec.workspace_peak} assembly_ops={rec.assembly_ops} "
          f"repeats={rec.repeats} status={rec.status}")
    if stats is not None:
        c = stats.calls
        print(f"  kernel calls: potrf={c['potrf']} trsm={c['trsm']} "
              f"syrk={c['syrk']} gemm={c['gemm']}")


def _message(e: Exception) -> str:
    """An error's text with the input's rows and columns counted from 1, as
    Matrix Market files count them."""
    if isinstance(e, (NotPositiveDefiniteError, NonFiniteEntryError)):
        return e.numbered(1)
    return str(e)


def _check_writable(*paths) -> None:
    """Appending creates a missing file and leaves an existing one as it is."""
    try:
        for path in filter(None, paths):
            open(path, "a").close()
    except OSError as e:
        raise OutputError(e) from None


def _write_csv(path: str, rows: list, header: list) -> None:
    try:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
    except OSError as e:
        raise OutputError(e) from None


def cmd_factor(args) -> int:
    _check_writable(args.csv)
    A = load_matrix(args.matrix, args.seed)
    try:
        result = analyze(A, args.order, args.merge_cap, args.pr).factor(args.method)
    except INPUT_ERRORS:
        raise
    except (NotPositiveDefiniteError, ValueError) as e:
        print(f"error: factorization ({args.method}): {_message(e)}", file=sys.stderr)
        return 1
    stats = result.stats
    rec = BenchRecord(args.matrix, args.method, args.order, args.pr, args.merge_cap, 1,
                      stats.wall_seconds, stats.flops, stats.factor_nnz, stats.workspace_peak,
                      stats.assembly_ops)
    _print_record(rec, stats)
    if args.check:
        dev = deviation_from_reference(result)
        print(f"  check: max relative deviation from column oracle = {dev:.3e}")
    if args.solve:
        rng = np.random.default_rng(args.seed)
        b = rng.standard_normal(A.n)
        if result.F is None:
            print("  solve: unavailable for the column method", file=sys.stderr)
        else:
            t0 = time.perf_counter()
            x = solve_original(result, b)
            wall = time.perf_counter() - t0
            print(f"  solve: relative residual = {residual(A, x, b):.3e}")
            print(f"  solve: wall={wall:.6f}s")
    if args.csv:
        _write_csv(args.csv, [rec.to_row()], CSV_HEADER)
    return 0


def solve_original(result: FactorizationResult, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for the original (unpermuted) system."""
    P = result.perm_total
    y = result.solve(b[P.inv])
    return y[P.perm]


def residual(A: SymmetricSparseMatrix, x: np.ndarray, b: np.ndarray) -> float:
    """||A x - b|| / ||b|| (or / 1 for b = 0) with a sparse matvec."""
    r = A.matvec(x) - b
    nb = float(np.linalg.norm(b))
    return float(np.linalg.norm(r)) / (nb if nb > 0 else 1.0)


def cmd_check(args) -> int:
    A = load_matrix(args.matrix, args.seed)
    try:
        analysis, failure = analyze(A, args.order, args.merge_cap, args.pr), None
    except INPUT_ERRORS:
        raise
    except (NotPositiveDefiniteError, ValueError) as e:
        failure = e
    failed = False
    oracle = None  # the column algorithm's factor, once a method has succeeded
    for method in ("mf", "ll", "rl", "rlb"):
        try:
            if failure:
                raise failure
            result = analysis.factor(method)
            oracle = oracle or column_factor(analysis.A2)
            dev = deviation_from_reference(result, oracle)
            ok = dev <= 1e-10
            failed |= not ok
            print(f"{args.matrix} {method}: deviation={dev:.3e} {'ok' if ok else 'FAIL'}")
        except (NotPositiveDefiniteError, ValueError) as e:
            print(f"{args.matrix} {method}: error: {_message(e)}")
            failed = True
    return 1 if failed else 0


def cmd_analyze(args) -> int:
    _check_writable(args.csv)
    A = load_matrix(args.matrix, args.seed)
    try:
        S = analyze(A, args.order, args.merge_cap, args.pr).S
    except INPUT_ERRORS:
        raise
    except (NotPositiveDefiniteError, ValueError) as e:
        print(f"error: analysis: {_message(e)}", file=sys.stderr)
        return 1
    ms = S.merge_stats
    nnz_a = A.pattern.nnz
    print(f"matrix={args.matrix} n={A.n} nnz(A)={nnz_a}")
    print(f"factor nnz={S.factor_nnz} fill={S.factor_nnz - nnz_a} panel_storage={S.panel_storage}")
    print(f"supernodes: fundamental={ms.nsuper_before} merged={ms.nsuper_after}")
    growth = 100.0 * (ms.nnz_after - ms.nnz_before) / max(1, ms.nnz_before)
    wgrowth = 100.0 * (ms.work_after - ms.work_before) / max(1, ms.work_before)
    print(f"merging: storage growth={growth:.3f}% work growth={wgrowth:.3f}%")

    # reordering permutes rows within supernodes: it changes the block count,
    # not the number of rows the blocks cover
    rows = sum(S.mrows(j) for j in range(S.nsuper))
    after = sum(S.nblocks(j) for j in range(S.nsuper))
    before = after if ms.blocks_before_reorder is None else ms.blocks_before_reorder
    refined = after if ms.blocks_after_refinement is None else ms.blocks_after_refinement
    for when, count in (("before reordering", before), ("after refinement", refined),
                        ("after  reordering", after)):
        print(f"blocks {when}: count={count} mean_len={rows / count if count else 0.0:.3f}")
    print(f"workspace plans (floats): mf={S.plans.mf_peak} ll={S.plans.ll_peak} "
          f"rl={S.plans.rl_peak} rlb=0")
    print(f"update table: pairs={S.update_table.k.size} positions={S.update_table.pos.size}")
    sched = S.rlb_schedule
    print(f"rlb schedule: syrk={sched.calls['syrk']} gemm={sched.calls['gemm']} "
          f"flops={sched.flops}")
    if args.csv:
        rows = [[j, S.cols(j)[0] + 1, S.cols(j)[1] + 1, S.width(j), S.mrows(j), S.nblocks(j)]
                for j in range(S.nsuper)]
        _write_csv(args.csv, rows,
                   ["snode", "first_col", "last_col", "width", "rows_below", "blocks"])
    return 0


def cmd_bench(args) -> int:
    methods = args.methods.split(",") if args.methods else list(METHODS)
    unknown = [m for m in methods if m not in METHODS] + [None]
    twice = [m for i, m in enumerate(methods) if m in methods[:i]] + [None]
    for bad, why in ((args.repeats < 1 or args.repeats % 2 == 0, "--repeats must be odd"),
                     (unknown[0], f"unknown method '{unknown[0]}'"),
                     (twice[0], f"method '{twice[0]}' is listed twice")):
        if bad:
            print(f"error: {why}", file=sys.stderr)
            return 1
    with open(args.list) as fh:
        specs = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not specs:
        print(f"error: {args.list} lists no matrices", file=sys.stderr)
        return 1
    _check_writable(args.csv, args.profile_csv)
    rows = []
    times = {m: [] for m in methods}
    for spec in specs:
        try:
            A = load_matrix(spec, args.seed)
            analysis, failure = analyze(A, args.order, args.merge_cap, args.pr), None
        except (NotPositiveDefiniteError, ValueError, OSError) as e:
            failure = e
        for m in methods:
            try:
                if failure:
                    raise failure
                runs = [analysis.factor(m).stats for _ in range(args.repeats)]
            except (NotPositiveDefiniteError, ValueError, OSError) as e:
                what = "input" if isinstance(e, INPUT_ERRORS) else "factorization"
                rows.append(BenchRecord(spec, m, args.order, args.pr, args.merge_cap,
                                        args.repeats, 0.0, 0, 0, 0, 0,
                                        f"{what} error: {_message(e)}"))
                times[m].append(np.inf)
            else:
                s = runs[-1]
                med = float(np.median([r.wall_seconds for r in runs]))
                rows.append(BenchRecord(spec, m, args.order, args.pr, args.merge_cap,
                                        args.repeats, med, s.flops, s.factor_nnz,
                                        s.workspace_peak, s.assembly_ops))
                times[m].append(med)
            _print_record(rows[-1])
    if args.csv:
        _write_csv(args.csv, [r.to_row() for r in rows], CSV_HEADER)
    profile = performance_profile(times)
    if args.profile_csv:
        prows = [[m, repr(float(t)), repr(float(v))]
                 for m, (taus, fracs) in profile.items() for t, v in zip(taus, fracs)]
        _write_csv(args.profile_csv, prows, ["method", "tau", "fraction"])
    for m, (taus, fracs) in profile.items():
        at_one = fracs[0] if taus.size and taus[0] == 1.0 else 0.0
        last = f"tau={taus[-1]:g} -> {fracs[-1]:.3f}" if taus.size else "no run succeeded"
        print(f"profile {m}: tau=1 -> {at_one:.3f}, {last}")
    return 0


def _cap(text: str) -> float | None:
    cap = None if text.lower() in ("off", "none") else float(text)
    if cap is not None and not cap >= 0:  # NaN fails this too
        raise argparse.ArgumentTypeError(f"merge cap must be a percentage >= 0 or 'off', not {text}")
    return cap


def _seed(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, not {text}")
    return int(text)


def main(argv=None) -> int:
    top = argparse.ArgumentParser(prog="snchol",
                                  description="Serial supernodal sparse Cholesky toolkit")
    sub = top.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--order", default="mindeg",
                        help="natural | mindeg | file:<path> (default mindeg)")
    common.add_argument("--pr", action=argparse.BooleanOptionalAction, default=True,
                        help="reorder columns within supernodes (default on)")
    common.add_argument("--merge-cap", type=_cap, default=12.5, metavar="PCT",
                        help="supernode merging growth cap in percent ('inf': no limit) or 'off'")
    common.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("factor", parents=[common], help="factor one matrix")
    p.add_argument("matrix")
    p.add_argument("--method", default="rlb", choices=list(METHODS))
    p.add_argument("--check", action="store_true",
                   help="also run the column oracle and report the deviation")
    p.add_argument("--solve", action="store_true", help="solve with a random right-hand side")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("check", parents=[common],
                       help="verify all supernodal methods against the column oracle")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("analyze", parents=[common], help="symbolic statistics only")
    p.add_argument("matrix")
    p.add_argument("--csv", help="per-supernode CSV output")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bench", parents=[common], help="benchmark a list of matrices")
    p.add_argument("list", help="file with one matrix path or gen: spec per line")
    p.add_argument("--methods", help="comma-separated subset of ref,mf,ll,rl,rlb")
    p.add_argument("--repeats", type=int, default=7, help="odd repeat count (median taken)")
    p.add_argument("--csv")
    p.add_argument("--profile-csv")
    p.set_defaults(func=cmd_bench)

    args = top.parse_args(argv)
    try:
        return args.func(args)
    except OutputError as e:
        print(f"error: output: {e}", file=sys.stderr)
        return 1
    except INPUT_ERRORS as e:
        print(f"error: input: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
