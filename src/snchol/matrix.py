"""Symmetric sparse matrices in lower-triangle CSC form, Matrix Market I/O,
symmetric permutations, SPD test-matrix generation and a minimum degree ordering.

The ordering is greedy minimum external degree with ties broken by the
smallest index, computed by mass elimination: each pivot numbers, together
with itself, the neighbours that share its closed neighbourhood, which gives
exactly the permutation of eliminating one vertex per step.

Indices are 0-based everywhere in memory; Matrix Market files and permutation
files use the conventional 1-based indexing.
"""

from __future__ import annotations

import heapq
import os
import warnings
from dataclasses import dataclass, field

import numpy as np


class MatrixMarketError(ValueError):
    """Base class for Matrix Market parsing failures."""


class MatrixMarketHeaderError(MatrixMarketError):
    pass


class MatrixMarketSymmetryError(MatrixMarketError):
    pass


class MatrixMarketIndexError(MatrixMarketError):
    pass


class PermutationFileError(ValueError):
    """A permutation file that holds no permutation of the matrix's columns."""


def _check_fits_in_memory(columns: int, entries: int, what: str, error=ValueError) -> None:
    """Raise ``error`` naming ``what`` when a lower-triangle CSC matrix of
    ``columns`` columns and ``entries`` stored entries (a row index and a value
    each, plus a column pointer per column) needs more bytes than this
    machine's physical memory: checked before anything that size is allocated."""
    need = 8 * columns + 16 * entries
    if need > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise error(f"{what} needs at least {need} bytes, more than this machine's memory")


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SymmetricSparsePattern:
    """Lower-triangle pattern of a symmetric matrix in compressed column form.

    Every column stores its diagonal first, followed by strictly ascending
    below-diagonal row indices.
    """

    n: int
    colptr: np.ndarray
    rowind: np.ndarray

    def __post_init__(self):
        colptr = _frozen(np.asarray(self.colptr, dtype=np.int64))
        rowind = _frozen(np.asarray(self.rowind, dtype=np.int64))
        object.__setattr__(self, "colptr", colptr)
        object.__setattr__(self, "rowind", rowind)
        if self.n < 0 or colptr.shape != (self.n + 1,):
            raise ValueError("colptr must have length n+1")
        if colptr[0] != 0 or np.any(np.diff(colptr) < 1):
            raise ValueError("colptr must start at 0 and be strictly increasing (diagonal required)")
        if colptr[-1] != rowind.size:
            raise ValueError("colptr[-1] must equal len(rowind)")
        starts = colptr[:-1]
        no_diag = rowind[starts] != np.arange(self.n)
        unordered = rowind >= self.n
        unordered[1:] |= rowind[1:] <= rowind[:-1]
        unordered[starts] = False  # a valid diagonal is < n and starts its column
        bad = np.flatnonzero(no_diag | np.logical_or.reduceat(unordered, starts))
        if bad.size and no_diag[bad[0]]:
            raise ValueError(f"column {bad[0]} must store its diagonal first")
        if bad.size:
            raise ValueError(f"column {bad[0]} rows must be strictly ascending and < n")

    @property
    def nnz(self) -> int:
        return int(self.colptr[-1])

    def col(self, j: int) -> np.ndarray:
        return self.rowind[self.colptr[j]:self.colptr[j + 1]]


@dataclass(frozen=True)
class SymmetricSparseMatrix:
    """Pattern plus values; values align with ``pattern.rowind``.

    ``missing_diag`` flags columns whose diagonal was absent in the source file
    and was inserted as an explicit zero.  Positivity of the diagonal is only
    enforced when a factorization is started.
    """

    pattern: SymmetricSparsePattern
    values: np.ndarray
    missing_diag: np.ndarray = field(default=None)

    def __post_init__(self):
        vals = _frozen(np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "values", vals)
        if vals.size != self.pattern.nnz:
            raise ValueError("values length must match pattern nonzero count")
        md = self.missing_diag
        if md is None:
            md = np.zeros(self.pattern.n, dtype=bool)
        object.__setattr__(self, "missing_diag", _frozen(np.asarray(md, dtype=bool)))

    @property
    def n(self) -> int:
        return self.pattern.n

    def col_values(self, j: int) -> np.ndarray:
        p = self.pattern
        return self.values[p.colptr[j]:p.colptr[j + 1]]

    def diagonal(self) -> np.ndarray:
        return self.values[self.pattern.colptr[:-1]]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x from the stored lower triangle: each off-diagonal entry adds
        to both its row and its column."""
        p = self.pattern
        cols = np.repeat(np.arange(self.n), np.diff(p.colptr))
        y = np.bincount(p.rowind, weights=self.values * x[cols], minlength=self.n)
        off = p.rowind != cols
        y += np.bincount(cols[off], weights=self.values[off] * x[p.rowind[off]],
                         minlength=self.n)
        return y


@dataclass(frozen=True)
class Permutation:
    """Bijection on {0..n-1}; ``perm[old] = new`` with the inverse kept alongside."""

    perm: np.ndarray
    inv: np.ndarray = field(default=None)

    def __post_init__(self):
        perm = _frozen(np.asarray(self.perm, dtype=np.int64))
        object.__setattr__(self, "perm", perm)
        n = perm.size
        if np.any(np.sort(perm) != np.arange(n)):
            raise ValueError("perm is not a bijection on {0..n-1}")
        inv = np.empty(n, dtype=np.int64)
        inv[perm] = np.arange(n)
        object.__setattr__(self, "inv", _frozen(inv))

    @property
    def n(self) -> int:
        return self.perm.size

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n, dtype=np.int64))

    def compose(self, then: "Permutation") -> "Permutation":
        """Permutation equal to applying ``self`` first, ``then`` second."""
        if then.n != self.n:
            raise ValueError("dimension mismatch in permutation composition")
        return Permutation(then.perm[self.perm])

    def inverse(self) -> "Permutation":
        return Permutation(self.inv)

    @classmethod
    def from_file(cls, path) -> "Permutation":
        """Read new positions, counted from 1 as ``to_file`` writes them; a file
        holding anything else, or nothing, raises PermutationFileError naming it."""
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # numpy warns, and goes on, on an empty file
                return cls(np.loadtxt(path, dtype=np.int64).ravel() - 1)
        except (ValueError, Warning):
            raise PermutationFileError(f"{path}: not a permutation file (the numbers 1..n, "
                                       "each once)") from None

    def to_file(self, path) -> None:
        np.savetxt(path, self.perm + 1, fmt="%d")


def read_matrix_market(path) -> SymmetricSparseMatrix:
    """Read a symmetric coordinate Matrix Market file into lower-triangle CSC.

    Upper-triangle entries are mirrored into the lower triangle, duplicates are
    summed, and absent diagonal entries are inserted as explicit zeros and
    flagged.  Pattern-only files get synthetic diagonally dominant values
    (off-diagonal -1, diagonal = degree + 1).
    """
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
    # every column stores at least its diagonal
    _check_fits_in_memory(n, n, f"line {lineno}: dimension {n}", MatrixMarketHeaderError)

    fields = [("i", np.int64), ("j", np.int64)] + ([] if pattern_only else [("v", np.float64)])
    try:
        with warnings.catch_warnings():
            # numpy warns, and goes on, on an empty body and (older numpy) on an
            # index written as a float; as errors they send the block to the scan
            warnings.simplefilter("error")
            e = np.loadtxt(lines[k + 1:], dtype=fields, comments=None, usecols=range(len(fields)),
                           ndmin=1)
    except (ValueError, Warning):
        e = None
    if e is not None and e.size == nent and all(np.all((e[c] >= 1) & (e[c] <= n)) for c in "ij"):
        # mirror explicit upper entries into the lower triangle
        ii = np.maximum(e["i"], e["j"]) - 1
        jj = np.minimum(e["i"], e["j"]) - 1
        vv = np.ones(nent) if pattern_only else e["v"]
    else:
        ii, jj, vv = _scan_entries(lines, k, n, nent, pattern_only)
    return _assemble_lower(n, ii, jj, vv, pattern_only)


def _scan_entries(lines, k, n, nent, pattern_only) -> tuple:
    """Entry lines after the size line ``lines[k]`` parsed one at a time, as
    (ii, jj, vv) mirrored into the lower triangle; raises naming the first bad
    line.  ``read_matrix_market`` uses it when its one-call parse fails."""
    ii = np.empty(nent, dtype=np.int64)
    jj = np.empty(nent, dtype=np.int64)
    vv = np.empty(nent, dtype=np.float64)
    want = 3 if not pattern_only else 2
    lineno = k + 1
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
        ii[m], jj[m] = (i - 1, j - 1) if i >= j else (j - 1, i - 1)
        vv[m] = v
        m += 1
    if m != nent:
        raise MatrixMarketError(f"line {lineno}: {m} entries read, {nent} declared")
    return ii, jj, vv


def _assemble_lower(n, ii, jj, vv, pattern_only) -> SymmetricSparseMatrix:
    missing = np.ones(n, dtype=bool)
    missing[jj[ii == jj]] = False
    if missing.any():  # each missing diagonal, as an explicit zero
        add = np.flatnonzero(missing)
        ii, jj = np.concatenate([ii, add]), np.concatenate([jj, add])
        vv = np.concatenate([vv, np.zeros(add.size)])
    order = np.lexsort((ii, jj))
    ii, jj, vv = ii[order], jj[order], vv[order]
    # sum duplicates
    if ii.size:
        keep = np.concatenate([[True], (np.diff(ii) != 0) | (np.diff(jj) != 0)])
        idx = np.flatnonzero(keep)
        ii, jj, vv = ii[idx], jj[idx], np.add.reduceat(vv, idx)

    if pattern_only:
        deg = np.zeros(n, dtype=np.int64)
        off = ii != jj
        np.add.at(deg, ii[off], 1)
        np.add.at(deg, jj[off], 1)
        vv = np.where(ii == jj, deg[ii] + 1.0, -1.0)
        missing = np.zeros(n, dtype=bool)  # synthesized values leave no zero diagonals

    colptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(colptr, jj + 1, 1)
    np.cumsum(colptr, out=colptr)
    pat = SymmetricSparsePattern(n, colptr, ii)
    return SymmetricSparseMatrix(pat, vv, missing)


def write_matrix_market(path, A: SymmetricSparseMatrix) -> None:
    """Write the lower triangle as coordinate real symmetric, full precision."""
    p = A.pattern
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{p.n} {p.n} {p.nnz}\n")
        for j in range(p.n):
            rows = p.col(j)
            vals = A.col_values(j)
            for i, v in zip(rows, vals):
                fh.write(f"{i + 1} {j + 1} {v:.17g}\n")


def apply_symmetric_permutation(A: SymmetricSparseMatrix, P: Permutation) -> SymmetricSparseMatrix:
    """Return PAP^T in lower-triangle CSC form; nonzero count is unchanged."""
    pat = A.pattern
    if P.n != pat.n:
        raise ValueError(f"permutation is on {P.n} indices, matrix is {pat.n}x{pat.n}")
    counts = np.diff(pat.colptr)
    old_j = np.repeat(np.arange(pat.n, dtype=np.int64), counts)
    ni = P.perm[pat.rowind]
    nj = P.perm[old_j]
    lo = np.minimum(ni, nj)
    hi = np.maximum(ni, nj)
    order = np.lexsort((hi, lo))
    colptr = np.zeros(pat.n + 1, dtype=np.int64)
    np.add.at(colptr, lo + 1, 1)
    np.cumsum(colptr, out=colptr)
    newpat = SymmetricSparsePattern(pat.n, colptr, hi[order])
    return SymmetricSparseMatrix(newpat, A.values[order], A.missing_diag[P.inv])


def generate_spd(n: int, density: float, seed: int) -> SymmetricSparseMatrix:
    """Random symmetric diagonally dominant (hence SPD) matrix, deterministic in seed.

    ``density`` is the filled fraction of the strictly-lower triangle; the
    diagonal is 1 plus the absolute off-diagonal row sum.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 < density <= 1.0):
        raise ValueError("density must be in (0, 1]")
    total = n * (n - 1) // 2
    _check_fits_in_memory(n, n, f"n={n}")  # first: past n ~ 1e154, density * total overflows
    k = int(round(density * total))
    _check_fits_in_memory(n, n + k, f"n={n} with {k} off-diagonal entries")
    rng = np.random.default_rng(seed)
    if k > 0:
        pick = np.sort(rng.choice(total, size=k, replace=False))
        i = np.arange(n, dtype=np.int64)  # row by row, row i starts at index i(i-1)/2
        oi = np.searchsorted(i * (i - 1) // 2, pick, side="right") - 1
        oj = pick - oi * (oi - 1) // 2
        ov = rng.uniform(-1.0, 1.0, size=k)
    else:
        oi = oj = np.zeros(0, dtype=np.int64)
        ov = np.zeros(0)
    rowsum = np.zeros(n)
    np.add.at(rowsum, oi, np.abs(ov))
    np.add.at(rowsum, oj, np.abs(ov))
    dd = np.arange(n, dtype=np.int64)
    ii = np.concatenate([oi, dd])
    jj = np.concatenate([oj, dd])
    vv = np.concatenate([ov, 1.0 + rowsum])
    return _assemble_lower(n, ii, jj, vv, pattern_only=False)


def minimum_degree_order(pattern: SymmetricSparsePattern) -> Permutation:
    """Greedy minimum external degree ordering, ties broken by smallest index,
    computed by mass elimination (George & Liu, SIAM Review 31, 1989).

    The greedy rule numbers next the remaining vertex of least degree in the
    elimination graph, the smallest index among ties, and joins its neighbours
    into a clique.  This function returns exactly that permutation while
    numbering a whole group of indistinguishable vertices per pivot:

    Let v be the pivot, d = |adj(v)| and N[v] = adj(v) + {v}.  A neighbour u
    with |adj(u)| = d and adj(u) inside N[v] has adj(u) = N[v] - {u} (it holds
    v, lacks u and has d members), so N[u] = N[v].  Eliminating v leaves such u
    with degree d - 1.  Any other neighbour w gets adj(w) - {v} joined to
    adj(v) - {w}, degree d - 1 + |adj(w) - N[v]|; that is d - 1 only if adj(w)
    lies inside N[v], and then |adj(w)| = d (at least d because v was chosen,
    at most d by the inclusion), so w is one of the group.  Vertices outside
    N[v] keep degree >= d.  So the group, and only it, reaches degree d - 1.
    A member's neighbourhood is then already a clique, so eliminating it adds
    no edge and lowers every other degree by at most one: after j members the
    rest of the group sits at d - 1 - j and every other vertex at >= d - j.
    The greedy rule therefore numbers the group right after v, in increasing
    index order.

    The inclusion test and the sort run only for neighbours of degree d.

    What remains is v's other neighbours R, each losing v and the group and
    gaining R - adj(w) - {w}; one pass makes that update.  Adding only the
    missing members, not all of R, keeps a set from growing its hash table
    for members it already holds.

    Heap keys are lazy: ``key[w]``, w's smallest live heap entry, is at most
    w's degree, and a neighbour is pushed only when its degree falls below
    it.  A popped live entry below its vertex's degree is pushed again at the
    degree, not numbered; one at its degree is the least (degree, index) of
    all remaining vertices, since every other vertex's live entry is no
    smaller and bounds its degree from below.  Entries that are no longer
    their vertex's key (superseded, or the vertex numbered) are skipped.
    """
    n = pattern.n
    ptr = pattern.colptr.tolist()
    rows = pattern.rowind.tolist()
    adj = [set(rows[ptr[j] + 1:ptr[j + 1]]) for j in range(n)]
    for j in range(n):
        for i in rows[ptr[j] + 1:ptr[j + 1]]:
            adj[i].add(j)
    del ptr, rows  # before fill grows the sets
    perm = np.empty(n, dtype=np.int64)
    key = [len(a) for a in adj]
    heap = list(zip(key, range(n)))
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    step = 0
    while step < n:
        k, v = pop(heap)
        if k != key[v]:
            continue
        nbrs = adj[v]
        d = len(nbrs)
        if d != k:
            key[v] = d
            push(heap, (d, v))
            continue
        group = [u for u in nbrs if len(adj[u]) == d]
        if group:
            nbrs.add(v)  # N[v], for the inclusion test only
            group = sorted(u for u in group if adj[u] <= nbrs)
            nbrs.discard(v)
        group.insert(0, v)
        for u in group:
            perm[u] = step
            step += 1
            adj[u], key[u] = None, -1
        rest = nbrs.difference(group)
        for w in rest:
            a = adj[w]
            a.difference_update(group)
            grow = rest - a
            grow.discard(w)
            a |= grow
            if len(a) < key[w]:
                key[w] = len(a)
                push(heap, (key[w], w))
    return Permutation(perm)
