"""Seeded workload generators for the benchmark.

Each generator returns the lower triangle of an SPD matrix as coordinate
arrays, plus the fill-reducing ordering the workload uses: ``"mindeg"`` or a
permutation array (``perm[old] = new``) that is written to a file and passed
as ``ordering=file:``.  The seed fixes the vertex labels and the values, so the
same seed writes byte-identical files.  Nothing here imports the package: the
program under test only ever sees the files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    rows: np.ndarray  # 0-based, rows >= cols (lower triangle incl. diagonal)
    cols: np.ndarray
    vals: np.ndarray
    perm: np.ndarray | None  # None: order with minimum degree


def _spd_from_edges(n: int, ei: np.ndarray, ej: np.ndarray, rng) -> tuple:
    """Negative random edge weights and a diagonal that strictly dominates."""
    w = rng.uniform(0.5, 1.5, size=ei.size)
    diag = rng.uniform(0.05, 0.15, size=n)
    np.add.at(diag, ei, w)
    np.add.at(diag, ej, w)
    lo = np.minimum(ei, ej)
    hi = np.maximum(ei, ej)
    d = np.arange(n, dtype=np.int64)
    return (np.concatenate([hi, d]), np.concatenate([lo, d]),
            np.concatenate([-w, diag]))


def _grid_edges(shape: tuple) -> tuple:
    """Nearest-neighbour edges of a structured grid, in natural vertex ids."""
    ids = np.arange(int(np.prod(shape)), dtype=np.int64).reshape(shape)
    ei, ej = [], []
    for axis in range(len(shape)):
        a = np.moveaxis(ids, axis, 0)
        ei.append(a[:-1].ravel())
        ej.append(a[1:].ravel())
    return np.concatenate(ei), np.concatenate(ej)


def _relabel(n: int, ei, ej, rng) -> tuple:
    label = rng.permutation(n).astype(np.int64)
    return label, label[ei], label[ej]


def grid2d(k: int, seed: int) -> Workload:
    """5-point operator on a k-by-k grid with random labels and weights."""
    rng = np.random.default_rng([seed, 2])
    n = k * k
    _, ei, ej = _relabel(n, *_grid_edges((k, k)), rng)
    return Workload("grid2d", n, *_spd_from_edges(n, ei, ej, rng), None)


def nested_dissection(shape: tuple, leaf: int = 8) -> np.ndarray:
    """Geometric nested dissection of a structured grid: split the longest
    axis at its middle plane, order both halves first and the plane last.
    Returns the natural vertex ids in elimination order."""
    ids = np.arange(int(np.prod(shape)), dtype=np.int64).reshape(shape)
    out = []

    def visit(box):
        if box.size <= leaf or max(box.shape) < 3:
            out.append(box.ravel())
            return
        axis = int(np.argmax(box.shape))
        mid = box.shape[axis] // 2
        b = np.moveaxis(box, axis, 0)
        visit(np.moveaxis(b[:mid], 0, axis))
        visit(np.moveaxis(b[mid + 1:], 0, axis))
        out.append(b[mid].ravel())

    visit(ids)
    return np.concatenate(out)


def grid3d_nd(k: int, seed: int) -> Workload:
    """7-point operator on a k^3 grid with random labels and weights, ordered
    by geometric nested dissection."""
    rng = np.random.default_rng([seed, 3])
    n = k ** 3
    label, ei, ej = _relabel(n, *_grid_edges((k, k, k)), rng)
    perm = np.empty(n, dtype=np.int64)
    perm[label[nested_dissection((k, k, k))]] = np.arange(n)
    return Workload("grid3d-nd", n, *_spd_from_edges(n, ei, ej, rng), perm)


def random_pattern(n: int, local: int, far: int, parts: int, seed: int) -> Workload:
    """Irregular SPD pattern made of ``parts`` disconnected random components
    of n/parts vertices.  In each, every vertex links to ``local`` random
    vertices within a window of 1/8 of the component and to ``far`` anywhere in
    it; then all labels are shuffled.  The mix gives moderately dense,
    fragmented factor blocks, and summing over independent components keeps
    the factor work of different seeds within a few percent of each other."""
    rng = np.random.default_rng([seed, 5])
    m = n // parts
    src = np.repeat(np.arange(m, dtype=np.int64), local + far)
    ei, ej = [], []
    for p in range(parts):
        off = rng.integers(1, max(2, m // 8), size=(m, local))
        tgt = np.concatenate([(np.arange(m)[:, None] + off) % m,
                              rng.integers(0, m, size=(m, far))], axis=1).ravel()
        keep = src != tgt
        lo = np.minimum(src[keep], tgt[keep])
        hi = np.maximum(src[keep], tgt[keep])
        edges = np.unique(lo * m + hi)
        ei.append(p * m + edges // m)
        ej.append(p * m + edges % m)
    n = parts * m
    _, ei, ej = _relabel(n, np.concatenate(ei), np.concatenate(ej), rng)
    return Workload("random", n, *_spd_from_edges(n, ei, ej, rng), None)


def write_matrix_market(path: Path, w: Workload) -> None:
    """Coordinate real symmetric, 1-based, columns ascending, full precision."""
    order = np.lexsort((w.rows, w.cols))
    lines = [f"{i + 1} {j + 1} {v!r}\n"
             for i, j, v in zip(w.rows[order].tolist(), w.cols[order].tolist(),
                                w.vals[order].tolist())]
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{w.n} {w.n} {len(lines)}\n")
        fh.writelines(lines)


def write_permutation(path: Path, perm: np.ndarray) -> None:
    """One 1-based new position per line, in old-index order."""
    with open(path, "w") as fh:
        fh.writelines(f"{p + 1}\n" for p in perm.tolist())
