import numpy as np
import pytest

from snchol.matrix import SymmetricSparseMatrix, SymmetricSparsePattern, _assemble_lower

import oracles

# The 9x9 worked example: three supernodes {1,2}, {3,4}, {5..9} with two
# dense blocks from each child into the third before reordering, one after.
FIG1_LOWER_COLS = {1: [2, 5, 6, 9], 2: [5, 9], 3: [4, 5, 7, 8], 4: [5, 8],
                   5: [6, 8], 6: [7, 9], 7: [8], 8: [9], 9: []}


def fig1_pattern() -> SymmetricSparsePattern:
    cols = [sorted(r - 1 for r in FIG1_LOWER_COLS[j + 1]) for j in range(9)]
    return oracles.pattern_from_columns(9, cols)


def fig1_matrix(diag=10.0, off=1.0) -> SymmetricSparseMatrix:
    pat = fig1_pattern()
    vals = []
    for j in range(9):
        v = np.full(pat.col(j).size, off)
        v[0] = diag
        vals.append(v)
    return SymmetricSparseMatrix(pat, np.concatenate(vals))


def grid_laplacian(k: int, shift=0.01) -> SymmetricSparseMatrix:
    """Shifted 5-point Laplacian on a k-by-k grid (SPD)."""
    n = k * k
    cols = [[] for _ in range(n)]
    vals = [[] for _ in range(n)]
    for y in range(k):
        for x in range(k):
            j = y * k + x
            cols[j].append(j)
            vals[j].append(4.0 + shift)
            if x + 1 < k:
                cols[j].append(j + 1)
                vals[j].append(-1.0)
            if y + 1 < k:
                cols[j].append(j + k)
                vals[j].append(-1.0)
    colptr = np.cumsum([0] + [len(c) for c in cols]).astype(np.int64)
    pat = SymmetricSparsePattern(n, colptr,
                                 np.concatenate([np.asarray(c, np.int64) for c in cols]))
    return SymmetricSparseMatrix(pat, np.concatenate([np.asarray(v) for v in vals]))


def grid3d_laplacian(k: int, shift=0.01) -> SymmetricSparseMatrix:
    """Shifted 7-point Laplacian on a k-by-k-by-k grid (SPD)."""
    n = k ** 3
    v = np.arange(n).reshape(k, k, k)
    rows = np.concatenate([v.ravel(), v[1:].ravel(), v[:, 1:].ravel(), v[:, :, 1:].ravel()])
    cols = np.concatenate([v.ravel(), v[:-1].ravel(), v[:, :-1].ravel(), v[:, :, :-1].ravel()])
    vals = np.where(rows == cols, 6.0 + shift, -1.0)
    return _assemble_lower(n, rows, cols, vals, False)


@pytest.fixture
def fig1():
    return fig1_matrix()


@pytest.fixture
def fig1_mtx(tmp_path):
    """The 9x9 example as a Matrix Market file (diagonal 10, off-diagonal 1)."""
    lines = ["%%MatrixMarket matrix coordinate real symmetric"]
    entries = []
    for j in range(1, 10):
        entries.append((j, j, 10.0))
        for i in FIG1_LOWER_COLS[j]:
            entries.append((i, j, 1.0))
    lines.append(f"9 9 {len(entries)}")
    lines.extend(f"{i} {j} {v:g}" for i, j, v in entries)
    path = tmp_path / "fig1.mtx"
    path.write_text("\n".join(lines) + "\n")
    return path
