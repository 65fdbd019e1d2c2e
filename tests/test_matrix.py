import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from snchol.matrix import (MatrixMarketError, MatrixMarketHeaderError,
                           MatrixMarketIndexError, MatrixMarketSymmetryError,
                           Permutation, PermutationFileError, SymmetricSparseMatrix,
                           SymmetricSparsePattern, apply_symmetric_permutation, generate_spd,
                           minimum_degree_order, read_matrix_market, write_matrix_market)

import oracles
from conftest import FIG1_LOWER_COLS, fig1_matrix, fig1_pattern


def test_read_fig1_pattern(fig1_mtx):
    A = read_matrix_market(fig1_mtx)
    assert A.n == 9
    for j in range(9):
        rows = A.pattern.col(j)
        expected = [j] + [r - 1 for r in FIG1_LOWER_COLS[j + 1]]
        assert rows.tolist() == expected
    offdiag = A.pattern.nnz - 9
    assert offdiag == sum(len(v) for v in FIG1_LOWER_COLS.values())
    assert np.all(A.diagonal() == 10.0)


def test_read_one_by_one(tmp_path):
    p = tmp_path / "one.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real symmetric\n1 1 1\n1 1 4.0\n")
    A = read_matrix_market(p)
    assert A.n == 1 and A.values.tolist() == [4.0]


def test_read_mirrors_upper_entry(tmp_path):
    p = tmp_path / "up.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                 "5 5 6\n1 1 1\n2 2 1\n3 3 1\n4 4 1\n5 5 1\n2 5 3.5\n")
    A = read_matrix_market(p)
    assert A.pattern.col(1).tolist() == [1, 4]  # column 2 holds row 5 (0-based 1, 4)
    assert A.col_values(1).tolist() == [1.0, 3.5]


def test_read_sums_duplicates_and_flags_missing_diag(tmp_path):
    p = tmp_path / "dup.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                 "2 2 3\n2 1 1.0\n2 1 2.5\n1 1 1.0\n")
    A = read_matrix_market(p)
    assert A.col_values(0).tolist() == [1.0, 3.5]
    assert A.missing_diag.tolist() == [False, True]
    assert A.col_values(1).tolist() == [0.0]


def test_read_pattern_file_synthesizes_values(tmp_path):
    p = tmp_path / "pat.mtx"
    p.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n")
    A = read_matrix_market(p)
    assert A.col_values(0).tolist() == [2.0, -1.0]   # degree 1 + 1
    assert A.col_values(1).tolist() == [3.0, -1.0]   # degree 2 + 1
    assert np.linalg.eigvalsh(oracles.dense_matrix(A)).min() > 0


def test_read_errors_name_line_numbers(tmp_path):
    cases = [
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n",
         MatrixMarketSymmetryError, "line 1"),
        ("%%MatrixMarket vector coordinate real symmetric\n2 2 1\n1 1 1\n",
         MatrixMarketHeaderError, "line 1"),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n3 1 1\n",
         MatrixMarketIndexError, "line 3"),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\nx y z\n",
         MatrixMarketError, "line 3"),
        ("%%MatrixMarket matrix coordinate real symmetric\n3 3 -1\n",
         MatrixMarketHeaderError, "line 2: negative dimension or entry count"),
        ("%%MatrixMarket matrix coordinate real symmetric\n-2 -2 0\n",
         MatrixMarketHeaderError, "line 2: negative dimension or entry count"),
        ("%%MatrixMarket matrix coordinate real symmetric\n3 3 100000000000000\n1 1 1\n",
         MatrixMarketHeaderError, "line 2: declares 100000000000000 entries but only 1 line"),
        ("%%MatrixMarket matrix coordinate real symmetric\n10000000000000 10000000000000 0\n",
         MatrixMarketHeaderError, "line 2: dimension 10000000000000 needs at least "
                                  "240000000000000 bytes, more than this machine's memory"),
    ]
    for text, exc, fragment in cases:
        p = tmp_path / "bad.mtx"
        p.write_text(text)
        with pytest.raises(exc, match=fragment):
            read_matrix_market(p)


def test_read_huge_dimension_allocates_nothing_of_size_n(tmp_path):
    import tracemalloc
    p = tmp_path / "huge.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                 "10000000000000 10000000000000 0\n")
    tracemalloc.start()
    try:
        with pytest.raises(MatrixMarketHeaderError, match="line 2: dimension"):
            read_matrix_market(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_read_entry_block_matches_the_per_line_reader(tmp_path):
    """Tokens the one-call parse could take more loosely than ``int``/``float``
    do (float or exponent indices, trailing comments, comments and blank lines
    between entries, extra fields) give the per-line reader's matrix or its
    exception and message."""
    head = "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n"
    bodies = ["1 1 4\n2 1 -1\n3 3 4\n", "1.0 1 4\n2 1 -1\n3 3 4\n",
              "1 1 4\n2 1e0 -1\n3 3 4\n", "1 1 4\n2 1 -1 % note\n3 3 4\n",
              "1 1 4\n2 1 -1%\n3 3 4\n", "1 1 4\n% note\n\n2 1 -1\n3 3 4\n",
              "1 1 4\n  % note\n2 1 -1\n3 3 4\n", "1 1 4 x\n2 1 -1 y\n3 3 4 z\n",
              "1 1 4\n2 1 -1\n3 3\n", "1 1 4\n2 1 -1\n3 3 4\n3 3 1\n",
              "1 1 4\n+2 01 -1\n3 3 4\n", "1 1 4\n2 1_0 -1\n3 3 4\n",
              "1 1 4\n2 1 0x1\n3 3 4\n", "1 1 4\n2 1 1e400\n3 3 nan\n",
              "1 1 4\n9223372036854775808 1 -1\n3 3 4\n", "1 1 4\n2 0 -1\n3 3 4\n"]
    for body in bodies:
        assert_same_read(tmp_path, head + body)
        assert_same_read(tmp_path, head.replace("real", "pattern") + body)


def assert_same_read(tmp_path, text):
    p = tmp_path / "diff.mtx"
    p.write_text(text)
    try:
        want = oracles.read_matrix_market_per_line(p)
    except MatrixMarketError as err:
        with pytest.raises(type(err)) as got:
            read_matrix_market(p)
        assert type(got.value) is type(err) and str(got.value) == str(err), text
        return
    A = read_matrix_market(p)
    assert np.array_equal(A.pattern.colptr, want.pattern.colptr), text
    assert np.array_equal(A.pattern.rowind, want.pattern.rowind), text
    assert A.values.tobytes() == want.values.tobytes(), text
    assert np.array_equal(A.missing_diag, want.missing_diag), text


def rarely(draw) -> bool:
    return draw(st.sampled_from([False, False, False, True]))


JUNK = st.sampled_from(["x", "1.5", "1e3", "-", "nan", "%"])


def mm_fields(ints):
    """Up to four fields of a line: integers from ``ints``, now and then one
    that is not."""
    field = st.sampled_from([False, False, False, True]).flatmap(
        lambda bad: JUNK if bad else ints.map(str))
    return st.lists(field, max_size=4)


@st.composite
def matrix_market_texts(draw) -> str:
    """Matrix Market files, well formed or broken in the header, the size line
    or the entry lines: missing, extra or non-numeric fields, out-of-range and
    negative indices, and entry counts that are short, long, negative or huge."""
    head = ["%%MatrixMarket", "matrix", "coordinate",
            draw(st.sampled_from(["real", "pattern", "integer", "complex"])),
            draw(st.sampled_from(["symmetric", "SYMMETRIC", "general"]))]
    if rarely(draw):  # break, drop or add a header field
        k = draw(st.integers(0, len(head)))
        head = head[:k] + [draw(st.sampled_from(["", "array", "vector", "junk"]))] + head[k + 1:]
    n = draw(st.integers(-2, 0) if rarely(draw) else st.integers(1, 6))
    lines = [" ".join(head)] + draw(st.lists(st.just("% comment"), max_size=2))
    entries = []
    for _ in range(draw(st.integers(0, 8))):
        if rarely(draw):
            entries.append(draw(mm_fields(st.integers(-1, n + 1))))
        else:
            i, j = (draw(st.integers(1, max(n, 1))) for _ in "ij")
            entries.append([str(i), str(j), draw(st.sampled_from(["4", "-1", "0.5", "1e300"]))])
    count = len(entries)
    if rarely(draw):
        count = draw(st.one_of(st.integers(-3, 12), st.integers(10**9, 10**18)))
    size = draw(mm_fields(st.integers(-3, 8))) if rarely(draw) else [str(n), str(n), str(count)]
    if not rarely(draw) or not rarely(draw):  # now and then the size line is missing
        lines.append(" ".join(size))
    lines += [" ".join(e) for e in entries]
    return "\n".join(lines) + "\n"


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=matrix_market_texts())
def test_reader_returns_a_matrix_or_raises_its_own_error(tmp_path, text):
    p = tmp_path / "fuzz.mtx"
    p.write_text(text)
    try:
        A = read_matrix_market(p)
    except MatrixMarketError:
        return
    size_line = next(ln for ln in text.splitlines()[1:] if ln.strip() and not ln.startswith("%"))
    assert A.n == int(size_line.split()[0])
    assert A.values.size == A.pattern.nnz


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=matrix_market_texts())
def test_reader_matches_the_per_line_reader(tmp_path, text):
    assert_same_read(tmp_path, text)


def test_write_read_round_trip(tmp_path):
    A = generate_spd(23, 0.3, 5)
    path = tmp_path / "rt.mtx"
    write_matrix_market(path, A)
    B = read_matrix_market(path)
    assert np.array_equal(A.pattern.colptr, B.pattern.colptr)
    assert np.array_equal(A.pattern.rowind, B.pattern.rowind)
    assert np.array_equal(A.values, B.values)


def test_permutation_identity_and_inverse():
    A = fig1_matrix()
    P = Permutation.identity(9)
    B = apply_symmetric_permutation(A, P)
    assert np.array_equal(B.pattern.rowind, A.pattern.rowind)
    assert np.array_equal(B.values, A.values)
    rng = np.random.default_rng(3)
    Q = Permutation(rng.permutation(9))
    C = apply_symmetric_permutation(apply_symmetric_permutation(A, Q), Q.inverse())
    assert np.array_equal(C.pattern.rowind, A.pattern.rowind)
    assert np.array_equal(C.values, A.values)
    assert np.array_equal(Q.perm[Q.inv], np.arange(9))


def test_fig2_permutation_of_third_supernode():
    # move 6->5, 9->6, 5->7, 7->8, 8->9 (1-based) within the third supernode
    perm = np.arange(9, dtype=np.int64)
    for old, new in [(6, 5), (9, 6), (5, 7), (7, 8), (8, 9)]:
        perm[old - 1] = new - 1
    A = fig1_matrix()
    B = apply_symmetric_permutation(A, Permutation(perm))
    # new column 5 holds old node 6's adjacency: neighbors {1,5,7,9} relabel to
    # {1,7,8,6}, so the lower profile of the new column is rows {6,7,8}
    assert B.pattern.col(4).tolist() == [4, 5, 6, 7]
    assert np.array_equal(oracles.dense_matrix(B),
                          oracles.dense_permute(oracles.dense_matrix(A), perm))


def test_permutation_matches_dense_oracle():
    A = generate_spd(8, 0.6, 2)
    rng = np.random.default_rng(4)
    P = Permutation(rng.permutation(8))
    B = apply_symmetric_permutation(A, P)
    assert B.pattern.nnz == A.pattern.nnz
    assert np.array_equal(oracles.dense_matrix(B),
                          oracles.dense_permute(oracles.dense_matrix(A), P.perm))


def test_permutation_file_round_trip(tmp_path):
    P = Permutation(np.array([2, 0, 1, 3]))
    path = tmp_path / "perm.txt"
    P.to_file(path)
    assert path.read_text().split() == ["3", "1", "2", "4"]
    assert np.array_equal(Permutation.from_file(path).perm, P.perm)


@pytest.mark.parametrize("text", ["", "\n", "1\n1\n3\n", "1\n2.5\n3\n", "1\nx\n", "0\n1\n",
                                  "1 2\n3\n", "99999999999999999999\n"])
def test_permutation_file_that_holds_no_permutation_is_named(tmp_path, text):
    path = tmp_path / "perm.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PermutationFileError, match=f"^{re.escape(str(path))}: "):
            Permutation.from_file(path)
    assert issubclass(PermutationFileError, ValueError)


def test_generate_spd_basics():
    A = generate_spd(1, 1.0, 99)
    assert A.n == 1 and A.values[0] >= 1.0
    A1 = generate_spd(50, 0.1, 7)
    A2 = generate_spd(50, 0.1, 7)
    assert np.array_equal(A1.values, A2.values)
    assert np.array_equal(A1.pattern.rowind, A2.pattern.rowind)
    L = np.linalg.cholesky(oracles.dense_matrix(A1))
    assert np.all(np.diag(L) > 0)
    with pytest.raises(ValueError):
        generate_spd(0, 0.5, 1)
    with pytest.raises(ValueError):
        generate_spd(5, 0.0, 1)


def test_generate_spd_matches_the_triangle_table():
    """Each drawn index maps to its row and column arithmetically; the matrix
    is the one the n x n ``tril_indices`` lookup gives, entry for entry."""
    for n in (1, 2, 3, 50, 300, 2000):
        for density in (1e-4, 0.01, 0.05, 0.3, 1.0):
            if n * n * density > 2e5:
                continue
            for seed in (0, 1, 7):
                got = generate_spd(n, density, seed)
                want = oracles.generate_spd_by_table(n, density, seed)
                assert np.array_equal(got.pattern.colptr, want.pattern.colptr), (n, density)
                assert np.array_equal(got.pattern.rowind, want.pattern.rowind), (n, density)
                assert got.values.tobytes() == want.values.tobytes(), (n, density, seed)


def test_generate_spd_memory_follows_the_entries_not_n_squared():
    import tracemalloc
    tracemalloc.start()
    try:
        A = generate_spd(6000, 3e-5, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a table of the 18M strictly-lower positions alone would take 288 MB
    assert A.pattern.nnz == 6000 + 540 and peak < 8_000_000


def test_minimum_degree_diagonal_is_identity():
    pat = oracles.pattern_from_columns(4, [[], [], [], []])
    P = minimum_degree_order(pat)
    assert np.array_equal(P.perm, np.arange(4))


def test_minimum_degree_star_defers_center():
    # center ties with the final leaf at degree 1 and wins by smaller index,
    # so it lands in one of the last two positions; the order stays fill-free
    pat = oracles.pattern_from_columns(5, [[1, 2, 3, 4], [], [], [], []])
    P = minimum_degree_order(pat)
    assert P.perm[0] >= 3
    import itertools
    best = min(oracles.fill_count(pat, np.array(q)) for q in
               itertools.permutations(range(5)))
    assert oracles.fill_count(pat, P.perm) == best


def test_minimum_degree_tridiagonal_no_fill():
    pat = oracles.pattern_from_columns(6, [[1], [2], [3], [4], [5], []])
    P = minimum_degree_order(pat)
    base = sum(pat.col(j).size for j in range(6))
    assert oracles.fill_count(pat, P.perm) == base


def edge_pattern(n: int, ei, ej) -> SymmetricSparsePattern:
    """Pattern of the graph on n vertices with edges (ei, ej), loops and
    repeats dropped."""
    from snchol.matrix import _assemble_lower
    ei, ej = np.asarray(ei, np.int64), np.asarray(ej, np.int64)
    keep = ei != ej
    hi, lo = np.maximum(ei, ej)[keep], np.minimum(ei, ej)[keep]
    return _assemble_lower(n, hi, lo, np.ones(hi.size), pattern_only=True).pattern


def labelled_grid(k: int, seed: int) -> SymmetricSparsePattern:
    """5-point k-by-k grid with randomly shuffled vertex labels."""
    ids = np.arange(k * k).reshape(k, k)
    ei = np.concatenate([ids[:-1].ravel(), ids[:, :-1].ravel()])
    ej = np.concatenate([ids[1:].ravel(), ids[:, 1:].ravel()])
    label = np.random.default_rng(seed).permutation(k * k)
    return edge_pattern(k * k, label[ei], label[ej])


def random_components(m: int, parts: int, seed: int) -> SymmetricSparsePattern:
    """``parts`` components of m vertices; each vertex links to two random
    vertices in a window of m/8 and to one anywhere in its component; labels
    shuffled (the shape of the benchmark's irregular workload)."""
    rng = np.random.default_rng(seed)
    ei, ej = [], []
    for p in range(parts):
        src = np.repeat(np.arange(m), 3)
        tgt = np.concatenate([(np.arange(m)[:, None] + rng.integers(1, m // 8, (m, 2))) % m,
                              rng.integers(0, m, (m, 1))], axis=1).ravel()
        ei.append(p * m + src)
        ej.append(p * m + tgt)
    label = rng.permutation(parts * m)
    return edge_pattern(parts * m, label[np.concatenate(ei)], label[np.concatenate(ej)])


def assert_same_order(pattern):
    got = minimum_degree_order(pattern).perm
    assert np.array_equal(got, oracles.minimum_degree_by_cliques(pattern))


def test_minimum_degree_matches_explicit_cliques():
    """Mass elimination gives the one-vertex-per-step permutation exactly."""
    assert_same_order(fig1_pattern())
    for seed in (0, 1):
        assert_same_order(labelled_grid(40, seed))
        assert_same_order(random_components(250, 4, seed))
    assert_same_order(labelled_grid(100, 2))
    rng = np.random.default_rng(13)
    for trial in range(300):
        n = int(rng.integers(1, 120))
        assert_same_order(generate_spd(n, float(rng.uniform(0.005, 0.3)), trial).pattern)


@st.composite
def graphs(draw) -> SymmetricSparsePattern:
    """Graphs joined from parts: isolated vertices, stars, cliques, paths and
    random graphs, in several components, with shuffled labels; n = 1 too."""
    ei, ej, n = [], [], 0
    for kind, size in draw(st.lists(st.tuples(
            st.sampled_from(["isolated", "star", "clique", "path", "random"]),
            st.integers(1, 9)), min_size=1, max_size=5)):
        v = np.arange(n, n + size)
        if kind == "star":
            ei += [v[0]] * (size - 1)
            ej += list(v[1:])
        elif kind == "clique":
            a, b = np.triu_indices(size, 1)
            ei += list(v[a])
            ej += list(v[b])
        elif kind == "path":
            ei += list(v[:-1])
            ej += list(v[1:])
        elif kind == "random":
            for a, b in draw(st.lists(st.tuples(st.integers(0, size - 1),
                                                st.integers(0, size - 1)), max_size=20)):
                ei.append(v[a])
                ej.append(v[b])
        n += size
    if draw(st.booleans()) and n > 1:  # a few edges across parts
        for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=4)):
            ei.append(a)
            ej.append(b)
    label = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    return edge_pattern(n, label[np.array(ei, np.int64)], label[np.array(ej, np.int64)])


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(pattern=graphs())
def test_minimum_degree_matches_explicit_cliques_on_joined_graphs(pattern):
    assert_same_order(pattern)


def test_minimum_degree_memory_follows_the_edges():
    import tracemalloc
    n = 50_000
    pat = edge_pattern(n, np.arange(n - 1), np.arange(1, n))
    tracemalloc.start()
    try:
        P = minimum_degree_order(pat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # an n x n boolean adjacency alone would take 2.5 GB, n bitsets 312 MB
    assert peak < 40_000_000
    assert np.array_equal(P.perm, oracles.minimum_degree_by_cliques(pat))


PATTERN_REJECTIONS = [
    # (n, colptr, rowind, message, first offending column or None)
    (2, [0, 2], [0, 1], "colptr must have length n+1", None),
    (2, [1, 2, 3], [0, 0, 1], "colptr must start at 0", None),
    (3, [0, 2, 2, 3], [0, 1, 2], "strictly increasing", None),
    (2, [0, 1, 3], [0, 1], "colptr[-1] must equal len(rowind)", None),
    (2, [0, 1, 2], [1, 1], "must store its diagonal first", 0),
    (4, [0, 2, 3, 5, 6], [0, 1, 1, 3, 2, 3], "must store its diagonal first", 2),
    (4, [0, 2, 5, 7, 8], [0, 1, 1, 3, 3, 2, 3, 3], "strictly ascending and < n", 1),
    (4, [0, 2, 4, 7, 8], [0, 3, 1, 2, 2, 3, 2, 3], "strictly ascending and < n", 2),
    (4, [0, 2, 3, 5, 6], [0, 2, 1, 2, 4, 3], "strictly ascending and < n", 2),
    (5, [0, 1, 3, 4, 6, 7], [0, 1, 1, 2, 4, 3, 4], "strictly ascending and < n", 1),
    (5, [0, 1, 2, 3, 5, 6], [0, 2, 2, 3, 3, 4], "must store its diagonal first", 1),
]


def test_pattern_validation():
    """Each rejection raises its own message and names the first bad column;
    a later bad column never masks an earlier one."""
    for n, colptr, rowind, message, col in PATTERN_REJECTIONS:
        with pytest.raises(ValueError) as err:
            SymmetricSparsePattern(n, np.array(colptr), np.array(rowind))
        assert message in str(err.value)
        if col is not None:
            assert str(err.value).startswith(f"column {col} ")


def test_pattern_validation_names_the_column_a_per_column_scan_names():
    rng = np.random.default_rng(11)
    for trial in range(200):
        pat = generate_spd(int(rng.integers(1, 15)), 0.3, trial).pattern
        rowind = pat.rowind.copy()
        for _ in range(int(rng.integers(1, 3))):
            rowind[rng.integers(rowind.size)] = rng.integers(-1, pat.n + 2)
        want = oracles.column_error(pat.n, pat.colptr, rowind)
        if want is None:
            SymmetricSparsePattern(pat.n, pat.colptr, rowind)
            continue
        with pytest.raises(ValueError) as err:
            SymmetricSparsePattern(pat.n, pat.colptr, rowind)
        assert str(err.value) == want
