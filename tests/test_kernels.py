import dataclasses

import numpy as np
import pytest

from snchol.kernels import KernelBackend, NotPositiveDefiniteError, get_backend

import oracles

# The library's one kernel set (LAPACK/BLAS by address), under the default name;
# its operands are column-major views.
LIB = get_backend("reference")
fortran = np.asfortranarray


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n))
    return X @ X.T + n * np.eye(n)


def test_chol_one_by_one():
    T = np.array([[4.0]])
    LIB.chol(T)
    assert T[0, 0] == 2.0


def test_chol_two_by_two_by_hand():
    T = fortran([[4.0, 7.7], [2.0, 5.0]])  # upper entry must survive untouched
    LIB.chol(T)
    assert T[0, 0] == 2.0 and T[1, 0] == 1.0 and T[1, 1] == 2.0
    assert T[0, 1] == 7.7


def test_chol_reconstructs_random_spd():
    A = random_spd(8, 0)
    T = fortran(A)
    LIB.chol(T)
    L = np.tril(T)
    assert np.linalg.norm(A - L @ L.T) / np.linalg.norm(A) <= 64 * np.finfo(float).eps


def test_chol_reports_failing_pivot():
    T = fortran([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(NotPositiveDefiniteError) as e:
        LIB.chol(T)
    assert e.value.index == 1


def test_trsm_scalar_and_identity():
    T = np.array([[2.0]])
    B = np.array([[6.0]])
    LIB.trsm(T, B)
    assert B[0, 0] == 3.0
    B = fortran(np.arange(6.0).reshape(3, 2))
    old = B.copy()
    LIB.trsm(fortran(np.eye(2)), B)
    assert np.array_equal(B, old)


def test_trsm_multiply_back():
    rng = np.random.default_rng(1)
    A = random_spd(3, 2)
    T = fortran(A)
    LIB.chol(T)
    T = fortran(np.tril(T))
    B = rng.standard_normal((6, 3))
    X = fortran(B)
    LIB.trsm(T, X)
    assert np.allclose(X @ T.T, B)


def test_trsm_zero_diagonal():
    with pytest.raises(ValueError):
        LIB.trsm(np.zeros((1, 1)), np.ones((2, 1)))
    T = fortran(np.tril(random_spd(33, 0)))
    T[20, 20] = 0.0
    with pytest.raises(ValueError, match="zero diagonal at index 20"):
        LIB.trsm(T, np.ones((3, 33), order="F"))


def outcome(kernel, *args):
    """None, or the type and message of the error ``kernel(*args)`` raised."""
    try:
        kernel(*args)
    except (NotPositiveDefiniteError, ValueError) as e:
        return type(e), str(e)
    return None


def test_one_column_chol_and_trsm_are_the_column_loop_byte_for_byte():
    """One column of chol (dpotrf's square root) and of trsm (dtrsm's product
    with the pivot's reciprocal) writes the bytes, and raises the errors, of
    the column loop's first column, which a two-column operand whose second
    column cannot fail runs (``oracles.chol_columns`` and
    ``oracles.trsm_columns``): one column takes no path of its own."""
    B = np.array([[1.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [np.inf, 1.0], [-np.inf, 1.0],
                  [np.nan, 1.0], [1e-310, 1.0], [7.0, 1.0]], order="F")
    with np.errstate(all="ignore"):  # inf and NaN operands
        for d in (4.0, 2.0, 1e-300, 5e-324, np.inf, -7.0, 0.0, -0.0, -1.0, -np.inf, np.nan):
            one, two = np.array([[d]]), fortran([[d, 0.0], [0.0, 1.0]])
            wide = outcome(LIB.chol, two.copy(order="F"))
            assert outcome(LIB.chol, one) == outcome(oracles.chol_columns, two) == wide, d
            assert one.tobytes() == two[:1, :1].tobytes(), d
            one, two = np.array([[d]]), fortran([[d, 0.0], [0.0, 1.0]])
            B1, B2 = B[:, :1].copy(), B.copy(order="F")
            got = outcome(LIB.trsm, one, B1)
            assert got == outcome(LIB.trsm, two, B.copy(order="F")), d
            if got is None:
                oracles.trsm_columns(two, B2)
            assert B1.tobytes() == B2[:, :1].tobytes(), d
    assert outcome(LIB.trsm, np.array([[-0.0]]), B[:, :1].copy()) == \
        (ValueError, "zero diagonal at index 0 in triangular solve")
    assert outcome(LIB.chol, np.array([[np.nan]])) == \
        (NotPositiveDefiniteError, "non-positive pivot at index 0")


def test_syrk_rank_one_by_hand():
    C = np.zeros((2, 2), order="F")
    X = np.array([[1.0], [2.0]])
    LIB.syrk(C, X)
    assert C[0, 0] == -1.0 and C[1, 0] == -2.0 and C[1, 1] == -4.0
    assert C[0, 1] == 0.0


def test_syrk_empty_no_change():
    C = np.ones((3, 3), order="F")
    LIB.syrk(C, np.zeros((3, 0), order="F"))
    assert np.array_equal(C, np.ones((3, 3)))


def test_syrk_matches_naive_and_leaves_upper_poisoned():
    rng = np.random.default_rng(3)
    for m, k in [(1, 1), (4, 2), (7, 5)]:
        X = fortran(rng.standard_normal((m, k)))
        C = fortran(rng.standard_normal((m, m)))
        poison = C.copy()
        naive = C - X @ X.T
        LIB.syrk(C, X)
        iu = np.triu_indices(m, 1)
        il = np.tril_indices(m)
        assert np.allclose(C[il], naive[il], atol=2 * k * np.finfo(float).eps * 10)
        assert np.array_equal(C[iu], poison[iu])  # strict upper never touched


def test_syrk_never_reads_upper_triangle():
    rng = np.random.default_rng(8)
    C = fortran(rng.standard_normal((5, 5)))
    C[np.triu_indices(5, 1)] = np.nan  # would propagate on any read
    X = fortran(rng.standard_normal((5, 3)))
    LIB.syrk(C, X)
    assert np.isfinite(C[np.tril_indices(5)]).all()


def test_gemm_trivial_and_zero():
    C = np.array([[0.0]])
    LIB.gemm(C, np.array([[1.0]]), np.array([[2.0]]))
    assert C[0, 0] == -2.0
    C = np.ones((2, 3), order="F")
    LIB.gemm(C, np.zeros((2, 4), order="F"), np.zeros((3, 4), order="F"))
    assert np.array_equal(C, np.ones((2, 3)))


def test_gemm_matches_naive():
    rng = np.random.default_rng(4)
    X = fortran(rng.standard_normal((5, 3)))
    Y = fortran(rng.standard_normal((4, 3)))
    C = fortran(rng.standard_normal((5, 4)))
    naive = C - X @ Y.T
    LIB.gemm(C, X, Y)
    assert np.allclose(C, naive)


def test_gemm_shape_mismatch():
    with pytest.raises(ValueError):
        LIB.gemm(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 4)))


@pytest.fixture(params=["reference", "vendor"])
def backend(request):
    return get_backend(request.param)


PAD = 3
# One column, a few, and widths past the blocking of LAPACK dpotrf and BLAS dtrsm.
SIZES = [1, 2, 3, 5, 33, 200]


def embed(M, rng):
    """M copied into the middle of a larger random Fortran-order panel;
    returns the panel and the strided window that holds M."""
    r, c = M.shape
    base = np.asfortranarray(rng.standard_normal((r + 2 * PAD, c + 2 * PAD + 1)))
    view = base[PAD:PAD + r, PAD + 1:PAD + 1 + c]
    view[:] = M
    return base, view


def untouched_outside(base, before, view):
    """True when no entry of ``base`` outside the window ``view`` changed."""
    inside = np.zeros(base.shape, dtype=bool)
    inside[PAD:PAD + view.shape[0], PAD + 1:PAD + 1 + view.shape[1]] = True
    return np.array_equal(base[~inside], before[~inside])


def test_kernels_update_strided_subviews_in_place(backend):
    rng = np.random.default_rng(10)
    k, r = 4, 5
    for m in SIZES:
        A = random_spd(m, 1)
        base, T = embed(A, rng)
        before = base.copy()
        backend.chol(T)
        L = np.tril(T)
        assert np.linalg.norm(L @ L.T - A) <= 64 * m * np.finfo(float).eps * np.linalg.norm(A)
        assert np.array_equal(np.triu(T, 1), np.triu(A, 1))
        assert untouched_outside(base, before, T)

        Bm = rng.standard_normal((r, m))
        base, B = embed(Bm, rng)
        before = base.copy()
        backend.trsm(T, B)  # T's strict upper triangle still holds A's entries
        assert np.linalg.norm(B @ L.T - Bm) <= 1e-12 * np.linalg.norm(Bm)
        assert untouched_outside(base, before, B)

        Xm = rng.standard_normal((m, k))
        _, X = embed(Xm, rng)
        Cm = rng.standard_normal((m, m))
        base, C = embed(Cm, rng)
        before = base.copy()
        backend.syrk(C, X)
        assert np.allclose(np.tril(C), np.tril(Cm - Xm @ Xm.T))
        assert np.array_equal(np.triu(C, 1), np.triu(Cm, 1))
        assert untouched_outside(base, before, C)

        Ym = rng.standard_normal((r, k))
        _, Y = embed(Ym, rng)
        Gm = rng.standard_normal((m, r))
        base, G = embed(Gm, rng)
        before = base.copy()
        backend.gemm(G, X, Y)
        assert np.allclose(G, Gm - Xm @ Ym.T)
        assert untouched_outside(base, before, G)


def test_kernels_never_touch_a_poisoned_upper_triangle(backend):
    rng = np.random.default_rng(11)
    for m in SIZES:
        iu = np.triu_indices(m, 1)
        il = np.tril_indices(m)
        A = random_spd(m, 2)
        A[iu] = np.nan  # would propagate on any read
        _, T = embed(A, rng)
        backend.chol(T)
        assert np.isfinite(T[il]).all() and np.isnan(T[iu]).all()

        _, B = embed(rng.standard_normal((5, m)), rng)
        backend.trsm(T, B)
        assert np.isfinite(B).all()

        C0 = rng.standard_normal((m, m))
        C0[iu] = np.nan
        _, C = embed(C0, rng)
        _, X = embed(rng.standard_normal((m, 3)), rng)
        backend.syrk(C, X)
        assert np.isfinite(C[il]).all() and np.isnan(C[iu]).all()


def test_vendor_matches_reference_on_strided_views():
    """The by-address kernels against the numpy/f2py oracle kernels."""
    vendor, oracle = get_backend("vendor"), oracles.numpy_backend()
    rng = np.random.default_rng(12)
    for m, k, r in [(1, 1, 1), (5, 3, 4), (33, 9, 17)]:
        il = np.tril_indices(m)
        A = random_spd(m, m)
        _, T1 = embed(A, rng)
        _, T2 = embed(A, rng)
        oracle.chol(T1)
        vendor.chol(T2)
        assert np.abs(T1[il] - T2[il]).max() / np.abs(T1[il]).max() <= 1e-10

        Bm = rng.standard_normal((r, m))
        _, B1 = embed(Bm, rng)
        _, B2 = embed(Bm, rng)
        oracle.trsm(T1, B1)
        vendor.trsm(T2, B2)
        assert np.abs(B1 - B2).max() / max(1.0, np.abs(B1).max()) <= 1e-10

        _, X = embed(rng.standard_normal((m, k)), rng)
        Cm = rng.standard_normal((m, m))
        _, C1 = embed(Cm, rng)
        _, C2 = embed(Cm, rng)
        oracle.syrk(C1, X)
        vendor.syrk(C2, X)
        assert np.abs(C1[il] - C2[il]).max() / np.abs(C1[il]).max() <= 1e-10

        _, Y = embed(rng.standard_normal((r, k)), rng)
        Gm = rng.standard_normal((m, r))
        _, G1 = embed(Gm, rng)
        _, G2 = embed(Gm, rng)
        oracle.gemm(G1, X, Y)
        vendor.gemm(G2, X, Y)
        assert np.abs(G1 - G2).max() / np.abs(G1).max() <= 1e-10


def test_chol_and_trsm_match_numpy_oracles_on_strided_views(backend):
    """Both backends' chol and trsm against numpy.linalg (the oracles), on
    strided windows whose T has NaN above its diagonal: those bytes stay as
    they were and every result is finite."""
    rng = np.random.default_rng(14)
    for m in SIZES:
        il, iu = np.tril_indices(m), np.triu_indices(m, 1)
        A = random_spd(m, m)
        A[iu] = np.nan
        _, T = embed(A, rng)
        L = A.copy()
        oracles.chol_numpy(L)
        backend.chol(T)
        assert T[iu].tobytes() == A[iu].tobytes() and np.isfinite(T[il]).all(), m
        assert np.abs(T[il] - L[il]).max() / np.abs(L[il]).max() <= 1e-10, m

        Bm = rng.standard_normal((7, m))
        _, B = embed(Bm, rng)
        oracles.trsm_numpy(L, Bm)
        backend.trsm(T, B)
        assert T[iu].tobytes() == A[iu].tobytes() and np.isfinite(B).all(), m
        assert np.abs(B - Bm).max() / max(1.0, np.abs(Bm).max()) <= 1e-10, m


def test_vendor_failing_pivot_index_matches_reference():
    """The by-address chol and the oracle's name the same pivot, and the
    oracle chol, whose dpotrf works on a copy, leaves T's bytes as they were."""
    vendor = get_backend("vendor")
    rng = np.random.default_rng(13)
    for m in (2, 3, 6, 33):  # below 2 columns, see the one-column test
        for p in range(m):
            for bad in (-1.0, np.nan):
                A = random_spd(m, p)
                A[p, p] = bad  # leading minors of order <= p stay positive definite
                got = []
                for chol in (oracles.numpy_backend().chol, vendor.chol):
                    base, T = embed(A, rng)
                    before = base.tobytes()
                    with pytest.raises(NotPositiveDefiniteError) as e:
                        chol(T)
                    got.append(e.value.index)
                    # the oracle's dpotrf works on a copy, the by-address one in place
                    assert chol is vendor.chol or base.tobytes() == before, (m, p, bad)
                assert got == [p, p], (m, bad)


def test_rank_deficient_chol_agrees_on_both_backends():
    """B B^T with B n-by-(n-1) is singular, so its last pivot is roundoff:
    positive, zero or negative.  The by-address chol and the oracle's decide
    it by dpotrf's info (and the first NaN pivot before it), so they give the
    same outcome and index on every such matrix."""
    vendor, oracle = get_backend("vendor"), oracles.numpy_backend()
    rng = np.random.default_rng(16)
    failed = 0
    for _ in range(2000):
        n = int(rng.integers(2, 13))
        B = rng.standard_normal((n, n - 1))
        A = np.asfortranarray(B @ B.T)
        got = outcome(oracle.chol, A.copy(order="F"))
        assert got == outcome(vendor.chol, A.copy(order="F")), n
        failed += got is not None
    assert 0 < failed < 2000  # both outcomes occur


def test_vendor_trsm_zero_diagonal():
    vendor = get_backend("vendor")
    T = np.asfortranarray(np.array([[2.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        vendor.trsm(T, np.ones((3, 2), order="F"))
    T = np.asfortranarray(np.tril(random_spd(33, 0)))
    T[20, 20] = 0.0
    with pytest.raises(ValueError, match="zero diagonal"):
        vendor.trsm(T, np.ones((3, 33), order="F"))


def test_vendor_rejects_operands_that_are_not_column_major():
    vendor = get_backend("vendor")
    X = np.ones((4, 3), order="F")
    C = np.zeros((4, 4), order="F")
    Y = np.ones((2, 3), order="F")
    G = np.zeros((4, 2), order="F")
    cases = [lambda: vendor.chol(np.ascontiguousarray(random_spd(3, 0))),
             lambda: vendor.trsm(np.eye(3), np.ones((2, 3), order="F")),
             lambda: vendor.trsm(np.eye(3, order="F"), np.ones((2, 3))),
             lambda: vendor.syrk(C, np.ascontiguousarray(X)),
             lambda: vendor.syrk(np.zeros((4, 4)), X),
             lambda: vendor.gemm(G, X, np.ascontiguousarray(Y)),
             lambda: vendor.gemm(np.zeros((4, 2)), X, Y),
             lambda: vendor.gemm(G, X.astype(np.float32), Y),
             lambda: vendor.syrk(C, np.ones((8, 3), order="F")[::2])]
    for call in cases:
        with pytest.raises(ValueError):
            call()
    C.flags.writeable = False
    with pytest.raises(ValueError):
        vendor.syrk(C, X)


def test_vendor_accepts_any_stride_on_an_extent_one_dimension():
    vendor = get_backend("vendor")
    C = np.zeros((4, 1))  # C-order column: extent-1 column dimension
    vendor.gemm(C, np.ones((4, 2), order="F"), np.ones((1, 2)))
    assert np.array_equal(C, np.full((4, 1), -2.0))
    R = np.zeros((1, 3))  # C-order row: extent-1 row dimension
    vendor.gemm(R, np.ones((1, 2)), np.ones((3, 2), order="F"))
    assert np.array_equal(R, np.full((1, 3), -2.0))


def test_cdiv_composition_matches_dense_columns():
    # factoring the leading block and solving the rows below reproduces the
    # corresponding columns of the full dense factor
    A = random_spd(7, 5)
    L = np.linalg.cholesky(A)
    a = 3
    panel = A[:, :a].copy(order="F")
    LIB.chol(panel[:a, :a])
    LIB.trsm(fortran(np.tril(panel[:a, :a])), panel[a:, :])
    assert np.allclose(np.tril(panel[:a, :a]), L[:a, :a])
    assert np.allclose(panel[a:, :], L[a:, :a])


def test_backend_equivalence_reference_vs_vendor():
    """The by-address kernels against the numpy/f2py oracle kernels."""
    vendor, oracle = get_backend("vendor"), oracles.numpy_backend()
    rng = np.random.default_rng(6)
    for m, k in [(5, 3), (40, 17), (200, 64)]:
        A = np.asfortranarray(random_spd(m, m))
        T1, T2 = A.copy(order="F"), A.copy(order="F")
        oracle.chol(T1)
        vendor.chol(T2)
        il = np.tril_indices(m)
        assert np.abs(T1[il] - T2[il]).max() / np.abs(T1[il]).max() <= 1e-10

        B = np.asfortranarray(rng.standard_normal((k, m)))
        B1, B2 = B.copy(order="F"), B.copy(order="F")
        Tl = np.asfortranarray(np.tril(T1))
        oracle.trsm(Tl, B1)
        vendor.trsm(Tl, B2)
        assert np.abs(B1 - B2).max() / max(1.0, np.abs(B1).max()) <= 1e-10

        X = np.asfortranarray(rng.standard_normal((m, k)))
        C1 = np.asfortranarray(rng.standard_normal((m, m)))
        C2 = C1.copy(order="F")
        oracle.syrk(C1, X)
        vendor.syrk(C2, X)
        assert np.abs(C1[il] - C2[il]).max() / np.abs(C1[il]).max() <= 1e-10

        Y = rng.standard_normal((k, k)) if k == m else rng.standard_normal((max(1, m - k), k))
        Y = np.asfortranarray(Y)
        G1 = np.asfortranarray(rng.standard_normal((m, Y.shape[0])))
        G2 = G1.copy(order="F")
        oracle.gemm(G1, X, Y)
        vendor.gemm(G2, X, Y)
        assert np.abs(G1 - G2).max() / np.abs(G1).max() <= 1e-10


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        get_backend("turbo")


def test_both_names_give_the_library_kernels():
    """``reference`` and ``vendor`` differ only in the name runs report; the
    schedule runner, which marks the library's kernels, is the one optional
    field of a backend."""
    for name in ("reference", "vendor"):
        backend = get_backend(name)
        assert backend.name == name and backend.run_schedule is not None, name
    optional = [f.name for f in dataclasses.fields(KernelBackend)
                if f.default is not dataclasses.MISSING]
    assert optional == ["run_schedule"]
