"""Dense kernels behind the supernodal factorizations: in-place Cholesky of a
triangle, right triangular solve against a panel, symmetric rank-k downdate and
rectangular multiply-accumulate.

All four work in place on numpy views into supernode panels, read only the
lower triangle of a triangular operand, and only ever subtract products (every
update in the factorizations has that sign).

There is one kernel set: LAPACK's dpotrf and BLAS's dtrsm/dsyrk/dgemm, called
through the function pointers scipy exports for Cython (``cython_lapack`` and
``cython_blas``), passing each view's data pointer and leading dimension: no
copies and no float scratch.  Its operands must therefore be column-major
float64 views (adjacent rows, columns at least max(1, rows) elements apart,
which every panel slice is); any other operand raises ValueError.
``get_backend`` gives them under either of two names, ``reference`` (the
default) and ``vendor``, which label runs and select nothing.

A ``CallSchedule`` is a whole supernodal factorization precompiled as offsets
into one flat float64 array: per supernode, a diagonal step (Cholesky of the
diagonal triangle, triangular solve of the rows below) and its syrk/gemm
updates, one row ``(kind, c, ldc, m, n, x, y)`` each; the operands' depth and
leading dimension are the supernode's panel's.  ``supernode_calls`` is
the one place a run's calls are built: a method's diagonal steps, its
syrk/gemm updates into the array or an update workspace, and ``run()``, the
whole schedule.  They go by address: the array is checked once, then each
call passes ``base + 8*offset`` to dpotrf, dtrsm, dsyrk or dgemm.  A backend
without ``run_schedule`` (a logging or timing wrapper of the four kernels)
gets the same four calls on views.  ``supernodal_solve`` goes by address
too.

Every chol and every diagonal step decide a failed pivot by one rule,
``_check_pivots``: dpotrf's ``info``, or the first NaN pivot before it; a
run ends with one NaN scan of all pivots (``final_pivot_scan``).

The package reaches scipy only through ``_scipy_linalg_module``, which loads
the two Cython modules on first use, by file, without running
scipy/linalg/__init__.py: importing snchol loads no scipy, and factoring or
solving loads no ``scipy.linalg`` and none of its f2py modules.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np


class NotPositiveDefiniteError(ArithmeticError):
    """Raised when a pivot is not strictly positive; ``index`` is the pivot
    position, 0-based.  ``template`` is the message with ``{}`` where the index
    goes, so ``numbered`` can count it from another base."""

    def __init__(self, index: int, template: str = "non-positive pivot at index {}"):
        self.index = int(index)
        self.template = template
        super().__init__(self.numbered(0))

    def numbered(self, base: int) -> str:
        return self.template.format(self.index + base)


def _extension_path(name: str) -> str:
    """The file of scipy.linalg's extension module ``name``, found without
    importing scipy."""
    folder = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0],
                          "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, name + suffix)
        if os.path.isfile(path):
            return path
    raise ImportError(f"no extension module {name} in {folder}")


@functools.cache
def _scipy_linalg_module(name: str):
    """scipy.linalg's Cython module ``name`` (``cython_blas`` or
    ``cython_lapack``), once per process.

    Once scipy.linalg is imported, this is its own submodule.  Before, the
    module is loaded from its file under its real name, so
    scipy/linalg/__init__.py, about 28 MB and 0.2 s of imports, never runs.
    The entry its init makes in ``sys.modules`` is taken out again:
    scipy.linalg imported later imports it as its own submodule, which Cython
    makes this same module object."""
    full = f"scipy.linalg.{name}"
    if "scipy.linalg" not in sys.modules:
        try:
            spec = importlib.util.spec_from_file_location(full, _extension_path(name))
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules.pop(full, None)
            return module
        except Exception:  # whatever the cause, the normal import below decides
            pass
    return importlib.import_module(full)


def _check_pivots(pivots: np.ndarray, info: int) -> None:
    """The pivot rule of every backend and runner, once LAPACK's dpotrf has
    returned ``info`` on a matrix whose pivots, in column order, are now
    ``pivots``: raise NotPositiveDefiniteError at the first NaN among the
    columns dpotrf factored, else at column info - 1 when info > 0.  dpotrf
    takes a NaN pivot's square root instead of stopping there, so this is the
    first failure in column order."""
    if info == 0 and not math.isnan(pivots.sum()):  # every pivot is then positive or NaN
        return
    if info < 0:
        raise ValueError(f"dpotrf: illegal argument {-info}")
    done = info - 1 if info else pivots.size
    nan = np.flatnonzero(np.isnan(pivots[:done]))
    raise NotPositiveDefiniteError(int(nan[0]) if nan.size else done)


@dataclass(frozen=True)
class KernelBackend:
    """Function table for the four kernels plus a name tag for reporting.

    ``run_schedule(data, schedule)``, when given, runs a whole ``CallSchedule``
    on ``data`` by address, and marks the library's kernels:
    ``supernode_calls`` then goes by address.  Without it,
    ``supernode_calls`` calls the four kernels on views.
    """

    name: str
    chol: Callable
    trsm: Callable
    syrk: Callable
    gemm: Callable
    run_schedule: Callable | None = None


SYRK, GEMM = 0, 1
_F8 = np.dtype(np.float64)


@dataclass(frozen=True)
class CallSchedule:
    """A supernodal factorization of one flat float64 array ``storage``
    elements long, as kernel calls at offsets into it, one group per
    supernode in execution order.

    Group j starts with its diagonal step ``diag[j] = (p, ld, a, f)``:
    Cholesky of the a-by-a lower triangle at offset ``p`` (leading dimension
    ``ld``), which holds columns f..f+a-1 of the matrix, then a right
    triangular solve of the ld - a rows below it (at ``p + a``, same ``ld``).  Then
    come its update rows ``rows[ptr[j]:ptr[j + 1]]``, one int row per kernel
    call: ``(kind, c, ldc, m, n, x, y)``.  A GEMM row subtracts X Y^T from
    the m-by-n rectangle C; a SYRK row subtracts X X^T from the lower
    triangle of the n-by-n C (m = n, y = x).  C starts at offset ``c`` with
    leading dimension ``ldc``; X (m-by-a) and Y (n-by-a) are rows of the
    group's panel, starting at ``x`` and ``y`` with its leading dimension
    ``ld``.  Whoever builds one checks every step and rectangle against the
    storage it indexes: the runners trust them.

    ``calls`` and ``flops`` count the update rows, ``diag_calls`` the
    diagonal steps (a trsm only where ld > a).  ``pair_ptr[e]`` is where the
    rows of the builder's update e start; the runners do not read it.
    """

    rows: np.ndarray
    ptr: np.ndarray
    storage: int
    diag: np.ndarray
    pair_ptr: np.ndarray

    @cached_property
    def calls(self) -> dict:
        nsyrk = int(np.count_nonzero(self.rows[:, 0] == SYRK))
        return {"syrk": nsyrk, "gemm": self.rows.shape[0] - nsyrk}

    @cached_property
    def flops(self) -> int:
        kind, m, n = (self.rows[:, i] for i in (0, 3, 4))
        k = np.repeat(self.diag[:, 2], np.diff(self.ptr))  # each row's group's width a
        # syrk_flops(n, k) = k n (n + 1) and gemm_flops(m, n, k) = 2 m n k
        per_kn = np.where(kind == SYRK, np.add(n, 1, dtype=np.int64),
                          np.multiply(m, 2, dtype=np.int64))
        return int(np.multiply(k, n, dtype=np.int64) @ per_kn)

    @cached_property
    def diag_calls(self) -> dict:
        return {"potrf": self.diag.shape[0],
                "trsm": int(np.count_nonzero(self.diag[:, 1] != self.diag[:, 2]))}


def _pivots(data: np.ndarray, diag: np.ndarray, stop: int | None = None) -> np.ndarray:
    """The pivots of the matrix's columns before ``stop`` (default all), in
    ``data`` where ``diag``'s steps factor them."""
    at, ld, width, first = (diag[:, i].astype(np.int64) for i in range(4))
    col = np.arange(width.sum() if stop is None else stop)
    j = np.searchsorted(first, col, side="right") - 1
    return data[at[j] + (col - first[j]) * (ld[j] + 1)]


def final_pivot_scan(data: np.ndarray, schedule: CallSchedule) -> None:
    """The end of a run's pivot rule: NotPositiveDefiniteError at the first
    NaN among all pivots ``schedule`` factors in ``data``, if there is one."""
    _check_pivots(_pivots(data, schedule.diag), 0)


def supernode_calls(backend: KernelBackend, data: np.ndarray, schedule: CallSchedule,
                    arena: np.ndarray | None = None, words: int = 0) -> tuple:
    """``(step, syrk, gemm, run)``, the calls a supernodal method makes on
    ``data``.  ``step(j)`` is ``schedule``'s diagonal step j.
    ``syrk(C, c, ldc, n, x, ld, k)`` subtracts X X^T from the lower triangle
    of the n-by-n matrix at offset ``c`` of ``C`` (leading dimension
    ``ldc``); X is the n-by-k matrix at offset ``x`` of ``data`` (leading
    dimension ``ld``).  ``gemm(C, c, ldc, m, n, x, y, ld, k)`` subtracts
    X Y^T from the m-by-n rectangle at ``c``, with X (m-by-k) at ``x`` and
    Y (n-by-k) at ``y`` of ``data``.  ``C`` is ``data`` or ``arena``, a
    workspace of at least ``words`` elements.  ``run()`` runs the whole
    schedule: per group j its step, then its update rows, whose X and Y are
    rows of the group's panel.

    Where the backend has a ``run_schedule``, all four go by address
    (``_calls_by_address``).  Otherwise ``backend``'s four kernels run on
    numpy views, which numpy bounds-checks; a failed pivot's index is
    counted from the group's first column."""
    if backend.run_schedule:
        return _calls_by_address(data, schedule, arena, words)
    f8, steps = data.dtype, schedule.diag.tolist()

    def at(A, c, ld, m, n):  # the m-by-n column-major view at offset c of A
        return np.ndarray((m, n), f8, A, 8 * c, (8, 8 * ld))

    def step(j: int) -> None:
        p, ld, a, first = steps[j]
        try:
            backend.chol(at(data, p, ld, a, a))
        except NotPositiveDefiniteError as e:
            raise NotPositiveDefiniteError(first + e.index) from None
        if ld > a:
            backend.trsm(at(data, p, ld, a, a), at(data, p + a, ld, ld - a, a))

    def syrk(C, c, ldc, n, x, ld, k):
        backend.syrk(at(C, c, ldc, n, n), at(data, x, ld, n, k))

    def gemm(C, c, ldc, m, n, x, y, ld, k):
        backend.gemm(at(C, c, ldc, m, n), at(data, x, ld, m, k), at(data, y, ld, n, k))

    def run() -> None:
        ptr = schedule.ptr.tolist()
        for j, (_, ld, a, _) in enumerate(steps):
            step(j)
            for kind, c, ldc, m, n, x, y in schedule.rows[ptr[j]:ptr[j + 1]].tolist():
                if kind == SYRK:
                    syrk(data, c, ldc, n, x, ld, a)
                else:
                    gemm(data, c, ldc, m, n, x, y, ld, a)
    return step, syrk, gemm, run


def _calls_by_address(data: np.ndarray, schedule: CallSchedule, arena: np.ndarray | None,
                      words: int) -> tuple:
    """``supernode_calls`` by address, over one set of argument cells.
    ``data`` is checked once to be the schedule's storage, and ``arena``,
    when given, to be a writeable contiguous float64 vector of at least
    ``words`` elements; then every call passes ``base + 8*offset`` to
    dpotrf, dtrsm, dsyrk or dgemm.  The offsets are trusted, as a
    schedule's rows are.

    ``step(j)`` calls dpotrf on the a-by-a triangle, then dtrsm on the
    ld - a rows below, whatever a is; a pivot failing dpotrf's test (a NaN
    passes) raises by ``_check_pivots`` over the pivots before it.  It
    leaves a and ld in the depth and leading-dimension cells, which
    ``run()`` then reads for every update row of the group: a row sets only
    its own sizes and addresses."""
    dpotrf, dtrsm, dsyrk, dgemm = _vendor_functions()[:4]
    base = _storage_address(data, schedule.storage)
    bases = {id(data): base}
    if arena is not None:
        if not (isinstance(arena, np.ndarray) and arena.dtype == _F8 and arena.ndim == 1 and
                arena.flags.c_contiguous and arena.flags.writeable and arena.size >= words):
            raise ValueError("the update arena must be a writeable contiguous float64 vector "
                             f"of at least {words} elements")
        bases[id(arena)] = arena.ctypes.data
    steps = schedule.diag.tolist()
    m, n, k, ld, ldc, info = cells = [ctypes.c_int() for _ in range(6)]
    pm, pn, pk, pld, pldc, pinfo = (ctypes.byref(c) for c in cells)
    pa, pb, pc, px, py = (ctypes.c_void_p() for _ in range(5))

    def fail(failed: int) -> None:  # dpotrf's info, counted over the whole matrix
        _check_pivots(_pivots(data, schedule.diag, failed), failed)

    def step(j: int) -> None:
        at, rows, a, first = steps[j]
        pa.value = base + 8 * at
        k.value, ld.value = a, rows
        dpotrf(_LO, pk, pa, pld, pinfo)
        if info.value:
            fail(first + info.value)
        if rows > a:
            pb.value = pa.value + 8 * a
            m.value = rows - a
            dtrsm(_RIGHT, _LO, _TRANS, _NOTRANS, pm, pk, _ONE, pa, pld, pb, pld)

    def syrk(C, c, ld_c, rows, x, ld_x, depth):
        pc.value = bases[id(C)] + 8 * c
        px.value = base + 8 * x
        n.value, k.value, ld.value, ldc.value = rows, depth, ld_x, ld_c
        dsyrk(_LO, _NOTRANS, pn, pk, _MINUS_ONE, px, pld, _ONE, pc, pldc)

    def gemm(C, c, ld_c, rows, cols, x, y, ld_x, depth):
        pc.value = bases[id(C)] + 8 * c
        px.value, py.value = base + 8 * x, base + 8 * y
        m.value, n.value, k.value, ld.value, ldc.value = rows, cols, depth, ld_x, ld_c
        dgemm(_NOTRANS, _TRANS, pm, pn, pk, _MINUS_ONE, px, pld, py, pld, _ONE, pc, pldc)

    def run() -> None:
        table, ptr = schedule.rows, schedule.ptr.tolist()
        for j in range(len(ptr) - 1):
            step(j)  # sets the group's depth and leading dimension
            for kind, c, ld_c, rows, cols, x, y in table[ptr[j]:ptr[j + 1]].tolist():
                pc.value = base + 8 * c
                px.value = base + 8 * x
                n.value = cols
                ldc.value = ld_c
                if kind == SYRK:
                    dsyrk(_LO, _NOTRANS, pn, pk, _MINUS_ONE, px, pld, _ONE, pc, pldc)
                else:
                    py.value = base + 8 * y
                    m.value = rows
                    dgemm(_NOTRANS, _TRANS, pm, pn, pk, _MINUS_ONE, px, pld, py, pld, _ONE, pc,
                          pldc)
    return step, syrk, gemm, run


# Byte offset of ``char *data`` in numpy's C array struct (PyArrayObject_fields):
# it follows the object header.  ``_vendor_functions`` checks it once.
_DATA_FIELD = object.__basicsize__
_at = ctypes.c_void_p.from_address
# The constant arguments of the LAPACK/BLAS calls, shared: no call writes them.
_LO, _NOTRANS, _RIGHT, _TRANS = (ctypes.byref(ctypes.c_char(f)) for f in (b"L", b"N", b"R", b"T"))
_ONE, _MINUS_ONE = ctypes.byref(ctypes.c_double(1.0)), ctypes.byref(ctypes.c_double(-1.0))


@functools.cache
def _vendor_functions() -> tuple:
    """dpotrf (LAPACK) and dtrsm, dsyrk, dgemm, dtrsv, dgemv (BLAS) as ctypes functions of
    the C function pointers scipy exports for Cython (``_scipy_linalg_module``),
    resolved once per process.  Every argument is a pointer, Fortran style.

    The prototypes declare no argument types: every caller passes ctypes
    pointer objects, which ctypes hands on as they are, while declaring 5-13
    ``c_void_p`` arguments costs about 1 us per call in conversions, more than
    a small update.  ``get_backend`` loads them before any timed call."""
    cython_blas, cython_lapack = map(_scipy_linalg_module, ("cython_blas", "cython_lapack"))
    probe = np.zeros((3, 3), order="F")[1:, 1:]
    if _at(id(probe) + _DATA_FIELD).value != probe.ctypes.data:
        raise RuntimeError("unsupported numpy array layout: data pointer not found")
    api = ctypes.pythonapi
    name_of = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    pointer_of = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                   ctypes.c_char_p)(("PyCapsule_GetPointer", api))

    def load(module, name: str, nargs: int):
        capsule = module.__pyx_capi__[name]
        signature = name_of(capsule)  # the C prototype, e.g. b"void (char *, int *, ...)"
        if signature.count(b"*") != nargs:
            raise RuntimeError(f"unexpected prototype for {name}: {signature.decode()}")
        return ctypes.CFUNCTYPE(None)(pointer_of(capsule, signature))

    return (load(cython_lapack, "dpotrf", 5), load(cython_blas, "dtrsm", 11),
            load(cython_blas, "dsyrk", 10), load(cython_blas, "dgemm", 13),
            load(cython_blas, "dtrsv", 8), load(cython_blas, "dgemv", 11))


def _operand(a: np.ndarray, written: bool = False) -> tuple:
    """Leading dimension (in elements) and data pointer of a column-major
    float64 view.

    Rows must be adjacent (a row stride of 8 bytes) and columns at least
    max(1, rows) elements apart; a dimension of extent 1 has no stride
    requirement.  Anything else raises ValueError, as does a read-only view
    that the kernel would write.  The pointer is a c_void_p laid over the
    array's own data field, valid while ``a`` lives: reading ``a.ctypes.data``
    instead costs about 1.5 us, more than a small BLAS call.
    """
    if not isinstance(a, np.ndarray):
        raise ValueError("kernel operands must be numpy arrays")
    rows, cols = a.shape
    rs, cs = a.strides
    ld = cs >> 3 if cols > 1 else max(1, rows)
    if a.dtype != _F8 or (rows > 1 and rs != 8) or \
            (cols > 1 and (cs & 7 or ld < max(1, rows))):
        raise ValueError(f"operand with shape {a.shape} and strides {a.strides} "
                         "is not a column-major float64 view")
    if written and not a.flags.writeable:
        raise ValueError("output operand is read-only")
    return ld, _at(id(a) + _DATA_FIELD)


def _storage_address(data, size: int) -> int:
    """Base address of ``data``, once it is checked to be the writeable,
    contiguous, 1-D float64 array of ``size`` elements a schedule indexes."""
    if not isinstance(data, np.ndarray) or data.dtype != _F8 or data.ndim != 1:
        raise ValueError("schedule storage must be a 1-D float64 array")
    if not data.flags.c_contiguous:
        raise ValueError("schedule storage must be contiguous")
    if not data.flags.writeable:
        raise ValueError("schedule storage is read-only")
    if data.size != size:
        raise ValueError(f"schedule storage has {data.size} elements, the schedule indexes {size}")
    return data.ctypes.data


def get_backend(name: str) -> KernelBackend:
    """LAPACK/BLAS kernels (scipy's), called in place on the panel views,
    under ``name``: ``reference`` (the default) or ``vendor``, which differ
    only in the name runs report.

    Each call passes the views' data pointers and leading dimensions straight
    to dpotrf, dtrsm, dsyrk or dgemm: no copies and no float scratch.  These
    four view kernels share the instance's argument cells, so one instance
    serves one thread.  ``run_schedule`` is the ``run()`` of
    ``supernode_calls`` by address, which builds its own cells each call.
    """
    if name not in ("reference", "vendor"):
        raise ValueError(f"unknown kernel backend '{name}' (choose reference or vendor)")
    dpotrf, dtrsm, dsyrk, dgemm = _vendor_functions()[:4]
    byref = ctypes.byref
    m, n, k, lda, ldb, ldc, info = cells = [ctypes.c_int() for _ in range(7)]
    pm, pn, pk, plda, pldb, pldc, pinfo = (byref(c) for c in cells)

    def chol(T):
        size = T.shape[0]
        if T.shape[1] != size:
            raise ValueError("chol needs a square view")
        if size == 0:
            return
        n.value = size
        lda.value, t = _operand(T, True)
        dpotrf(_LO, pn, t, plda, pinfo)
        _check_pivots(T.diagonal(), info.value)

    def trsm(T, B):
        size = T.shape[0]
        if T.shape[1] != size or B.shape[1] != size:
            raise ValueError("shape mismatch in trsm")
        if size == 0 or B.shape[0] == 0:
            return
        lda.value, t = _operand(T)
        ldb.value, b = _operand(B, True)
        zero = T.diagonal() == 0.0
        if zero.any():
            raise ValueError(f"zero diagonal at index {zero.argmax()} in triangular solve")
        m.value = B.shape[0]
        n.value = size
        dtrsm(_RIGHT, _LO, _TRANS, _NOTRANS, pm, pn, _ONE, t, plda, b, pldb)

    def syrk(C, X):
        size, depth = X.shape
        if C.shape != (size, size):
            raise ValueError("shape mismatch in syrk")
        if size == 0 or depth == 0:
            return
        n.value = size
        k.value = depth
        lda.value, x = _operand(X)
        ldc.value, c = _operand(C, True)
        dsyrk(_LO, _NOTRANS, pn, pk, _MINUS_ONE, x, plda, _ONE, c, pldc)

    def gemm(C, X, Y):
        rows, depth = X.shape
        cols = Y.shape[0]
        if Y.shape[1] != depth or C.shape != (rows, cols):
            raise ValueError("shape mismatch in gemm")
        if rows == 0 or cols == 0 or depth == 0:
            return
        m.value = rows
        n.value = cols
        k.value = depth
        lda.value, x = _operand(X)
        ldb.value, y = _operand(Y)
        ldc.value, c = _operand(C, True)
        dgemm(_NOTRANS, _TRANS, pm, pn, pk, _MINUS_ONE, x, plda, y, pldb, _ONE, c, pldc)

    def run_schedule(data, schedule):
        _calls_by_address(data, schedule, None, 0)[3]()

    return KernelBackend(name, chol, trsm, syrk, gemm, run_schedule)


def supernodal_solve(data: np.ndarray, schedule: CallSchedule, below: Callable,
                     x: np.ndarray) -> None:
    """Overwrite x, holding b, with the solution of L L^T x = b for the
    factor L in ``data`` (checked once), whose supernode j has the rows
    ``below(j)`` under its diagonal block: per supernode and direction, one
    dtrsv and one dgemv by address, the latter with x gathered at those rows."""
    dtrsv, dgemv = _vendor_functions()[4:]
    base = _storage_address(data, schedule.storage)
    steps = schedule.diag.tolist()
    if not (isinstance(x, np.ndarray) and x.dtype == _F8 and x.ndim == 1 and
            x.flags.c_contiguous and x.flags.writeable and x.size == sum(s[2] for s in steps)):
        raise ValueError("x must be a writeable contiguous float64 vector, one entry per column")
    at_x = x.ctypes.data
    m, n, ld, inc = cells = [ctypes.c_int() for _ in range(4)]
    pm, pn, pld, pinc = (ctypes.byref(c) for c in cells)
    pa, pb, px = ctypes.c_void_p(), ctypes.c_void_p(), ctypes.c_void_p()
    inc.value = 1

    def aim(j: int) -> np.ndarray:  # the arguments at supernode j; its rows below
        at, g, a, first = steps[j]
        n.value, m.value, ld.value = a, g - a, g
        pa.value, pb.value, px.value = base + 8 * at, base + 8 * (at + a), at_x + 8 * first
        return below(j)

    # dtrsv's third argument is b"N": the diagonal is not a unit one
    for j in range(len(steps)):
        rows = aim(j)
        dtrsv(_LO, _NOTRANS, _NOTRANS, pn, pa, pld, px, pinc)
        if rows.size:
            t = x[rows]
            dgemv(_NOTRANS, pm, pn, _MINUS_ONE, pb, pld, px, pinc, _ONE,
                  _at(id(t) + _DATA_FIELD), pinc)
            x[rows] = t
    for j in reversed(range(len(steps))):
        rows = aim(j)
        if rows.size:
            t = x[rows]
            dgemv(_TRANS, pm, pn, _MINUS_ONE, pb, pld, _at(id(t) + _DATA_FIELD), pinc, _ONE,
                  px, pinc)
        dtrsv(_LO, _TRANS, _NOTRANS, pn, pa, pld, px, pinc)


# Flop model shared by runtime counters and symbolic work predictions:
# multiply-add = 2, division = 1, square root = 1.

def potrf_flops(m: int) -> int:
    return m + m * (m - 1) // 2 + (m - 1) * m * (m + 1) // 3


def trsm_flops(rows: int, m: int) -> int:
    return rows * m * m


def syrk_flops(m: int, k: int) -> int:
    return k * m * (m + 1)


def gemm_flops(rows: int, cols: int, k: int) -> int:
    return 2 * rows * cols * k
