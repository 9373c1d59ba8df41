"""numpy's bundled OpenBLAS, reached through ctypes.

numpy ships one OpenBLAS build (``numpy.libs/libscipy_openblas64_*``: 64-bit
integers, symbols prefixed ``scipy_`` and suffixed ``64_``).  This module
loads it once, on first use, for two jobs: ``one_blas_thread`` pins its
thread count around a command, and ``dgeev`` runs its LAPACK eigensolver
in place on a real matrix, fastest on one laid out by ``solver_matrix``.  A
``ctypes.CDLL`` call releases the interpreter lock, so threads solve
concurrently.  ``ctypes`` is imported on first use only.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

__all__ = ["numpy_openblas", "one_blas_thread", "solver_matrix", "dgeev"]

# Rows of padding below each column of a matrix that dgeev works on.  With
# 4^l rows, a power of two, the columns LAPACK sweeps map onto the same cache
# sets; 8 more rows (64 bytes, so that every column keeps its alignment) make
# the solve about 20% faster at 1024 to 4096 rows, with the same bits.
PAD_ROWS = 8


@functools.cache
def numpy_openblas():
    """numpy's OpenBLAS as a ``ctypes.CDLL`` with its thread, kernel and build
    string getters and thread setter bound, and ``scipy_dgeev_64_`` too
    where the library exports it; None if the library is not found."""
    import ctypes

    numpy_libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(numpy_libs.glob("libscipy_openblas64_*")):
        try:
            lib = ctypes.CDLL(str(path))
            setter = lib.scipy_openblas_set_num_threads64_
            getter = lib.scipy_openblas_get_num_threads64_
            names = lib.scipy_openblas_get_corename64_, lib.scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        for name in names:
            name.argtypes, name.restype = [], ctypes.c_char_p
        try:
            geev = lib.scipy_dgeev_64_
        except AttributeError:
            return lib
        ptr, int_ptr, length = ctypes.c_void_p, ctypes.POINTER(ctypes.c_int64), ctypes.c_size_t
        # jobvl, jobvr, n, a, lda, wr, wi, vl, ldvl, vr, ldvr, work, lwork,
        # info, then the hidden lengths of the two job strings
        geev.argtypes = [ctypes.c_char_p, ctypes.c_char_p, int_ptr, ptr, int_ptr, ptr, ptr,
                         ptr, int_ptr, ptr, int_ptr, ptr, int_ptr, int_ptr, length, length]
        geev.restype = None
        return lib
    return None


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Pin numpy's OpenBLAS to one thread, restoring the old count on exit.

    OpenBLAS splits products and factorizations by thread, which changes
    their rounding, so the sampled K and the eigenvalues would otherwise
    change in their last bits with the thread count.  Pool workers are
    threads of this process, so the pin holds in each of them.  A run
    imports no scipy submodule, so scipy's own OpenBLAS is never loaded and
    every BLAS and LAPACK call goes through the library pinned here.
    Without numpy's OpenBLAS this does nothing.
    """
    lib = numpy_openblas()
    if lib is None:
        yield
        return
    old = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(old)


def solver_matrix(n: int) -> np.ndarray:
    """An uninitialized n x n float64 matrix in the layout ``dgeev`` solves
    fastest: Fortran order, with its columns ``n + PAD_ROWS`` entries
    apart."""
    return np.empty((n + PAD_ROWS, n), order="F")[:n]


def dgeev(
    a: np.ndarray, vectors: bool
) -> Optional[tuple[np.ndarray, np.ndarray, Optional[np.ndarray], int]]:
    """LAPACK ``dgeev`` of numpy's OpenBLAS on the real square matrix ``a``.

    The call overwrites ``a`` when its columns are contiguous, as in Fortran
    order or ``solver_matrix``; any other layout is first copied into a
    ``solver_matrix``.  The workspace is the size a workspace query returns,
    as in ``np.linalg.eig``, so both give the same bits: the leading
    dimension changes where LAPACK finds each entry, not its arithmetic.

    Returns (wr, wi, vr, info): the real and imaginary parts of the
    eigenvalues, the right eigenvectors in LAPACK's packed real form (None
    without ``vectors``), and LAPACK's status.  Returns None where the
    library or its ``dgeev`` is not found.
    """
    lib = numpy_openblas()
    geev = None if lib is None else getattr(lib, "scipy_dgeev_64_", None)
    if geev is None:
        return None
    if a.dtype != np.float64 or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"dgeev needs a square float64 matrix, got {a.dtype} {a.shape}")
    import ctypes

    n = a.shape[0]
    row_step, column_step = a.strides
    if not (a.flags.writeable and row_step == a.itemsize
            and column_step % a.itemsize == 0 and column_step >= a.itemsize * n):
        copy = solver_matrix(n)
        copy[...] = a
        a = copy
    wr, wi = np.empty(n), np.empty(n)
    vr = solver_matrix(n) if vectors else None
    vl = np.empty(1)  # never referenced: jobvl is 'N'
    c_n, c_lda = ctypes.c_int64(n), ctypes.c_int64(_leading_dimension(a))
    c_ldvl = ctypes.c_int64(1)
    c_ldvr = ctypes.c_int64(1 if vr is None else _leading_dimension(vr))
    c_lwork, c_info = ctypes.c_int64(-1), ctypes.c_int64(0)

    def call(work: np.ndarray) -> None:
        geev(b"N", b"V" if vectors else b"N", ctypes.byref(c_n), a.ctypes.data,
             ctypes.byref(c_lda), wr.ctypes.data, wi.ctypes.data, vl.ctypes.data,
             ctypes.byref(c_ldvl), (vl if vr is None else vr).ctypes.data,
             ctypes.byref(c_ldvr), work.ctypes.data, ctypes.byref(c_lwork),
             ctypes.byref(c_info), 1, 1)

    query = np.empty(1)
    call(query)
    if c_info.value != 0:
        return wr, wi, vr, c_info.value
    c_lwork.value = int(query[0])
    call(np.empty(max(c_lwork.value, 1)))
    return wr, wi, vr, c_info.value


def _leading_dimension(a: np.ndarray) -> int:
    """Entries between the starts of two columns, at least 1 as LAPACK requires."""
    return max(a.strides[1] // a.itemsize, 1)
