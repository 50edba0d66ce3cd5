"""The PHS-structured matrix-valued kernel and its Gram matrix.

The scalar base kernel is the squared exponential

    k(x, x') = exp(-1/2 sum_i (x_i - x'_i)^2 / l_i^2)

and the structured kernel conjugates its mixed second-derivative Hessian Pi
with the estimated structure matrix S = J_hat - R_hat:

    k_phs(x, x') = sigma_f^2 * S Pi(x, x') S^T,
    Pi_ij(x, x') = d^2 k / dz_i dz'_j |_(x, x').

With this convention Pi(x, x) = diag(1 / l_i^2).  S is constant in the state
(the structure contract, see structure.py), so each block is the rank-one
update sigma_f^2 k(x, x') (M - u u^T).  The Gram matrix is symmetric, so
`TrainingPairs` builds it over the strict-lower pairs (a > b) and the
diagonal blocks only, into the lower triangle of its training set's
Fortran-ordered Gram buffer, which LAPACK factorizes in place.  The buffer
belongs to the training set's workspace, so the likelihood calls of one fit
reuse it.  It is the one Gram builder: the likelihood, conditioning and
model loading all build through it, and `gram_matrix` mirrors its lower
triangle to the full symmetric matrix for callers that need one.
`invert_lower` is the one inverse of a Cholesky factor, a recursive blocked
triangular inverse that calls BLAS and LAPACK in place on blocks of the
factor, and `trmm_lower` multiplies by a lower triangle in place.  Both
reach scipy's BLAS and LAPACK through ctypes, which releases the GIL for
the call, so two Python threads can run them at once.

Importing this module sets both bundled OpenBLAS libraries, numpy's and
scipy's, to one thread, once for the process, so every call of the package
rounds the same whatever OPENBLAS_NUM_THREADS says; `blas_thread_counts`
reads the counts back.
"""

from __future__ import annotations

import ctypes
import importlib
from types import SimpleNamespace

import numpy as np
from scipy.linalg import cho_factor, cython_blas, cython_lapack

from . import backend
from .errors import ConditioningError

__all__ = [
    "se_hessian",
    "phs_kernel",
    "TrainingPairs",
    "gram_matrix",
    "factorize_gram",
    "invert_lower",
    "trmm_lower",
    "blas_thread_counts",
]


def se_hessian(x, x_prime, lengthscales) -> np.ndarray:
    """Mixed Hessian Pi(x, x') of the SE kernel, one pair at a time.

    Straightforward reference implementation; the batched hot path is checked
    against it in the tests.
    """
    x = np.asarray(x, dtype=float)
    x_prime = np.asarray(x_prime, dtype=float)
    ls = np.asarray(lengthscales, dtype=float)
    if np.any(ls <= 0):
        raise ValueError("lengthscales must be positive")
    v = 1.0 / ls**2
    d = x - x_prime
    k = np.exp(-0.5 * np.sum(v * d * d))
    vd = v * d
    return k * (np.diag(v) - np.outer(vd, vd))


def phs_kernel(x, x_prime, hyper) -> np.ndarray:
    """Matrix-valued kernel sigma_f^2 * S Pi(x, x') S^T, one pair at a time."""
    s = hyper.structure.jr()
    pi = se_hessian(x, x_prime, hyper.lengthscales)
    return hyper.sigma_f**2 * s @ pi @ s.T


class TrainingPairs:
    """The hyperparameter-independent pair geometry of one training set, and its workspace.

    Built once per training set from a C-ordered copy of its (n, N) states,
    kept as ``states``.  The pairs are the P = N(N-1)/2 (a, b) with a > b,
    grouped by b: pairs bounds[b] .. bounds[b + 1] - 1 are a = b + 1 .. N - 1,
    whose n x n blocks fill rows (b + 1) n .. N n - 1 of the Gram's block
    column b.  ``d`` (n, P) holds x_a - x_b and ``dd`` its squares.

    The workspace holds the arrays one likelihood evaluation writes: the
    Fortran-ordered Gram, the pair terms sf^2 k (P,) and u (n, P), and one
    (n n P) buffer that holds the pair blocks while the Gram is built and
    W's planes while the gradient reads them.  It is allocated on the first
    evaluation and reused by every later one until `release`, so each
    `terms`, `gram` and `planes` call overwrites what the previous one
    returned.  A caller that keeps a Gram (conditioning keeps its inverse
    factor) builds it on a TrainingPairs of its own.
    """

    def __init__(self, states):
        self.states = np.array(states, dtype=float, order="C")
        n_pts = self.states.shape[1]
        col, row = np.triu_indices(n_pts, 1)
        self.d = self.states[:, row] - self.states[:, col]
        self.dd = self.d * self.d
        self.bounds = [0] + np.cumsum(np.arange(n_pts - 1, 0, -1)).tolist()
        self._work = None

    def release(self):
        """Drop the workspace; the next evaluation allocates a new one."""
        self._work = None

    def terms(self, hyper):
        """The one SE evaluation of a Gram: (sf^2 k, u, M) over the pairs.

        sf^2 k is (P,) and u = S Lambda^-1 d is (n, P), both in the
        workspace; M = S Lambda^-1 S^T.
        """
        work = self._workspace()
        s = hyper.structure.jr()
        v = 1.0 / hyper.lengthscales**2
        s_v = s * v
        # the block buffer is free until the Gram is built
        sf2_k = backend.se_values(self.dd, v, out=work.sf2_k, scratch=work.pairs[: self.d.shape[1]])
        sf2_k *= hyper.sigma_f**2
        return sf2_k, np.matmul(s_v, self.d, out=work.u), s_v @ s.T

    def gram(self, hyper, terms):
        """The workspace Gram from ``terms``, written in its lower triangle only.

        The diagonal carries noise_var; the strict upper triangle is left
        unwritten.  Raises ConditioningError on a non-finite entry.
        """
        sf2_k, u, m = terms
        n, n_pts = self.states.shape
        work = self._workspace()
        blocks = backend.pair_blocks(sf2_k, u, m, out=work.pairs.reshape(n, -1, n))
        diagonal = hyper.sigma_f**2 * m
        if not all(_all_finite(a) for a in (blocks, diagonal, hyper.noise_var)):
            raise ConditioningError("Gram matrix contains non-finite entries")
        gram = work.gram
        for target, run in self._runs(gram, blocks):
            target[...] = run
        # at a = b, k = 1 and u = 0: the block is sf^2 M
        np.einsum("bjbi->bji", self._block_view(gram))[...] = diagonal.T
        np.einsum("ii->i", gram)[...] += np.tile(hyper.noise_var, n_pts)
        return gram

    def planes(self, mat):
        """W_ab + W_ab^T over the strict-lower blocks of the Fortran-ordered ``mat``, as component planes.

        Entry [i, j, p] of the (n, n, P) result, in the workspace, is entry
        (i, j) of W_ab + W_ab^T for pair p, where W_ab is pair p's block of mat.
        """
        n = self.states.shape[0]
        out = self._workspace().pairs.reshape(n, n, -1)
        for source, run in self._runs(mat, out.transpose(1, 2, 0)):
            run[...] = source
        # symmetrize in place, plane by plane
        for i in range(n):
            out[i, i] += out[i, i]
            for j in range(i):
                out[i, j] += out[j, i]
                out[j, i] = out[i, j]
        return out

    def scratch(self, rows):
        """A (rows, P) array in the workspace Gram's memory, free once W has been read out of it.

        The Gram holds at least 2 n^2 such rows; for more it may be too
        small, and then the array is a new one.
        """
        n_pairs = self.d.shape[1]
        flat = self._workspace().gram.reshape(-1, order="F")
        if rows * n_pairs > flat.size:
            return np.empty((rows, n_pairs))
        return flat[: rows * n_pairs].reshape(rows, n_pairs)

    def diagonal_sum(self, mat):
        """sum_a mat_aa over the diagonal blocks, read from the lower triangle and returned symmetric."""
        n = self.states.shape[0]
        lo_i, lo_j = np.tril_indices(n)
        # blocks[j, i, a] = mat[a n + i, a n + j]; only i >= j is written
        blocks = self._block_view(mat).diagonal(axis1=0, axis2=2)
        total = blocks[lo_j, lo_i].sum(axis=-1)
        out = np.empty((n, n))
        out[lo_i, lo_j] = total
        out[lo_j, lo_i] = total
        return out

    def _workspace(self):
        if self._work is None:
            n, n_pts = self.states.shape
            n_pairs = self.d.shape[1]
            self._work = SimpleNamespace(
                gram=np.empty((n * n_pts, n * n_pts), order="F"),
                pairs=np.empty(n * n * n_pairs),
                sf2_k=np.empty(n_pairs),
                u=np.empty((n, n_pairs)),
            )
        return self._work

    def _block_view(self, mat):
        # entry [b, j, a, i] is mat[a n + i, b n + j]; mat.T is C-ordered, so this is a view
        n, n_pts = self.states.shape
        return mat.T.reshape(n_pts, n, n_pts, n)

    def _runs(self, mat, blocks):
        """(view of mat, view of blocks) per block column b over its strict-lower pairs.

        ``blocks`` is indexed [j, p, i] as `backend.pair_blocks` returns; both
        views are indexed [j, a, i] for the rows a > b.
        """
        view = self._block_view(mat)
        bounds = self.bounds
        for b in range(len(bounds) - 1):
            yield view[b, :, b + 1 :, :], blocks[:, bounds[b] : bounds[b + 1], :]


def _all_finite(a):
    # min and max are NaN when an entry is NaN and +-inf when an entry is: the
    # answer of np.isfinite(a).all() without its array of flags
    return bool(np.isfinite(a.min(initial=0.0)) and np.isfinite(a.max(initial=0.0)))


def gram_matrix(states, hyper, jitter: float = 0.0) -> np.ndarray:
    """Full symmetric block Gram matrix over the training states.

    ``states`` is (n, N) column-major.  Block (i, j) is k_phs(x_i, x_j), and
    the diagonal blocks additionally carry diag(noise_var) + jitter * I.  The
    lower triangle is TrainingPairs.gram's, mirrored to the upper.
    """
    pairs = TrainingPairs(np.atleast_2d(np.asarray(states, dtype=float)))
    lower = pairs.gram(hyper, pairs.terms(hyper))
    gram = np.tril(lower)
    gram += np.tril(lower, -1).T
    eye = np.arange(gram.shape[0])
    gram[eye, eye] += jitter
    return gram


def factorize_gram(build, jitter: float = 1e-10, max_jitter: float = 1e-6):
    """Cholesky-factorize a Gram matrix in place, escalating jitter on failure.

    ``build()`` writes the Gram into the lower triangle of a Fortran-ordered
    array and returns it; LAPACK potrf overwrites that triangle with the
    factor, so every attempt calls ``build()`` again and factorizes a
    complete Gram, also when the build reuses the buffer of the failed
    attempt.  Returns (cho_factor result, jitter actually added).  Raises
    ConditioningError when the factorization still fails at ``max_jitter``.
    """
    current = jitter
    while True:
        attempt = build()
        np.einsum("ii->i", attempt)[...] += current
        try:
            return cho_factor(attempt, lower=True, overwrite_a=True, check_finite=False), current
        except np.linalg.LinAlgError:
            pass
        if current >= max_jitter:
            raise ConditioningError(
                f"Gram factorization failed with jitter escalated to {current:.1e}"
            )
        current = max(current * 10.0, 1e-12)


def _lapack_routine(module, name, n_args):
    """scipy's exported BLAS or LAPACK routine ``name``, called with ``n_args`` pointers.

    scipy.linalg.cython_blas and cython_lapack export their routines as
    capsules holding C function pointers, every argument passed by address.
    Unlike the f2py wrappers in scipy.linalg.blas and lapack, a call names
    its leading dimension, so it works in place on a block of a larger
    Fortran-ordered matrix.
    """
    capsule = module.__pyx_capi__[name]
    name_of = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
    pointer_of = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    address = pointer_of(capsule, name_of(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)(address)


# dtrtri(uplo, diag, n, a, lda, info) and
# dtrmm(side, uplo, transa, diag, m, n, alpha, a, lda, b, ldb)
_TRTRI = _lapack_routine(cython_lapack, "dtrtri", 6)
_TRMM = _lapack_routine(cython_blas, "dtrmm", 11)
_L, _R, _N = (ctypes.c_char(c) for c in (b"L", b"R", b"N"))
_ONE, _MINUS_ONE = ctypes.c_double(1.0), ctypes.c_double(-1.0)
_AT_L, _AT_N, _AT_ONE = (ctypes.addressof(c) for c in (_L, _N, _ONE))
_TRMM_SIZES, _INT_BYTES = ctypes.c_int * 4, ctypes.sizeof(ctypes.c_int)
# diagonal blocks of at most this order are inverted by LAPACK trtri
_INVERSE_LEAF = 64

# (library, a module linked against it, its symbol suffix): the OpenBLAS
# builds bundled with numpy and scipy.  dlsym on a module's handle also
# searches the libraries the module links.
_OPENBLAS_MODULES = (
    ("numpy", "numpy._core._multiarray_umath", "64_"),
    ("scipy", "scipy.linalg.cython_blas", ""),
)


def _find_openblas():
    """library -> (set_num_threads, get_num_threads) of each bundled OpenBLAS found."""
    found = {}
    for name, module, suffix in _OPENBLAS_MODULES:
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
            set_threads = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
            get_threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
        except (ImportError, OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        found[name] = (set_threads, get_threads)
    return found


_OPENBLAS = _find_openblas()
# BLAS rounds a product differently when it splits the work across threads,
# so the package runs each OpenBLAS found on one thread, set here once and
# never read from the environment; the second core goes to the posterior's
# helper thread instead (gp.posterior_helper)
for _set_threads, _ in _OPENBLAS.values():
    _set_threads(1)


def blas_thread_counts():
    """The current thread count of each bundled OpenBLAS, None for one not found."""
    return {name: _OPENBLAS[name][1]() if name in _OPENBLAS else None for name, _, _ in _OPENBLAS_MODULES}


def invert_lower(factor):
    """L^-1 in place of the lower triangle L of the square Fortran-ordered ``factor``.

    Recursive blocked inversion (Elmroth, Gustavson, Jonsson & Kagstrom,
    SIAM Rev. 2004): with L = [[A, 0], [C, B]] split at half its order,
    L^-1 = [[A^-1, 0], [-B^-1 C A^-1, B^-1]].  A and B are inverted in place
    the same way, down to blocks of order _INVERSE_LEAF or less, which LAPACK
    trtri inverts; then two BLAS trmm calls turn C into C A^-1 and that into
    -B^-1 (C A^-1).  Most flops are then in trmm, which runs far faster than
    trtri on a large triangle.  The strict upper triangle is neither read nor
    written.  Returns ``factor``; raises ConditioningError when L is singular.
    """
    if factor.ndim != 2 or factor.shape[0] != factor.shape[1] or not factor.flags.f_contiguous:
        raise ValueError("factor must be a square Fortran-ordered array")
    if factor.dtype != np.float64 or not factor.flags.writeable:
        raise ValueError("factor must be a writeable float64 array")
    _invert_block(factor.ctypes.data, factor.shape[0], 0, factor.shape[0])
    return factor


def trmm_lower(a, b):
    """b <- a b in place, for the lower triangle of the square Fortran-ordered ``a``.

    One BLAS trmm call on scipy's library, the routine that
    scipy.linalg.blas.dtrmm(1.0, a, b, lower=1, overwrite_b=1) wraps, with
    the GIL released.  The strict upper triangle of ``a`` is not read.
    ``b`` is a writeable Fortran-ordered float64 array with as many rows as
    ``a``.  Returns ``b``.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.flags.f_contiguous or a.dtype != np.float64:
        raise ValueError("a must be a square Fortran-ordered float64 array")
    if b.ndim != 2 or b.shape[0] != a.shape[0]:
        raise ValueError(f"b must be a 2-D array with {a.shape[0]} rows")
    if not b.flags.f_contiguous or b.dtype != np.float64 or not b.flags.writeable:
        raise ValueError("b must be a writeable Fortran-ordered float64 array")
    # the sizes m, n, lda, ldb in one int array, every argument passed as an address
    sizes = _TRMM_SIZES(*b.shape, max(1, a.shape[0]), max(1, b.shape[0]))
    m, n, lda, ldb = (ctypes.addressof(sizes) + i * _INT_BYTES for i in range(4))
    _TRMM(_AT_L, _AT_L, _AT_N, _AT_N, m, n, _AT_ONE, a.ctypes.data, lda, b.ctypes.data, ldb)
    return b


def _invert_block(base, ld, start, order):
    """Invert the lower triangle of the diagonal block [start, start + order) in place.

    ``base`` is the address of a Fortran-ordered float64 matrix with leading
    dimension ``ld``.
    """

    def at(i, j):
        return ctypes.c_void_p(base + 8 * (i + j * ld))

    lda = ctypes.byref(ctypes.c_int(ld))
    if order <= _INVERSE_LEAF:
        info = ctypes.c_int(0)
        diag_order = ctypes.byref(ctypes.c_int(order))
        _TRTRI(ctypes.byref(_L), ctypes.byref(_N), diag_order, at(start, start), lda, ctypes.byref(info))
        if info.value != 0:
            raise ConditioningError(f"Cholesky factor inversion failed (trtri info {start + info.value})")
        return
    half = order // 2
    mid = start + half
    _invert_block(base, ld, start, half)
    _invert_block(base, ld, mid, order - half)
    rows, cols = ctypes.byref(ctypes.c_int(order - half)), ctypes.byref(ctypes.c_int(half))
    flags = ctypes.byref(_L), ctypes.byref(_N), ctypes.byref(_N)
    _TRMM(ctypes.byref(_R), *flags, rows, cols, ctypes.byref(_ONE), at(start, start), lda, at(mid, start), lda)
    _TRMM(ctypes.byref(_L), *flags, rows, cols, ctypes.byref(_MINUS_ONE), at(mid, mid), lda, at(mid, start), lda)
