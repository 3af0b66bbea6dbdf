"""Sparse symmetric linear algebra used by the solvers.

Matrices are stored in scipy CSR form.  Factorization goes through SuperLU
in symmetric mode with pure diagonal pivoting; under a symmetric permutation
this is an LDL^T factorization in disguise, so the signs of the U diagonal
give the inertia and a non-positive pivot reliably flags an indefinite
matrix (for example a row-sum lumped mass with negative entries).  Diagonal
matrices are detected structurally and solved directly.

The largest generalized eigenvalue of (K, M), which sets the critical time
step of explicit integration, is computed by power iteration on M^-1 K with
a deterministic seeded start vector and a Rayleigh-quotient estimate.
"""

from __future__ import annotations

import numpy as np
import scipy.io
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class IndefiniteMatrixError(RuntimeError):
    """The matrix handed to ``factorize`` is not positive definite."""


class Factorization:
    """Factored form of a sparse symmetric positive definite matrix."""

    def __init__(self, n, kind, diag=None, lu=None):
        self.n = n
        self.kind = kind          # "diagonal" or "sparse_lu"
        self._diag = diag
        self._lu = lu

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        if self.kind == "diagonal":
            if b.ndim == 1:
                return b / self._diag
            return b / self._diag[:, None]
        return self._lu.solve(b)


def is_structurally_diagonal(A) -> bool:
    """True if all stored nonzero entries of A lie on the diagonal."""
    coo = sp.csr_matrix(A).tocoo()
    mask = coo.data != 0.0
    return bool(np.all(coo.row[mask] == coo.col[mask]))


def factorize(A) -> Factorization:
    """Factor a sparse symmetric positive definite matrix.

    Diagonal matrices take a fast path.  General matrices are factored by
    SuperLU with a fill-reducing symmetric ordering; a non-positive pivot
    raises :class:`IndefiniteMatrixError`.
    """
    A = sp.csr_matrix(A)
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if is_structurally_diagonal(A):
        d = A.diagonal()
        if np.any(d <= 0.0) or not np.all(np.isfinite(d)):
            raise IndefiniteMatrixError(
                "diagonal matrix has non-positive entries; "
                "check the stabilization and lumping settings")
        return Factorization(n, "diagonal", diag=d.copy())
    try:
        lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:   # singular factor
        raise IndefiniteMatrixError(f"factorization failed: {exc}") from exc
    pivots = lu.U.diagonal()
    if np.any(pivots <= 0.0) or not np.all(np.isfinite(pivots)):
        raise IndefiniteMatrixError(
            "matrix is not positive definite; "
            "check the stabilization and lumping settings")
    return Factorization(n, "sparse_lu", lu=lu)


def max_gen_eig(K, M, tol=1e-9, max_iter=50000, seed=0):
    """Largest eigenvalue of ``K x = lam M x`` by power iteration.

    Iterates ``x <- M^-1 K x`` from a seeded random start and estimates the
    eigenvalue with the Rayleigh quotient ``(x' K x) / (x' M x)``, which
    converges at twice the rate of the iterate itself.  Stops when the
    relative change of the estimate drops below ``tol``.

    Returns
    -------
    lam : float
    n_iter : int
    """
    n = K.shape[0]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    fac = factorize(M)
    lam_old = np.inf
    for it in range(1, max_iter + 1):
        y = fac.solve(K @ x)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return 0.0, it
        x = y / ny
        Kx = K @ x
        Mx = M @ x
        lam = float(x @ Kx) / float(x @ Mx)
        if abs(lam - lam_old) <= tol * abs(lam):
            return lam, it
        lam_old = lam
    raise RuntimeError(
        f"power iteration did not converge in {max_iter} iterations "
        f"(last estimate {lam_old:.6e})")


def dt_crit(K, M, tol=1e-9, seed=0):
    """Critical time step of central differences, 2 / sqrt(lam_max(K, M))."""
    lam, _ = max_gen_eig(K, M, tol=tol, seed=seed)
    if lam <= 0.0:
        raise ValueError("largest generalized eigenvalue must be positive")
    return 2.0 / np.sqrt(lam)


def save_matrix_market(path, A, symmetric=True):
    """Write a sparse matrix in MatrixMarket coordinate format."""
    A = sp.coo_matrix(A)
    scipy.io.mmwrite(str(path), A, symmetry="symmetric" if symmetric else "general")


def load_matrix_market(path):
    """Read a MatrixMarket file as CSR."""
    return sp.csr_matrix(scipy.io.mmread(str(path)))
