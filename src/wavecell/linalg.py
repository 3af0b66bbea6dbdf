"""Sparse symmetric linear algebra used by the solvers.

``factorize`` is the one place that knows how a matrix is structured:
rows without a nonzero off-diagonal entry (the nodal-quadrature mass away
from cut elements) are solved by division, the coupled rest by one SuperLU
factor in symmetric mode with pure diagonal pivoting.  Under a symmetric
permutation that is an LDL^T factorization in disguise, so a non-positive
pivot reliably flags an indefinite matrix (for example a row-sum lumped
mass with negative entries).  The largest generalized eigenvalue of
(K, M), which sets the critical step of explicit integration, comes from
ARPACK's Lanczos method with a seeded start vector.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class IndefiniteMatrixError(RuntimeError):
    """The matrix handed to ``factorize`` is not positive definite."""


class Factorization:
    """Factored form of a sparse symmetric positive definite matrix.

    ``coupled`` holds the sorted indices of the rows with a nonzero
    off-diagonal entry, solved by one LU of their block; every other row
    is solved by division by ``diag``.
    """

    def __init__(self, diag, coupled, lu):
        self.n = diag.shape[0]
        self.diag = diag
        self.coupled = coupled
        self._lu = lu

    def solve(self, b, out=None):
        """A^-1 b, written into ``out`` when given (``out`` may be ``b``)."""
        b = np.asarray(b, dtype=float)
        b_c = b[self.coupled]         # a copy, read before out is written
        x = np.divide(b, self.diag if b.ndim == 1 else self.diag[:, None],
                      out=out)
        if self.coupled.size:
            x[self.coupled] = self._lu.solve(b_c)
        return x


def factorize(A) -> Factorization:
    """Factor a sparse symmetric positive definite matrix without modifying it.

    Coupling is read from the rows, which suffices for a symmetric matrix;
    stored zeros do not couple.  A non-positive pivot or isolated diagonal
    entry raises :class:`IndefiniteMatrixError`.  The row index of every
    stored entry, the scratch of that test, has the matrix's index type
    and is freed before SuperLU runs; so is the CSR slice of the coupled
    block, of which only the CSC copy handed to SuperLU is alive.
    """
    A = sp.csr_matrix(A)
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    d = A.diagonal()
    rows = np.repeat(np.arange(n, dtype=A.indices.dtype), np.diff(A.indptr))
    is_coupled = np.zeros(n, dtype=bool)
    is_coupled[rows[(A.indices != rows) & (A.data != 0.0)]] = True
    del rows                      # one index per stored entry
    pivots = d[~is_coupled]       # an isolated row is its own pivot
    coupled = np.flatnonzero(is_coupled)
    lu = None
    if coupled.size:
        # The CSR slice is a temporary, gone before SuperLU runs.
        block = (A if coupled.size == n else A[coupled][:, coupled]).tocsc()
        try:
            lu = spla.splu(block, permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
        except RuntimeError as exc:   # singular factor
            raise IndefiniteMatrixError(f"factorization failed: {exc}") from exc
        del block
        pivots = np.concatenate([pivots, lu.U.diagonal()])
    if np.any(pivots <= 0.0) or not np.all(np.isfinite(pivots)):
        raise IndefiniteMatrixError(
            "matrix is not positive definite; "
            "check the stabilization and lumping settings")
    return Factorization(d, coupled, lu)


def max_gen_eig(K, M, tol=1e-9, seed=0):
    """Largest eigenvalue of ``K x = lam M x`` by Lanczos.

    ARPACK's implicitly restarted Lanczos (``eigsh`` iterating with
    ``M^-1 K`` in the M inner product) from a seeded random start vector;
    ``tol`` is the relative accuracy of the Ritz value.  A 1x1 pencil,
    which ARPACK does not take, is its own Rayleigh quotient.

    Returns
    -------
    lam : float
    n_solves : int
        Number of mass solves.
    """
    n = K.shape[0]
    if n == 1:
        x = np.ones(1)
        return float(x @ (K @ x)) / float(x @ (M @ x)), 0
    fac = factorize(M)
    n_solves = 0

    def solve(b):
        nonlocal n_solves
        n_solves += 1
        return fac.solve(b)

    Minv = spla.LinearOperator((n, n), matvec=solve, dtype=float)
    v0 = np.random.default_rng(seed).standard_normal(n)
    # 16 Lanczos vectors per restart, not ARPACK's 20: with 20 the number
    # of mass solves depended on the start vector (31 to 61 at p=3,
    # n_e=6 over seeds 0-9), with 16 it was 33 for each of them.
    lam = spla.eigsh(K, k=1, M=M, Minv=Minv, which="LA", v0=v0, tol=tol,
                     ncv=min(n, 16), return_eigenvectors=False)
    return float(lam[0]), n_solves


def dt_crit(K, M, tol=1e-9, seed=0):
    """Critical time step of central differences, 2 / sqrt(lam_max(K, M))."""
    lam, _ = max_gen_eig(K, M, tol=tol, seed=seed)
    if lam <= 0.0:
        raise ValueError("largest generalized eigenvalue must be positive")
    return 2.0 / np.sqrt(lam)

