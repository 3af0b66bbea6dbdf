import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from wavecell.assembly import Grid, assemble
from wavecell.basis import BasisSpec
from wavecell.geometry import ImmersedGeometry
from wavecell.linalg import (
    Factorization,
    IndefiniteMatrixError,
    dt_crit,
    factorize,
    is_structurally_diagonal,
    load_matrix_market,
    max_gen_eig,
    save_matrix_market,
)
from wavecell.stabilization import StabilizationParams


def tiny_immersed_system():
    geom = ImmersedGeometry.from_angles(0.3, 0.5, (10.0, 10.0, 10.0))
    grid = Grid.build(geom, BasisSpec(family="lagrange", p=1, n_e=4))
    return assemble(grid, StabilizationParams(alpha=1e-6), octree_depth=2)


def test_factorize_diagonal_path():
    fac = factorize(sp.diags([4.0, 9.0]).tocsr())
    assert fac.kind == "diagonal"
    assert fac.n == 2
    assert np.allclose(fac.solve(np.array([8.0, 18.0])), [2.0, 2.0])


def test_factorize_tridiagonal():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    fac = factorize(A)
    assert fac.kind == "sparse_lu"
    assert np.allclose(fac.solve(np.array([3.0, 3.0])), [1.0, 1.0],
                       atol=1e-14)


def test_factorize_assembled_mass_residual():
    system = tiny_immersed_system()
    fac = factorize(system.M)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(system.n_dof)
    x = fac.solve(b)
    assert np.linalg.norm(system.M @ x - b) <= 1e-10 * np.linalg.norm(b)
    B = rng.standard_normal((system.n_dof, 3))
    X = fac.solve(B)
    assert np.linalg.norm(system.M @ X - B) <= 1e-10 * np.linalg.norm(B)


def test_factorize_rejects_indefinite():
    with pytest.raises(IndefiniteMatrixError):
        factorize(sp.diags([1.0, -1.0]).tocsr())
    with pytest.raises(IndefiniteMatrixError):
        factorize(sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]])))
    with pytest.raises(IndefiniteMatrixError):
        factorize(sp.csr_matrix(np.ones((2, 2))))


def test_factorize_rejects_non_square():
    with pytest.raises(ValueError):
        factorize(sp.csr_matrix(np.ones((2, 3))))


def test_structurally_diagonal_detection():
    assert is_structurally_diagonal(sp.diags([1.0, 2.0]).tocsr())
    stored_zero = sp.csr_matrix(
        (np.array([1.0, 0.0, 2.0]), (np.array([0, 0, 1]), np.array([0, 1, 1]))),
        shape=(2, 2))
    assert is_structurally_diagonal(stored_zero)
    assert not is_structurally_diagonal(
        sp.csr_matrix(np.array([[1.0, 0.5], [0.5, 1.0]])))


def test_max_gen_eig_diagonal_pair():
    K = sp.diags([1.0, 2.0, 3.0]).tocsr()
    M = sp.identity(3, format="csr")
    lam, n_iter = max_gen_eig(K, M, tol=1e-12, seed=0)
    assert lam == pytest.approx(3.0, rel=1e-10)
    assert n_iter >= 1


def test_max_gen_eig_known_single_element():
    h, c = 0.2, 2.0
    K = sp.csr_matrix(c * c / h * np.array([[1.0, -1.0], [-1.0, 1.0]]))
    M_lumped = sp.diags([h / 2.0, h / 2.0]).tocsr()
    lam, _ = max_gen_eig(K, M_lumped, tol=1e-12)
    assert lam == pytest.approx(4.0 * c * c / h**2, rel=1e-9)
    assert dt_crit(K, M_lumped, tol=1e-12) == pytest.approx(h / c, rel=1e-9)
    M_cons = sp.csr_matrix(h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]]))
    lam_c, _ = max_gen_eig(K, M_cons, tol=1e-12)
    assert lam_c == pytest.approx(12.0 * c * c / h**2, rel=1e-9)


def test_max_gen_eig_against_dense_solver():
    geom = ImmersedGeometry.from_angles(0.3, 0.5, (10.0, 10.0, 10.0))
    grid = Grid.build(geom, BasisSpec(family="lagrange", p=1, n_e=4),
                      boundary_fitted=True)
    system = assemble(grid, StabilizationParams())
    lam, _ = max_gen_eig(system.K, system.M, tol=1e-12, seed=0)
    dense = scipy.linalg.eigh(system.K.toarray(), system.M.toarray(),
                              eigvals_only=True)[-1]
    assert abs(lam - dense) <= 1e-8 * dense


def test_max_gen_eig_clustered_spectrum():
    # Cut slivers produce near-degenerate top eigenvalues; the Rayleigh
    # quotient still lands well inside what a time-step estimate needs.
    system = tiny_immersed_system()
    lam, _ = max_gen_eig(system.K, system.M, tol=1e-7, seed=0)
    dense = scipy.linalg.eigh(system.K.toarray(), system.M.toarray(),
                              eigvals_only=True)[-1]
    assert abs(lam - dense) <= 1e-3 * dense


def test_max_gen_eig_seed_invariance():
    system = tiny_immersed_system()
    lam0, it0 = max_gen_eig(system.K, system.M, tol=1e-10, seed=0)
    lam0_again, it0_again = max_gen_eig(system.K, system.M, tol=1e-10, seed=0)
    assert lam0 == lam0_again and it0 == it0_again
    lam1, _ = max_gen_eig(system.K, system.M, tol=1e-10, seed=123)
    assert abs(lam1 - lam0) <= 1e-8 * lam0


def test_dt_crit_simple_value():
    K = sp.diags([4.0, 1.0]).tocsr()
    M = sp.identity(2, format="csr")
    assert dt_crit(K, M, tol=1e-12) == pytest.approx(1.0, rel=1e-10)


def test_matrix_market_round_trip(tmp_path):
    system = tiny_immersed_system()
    path = tmp_path / "M.mtx"
    save_matrix_market(path, system.M)
    back = load_matrix_market(path)
    d = (back - system.M).tocoo()
    scale = np.abs(system.M.data).max()
    assert d.nnz == 0 or np.abs(d.data).max() <= 1e-14 * scale


def test_factorization_solve_shapes():
    fac = Factorization(2, "diagonal", diag=np.array([2.0, 4.0]))
    assert np.allclose(fac.solve(np.array([2.0, 4.0])), [1.0, 1.0])
    B = np.array([[2.0, 4.0], [4.0, 8.0]])
    assert np.allclose(fac.solve(B), [[1.0, 2.0], [1.0, 2.0]])
