import tracemalloc

import numpy as np
import pytest
import scipy.io
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from wavecell.assembly import ElementIntegralCache, Grid, assemble
from wavecell.basis import BasisSpec
from wavecell.cli import main
from wavecell.geometry import ImmersedGeometry
from wavecell.harness import BenchmarkConfig
from wavecell.linalg import (
    IndefiniteMatrixError,
    dt_crit,
    factorize,
    max_gen_eig,
)
from wavecell.stabilization import StabilizationParams


def tiny_immersed_system():
    geom = ImmersedGeometry.from_angles(0.3, 0.5, (10.0, 10.0, 10.0))
    grid = Grid.build(geom, BasisSpec(family="lagrange", p=1, n_e=4))
    return assemble(grid, StabilizationParams(alpha=1e-6), octree_depth=2)


def test_factorize_diagonal_path():
    fac = factorize(sp.diags([4.0, 9.0]).tocsr())
    assert fac.coupled.size == 0
    assert fac.n == 2
    assert np.allclose(fac.solve(np.array([8.0, 18.0])), [2.0, 2.0])


def test_factorize_tridiagonal():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    fac = factorize(A)
    assert np.array_equal(fac.coupled, [0, 1])
    assert np.allclose(fac.solve(np.array([3.0, 3.0])), [1.0, 1.0],
                       atol=1e-14)


def test_factorize_assembled_mass_residual():
    system = tiny_immersed_system()
    fac = factorize(system.M)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(system.M.shape[0])
    x = fac.solve(b)
    assert np.linalg.norm(system.M @ x - b) <= 1e-10 * np.linalg.norm(b)
    B = rng.standard_normal((system.M.shape[0], 3))
    X = fac.solve(B)
    assert np.linalg.norm(system.M @ X - B) <= 1e-10 * np.linalg.norm(B)


def test_factorize_rejects_indefinite():
    with pytest.raises(IndefiniteMatrixError):
        factorize(sp.diags([1.0, -1.0]).tocsr())
    with pytest.raises(IndefiniteMatrixError):
        factorize(sp.diags([1.0, 0.0]).tocsr())
    with pytest.raises(IndefiniteMatrixError):
        factorize(sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]])))
    with pytest.raises(IndefiniteMatrixError):
        factorize(sp.csr_matrix(np.ones((2, 2))))


def test_factorize_rejects_non_square():
    with pytest.raises(ValueError):
        factorize(sp.csr_matrix(np.ones((2, 3))))


def test_stored_zero_does_not_couple():
    stored_zero = sp.csr_matrix(
        (np.array([1.0, 0.0, 2.0]), (np.array([0, 0, 1]), np.array([0, 1, 1]))),
        shape=(2, 2))
    assert factorize(stored_zero).coupled.size == 0
    assert np.array_equal(
        factorize(sp.csr_matrix(np.array([[1.0, 0.5], [0.5, 1.0]]))).coupled,
        [0, 1])


def test_factorize_mixed_isolated_and_coupled_rows():
    # rows 0, 2 and 5 are isolated; 1, 3 and 4 form one coupled block
    A = np.diag([2.0, 4.0, 3.0, 5.0, 6.0, 0.5])
    A[1, 3] = A[3, 1] = 1.0
    A[3, 4] = A[4, 3] = -2.0
    A32 = sp.csr_matrix(A)
    A64 = A32.copy()           # the same matrix with int64 indices
    A64.indices = A64.indices.astype(np.int64)
    A64.indptr = A64.indptr.astype(np.int64)
    for A in (A32, A64):
        before = A.copy()
        fac = factorize(A)
        assert np.array_equal(fac.coupled, [1, 3, 4])
        assert (A != before).nnz == 0
        rng = np.random.default_rng(1)
        b = rng.standard_normal(6)
        assert np.allclose(fac.solve(b), spla.spsolve(A.tocsc(), b),
                           rtol=1e-13, atol=1e-15)
        B = rng.standard_normal((6, 2))
        assert np.allclose(fac.solve(B), spla.spsolve(A.tocsc(), B),
                           rtol=1e-13, atol=1e-15)
        # into out, also when out is b itself: the same bits
        want = fac.solve(b)
        out = np.full(6, np.nan)
        assert fac.solve(b, out=out) is out
        assert np.array_equal(out, want)
        assert fac.solve(b, out=b) is b
        assert np.array_equal(b, want)


def test_factorize_memory():
    # The traced peak of factorize on the mass at Lagrange p3n6 depth 3
    # (SuperLU's own allocations are not traced) was 12.36 MB with int64
    # row scratch and the CSR slice of the coupled block alive next to
    # its CSC copy while SuperLU ran; row scratch in the matrix's index
    # type and the slice freed before SuperLU runs gave 8.76 MB.
    geom = ImmersedGeometry.from_angles(0.3, 0.5, (10.0, 10.0, 10.0))
    grid = Grid.build(geom, BasisSpec(family="lagrange", p=3, n_e=6))
    cache = ElementIntegralCache(grid, octree_depth=3)
    M = assemble(grid, StabilizationParams(alpha=1e-8), cache=cache,
                 source=None).M
    factorize(M)
    tracemalloc.start()
    try:
        factorize(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 8.76e6


def test_factorize_rejects_non_positive_isolated_row():
    A = np.diag([2.0, 4.0, -3.0])
    A[0, 1] = A[1, 0] = 1.0
    with pytest.raises(IndefiniteMatrixError):
        factorize(sp.csr_matrix(A))


def test_factorize_immersed_mass_factors_exactly_the_c_set():
    system = tiny_immersed_system()
    fac = factorize(system.M)
    assert np.array_equal(fac.coupled, system.grid.dofmap.c_idx)


def test_factorize_bspline_mass_factors_every_row():
    geom = ImmersedGeometry.from_angles(0.3, 0.5, (10.0, 10.0, 10.0))
    grid = Grid.build(geom, BasisSpec(family="bspline", p=2, n_e=3),
                      boundary_fitted=True)
    system = assemble(grid, StabilizationParams())
    fac = factorize(system.M)
    assert np.array_equal(fac.coupled, np.arange(system.M.shape[0]))


def test_max_gen_eig_diagonal_pair():
    K = sp.diags([1.0, 2.0, 3.0]).tocsr()
    M = sp.identity(3, format="csr")
    lam, n_iter = max_gen_eig(K, M, tol=1e-12, seed=0)
    assert lam == pytest.approx(3.0, rel=1e-10)
    assert n_iter >= 1


def test_max_gen_eig_known_single_element():
    h, c = 0.2, 2.0
    # a 1x1 pencil (one explicit DOF) is its own eigenvalue
    lam_1, _ = max_gen_eig(sp.csr_matrix([[c * c / h]]),
                           sp.csr_matrix([[h / 2.0]]))
    assert lam_1 == pytest.approx(2.0 * c * c / h**2, rel=1e-15)
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


def test_max_gen_eig_solve_count_is_seed_independent():
    # With ARPACK's default of 20 Lanczos vectors per restart seeds 0-9
    # took 61, 31, 41, 61, 31, 31, 61, 31, 61 and 31 mass solves here;
    # with 16 each took 33.
    geom = ImmersedGeometry.from_angles(0.3, 0.5, (10.0, 10.0, 10.0))
    grid = Grid.build(geom, BasisSpec(family="lagrange", p=3, n_e=6))
    system = assemble(grid, StabilizationParams(alpha=1e-8), octree_depth=3)
    solves = [max_gen_eig(system.K, system.M, tol=1e-7, seed=seed)[1]
              for seed in range(10)]
    assert max(solves) <= 40, solves


def test_dt_crit_simple_value():
    K = sp.diags([4.0, 1.0]).tocsr()
    M = sp.identity(2, format="csr")
    assert dt_crit(K, M, tol=1e-12) == pytest.approx(1.0, rel=1e-10)


def test_matrix_market_round_trip(tmp_path):
    # export-matrices writes M and K as symmetric MatrixMarket files (the
    # lower triangle); reading them back gives the assembled matrices.
    system = tiny_immersed_system()
    config = tmp_path / "tiny.json"
    config.write_text(BenchmarkConfig(p=1, n_e=4, alpha=1e-6,
                                      octree_depth=2).to_json())
    assert main(["export-matrices", "--config", str(config),
                 "--out", str(tmp_path)]) == 0
    for name, A in (("M", system.M), ("K", system.K)):
        path = tmp_path / f"{name}.mtx"
        assert path.read_text().startswith(
            "%%MatrixMarket matrix coordinate real symmetric")
        back = sp.csr_matrix(scipy.io.mmread(str(path)))
        d = (back - A).tocoo()
        scale = np.abs(A.data).max()
        assert d.nnz == 0 or np.abs(d.data).max() <= 1e-14 * scale


def test_factorization_solve_shapes():
    for A in (sp.diags([2.0, 4.0]).tocsr(),
              sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 4.0]]))):
        fac = factorize(A)
        dense = A.toarray()
        b = np.array([2.0, 4.0])
        assert fac.solve(b).shape == (2,)
        assert np.allclose(dense @ fac.solve(b), b)
        B = np.array([[2.0, 4.0], [4.0, 8.0]])
        assert fac.solve(B).shape == (2, 2)
        assert np.allclose(dense @ fac.solve(B), B)
