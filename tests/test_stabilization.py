import numpy as np
import pytest
import scipy.sparse as sp

from wavecell.assembly import assemble
from wavecell.geometry import ElementClass
from wavecell.stabilization import (
    StabilizationParams,
    evs_stabilize,
    hrz_lump,
    row_sum_lump,
)


def consistent_p1_mass(rho, h):
    return rho * h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])


def test_evs_two_by_two_hand_case():
    M_o = np.diag([1.0, 1e-8])
    M_f = np.array([[2.0, 0.0], [0.0, 1.0]])
    out = evs_stabilize(M_o, M_f, 1e-2, f_lambda=1e-4)
    expect = np.array([[1.0, 0.0], [0.0, 1e-8 + 1e-2 * 2.0]])
    assert np.array_equal(out, expect)


def test_evs_zero_epsilon_is_a_copy():
    M_o = np.diag([1.0, 1e-8])
    out = evs_stabilize(M_o, np.eye(2), 0.0)
    assert np.array_equal(out, M_o)
    assert out is not M_o


def test_evs_no_small_eigenvalues_no_change():
    M_o = np.diag([1.0, 2.0])
    out = evs_stabilize(M_o, 10.0 * np.eye(2), 1e-2, f_lambda=1e-2)
    assert np.allclose(out, M_o, atol=1e-15)


def test_evs_batch_matches_singles():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 4, 4))
    M_o = np.einsum("kij,klj->kil", A, A) + 1e-6 * np.eye(4)
    M_f = np.broadcast_to(np.eye(4), (3, 4, 4))
    batch = evs_stabilize(M_o, M_f, 1e-3, f_lambda=1e-3)
    for k in range(3):
        single = evs_stabilize(M_o[k], M_f[k], 1e-3, f_lambda=1e-3)
        assert np.allclose(batch[k], single, atol=1e-14)


def test_evs_lifts_small_eigenvalues_monotonically(small_grid, small_cache):
    # a badly cut element from the real benchmark geometry
    cuts = [tuple(int(v) for v in ijk) for ijk in small_grid.kept
            if small_grid.classes[tuple(ijk)] == ElementClass.CUT]
    best = None
    # the cache stacks cut elements in kept order
    for ijk, M_in in zip(cuts, small_cache.M_in):
        M_f, _ = small_cache.full_element(ijk)
        M_o = M_in + 1e-10 * (M_f - M_in)
        lo = np.linalg.eigvalsh(M_o)[0]
        if best is None or lo < best[0]:
            best = (lo, M_o, M_f)
    _, M_o, M_f = best
    mins = []
    for eps in (0.0, 1e-6, 1e-4, 1e-2):
        out = evs_stabilize(M_o, M_f, eps)
        mins.append(np.linalg.eigvalsh(out)[0])
    # monotone up to eigensolver leakage on a near-singular matrix
    assert all(b >= a * (1.0 - 1e-4) for a, b in zip(mins[:-1], mins[1:]))
    assert mins[-1] > 2.0 * mins[0]
    # a strong lift clears the small-eigenvalue threshold entirely
    lam_max = np.linalg.eigvalsh(M_o)[-1]
    assert mins[-1] >= 1e-2 * lam_max * (1.0 - 1e-6)


def test_row_sum_of_diagonal_matrix():
    d = np.array([2.0, 5.0, 0.25])
    assert np.array_equal(row_sum_lump(np.diag(d)), d)


def test_row_sum_linear_element():
    rho, h = 2.0, 0.4
    M = consistent_p1_mass(rho, h)
    assert np.allclose(row_sum_lump(M), [rho * h / 2.0, rho * h / 2.0],
                       atol=1e-15)


def test_row_sum_equals_matrix_times_ones_bitwise():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((40, 40))
    M = A + A.T
    assert np.array_equal(row_sum_lump(M), M @ np.ones(40))


def test_hrz_keeps_diagonal_matrices():
    d = np.array([2.0, 5.0, 0.25])
    assert np.allclose(hrz_lump(np.diag(d)), d, atol=1e-15)


def test_hrz_linear_element():
    rho, h = 2.0, 0.4
    M = consistent_p1_mass(rho, h)
    # trace 2 rho h / 3 scaled to the element mass rho h
    assert np.allclose(hrz_lump(M),
                       [rho * h / 2.0, rho * h / 2.0], atol=1e-15)


def test_hrz_total_mass_preserved():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((6, 6))
    M = A @ A.T + 6 * np.eye(6)
    out = hrz_lump(M)
    assert abs(out.sum() - M.sum()) <= 1e-12 * abs(M.sum())


def test_hrz_batch_matches_singles():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((4, 5, 5))
    M = np.einsum("kij,klj->kil", A, A) + np.eye(5)
    batch = hrz_lump(M)
    for k in range(4):
        assert np.allclose(batch[k], hrz_lump(M[k]), atol=1e-14)


def test_lumping_routes_agree_on_uniform_row_sums():
    # symmetric, constant row sum, constant diagonal: both lumpings give
    # the row sum
    row = np.array([2.0, 0.5, 0.3, 0.5])
    M = np.array([np.roll(row, k) for k in range(4)])
    M = 0.5 * (M + M.T)
    rs = row_sum_lump(M)
    assert np.allclose(rs, M[0].sum(), atol=1e-15)
    assert np.allclose(hrz_lump(M), rs, atol=1e-14)


def test_params_validation():
    StabilizationParams()
    StabilizationParams(alpha=1.0, epsilon=1e-4, lumping="hrz")
    with pytest.raises(ValueError):
        StabilizationParams(alpha=0.0)
    with pytest.raises(ValueError):
        StabilizationParams(alpha=1.5)
    with pytest.raises(ValueError):
        StabilizationParams(epsilon=-1e-8)
    with pytest.raises(ValueError):
        StabilizationParams(f_lambda=1.0)
    with pytest.raises(ValueError):
        StabilizationParams(lumping="diag")


@pytest.mark.parametrize("lumping", ["row_sum", "hrz"])
def test_assembled_lumped_mass_is_diagonal(small_grid, small_cache, lumping):
    system = assemble(small_grid, StabilizationParams(alpha=1e-6,
                                                      lumping=lumping),
                      cache=small_cache)
    off = system.M - sp.diags(system.M.diagonal())
    assert off.nnz == 0 or np.abs(off.data).max() == 0.0


def test_assembled_row_sum_matches_consistent_action(small_grid, small_cache):
    cons = assemble(small_grid, StabilizationParams(alpha=1e-6),
                    cache=small_cache)
    lump = assemble(small_grid, StabilizationParams(alpha=1e-6,
                                                    lumping="row_sum"),
                    cache=small_cache)
    want = cons.M @ np.ones(cons.M.shape[0])
    got = lump.M.diagonal()
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_lumping_leaves_stiffness_alone(small_grid, small_cache):
    cons = assemble(small_grid, StabilizationParams(alpha=1e-6),
                    cache=small_cache)
    lump = assemble(small_grid, StabilizationParams(alpha=1e-6,
                                                    lumping="hrz"),
                    cache=small_cache)
    d = cons.K - lump.K
    assert d.nnz == 0 or np.abs(d.data).max() == 0.0


def test_assembled_evs_only_touches_cut_supported_rows(small_grid, small_cache):
    plain = assemble(small_grid, StabilizationParams(alpha=1e-6),
                     cache=small_cache)
    evs = assemble(small_grid, StabilizationParams(alpha=1e-6, epsilon=1e-4),
                   cache=small_cache)
    d_idx = small_grid.dofmap.d_idx
    diff = (evs.M - plain.M).tocsr()
    d_rows = diff[d_idx]
    assert d_rows.nnz == 0 or np.abs(d_rows.data).max() == 0.0
    # and it does change the cut-supported block
    assert np.abs((evs.M - plain.M).data).max() > 0.0
