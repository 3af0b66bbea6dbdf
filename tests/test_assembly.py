import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from wavecell import assembly
from wavecell.assembly import (
    ElementIntegralCache,
    Grid,
    SourceSpec,
    TensorSystem,
    assemble,
    ricker,
    spatial_load,
)
from wavecell.basis import BasisSpec, gl_rule, gll_rule
from wavecell.geometry import (ElementClass, ImmersedGeometry,
                               octree_partition)
from wavecell.harness import BenchmarkConfig
from wavecell.linalg import factorize
from wavecell.stabilization import (StabilizationParams, evs_stabilize,
                                    hrz_lump)


ORIGIN = (0, 0, 0)


def kron3(a, b, c):
    return np.kron(np.kron(a, b), c)


def octree_points(geom, box, q, max_depth):
    """Reference cut-cell rule, every octree leaf's points listed flat.

    Returns reference coordinates (n, 3), weights (n,) summing to 8, and
    whether each point is inside: the leaf class for inside and outside
    leaves, a per-point test for leaves still cut at ``max_depth``.
    """
    lo, hi = box
    leaves = octree_partition(geom, box, max_depth)
    g = gl_rule(q)
    size = hi - lo
    span = 2.0 ** (1 - leaves.depth[:, None])     # 2^-d of the box
    A = leaves.pos * span - 1.0
    B = A + span
    nodes = A[:, :, None] + (B - A)[:, :, None] * (g.nodes + 1.0) / 2.0
    wts = g.weights * (B - A)[:, :, None] / 2.0          # (L, 3, q)
    # leaf-major, then x, y, z points, z fastest
    X, Y, Z = (nodes[:, 0, :, None, None], nodes[:, 1, None, :, None],
               nodes[:, 2, None, None, :])
    xi = np.stack(np.broadcast_arrays(X, Y, Z), axis=-1).reshape(-1, 3)
    w = (wts[:, 0, :, None, None] * wts[:, 1, None, :, None]
         * wts[:, 2, None, None, :]).ravel()
    cls = np.repeat(leaves.cls, q**3)
    inside = np.where(cls == ElementClass.CUT,
                      geom.contains(lo + (xi + 1.0) / 2.0 * size),
                      cls == ElementClass.INSIDE)
    return xi, w, inside


def point_tables(grid, ijk, xi):
    """Shape functions and their reference gradients at points (n, 3)."""
    V, D = zip(*(grid.spec.eval_element(ijk[d], xi[:, d]) for d in range(3)))
    n = xi.shape[0]
    N = np.einsum("qa,qb,qc->qabc", *V).reshape(n, -1)
    grads = [np.einsum("qa,qb,qc->qabc", *(D[k] if k == d else V[k]
                                           for k in range(3))).reshape(n, -1)
             for d in range(3)]
    return N, grads


def gaussian(source, x_local):
    """The source profile exp(-d^2 / 2 sigma^2), with d the distance to its
    center in local coordinates."""
    d2 = np.sum((np.asarray(x_local) - np.asarray(source.x_local)) ** 2,
                axis=-1)
    return np.exp(-0.5 * d2 / source.sigma**2)


def cut_elements(grid):
    """Cut elements in ``grid.kept`` order, the order of the cache stacks."""
    return [tuple(int(v) for v in ijk) for ijk in grid.kept
            if grid.classes[tuple(ijk)] == ElementClass.CUT]


def bf_grid(family, p, n_e):
    geom = ImmersedGeometry.from_angles(0.3, 0.5, (10.0, 10.0, 10.0))
    return Grid.build(geom, BasisSpec(family=family, p=p, n_e=n_e),
                      boundary_fitted=True)


def test_single_linear_element_closed_form():
    # One trilinear element: mass and stiffness against the textbook
    # Kronecker forms, with nontrivial material constants.
    grid = bf_grid("bspline", 1, 1)
    sys1 = assemble(grid, StabilizationParams(), rho=2.0, c=3.0)
    h = grid.h
    M1 = h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
    K1 = 1.0 / h * np.array([[1.0, -1.0], [-1.0, 1.0]])
    M_exp = 2.0 * kron3(M1, M1, M1)
    K_exp = 2.0 * 9.0 * (kron3(K1, M1, M1) + kron3(M1, K1, M1)
                         + kron3(M1, M1, K1))
    assert np.abs(sys1.M.toarray() - M_exp).max() < 1e-15
    assert np.abs(sys1.K.toarray() - K_exp).max() < 1e-13


def test_uncut_nodal_mass_is_diagonal():
    grid = bf_grid("lagrange", 3, 2)
    system = assemble(grid, StabilizationParams())
    M = system.M
    off = M - sp.diags(M.diagonal())
    assert off.nnz == 0 or np.abs(off.data).max() == 0.0
    assert (M.diagonal() > 0.0).all()


def test_total_mass_boundary_fitted():
    grid = bf_grid("lagrange", 3, 2)
    system = assemble(grid, StabilizationParams(), rho=2.5)
    assert abs(system.M.sum() - 2.5 * 0.3**3) < 1e-12


def test_total_mass_immersed(small_grid, small_cache):
    # alpha = 1e-8 makes the fictitious contribution invisible, so the
    # total mass approaches rho * cube volume (octree resolution limits
    # the match).
    system = assemble(small_grid, StabilizationParams(alpha=1e-8),
                      cache=small_cache)
    assert abs(system.M.sum() - 0.3**3) / 0.3**3 < 1e-3


def test_stiffness_kills_constants(small_grid, small_cache):
    system = assemble(small_grid, StabilizationParams(alpha=1e-6),
                      cache=small_cache)
    n = system.M.shape[0]
    r = np.abs(system.K @ np.ones(n)).max()
    assert r <= 1e-12 * np.abs(system.K.data).max()


def test_global_matrices_symmetric(small_grid, small_cache):
    system = assemble(small_grid, StabilizationParams(alpha=1e-4),
                      cache=small_cache)
    scale_m = np.abs(system.M.data).max()
    scale_k = np.abs(system.K.data).max()
    dM = (system.M - system.M.T)
    dK = (system.K - system.K.T)
    assert dM.nnz == 0 or np.abs(dM.data).max() <= 1e-12 * scale_m
    assert dK.nnz == 0 or np.abs(dK.data).max() <= 1e-12 * scale_k


def test_matrices_affine_in_alpha(small_grid, small_cache):
    a, b = 1e-2, 1e-6
    mid = 0.5 * (a + b)
    sys_a = assemble(small_grid, StabilizationParams(alpha=a), cache=small_cache)
    sys_b = assemble(small_grid, StabilizationParams(alpha=b), cache=small_cache)
    sys_m = assemble(small_grid, StabilizationParams(alpha=mid), cache=small_cache)
    dM = np.abs((0.5 * (sys_a.M + sys_b.M) - sys_m.M).toarray()).max()
    dK = np.abs((0.5 * (sys_a.K + sys_b.K) - sys_m.K).toarray()).max()
    assert dM <= 1e-14 * np.abs(sys_m.M.data).max()
    assert dK <= 1e-14 * np.abs(sys_m.K.data).max()


def element_by_element(grid, cache, params, rho, c):
    """Dense M and K summed element by element in ``grid.kept`` order by
    np.add.at, each element matrix from the formulas of ``assemble``."""
    sm, sk = rho * (grid.h / 2.0) ** 3, rho * c * c * (grid.h / 2.0)
    a = params.alpha
    n = grid.n_dof
    M, K = np.zeros((n, n)), np.zeros((n, n))
    inside = dict(zip(cut_elements(grid), zip(cache.M_in, cache.K_in)))
    w = gll_rule(grid.spec.p).weights
    for ijk in grid.kept:
        M_f, K_f = cache.full_element(ijk)
        key = tuple(int(v) for v in ijk)
        cut = key in inside
        if cut:
            M_in, K_in = inside[key]
            M_e = sm * (M_in + a * (M_f - M_in))
            K_e = sk * (K_in + a * (K_f - K_in))
            if params.epsilon > 0.0:
                M_e = evs_stabilize(M_e, sm * M_f, params.epsilon,
                                    params.f_lambda)
        else:
            M_e, K_e = sm * M_f, sk * K_f
        if not cut and grid.spec.family == "lagrange":
            M_e = np.diag(sm * kron3(w, w, w))
        elif params.lumping == "hrz":
            M_e = np.diag(hrz_lump(M_e))
        d = grid.element_dofs(ijk)
        np.add.at(M, (d[:, None], d[None, :]), M_e)
        np.add.at(K, (d[:, None], d[None, :]), K_e)
    return M, K


@pytest.mark.parametrize("family", ["lagrange", "bspline"])
def test_assemble_returns_canonical_csr(benchmark_geometry, family):
    # int32 indices, sorted and without duplicates or stored zeros, and
    # the element-by-element sum, with and without HRZ lumping and EVS
    grid = Grid.build(benchmark_geometry, BasisSpec(family=family, p=2, n_e=4))
    assert grid.kept_cut.any() and (~grid.kept_cut).any()
    cache = ElementIntegralCache(grid, octree_depth=2)
    for lumping in ("none", "hrz"):
        for epsilon in (0.0, 1e-2):
            params = StabilizationParams(alpha=1e-3, epsilon=epsilon,
                                         lumping=lumping)
            system = assemble(grid, params, rho=1.7, c=0.6, cache=cache)
            refs = element_by_element(grid, cache, params, 1.7, 0.6)
            for A, ref in zip((system.M, system.K), refs):
                assert sp.isspmatrix_csr(A)
                assert A.indices.dtype == A.indptr.dtype == np.int32
                rows = np.repeat(np.arange(grid.n_dof), np.diff(A.indptr))
                step = np.diff(A.indices)[np.diff(rows) == 0]
                assert (step > 0).all()         # sorted, no duplicates
                assert (A.data != 0.0).all()
                assert np.abs(A.toarray() - ref).max() <= (
                    1e-15 * np.abs(ref).max())


def test_to_csr_sums_mixed_blocks_and_drops_cancelled_entries():
    # a diagonal and a dense block of one element; the diagonal entries
    # of DOF 0 cancel and are not stored
    dofs = np.array([[0, 2]], dtype=np.int32)
    A = assembly._to_csr([(dofs, np.array([[1.0, 2.0]])),
                          (dofs, np.array([[[-1.0, 4.0], [4.0, 3.0]]]))], 3)
    assert A.indices.dtype == np.int32
    assert np.array_equal(A.indptr, [0, 1, 1, 3])
    assert np.array_equal(A.indices, [2, 0, 2])
    assert np.array_equal(A.data, [4.0, 4.0, 5.0])


def test_cut_element_against_flat_quadrature_loop(small_grid, small_cache):
    # Independent route: rebuild one cut element and the load vector by
    # looping over the raw octree quadrature points instead of the cached
    # dyadic tables.
    grid = small_grid
    spec = grid.spec
    q = spec.p + 1
    cut = cut_elements(grid)
    e = len(cut) // 2
    ijk = cut[e]
    M_full, K_full = small_cache.full_element(ijk)

    box = grid.element_box(ijk)
    xi, w, inside = octree_points(grid.geom, box, q, small_cache.octree_depth)
    Vx, Dx = spec.eval_element(ijk[0], xi[:, 0])
    Vy, Dy = spec.eval_element(ijk[1], xi[:, 1])
    Vz, Dz = spec.eval_element(ijk[2], xi[:, 2])
    n3 = (spec.p + 1) ** 3
    M_ref = np.zeros((n3, n3))
    K_ref = np.zeros((n3, n3))
    Mf_ref = np.zeros((n3, n3))
    Kf_ref = np.zeros((n3, n3))
    for i in range(len(w)):
        N = (Vx[i][:, None, None] * Vy[i][None, :, None]
             * Vz[i][None, None, :]).ravel()
        gx = (Dx[i][:, None, None] * Vy[i][None, :, None]
              * Vz[i][None, None, :]).ravel()
        gy = (Vx[i][:, None, None] * Dy[i][None, :, None]
              * Vz[i][None, None, :]).ravel()
        gz = (Vx[i][:, None, None] * Vy[i][None, :, None]
              * Dz[i][None, None, :]).ravel()
        m_q = np.outer(N, N) * w[i]
        k_q = (np.outer(gx, gx) + np.outer(gy, gy) + np.outer(gz, gz)) * w[i]
        if inside[i]:
            M_ref += m_q
            K_ref += k_q
        Mf_ref += m_q
        Kf_ref += k_q
    for got, want in ((small_cache.M_in[e], M_ref),
                      (small_cache.K_in[e], K_ref),
                      (M_full, Mf_ref), (K_full, Kf_ref)):
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-30)

    # Load vector: every element within 14 sigma of the source, cut ones
    # near the source included.
    alpha, rho = 1e-3, 1.7
    source = BenchmarkConfig(l_p=0.3).source()
    src = grid.geom.to_global(np.asarray(source.x_local))
    F_ref = np.zeros(grid.n_dof)
    near_cut = 0
    for ijk in grid.kept:
        lo, hi = box = grid.element_box(ijk)
        if np.linalg.norm(np.clip(src, lo, hi) - src) > 14.0 * source.sigma:
            continue
        near_cut += int(grid.classes[tuple(ijk)] == ElementClass.CUT)
        xi, w, inside = octree_points(grid.geom, box, q, small_cache.octree_depth)
        x = lo + (xi + 1.0) / 2.0 * (hi - lo)
        f = gaussian(source, grid.geom.to_local(x))
        N, _ = point_tables(grid, ijk, xi)
        weights = rho * (grid.h / 2.0) ** 3 * w * np.where(inside, 1.0, alpha) * f
        np.add.at(F_ref, grid.element_dofs(ijk), N.T @ weights)
    assert near_cut > 0
    F = spatial_load(grid, source, alpha=alpha, rho=rho,
                     octree_depth=small_cache.octree_depth)
    assert np.abs(F - F_ref).max() <= 1e-12 * np.abs(F_ref).max()


def test_cut_element_parts_sum_to_uncut_element(small_grid, small_cache):
    # The cache stores only the inside part; the fictitious part integrated
    # on the outside points of the same octree must complete it to the
    # exact uncut element (q = p+1 points per leaf are exact).
    grid = small_grid
    q = grid.spec.p + 1
    g = gl_rule(q)
    for e, ijk in enumerate(cut_elements(grid)):
        ones = [grid.spec.eval_element(f, g.nodes) for f in ijk]
        m1 = [(V * g.weights[:, None]).T @ V for V, _ in ones]
        k1 = [(D * g.weights[:, None]).T @ D for _, D in ones]
        M_uncut = kron3(*m1)
        K_uncut = (kron3(k1[0], m1[1], m1[2]) + kron3(m1[0], k1[1], m1[2])
                   + kron3(m1[0], m1[1], k1[2]))
        xi, w, inside = octree_points(grid.geom, grid.element_box(ijk), q,
                                      small_cache.octree_depth)
        N, grads = point_tables(grid, ijk, xi)
        w_out = np.where(inside, 0.0, w)[:, None]
        M_fict = (N * w_out).T @ N
        K_fict = sum((G * w_out).T @ G for G in grads)
        for part, fict, uncut in ((small_cache.M_in[e], M_fict, M_uncut),
                                  (small_cache.K_in[e], K_fict, K_uncut)):
            assert np.abs(part + fict - uncut).max() <= 1e-13 * np.abs(uncut).max()


def test_cut_element_fictitious_mass_total(small_grid, small_cache):
    # indicator of one everywhere: every kept element, cut ones included,
    # carries mass rho * element volume
    system = assemble(small_grid, StabilizationParams(alpha=1.0), rho=2.0,
                      cache=small_cache)
    h3 = small_grid.h**3
    assert abs(system.M.sum() - 2.0 * small_grid.n_kept * h3) <= 1e-9 * h3


def inside_part_by_points(grid, ijk, depth):
    """Inside part (M, K) of cut element ``ijk`` summed point by point over
    the flat octree rule: w N N^T and w G G^T over the inside points."""
    xi, w, inside = octree_points(grid.geom, grid.element_box(ijk),
                                  grid.spec.p + 1, depth)
    N, grads = point_tables(grid, ijk, xi)
    w_in = np.where(inside, w, 0.0)[:, None]
    return (N * w_in).T @ N, sum((G * w_in).T @ G for G in grads)


def one_cut_element(geom, box, family, p):
    """Grid whose only element is the cube ``box`` = (lo, hi), classified
    cut."""
    lo, hi = box
    return Grid(geom=geom, spec=BasisSpec(family=family, p=p, n_e=1),
                boundary_fitted=False, origin=lo, h=float(hi[0] - lo[0]),
                classes=np.full((1, 1, 1), ElementClass.CUT, dtype=np.int8),
                kept=np.zeros((1, 3), dtype=int))


@pytest.mark.parametrize(
    "family, p, depth",
    [(f, p, d) for f, p in (("lagrange", 1), ("lagrange", 2), ("lagrange", 3),
                            ("bspline", 2)) for d in range(4)]
    + [("lagrange", 3, 4)] + [("bspline", 3, d) for d in range(5)])
def test_cut_kernel_against_point_sum(benchmark_geometry, family, p, depth):
    # The inside part of every cut element, summed on the lattices of
    # maximum-depth cells and of their Gauss points, against the sum over
    # the flat list of quadrature points.  At depth 0 every element is a
    # single leaf still cut at maximum depth, so only pointwise leaves.
    grid = Grid.build(benchmark_geometry,
                      BasisSpec(family=family, p=p, n_e=4))
    cache = ElementIntegralCache(grid, octree_depth=depth)
    for e, ijk in enumerate(cut_elements(grid)):
        M_ref, K_ref = inside_part_by_points(grid, ijk, depth)
        for got, want in ((cache.M_in[e], M_ref), (cache.K_in[e], K_ref)):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    # Only inside leaves: an inside box that is classified cut stays one
    # inside leaf, and its inside part is the whole element.
    geom = ImmersedGeometry.from_angles(0.3, 0.5, (0.0, 0.0, 0.0))
    box = (np.full(3, 0.24), np.full(3, 0.26))
    one = one_cut_element(geom, box, family, p)
    assert (octree_partition(geom, box, depth).cls == ElementClass.INSIDE).all()
    cache = ElementIntegralCache(one, octree_depth=depth)
    M_ref, K_ref = inside_part_by_points(one, ORIGIN, depth)
    for got, want in ((cache.M_in[0], M_ref), (cache.K_in[0], K_ref)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    # Pointwise leaves whose points are all outside: the box overlaps the
    # cube (face x = 0.4) in a slab thinner than the distance from a leaf
    # face to its first Gauss point, so the inside part is exactly zero.
    box = (np.array([0.3998, 0.2, 0.2]), np.array([0.4998, 0.3, 0.3]))
    one = one_cut_element(geom, box, family, p)
    assert (octree_partition(geom, box, depth).cls == ElementClass.CUT).any()
    _, _, inside = octree_points(geom, box, p + 1, depth)
    assert not inside.any()
    cache = ElementIntegralCache(one, octree_depth=depth)
    assert not cache.M_in.any() and not cache.K_in.any()


@pytest.mark.parametrize("family, p, depth", [("lagrange", 3, 3),
                                              ("bspline", 2, 2)])
def test_cache_chunks_change_no_element(benchmark_geometry, monkeypatch,
                                        family, p, depth):
    # One element per chunk, then every element in one chunk: the B-spline
    # chunks then mix boundary signatures, so both z paths run.
    grid = Grid.build(benchmark_geometry, BasisSpec(family=family, p=p, n_e=4))
    caches = []
    for budget in (1, 2**62):
        monkeypatch.setattr(assembly, "_LATTICE_CHUNK_BYTES", budget)
        caches.append(ElementIntegralCache(grid, octree_depth=depth))
    one, whole = caches
    for A, B in ((one.M_in, whole.M_in), (one.K_in, whole.K_in)):
        scale = np.abs(A).max(axis=(1, 2))
        assert scale.any()
        assert (np.abs(A - B).max(axis=(1, 2)) <= 1e-14 * scale).all()


@pytest.mark.parametrize("family, n_e, p", [("bspline", 5, 2),
                                            ("lagrange", 3, 3)])
def test_full_element_equals_kronecker_build(family, n_e, p):
    # Every element of a B-spline p=2, n_e=5 grid has its own boundary
    # signature; each full element against np.kron of the 1D Gauss
    # matrices of the whole element, and the batch of all elements, of
    # shape (n_e, n_e, n_e, 3), against the single-element calls.
    grid = bf_grid(family, p, n_e)
    cache = ElementIntegralCache(grid, octree_depth=2)
    g = gl_rule(p + 1)
    M_all, K_all = cache.full_element(np.moveaxis(np.indices((n_e,) * 3), 0, -1))
    for ijk in np.ndindex(n_e, n_e, n_e):
        V, D = zip(*(grid.spec.eval_element(e, g.nodes) for e in ijk))
        m = [(A * g.weights[:, None]).T @ A for A in V]
        k = [(A * g.weights[:, None]).T @ A for A in D]
        M_ref = kron3(*m)
        K_ref = (kron3(k[0], m[1], m[2]) + kron3(m[0], k[1], m[2])
                 + kron3(m[0], m[1], k[2]))
        M, K = cache.full_element(ijk)
        assert M_all[ijk].tobytes() == M.tobytes()
        assert K_all[ijk].tobytes() == K.tobytes()
        for got, want in ((M, M_ref), (K, K_ref)):
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
        assert np.abs(K.sum(axis=1)).max() <= 1e-14 * np.abs(K).sum(axis=1).max()


def test_cache_build_memory():
    # The traced peak of a build at Lagrange p3n6 depth 3 was 15.38 MB
    # before the lattice integration (the octree partition dominates it);
    # the lattice chunks may not raise it by more than 10%.
    geom = ImmersedGeometry.from_angles(0.3, 0.5, (10.0, 10.0, 10.0))
    grid = Grid.build(geom, BasisSpec(family="lagrange", p=3, n_e=6))
    grid.dofmap
    ElementIntegralCache(grid, octree_depth=3)   # memoized rules built
    tracemalloc.start()
    try:
        ElementIntegralCache(grid, octree_depth=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 15.38e6


def test_assemble_memory():
    # The traced peak of assemble on a cache at Lagrange p3n6 depth 3 was
    # 33.2 MB with int64 triplets, their concatenated copies and the
    # cut-element combinations as temporaries; int32 triplets written
    # once, stacks combined in place and freed before the compressed rows
    # are built gave 17.0 MB.
    geom = ImmersedGeometry.from_angles(0.3, 0.5, (10.0, 10.0, 10.0))
    grid = Grid.build(geom, BasisSpec(family="lagrange", p=3, n_e=6))
    cache = ElementIntegralCache(grid, octree_depth=3)
    params = StabilizationParams(alpha=1e-8)
    assemble(grid, params, cache=cache, source=None)
    tracemalloc.start()
    try:
        system = assemble(grid, params, cache=cache, source=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 17.0e6
    # no idle triplet-sized buffers: M and K hold exactly their nnz slots
    for A in (system.M, system.K):
        for buf in (A.data, A.indices):
            assert (buf if buf.base is None else buf.base).size == A.nnz


def test_cache_builds_are_bit_identical(benchmark_geometry):
    # same grid, same bits: the benchmark compares runs bit for bit
    grid = Grid.build(benchmark_geometry,
                      BasisSpec(family="lagrange", p=3, n_e=4))
    a, b = (ElementIntegralCache(grid, octree_depth=3) for _ in range(2))
    assert a.M_in.tobytes() == b.M_in.tobytes()
    assert a.K_in.tobytes() == b.K_in.tobytes()


@pytest.mark.parametrize("alpha", [1e-8, 0.3, 1.0])
def test_total_mass_is_indicator_weighted_volume(small_grid, small_cache,
                                                 alpha):
    # M sums to rho (V_in + alpha (V_kept - V_in)): V_in is h^3 per uncut
    # element plus (h/2)^3 times the cache's inside parts, V_kept is h^3
    # per kept element
    rho, h = 1.7, small_grid.h
    n_uncut = small_grid.n_kept - small_cache.M_in.shape[0]
    v_in = h**3 * n_uncut + (h / 2.0) ** 3 * small_cache.M_in.sum()
    v_kept = h**3 * small_grid.n_kept
    system = assemble(small_grid, StabilizationParams(alpha=alpha), rho=rho,
                      cache=small_cache)
    mass = rho * (v_in + alpha * (v_kept - v_in))
    assert abs(system.M.sum() - mass) <= 1e-12 * mass


def test_spatial_load_on_cache_leaves_is_bitwise_equal(small_grid,
                                                       small_cache):
    # A given cache and the one the load builds without it give the same
    # bits, also inside assemble.
    source = BenchmarkConfig(l_p=0.3).source()
    depth = small_cache.octree_depth
    fresh = spatial_load(small_grid, source, alpha=1e-3, rho=1.7,
                         octree_depth=depth)
    cached = spatial_load(small_grid, source, alpha=1e-3, rho=1.7,
                          octree_depth=depth, cache=small_cache)
    assert np.abs(fresh).max() > 0.0
    assert cached.tobytes() == fresh.tobytes()
    system = assemble(small_grid, StabilizationParams(alpha=1e-3), rho=1.7,
                      source=source, cache=small_cache)
    assert system.F_s.tobytes() == fresh.tobytes()
    with pytest.raises(ValueError, match="octree depth"):
        spatial_load(small_grid, source, alpha=1e-3, octree_depth=depth + 1,
                     cache=small_cache)


def test_spatial_load_q_is_only_p_plus_1(small_grid, small_cache):
    # The load integrates with the cache's q = p+1 tables: q may restate
    # that value and nothing else.
    source = BenchmarkConfig(l_p=0.3).source()
    p = small_grid.spec.p
    depth = small_cache.octree_depth
    plain = spatial_load(small_grid, source, alpha=1e-3, octree_depth=depth,
                         cache=small_cache)
    same = spatial_load(small_grid, source, alpha=1e-3, octree_depth=depth,
                        q=p + 1, cache=small_cache)
    assert same.tobytes() == plain.tobytes()
    with pytest.raises(ValueError, match="p\\+1"):
        spatial_load(small_grid, source, alpha=1e-3, octree_depth=depth,
                     q=p + 2, cache=small_cache)


def reference_leaf_ids(leaves):
    """Flat dyadic interval ids (L, 3) of octree leaves: the 2^d intervals
    of depth d follow the 2^d - 1 of the shallower depths."""
    return (2 ** leaves.depth - 1)[:, None] + leaves.pos


def source_in_grid_frame(grid, source):
    src = np.asarray(source.x_local, dtype=float)
    return src if grid.boundary_fitted else grid.geom.to_global(src)


def near_leaves(grid, source, max_depth):
    """Per kept element within 14 sigma of ``source``, in order: the
    element, its box and its leaves' depths, positions and classes, an
    uncut element as one depth-0 inside leaf, a cut one by its own
    partition."""
    src = source_in_grid_frame(grid, source)
    for ijk, cut in zip(grid.kept, grid.kept_cut):
        box = grid.element_box(ijk)
        if np.linalg.norm(np.clip(src, *box) - src) > 14.0 * source.sigma:
            continue
        depth, pos = np.zeros(1, dtype=int), np.zeros((1, 3), dtype=int)
        cls = np.array([ElementClass.INSIDE])
        if cut:
            leaves = octree_partition(grid.geom, box, max_depth)
            depth, pos, cls = leaves.depth, leaves.pos, leaves.cls
        yield ijk, box, depth, pos, cls


def leaf_rule(grid, ijk, box, depth, pos):
    """The q = p+1 Gauss rule on the leaves of element ``ijk`` with corners
    ``box`` at depths ``depth`` (L,) and positions ``pos`` (L, 3): the
    grid-frame points (L, q, q, q, 3), the reference weights (L, q, q, q)
    and the basis values (L, q, p+1) per direction."""
    lo, hi = box
    g = gl_rule(grid.spec.p + 1)
    size = 2.0 ** (1 - depth)[:, None, None]           # reference length
    xi = (pos * size[:, 0] - 1.0)[:, :, None] + (g.nodes + 1.0) / 2.0 * size
    x = lo[:, None] + (xi + 1.0) / 2.0 * (hi - lo)[:, None]     # (L, 3, q)
    x = np.stack(np.broadcast_arrays(x[:, 0, :, None, None],
                                     x[:, 1, None, :, None],
                                     x[:, 2, None, None, :]), axis=-1)
    w1 = g.weights * size[:, 0] / 2.0                   # (L, q)
    w = np.einsum("lq,lr,ls->lqrs", w1, w1, w1)
    V = [grid.spec.eval_element(e, xi[:, d])[0] for d, e in enumerate(ijk)]
    return x, w, V


def reference_load(grid, source, alpha, depth, rho):
    """The load element by element: the radial Gaussian at every point,
    and every point classified against the cube, whatever its leaf class
    (on a boundary-fitted grid every point is inside)."""
    src = source_in_grid_frame(grid, source)
    F = np.zeros(grid.n_dof)
    for ijk, box, d, pos, _ in near_leaves(grid, source, depth):
        x, w, V = leaf_rule(grid, ijk, box, d, pos)
        inside = grid.boundary_fitted | grid.geom.contains(x)
        a_fcm = np.where(inside, 1.0, alpha)
        f = np.exp(-0.5 * np.sum((x - src) ** 2, axis=-1) / source.sigma**2)
        weights = rho * (grid.h / 2.0) ** 3 * w * a_fcm * f
        F_el = np.einsum("lqrs,lqa,lrb,lsc->abc", weights, *V,
                         optimize=True).ravel()
        np.add.at(F, grid.element_dofs(ijk), F_el)
    return F


def assert_close_to_reference(grid, source, depth, **kwargs):
    """The load of ``spatial_load`` within 1e-14 of its largest entry of
    ``reference_load``; returns it.  The two differ in rounding only: the
    load multiplies three 1D Gaussian factors per point and sums in
    another order."""
    want = reference_load(grid, source, 1e-3, depth, rho=1.7)
    got = spatial_load(grid, source, alpha=1e-3, rho=1.7, octree_depth=depth,
                       **kwargs)
    assert np.abs(want).max() > 0.0
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    return got


LOAD_CASES = [("lagrange", 2, 2), ("lagrange", 3, 3), ("bspline", 2, 2),
              ("bspline", 3, 3)]


@pytest.mark.parametrize("family,p,depth", LOAD_CASES)
def test_spatial_load_indicator_from_leaf_classes(benchmark_geometry, family,
                                                  p, depth):
    # The load takes the indicator of inside and outside leaves from their
    # class: every Gauss point of an inside leaf of a near element lies in
    # the cube and every one of an outside leaf does not.
    grid = Grid.build(benchmark_geometry, BasisSpec(family=family, p=p, n_e=4))
    seen = set()
    for ijk, box, d, pos, cls in near_leaves(
            grid, BenchmarkConfig(l_p=0.3).source(), depth):
        inside = grid.geom.contains(leaf_rule(grid, ijk, box, d, pos)[0])
        assert inside[cls == ElementClass.INSIDE].all()
        assert not inside[cls == ElementClass.OUTSIDE].any()
        seen.update(int(c) for c in cls)
    assert seen == {ElementClass.INSIDE, ElementClass.OUTSIDE, ElementClass.CUT}


@pytest.mark.parametrize("family,p,depth", LOAD_CASES)
def test_spatial_load_against_reference(benchmark_geometry, family, p, depth):
    grid = Grid.build(benchmark_geometry, BasisSpec(family=family, p=p, n_e=4))
    source = BenchmarkConfig(l_p=0.3).source()
    cache = ElementIntegralCache(grid, octree_depth=depth)
    fresh = assert_close_to_reference(grid, source, depth)
    cached = assert_close_to_reference(grid, source, depth, cache=cache)
    assert cached.tobytes() == fresh.tobytes()


BF_SOURCE = SourceSpec(x_local=(0.02, -0.01, 0.0), sigma=0.05)


def test_spatial_load_indicator_boundary_fitted():
    # A fitted grid has no cut element, so its cache holds no leaf and the
    # load classifies no point: every near element is one inside leaf.
    grid = bf_grid("lagrange", 3, 4)
    assert not grid.kept_cut.any()
    for depth in (0, 2, 3):
        cache = ElementIntegralCache(grid, octree_depth=depth)
        assert cache.M_in.shape[0] == 0
        assert [a.shape[0] for a in cache._leaves] == [0, 0, 0]


def test_spatial_load_boundary_fitted_against_reference():
    assert_close_to_reference(bf_grid("lagrange", 3, 4), BF_SOURCE, 2)


@pytest.mark.parametrize("family", ["lagrange", "bspline"])
def test_spatial_load_without_cut_elements_uses_depth_zero_tables(
        benchmark_geometry, family):
    # The cache of an uncut grid holds only the depth-0 interval, and the
    # load on it gives the bits of the full-depth tables of an immersed
    # grid with the same basis.
    grid = bf_grid(family, 3, 4)
    source = BenchmarkConfig(l_p=0.3).source()
    cache = ElementIntegralCache(grid, octree_depth=3)
    assert cache.octree_depth == 3
    assert cache._xi.shape[0] == 1
    load = spatial_load(grid, source, alpha=1e-3, rho=1.7, octree_depth=3,
                        cache=cache)
    deep = ElementIntegralCache(Grid.build(benchmark_geometry, grid.spec),
                                octree_depth=3)
    assert deep._xi.shape[0] == 15
    for table in ("_xi", "_w", "_V"):
        setattr(cache, table, getattr(deep, table))
    full = spatial_load(grid, source, alpha=1e-3, rho=1.7, octree_depth=3,
                        cache=cache)
    assert np.abs(load).max() > 0.0
    assert load.tobytes() == full.tobytes()


RANDOM_ROTATION_SOURCE = SourceSpec(x_local=(-0.15, 0.05, 0.0), sigma=0.03)


def random_rotation_grid(family, seed, n_e):
    """Seeded random rotation of the benchmark cube, p = 2; the angles too."""
    angles = np.random.default_rng(seed).uniform(-180.0, 180.0, 3)
    geom = ImmersedGeometry.from_angles(0.3, 0.5, angles)
    return Grid.build(geom, BasisSpec(family=family, p=2, n_e=n_e)), angles


@pytest.mark.parametrize("family", ["lagrange", "bspline"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spatial_load_chunks_change_no_bit(monkeypatch, family, seed):
    # Every element alone and every element in one chunk give the load of
    # the default budget to the bit, with and without a cache, on seeded
    # random rotations; a wider source reaches most elements.
    grid, _ = random_rotation_grid(family, seed, 4)
    source = RANDOM_ROTATION_SOURCE
    cache = ElementIntegralCache(grid, octree_depth=2)
    default = assert_close_to_reference(grid, source, 2)
    for budget in (1, 2**62):
        monkeypatch.setattr(assembly, "_LATTICE_CHUNK_BYTES", budget)
        for kwargs in ({}, {"cache": cache}):
            got = spatial_load(grid, source, alpha=1e-3, rho=1.7,
                               octree_depth=2, **kwargs)
            assert got.tobytes() == default.tobytes()


def test_spatial_load_memory():
    # The traced peak of the load on a cache at Lagrange p3n6 depth 3 was
    # 2.31 MB element by element, 2.51 MB in chunks and 18.4 MB in one
    # batch.
    geom = ImmersedGeometry.from_angles(0.3, 0.5, (10.0, 10.0, 10.0))
    grid = Grid.build(geom, BasisSpec(family="lagrange", p=3, n_e=6))
    cache = ElementIntegralCache(grid, octree_depth=3)
    source = BenchmarkConfig().source()
    spatial_load(grid, source, alpha=1e-8, octree_depth=3, cache=cache)
    tracemalloc.start()
    try:
        spatial_load(grid, source, alpha=1e-8, octree_depth=3, cache=cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 2.50e6


def test_cache_keeps_classes_of_batched_leaves(small_grid, small_cache):
    # per cut element, its slice of the flat leaves is the leaves of its
    # own octree partition in order
    depth = small_cache.octree_depth
    cut = small_grid.kept[small_grid.kept_cut]
    owner, ids, cls = small_cache._leaves
    assert owner.shape == cls.shape == ids.shape[:1]
    assert np.array_equal(np.unique(owner), np.arange(len(cut)))
    assert (np.diff(owner) >= 0).all()
    for e, ijk in enumerate(cut):
        box = small_grid.element_box(ijk)
        leaves = octree_partition(small_grid.geom, box, depth)
        assert np.array_equal(cls[owner == e], leaves.cls)
        assert np.array_equal(ids[owner == e], reference_leaf_ids(leaves))


def test_cd_partition_matches_support_scan(small_grid):
    dofmap = small_grid.dofmap
    on_cut = set()
    for ijk in cut_elements(small_grid):
        on_cut.update(int(d) for d in small_grid.element_dofs(ijk))
    assert np.array_equal(np.sort(dofmap.c_idx), np.array(sorted(on_cut)))
    both = np.concatenate([dofmap.c_idx, dofmap.d_idx])
    assert np.array_equal(np.sort(both), np.arange(dofmap.n_dof))


@pytest.mark.parametrize("family", ["lagrange", "bspline"])
def test_element_dofs_match_loop_reference(benchmark_geometry, family):
    # the element-DOF table against the layout written out element by
    # element: first function e p (Lagrange) or e (B-splines), z fastest
    p = 2
    grid = Grid.build(benchmark_geometry, BasisSpec(family=family, p=p, n_e=4))
    n1 = grid.spec.n_funcs_1d
    stride = p if family == "lagrange" else 1
    table = grid.element_dofs(grid.kept)
    assert table.shape == (grid.n_kept, (p + 1) ** 3)
    assert table.dtype == np.int32
    for row, ijk in zip(table, grid.kept):
        lex = [((ijk[0] * stride + a) * n1 + ijk[1] * stride + b) * n1
               + ijk[2] * stride + c
               for a in range(p + 1) for b in range(p + 1) for c in range(p + 1)]
        assert np.array_equal(row, grid.dofmap.compact_of_lex[lex])
        assert (row >= 0).all()


def test_dofmap_round_trip(small_grid):
    dofmap = small_grid.dofmap
    assert np.array_equal(dofmap.compact_of_lex[dofmap.lex_of_compact],
                          np.arange(dofmap.n_dof))
    assert small_grid.n_dof == dofmap.n_dof


def test_boundary_fitted_dof_count():
    assert bf_grid("lagrange", 3, 10).n_dof == 31**3


def nine_contraction_k(tensor, x):
    """Reference stiffness: each Kronecker term as three 1D contractions."""
    n1 = tensor.m1.shape[0]
    P = x.reshape(n1, n1, n1)
    m, k = tensor.m1, tensor.k1
    t = sum(np.einsum("ia,jb,kc,abc->ijk", *f, P, optimize=True)
            for f in ((k, m, m), (m, k, m), (m, m, k)))
    return tensor.rho * tensor.c ** 2 * t.ravel()


@pytest.mark.parametrize("p, rho, c", [(2, 1.3, 0.7), (3, 0.6, 2.5)])
def test_tensor_operators_match_assembly(p, rho, c):
    grid = bf_grid("lagrange", p, 3)
    tensor = TensorSystem(grid, rho=rho, c=c)
    system = assemble(grid, StabilizationParams(), rho=rho, c=c)
    dM = np.abs((tensor.mass_matrix() - system.M).toarray()).max()
    assert dM <= 1e-14 * np.abs(system.M.data).max()
    rng = np.random.default_rng(3)
    x = rng.standard_normal(system.M.shape[0])
    want = system.K @ x
    assert np.abs(tensor.k_matvec(x) - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("p, n_e", [(1, 1), (1, 4), (2, 1), (2, 3), (3, 3),
                                    (4, 5), (6, 2), (6, 6)])
def test_tensor_k_matvec_matches_nine_contractions(p, n_e):
    tensor = TensorSystem(bf_grid("lagrange", p, n_e), rho=1.3, c=0.7)
    n = tensor.n_dof
    x = np.random.default_rng(p).standard_normal(n)
    x_copy = x.copy()
    want = nine_contraction_k(tensor, x)
    # without out: a fresh array that owns its memory, so it aliases
    # neither the workspace nor an earlier result
    got = tensor.k_matvec(x)
    again = tensor.k_matvec(x)
    assert got.base is None and again.base is None
    assert not np.shares_memory(got, again)
    assert np.array_equal(got, again)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    # with out: the same bits, written into out and returned
    out = np.full(n, np.nan)
    assert tensor.k_matvec(x, out=out) is out
    assert np.array_equal(out, got)
    assert np.array_equal(x, x_copy)
    with pytest.raises(ValueError, match="contiguous"):
        tensor.k_matvec(x, out=np.empty(2 * n)[::2])


def test_tensor_k_matvec_invariants():
    tensor = TensorSystem(bf_grid("lagrange", 3, 3), rho=1.3, c=0.7)
    n = tensor.n_dof
    rng = np.random.default_rng(11)
    x, y = rng.standard_normal((2, n))
    # K 1 = 0, relative to the infinity norm of K
    norm = (tensor.rho * tensor.c ** 2 * np.linalg.norm(tensor.k1, np.inf)
            * np.linalg.norm(tensor.m1, np.inf) ** 2)
    assert np.abs(tensor.k_matvec(np.ones(n))).max() <= 1e-14 * norm
    # symmetry
    kx = tensor.k_matvec(x)
    ky = tensor.k_matvec(y)
    assert abs(y @ kx - x @ ky) <= 1e-13 * np.linalg.norm(kx) * np.linalg.norm(y)
    # repeatable, the input untouched, and no aliasing of the workspace
    x_copy = x.copy()
    first = tensor.k_matvec(x)
    assert np.array_equal(x, x_copy)
    first_copy = first.copy()
    first[:] = np.nan
    second = tensor.k_matvec(x)
    assert np.array_equal(second, first_copy)
    assert not np.shares_memory(second, first)


def test_tensor_newmark_factorization_residual():
    grid = bf_grid("lagrange", 3, 3)
    tensor = TensorSystem(grid)
    beta, dt = 0.25, 2e-3
    fact = tensor.newmark_factorization(beta, dt)
    assert fact.n == tensor.n_dof
    rng = np.random.default_rng(7)
    b = rng.standard_normal(tensor.n_dof)
    x = fact.solve(b)
    r = tensor.mass_matrix() @ x + beta * dt * dt * tensor.k_matvec(x) - b
    assert np.linalg.norm(r) <= 1e-11 * np.linalg.norm(b)


def test_tensor_system_rejects_cut_grids(small_grid):
    with pytest.raises(ValueError):
        TensorSystem(small_grid)


def test_tensor_system_rejects_bspline_grids():
    # boundary-fitted B-spline runs go through assemble
    with pytest.raises(ValueError, match="Lagrange"):
        TensorSystem(bf_grid("bspline", 2, 3))


def test_spatial_load_total():
    # Gaussian well inside the cube: the load sums to rho * its integral
    grid = bf_grid("lagrange", 3, 10)
    sigma = 0.05
    F = spatial_load(grid, SourceSpec(x_local=(0.0, 0.0, 0.0), sigma=sigma),
                     alpha=1e-12, rho=2.0)
    target = 2.0 * (2.0 * np.pi) ** 1.5 * sigma**3
    assert abs(F.sum() - target) / target < 0.02


def test_spatial_load_symmetry():
    grid = bf_grid("lagrange", 2, 4)
    F = spatial_load(grid, SourceSpec(x_local=(0.0, 0.0, 0.0), sigma=0.05),
                     alpha=1e-12)
    n1 = grid.spec.n_funcs_1d
    F3 = F.reshape(n1, n1, n1)
    tol = 1e-12 * F.max()
    for axis in range(3):
        assert np.abs(F3 - np.flip(F3, axis)).max() <= tol
    assert np.abs(F3 - np.transpose(F3, (1, 0, 2))).max() <= tol
    assert np.abs(F3 - np.transpose(F3, (2, 1, 0))).max() <= tol


def test_ricker_wavelet_values():
    f_e = 10.0
    t_s = 2.0 * np.sqrt(6.0) / (np.pi * f_e)
    assert ricker(t_s, f_e) == pytest.approx(1.0, abs=1e-15)
    t1 = t_s + 1.0 / (np.pi * f_e)
    assert ricker(t1, f_e) == pytest.approx(-np.exp(-1.0), abs=1e-12)
    assert abs(ricker(0.0, f_e)) < 0.01
    out = ricker(np.array([0.0, t_s, t1]), f_e)
    assert out.shape == (3,)


def test_spatial_load_gaussian_values():
    # One trilinear element centered on the local origin against the
    # 2-point Gauss-Legendre rule per axis (nodes +-1/sqrt(3), weights 1):
    # node (a, b, c) gets rho (h/2)^3 sum over the points of the Gaussian
    # times N_a N_b N_c.
    grid = bf_grid("lagrange", 1, 1)
    xi = np.array([-1.0, 1.0]) / np.sqrt(3.0)
    N = np.array([(1.0 - xi) / 2.0, (1.0 + xi) / 2.0])    # (node, point)
    x = np.stack(np.meshgrid(xi, xi, xi, indexing="ij"), axis=-1) * grid.h / 2.0
    for x_src in ((0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (0.0, 2.0, 0.0)):
        source = SourceSpec(x_local=x_src, sigma=2.0)
        F = spatial_load(grid, source, alpha=1.0, rho=1.7)
        want = 1.7 * (grid.h / 2.0) ** 3 * np.einsum(
            "ijk,ai,bj,ck->abc", gaussian(source, x), N, N, N)
        got = F[grid.element_dofs(np.zeros(3, dtype=int))].reshape(2, 2, 2)
        assert got == pytest.approx(want, rel=1e-14)
    assert gaussian(source, np.zeros(3)) == pytest.approx(np.exp(-0.5))


def test_benchmark_source_placement():
    src = BenchmarkConfig(l_p=0.3).source()
    assert src.x_local == (-0.15, 0.0, 0.0)
    assert src.sigma == 0.01


@pytest.mark.parametrize("angles", [(0.0, 45.0, 45.0)] + [
    tuple(np.random.default_rng(seed).uniform(-180.0, 180.0, 3))
    for seed in (6, 7)])
def test_grid_rejects_cube_sticking_out_of_extended_domain(angles):
    # l_p sqrt(3) / 2 > l_e / 2, so these rotations turn part of the cube
    # out of [0, l_e]^3, where no immersed element could hold it.
    spec = BasisSpec(family="lagrange", p=1, n_e=4)
    geom = ImmersedGeometry.from_angles(0.3, 0.5, angles)
    over = (0.15 * np.abs(geom.rotation).sum(axis=1) - 0.25).max()
    assert over > 0.0
    with pytest.raises(ValueError, match=f"sticks out .* by {over:.3g}"):
        Grid.build(geom, spec)
    # a boundary-fitted grid covers the cube itself, and a smaller cube fits
    assert Grid.build(geom, spec, boundary_fitted=True).n_kept == 64
    Grid.build(ImmersedGeometry.from_angles(0.28, 0.5, angles), spec)


def assert_symmetric(A):
    d = A - A.T
    assert d.nnz == 0 or np.abs(d.data).max() <= 1e-14 * np.abs(A.data).max()


def assert_assembly_invariants(grid, angles, depth=2):
    """At octree depth ``depth``: symmetry, K 1 = 0, a factorizable mass
    and the mass totals, also with eigenvalue stabilization or HRZ lumping;
    the c/d partition, and the grid unchanged by quarter turns."""
    cache = ElementIntegralCache(grid, octree_depth=depth)
    system = assemble(grid, StabilizationParams(alpha=1e-8), cache=cache)
    for A in (system.M, system.K):
        assert_symmetric(A)
    K_inf = np.abs(system.K).sum(axis=1).max()
    assert np.abs(system.K @ np.ones(grid.n_dof)).max() <= 1e-12 * K_inf
    factorize(system.M)
    evs = assemble(grid, StabilizationParams(alpha=1e-8, epsilon=1e-4),
                   cache=cache)
    assert_symmetric(evs.M)
    factorize(evs.M)
    hrz = assemble(grid, StabilizationParams(alpha=1e-4, lumping="hrz"),
                   cache=cache)
    assert_symmetric(hrz.M)
    # indicator one everywhere: every kept element carries rho h^3, also
    # after HRZ lumping, which preserves each element's total
    rho = 1.7
    mass = rho * grid.h**3 * grid.n_kept
    for lumping in ("none", "hrz"):
        full = assemble(grid, StabilizationParams(alpha=1.0, lumping=lumping),
                        rho=rho, cache=cache)
        assert abs(full.M.sum() - mass) <= 1e-12 * mass
    # indicator ~0 outside: the total approaches rho l_p^3 as far as the
    # octree resolves the cube
    phys = assemble(grid, StabilizationParams(alpha=1e-12), rho=rho,
                    cache=cache)
    error = abs(phys.M.sum() / (rho * grid.geom.l_p**3) - 1.0)
    assert error <= PHYSICAL_MASS_BOUND[depth]
    dofmap = grid.dofmap
    both = np.concatenate([dofmap.c_idx, dofmap.d_idx])
    assert np.array_equal(np.sort(both), np.arange(grid.n_dof))
    # a quarter turn of the cube about its own x axis, or of the whole
    # configuration about the global z axis, leaves the grid unchanged
    for turn in ((90.0, 0.0, 0.0), (0.0, 0.0, 90.0)):
        turned = ImmersedGeometry.from_angles(0.3, 0.5, angles + turn)
        assert Grid.build(turned, grid.spec).n_dof == grid.n_dof
    return cache


# Bounds on |M.sum() / (rho l_p^3) - 1| at alpha = 1e-12.  On the p = 2,
# n_e = 4 grids of seeds 0-2 either family read 1.0e-3, 5.6e-5 and 1.4e-5
# at depth 2, and 4.3e-5, 1.9e-4 and 1.5e-4 at depth 3: one level deeper
# is not closer on every rotation, so each depth keeps its own bound.  The
# n_e = 6 grid of seed 0 reads 8.4e-7 at depth 2.
PHYSICAL_MASS_BOUND = {2: 1.1e-3, 3: 2.0e-4}


@pytest.mark.parametrize("family", ["lagrange", "bspline"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_assembly_invariants_random_rotation(family, seed):
    grid, angles = random_rotation_grid(family, seed, 4)
    for depth in (2, 3):
        assert_assembly_invariants(grid, angles, depth)


@pytest.mark.parametrize("family", ["lagrange", "bspline"])
def test_random_rotation_with_uncut_elements(family):
    # At n_e = 4 every kept element of these rotations is cut; n_e = 6
    # keeps uncut elements, which must assemble and load like the rest.
    grid, angles = random_rotation_grid(family, 0, 6)
    assert (~grid.kept_cut).any()
    cache = assert_assembly_invariants(grid, angles)
    src = source_in_grid_frame(grid, RANDOM_ROTATION_SOURCE)
    reach = 14.0 * RANDOM_ROTATION_SOURCE.sigma
    assert any(np.linalg.norm(np.clip(src, *grid.element_box(ijk)) - src)
               <= reach for ijk in grid.kept[~grid.kept_cut])
    fresh = assert_close_to_reference(grid, RANDOM_ROTATION_SOURCE, 2)
    cached = assert_close_to_reference(grid, RANDOM_ROTATION_SOURCE, 2,
                                       cache=cache)
    assert cached.tobytes() == fresh.tobytes()
