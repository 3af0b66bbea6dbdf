"""Cut-cell octree quadrature, seen through its two users: the inside-part
integrals of ``ElementIntegralCache`` and the load vector ``spatial_load``.

Each test box is reproduced as the only element of a one-element grid
(origin at the box's lower corner, element size its width).  For the
Lagrange family the basis is a partition of unity, so the entries of
``M_in`` sum to the inside reference volume (8 for a fully inside element).
"""

import numpy as np
import pytest

from wavecell.assembly import (ElementIntegralCache, Grid, SourceSpec,
                               spatial_load)
from wavecell.basis import BasisSpec, gl_rule
from wavecell.geometry import ElementClass, ImmersedGeometry

ORIGIN = (0, 0, 0)

# Wide enough that the source is 1 to 1e-13 over every test box: the load
# vector then integrates the indicator alone.
FLAT = SourceSpec(x_local=(0.0, 0.0, 0.0), sigma=1e6)


def axis_aligned_geometry():
    return ImmersedGeometry.from_angles(0.3, 0.5, (0.0, 0.0, 0.0))


def one_element_grid(geom, box, p=2, klass=ElementClass.CUT):
    """Grid whose only element is the cube ``box`` = (lo, hi), classified
    ``klass``."""
    lo, hi = box
    return Grid(geom=geom, spec=BasisSpec(family="lagrange", p=p, n_e=1),
                boundary_fitted=False, origin=lo, h=float(hi[0] - lo[0]),
                classes=np.full((1, 1, 1), klass, dtype=np.int8),
                kept=np.zeros((1, 3), dtype=int))


def inside_volume(geom, box, depth):
    """Inside reference volume of ``box`` by the cache (q = 3)."""
    cache = ElementIntegralCache(one_element_grid(geom, box), octree_depth=depth)
    return float(cache.M_in[0].sum())


def inside_box():
    g = axis_aligned_geometry()
    b = (np.array([0.24, 0.24, 0.24]), np.array([0.26, 0.26, 0.26]))
    assert g.classify_boxes(*b)[0] == ElementClass.INSIDE
    return g, b


@pytest.mark.parametrize("q", [2, 3, 5])
def test_tensor_rule_weight_sum(q):
    # the uncut element's tensor rule of q = p+1 points per axis tiles the
    # reference cube at every order
    grid = one_element_grid(*inside_box(), p=q - 1, klass=ElementClass.INSIDE)
    F = spatial_load(grid, FLAT, alpha=1.0)
    assert abs(F.sum() / (grid.h / 2.0) ** 3 - 8.0) < 1e-10


def test_cut_rule_on_inside_element_reduces_to_tensor():
    # An inside box stays one octree leaf: its inside part is the plain
    # tensor-product element, and its load equals the uncut element's.
    g, b = inside_box()
    grid = one_element_grid(g, b)
    cache = ElementIntegralCache(grid, octree_depth=4)
    M_full, K_full = cache.full_element(ORIGIN)
    assert np.abs(cache.M_in[0] - M_full).max() <= 1e-14 * np.abs(M_full).max()
    assert np.abs(cache.K_in[0] - K_full).max() <= 1e-14 * np.abs(K_full).max()
    src = SourceSpec(x_local=(0.0, 0.0, 0.0), sigma=0.01)
    F_cut = spatial_load(grid, src, alpha=1e-4, octree_depth=4)
    F_uncut = spatial_load(one_element_grid(g, b, klass=ElementClass.INSIDE),
                           src, alpha=1e-4, octree_depth=4)
    assert np.abs(F_cut - F_uncut).max() <= 1e-14 * np.abs(F_uncut).max()


def test_cut_rule_on_outside_element_scales_by_alpha():
    g = axis_aligned_geometry()
    b = (np.array([0.01, 0.01, 0.01]), np.array([0.05, 0.05, 0.05]))
    assert g.classify_boxes(*b)[0] == ElementClass.OUTSIDE
    grid = one_element_grid(g, b)
    cache = ElementIntegralCache(grid, octree_depth=4)
    assert cache.M_in.shape[0] == 1
    assert not cache.M_in.any() and not cache.K_in.any()
    alpha = 1e-4
    F_one = spatial_load(grid, FLAT, alpha=1.0, octree_depth=4)
    F_alpha = spatial_load(grid, FLAT, alpha=alpha, octree_depth=4)
    assert np.abs(F_one).max() > 0.0
    assert np.abs(F_alpha - alpha * F_one).max() <= 1e-15 * np.abs(F_one).max()


def test_cut_rule_weights_tile_reference_volume():
    # Leaf weights tile the element at every depth, and the load sees the
    # same inside volume as the cache: with a flat source the indicator-
    # weighted load sums to V_in + alpha (8 - V_in) in reference measure.
    g = ImmersedGeometry.from_angles(0.3, 0.5, (10.0, 10.0, 10.0))
    face_pt = g.to_global([0.15, 0.0, 0.0])
    b = (face_pt - 0.02, face_pt + 0.02)
    grid = one_element_grid(g, b)
    ref = (grid.h / 2.0) ** 3
    alpha = 1e-8
    for depth in range(6):
        F_one = spatial_load(grid, FLAT, alpha=1.0, octree_depth=depth)
        assert abs(F_one.sum() / ref - 8.0) < 1e-10
        v_in = inside_volume(g, b, depth)
        assert 0.0 < v_in < 8.0
        F_alpha = spatial_load(grid, FLAT, alpha=alpha, octree_depth=depth)
        assert abs(F_alpha.sum() / ref - (v_in + alpha * (8.0 - v_in))) < 1e-10


def test_half_cut_element_indicator_volume():
    # A box centered on a face plane is split exactly in half regardless
    # of the rotation (central symmetry), so the inside volume -> 4.
    g = ImmersedGeometry.from_angles(0.3, 0.5, (10.0, 10.0, 10.0))
    face_pt = g.to_global([0.15, 0.0, 0.0])
    b = (face_pt - 0.025, face_pt + 0.025)
    assert g.classify_boxes(*b)[0] == ElementClass.CUT
    assert abs(inside_volume(g, b, 4) - 4.0) < 0.05


def test_indicator_volume_error_halves_per_depth():
    # plane cut at one third of the element width: the pointwise leaf
    # error is symmetric between the two alternating sub-positions, so
    # each refinement level halves the error
    g = axis_aligned_geometry()
    W = 0.1
    a = 0.4 - W / 3.0  # cube face at x = 0.40
    b = (np.array([a, 0.2, 0.2]), np.array([a + W, 0.3, 0.3]))
    true = 8.0 / 3.0
    errs = [abs(inside_volume(g, b, depth) - true) for depth in range(6)]
    for e0, e1 in zip(errs[:-1], errs[1:]):
        assert 0.3 <= e1 / e0 <= 0.7


def test_indicator_volume_monotone_toward_volume_fraction():
    g = ImmersedGeometry.from_angles(0.3, 0.5, (10.0, 10.0, 10.0))
    face_pt = g.to_global([0.15, 0.02, -0.03])
    b = (face_pt - 0.02, face_pt + 0.02)
    target = 8.0 * g.volume_fraction(*b)
    errs = [abs(inside_volume(g, b, d) - target) for d in range(6)]
    assert errs[-1] < errs[0]
    assert errs[-1] < 0.01


def test_cache_inside_volume_converges_to_volume_fraction(benchmark_geometry):
    # The exact convex-hull volume fraction is the oracle for every cut
    # element of an n_e=6 grid: the summed error shrinks at every depth
    # and no element ends farther than it started.  (Elements that only
    # graze a cube corner keep every Gauss point outside to depth 3.)
    grid = Grid.build(benchmark_geometry,
                      BasisSpec(family="lagrange", p=1, n_e=6))
    cut = grid.kept[grid.kept_cut]
    exact = np.array([8.0 * grid.geom.volume_fraction(*grid.element_box(ijk))
                      for ijk in cut])
    errs = np.array([
        np.abs(ElementIntegralCache(grid, octree_depth=d).M_in.sum(axis=(1, 2))
               - exact)
        for d in (1, 2, 3)])
    assert (np.diff(errs.sum(axis=1)) < 0.0).all()
    assert (errs[2] <= errs[0]).all()
    assert errs[2].max() < 0.02


def test_cut_rule_rejects_bad_alpha():
    g = axis_aligned_geometry()
    b = (np.array([0.35, 0.2, 0.2]), np.array([0.45, 0.3, 0.3]))
    grid = one_element_grid(g, b)
    for alpha in (0.0, 1.5):
        with pytest.raises(ValueError):
            spatial_load(grid, FLAT, alpha=alpha, octree_depth=2)


def test_max_depth_leaves_classify_pointwise():
    # at depth 0 a cut element is one leaf; every quadrature point gets
    # its own indicator value, in the cache and in the load
    g = axis_aligned_geometry()
    b = (np.array([0.35, 0.2, 0.2]), np.array([0.45, 0.3, 0.3]))
    grid = one_element_grid(g, b, p=3)
    alpha = 1e-6
    rule = gl_rule(4)
    X, Y, Z = np.meshgrid(rule.nodes, rule.nodes, rule.nodes, indexing="ij")
    xi = np.stack([X, Y, Z], axis=-1).reshape(-1, 3)
    w = np.einsum("i,j,k->ijk", rule.weights, rule.weights, rule.weights).ravel()
    lo, hi = b
    inside = g.contains(lo + (xi + 1.0) / 2.0 * (hi - lo))
    assert inside.any() and not inside.all()
    V = [grid.spec.eval_element(0, xi[:, d])[0] for d in range(3)]
    N = np.einsum("qa,qb,qc->qabc", *V).reshape(len(w), -1)
    M_in = (N * np.where(inside, w, 0.0)[:, None]).T @ N
    cache = ElementIntegralCache(grid, octree_depth=0)
    assert np.abs(cache.M_in[0] - M_in).max() <= 1e-14 * np.abs(M_in).max()
    F = spatial_load(grid, FLAT, alpha=alpha, octree_depth=0)
    F_ref = (grid.h / 2.0) ** 3 * N.T @ (w * np.where(inside, 1.0, alpha))
    assert np.abs(F - F_ref).max() <= 1e-13 * np.abs(F_ref).max()
