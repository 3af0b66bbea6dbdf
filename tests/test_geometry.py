import numpy as np
import pytest

from wavecell import geometry
from wavecell.geometry import (ElementClass, ImmersedGeometry,
                               cardan_rotation_matrix, octree_partition)


def test_cardan_zero_angles_is_identity():
    T = cardan_rotation_matrix((0.0, 0.0, 0.0))
    assert np.allclose(T, np.eye(3), atol=1e-15)


def test_cardan_x_quarter_turn():
    # Intrinsic X-Y-Z: a 90 degree roll about x takes +y to +z.
    T = cardan_rotation_matrix((90.0, 0.0, 0.0))
    assert np.allclose(T @ np.array([0.0, 1.0, 0.0]), [0.0, 0.0, 1.0],
                       atol=1e-14)


@pytest.mark.parametrize("angles", [(10.0, 10.0, 10.0), (33.0, -7.0, 120.0),
                                    (-90.0, 45.0, 0.5)])
def test_cardan_orthogonal_right_handed(angles):
    T = cardan_rotation_matrix(angles)
    assert np.allclose(T.T @ T, np.eye(3), atol=1e-12)
    assert abs(np.linalg.det(T) - 1.0) < 1e-12


def test_cardan_composition_order():
    # T = Rz(psi) Ry(theta) Rx(phi), checked against the explicit product.
    phi, th, ps = np.radians([10.0, 20.0, 30.0])
    Rx = np.array([[1, 0, 0],
                   [0, np.cos(phi), -np.sin(phi)],
                   [0, np.sin(phi), np.cos(phi)]])
    Ry = np.array([[np.cos(th), 0, np.sin(th)],
                   [0, 1, 0],
                   [-np.sin(th), 0, np.cos(th)]])
    Rz = np.array([[np.cos(ps), -np.sin(ps), 0],
                   [np.sin(ps), np.cos(ps), 0],
                   [0, 0, 1]])
    T = cardan_rotation_matrix((10.0, 20.0, 30.0))
    assert np.allclose(T, Rz @ Ry @ Rx, atol=1e-14)


def test_geometry_invariants(benchmark_geometry):
    g = benchmark_geometry
    assert g.l_p < g.l_e
    T = g.rotation
    assert np.allclose(T.T @ T, np.eye(3), atol=1e-12)
    assert abs(np.linalg.det(T) - 1.0) < 1e-12


def test_transform_round_trip(benchmark_geometry):
    g = benchmark_geometry
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 0.5, size=(1000, 3))
    back = g.to_global(g.to_local(x))
    assert np.max(np.abs(back - x)) < 1e-12
    # isometry
    d_local = np.linalg.norm(g.to_local(x), axis=1)
    d_global = np.linalg.norm(x - g.center, axis=1)
    assert np.allclose(d_local, d_global, atol=1e-12)


def test_to_local_center_and_identity():
    g = ImmersedGeometry.from_angles(0.3, 0.5, (0.0, 0.0, 0.0))
    assert np.allclose(g.to_local(g.center), [0.0, 0.0, 0.0], atol=1e-15)
    x = np.array([0.1, 0.2, 0.3])
    assert np.allclose(g.to_local(x), x - g.center, atol=1e-15)


def test_contains_closed_cube(benchmark_geometry):
    g = benchmark_geometry
    r = g.l_p / 2.0
    assert g.contains(g.center)
    # |x'_1| = l_p is well outside
    assert not g.contains(g.to_global([2.0 * r, 0.0, 0.0]))
    # a face point belongs to the closed cube
    assert g.contains(g.to_global([r, 0.0, 0.0]))
    assert g.contains(g.to_global([r, r, r]))


def test_classify_box_cases(benchmark_geometry):
    g = benchmark_geometry
    face_pt = g.to_global([g.l_p / 2.0, 0.0, 0.0])
    lo = np.array([g.center - 1e-3, [0.49, 0.49, 0.49], face_pt - 0.01])
    hi = np.array([g.center + 1e-3, [0.5, 0.5, 0.5], face_pt + 0.01])
    assert list(g.classify_boxes(lo, hi)) == [
        ElementClass.INSIDE, ElementClass.OUTSIDE, ElementClass.CUT]


def test_classify_box_agrees_with_point_on_degenerate_boxes(benchmark_geometry):
    g = benchmark_geometry
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = rng.uniform(0.0, 0.5, size=3)
        eps = 1e-9
        klass = g.classify_boxes(x - eps, x + eps)[0]
        if klass == ElementClass.CUT:
            continue  # the point sits within eps of the boundary
        assert (klass == ElementClass.INSIDE) == bool(g.contains(x))


def test_sat_against_dense_sampling(benchmark_geometry):
    # Exact box classification versus 10^3 point samples per box.  A
    # verdict of Inside/Outside must be confirmed by every sample; mixed
    # samples force a Cut verdict.  (All-in or all-out samples cannot
    # rule out Cut, since sampling misses thin slivers.)
    g = benchmark_geometry
    rng = np.random.default_rng(2)
    t = np.linspace(0.0, 1.0, 10)
    TX, TY, TZ = np.meshgrid(t, t, t, indexing="ij")
    unit = np.stack([TX, TY, TZ], axis=-1).reshape(-1, 3)
    n_mixed = 0
    for _ in range(100):
        lo = rng.uniform(0.0, 0.45, size=3)
        hi = lo + rng.uniform(0.01, 0.1, size=3)
        klass = g.classify_boxes(lo, hi)[0]
        inside = g.contains(lo + unit * (hi - lo))
        if klass == ElementClass.INSIDE:
            assert inside.all()
        elif klass == ElementClass.OUTSIDE:
            assert not inside.any()
        if inside.any() and not inside.all():
            n_mixed += 1
            assert klass == ElementClass.CUT
    assert n_mixed > 0  # the draw actually exercised cut boxes


def test_octree_inside_box_single_leaf(benchmark_geometry):
    g = benchmark_geometry
    lo, hi = g.center - 5e-3, g.center + 5e-3
    leaves = octree_partition(g, (lo, hi), max_depth=3)
    assert len(leaves) == 1
    assert ElementClass(int(leaves.cls[0])) == ElementClass.INSIDE
    assert (leaves.pos[0] == 0).all() and leaves.depth[0] == 0


def test_octree_cut_box_depths(benchmark_geometry):
    g = benchmark_geometry
    face_pt = g.to_global([g.l_p / 2.0, 0.0, 0.0])
    b = (face_pt - 0.02, face_pt + 0.02)
    assert len(octree_partition(g, b, max_depth=0)) == 1
    leaves = octree_partition(g, b, max_depth=1)
    assert len(leaves) == 8


@pytest.mark.parametrize("depth", [0, 1, 2, 4])
def test_octree_leaves_tile_parent(benchmark_geometry, depth):
    g = benchmark_geometry
    face_pt = g.to_global([g.l_p / 2.0, 0.0, 0.0])
    b = (face_pt - 0.02, face_pt + 0.02)
    leaves = octree_partition(g, b, max_depth=depth)
    # a depth-d leaf covers 2^(depth-d) cells per axis of the depth-`depth`
    # lattice; every cell is covered exactly once
    n = 2 ** depth
    count = np.zeros((n, n, n), dtype=int)
    for pos, d in zip(leaves.pos, leaves.depth):
        s = n >> d
        i, j, k = pos * s
        count[i:i + s, j:j + s, k:k + s] += 1
    assert (count == 1).all()


def test_volume_fraction_on_plane_cut():
    g = ImmersedGeometry.from_angles(0.3, 0.5, (0.0, 0.0, 0.0))
    # cube face at x = 0.40; box covers 40% inside
    lo, hi = np.array([0.36, 0.2, 0.2]), np.array([0.46, 0.3, 0.3])
    assert abs(g.volume_fraction(lo, hi) - 0.4) < 1e-12


# Rotations whose cube fits the extended domain [0, 0.5]^3: the benchmark,
# two degenerate ones, and seeded draws.
FITTING_ANGLES = [(10.0, 10.0, 10.0), (0.0, 0.0, 0.0), (45.0, 0.0, 0.0)] + [
    tuple(np.random.default_rng(seed).uniform(-180.0, 180.0, 3))
    for seed in (0, 1, 2, 3)]


@pytest.mark.parametrize("n_e", [4, 6, 13])
@pytest.mark.parametrize("angles", FITTING_ANGLES)
def test_volume_fractions_sum_to_cube_volume(angles, n_e):
    # Inside elements count 1 and cut elements their volume fraction: the
    # grid then holds the whole cube, whatever the rotation.  At n_e = 6
    # a cut element's fraction is also the mean of its octants'.
    g = ImmersedGeometry.from_angles(0.3, 0.5, angles)
    lo, hi = element_boxes(0.5, n_e)
    cls = g.classify_boxes(lo, hi)
    cut = np.flatnonzero(cls == ElementClass.CUT)
    frac = np.array([g.volume_fraction(lo[i], hi[i]) for i in cut])
    total = (0.5 / n_e) ** 3 * (np.sum(cls == ElementClass.INSIDE) + frac.sum())
    assert abs(total - g.l_p ** 3) <= 1e-14 * g.l_p ** 3
    if n_e == 6:
        lo8, hi8 = geometry._split_octants(lo[cut], hi[cut])
        octants = np.array([g.volume_fraction(l, u) for l, u in zip(lo8, hi8)])
        assert np.abs(octants.reshape(-1, 8).mean(axis=1) - frac).max() <= 1e-14


def reference_partition(g, box, max_depth):
    """One box, level by level: settled boxes of each depth in order, the
    cut ones split into their octants (z fastest) for the next depth."""
    lo, hi = (a[None] for a in box)
    leaves = []
    for depth in range(max_depth + 1):
        cls = g.classify_boxes(lo, hi)
        for l, u, c in zip(lo, hi, cls):
            if c != ElementClass.CUT or depth == max_depth:
                leaves.append((l, u, c, depth))
        cut = cls == ElementClass.CUT
        if depth == max_depth or not cut.any():
            break
        kids = []
        for l, u in zip(lo[cut], hi[cut]):
            mid = 0.5 * (l + u)
            for o in ([i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)):
                o = np.array(o, dtype=bool)
                kids.append((np.where(o, mid, l), np.where(o, u, mid)))
        lo, hi = (np.array(a) for a in zip(*kids))
    return leaves


def element_boxes(l_e, n_e):
    idx = np.arange(n_e)
    lo = np.stack(np.meshgrid(idx, idx, idx, indexing="ij"),
                  axis=-1).reshape(-1, 3) * (l_e / n_e)
    return lo, lo + l_e / n_e


class OctreeView:
    """The leaves of one owner of a batched partition."""

    def __init__(self, leaves, mask):
        self.pos, self.cls, self.depth, self.owner = (
            getattr(leaves, f)[mask] for f in ("pos", "cls", "depth", "owner"))


def leaf_corners(leaves, lo, hi):
    """Lower and upper leaf corners: a depth-d leaf spans 2^-d of its
    owner box."""
    lo, hi = (np.reshape(a, (-1, 3))[leaves.owner] for a in (lo, hi))
    span = (hi - lo) / 2.0 ** leaves.depth[:, None]
    return lo + leaves.pos * span, lo + (leaves.pos + 1) * span


# Degenerate angles first: at 0 degrees the cube faces lie on grid planes
# of the n_e = 5 grid, at 45 degrees edges run along grid diagonals.  Then
# seeded draws and the benchmark rotation.
PARTITION_ANGLES = [(0.0, 0.0, 0.0), (45.0, 0.0, 0.0), (0.0, 45.0, 45.0)] + [
    tuple(np.random.default_rng(seed).uniform(-180.0, 180.0, 3))
    for seed in (0, 1, 2)] + [(10.0, 10.0, 10.0)]


@pytest.mark.parametrize("angles", PARTITION_ANGLES)
def test_batched_partition_equals_per_box_loop(angles):
    g = ImmersedGeometry.from_angles(0.3, 0.5, angles)
    lo, hi = element_boxes(0.5, 5)
    for depth in range(5):
        batched = octree_partition(g, (lo, hi), depth)
        for b, (l, u) in enumerate(zip(lo, hi)):
            ref = reference_partition(g, (l, u), depth)
            single = octree_partition(g, (l, u), depth)
            mine = batched.owner == b
            assert mine.sum() == len(ref) == len(single)
            # the integer cells are the float recursion's corners, rounded
            ref_lo, ref_hi = (np.array([r[i] for r in ref]) for i in (0, 1))
            d = np.array([r[3] for r in ref])[:, None]
            ref_pos = np.rint((ref_lo - l) / (u - l) * 2.0 ** d)
            for leaves, box in ((single, (l, u)),
                                (OctreeView(batched, mine), (lo, hi))):
                assert leaves.pos.dtype == np.int32
                assert np.array_equal(leaves.pos, ref_pos)
                # midpoint splits round; 2^-d of the box does not
                for got, want in zip(leaf_corners(leaves, *box),
                                     (ref_lo, ref_hi)):
                    assert np.allclose(got, want, rtol=1e-15, atol=0.0)
                assert np.array_equal(leaves.cls, [r[2] for r in ref])
                assert np.array_equal(leaves.depth, [r[3] for r in ref])
        # grouped by owner, in input order
        assert np.all(np.diff(batched.owner) >= 0)
        assert np.array_equal(np.unique(batched.owner), np.arange(len(lo)))


def test_classification_chunks_change_no_class(monkeypatch):
    g = ImmersedGeometry.from_angles(0.3, 0.5, (10.0, 10.0, 10.0))
    lo, hi = element_boxes(0.5, 5)
    whole = g.classify_boxes(lo, hi)
    leaves = octree_partition(g, (lo, hi), 3)
    monkeypatch.setattr(geometry, "_CLASSIFY_CHUNK", 7)
    assert np.array_equal(g.classify_boxes(lo, hi), whole)
    chunked = octree_partition(g, (lo, hi), 3)
    for f in ("pos", "cls", "depth", "owner"):
        assert np.array_equal(getattr(chunked, f), getattr(leaves, f))


def test_partition_of_no_boxes_is_empty():
    g = ImmersedGeometry.from_angles(0.3, 0.5, (10.0, 10.0, 10.0))
    leaves = octree_partition(g, (np.zeros((0, 3)), np.zeros((0, 3))), 2)
    assert len(leaves) == 0 and leaves.pos.shape == (0, 3)


def max_abs_contains(g, x):
    return np.max(np.abs(g.to_local(x)), axis=-1) <= g.l_p / 2.0


@pytest.mark.parametrize("angles", [(10.0, 10.0, 10.0), (0.0, 0.0, 0.0),
                                    (45.0, 0.0, 0.0), (33.0, -7.0, 120.0)])
def test_contains_matches_max_abs_form(angles):
    g = ImmersedGeometry.from_angles(0.3, 0.5, angles)
    half = g.l_p / 2.0
    # every combination of on-face, just inside, just outside, interior and
    # far coordinates: faces, edges and corners of the closed cube
    v = np.array([half, np.nextafter(half, 0.0), np.nextafter(half, 1.0),
                  0.0, 0.3 * half, 1.5 * half])
    v = np.concatenate([v, -v])
    local = np.stack(np.meshgrid(v, v, v, indexing="ij"), axis=-1).reshape(-1, 3)
    rng = np.random.default_rng(7)
    points = np.concatenate([g.to_global(local),
                             g.center + rng.uniform(-1.0, 1.0, (4000, 3)) * half * 1.3])
    bad = points[:30].copy()
    bad[:10, 0], bad[10:20, 1], bad[20:, 2] = np.nan, np.inf, -np.inf
    points = np.concatenate([points, bad])
    with np.errstate(invalid="ignore"):     # inf times a zero rotation entry
        got = g.contains(points)
        want = max_abs_contains(g, points)
        got2 = g.contains(points.reshape(2, -1, 3))
    assert got.dtype == bool
    assert np.array_equal(got, want)
    assert got.any() and not got.all() and not got[-30:].any()
    assert np.array_equal(got2, got.reshape(2, -1))


def test_contains_closed_cube_exactly():
    # dyadic sizes and no rotation make the local coordinates exact, so the
    # faces, edges and corners of the cube are hit exactly
    g = ImmersedGeometry.from_angles(0.5, 1.0, (0.0, 0.0, 0.0))
    half = g.l_p / 2.0
    v = np.array([-half, 0.0, half])
    local = np.stack(np.meshgrid(v, v, v, indexing="ij"), axis=-1).reshape(-1, 3)
    on = g.center + local
    assert np.array_equal(g.to_local(on), local)
    assert g.contains(on).all()
    out = g.center + local * (1.0 + 2.0**-50)  # a few ulps farther out
    on_boundary = np.abs(local).max(axis=1) == half
    assert np.array_equal(np.abs(g.to_local(out)).max(axis=1) > half,
                          on_boundary)
    assert np.array_equal(g.contains(out), ~on_boundary)
    assert np.array_equal(g.contains(out), max_abs_contains(g, out))
