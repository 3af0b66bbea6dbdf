"""Rotated-cube immersed geometry and axis-aligned box utilities.

The physical domain is a cube of edge length ``l_p`` that is rotated by
Cardan angles and centered inside an axis-aligned extended domain
``[0, l_e]^3``.  Points map between the global frame (extended domain
coordinates) and the local frame (cube-centered coordinates, in which the
cube is ``[-l_p/2, l_p/2]^3``) through a rotation matrix ``T``::

    x_global = T @ x_local + center,      x_local = T.T @ (x_global - center)

Axis-aligned boxes (grid elements, octree cells) are classified against the
rotated cube as inside, outside, or cut.  Classification is exact: a box is
inside iff all its corners are inside (both are convex), outside iff a
separating axis exists (SAT over the 15 candidate axes of a box-box pair),
and cut otherwise.  Cut boxes whose physical volume fraction falls below
``MIN_VOLUME_FRACTION`` carry no resolvable physics at the default octree
depth and are treated as outside by the mesh layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np
from scipy.spatial import ConvexHull
from scipy.spatial import QhullError


# Cut boxes with a physical volume fraction below this are treated as fully
# fictitious.  2**-24 is the volume of a depth-8 octree leaf, the smallest
# feature a moderately deep space tree can certify.
MIN_VOLUME_FRACTION = 2.0 ** -24

# Most boxes `classify_boxes` takes in one pass: it bounds the temporaries
# at a paper-size octree level, and the benchmark's levels fit in one pass.
_CLASSIFY_CHUNK = 2 ** 14


class ElementClass(IntEnum):
    """Classification of an axis-aligned box against the physical domain."""

    OUTSIDE = 0
    INSIDE = 1
    CUT = 2


def _rot_x(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _rot_y(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _rot_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def cardan_rotation_matrix(angles_deg) -> np.ndarray:
    """Rotation matrix for Cardan (Tait-Bryan) angles in degrees.

    The three angles rotate about the x, y, and z axes in that order,
    composed as ``T = Rz(psi) @ Ry(theta) @ Rx(phi)``, so that
    ``x_global = T @ x_local``.

    Parameters
    ----------
    angles_deg : array_like, shape (3,)
        Angles ``(phi, theta, psi)`` in degrees.
    """
    phi, theta, psi = np.radians(np.asarray(angles_deg, dtype=float))
    return _rot_z(psi) @ _rot_y(theta) @ _rot_x(phi)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by its lower and upper corners."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float))
        if np.any(self.hi <= self.lo):
            raise ValueError("box upper corner must exceed lower corner")

    @property
    def volume(self) -> float:
        return float(np.prod(self.hi - self.lo))

    def corners(self) -> np.ndarray:
        """All 8 corners, shape (8, 3), z fastest."""
        return _box_corners(self.lo[None, :], self.hi[None, :])[0]


_CORNER_UNIT = np.array(
    [[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], dtype=float
)


def _box_corners(lo, hi):
    """Corners of a batch of boxes, shape (n, 8, 3)."""
    return lo[:, None, :] + _CORNER_UNIT[None, :, :] * (hi - lo)[:, None, :]


def _split_octants(lo, hi):
    """Split boxes (n, 3) into their octants, returned as (8n, 3) pairs."""
    mid = 0.5 * (lo + hi)
    lo8 = np.where(_CORNER_UNIT[None, :, :] == 0, lo[:, None, :], mid[:, None, :])
    hi8 = np.where(_CORNER_UNIT[None, :, :] == 0, mid[:, None, :], hi[:, None, :])
    return lo8.reshape(-1, 3), hi8.reshape(-1, 3)


@dataclass(frozen=True)
class ImmersedGeometry:
    """Rotated cube of edge ``l_p`` immersed in the extended domain [0, l_e]^3.

    Attributes
    ----------
    l_p : float
        Edge length of the physical cube.
    l_e : float
        Edge length of the axis-aligned extended domain.
    rotation : ndarray, shape (3, 3)
        Local-to-global rotation ``T``.
    center : ndarray, shape (3,)
        Cube center in global coordinates (coincides with the center of the
        extended domain in the benchmark setup).
    """

    l_p: float
    l_e: float
    rotation: np.ndarray
    center: np.ndarray
    _sat_axes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if not (0.0 < self.l_p <= self.l_e):
            raise ValueError("require 0 < l_p <= l_e")
        T = self.rotation
        if T.shape != (3, 3) or not np.allclose(T @ T.T, np.eye(3), atol=1e-12):
            raise ValueError("rotation must be orthogonal")
        if not np.isclose(np.linalg.det(T), 1.0, atol=1e-12):
            raise ValueError("rotation must be proper (det = +1)")
        # Candidate separating axes of an axis-aligned box against the cube:
        # 3 global axes, 3 cube axes, 9 cross products.  Degenerate cross
        # products (aligned axes) are harmless: they can never separate.
        axes = [np.eye(3)[i] for i in range(3)]
        axes += [T[:, i] for i in range(3)]
        for i in range(3):
            for j in range(3):
                axes.append(np.cross(np.eye(3)[i], T[:, j]))
        object.__setattr__(self, "_sat_axes", np.array(axes))

    @classmethod
    def from_angles(cls, l_p, l_e, angles_deg, center=None) -> "ImmersedGeometry":
        if center is None:
            center = np.full(3, l_e / 2.0)
        return cls(l_p=float(l_p), l_e=float(l_e),
                   rotation=cardan_rotation_matrix(angles_deg),
                   center=np.asarray(center, dtype=float))

    def to_local(self, x) -> np.ndarray:
        """Map global points (..., 3) to cube-centered local coordinates, as
        one (n, 3) @ (3, 3) product rather than a stack of small ones."""
        x = np.asarray(x, dtype=float) - self.center
        return (x.reshape(-1, 3) @ self.rotation).reshape(x.shape)

    def to_global(self, x_local) -> np.ndarray:
        """Map local points (..., 3) back to global coordinates."""
        return np.asarray(x_local, dtype=float) @ self.rotation.T + self.center

    def contains(self, x) -> np.ndarray:
        """Whether global points lie in the closed physical cube."""
        loc = np.abs(self.to_local(x))
        half = self.l_p / 2.0
        return ((loc[..., 0] <= half) & (loc[..., 1] <= half)
                & (loc[..., 2] <= half))

    def classify_boxes(self, lo, hi) -> np.ndarray:
        """Classify a batch of axis-aligned boxes, shapes (n, 3) -> (n,).

        Exact for box-cube pairs: containment is decided on corners, overlap
        by the separating-axis test over the 15 candidate axes.  Larger
        batches than ``_CLASSIFY_CHUNK`` go in chunks, which bounds the
        temporaries (about 1 kB per box) and changes no class.
        """
        lo = np.atleast_2d(np.asarray(lo, dtype=float))
        hi = np.atleast_2d(np.asarray(hi, dtype=float))
        if lo.shape[0] > _CLASSIFY_CHUNK:
            return np.concatenate([
                self.classify_boxes(lo[i:i + _CLASSIFY_CHUNK],
                                    hi[i:i + _CLASSIFY_CHUNK])
                for i in range(0, lo.shape[0], _CLASSIFY_CHUNK)])
        half = self.l_p / 2.0
        T = self.rotation
        corners_local = (_box_corners(lo, hi) - self.center) @ T
        inside = (np.max(np.abs(corners_local), axis=(1, 2)) <= half)

        d = 0.5 * (lo + hi) - self.center
        ew = 0.5 * (hi - lo)
        A = self._sat_axes                       # (15, 3)
        r_box = np.abs(A) @ ew.T                 # (15, n)
        r_cube = (np.abs(A @ T) @ np.full(3, half))[:, None]
        separated = np.any(np.abs(A @ d.T) > r_box + r_cube, axis=0)

        cls = np.full(lo.shape[0], ElementClass.CUT, dtype=np.int8)
        cls[separated] = ElementClass.OUTSIDE
        cls[inside] = ElementClass.INSIDE
        return cls

    def classify_box(self, box: Box) -> ElementClass:
        return ElementClass(int(self.classify_boxes(box.lo[None], box.hi[None])[0]))

    def volume_fraction(self, box: Box) -> float:
        """Exact fraction of the box volume lying inside the physical cube.

        The intersection of two convex polytopes is itself convex; its
        vertices are corners of either box contained in the other plus the
        clip points of each box's edges against the other's faces.  The
        volume then follows from the convex hull of those vertices.
        """
        cls = self.classify_box(box)
        if cls == ElementClass.INSIDE:
            return 1.0
        if cls == ElementClass.OUTSIDE:
            return 0.0
        half = self.l_p / 2.0
        cube_lo = np.full(3, -half)
        cube_hi = np.full(3, half)

        pts = []
        box_local = self.to_local(box.corners())
        for q in box_local:
            if np.max(np.abs(q)) <= half + 1e-15:
                pts.append(q)
        cube_local = _box_corners(cube_lo[None], cube_hi[None])[0]
        cube_global = self.to_global(cube_local)
        eps = 1e-15
        for qg, ql in zip(cube_global, cube_local):
            if np.all((qg >= box.lo - eps) & (qg <= box.hi + eps)):
                pts.append(ql)
        for a, b in _BOX_EDGES:
            seg = _clip_segment(box_local[a], box_local[b], cube_lo, cube_hi)
            if seg is not None:
                pts.extend(seg)
        for a, b in _BOX_EDGES:
            seg = _clip_segment(cube_global[a], cube_global[b], box.lo, box.hi)
            if seg is not None:
                pts.extend(self.to_local(np.array(seg)))
        if len(pts) < 4:
            return 0.0
        pts = np.unique(np.round(np.array(pts), 14), axis=0)
        if len(pts) < 4:
            return 0.0
        try:
            vol = ConvexHull(pts).volume
        except QhullError:
            try:
                vol = ConvexHull(pts, qhull_options="QJ").volume
            except QhullError:
                return 0.0
        return min(vol / box.volume, 1.0)


# Edge list of the corner ordering produced by _box_corners.
_BOX_EDGES = [
    (0, 1), (2, 3), (4, 5), (6, 7),
    (0, 2), (1, 3), (4, 6), (5, 7),
    (0, 4), (1, 5), (2, 6), (3, 7),
]


def _clip_segment(p0, p1, lo, hi):
    """Clip segment p0-p1 to an axis-aligned box (Liang-Barsky)."""
    d = p1 - p0
    t0, t1 = 0.0, 1.0
    for i in range(3):
        if d[i] == 0.0:
            if p0[i] < lo[i] or p0[i] > hi[i]:
                return None
        else:
            ta = (lo[i] - p0[i]) / d[i]
            tb = (hi[i] - p0[i]) / d[i]
            if ta > tb:
                ta, tb = tb, ta
            t0 = max(t0, ta)
            t1 = min(t1, tb)
            if t0 > t1:
                return None
    return p0 + t0 * d, p0 + t1 * d


@dataclass
class OctreeLeaves:
    """Flat leaf arrays of the octree partitions of a batch of boxes, grouped
    by ``owner`` (the box index) and in deterministic order within a box."""

    lo: np.ndarray      # (n, 3)
    hi: np.ndarray      # (n, 3)
    cls: np.ndarray     # (n,) ElementClass values
    depth: np.ndarray   # (n,)
    owner: np.ndarray   # (n,) index of the partitioned box

    def __len__(self):
        return self.lo.shape[0]


def octree_partition(geom: ImmersedGeometry, box, max_depth: int) -> OctreeLeaves:
    """Partition boxes by recursive octasection of their cut children, with
    one classification call per depth level for all boxes together.

    ``box`` is one :class:`Box` or a pair ``(lo, hi)`` of corner arrays of
    shape (n, 3).  Inside and outside boxes become leaves immediately; cut
    boxes are subdivided until ``max_depth``, where the remaining cut
    leaves are kept as such (their quadrature points are classified
    individually by the caller).  ``max_depth = 0`` returns the boxes
    themselves.  Each box's leaves are listed by depth, children in octant
    order, and the boxes' groups follow each other in input order.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    lo, hi = (box.lo, box.hi) if isinstance(box, Box) else box
    lo = np.asarray(lo, dtype=float).reshape(-1, 3)
    hi = np.asarray(hi, dtype=float).reshape(-1, 3)
    owner = np.arange(lo.shape[0])
    out = []
    for depth in range(max_depth + 1):
        cls = geom.classify_boxes(lo, hi)
        cut = cls == ElementClass.CUT
        settled = ~cut if depth < max_depth else np.ones(len(cls), dtype=bool)
        out.append((lo[settled], hi[settled], cls[settled],
                    np.full(int(settled.sum()), depth), owner[settled]))
        if depth == max_depth or not np.any(cut):
            break
        lo, hi = _split_octants(lo[cut], hi[cut])
        owner = np.repeat(owner[cut], 8)
    lo, hi, cls, depth, owner = (np.concatenate(a) for a in zip(*out))
    order = np.argsort(owner, kind="stable")
    return OctreeLeaves(lo=lo[order], hi=hi[order], cls=cls[order],
                        depth=depth[order], owner=owner[order])
