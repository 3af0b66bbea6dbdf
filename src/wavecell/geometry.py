"""Rotated-cube immersed geometry and axis-aligned box utilities.

The physical domain is a cube of edge length ``l_p`` that is rotated by
Cardan angles and centered inside an axis-aligned extended domain
``[0, l_e]^3``.  Points map between the global frame (extended domain
coordinates) and the local frame (cube-centered coordinates, in which the
cube is ``[-l_p/2, l_p/2]^3``) through a rotation matrix ``T``::

    x_global = T @ x_local + center,      x_local = T.T @ (x_global - center)

Axis-aligned boxes (grid elements, octree cells) are pairs ``(lo, hi)`` of
corner arrays, (3,) for one box or (n, 3) for a batch, classified against
the rotated cube as inside, outside, or cut.  Classification is exact: a
box is inside iff all its corners are inside (both are convex), outside iff
a separating axis exists (SAT over the 15 candidate axes of a box-box
pair), and cut otherwise.  The inside part of a cut box is the convex hull
of the feasible points where three of the 12 face planes of box and cube
meet.  Cut boxes whose physical volume fraction falls below
``MIN_VOLUME_FRACTION`` carry no resolvable physics at the default octree
depth and are treated as outside by the mesh layer.  The octree classifies
its cells by their corners but returns its leaves as integer dyadic cells
of their box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from itertools import combinations

import numpy as np
from scipy.spatial import ConvexHull, QhullError


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


_OCTANTS = np.array(
    [[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], dtype=np.int32
)
_CORNER_UNIT = _OCTANTS.astype(float)


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
    def from_angles(cls, l_p, l_e, angles_deg) -> "ImmersedGeometry":
        """The cube turned by Cardan ``angles_deg`` about the center of
        the extended domain."""
        return cls(l_p=float(l_p), l_e=float(l_e),
                   rotation=cardan_rotation_matrix(angles_deg),
                   center=np.full(3, l_e / 2.0))

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
        corners_local = (lo[:, None, :] + _CORNER_UNIT * (hi - lo)[:, None, :]
                         - self.center) @ T
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

    def volume_fraction(self, lo, hi) -> float:
        """Exact fraction of the box ``lo``, ``hi`` (3,) inside the cube.

        In the local frame the intersection is the convex polytope
        ``N x <= b`` of the 12 face planes of cube and box.  Its vertices
        are the feasible solutions of the 220 three-plane systems, all the
        regular ones solved in one batch; its volume is their hull's.
        """
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        cls = self.classify_boxes(lo, hi)[0]
        if cls != ElementClass.CUT:
            return float(cls == ElementClass.INSIDE)
        T = self.rotation
        N = np.concatenate([np.eye(3), -np.eye(3), T, -T])
        b = np.concatenate([np.full(6, self.l_p / 2.0), hi - self.center,
                            self.center - lo])
        A = N[_PLANE_TRIPLES]
        regular = np.abs(np.linalg.det(A)) > 1e-12
        rhs = b[_PLANE_TRIPLES[regular], None]
        x = np.linalg.solve(A[regular], rhs)[..., 0]
        x = x[np.all(x @ N.T <= b + 1e-15, axis=1)]
        if len(x) < 4:
            return 0.0
        try:
            vol = ConvexHull(x).volume
        except QhullError:                  # all vertices in one plane
            return 0.0
        return min(vol / np.prod(hi - lo), 1.0)


# Every choice of three of the 12 face planes of the cube and a box.
_PLANE_TRIPLES = np.array(list(combinations(range(12), 3)))


@dataclass
class OctreeLeaves:
    """Flat leaf arrays of the octree partitions of a batch of boxes, grouped
    by ``owner`` (the box index) and in deterministic order within a box.
    A leaf of depth d spans 2^-d of its owner box along each axis, and
    ``pos`` counts those spans from the box's lower corner: the leaf is the
    integer cell ``pos`` of its depth's 2^d x 2^d x 2^d lattice."""

    pos: np.ndarray     # (n, 3) int32 dyadic position within the owner box
    cls: np.ndarray     # (n,) ElementClass values
    depth: np.ndarray   # (n,)
    owner: np.ndarray   # (n,) index of the partitioned box

    def __len__(self):
        return self.cls.shape[0]


def octree_partition(geom: ImmersedGeometry, boxes,
                     max_depth: int) -> OctreeLeaves:
    """Partition boxes by recursive octasection of their cut children, with
    one classification call per depth level for all boxes together.

    ``boxes`` is the pair ``(lo, hi)`` of corner arrays, of shape (n, 3) or
    (3,) for one box.  Inside and outside boxes become leaves immediately;
    cut boxes are subdivided until ``max_depth``, where the remaining cut
    leaves are kept as such (their quadrature points are classified
    individually by the caller).  ``max_depth = 0`` returns the boxes
    themselves.  Each box's leaves are listed by depth, children in octant
    order, and the boxes' groups follow each other in input order.  A
    child's position is twice its parent's plus its octant, so the leaves
    come out as integer cells; the float corners only feed the
    classification.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    lo, hi = boxes
    lo = np.asarray(lo, dtype=float).reshape(-1, 3)
    hi = np.asarray(hi, dtype=float).reshape(-1, 3)
    owner = np.arange(lo.shape[0])
    pos = np.zeros((lo.shape[0], 3), dtype=np.int32)
    out = []
    for depth in range(max_depth + 1):
        cls = geom.classify_boxes(lo, hi)
        cut = cls == ElementClass.CUT
        settled = ~cut if depth < max_depth else np.ones(len(cls), dtype=bool)
        out.append((pos[settled], cls[settled],
                    np.full(int(settled.sum()), depth), owner[settled]))
        if depth == max_depth or not np.any(cut):
            break
        lo, hi = _split_octants(lo[cut], hi[cut])
        pos = (2 * pos[cut, None, :] + _OCTANTS).reshape(-1, 3)
        owner = np.repeat(owner[cut], 8)
    pos, cls, depth, owner = (np.concatenate(a) for a in zip(*out))
    order = np.argsort(owner, kind="stable")
    return OctreeLeaves(pos=pos[order], cls=cls[order], depth=depth[order],
                        owner=owner[order])
