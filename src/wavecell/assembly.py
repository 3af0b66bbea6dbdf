"""Cartesian grid discretization and global operator assembly.

The extended domain is divided into ``n_e^3`` congruent cube elements.
Elements fully outside the physical domain are discarded; the remaining
(inside and cut) elements carry tensor-product shape functions.  Global
mass and stiffness matrices come from summing element matrices:

* uncut elements separate into products of 1D integrals.  For the
  Lagrange family the mass matrix uses the GLL rule of the basis order and
  is diagonal by construction; stiffness always uses an exact
  Gauss-Legendre rule.
* cut elements are partitioned by an octree, the only place that turns a
  cut cell into quadrature points.  Only the physical (inside) part is
  integrated, on the lattice of maximum-depth octree cells: inside leaves
  mark their cells, leaves still cut at maximum depth their inside Gauss
  points.  q = p+1 Gauss-Legendre points per cell integrate the degree-2p
  integrand exactly, so the fictitious part is the exact uncut element
  integral minus the inside part, and any indicator value alpha (and any
  eigenvalue stabilization) is applied afterwards without re-integrating.
  The load vector integrates the source on the octree leaves themselves,
  all leaves of the elements near the source in one batched pass: the
  isotropic Gaussian splits into three 1D factors per leaf.  Both read the
  leaves, each an integer dyadic cell of its element, and their 1D
  quadrature tables from one :class:`ElementIntegralCache`.

Degrees of freedom are numbered lexicographically over the tensor function
grid and compacted to the functions supported on kept elements.  DOFs
touching at least one cut element form the ``c`` set (implicitly
integrated by the IMEX scheme); the rest form the ``d`` set, whose mass
rows are exactly diagonal for the Lagrange family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import geometry
from .basis import BasisSpec, gl_rule, gll_rule
from .geometry import ElementClass, ImmersedGeometry, octree_partition
from .stabilization import StabilizationParams, evs_stabilize, hrz_lump, row_sum_lump

DEFAULT_OCTREE_DEPTH = 4


def ricker(t, f_e):
    """Ricker wavelet with center frequency ``f_e``, shifted so it starts
    near zero at t = 0."""
    t = np.asarray(t, dtype=float)
    t_s = 2.0 * np.sqrt(6.0) / (np.pi * f_e)
    q = np.pi * f_e * (t - t_s)
    return (1.0 - 2.0 * q * q) * np.exp(-q * q)


@dataclass(frozen=True)
class SourceSpec:
    """Spatial Gaussian source exp(-d^2 / 2 sigma^2), d the distance to its
    center ``x_local`` in local (cube-centered) coordinates.  Integrated by
    :func:`spatial_load`."""

    x_local: tuple
    sigma: float


@dataclass
class DofMap:
    """Lexicographic tensor numbering compacted to kept functions."""

    compact_of_lex: np.ndarray   # (n1^3,) int32, -1 where discarded
    lex_of_compact: np.ndarray   # (n_dof,)
    c_idx: np.ndarray            # compact DOFs supported on a cut element
    d_idx: np.ndarray            # the complement

    @property
    def n_dof(self) -> int:
        return self.lex_of_compact.shape[0]


@dataclass
class Grid:
    """Classified Cartesian element grid over the discretization domain.

    In immersed mode the grid covers the extended domain, which must hold
    the whole rotated cube, and elements are classified against the cube
    (with tiny slivers below ``geometry.MIN_VOLUME_FRACTION`` discarded).
    In boundary-fitted mode the grid covers the physical cube itself in
    local coordinates and every element is inside.
    """

    geom: ImmersedGeometry
    spec: BasisSpec
    boundary_fitted: bool
    origin: np.ndarray
    h: float
    classes: np.ndarray          # (n_e, n_e, n_e) ElementClass values
    kept: np.ndarray             # (n_kept, 3) element indices, lexicographic

    @classmethod
    def build(cls, geom: ImmersedGeometry, spec: BasisSpec,
              boundary_fitted: bool = False) -> "Grid":
        n_e = spec.n_e
        if boundary_fitted:
            origin = np.full(3, -geom.l_p / 2.0)
            h = geom.l_p / n_e
            classes = np.full((n_e,) * 3, ElementClass.INSIDE, dtype=np.int8)
        else:
            reach = geom.l_p / 2.0 * np.abs(geom.rotation).sum(axis=1)
            over = np.maximum(reach - geom.center, geom.center + reach - geom.l_e)
            if over.max() > 0.0:
                raise ValueError(f"the rotated cube sticks out of the extended "
                                 f"domain [0, {geom.l_e:g}]^3 by {over.max():.3g}")
            origin = np.zeros(3)
            h = geom.l_e / n_e
            idx = np.arange(n_e)
            I, J, K = np.meshgrid(idx, idx, idx, indexing="ij")
            lo = np.stack([I, J, K], axis=-1).reshape(-1, 3) * h + origin
            classes = geom.classify_boxes(lo, lo + h).reshape((n_e,) * 3)
            _discard_slivers(geom, classes, origin, h)
        kept = np.argwhere(classes != ElementClass.OUTSIDE)
        return cls(geom=geom, spec=spec, boundary_fitted=boundary_fitted,
                   origin=origin, h=float(h), classes=classes, kept=kept)

    def element_box(self, ijk):
        """Lower and upper corners ``(lo, hi)`` of elements ``ijk`` (..., 3),
        each of shape (..., 3)."""
        lo = self.origin + np.asarray(ijk, dtype=float) * self.h
        return lo, lo + self.h

    def from_local(self, x_local) -> np.ndarray:
        """Points (..., 3) in the cube's local frame, mapped to this grid's
        frame: the local frame itself when boundary-fitted, global
        coordinates otherwise."""
        x_local = np.asarray(x_local, dtype=float)
        return x_local if self.boundary_fitted else self.geom.to_global(x_local)

    @property
    def n_kept(self) -> int:
        return self.kept.shape[0]

    @cached_property
    def kept_cut(self) -> np.ndarray:
        """Whether each kept element is cut, shape (n_kept,)."""
        return self.classes[tuple(self.kept.T)] == ElementClass.CUT

    def _element_lex(self, ijk) -> np.ndarray:
        """Lexicographic function ids of elements ``ijk`` (..., 3), shape
        (..., (p+1)^3) with z fastest."""
        f = self.spec.element_funcs_1d(np.asarray(ijk))   # (..., 3, p+1)
        n1 = self.spec.n_funcs_1d
        lex = ((f[..., 0, :, None, None] * n1 + f[..., 1, None, :, None]) * n1
               + f[..., 2, None, None, :])
        return lex.reshape(lex.shape[:-3] + (-1,))

    def element_dofs(self, ijk) -> np.ndarray:
        """Compact DOF ids of elements ``ijk`` (..., 3), shape
        (..., (p+1)^3) with z fastest."""
        return self.dofmap.compact_of_lex[self._element_lex(ijk)]

    @cached_property
    def dofmap(self) -> DofMap:
        n1 = self.spec.n_funcs_1d
        lex = self._element_lex(self.kept)
        kept_mask = np.zeros(n1**3, dtype=bool)
        kept_mask[lex] = True
        c_mask = np.zeros(n1**3, dtype=bool)
        c_mask[lex[self.kept_cut]] = True
        lex_of_compact = np.flatnonzero(kept_mask)
        # int32 element blocks halve the index triplets of the assembly.
        if lex_of_compact.shape[0] >= 2**31:
            raise ValueError(f"{lex_of_compact.shape[0]} DOFs do not fit "
                             "32-bit indices")
        compact_of_lex = np.full(n1**3, -1, dtype=np.int32)
        compact_of_lex[lex_of_compact] = np.arange(lex_of_compact.shape[0])
        is_c = c_mask[lex_of_compact]
        c_idx, d_idx = np.flatnonzero(is_c), np.flatnonzero(~is_c)
        return DofMap(compact_of_lex=compact_of_lex,
                      lex_of_compact=lex_of_compact, c_idx=c_idx, d_idx=d_idx)

    @property
    def n_dof(self) -> int:
        return self.dofmap.n_dof


def _discard_slivers(geom, classes, origin, h):
    """Demote cut elements with negligible physical volume to outside.

    A cheap interior-sample bound skips the exact volume computation for
    all but the thinnest candidates: a sample point at least ``h/8`` from
    the element faces and with margin ``m`` inside the cube certifies a
    volume fraction of at least (4 pi / 3) (m/h)^3 / 8.
    """
    cut = np.argwhere(classes == ElementClass.CUT)
    if cut.shape[0] == 0:
        return
    t = (2.0 * np.arange(4) + 1.0) / 8.0
    P = np.stack(np.meshgrid(t, t, t, indexing="ij"), axis=-1).reshape(-1, 3) * h
    margin_needed = 0.01 * h
    lo = origin + cut * h
    pts = lo[:, None, :] + P[None, :, :]
    loc = geom.to_local(pts.reshape(-1, 3)).reshape(cut.shape[0], -1, 3)
    margin = geom.l_p / 2.0 - np.max(np.abs(loc), axis=-1)
    suspicious = np.flatnonzero(np.max(margin, axis=1) < margin_needed)
    for s in suspicious:
        if (geom.volume_fraction(lo[s], lo[s] + h)
                < geometry.MIN_VOLUME_FRACTION):
            classes[tuple(cut[s])] = ElementClass.OUTSIDE


def _signature(spec: BasisSpec, e) -> np.ndarray:
    """Integer key(s) of the 1D basis pattern of element(s) ``e``: elements
    with equal keys have equal 1D matrices."""
    e = np.asarray(e)
    if spec.family == "lagrange":
        return np.zeros_like(e)
    return (np.minimum(e, spec.p) * (spec.p + 1)
            + np.minimum(spec.n_e - 1 - e, spec.p))


class ElementIntegralCache:
    """Alpha-independent element integrals for one grid, and the one holder
    of its octree leaves and their quadrature tables.

    Cut elements store only their inside part, stacked in ``M_in`` and
    ``K_in`` of shape (n_cut, (p+1)^3, (p+1)^3) in ``grid.kept`` order, on
    the reference element (``K_in`` sums the three gradient directions with
    reference derivatives; rho, c and the element size are applied when
    combining).  The fictitious part is the uncut element integral
    (:meth:`full_element`) minus the inside part.  Building the cache is
    the expensive geometric step; assembling a system for given
    stabilization parameters afterwards is cheap, which is what makes
    parameter sweeps affordable.

    Every octree leaf of an element is a product of three dyadic intervals
    of the reference element, so its q = p+1 Gauss-Legendre points, weights
    and basis values are table lookups by flat interval id: a depth-d leaf
    at integer position ``pos`` has ids ``offsets[d] + pos``.  The basis
    values ``_V`` and derivatives ``_D`` are evaluated once per 1D boundary
    signature, shape (signatures, intervals, q, p+1) each; ``_sig[e]`` is
    the signature of 1D element e, so ``_V[_sig[ijk], ids]`` are the three
    directions' values of leaves ``ids`` (..., 3) of elements ``ijk``.  The
    load and the cut-element integrals map leaves to points through the
    same :meth:`_coords`.

    Inside leaves mark their maximum-depth cells, leaves still cut at
    maximum depth their inside Gauss points, each on its lattice, which
    :func:`_contract` sums.  :func:`spatial_load` reads the tables and the
    leaves too: ``_leaves`` holds flat arrays of each leaf's cut element
    (its position in ``M_in``), interval ids and class, from one batched
    partition of all cut elements.  A grid without a cut element gets only
    the depth-0 tables and no leaf.
    """

    def __init__(self, grid: Grid, octree_depth: int = DEFAULT_OCTREE_DEPTH):
        self.grid = grid
        self.octree_depth = D = int(octree_depth)
        self.q = q = grid.spec.p + 1
        if self.octree_depth < 0:
            raise ValueError("octree depth must be >= 0")
        cut = grid.kept[grid.kept_cut]
        self.M_in = np.zeros((cut.shape[0], q**3, q**3))
        self.K_in = np.zeros((cut.shape[0], q**3, q**3))
        # Whole elements read only the depth-0 interval of the tables.
        g = gl_rule(q)
        starts, lengths, self._offsets = _dyadic_intervals(D if cut.size else 0)
        self._xi = starts[:, None] + (g.nodes[None, :] + 1.0) / 2.0 * lengths[:, None]
        self._w = g.weights[None, :] * (lengths[:, None] / 2.0)
        spec = grid.spec
        _, first, self._sig = np.unique(_signature(spec, np.arange(spec.n_e)),
                                        return_index=True, return_inverse=True)
        self._V, self._D = spec.eval_element(first[:, None, None], self._xi)
        if not cut.size:            # no partition and no lattice pass
            self._leaves = (np.zeros(0, int), np.zeros((0, 3), np.int32),
                            np.zeros(0, np.int8))
            return
        lo, hi = grid.element_box(cut)
        # The load's leaves too: one batched partition of all cut elements.
        leaves = octree_partition(grid.geom, (lo, hi), D)
        owner, depth, pos, cls = (leaves.owner, leaves.depth, leaves.pos,
                                  leaves.cls)
        ids = (self._offsets[depth][:, None] + pos).astype(np.int32)
        self._leaves = owner, ids, cls
        F, index = self._factors(cut, D)

        sel = cls == ElementClass.INSIDE            # on the cell lattice
        for els, e, d, c in _chunks(_lattice_bytes(2**D, q), owner[sel],
                                    depth[sel], pos[sel]):
            inside = np.zeros((els.size,) + (2**D,) * 3, dtype=bool)
            for k in np.unique(d):          # a depth-k leaf covers s^3 cells
                s = 2 ** (D - k)
                _paint(inside, e[d == k], c[d == k] * s, s, True)
            self._add(els, inside, F.sum(axis=3), index[els])

        sel = cls == ElementClass.CUT   # at maximum depth: point by point
        L = 2**D * q
        for els, e, c in _chunks(_lattice_bytes(L, q), owner[sel], pos[sel]):
            x = self._coords(lo[els][e], hi[els][e], self._offsets[D] + c)
            inside = np.zeros((els.size, L, L, L), dtype=bool)
            _paint(inside, e, c * q, q, grid.geom.contains(x))
            self._add(els, inside, F.reshape(F.shape[:2] + (L,) + F.shape[4:]),
                      index[els])

    def _axis_points(self, lo, hi, ids):
        """Grid-frame Gauss coordinates (N, 3, q) per direction of the
        leaves with interval ids ``ids`` (N, 3) of elements with corners
        ``lo``, ``hi``."""
        return lo[..., None] + (self._xi[ids] + 1.0) / 2.0 * (hi - lo)[..., None]

    def _coords(self, lo, hi, ids):
        """Grid-frame points (N, q, q, q, 3) of those leaves."""
        x = self._axis_points(lo, hi, ids)
        return np.stack(np.broadcast_arrays(x[:, 0, :, None, None],
                                            x[:, 1, None, :, None],
                                            x[:, 2, None, None, :]), axis=-1)

    def _factors(self, ijk, depth: int):
        """Outer products w V (x) V and w D (x) D at the Gauss points of the
        depth-``depth`` cells, (S, 2, 2^depth, q, n, n), one per signature
        that elements ``ijk`` (C, 3) use (so S = 1, a table
        :func:`_contract` shares, when they use one), and each element's
        index into them (C, 3)."""
        used, index = np.unique(self._sig[ijk], return_inverse=True)
        ids = self._offsets[depth] + np.arange(2 ** depth)
        w = self._w[ids][:, :, None, None]
        return (np.stack([w * A[:, ids, :, :, None] * A[:, ids, :, None, :]
                          for A in (self._V[used], self._D[used])], axis=1),
                index.reshape(ijk.shape))

    def _add(self, els, inside, F, index):
        M, K = _contract(inside, [F if len(F) == 1 else F[i] for i in index.T])
        self.M_in[els] += M
        self.K_in[els] += K

    def full_element(self, ijk):
        """Exact reference ``(M, K)`` of whole elements ``ijk`` (..., 3)
        (indicator one), each (..., (p+1)^3, (p+1)^3): the contraction on
        their one depth-0 cell, all elements in one batch."""
        ijk = np.asarray(ijk)
        F, sig = self._factors(ijk.reshape(-1, 3), 0)
        MK = _contract(np.ones((len(sig), 1, 1, 1), dtype=bool),
                       [F.sum(axis=3)[i] for i in sig.T])
        return tuple(A.reshape(ijk.shape[:-1] + A.shape[1:]) for A in MK)


# Bytes of a chunk's largest array: about an L2 cache, as larger was slower.
_LATTICE_CHUNK_BYTES = 2 ** 20


def _chunks(size, owner, *per_leaf):
    """Groups of consecutive elements in ``owner`` (sorted, one entry per
    leaf) whose arrays, ``size`` bytes per element (a number, or an array
    over the element ids), fit the budget together, or one element alone:
    element ids, each leaf's element in its group, and the group's part of
    ``per_leaf``."""
    els, start, local = np.unique(owner, return_index=True, return_inverse=True)
    size = np.broadcast_to(size, els.shape) if np.ndim(size) == 0 else size[els]
    end = np.append(0, np.cumsum(size))
    start = np.append(start, owner.size)
    a = 0
    while a < els.size:
        b = max(a + 1, np.searchsorted(end, end[a] + _LATTICE_CHUNK_BYTES,
                                       side="right") - 1)
        leaf = slice(start[a], start[b])
        yield (els[a:b], local[leaf] - a) + tuple(x[leaf] for x in per_leaf)
        a = b


def _lattice_bytes(L, n):
    """Bytes of an element's largest array in :func:`_contract`: L^3
    lattice indices, n functions per direction."""
    return 8 * max(L**3, 2 * n**2 * L**2, 4 * n**4 * L, 8 * n**6)


def _paint(lattice, e, start, s, value):
    """Set the cubes of side s at ``start`` (N, 3) of elements ``e`` (N,)."""
    i = start[:, :, None] + np.arange(s)
    lattice[e[:, None, None, None], i[:, 0, :, None, None],
            i[:, 1, None, :, None], i[:, 2, None, None, :]] = value


def _contract(inside, tables):
    """Mass and stiffness stacks of Kronecker products over a lattice.

    For each element c of ``inside`` (C, L, L, L), M[c] sums A[X] (x) B[Y]
    (x) C[Z] where inside[c, X, Y, Z] holds, with value factors; K[c] takes
    the derivative factor in one direction at a time.  ``tables`` holds the
    x, y and z factors (S, 2, L, n, n), value then derivative, shared
    (S = 1) or per element (S = C).  Returns two (C, n^3, n^3) stacks.

    Only the four products that M and K read are formed: z gives V and D,
    y gives VV and DV + VD as one product over (V, D) stacked with the
    lattice, x gives VVV and DVV + V(DV + VD) the same way.
    """
    C, L = inside.shape[:2]
    n = tables[0].shape[-1]
    nn = n * n
    tx, ty, tz = (t.transpose(0, 1, 3, 4, 2).reshape(t.shape[0], 2, nn, L)
                  for t in tables)
    # [D | V] against a lattice axis stacked as (V part; D part).
    dvx, dvy = (np.concatenate([t[:, 1], t[:, 0]], axis=-1) for t in (tx, ty))
    # z: T[c, X, kind, Y] holds the V and D z-factors summed over the
    # inside Z, by one GEMM on the z-lines that hold an inside index
    # (about a third of a Gauss point lattice), or one batched matmul per
    # element.
    T = np.zeros((C, L, 2, L, nn))
    if tz.shape[0] == 1:
        rows = inside.reshape(-1, L)
        lines = np.flatnonzero(rows.any(axis=1))
        cx, y = np.divmod(lines, L)
        T.reshape(C * L, 2, L, nn)[cx, :, y] = (
            rows[lines].astype(float) @ tz[0].reshape(2 * nn, L).T
        ).reshape(-1, 2, nn)
    else:
        w = inside.astype(float)
        for kind in range(2):
            np.matmul(w, tz[:, None, kind].transpose(0, 1, 3, 2),
                      out=T[:, :, kind])
    # y: Y[c, 0, X] = V T_V and Y[c, 1, X] = D T_V + V T_D.
    Y = np.empty((C, 2, L, nn, nn))
    np.matmul(ty[:, None, 0], T[:, :, 0], out=Y[:, 0])
    np.matmul(dvy[:, None], T.reshape(C, L, 2 * L, nn), out=Y[:, 1])
    # x: M = V Y_0 and K = D Y_0 + V Y_1.
    M = tx[:, 0] @ Y[:, 0].reshape(C, L, -1)
    K = dvx @ Y.reshape(C, 2 * L, -1)
    # Axes (a, d, b, e, c, f) to rows (a, b, c) and columns (d, e, f).
    return [A.reshape((C,) + (n,) * 6).transpose(0, 1, 3, 5, 2, 4, 6)
            .reshape(C, n**3, n**3) for A in (M, K)]


def _dyadic_intervals(max_depth: int):
    """Start, length, and id offsets of all dyadic subintervals of [-1, 1]."""
    m = 2 ** np.arange(max_depth + 1)          # intervals per depth
    starts = np.concatenate([-1.0 + 2.0 / k * np.arange(k) for k in m])
    return starts, np.repeat(2.0 / m, m), np.cumsum(m) - m


@dataclass
class DiscreteSystem:
    """Assembled semi-discrete system M psi'' + K psi = F(t) F_s."""

    M: sp.csr_matrix
    K: sp.csr_matrix
    F_s: np.ndarray


def assemble(grid: Grid, params: StabilizationParams, rho: float = 1.0,
             c: float = 1.0, source: SourceSpec | None = None,
             octree_depth: int = DEFAULT_OCTREE_DEPTH,
             cache: ElementIntegralCache | None = None) -> DiscreteSystem:
    """Assemble global mass/stiffness matrices and the spatial load.

    Element matrices are stacked with the uncut elements first, so the cut
    rows of every stack line up with the cache.  A cut element contributes
    ``M_in + alpha (M_full - M_in)`` (and K the same way) from its cached
    inside part and the exact uncut element matrices; eigenvalue
    stabilization sees ``M_full`` as the uncut reference.  Uncut Lagrange
    elements carry the nodal GLL diagonal; every other mass block is dense
    until the one lumping choice.  Each stack is one gather of the
    full-element matrices, combined with the cache in place; K is
    converted, and its stack and triplets freed, before the mass stack
    is built.  Passing a
    prebuilt ``cache`` reuses the alpha-independent element integrals,
    which makes stabilization parameter sweeps cheap.
    """
    if cache is None:
        cache = ElementIntegralCache(grid, octree_depth=octree_depth)
    spec = grid.spec
    sm = rho * (grid.h / 2.0) ** 3
    sk = rho * c * c * (grid.h / 2.0)
    alpha = params.alpha
    ijk = grid.kept[np.argsort(grid.kept_cut, kind="stable")]
    n_uncut = grid.n_kept - cache.M_in.shape[0]
    dofs = grid.element_dofs(ijk)
    # The exact full-element matrices, one pair per boundary signature.
    _, first, sig = np.unique(cache._sig[ijk], axis=0,
                              return_index=True, return_inverse=True)
    M_full, K_full = cache.full_element(ijk[first])
    sig = sig.reshape(-1)

    n_dof = grid.n_dof
    K = _to_csr([(dofs, _blend(K_full, sig, cache.K_in, n_uncut, alpha, sk))],
                n_dof)
    # Dense mass blocks from element ``dense`` on: the cut elements for
    # the Lagrange family, whose uncut elements carry the GLL diagonal.
    if spec.family == "lagrange":
        w = gll_rule(spec.p).weights
        m_diag = sm * np.einsum("i,j,k->ijk", w, w, w).ravel()
        m_blocks = [(dofs[:n_uncut], np.tile(m_diag, (n_uncut, 1)))]
        dense = n_uncut
    else:
        m_blocks, dense = [], 0
    M_dense = _blend(M_full, sig[dense:], cache.M_in, n_uncut - dense,
                     alpha, sm)
    if params.epsilon > 0.0:
        M_o = M_dense[n_uncut - dense:]
        M_o[...] = evs_stabilize(M_o, sm * M_full[sig[n_uncut:]],
                                 params.epsilon, params.f_lambda)
    if params.lumping == "row_sum":
        M_dense = row_sum_lump(M_dense)
    elif params.lumping == "hrz":
        M_dense = hrz_lump(M_dense)
    m_blocks.append((dofs[dense:], M_dense))
    del M_dense
    M = _to_csr(m_blocks, n_dof)
    if source is not None:
        F_s = spatial_load(grid, source, alpha=alpha, rho=rho,
                           octree_depth=cache.octree_depth, cache=cache)
    else:
        F_s = np.zeros(n_dof)
    return DiscreteSystem(M=M, K=K, F_s=F_s)


def _blend(full, sig, inside, n_uncut, alpha, scale):
    """Element stack ``scale full[sig]``, whose rows from ``n_uncut`` on
    are cut elements with inside parts ``inside`` and become
    ``scale (inside + alpha (full - inside))``: one gather, then in place,
    the same operations in the same order as the expression."""
    A = full[sig]
    cut = A[n_uncut:]
    cut -= inside
    cut *= alpha
    cut += inside
    A *= scale
    return A


def _to_csr(blocks, n_dof):
    """Sum of element blocks ``(dofs (E, n) int32, values)`` as one CSR
    matrix in canonical form (sorted int32 indices, no duplicates, no
    stored zeros); values (E, n) are diagonal blocks, (E, n, n) dense ones.

    The int32 row and column triplets are written once, straight from the
    broadcast blocks, and the values of a single block are its stack
    itself, without a copy.  ``blocks`` is emptied: the COO matrix is the
    last owner of the triplets and of the stacks, so they are freed as
    soon as the compressed rows exist, before the zeros are pruned and
    ``data`` and ``indices`` are copied down to their nnz entries.
    """
    size = sum(v.size for _, v in blocks)
    rows = np.empty(size, dtype=np.int32)
    cols = np.empty(size, dtype=np.int32)
    start = 0
    for dofs, v in blocks:
        r, c = ((dofs[:, :, None], dofs[:, None, :]) if v.ndim == 3
                else (dofs, dofs))
        rows[start:start + v.size].reshape(v.shape)[...] = r
        cols[start:start + v.size].reshape(v.shape)[...] = c
        start += v.size
    del v                     # the last stack: now only blocks holds them
    vals = (blocks[0][1].ravel() if len(blocks) == 1
            else np.concatenate([v.ravel() for _, v in blocks]))
    blocks.clear()
    A = sp.coo_matrix((vals, (rows, cols)), shape=(n_dof, n_dof))
    del rows, cols, vals
    A = A.tocsr()
    A.eliminate_zeros()
    # scipy keeps views of the triplet-sized buffers unless fewer than
    # half the entries remain; copy them down to nnz.
    if A.data.base is not None and A.data.base.size > A.nnz:
        A.data = A.data.copy()
        A.indices = A.indices.copy()
    return A


class TensorSystem:
    """Separable global operators of a boundary-fitted Lagrange grid.

    On a fully uncut grid the global stiffness factors into Kronecker
    products of one shared 1D mass and stiffness matrix, so it can be
    applied in O(n^{4/3}) without ever forming the 3D sparse matrix, and
    the nodal-quadrature mass is the Kronecker product of one 1D diagonal.
    This is what makes fine reference runs cheap.  B-spline grids go
    through :func:`assemble`.

    With P the input viewed as an (n1, n1, n1) array and a subscript
    naming the axis a 1D matrix acts on, the stiffness is applied as

        K x = k0 T1 + m0 T2,   T1 = m1 (m2 P),   T2 = k1 (m2 P) + m1 (k2 P),

    with k = rho c^2 k1, in five matrix products instead of nine
    contractions: m2 P and k2 P, then T1, then T2 as one product of the
    interleaved [k1 | m1] against m2 P and k2 P interleaved along the
    contracted axis, then K x as one product of the interleaved [k0 | m0]
    against T1 and T2 interleaved along the first axis.  The 1D matrices
    are banded: a row couples only the nodes of the elements it belongs
    to.  Each is split at every element boundary into the row blocks
    [e p, (e + 1) p) (the last block up to n1), and each block is
    multiplied only by the columns its rows touch, [e p - p, e p + p]
    clipped to the grid.  The columns left out hold exact zeros, so
    blocks and interleaving change the result only by rounding; at
    p = 6, n_e = 6 the blocks do 45% fewer flops than two halves.  The
    products write into a workspace of 4 n1^3 values that the instance
    allocates once, so ``k_matvec`` is not reentrant.
    ``k_matvec(x)`` returns a fresh array on every call, so that no
    caller (the CG solve, the Lanczos iteration) holds a result the next
    call overwrites; ``k_matvec(x, out=y)`` writes K x into ``y`` and
    returns it, which is how the central difference loop steps without
    allocating.
    """

    def __init__(self, grid: Grid, rho: float = 1.0, c: float = 1.0):
        if grid.spec.family != "lagrange":
            raise ValueError("tensor-product operators need the Lagrange family")
        if np.any(grid.classes != ElementClass.INSIDE):
            raise ValueError("tensor-product operators need a fully uncut grid")
        self.rho = float(rho)
        self.c = float(c)
        spec = grid.spec
        n1 = spec.n_funcs_1d
        h = grid.h
        g = gl_rule(spec.p + 1)
        w = gll_rule(spec.p).weights
        m1 = np.zeros((n1, n1))
        k1 = np.zeros((n1, n1))
        d = np.zeros(n1)
        V, D = spec.eval_element(0, g.nodes)    # the same on every element
        f = spec.element_funcs_1d(np.arange(spec.n_e))
        block = np.broadcast_arrays(f[:, :, None], f[:, None, :])
        # Values get the full index shape: np.add.at (numpy 2.4) adds
        # garbage when it broadcasts a 1D value over 2D indices.
        for A, a_el in ((m1, (h / 2.0) * (V * g.weights[:, None]).T @ V),
                        (k1, (2.0 / h) * (D * g.weights[:, None]).T @ D)):
            np.add.at(A, tuple(block), np.broadcast_to(a_el, block[0].shape))
        np.add.at(d, f, np.broadcast_to((h / 2.0) * w, f.shape))
        # The stiffness factors stay fully integrated and only the mass
        # uses the nodal GLL diagonal, so both operators match the
        # element-by-element assembly.
        self.m1 = m1
        self.k1 = k1
        # rho c^2 goes into the private k blocks: it saves a pass per call.
        self._last, self._middle, self._first = _stages(
            m1, self.rho * self.c * self.c * k1, spec.p, spec.n_e)
        self._m_diag = self.rho * np.einsum("i,j,k->ijk", d, d, d).ravel()

    @property
    def n_dof(self) -> int:
        return self.m1.shape[0] ** 3

    def mass_matrix(self) -> sp.csr_matrix:
        return sp.diags(self._m_diag).tocsr()

    def k_matvec(self, x, out=None):
        n1 = self.m1.shape[0]
        n = n1 ** 3
        if out is None:
            out = np.empty(n)
        elif (out.shape != (n,) or out.dtype != np.float64
              or not out.flags.c_contiguous):
            raise ValueError(f"out must be a contiguous float64 array of shape ({n},)")
        P = np.asarray(x, dtype=float).reshape(n1 * n1, n1)
        Y = out.reshape(n1, n1 * n1)
        for c, mT, kT, mP, kP in self._last:
            np.matmul(P[:, c], mT, out=mP)          # m2 P
            np.matmul(P[:, c], kT, out=kP)          # k2 P
        for A, X, T in self._middle:                # T1, then T2
            np.matmul(A, X, out=T)
        for r, km, T in self._first:
            np.matmul(km, T, out=Y[r])              # k0 T1 + m0 T2
        return out

    def stiffness_operator(self):
        n = self.n_dof
        op = spla.LinearOperator((n, n), matvec=self.k_matvec,
                                 rmatvec=self.k_matvec, dtype=float)
        # cdm_run writes K x into its own buffer through this.
        op.k_matvec = self.k_matvec
        return op

    def newmark_factorization(self, beta: float, dt: float):
        return _TensorCGFactorization(self, beta, dt)


def _stages(m, k, p: int, n_e: int):
    """The three stages of :meth:`TensorSystem.k_matvec` for the 1D mass m
    and stiffness k on ``n_e`` elements of degree p, per element row block:
    the columns its rows touch, its blocks (views of m, of contiguous
    transposes for the last axis, and of [k | m] with interleaved columns)
    and the views of a workspace allocated here that each product reads
    and writes."""
    n1 = m.shape[0]
    mT, kT = np.ascontiguousarray(m.T), np.ascontiguousarray(k.T)
    km = np.stack([k, m], axis=-1).reshape(n1, 2 * n1)
    # (m2 P, k2 P) interleaved on the middle axis, (T1, T2) on the first,
    # in one allocation: glibc raises its mmap threshold to the largest
    # block freed, and with two smaller blocks the next set-up's arrays
    # were mapped afresh and page-faulted (about 1 ms more at p6n6)
    work = np.empty((2, 2 * n1 ** 3))
    W, T = work[0].reshape(n1, n1, 2, n1), work[1].reshape(n1, 2, n1, n1)
    WI, TI = W.reshape(n1, 2 * n1, n1), T.reshape(2 * n1, n1 * n1)
    last, middle, first = [], [], []
    for e in range(n_e):
        r = slice(e * p, (e + 1) * p if e < n_e - 1 else n1)
        c = slice(max(r.start - p, 0), min(r.stop + 1, n1))
        c2 = slice(2 * c.start, 2 * c.stop)
        last.append((c, mT[c, r], kT[c, r], W[:, :, 0, r].reshape(n1 * n1, -1),
                     W[:, :, 1, r].reshape(n1 * n1, -1)))
        middle += [(m[r, c], W[:, c, 0], T[:, 0, r]),
                   (km[r, c2], WI[:, c2], T[:, 1, r])]
        first.append((r, km[r, c2], TI[c2]))
    return last, middle, first


class _TensorCGFactorization:
    """Conjugate-gradient inverse of S = M + beta dt^2 K.

    The nodal-quadrature diagonal mass and the fully integrated stiffness
    share no tensor factors, so this S has no exact separable inverse.
    Preconditioning with M puts the spectrum in [1, 1 + beta dt^2 lam_max],
    which keeps the iteration count small at implicit step sizes.
    """

    RTOL = 1e-13

    def __init__(self, tensor: "TensorSystem", beta: float, dt: float):
        d = tensor._m_diag
        self.n = d.shape[0]
        scale = beta * dt * dt
        kmv = tensor.k_matvec
        self._mdiag = d
        self._op = spla.LinearOperator(
            (self.n, self.n), matvec=lambda x: d * x + scale * kmv(x),
            dtype=float)
        self._precond = spla.LinearOperator(
            (self.n, self.n), matvec=lambda x: x / d, dtype=float)

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        # At beta = 0 the start x0 = M^-1 b is already the solution.
        x, info = spla.cg(self._op, b, x0=b / self._mdiag, rtol=self.RTOL,
                          atol=0.0, maxiter=1000, M=self._precond)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"iteration matrix solve did not converge (info={info})")
        return x


def spatial_load(grid: Grid, source: SourceSpec, alpha: float,
                 rho: float = 1.0, octree_depth: int = DEFAULT_OCTREE_DEPTH,
                 q: int | None = None,
                 cache: ElementIntegralCache | None = None) -> np.ndarray:
    """Load vector F_s[i] = integral of alpha_fcm rho f_s N_i.

    Every element within 14 sigma of the source is integrated on the same
    octree leaves as the cut-element integrals, an uncut element as one
    depth-0 inside leaf; farther elements contribute below double
    precision resolution and are skipped.  The source is isotropic and a
    leaf an axis-aligned box, so per leaf and axis A_d = w_d g_d V_d
    (q, p+1) holds the weights, the 1D Gaussian factor and the basis
    values.  Inside leaves (indicator 1) and outside leaves (alpha) add
    the outer product of the sums of A_d over their points; leaves still
    cut at maximum depth contract the indicator of the physical cube at
    their points with A_0, A_1 and A_2.
    The tables and the near cut elements' leaves come from ``cache``, a
    cache of this grid and depth, or from one built here.  Its q = p+1
    Gauss points per axis are the only rule; ``q`` may only restate it.
    All leaves go in one batched pass, in chunks of whole elements, and
    each element sums its leaves in partition order, so the chunks change
    no bit.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    n = grid.spec.p + 1
    if q is not None and q != n:
        raise ValueError(f"q must be p+1 = {n}: the load integrates on the "
                         f"cut-cell cache's leaves and tables, got q={q}")
    if cache is None:
        cache = ElementIntegralCache(grid, octree_depth)
    elif cache.grid is not grid or cache.octree_depth != octree_depth:
        raise ValueError("the cache belongs to another grid or octree depth")
    src_grid = grid.from_local(source.x_local)
    lo, hi = grid.element_box(grid.kept)
    dist = np.linalg.norm(np.clip(src_grid, lo, hi) - src_grid, axis=1)
    near = np.flatnonzero(dist <= 14.0 * source.sigma)
    ijk, lo, hi = grid.kept[near], lo[near], hi[near]
    # One depth-0 inside leaf per near uncut element, and the near cut
    # elements' leaves from the cache, whose cut element e is near element
    # box[e] (or -1).
    kept_cut = grid.kept_cut
    cut = np.flatnonzero(kept_cut[near])
    uncut = np.flatnonzero(~kept_cut[near])
    box = np.full(cache.M_in.shape[0], -1)
    box[(np.cumsum(kept_cut) - 1)[near[cut]]] = cut
    owner, ids, cls = cache._leaves
    mine = box[owner] >= 0
    owner = np.concatenate([uncut, box[owner[mine]]])
    ids = np.concatenate([np.zeros((uncut.size, 3), np.int32), ids[mine]])
    cls = np.concatenate([np.full(uncut.size, ElementClass.INSIDE, np.int8),
                          cls[mine]])
    order = np.argsort(owner, kind="stable")
    owner, ids, cls = owner[order], ids[order], cls[order]

    # A leaf's arrays: its factors and result, and its points if pointwise.
    leaf_bytes = 8 * (3 * n * n + n**3 + 3 * n**3 * (cls == ElementClass.CUT))
    F_near = np.empty((near.size, n**3))
    for els, e, i, c in _chunks(np.bincount(owner, leaf_bytes), owner,
                                ids, cls):
        k = els[e]                                  # each leaf's element
        x = cache._axis_points(lo[k], hi[k], i)     # (N, 3, q)
        # Rotation keeps distances, so the factors live in the grid frame.
        g = np.exp(-0.5 * (x - src_grid[:, None]) ** 2 / source.sigma**2)
        A = (cache._w[i] * g)[..., None] * cache._V[cache._sig[ijk[k]], i]
        F_leaf = np.empty((c.size, n, n, n))
        whole = c != ElementClass.CUT
        s = A[whole].sum(axis=2)                    # (N, 3, n)
        a = np.where(c[whole] == ElementClass.INSIDE, 1.0, alpha)
        F_leaf[whole] = (a[:, None, None, None] * s[:, 0, :, None, None]
                         * s[:, 1, None, :, None] * s[:, 2, None, None, :])
        pw = ~whole
        T = np.where(grid.geom.contains(
            cache._coords(lo[k[pw]], hi[k[pw]], i[pw])), 1.0, alpha)
        At = A[pw].swapaxes(-1, -2)                 # (N, 3, n, q)
        T = T @ A[pw, 2][:, None]                   # z: (N, q, q, n)
        T = At[:, None, 1] @ T                      # y: (N, q, n, n)
        F_leaf[pw] = (At[:, 0] @ T.reshape(-1, n, n * n)).reshape(-1, n, n, n)
        F_near[els] = np.add.reduceat(F_leaf.reshape(c.size, -1),
                                      np.searchsorted(e, np.arange(els.size)))
    F = np.zeros(grid.n_dof)
    np.add.at(F, grid.element_dofs(ijk).ravel(),
              (rho * (grid.h / 2.0) ** 3 * F_near).ravel())
    return F
