"""One-dimensional quadrature rules and shape function evaluation.

Two basis families are supported on tensor-product grids:

* ``"lagrange"``: Lagrange polynomials on Gauss-Lobatto-Legendre (GLL)
  points.  Evaluating the mass matrix with the GLL rule of the same order
  makes it diagonal (nodal quadrature); the stiffness matrix uses a
  Gauss-Legendre rule, which is exact for its integrand.
* ``"bspline"``: B-splines of maximal smoothness on open uniform knot
  vectors, C^(p-1) across element interfaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
import scipy.special


@dataclass(frozen=True)
class Rule1D:
    """A 1D quadrature rule on the reference interval [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        # The memoized rules are shared by every caller: keep them read-only.
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


@cache
def gl_rule(q: int) -> Rule1D:
    """Gauss-Legendre rule with ``q`` points (exact through degree 2q-1),
    memoized."""
    if q < 1:
        raise ValueError("need at least one quadrature point")
    x, w = np.polynomial.legendre.leggauss(q)
    return Rule1D(nodes=x, weights=w)


@cache
def gll_rule(p: int) -> Rule1D:
    """Gauss-Lobatto-Legendre rule with p+1 points (endpoints included).

    Interior nodes are the roots of P_p', which are the Gauss-Jacobi nodes
    for alpha = beta = 1 (antisymmetric to the bit); weights are
    2 / (p (p+1) P_p(x)^2).  Memoized per degree.
    """
    if p < 1:
        raise ValueError("GLL rule needs polynomial degree >= 1")
    interior = scipy.special.roots_jacobi(p - 1, 1.0, 1.0)[0] if p > 1 else []
    P = np.polynomial.legendre.legval(interior, np.eye(p + 1)[p])
    P2 = np.concatenate(([1.0], P * P, [1.0]))      # P_p(+-1)^2 = 1
    return Rule1D(nodes=np.concatenate(([-1.0], interior, [1.0])),
                  weights=2.0 / (p * (p + 1) * P2))


def lagrange_eval(nodes, x):
    """Values and first derivatives of the Lagrange basis on ``nodes``.

    Parameters
    ----------
    nodes : array_like, shape (n,)
        Distinct interpolation nodes.
    x : array_like, any shape
        Evaluation points.

    Returns
    -------
    V, D : ndarray, shape ``x.shape + (n,)``
        ``V[..., j] = L_j(x)`` and ``D[..., j] = L_j'(x)``.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.shape[0]
    diff = np.asarray(x, dtype=float)[..., None] - nodes     # (..., n)
    denom = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(denom, 1.0)
    scale = np.prod(denom, axis=1)              # prod_{m != j} (x_j - x_m)
    # Masked factors are exactly 1 (and masked terms exactly 0), so every
    # product and sum runs over the same factors in the same order as the
    # textbook loop over m != j and k != j.
    off = ~np.eye(n, dtype=bool)                # off[j, m]: m != j
    V = np.prod(np.where(off, diff[..., None, :], 1.0), axis=-1) / scale
    # terms[..., k, j] = prod_{m not in {j, k}} (x - x_m); summing over
    # the outer axis k keeps the sum sequential (no pairwise blocking).
    terms = np.prod(np.where(off[:, None, :] & off[None, :, :],
                             diff[..., None, None, :], 1.0), axis=-1)
    D = np.sum(np.where(off, terms, 0.0), axis=-2) / scale
    return V, D


def bspline_eval(window, x):
    """B-spline basis values and derivatives on one knot span.

    ``window`` holds the 2p knots ``t[s-p+1], ..., t[s+p]`` around the span
    ``[t[s], t[s+1]] = [window[p-1], window[p]]``: all that the Cox-de Boor
    recursion reads for the p+1 functions supported on the span.  Its
    leading axes broadcast against ``x``.  Each point is evaluated as the
    polynomial of the span, so the span's end points give its one-sided
    limits.

    Returns
    -------
    V, D : ndarray, shape ``broadcast(window[..., 0], x).shape + (p+1,)``
        Values and first derivatives of the functions ``s - p, ..., s``.
    """
    window = np.asarray(window, dtype=float)
    p = window.shape[-1] // 2
    x = np.asarray(x, dtype=float)
    x = np.broadcast_to(x, np.broadcast_shapes(window.shape[:-1], x.shape))
    N = np.zeros(x.shape + (p + 1,))
    N[..., 0] = 1.0
    D = np.zeros(x.shape + (p + 1,))
    left = np.empty(x.shape + (p + 1,))
    right = np.empty(x.shape + (p + 1,))
    for j in range(1, p + 1):
        if j == p:
            # N[..., :p] holds the degree p-1 basis here; each derivative
            # is a difference of two of its functions (de Boor).
            term = p * N[..., :p] / (window[..., p:] - window[..., :p])
            D[..., 1:] += term
            D[..., :-1] -= term
        left[..., j] = x - window[..., p - j]
        right[..., j] = window[..., p - 1 + j] - x
        saved = np.zeros(x.shape)
        for r in range(j):
            denom = right[..., r + 1] + left[..., j - r]
            temp = N[..., r] / denom
            N[..., r] = saved + right[..., r + 1] * temp
            saved = left[..., j - r] * temp
        N[..., j] = saved
    return N, D


@dataclass(frozen=True)
class BasisSpec:
    """Discretization choice: basis family, degree, elements per direction."""

    family: str
    p: int
    n_e: int

    def __post_init__(self):
        if self.family not in ("lagrange", "bspline"):
            raise ValueError(f"unknown basis family {self.family!r}")
        if self.p < 1:
            raise ValueError("polynomial degree must be >= 1")
        if self.n_e < 1:
            raise ValueError("need at least one element per direction")

    @property
    def n_funcs_1d(self) -> int:
        """Global basis functions per direction."""
        if self.family == "lagrange":
            return self.n_e * self.p + 1
        return self.n_e + self.p

    def element_funcs_1d(self, e) -> np.ndarray:
        """Global indices of the functions supported on element(s) ``e``.

        The one rule for the 1D layout: element ``e`` starts at function
        ``e p`` for Lagrange (neighbors share an end node) and ``e`` for
        B-splines.  An array ``e`` gives shape ``e.shape + (p+1,)``.
        """
        stride = self.p if self.family == "lagrange" else 1
        return np.asarray(e)[..., None] * stride + np.arange(self.p + 1)

    def eval_element(self, e, xi):
        """Basis values/derivatives on element(s) ``e`` at reference coords xi.

        ``e`` and ``xi`` broadcast against each other; both results have
        shape ``broadcast(e, xi).shape + (p+1,)``.  ``xi`` lives on
        [-1, 1]; derivatives are with respect to xi.  B-splines live on the
        open uniform knot vector of the n_e elements (end knots repeated
        p+1 times, simple interior knots); element ``e`` reads only its
        window of 2p knots, computed in closed form.  xi = -1 and +1 give
        the element's own polynomial, never a neighbor's.
        """
        e = np.asarray(e)
        xi = np.asarray(xi, dtype=float)
        if self.family == "lagrange":
            shape = np.broadcast_shapes(e.shape, xi.shape)
            return lagrange_eval(gll_rule(self.p).nodes,
                                 np.broadcast_to(xi, shape))
        # Knots in knot spacings from the element's left knot, clipped at
        # the repeated end knots: small exact integers, so elements at the
        # same distance from the boundary (one signature) get bitwise equal
        # values.
        window = np.clip(np.arange(1 - self.p, self.p + 1), -e[..., None],
                         self.n_e - e[..., None])
        V, D = bspline_eval(window, (xi + 1.0) / 2.0)
        return V, D / 2.0
