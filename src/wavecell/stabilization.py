"""Stabilization of cut-cell operators: alpha weighting, eigenvalue
stabilization of element mass matrices, and mass lumping.

Small cut fractions leave element mass matrices nearly singular, which
ruins the critical time step of explicit integration.  Three remedies are
combined here:

* alpha weighting enters through the quadrature indicator (every integrand
  is multiplied by alpha in the fictitious part), equivalent to
  ``M = M_in + alpha (M_f - M_in)`` with ``M_in`` the physical-part
  integral and ``M_f`` the full-element integral (see ``assembly``);
* eigenvalue stabilization adds ``epsilon * M_s`` to a cut element mass
  matrix, where ``M_s`` spans the matrix's small eigenspace and is scaled
  to the magnitude of an uncut element matrix;
* row-sum and diagonal-scaling (HRZ) lumping produce diagonal masses.  Both
  can go indefinite on badly cut elements, which downstream factorization
  reports rather than hides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LUMPING_CHOICES = ("none", "row_sum", "hrz")


@dataclass(frozen=True)
class StabilizationParams:
    """Stabilization settings applied during assembly.

    Attributes
    ----------
    alpha : float
        Indicator value in the fictitious domain, in (0, 1].
    epsilon : float
        Eigenvalue stabilization strength; 0 disables it.
    f_lambda : float
        Relative eigenvalue threshold: eigenvalues below
        ``f_lambda * lam_max`` count as small.
    lumping : str
        One of ``"none"``, ``"row_sum"``, ``"hrz"``.
    """

    alpha: float = 1e-8
    epsilon: float = 0.0
    f_lambda: float = 1e-2
    lumping: str = "none"

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be >= 0")
        if not 0.0 < self.f_lambda < 1.0:
            raise ValueError("f_lambda must be in (0, 1)")
        if self.lumping not in LUMPING_CHOICES:
            raise ValueError(f"lumping must be one of {LUMPING_CHOICES}")


def evs_stabilize(M_o, M_f, epsilon, f_lambda=1e-2):
    """Eigenvalue-stabilized element mass matrices.

    Works on a single matrix (n, n) or a batch (..., n, n).  The small
    eigenspace of ``M_o`` (eigenvalues below ``f_lambda`` times the largest)
    is turned into the projector ``Phi_s Phi_s'``, scaled so its largest
    entry matches the largest entry of the uncut matrix ``M_f``, and added
    with weight ``epsilon``.
    """
    M_o = np.asarray(M_o, dtype=float)
    M_f = np.asarray(M_f, dtype=float)
    lam, V = np.linalg.eigh(0.5 * (M_o + np.swapaxes(M_o, -1, -2)))
    small = lam < f_lambda * lam[..., -1:]
    # Projector onto the small eigenspace, as one batched GEMM.
    Ms = (V * small[..., None, :]) @ np.swapaxes(V, -1, -2)
    denom = np.max(np.abs(Ms), axis=(-2, -1))
    num = np.max(np.abs(M_f), axis=(-2, -1))
    scale = np.where(denom > 0.0, num / np.where(denom > 0.0, denom, 1.0), 0.0)
    return M_o + epsilon * scale[..., None, None] * Ms


def row_sum_lump(M):
    """Row-sum lumped diagonal, ``m_ii = sum_j M_ij``, as a vector.

    May be non-positive on badly cut elements; that is reported by the
    factorization rather than silently repaired.
    """
    M = np.asarray(M, dtype=float)
    # Computed as an actual product so the lumped diagonal matches M @ 1
    # bit for bit.
    return M @ np.ones(M.shape[-1])


def hrz_lump(M):
    """Diagonally scaled (HRZ) lumped diagonal as a vector.

    Scales the diagonal of ``M`` so the total lumped mass equals the element
    mass, which by partition of unity is the sum of all matrix entries.
    """
    M = np.asarray(M, dtype=float)
    diag = np.diagonal(M, axis1=-2, axis2=-1)
    scale = M.sum(axis=(-2, -1)) / diag.sum(axis=-1)
    return diag * scale[..., None]
