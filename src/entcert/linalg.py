"""Spectral/rank primitives with explicit tolerance handling.

Everything downstream (rank tests, PSD checks, reconstruction residuals)
goes through the routines here so that a single ToleranceConfig controls
the numerics of a whole analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "hermitian_eigen",
    "numerical_rank",
    "frob",
    "rel_residual",
    "dagger",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric cutoffs used by every operation.

    rank_tol_factor: dimensionless scale for the singular-value cutoff
        tau = rank_tol_factor * sigma_max * max(rows, cols) * eps.
    psd_tol: relative eigenvalue floor for positivity checks.
    residual_tol: relative reconstruction/commutation tolerance.
    """

    rank_tol_factor: float = 100.0
    psd_tol: float = 1e-8
    residual_tol: float = 1e-8

    def __post_init__(self):
        for name in ("rank_tol_factor", "psd_tol", "residual_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")

    def rank_cutoff(self, sigma_max: float, shape: tuple[int, int]) -> float:
        eps = np.finfo(np.float64).eps
        return self.rank_tol_factor * sigma_max * max(shape) * eps


DEFAULT_TOL = ToleranceConfig()


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def rel_residual(actual: np.ndarray, target: np.ndarray) -> float:
    """Frobenius distance between two arrays, relative to the target scale."""
    scale = max(frob(target), 1.0e-300)
    return frob(actual - target) / scale


def hermitian_eigen(h: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    The input is checked against the Hermiticity tolerance and then
    symmetrized, so the LAPACK routine sees exactly Hermitian data.
    Returns (eigenvalues ascending, eigenvectors as columns).
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    defect = frob(h - dagger(h))
    scale = max(frob(h), 1.0e-300)
    if defect > tol.residual_tol * max(scale, 1.0):
        raise ValueError(
            f"matrix is not Hermitian: |H - H^dag| = {defect:.3e} "
            f"(relative {defect / scale:.3e})"
        )
    w, v = np.linalg.eigh(0.5 * (h + dagger(h)))
    return w, v


def numerical_rank(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL):
    """Rank and orthonormal kernel basis of a rectangular complex matrix.

    rank = number of singular values above the cutoff; the kernel basis
    columns v satisfy |A v| <= tau.  rank + kernel dimension = #columns.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array")
    if a.size == 0:
        return 0, np.eye(a.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    sigma_max = float(s[0]) if s.size else 0.0
    cutoff = tol.rank_cutoff(sigma_max, a.shape)
    rank = int(np.sum(s > cutoff))
    kernel = dagger(vh[rank:])
    return rank, kernel
