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
    "check_hermitian",
    "hermitian_eigen",
    "psd_eigen",
    "psd_range",
    "singular_rank",
    "numerical_rank",
    "complete_rows",
    "common_eigenbasis",
    "frob",
    "rel_residual",
    "dagger",
    "kron",
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

    def negativity_floor(self, norm: float) -> float:
        """Eigenvalues below minus this count as negative, for an
        operator of spectral norm `norm`."""
        return self.psd_tol * max(norm, 1.0e-300)


DEFAULT_TOL = ToleranceConfig()


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two vectors or two matrices, as one broadcast outer
    product: the same products, so the same bytes and dtype, without
    np.kron's general-rank bookkeeping."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim == b.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(-1)
    if a.ndim == b.ndim == 2:
        return (a[:, None, :, None] * b[None, :, None, :]).reshape(
            a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    raise ValueError(f"kron needs two vectors or two matrices, got ranks {a.ndim}, {b.ndim}")


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def rel_residual(actual: np.ndarray, target: np.ndarray) -> float:
    """Frobenius distance between two arrays, relative to the target scale."""
    scale = max(frob(target), 1.0e-300)
    return frob(actual - target) / scale


def check_hermitian(h: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """The square matrix h, checked for finite entries and against the
    Hermiticity tolerance, and symmetrized, so later routines see
    exactly Hermitian data."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    scale = frob(h)
    # NaN compares False against every bar below; finite entries whose
    # norm overflows go on to them
    if not np.isfinite(scale) and not np.all(np.isfinite(h)):
        raise ValueError("matrix has an entry that is not finite")
    defect = frob(h - dagger(h))
    scale = max(scale, 1.0e-300)
    if defect > tol.residual_tol * max(scale, 1.0):
        raise ValueError(
            f"matrix is not Hermitian: |H - H^dag| = {defect:.3e} "
            f"(relative {defect / scale:.3e})"
        )
    return 0.5 * (h + dagger(h))


def hermitian_eigen(h: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL):
    """(eigenvalues ascending, eigenvectors as columns) of a matrix that
    passes check_hermitian."""
    return np.linalg.eigh(check_hermitian(h, tol))


def psd_eigen(h: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian PSD matrix, split at the rank cutoff.

    h is symmetrized but not checked (check_hermitian does that).
    Returns (w, v, nullity): eigenvalues ascending, eigenvectors as
    columns, and the number of leading eigenvalues at or below the rank
    cutoff of the largest one; their eigenvectors span the kernel.
    """
    h = np.asarray(h, dtype=complex)
    w, v = np.linalg.eigh(0.5 * (h + dagger(h)))
    cutoff = tol.rank_cutoff(max(float(w[-1]), 0.0), h.shape)
    return w, v, int(np.sum(w <= cutoff))


def psd_range(h: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL):
    """(w, q): the eigenvalues of a Hermitian PSD matrix above the
    psd_eigen cutoff, largest first, and their eigenvector columns."""
    w, v, nullity = psd_eigen(h, tol)
    keep = np.arange(len(w) - 1, nullity - 1, -1)
    return w[keep], v[:, keep]


def singular_rank(s: np.ndarray, shape: tuple[int, int],
                  tol: ToleranceConfig = DEFAULT_TOL, scale: float | None = None) -> int:
    """Number of singular values s (descending) of an array of the given
    shape above the rank cutoff; the cutoff is relative to `scale`, by
    default the largest singular value."""
    if scale is None:
        scale = float(s[0]) if s.size else 0.0
    return int(np.count_nonzero(s > tol.rank_cutoff(scale, shape)))


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
    rank = singular_rank(s, a.shape, tol)
    return rank, dagger(vh[rank:])


def complete_rows(row: np.ndarray, last: bool = False) -> np.ndarray:
    """Invertible matrix with `row` as its first row (its last with last).

    The other rows are an orthonormal basis of the vectors orthogonal to
    row, so the matrix is unitary when row is a unit vector.
    """
    m = row.shape[0]
    _, kernel = numerical_rank(row.conj().reshape(1, m))
    rows = [row.reshape(1, m), kernel.T]
    return np.vstack(rows[::-1] if last else rows)


def common_eigenbasis(mats, tol: ToleranceConfig = DEFAULT_TOL):
    """(u, diags) with u unitary and diags[k] the diagonal of u^dag mats[k] u,
    or None when the family has no common eigenbasis within tolerance.

    For a commuting normal family, z = sum_k e^{-ik} A_k, k = 1, 2, ..., is
    normal and its eigenvectors diagonalize every member.  No rational
    linear relation holds among the cos(k), sin(k) (e^i is transcendental),
    so joint eigenvalues with integer structure do not collide in z.  u
    starts as the eigenvectors of the Hermitian part of z, which resolve
    two eigenvalues of z only as far as their real parts differ.  A pair
    of columns whose coupling in w = u^dag z u reaches 1e-6 times their
    diagonal gap (real parts within ~1e6 noise levels) is rotated onto
    the eigenvectors of its 2x2 block.  One first-order step with the
    complex diagonal of w then makes the error scale with the complex
    gaps; it leaves out a pair whose coupling is not below 1e-3 times
    its gap, since within a joint eigenspace any basis serves.  Each
    matrix's off-diagonal mass in u is checked against its own norm, so
    a small member is judged on its own scale; that one check tests
    normality and commutation at once.
    """
    mats = np.asarray(mats, dtype=complex)
    k, n, _ = mats.shape
    z = (np.exp(-1j * np.arange(1, k + 1)) @ mats.reshape(k, n * n)).reshape(n, n)
    _, u = np.linalg.eigh(0.5 * (z + dagger(z)))
    w = dagger(u) @ z @ u
    gap = np.diagonal(w)[:, None] - np.diagonal(w)[None, :]
    for pair in np.argwhere(np.triu(np.abs(w) >= 1e-6 * np.abs(gap), 1)):
        # eigenvectors of the normal 2x2 block, orthonormalized
        g = np.linalg.qr(np.linalg.eig(w[np.ix_(pair, pair)])[1])[0]
        u[:, pair] = u[:, pair] @ g
        w[:, pair] = w[:, pair] @ g
        w[pair, :] = dagger(g) @ w[pair, :]
    gap = np.diagonal(w)[:, None] - np.diagonal(w)[None, :]
    small = np.abs(w) < 1e-3 * np.abs(gap)
    p, _, vh = np.linalg.svd(u - u @ np.where(small, w / np.where(small, gap, 1.0), 0.0))
    u = p @ vh
    conj = dagger(u) @ mats @ u
    diags = np.diagonal(conj, axis1=1, axis2=2)
    off = (conj - diags[:, :, None] * np.eye(n)).reshape(k, n * n)
    if np.any(np.linalg.norm(off, axis=1)
              > 100 * tol.residual_tol * np.linalg.norm(mats.reshape(k, n * n), axis=1)):
        return None
    return u, diags
