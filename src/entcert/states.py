"""Bipartite state model: density matrices on an M (x) N product space.

Basis convention: the product basis |i>_A (x) |j>_B is flattened as
i*N + j, everywhere (matrices, pure-state vectors, file formats).
States may be non-normalized; only trace > 0 is required.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    check_hermitian,
    dagger,
    frob,
    hermitian_eigen,
    kron,
    psd_eigen,
    psd_range,
    singular_rank,
)

__all__ = [
    "BipartiteState",
    "PureState",
    "BlockForm",
    "partial_transpose",
    "reduce",
    "sector",
    "block_form",
    "apply_local",
    "apply_local_matrix",
    "schmidt",
    "tensor",
    "swap_sides",
    "von_neumann_entropy",
]


@dataclass(frozen=True)
class PureState:
    """Non-normalized pure state on an M (x) N space."""

    dim_a: int
    dim_b: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amp.shape[0] != self.dim_a * self.dim_b:
            raise ValueError("amplitude vector length does not match dims")
        if not np.any(np.abs(amp) > 0):
            raise ValueError("pure state must be a nonzero vector")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    def coefficient_matrix(self) -> np.ndarray:
        """The M x N matrix K with K[i, j] = amplitude of |i, j>."""
        return self.amplitudes.reshape(self.dim_a, self.dim_b)

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


@dataclass(frozen=True)
class BipartiteState:
    """Hermitian PSD matrix on an M (x) N space, trace > 0.

    The matrix is symmetrized on construction (after a Hermiticity
    tolerance check), then frozen; all operations are pure functions.
    Its rank and local ranks are psd_eigen cutoff counts, the split that
    range_basis uses, computed on first use and kept as integers.
    """

    dim_a: int
    dim_b: int
    matrix: np.ndarray
    tol: ToleranceConfig = field(default=DEFAULT_TOL)

    def __post_init__(self):
        m, n = self.dim_a, self.dim_b
        if m < 1 or n < 1:
            raise ValueError("dimensions must be >= 1")
        rho = np.asarray(self.matrix, dtype=complex)
        if rho.shape != (m * n, m * n):
            raise ValueError(f"matrix shape {rho.shape} does not match dims {m}x{n}")
        rho = check_hermitian(rho, self.tol)
        w = np.linalg.eigvalsh(rho)
        if w[0] < -self.tol.negativity_floor(float(w[-1])):
            raise ValueError(f"matrix is not PSD (min eigenvalue {w[0]:.3e})")
        if np.real(np.trace(rho)) <= 0:
            raise ValueError("state must have positive trace")
        rho.flags.writeable = False
        object.__setattr__(self, "matrix", rho)
        object.__setattr__(self, "_spectral_norm", float(w[-1]))

    @property
    def spectral_norm(self) -> float:
        """Largest eigenvalue, kept from the PSD check at construction."""
        return self._spectral_norm

    def rank(self) -> int:
        """Eigenvalues of rho above the psd_eigen cutoff; the number of
        range_basis columns.  Computed once per state."""
        return self._rank

    def local_ranks(self) -> tuple[int, int]:
        """(rank rho_A, rank rho_B) as psd_eigen cutoff counts, the split
        that restricts a state to its local ranges.  Computed once per
        state."""
        return self._local_ranks

    @cached_property
    def _rank(self) -> int:
        return _psd_rank(self.matrix, self.tol)

    @cached_property
    def _local_ranks(self) -> tuple[int, int]:
        return tuple(_psd_rank(reduce(self, side), self.tol) for side in "AB")

    def range_basis(self) -> np.ndarray:
        """Orthonormal basis of the range, columns, eigenvalue-ordered."""
        return psd_range(self.matrix, self.tol)[1]

    @staticmethod
    def from_vectors(dim_a, dim_b, vectors, tol: ToleranceConfig = DEFAULT_TOL) -> "BipartiteState":
        """Sum of |v><v| over the given (non-normalized) vectors."""
        rho = np.zeros((dim_a * dim_b, dim_a * dim_b), dtype=complex)
        for v in vectors:
            v = np.asarray(v, dtype=complex).reshape(-1)
            rho += np.outer(v, v.conj())
        return BipartiteState(dim_a, dim_b, rho, tol)


@dataclass(frozen=True)
class BlockForm:
    """Row blocks C_1..C_M (each R x N) with rho = (C_1,..,C_M)^dag (C_1,..,C_M).

    The blocks carry a left-unitary gauge freedom; every predicate built
    on them downstream is gauge-invariant.
    """

    blocks: tuple[np.ndarray, ...]
    rank: int

    @property
    def dim_a(self) -> int:
        return len(self.blocks)

    @property
    def dim_b(self) -> int:
        return self.blocks[0].shape[1]

    def stacked(self) -> np.ndarray:
        """The R x (M*N) concatenation (C_1, ..., C_M)."""
        return np.hstack(self.blocks)

    def reconstruct(self) -> np.ndarray:
        w = self.stacked()
        return dagger(w) @ w

    def normalize_last(self) -> tuple["BlockForm", np.ndarray]:
        """Right-multiply by C_M^{-1} so the last block becomes I_N.

        Valid when C_M is square invertible: the blocks are those of
        (I (x) B) rho (I (x) B)^dag for B = (C_M^{-1})^dag.  Returns the
        new block form and C_M^{-1}.
        """
        c_last = self.blocks[-1]
        if c_last.shape[0] != c_last.shape[1]:
            raise ValueError(
                f"block C_{len(self.blocks)} is {c_last.shape[0]}x{c_last.shape[1]}, not square"
            )
        try:
            inv = np.linalg.inv(c_last)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"block C_{len(self.blocks)} is singular, cannot normalize") from exc
        return BlockForm(tuple(c @ inv for c in self.blocks), self.rank), inv


def _psd_rank(h: np.ndarray, tol: ToleranceConfig) -> int:
    w, _, nullity = psd_eigen(h, tol)
    return len(w) - nullity


def partial_transpose_matrix(mat: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Matrix-level partial transpose on the A indices (pure permutation)."""
    t = np.asarray(mat).reshape(dim_a, dim_b, dim_a, dim_b).transpose(2, 1, 0, 3)
    return t.reshape(dim_a * dim_b, dim_a * dim_b)


def partial_transpose(state: BipartiteState) -> np.ndarray:
    """Transpose on the A indices: block (i,j) of the output is block (j,i).

    Pure index permutation, so applying it twice returns the input exactly.
    """
    return partial_transpose_matrix(state.matrix, state.dim_a, state.dim_b)


def reduce_matrix(mat: np.ndarray, dim_a: int, dim_b: int, side: str) -> np.ndarray:
    t = np.asarray(mat).reshape(dim_a, dim_b, dim_a, dim_b)
    if side.upper() == "A":
        return np.einsum("ikjk->ij", t)
    if side.upper() == "B":
        return np.einsum("kikj->ij", t)
    raise ValueError("side must be 'A' or 'B'")


def reduce(state: BipartiteState, side: str) -> np.ndarray:
    """Partial trace: reduce(rho, "A") = tr_B(rho) and vice versa."""
    return reduce_matrix(state.matrix, state.dim_a, state.dim_b, side)


def sector(state: BipartiteState, x: np.ndarray, side: str = "A") -> np.ndarray:
    """The Hermitian observable <x|rho|x> on the opposite system.

    For |x> = sum_k xi_k |k>_A this is sum_{ij} xi_i^* xi_j sigma_ij,
    an N x N PSD operator; with a block form attached it equals X^dag X
    for X = sum_k xi_k C_k.
    """
    x = np.asarray(x, dtype=complex).reshape(-1)
    if not np.any(np.abs(x) > 0):
        raise ValueError("sector vector must be nonzero")
    m, n = state.dim_a, state.dim_b
    t = state.matrix.reshape(m, n, m, n)
    if side.upper() == "A":
        if x.shape[0] != m:
            raise ValueError("vector length does not match dim_a")
        return np.einsum("i,j,iajb->ab", x.conj(), x, t)
    if side.upper() == "B":
        if x.shape[0] != n:
            raise ValueError("vector length does not match dim_b")
        return np.einsum("a,b,iajb->ij", x.conj(), x, t)
    raise ValueError("side must be 'A' or 'B'")


def block_form(state: BipartiteState) -> BlockForm:
    """Factor rho = W^dag W and slice W into the M row blocks C_1..C_M.

    W's rows are the conjugated eigenvalue-weighted eigenvectors of rho
    (descending eigenvalue order); C_j[i, :] is the conjugate of the
    j-th B-block of the i-th weighted eigenvector.
    """
    return _block_form_from_range(*psd_range(state.matrix, state.tol),
                                  state.dim_a, state.dim_b)


def _block_form_from_range(w: np.ndarray, q: np.ndarray, m: int, n: int) -> BlockForm:
    """block_form from the psd_range split (w, q) of an M x N state."""
    psis = (q * np.sqrt(w)).T  # rows are the weighted eigenvectors
    rank = psis.shape[0]
    stacked = psis.conj()  # W with W^dag W = rho
    blocks = tuple(stacked[:, j * n:(j + 1) * n].copy() for j in range(m))
    return BlockForm(blocks, rank)


def apply_local_matrix(mat: np.ndarray, dim_a: int, dim_b: int, a: np.ndarray | None,
                       b: np.ndarray | None) -> np.ndarray:
    """Matrix-level (A (x) B) mat (A (x) B)^dag; A is M'xM, B is N'xN (None: I).

    Rejects a result that is zero up to the rounding of the product.
    With op = A (x) B, both products have inner dimension d = M N, so
    to first order each computed entry of op mat op^dag is off by at
    most about 2 d u times the same entry of |op| |mat| |op^dag| (u the
    unit roundoff; complex arithmetic at most doubles the constant), and
    || |op| |mat| |op^dag| ||_F <= ||op||_F^2 ||mat||_F.  An output with
    no entry above 4 d u ||op||_F^2 ||mat||_F is therefore rounding
    noise.  The bar scales with mat and with op, so the test gives the
    same answer for c mat and for (s A) (x) B at any c, s.
    """
    a = np.eye(dim_a, dtype=complex) if a is None else np.asarray(a, dtype=complex)
    b = np.eye(dim_b, dtype=complex) if b is None else np.asarray(b, dtype=complex)
    if a.shape[1] != dim_a or b.shape[1] != dim_b:
        raise ValueError("local operator shapes do not conform with the state")
    op = kron(a, b)
    out = op @ mat @ dagger(op)
    u = np.finfo(float).eps / 2
    bar = 4 * mat.shape[0] * u * frob(op) ** 2 * frob(mat)
    if not np.any(np.abs(out) > bar):
        raise ValueError("local operation produced the zero state")
    return out


def apply_local(state: BipartiteState, a: np.ndarray | None, b: np.ndarray | None) -> BipartiteState:
    """Return (A (x) B) rho (A (x) B)^dag; A is M'xM, B is N'xN.

    With square invertible A, B this is an ILO: it preserves rank,
    PPT-ness, separability and both full-rank properties.
    """
    out = apply_local_matrix(state.matrix, state.dim_a, state.dim_b, a, b)
    dim_a = state.dim_a if a is None else np.shape(a)[0]
    dim_b = state.dim_b if b is None else np.shape(b)[0]
    return BipartiteState(dim_a, dim_b, out, state.tol)


def schmidt(psi: PureState, tol: ToleranceConfig = DEFAULT_TOL):
    """Schmidt decomposition of a pure state.

    Returns (coefficients, basis_a, basis_b): nonincreasing positive
    coefficients s_k and orthonormal local vectors (columns of basis_a,
    rows of basis_b as kets) with psi = sum_k s_k a_k (x) b_k.
    """
    k = psi.coefficient_matrix()
    u, s, vh = np.linalg.svd(k)
    r = singular_rank(s, k.shape, tol)
    return s[:r], u[:, :r], vh[:r, :]


def tensor(rho: BipartiteState, sigma: BipartiteState) -> BipartiteState:
    """Tensor product regrouped as (A1 A2) : (B1 B2)."""
    m1, n1 = rho.dim_a, rho.dim_b
    m2, n2 = sigma.dim_a, sigma.dim_b
    big = kron(rho.matrix, sigma.matrix)
    t = big.reshape(m1, n1, m2, n2, m1, n1, m2, n2)
    t = t.transpose(0, 2, 1, 3, 4, 6, 5, 7)
    d = m1 * m2 * n1 * n2
    return BipartiteState(m1 * m2, n1 * n2, t.reshape(d, d), rho.tol)


def swap_sides_matrix(mat: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Matrix-level swap_sides: mat on A (x) B reordered to B (x) A."""
    t = np.asarray(mat).reshape(dim_a, dim_b, dim_a, dim_b).transpose(1, 0, 3, 2)
    return t.reshape(dim_a * dim_b, dim_a * dim_b)


def swap_sides(state: BipartiteState) -> BipartiteState:
    """The same state with the roles of A and B interchanged."""
    m, n = state.dim_a, state.dim_b
    return BipartiteState(n, m, swap_sides_matrix(state.matrix, m, n), state.tol)


def swap_vector(v: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Reorder a product-basis vector from A:B to B:A ordering."""
    return np.asarray(v, dtype=complex).reshape(dim_a, dim_b).T.reshape(-1)


def von_neumann_entropy(rho: np.ndarray, normalize: bool = True,
                        tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """S(rho) = -sum lambda_i log2 lambda_i over the normalized spectrum.

    Eigenvalues below the PSD floor contribute zero.  Rejects zero trace.
    """
    w, _ = hermitian_eigen(rho, tol)
    if w[0] < -tol.negativity_floor(float(w[-1])):
        raise ValueError(f"operator is not PSD (min eigenvalue {w[0]:.3e})")
    tr = float(np.sum(w))
    if tr <= 0:
        raise ValueError("entropy of a zero-trace operator is undefined")
    lam = w / tr if normalize else w
    lam = lam[lam > tol.psd_tol]
    if lam.size == 0:
        return 0.0
    return float(-np.sum(lam * np.log2(lam)))
