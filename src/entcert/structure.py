"""Reducibility machinery: B-direct decompositions and classicality.

A state is B-reducible when it splits as a sum whose B-marginal ranges
form a direct sum.  After B-normalization (rho_B -> I on its range)
such a splitting is exactly an orthogonal projector commuting with all
B-side blocks of the state, so detection reduces to computing the
commutant of the block family and eigen-splitting a fixed combination
of its basis, with no random draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .certificates import (
    Certificate,
    Distillable,
    Ppt,
    Separable,
    UndecidableError,
    Undecided,
    validate_certificate,
)
from .criteria import Frame, is_ppt, left_pencil, trivially_distillable
from .linalg import (
    DEFAULT_TOL, ToleranceConfig, check_hermitian, common_eigenbasis, complete_rows, dagger, frob,
    numerical_rank, psd_range, singular_rank,
)
from .product_search import rank_one_in_span
from .states import (
    BipartiteState, apply_local, apply_local_matrix, block_form, reduce_matrix, swap_sides,
)

__all__ = [
    "BDirectDecomposition",
    "commutant_decompose",
    "decompose_b_direct",
    "decompose_b_direct_matrix",
    "aggregate",
    "common_kernel_distill",
    "classical_side",
    "b_blocks",
]


def b_blocks(state: BipartiteState) -> list:
    """The N x N blocks sigma_ij of rho = sum |i><j| (x) sigma_ij."""
    return _b_blocks(state.matrix, state.dim_a, state.dim_b)


def _b_blocks(mat: np.ndarray, m: int, n: int) -> list:
    t = mat.reshape(m, n, m, n)
    return [t[i, :, j, :] for i in range(m) for j in range(m)]


@dataclass(frozen=True)
class BDirectDecomposition:
    """Components of a B-direct splitting, in the B-normalized frame.

    normalized is the symmetrized matrix (I (x) conjugator) rho
    (I (x) conjugator)^dag on M (x) n with n = rank(rho_B); conjugator
    (n x N) maps the original B space onto the normalized one, and
    conjugator_inv (N x n) maps back.  The components, built on first
    access, are the states (I (x) P) normalized (I (x) P)^dag over the
    b_projectors P; they sum to normalized.
    """

    normalized: np.ndarray
    b_projectors: tuple
    conjugator: np.ndarray
    conjugator_inv: np.ndarray
    tol: ToleranceConfig

    def __post_init__(self):
        for name in ("normalized", "conjugator", "conjugator_inv"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @cached_property
    def components(self) -> tuple:
        n = self.conjugator.shape[0]
        normalized = BipartiteState(len(self.normalized) // n, n, self.normalized, self.tol)
        if self.irreducible:
            return (normalized,)
        return tuple(apply_local(normalized, None, p) for p in self.b_projectors)

    @property
    def n_components(self) -> int:
        return len(self.b_projectors)

    @property
    def irreducible(self) -> bool:
        return self.n_components == 1


def _b_conjugators(mat: np.ndarray, m: int, n: int, tol: ToleranceConfig):
    lam, q = psd_range(reduce_matrix(mat, m, n, "B"), tol)
    conj_fwd = (q / np.sqrt(lam)).conj().T      # n x N, sigma^{-1/2} on the range
    conj_inv = q * np.sqrt(lam)                 # N x n
    return conj_fwd, conj_inv


@cache
def _hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the n x n Hermitian matrices on axis 0, read-only:
    E_ii, then (E_ij + E_ji)/sqrt2 and i(E_ij - E_ji)/sqrt2 for each i < j."""
    basis = np.zeros((n * n, n, n), dtype=complex)
    basis[range(n), range(n), range(n)] = 1.0
    i, j = np.triu_indices(n, 1)
    k = n + 2 * np.arange(len(i))
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    basis[k, i, j] = basis[k, j, i] = inv_sqrt2
    basis[k + 1, i, j] = 1j * inv_sqrt2
    basis[k + 1, j, i] = -1j * inv_sqrt2
    basis.flags.writeable = False
    return basis


def _group_eigenvalues(w: np.ndarray, rel_gap: float = 1.0e-6):
    spread = max(float(w[-1] - w[0]), 1.0)
    groups, current = [], [0]
    for i in range(1, len(w)):
        if w[i] - w[i - 1] > rel_gap * spread:
            groups.append(current)
            current = []
        current.append(i)
    groups.append(current)
    return groups


def _commutant_constraint(blocks: np.ndarray) -> np.ndarray:
    """The real constraint matrix of commutant_decompose (layout there)."""
    e = _hermitian_basis(blocks.shape[1])[:, None]
    comm = e @ blocks - blocks @ e  # (n^2, K, n, n)
    return np.stack([comm.real, comm.imag], axis=2).reshape(len(e), -1).T


def commutant_decompose(blocks, tol: ToleranceConfig = DEFAULT_TOL):
    """Orthogonal projectors commuting with every matrix of a *-closed family.

    Solves [X, S] = 0 for Hermitian X over all K blocks S (n x n).  The
    real constraint has one column per Hermitian basis element of X and
    2 K n^2 rows, block-major: for each S the real parts of [X, S]
    (row-major), then its imaginary parts.  A 1-dimensional solution
    space (scalars) means the family is irreducible and the single full
    projector is returned.  That is decided from the singular values of
    the real constraint alone; only a reducible family pays for the
    kernel basis.  The fixed element sum_k cos(k) X_k of the kernel
    basis X_1..X_d is eigen-split, and sum_k sin(k) X_k when its grouping
    fails; like the mix of linalg.common_eigenbasis, neither value set
    satisfies a rational linear relation.  The gap-grouped
    eigenprojectors are returned, each verified to commute with every
    block.
    """
    blocks = np.asarray(blocks, dtype=complex)
    n = blocks.shape[1]
    constraint = _commutant_constraint(blocks)
    s = np.linalg.svd(constraint, compute_uv=False)
    if len(s) - singular_rank(s, constraint.shape, tol) <= 1:
        return [np.eye(n, dtype=complex)]
    kernel = numerical_rank(constraint, tol)[1]
    null_dim = kernel.shape[1]
    basis = _hermitian_basis(n)
    solution_basis = [
        sum(kernel[e, l].real * basis[e] for e in range(len(basis)))
        for l in range(null_dim)
    ]

    block_scale = [max(frob(s), 1.0e-300) for s in blocks]
    k = np.arange(1, null_dim + 1)
    for xi in (np.cos(k), np.sin(k)):
        x = sum(c * s for c, s in zip(xi, solution_basis))
        x = 0.5 * (x + dagger(x))
        w, v = np.linalg.eigh(x)
        groups = _group_eigenvalues(w)
        projectors = [v[:, g] @ dagger(v[:, g]) for g in groups]
        ok = all(
            frob(p @ s - s @ p) <= 10 * tol.residual_tol * bs
            for p in projectors for s, bs in zip(blocks, block_scale)
        )
        if ok:
            return projectors
    raise RuntimeError(
        "commutant eigen-grouping failed on both fixed elements; their "
        "eigenvalues are pathologically clustered")


def decompose_b_direct(state: BipartiteState) -> BDirectDecomposition:
    """Split the state into its finest B-direct sum of irreducible parts.

    Works on the B-normalized matrix (I (x) rho_B^{-1/2}, on the range
    of rho_B) without building its state; the components become states
    only when read.
    """
    return decompose_b_direct_matrix(state.matrix, state.dim_a, state.dim_b, state.tol)


def decompose_b_direct_matrix(mat: np.ndarray, dim_a: int, dim_b: int,
                              tol: ToleranceConfig = DEFAULT_TOL) -> BDirectDecomposition:
    """decompose_b_direct on the matrix of a validated M x N state, for a
    caller that has the matrix but no state (a swapped side, say).

    The B-normalized matrix is a product of the library's own, and is
    still checked for Hermiticity: under an ill-conditioned local
    operation its defect is what stops a wrong verdict downstream.
    """
    conj_fwd, conj_inv = _b_conjugators(mat, dim_a, dim_b, tol)
    n = conj_fwd.shape[0]
    normalized = check_hermitian(
        apply_local_matrix(mat, dim_a, dim_b, None, conj_fwd), tol)
    projectors = commutant_decompose(_b_blocks(normalized, dim_a, n), tol)
    return BDirectDecomposition(normalized, tuple(projectors), conj_fwd, conj_inv, tol)


def aggregate(decomp: BDirectDecomposition, verdicts) -> Certificate:
    """Combine per-component certificates into one for the decomposed state.

    Component i is (1 (x) P_i C) rho (1 (x) P_i C)^dag, so its results
    map back through the Frame with b = P_i C and b_back = C^-1, the
    conjugator and its inverse.  Separable iff all components separable
    (their lifted products concatenated); PPT iff all PPT; Distillable
    iff any component is (its witness lifted).  Undecided components
    block everything except a Distillable elsewhere.  It only combines;
    the caller checks the result against its state.
    """
    if len(verdicts) != decomp.n_components:
        raise ValueError("need exactly one verdict per component")
    frames = [Frame(c, b=p @ decomp.conjugator, b_back=decomp.conjugator_inv)
              for c, p in zip(decomp.components, decomp.b_projectors)]
    for frame, cert in zip(frames, verdicts):
        if isinstance(cert, Distillable):
            return frame.lift(cert)
    if any(isinstance(c, Undecided) for c in verdicts):
        reports = [c.report for c in verdicts if isinstance(c, Undecided)]
        return Undecided(report="undecided components: " + "; ".join(reports))
    if all(isinstance(c, Separable) for c in verdicts):
        return Separable(products=tuple(
            p for frame, cert in zip(frames, verdicts) for p in frame.lift_products(cert.products)))
    min_eig = min(is_ppt(comp)[1] for comp in decomp.components)
    return Ppt(min_eig_gamma=min_eig)


def common_kernel_distill(state: BipartiteState, rng=11):
    """Distillability from a common-kernel pattern, for irreducible states.

    Searches for |b> in H_B with rank[C_1 b, ..., C_M b] = 1, i.e. an
    (M-1)-dimensional A-subspace H'_A with H'_A (x) |b> inside ker(rho).
    For a B-irreducible state this yields a trivially distillable gauge.
    Returns a Distillable certificate, or None when no pattern exists,
    when the rank-1 search is out of scope (rank_one_in_span), or when
    the state is B-reducible (classify its B-direct components instead;
    restricting to the local ranges keeps B-reducibility).
    """
    frame = Frame.local(state, orient=False)
    restricted = frame.work
    if restricted.dim_a < 2:
        return None
    blocks = block_form(restricted)
    pencil = np.stack(left_pencil(blocks))  # (N, R, M)
    try:
        found = rank_one_in_span(pencil, rng=rng, tol=state.tol)
    except UndecidableError:
        return None
    if not found.found:
        return None
    b_vec = found.coefficients
    t_cols = np.stack([c @ b_vec for c in blocks.blocks], axis=1)  # R x M
    u, sv, vh = np.linalg.svd(t_cols)
    if sv.size > 1 and sv[1] > state.tol.residual_tol * sv[0]:
        return None  # numeric rank-1 claim did not hold up
    if not decompose_b_direct(restricted).irreducible:
        return None

    # build the trivially distillable gauge from the common kernel
    c_coeff = sv[0] * vh[0, :]  # columns satisfy C_j b = c_j * u0
    t_op = complete_rows(c_coeff)
    # rows 2..M of t_op give block mixes annihilating b; row 1 does not
    b_op = complete_rows(b_vec).conj()  # B^dag = complete_rows(b).T, first column b
    transformed = apply_local(restricted, t_op, b_op)
    tw = trivially_distillable(transformed)
    if tw is None:
        raise RuntimeError(
            "common-kernel construction did not produce a trivially "
            "distillable gauge; numerical inconsistency")
    cert = Distillable(frame.lift_witness(tw, t_op, b_op))
    validate_certificate(state, cert)
    return cert


def classical_side(state: BipartiteState, side: str = "B"):
    """Zero-discord test: is the state diagonal in some basis of `side`?

    True iff the opposite-side-indexed block family has a common
    orthonormal eigenbasis (the family is *-closed, so this is the case
    iff it pairwise commutes); that basis is returned with the flag.
    The basis comes from one fixed combination of the blocks
    (linalg.common_eigenbasis), so there is no search and no retry budget.
    Each block is judged on its own norm, so a small non-normal block
    beside a large classical one makes the side non-classical.
    """
    work = state if side.upper() == "B" else swap_sides(state)
    found = common_eigenbasis(b_blocks(work), state.tol)
    return (False, None) if found is None else (True, found[0])
