"""Reducibility machinery: B-direct decompositions and classicality.

A state is B-reducible when it splits as a sum whose B-marginal ranges
form a direct sum.  After B-normalization (rho_B -> I on its range)
such a splitting is exactly an orthogonal projector commuting with all
B-side blocks of the state, so detection reduces to computing the
commutant of the block family and eigen-splitting a generic element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import (
    Certificate,
    Distillable,
    Ppt,
    SchmidtRank2Witness,
    Separable,
    Undecided,
    lift_through_local,
    validate_witness,
)
from .criteria import Frame, is_ppt, left_pencil, trivially_distillable
from .linalg import (
    DEFAULT_TOL, ToleranceConfig, complete_rows, dagger, frob, numerical_rank, psd_range,
)
from .product_search import rank_one_in_span
from .random_states import as_rng, complex_gaussian
from .states import BipartiteState, apply_local, block_form, reduce, swap_sides

__all__ = [
    "BDirectDecomposition",
    "b_normalize",
    "commutant_decompose",
    "decompose_b_direct",
    "aggregate",
    "common_kernel_distill",
    "classical_side",
    "b_blocks",
]


def b_blocks(state: BipartiteState) -> list:
    """The N x N blocks sigma_ij of rho = sum |i><j| (x) sigma_ij."""
    m, n = state.dim_a, state.dim_b
    t = state.matrix.reshape(m, n, m, n)
    return [t[i, :, j, :] for i in range(m) for j in range(m)]


@dataclass(frozen=True)
class BDirectDecomposition:
    """Components of a B-direct splitting, in the B-normalized frame.

    components live on M (x) n with n = rank(rho_B); conjugator (n x N)
    maps the original B space onto the normalized one, and
    conjugator_inv (N x n) maps back.  The sum of the components equals
    (I (x) conjugator) rho (I (x) conjugator)^dag.
    """

    components: tuple
    b_projectors: tuple
    conjugator: np.ndarray
    conjugator_inv: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.conjugator, dtype=complex)
        ci = np.asarray(self.conjugator_inv, dtype=complex)
        c.flags.writeable = False
        ci.flags.writeable = False
        object.__setattr__(self, "conjugator", c)
        object.__setattr__(self, "conjugator_inv", ci)

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def irreducible(self) -> bool:
        return self.n_components == 1


def b_normalize(state: BipartiteState):
    """Conjugate by I (x) rho_B^{-1/2} (on the range of rho_B).

    Returns (normalized_state, conjugator, conjugator_inv); the
    normalized state has rho_B = I on an n-dimensional B space.  All
    PPT/separability/reducibility verdicts are unchanged (ILO on the
    support).
    """
    lam, q = psd_range(reduce(state, "B"), state.tol)
    conj_fwd = (q / np.sqrt(lam)).conj().T      # n x N, sigma^{-1/2} on the range
    conj_inv = q * np.sqrt(lam)                 # N x n
    normalized = apply_local(state, None, conj_fwd)
    return normalized, conj_fwd, conj_inv


def _hermitian_basis(n: int):
    basis = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = e[j, i] = inv_sqrt2
            basis.append(e)
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1j * inv_sqrt2
            e[j, i] = -1j * inv_sqrt2
            basis.append(e)
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


def commutant_decompose(blocks, tol: ToleranceConfig = DEFAULT_TOL, rng=11):
    """Orthogonal projectors commuting with every matrix of a *-closed family.

    Solves [X, S] = 0 for Hermitian X over all blocks S; a 1-dimensional
    solution space (scalars) means the family is irreducible and the
    single full projector is returned.  Otherwise a generic random
    element of the commutant is eigen-split and its gap-grouped
    eigenprojectors are returned, each verified to commute with every
    block.
    """
    blocks = [np.asarray(b, dtype=complex) for b in blocks]
    n = blocks[0].shape[0]
    if n == 1:
        return [np.eye(1, dtype=complex)]
    basis = _hermitian_basis(n)
    cols = []
    for e in basis:
        pieces = []
        for s in blocks:
            comm = e @ s - s @ e
            pieces.append(np.concatenate([comm.real.ravel(), comm.imag.ravel()]))
        cols.append(np.concatenate(pieces))
    constraint = np.array(cols).T  # maps Hermitian-basis coefficients to commutators
    rank, kernel = numerical_rank(constraint, tol)
    null_dim = kernel.shape[1]
    if null_dim <= 1:
        return [np.eye(n, dtype=complex)]
    solution_basis = [
        sum(kernel[e, l].real * basis[e] for e in range(len(basis)))
        for l in range(null_dim)
    ]

    rng = as_rng(rng)
    block_scale = [max(frob(s), 1.0e-300) for s in blocks]
    for attempt in range(2):
        xi = rng.standard_normal(null_dim)
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
        "commutant eigen-grouping failed twice; the generic element has "
        "pathologically clustered eigenvalues")


def decompose_b_direct(state: BipartiteState, rng=11) -> BDirectDecomposition:
    """Split the state into its finest B-direct sum of irreducible parts."""
    normalized, conj_fwd, conj_inv = b_normalize(state)
    blocks = b_blocks(normalized)
    projectors = commutant_decompose(blocks, state.tol, rng=rng)
    if len(projectors) == 1:
        return BDirectDecomposition(
            components=(normalized,), b_projectors=(projectors[0],),
            conjugator=conj_fwd, conjugator_inv=conj_inv)
    components = tuple(apply_local(normalized, None, p) for p in projectors)
    return BDirectDecomposition(
        components=components, b_projectors=tuple(projectors),
        conjugator=conj_fwd, conjugator_inv=conj_inv)


def _lift_component_witness(decomp: BDirectDecomposition, index: int,
                            witness, dims) -> SchmidtRank2Witness:
    b_map = decomp.b_projectors[index] @ decomp.conjugator
    vec = lift_through_local(witness.vector, None, b_map, dims)
    return SchmidtRank2Witness(vector=vec, value=witness.value)


def aggregate(state: BipartiteState, decomp: BDirectDecomposition,
              verdicts) -> Certificate:
    """Combine per-component certificates into one for the full state.

    Separable iff all components separable (product lists concatenated
    and mapped back through the conjugator); PPT iff all PPT;
    Distillable iff any component is (witness lifted).  Undecided
    components block everything except a Distillable elsewhere.
    """
    if len(verdicts) != decomp.n_components:
        raise ValueError("need exactly one verdict per component")
    m = decomp.components[0].dim_a
    n = decomp.components[0].dim_b
    for idx, cert in enumerate(verdicts):
        if isinstance(cert, Distillable):
            witness = _lift_component_witness(decomp, idx, cert.witness, (m, n))
            validate_witness(state, witness)
            return Distillable(witness)
    if any(isinstance(c, Undecided) for c in verdicts):
        reports = [c.report for c in verdicts if isinstance(c, Undecided)]
        return Undecided(report="undecided components: " + "; ".join(reports))
    if all(isinstance(c, Separable) for c in verdicts):
        products = []
        for cert in verdicts:
            for a, b in cert.products:
                products.append((a, decomp.conjugator_inv @ b))
        return Separable(products=tuple(products))
    min_eig = min(is_ppt(comp)[1] for comp in decomp.components)
    return Ppt(min_eig_gamma=min_eig)


def common_kernel_distill(state: BipartiteState, rng=11, restarts: int = 40):
    """Distillability from a common-kernel pattern, for irreducible states.

    Searches for |b> in H_B with rank[C_1 b, ..., C_M b] = 1, i.e. an
    (M-1)-dimensional A-subspace H'_A with H'_A (x) |b> inside ker(rho).
    For a B-irreducible state this yields a trivially distillable gauge.
    Returns a Distillable certificate, or None when no pattern is found
    or the state is B-reducible (classify its B-direct components
    instead; restricting to the local ranges keeps B-reducibility).
    """
    frame = Frame.local(state, orient=False)
    restricted = frame.work
    m, n = restricted.dim_a, restricted.dim_b
    if m < 2:
        return None
    blocks = block_form(restricted)
    pencil = np.stack(left_pencil(blocks))  # (N, R, M)
    found = rank_one_in_span(pencil, restarts=restarts, rng=rng, tol=state.tol)
    if not found.found:
        return None
    b_vec = found.coefficients
    t_cols = np.stack([c @ b_vec for c in blocks.blocks], axis=1)  # R x M
    u, sv, vh = np.linalg.svd(t_cols)
    if sv.size > 1 and sv[1] > state.tol.residual_tol * sv[0]:
        return None  # numeric rank-1 claim did not hold up
    if not decompose_b_direct(restricted, rng=rng).irreducible:
        return None

    # build the trivially distillable gauge from the common kernel
    c_coeff = sv[0] * vh[0, :].conj()  # columns satisfy C_j b = c_j * u0
    t_op = complete_rows(c_coeff)
    # rows 2..M of t_op give block mixes annihilating b; row 1 does not
    b_comp = np.linalg.qr(
        np.hstack([b_vec.reshape(-1, 1),
                   complex_gaussian(as_rng(rng), (n, n - 1))]))[0]
    b_dag = np.hstack([b_vec.reshape(-1, 1), b_comp[:, 1:]])  # B^dag, first col b
    b_op = dagger(b_dag)
    transformed = apply_local(restricted, t_op, b_op)
    tw = trivially_distillable(transformed)
    if tw is None:
        raise RuntimeError(
            "common-kernel construction did not produce a trivially "
            "distillable gauge; numerical inconsistency")
    witness = frame.lift_witness(tw, t_op, b_op)
    validate_witness(state, witness)
    return Distillable(witness)


def classical_side(state: BipartiteState, side: str = "B"):
    """Zero-discord test: is the state diagonal in some basis of `side`?

    True iff the opposite-side-indexed block family pairwise commutes
    (the family is *-closed, so this gives a common orthonormal
    eigenbasis, which is returned).
    """
    work = state if side.upper() == "B" else swap_sides(state)
    blocks = b_blocks(work)
    scales = [max(frob(b), 1.0e-300) for b in blocks]
    for i in range(len(blocks)):
        for j in range(i, len(blocks)):
            comm = blocks[i] @ blocks[j] - blocks[j] @ blocks[i]
            if frob(comm) > 10 * state.tol.residual_tol * scales[i] * scales[j]:
                return False, None
    rng = as_rng(13)
    n = work.dim_b
    m = work.dim_a
    t = work.matrix.reshape(m, n, m, n)
    for attempt in range(4):
        z = complex_gaussian(rng, (m, m))
        z = 0.5 * (z + z.conj().T)
        x = np.einsum("ij,ibjc->bc", z, t)
        x = 0.5 * (x + dagger(x))
        _, v = np.linalg.eigh(x)
        off = 0.0
        for b, s in zip(blocks, scales):
            d = dagger(v) @ b @ v
            off = max(off, frob(d - np.diag(np.diag(d))) / s)
        if off <= 100 * state.tol.residual_tol:
            return True, v
    raise RuntimeError("blocks commute but no common eigenbasis was found; "
                       "degenerate spectrum beyond the retry budget")
