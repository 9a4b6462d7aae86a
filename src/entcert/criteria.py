"""Distillability and PPT criteria with constructive certificates.

Implements the PPT test, the reduction criterion, trivial distillability
(2x2 principal submatrices of rho^G), left/right full-rank properties,
Schmidt-rank-2 witness searches, and the certified classification of
states whose rank equals the maximum local rank: both halves of that
theorem (PPT -> exactly N products, NPT -> a 2xN projection witness)
run in a `Frame`, which compresses a state onto its local ranges,
orients it to M <= N and maps the results back.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .certificates import (
    Certificate,
    Distillable,
    ReductionViolationWitness,
    SchmidtRank2Witness,
    Separable,
    TrivialSubmatrixWitness,
    TwoByNProjectionWitness,
    UndecidableError,
    lift_through_local,
    validate_certificate,
    validate_witness,
)
from .linalg import (
    DEFAULT_TOL, complete_rows, dagger, frob, numerical_rank, psd_eigen, psd_range, singular_rank,
)
from .random_states import as_rng, complex_gaussian, unit_disc
from .states import (
    BipartiteState,
    BlockForm,
    PureState,
    apply_local,
    block_form,
    partial_transpose,
    reduce,
    schmidt,
    swap_sides,
    swap_vector,
)

__all__ = [
    "is_ppt",
    "reduction_criterion",
    "trivially_distillable",
    "FullRankResult",
    "full_rank_property",
    "left_pencil",
    "schmidt2_witness",
    "classify_rank_le_max",
    "certify_pure_plus_sigma",
    "restrict_to_local_ranges",
    "Frame",
    "separable_decomposition_rank_n",
]

# Nominal per-coordinate grid size used only to quote a Schwartz-Zippel
# style failure bound for the probabilistic full-rank verdict.
_SZ_GRID = 2.0 ** 16


def is_ppt(state: BipartiteState) -> tuple[bool, float]:
    """Whether rho^G is PSD within tolerance; also returns min eig of rho^G."""
    w = np.linalg.eigvalsh(partial_transpose(state))
    min_eig = float(w[0])
    return min_eig >= -state.tol.negativity_floor(state.spectral_norm), min_eig


def reduction_criterion(state: BipartiteState):
    """Test rho_A (x) I - rho >= 0 and I (x) rho_B - rho >= 0.

    Returns (violated, witness) where the witness is the most negative
    eigendirection across both sides; violation implies 1-distillability.
    """
    m, n = state.dim_a, state.dim_b
    ops = {
        "A": np.kron(reduce(state, "A"), np.eye(n)) - state.matrix,
        "B": np.kron(np.eye(m), reduce(state, "B")) - state.matrix,
    }
    thr = state.tol.negativity_floor(state.spectral_norm)
    best = None
    for side, op in ops.items():
        w, v = np.linalg.eigh(0.5 * (op + dagger(op)))
        if w[0] < -thr and (best is None or w[0] < best[2]):
            best = (side, v[:, 0], float(w[0]))
    if best is None:
        return False, None
    side, vec, val = best
    return True, ReductionViolationWitness(side=side, eigenvector=vec, value=val)


def trivially_distillable(state: BipartiteState):
    """Scan rho^G for a 2x2 principal submatrix with ac = 0 and b != 0.

    Scan order is row-major over index pairs; the first qualifying pair
    wins.  Entries with |b| below psd_tol * |rho| or both diagonal
    entries above it do not qualify.
    """
    g = partial_transpose(state)
    thr = state.tol.negativity_floor(state.spectral_norm)
    d = g.shape[0]
    n = state.dim_b
    diag = np.real(np.diag(g))
    for r1 in range(d):
        for r2 in range(r1 + 1, d):
            # pairs sharing an A or B basis index cannot give a
            # Schmidt-rank-2 direction and are excluded by positivity
            if r1 // n == r2 // n or r1 % n == r2 % n:
                continue
            b = g[r1, r2]
            if abs(b) <= thr:
                continue
            if min(diag[r1], diag[r2]) > thr:
                continue
            sub = np.array([[g[r1, r1], b], [b.conjugate(), g[r2, r2]]])
            w, v = np.linalg.eigh(sub)
            if w[0] >= -thr:
                continue
            vec = np.zeros(d, dtype=complex)
            vec[r1], vec[r2] = v[0, 0], v[1, 0]
            return TrivialSubmatrixWitness(row=r1, col=r2, vector=vec, value=float(w[0]))
    return None


@dataclass(frozen=True)
class FullRankResult:
    """Outcome of a left/right full-rank-property test.

    holds: whether some local vector makes the opposite-side sector
    operator invertible.  witness: such a vector (when holds and no
    shortcut decided it).  shortcut: name of the rank argument that
    decided without sampling, if any.  failure_bound: quoted bound on
    the probability that a Violated verdict is wrong, as if each sample
    coordinate were drawn from a 2^16-point grid.
    """

    side: str
    holds: bool
    witness: np.ndarray | None
    shortcut: str | None
    samples: int
    failure_bound: float | None


def left_pencil(blocks: BlockForm) -> list[np.ndarray]:
    """The K_i matrices: the j-th column of K_i is the i-th column of C_j."""
    n = blocks.dim_b
    return [np.stack([c[:, i] for c in blocks.blocks], axis=1) for i in range(n)]


def restrict_to_local_ranges(state: BipartiteState):
    """Compress onto range(rho_A) (x) range(rho_B).

    Returns (restricted, qa, qb) with isometry columns; the original is
    (qa (x) qb) restricted (qa (x) qb)^dag.
    """
    qa, qb = (psd_range(reduce(state, side), state.tol)[1] for side in "AB")
    if qa.shape == (state.dim_a, state.dim_a) and qb.shape == (state.dim_b, state.dim_b):
        return state, np.eye(state.dim_a, dtype=complex), np.eye(state.dim_b, dtype=complex)
    return apply_local(state, dagger(qa), dagger(qb)), qa, qb


@dataclass(frozen=True)
class Frame:
    """The state a construction works on, and the way back to the caller's.

    work is the caller's state compressed by the range isometries qa, qb
    (None: not compressed) and, when swapped, with its sides exchanged.
    lift_witness and lift_products map results on work back to state.
    """

    state: BipartiteState
    work: BipartiteState
    qa: np.ndarray | None = None
    qb: np.ndarray | None = None
    swapped: bool = False

    @classmethod
    def local(cls, state: BipartiteState, orient: bool = True) -> Frame:
        """Compress onto the local ranges; with orient, swap to M <= N."""
        restricted, qa, qb = restrict_to_local_ranges(state)
        swapped = orient and restricted.dim_a > restricted.dim_b
        work = swap_sides(restricted) if swapped else restricted
        return cls(state, work, qa, qb, swapped)

    @classmethod
    def swap(cls, state: BipartiteState) -> Frame:
        """Exchange the sides only."""
        return cls(state, swap_sides(state), swapped=True)

    def lift_witness(self, witness, a_op=None, b_op=None):
        """The witness for the caller's state.

        With a_op or b_op the witness is for (a_op (x) b_op) work
        (a_op (x) b_op)^dag.  The swap is undone by
        <psi| (S rho S)^G |psi> = <conj(S psi)| rho^G |conj(S psi)>.  A
        2xN projection keeps its structure only in an unswapped frame
        that compressed no A level; otherwise the Schmidt-rank-2 form,
        checkable on any state, is returned.
        """
        dims = (self.work.dim_a if a_op is None else a_op.shape[0],
                self.work.dim_b if b_op is None else b_op.shape[0])
        vec = witness.vector
        if self.swapped:
            vec = swap_vector(vec, *dims).conj()
            a_op, b_op, dims = b_op, a_op, dims[::-1]
        if self.qa is not None:
            a_op = dagger(self.qa) if a_op is None else a_op @ dagger(self.qa)
            b_op = dagger(self.qb) if b_op is None else b_op @ dagger(self.qb)
        if a_op is not None or b_op is not None:
            vec = lift_through_local(vec, a_op, b_op, dims)
        if (isinstance(witness, TwoByNProjectionWitness) and not self.swapped
                and self.qa is not None and self.qa.shape[0] == self.qa.shape[1]):
            return TwoByNProjectionWitness(
                a_columns=self.qa @ witness.a_columns,
                b_operator=witness.b_operator @ dagger(self.qb),
                x=witness.x, vector=vec, value=witness.value)
        return SchmidtRank2Witness(vector=vec, value=witness.value)

    def lift_products(self, products) -> list:
        """Product pairs (a, b) on work as pairs for the caller's state."""
        if self.swapped:
            products = [(b, a) for a, b in products]
        if self.qa is not None:
            products = [(self.qa @ a, self.qb @ b) for a, b in products]
        return list(products)

    def lift(self, cert: Certificate) -> Certificate:
        """A Distillable or Separable verdict on work, lifted and
        re-validated against the caller's state; others pass through."""
        if isinstance(cert, Distillable):
            cert = Distillable(self.lift_witness(cert.witness))
        elif isinstance(cert, Separable):
            cert = Separable(products=tuple(self.lift_products(cert.products)))
        else:
            return cert
        validate_certificate(self.state, cert)
        return cert


def full_rank_property(state: BipartiteState, side: str = "right",
                       budget: int = 64, rng=7) -> FullRankResult:
    """Decide the right/left full-rank property on the local ranges.

    The Holds branch is deterministic: one local vector whose sector
    operator has full rank proves it.  The Violated branch is
    polynomial-identity testing (all sampled pencil members rank
    deficient) and carries a quoted failure bound.
    """
    side = side.lower()
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    rng = as_rng(rng)
    restricted, qa, qb = restrict_to_local_ranges(state)
    blocks = block_form(restricted)
    m, n = restricted.dim_a, restricted.dim_b
    r = blocks.rank

    if side == "right":
        pencil = list(blocks.blocks)
        target = n
        opposite = m
        lift = qa
    else:
        pencil = left_pencil(blocks)
        target = m
        opposite = n
        lift = qb

    if r < target:
        return FullRankResult(side, False, None, "rank-below-opposite-rank", 0, 0.0)
    if r > opposite * (target - 1):
        return FullRankResult(side, True, None, "rank-above-product-bound", 0, None)

    for k in range(budget):
        xi = unit_disc(rng, opposite)
        x_mat = sum(c * w for c, w in zip(pencil, xi))
        rank, _ = numerical_rank(x_mat, state.tol)
        if rank == target:
            witness = lift @ xi
            return FullRankResult(side, True, witness, None, k + 1, None)
    bound = float((target / _SZ_GRID) ** budget)
    return FullRankResult(side, False, None, None, budget, bound)


def _coordinate_pair_witness(state: BipartiteState):
    """Best Schmidt-rank-2 witness over all coordinate A-index pairs."""
    g = partial_transpose(state)
    n = state.dim_b
    thr = state.tol.negativity_floor(state.spectral_norm)
    best = None
    for k, l in combinations(range(state.dim_a), 2):
        idx = np.r_[k * n:(k + 1) * n, l * n:(l + 1) * n]
        sub = g[np.ix_(idx, idx)]
        w, v = np.linalg.eigh(sub)
        if w[0] < -thr and (best is None or w[0] < best[0]):
            vec = np.zeros(g.shape[0], dtype=complex)
            vec[idx] = v[:, 0]
            best = (float(w[0]), vec)
    return best


def schmidt2_witness(state: BipartiteState, budget: int = 256, rng=7):
    """Search for psi of Schmidt rank 2 with <psi| rho^G |psi> < 0.

    All coordinate A-index pairs are tried first (projections of rho^G
    onto 2 (x) N blocks), then random orthonormal 2-frames up to the
    budget.  Returns a witness or None; None is no claim, not a PPT
    proof.
    """
    rng = as_rng(rng)
    thr = state.tol.negativity_floor(state.spectral_norm)
    m, n = state.dim_a, state.dim_b
    best = _coordinate_pair_witness(state)
    if best is not None:
        value, vec = best
        return SchmidtRank2Witness(vector=vec, value=value)
    if m < 3:
        return None  # coordinate pair already covered the whole space
    g = partial_transpose(state)
    for _ in range(budget):
        frame = np.linalg.qr(complex_gaussian(rng, (m, 2)))[0]
        comp = np.kron(frame.T, np.eye(n)) @ g @ np.kron(frame.conj(), np.eye(n))
        w, v = np.linalg.eigh(0.5 * (comp + dagger(comp)))
        if w[0] < -thr:
            vec = np.kron(frame.conj(), np.eye(n)) @ v[:, 0]
            return SchmidtRank2Witness(vector=vec, value=float(w[0]))
    return None


def _pair_state(c_block: np.ndarray, tol) -> BipartiteState:
    """The 2 (x) N state (X, I_N)^dag (X, I_N) for X = c_block."""
    n = c_block.shape[1]
    w = np.hstack([c_block, np.eye(n, dtype=complex)])
    return BipartiteState(2, n, dagger(w) @ w, tol)


def _normal_form(state: BipartiteState, witness: np.ndarray):
    """Blocks (C_1, ..., C_{M-1}, I_N) of the state after local operations.

    The A operation is invertible with conj(witness) as its last row, so
    the mixed last block is the full-rank witness's sector operator; the
    B operation maps it to I_N.  Returns (blocks, a_op, b_op), the
    blocks of (a_op (x) b_op) state (a_op (x) b_op)^dag.
    """
    a_op = complete_rows(witness.conj(), last=True)
    bf = block_form(state)
    m = len(bf.blocks)
    # blocks of (A (x) I) rho (A (x) I)^dag: C'_j = sum_k conj(A[j,k]) C_k
    mixed = tuple(sum(a_op[j, k].conjugate() * bf.blocks[k] for k in range(m)) for j in range(m))
    normal, c_last_inv = BlockForm(mixed, bf.rank).normalize_last()
    return list(normal.blocks), a_op, dagger(c_last_inv)


def _distill_rank_max(state, rng):
    """Witness construction for an NPT state with rank == dim_b == max.

    state must already be compressed to its local ranges with M <= N and
    rank N; the witness refers to state.
    """
    frp = full_rank_property(state, "right", rng=rng)
    if not frp.holds:
        # violating a full-rank property already implies 1-distillability
        w = trivially_distillable(state) or schmidt2_witness(state, rng=rng)
        if w is None:
            raise UndecidableError(
                "state violates the right full-rank property but the witness "
                "search budget was exhausted")
        return w

    if frp.witness is None:
        # cannot happen for M >= 2 at rank N (the product bound shortcut
        # needs N > M(N-1)); guard against contract drift anyway
        raise RuntimeError("full-rank property held without a witness vector")
    return _pair_witness(*_normal_form(state, frp.witness), state.tol)


def _pair_witness(blocks, a_op, b_op, tol):
    """2xN projection witness for an NPT state with blocks (C_1, .., I_N).

    The blocks are those of (a_op (x) b_op) rho (a_op (x) b_op)^dag; the
    witness refers to rho.  A pair state (X, I_N) is NPT iff X is not
    normal.  Some C_i is not normal, or two normal C_i, C_j do not
    commute; then X = x C_i + C_j has X^dag X - X X^dag = conj(x) K +
    x K^dag with K = C_i^dag C_j - C_j C_i^dag, which is nonzero by
    Fuglede's theorem, so x = 1 or, when K + K^dag = 0, x = i certifies.
    """
    m, n = len(blocks), blocks[-1].shape[1]

    def certify(c_block, g_cols, x_val):
        pair = _pair_state(c_block, tol)
        if is_ppt(pair)[0]:
            return None
        w, v = np.linalg.eigh(partial_transpose(pair))
        comp = dagger(g_cols)  # 2 x M compression on the working state
        vec = lift_through_local(v[:, 0], comp @ a_op, b_op, (2, n))
        a_cols = dagger(comp @ a_op)
        return TwoByNProjectionWitness(
            a_columns=a_cols, b_operator=np.asarray(b_op),
            x=x_val, vector=vec, value=float(w[0]))

    # each pair-projected state (C_i, I_N); any NPT one certifies
    for i in range(m - 1):
        g_cols = np.zeros((m, 2), dtype=complex)
        g_cols[i, 0] = 1.0
        g_cols[m - 1, 1] = 1.0
        witness = certify(blocks[i], g_cols, None)
        if witness is not None:
            return witness

    # all pair projections PPT: blocks are normal, a non-commuting pair exists
    scale = [max(frob(c), 1.0e-300) for c in blocks[:-1]]
    best_pair, best_score = None, 0.0
    for i in range(m - 1):
        for j in range(i + 1, m - 1):
            score = frob(blocks[i] @ blocks[j] - blocks[j] @ blocks[i]) / (scale[i] * scale[j])
            if score > best_score + 1.0e-15:
                best_pair, best_score = (i, j), score
    if best_pair is None or best_score <= tol.residual_tol:
        raise UndecidableError(
            "all pair projections are PPT and the blocks commute; the state "
            "tests as PPT, contradicting the NPT precondition")
    i, j = best_pair
    for x in (1.0, 1.0j):
        g_cols = np.zeros((m, 2), dtype=complex)
        g_cols[i, 0] = x
        g_cols[j, 0] = 1.0
        g_cols[m - 1, 1] = 1.0
        witness = certify(x * blocks[i] + blocks[j], g_cols, complex(x))
        if witness is not None:
            return witness
    raise RuntimeError(
        f"x C_i + C_j is normal for x = 1 and x = i on the non-commuting pair "
        f"{best_pair} (commutator score {best_score:.3e}); Fuglede's theorem "
        "rules this out, so this indicates a numerical issue.")


def _simultaneous_diagonalize(mats, tol):
    """Common eigenbasis of a family of commuting normal matrices.

    Recursive eigenspace refinement over the Hermitian and
    anti-Hermitian parts of the generators.
    """
    n = mats[0].shape[0]
    generators = []
    for c in mats:
        generators.append(0.5 * (c + dagger(c)))
        generators.append(0.5j * (dagger(c) - c))
    u = np.eye(n, dtype=complex)
    subspaces = [np.arange(n)]
    for h in generators:
        new_subspaces = []
        for idx in subspaces:
            if len(idx) == 1:
                new_subspaces.append(idx)
                continue
            q = u[:, idx]
            w, v = np.linalg.eigh(dagger(q) @ h @ q)
            u[:, idx] = q @ v
            spread = max(float(w[-1] - w[0]), 1.0)
            start = 0
            for i in range(1, len(w)):
                if w[i] - w[i - 1] > 1.0e-8 * spread:
                    new_subspaces.append(idx[start:i])
                    start = i
            new_subspaces.append(idx[start:])
        subspaces = new_subspaces
    return u


def _rank_n_products(state: BipartiteState, rng):
    """Products for a PPT state with M <= N locals and rank N.

    The state must already be compressed to its local ranges.  Returns
    a list of N (a, b) pairs in this frame.
    """
    m, n = state.dim_a, state.dim_b
    tol = state.tol
    if m == 1:
        w, q = psd_range(reduce(state, "B"), tol)
        return [(np.array([1.0 + 0.0j]), np.sqrt(wk) * qk)
                for wk, qk in zip(w[::-1], q.T[::-1])]  # ascending eigenvalues

    frp = full_rank_property(state, "right", rng=rng)
    if not frp.holds or frp.witness is None:
        raise RuntimeError(
            "no full-rank direction found for a PPT state; PPT states are "
            "guaranteed to have both full-rank properties, so this signals "
            "a numerical problem or a non-PPT input")
    blocks, a_op, b_op = _normal_form(state, frp.witness)

    scale = [max(frob(c), 1.0e-300) for c in blocks]
    comm_tol = 1.0e-6
    for i in range(m - 1):
        herm_defect = frob(blocks[i] @ dagger(blocks[i]) - dagger(blocks[i]) @ blocks[i])
        if herm_defect > comm_tol * scale[i] ** 2:
            raise ValueError(
                f"block {i + 1} is not normal (defect {herm_defect:.3e}); "
                "the input is not PPT within tolerance")
        for j in range(i + 1, m - 1):
            d = frob(blocks[i] @ blocks[j] - blocks[j] @ blocks[i])
            if d > comm_tol * scale[i] * scale[j]:
                raise ValueError(
                    f"blocks {i + 1} and {j + 1} do not commute "
                    f"(defect {d:.3e}); the input is not PPT within tolerance")

    u = _simultaneous_diagonalize(blocks[:-1], tol)
    diag = np.empty((n, m), dtype=complex)
    for i, c in enumerate(blocks):
        conj_c = dagger(u) @ c @ u
        off = frob(conj_c - np.diag(np.diag(conj_c)))
        if off > 1.0e-6 * max(scale[i], 1.0):
            raise RuntimeError(
                f"simultaneous diagonalization left block {i + 1} with "
                f"off-diagonal mass {off:.3e}")
        diag[:, i] = np.diag(conj_c)

    products = []
    for k in range(n):
        a_vec = diag[k, :].conj()
        b_vec = u[:, k]
        products.append((a_vec, b_vec))
    # map back through the two local operations
    a_inv = np.linalg.inv(a_op)
    b_inv = np.linalg.inv(b_op)
    return [(a_inv @ a, b_inv @ b) for a, b in products]


def separable_decomposition_rank_n(state: BipartiteState, rng=7):
    """Exactly N product states for an M x N PPT state of rank N (M <= N).

    Normalizes the last block to the identity via a full-rank witness,
    verifies the remaining blocks are pairwise commuting normal
    matrices, diagonalizes them simultaneously and reads off the
    products.  Rejects inputs whose blocks fail the commutation check
    (they are not PPT within tolerance).
    """
    frame = Frame.local(state)
    r = frame.work.rank()
    if r != frame.work.dim_b:
        raise ValueError(f"rank {r} does not equal the max local rank {frame.work.dim_b}")
    products = frame.lift_products(_rank_n_products(frame.work, rng))
    validate_certificate(state, Separable(products=tuple(products)))
    return products


def classify_rank_le_max(state: BipartiteState, rng=7, budget: int = 256) -> Certificate:
    """Full classification for states of rank at most the max local rank.

    Rank below the max local rank: distillable (witness searched).  Rank
    equal to it: PPT implies separable with exactly N products; NPT
    yields a validated 2xN projection witness via the constructive
    procedure.  Search-budget exhaustion raises, it never returns
    Undecided.
    """
    frame = Frame.local(state)
    work = frame.work
    n = work.dim_b
    r = work.rank()
    if r > n:
        raise ValueError(
            f"rank {r} exceeds max local rank {n}; use decide_rank4 "
            "or the general analysis for such states")

    ppt, min_eig = is_ppt(work)
    if r < n:
        if ppt:
            raise UndecidableError(
                "rank below the max local rank forces NPT, but the state "
                f"tests PPT (min eig {min_eig:.3e}); inconsistent input")
        w = trivially_distillable(work) or schmidt2_witness(work, budget=max(budget, 256), rng=rng)
        if w is None:
            raise UndecidableError(
                "distillability is guaranteed at this rank but the witness "
                f"search budget ({budget}) was exhausted")
        return frame.lift(Distillable(w))
    if ppt:
        return frame.lift(Separable(products=tuple(_rank_n_products(work, rng))))
    return frame.lift(Distillable(_distill_rank_max(work, rng)))


def certify_pure_plus_sigma(psi, sigma: BipartiteState | None, rng=7) -> Certificate:
    """Distillability certificate for |psi><psi| + sigma with deficient sigma_A.

    psi must be entangled (Schmidt rank >= 2) and rank(sigma_A) must be
    smaller than the A-local rank of the sum.  The constructive proof
    yields a 2xN projection that is trivially distillable.
    """
    if not isinstance(psi, PureState):
        raise TypeError("psi must be a PureState")
    rho_mat = psi.projector()
    if sigma is not None:
        if (sigma.dim_a, sigma.dim_b) != (psi.dim_a, psi.dim_b):
            raise ValueError("psi and sigma dimensions differ")
        rho_mat = rho_mat + sigma.matrix
    state = BipartiteState(psi.dim_a, psi.dim_b, rho_mat,
                           DEFAULT_TOL if sigma is None else sigma.tol)

    coeffs, _, _ = schmidt(psi, state.tol)
    if len(coeffs) < 2:
        raise ValueError("psi is a product state; an entangled psi is required")

    restricted, qa, qb = restrict_to_local_ranges(state)
    m, n = restricted.dim_a, restricted.dim_b

    if sigma is not None and np.any(np.abs(sigma.matrix) > 0):
        _, v, nullity = psd_eigen(dagger(qa) @ reduce(sigma, "A") @ qa, state.tol)
        r = m - nullity
        # range of sigma_A, largest eigenvalue first, then its kernel
        basis = np.hstack([v[:, nullity:][:, ::-1], v[:, :nullity]])
    else:
        r = 0
        basis = np.eye(m, dtype=complex)
    if r >= m:
        raise ValueError(
            f"rank(sigma_A) = {r} is not smaller than the A-local rank {m}")

    u1 = dagger(basis)  # A-op: sigma_A range spans the first r coordinates
    psi_r = np.kron(dagger(qa), dagger(qb)) @ psi.amplitudes
    k_mat = (u1 @ psi_r.reshape(m, n))
    tail = k_mat[r:, :]
    uu, ss, _ = np.linalg.svd(tail)
    if singular_rank(ss, tail.shape, state.tol, scale=frob(k_mat)) == 0:
        raise ValueError("psi has no component outside range(sigma_A)")
    # unitary on the complement whose last row maps the tail onto row M
    w_rot = np.roll(uu, -1, axis=1)
    u2 = np.eye(m, dtype=complex)
    u2[r:, r:] = dagger(w_rot)
    k2 = u2 @ k_mat

    psi_m = k2[m - 1, :]
    best_k, best_score = None, 0.0
    nm2 = float(np.real(psi_m.conj() @ psi_m))
    for k in range(m - 1):
        row = k2[k, :]
        resid = row - (psi_m.conj() @ row) / nm2 * psi_m
        score = float(np.linalg.norm(resid))
        if score > best_score:
            best_k, best_score = k, score
    if best_k is None or best_score <= state.tol.residual_tol * max(frob(k2), 1.0):
        raise ValueError("all rows of psi are parallel; psi is not entangled")

    s_cols = np.zeros((n, n), dtype=complex)
    s_cols[:, 0] = k2[best_k, :]
    s_cols[:, 1] = psi_m
    _, kernel = numerical_rank(dagger(s_cols[:, :2]))
    s_cols[:, 2:] = kernel
    v_op = np.linalg.inv(s_cols)

    sel = np.zeros((2, m), dtype=complex)
    sel[0, best_k] = 1.0
    sel[1, m - 1] = 1.0
    a_chain = sel @ u2 @ u1 @ dagger(qa)
    b_chain = v_op @ dagger(qb)
    projected = apply_local(state, a_chain, b_chain)
    tw = trivially_distillable(projected)
    if tw is None:
        raise RuntimeError(
            "the projected 2xN state is not trivially distillable; this "
            "contradicts the construction and indicates a numerical issue")
    vec = lift_through_local(tw.vector, a_chain, b_chain, (2, n))
    witness = TwoByNProjectionWitness(
        a_columns=dagger(a_chain), b_operator=np.asarray(b_chain),
        x=None, vector=vec, value=tw.value)
    validate_witness(state, witness)
    return Distillable(witness)
