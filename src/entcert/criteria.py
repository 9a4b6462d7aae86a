"""Distillability and PPT criteria with constructive certificates.

Implements the PPT test, the reduction criterion, trivial distillability
(2x2 principal submatrices of rho^G), left/right full-rank properties,
the Schmidt-rank-2 scan of the coordinate 2xN blocks of rho^G, the
eigen-frames (the A 2-frames read off the eigenvectors of rho^G, the
search of the rank-4 tree's last NPT step and of classify_state's
general branch), and the certified classification of states whose rank
is at most the maximum local rank.  Below it, the reduction-criterion
proof builds the witness with no search.  At it, both halves of the
theorem (PPT -> N products, NPT -> the scan first, a negative 2xN
projection as its fallback) build on a full-rank direction chosen among
fixed points, so they draw nothing, and run in a `Frame`, which
compresses a state onto its local ranges, orients it to M <= N and maps
the results back.  Only full_rank_property's "violated" verdict samples.
One helper, _projection_witness, values every A 2-frame projection of
rho^G: the fallback's and the eigen-frames'.  Every witness is a
SchmidtRank2Witness valued on the state it is returned for.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .certificates import (
    Certificate,
    Distillable,
    SchmidtRank2Witness,
    Separable,
    UndecidableError,
    lift_through_local,
    lifted_value,
    validate_certificate,
)
from .linalg import (
    DEFAULT_TOL, common_eigenbasis, complete_rows, dagger, frob, kron, numerical_rank, psd_eigen,
    psd_range, singular_rank,
)
from .random_states import as_rng, unit_disc
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

# Fixed directions that _full_rank_direction tries for the rank-N
# constructions' sector operator.
_FULL_RANK_POINTS = 8


def is_ppt(state: BipartiteState) -> tuple[bool, float]:
    """Whether rho^G is PSD within tolerance; also returns min eig of rho^G."""
    w = np.linalg.eigvalsh(partial_transpose(state))
    min_eig = float(w[0])
    return min_eig >= -state.tol.negativity_floor(state.spectral_norm), min_eig


def reduction_criterion(state: BipartiteState):
    """Test rho_A (x) I - rho >= 0 and I (x) rho_B - rho >= 0.

    Returns (violated, witness).  A violation implies 1-distillability
    [hst03], and the witness is built from the most negative
    eigendirection psi across both sides with no search.  Write psi =
    (K (x) 1) Phi, Phi = sum_i |ii> (side A; B is the mirror image).
    sigma = (K^dag (x) 1) rho (K (x) 1) has tr sigma - <Phi| sigma |Phi>
    = <psi| rho_A (x) 1 - rho |psi> < 0, a sum of <chi| sigma^G |chi>
    over chi = |ij> - |ji>, i < j.  The most negative chi, lifted
    through K^dag, is the SchmidtRank2Witness.  witness is None when the
    criterion holds, or when that chi is not negative beyond the floor.
    """
    m, n = state.dim_a, state.dim_b
    ops = {
        "A": kron(reduce(state, "A"), np.eye(n)) - state.matrix,
        "B": kron(np.eye(m), reduce(state, "B")) - state.matrix,
    }
    thr = state.tol.negativity_floor(state.spectral_norm)
    best = None
    for side, op in ops.items():
        w, v = np.linalg.eigh(0.5 * (op + dagger(op)))
        if w[0] < -thr and (best is None or w[0] < best[0]):
            best = (w[0], side, v[:, 0])
    if best is None:
        return False, None
    _, side, psi = best
    psi = psi.reshape(m, n)
    k_op = psi if side == "A" else psi.T
    d = k_op.shape[1]
    e = np.eye(d)
    chis = np.array([kron(e[i], e[j]) - kron(e[j], e[i]) for i, j in combinations(range(d), 2)]).T
    maps = (dagger(k_op), None) if side == "A" else (None, dagger(k_op))
    vecs = lift_through_local(chis, *maps, (d, d))
    vecs = vecs / np.maximum(np.linalg.norm(vecs, axis=0), 1.0e-300)
    values = np.real(np.sum(vecs.conj() * (partial_transpose(state) @ vecs), axis=0))
    k = int(np.argmin(values))
    if values[k] >= -thr:
        return True, None
    return True, SchmidtRank2Witness(vector=vecs[:, k], value=float(values[k]))


def trivially_distillable(state: BipartiteState):
    """Scan rho^G for a 2x2 principal submatrix with ac = 0 and b != 0.

    Scan order is row-major over index pairs; the first qualifying pair
    wins.  Entries with |b| below psd_tol * |rho| or both diagonal
    entries above it do not qualify.  The witness is the submatrix's
    lowest eigenvector on the two product basis states, which share no
    local index, so it has Schmidt rank 2.
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
            return SchmidtRank2Witness(vector=vec, value=float(w[0]))
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
    (qa (x) qb) restricted (qa (x) qb)^dag.  Full local ranks return the
    state itself with identity isometries, read off the state's ranks.
    """
    if state.local_ranks() == (state.dim_a, state.dim_b):
        return state, np.eye(state.dim_a, dtype=complex), np.eye(state.dim_b, dtype=complex)
    qa, qb = (psd_range(reduce(state, side), state.tol)[1] for side in "AB")
    return apply_local(state, dagger(qa), dagger(qb)), qa, qb


def _after(op, first):
    """The map op after first, either of them None for the identity."""
    if first is None:
        return op
    return first if op is None else op @ first


@dataclass(frozen=True)
class Frame:
    """The state a construction works on, and the one way back to the
    caller's.

    work is (a (x) b) rho (a (x) b)^dag for the caller's rho, with its
    sides exchanged when swapped; a or b None is the identity.  a_back
    and b_back take the factors of a product on work back to rho: the
    isometry of a compression onto the local ranges, or the inverse of
    a gauge or a B-normalization.  Every construction on a
    transformed copy of rho returns its witness or products through a
    frame, so lift_witness is the one place a witness is revalued for
    the caller's state.  A frame only maps: the public function that
    returns the lifted certificate checks it against its own argument.
    """

    work: BipartiteState
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    a_back: np.ndarray | None = None
    b_back: np.ndarray | None = None
    swapped: bool = False

    @classmethod
    def local(cls, state: BipartiteState, orient: bool = True) -> Frame:
        """Compress onto the local ranges; with orient, swap to M <= N."""
        restricted, qa, qb = restrict_to_local_ranges(state)
        swapped = orient and restricted.dim_a > restricted.dim_b
        work = swap_sides(restricted) if swapped else restricted
        return cls(work, dagger(qa), dagger(qb), qa, qb, swapped)

    @classmethod
    def swap(cls, state: BipartiteState) -> Frame:
        """Exchange the sides only."""
        return cls(swap_sides(state), swapped=True)

    def lift_witness(self, witness, a_op=None, b_op=None):
        """The witness for the caller's state.

        With a_op or b_op the witness is for (a_op (x) b_op) work
        (a_op (x) b_op)^dag.  The swap is undone by
        <psi| (S rho S)^G |psi> = <conj(S psi)| rho^G |conj(S psi)>.
        The lifted vector keeps Schmidt rank 2, and its value is
        recomputed for the caller's state by lifted_value.
        """
        dims = (self.work.dim_a if a_op is None else a_op.shape[0],
                self.work.dim_b if b_op is None else b_op.shape[0])
        vec = witness.vector
        if self.swapped:
            vec = swap_vector(vec, *dims).conj()
            a_op, b_op, dims = b_op, a_op, dims[::-1]
        a_op, b_op = _after(a_op, self.a), _after(b_op, self.b)
        if a_op is not None or b_op is not None:
            vec = lift_through_local(vec, a_op, b_op, dims)
        return SchmidtRank2Witness(vector=vec, value=lifted_value(witness, vec))

    def lift_products(self, products) -> list:
        """Product pairs (a, b) on work as pairs for the caller's state."""
        if self.swapped:
            products = [(b, a) for a, b in products]
        return [(a if self.a_back is None else self.a_back @ a,
                 b if self.b_back is None else self.b_back @ b) for a, b in products]

    def lift(self, cert: Certificate) -> Certificate:
        """A Distillable or Separable verdict on work, lifted to the
        caller's state and not checked; others pass through."""
        if isinstance(cert, Distillable):
            return Distillable(self.lift_witness(cert.witness))
        if isinstance(cert, Separable):
            return Separable(products=tuple(self.lift_products(cert.products)))
        return cert


def full_rank_property(state: BipartiteState, side: str = "right",
                       budget: int = 64, rng=7) -> FullRankResult:
    """Decide the right/left full-rank property on the local ranges.

    The Holds branch is deterministic: one local vector whose sector
    operator has full rank proves it.  The Violated branch is
    polynomial-identity testing (all sampled pencil members rank
    deficient) and carries a quoted failure bound.  rng, the caller's
    seed or Generator, becomes a Generator only after the two shortcut
    returns, where the sampling starts.
    """
    side = side.lower()
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    frame = Frame.local(state, orient=False)
    blocks = block_form(frame.work)
    m, n, r = blocks.dim_a, blocks.dim_b, blocks.rank
    if side == "right":
        pencil, target, opposite, lift = list(blocks.blocks), n, m, frame.a_back
    else:
        pencil, target, opposite, lift = left_pencil(blocks), m, n, frame.b_back

    if r < target:
        return FullRankResult(side, False, None, "rank-below-opposite-rank", 0, 0.0)
    if r > opposite * (target - 1):
        return FullRankResult(side, True, None, "rank-above-product-bound", 0, None)

    rng = as_rng(rng)
    for k in range(budget):
        xi = unit_disc(rng, opposite)
        x_mat = sum(c * w for c, w in zip(pencil, xi))
        rank, _ = numerical_rank(x_mat, state.tol)
        if rank == target:
            return FullRankResult(side, True, xi if lift is None else lift @ xi, None, k + 1, None)
    bound = float((target / _SZ_GRID) ** budget)
    return FullRankResult(side, False, None, None, budget, bound)


def _full_rank_direction(blocks: BlockForm, tol):
    """The best-conditioned of _FULL_RANK_POINTS fixed unit directions x,
    the one whose sector operator X = sum_k x_k C_k has the largest
    smallest singular value, if X has rank N; None otherwise.

    The j-th point is x_k = e^{-ikj} / sqrt(M), k = 1..M, the mix that
    linalg.common_eigenbasis uses; one batched SVD values all of them.
    The normal form divides every block by X, so |X^-1| against the
    blocks' common scale sets its accuracy.  None proves nothing: a
    fixed point is not a sample.
    """
    m, n = blocks.dim_a, blocks.dim_b
    j = np.arange(1, _FULL_RANK_POINTS + 1)
    points = np.exp(-1j * np.outer(j, np.arange(1, m + 1))) / np.sqrt(m)
    mats = np.tensordot(points, np.stack(blocks.blocks), axes=1)
    s = np.linalg.svd(mats, compute_uv=False)
    best = int(np.argmax(s[:, -1]))
    if singular_rank(s[best], mats.shape[1:], tol) < n:
        return None
    return points[best]


def schmidt2_witness(state: BipartiteState):
    """The most negative <psi| rho^G |psi> over the 2 (x) N coordinate blocks.

    Each pair of A levels spans a block of rho^G whose lowest eigenvector
    has Schmidt rank <= 2; with dim_b == 2 the whole space is one such
    block.  Returns a SchmidtRank2Witness, or None.  None proves PPT when
    a side has 2 levels and is no claim otherwise.
    """
    g = partial_transpose(state)
    n = state.dim_b
    thr = state.tol.negativity_floor(state.spectral_norm)
    pairs = np.array(list(combinations(range(state.dim_a), 2)), dtype=int).reshape(-1, 2, 1)
    idx = np.arange(g.shape[0])[None] if n == 2 else (n * pairs + np.arange(n)).reshape(-1, 2 * n)
    # one eigh on the stacked blocks; argmin keeps the first most negative
    w, v = np.linalg.eigh(g[idx[:, :, None], idx[:, None, :]])
    if not np.any(w[:, 0] < -thr):
        return None
    best = int(np.argmin(w[:, 0]))
    vec = np.zeros(g.shape[0], dtype=complex)
    vec[idx[best]] = v[best, :, 0]
    return SchmidtRank2Witness(vector=vec, value=float(w[best, 0]))


def _projection_witness(state: BipartiteState, rows: np.ndarray):
    """Witness from the first A row set of a stack that compresses
    state to an NPT state; None is no claim.

    rows is a (K, k, M) stack of A row sets, each of full row rank.  One
    QR makes each orthonormal (rows F), the compression of state by
    F (x) I_N has partial transpose (conj(F) (x) I_N) rho^G (F^T (x) I_N),
    and one eigh runs on all K.  The first set, in stack order, whose
    lowest eigenvalue is below minus state's floor wins: its eigenvector
    v lifts to the unit vector (F^T (x) I_N) v on state, of Schmidt rank
    at most k, whose value is that eigenvalue.
    """
    n = state.dim_b
    # conj(F) = Q^T for the QR factor Q of rows^dag
    conj_f = np.swapaxes(np.linalg.qr(np.swapaxes(rows.conj(), -1, -2))[0], -1, -2)
    ops = (conj_f[:, :, None, :, None] * np.eye(n)[:, None, :]).reshape(
        len(rows), -1, rows.shape[2] * n)
    sub = ops @ partial_transpose(state) @ np.swapaxes(ops.conj(), -1, -2)
    w, v = np.linalg.eigh(0.5 * (sub + np.swapaxes(sub.conj(), -1, -2)))
    hits = np.flatnonzero(w[:, 0] < -state.tol.negativity_floor(state.spectral_norm))
    if hits.size == 0:
        return None
    k = hits[0]
    return SchmidtRank2Witness(vector=dagger(ops[k]) @ v[k, :, 0], value=float(w[k, 0]))


def _eigen_frame_witness(state: BipartiteState):
    """Schmidt-rank-2 witness from the A 2-frames of the eigenvectors of
    rho^G; None is no claim.

    Each eigenvector v_j of rho^G, read as an M x N matrix, has A-side
    left singular vectors u_1, u_2, ..., and each pair (u_a, u_b) is one
    row set, whose compression holds span{u_a, u_b} (x) C^N.  The pair
    (u_1, u_2) of the lowest eigenvector holds its Schmidt-rank-2
    truncation psi, so its value is at most <psi| rho^G |psi> / |psi|^2.
    On state and then on its swap, one _projection_witness call values
    the lowest eigenvector's pairs and one the other eigenvectors'; the
    first hit is lifted to state.  Under a local unitary the eigenvectors
    and their singular vectors move with the state, so, up to degenerate
    eigenvalues, the verdict does not depend on the frame; nothing is
    drawn.
    """
    for frame in (Frame(state), Frame.swap(state)):
        m, n = frame.work.dim_a, frame.work.dim_b
        v = np.linalg.eigh(partial_transpose(frame.work))[1]
        u = np.linalg.svd(v.T.reshape(-1, m, n))[0]
        pairs = list(combinations(range(min(m, n)), 2))
        # row set (u_a, u_b): _projection_witness conjugates its rows
        rows = np.moveaxis(u[:, :, pairs], 1, -1)
        for stack in (rows[:1], rows[1:]):
            w = _projection_witness(frame.work, stack.reshape(-1, 2, m))
            if w is not None:
                return frame.lift_witness(w)
    return None


def _normal_form(bf: BlockForm, x: np.ndarray):
    """Blocks (C_1, ..., C_{M-1}, I_N) of a state, given its block form
    bf, after local operations.

    The A operation is invertible with conj(x) as its last row, so the
    mixed last block is the sector operator of the full-rank direction
    x; the B operation maps it to I_N.  Returns (blocks, a_op, b_op),
    the blocks of (a_op (x) b_op) state (a_op (x) b_op)^dag.
    """
    a_op = complete_rows(x.conj(), last=True)
    m = len(bf.blocks)
    # blocks of (A (x) I) rho (A (x) I)^dag: C'_j = sum_k conj(A[j,k]) C_k
    mixed = tuple(sum(a_op[j, k].conjugate() * bf.blocks[k] for k in range(m)) for j in range(m))
    normal, c_last_inv = BlockForm(mixed, bf.rank).normalize_last()
    return list(normal.blocks), a_op, dagger(c_last_inv)


def _distill_rank_max(state):
    """Witness for an NPT state with rank == dim_b == max.

    state must already be compressed to its local ranges with M <= N and
    rank N; the witness refers to state.  The coordinate 2xN scan
    answers first; the theorem's 2xN projection, built on a fixed
    full-rank direction, is the fallback.
    """
    if (w := schmidt2_witness(state)) is not None:
        return w
    x = _full_rank_direction(block_form(state), state.tol)
    if x is None:
        raise UndecidableError(
            "no fixed direction makes the sector operator of this NPT rank-N "
            "state full rank, and no coordinate 2xN block of rho^G is negative")
    return _pair_witness(state, complete_rows(x.conj(), last=True))


def _pair_witness(state, a_op):
    """Witness for an NPT state whose blocks after the A operation a_op
    (and an invertible B one) are (C_1, .., I_N), from a 2xN projection.

    The pair state (X, I_N) of X = x C_i + C_j is, up to invertible
    local maps, the compression of state to the A rows (conj(x) a_op[i]
    + a_op[j], a_op[M-1]), so the two are NPT together; the witness is
    _projection_witness's on state.  (X, I_N) is NPT iff X is not
    normal.  Some C_i is not normal, or two normal C_i, C_j do not
    commute; then X = x C_i + C_j has X^dag X - X X^dag = conj(x) K +
    x K^dag with K = C_i^dag C_j - C_j C_i^dag, which is nonzero by
    Fuglede's theorem, so x = 1 or, when K + K^dag = 0, x = i certifies.
    One call values the row sets (a_op[i], a_op[M-1]) and then, for
    each i < j, those of x = 1 and x = i, in that order.
    """
    m = len(a_op)
    last = a_op[m - 1]
    rows = [(a_op[i], last) for i in range(m - 1)]
    rows += [(np.conj(x) * a_op[i] + a_op[j], last)
             for i, j in combinations(range(m - 1), 2) for x in (1.0, 1.0j)]
    witness = _projection_witness(state, np.array(rows))
    if witness is None:
        raise UndecidableError(
            "no pair projection of the normal form is NPT, though Fuglede's "
            "theorem guarantees one for an NPT state; the state tests as PPT "
            "within rounding")
    return witness


def _rank_n_products(state: BipartiteState):
    """Products for a PPT state with M <= N locals and rank N.

    The state must already be compressed to its local ranges.  Returns
    a list of N (a, b) pairs in this frame.  One block form serves the
    full-rank test and the normal form.
    """
    m, n = state.dim_a, state.dim_b
    tol = state.tol
    if m == 1:
        w, q = psd_range(reduce(state, "B"), tol)
        return [(np.array([1.0 + 0.0j]), np.sqrt(wk) * qk)
                for wk, qk in zip(w[::-1], q.T[::-1])]  # ascending eigenvalues

    bf = block_form(state)
    x = _full_rank_direction(bf, tol)
    if x is None:
        raise RuntimeError(
            "no fixed direction makes the sector operator of a PPT state full "
            "rank; PPT states have both full-rank properties, so this signals "
            "a numerical problem or a non-PPT input")
    blocks, a_op, b_op = _normal_form(bf, x)

    found = common_eigenbasis(blocks, tol)
    if found is None:
        raise ValueError("the blocks have no common eigenbasis; "
                         "the input is not PPT within tolerance")
    u, diag = found

    # map back through the two local operations
    a_inv = np.linalg.inv(a_op)
    b_inv = np.linalg.inv(b_op)
    return [(a_inv @ diag[:, k].conj(), b_inv @ u[:, k]) for k in range(n)]


def separable_decomposition_rank_n(state: BipartiteState):
    """Exactly N product states for an M x N PPT state of rank N (M <= N).

    Normalizes the last block to the identity via a full-rank witness
    and reads the products off the common eigenbasis of the blocks.
    Rejects inputs whose blocks have none (they are not PPT within
    tolerance).
    """
    frame = Frame.local(state)
    r = frame.work.rank()
    if r != frame.work.dim_b:
        raise ValueError(f"rank {r} does not equal the max local rank {frame.work.dim_b}")
    products = frame.lift_products(_rank_n_products(frame.work))
    validate_certificate(state, Separable(products=tuple(products)))
    return products


def classify_rank_le_max(state: BipartiteState) -> Certificate:
    """Full classification for states of rank at most the max local rank.

    Rank below the max local rank: distillable, with the Schmidt-rank-2
    witness the reduction-criterion proof constructs.  Rank equal to it:
    PPT implies separable with exactly N products; NPT yields the
    coordinate 2xN scan's witness, or when the scan misses the lowest
    eigenvector of rho^G compressed to a negative A 2-frame.  Every
    witness is valued on the state given.  A construction that fails
    raises a named error; it never returns Undecided.
    """
    r, n = state.rank(), max(state.local_ranks())
    if r > n:
        raise ValueError(
            f"rank {r} exceeds max local rank {n}; use decide_rank4 "
            "or the general analysis for such states")
    if r < n:
        witness = reduction_criterion(state)[1]
        if witness is None:
            raise UndecidableError(
                "rank below the max local rank violates the reduction criterion, "
                "but no witness was found for it; inconsistent input")
        cert = Distillable(witness)
    else:
        frame = Frame.local(state)
        work = frame.work
        cert = frame.lift(Separable(products=tuple(_rank_n_products(work)))
                          if is_ppt(work)[0] else Distillable(_distill_rank_max(work)))
    validate_certificate(state, cert)
    return cert


def certify_pure_plus_sigma(psi, sigma: BipartiteState | None) -> Certificate:
    """Distillability certificate for |psi><psi| + sigma with deficient sigma_A.

    psi must be entangled (Schmidt rank >= 2) and rank(sigma_A) must be
    smaller than the A-local rank of the sum.  The constructive proof
    yields a 2xN projection that is trivially distillable; the witness
    is the lift of its lowest eigenvector, valued on the sum.
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

    frame = Frame.local(state, orient=False)
    m, n = frame.work.dim_a, frame.work.dim_b

    if sigma is not None and np.any(np.abs(sigma.matrix) > 0):
        _, v, nullity = psd_eigen(frame.a @ reduce(sigma, "A") @ frame.a_back, state.tol)
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
    psi_r = kron(frame.a, frame.b) @ psi.amplitudes
    # unit norm, so that the B operator built from its rows, and with it
    # the projected state, scale with the state
    k_mat = u1 @ psi_r.reshape(m, n)
    k_mat = k_mat / frob(k_mat)
    tail = k_mat[r:, :]
    uu, ss, _ = np.linalg.svd(tail)
    if singular_rank(ss, tail.shape, state.tol, scale=1.0) == 0:
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
    if best_k is None or best_score <= state.tol.residual_tol:
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
    a_chain = sel @ u2 @ u1
    projected = apply_local(frame.work, a_chain, v_op)
    if trivially_distillable(projected) is None:
        raise RuntimeError(
            "the projected 2xN state is not trivially distillable; this "
            "contradicts the construction and indicates a numerical issue")
    w, v = np.linalg.eigh(partial_transpose(projected))
    cert = Distillable(frame.lift_witness(
        SchmidtRank2Witness(vector=v[:, 0], value=float(w[0])), a_chain, v_op))
    validate_certificate(state, cert)
    return cert
