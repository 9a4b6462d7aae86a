"""Complete separability/distillability decision for rank-4 states, and
the top-level classification that routes every state.

A bipartite state of rank 4 is separable iff it is PPT and its range
contains a product vector.  The decision tree:

* max local rank 4: rank equals the max, so the rank-max machinery
  decides (PPT -> N products, NPT -> 2xN scan, projection fallback);
* 3x3 locals: a PPT state's range is searched for product vectors
  first; when four of them rebuild the state with positive weights it
  is separable, with them as the certificate.  An NPT state first
  scans the coordinate 2x3 blocks of rho^G, and a negative one is its
  witness.  Every other state goes through reducibility, then rank-1
  sector directions, then a product vector in the range (a PPT state
  reuses its search): an NPT state with one enters a gauge-fixing
  cascade that ends in a negative 2x3 block of the gauged state;
* PPT with no product vector in range: PPT entangled;
* NPT with no product vector in range and no negative 2x3 block: the
  eigen-frames, 2-frames read off the eigenvectors of rho^G, whose
  first negative compression is the witness; a state they miss too is
  surfaced as undecidable.

Also hosts the peeling decomposition for two-level-by-N PPT states
(Kraus, Cirac, Karnas and Lewenstein, PRA 61, 062302 (2000)), whose
products come from the exact both-ranges search of product_search, and
the separable_decomposition dispatcher.  The peeling ends the way the
3x3 tree does: once the search's finite candidate set holds r = max(rank
rho, rank rho^G) products that rebuild the side of rank r,
_range_product_basis, the one range-product readout of both, reads them
off, with one SVD per r-subset for its rank test and its
pseudo-inverse.  Only a product the peeling subtracts is refined by
Newton's method.  classify_state lives here because it and decide_rank4
call each other: the components of a reducible rank-4 state are
classified by classify_state.

The tree's exits build certificates unchecked; decide_rank4,
classify_state and separable_decomposition check the one they return
once, against their own argument, and pass through unchanged a
verdict from another public call on the same state.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .certificates import (
    Certificate,
    Distillable,
    Ppt,
    PptEntangled,
    Separable,
    UndecidableError,
    Undecided,
    validate_certificate,
)
from .criteria import (
    Frame,
    _distill_rank_max,
    _eigen_frame_witness,
    _rank_n_products,
    classify_rank_le_max,
    is_ppt,
    reduction_criterion,
    schmidt2_witness,
    separable_decomposition_rank_n,  # unused here; perfbench/spans.py wraps this binding
)
from .linalg import (
    check_hermitian, complete_rows, dagger, frob, kron, numerical_rank, psd_eigen, psd_range,
    rel_residual, singular_rank,
)
from .product_search import _both_ranges_candidates, _refine_candidate, rank_one_in_span
from .random_states import as_rng
from .states import (
    BipartiteState,
    _block_form_from_range,
    partial_transpose_matrix,
    reduce_matrix,
    swap_sides_matrix,
)
from .structure import (
    aggregate, common_kernel_distill, decompose_b_direct, decompose_b_direct_matrix,
)

__all__ = [
    "Rank4Verdict",
    "decide_rank4",
    "separable_decomposition",
    "classify_state",
]


@dataclass(frozen=True)
class Rank4Verdict:
    """Outcome plus the ordered proof-path tags that produced it."""

    outcome: Certificate
    trail: tuple


# ---------------------------------------------------------------------------
# constructive separable decompositions
# ---------------------------------------------------------------------------

def _pinv_quadratic(split, vec):
    """<v| mat^+ |v> via the spectral pseudo-inverse, from the
    psd_eigen split (w, u, nullity) of mat."""
    w, u, nullity = split
    coeffs = np.abs(dagger(u) @ vec) ** 2
    return float(np.sum(coeffs[nullity:] / w[nullity:]))


def _range_product_basis(matrix, tol, pairs, r):
    """r weighted products summing to the rank-r PSD matrix, drawn from
    the (a, b) product vectors of its range, or None when no r of them
    do.

    For independent e_1..e_r in R(rho), rho = E Lambda E^dag with
    Lambda = E^+ rho E^+dag.  One SVD E = U S V^dag per r-subset serves
    both the rank test and the pseudo-inverse E^+ = V S^-1 U^dag, whose
    cutoff is np.linalg.pinv's, so E^+ has its bytes.  The first
    r-subset whose weights lambda_kk are positive and rebuild rho,
    sum_k lambda_kk |e_k><e_k| within the relative residual that
    validate_certificate allows, gives the decomposition: the final
    readout of the 3x3 tree's step (0) and of the 2xN peeling.
    """
    if len(pairs) < r:
        return None
    # the columns kron(a / ||kron(a, b)||, b) of every pair, built at once
    # with the bytes of building them one pair at a time
    a, b = (np.array(side) for side in zip(*pairs))
    prods = (a[:, :, None] * b[:, None, :]).reshape(len(pairs), -1)
    a = a / np.array([np.linalg.norm(e) for e in prods])[:, None]
    cols = (a[:, :, None] * b[:, None, :]).reshape(len(pairs), -1).T
    for subset in combinations(range(len(pairs)), r):
        e = cols[:, subset]
        u, s, vh = np.linalg.svd(e, full_matrices=False)
        if singular_rank(s, e.shape, tol) < r:
            continue
        s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > 1.0e-15 * s[0])
        e_pinv = dagger(vh) @ (s_inv[:, None] * dagger(u))
        lam = e_pinv @ matrix @ dagger(e_pinv)
        weights = np.real(np.diag(lam))
        if (np.all(weights > 0)
                and rel_residual((e * weights) @ dagger(e), matrix) <= tol.residual_tol):
            return [(np.sqrt(w) * a[i], b[i]) for w, i in zip(weights, subset)]
    return None


def _conj_a(pairs):
    """The pairs (conj(a), b) of pairs (a, b)."""
    return [(a.conj(), b) for a, b in pairs]


def _peel_two_by_n(state: BipartiteState, rng):
    """Separable decomposition for PPT states with a 2-level A side.

    Repeatedly subtracts product projectors lying in both R(rho) and
    (A-conjugated) R(rho^G) with the largest PSD-safe weight; each step
    lowers rank(rho) + rank(rho^G), and the final rank-N remainder is
    decomposed by the rank-max route.  Valid for M(locals) = 2 and
    N <= 3, where PPT implies separable.

    A step whose search returns a finite candidate set (the
    two-parameter eigenvalues or the two Bloch points) holding at least
    r = max(rank(rho), rank(rho^G)) products, the fewest any product
    decomposition of the remainder has, first tries the range-product
    readout on the side of rank r: on rho with the pairs (a, b), or on
    rho^G with (conj(a), b), whose weights rebuild rho as well since
    (conj(a) conj(a)^dag)^{T_A} = a a^dag.  r candidates that rebuild
    it with positive weights end the peeling, with no further
    subtraction and no rank-N tail.  The readout draws no random
    numbers.  A 2x3 sum of 4 products ends at the first search, of 5 at
    the second, and of 6 to 8 at the fourth; a 2x2 sum, whose candidates
    form a Bloch circle or the dimension count's family, ends in the
    tail.  The search's best candidate is refined by Newton's method
    only on a step that subtracts it.

    The steps work on matrices.  rho is decomposed once at entry; each
    step decomposes rho^G, the remainder and the remainder's two
    marginals, and carries the remainder's cleaned split to the next
    step as rho's, so the kernels, the rank and the weights of a step
    come from one decomposition each.  Every remainder is checked
    (Hermiticity, the negative-eigenvalue floor, its trace); only the
    rank-N tail becomes a BipartiteState.
    """
    n = state.dim_b
    tol = state.tol
    rng = as_rng(rng)
    scale0 = float(np.real(np.trace(state.matrix)))
    products = []
    mat = state.matrix
    rho_split = psd_eigen(mat, tol)
    local_rank = max(state.local_ranks())
    for _ in range(12):
        w, v, nullity = rho_split
        if len(w) - nullity <= local_rank:
            break
        mat_gamma = partial_transpose_matrix(mat, 2, n)
        gamma_split = psd_eigen(mat_gamma, tol)
        w_gamma, v_gamma, nullity_gamma = gamma_split
        found = _both_ranges_candidates(v[:, np.arange(nullity)],
                                        v_gamma[:, np.arange(nullity_gamma)], rng, tol)
        if found is None:
            raise RuntimeError(
                "peeling failed: no product vector found in both ranges; "
                "PPT separable inputs are guaranteed to admit one, so this "
                "signals a numerics problem or a non-separable input")
        best, accepted = found
        rank, rank_gamma = len(w) - nullity, len(w_gamma) - nullity_gamma
        if len(accepted) >= max(rank, rank_gamma):
            if rank >= rank_gamma:
                readout = _range_product_basis(mat, tol, accepted, rank)
            else:
                # (conj(a) conj(a)^dag)^{T_A} = a a^dag: weights that
                # rebuild rho^G rebuild rho, to the same relative residual
                readout = _range_product_basis(mat_gamma, tol, _conj_a(accepted), rank_gamma)
                readout = None if readout is None else _conj_a(readout)
            if readout is not None:
                return products + readout
        a, b = _refine_candidate(*best)
        e = kron(a, b)
        lam = min(
            1.0 / max(_pinv_quadratic(rho_split, e), 1.0e-300),
            1.0 / max(_pinv_quadratic(gamma_split, kron(a.conj(), b)), 1.0e-300),
        )
        if not lam > 0:
            raise RuntimeError(
                "peeling produced a nonpositive subtraction weight; the "
                "candidate product vector was not accurate enough")
        products.append((np.sqrt(lam) * a, b))
        # the subtraction leaves the eigenvalue it removed at roundoff
        # scale, of either sign; zero everything the cutoff counts as
        # kernel, and keep the split as the next step's.  A negative
        # eigenvalue is judged against the largest one of the matrix
        # subtracted from, so the guard does not depend on scale
        floor = -1.0e-6 * float(w[-1])
        rho_split = psd_eigen(mat - lam * np.outer(e, e.conj()), tol)
        w, v, nullity = rho_split
        if float(w[0]) < floor:
            raise RuntimeError(
                f"peeling left a negative eigenvalue {w[0]:.3e}; the "
                "candidate product vector was not accurate enough")
        w[:nullity] = 0.0
        mat = check_hermitian((v * w) @ dagger(v), tol)
        if np.real(np.trace(mat)) <= tol.psd_tol * scale0:
            return products
        marginals = [psd_eigen(reduce_matrix(mat, 2, n, side), tol) for side in "AB"]
        local_rank = max(len(w) - k for w, _, k in marginals)
    else:
        raise RuntimeError("peeling did not terminate within the step budget")

    tail = Frame.local(BipartiteState(2, n, mat, tol))
    products.extend(tail.lift_products(_rank_n_products(tail.work, rng)))
    return products


def separable_decomposition(state: BipartiteState, rng=7):
    """Constructive product decomposition dispatcher for PPT states.

    Covers rank <= max local rank (N products), two-level-by-N spaces
    with N <= 3 (peeling), and 3x3 rank 4 (the rank-4 decision tree).
    """
    ppt, min_eig = is_ppt(state)
    if not ppt:
        raise ValueError(f"state is NPT (min eig of rho^G = {min_eig:.3e})")
    products = _ppt_products(state, rng)
    validate_certificate(state, Separable(products=tuple(products)))
    return products


def _ppt_products(state: BipartiteState, rng):
    """separable_decomposition's products, unchecked, for a tested PPT state."""
    frame = Frame.local(state)
    work = frame.work
    wm, wn = work.dim_a, work.dim_b
    r = work.rank()
    if r <= wn:
        products = _rank_n_products(work, rng)
    elif wm == 2 and wn <= 3:
        products = _peel_two_by_n(work, rng)
    elif (wm, wn) == (3, 3) and r == 4:
        verdict = _decide_rank4_local(work, rng)
        if not isinstance(verdict.outcome, Separable):
            raise RuntimeError(
                f"rank-4 decision returned {type(verdict.outcome).__name__} "
                "for a PPT state expected to be separable")
        products = verdict.outcome.products
    else:
        raise NotImplementedError(
            f"no constructive separable decomposition for locals {wm}x{wn} "
            f"at rank {r}")
    return frame.lift_products(products)


# ---------------------------------------------------------------------------
# gauge-tracking helper for the constructive proof cascades
# ---------------------------------------------------------------------------

class _Gauge:
    """Tracks W (R x MN row blocks) with current = apply_local(base, a, b);
    frame() is the current state with the way back to base."""

    def __init__(self, base: BipartiteState, w):
        self.base = base
        self.m, self.n = base.dim_a, base.dim_b
        self.w = np.array(w, dtype=complex)
        self.a = np.eye(self.m, dtype=complex)
        self.b = np.eye(self.n, dtype=complex)

    def blocks(self):
        n = self.n
        return [self.w[:, j * n:(j + 1) * n] for j in range(self.m)]

    def entry(self, row, a_block, b_col):
        return self.w[row, a_block * self.n + b_col]

    def apply_a(self, t):
        self.w = self.w @ dagger(kron(t, np.eye(self.n, dtype=complex)))
        self.a = t @ self.a

    def apply_b_dag(self, bdag):
        self.w = self.w @ kron(np.eye(self.m, dtype=complex), bdag)
        self.b = dagger(bdag) @ self.b

    def apply_left(self, u):
        self.w = u @ self.w

    def swap_rows(self, i, j):
        self.w[[i, j], :] = self.w[[j, i], :]

    def frame(self) -> Frame:
        state = BipartiteState(self.m, self.n, dagger(self.w) @ self.w, self.base.tol)
        return Frame(state, self.a, self.b, np.linalg.inv(self.a), np.linalg.inv(self.b))


# ---------------------------------------------------------------------------
# the rank-4 decision tree
# ---------------------------------------------------------------------------

def _pair_verdict(gauge: _Gauge, trail, tag):
    """The 2x3 scan of the gauged state, its witness lifted to the base
    state; None when no A-pair block of its rho^G is negative."""
    frame = gauge.frame()
    w = schmidt2_witness(frame.work)
    if w is None:
        return None
    return Rank4Verdict(Distillable(frame.lift_witness(w)), trail + (tag,))


def _sector_is_rank1(sector) -> bool:
    """The rank-1 test a sector must pass to enter _rank1_sector_path."""
    s = np.linalg.svd(sector, compute_uv=False)
    return s.size < 2 or s[1] <= 1.0e-6 * s[0]


def _rank1_sector_path(gauge: _Gauge, x, rng, trail):
    """A direction with rank-1 sector: an NPT A-pair, or reducible.

    With x as A-level 0, an entry coupling its rank-1 sector to another
    A-level leaves a negative trivial 2x2 submatrix of rho^G inside an
    A-pair block, so the 2x3 scan of the gauged state decides; without
    one the state splits as an A-direct sum, handled by the side-swapped
    B-direct decomposition.  Only the line of x counts: it is taken as
    the unit vector whose largest entry is real and positive, so that the
    gauge, and the witness, do not depend on how the search that found
    it scaled it.
    """
    x = np.asarray(x)
    top = x[np.argmax(np.abs(x))]
    gauge.apply_a(complete_rows((x * (abs(top) / top) / np.linalg.norm(x)).conj()))
    verdict = _pair_verdict(gauge, trail + ("sector-rank-1",), "gauge-pair-npt")
    if verdict is not None:
        return verdict
    c0 = gauge.blocks()[0]
    if not _sector_is_rank1(c0):
        raise RuntimeError("claimed rank-1 sector direction is not rank 1")
    u_svd, _, vh_svd = np.linalg.svd(c0)
    gauge.apply_left(dagger(u_svd))
    b_unit = np.linalg.qr(np.hstack([
        vh_svd[0, :].conj().reshape(-1, 1),
        np.eye(gauge.n, dtype=complex)[:, :-1]]))[0]
    gauge.apply_b_dag(b_unit)

    sigma = gauge.entry(0, 0, 0)
    t2 = np.eye(gauge.m, dtype=complex)
    for i in range(1, gauge.m):
        t2[i, 0] = (-gauge.entry(0, i, 0) / sigma).conjugate()
    gauge.apply_a(t2)

    frame = gauge.frame()
    side = Frame.swap(frame.work)
    decomp = decompose_b_direct(side.work, rng=rng)
    verdicts = [classify_state(c, rng=rng) for c in decomp.components]
    cert = aggregate(decomp, verdicts)
    if isinstance(cert, (Distillable, Separable)):
        return Rank4Verdict(frame.lift(side.lift(cert)), trail + ("sector-rank-1", "a-direct-split"))
    raise RuntimeError(
        f"A-direct split of a rank-4 state returned {type(cert).__name__}; "
        "components of these states are always fully decidable")


def _peel_anchor(state: BipartiteState, a_vec, b_vec):
    """Factor rho = lam |a,b><a,b| + rest with rest PSD of rank 3.

    Returns the W matrix (rows conj of the summands) whose Gram is rho.
    A product accepted by its rank-1 defect can lie a relative d off
    R(rho); rho - lam e e^dag then has an eigenvalue pair of about
    +-lam d, which can pass the rank cutoff as a fifth summand, so the
    product is first projected onto R(rho).
    """
    tol = state.tol
    split = psd_eigen(state.matrix, tol)
    span = split[1][:, split[2]:]  # orthonormal basis of R(rho)
    e = span @ (dagger(span) @ kron(a_vec, b_vec))
    e = e / np.linalg.norm(e)
    lam = 1.0 / max(_pinv_quadratic(split, e), 1.0e-300)
    w, q = psd_range(state.matrix - lam * np.outer(e, e.conj()), tol)
    return np.vstack([np.sqrt(lam) * e.conj()]
                     + [np.sqrt(wk) * qk.conj() for wk, qk in zip(w, q.T)])


def _product_cascade(state: BipartiteState, a_vec, b_vec, rng, trail):
    """Gauge-fixing cascade for an irreducible NPT 3x3 rank-4 state with
    the product vector a (x) b in its range.

    Each step either exposes an NPT projection or refines the gauge.
    After the pivot step every exit of the proof names an A-pair with a
    negative trivial 2x2 submatrix, so two 2x3 scans of the gauge, before
    and after the shift t of A-level 0, stand for all of them.  A miss in
    both is the proof's contradiction: a reducible state, or its
    terminus, where all four rows are product vectors and the state
    would be separable.  It raises.

    The B-gauge steps rescale B-levels by amounts that depend on the
    scale of rho, and the zero tests compare quantities that scale
    differently with it.  So the cascade runs on 4^-j rho, whose trace
    lies in [1/2, 2), in a frame with a = 2^-j I: a power of two scales
    exactly, and the frame maps the verdict back exactly.
    """
    j = int(np.frexp(np.real(np.trace(state.matrix)))[1]) // 2
    if j:
        scale = Frame(BipartiteState(3, 3, 4.0 ** -j * state.matrix, state.tol),
                      a=2.0 ** -j * np.eye(3), a_back=2.0 ** j * np.eye(3))
        verdict = _product_cascade(scale.work, a_vec, b_vec, rng, trail)
        return Rank4Verdict(scale.lift(verdict.outcome), verdict.trail)
    w0 = _peel_anchor(state, a_vec, b_vec)
    if w0.shape[0] != 4:
        raise RuntimeError(
            f"anchor peel produced {w0.shape[0]} summands instead of 4")
    g = _Gauge(state, w0)
    tol = state.tol

    # step 1: move the anchor product onto |1,1>
    t1 = np.linalg.inv(np.column_stack(
        [a_vec.reshape(-1), complete_rows(a_vec.conj())[1:].conj().T]))
    g.apply_a(t1.conj())
    b1 = np.linalg.inv(np.column_stack(
        [b_vec.reshape(-1), complete_rows(b_vec.conj())[1:].conj().T]))
    g.apply_b_dag(dagger(b1))
    anchor = g.entry(0, 0, 0)
    scale_fix = np.eye(3, dtype=complex)
    scale_fix[0, 0] = 1.0 / anchor
    g.apply_b_dag(scale_fix)

    # step 2: the state projected onto the last two B-levels
    sel_b = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    cols = [1, 2, 4, 5, 7, 8]
    w_sub = g.w[:, cols]
    tau = BipartiteState(3, 2, dagger(w_sub) @ w_sub, tol)
    w = schmidt2_witness(tau)  # complete on 3x2: None means PPT
    if w is not None:
        witness = g.frame().lift_witness(w, None, sel_b)
        return Rank4Verdict(Distillable(witness), trail + ("projected-b-pair-npt",))

    products = _ppt_products(tau, rng)
    if len(products) > 3:
        raise RuntimeError(
            f"projected state decomposed into {len(products)} products; "
            "the cascade needs at most 3")

    # step 3: rotate the three non-anchor rows onto the product structure
    w2 = np.zeros((3, 6), dtype=complex)
    delta = np.zeros((3, 3), dtype=complex)
    c_rows = np.zeros((3, 2), dtype=complex)
    for k, (alpha, beta) in enumerate(products):
        w2[k] = kron(alpha, beta).conj()
        delta[k, :] = alpha.conj()
        c_rows[k, :] = beta.conj()
    w_prime = g.w[1:, cols]
    omega = w2 @ dagger(w_prime)
    pu, _, qvh = np.linalg.svd(omega)
    u_rot = pu @ qvh
    if frob(u_rot @ w_prime - w2) > 1.0e-6 * max(frob(w2), 1.0):
        raise RuntimeError("row gauge could not be matched to the product "
                           "structure of the projected state")
    u_full = np.eye(4, dtype=complex)
    u_full[1:, 1:] = u_rot
    g.apply_left(u_full)

    # dependent D-pencil: some block mix has a rank-1 sector
    db = delta[:, 1:]
    svd_db = np.linalg.svd(db, compute_uv=False)
    if svd_db[1] <= 1.0e-8 * max(svd_db[0], 1.0e-300):
        _, kern = numerical_rank(db, tol)
        v = kern[:, 0]
        # block-2 mix follows the null direction (zeroing its D part),
        # block-1 mix completes it to an invertible map on levels 1, 2
        t = np.eye(3, dtype=complex)
        t[1, 1], t[1, 2] = -v[1], v[0]
        t[2, 1], t[2, 2] = np.conj(v[0]), np.conj(v[1])
        g.apply_a(t)
        x_dir = np.zeros(3, dtype=complex)
        x_dir[2] = 1.0
        return _rank1_sector_path(g, x_dir, rng, trail + ("d-pencil-dependent",))

    # pick a product row whose removal keeps the (D2, D3) pencil independent
    removable = None
    for r in range(3):
        others = [k for k in range(3) if k != r]
        sub = delta[np.ix_(others, [1, 2])]
        sv = np.linalg.svd(sub, compute_uv=False)
        if sv[1] > 1.0e-8 * max(sv[0], 1.0e-300):
            removable = r
            break
    if removable is None:
        raise RuntimeError("no removable product row; the D-pencil logic "
                           "is inconsistent with its independence check")
    if removable != 0:
        g.swap_rows(1, 1 + removable)
        delta[[0, removable]] = delta[[removable, 0]]
        c_rows[[0, removable]] = c_rows[[removable, 0]]

    # normalize the D-pencil to (d1,0,0), (d2,1,0), (d3,0,1)
    db2 = delta[1:, :]
    _, kern = numerical_rank(db2, tol)
    m0 = kern[:, 0]
    m1 = np.linalg.lstsq(db2, np.array([1.0, 0.0], dtype=complex), rcond=None)[0]
    m2 = np.linalg.lstsq(db2, np.array([0.0, 1.0], dtype=complex), rcond=None)[0]
    m_mat = np.column_stack([m0, m1, m2])
    g.apply_a(dagger(m_mat))
    delta = delta @ m_mat

    d1 = delta[0, 0]
    # a small d1 counts as zero only if the A-level-1 sector is rank 1 too
    if abs(d1) * np.linalg.norm(c_rows[0]) <= np.sqrt(tol.residual_tol) * max(
            np.abs(delta).max() * np.linalg.norm(c_rows, axis=1).max(),
            1.0e-300) and _sector_is_rank1(g.blocks()[0]):
        x_dir = np.zeros(3, dtype=complex)
        x_dir[0] = 1.0
        return _rank1_sector_path(g, x_dir, rng, trail + ("d1-zero",))

    # B-side: first product row of the C matrix becomes (1, 0)
    u_row = d1 * c_rows[0]
    g2 = np.zeros((2, 2), dtype=complex)
    g2[:, 0] = u_row.conj() / (np.linalg.norm(u_row) ** 2)
    g2[0, 1], g2[1, 1] = u_row[1], -u_row[0]
    bdag = np.eye(3, dtype=complex)
    bdag[1:, 1:] = g2
    g.apply_b_dag(bdag)

    # kill u1 with a column operation
    u1 = g.entry(1, 0, 0)
    bdag = np.eye(3, dtype=complex)
    bdag[1, 0] = -u1
    g.apply_b_dag(bdag)

    zthr = np.sqrt(tol.residual_tol) * max(frob(g.w), 1.0e-300)
    dlt = g.entry(2, 1, 2)
    zeta = g.entry(3, 2, 2)
    if abs(dlt) <= zthr and abs(zeta) <= zthr:
        raise RuntimeError("both candidate pivots vanish; the B-marginal "
                           "is rank deficient, contradicting 3 B-levels")
    if abs(dlt) <= zthr:
        perm = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
        g.apply_a(perm)
        g.swap_rows(2, 3)
        dlt = g.entry(2, 1, 2)

    bdag = np.diag([1.0, 1.0, 1.0 / dlt]).astype(complex)
    g.apply_b_dag(bdag)
    v2 = g.entry(2, 1, 0)
    gam2 = g.entry(2, 1, 1)
    bdag = np.eye(3, dtype=complex)
    bdag[2, 0] = -v2
    bdag[2, 1] = -gam2
    g.apply_b_dag(bdag)

    # B-gauge steps and unitary row operations change no A-pair's
    # NPT-ness, and a negative trivial 2x2 submatrix of a pair makes its
    # 2x3 block negative (interlacing), so one scan stands for every pair
    # exit of the proof on this gauge.  t adds level 0 to levels 1 and 2,
    # so only the (1, 2) plane is new to the second scan
    verdict = _pair_verdict(g, trail, "gauge-pair-npt")
    if verdict is None:
        t = np.eye(3, dtype=complex)
        t[1, 0] = (-g.entry(1, 1, 1)).conjugate()
        t[2, 0] = (-g.entry(1, 2, 1)).conjugate()
        g.apply_a(t)
        verdict = _pair_verdict(g, trail, "shifted-gauge-pair-npt")
    if verdict is None:
        raise RuntimeError(
            "cascade found no NPT 2x3 projection in its gauge: the proof then "
            "has zeta = 0 with w2 = 0 or epsilon = 0, which make the state "
            "reducible, or reaches its terminus, where all four rows are "
            "product vectors and the state is separable; either contradicts "
            "an irreducible NPT state")
    return verdict


def _reducible_verdict(restricted: BipartiteState, rng):
    """Step (a) of the 3x3 tree: the verdict of a B- or A-reducible
    state, or None for an irreducible one.

    The A side is tested on the swapped matrix; the swapped state and
    its frame are built only when that side splits.
    """
    m, n, tol = restricted.dim_a, restricted.dim_b, restricted.tol
    sides = (("reducible-b", restricted.matrix, (m, n)),
             ("reducible-a", swap_sides_matrix(restricted.matrix, m, n), (n, m)))
    for side_tag, mat, dims in sides:
        decomp = decompose_b_direct_matrix(mat, *dims, tol, rng)
        if decomp.irreducible:
            continue
        side = Frame(restricted) if side_tag == "reducible-b" else Frame.swap(restricted)
        verdicts = [classify_state(c, rng=rng) for c in decomp.components]
        cert = aggregate(decomp, verdicts)
        if isinstance(cert, Ppt):
            raise RuntimeError(
                "components of a reducible rank-4 state did not fully "
                "classify; every component is decidable at this rank")
        return Rank4Verdict(side.lift(cert), (side_tag,))
    return None


def decide_rank4(state: BipartiteState, rng=7) -> Rank4Verdict:
    """Separability/distillability decision for a rank-4 bipartite state.

    Separable iff PPT with a product vector in the range; the verdict
    carries the proof path.  The only undecided corner is an NPT 3x3
    state that is irreducible, has no product vector found in the range,
    and on which both the coordinate 2x3 scan and the eigen-frames of
    rho^G find no negative direction; it raises UndecidableError.  That
    search moves with the state under a local unitary, so the verdict
    does not depend on one (up to degenerate eigenvalues).

    rng, a seed or a Generator, is passed through unchanged: only a
    route that draws turns it into a Generator, after its early returns.
    With an int seed each drawing function starts its stream afresh, and
    a negative seed raises only where a route draws.  The range-product
    readout, the "no product" bound, the coordinate 2x3 scan and the
    eigen-frames draw nothing.
    """
    frame = Frame.local(state, orient=False)
    r = frame.work.rank()
    if r != 4:
        raise ValueError(f"decide_rank4 needs a rank-4 state, got rank {r}")
    verdict = _decide_rank4_local(frame.work, rng)
    outcome = frame.lift(verdict.outcome)
    if isinstance(outcome, (Separable, Distillable)):
        validate_certificate(state, outcome)
    return Rank4Verdict(outcome, verdict.trail)


def _decide_rank4_local(restricted: BipartiteState, rng) -> Rank4Verdict:
    """decide_rank4 on a rank-4 state compressed to its local ranges."""
    m, n = restricted.dim_a, restricted.dim_b
    ppt_flag, min_eig = is_ppt(restricted)

    if max(m, n) == 4:
        local = Frame.local(restricted)
        cert = (Separable(products=tuple(_rank_n_products(local.work, rng))) if ppt_flag
                else Distillable(_distill_rank_max(local.work, rng)))
        return Rank4Verdict(local.lift(cert),
                            ("max-local-rank-4", "ppt-rank-max" if ppt_flag else "npt-rank-max"))

    if (m, n) != (3, 3):
        # small shapes (2x2, 2x3, 3x2): PPT iff separable
        if ppt_flag:
            return Rank4Verdict(Separable(products=tuple(_ppt_products(restricted, rng))),
                                ("small-locals", "peeling"))
        w = schmidt2_witness(restricted)
        if w is None:
            raise UndecidableError(
                "NPT state with a 2-level side must be 1-distillable, but "
                "the scan of its 2xN blocks found no negative direction")
        return Rank4Verdict(Distillable(w), ("small-locals",))

    # (0) PPT only: the state is separable iff its range holds a product,
    # and then four of the range's products rebuild it, so the range
    # is searched first.  A separable range's products are read off the
    # null space of its second compound, and "no product" in the range
    # of the tiles UPB or a PPT checkerboard is proved by its null
    # vector, both with no enumeration and no random draw.  No product,
    # or products that diagonalize nothing (the families of a reducible
    # range), fall through to (a) and (b), and (c) reuses the search.
    # "No product" is not reported here: under an ill-conditioned ILO the
    # search can miss a product, and the checks of (a) are what stop that
    # becoming PptEntangled.
    prod = None
    if ppt_flag:
        range_w, range_q = psd_range(restricted.matrix, restricted.tol)
        prod = rank_one_in_span(range_q.T.reshape(-1, 3, 3), rng=rng, tol=restricted.tol)
        products = _range_product_basis(
            restricted.matrix, restricted.tol, [(a, b) for a, b, _ in prod.products], 4)
        if products is not None:  # decide_rank4 validates it in the caller's frame
            return Rank4Verdict(Separable(products=tuple(products)),
                                ("product-in-range", "range-product-basis"))
    else:
        # (a') NPT only: a negative coordinate 2x3 block of rho^G is a
        # witness on its own, with no reducibility theorem behind it, so
        # it is tried first.  The scan draws no random numbers, and
        # decide_rank4 re-checks the witness on the caller's state
        w = schmidt2_witness(restricted)
        if w is not None:
            return Rank4Verdict(Distillable(w), ("schmidt2-search",))
        range_w, range_q = psd_range(restricted.matrix, restricted.tol)

    # (a) reducibility, B side then A side.  It precedes every route that
    # relies on irreducibility or can end in PptEntangled, and its
    # Hermiticity check on the B-normalized state guards them
    reducible = _reducible_verdict(restricted, rng)
    if reducible is not None:
        return reducible

    # (b) a direction with a rank-1 sector.  Three 4 x 3 blocks have 18
    # minors against 6 monomials, so the second compound usually proves
    # "none", or reads the sector off its null space, without the
    # enumeration or a random draw
    blocks = _block_form_from_range(range_w, range_q, m, n)
    found = rank_one_in_span(np.stack(blocks.blocks), rng=rng, tol=restricted.tol)
    if found.found:
        g = _Gauge(restricted, blocks.stacked())
        return _rank1_sector_path(g, found.coefficients, rng, ())

    # (c) a product vector in the range.  NPT runs the cascade; a PPT
    # state got here only if (0) found no product, since an irreducible
    # separable state's products diagonalize it
    if prod is None:
        prod = rank_one_in_span(range_q.T.reshape(-1, 3, 3), rng=rng, tol=restricted.tol)
    if prod.found and ppt_flag:
        raise RuntimeError(
            f"range-product-basis: no 4 of the {len(prod.products)} product "
            "vectors in the range diagonalize the state")
    if prod.found:
        return _product_cascade(restricted, prod.a, prod.b, rng, ("product-in-range",))

    # (d) no product vector in the range.  An NPT state gets here only
    # when the scan of (a') missed; the 2-frames read off the eigenvectors
    # of rho^G, which draw no random numbers, are its last search
    report = f"no product vector in the range ({prod.report()})"
    if ppt_flag:
        return Rank4Verdict(
            PptEntangled(min_eig_gamma=min_eig, product_search_report=report),
            ("no-product-in-range",))
    w = _eigen_frame_witness(restricted)
    if w is not None:
        return Rank4Verdict(Distillable(w), ("no-product-in-range", "eigen-frames"))
    raise UndecidableError(
        "NPT 3x3 rank-4 state with no product vector in its range; neither "
        "the coordinate 2x3 scan nor the eigen-frames of rho^G found a negative "
        "Schmidt-rank-2 direction, so no verdict is returned. " + report)


# ---------------------------------------------------------------------------
# top-level classification
# ---------------------------------------------------------------------------

def classify_state(state: BipartiteState, rng=7) -> Certificate:
    """Strongest verdict available for an arbitrary bipartite state.

    Dispatch order mirrors what is actually decidable: rank at most the
    max local rank is fully classified; rank 4 goes through the rank-4
    decision tree; everything else runs the criteria battery plus the
    B-direct decomposition and reports the strongest certified verdict.
    An NPT state of that last branch is searched by the coordinate 2xN
    scan, then by the 2-frames read off the eigenvectors of rho^G, with
    no random draw; only there is a failed search reported as Undecided.
    """
    ra, rb = state.local_ranks()
    r = state.rank()
    if r <= max(ra, rb):
        return classify_rank_le_max(state, rng=rng)
    if r == 4:
        return decide_rank4(state, rng=rng).outcome

    ppt, min_eig = is_ppt(state)
    if ppt and (min(ra, rb) > 2 or max(ra, rb) > 3):
        return Ppt(min_eig_gamma=min_eig)
    # a PPT state left here is at most 2x3, where PPT implies separable
    cert = (Separable(products=tuple(_ppt_products(state, rng))) if ppt
            else _npt_certificate(state, rng))
    if cert is None:
        # common_kernel_distill checks the certificate it returns
        return common_kernel_distill(state, rng=rng) or Undecided(report=(
            f"NPT state of rank {r} > max local rank {max(ra, rb)}: witness "
            "searches exhausted; no decision procedure is known for this regime"))
    if isinstance(cert, (Separable, Distillable)):
        validate_certificate(state, cert)
    return cert


def _npt_certificate(state: BipartiteState, rng):
    """classify_state's unchecked certificate for an NPT state from a witness
    search or the B-direct components; None for an irreducible state."""
    w = schmidt2_witness(state) or _eigen_frame_witness(state)
    if w is not None:
        return Distillable(w)
    rw = reduction_criterion(state)[1]
    if rw is not None:
        # a reduction violation by itself proves 1-distillability
        return Distillable(rw)
    decomp = decompose_b_direct(state, rng=rng)
    if decomp.irreducible:
        return None
    return aggregate(decomp, [classify_state(c, rng=rng) for c in decomp.components])
