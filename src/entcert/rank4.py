"""Complete separability/distillability decision for rank-4 states, and
the top-level classification that routes every state.

A bipartite state of rank 4 is separable iff it is PPT and its range
contains a product vector.  The decision tree:

* max local rank 4: rank equals the max, so the rank-max machinery
  decides (PPT -> N products, NPT -> projection witness);
* 3x3 locals: reducibility, rank-1 sector directions, then a product
  vector in the range followed by a gauge-fixing cascade that
  terminates either in an explicit 4-product decomposition or in a
  trivially distillable projection;
* PPT with no product vector in range: PPT entangled;
* NPT with no product vector in range: witness search only; its
  failure is surfaced as undecidable, not as a verdict.

Also hosts the peeling decomposition for two-level-by-N PPT states
(Kraus, Cirac, Karnas and Lewenstein, PRA 61, 062302 (2000)), whose
products come from the exact search product_in_both_ranges, and the
separable_decomposition dispatcher.  classify_state lives here
because it and decide_rank4 call each other: the components of a
reducible rank-4 state are classified by classify_state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import (
    Certificate,
    Distillable,
    Ppt,
    PptEntangled,
    SchmidtRank2Witness,
    Separable,
    UndecidableError,
    Undecided,
    lift_through_local,
    validate_certificate,
    validate_witness,
)
from .criteria import (
    Frame,
    _rank_n_products,
    classify_rank_le_max,
    is_ppt,
    reduction_criterion,
    schmidt2_witness,
    separable_decomposition_rank_n,
    trivially_distillable,
)
from .linalg import complete_rows, dagger, frob, numerical_rank, psd_eigen, psd_kernel, psd_range
from .product_search import (
    Subspace,
    find_product_vector,
    product_in_both_ranges,
    rank_one_in_span,
)
from .random_states import as_rng
from .states import BipartiteState, block_form, partial_transpose
from .structure import aggregate, common_kernel_distill, decompose_b_direct

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

def _pinv_quadratic(mat, vec, tol):
    """<v| mat^+ |v> via the spectral pseudo-inverse (rank cutoff)."""
    w, u, nullity = psd_eigen(mat, tol)
    coeffs = np.abs(dagger(u) @ vec) ** 2
    return float(np.sum(coeffs[nullity:] / w[nullity:]))


def _peel_two_by_n(state: BipartiteState, rng):
    """Separable decomposition for PPT states with a 2-level A side.

    Repeatedly subtracts product projectors lying in both R(rho) and
    (A-conjugated) R(rho^G) with the largest PSD-safe weight; each step
    lowers rank(rho) + rank(rho^G), and the final rank-N remainder is
    decomposed by the rank-max route.  Valid for M(locals) = 2 and
    N <= 3, where PPT implies separable.
    """
    n = state.dim_b
    tol = state.tol
    rng = as_rng(rng)
    scale0 = float(np.real(np.trace(state.matrix)))
    products = []
    current = state
    for _ in range(12):
        if current is None:
            break
        la, lb = current.local_ranks()
        if current.rank() <= max(la, lb):
            break
        gamma = partial_transpose(current)
        found = product_in_both_ranges(psd_kernel(current.matrix, tol),
                                       psd_kernel(gamma, tol), rng, tol)
        if found is None:
            raise RuntimeError(
                "peeling failed: no product vector found in both ranges; "
                "PPT separable inputs are guaranteed to admit one, so this "
                "signals a numerics problem or a non-separable input")
        a, b = found
        e = np.kron(a, b)
        lam = min(
            1.0 / max(_pinv_quadratic(current.matrix, e, tol), 1.0e-300),
            1.0 / max(_pinv_quadratic(gamma, np.kron(a.conj(), b), tol), 1.0e-300),
        )
        if not lam > 0:
            raise RuntimeError(
                "peeling produced a nonpositive subtraction weight; the "
                "candidate product vector was not accurate enough")
        products.append((np.sqrt(lam) * a, b))
        remainder = current.matrix - lam * np.outer(e, e.conj())
        # the subtraction leaves the eigenvalue it removed at roundoff
        # scale, of either sign; zero everything rank() counts as kernel
        w, v, nullity = psd_eigen(remainder, tol)
        floor = -1.0e-6 * max(float(w[-1]), 1.0)
        if float(w[0]) < floor:
            raise RuntimeError(
                f"peeling left a negative eigenvalue {w[0]:.3e}; the "
                "candidate product vector was not accurate enough")
        w[:nullity] = 0.0
        remainder = (v * w) @ dagger(v)
        if np.real(np.trace(remainder)) <= tol.psd_tol * scale0:
            current = None
        else:
            current = BipartiteState(2, n, remainder, tol)
    else:
        raise RuntimeError("peeling did not terminate within the step budget")

    if current is not None:
        tail = Frame.local(current)
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
    frame = Frame.local(state)
    work = frame.work
    wm, wn = work.dim_a, work.dim_b
    r = work.rank()
    if r <= wn:
        products = _rank_n_products(work, rng)
    elif wm == 2 and wn <= 3:
        products = _peel_two_by_n(work, rng)
    elif (wm, wn) == (3, 3) and r == 4:
        verdict = decide_rank4(work, rng=rng)
        if not isinstance(verdict.outcome, Separable):
            raise RuntimeError(
                f"rank-4 decision returned {type(verdict.outcome).__name__} "
                "for a PPT state expected to be separable")
        products = verdict.outcome.products
    else:
        raise NotImplementedError(
            f"no constructive separable decomposition for locals {wm}x{wn} "
            f"at rank {r}")
    products = frame.lift_products(products)
    validate_certificate(state, Separable(products=tuple(products)))
    return products


# ---------------------------------------------------------------------------
# gauge-tracking helper for the constructive proof cascades
# ---------------------------------------------------------------------------

class _Gauge:
    """Tracks W (R x MN row blocks) with current = apply_local(base, a, b)."""

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

    def scale(self):
        return max(frob(self.w), 1.0e-300)

    def apply_a(self, t):
        self.w = self.w @ dagger(np.kron(t, np.eye(self.n, dtype=complex)))
        self.a = t @ self.a

    def apply_b_dag(self, bdag):
        self.w = self.w @ np.kron(np.eye(self.m, dtype=complex), bdag)
        self.b = dagger(bdag) @ self.b

    def apply_left(self, u):
        self.w = u @ self.w

    def swap_rows(self, i, j):
        self.w[[i, j], :] = self.w[[j, i], :]

    def state(self):
        return BipartiteState(self.m, self.n, dagger(self.w) @ self.w, self.base.tol)

    def lift(self, vec):
        return lift_through_local(vec, self.a, self.b, (self.m, self.n))

    def lift_products(self, products):
        a_inv = np.linalg.inv(self.a)
        b_inv = np.linalg.inv(self.b)
        return [(a_inv @ a, b_inv @ b) for a, b in products]

    def projected_pair_state(self, i, j):
        n = self.n
        w_sub = np.hstack([self.w[:, i * n:(i + 1) * n], self.w[:, j * n:(j + 1) * n]])
        return BipartiteState(2, n, dagger(w_sub) @ w_sub, self.base.tol)

    def lift_from_pair(self, vec, i, j):
        sel = np.zeros((2, self.m), dtype=complex)
        sel[0, i] = 1.0
        sel[1, j] = 1.0
        inner = lift_through_local(vec, sel, None, (2, self.n))
        return self.lift(inner)

    def clone(self):
        dup = _Gauge.__new__(_Gauge)
        dup.base, dup.m, dup.n = self.base, self.m, self.n
        dup.w = self.w.copy()
        dup.a = self.a.copy()
        dup.b = self.b.copy()
        return dup


# ---------------------------------------------------------------------------
# the rank-4 decision tree
# ---------------------------------------------------------------------------

def _zero_thr(gauge: _Gauge) -> float:
    return np.sqrt(gauge.base.tol.residual_tol) * gauge.scale()


def _pair_verdict(gauge: _Gauge, i, j, original, trail, tag):
    """Trivial-submatrix witness on the (i, j) A-pair projection."""
    pair = gauge.projected_pair_state(i, j)
    tw = trivially_distillable(pair)
    if tw is None:
        raise RuntimeError(
            f"proof step '{tag}' promised a trivially distillable projection "
            f"onto A-levels ({i}, {j}) but the scan found none")
    vec = gauge.lift_from_pair(tw.vector, i, j)
    witness = SchmidtRank2Witness(vector=vec, value=tw.value)
    validate_witness(original, witness)
    return Rank4Verdict(Distillable(witness), trail + (tag, "trivial-submatrix"))


def _sector_is_rank1(sector) -> bool:
    """The rank-1 test a sector must pass to enter _rank1_sector_path."""
    s = np.linalg.svd(sector, compute_uv=False)
    return s.size < 2 or s[1] <= 1.0e-6 * s[0]


def _rank1_sector_path(gauge: _Gauge, x, original, rng, trail):
    """A direction with rank-1 sector: trivially distillable or reducible.

    After gauge fixing, either an off-diagonal element certifies trivial
    distillability, or the state splits as an A-direct sum handled by
    the side-swapped B-direct decomposition.
    """
    gauge.apply_a(complete_rows(np.asarray(x).conj()))
    c0 = gauge.blocks()[0]
    if not _sector_is_rank1(c0):
        raise RuntimeError("claimed rank-1 sector direction is not rank 1")
    u_svd, _, vh_svd = np.linalg.svd(c0)
    gauge.apply_left(dagger(u_svd))
    b_unit = np.linalg.qr(np.hstack([
        vh_svd[0, :].conj().reshape(-1, 1),
        np.eye(gauge.n, dtype=complex)[:, :-1]]))[0]
    gauge.apply_b_dag(b_unit)

    zthr = _zero_thr(gauge)
    m, n = gauge.m, gauge.n
    off = [abs(gauge.entry(0, i, c)) for i in range(1, m) for c in range(1, n)]
    if off and max(off) > zthr:
        tw = trivially_distillable(gauge.state())
        if tw is None:
            raise RuntimeError(
                "rank-1 sector gauge has off-diagonal mass but no trivial "
                "submatrix was found")
        witness = SchmidtRank2Witness(vector=gauge.lift(tw.vector), value=tw.value)
        validate_witness(original, witness)
        return Rank4Verdict(Distillable(witness),
                            trail + ("sector-rank-1", "trivial-submatrix"))

    sigma = gauge.entry(0, 0, 0)
    t2 = np.eye(m, dtype=complex)
    for i in range(1, m):
        t2[i, 0] = (-gauge.entry(0, i, 0) / sigma).conjugate()
    gauge.apply_a(t2)

    side = Frame.swap(gauge.state())
    decomp = decompose_b_direct(side.work, rng=rng)
    verdicts = [classify_state(c, rng=rng) for c in decomp.components]
    cert = aggregate(side.work, decomp, verdicts)
    sub_trail = trail + ("sector-rank-1", "a-direct-split")
    if isinstance(cert, Distillable):
        w = side.lift_witness(cert.witness)
        witness = SchmidtRank2Witness(vector=gauge.lift(w.vector), value=w.value)
        validate_witness(original, witness)
        return Rank4Verdict(Distillable(witness), sub_trail)
    if isinstance(cert, Separable):
        products = gauge.lift_products(side.lift_products(cert.products))
        outcome = Separable(products=tuple(products))
        validate_certificate(original, outcome)
        return Rank4Verdict(outcome, sub_trail)
    raise RuntimeError(
        f"A-direct split of a rank-4 state returned {type(cert).__name__}; "
        "components of these states are always fully decidable")


def _peel_anchor(state: BipartiteState, a_vec, b_vec):
    """Factor rho = lam |a,b><a,b| + rest with rest PSD of rank 3.

    Returns the W matrix (rows conj of the summands) whose Gram is rho.
    """
    tol = state.tol
    e = np.kron(a_vec, b_vec)
    e = e / np.linalg.norm(e)
    lam = 1.0 / max(_pinv_quadratic(state.matrix, e, tol), 1.0e-300)
    w, q = psd_range(state.matrix - lam * np.outer(e, e.conj()), tol)
    return np.vstack([np.sqrt(lam) * e.conj()]
                     + [np.sqrt(wk) * qk.conj() for wk, qk in zip(w, q.T)])


def _product_cascade(state: BipartiteState, a_vec, b_vec, ppt_flag, rng, trail):
    """Gauge-fixing cascade for an irreducible 3x3 rank-4 state with a
    product vector in its range.

    Each step either exposes a trivially distillable projection (NPT
    outcome) or refines the gauge; the terminus is an explicit
    4-product decomposition (PPT outcome).
    """
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
    tau_ppt, _ = is_ppt(tau)
    if not tau_ppt:
        gam = partial_transpose(tau)
        wg, vg = np.linalg.eigh(gam)
        inner = lift_through_local(vg[:, 0], None, sel_b, (3, 2))
        witness = SchmidtRank2Witness(vector=g.lift(inner), value=float(wg[0]))
        validate_witness(state, witness)
        return Rank4Verdict(Distillable(witness),
                            trail + ("projected-b-pair-npt",))

    products = separable_decomposition(tau, rng=rng)
    if len(products) > 3:
        raise RuntimeError(
            f"projected state decomposed into {len(products)} products; "
            "the cascade needs at most 3")

    # step 3: rotate the three non-anchor rows onto the product structure
    w2 = np.zeros((3, 6), dtype=complex)
    delta = np.zeros((3, 3), dtype=complex)
    c_rows = np.zeros((3, 2), dtype=complex)
    for k, (alpha, beta) in enumerate(products):
        w2[k] = np.kron(alpha, beta).conj()
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

    zthr = _zero_thr(g)

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
        return _rank1_sector_path(g, x_dir, state, rng,
                                  trail + ("d-pencil-dependent",))

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
        return _rank1_sector_path(g, x_dir, state, rng, trail + ("d1-zero",))

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

    zthr = _zero_thr(g)
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
        zeta = g.entry(3, 2, 2)

    bdag = np.diag([1.0, 1.0, 1.0 / dlt]).astype(complex)
    g.apply_b_dag(bdag)
    v2 = g.entry(2, 1, 0)
    gam2 = g.entry(2, 1, 1)
    bdag = np.eye(3, dtype=complex)
    bdag[2, 0] = -v2
    bdag[2, 1] = -gam2
    g.apply_b_dag(bdag)

    zthr = _zero_thr(g)
    if abs(g.entry(2, 0, 0)) > zthr:
        return _pair_verdict(g, 0, 1, state, trail, "u2")

    t = np.eye(3, dtype=complex)
    t[1, 0] = (-g.entry(1, 1, 1)).conjugate()
    t[2, 0] = (-g.entry(1, 2, 1)).conjugate()
    g.apply_a(t)

    if abs(g.entry(1, 1, 0)) > zthr:
        return _pair_verdict(g, 0, 1, state, trail, "v1")

    zeta = g.entry(3, 2, 2)
    if abs(zeta) <= zthr:
        if abs(g.entry(2, 2, 0)) > zthr:
            return _pair_verdict(g, 1, 2, state, trail, "zeta-zero-w2")
        raise RuntimeError("zeta = 0 with w2 = 0 makes the state reducible, "
                           "contradicting the irreducibility established "
                           "earlier in the decision tree")

    if abs(g.entry(3, 0, 0)) > zthr:
        return _pair_verdict(g, 0, 2, state, trail, "u3")

    if abs(g.entry(1, 2, 0)) > zthr:
        eps = g.entry(3, 2, 1)
        dup = g.clone()
        bdag = np.eye(3, dtype=complex)
        bdag[2, 1] = -eps / zeta
        dup.apply_b_dag(bdag)
        return _pair_verdict(dup, 0, 2, state, trail, "w1")

    eps = g.entry(3, 2, 1)
    if abs(eps) <= zthr:
        raise RuntimeError("epsilon = 0 makes the state reducible, "
                           "contradicting the irreducibility established "
                           "earlier in the decision tree")

    if abs(g.entry(3, 1, 0)) > zthr:
        return _pair_verdict(g, 1, 2, state, trail, "v3")

    w2_e = g.entry(2, 2, 0)
    if abs(w2_e) <= zthr:
        # separable terminus: all four W rows are product vectors
        products = []
        for k in range(4):
            mat = g.w[k, :].conj().reshape(3, 3)
            u_svd, s_svd, vh_svd = np.linalg.svd(mat)
            if s_svd.size > 1 and s_svd[1] > 1.0e-6 * s_svd[0]:
                raise RuntimeError(
                    f"terminus row {k} is not a product vector "
                    f"(rank-1 defect {s_svd[1] / s_svd[0]:.3e})")
            products.append((u_svd[:, 0] * np.sqrt(s_svd[0]),
                             vh_svd[0, :] * np.sqrt(s_svd[0])))
        if not ppt_flag:
            raise RuntimeError("cascade reached the separable terminus on an "
                               "NPT state; numerical inconsistency")
        products = g.lift_products(products)
        outcome = Separable(products=tuple(products))
        validate_certificate(state, outcome)
        return Rank4Verdict(outcome, trail + ("separable-terminus",))

    w3p = g.entry(3, 2, 0)
    dup = g.clone()
    bdag = np.eye(3, dtype=complex)
    bdag[1, 0] = -w3p / eps
    bdag[1, 2] = -zeta / eps
    dup.apply_b_dag(bdag)
    return _pair_verdict(dup, 1, 2, state, trail, "w2-final")


def decide_rank4(state: BipartiteState, rng=7) -> Rank4Verdict:
    """Separability/distillability decision for a rank-4 bipartite state.

    Separable iff PPT with a product vector in the range; the verdict
    carries the proof path.  The only undecided corner is NPT with no
    product vector found in the range, which raises UndecidableError.
    """
    frame = Frame.local(state, orient=False)
    r = frame.work.rank()
    if r != 4:
        raise ValueError(f"decide_rank4 needs a rank-4 state, got rank {r}")
    verdict = _decide_rank4_local(frame.work, as_rng(rng))
    return Rank4Verdict(frame.lift(verdict.outcome), verdict.trail)


def _decide_rank4_local(restricted: BipartiteState, rng) -> Rank4Verdict:
    """decide_rank4 on a rank-4 state compressed to its local ranges."""
    m, n = restricted.dim_a, restricted.dim_b
    ppt_flag, min_eig = is_ppt(restricted)

    if max(m, n) == 4:
        if ppt_flag:
            products = separable_decomposition_rank_n(restricted, rng=rng)
            return Rank4Verdict(Separable(products=tuple(products)),
                                ("max-local-rank-4", "ppt-rank-max"))
        # rank-4 verdicts carry the plain Schmidt-rank-2 form of the witness
        w = classify_rank_le_max(restricted, rng=rng).witness
        return Rank4Verdict(
            Distillable(SchmidtRank2Witness(vector=w.vector, value=w.value)),
            ("max-local-rank-4", "npt-rank-max"))

    if (m, n) != (3, 3):
        # small shapes (2x2, 2x3, 3x2): PPT iff separable
        if ppt_flag:
            products = separable_decomposition(restricted, rng=rng)
            return Rank4Verdict(Separable(products=tuple(products)),
                                ("small-locals", "peeling"))
        w = trivially_distillable(restricted) or schmidt2_witness(restricted, rng=rng)
        if w is None:
            raise UndecidableError(
                "NPT state with a 2-level side must be 1-distillable "
                "but the witness search failed")
        return Rank4Verdict(Distillable(w), ("small-locals",))

    # (a) reducibility, B side then A side
    for side_tag, side in (("reducible-b", Frame(restricted, restricted)),
                           ("reducible-a", Frame.swap(restricted))):
        decomp = decompose_b_direct(side.work, rng=rng)
        if decomp.irreducible:
            continue
        verdicts = [classify_state(c, rng=rng) for c in decomp.components]
        cert = aggregate(side.work, decomp, verdicts)
        if isinstance(cert, Ppt):
            raise RuntimeError(
                "components of a reducible rank-4 state did not fully "
                "classify; every component is decidable at this rank")
        return Rank4Verdict(side.lift(cert), (side_tag,))

    # (b) a direction with a rank-1 sector
    blocks = block_form(restricted)
    found = rank_one_in_span(np.stack(blocks.blocks), restarts=24,
                             rng=rng, tol=restricted.tol)
    if found.found:
        g = _Gauge(restricted, blocks.stacked())
        return _rank1_sector_path(g, found.coefficients, restricted, rng, ())

    # (c) a product vector in the range
    range_basis = restricted.range_basis()
    subspace = Subspace(3, 3, range_basis.T, restricted.tol)
    prod = find_product_vector(subspace, restarts=40, rng=rng)
    for retry, (a, b, _) in enumerate(prod.products):
        # a cascade that contradicts itself numerically on one anchor is
        # retried from the next product vector in the range
        try:
            return _product_cascade(restricted, a, b, ppt_flag, rng,
                                    ("product-in-range",) + ("anchor-retry",) * retry)
        except RuntimeError:
            if retry == len(prod.products) - 1:
                raise

    # (d) no product vector in the range
    report = f"no product vector in the range ({prod.report()})"
    if ppt_flag:
        return Rank4Verdict(
            PptEntangled(min_eig_gamma=min_eig, product_search_report=report),
            ("no-product-in-range",))
    w = schmidt2_witness(restricted, rng=rng)
    if w is not None:
        return Rank4Verdict(Distillable(w), ("no-product-in-range", "schmidt2-search"))
    raise UndecidableError(
        "NPT 3x3 rank-4 state with no product vector in its range and an "
        "exhausted witness search; distillability here is an open question "
        "and no verdict is returned. " + report)


# ---------------------------------------------------------------------------
# top-level classification
# ---------------------------------------------------------------------------

def _validated(state, witness) -> Certificate:
    cert = Distillable(witness)
    validate_certificate(state, cert)
    return cert


def classify_state(state: BipartiteState, rng=7, budget: int = 256) -> Certificate:
    """Strongest verdict available for an arbitrary bipartite state.

    Dispatch order mirrors what is actually decidable: rank at most the
    max local rank is fully classified; rank 4 goes through the rank-4
    decision tree; everything else runs the criteria battery plus the
    B-direct decomposition and reports the strongest certified verdict.
    """
    ra, rb = state.local_ranks()
    r = state.rank()
    if r <= max(ra, rb):
        return classify_rank_le_max(state, rng=rng, budget=budget)
    if r == 4:
        return decide_rank4(state, rng=rng).outcome

    ppt, min_eig = is_ppt(state)
    if ppt:
        if min(ra, rb) <= 2 and max(ra, rb) <= 3:
            # PPT implies separable below 2x3, and a decomposition exists
            products = separable_decomposition(state, rng=rng)
            return Separable(products=tuple(products))
        return Ppt(min_eig_gamma=min_eig)

    w = trivially_distillable(state) or schmidt2_witness(state, budget=budget, rng=rng)
    if w is not None:
        return _validated(state, SchmidtRank2Witness(vector=w.vector, value=w.value))
    violated, rw = reduction_criterion(state)
    if violated:
        # a reduction violation by itself proves 1-distillability
        return _validated(state, rw)

    decomp = decompose_b_direct(state, rng=rng)
    if not decomp.irreducible:
        verdicts = [classify_state(c, rng=rng, budget=budget)
                    for c in decomp.components]
        return aggregate(state, decomp, verdicts)

    cert = common_kernel_distill(state, rng=rng)
    if isinstance(cert, Distillable):
        return cert
    return Undecided(report=(
        f"NPT state of rank {r} > max local rank {max(ra, rb)}: witness "
        f"searches exhausted (budget {budget}); no decision procedure is "
        "known for this regime"))
