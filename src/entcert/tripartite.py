"""Pairwise reductions of tripartite pure states.

Main results implemented: two pairwise reductions of a pure tripartite
state are both undistillable iff the state is sum_i |a_i>|i,i> up to
local unitaries (and then both reductions are separable, with the
canonical form constructed); all three reductions are undistillable iff
the state is a generalized GHZ state.  Undistillability of a reduction
is operationally certified as PPT, exactly as in the underlying proofs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analyze import classify_state
from .certificates import Separable, validate_certificate
from .criteria import is_ppt, separable_decomposition_rank_n
from .linalg import (
    DEFAULT_TOL, ToleranceConfig, dagger, frob, kron, numerical_rank, singular_rank,
)
from .states import BipartiteState
from .structure import classical_side

__all__ = [
    "TripartitePure",
    "CanonicalForm",
    "PairClassification",
    "reduced_pair",
    "reduced_single",
    "classify_pairs",
    "ghz_test",
]

_PARALLEL_THRESHOLD = 1.0 - 1.0e-8


@dataclass(frozen=True)
class TripartitePure:
    """Pure state on d_A (x) d_B (x) d_C, flattened as i*dB*dC + j*dC + k."""

    dims: tuple
    amplitudes: np.ndarray
    tol: ToleranceConfig = field(default=DEFAULT_TOL)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ValueError("dims must be three positive integers")
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amp.shape[0] != dims[0] * dims[1] * dims[2]:
            raise ValueError("amplitude length does not match dims")
        if not np.all(np.isfinite(amp)):
            raise ValueError("amplitudes must be finite")
        if not np.any(np.abs(amp) > 0):
            raise ValueError("state must be a nonzero vector")
        amp.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amp)

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.dims)


def reduced_pair(psi: TripartitePure, pair: str) -> BipartiteState:
    """Partial trace over the complementary system: AB, AC or BC."""
    t = psi.tensor()
    d_a, d_b, d_c = psi.dims
    pair = pair.upper()
    if pair == "AB":
        mat = t.reshape(d_a * d_b, d_c)
        dims = (d_a, d_b)
    elif pair == "AC":
        mat = t.transpose(0, 2, 1).reshape(d_a * d_c, d_b)
        dims = (d_a, d_c)
    elif pair == "BC":
        mat = t.transpose(1, 2, 0).reshape(d_b * d_c, d_a)
        dims = (d_b, d_c)
    else:
        raise ValueError("pair must be 'AB', 'AC' or 'BC'")
    return BipartiteState(dims[0], dims[1], mat @ dagger(mat), psi.tol)


def reduced_single(psi: TripartitePure, system: str) -> np.ndarray:
    """Reduced density matrix of one system: A, B or C."""
    axis = {"A": 0, "B": 1, "C": 2}.get(system.upper())
    if axis is None:
        raise ValueError("system must be 'A', 'B' or 'C'")
    t = psi.tensor()
    mat = np.moveaxis(t, axis, 0).reshape(psi.dims[axis], -1)
    return mat @ dagger(mat)


@dataclass(frozen=True)
class CanonicalForm:
    """Data of psi = sum_i |a_i>|i,i> up to local unitaries on B and C.

    a_vectors carry the weights; u_b and u_c are the unitaries with
    (I (x) u_b (x) u_c) psi = sum_i a_i (x) e_i (x) e_i up to residual.
    """

    a_vectors: tuple
    u_b: np.ndarray
    u_c: np.ndarray
    residual: float


@dataclass(frozen=True)
class PairClassification:
    """Per-pair PPT flags and certificates, plus the canonical form
    (present iff both the AB and AC reductions are PPT)."""

    ppt: dict
    certificates: dict
    canonical: CanonicalForm | None


def _phase_fix(vec):
    idx = np.argmax(np.abs(vec) > 0)
    phase = vec[idx] / abs(vec[idx])
    return vec / phase, phase


def canonical_two_ppt(psi: TripartitePure) -> CanonicalForm:
    """Construct psi = sum |a_i>|i,i> given that rho_AB and rho_AC are PPT.

    Follows the constructive proof: a rank-d separable decomposition of
    rho_AB, the C-side coefficients solved from the purification,
    grouping of parallel A-vectors, and a per-group Schmidt split that
    yields orthonormal B and C frames.
    """
    d_a, d_b, d_c = psi.dims
    tol = psi.tol
    rho_ab = reduced_pair(psi, "AB")
    d = rho_ab.rank()
    products = separable_decomposition_rank_n(rho_ab)
    if len(products) != d:
        raise RuntimeError(
            f"expected {d} products from the rank-d decomposition, got {len(products)}")

    f_cols = np.column_stack([kron(a, b) for a, b in products])
    psi_mat = psi.amplitudes.reshape(d_a * d_b, d_c)
    c_rows, *_ = np.linalg.lstsq(f_cols, psi_mat, rcond=None)
    scale = max(frob(psi_mat), 1.0e-300)
    resid = frob(f_cols @ c_rows - psi_mat) / scale
    if resid > 1000 * tol.residual_tol:
        raise RuntimeError(
            f"purification solve residual {resid:.3e}; tolerance breakdown "
            "while both reductions test PPT")
    gram = c_rows @ dagger(c_rows)
    off = frob(gram - np.diag(np.diag(gram))) / max(frob(gram), 1.0e-300)
    if off > 1000 * tol.residual_tol:
        raise RuntimeError(
            f"C-side coefficients are not orthogonal (off mass {off:.3e}); "
            "tolerance breakdown while both reductions test PPT")

    a_hat, weights = [], []
    for (a, b), c in zip(products, c_rows):
        a_hat.append(a / np.linalg.norm(a))
        weights.append((a, b, c))

    groups = []
    assigned = [False] * d
    for i in range(d):
        if assigned[i]:
            continue
        group = [i]
        assigned[i] = True
        for j in range(i + 1, d):
            if assigned[j]:
                continue
            if abs(np.vdot(a_hat[i], a_hat[j])) > _PARALLEL_THRESHOLD:
                group.append(j)
                assigned[j] = True
        groups.append(group)

    terms = []
    for group in groups:
        g_vec = a_hat[group[0]]
        m_k = np.zeros((d_b, d_c), dtype=complex)
        for i in group:
            a, b, c = weights[i]
            lam = np.vdot(g_vec, a)
            m_k += lam * np.outer(b, c)
        u, s, vh = np.linalg.svd(m_k)
        for t in range(singular_rank(s, m_k.shape, tol)):
            terms.append((float(s[t]), g_vec, u[:, t], vh[t, :]))
    if len(terms) != d:
        raise RuntimeError(
            f"canonical form produced {len(terms)} terms instead of {d}")

    betas = np.column_stack([t[2] for t in terms])
    beta_gram = dagger(betas) @ betas
    beta_off = frob(beta_gram - np.eye(d)) / np.sqrt(d)
    if beta_off > 1.0e-6:
        raise RuntimeError(
            f"B-side frames are not orthonormal across groups "
            f"(defect {beta_off:.3e}); tolerance breakdown")

    terms.sort(key=lambda t: -t[0])
    a_vectors, b_rows, c_rows_out = [], [], []
    for s, g_vec, beta, gamma in terms:
        a_fixed, phase = _phase_fix(s * g_vec)
        a_vectors.append(a_fixed)
        b_rows.append((beta * phase).conj())
        c_rows_out.append(gamma.conj())

    def complete_unitary(rows, dim):
        rows = np.array(rows).reshape(-1, dim)
        _, kern = numerical_rank(rows, tol)
        return np.vstack([rows, dagger(kern)])

    u_b = complete_unitary(b_rows, d_b)
    u_c = complete_unitary(c_rows_out, d_c)
    target = np.zeros(d_a * d_b * d_c, dtype=complex)
    for j, a in enumerate(a_vectors):
        e_j = np.zeros(d_b, dtype=complex)
        e_j[j] = 1.0
        f_j = np.zeros(d_c, dtype=complex)
        f_j[j] = 1.0
        target += kron(a, kron(e_j, f_j))
    rotated = kron(np.eye(d_a), kron(u_b, u_c)) @ psi.amplitudes
    residual = float(np.linalg.norm(rotated - target) / max(np.linalg.norm(target), 1.0e-300))
    if residual > 1000 * tol.residual_tol:
        raise RuntimeError(
            f"canonical-form reconstruction residual {residual:.3e}; "
            "tolerance breakdown while both reductions test PPT")
    return CanonicalForm(a_vectors=tuple(a_vectors), u_b=u_b, u_c=u_c,
                         residual=residual)


def classify_pairs(psi: TripartitePure, rng=7) -> PairClassification:
    """PPT flags and certificates for the AB and AC reductions.

    Both PPT forces both separable, certified by the canonical form,
    which draws nothing; an NPT reduction gets a distillability
    certificate from the general classifier, to which rng is passed.
    """
    rho = {"AB": reduced_pair(psi, "AB"), "AC": reduced_pair(psi, "AC")}
    ppt = {}
    for name, state in rho.items():
        ppt[name], _ = is_ppt(state)

    certificates = {}
    canonical = None
    if ppt["AB"] and ppt["AC"]:
        canonical = canonical_two_ppt(psi)
        d = len(canonical.a_vectors)
        ub_rows = dagger(canonical.u_b)[:, :d]
        uc_rows = dagger(canonical.u_c)[:, :d]
        prods_ab, prods_ac = [], []
        for j, a in enumerate(canonical.a_vectors):
            prods_ab.append((a, ub_rows[:, j]))
            prods_ac.append((a, uc_rows[:, j]))
        for name, prods in (("AB", prods_ab), ("AC", prods_ac)):
            cert = Separable(products=tuple(prods))
            validate_certificate(rho[name], cert)
            certificates[name] = cert
    else:
        for name, state in rho.items():
            certificates[name] = classify_state(state, rng=rng)
    return PairClassification(ppt=ppt, certificates=certificates,
                              canonical=canonical)


def ghz_test(psi: TripartitePure, rng=7):
    """Is psi a generalized GHZ state (sum_i a_i |iii> up to local unitaries)?

    Decides via two independent routes that must agree: all three
    pairwise reductions undistillable (PPT), and all three reductions
    classical on every side (zero discord).  On success the GHZ
    coefficients are returned, sorted decreasing.  Nothing is drawn:
    rng is accepted and unused, because perfbench/workloads.py still
    passes it.
    """
    pairs = {p: reduced_pair(psi, p) for p in ("AB", "AC", "BC")}
    route_ppt = all(is_ppt(s)[0] for s in pairs.values())
    route_classical = all(
        classical_side(s, side)[0] for s in pairs.values() for side in ("A", "B"))
    if route_ppt != route_classical:
        raise RuntimeError(
            f"zero-discord route ({route_classical}) disagrees with the "
            f"PPT route ({route_ppt}); tolerance breakdown")
    if not route_ppt:
        return False, None
    canonical = canonical_two_ppt(psi)
    vecs = np.column_stack(canonical.a_vectors)
    gram = dagger(vecs) @ vecs
    off = frob(gram - np.diag(np.diag(gram)))
    if off > 1.0e-6 * max(frob(gram), 1.0e-300):
        raise RuntimeError(
            "all three reductions are PPT but the canonical A-vectors are "
            "not orthogonal; this contradicts the GHZ characterization")
    coeffs = sorted((float(np.linalg.norm(a)) for a in canonical.a_vectors),
                    reverse=True)
    return True, tuple(coeffs)
