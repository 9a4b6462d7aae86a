"""Product vectors in subspaces of an M (x) N space.

Two independent routes are provided and cross-checked in the tests:

* analytic: Pluecker coordinates of the subspace and, for the shapes
  where the product-vector locus is a hypersurface with a known
  equation (2x3 with 2-dim subspaces, 2x4 with 3-dim subspaces), a
  single polynomial whose vanishing is equivalent to the existence of
  a product vector;
* numeric: a product a (x) b, with b on the side with fewer levels,
  lies in the span iff L(b) a = 0, where L(b) is linear in b and built
  from the orthogonal complement of the span.  When that side has 2 or
  3 levels, every b at which L(b) drops rank is an eigenvalue of a
  matrix pencil (2 levels) or of a two-parameter eigenvalue problem
  (3 levels; Hochstenbach, Kosir and Plestenjak, SIAM J. Matrix Anal.
  Appl. 40 (2019)).  Each candidate is polished by Levenberg-Marquardt
  (LM) on the 2x2 minors and accepted by its rank-1 defect, so on these
  shapes "not found" is the result of a complete enumeration.  Larger
  shapes, and spans with infinitely many product vectors, fall back to
  LM with random restarts and per-coordinate dehomogenization; there
  "not found" is a budget report, never a nonexistence proof.

The same two-parameter problem finds the products a (x) b on C^2 (x) C^n
with a (x) b in R(rho) and conj(a) (x) b in R(rho^G) that the 2 x N
peeling needs (product_in_both_ranges): with a = (v0, v1 + i v2) and v
real, a real root of one pencil is a common root of it and its
coefficient-wise conjugate.  Its 2 x 2 case has a closed form on the
Bloch sphere.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from itertools import combinations

import numpy as np

from .linalg import DEFAULT_TOL, ToleranceConfig, dagger, numerical_rank, singular_rank
from .random_states import as_rng, complex_gaussian

__all__ = [
    "Subspace",
    "PlueckerCoords",
    "pluecker_coords",
    "hypersurface_2x3",
    "hypersurface_2x4",
    "hypersurface_value",
    "degree_scale",
    "ProductSearchResult",
    "find_product_vector",
    "rank_one_in_span",
    "product_in_both_ranges",
    "random_subspace",
    "random_product_containing_subspace",
]

_QUARTIC_SHA256 = "3d09dcbe1e8fb326bfaeca63f24f094a75acc8c6715d02eeb6dbfca0db2c56c7"


@dataclass(frozen=True)
class Subspace:
    """k-dimensional subspace of C^M (x) C^N, spanned by the basis rows."""

    dim_a: int
    dim_b: int
    basis: np.ndarray
    tol: ToleranceConfig = field(default=DEFAULT_TOL)

    def __post_init__(self):
        basis = np.atleast_2d(np.asarray(self.basis, dtype=complex))
        if basis.shape[1] != self.dim_a * self.dim_b:
            raise ValueError("basis vector length does not match dims")
        rank, _ = numerical_rank(basis, self.tol)
        if rank != basis.shape[0]:
            raise ValueError(
                f"basis is numerically dependent: rank {rank} < {basis.shape[0]}")
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def matrices(self) -> np.ndarray:
        """Basis vectors reshaped as M x N matrices, stacked on axis 0."""
        return self.basis.reshape(self.dim, self.dim_a, self.dim_b)

    def change_basis(self, g: np.ndarray) -> "Subspace":
        return Subspace(self.dim_a, self.dim_b, np.asarray(g) @ self.basis, self.tol)


@dataclass(frozen=True)
class PlueckerCoords:
    """All k x k minors of the k x (MN) basis matrix, keyed by the
    0-based strictly increasing column tuple."""

    order: int
    ambient: int
    coords: dict

    def vector(self) -> np.ndarray:
        return np.array([self.coords[t] for t in sorted(self.coords)])

    def norm(self) -> float:
        return float(np.linalg.norm(self.vector()))


def pluecker_coords(subspace: Subspace) -> PlueckerCoords:
    """Compute every k x k minor of the basis matrix."""
    p = subspace.basis
    k, mn = p.shape
    coords = {}
    for cols in combinations(range(mn), k):
        coords[cols] = complex(np.linalg.det(p[:, cols]))
    return PlueckerCoords(order=k, ambient=mn, coords=coords)


# Degree-3 equation for a 2-dim subspace of a 2x3 space: the subspace
# contains a product vector iff this vanishes.  Pairs are 1-based
# column labels of the 2x6 basis matrix.
_CUBIC_2x3 = [
    (2, (1, 2), (3, 4), (5, 6)),
    (1, (1, 2), (2, 6), (4, 6)),
    (1, (1, 3), (1, 5), (5, 6)),
    (1, (2, 3), (2, 4), (4, 6)),
    (1, (1, 3), (3, 5), (4, 5)),
    (-1, (1, 3), (2, 5), (4, 6)),
    (-1, (1, 3), (2, 4), (5, 6)),
    (-1, (1, 2), (3, 5), (4, 6)),
    (-1, (1, 2), (1, 6), (5, 6)),
    (-1, (2, 3), (3, 4), (4, 5)),
]


def degree_scale(coords: PlueckerCoords, degree: int) -> float:
    """Natural scale of a degree-d polynomial in the Pluecker vector.

    Both the polynomial value and |p|^d pick up the same det(G)^d factor
    under a basis change, so value / degree_scale is a true invariant of
    the subspace.
    """
    return coords.norm() ** degree


def hypersurface_2x3(subspace: Subspace, coords: PlueckerCoords | None = None) -> complex:
    """Evaluate the cubic product-vector equation for a 2-dim subspace of 2x3."""
    if (subspace.dim_a, subspace.dim_b, subspace.dim) != (2, 3, 2):
        raise ValueError("hypersurface_2x3 needs a 2-dim subspace of a 2x3 space")
    p = coords or pluecker_coords(subspace)
    total = 0.0 + 0.0j
    for coef, *pairs in _CUBIC_2x3:
        term = complex(coef)
        for i, j in pairs:
            term *= p.coords[(i - 1, j - 1)]
        total += term
    return total


@lru_cache(maxsize=1)
def _quartic_terms():
    body = resources.files("entcert.data").joinpath("hypersurface_2x4.json").read_text()
    doc = json.loads(body)
    canon = json.dumps(doc, indent=1, sort_keys=True)
    digest = hashlib.sha256(canon.encode()).hexdigest()
    if digest != _QUARTIC_SHA256:
        raise RuntimeError(
            f"hypersurface_2x4.json checksum mismatch: {digest} != {_QUARTIC_SHA256}")
    if doc["degree"] != 4 or doc["shape"] != [2, 4] or len(doc["terms"]) != 149:
        raise RuntimeError("hypersurface_2x4.json header does not match its contract")
    return tuple(
        (int(t["c"]), tuple(tuple(i - 1 for i in triple) for triple in t["m"]))
        for t in doc["terms"]
    )


def hypersurface_2x4(subspace: Subspace, coords: PlueckerCoords | None = None) -> complex:
    """Evaluate the 149-monomial quartic for a 3-dim subspace of 2x4."""
    if (subspace.dim_a, subspace.dim_b, subspace.dim) != (2, 4, 3):
        raise ValueError("hypersurface_2x4 needs a 3-dim subspace of a 2x4 space")
    p = coords or pluecker_coords(subspace)
    total = 0.0 + 0.0j
    for coef, triples in _quartic_terms():
        term = complex(coef)
        for t in triples:
            term *= p.coords[t]
        total += term
    return total


def hypersurface_value(subspace: Subspace):
    """Dispatch to the known equation for this shape, or None.

    Returns (value, degree, scale) when an equation exists.
    """
    shape = (subspace.dim_a, subspace.dim_b, subspace.dim)
    if shape == (2, 3, 2):
        coords = pluecker_coords(subspace)
        return hypersurface_2x3(subspace, coords), 3, degree_scale(coords, 3)
    if shape == (2, 4, 3):
        coords = pluecker_coords(subspace)
        return hypersurface_2x4(subspace, coords), 4, degree_scale(coords, 4)
    return None


@dataclass(frozen=True)
class ProductSearchResult:
    """Outcome of a rank-1 search in a span of matrices.

    a, b and coefficients describe the accepted product with the smallest
    rank-1 defect; products holds every distinct accepted product as
    (a, b, coefficients), best first.  method names the route taken and
    candidates counts the points it tested (enumerated eigenvalues, or
    LM starts for the restart search).
    """

    found: bool
    a: np.ndarray | None
    b: np.ndarray | None
    coefficients: np.ndarray | None
    best_defect: float
    method: str
    candidates: int
    products: tuple = ()

    def pair(self):
        return (self.a, self.b) if self.found else None

    def report(self) -> str:
        return (f"{self.method}, {self.candidates} candidates examined, "
                f"best rank-1 defect {self.best_defect:.3e}")


def _minor_indices(p, q):
    rows = list(combinations(range(p), 2))
    cols = list(combinations(range(q), 2))
    r1 = np.array([r[0] for r in rows for _ in cols])
    r2 = np.array([r[1] for r in rows for _ in cols])
    c1 = np.array([c[0] for _ in rows for c in cols])
    c2 = np.array([c[1] for _ in rows for c in cols])
    return r1, r2, c1, c2


def _lm_polish(mats, z0, free, iters=60):
    """Vectorized Levenberg-Marquardt on the 2x2 minors, batched starts.

    mats: (k, p, q); z0: (B, k) with the dehomogenized coordinate fixed.
    Returns the improved batch (B, k) and final costs (B,).
    """
    k, p, q = mats.shape
    r1, r2, c1, c2 = _minor_indices(p, q)
    a_free = mats[free]  # (kf, p, q)

    def minors(e):
        return e[:, r1, c1] * e[:, r2, c2] - e[:, r1, c2] * e[:, r2, c1]

    z = z0.copy()
    e = np.einsum("bk,kpq->bpq", z, mats)
    f = minors(e)
    cost = np.sum(np.abs(f) ** 2, axis=1)
    lam = np.full(z.shape[0], 1.0e-3)
    for _ in range(iters):
        # complex Jacobian of the minors w.r.t. the free coordinates
        j = (a_free[None, :, r1, c1] * e[:, None, r2, c2]
             + e[:, None, r1, c1] * a_free[None, :, r2, c2]
             - a_free[None, :, r1, c2] * e[:, None, r2, c1]
             - e[:, None, r1, c2] * a_free[None, :, r2, c1])  # (B, kf, nm)
        j = j.transpose(0, 2, 1)  # (B, nm, kf)
        jr = np.concatenate(
            [np.concatenate([j.real, -j.imag], axis=2),
             np.concatenate([j.imag, j.real], axis=2)], axis=1)  # (B, 2nm, 2kf)
        fr = np.concatenate([f.real, f.imag], axis=1)  # (B, 2nm)
        jtj = np.einsum("bri,brj->bij", jr, jr)
        g = np.einsum("bri,br->bi", jr, fr)
        eye = np.eye(jtj.shape[1])
        try:
            delta = np.linalg.solve(jtj + lam[:, None, None] * eye, -g[:, :, None])[..., 0]
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(
                jtj + lam[:, None, None] * eye, -g[:, :, None], rcond=None)[0][..., 0]
        kf = len(free)
        step = delta[:, :kf] + 1j * delta[:, kf:]
        z_try = z.copy()
        z_try[:, free] += step
        e_try = np.einsum("bk,kpq->bpq", z_try, mats)
        f_try = minors(e_try)
        cost_try = np.sum(np.abs(f_try) ** 2, axis=1)
        improved = cost_try < cost
        z[improved] = z_try[improved]
        e[improved] = e_try[improved]
        f[improved] = f_try[improved]
        cost[improved] = cost_try[improved]
        lam = np.where(improved, lam / 3.0, lam * 4.0)
        lam = np.clip(lam, 1.0e-12, 1.0e12)
        if np.min(cost) < 1.0e-30:
            break
    return z, cost


# Relative smallest singular value below which a pencil or the operator
# determinant Delta_0 counts as singular.
_SINGULAR_RCOND = 1.0e-10

# LM iterations spent polishing the enumerated candidates, and the rank-1
# defect below which a candidate is polished.  On the test corpora true
# roots come out of the eigensolvers with defects below 1e-12 and
# spurious ones above 3e-3.
_POLISH_ITERS = 20
_POLISH_GATE = 1.0e-4


def _singular(mat) -> bool:
    s = np.linalg.svd(mat, compute_uv=False)
    return s[-1] <= _SINGULAR_RCOND * s[0]


def _rank1_defects(mats, z):
    """sigma_2 / sigma_1 of sum_i z[c, i] mats[i] for each row c of z."""
    s = np.linalg.svd(np.einsum("ck,kpq->cpq", z, mats), compute_uv=False)
    return s[:, 1] / np.maximum(s[:, 0], 1.0e-300)


def _parameter_candidates(comp, comp2, rng):
    """Every v (rows of the result) at which L(v) = sum_b v_b comp[:, :, b]
    can lose rank, with the name of the method; None when the problem is
    singular.

    comp is (d, p, q) with q <= 3.  L(v) is d x p; it is rank deficient
    at every v when d < p, otherwise only on a finite set unless the
    span holds infinitely many products.  Rows are compressed at random
    to p x p, which keeps every true root and adds spurious ones; the
    caller tests each candidate against the full L(v).  For q = 3 the
    second equation of the two-parameter problem compresses comp2, a
    pencil of the same shape that loses rank at every root the caller
    wants (comp itself, or its coefficient-wise conjugate when only real
    roots are wanted).
    """
    d, p, q = comp.shape
    if d < p:
        return complex_gaussian(rng, (1, q)), "dimension count"
    for _ in range(2):  # one fresh draw before calling the problem singular
        g = complex_gaussian(rng, (q, q))
        # pencil[c] = L(g[:, c]), so L(g @ (1, t, ...)) = pencil[0] + t pencil[1] + ...
        pencil = np.einsum("dpb,bc->cdp", comp, g)
        if q == 2:
            r = complex_gaussian(rng, (p, d))
            a, b = r @ pencil[0], r @ pencil[1]
            if _singular(b):
                continue
            t = np.linalg.eigvals(np.linalg.solve(b, -a))
            params = np.stack([np.ones_like(t), t], axis=1)
            method = "pencil eigenvalues"
        else:
            # two-parameter eigenvalue problem: (A_i + lam B_i + mu C_i) x_i = 0
            r1 = complex_gaussian(rng, (p, d))
            r2 = complex_gaussian(rng, (p, d))
            a1, b1, c1 = (r1 @ m for m in pencil)
            a2, b2, c2 = (r2 @ m for m in np.einsum("dpb,bc->cdp", comp2, g))
            delta0 = np.kron(b1, c2) - np.kron(c1, b2)
            if _singular(delta0):
                continue
            delta1 = np.kron(c1, a2) - np.kron(a1, c2)
            delta2 = np.kron(a1, b2) - np.kron(b1, a2)
            lam, vecs = np.linalg.eig(np.linalg.solve(delta0, delta1))
            # Rayleigh quotient on each (unit) eigenvector
            mu = np.einsum("ic,ij,jc->c", vecs.conj(),
                           np.linalg.solve(delta0, delta2), vecs)
            params = np.stack([np.ones_like(lam), lam, mu], axis=1)
            method = "two-parameter eigenvalues"
        return params @ g.T, method
    return None


def _enumerate_rank_one(work, rng, tol):
    """Candidate rank-1 combinations of work (k, p, q), min(p, q) <= 3.

    Returns (z, defect, method): coefficients (C, k) with respect to work
    after an LM polish, the rank-1 defect of each, and the method name;
    or None when the enumeration cannot run (infinitely many products).
    """
    k, p, q = work.shape
    flat = work.reshape(k, -1)
    u_x, s_x, vh_x = np.linalg.svd(flat)
    r = singular_rank(s_x, flat.shape, tol)
    if r == 0:
        return None
    # orthonormal span basis, mixed at random so no candidate sits on a
    # coordinate hyperplane, and coefficients back to work: z = y @ to_work
    mix = np.linalg.qr(complex_gaussian(rng, (r, r)))[0]
    basis = (mix @ vh_x[:r]).reshape(r, p, q)
    to_work = mix @ (dagger(u_x[:, :r]) / s_x[:r, None])
    comp = vh_x[r:].conj().reshape(-1, p, q)  # comp . vec(x) = 0 iff x in span
    swap = q > p
    if swap:
        comp = comp.transpose(0, 2, 1)
    found = _parameter_candidates(comp, comp, rng)
    if found is None:
        return None
    v, method = found
    ell = np.einsum("dpb,cb->cdp", comp, v)
    u = np.linalg.svd(ell)[2][:, -1, :].conj()  # null vector of each L(v)
    prods = u[:, :, None] * v[:, None, :]
    if swap:
        prods = prods.transpose(0, 2, 1)
    y = np.einsum("kpq,cpq->ck", basis.conj(), prods)
    defect = _rank1_defects(basis, y)
    near = np.flatnonzero(defect <= _POLISH_GATE)
    if r > 1 and near.size:
        # fix the coordinate that stays largest over the polished candidates
        rel = np.abs(y[near]) / np.linalg.norm(y[near], axis=1, keepdims=True)
        j = int(np.argmax(rel.min(axis=0)))
        free = [i for i in range(r) if i != j]
        y[near], _ = _lm_polish(basis, y[near] / y[near, j:j + 1], free,
                                iters=_POLISH_ITERS)
        defect[near] = _rank1_defects(basis, y[near])
    return y @ to_work, defect, method


def _restart_search(work, restarts, rng, tol):
    """Restart LM over every dehomogenization z_j = 1; stops at the first
    coordinate whose best start passes the defect test."""
    k = work.shape[0]
    best = (np.inf, np.zeros(k, dtype=complex))
    starts = 0
    for j in range(k):
        free = [i for i in range(k) if i != j]
        z0 = np.zeros((restarts, k), dtype=complex)
        z0[:, j] = 1.0
        if free:
            z0[:, free] = complex_gaussian(rng, (restarts, len(free)))
            z, _ = _lm_polish(work, z0, free)
        else:
            z = z0[:1]
        starts += z.shape[0]
        defect = _rank1_defects(work, z)
        idx = int(np.argmin(defect))
        if defect[idx] < best[0]:
            best = (float(defect[idx]), z[idx])
        if best[0] <= tol.residual_tol:
            break
    return best[1][None, :], np.array([best[0]]), starts


def _product(mats, z):
    e = np.einsum("k,kpq->pq", z, mats)
    u, s, vh = np.linalg.svd(e)
    return u[:, 0] * np.sqrt(s[0]), vh[0, :] * np.sqrt(s[0]), z


def rank_one_in_span(mats, restarts: int = 40, rng=7,
                     tol: ToleranceConfig = DEFAULT_TOL) -> ProductSearchResult:
    """Find z with sum_i z_i mats[i] of rank 1 (up to the defect tolerance).

    When the smaller matrix side is at most 3, every point where a rank-1
    combination can sit is enumerated as an eigenvalue (a pencil for side
    2, a two-parameter eigenvalue problem for side 3), polished by LM and
    tested, so "not found" means none exists.  Larger shapes, and spans
    holding infinitely many rank-1 elements, fall back to an LM search
    with `restarts` random starts per dehomogenization z_j = 1.  Success
    means the second singular value of the combination is at most
    residual_tol times the first.
    """
    mats = np.asarray(mats, dtype=complex)
    k, p, q = mats.shape
    scale = np.linalg.norm(mats.reshape(k, -1), axis=1)
    scale[scale == 0] = 1.0
    work = mats / scale[:, None, None]
    rng = as_rng(rng)

    if min(p, q) < 2:
        z = np.zeros(k, dtype=complex)
        z[0] = 1.0 / scale[0]
        prod = _product(mats, z)
        return ProductSearchResult(True, *prod, 0.0, "trivial", 1, (prod,))

    enumerated = _enumerate_rank_one(work, rng, tol) if min(p, q) <= 3 else None
    if enumerated is not None:
        z, defect, method = enumerated
        candidates = len(z)
    else:
        z, defect, candidates = _restart_search(work, restarts, rng, tol)
        method = "restart LM"

    order = np.argsort(defect)
    products = []
    kept = []
    for idx in order:
        if not defect[idx] <= tol.residual_tol:
            break
        e = np.einsum("k,kpq->pq", z[idx], work).ravel()
        e = e / np.linalg.norm(e)
        if any(abs(np.vdot(f, e)) > 1.0 - 1.0e-6 for f in kept):
            continue
        kept.append(e)
        products.append(_product(mats, z[idx] / scale))
    best = float(defect[order[0]])
    if not products:
        return ProductSearchResult(False, None, None, None, best, method, candidates)
    return ProductSearchResult(True, *products[0], best, method, candidates,
                               tuple(products))


def find_product_vector(subspace: Subspace, restarts: int = 40, rng=7) -> ProductSearchResult:
    """Search the subspace for a product vector a (x) b.

    On success the returned (a, b) satisfies a (x) b ~ sum_i z_i basis_i
    up to the rank-1 defect tolerance; membership in the subspace holds
    by construction.
    """
    return rank_one_in_span(subspace.matrices(), restarts=restarts,
                            rng=rng, tol=subspace.tol)


# Identity and Pauli matrices: <a|H|a> = (tr H + h . n) / 2 for a unit a
# with Bloch vector n and h_k = tr(H sigma_k).
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                   [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _bloch_zeros(y):
    """Real v with <a|y|a> = 0 at a = (v0, v1 + i v2), for a complex
    2 x 2 matrix y.

    Both Hermitian parts of y must have a zero expectation, so the Bloch
    vector n of a lies on two planes tr H + h . n = 0 and on the unit
    sphere: the two points where their line crosses it, or four points
    of a circle when the planes coincide.
    """
    herm = np.stack([y + dagger(y), 1j * (dagger(y) - y)])
    planes = np.einsum("hij,kji->hk", herm, _PAULI).real  # rows (tr H, h)
    _, s, vh = np.linalg.svd(planes)
    r = int(np.sum(s > _SINGULAR_RCOND * s[0]))
    normals = np.vstack([vh[:r, 1:], np.zeros((1, 3))])
    centre = np.linalg.lstsq(normals, np.append(-vh[:r, 0], 0.0), rcond=None)[0]
    along = np.linalg.svd(normals)[2][r:]
    n = centre + np.sqrt(max(1.0 - centre @ centre, 0.0)) * np.vstack([along, -along])
    half = 0.5 * np.arccos(np.clip(n[:, 2] / np.linalg.norm(n, axis=1), -1.0, 1.0))
    phi = np.arctan2(n[:, 1], n[:, 0])
    return np.stack([np.cos(half), np.sin(half) * np.cos(phi),
                     np.sin(half) * np.sin(phi)], axis=1)


def _newton(comp, v, b):
    """Two Newton steps on L(v) b = 0 over real v and complex b.

    Rescaling v or b leaves the root in place, so the step is a truncated
    least-squares solution that ignores those near-null directions.
    """
    for _ in range(2):
        res = np.einsum("dnc,c,n->d", comp, v, b)
        jac_v = np.einsum("dnc,n->dc", comp, b)
        jac_b = np.einsum("dnc,c->dn", comp, v)
        jac = np.block([[jac_v.real, jac_b.real, -jac_b.imag],
                        [jac_v.imag, jac_b.imag, jac_b.real]])
        step = np.linalg.lstsq(jac, -np.concatenate([res.real, res.imag]),
                               rcond=_SINGULAR_RCOND)[0]
        v = v + step[:3]
        b = b + step[3:3 + len(b)] + 1j * step[3 + len(b):]
    return v, b


def product_in_both_ranges(ker, ker_gamma, rng=7, tol: ToleranceConfig = DEFAULT_TOL):
    """(a, b) on C^2 (x) C^n with a (x) b orthogonal to the columns of ker
    and conj(a) (x) b orthogonal to those of ker_gamma, or None.

    With ker and ker_gamma the kernels of rho and rho^G this is a product
    in R(rho) whose A-conjugate lies in R(rho^G).  Write a = (v0, v1 + i
    v2) with v real: both conditions stack into one d x n matrix L(v),
    linear in v, and b is a null vector of it.  Every v works when
    d < n.  For the single 2 x 2 case det L(v) = <a|Y|a>, whose zeros
    have a closed form on the Bloch sphere.  Otherwise every real root is
    a common root of det(r1 L(v)) and det(r2 conj(L)(v)), conj(L) having
    conjugated coefficients, so the two-parameter eigenvalue problem
    enumerates them all.  The candidate with the smallest relative
    singular value of L(v) is accepted if that is below residual_tol, and
    refined by Newton's method.
    """
    n = ker.shape[0] // 2
    k = ker.conj().T.reshape(-1, 2, n)  # condition (a_0 k[l, 0] + a_1 k[l, 1]) . b = 0
    g = ker_gamma.conj().T.reshape(-1, 2, n)  # the same with conj(a)
    comp = np.stack([np.concatenate([k[:, 0], g[:, 0]]),
                     np.concatenate([k[:, 1], g[:, 1]]),
                     np.concatenate([1j * k[:, 1], -1j * g[:, 1]])], axis=2)
    d = len(comp)
    if n == 2 and len(k) == len(g) == 1:
        v = _bloch_zeros(np.outer(g[0, :, 1], k[0, :, 0])
                         - np.outer(g[0, :, 0], k[0, :, 1]))
    else:
        found = _parameter_candidates(comp, comp.conj(), as_rng(rng))
        if found is None:
            return None
        # a real root comes out up to a complex factor
        v = found[0]
        v = (v / v[np.arange(len(v)), np.argmax(np.abs(v), axis=1)][:, None]).real
    # one zero row keeps L(v) nonempty and puts a zero singular value
    # last whenever d < n
    ell = np.concatenate([np.einsum("dnc,kc->kdn", comp, v),
                          np.zeros((len(v), 1, n))], axis=1)
    _, s, vh = np.linalg.svd(ell)
    defect = s[:, -1] / np.maximum(s[:, 0], 1.0e-300)
    best = int(np.argmin(defect))
    if not defect[best] <= tol.residual_tol:
        return None
    v, b = v[best], vh[best, -1].conj()
    if d >= n:
        v, b = _newton(comp, v, b)
    a = np.array([v[0], v[1] + 1j * v[2]])
    return a / np.linalg.norm(a), b / np.linalg.norm(b)


def random_subspace(dim_a, dim_b, dim, rng=0, tol=DEFAULT_TOL) -> Subspace:
    rng = as_rng(rng)
    return Subspace(dim_a, dim_b, complex_gaussian(rng, (dim, dim_a * dim_b)), tol)


def random_product_containing_subspace(dim_a, dim_b, dim, rng=0, tol=DEFAULT_TOL) -> Subspace:
    """Span of one random product vector and dim-1 random vectors."""
    rng = as_rng(rng)
    prod = np.kron(complex_gaussian(rng, dim_a), complex_gaussian(rng, dim_b))
    rows = [prod] + [complex_gaussian(rng, dim_a * dim_b) for _ in range(dim - 1)]
    # mix so the product direction is not a basis row
    g = np.eye(dim, dtype=complex) + 0.3 * complex_gaussian(rng, (dim, dim))
    return Subspace(dim_a, dim_b, g @ np.vstack(rows), tol)
