"""Product vectors in subspaces of an M (x) N space.

Two independent routes are provided and cross-checked in the tests:

* analytic: Pluecker coordinates of the subspace and, for the shapes
  where the product-vector locus is a hypersurface with a known
  equation (2x3 with 2-dim subspaces, 2x4 with 3-dim subspaces), a
  single polynomial whose vanishing is equivalent to the existence of
  a product vector;
* numeric: a product a (x) b, with b on the side with fewer levels,
  lies in the span iff L(b) a = 0, where L(b) is linear in b and built
  from the orthogonal complement of the span.  When that side has q = 2,
  3 or 4 levels, every b at which L(b) drops rank is an eigenvalue of a
  (q - 1)-parameter eigenvalue problem, read off Atkinson's operator
  determinants (F. V. Atkinson, Multiparameter Eigenvalue Problems
  (1972)): a matrix pencil for q = 2, the two-parameter problem of
  Hochstenbach, Kosir and Plestenjak (SIAM J. Matrix Anal. Appl. 40
  (2019)) for q = 3, a three-parameter one for q = 4.  A span with
  infinitely many product vectors is cut by random hyperplanes until
  finitely many, or one, are left.  Each candidate is accepted by its
  rank-1 defect, so "not found" is the result of a complete
  enumeration.  A smaller side of 5 or more levels, or of 4 levels
  beside more than 8 (operator determinants above 512 rows), is out of
  its reach, unless the span is so large that the dimension count
  alone puts a product in it;
* the second compound: the 2 x 2 minors of sum_i z_i M_i are linear in
  the k (k + 1) / 2 products z_i z_j (cf. K. R. Parthasarathy, Proc.
  Indian Acad. Sci. 114, 365 (2004)), and one SVD of that degree-2
  Macaulay matrix decides many spans with no random numbers and at any
  shape.  Without a null space it bounds sigma_2 / sigma_1 from below on
  every combination, and a bound above residual_tol proves "no
  product".  A one-dimensional null space, read as a symmetric k x k
  matrix, must be near rank 1 if the span holds a product, so its
  second singular value bounds the defect too ("second compound null
  vector"): this decides the 4-dim ranges of 3x3 rank-4 states (9
  minors against 10 monomials) that hold no product, the tiles and
  checkerboard ranges among them.  A null space spanned by s <= k
  independent products is read off as an s x s eigenvalue problem, and
  those products are all of them ("second compound null space"):
  exactly so in exact arithmetic, and in floating point every
  combination within the defect tolerance lies within a stated angle of
  one of them.  The enumeration runs only where none of these decides,
  and UndecidableError is raised only where it cannot run either.

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
import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from importlib import resources
from itertools import combinations, permutations

import numpy as np

from .certificates import UndecidableError
from .linalg import DEFAULT_TOL, ToleranceConfig, dagger, kron, numerical_rank, singular_rank
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
    (a, b, coefficients), best first.  method names the route taken
    (the eigenvalue problem, "dimension count", "hyperplane section",
    "trivial", "second compound", "second compound null vector" or
    "second compound null space") and candidates counts the points it
    tested.  best_defect is the smallest sigma_2 / sigma_1 among them;
    on the "second compound" and "second compound null vector" routes no
    point is tested and it is a proved lower bound on sigma_2 / sigma_1
    over the whole span, which report() words as a bound.  Every route
    is complete, so found=False means the span holds no product; the
    null-space route only ever finds, and every combination within the
    defect tolerance lies within an angle its checks bound (see
    _compound_screen) of one of its products.
    """

    found: bool
    a: np.ndarray | None
    b: np.ndarray | None
    coefficients: np.ndarray | None
    best_defect: float
    method: str
    candidates: int
    products: tuple = ()

    def report(self) -> str:
        defect = ("rank-1 defect at least" if self.method in (_BOUND, _NULL_VECTOR)
                  else "best rank-1 defect")
        return (f"{self.method}, {self.candidates} candidates examined, "
                f"{defect} {self.best_defect:.3e}")


_EPS = float(np.finfo(float).eps)

# Relative smallest singular value below which a pencil or the operator
# determinant Delta_0 counts as singular.
_SINGULAR_RCOND = 1.0e-10

# The eigenvalue problem that enumerates the roots for q = 2, 3, 4 levels.
_METHODS = {2: "pencil eigenvalues", 3: "two-parameter eigenvalues",
            4: "three-parameter eigenvalues"}


def _singular(mat) -> bool:
    s = np.linalg.svd(mat, compute_uv=False)
    return s[-1] <= _SINGULAR_RCOND * s[0]


def _rank1_defects(mats, z):
    """sigma_2 / sigma_1 of sum_i z[c, i] mats[i] for each row c of z."""
    s = np.linalg.svd(np.einsum("ck,kpq->cpq", z, mats), compute_uv=False)
    return s[:, 1] / np.maximum(s[:, 0], 1.0e-300)


def _operator_determinants(eqs):
    """Atkinson's operator determinants Delta_0..q-1 of the q - 1
    equations sum_c t_c eqs[i, c] x_i = 0, eqs being (q - 1, q, p, p).

    Delta_c = (-1)^c det_(x) of eqs without column c: the signed sum,
    over the orderings s of the other columns, of eqs[0, s_0] (x)
    eqs[1, s_1] (x) ...  At a root t (t_0 = 1) Delta_c z = t_c Delta_0 z
    for z the product of the null vectors.  Terms are added in order, so
    two equations give the bytes of the 2 x 2 kron formula.
    """
    n, q = eqs.shape[:2]
    deltas = []
    for c in range(q):
        cols = [j for j in range(q) if j != c]
        delta = None
        for perm in permutations(range(n)):
            term = reduce(kron, [eqs[i, cols[s]] for i, s in enumerate(perm)])
            odd = (c + sum(a > b for a, b in combinations(perm, 2))) % 2
            if delta is None:
                delta = -term if odd else term
            elif odd:
                delta -= term
            else:
                delta += term
        deltas.append(delta)
    return deltas


def _parameter_candidates(comp, comp2, rng):
    """Every v (rows of the result) at which L(v) = sum_b v_b comp[:, :, b]
    can lose rank, with the name of the method.

    comp is (d, p, q) with q <= 4.  L(v) is d x p; it is rank deficient
    at every v when d < p, otherwise only on a finite set unless the
    span holds infinitely many products.  With v = g @ (1, t_1, ...),
    the q - 1 equations det(r_i L(v)) = 0 compress the rows at random to
    p x p, which keeps every true root and adds spurious ones; the
    caller tests each candidate against the full L(v).  The first
    equation compresses comp, the others comp2, a pencil of the same
    shape that loses rank at every root the caller wants (comp itself,
    or its coefficient-wise conjugate when only real roots are wanted).
    t_1 is an eigenvalue of Delta_0^-1 Delta_1, and t_c for c >= 2 the
    Rayleigh quotient of Delta_0^-1 Delta_c on its eigenvector.

    When Delta_0 stays singular the roots form a positive-dimensional
    family, which meets every hyperplane: v = h w with h a real q x
    (q - 1) matrix (real, so comp2 = conj(comp) keeps its form) recurses
    with q - 1 parameters, down to the single point of q = 1.
    """
    d, p, q = comp.shape
    if q == 1:
        return np.ones((1, 1)), "hyperplane section"
    if d < p:
        return complex_gaussian(rng, (1, q)), "dimension count"
    for _ in range(2):  # one fresh draw before calling the problem singular
        g = complex_gaussian(rng, (q, q))
        # pencil[c] = L(g[:, c]), so L(g @ (1, t, ...)) = pencil[0] + t_1 pencil[1] + ...
        pencil, pencil2 = (np.einsum("dpb,bc->cdp", c, g) for c in (comp, comp2))
        eqs = np.stack([complex_gaussian(rng, (p, d)) @ (pencil2 if i else pencil)
                        for i in range(q - 1)])
        deltas = _operator_determinants(eqs)
        if _singular(deltas[0]):
            continue
        lam, vecs = np.linalg.eig(np.linalg.solve(deltas[0], deltas[1]))
        # Rayleigh quotient on each (unit) eigenvector; a BLAS contraction
        # order for the p^3 rows of q = 4 only, so that q = 3 keeps the
        # summation order, and the bytes, the 2 x N peeling relies on
        rest = [np.einsum("ic,ij,jc->c", vecs.conj(), np.linalg.solve(deltas[0], delta),
                          vecs, optimize=q > 3)
                for delta in deltas[2:]]
        params = np.stack([np.ones_like(lam), lam, *rest], axis=1)
        return params @ g.T, _METHODS[q]
    h = rng.standard_normal((q, q - 1))
    w, method = _parameter_candidates(comp @ h, comp2 @ h, rng)
    if not method.endswith("hyperplane section"):
        method += " on a hyperplane section"
    return w @ h.T, method


def _enumerate_rank_one(work, rng, tol):
    """Every candidate rank-1 combination of work (k, p, q), some
    work[i] nonzero.

    Returns (z, defect, method): coefficients (C, k) with respect to
    work, the rank-1 defect of each, and the method name.  A span whose
    complement has fewer vectors than the larger side holds a product
    at every v (the dimension count) whatever the shape; otherwise a
    smaller side of 5 or more levels, or 4 beside more than 8, raises
    UndecidableError.
    """
    k, p, q = work.shape
    flat = work.reshape(k, -1)
    u_x, s_x, vh_x = np.linalg.svd(flat)
    r = singular_rank(s_x, flat.shape, tol)
    small, large = sorted((p, q))
    if p * q - r >= large and (small > 4 or (small == 4 and large > 8)):
        raise UndecidableError(
            f"no complete product search for {p}x{q} matrices: the eigenvalue "
            "enumeration needs a smaller side of at most 4 levels, and at most "
            "8 levels beside a 4-level side")
    # orthonormal span basis, mixed at random so no candidate sits on a
    # coordinate hyperplane, and coefficients back to work: z = y @ to_work
    mix = np.linalg.qr(complex_gaussian(rng, (r, r)))[0]
    basis = (mix @ vh_x[:r]).reshape(r, p, q)
    to_work = mix @ (dagger(u_x[:, :r]) / s_x[:r, None])
    comp = vh_x[r:].conj().reshape(-1, p, q)  # comp . vec(x) = 0 iff x in span
    swap = q > p
    if swap:
        comp = comp.transpose(0, 2, 1)
    v, method = _parameter_candidates(comp, comp, rng)
    ell = np.einsum("dpb,cb->cdp", comp, v)
    u = np.linalg.svd(ell)[2][:, -1, :].conj()  # null vector of each L(v)
    prods = u[:, :, None] * v[:, None, :]
    if swap:
        prods = prods.transpose(0, 2, 1)
    y = np.einsum("kpq,cpq->ck", basis.conj(), prods)
    return y @ to_work, _rank1_defects(basis, y), method


def _product(mats, z):
    e = np.einsum("k,kpq->pq", z, mats)
    u, s, vh = np.linalg.svd(e)
    return u[:, 0] * np.sqrt(s[0]), vh[0, :] * np.sqrt(s[0]), z


# Largest k * k * C(p, 2) * C(q, 2) for which _compound_screen builds its
# matrix (16 MB of complex entries per temporary); larger stacks skip it.
_SCREEN_MAX_ENTRIES = 1 << 20

_BOUND = "second compound"
_NULL_VECTOR = "second compound null vector"
_NULL_SPACE = "second compound null space"


@lru_cache(maxsize=None)
def _minor_pairs(k, p, q):
    """The indices _compound_screen needs for a (k, p, q) stack: the flat
    positions of the corners r1 c1, r1 c2, r2 c1, r2 c2 of each 2 x 2
    minor (r1 < r2, c1 < c2), the pairs i <= j, the factors root that
    read y as its symmetric matrix Y (Y_ij = Y_ji = root_ij y_ij, so
    ||Y||_F = ||y|| and y(z) reads as z z^T), the weight of column (i, j)
    on the symmetrized minors (1/2 for i == j, 1/sqrt(2) for i < j), and
    the readout matrix, which takes y to the products Y a and Y b with
    the fixed phase vectors a and b."""
    (r1, r2), (c1, c2) = np.triu_indices(p, 1), np.triu_indices(q, 1)
    corners = np.stack([(r[:, None] * q + c).ravel() for r in (r1, r2) for c in (c1, c2)])
    i, j = np.triu_indices(k)
    root = np.where(i == j, 1.0, math.sqrt(0.5))  # Y_ij = Y_ji = root y_ij
    phases = np.exp(1j * np.outer(np.arange(k), [math.sqrt(2), math.sqrt(3)]))
    readout = np.zeros((len(i), k, 2), dtype=complex)
    readout[np.arange(len(i)), i] = root[:, None] * phases[j]
    off = np.flatnonzero(i < j)
    readout[off, j[off]] = root[off, None] * phases[i[off]]
    return (corners, i, j, root, np.where(i == j, 0.5, 1.0) * root,
            readout.reshape(len(i), -1))


def _compound_screen(work, tau):
    """Decide the (k, p, q) stack from the 2 x 2 minors of M = sum_i z_i
    work[i]: (method, bound, None) when no combination has rank-1 defect
    sigma_2 / sigma_1 <= tau, (method, None, (z, defect)) with every
    such combination as a row of z, (None, None, None) when it decides
    nothing.

    The minors of M are A y: y holds z_i^2 and sqrt(2) z_i z_j (i < j),
    so ||y|| = ||z||^2, and column (i, j) of A holds the minors of the
    symmetrized bilinear form of work[i] and work[j], weighted as y is.
    A has C(p, 2) C(q, 2) rows and k (k + 1) / 2 columns.  With C =
    C(min(p, q), 2), N = ||work||_F^2 and nu = sqrt(C) N: ||A y|| =
    ||C_2(M)||_F <= sqrt(C) sigma_1 sigma_2 and sigma_1 <= sqrt(N) ||z||,
    so sigma_2 / sigma_1 >= ||A y|| / (nu ||y||), and a combination of
    defect at most tau has ||A y|| <= nu tau ||y||.

    Floating-point margin, with u the unit roundoff.  Each entry of A is
    a sum of at most four complex products, formed with an error of at
    most 6 u times the sum T of their moduli; each pair of entries of
    work[i], work[j] in distinct rows and columns enters T once, and the
    weights are at most 1, so ||T||_F <= sqrt(2) N and ||dA||_2 <= 9 u N.
    The computed SVD is exact for a matrix within c u ||A||_2 of A, c at
    most the larger side of A for LAPACK, with ||A||_2 <= ||T||_F.  N
    comes out within k p q u relative, which moves nu by that share.  So
    the SVD is taken as exact for a matrix within m = 16 (max(rows, cols)
    + k p q) u N of A.

    Singular values at most t = nu tau + m (and the cols - rows zeros of
    a wide A) are dropped; s counts them, and sigma_keep is the smallest
    one kept.
    * s = 0: every y has ||A y|| > (t - m) ||y||, so sigma_2 / sigma_1
      >= (sigma_min - m) / nu > tau over the whole span, the bound
      (method "second compound").
    * s = 1, k >= 2: the dropped unit vector y_1, read as the symmetric
      k x k matrix Y_1 (||Y_1||_F = 1), must be near rank 1 if a
      combination of small defect exists.  Let z be a unit combination
      of defect d, and A' the matrix within m of A whose SVD was
      computed, so ||A' y(z)|| <= nu d + m and ||y(z)|| = 1.  Write y(z)
      = c y_1 + r with r on the kept right singular vectors: sigma_keep
      ||r|| <= nu d + m, so ||r|| <= delta = (nu d + m) / sigma_keep, and
      |c|^2 = 1 - ||r||^2.  As matrices z z^T = c Y_1 + R with ||R||_F =
      ||r||, and z z^T has rank 1, so |c| sigma_2(Y_1) <= ||R||_2 <= delta
      (Weyl): sigma_2(Y_1) <= delta / sqrt(1 - delta^2), that is delta >=
      sigma_2 / sqrt(1 + sigma_2^2).  Hence every combination has defect
      d >= beta = (sigma_keep sigma_2 / sqrt(1 + sigma_2^2) - m) / nu,
      the bound when beta > tau (method "second compound null vector").
      sigma_2 is taken 16 (cols + k) u below its computed value: the
      computed y_1 lies within about cols u of an exact singular vector
      of A', the small SVD is exact for a matrix within about k u of Y_1,
      and sigma_2 moves by at most as much as its matrix.  Otherwise, as
      when the line holds a product (sigma_2(Y_1) = 0), the readout
      below decides or declines.
    * 0 < s <= k: the dropped right singular vectors span null(A), read
      as s symmetric k x k matrices Y_l (y(z) reads as z z^T).  If
      null(A) = span{y(z_1), .., y(z_s)} with z_m independent, Y_l = Z
      C_l Z^T with C_l diagonal, so N_a = [Y_l a]_l = Z D_a W and N_b =
      Z D_b W for the fixed phase vectors a, b and an invertible W;
      N_a^+ N_b = W^-1 D_a^-1 D_b W has eigenvectors v with z_m ~ N_a v.
      The points are returned only if (gap) the smallest kept singular
      value sigma_keep has sqrt(tau) sigma_keep > t, so that a span with
      a combination of defect below about sqrt(tau) that is not a product
      is left to the enumeration, (defect) each point has defect at most
      tau, and (independence) the unit points, the columns of Z, have
      sigma_Z = sigma_min(Z) with sigma_Z^4 sigma_keep > 13 s^2 t.
    * Otherwise (s > k, A over _SCREEN_MAX_ENTRIES, or a failed check)
      nothing is decided.

    Why the points are all the products: let z be a unit combination of
    defect at most tau, and delta = t / sigma_keep.  y(z) and each y(z_m)
    (which passed (defect)) lie within delta of the dropped space V.  The
    Gram matrix of the y(z_m) is G o G with G = Z^H Z, so their smallest
    singular value is at least sigma_Z (Schur), their projections span V,
    and z z^T = Z C Z^T + R with C diagonal and ||R||_F <= rho = delta (1
    + sqrt(s) / (sigma_Z - sqrt(s) delta)).  With P the projector off the
    range of Z, P z z^T = P R gives ||z - Z w|| <= rho for w = Z^+ z, and
    the off-diagonal of w w^T - C = Z^+ R Z^+T puts w within rho /
    (sigma_Z^2 |w_m|) of w_m e_m, w_m its largest entry, |w_m| >= sqrt(1 -
    rho^2) / s.  (independence) gives sqrt(s) delta <= sigma_Z / 2 and rho
    <= 3 sqrt(s) delta / sigma_Z <= 1/2, so z lies within sine theta <= (1
    + 2 / sqrt(3)) s^(3/2) rho / sigma_Z^2 <= 6.5 s^2 delta / sigma_Z^3 <
    sigma_Z / 2 of the line of z_m, while the lines of two found points
    are at least arcsin(sigma_Z) apart.  So every combination of defect at
    most tau is one found point to within theta, and the found list is
    complete to that angle; in exact arithmetic an exact product has y in
    null(A), and null(A) = span{y(z_m)} leaves no other product.

    No random numbers are drawn.  A span on which a or b fails (a . z_m
    = 0, or two equal ratios b . z_m / a . z_m) fails a check instead.
    """
    k, p, q = work.shape
    corners, i, j, root, weight, readout = _minor_pairs(k, p, q)
    rows, cols = corners.shape[1], len(i)
    if k * k * rows > _SCREEN_MAX_ENTRIES or cols - rows > k:  # then s > k
        return None, None, None
    w11, w12, w21, w22 = work.reshape(k, -1)[:, corners].transpose(1, 0, 2)
    minors = w11[:, None] * w22[None] - w12[:, None] * w21[None]  # (k, k, rows)
    a_mat = ((minors + minors.transpose(1, 0, 2))[i, j] * weight[:, None]).T
    norm2 = float(np.vdot(work, work).real)
    margin = 16 * (max(rows, cols) + work.size) * _EPS * norm2
    small = min(p, q)
    nu = math.sqrt(small * (small - 1) / 2) * norm2
    _, sv, vh = np.linalg.svd(a_mat, full_matrices=rows < cols)
    sv = np.concatenate([sv, np.zeros(cols - len(sv))])
    t = nu * tau + margin
    s = int(np.count_nonzero(sv <= t))
    if s == 0:
        return _BOUND, float((sv[-1] - margin) / nu), None
    if s > k:
        return None, None, None
    keep = sv[cols - s - 1] if s < cols else math.inf
    if s == 1 and k > 1:
        y_1 = np.zeros((k, k), dtype=complex)
        y_1[i, j] = y_1[j, i] = root * vh[-1].conj()
        sigma_2 = np.linalg.svd(y_1, compute_uv=False)[1] - 16 * (cols + k) * _EPS
        bound = (keep * sigma_2 / math.hypot(1.0, sigma_2) - margin) / nu
        if bound > tau:
            return _NULL_VECTOR, float(bound), None
    if not math.sqrt(tau) * keep > t:
        return None, None, None
    n_a, n_b = (vh[cols - s:].conj() @ readout).reshape(s, k, 2).T  # (k, s) each
    z = n_a.T
    if s > 1:
        # N_a^+ N_b through N_a = Q R, which keeps cond(N_a) unsquared; a
        # poorly conditioned N_a shows as a failed check below
        q_a, r_a = np.linalg.qr(n_a)
        try:
            z = (n_a @ np.linalg.eig(np.linalg.solve(r_a, q_a.conj().T @ n_b))[1]).T
        except np.linalg.LinAlgError:
            return None, None, None
    sc = np.linalg.svd(np.einsum("ck,kpq->cpq", z, work), compute_uv=False)
    defect = sc[:, 1] / np.maximum(sc[:, 0], 1.0e-300)
    unit_z = z / np.maximum(np.linalg.norm(z, axis=1), 1.0e-300)[:, None]
    sigma_z = np.linalg.svd(unit_z, compute_uv=False)[-1]
    if not (np.all(defect <= tau) and sigma_z ** 4 * keep > 13 * s * s * t):
        return None, None, None
    return _NULL_SPACE, None, (z, defect)


def rank_one_in_span(mats, rng=7, tol: ToleranceConfig = DEFAULT_TOL) -> ProductSearchResult:
    """Find z with sum_i z_i mats[i] of rank 1 (up to the defect tolerance).

    First one SVD of the second compound (_compound_screen) of the span,
    whose 2 x 2 minors are linear in the products z_i z_j.  With no null
    space it bounds sigma_2 / sigma_1 from below on every combination,
    and a bound above residual_tol proves that no rank-1 combination
    exists: found=False, method "second compound" and the bound as
    best_defect.  A one-dimensional null space whose symmetric matrix is
    far from rank 1 gives such a bound in the same way, with method
    "second compound null vector"; this is how the range of a 3x3
    rank-4 state with no product is decided.  With a null space of
    dimension s at most the span's dimension that is spanned by s
    independent rank-1 combinations, read off as the eigenvectors of an
    s x s problem, those are all of them, to within the angle
    _compound_screen bounds: method "second compound null space".  None
    of these draws random numbers.
    Otherwise every point where a rank-1 combination can sit is
    enumerated as an eigenvalue (a pencil when the smaller matrix side
    has 2 levels, a two- or three-parameter eigenvalue problem for 3 or
    4) and tested, so "not found" means none exists.  Success means the
    second singular value of the combination is at most residual_tol
    times the first.  A span whose complement has fewer vectors than the
    larger side holds a product at every smaller-side vector ("dimension
    count"), at any shape.  Any other span the second compound does not
    decide is out of scope, and raises UndecidableError, when the
    smaller side has 5 or more levels, or 4 beside more than 8; an
    all-zero stack raises ValueError.
    """
    mats = np.asarray(mats, dtype=complex)
    k, p, q = mats.shape
    scale = np.linalg.norm(mats.reshape(k, -1), axis=1)
    if not scale.any():
        raise ValueError("rank_one_in_span needs a nonzero matrix in the span")
    first = int(np.argmax(scale > 0))
    scale[scale == 0] = 1.0
    if min(p, q) < 2:
        z = np.zeros(k, dtype=complex)
        z[first] = 1.0 / scale[first]
        prod = _product(mats, z)
        return ProductSearchResult(True, *prod, 0.0, "trivial", 1, (prod,))

    work = mats / scale[:, None, None]
    method, bound, points = _compound_screen(work, tol.residual_tol)
    if bound is not None:
        return ProductSearchResult(False, None, None, None, bound, method, 0)
    if points is not None:
        z, defect = points
    else:
        z, defect, method = _enumerate_rank_one(work, as_rng(rng), tol)
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
        return ProductSearchResult(False, None, None, None, best, method, len(z))
    return ProductSearchResult(True, *products[0], best, method, len(z),
                               tuple(products))


def find_product_vector(subspace: Subspace, rng=7) -> ProductSearchResult:
    """Search the subspace for a product vector a (x) b, by the second
    compound and the complete enumeration of rank_one_in_span (same
    scope).

    On success the returned (a, b) satisfies a (x) b ~ sum_i z_i basis_i
    up to the rank-1 defect tolerance; membership in the subspace holds
    by construction.
    """
    return rank_one_in_span(subspace.matrices(), rng=rng, tol=subspace.tol)


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
    The real Jacobian [[Re J_v, Re J_b, -Im J_b], [Im J_v, Im J_b,
    Re J_b]] is filled in place.
    """
    d, nb = len(comp), len(b)
    jac = np.empty((2 * d, 3 + 2 * nb))
    for _ in range(2):
        res = np.einsum("dnc,c,n->d", comp, v, b)
        jac_v = np.einsum("dnc,n->dc", comp, b)
        jac_b = np.einsum("dnc,c->dn", comp, v)
        jac[:d, :3], jac[d:, :3] = jac_v.real, jac_v.imag
        jac[:d, 3:3 + nb], jac[d:, 3:3 + nb] = jac_b.real, jac_b.imag
        np.negative(jac_b.imag, out=jac[:d, 3 + nb:])
        jac[d:, 3 + nb:] = jac_b.real
        step = np.linalg.lstsq(jac, -np.concatenate([res.real, res.imag]),
                               rcond=_SINGULAR_RCOND)[0]
        v = v + step[:3]
        b = b + step[3:3 + nb] + 1j * step[3 + nb:]
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
        # a real root comes out up to a complex factor
        v = _parameter_candidates(comp, comp.conj(), as_rng(rng))[0]
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
    prod = kron(complex_gaussian(rng, dim_a), complex_gaussian(rng, dim_b))
    rows = [prod] + [complex_gaussian(rng, dim_a * dim_b) for _ in range(dim - 1)]
    # mix so the product direction is not a basis row
    g = np.eye(dim, dtype=complex) + 0.3 * complex_gaussian(rng, (dim, dim))
    return Subspace(dim_a, dim_b, g @ np.vstack(rows), tol)
