"""Complete separability/distillability decision for rank-4 states, and
the top-level classification that routes every state.

A bipartite state of rank 4 is separable iff it is PPT and its range
contains a product vector, and an NPT one is distillable.  The decision
tree:

* max local rank 4: rank equals the max, so the rank-max machinery
  decides (PPT -> N products, NPT -> the NPT chain of criteria: the
  scan, then the eigen-frames, whose miss raises UndecidableError);
* 3x3 locals, PPT: the range is searched for product vectors first;
  when four of them rebuild the state with positive weights it is
  separable, with them as the certificate.  Otherwise a reducible
  state is decided by its components, and an irreducible one with no
  product vector in its range is PPT entangled;
* 3x3 locals, NPT: a negative coordinate 2x3 block of rho^G is the
  witness.  Otherwise a reducible state is decided by its components,
  and an irreducible one by the eigen-frames, 2-frames read off the
  eigenvectors of rho^G, whose first negative compression is the
  witness; a state they miss too is surfaced as undecidable.  The
  tree runs the chain's two searches with its reducibility test
  between them, so that a reducible state ends on its own trail.  No
  NPT state runs a range-product search.

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
classified by classify_state.  Off rank 4 and above the max local rank,
classify_state certifies an NPT state by the NPT chain alone, and
returns Undecided when it misses.

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
    _npt_witness,
    _rank_n_products,
    classify_rank_le_max,
    is_ppt,
    schmidt2_witness,
    separable_decomposition_rank_n,  # unused here; perfbench/spans.py wraps this binding
)
from .linalg import (
    check_hermitian, dagger, kron, psd_eigen, psd_range, rel_residual, singular_rank,
)
from .product_search import _both_ranges_candidates, _refine_candidate, rank_one_in_span
from .random_states import as_rng
from .states import (
    BipartiteState,
    partial_transpose_matrix,
    reduce_matrix,
    swap_sides_matrix,
)
from .structure import aggregate, decompose_b_direct_matrix

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
    products.extend(tail.lift_products(_rank_n_products(tail.work)))
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
        products = _rank_n_products(work)
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
# the rank-4 decision tree
# ---------------------------------------------------------------------------

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
        decomp = decompose_b_direct_matrix(mat, *dims, tol)
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
    carries the proof path.  An NPT state on which both the coordinate
    scan and the eigen-frames of rho^G find no negative direction, an
    irreducible 3x3 one or one of max local rank 4, raises
    UndecidableError.  The eigen-frames move with the state under a
    local unitary, so the verdict does not depend on one (up to
    degenerate eigenvalues), and their witness vector does not move
    when rho is scaled.

    rng, a seed or a Generator, is passed through unchanged to the two
    searches that draw: the enumeration of rank_one_in_span in step (0)
    and the 2xN peeling of a small-locals PPT state or of a reducible
    state's component.  Each turns it into
    a Generator after its early returns, so with an int seed each starts
    its stream afresh, and a negative seed raises only where one runs.
    Every other step draws nothing: the rank = max local rank
    constructions, the B-direct split, the range-product readout, the
    "no product" bound, the coordinate 2x3 scan and the eigen-frames.
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
        cert = (Separable(products=tuple(_rank_n_products(local.work))) if ppt_flag
                else Distillable(_distill_rank_max(local.work)))
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
    # vector, both with no enumeration and no random draw.  "No product"
    # is not reported here: under an ill-conditioned ILO the search can
    # miss a product, and the checks of (a) are what stop that becoming
    # PptEntangled.
    if ppt_flag:
        _, range_q = psd_range(restricted.matrix, restricted.tol)
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

    # (a) reducibility, B side then A side.  It precedes every route that
    # relies on irreducibility or can end in PptEntangled, and its
    # Hermiticity check on the B-normalized state guards them
    reducible = _reducible_verdict(restricted, rng)
    if reducible is not None:
        return reducible

    # PPT and irreducible: (0)'s products, if any, should have
    # diagonalized it, since an irreducible separable state's do.  Under
    # an ill-conditioned ILO an NPT state can test as PPT and land here,
    # so the contradiction is reported as no verdict, not as a fault
    if ppt_flag:
        if prod.found:
            raise UndecidableError(
                f"range-product-basis: no 4 of the {len(prod.products)} product "
                "vectors in the range diagonalize the state")
        return Rank4Verdict(
            PptEntangled(min_eig_gamma=min_eig,
                         product_search_report=f"no product vector in the range ({prod.report()})"),
            ("no-product-in-range",))

    # NPT and irreducible, and the scan of (a') missed: the 2-frames read
    # off the eigenvectors of rho^G, which draw no random numbers, are
    # the last search.  The rank-4 theorem makes the state distillable,
    # so a miss here is the search's, and is surfaced as such
    w = _eigen_frame_witness(restricted)
    if w is not None:
        return Rank4Verdict(Distillable(w), ("eigen-frames",))
    raise UndecidableError(
        "irreducible NPT 3x3 rank-4 state; neither the coordinate 2x3 scan "
        "nor the eigen-frames of rho^G found a negative Schmidt-rank-2 "
        "direction, so no verdict is returned")


# ---------------------------------------------------------------------------
# top-level classification
# ---------------------------------------------------------------------------

def classify_state(state: BipartiteState, rng=7) -> Certificate:
    """Strongest verdict available for an arbitrary bipartite state.

    Dispatch order mirrors what is actually decidable: rank at most the
    max local rank is fully classified; rank 4 goes through the rank-4
    decision tree; everything else runs the PPT test, the 2xN peeling of
    a PPT state with at most 2x3 locals, and the NPT chain of an NPT one:
    the coordinate 2xN scan, then the 2-frames read off the eigenvectors
    of rho^G, with no random draw.  Only there is a miss reported as
    Undecided.
    """
    ra, rb = state.local_ranks()
    r = state.rank()
    if r <= max(ra, rb):
        return classify_rank_le_max(state)
    if r == 4:
        return decide_rank4(state, rng=rng).outcome

    ppt, min_eig = is_ppt(state)
    if ppt and (min(ra, rb) > 2 or max(ra, rb) > 3):
        return Ppt(min_eig_gamma=min_eig)
    if ppt:
        # a PPT state left here is at most 2x3, where PPT implies separable
        cert = Separable(products=tuple(_ppt_products(state, rng)))
    elif (w := _npt_witness(state)) is not None:
        cert = Distillable(w)
    else:
        return Undecided(report=(
            f"NPT state of rank {r} > max local rank {max(ra, rb)}: neither the "
            "coordinate 2xN scan nor the eigen-frames of rho^G found a negative "
            "Schmidt-rank-2 direction; no decision procedure is known for this regime"))
    validate_certificate(state, cert)
    return cert
