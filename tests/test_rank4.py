import pickle
from itertools import combinations

import numpy as np
import pytest

from entcert import criteria, linalg, product_search, rank4, structure
from entcert.certificates import (
    Distillable,
    PptEntangled,
    SchmidtRank2Witness,
    Separable,
    validate_certificate,
    validate_witness,
)
from entcert.criteria import is_ppt, trivially_distillable
from entcert.families import (
    checkerboard_ppt_instance,
    classify_checkerboard,
    make_shifts_upb,
    make_tiles_upb,
    random_checkerboard,
    shifts_bipartite_cut,
)
from entcert.linalg import rel_residual
from entcert.product_search import product_in_both_ranges
from entcert.random_states import (
    complex_gaussian,
    random_invertible,
    random_product_sum,
    random_rank_r_state,
    random_tripartite_pure_amplitudes,
)
from entcert.rank4 import (
    classify_state,
    decide_rank4,
    separable_decomposition,
    separable_decomposition_rank_n,
)
from entcert.states import BipartiteState, apply_local, partial_transpose

from conftest import ill_conditioned, miss_3x3_scan, ppt_rank_n_state, reducible_b_state


def npt_rank4_with_product(rng):
    while True:
        prod = np.kron(complex_gaussian(rng, 3), complex_gaussian(rng, 3))
        vecs = [prod] + [complex_gaussian(rng, 9) for _ in range(3)]
        state = BipartiteState.from_vectors(3, 3, vecs)
        if not is_ppt(state)[0] and state.rank() == 4:
            return state


def test_decide_rank4_tiles_ppt_entangled(rng):
    verdict = decide_rank4(make_tiles_upb(), rng=rng)
    assert isinstance(verdict.outcome, PptEntangled)
    assert "no-product-in-range" in verdict.trail
    assert verdict.outcome.product_search_report.startswith(
        "no product vector in the range (second compound null vector, "
        "0 candidates examined, rank-1 defect at least ")


def test_decide_rank4_separable_products(rng):
    for _ in range(5):
        state = random_product_sum(3, 3, 4, rng)
        verdict = decide_rank4(state, rng=rng)
        assert isinstance(verdict.outcome, Separable)
        rec = verdict.outcome.reconstruct(3, 3)
        assert rel_residual(rec, state.matrix) < 1e-8
        assert len(verdict.outcome.products) == 4


def test_decide_rank4_npt_with_product_distillable(rng):
    for _ in range(5):
        state = npt_rank4_with_product(rng)
        verdict = decide_rank4(state, rng=rng)
        assert isinstance(verdict.outcome, Distillable)
        assert validate_witness(state, verdict.outcome.witness) < -1e-10


def test_decide_rank4_shifts_cut_separable(rng):
    rho8, _ = make_shifts_upb()
    for cut in "ABC":
        state = shifts_bipartite_cut(rho8, cut)
        verdict = decide_rank4(state, rng=rng)
        assert isinstance(verdict.outcome, Separable)
        rec = verdict.outcome.reconstruct(2, 4)
        assert rel_residual(rec, state.matrix) < 1e-8


def test_decide_rank4_rejects_wrong_rank(rng):
    state = random_rank_r_state(3, 3, 3, rng)
    with pytest.raises(ValueError, match="rank"):
        decide_rank4(state, rng=rng)


def test_decide_rank4_never_crosses_ppt(rng):
    # Separable only for PPT inputs, Distillable only for NPT inputs
    for _ in range(8):
        state = random_product_sum(3, 3, 4, rng)
        ppt, _ = is_ppt(state)
        verdict = decide_rank4(state, rng=rng)
        if isinstance(verdict.outcome, Separable):
            assert ppt
        if isinstance(verdict.outcome, Distillable):
            assert not ppt


def test_decide_rank4_verdict_ilo_invariant(rng):
    state = random_product_sum(3, 3, 4, rng)
    for _ in range(5):
        conj = apply_local(state, random_invertible(3, rng),
                           random_invertible(3, rng))
        verdict = decide_rank4(conj, rng=rng)
        assert isinstance(verdict.outcome, Separable)
    state = npt_rank4_with_product(rng)
    for _ in range(5):
        conj = apply_local(state, random_invertible(3, rng),
                           random_invertible(3, rng))
        verdict = decide_rank4(conj, rng=rng)
        assert isinstance(verdict.outcome, Distillable)


def test_decide_rank4_reducible_route(rng):
    # B-direct sum: an entangled pair on B-levels {0,1} plus a product
    # on B-level 2, conjugated; NPT component makes the sum distillable
    bell = np.zeros(9, dtype=complex)
    bell[0] = bell[4] = 1.0
    prod = np.kron(complex_gaussian(rng, 3), np.array([0, 0, 1.0]))
    extra = np.kron(complex_gaussian(rng, 3), np.array([0.3, 1.0, 0]))
    state = BipartiteState.from_vectors(3, 3, [bell, prod, extra])
    state = apply_local(state, random_invertible(3, rng), random_invertible(3, rng))
    assert state.rank() == 3 or state.rank() == 4
    if state.rank() == 4:
        verdict = decide_rank4(state, rng=rng)
        assert isinstance(verdict.outcome, Distillable)
        assert verdict.trail[0].startswith("reducible")


def test_product_in_range_never_ppt_entangled(rng):
    # rank-4 3x3 states with a product vector in range are never
    # classified PPT entangled
    for _ in range(10):
        prod = np.kron(complex_gaussian(rng, 3), complex_gaussian(rng, 3))
        vecs = [prod] + [complex_gaussian(rng, 9) for _ in range(3)]
        state = BipartiteState.from_vectors(3, 3, vecs)
        verdict = decide_rank4(state, rng=rng)
        assert not isinstance(verdict.outcome, PptEntangled)


def test_separable_decomposition_rank_n_diagonal(rng):
    diag = np.zeros(9)
    diag[[0, 4, 8]] = [1.0, 2.0, 0.5]
    state = BipartiteState(3, 3, np.diag(diag).astype(complex))
    products = separable_decomposition_rank_n(state)
    assert len(products) == 3
    cert = Separable(products=tuple(products))
    assert rel_residual(cert.reconstruct(3, 3), state.matrix) < 1e-10


def test_separable_decomposition_rank_n_commuting_blocks(rng):
    for dims in ((3, 3), (2, 3), (3, 4)):
        state = ppt_rank_n_state(*dims, rng)
        products = separable_decomposition_rank_n(state)
        assert len(products) == max(dims)
        cert = Separable(products=tuple(products))
        assert rel_residual(cert.reconstruct(*dims), state.matrix) < 1e-8


def test_separable_decomposition_rank_n_rejects_npt(rng):
    while True:
        state = random_rank_r_state(3, 3, 3, rng)
        if not is_ppt(state)[0]:
            break
    with pytest.raises((ValueError, RuntimeError)):
        separable_decomposition_rank_n(state)


def test_peeling_2x2_full_rank(rng):
    state = random_product_sum(2, 2, 6, rng)
    assert state.rank() == 4
    products = separable_decomposition(state, rng=rng)
    cert = Separable(products=tuple(products))
    assert rel_residual(cert.reconstruct(2, 2), state.matrix) < 1e-7


def test_peeling_2x3_rank4(rng):
    hits = 0
    while hits < 3:
        state = random_product_sum(2, 3, 4, rng)
        if state.rank() != 4:
            continue
        products = separable_decomposition(state, rng=rng)
        cert = Separable(products=tuple(products))
        assert rel_residual(cert.reconstruct(2, 3), state.matrix) < 1e-7
        hits += 1


# Sums of 3-8 random products in 2x2, 2x3 and 3x2, each seeded by its
# own index, plus the 3x2 8-product states of five more seeds and two
# more sums.  The circle and grid search that preceded the exact one
# failed on the first four seeds (no product found in both ranges), or
# left the rank-N tail non-normal.  Seed 5411 leaves a genuine eigenvalue
# at 9e-9 of the spectral norm after a peeling step; a kernel cutoff at
# psd_tol zeroes it, and the remainder is no longer PPT.  The last two
# sums leave a non-normal tail unless each root is refined by Newton.
PEELING_CORPUS = [((m, n), 3 + i % 6, [shape, i])
                  for shape, (m, n) in enumerate([(2, 2), (2, 3), (3, 2)])
                  for i in range(48)]
PEELING_CORPUS += [((3, 2), 8, seed) for seed in (2426, 4253, 5597, 10426, 5411)]
PEELING_CORPUS += [((2, 3), 7, [1, 196]), ((3, 2), 4, [2, 361])]


def test_peeling_corpus_decomposes_and_each_step_is_exact(monkeypatch):
    # each step's search, its accepted candidates and the refined product
    # it subtracts, if it subtracts one
    steps, events = [], []
    search, refine = rank4._both_ranges_candidates, rank4._refine_candidate

    def searching(ker, ker_gamma, rng, tol):
        found = search(ker, ker_gamma, rng, tol)
        steps.append((ker, ker_gamma, found[1], []))
        return found

    def refining(*best):
        steps[-1][3].append(refine(*best))
        return steps[-1][3][-1]

    split, clean = rank4.psd_eigen, rank4.check_hermitian
    monkeypatch.setattr(rank4, "_both_ranges_candidates", searching)
    monkeypatch.setattr(rank4, "_refine_candidate", refining)
    monkeypatch.setattr(rank4, "psd_eigen",
                        lambda *a: events.append(("split", split(*a))) or events[-1][1])
    monkeypatch.setattr(rank4, "check_hermitian",
                        lambda *a: events.append(("clean", clean(*a))) or events[-1][1])
    for (m, n), terms, seed in PEELING_CORPUS:
        rng = np.random.default_rng(seed)
        state = random_product_sum(m, n, terms, rng)
        products = separable_decomposition(state, rng=rng)
        cert = Separable(products=tuple(products))
        assert rel_residual(cert.reconstruct(m, n), state.matrix) < 1e-8
    assert sum(len(refined) for *_, refined in steps) > len(PEELING_CORPUS)
    circles = 0
    for ker, ker_gamma, accepted, refined in steps:
        assert len(refined) <= 1
        for a, b in refined:
            assert np.linalg.norm(ker.conj().T @ np.kron(a, b)) < 1e-10
            assert np.linalg.norm(ker_gamma.conj().T @ np.kron(a.conj(), b)) < 1e-10
        for a, b in accepted:
            assert np.linalg.norm(ker.conj().T @ np.kron(a, b)) < 1e-8
            assert np.linalg.norm(ker_gamma.conj().T @ np.kron(a.conj(), b)) < 1e-8
        # 2x2 with rank 3 on both sides: the zeros form a Bloch circle
        circles += ker.shape == ker_gamma.shape == (4, 1)
    assert circles > 0
    # each cleaned remainder is built from the split just before it, and
    # that split is carried to the next step in place of a fresh one: a
    # fresh split has the same nullity, and a kernel that agrees with the
    # carried one to 1e-10, or, when the smallest kept eigenvalue is a
    # tiny fraction of the largest (seed 5411: 9e-9), to roundoff over
    # that gap (Davis-Kahan), with the carried kernel the exact one
    cleaned = [(events[i - 1], mat) for i, (kind, mat) in enumerate(events) if kind == "clean"]
    assert len(cleaned) > len(PEELING_CORPUS)
    for (kind, (w, v, nullity)), mat in cleaned:
        assert kind == "split"
        _, v_fresh, nullity_fresh = split(mat)
        assert nullity_fresh == nullity
        carried, fresh = v[:, :nullity], v_fresh[:, :nullity]
        assert np.linalg.norm(mat @ carried) < 1e-14 * w[-1]
        gap = w[nullity] / w[-1]
        assert (np.linalg.norm(carried @ carried.conj().T - fresh @ fresh.conj().T)
                < max(1e-10, 1e-14 / gap))


@pytest.mark.parametrize("shape, terms, searches",
                         [((2, 2), 6, 3), ((2, 3), 5, 2), ((2, 3), 7, 4), ((3, 2), 6, 4)])
def test_peeling_decomposes_rho_and_rho_gamma_once_per_step(shape, terms, searches, monkeypatch):
    steps, splits, built = [], [], []
    find, psd_eigen = rank4._both_ranges_candidates, rank4.psd_eigen
    monkeypatch.setattr(rank4, "_both_ranges_candidates",
                        lambda *a: steps.append(1) or find(*a))
    monkeypatch.setattr(rank4, "psd_eigen", lambda *a: splits.append(1) or psd_eigen(*a))
    monkeypatch.setattr(rank4, "BipartiteState",
                        lambda *a: built.append(1) or BipartiteState(*a))
    rng = np.random.default_rng(terms)
    state = random_product_sum(*shape, terms, rng)
    products = separable_decomposition(state, rng=rng)
    assert rel_residual(Separable(products=tuple(products)).reconstruct(*shape),
                        state.matrix) < 1e-8
    # rho once at entry; per step rho^G and, unless the range-product
    # readout ends the peeling there, the remainder and its two marginals,
    # the remainder's split serving as the next step's rho.  A 2x2 sum
    # ends in the rank-N tail, its one state; a 2x3 or 3x2 sum ends in the
    # readout, which decomposes nothing and builds no state
    readout = shape != (2, 2)
    assert len(steps) == searches
    assert len(splits) == 1 + 4 * len(steps) - 3 * readout
    assert len(built) == 1 - readout


def test_peeling_stress_ends_in_the_range_product_readout(monkeypatch):
    # sums of 3-8 random products, seven per shape, term count and seed.
    # A 2x3 or 3x2 peeling reaches a step whose both-ranges candidates
    # are finite and rebuild the remainder, so no sum of 4-8 products
    # runs the rank-N tail; 2x2 sums end there, their candidates being a
    # Bloch circle or the dimension count
    tails, tail = [], rank4._rank_n_products
    monkeypatch.setattr(rank4, "_rank_n_products",
                        lambda *a: tails.append(1) or tail(*a))
    for m, n in ((2, 2), (2, 3), (3, 2)):
        for terms in range(3, 9):
            for seed in range(3):
                rng = np.random.default_rng([m, n, terms, seed])
                del tails[:]
                for _ in range(7):
                    state = random_product_sum(m, n, terms, rng)
                    cert = classify_state(state, rng=rng)
                    assert isinstance(cert, Separable)
                    validate_certificate(state, cert)
                if (m, n) != (2, 2) and terms >= 4:
                    assert not tails, (m, n, terms, seed)


def test_peeling_takes_the_fewest_searches_and_refines_only_what_it_subtracts(monkeypatch):
    # an r-term product decomposition needs r >= max(rank rho, rank rho^G),
    # so the readout reads the side of larger rank.  A 2x3 or 3x2 sum of 4
    # products (kernels of dimension 2 on both sides) ends at its first
    # search; a sum of 5 first subtracts one product found by the dimension
    # count, which needs no Newton step; a sum of 6-8, full rank, subtracts
    # three.  A 2x2 sum's candidates form families, so it subtracts at
    # every step and ends in the rank-N tail
    searches, newtons = [], []
    search, newton = rank4._both_ranges_candidates, product_search._newton
    monkeypatch.setattr(rank4, "_both_ranges_candidates",
                        lambda *a: searches.append(1) or search(*a))
    monkeypatch.setattr(product_search, "_newton", lambda *a: newtons.append(1) or newton(*a))
    for m, n in ((2, 3), (3, 2), (2, 2)):
        for terms in range(4, 9):
            for seed in range(8):
                rng = np.random.default_rng([m, n, terms, seed])
                state = random_product_sum(m, n, terms, rng)
                del searches[:], newtons[:]
                separable_decomposition(state, rng=rng)
                if (m, n) == (2, 2):
                    assert (len(searches), len(newtons)) == (3, 1), (terms, seed)
                else:
                    expected = {4: 1, 5: 2}.get(terms, 4)
                    assert (len(searches), len(newtons)) == (expected, 0), (m, n, terms, seed)


def test_peeling_reads_a_five_term_sum_off_rho_gamma(monkeypatch):
    # the first 5-product sum of the classify-mixed seed-1 corpus: its
    # first subtraction drops rank rho to 4 while rho^G keeps rank 5, so
    # the 5 accepted candidates are dependent in R(rho) and read off R(rho^G)
    state, call_seed = mixed_corpus_item(1, 10)
    assert call_seed == 1558605341
    assert (state.dim_a, state.dim_b, state.rank()) == (2, 3, 5)
    kernels, refined, readouts = [], [], []
    search, refine, basis = (rank4._both_ranges_candidates, rank4._refine_candidate,
                             rank4._range_product_basis)
    monkeypatch.setattr(rank4, "_both_ranges_candidates",
                        lambda ker, ker_gamma, *a: kernels.append(
                            (ker.shape[1], ker_gamma.shape[1])) or search(ker, ker_gamma, *a))
    monkeypatch.setattr(rank4, "_refine_candidate",
                        lambda *a: refined.append(len(kernels)) or refine(*a))
    monkeypatch.setattr(rank4, "_range_product_basis",
                        lambda *a: readouts.append((a[3], basis(*a))) or readouts[-1][1])
    cert = classify_state(state, rng=call_seed)
    assert isinstance(cert, Separable) and len(cert.products) == 6
    validate_certificate(state, cert)
    # nullities (rho, rho^G): both 1, then 2 and 1 after one subtraction,
    # the only refinement; the readout of the 5 products of rho^G's
    # remainder ends the peeling
    assert kernels == [(1, 1), (2, 1)] and refined == [1]
    assert len(readouts) == 1 and readouts[0][0] == 5 and readouts[0][1] is not None


@pytest.mark.parametrize("scale", [10.0 ** e for e in range(-12, 13, 2)])
def test_peeling_negative_eigenvalue_guard_is_relative(scale, monkeypatch):
    # a product moved off R(rho) by 3e-3 leaves a negative eigenvalue of
    # order 1e-5 of the state's norm; the guard must see it at every scale
    refine = rank4._refine_candidate

    def perturbed(*best):
        a, b = refine(*best)
        return a + 3.0e-3 * np.array([1.0, -1.0j]), b

    monkeypatch.setattr(rank4, "_refine_candidate", perturbed)
    state = random_product_sum(2, 2, 4, np.random.default_rng(0))
    scaled = BipartiteState(2, 2, scale * state.matrix, state.tol)
    with pytest.raises(RuntimeError, match="peeling left a negative eigenvalue"):
        separable_decomposition(scaled, rng=1)


def test_decide_rank4_splits_the_restricted_range_once(rng, monkeypatch):
    # the block form of branch (b) and the range basis of branch (c) come
    # from one psd_range; rank() counts its memo through states' binding
    state = random_product_sum(3, 3, 4, rng)
    assert state.local_ranks() == (3, 3)  # the restricted state is state
    splits, psd_eigen = [], linalg.psd_eigen
    monkeypatch.setattr(linalg, "psd_eigen",
                        lambda h, *a: splits.append(np.array_equal(h, state.matrix))
                        or psd_eigen(h, *a))
    verdict = decide_rank4(state, rng=rng)
    assert verdict.trail == ("product-in-range", "range-product-basis")
    assert sum(splits) == 1


def test_ppt_callers_reach_the_peeling_without_a_second_ppt_test(monkeypatch):
    # classify_state's PPT branch and the small-locals branch of the rank-4
    # tree test PPT once and hand the state to the private dispatcher
    tests, ppt = [], rank4.is_ppt
    monkeypatch.setattr(rank4, "is_ppt", lambda s: tests.append(1) or ppt(s))
    rng = np.random.default_rng(3)
    rank4_state, rank5_state = (random_product_sum(2, 3, terms, rng) for terms in (4, 5))
    assert (rank4_state.rank(), rank5_state.rank()) == (4, 5)
    verdict = decide_rank4(rank4_state, rng=rng)
    assert verdict.trail == ("small-locals", "peeling") and len(tests) == 1
    assert isinstance(classify_state(rank5_state, rng=rng), Separable) and len(tests) == 2


def test_product_in_both_ranges_reports_none_without_a_solution():
    # a (x) b orthogonal to |00>, |11> and conj(a) (x) b orthogonal to
    # |01>, |10> forces a0 b0 = a1 b1 = conj(a0) b1 = conj(a1) b0 = 0
    ker = np.eye(4, dtype=complex)[:, [0, 3]]
    ker_gamma = np.eye(4, dtype=complex)[:, [1, 2]]
    assert product_in_both_ranges(ker, ker_gamma, rng=0) is None


# The seeded classify-mixed corpus of the benchmark, in cycles of twelve:
# generic states of rank below or at the max local rank, PPT rank-N
# states, a random checkerboard, a tripartite pure state and 2x3 sums of
# 4, 5 and 5 products.  Each item is followed by one draw of the seed its
# call gets.
MIXED_CYCLE = [
    ("rank-r", (4, 4, 2)), ("rank-r", (4, 4, 3)),
    ("rank-r", (3, 3, 3)), ("rank-r", (3, 4, 4)),
    ("ppt-n", (2, 3)), ("ppt-n", (3, 3)), ("ppt-n", (3, 4)),
    ("checkerboard", None), ("tripartite", (2, 2, 2)),
    ("product-sum", (2, 3, 4)), ("product-sum", (2, 3, 5)),
    ("product-sum", (2, 3, 5)),
]


def mixed_corpus_item(seed, index):
    """Replay the corpus of `seed` up to item `index`; return its input
    and call seed."""
    rng = np.random.default_rng(seed)
    for i in range(index + 1):
        kind, shape = MIXED_CYCLE[i % len(MIXED_CYCLE)]
        if kind == "rank-r":
            data = random_rank_r_state(*shape, rng)
        elif kind == "ppt-n":
            data = ppt_rank_n_state(*shape, rng)
        elif kind == "checkerboard":
            data = random_checkerboard(rng)[1]
        elif kind == "tripartite":
            data = random_tripartite_pure_amplitudes(*shape, rng)
        else:
            data = random_product_sum(*shape, rng)
        call_seed = int(rng.integers(1 << 31))
    return data, call_seed


def test_classify_state_peels_the_mixed_corpus_seed6_sum():
    # a 2x3 rank-5 sum of 5 products on which the previous search found
    # no product in both ranges
    state, call_seed = mixed_corpus_item(6, 514)
    assert call_seed == 1796815924
    assert (state.dim_a, state.dim_b, state.rank()) == (2, 3, 5)
    cert = classify_state(state, rng=call_seed)
    assert isinstance(cert, Separable)
    validate_certificate(state, cert)


def test_classify_state_returns_the_reduction_violation(monkeypatch):
    # a 3x3 rank-5 state near the maximally entangled one violates the
    # reduction criterion; with the witness searches stubbed out, that
    # violation alone certifies 1-distillability
    rng = np.random.default_rng(5)
    phi = 2.0 * np.eye(3).reshape(-1) / np.sqrt(3)
    state = BipartiteState.from_vectors(
        3, 3, [phi] + [complex_gaussian(rng, 9) for _ in range(4)])
    assert (state.rank(), state.local_ranks()) == (5, (3, 3))
    monkeypatch.setattr(rank4, "schmidt2_witness", lambda *a, **k: None)
    monkeypatch.setattr(rank4, "_eigen_frame_witness", lambda *a, **k: None)
    cert = classify_state(state, rng=3)
    assert isinstance(cert.witness, SchmidtRank2Witness)
    assert validate_certificate(state, cert)["witness_value"] == pytest.approx(-6.025, abs=1e-3)


def test_decide_rank4_ilo_invariance_100_fixtures(rng):
    # verdict class is stable under random invertible local conjugation
    fixtures = []
    for _ in range(10):
        fixtures.append((random_product_sum(3, 3, 4, rng), Separable))
    for _ in range(10):
        fixtures.append((npt_rank4_with_product(rng), Distillable))
    checked = 0
    for state, expected in fixtures:
        for _ in range(5):
            conj = apply_local(state, random_invertible(3, rng),
                               random_invertible(3, rng))
            verdict = decide_rank4(conj, rng=rng)
            assert isinstance(verdict.outcome, expected)
            checked += 1
    assert checked == 100


def test_decide_rank4_padded_dimensions(rng):
    # input dimensions exceeding the local ranks are compressed away
    tiles = make_tiles_upb()
    pad = np.zeros((16, 16), dtype=complex)
    emb_a = np.zeros((4, 3), dtype=complex)
    emb_a[:3, :] = np.eye(3)
    emb_b = np.zeros((4, 3), dtype=complex)
    emb_b[1:, :] = np.eye(3)
    op = np.kron(emb_a, emb_b)
    padded = BipartiteState(4, 4, op @ tiles.matrix @ op.conj().T)
    verdict = decide_rank4(padded, rng=rng)
    assert isinstance(verdict.outcome, PptEntangled)


def test_small_locals_npt_rank4_is_decided_by_the_block_scan():
    # 3x2 and 2x3 NPT rank-4 states: the 2xN block scan covers the whole
    # space once a side has 2 levels, so no random search is needed
    rng = np.random.default_rng(41)
    for k in range(40):
        state = random_rank_r_state(*((3, 2) if k % 2 else (2, 3)), 4, rng)
        if is_ppt(state)[0]:
            continue
        verdict = decide_rank4(state, rng=k)
        assert verdict.trail == ("small-locals",)
        validate_certificate(state, verdict.outcome)


def test_small_locals_3x2_state_that_no_a_pair_block_certifies():
    # every 2x2 A-pair block of rho^G is PSD and no trivial submatrix
    # exists; the witness is the lowest eigenvector of the whole rho^G,
    # which has Schmidt rank 2 because B has 2 levels
    state = random_rank_r_state(3, 2, 4, np.random.default_rng(128))
    g = partial_transpose(state)
    for k, l in combinations(range(3), 2):
        idx = np.r_[2 * k:2 * k + 2, 2 * l:2 * l + 2]
        assert np.linalg.eigvalsh(g[np.ix_(idx, idx)])[0] > 0.2
    assert trivially_distillable(state) is None
    verdict = decide_rank4(state, rng=0)
    assert verdict.trail == ("small-locals",)
    value = validate_certificate(state, verdict.outcome)["witness_value"]
    assert value == pytest.approx(np.linalg.eigvalsh(g)[0], rel=1e-9)


def test_reducible_b_route_lifts_a_rank_below_max_component(rng, monkeypatch):
    # the entangled component's reduction-violation witness is lifted by
    # aggregate (the 2x3 scan misses, so that this NPT state reaches the
    # reducibility test)
    miss_3x3_scan(monkeypatch)
    state = reducible_b_state(rng)
    assert (state.rank(), state.local_ranks()) == (4, (3, 3))
    verdict = decide_rank4(state, rng=rng)
    assert verdict.trail == ("reducible-b",)
    assert isinstance(verdict.outcome.witness, SchmidtRank2Witness)
    validate_certificate(state, verdict.outcome)


def test_reducible_npt_state_is_decided_by_the_2x3_scan_before_reducibility(rng):
    # a negative coordinate 2x3 block proves 1-distillability with no
    # reducibility theorem behind it, so step (a) never runs
    state = reducible_b_state(rng)
    verdict = decide_rank4(state, rng=rng)
    assert verdict.trail == ("schmidt2-search",)
    assert validate_witness(state, verdict.outcome.witness) < 0


def test_ppt_rank4_states_run_no_2x3_scan(rng, monkeypatch):
    # the scan settles NPT states only; a PPT state still meets the
    # reducibility test before it can be reported PPT entangled
    def forbidden(*args, **kwargs):
        raise AssertionError("a PPT state ran the coordinate 2x3 scan")

    monkeypatch.setattr(rank4, "schmidt2_witness", forbidden)
    calls, reducible_verdict = [], rank4._reducible_verdict
    monkeypatch.setattr(rank4, "_reducible_verdict",
                        lambda *a: calls.append(1) or reducible_verdict(*a))
    assert decide_rank4(make_tiles_upb(), rng=0).trail == ("no-product-in-range",)
    assert len(calls) == 1
    states = [checkerboard_ppt_instance(0)[1]] + [
        apply_local(random_product_sum(3, 3, 4, rng), random_invertible(3, rng),
                    random_invertible(3, rng)) for _ in range(3)]
    outcomes = [type(decide_rank4(state, rng=rng).outcome) for state in states]
    assert outcomes == [PptEntangled] + [Separable] * 3


def test_decide_rank4_gives_no_wrong_verdict_under_ill_conditioned_ilos():
    # 30 sums of 4 products, 30 planted products, 10 tiles, 10 generic
    # states; under A (x) B of condition number kappa each call either
    # raises or returns the verdict type it returns for a unitary A (x) B.
    # The range-product readout judges the residual that validation
    # checks, so at kappa = 1e3 it decomposes the separable items whose
    # products rebuild the state within residual_tol, 14 of the 30.  At
    # kappa = 1e3 every NPT item, planted or generic, is certified
    rng = np.random.default_rng(15)
    corpus = [random_product_sum(3, 3, 4, rng) for _ in range(30)]
    for _ in range(30):
        prod = np.kron(complex_gaussian(rng, 3), complex_gaussian(rng, 3))
        vecs = [prod] + [complex_gaussian(rng, 9) for _ in range(3)]
        corpus.append(BipartiteState.from_vectors(3, 3, vecs))
    corpus += [make_tiles_upb()] * 10
    corpus += [random_rank_r_state(3, 3, 4, rng) for _ in range(10)]
    wrong, separable, distillable = [], 0, []
    for index, state in enumerate(corpus):
        conj = apply_local(state, ill_conditioned(1, rng), ill_conditioned(1, rng))
        expected = type(decide_rank4(conj, rng=index).outcome)
        for kappa in (1e3, 1e5):
            conj = apply_local(state, ill_conditioned(kappa, rng), ill_conditioned(kappa, rng))
            try:
                outcome = decide_rank4(conj, rng=index).outcome
            except Exception:
                continue
            if not isinstance(outcome, expected):
                wrong.append((index, kappa, expected.__name__, type(outcome).__name__))
            separable += index < 30 and kappa == 1e3 and isinstance(outcome, Separable)
            if kappa == 1e3 and isinstance(outcome, Distillable):
                assert validate_witness(conj, outcome.witness) < 0
                distillable.append(index)
    assert not wrong
    assert separable >= 14
    assert distillable == list(range(30, 60)) + list(range(70, 80))


def test_irreducible_state_reducibility_test_runs_no_kernel_svd_and_no_swapped_state(
        rng, monkeypatch):
    # step (a) decides irreducibility from singular values alone, and
    # tests the A side on the swapped matrix without building its state
    kernels, swaps = [], []
    numerical_rank, swap_sides = structure.numerical_rank, criteria.swap_sides
    monkeypatch.setattr(structure, "numerical_rank",
                        lambda *a: kernels.append(1) or numerical_rank(*a))
    monkeypatch.setattr(criteria, "swap_sides", lambda s: swaps.append(1) or swap_sides(s))
    for state in (npt_rank4_with_product(rng), make_tiles_upb()):
        assert rank4._reducible_verdict(state, rng) is None
    assert not kernels and not swaps


def test_ppt_sum_of_four_products_never_reaches_the_b_direct_code(rng, monkeypatch):
    calls = []
    for name in ("decompose_b_direct", "decompose_b_direct_matrix"):
        fn = getattr(rank4, name)
        monkeypatch.setattr(rank4, name, lambda *a, fn=fn: calls.append(1) or fn(*a))
    for _ in range(5):
        state = apply_local(random_product_sum(3, 3, 4, rng), random_invertible(3, rng),
                            random_invertible(3, rng))
        verdict = decide_rank4(state, rng=rng)
        assert verdict.trail == ("product-in-range", "range-product-basis")
    assert not calls


def test_ppt_b_reducible_state_with_range_product_families_ends_reducible_b(rng):
    # a (x) C^2 on B-levels 0, 1 plus two products on B-level 2: the range
    # holds two families of products, no four of which the search returns
    # diagonalize the state, so the reducibility test decides it
    a = complex_gaussian(rng, 3)
    e = np.eye(3)
    vecs = [np.kron(a, e[0]), np.kron(a, e[1]),
            np.kron(complex_gaussian(rng, 3), e[2]), np.kron(complex_gaussian(rng, 3), e[2])]
    for _ in range(3):
        state = apply_local(BipartiteState.from_vectors(3, 3, vecs),
                            random_invertible(3, rng), random_invertible(3, rng))
        assert is_ppt(state)[0] and state.rank() == 4
        verdict = decide_rank4(state, rng=rng)
        assert verdict.trail == ("reducible-b",)
        validate_certificate(state, verdict.outcome)


def test_int_seeds_build_no_generator_where_no_route_draws(monkeypatch):
    # the range-product readout, the "no product" bound, the coordinate
    # 2x3 scan and the product-bound shortcut draw nothing, so an int
    # seed passes through them and never becomes a Generator; the
    # certificates are byte for byte those of a caller's Generator
    rng = np.random.default_rng(31)
    states = [make_tiles_upb()]
    for _ in range(3):
        prod = np.kron(complex_gaussian(rng, 3), complex_gaussian(rng, 3))
        states += [random_product_sum(3, 3, 4, rng), random_rank_r_state(3, 3, 4, rng),
                   BipartiteState.from_vectors(
                       3, 3, [prod] + [complex_gaussian(rng, 9) for _ in range(3)])]
    calls = ([(decide_rank4, s) for s in states] + [(classify_state, s) for s in states]
             + [(classify_checkerboard, random_checkerboard(rng)[1]) for _ in range(4)])
    above_bound = random_rank_r_state(2, 2, 3, rng)
    expected = [pickle.dumps(func(s, rng=np.random.default_rng(seed)))
                for seed, (func, s) in enumerate(calls)]
    frp = criteria.full_rank_property(above_bound, rng=np.random.default_rng(5))
    assert frp.shortcut == "rank-above-product-bound"

    def refuse(*args, **kwargs):
        raise AssertionError("a route that draws nothing built a Generator")
    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert [pickle.dumps(func(s, rng=seed)) for seed, (func, s) in enumerate(calls)] == expected
    assert criteria.full_rank_property(above_bound, rng=5) == frp
