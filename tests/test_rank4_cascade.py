"""Targeted fixtures for the irreducible 3x3 rank-4 states that the
coordinate 2x3 scan misses, which the eigen-frames of rho^G decide when
NPT, and for the range-product solve that decides PPT ones.

The late-stage, zeta-zero and dependent-pencil states are assembled in
the gauge of the rank-4 theorem's constructive proof, next to a product
anchor; the sector fixtures have a rank-1 B sector.  A generic state
exits at the 2x3 scan, so the scan is made to miss on them; what
matters is that every exit produces a validated certificate.
"""

import inspect
import sys
from itertools import combinations

import numpy as np
import pytest

from entcert import certificates, criteria, rank4
from entcert.analyze import classify_state
from entcert.certificates import (
    Distillable,
    Separable,
    UndecidableError,
    validate_certificate,
    validate_witness,
)
from entcert.criteria import certify_pure_plus_sigma, is_ppt
from entcert.families import make_tiles_upb
from entcert.linalg import kron, numerical_rank, rel_residual
from entcert.product_search import Subspace, find_product_vector
from entcert.random_states import (
    complex_gaussian,
    random_invertible,
    random_product_sum,
    random_rank_r_state,
)
from entcert.rank4 import (
    _range_product_basis,
    decide_rank4,
    separable_decomposition,
)
from entcert.states import BipartiteState, PureState, apply_local
from entcert.structure import aggregate, common_kernel_distill, decompose_b_direct

from conftest import miss_3x3_scan, reducible_b_state


def late_stage_state(u3=0, v1=0, v3=0, w1=0, w2=0,
                     d2=0.7, d3=-0.4, eps=0.9, zeta=1.1):
    """An NPT state in the proof gauge, with the product (1, -d2*, -d3*)
    (x) |0> in its range, for a nonzero knob; all knobs zero give a
    separable B-direct sum."""
    c1 = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 0], [u3, 0, 0]], complex)
    c2 = np.array([[-d2, 0, 0], [v1, 0, 0], [0, 0, 1], [v3, 0, 0]], complex)
    c3 = np.array([[-d3, 0, 0], [w1, 0, 0], [w2, 0, 0], [0, eps, zeta]], complex)
    w = np.hstack([c1, c2, c3])
    return BipartiteState(3, 3, w.conj().T @ w)


KNOBS = ["u3", "v1", "v3", "w1", "w2"]


def zeta_zero_state():
    c1 = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 0]], complex)
    c2 = np.array([[-0.7, 0, 0], [0, 0, 0], [0, 0, 1], [0, 0, 0]], complex)
    c3 = np.array([[0.4, 0, 0], [0, 0, 0], [0.8, 0, 0], [0, 0.9, 0]], complex)
    w = np.hstack([c1, c2, c3])
    return BipartiteState(3, 3, w.conj().T @ w)


def dependent_pencil_state():
    """An anchor product plus three products whose second and third
    A-components coincide, moved off product form: the (D2, D3) pencil
    of the proof gauge is dependent."""
    anchor = np.kron(np.array([1.0, 0, 0]), np.array([1.0, 0, 0]))
    alphas = [np.array([0.5, 1.0, 1.0]), np.array([-0.3, 2.0, 2.0]),
              np.array([0.8, -1.0, -1.0])]
    betas = [np.array([0, 1.0, 0.2]), np.array([0, -0.4, 1.0]),
             np.array([0, 0.6, 0.9])]
    vecs = [anchor.astype(complex)]
    rng = np.random.default_rng(5)
    for al, be in zip(alphas, betas):
        vec = np.kron(al, be).astype(complex)
        vec[0] += 0.2 * rng.standard_normal()
        vec[3] += 0.2 * rng.standard_normal()
        vecs.append(vec)
    return BipartiteState.from_vectors(3, 3, vecs)


def sector_fixture(rng):
    """A rank-1 block plus two generic ones, under random ILOs:
    irreducible, with a rank-1 B sector."""
    c1 = np.zeros((4, 3), complex)
    c1[0, 0] = 1.0
    w = np.hstack([c1, complex_gaussian(rng, (4, 3)), complex_gaussian(rng, (4, 3))])
    return apply_local(BipartiteState(3, 3, w.conj().T @ w),
                       random_invertible(3, rng), random_invertible(3, rng))


def test_knob_free_gauge_state_is_separable_by_its_range_products():
    # with every knob at zero the gauge state is a separable B-direct sum
    # (row 0 alone holds B-level 0).  Its four range products diagonalize
    # it, so the PPT range search settles it before the reducibility test
    state = late_stage_state()
    assert is_ppt(state)[0]
    verdict = decide_rank4(state, rng=3)
    assert isinstance(verdict.outcome, Separable)
    assert verdict.trail == ("product-in-range", "range-product-basis")
    products = range_products(state)
    assert len(products) == 4
    outcome = Separable(products=tuple(range_product_basis(state, products)))
    assert validate_certificate(state, outcome)["reconstruction_residual"] < 1e-12


def test_decide_rank4_rank1_sector_fixtures(rng, monkeypatch):
    # irreducible, so once the 2x3 scan misses, the eigen-frames decide
    miss_3x3_scan(monkeypatch)
    for _ in range(5):
        state = sector_fixture(rng)
        assert state.rank() == 4
        verdict = decide_rank4(state, rng=rng)
        assert isinstance(verdict.outcome, Distillable)
        assert verdict.trail == ("eigen-frames",)
        assert validate_witness(state, verdict.outcome.witness) < -1e-10


def test_generic_rank4_state_runs_no_enumeration(monkeypatch):
    # an NPT state runs no range-product search, so no enumeration either.
    # The generic state passes (a) once the 2x3 scan misses, and raises
    # once the eigen-frames are stubbed to miss as well
    miss_3x3_scan(monkeypatch)
    monkeypatch.setattr(rank4, "_eigen_frame_witness", lambda state: None)
    calls = []
    search = rank4.rank_one_in_span
    monkeypatch.setattr(rank4, "rank_one_in_span",
                        lambda *a, **kw: calls.append(a[0].shape) or search(*a, **kw))
    state = random_rank_r_state(3, 3, 4, np.random.default_rng(8))
    with pytest.raises(UndecidableError, match="coordinate 2x3 scan nor the eigen-frames"):
        decide_rank4(state, rng=8)
    assert calls == []


# NPT 3x3 rank-4 states that the 2x3 scan decides, each with the decision
# seeds to run: the proof-gauge states (a small knob leaves one close to
# the separable knob-free state), the sector fixtures and planted states
# (corpus_state(10, 4) is the one whose range product sits just off the
# range).  Once the scan misses, the eigen-frames decide every irreducible
# one; the zeta-zero state is a B-direct sum
EIGEN_FRAMES = ("eigen-frames",)
MISSED_BY_THE_SCAN = {
    **{f"late-stage-{knob}-{value}": (
        lambda knob=knob, value=value: late_stage_state(**{knob: value}), (3,), EIGEN_FRAMES)
       for knob in KNOBS for value in (1e-5, 1e-3, 0.05, 0.8, 3.0)},
    "zeta-zero": (zeta_zero_state, (3,), ("reducible-b",)),
    "dependent-pencil": (dependent_pencil_state, (3,), EIGEN_FRAMES),
    **{f"sector-{i}": (lambda i=i: sector_fixture(np.random.default_rng(41 + i)), (i,),
                       EIGEN_FRAMES)
       for i in range(5)},
    "planted-1-1": (lambda: corpus_state(1, 1), (1,), EIGEN_FRAMES),
    "planted-10-4": (lambda: corpus_state(10, 4), (188, 73479951), EIGEN_FRAMES),
}


@pytest.mark.parametrize("name", [*MISSED_BY_THE_SCAN, "masked-a-direct-sum"])
def test_npt_states_the_scan_misses_decide(name, monkeypatch):
    miss_3x3_scan(monkeypatch)
    if name == "masked-a-direct-sum":  # with its reducibility test skipped
        monkeypatch.setattr(rank4, "_reducible_verdict", lambda *args: None)
        build, seeds, trail = masked_a_direct_sum, (3,), EIGEN_FRAMES
    else:
        build, seeds, trail = MISSED_BY_THE_SCAN[name]
    state = build()
    assert state.rank() == 4 and not is_ppt(state)[0]
    for seed in seeds:
        verdict = decide_rank4(state, rng=seed)
        assert isinstance(verdict.outcome, Distillable)
        assert verdict.trail == trail
        assert validate_witness(state, verdict.outcome.witness) < -1e-10


def test_an_npt_state_runs_no_range_product_search(monkeypatch):
    # only the PPT branch searches the range (step (0)); an NPT state the
    # scan misses goes from reducibility straight to the eigen-frames
    def forbidden(*args, **kwargs):
        raise AssertionError("an NPT state searched a span for products")

    miss_3x3_scan(monkeypatch)
    monkeypatch.setattr(rank4, "rank_one_in_span", forbidden)
    for build, seeds, trail in MISSED_BY_THE_SCAN.values():
        assert decide_rank4(build(), rng=seeds[0]).trail == trail


@pytest.mark.parametrize("knob", KNOBS)
def test_eigen_frame_witness_scales_with_the_state(knob, monkeypatch):
    # the eigen-frames read eigenvectors, which do not move under rho ->
    # 2^k rho, so the witness vector is the same and its value is scaled
    # by 2^k, for odd k as for even
    miss_3x3_scan(monkeypatch)
    state = late_stage_state(**{knob: 0.8})
    base = decide_rank4(state, rng=3).outcome.witness
    for k in range(-40, 41):
        scaled = BipartiteState(3, 3, 2.0 ** k * state.matrix, state.tol)
        witness = decide_rank4(scaled, rng=3).outcome.witness
        assert np.array_equal(witness.vector, base.vector)
        assert witness.value / 2.0 ** k == pytest.approx(base.value, rel=1e-13)


# A seeded 3x3 rank-4 corpus, in cycles of eight: sums of 4 random
# products, states spanned by a planted product and 3 random vectors, the
# tiles state (built without draws) and generic states.  Each state is
# followed by one draw of the seed its decision call gets.
CORPUS_CYCLE = ["separable", "planted", "tiles", "separable", "planted",
                "generic", "separable", "planted"]


def corpus_state(seed, index):
    """Replay the corpus of `seed` up to item `index` and return it."""
    rng = np.random.default_rng(seed)
    state = None
    for i in range(index + 1):
        kind = CORPUS_CYCLE[i % len(CORPUS_CYCLE)]
        if kind == "separable":
            state = random_product_sum(3, 3, 4, rng)
        elif kind == "planted":
            prod = np.kron(complex_gaussian(rng, 3), complex_gaussian(rng, 3))
            vecs = [prod] + [complex_gaussian(rng, 9) for _ in range(3)]
            state = BipartiteState.from_vectors(3, 3, vecs)
        elif kind == "generic":
            state = random_rank_r_state(3, 3, 4, rng)
        else:
            state = None
        rng.integers(1 << 31)
    return state


def range_products(state):
    sub = Subspace(3, 3, state.range_basis().T, state.tol)
    return find_product_vector(sub, rng=0).products


def range_product_basis(state, products):
    """_range_product_basis on the (a, b) pairs of search products."""
    return _range_product_basis(state.matrix, state.tol, [(a, b) for a, b, _ in products], 4)


def test_rank4_corpus_state_with_a_fragile_anchor_always_decides():
    # the cascade from one of the four range products of this separable
    # state contradicted itself for about one cascade rng in ten; the
    # range-product solve does not depend on an anchor
    state = corpus_state(4, 315)
    for seed in range(400):
        verdict = decide_rank4(state, rng=seed)
        assert isinstance(verdict.outcome, Separable)
        assert verdict.trail == ("product-in-range", "range-product-basis")
    # each of the four anchors of this one left the cascade a relative d1
    # of 4.6e-5, next to its zero test
    verdict = decide_rank4(corpus_state(1, 40), rng=1165)
    assert isinstance(verdict.outcome, Separable)
    assert verdict.trail == ("product-in-range", "range-product-basis")


def test_range_product_basis_is_none_without_four_diagonalizing_products(rng):
    state = random_product_sum(3, 3, 4, rng)
    products = range_products(state)
    assert len(products) == 4
    outcome = Separable(products=tuple(range_product_basis(state, products)))
    assert validate_certificate(state, outcome)["reconstruction_residual"] < 1e-12
    assert range_product_basis(state, products[:3]) is None
    # three range products and one product from outside the range: their
    # weighted projectors leave the state's fourth direction unbuilt
    stray = (complex_gaussian(rng, 3), complex_gaussian(rng, 3), None)
    assert range_product_basis(state, products[:3] + (stray,)) is None


def pinv_readout(matrix, tol, pairs, r):
    """_range_product_basis by np.linalg.pinv and a separate rank test:
    the reference whose bytes its one-SVD readout must keep."""
    units = [(a / np.linalg.norm(kron(a, b)), b) for a, b in pairs]
    for subset in combinations(units, r):
        e = np.column_stack([kron(a, b) for a, b in subset])
        if numerical_rank(e, tol)[0] < r:
            continue
        e_pinv = np.linalg.pinv(e)
        weights = np.real(np.diag(e_pinv @ matrix @ e_pinv.conj().T))
        if (np.all(weights > 0)
                and rel_residual((e * weights) @ e.conj().T, matrix) <= tol.residual_tol):
            return [(np.sqrt(w) * a, b) for w, (a, b) in zip(weights, subset)]
    return None


@pytest.mark.parametrize("shape, terms", [((3, 3), 4), ((2, 3), 5)])
def test_range_product_basis_is_the_pinv_formula_bit_for_bit(monkeypatch, shape, terms):
    # one SVD per subset gives the rank test and the pseudo-inverse; the
    # products must carry the bytes of np.linalg.pinv's
    readouts = []

    def checked(matrix, tol, pairs, r):
        got, want = _range_product_basis(matrix, tol, pairs, r), pinv_readout(matrix, tol, pairs, r)
        assert (got is None) == (want is None)
        for (a, b), (a_ref, b_ref) in zip(got or (), want or ()):
            assert a.tobytes() == a_ref.tobytes() and b.tobytes() == b_ref.tobytes()
        readouts.append((matrix, tol, r, got))
        return got

    monkeypatch.setattr(rank4, "_range_product_basis", checked)
    rng = np.random.default_rng(5)
    for _ in range(8):
        state = random_product_sum(*shape, terms, rng)
        assert isinstance(classify_state(state, rng=rng), Separable)
    assert len(readouts) == 8 and all(got is not None for *_, got in readouts)
    # a stray product ahead of the readout's own: the subsets holding it
    # are tried first and fail, and the last one rebuilds the matrix
    matrix, tol, r, got = readouts[-1]
    stray = (complex_gaussian(rng, shape[0]), complex_gaussian(rng, shape[1]))
    assert checked(matrix, tol, [stray] + got, r) is not None


def test_irreducible_ppt_state_whose_products_diagonalize_nothing_names_the_failure(
        rng, monkeypatch):
    # with the basis solve failing, a separable state passes (a), after
    # which a PPT state with range products gets no verdict: under an
    # ill-conditioned ILO an NPT state tests as PPT and lands here too
    monkeypatch.setattr(rank4, "_range_product_basis", lambda *a: None)
    state = random_product_sum(3, 3, 4, rng)
    with pytest.raises(UndecidableError, match="range-product-basis: no 4 of the 4"):
        decide_rank4(state, rng=rng)


def block_plus_product_state(rng, with_sum):
    """Three products inside a 2x2 block plus one generic product, and
    optionally the entangled sum of the first two, under random ILOs.
    The range holds every product of a 2-dimensional family."""
    def in_block():
        return np.append(complex_gaussian(rng, 2), 0.0)

    vecs = [np.kron(in_block(), in_block()) for _ in range(3)]
    vecs.append(np.kron(complex_gaussian(rng, 3), complex_gaussian(rng, 3)))
    if with_sum:
        vecs.append(vecs[0] + vecs[1])
    state = BipartiteState.from_vectors(3, 3, vecs)
    return apply_local(state, random_invertible(3, rng), random_invertible(3, rng))


def test_rank4_with_infinitely_many_range_products_is_never_misjudged(rng):
    kinds = set()
    for i in range(40):
        state = block_plus_product_state(rng, with_sum=i % 2 == 1)
        assert state.rank() == 4
        ppt = is_ppt(state)[0]
        kinds.add(ppt)
        try:
            verdict = decide_rank4(state, rng=rng)
        except RuntimeError as exc:
            assert "range-product-basis" in str(exc)
            continue
        expected = Separable if ppt else Distillable
        assert isinstance(verdict.outcome, expected)
        validate_certificate(state, verdict.outcome)
    assert kinds == {True, False}


# corpus 1: items 1, 4 and 7 are planted NPT states, item 5 is generic
NPT_ITEMS = [(1, 1), (1, 4), (1, 5), (1, 7)]


def count_checks(monkeypatch):
    """Count validate_certificate calls made through every entcert module
    that binds it; returns the list of checked certificates."""
    checked, check = [], certificates.validate_certificate
    for name, module in list(sys.modules.items()):
        if name.startswith("entcert") and vars(module).get("validate_certificate") is check:
            monkeypatch.setattr(module, "validate_certificate",
                                lambda s, c: checked.append(c) or check(s, c))
    return checked


# (state, public call, scan missed, trail, checks): each public call checks
# the certificate it returns once, against its own argument, and the
# components of a B-direct split once each in their own classify_state call
CHECKED_ROUTES = {
    "reducible-b": (lambda: reducible_b_state(np.random.default_rng(20260810)),
                    decide_rank4, True, ("reducible-b",), 3),
    "sector-rank-1": (lambda: sector_fixture(np.random.default_rng(41)), decide_rank4, True,
                      ("eigen-frames",), 1),
    "cascade": (lambda: corpus_state(1, 1), decide_rank4, True, ("eigen-frames",), 1),
    "separable-decomposition-3x3": (lambda: corpus_state(1, 0), separable_decomposition,
                                    False, None, 1),
    "max-local-rank-4": (lambda: random_product_sum(2, 4, 4, np.random.default_rng(2)),
                         decide_rank4, False, ("max-local-rank-4", "ppt-rank-max"), 1),
    "range-product-basis": (lambda: corpus_state(1, 0), decide_rank4, False,
                            ("product-in-range", "range-product-basis"), 1),
    "tiles": (make_tiles_upb, decide_rank4, False, ("no-product-in-range",), 0),
}
CHECKED_ROUTES.update({
    f"schmidt2-search-{seed}-{index}": (lambda seed=seed, index=index: corpus_state(seed, index),
                                        decide_rank4, False, ("schmidt2-search",), 1)
    for seed, index in NPT_ITEMS})


@pytest.mark.parametrize("route", CHECKED_ROUTES)
def test_each_route_checks_its_verdict_once(route, monkeypatch):
    build, call, miss, trail, checks = CHECKED_ROUTES[route]
    state = build()
    if miss:
        miss_3x3_scan(monkeypatch)
    checked = count_checks(monkeypatch)
    result = call(state, rng=3)
    assert len(checked) == checks
    if trail is None:  # separable_decomposition returns the products
        validate_certificate(state, Separable(products=tuple(result)))
    else:
        assert result.trail == trail
        validate_certificate(state, result.outcome)


def test_coordinate_2x3_route_runs_no_later_step(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the coordinate 2x3 route ran a later step")

    for name in ("_reducible_verdict", "decompose_b_direct_matrix", "rank_one_in_span",
                 "_eigen_frame_witness"):
        monkeypatch.setattr(rank4, name, forbidden)
    for seed, index in NPT_ITEMS:
        assert decide_rank4(corpus_state(seed, index), rng=index).trail == ("schmidt2-search",)


def test_when_the_2x3_scan_misses_the_tree_decides_planted_and_not_generic(monkeypatch):
    scanned = miss_3x3_scan(monkeypatch)
    planted = corpus_state(1, 1)
    verdict = decide_rank4(planted, rng=1)
    assert verdict.trail == ("eigen-frames",)
    assert validate_witness(planted, verdict.outcome.witness) < -1e-10
    assert len(scanned) == 1
    scanned.clear()
    # reducibility leaves the generic item to the eigen-frames, the last step
    generic = corpus_state(1, 5)
    with monkeypatch.context() as mp:
        mp.setattr(rank4, "_eigen_frame_witness", lambda state: None)
        with pytest.raises(UndecidableError, match="coordinate 2x3 scan nor the eigen-frames"):
            decide_rank4(generic, rng=5)
    assert len(scanned) == 1
    verdict = decide_rank4(generic, rng=5)
    assert verdict.trail == ("eigen-frames",)
    assert validate_witness(generic, verdict.outcome.witness) < -1e-10
    assert len(scanned) == 2


@pytest.mark.parametrize("c", [1e-12, 1e-6, 1e6, 1e12])
def test_rank4_verdict_type_does_not_depend_on_the_scale_of_the_state(c):
    for index in range(3 * len(CORPUS_CYCLE)):
        state = corpus_state(3, index) or make_tiles_upb()
        expected = type(decide_rank4(state, rng=index).outcome)
        scaled = BipartiteState(3, 3, c * state.matrix, state.tol)
        assert isinstance(decide_rank4(scaled, rng=index).outcome, expected)


def lift_sites():
    """Every call of lifted_value in the library, as (module, line)."""
    sites = set()
    for mod in (criteria,):
        lines, _ = inspect.getsourcelines(mod)
        sites.update((mod.__name__, no) for no, line in enumerate(lines, 1)
                     if "lifted_value(" in line)
    return sites


def outcome(state):
    return decide_rank4(state, rng=3).outcome


def masked_a_direct_sum():
    """A product on A-levels {0, 2} (x) |0> plus an NPT rank-3 state on
    A-levels {1, 2}, which the reducibility test splits.  The product's
    part on levels 1, 2 makes the (1, 2) block of rho^G PSD."""
    e = np.eye(3)
    psi = (np.kron(e[1], e[0]) + np.kron(e[2], e[1])) / np.sqrt(2)
    return BipartiteState.from_vectors(3, 3, [psi, np.kron(e[1], e[1]), np.kron(e[2], e[2]),
                                              np.kron(e[0] + e[2], e[0])])


def past_reducibility(state):
    # an A-direct sum walked past step (a) is left to the eigen-frames
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rank4, "_reducible_verdict", lambda *args: None)
        return outcome(state)


def lifted_witness_cases():
    """(state, verdict) pairs whose witnesses are lifted onto state by
    each route that lifts one; verdict is the certificate or the call
    that returns it."""
    rng = np.random.default_rng(77)
    for knob in KNOBS:  # eigen-frames, once the scan misses
        yield late_stage_state(**{knob: 0.8}), outcome
    yield sector_fixture(rng), outcome
    yield corpus_state(1, 1), outcome
    yield reducible_b_state(rng), outcome  # reducible-b: a Frame lift
    yield random_rank_r_state(3, 4, 4, rng), outcome  # max-local-rank-4, NPT
    yield random_rank_r_state(3, 2, 2, rng), classify_state  # a swapped frame
    yield (apply_local(masked_a_direct_sum(), random_invertible(3, rng),
                       random_invertible(3, rng)), past_reducibility)
    state = common_kernel_5x3_state()
    yield state, common_kernel_distill(state, rng=5)  # Frame.lift_witness through an ILO
    bell = np.zeros(9, complex)
    bell[0] = bell[4] = 1.0
    prod = np.kron(complex_gaussian(rng, 3), np.array([0, 0, 1.0]))
    state = apply_local(BipartiteState.from_vectors(3, 3, [bell, prod]),
                        random_invertible(3, rng), random_invertible(3, rng))
    decomp = decompose_b_direct(state)
    yield state, aggregate(decomp, [classify_state(c, rng=rng) for c in decomp.components])
    for _ in range(3):  # a 2xN projection through an ILO
        a_basis = complex_gaussian(rng, (3, 1))
        sigma = BipartiteState.from_vectors(3, 3, [np.kron(a_basis[:, 0], complex_gaussian(rng, 3))
                                                   for _ in range(2)])
        psi = PureState(3, 3, complex_gaussian(rng, 9))
        yield (BipartiteState(3, 3, psi.projector() + sigma.matrix),
               certify_pure_plus_sigma(psi, sigma))


def common_kernel_5x3_state():
    # the kernel holds C^4 (x) |0>
    vecs = complex_gaussian(np.random.default_rng(5), (6, 15))
    vecs[:, [0, 3, 6, 9]] = 0.0
    return BipartiteState.from_vectors(5, 3, list(vecs))


def test_every_lifted_witness_carries_the_value_of_the_callers_state(monkeypatch):
    # <psi| tau^G |psi> = <phi| rho^G |phi> for phi the lift of psi, so a
    # lifted witness's value is its old one times ||psi||^2 / ||phi||^2;
    # every call of lifted_value in the library is exercised here
    miss_3x3_scan(monkeypatch)
    seen = set()
    for mod in (criteria,):
        def record(witness, phi, name=mod.__name__):
            seen.add((name, sys._getframe(1).f_lineno))
            return certificates.lifted_value(witness, phi)
        monkeypatch.setattr(mod, "lifted_value", record)
    cases = 0
    for state, cert in lifted_witness_cases():
        if callable(cert):
            cert = cert(state) if cert is not classify_state else cert(state, rng=3)
        assert isinstance(cert, Distillable)
        value = validate_witness(state, cert.witness)
        assert cert.witness.value == pytest.approx(value, rel=1e-10, abs=0)
        cases += 1
    assert cases == 16
    assert seen == lift_sites()
