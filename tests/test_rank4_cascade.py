"""Targeted fixtures for the deep branches of the rank-4 gauge cascade,
which decides NPT states, and for the range-product solve that
decides PPT ones.

Generic rank-4 states exit the cascade at its first projection test, so
these states are assembled directly in (near) proof gauge to push the
walk past it, to the 2x3 scans of the gauge.  The cascade re-derives
its own gauge; what matters is that every exit produces a validated
certificate.
"""

import copy
import inspect
import sys

import numpy as np
import pytest

from entcert import certificates, criteria, product_search, rank4, structure
from entcert.analyze import classify_state
from entcert.certificates import (
    Distillable,
    Separable,
    UndecidableError,
    validate_certificate,
    validate_witness,
)
from entcert.criteria import Frame, certify_pure_plus_sigma, is_ppt
from entcert.families import make_tiles_upb
from entcert.linalg import rel_residual
from entcert.product_search import Subspace, find_product_vector
from entcert.random_states import (
    as_rng,
    complex_gaussian,
    random_invertible,
    random_product_sum,
    random_rank_r_state,
)
from entcert.rank4 import (
    _peel_anchor,
    _product_cascade,
    _range_product_basis,
    decide_rank4,
    separable_decomposition,
)
from entcert.states import BipartiteState, PureState, apply_local
from entcert.structure import aggregate, common_kernel_distill, decompose_b_direct

from conftest import miss_3x3_scan, reducible_b_state


def late_stage_state(u3=0, v1=0, v3=0, w1=0, w2=0,
                     d2=0.7, d3=-0.4, eps=0.9, zeta=1.1):
    c1 = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 0], [u3, 0, 0]], complex)
    c2 = np.array([[-d2, 0, 0], [v1, 0, 0], [0, 0, 1], [v3, 0, 0]], complex)
    c3 = np.array([[-d3, 0, 0], [w1, 0, 0], [w2, 0, 0], [0, eps, zeta]], complex)
    w = np.hstack([c1, c2, c3])
    state = BipartiteState(3, 3, w.conj().T @ w)
    anchor_a = np.array([1, -np.conj(d2), -np.conj(d3)])
    anchor_b = np.array([1.0, 0, 0], complex)
    return state, anchor_a, anchor_b


@pytest.mark.parametrize("knob", ["u3", "v1", "v3", "w1", "w2"])
def test_cascade_deep_distillable_branches(knob):
    state, aa, bb = late_stage_state(**{knob: 0.8})
    assert state.rank() == 4
    ppt, _ = is_ppt(state)
    assert not ppt
    verdict = _product_cascade(state, aa, bb, as_rng(3), ())
    assert isinstance(verdict.outcome, Distillable)
    assert verdict.trail == ("gauge-pair-npt",)
    assert validate_witness(state, verdict.outcome.witness) < -1e-10


@pytest.mark.parametrize("knob", ["u3", "v1", "v3", "w1", "w2"])
def test_cascade_second_scan_decides_when_the_first_misses(knob, monkeypatch):
    # the first scan of the gauge decides every late-stage state, so it is
    # made to miss; the scan after the shift t must then decide.  The
    # negative trivial submatrices of u3 and w1 lie in the (1, 2) plane,
    # the one t changes
    scans, scan = [], rank4.schmidt2_witness

    def first_misses(state):
        if (state.dim_a, state.dim_b) != (3, 3):
            return scan(state)  # step 2's projected 3x2 state
        scans.append(state)
        return None if len(scans) == 1 else scan(state)

    monkeypatch.setattr(rank4, "schmidt2_witness", first_misses)
    state, aa, bb = late_stage_state(**{knob: 0.8})
    verdict = _product_cascade(state, aa, bb, as_rng(3), ())
    assert len(scans) == 2
    assert isinstance(verdict.outcome, Distillable)
    assert verdict.trail == ("shifted-gauge-pair-npt",)
    assert validate_witness(state, verdict.outcome.witness) < -1e-10


def test_cascade_separable_terminus_from_gauge_state():
    # with every knob at zero the gauge state is a separable B-direct sum
    # (row 0 alone holds B-level 0).  Its four range products diagonalize
    # it, so the PPT range search settles it before the reducibility
    # test, and the NPT-only cascade walked to its terminus reports the
    # contradiction
    state, aa, bb = late_stage_state()
    assert is_ppt(state)[0]
    verdict = decide_rank4(state, rng=3)
    assert isinstance(verdict.outcome, Separable)
    assert verdict.trail == ("product-in-range", "range-product-basis")
    products = range_products(state)
    assert len(products) == 4
    outcome = Separable(products=tuple(_range_product_basis(state, products)))
    assert validate_certificate(state, outcome)["reconstruction_residual"] < 1e-12
    with pytest.raises(RuntimeError, match="terminus"):
        _product_cascade(state, aa, bb, as_rng(3), ())


def test_cascade_zeta_zero_variant():
    c1 = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 0]], complex)
    c2 = np.array([[-0.7, 0, 0], [0, 0, 0], [0, 0, 1], [0, 0, 0]], complex)
    c3 = np.array([[0.4, 0, 0], [0, 0, 0], [0.8, 0, 0], [0, 0.9, 0]], complex)
    w = np.hstack([c1, c2, c3])
    state = BipartiteState(3, 3, w.conj().T @ w)
    verdict = _product_cascade(
        state, np.array([1.0, -0.7, 0.4], complex),
        np.array([1.0, 0, 0], complex), as_rng(3), ())
    assert isinstance(verdict.outcome, Distillable)
    assert validate_witness(state, verdict.outcome.witness) < -1e-10


def test_cascade_dependent_pencil_reroutes_to_sector_path():
    # tau products whose second and third A-components coincide, so the
    # (D2, D3) pencil is dependent and the walk re-enters the rank-1
    # sector machinery
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
    state = BipartiteState.from_vectors(3, 3, vecs)
    assert state.rank() == 4
    verdict = _product_cascade(
        state, np.array([1.0, 0, 0], complex), np.array([1.0, 0, 0], complex),
        as_rng(3), ())
    assert verdict.trail[0] == "d-pencil-dependent"
    assert isinstance(verdict.outcome, Distillable)
    assert validate_witness(state, verdict.outcome.witness) < -1e-10


def test_decide_rank4_rank1_sector_fixtures(rng, monkeypatch):
    # a rank-1 block plus generic ones: irreducible, so once the 2x3
    # scan misses, the sector path must end in a trivial submatrix
    miss_3x3_scan(monkeypatch)
    for _ in range(5):
        c1 = np.zeros((4, 3), complex)
        c1[0, 0] = 1.0
        w = np.hstack([c1, complex_gaussian(rng, (4, 3)),
                       complex_gaussian(rng, (4, 3))])
        state = BipartiteState(3, 3, w.conj().T @ w)
        state = apply_local(state, random_invertible(3, rng),
                            random_invertible(3, rng))
        assert state.rank() == 4
        verdict = decide_rank4(state, rng=rng)
        assert isinstance(verdict.outcome, Distillable)
        assert "sector-rank-1" in verdict.trail
        assert validate_witness(state, verdict.outcome.witness) < -1e-10


def sector_fixture(rng):
    c1 = np.zeros((4, 3), complex)
    c1[0, 0] = 1.0
    w = np.hstack([c1, complex_gaussian(rng, (4, 3)), complex_gaussian(rng, (4, 3))])
    return apply_local(BipartiteState(3, 3, w.conj().T @ w),
                       random_invertible(3, rng), random_invertible(3, rng))


def test_sector_rank1_verdicts_do_not_depend_on_the_second_compound(monkeypatch):
    # a rank-1 sector is read off the null space of the second compound,
    # which draws no random numbers.  With the screen off the enumeration
    # finds the same direction; run on a copy of the caller's rng, it
    # leaves the later draws of the decision as they were, so the two
    # verdicts carry the same witness (the 2x3 scan misses, so that these
    # NPT states reach the sector test)
    miss_3x3_scan(monkeypatch)
    rng = np.random.default_rng(41)
    states = [sector_fixture(rng) for _ in range(5)]
    sectors = []
    search = rank4.rank_one_in_span
    monkeypatch.setattr(rank4, "rank_one_in_span",
                        lambda *a, **kw: sectors.append(search(*a, **kw)) or sectors[-1])
    screened = [decide_rank4(s, rng=i) for i, s in enumerate(states)]
    enumerate_rank_one = product_search._enumerate_rank_one
    monkeypatch.setattr(product_search, "_compound_screen", lambda work, tau: (None, None, None))
    monkeypatch.setattr(product_search, "_enumerate_rank_one",
                        lambda work, rng, tol: enumerate_rank_one(work, copy.deepcopy(rng), tol))
    unscreened = [decide_rank4(s, rng=i) for i, s in enumerate(states)]
    assert all("sector-rank-1" in v.trail for v in unscreened)
    assert ([(type(v.outcome), v.trail) for v in screened]
            == [(type(v.outcome), v.trail) for v in unscreened])
    assert [f.method for f in sectors[:5]] == ["second compound null space"] * 5
    for mine, theirs in zip(sectors[:5], sectors[5:]):
        x, y = mine.coefficients, theirs.coefficients
        assert abs(np.vdot(x, y)) >= (1 - 1e-6) * np.linalg.norm(x) * np.linalg.norm(y)
    for mine, theirs in zip(screened, unscreened):
        x, y = mine.outcome.witness, theirs.outcome.witness
        assert type(x) is type(y)
        assert abs(np.vdot(x.vector, y.vector)) >= (
            (1 - 1e-6) * np.linalg.norm(x.vector) * np.linalg.norm(y.vector))
        assert x.value == pytest.approx(y.value, rel=1e-8)


def test_generic_rank4_state_runs_no_enumeration(monkeypatch):
    # the bound proves step (b)'s "no rank-1 sector", and the null vector
    # of the range's second compound (9 minors against 10 monomials)
    # proves step (c)'s "no product in the range": no enumeration runs.
    # The state reaches (b) once the 2x3 scan misses, and ends at (d),
    # where the projection sweep is stubbed to miss as well
    miss_3x3_scan(monkeypatch)
    monkeypatch.setattr(rank4, "_structured_projection_sweep", lambda state: None)
    calls = []
    enumerate_rank_one = product_search._enumerate_rank_one
    monkeypatch.setattr(product_search, "_enumerate_rank_one",
                        lambda *a: calls.append(a[0].shape) or enumerate_rank_one(*a))
    state = random_rank_r_state(3, 3, 4, np.random.default_rng(8))
    with pytest.raises(UndecidableError, match="no product vector in its range"):
        decide_rank4(state, rng=8)
    assert calls == []


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


def test_small_d1_takes_the_zero_branch_only_with_a_rank1_sector():
    # one anchor of this separable state leaves d1 at 4.6e-5 relative:
    # "zero" for the sqrt(residual_tol) test, yet its sector is not rank 1,
    # so the walk must go on to the terminus rather than into the sector
    # path (which would raise "claimed rank-1 sector direction is not rank 1")
    state = Frame.local(corpus_state(1, 40), orient=False).work
    products = range_products(state)
    assert len(products) == 4
    for a, b, _ in products:
        with pytest.raises(RuntimeError, match="terminus"):
            _product_cascade(state, a, b, as_rng(1165), ())


def test_rank4_corpus_state_with_a_fragile_anchor_always_decides():
    # the cascade from one of the four range products of this separable
    # state contradicted itself for about one cascade rng in ten; the
    # range-product solve does not depend on an anchor
    state = corpus_state(4, 315)
    for seed in range(400):
        verdict = decide_rank4(state, rng=seed)
        assert isinstance(verdict.outcome, Separable)
        assert verdict.trail == ("product-in-range", "range-product-basis")


def test_range_product_basis_is_none_without_four_diagonalizing_products(rng):
    state = random_product_sum(3, 3, 4, rng)
    products = range_products(state)
    assert len(products) == 4
    outcome = Separable(products=tuple(_range_product_basis(state, products)))
    assert validate_certificate(state, outcome)["reconstruction_residual"] < 1e-12
    assert _range_product_basis(state, products[:3]) is None
    # three range products and one product from outside the range: Lambda
    # is not diagonal
    stray = (complex_gaussian(rng, 3), complex_gaussian(rng, 3), None)
    assert _range_product_basis(state, products[:3] + (stray,)) is None


def test_irreducible_ppt_state_whose_products_diagonalize_nothing_names_the_failure(
        rng, monkeypatch):
    # with the basis solve failing, a separable state passes (a) and (b)
    # and reaches (c), where a PPT state with range products is an error
    monkeypatch.setattr(rank4, "_range_product_basis", lambda *a: None)
    state = random_product_sum(3, 3, 4, rng)
    with pytest.raises(RuntimeError, match="range-product-basis: no 4 of the 4"):
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


def test_anchor_peel_projects_a_product_just_off_the_range():
    # a product accepted by its rank-1 defect may sit slightly off R(rho);
    # rho - lam e e^dag then had a +-lam d eigenvalue pair, which passed
    # the rank cutoff as a fifth summand from d ~ 1e-12 on (this corpus
    # state failed so for about one decision rng in 300)
    state = corpus_state(10, 4)
    (a, b, _), = range_products(state)
    rng = np.random.default_rng(0)
    for d in (0.0, 1e-12, 1e-10, 1e-9):
        w0 = _peel_anchor(state, a + d * complex_gaussian(rng, 3),
                          b + d * complex_gaussian(rng, 3))
        assert w0.shape[0] == 4
        assert rel_residual(w0.conj().T @ w0, state.matrix) < 1e-8
    for seed in (188, 73479951):
        assert isinstance(decide_rank4(state, rng=seed).outcome, Distillable)


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
                      ("sector-rank-1", "gauge-pair-npt"), 1),
    "cascade": (lambda: corpus_state(1, 1), decide_rank4, True,
                ("product-in-range", "projected-b-pair-npt"), 1),
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


def test_coordinate_2x3_route_runs_no_search_and_no_cascade(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the coordinate 2x3 route ran a later step")

    for name in ("_reducible_verdict", "decompose_b_direct_matrix", "rank_one_in_span",
                 "_product_cascade"):
        monkeypatch.setattr(rank4, name, forbidden)
    for seed, index in NPT_ITEMS:
        assert decide_rank4(corpus_state(seed, index), rng=index).trail == ("schmidt2-search",)


def test_when_the_2x3_scan_misses_the_tree_decides_planted_and_not_generic(monkeypatch):
    scanned = miss_3x3_scan(monkeypatch)
    planted = corpus_state(1, 1)
    verdict = decide_rank4(planted, rng=1)
    assert verdict.trail == ("product-in-range", "projected-b-pair-npt")
    assert validate_witness(planted, verdict.outcome.witness) < -1e-10
    assert len(scanned) == 1
    scanned.clear()
    # steps (a) to (c) leave the generic item to (d), and its projection sweep
    generic = corpus_state(1, 5)
    with monkeypatch.context() as mp:
        mp.setattr(rank4, "_structured_projection_sweep", lambda state: None)
        with pytest.raises(UndecidableError, match="coordinate 2x3 scan nor the projection sweep"):
            decide_rank4(generic, rng=5)
    assert len(scanned) == 1
    verdict = decide_rank4(generic, rng=5)
    assert verdict.trail == ("no-product-in-range", "projection-sweep")
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
    for mod in (criteria, rank4, structure):
        lines, _ = inspect.getsourcelines(mod)
        sites.update((mod.__name__, no) for no, line in enumerate(lines, 1)
                     if "lifted_value(" in line)
    return sites


def outcome(state):
    return decide_rank4(state, rng=3).outcome


def masked_a_direct_sum():
    """A product on A-levels {0, 2} (x) |0> plus an NPT rank-3 state on
    A-levels {1, 2}.  The product's part on levels 1, 2 makes the (1, 2)
    block of rho^G PSD, so the 2x3 scan of the sector gauge misses and
    the A-direct split finds the NPT component."""
    e = np.eye(3)
    psi = (np.kron(e[1], e[0]) + np.kron(e[2], e[1])) / np.sqrt(2)
    return BipartiteState.from_vectors(3, 3, [psi, np.kron(e[1], e[1]), np.kron(e[2], e[2]),
                                              np.kron(e[0] + e[2], e[0])])


def past_reducibility(state):
    # an A-direct sum walks past step (a) into the rank-1 sector path,
    # which splits it again and lifts its distillable component
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rank4, "_reducible_verdict", lambda *args: None)
        return outcome(state)


def lifted_witness_cases():
    """(state, verdict) pairs whose witnesses are lifted onto state by
    each route that lifts one; verdict is the certificate or the call
    that returns it."""
    rng = np.random.default_rng(77)
    for knob in ("u3", "v1", "v3", "w1", "w2"):  # the cascade's pair projections
        state, aa, bb = late_stage_state(**{knob: 0.8})
        yield state, _product_cascade(state, aa, bb, as_rng(3), ()).outcome
    yield sector_fixture(rng), outcome  # sector-rank-1, once the scan misses
    yield corpus_state(1, 1), outcome  # projected-b-pair-npt
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
    decomp = decompose_b_direct(state, rng=rng)
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
    for mod in (criteria, rank4, structure):
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
