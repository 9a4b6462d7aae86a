from types import SimpleNamespace

import numpy as np
import pytest

from entcert.product_search import (
    Subspace,
    degree_scale,
    find_product_vector,
    hypersurface_2x3,
    hypersurface_2x4,
    hypersurface_value,
    pluecker_coords,
    random_product_containing_subspace,
    random_subspace,
    rank_one_in_span,
    _METHODS,
    _NULL_SPACE,
    _NULL_VECTOR,
    _compound_screen,
    _enumerate_rank_one,
    _operator_determinants,
)
from entcert.certificates import UndecidableError
from entcert.linalg import DEFAULT_TOL, psd_range
from entcert.random_states import (
    complex_gaussian,
    random_product_sum,
    random_rank_r_state,
)
from entcert.states import BipartiteState, block_form
from entcert import product_search
from entcert.families import checkerboard_ppt_instance, make_tiles_upb, random_checkerboard

from conftest import ill_conditioned


def spec_example_basis():
    a = np.zeros(6, dtype=complex)
    a[0] = a[4] = 1.0  # a11 = a22 = 1
    b = np.zeros(6, dtype=complex)
    b[1] = b[5] = 1.0  # b12 = b23 = 1
    return Subspace(2, 3, np.vstack([a, b]))


def test_pluecker_standard_basis_pattern():
    basis = np.zeros((2, 6), dtype=complex)
    basis[0, 0] = basis[1, 1] = 1.0
    coords = pluecker_coords(Subspace(2, 3, basis))
    for cols, val in coords.coords.items():
        expected = 1.0 if cols == (0, 1) else 0.0
        assert val == pytest.approx(expected)


def test_pluecker_quadratic_relation(rng):
    for _ in range(10):
        v = random_subspace(2, 2, 2, rng)
        p = pluecker_coords(v).coords
        rel = p[(0, 1)] * p[(2, 3)] - p[(0, 2)] * p[(1, 3)] + p[(0, 3)] * p[(1, 2)]
        assert abs(rel) <= 1e-10 * max(abs(x) for x in p.values()) ** 2


def test_pluecker_det_covariance(rng):
    v = random_subspace(2, 3, 2, rng)
    g = complex_gaussian(rng, (2, 2))
    before = pluecker_coords(v)
    after = pluecker_coords(v.change_basis(g))
    det = np.linalg.det(g)
    for cols in before.coords:
        assert after.coords[cols] == pytest.approx(det * before.coords[cols])


def test_pluecker_rejects_dependent_basis():
    row = np.arange(6).astype(complex)
    with pytest.raises(ValueError, match="dependent"):
        Subspace(2, 3, np.vstack([row, 2 * row]))


def test_hypersurface_2x3_printed_value():
    assert hypersurface_2x3(spec_example_basis()) == pytest.approx(-1.0, abs=1e-12)


def test_hypersurface_2x3_vanishes_on_product_subspaces(rng):
    for _ in range(50):
        v = random_product_containing_subspace(2, 3, 2, rng)
        coords = pluecker_coords(v)
        val = hypersurface_2x3(v, coords)
        assert abs(val) <= 1e-9 * degree_scale(coords, 3)


def test_hypersurface_2x3_homogeneity(rng):
    v = random_subspace(2, 3, 2, rng)
    g = complex_gaussian(rng, (2, 2))
    v1 = hypersurface_2x3(v)
    v2 = hypersurface_2x3(v.change_basis(g))
    assert v2 == pytest.approx(np.linalg.det(g) ** 3 * v1, rel=1e-9)


def test_hypersurface_2x4_vanishes_on_product_subspaces(rng):
    for _ in range(50):
        v = random_product_containing_subspace(2, 4, 3, rng)
        coords = pluecker_coords(v)
        val = hypersurface_2x4(v, coords)
        assert abs(val) <= 1e-8 * degree_scale(coords, 4)


def test_hypersurface_2x4_generic_nonzero_and_search_agrees(rng):
    for _ in range(10):
        v = random_subspace(2, 4, 3, rng)
        coords = pluecker_coords(v)
        val = abs(hypersurface_2x4(v, coords)) / degree_scale(coords, 4)
        assert val > 1e-8
        assert not find_product_vector(v, rng=rng).found


def test_hypersurface_2x4_homogeneity(rng):
    v = random_subspace(2, 4, 3, rng)
    g = complex_gaussian(rng, (3, 3))
    v1 = hypersurface_2x4(v)
    v2 = hypersurface_2x4(v.change_basis(g))
    assert v2 == pytest.approx(np.linalg.det(g) ** 4 * v1, rel=1e-9)


def test_hypersurface_shape_checks():
    v = random_subspace(3, 3, 2, rng=0)
    with pytest.raises(ValueError):
        hypersurface_2x3(v)
    with pytest.raises(ValueError):
        hypersurface_2x4(v)
    assert hypersurface_value(v) is None


def test_find_product_vector_planted(rng):
    for _ in range(10):
        v = random_product_containing_subspace(3, 3, 4, rng)
        result = find_product_vector(v, rng=rng)
        assert result.found
        vec = np.kron(result.a, result.b)
        target = result.coefficients @ v.basis
        assert np.linalg.norm(vec - target) <= 1e-6 * np.linalg.norm(target)


def test_find_product_vector_upb_complement_none(rng):
    from entcert.families import make_tiles_upb

    state = make_tiles_upb()
    basis = state.range_basis().T
    v = Subspace(3, 3, basis)
    state = rng.bit_generator.state
    result = find_product_vector(v, rng=rng)
    assert rng.bit_generator.state == state
    assert not result.found
    assert result.best_defect > 1e-3
    assert result.method == _NULL_VECTOR
    assert result.candidates == 0
    assert result.report().startswith(
        "second compound null vector, 0 candidates examined, rank-1 defect at least ")


def test_find_product_vector_dimension_guarantee(rng):
    # dim V > (M-1)(N-1) always contains a product vector
    for dims, dim in (((3, 3), 5), ((2, 3), 3), ((2, 4), 4)):
        v = random_subspace(*dims, dim, rng)
        assert find_product_vector(v, rng=rng).found


def test_search_verdict_invariant_under_basis_change(rng):
    v = random_product_containing_subspace(2, 3, 2, rng)
    g = complex_gaussian(rng, (2, 2))
    assert find_product_vector(v, rng=1).found
    assert find_product_vector(v.change_basis(g), rng=1).found
    w = random_subspace(2, 3, 2, rng)
    g = complex_gaussian(rng, (2, 2))
    assert not find_product_vector(w, rng=1).found
    assert not find_product_vector(w.change_basis(g), rng=1).found


def test_zero_set_consistency_sample(rng):
    agree = 0
    total = 60
    for _ in range(total):
        v = random_subspace(2, 3, 2, rng)
        coords = pluecker_coords(v)
        vanishes = abs(hypersurface_2x3(v, coords)) <= 1e-9 * degree_scale(coords, 3)
        found = find_product_vector(v, rng=rng).found
        agree += vanishes == found
    assert agree >= int(0.99 * total)


def test_rank_one_in_span_matrix_pencil(rng):
    # plant a rank-1 matrix in a 3-dim span of 4x3 matrices
    rank1 = np.outer(complex_gaussian(rng, 4), complex_gaussian(rng, 3))
    mats = np.stack([rank1,
                     complex_gaussian(rng, (4, 3)),
                     complex_gaussian(rng, (4, 3))])
    mix = np.eye(3, dtype=complex) + 0.2 * complex_gaussian(rng, (3, 3))
    mixed = np.einsum("ij,jpq->ipq", mix, mats)
    result = rank_one_in_span(mixed, rng=rng)
    assert result.found
    combo = np.einsum("i,ipq->pq", result.coefficients, mixed)
    s = np.linalg.svd(combo, compute_uv=False)
    assert s[1] <= 1e-8 * s[0]
    # an all-zero stack spans nothing
    with pytest.raises(ValueError, match="nonzero"):
        rank_one_in_span(np.zeros((2, 3, 3)))
    # a one-column span takes its product from a nonzero member
    trivial = rank_one_in_span(np.stack([np.zeros((3, 1)), np.ones((3, 1))]))
    assert trivial.method == "trivial"
    assert np.linalg.norm(np.outer(trivial.a, trivial.b)) == pytest.approx(1.0)


def test_quartic_data_file_integrity():
    from entcert.product_search import _quartic_terms

    terms = _quartic_terms()
    assert len(terms) == 149
    leading = {t[1][0] for t in terms}
    # every monomial contains one of the four order-3 anchor minors
    anchors = {(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)}
    for _, triples in terms:
        assert len(triples) == 4
        assert anchors & set(triples)


def test_quartic_data_file_checksum_covers_its_bytes(monkeypatch):
    # the checksum is of the bytes as read: a changed coefficient fails it
    body = product_search.resources.files("entcert.data").joinpath(
        "hypersurface_2x4.json").read_bytes()
    changed = body.replace(b'"c": 3,', b'"c": 4,', 1)
    assert changed != body

    class Tampered:
        def joinpath(self, name):
            return self

        def read_bytes(self):
            return changed

    monkeypatch.setattr(product_search, "resources",
                        SimpleNamespace(files=lambda package: Tampered()))
    product_search._quartic_terms.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="checksum mismatch"):
            product_search._quartic_terms()
    finally:
        product_search._quartic_terms.cache_clear()


def loop_readout(mats, z, defect):
    """The products of the accepted rows of z, read one combination at a
    time: the per-product reference for rank_one_in_span's stacked SVD."""
    scale = np.linalg.norm(mats.reshape(len(mats), -1), axis=1)
    work = mats / scale[:, None, None]
    products, kept = [], []
    for idx in np.argsort(defect):
        if not defect[idx] <= DEFAULT_TOL.residual_tol:
            break
        e = np.einsum("k,kpq->pq", z[idx], work).ravel()
        e = e / np.linalg.norm(e)
        if any(abs(np.vdot(f, e)) > 1.0 - 1.0e-6 for f in kept):
            continue
        kept.append(e)
        coeffs = z[idx] / scale
        u, s, vh = np.linalg.svd(np.einsum("k,kpq->pq", coeffs, mats))
        products.append((u[:, 0] * np.sqrt(s[0]), vh[0, :] * np.sqrt(s[0]), coeffs))
    return products


def spans_for_readout(seed):
    """(label, span) pairs: seeded 3x3 dim-4 separable ranges, planted
    2x4 dim-3 spans, and a 3x3 span holding a (x) C^3, which the second
    compound declines."""
    rng = np.random.default_rng(seed)
    spans = []
    for _ in range(4):
        range_q = psd_range(random_product_sum(3, 3, 4, rng).matrix)[1]
        spans.append(("separable", range_q.T.reshape(-1, 3, 3)))
        spans.append(("planted", random_product_containing_subspace(2, 4, 3, rng).matrices()))
    a = complex_gaussian(rng, 3)
    rows = [np.kron(a, e) for e in np.eye(3)] + [complex_gaussian(rng, 9)]
    mix = np.eye(4) + 0.3 * complex_gaussian(rng, (4, 4))
    spans.append(("declined", (mix @ np.array(rows)).reshape(-1, 3, 3)))
    return spans


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stacked_readout_is_the_per_product_loop_bit_for_bit(monkeypatch, seed):
    # the accepted combinations' products come from one stacked SVD and
    # their duplicate test from one Gram matrix; each product must carry
    # the bytes of the loop that read them one at a time
    points = []  # the (z, defect) of each screen and enumeration

    def spy(func, pick):
        def wrapped(*args):
            out = func(*args)
            points.append(pick(out))
            return out
        return wrapped

    monkeypatch.setattr(product_search, "_compound_screen",
                        spy(product_search._compound_screen, lambda out: out[2]))
    monkeypatch.setattr(product_search, "_enumerate_rank_one",
                        spy(product_search._enumerate_rank_one, lambda out: out[:2]))
    for label, mats in spans_for_readout(seed):
        points.clear()
        result = rank_one_in_span(mats, rng=seed)
        assert result.found
        assert (result.method == _NULL_SPACE) == (label != "declined"), label
        expected = loop_readout(mats, *points[-1])
        assert len(result.products) == len(expected) >= 1
        for got, want in zip(result.products, expected):
            for x, y in zip(got, want):
                assert x.tobytes() == y.tobytes(), label


def assert_products_in_span(result, mats):
    """Every accepted product is rank 1, equals its combination, and the
    products are pairwise distinct directions."""
    units = []
    for a, b, z in result.products:
        combo = np.einsum("i,ipq->pq", z, mats)
        assert np.linalg.norm(np.outer(a, b) - combo) <= 1e-8 * np.linalg.norm(combo)
        unit = np.kron(a, b) / np.linalg.norm(np.kron(a, b))
        assert all(abs(np.vdot(u, unit)) < 1 - 1e-6 for u in units)
        units.append(unit)


def enumerated_products(work, rng):
    """The distinct products _enumerate_rank_one accepts in the span of
    work, as unit vectors, and its method name."""
    z, defect, method = _enumerate_rank_one(work, rng, DEFAULT_TOL)
    combos = np.einsum("ck,kpq->cpq", z[defect <= DEFAULT_TOL.residual_tol], work)
    units = []
    for e in combos.reshape(len(combos), -1):
        e = e / np.linalg.norm(e)
        if all(abs(np.vdot(f, e)) < 1 - 1e-6 for f in units):
            units.append(e)
    return units, method


def result_units(result):
    return [np.kron(a, b) / np.linalg.norm(np.kron(a, b)) for a, b, _ in result.products]


def assert_same_products(found, expected):
    """The same number of products, each matching one of the others."""
    assert len(found) == len(expected)
    if found:
        overlap = np.abs(np.conj(np.array(found)) @ np.array(expected).T)
        assert np.all(overlap.max(axis=0) >= 1 - 1e-6)
        assert np.all(overlap.max(axis=1) >= 1 - 1e-6)


def null_space_route(mats):
    """What the second compound reads off the span: the unit products, or
    None where it declines (or proves that there is none)."""
    work = normalized(mats)
    _, _, points = _compound_screen(work, DEFAULT_TOL.residual_tol)
    if points is None:
        return None
    combos = np.einsum("ck,kpq->cpq", points[0], work).reshape(len(points[0]), -1)
    return list(combos / np.linalg.norm(combos, axis=1)[:, None])


def cross_check_spans(rng):
    for _ in range(6):
        state = random_product_sum(3, 3, 4, rng)
        yield Subspace(3, 3, psd_range(state.matrix, state.tol)[1].T)
    for dims in ((2, 3), (3, 2), (2, 4), (4, 2)):
        for _ in range(4):
            yield random_subspace(*dims, (dims[0] - 1) * (dims[1] - 1) + 1, rng)
    for _ in range(4):
        yield random_product_containing_subspace(2, 4, 3, rng)


def line_of_products(rng):
    # a (x) C^2 lies in a 3-dim span of 4 x 2 matrices: the null space of
    # the second compound is the 3 monomials of a plane of coefficients,
    # whose points are all products but not independent
    a = complex_gaussian(rng, 4)
    rows = [np.kron(a, e) for e in np.eye(2)] + [complex_gaussian(rng, 8)]
    return Subspace(4, 2, (np.eye(3) + 0.3 * complex_gaussian(rng, (3, 3))) @ np.array(rows))


def near_miss(rng):
    # a planted product and, in a 3-dim span of 3 x 3 matrices (9 minors
    # against 6 monomials), a member 1e-5 away from a second product: its
    # singular value lies about 100 times above what an accepted product
    # leaves, enough for the points to pass the independence check but
    # short of the gap the readout needs
    rows = [np.kron(complex_gaussian(rng, 3), complex_gaussian(rng, 3)) for _ in range(2)]
    rows[1] = rows[1] + 1e-5 * np.linalg.norm(rows[1]) * complex_gaussian(rng, 9) / 3
    rows.append(complex_gaussian(rng, 9))
    return Subspace(3, 3, (np.eye(3) + 0.3 * complex_gaussian(rng, (3, 3))) @ np.array(rows))


def test_null_space_route_matches_the_enumeration(rng):
    decided = 0
    for v in cross_check_spans(rng):
        state = rng.bit_generator.state
        result = rank_one_in_span(v.matrices(), rng=rng)
        assert rng.bit_generator.state == state  # the route draws nothing
        assert result.method == _NULL_SPACE
        found = null_space_route(v.matrices())
        assert_same_products(result_units(result), found)
        units, _ = enumerated_products(normalized(v.matrices()), rng)
        assert_same_products(found, units)
        decided += 1
    assert decided == 26

    # it declines where it cannot read every product off, and the
    # enumeration decides (or raises) as before
    tiles = make_tiles_upb()
    declined = [Subspace(3, 3, tiles.range_basis().T),  # no product
                random_subspace(2, 3, 4, rng),  # a curve of products
                random_subspace(3, 3, 5, rng),  # 6 products in a 5-dim span
                line_of_products(rng),  # dependent points
                near_miss(rng)]  # no gap
    for v in declined:
        assert null_space_route(v.matrices()) is None
        assert rank_one_in_span(v.matrices(), rng=1).method != _NULL_SPACE
    assert len(enumerated_products(normalized(declined[3].matrices()), rng)[0]) == 1
    near = rank_one_in_span(declined[4].matrices(), rng=1)
    assert (near.found, len(near.products)) == (True, 1)


@pytest.mark.parametrize("dims, count", [((2, 3), 3), ((3, 2), 3), ((2, 4), 4),
                                         ((4, 2), 4), ((3, 3), 6), ((4, 4), 20),
                                         ((4, 5), 35), ((5, 4), 35)])
def test_search_returns_every_product_of_a_segre_dimension_subspace(rng, dims, count):
    # a generic subspace of dimension (M-1)(N-1)+1 meets the Segre variety
    # in exactly C(M+N-2, M-1) points (its degree).  With a 2-level side
    # they are as many as the span's dimension, and the second compound's
    # null space holds them; larger shapes have more and enumerate
    m, n = dims
    small = min(dims)
    for _ in range(20):
        v = random_subspace(m, n, (m - 1) * (n - 1) + 1, rng)
        result = find_product_vector(v, rng=rng)
        assert result.found
        assert result.method == (_NULL_SPACE if small == 2 else _METHODS[small])
        assert len(result.products) == count
        assert_products_in_span(result, v.matrices())
        assert result.a is result.products[0][0]
        if small == 2:
            # the pencil stays covered: it enumerates the same products
            units, method = enumerated_products(normalized(v.matrices()), rng)
            assert method == _METHODS[2]
            assert_same_products(result_units(result), units)


def _kron_det2(x, y, i, j):
    return np.kron(x[i], y[j]) - np.kron(x[j], y[i])


@pytest.mark.parametrize("p", [3, 4, 5])
def test_operator_determinants_match_the_kron_formula_bit_for_bit(p):
    rng = np.random.default_rng(p)
    for _ in range(5):
        x = complex_gaussian(rng, (3, p, p))
        y = complex_gaussian(rng, (3, p, p))
        a1, b1, c1 = x
        a2, b2, c2 = y
        expected = (np.kron(b1, c2) - np.kron(c1, b2),
                    np.kron(c1, a2) - np.kron(a1, c2),
                    np.kron(a1, b2) - np.kron(b1, a2))
        got = _operator_determinants(np.stack([x, y]))
        assert len(got) == 3
        for delta, want in zip(got, expected):
            assert np.array_equal(delta, want)
            assert delta.tobytes() == want.tobytes()  # signed zeros too

        # q = 2: one pencil A + t B, Delta_0 = B and Delta_1 = -A
        a, b = complex_gaussian(rng, (2, p, p))
        got = _operator_determinants(np.stack([a, b])[None])
        assert got[0].tobytes() == b.tobytes()
        assert got[1].tobytes() == (-a).tobytes()

        # q = 4: Laplace expansion along the first equation
        x, y, z = complex_gaussian(rng, (3, 4, p, p))
        got = _operator_determinants(np.stack([x, y, z]))
        assert len(got) == 4
        for c, delta in enumerate(got):
            i, j, k = [col for col in range(4) if col != c]
            want = (np.kron(x[i], _kron_det2(y, z, j, k))
                    - np.kron(x[j], _kron_det2(y, z, i, k))
                    + np.kron(x[k], _kron_det2(y, z, i, j))) * (-1) ** c
            assert np.allclose(delta, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_fallback_search_on_a_min_side_four_shape(rng):
    # a planted product in a span of 4 x 5 matrices: the null space of the
    # second compound holds it, and the three-parameter problem, which
    # enumerates a 4-level side, finds the same one
    rank1 = np.outer(complex_gaussian(rng, 4), complex_gaussian(rng, 5))
    mats = np.stack([rank1] + [complex_gaussian(rng, (4, 5)) for _ in range(3)])
    mixed = np.einsum("ij,jpq->ipq", np.eye(4) + 0.3 * complex_gaussian(rng, (4, 4)), mats)
    result = rank_one_in_span(mixed, rng=rng)
    assert result.found
    assert result.method == _NULL_SPACE
    assert_products_in_span(result, mixed)
    units, method = enumerated_products(normalized(mixed), rng)
    assert method == "three-parameter eigenvalues"
    assert_same_products(result_units(result), units)


@pytest.mark.parametrize("m, n", [(4, 2), (3, 3), (4, 4)])
def test_span_with_infinitely_many_products_is_cut_by_hyperplanes(rng, m, n):
    # a (x) C^n lies in the span, so every L(v) is singular; random
    # hyperplanes cut the family down to one point
    a = complex_gaussian(rng, m)
    rows = [np.kron(a, e) for e in np.eye(n)] + [complex_gaussian(rng, m * n)]
    mix = np.eye(n + 1) + 0.3 * complex_gaussian(rng, (n + 1, n + 1))
    v = Subspace(m, n, mix @ np.array(rows))
    result = find_product_vector(v, rng=rng)
    assert result.found
    assert result.method == "hyperplane section"
    assert_products_in_span(result, v.matrices())
    overlap = abs(np.vdot(a, result.a)) / (np.linalg.norm(a) * np.linalg.norm(result.a))
    assert overlap == pytest.approx(1.0, abs=1e-6)


def test_dimension_count_route(rng):
    # 3x2 matrices in a 5-dim span: the complement has 1 < 3 rows
    v = random_subspace(3, 2, 5, rng)
    result = find_product_vector(v, rng=rng)
    assert result.found
    assert result.method == "dimension count"
    assert_products_in_span(result, v.matrices())


@pytest.mark.parametrize("dims, dim", [((2, 3), 2), ((2, 4), 3), ((3, 3), 4), ((3, 4), 3),
                                       ((4, 4), 6), ((4, 5), 9)])
def test_enumeration_agrees_with_the_restart_search(dims, dim):
    # the truth comes from outside the enumeration: the hypersurface
    # value where the shape has one, the planted product elsewhere (a
    # generic subspace of these dimensions holds none)
    rng = np.random.default_rng(sum(dims) * 10 + dim)
    for make in (random_subspace, random_product_containing_subspace):
        for _ in range(8):
            v = make(*dims, dim, rng)
            found = rank_one_in_span(v.matrices(), rng=rng).found
            hyper = hypersurface_value(v)
            if hyper is not None:
                value, _, scale = hyper
                assert found == (abs(value) <= 1e-9 * scale)
            assert found == (make is random_product_containing_subspace)


# the smallest dimension at which the second compound of a span of these
# shapes is wide (fewer minors than monomials): its null space then has
# more vectors than a planted product accounts for
WIDE_DIM = {(5, 5): 14, (4, 9): 21}


@pytest.mark.parametrize("dims", [(5, 5), (4, 9)])
def test_search_beyond_its_scope_raises(rng, dims):
    # a planted product in a span whose second compound is wide: the null
    # space holds one product and other vectors, so the readout declines,
    # and the eigenvalue enumeration does not reach a 5-level side or 4
    # beside 9
    v = random_product_containing_subspace(*dims, WIDE_DIM[dims], rng)
    assert _compound_screen(normalized(v.matrices()), DEFAULT_TOL.residual_tol) == (None, None, None)
    with pytest.raises(UndecidableError, match=f"{dims[0]}x{dims[1]}"):
        rank_one_in_span(v.matrices(), rng=rng)


@pytest.mark.parametrize("dims", [(5, 5), (4, 9)])
def test_planted_product_beyond_the_enumeration_is_read_off_the_null_space(rng, dims):
    # a planted product in a 3-dim span of these shapes is the one null
    # vector of the second compound, read with no random draw
    a, b = complex_gaussian(rng, dims[0]), complex_gaussian(rng, dims[1])
    rows = [np.kron(a, b)] + [complex_gaussian(rng, dims[0] * dims[1]) for _ in range(2)]
    v = Subspace(*dims, (np.eye(3) + 0.3 * complex_gaussian(rng, (3, 3))) @ np.array(rows))
    state = rng.bit_generator.state
    result = find_product_vector(v, rng=rng)
    assert rng.bit_generator.state == state
    assert (result.found, result.method, len(result.products)) == (True, _NULL_SPACE, 1)
    assert_products_in_span(result, v.matrices())
    planted = np.kron(a, b) / np.linalg.norm(np.kron(a, b))
    assert_same_products(result_units(result), [planted])


@pytest.mark.parametrize("make", [random_subspace, random_product_containing_subspace])
def test_search_beyond_its_scope_raises_where_the_compound_has_too_few_rows(rng, make):
    # 5x5 dim 14: C(5, 2)^2 = 100 minors against 14 * 15 / 2 = 105
    # monomials, and 11 complement vectors, too many for the dimension count
    v = make(5, 5, 14, rng)
    assert _compound_screen(normalized(v.matrices()), DEFAULT_TOL.residual_tol) == (None, None, None)
    with pytest.raises(UndecidableError, match="5x5"):
        find_product_vector(v, rng=rng)


@pytest.mark.parametrize("dims, dim", [((5, 5), 21), ((5, 5), 22), ((6, 5), 27),
                                       ((4, 9), 33)])
def test_dimension_count_decides_large_spans_beyond_the_enumeration(dims, dim):
    # fewer complement vectors than the larger side: every L(v) has a null
    # vector, so the span holds a product whatever the shape
    v = random_subspace(*dims, dim, 0)
    result = find_product_vector(v, rng=0)
    assert result.found and result.method == "dimension count"
    e = np.kron(result.a, result.b)
    q = np.linalg.qr(v.basis.T)[0]
    assert np.linalg.norm(e - q @ (q.conj().T @ e)) < 1e-10 * np.linalg.norm(e)


@pytest.mark.parametrize("dims, dim", [((5, 5), 3), ((5, 5), 13), ((4, 9), 3),
                                       ((4, 9), 20), ((6, 6), 15)])
def test_second_compound_decides_generic_spans_beyond_the_enumeration(rng, dims, dim):
    v = random_subspace(*dims, dim, rng)
    state = rng.bit_generator.state
    result = find_product_vector(v, rng=rng)
    assert not result.found
    assert (result.method, result.candidates) == ("second compound", 0)
    assert result.best_defect > 1e-6  # a proved bound, far above residual_tol
    assert rng.bit_generator.state == state  # no random numbers drawn


def normalized(mats):
    """The stack rank_one_in_span searches: each member at unit norm."""
    return mats / np.linalg.norm(mats, axis=(1, 2))[:, None, None]


def block_stacks(seed, count):
    """The (3, 4, 3) stacks of the row blocks of generic and planted 3x3
    rank-4 states, all irreducible: the spans that a search for a
    direction with a rank-1 sector would scan."""
    rng = np.random.default_rng(seed)
    stacks = []
    for i in range(count):
        vecs = [complex_gaussian(rng, 9) for _ in range(4)]
        if i % 2:
            vecs[0] = np.kron(complex_gaussian(rng, 3), complex_gaussian(rng, 3))
        stacks.append(np.stack(block_form(BipartiteState.from_vectors(3, 3, vecs)).blocks))
    return stacks


def range_stack(state):
    """The (4, 3, 3) stack of a 3x3 rank-4 range, as decide_rank4 searches it."""
    return psd_range(state.matrix, state.tol)[1].T.reshape(-1, 3, 3)


def near_product_stack(rng, shape, eps):
    """A random stack whose span holds a member eps away from a product."""
    k, p, q = shape
    mats = complex_gaussian(rng, shape)
    mats[0] = (np.outer(complex_gaussian(rng, p), complex_gaussian(rng, q))
               + eps * complex_gaussian(rng, (p, q)))
    return np.einsum("ij,jpq->ipq", np.eye(k) + 0.3 * complex_gaussian(rng, (k, k)), mats)


# range stacks whose span holds no product: the null vector of the second
# compound (9 minors against 10 monomials) proves it for these kinds
NO_PRODUCT_RANGES = ("tiles 1", "tiles 10", "tiles 100", "ppt checkerboard",
                     "random checkerboard", "generic")


def range_stacks(rng):
    """(kind, stack) pairs of (4, 3, 3) stacks: the tiles range under
    ILOs of condition number 1 to 1e3, ranges of PPT and random
    checkerboards and of generic states, and spans 0 to 1e-4 from a
    product."""
    tiles = range_stack(make_tiles_upb())
    for kappa in (1, 10, 100, 1000):
        for _ in range(8):
            a, b = ill_conditioned(kappa, rng), ill_conditioned(kappa, rng)
            yield f"tiles {kappa}", np.einsum("pi,kij,qj->kpq", a, tiles, b)
    for _ in range(16):
        yield "ppt checkerboard", range_stack(checkerboard_ppt_instance(rng)[1])
        yield "random checkerboard", range_stack(random_checkerboard(rng)[1])
        yield "generic", range_stack(random_rank_r_state(3, 3, 4, rng))
    for eps in (0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-5, 1e-4):
        for _ in range(8):
            yield f"near product {eps:g}", near_product_stack(rng, (4, 3, 3), eps)


def random_stacks(rng):
    # (k, p, q) with C(p, 2) C(q, 2) >= k (k + 1) / 2, in the enumeration's scope
    for shape in [(2, 2, 3), (2, 3, 3), (3, 3, 3), (3, 4, 3), (3, 2, 5),
                  (5, 4, 4), (6, 4, 5)]:
        for _ in range(3):
            yield complex_gaussian(rng, shape)


def test_second_compound_bound_is_below_every_enumerated_defect(rng):
    stacks = block_stacks(5, 12) + list(random_stacks(rng))
    assert len(stacks) > 30
    for mats in stacks:
        work = normalized(mats)
        method, bound, points = _compound_screen(work, DEFAULT_TOL.residual_tol)
        _, defect, _ = _enumerate_rank_one(work, np.random.default_rng(1), DEFAULT_TOL)
        assert (method, points) == ("second compound", None)
        assert bound is not None and 0 < bound <= defect.min() * (1 + 1e-9)
        # a generic span holds no product, and the bound proves it
        assert bound > DEFAULT_TOL.residual_tol

    # a 4-dim span of 3 x 3 matrices always has a null vector; where the
    # span holds no product its matrix is far from rank 1, and bounds the
    # defect with no enumeration and no random draw
    fired = 0
    for kind, mats in range_stacks(np.random.default_rng(6)):
        work = normalized(mats)
        method, bound, points = _compound_screen(work, DEFAULT_TOL.residual_tol)
        _, defect, _ = _enumerate_rank_one(work, np.random.default_rng(1), DEFAULT_TOL)
        if bound is None:
            assert kind not in NO_PRODUCT_RANGES
            continue
        fired += 1
        assert (method, points) == (_NULL_VECTOR, None)
        assert DEFAULT_TOL.residual_tol < bound <= defect.min() * (1 + 1e-9)
        search_rng = np.random.default_rng(fired)
        state = search_rng.bit_generator.state
        result = rank_one_in_span(mats, rng=search_rng)
        assert search_rng.bit_generator.state == state
        assert (result.found, result.method, result.best_defect) == (False, method, bound)
    assert fired > 72  # the 72 stacks of NO_PRODUCT_RANGES, and spans 1e-5 from a product


@pytest.mark.parametrize("shape", [(3, 4, 3), (3, 3, 3), (4, 3, 3), (4, 4, 4), (5, 4, 5)])
@pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-5, 1e-4])
def test_second_compound_never_screens_out_a_product_the_enumeration_accepts(shape, eps):
    k, p, q = shape
    rng = np.random.default_rng(100 * k + 10 * p + q)
    accepted = 0
    for _ in range(4):
        mats = near_product_stack(rng, shape, eps)
        work = normalized(mats)
        _, bound, _ = _compound_screen(work, DEFAULT_TOL.residual_tol)
        _, defect, _ = _enumerate_rank_one(work, np.random.default_rng(2), DEFAULT_TOL)
        assert bound is None or bound <= defect.min() * (1 + 1e-9) + 1e-15
        if defect.min() <= DEFAULT_TOL.residual_tol:
            accepted += 1
            assert bound is None
            # read off the null space, or undecided by the second compound,
            # when the search draws the enumeration's numbers
            assert rank_one_in_span(mats, rng=np.random.default_rng(2)).found
    if eps <= 1e-10:
        assert accepted == 4  # the check above is not vacuous
