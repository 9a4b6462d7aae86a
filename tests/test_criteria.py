from collections import Counter
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from entcert import criteria, families, product_search, random_states, rank4, structure
from entcert.analyze import classify_state
from entcert.certificates import (
    Distillable,
    SchmidtRank2Witness,
    Separable,
    UndecidableError,
    validate_certificate,
    validate_witness,
)
from entcert.cli import main
from entcert.criteria import (
    classify_rank_le_max,
    certify_pure_plus_sigma,
    full_rank_property,
    is_ppt,
    reduction_criterion,
    restrict_to_local_ranges,
    schmidt2_witness,
    trivially_distillable,
)
from entcert.families import checkerboard_ppt_instance, make_antisymmetric, make_checkerboard
from entcert.io import save_state
from entcert.linalg import DEFAULT_TOL, rel_residual
from entcert.random_states import (
    complex_gaussian,
    random_invertible,
    random_product_sum,
    random_rank_r_state,
    random_unitary,
)
from entcert.states import (
    BipartiteState,
    PureState,
    apply_local,
    partial_transpose,
    reduce,
    swap_sides,
    tensor,
)

from conftest import bell_projector, ill_conditioned, miss_npt_scan, ppt_rank_n_state


def printed_2x3_state():
    v1 = np.zeros(6, dtype=complex)
    v1[0] = v1[4] = 1.0
    v2 = np.zeros(6, dtype=complex)
    v2[5] = 1.0
    v3 = np.zeros(6, dtype=complex)
    v3[2] = 1.0
    return BipartiteState.from_vectors(2, 3, [v1, v2, v3])


def test_is_ppt_separable(rng):
    for _ in range(5):
        state = random_product_sum(3, 3, 6, rng)
        flag, _ = is_ppt(state)
        assert flag


def test_is_ppt_bell():
    flag, min_eig = is_ppt(bell_projector())
    assert not flag
    assert abs(min_eig + 1.0) < 1e-12


def test_is_ppt_antisymmetric():
    assert not is_ppt(make_antisymmetric(3))[0]


def test_reduction_criterion_bell():
    state = bell_projector()
    violated, witness = reduction_criterion(state)
    assert violated
    # oracle: eigenvalues of I (x) rho_B - rho directly
    op = np.kron(np.eye(2), reduce(state, "B")) - state.matrix
    assert np.linalg.eigvalsh(op)[0] < -1e-10
    assert validate_witness(state, witness) < -1e-10


def test_reduction_criterion_ppt_fixture(rng):
    state = random_product_sum(2, 3, 5, rng)
    violated, _ = reduction_criterion(state)
    assert not violated


def test_reduction_criterion_antisymmetric_not_violated():
    violated, _ = reduction_criterion(make_antisymmetric(3))
    assert not violated


def test_reduction_violation_inside_the_floor_has_no_witness():
    # the isotropic state p |phi><phi| + (1 - p) I / 9: the reduction
    # operator's lowest eigenvalue is (2 - 8p) / 9, twice the value of
    # the best pair |ij> - |ji>; at 1.5 times the floor the criterion is
    # violated, but no Schmidt-rank-2 vector is negative beyond the floor
    p = 0.25 + 9 * DEFAULT_TOL.psd_tol / 16
    phi = np.eye(3).reshape(-1) / np.sqrt(3)
    state = BipartiteState(3, 3, p * np.outer(phi, phi) + (1 - p) * np.eye(9) / 9)
    assert reduction_criterion(state) == (True, None)
    assert is_ppt(state)[0]


def test_trivially_distillable_constructed():
    # rho with a [[*, 1], [1, 0]] pattern in rho^G: |00><00| + the
    # cross terms of |01><10| (Gamma maps them onto rows (0,1)/(1,0))
    v1 = np.array([1, 0, 0, 0.5], dtype=complex)
    v2 = np.array([0, 1, 0, 0], dtype=complex)
    state = BipartiteState.from_vectors(2, 2, [v1, v2])
    w = trivially_distillable(state)
    assert isinstance(w, SchmidtRank2Witness)
    # the lowest eigenvector of [[1, 1/2], [1/2, 0]] on |01>, |10>
    assert np.flatnonzero(w.vector).tolist() == [1, 2]
    assert abs(w.vector[1]) == pytest.approx(np.sin(np.pi / 8))
    assert abs(w.vector[2]) == pytest.approx(np.cos(np.pi / 8))
    assert (w.vector[1] * np.conj(w.vector[2])).real < 0
    assert validate_witness(state, w) == pytest.approx((1 - np.sqrt(2)) / 2)


def test_trivially_distillable_classical_none(rng):
    diag = np.abs(complex_gaussian(rng, 6)) + 0.1
    state = BipartiteState(2, 3, np.diag(diag).astype(complex))
    assert trivially_distillable(state) is None


def test_trivially_distillable_ppt_none(rng):
    state = random_product_sum(2, 3, 5, rng)
    assert trivially_distillable(state) is None


def test_frp_antisymmetric_violated():
    res = full_rank_property(make_antisymmetric(3), "right", rng=3)
    assert not res.holds
    assert res.failure_bound is not None and res.failure_bound < 1e-100


def test_frp_antisymmetric_two_copy_holds():
    ras = make_antisymmetric(3)
    res = full_rank_property(tensor(ras, ras), "right", rng=3)
    assert res.holds


def test_frp_printed_2x3_violated():
    assert not full_rank_property(printed_2x3_state(), "right", rng=3).holds
    assert full_rank_property(printed_2x3_state(), "left", rng=3).holds


def test_frp_mx2_always_holds(rng):
    for m in (2, 3, 4):
        for r in (2, min(2 * m, 4)):
            state = random_rank_r_state(m, 2, r, rng)
            assert full_rank_property(state, "right", rng=rng).holds


def test_frp_separable_holds_both_sides(rng):
    for _ in range(10):
        state = random_product_sum(3, 3, 5, rng)
        assert full_rank_property(state, "right", rng=rng).holds
        assert full_rank_property(state, "left", rng=rng).holds


def test_frp_witness_revalidates(rng):
    from entcert.linalg import numerical_rank
    from entcert.states import sector

    state = random_product_sum(3, 3, 5, rng)
    res = full_rank_property(state, "right", rng=rng)
    assert res.holds
    rank, _ = numerical_rank(sector(state, res.witness, "A"))
    assert rank == 3


def test_frp_verdict_ilo_invariant(rng):
    ras = make_antisymmetric(3)
    for _ in range(5):
        conj = apply_local(ras, random_invertible(3, rng), random_invertible(3, rng))
        assert not full_rank_property(conj, "right", rng=rng).holds
    sep = random_product_sum(3, 3, 5, rng)
    for _ in range(5):
        conj = apply_local(sep, random_invertible(3, rng), random_invertible(3, rng))
        assert full_rank_property(conj, "right", rng=rng).holds


def test_frp_shortcut_low_rank(rng):
    state = bell_projector()  # rank 1 < local rank 2
    res = full_rank_property(state, "right", rng=rng)
    assert not res.holds
    assert res.shortcut == "rank-below-opposite-rank"


def test_schmidt2_witness_bell():
    w = schmidt2_witness(bell_projector())
    assert w is not None
    assert abs(w.value + 1.0) < 1e-12


def test_schmidt2_witness_ppt_none(rng):
    state = random_product_sum(3, 3, 6, rng)
    assert schmidt2_witness(state) is None


def test_schmidt2_witness_antisymmetric():
    state = make_antisymmetric(3)
    w = schmidt2_witness(state)
    assert w is not None
    assert validate_witness(state, w) < -1e-10


def schmidt2_reference(state):
    """The per-pair loop that schmidt2_witness stacks: one eigh per
    coordinate 2xN block, the first most negative block wins."""
    g = partial_transpose(state)
    n = state.dim_b
    thr = state.tol.negativity_floor(state.spectral_norm)
    blocks = ([np.arange(g.shape[0])] if n == 2 else
              [np.r_[k * n:(k + 1) * n, l * n:(l + 1) * n]
               for k, l in combinations(range(state.dim_a), 2)])
    best = None
    for idx in blocks:
        w, v = np.linalg.eigh(g[np.ix_(idx, idx)])
        if w[0] < -thr and (best is None or w[0] < best[1]):
            vec = np.zeros(g.shape[0], dtype=complex)
            vec[idx] = v[:, 0]
            best = (vec, float(w[0]))
    return best


def test_schmidt2_witness_matches_the_per_block_loop(rng):
    # same blocks, same eigh per block, so the witness keeps its bytes;
    # the antisymmetric state ties every block and the first one wins
    states = [make_antisymmetric(3), random_product_sum(3, 3, 6, rng)]
    for dims in ((1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (5, 3)):
        for r in (1, 2, 4, dims[0] * dims[1]):
            states.append(random_rank_r_state(*dims, min(r, dims[0] * dims[1]), rng))
    found = 0
    for state in states:
        ref, w = schmidt2_reference(state), schmidt2_witness(state)
        assert (w is None) == (ref is None)
        if w is not None:
            found += 1
            assert np.array_equal(w.vector, ref[0]) and w.value == ref[1]
    assert found > len(states) // 2


def test_classify_rank_below_max_distillable(rng):
    for dims in ((3, 4), (4, 3)):
        state = random_rank_r_state(*dims, 3, rng)
        cert = classify_rank_le_max(state)
        assert isinstance(cert, Distillable)
        assert validate_witness(state, cert.witness) < -1e-10


def violated_side(state):
    """The side whose reduction operator has the lower eigenvalue."""
    ops = {"A": np.kron(reduce(state, "A"), np.eye(state.dim_b)) - state.matrix,
           "B": np.kron(np.eye(state.dim_a), reduce(state, "B")) - state.matrix}
    return min(ops, key=lambda side: np.linalg.eigvalsh(ops[side])[0])


def test_rank_below_max_witness_is_constructed_from_the_reduction_violation():
    # every shape 2..5 x 2..5 and every rank below the max local rank,
    # rank-1 (entangled pure) states included; odd ranks are padded into
    # larger carriers.  The witness is the reduction criterion's, and
    # both sides of the criterion occur.
    rng = np.random.default_rng(31)
    sides = set()
    for m in range(2, 6):
        for n in range(2, 6):
            for r in range(1, max(m, n)):
                state = random_rank_r_state(m, n, r, rng)
                if r % 2:
                    state = apply_local(state, random_unitary(m + 1, rng)[:, :m],
                                        random_unitary(n + 2, rng)[:, :n])
                sides.add(violated_side(state))
                cert = classify_rank_le_max(state)
                assert np.array_equal(cert.witness.vector, reduction_criterion(state)[1].vector)
                validate_certificate(state, cert)
    assert sides == {"A", "B"}


def test_rank_below_max_without_a_reduction_violation_raises(monkeypatch):
    # [hst03] rules this out; a state that seems to contradict it is
    # reported as inconsistent input, never given a verdict
    monkeypatch.setattr(criteria, "reduction_criterion", lambda s: (False, None))
    with pytest.raises(UndecidableError, match="reduction criterion"):
        classify_rank_le_max(bell_projector())


def test_classify_rank_max_ppt_separable(rng):
    for dims in ((3, 3), (2, 3)):
        state = ppt_rank_n_state(*dims, rng)
        cert = classify_rank_le_max(state)
        assert isinstance(cert, Separable)
        assert len(cert.products) == max(dims)
        rec = cert.reconstruct(state.dim_a, state.dim_b)
        assert rel_residual(rec, state.matrix) < 1e-8


def antisymmetric_plus_03():
    """3x4 rank 4: the antisymmetric 3x3 state plus |0>|3>; it violates
    the right full-rank property."""
    vecs = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        v = np.zeros(12, dtype=complex)
        v[i * 4 + j], v[j * 4 + i] = 1.0, -1.0
        vecs.append(v)
    v = np.zeros(12, dtype=complex)
    v[0 * 4 + 3] = 1.0
    vecs.append(v)
    return BipartiteState.from_vectors(3, 4, vecs)


def scaled_witnesses_scale_exactly(rng):
    """Ten NPT states per shape; each witness value scales by exactly 2^k."""
    for dims, rank in (((3, 3), 3), ((4, 3), 4), ((3, 4), 4)):
        hits = 0
        while hits < 10:
            state = random_rank_r_state(*dims, rank, rng)
            if is_ppt(state)[0]:
                continue
            cert = classify_rank_le_max(state)
            assert isinstance(cert, Distillable)
            assert validate_witness(state, cert.witness) < -1e-10
            unit = classify_rank_le_max(state)
            unit_values = (unit.witness.value, validate_witness(state, unit.witness))
            for k in (-60, -40, -20, 20, 40, 60):
                scaled = BipartiteState(*dims, 2.0 ** k * state.matrix, state.tol)
                witness = classify_rank_le_max(scaled).witness
                values = (witness.value, validate_witness(scaled, witness))
                assert values == tuple(2.0 ** k * v for v in unit_values)
            hits += 1


def test_classify_rank_max_npt_distillable(rng, monkeypatch):
    # 4x3 is the side-swapped orientation: the witness found on the
    # 3x4 working state must be pulled back through the swap.  Scaling
    # the state by 2^k is exact in floating point, so the witness value
    # must scale by exactly 2^k, far past unit scale both ways.  The
    # second pass patches the coordinate scan out, so the 2xN
    # projection fallback answers
    scaled_witnesses_scale_exactly(rng)
    with monkeypatch.context() as patch:
        patch.setattr(criteria, "schmidt2_witness", lambda s: None)
        scaled_witnesses_scale_exactly(rng)
    state = antisymmetric_plus_03()
    for oriented in (state, swap_sides(state)):
        for cert in (classify_rank_le_max(oriented),
                     classify_state(oriented, rng=rng)):
            assert isinstance(cert, Distillable)
            assert validate_witness(oriented, cert.witness) < -1e-10


@pytest.mark.parametrize("dims, rank", [((2, 2), 2), ((3, 3), 3), ((3, 4), 4), ((4, 3), 4),
                                         ((4, 4), 2), ((4, 4), 3)])
def test_npt_rank_le_max_witness_draws_no_random_number(dims, rank, monkeypatch):
    # the witness is the reduction split below the max local rank and,
    # at it, the lifted coordinate 2xN scan witness of the working
    # state, which opens the route; neither draws, and the function
    # takes no seed
    rng = np.random.default_rng(41)
    state = random_rank_r_state(*dims, rank, rng)
    while is_ppt(state)[0]:
        state = random_rank_r_state(*dims, rank, rng)
    if rank < max(dims):
        expected = reduction_criterion(state)[1]
    else:
        frame = criteria.Frame.local(state)
        expected = frame.lift_witness(schmidt2_witness(frame.work))

    def no_draw(*args):
        raise AssertionError("the NPT route drew a random number")
    monkeypatch.setattr(criteria, "unit_disc", no_draw)
    witness = classify_rank_le_max(state).witness
    assert witness.vector.tobytes() == expected.vector.tobytes()
    assert witness.value == expected.value


def test_classify_rank_max_never_silently_undecided(rng):
    # out-of-contract rank must be rejected, not mis-verdicted
    state = random_rank_r_state(3, 3, 5, rng)
    with pytest.raises(ValueError, match="rank"):
        classify_rank_le_max(state)


def test_reduction_violation_implies_schmidt2(rng):
    found = 0
    while found < 5:
        state = random_rank_r_state(2, 2, 2, rng)
        violated, _ = reduction_criterion(state)
        if not violated:
            continue
        assert schmidt2_witness(state) is not None
        found += 1


def test_certify_pure_plus_sigma_bell_embedded(rng):
    # Bell on levels {0,1} of a 3x3 space, sigma supported on A-levels {0,1}
    bell = np.zeros(9, dtype=complex)
    bell[0 * 3 + 0] = bell[1 * 3 + 1] = 1.0
    psi = PureState(3, 3, bell + 0.3 * np.kron(
        np.array([0, 0, 1.0]), complex_gaussian(rng, 3)))
    sig_vecs = [np.kron(np.array([1.0, 0.4, 0]), complex_gaussian(rng, 3))
                for _ in range(3)]
    sigma = BipartiteState.from_vectors(3, 3, sig_vecs)
    cert = certify_pure_plus_sigma(psi, sigma)
    assert isinstance(cert, Distillable)
    total = BipartiteState(3, 3, psi.projector() + sigma.matrix)
    assert validate_witness(total, cert.witness) < -1e-10


def test_certify_pure_plus_sigma_pure_only(rng):
    psi = PureState(2, 2, np.array([1, 0, 0, 1], dtype=complex))
    cert = certify_pure_plus_sigma(psi, None)
    assert isinstance(cert, Distillable)


def test_certify_pure_plus_sigma_random_instances(rng):
    for trial in range(50):
        m, n = 3, 3
        r = int(rng.integers(1, m))  # rank(sigma_A) < m
        a_basis = complex_gaussian(rng, (m, r))
        sig_vecs = [np.kron(a_basis @ complex_gaussian(rng, r),
                            complex_gaussian(rng, n)) for _ in range(r + 1)]
        sigma = BipartiteState.from_vectors(m, n, sig_vecs)
        psi = PureState(m, n, complex_gaussian(rng, m * n))
        cert = certify_pure_plus_sigma(psi, sigma)
        total = BipartiteState(m, n, psi.projector() + sigma.matrix)
        assert validate_witness(total, cert.witness) < -1e-10


@pytest.mark.parametrize("scale", [10.0 ** e for e in range(-20, 21, 2)])
def test_certify_pure_plus_sigma_is_scale_invariant(scale):
    # an entangled 3x3 psi plus a sigma whose A side has rank 1; the whole
    # state scaled by `scale` keeps the verdict of certify_pure_plus_sigma
    # and of classify_state (rank 3 = the max local rank), and each
    # witness value scales with it
    rng = np.random.default_rng(4)
    a_vec = complex_gaussian(rng, 3)
    sig_vecs = [np.kron(a_vec, complex_gaussian(rng, 3)) for _ in range(2)]
    amplitudes = complex_gaussian(rng, 9)
    root = np.sqrt(scale)
    psi = PureState(3, 3, root * amplitudes)
    sigma = BipartiteState.from_vectors(3, 3, [root * v for v in sig_vecs])
    cert = certify_pure_plus_sigma(psi, sigma)
    assert isinstance(cert, Distillable)
    total = BipartiteState(3, 3, psi.projector() + sigma.matrix)
    validate_certificate(total, cert)
    unit_psi = PureState(3, 3, amplitudes)
    unit_sigma = BipartiteState.from_vectors(3, 3, sig_vecs)
    unit = certify_pure_plus_sigma(unit_psi, unit_sigma)
    assert np.isclose(validate_witness(total, cert.witness),
                      scale * unit.witness.value, rtol=1e-6)
    classified = classify_state(total)
    assert isinstance(classified, Distillable)
    value = validate_certificate(total, classified)["witness_value"]
    unit_total = BipartiteState(3, 3, unit_psi.projector() + unit_sigma.matrix)
    assert np.isclose(value, scale * classify_state(unit_total).witness.value, rtol=1e-9)


def test_certify_pure_plus_sigma_rejects_product_psi(rng):
    psi = PureState(2, 2, np.kron(complex_gaussian(rng, 2), complex_gaussian(rng, 2)))
    with pytest.raises(ValueError, match="product"):
        certify_pure_plus_sigma(psi, None)


def test_certify_pure_plus_sigma_rejects_psi_inside_range_of_sigma_a(monkeypatch):
    # psi and sigma leave A-level 2 empty; a frame that keeps that level
    # (the compression onto the local ranges drops it) leaves psi no
    # component outside range(sigma_A)
    psi = PureState(3, 3, np.array([1, 0, 0, 0, 1, 0, 0, 0, 0], dtype=complex))
    e = np.eye(3, dtype=complex)
    sigma = BipartiteState.from_vectors(3, 3, [np.kron(e[0], e[2]), np.kron(e[1], e[2])])
    monkeypatch.setattr(criteria, "restrict_to_local_ranges", lambda s: (s, e, e))
    with pytest.raises(ValueError, match="no component outside"):
        certify_pure_plus_sigma(psi, sigma)


def test_certify_pure_plus_sigma_rejects_full_rank_sigma(rng):
    sigma = random_product_sum(2, 2, 5, rng)  # sigma_A full rank
    psi = PureState(2, 2, np.array([1, 0, 0, 1], dtype=complex))
    with pytest.raises(ValueError, match="rank"):
        certify_pure_plus_sigma(psi, sigma)


def test_ppt_states_pass_all_distillability_criteria(rng):
    for _ in range(10):
        state = random_product_sum(3, 3, 6, rng)
        assert is_ppt(state)[0]
        assert not reduction_criterion(state)[0]
        assert trivially_distillable(state) is None
        assert schmidt2_witness(state) is None
        assert full_rank_property(state, "right", rng=rng).holds
        assert full_rank_property(state, "left", rng=rng).holds


def test_classify_rank_le_max_padded_dimensions(rng):
    # a 3x3 rank-3 NPT state embedded in 4x4 carrier dimensions
    while True:
        inner = random_rank_r_state(3, 3, 3, rng)
        if not is_ppt(inner)[0]:
            break
    emb = np.zeros((4, 3), dtype=complex)
    emb[:3, :] = np.eye(3)
    op = np.kron(emb, emb)
    outer = BipartiteState(4, 4, op @ inner.matrix @ op.conj().T)
    cert = classify_rank_le_max(outer)
    assert isinstance(cert, Distillable)
    assert validate_witness(outer, cert.witness) < -1e-10


def _in_row_space(rows, a_side):
    """Residual of the columns of a_side off the span of rows' rows."""
    coef = np.linalg.lstsq(rows.T, a_side, rcond=None)[0]
    return np.linalg.norm(rows.T @ coef - a_side)


def test_projection_witness_lifts_the_first_negative_row_set(rng):
    # row sets that are not orthonormal; the witness is a unit vector on
    # the state itself, of Schmidt rank <= 2, from the first row set
    # whose compression is NPT, and carries the value validation finds
    for m, n, r in ((3, 3, 4), (3, 4, 7), (4, 4, 8), (4, 3, 5)):
        state = random_rank_r_state(m, n, r, rng)
        rows = complex_gaussian(rng, (6, 2, m))
        singles = [criteria._projection_witness(state, one[None]) for one in rows]
        k = next(k for k, w in enumerate(singles) if w is not None)
        w = criteria._projection_witness(state, rows)
        a_side = w.vector.reshape(m, n)
        assert abs(np.linalg.norm(w.vector) - 1.0) < 1e-12
        assert np.linalg.matrix_rank(a_side, tol=1e-10) <= 2
        assert _in_row_space(rows[k], a_side) < 1e-10
        assert abs(validate_witness(state, w) - w.value) <= 1e-12 * state.spectral_norm
        assert w.value == pytest.approx(singles[k].value, rel=1e-12)


def test_projection_witness_takes_the_first_hit_not_the_most_negative(rng):
    # psi = |2,0> + |0,1> plus weak products: the compression to A levels
    # 0 and 1 keeps only product vectors, so it is PPT
    psi = np.zeros(9, dtype=complex)
    psi[6] = psi[1] = 1.0
    products = [0.1 * np.kron(complex_gaussian(rng, 3), complex_gaussian(rng, 3))
                for _ in range(2)]
    state = BipartiteState.from_vectors(3, 3, [psi] + products)
    ppt_rows = np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 0.0]], dtype=complex)
    assert criteria._projection_witness(state, ppt_rows[None]) is None
    draws = [rows for rows in complex_gaussian(rng, (20, 2, 3))
             if criteria._projection_witness(state, rows[None]) is not None]
    values = [criteria._projection_witness(state, rows[None]).value for rows in draws]
    weak, strong = draws[int(np.argmax(values))], draws[int(np.argmin(values))]
    w = criteria._projection_witness(state, np.stack([ppt_rows, weak, strong]))
    assert w.value == pytest.approx(max(values), rel=1e-12) and max(values) > min(values) / 2
    assert _in_row_space(weak, w.vector.reshape(3, 3)) < 1e-10
    assert _in_row_space(strong, w.vector.reshape(3, 3)) > 1e-3


def test_projection_witness_is_none_on_a_ppt_state(rng):
    state = random_product_sum(3, 4, 6, rng)
    assert criteria._projection_witness(state, complex_gaussian(rng, (30, 2, 3))) is None


def test_first_eigen_frame_is_no_weaker_than_the_lowest_eigenvectors_truncation():
    # the pair (u_1, u_2) of the lowest eigenvector v of rho^G spans a
    # compression that holds psi, the Schmidt-rank-2 truncation of v, so
    # its lowest value is at most <psi| rho^G |psi> / |psi|^2; being the
    # first row set, it is the witness whenever it is negative
    rng = np.random.default_rng(13)
    hits = 0
    for m, n, r in ((3, 3, 4), (3, 3, 5), (3, 4, 6), (4, 4, 8), (4, 3, 5)) * 4:
        state = random_rank_r_state(m, n, r, rng)
        g = partial_transpose(state)
        v = np.linalg.eigh(g)[1][:, 0].reshape(m, n)
        u, sv, vh = np.linalg.svd(v)
        psi = sv[0] * np.kron(u[:, 0], vh[0]) + sv[1] * np.kron(u[:, 1], vh[1])
        truncated = np.real(psi.conj() @ g @ psi) / np.real(psi.conj() @ psi)
        frame = np.kron(u[:, :2], np.eye(n))
        first = np.linalg.eigvalsh(frame.conj().T @ g @ frame)[0]
        assert first <= truncated + 1e-12 * state.spectral_norm
        if first < -state.tol.negativity_floor(state.spectral_norm):
            hits += 1
            w = criteria._eigen_frame_witness(state)
            assert w.value == pytest.approx(first, rel=1e-9)
            assert _in_row_space(u[:, :2].T, w.vector.reshape(m, n)) < 1e-10
    assert hits >= 15


def test_eigen_frame_searches_draw_no_random_numbers(monkeypatch):
    # the eigen-frames are read off rho^G, so the rank-4 tree's last step
    # and classify_state's general branch decide with no random draw
    rng = np.random.default_rng(3)
    high_rank = [s for s in (random_rank_r_state(m, n, r, rng)
                             for m, n in ((3, 3), (3, 4), (4, 4)) for r in (5, 6, 7)
                             for _ in range(4)) if not is_ppt(s)[0]]
    params, _ = checkerboard_ppt_instance(19)
    checkerboard = make_checkerboard(
        replace(params, n=params.n - 5.480144811559844e-07 + 3.8176964608448576e-07j))
    expected = [criteria._eigen_frame_witness(s) for s in high_rank + [checkerboard]]

    def no_draw(*args, **kwargs):
        raise AssertionError("an eigen-frame route drew a random number")
    for module in (random_states, criteria, rank4, structure, product_search, families):
        for name in ("as_rng", "complex_gaussian"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_draw)
    witnesses = [criteria._eigen_frame_witness(s) for s in high_rank + [checkerboard]]
    assert [w.vector.tobytes() for w in witnesses] == [w.vector.tobytes() for w in expected]
    verdict = rank4.decide_rank4(checkerboard, rng=0)
    assert verdict.trail == ("eigen-frames",)
    assert validate_witness(checkerboard, verdict.outcome.witness) < 0
    frames = miss_npt_scan(monkeypatch)
    for state, w in zip(high_rank, expected):
        cert = classify_state(state, rng=0)
        assert cert.witness.vector.tobytes() == w.vector.tobytes()
        assert validate_witness(state, cert.witness) < 0
    assert len(frames) == len(high_rank) > 20


def normal_noncommuting_states():
    """The 3x3 rank-3 states with blocks (C_1, C_2, I), normal blocks of
    which only C_1 and C_2 do not commute, each with lambda_min(rho^G)."""
    c2 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
    for c1, lam_min in ((np.diag([1.0, 2.0, 3.0]).astype(complex), -1.0),
                        (np.diag([1.0, 1j, -1.0]), 1.0 - np.sqrt(5.0))):
        w = np.hstack([c1, c2, np.eye(3, dtype=complex)])
        yield BipartiteState(3, 3, w.conj().T @ w), lam_min


@pytest.mark.parametrize("m, n", [(3, 3), (3, 4)])
def test_rank_max_fallback_witness_is_a_large_share_of_the_negativity(monkeypatch, m, n):
    # with the chain's coordinate scan missing, the eigen-frames answer;
    # their witness, the lowest eigenvector of rho^G on an A 2-frame of
    # its eigenvectors, reaches a large share of lambda_min(rho^G).  On
    # the 3x3 states with normal blocks (c1, C_2, I), whose pair
    # projections (C_i, I) are all PPT and whose scan finds less than
    # lambda_min, they reach lambda_min itself
    rng = np.random.default_rng(4)
    states = [random_rank_r_state(m, n, n, rng) for _ in range(20)]
    closed_form = list(normal_noncommuting_states()) if (m, n) == (3, 3) else []
    for state, lam_min in closed_form:
        assert np.linalg.eigvalsh(partial_transpose(state))[0] == pytest.approx(lam_min, abs=1e-12)
        assert schmidt2_witness(state).value > lam_min + 0.05
    states += [state for state, _ in closed_form]
    frames = miss_npt_scan(monkeypatch)
    ratios = [validate_witness(s, classify_rank_le_max(s).witness)
              / np.linalg.eigvalsh(partial_transpose(s))[0] for s in states]
    assert len(frames) == len(states) and all(w is not None for w in frames)
    assert min(ratios[:20]) >= 0.5
    assert np.median(ratios[:20]) >= 0.8
    assert ratios[20:] == pytest.approx([1.0] * len(closed_form), abs=1e-12)


@pytest.mark.parametrize("kappa", [1, 1e2, 1e3, 1e4, 1e5])
def test_npt_rank_n_states_under_ilos_decide_through_the_chain(kappa):
    # the NPT half of the rank = max local rank theorem runs the NPT
    # chain alone: up to condition number 1e3 it certifies every state;
    # beyond it a state may test PPT or escape the chain, and is then
    # undecided, never an error
    rng = np.random.default_rng(3)
    outcomes = Counter()
    for m, n in ((3, 3), (3, 4), (4, 4), (2, 4)):
        for _ in range(100):
            state = apply_local(random_rank_r_state(m, n, n, rng),
                                ill_conditioned(kappa, rng, m), ill_conditioned(kappa, rng, n))
            try:
                cert = classify_rank_le_max(state)
            except UndecidableError:
                outcomes["undecided"] += 1
                continue
            outcomes[type(cert).__name__] += 1
            if isinstance(cert, Distillable):
                assert validate_witness(state, cert.witness) < 0
    if kappa <= 1e3:
        assert outcomes == {"Distillable": 400}
    else:
        assert outcomes["Distillable"] > 200


def test_ppt_rank_n_states_under_ill_conditioned_ilos_raise_only_undecidable(tmp_path, capsys):
    # under an ILO of condition number 1e5 the N products of a PPT rank-N
    # state can miss the reconstruction bar, or its blocks can lose their
    # common eigenbasis: the state tests PPT only within rounding.  Each
    # such state is undecided (UndecidableError, CLI exit 2), not an
    # error, and every verdict returned validates
    rng = np.random.default_rng(100000)
    outcomes, undecided = Counter(), None
    for m, n in ((2, 3), (3, 3), (3, 4), (4, 4)):
        for _ in range(100):
            state = apply_local(ppt_rank_n_state(m, n, rng, conjugate=False),
                                ill_conditioned(1e5, rng, m), ill_conditioned(1e5, rng, n))
            try:
                cert = classify_rank_le_max(state)
            except UndecidableError:
                outcomes["undecided"] += 1
                undecided = undecided or state
                continue
            assert isinstance(cert, Separable)
            validate_certificate(state, cert)
            outcomes["separable"] += 1
    assert set(outcomes) == {"separable", "undecided"}
    path = tmp_path / "state.json"
    save_state(undecided, path)
    assert main(["analyze", str(path)]) == 2
    assert "undecided:" in capsys.readouterr().err


def certificate_bytes(cert):
    """The bytes of a Separable's products or of a Distillable's witness."""
    if isinstance(cert, Separable):
        return b"".join(a.tobytes() + b.tobytes() for a, b in cert.products)
    return cert.witness.vector.tobytes() + repr(cert.witness.value).encode()


def test_rank_max_certificates_and_the_b_direct_split_do_not_depend_on_the_seed(monkeypatch):
    # the PPT half of the rank = max local rank theorem builds on a
    # full-rank direction chosen among fixed points, the NPT chain draws
    # nothing, and the B-direct split eigen-splits a fixed element of the
    # commutant, so the caller's seed moves none of their results.  The
    # NPT states run the eigen-frames: the chain's scan misses
    rng = np.random.default_rng(35)
    states = [ppt_rank_n_state(m, n, rng) for m, n in ((2, 3), (3, 3), (3, 4)) for _ in range(8)]
    npt = [s for s in (random_rank_r_state(m, n, n, rng) for m, n in ((3, 3), (3, 4))
                       for _ in range(10)) if not is_ppt(s)[0]]
    frames = miss_npt_scan(monkeypatch)
    kinds = set()
    for state in states + npt:
        first, second = classify_state(state, rng=0), classify_state(state, rng=12345)
        kinds.add(type(first))
        assert type(first) is type(second)
        assert certificate_bytes(first) == certificate_bytes(second)
    assert kinds == {Separable, Distillable} and len(states + npt) > 30
    assert len(frames) == 2 * len(npt) and all(w is not None for w in frames)

    example = families.make_reducible_4x4_example()[0]
    for _ in range(5):
        state = apply_local(example, random_invertible(4, rng), random_invertible(4, rng))
        first, second = (structure.decompose_b_direct(state).b_projectors for _ in range(2))
        assert len(first) == 2
        assert all(p.tobytes() == q.tobytes() for p, q in zip(first, second))


def test_restrict_full_local_ranks_is_free(rng, monkeypatch):
    state = random_rank_r_state(3, 4, 5, rng)
    state.local_ranks()
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k))
    restricted, qa, qb = restrict_to_local_ranges(state)
    assert restricted is state
    assert np.array_equal(qa, np.eye(3)) and np.array_equal(qb, np.eye(4))
    assert calls == []


@pytest.mark.parametrize("dims", [(2, 3), (3, 3), (3, 4)])
def test_rank_n_products_builds_one_block_form(dims, rng, monkeypatch):
    # the full-rank direction and the normal form share one block form
    state = criteria.Frame.local(ppt_rank_n_state(*dims, rng)).work
    built, block_form = [], criteria.block_form
    monkeypatch.setattr(criteria, "block_form", lambda s: built.append(s) or block_form(s))
    products = criteria._rank_n_products(state)
    assert len(built) == 1 and built[0] is state
    assert rel_residual(Separable(products=tuple(products)).reconstruct(*dims),
                        state.matrix) < 1e-8
