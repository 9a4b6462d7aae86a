import numpy as np
import pytest

from entcert import criteria
from entcert.analyze import classify_state
from entcert.certificates import (
    Distillable,
    Separable,
    validate_witness,
)
from entcert.criteria import (
    classify_rank_le_max,
    certify_pure_plus_sigma,
    full_rank_property,
    is_ppt,
    reduction_criterion,
    schmidt2_witness,
    trivially_distillable,
)
from entcert.families import make_antisymmetric
from entcert.linalg import rel_residual
from entcert.random_states import (
    complex_gaussian,
    random_invertible,
    random_product_sum,
    random_rank_r_state,
)
from entcert.states import (
    BipartiteState,
    PureState,
    apply_local,
    reduce,
    swap_sides,
    tensor,
)

from conftest import bell_projector, ppt_rank_n_state


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


def test_trivially_distillable_constructed():
    # rho with a [[*, 1], [1, 0]] pattern in rho^G: |00><00| + the
    # cross terms of |01><10| (Gamma maps them onto rows (0,1)/(1,0))
    v1 = np.array([1, 0, 0, 0.5], dtype=complex)
    v2 = np.array([0, 1, 0, 0], dtype=complex)
    state = BipartiteState.from_vectors(2, 2, [v1, v2])
    w = trivially_distillable(state)
    assert w is not None
    assert validate_witness(state, w) < -1e-10


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
    w = schmidt2_witness(bell_projector(), rng=1)
    assert w is not None
    assert abs(w.value + 1.0) < 1e-12


def test_schmidt2_witness_ppt_none(rng):
    state = random_product_sum(3, 3, 6, rng)
    assert schmidt2_witness(state, budget=16, rng=rng) is None


def test_schmidt2_witness_antisymmetric():
    state = make_antisymmetric(3)
    w = schmidt2_witness(state, rng=1)
    assert w is not None
    assert validate_witness(state, w) < -1e-10


def test_classify_rank_below_max_distillable(rng):
    for dims in ((3, 4), (4, 3)):
        state = random_rank_r_state(*dims, 3, rng)
        cert = classify_rank_le_max(state, rng=rng)
        assert isinstance(cert, Distillable)
        assert validate_witness(state, cert.witness) < -1e-10


def test_classify_rank_max_ppt_separable(rng):
    for dims in ((3, 3), (2, 3)):
        state = ppt_rank_n_state(*dims, rng)
        cert = classify_rank_le_max(state, rng=rng)
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


def test_classify_rank_max_npt_distillable(rng):
    # 4x3 is the side-swapped orientation: the witness found on the
    # 3x4 working state must be pulled back through the swap
    for dims, rank in (((3, 3), 3), ((4, 3), 4)):
        hits = 0
        while hits < 10:
            state = random_rank_r_state(*dims, rank, rng)
            if is_ppt(state)[0]:
                continue
            cert = classify_rank_le_max(state, rng=rng)
            assert isinstance(cert, Distillable)
            assert validate_witness(state, cert.witness) < -1e-10
            hits += 1
    state = antisymmetric_plus_03()
    for oriented in (state, swap_sides(state)):
        for cert in (classify_rank_le_max(oriented, rng=rng),
                     classify_state(oriented, rng=rng)):
            assert isinstance(cert, Distillable)
            assert validate_witness(oriented, cert.witness) < -1e-10


def test_classify_rank_max_never_silently_undecided(rng):
    # out-of-contract rank must be rejected, not mis-verdicted
    state = random_rank_r_state(3, 3, 5, rng)
    with pytest.raises(ValueError, match="rank"):
        classify_rank_le_max(state, rng=rng)


def test_reduction_violation_implies_schmidt2(rng):
    found = 0
    while found < 5:
        state = random_rank_r_state(2, 2, 2, rng)
        violated, _ = reduction_criterion(state)
        if not violated:
            continue
        assert schmidt2_witness(state, rng=rng) is not None
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
        assert schmidt2_witness(state, budget=8, rng=rng) is None
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
    cert = classify_rank_le_max(outer, rng=rng)
    assert isinstance(cert, Distillable)
    assert validate_witness(outer, cert.witness) < -1e-10


@pytest.mark.parametrize("c1, x", [
    # Hermitian C_1: K = [C_1, C_2] is anti-Hermitian, so x = 1 fails
    (np.diag([1.0, 2.0, 3.0]).astype(complex), 1j),
    (np.diag([1.0, 1j, -1.0]), 1.0),
])
def test_pair_witness_closed_form_on_normal_noncommuting_blocks(c1, x):
    # normal blocks make every pair projection (C_i, I) PPT, so only the
    # combination x C_1 + C_2 of the non-commuting pair can certify
    c2 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
    eye = np.eye(3, dtype=complex)
    blocks = [c1, c2, eye]
    w = np.hstack(blocks)
    state = BipartiteState(3, 3, w.conj().T @ w)
    assert not is_ppt(state)[0]
    witness = criteria._pair_witness(blocks, eye, eye, state.tol)
    assert witness.x == x
    assert validate_witness(state, witness) < -1e-10
