import numpy as np
import pytest

from entcert.families import make_antisymmetric
from entcert.linalg import ToleranceConfig, hermitian_eigen, numerical_rank
from entcert.random_states import (
    complex_gaussian,
    random_invertible,
    random_pure,
    random_rank_r_state,
)
from entcert.states import (
    BipartiteState,
    PureState,
    apply_local,
    block_form,
    partial_transpose,
    partial_transpose_matrix,
    reduce,
    reduce_matrix,
    schmidt,
    sector,
    swap_sides,
    tensor,
    von_neumann_entropy,
)

from conftest import bell_projector


def test_tolerance_config_rejects_nonpositive():
    with pytest.raises(ValueError):
        ToleranceConfig(psd_tol=0.0)


def test_hermitian_eigen_identity():
    w, v = hermitian_eigen(np.eye(3, dtype=complex))
    assert np.allclose(w, [1, 1, 1])


def test_hermitian_eigen_pauli_x():
    w, _ = hermitian_eigen(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(w, [-1, 1])


def test_hermitian_eigen_reconstructs(rng):
    h = complex_gaussian(rng, (6, 6))
    h = h + h.conj().T
    w, v = hermitian_eigen(h)
    assert np.linalg.norm(h @ v - v @ np.diag(w)) <= 1e-10 * np.linalg.norm(h)
    assert np.linalg.norm(v.conj().T @ v - np.eye(6)) <= 1e-12


def test_hermitian_eigen_rejects_non_hermitian(rng):
    h = complex_gaussian(rng, (4, 4))
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigen(h)


def test_numerical_rank_zero_matrix():
    rank, kernel = numerical_rank(np.zeros((4, 3)))
    assert rank == 0
    assert kernel.shape == (3, 3)


def test_numerical_rank_antisymmetric_state():
    assert make_antisymmetric(3).rank() == 3


def test_numerical_rank_outer_product(rng):
    u = complex_gaussian(rng, 5)
    v = complex_gaussian(rng, 4)
    rank, kernel = numerical_rank(np.outer(u, v))
    assert rank == 1
    assert kernel.shape == (4, 3)
    assert np.linalg.norm(np.outer(u, v) @ kernel) < 1e-10


def test_partial_transpose_product_state(rng):
    a = complex_gaussian(rng, (2, 2))
    rho_a = a @ a.conj().T
    b = complex_gaussian(rng, (3, 3))
    rho_b = b @ b.conj().T
    state = BipartiteState(2, 3, np.kron(rho_a, rho_b))
    gamma = partial_transpose(state)
    assert np.allclose(gamma, np.kron(rho_a.T, rho_b))
    assert np.linalg.eigvalsh(gamma)[0] > -1e-12


def test_partial_transpose_bell_min_eig():
    # oracle: direct 4x4 eigendecomposition of the flipped-block matrix
    gamma = partial_transpose(bell_projector())
    assert abs(np.linalg.eigvalsh(gamma)[0] - (-1.0)) < 1e-12


def test_partial_transpose_involution(rng):
    state = random_rank_r_state(3, 3, 5, rng)
    twice = partial_transpose_matrix(partial_transpose(state), 3, 3)
    assert np.array_equal(twice, state.matrix)


def test_partial_transpose_trace_and_reduction(rng):
    state = random_rank_r_state(2, 4, 3, rng)
    gamma = partial_transpose(state)
    assert abs(np.trace(gamma) - np.trace(state.matrix)) < 1e-12
    assert np.allclose(reduce(state, "A"), reduce_matrix(gamma, 2, 4, "A").T)
    assert np.allclose(reduce(state, "B"), reduce_matrix(gamma, 2, 4, "B"))


def test_reduce_bell_gives_identity():
    assert np.allclose(reduce(bell_projector(), "A"), np.eye(2))


def test_reduce_product_pure(rng):
    a = complex_gaussian(rng, 3)
    b = complex_gaussian(rng, 2)
    state = BipartiteState.from_vectors(3, 2, [np.kron(a, b)])
    expected = np.vdot(b, b) * np.outer(a, a.conj())
    assert np.allclose(reduce(state, "A"), expected)


def test_reduce_preserves_trace(rng):
    state = random_rank_r_state(3, 3, 4, rng)
    assert abs(np.trace(reduce(state, "A")) - np.trace(state.matrix)) < 1e-10
    assert abs(np.trace(reduce(state, "B")) - np.trace(state.matrix)) < 1e-10


def test_sector_antisymmetric_rank_two(rng):
    state = make_antisymmetric(3)
    for _ in range(5):
        x = complex_gaussian(rng, 3)
        rank, _ = numerical_rank(sector(state, x, "A"))
        assert rank == 2


def test_sector_product_state(rng):
    a = complex_gaussian(rng, (2, 2))
    rho_a = a @ a.conj().T
    b = complex_gaussian(rng, (3, 3))
    rho_b = b @ b.conj().T
    state = BipartiteState(2, 3, np.kron(rho_a, rho_b))
    x = complex_gaussian(rng, 2)
    expected = (x.conj() @ rho_a @ x) * rho_b
    assert np.allclose(sector(state, x, "A"), expected)


def test_sector_printed_two_by_three_state():
    v1 = np.zeros(6, dtype=complex)
    v1[0] = v1[4] = 1.0  # |11> + |22>
    v2 = np.zeros(6, dtype=complex)
    v2[5] = 1.0  # |23>
    v3 = np.zeros(6, dtype=complex)
    v3[2] = 1.0  # |13>
    state = BipartiteState.from_vectors(2, 3, [v1, v2, v3])
    x = np.array([1.0, 0.0], dtype=complex)
    rank, _ = numerical_rank(sector(state, x, "A"))
    assert rank == 2


def test_sector_rejects_zero_vector():
    with pytest.raises(ValueError):
        sector(bell_projector(), np.zeros(2), "A")


def test_block_form_reconstructs(rng):
    for dims, r in (((2, 3), 2), ((3, 3), 4), ((2, 4), 3)):
        state = random_rank_r_state(*dims, r, rng)
        bf = block_form(state)
        assert bf.rank == r
        rel = np.linalg.norm(bf.reconstruct() - state.matrix) / np.linalg.norm(state.matrix)
        assert rel < 1e-10


def test_block_form_b_marginal(rng):
    state = random_rank_r_state(3, 3, 4, rng)
    bf = block_form(state)
    total = sum(c.conj().T @ c for c in bf.blocks)
    assert np.allclose(total, reduce(state, "B"))


def test_block_form_matches_printed_antisymmetric_blocks():
    # printed blocks for the antisymmetric state, up to a shared left unitary
    state = make_antisymmetric(3)
    c1 = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=complex)
    c2 = np.array([[0, 0, 1], [0, 0, 0], [-1, 0, 0]], dtype=complex)
    c3 = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
    w_printed = np.hstack([c1, c2, c3])
    w_mine = block_form(state).stacked()
    omega = w_mine @ w_printed.conj().T
    u, _, vh = np.linalg.svd(omega)
    rot = u @ vh
    assert np.linalg.norm(rot @ w_printed - w_mine) < 1e-10


def test_block_form_normalize_last(rng):
    state = random_rank_r_state(2, 3, 3, rng)
    original = block_form(state)
    bf, inv = original.normalize_last()
    assert np.allclose(bf.blocks[-1], np.eye(3))
    assert np.allclose(original.blocks[-1] @ inv, np.eye(3))


def test_block_form_normalize_rejects_singular():
    state = make_antisymmetric(3)  # blocks are singular antisymmetric matrices
    with pytest.raises(ValueError, match="singular|square"):
        block_form(state).normalize_last()


def test_sector_block_identity(rng):
    state = random_rank_r_state(3, 3, 4, rng)
    bf = block_form(state)
    for _ in range(3):
        x = complex_gaussian(rng, 3)
        x_mat = sum(xi * c for xi, c in zip(x, bf.blocks))
        assert np.allclose(sector(state, x, "A"), x_mat.conj().T @ x_mat)


def test_apply_local_identity(rng):
    state = random_rank_r_state(2, 2, 2, rng)
    out = apply_local(state, None, None)
    assert np.allclose(out.matrix, state.matrix)


def test_apply_local_rank_invariance(rng):
    for _ in range(100):
        state = random_rank_r_state(3, 3, 4, rng)
        out = apply_local(state, random_invertible(3, rng), random_invertible(3, rng))
        assert out.rank() == 4
        assert out.local_ranks() == state.local_ranks()


def test_apply_local_projector_reduces_dims(rng):
    state = random_rank_r_state(3, 3, 4, rng)
    proj = np.zeros((2, 3), dtype=complex)
    proj[0, 0] = proj[1, 2] = 1.0
    out = apply_local(state, proj, None)
    assert (out.dim_a, out.dim_b) == (2, 3)


def test_apply_local_rejects_zero_result(rng):
    state = BipartiteState.from_vectors(2, 2, [np.array([1, 0, 0, 0], dtype=complex)])
    kill = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="zero"):
        apply_local(state, kill, None)


def test_schmidt_bell():
    coeffs, _, _ = schmidt(PureState(2, 2, np.array([1, 0, 0, 1], dtype=complex)))
    assert np.allclose(coeffs, [1, 1])


def test_schmidt_product(rng):
    a = complex_gaussian(rng, 3)
    b = complex_gaussian(rng, 2)
    coeffs, _, _ = schmidt(PureState(3, 2, np.kron(a, b)))
    assert len(coeffs) == 1


def test_schmidt_random_2x3(rng):
    psi = random_pure(2, 3, rng)
    coeffs, _, _ = schmidt(psi)
    # oracle: singular values of the 2x3 coefficient matrix
    sv = np.linalg.svd(psi.amplitudes.reshape(2, 3), compute_uv=False)
    assert len(coeffs) == 2
    assert np.allclose(coeffs, sv[:2])


def test_schmidt_reconstruction(rng):
    psi = random_pure(3, 4, rng)
    coeffs, basis_a, basis_b = schmidt(psi)
    rebuilt = sum(s * np.kron(basis_a[:, k], basis_b[k, :])
                  for k, s in enumerate(coeffs))
    assert np.linalg.norm(rebuilt - psi.amplitudes) < 1e-10 * np.linalg.norm(psi.amplitudes)


def test_schmidt_rank_ilo_invariance(rng):
    psi = random_pure(3, 3, rng)
    k = np.linalg.matrix_rank(psi.amplitudes.reshape(3, 3))
    op = np.kron(random_invertible(3, rng), random_invertible(3, rng))
    coeffs, _, _ = schmidt(PureState(3, 3, op @ psi.amplitudes))
    assert len(coeffs) == k


def test_tensor_rank_multiplicative(rng):
    s1 = random_rank_r_state(2, 2, 2, rng)
    s2 = random_rank_r_state(2, 3, 3, rng)
    assert tensor(s1, s2).rank() == 6


def test_tensor_antisymmetric_square():
    ras = make_antisymmetric(3)
    two = tensor(ras, ras)
    assert (two.dim_a, two.dim_b) == (9, 9)
    assert two.rank() == 9


def test_tensor_commutes_with_partial_transpose(rng):
    s1 = random_rank_r_state(2, 2, 2, rng)
    s2 = random_rank_r_state(2, 2, 2, rng)
    lhs = partial_transpose(tensor(s1, s2))
    g1, g2 = partial_transpose(s1), partial_transpose(s2)
    big = np.kron(g1, g2).reshape(2, 2, 2, 2, 2, 2, 2, 2)
    rhs = big.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)
    assert np.allclose(lhs, rhs)


def test_swap_sides_round_trip(rng):
    state = random_rank_r_state(2, 3, 3, rng)
    assert np.allclose(swap_sides(swap_sides(state)).matrix, state.matrix)


def test_entropy_pure_state():
    assert von_neumann_entropy(np.outer([1, 0], [1, 0])) == 0.0


def test_entropy_maximally_mixed():
    for d in (2, 3, 4):
        assert abs(von_neumann_entropy(np.eye(d) / d) - np.log2(d)) < 1e-12


def test_entropy_bell_reduced():
    assert abs(von_neumann_entropy(reduce(bell_projector(), "A")) - 1.0) < 1e-12


def test_entropy_rejects_zero_trace():
    with pytest.raises(ValueError):
        von_neumann_entropy(np.zeros((2, 2)))


def test_state_validation_rejects_non_psd():
    mat = np.diag([1.0, -0.5, 1.0, 1.0]).astype(complex)
    with pytest.raises(ValueError, match="PSD"):
        BipartiteState(2, 2, mat)


def test_state_validation_rejects_non_hermitian(rng):
    mat = complex_gaussian(rng, (4, 4))
    with pytest.raises(ValueError, match="Hermitian"):
        BipartiteState(2, 2, mat)
