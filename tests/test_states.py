import numpy as np
import pytest

from entcert import states
from entcert.analyze import classify_state
from entcert.certificates import Distillable, Separable, validate_certificate
from entcert.criteria import restrict_to_local_ranges
from entcert.families import make_antisymmetric
from entcert.linalg import (
    ToleranceConfig, common_eigenbasis, dagger, hermitian_eigen, kron, numerical_rank,
)
from entcert.random_states import (
    complex_gaussian,
    random_invertible,
    random_pure,
    random_rank_r_state,
    random_unitary,
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
    # a relative tolerance of 1 or more, or an infinite one, lets no
    # check fail
    for kwargs in ({"psd_tol": 0.0}, {"psd_tol": np.inf}, {"psd_tol": 1.0},
                   {"residual_tol": 1.0}, {"residual_tol": np.inf}, {"residual_tol": np.nan},
                   {"rank_tol_factor": np.inf}, {"rank_tol_factor": 0.0}):
        with pytest.raises(ValueError):
            ToleranceConfig(**kwargs)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_non_finite_input_is_rejected(bad):
    # NaN compares False against every tolerance, so it must be caught
    # before any of them
    m = np.eye(4, dtype=complex)
    m[0, 0] = bad
    with pytest.raises(ValueError, match="not finite"):
        BipartiteState(2, 2, m)
    amp = np.ones(4, dtype=complex)
    amp[2] = bad
    with pytest.raises(ValueError, match="finite"):
        PureState(2, 2, amp)


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


def _operand(rng, shape, complex_):
    real = rng.standard_normal(shape)
    return real + 1j * rng.standard_normal(shape) if complex_ else real


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("complex_a, complex_b", [(False, False), (False, True),
                                                  (True, False), (True, True)])
def test_kron_matches_np_kron_bytes_and_dtype(ndim, complex_a, complex_b, rng):
    for _ in range(50):
        a = _operand(rng, tuple(rng.integers(1, 5, ndim)), complex_a)
        b = _operand(rng, tuple(rng.integers(1, 5, ndim)), complex_b)
        for x, y in ((a, b), (a.T, b), (a, b[::-1])):
            want, got = np.kron(x, y), kron(x, y)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()


def test_kron_with_identity_operands_matches_np_kron(rng):
    t = complex_gaussian(rng, (3, 2))
    for x, y in ((t, np.eye(4)), (np.eye(2), t), (np.eye(2), np.eye(3, dtype=complex)),
                 (t.real, np.eye(2))):
        want, got = np.kron(x, y), kron(x, y)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def test_kron_rejects_mixed_ranks():
    with pytest.raises(ValueError, match="two vectors or two matrices"):
        kron(np.ones(2), np.eye(2))


def _conjugated(rng, diagonals):
    u = random_unitary(len(diagonals[0]), rng)
    return [u @ np.diag(np.asarray(d, dtype=complex)) @ dagger(u) for d in diagonals]


def _noisy_normal(rng, lam):
    c, = _conjugated(rng, [lam])
    return [c + 1e-12 * complex_gaussian(rng, (3, 3))]


# Hermitian-part eigenvalues 1e-7 apart, separated by the anti-Hermitian
# part, plus input noise: eigenvectors of the Hermitian part alone would
# carry noise / gap into the off-diagonal.
_CLOSE_HERMITIAN_GAP = [0.3 + 0.5j, 0.3 + 1e-7 - 0.5j, -0.7 + 0.1j]
# Two eigenvalues 1.0 apart whose projections onto the helper's fixed
# combination (real part of e^{-i} lambda) are 1e-6 apart.
_CLOSE_PROJECTED_GAP = [0.3 + 0.5j, 0.3 + 0.5j + np.exp(1j) * (1j + 1e-6), -1.0]


# Two eigenvalues 1.0 apart whose projections are gap apart, down to 0:
# the Hermitian part mixes the pair freely, and the pair's 2x2 block
# is rotated onto its eigenvectors.
def _projected_gap(gap):
    return [0.3 + 0.5j, 0.3 + 0.5j + np.exp(1j) * (1j + gap), -0.7 + 0.1j]


def _non_normal(rng):
    u = random_unitary(3, rng)
    return [u @ np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]) @ dagger(u)]


def _hermitian(rng, n):
    x = complex_gaussian(rng, (n, n))
    return x + dagger(x)


_FAMILIES = {
    "residual": lambda rng: _conjugated(rng, [complex_gaussian(rng, 4) for _ in range(3)]),
    "degenerate": lambda rng: _conjugated(rng, [[1.0, 1.0, 2.0, 2.0],    # degenerate
                                                [3.0, 4.0, 5.0, 5.0]]),  # splits the first pair
    "close-hermitian-gap": lambda rng: _noisy_normal(rng, _CLOSE_HERMITIAN_GAP),
    "close-projected-gap": lambda rng: _noisy_normal(rng, _CLOSE_PROJECTED_GAP),
    # joint eigenvalues (2i, 0) and (0, i) collide in a combination that
    # weighs Im(A_1) twice as much as Im(A_0)
    "projected-gap-1e-9": lambda rng: _noisy_normal(rng, _projected_gap(1e-9)),
    "projected-gap-1e-10": lambda rng: _noisy_normal(rng, _projected_gap(1e-10)),
    "projected-gap-0": lambda rng: _noisy_normal(rng, _projected_gap(0.0)),
    "integer-spectra": lambda rng: _conjugated(rng, [[2j, 0.0, 1.0], [0.0, 1j, 1.0]]),
    "non-normal": _non_normal,
    "non-commuting": lambda rng: [_hermitian(rng, 3), _hermitian(rng, 3)],
    # a member far below the largest norm is judged on its own scale
    "non-normal-small-member": lambda rng: _conjugated(rng, [[1.0, 2.0, 3.0]])
                                           + [1e-7 * _non_normal(rng)[0]],
}


@pytest.mark.parametrize("case", list(_FAMILIES))
def test_common_eigenbasis(case, rng):
    for _ in range(50):
        mats = _FAMILIES[case](rng)
        found = common_eigenbasis(mats)
        if case.startswith("non-"):
            assert found is None
            continue
        u, diags = found
        assert np.allclose(dagger(u) @ u, np.eye(len(u)), atol=1e-12)
        for c, d in zip(mats, diags):
            conj = dagger(u) @ c @ u
            assert np.allclose(np.diag(conj), d, rtol=0.0, atol=1e-12 * np.linalg.norm(c))
            assert np.linalg.norm(conj - np.diag(d)) <= 1e-10 * np.linalg.norm(c)


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


@pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
def test_apply_local_zero_state_test_is_scale_invariant(c, rng):
    # a generic ILO keeps any scale; an operator that kills the range up
    # to rounding is rejected at any scale
    a, b = complex_gaussian(rng, 3), complex_gaussian(rng, 3)
    state = BipartiteState(3, 3, c * np.outer(kron(a, b), kron(a, b).conj()))
    out = apply_local(state, 1e-6 * random_invertible(3, rng), random_invertible(3, rng))
    assert out.rank() == 1
    kill = np.eye(3) - np.outer(a, a.conj()) / np.vdot(a, a)
    with pytest.raises(ValueError, match="zero"):
        apply_local(state, kill, random_invertible(3, rng))


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


def test_hermiticity_check_is_relative_at_every_scale():
    # a PSD matrix plus 1e-3 K, K real antisymmetric: the relative defect
    # |H - H^dag| / |H| is 5e-4 at every scale, so no scale may pass it
    k = np.zeros((4, 4), dtype=complex)
    k[0, 1], k[1, 0] = 1.0, -1.0
    mat = 2.0 * np.sqrt(2.0) * np.eye(4) + 1.0e-3 * k
    for e in range(-12, 13):
        with pytest.raises(ValueError, match="Hermitian"):
            BipartiteState(2, 2, 10.0 ** e * mat)


def test_spectral_norm_is_kept_from_construction(rng, monkeypatch):
    state = random_rank_r_state(4, 4, 3, rng)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    values = {state.spectral_norm for _ in range(5)}
    assert calls == []
    assert values == {float(eigvalsh(state.matrix)[-1])}
    fresh = BipartiteState(4, 4, state.matrix)
    assert len(calls) == 1
    assert fresh.spectral_norm == state.spectral_norm
    assert len(calls) == 1


def test_ranks_are_computed_once_per_state(rng, monkeypatch):
    state = random_rank_r_state(3, 4, 5, rng)
    calls = []
    psd_eigen = states.psd_eigen
    monkeypatch.setattr(states, "psd_eigen",
                        lambda h, tol: calls.append(np.shape(h)) or psd_eigen(h, tol))
    assert state.rank() == 5
    assert calls == [(12, 12)]
    assert state.local_ranks() == (3, 4)
    assert calls == [(12, 12), (3, 3), (4, 4)]
    for _ in range(3):
        assert state.rank() == 5
        assert state.local_ranks() == (3, 4)
    assert len(calls) == 3


def test_state_keeps_no_array_but_its_matrix(rng):
    state = random_rank_r_state(3, 3, 4, rng)
    state.rank(), state.local_ranks(), state.range_basis(), state.spectral_norm
    arrays = [k for k, v in vars(state).items() if isinstance(v, np.ndarray)]
    assert arrays == ["matrix"]


def _slightly_negative_3x2_in_3x3(kind, seed):
    """Rank 3 in C^3 (x) span{|0>, |1>}, minus 1e-11 |rho| |0,2><0,2|.

    The min eigenvalue, about -1e-11 |rho|, passes the PSD floor of
    -1e-8 |rho| but its magnitude is far above the rank cutoff (~2e-13
    |rho|), so a singular-value count calls it range.
    """
    rng = np.random.default_rng(seed)
    vecs = []
    for _ in range(3):
        b = np.zeros(3, dtype=complex)
        if kind == "product":
            b[:2] = complex_gaussian(rng, 2)
            vecs.append(np.kron(complex_gaussian(rng, 3), b))
        else:
            k = np.zeros((3, 3), dtype=complex)
            k[:, :2] = complex_gaussian(rng, (3, 2))
            vecs.append(k.reshape(-1))
    rho = sum(np.outer(v, v.conj()) for v in vecs)
    e = np.zeros(9)
    e[2] = 1.0
    return BipartiteState(3, 3, rho - 1e-11 * np.linalg.norm(rho, 2) * np.outer(e, e))


@pytest.mark.parametrize("kind", ["random", "product"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ranks_agree_with_the_range_and_the_local_frame(kind, seed):
    state = _slightly_negative_3x2_in_3x3(kind, seed)
    assert np.linalg.eigvalsh(state.matrix)[0] < -5e-12 * state.spectral_norm
    restricted, qa, qb = restrict_to_local_ranges(state)
    assert state.rank() == 3 == state.range_basis().shape[1]
    assert state.local_ranks() == (3, 2) == (restricted.dim_a, restricted.dim_b)
    assert (qa.shape[1], qb.shape[1]) == (3, 2)

    cert = classify_state(state)
    validate_certificate(state, cert)
    gamma = partial_transpose(state)
    ppt = np.linalg.eigvalsh(gamma)[0] >= -1e-8 * state.spectral_norm
    assert isinstance(cert, Separable if ppt else Distillable)
    assert ppt == (kind == "product")
