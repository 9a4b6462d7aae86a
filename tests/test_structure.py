import numpy as np
import pytest

from entcert.analyze import classify_state
from entcert.certificates import Distillable, Separable, UndecidableError, validate_witness
from entcert.criteria import is_ppt, left_pencil
from entcert.families import make_generalized_ghz, make_label_state
from entcert.linalg import rel_residual
from entcert.product_search import rank_one_in_span
from entcert.random_states import (
    complex_gaussian,
    random_invertible,
    random_rank_r_state,
    random_unitary,
)
from entcert.states import (
    BipartiteState,
    PureState,
    apply_local,
    block_form,
    reduce,
    von_neumann_entropy,
)
from entcert.structure import (
    _b_conjugators,
    _commutant_constraint,
    _hermitian_basis,
    aggregate,
    b_blocks,
    classical_side,
    common_kernel_distill,
    commutant_decompose,
    decompose_b_direct,
)
from entcert.tripartite import reduced_pair

from conftest import bell_projector


def b_direct_sum_of_products(n_components, rng, conjugate=True):
    """Known B-direct sum: components are products with disjoint B levels."""
    n = 3 if n_components <= 3 else n_components
    vecs = []
    for k in range(n_components):
        a = complex_gaussian(rng, 3)
        b = np.zeros(n, dtype=complex)
        b[k] = 1.0
        vecs.append(np.kron(a, b))
    state = BipartiteState.from_vectors(3, n, vecs)
    if conjugate:
        state = apply_local(state, random_invertible(3, rng),
                            random_invertible(n, rng))
    return state


def b_normalize(state):
    """The state conjugated by I (x) rho_B^{-1/2} on the range of rho_B
    (rho_B -> I), with the conjugator and its inverse."""
    fwd, inv = _b_conjugators(state.matrix, state.dim_a, state.dim_b, state.tol)
    return apply_local(state, None, fwd), fwd, inv


def reducible_4x4():
    phi1 = np.zeros(16, dtype=complex)
    phi1[0] = phi1[5] = 1.0
    phi2 = np.zeros(16, dtype=complex)
    phi2[2] = phi2[7] = 1.0
    return BipartiteState.from_vectors(
        4, 4, [np.sqrt(2) * phi1, np.sqrt(2) * phi2])


def test_b_normalize_already_normalized(rng):
    n = 3
    u = random_unitary(n, rng)
    # a state with rho_B = I: maximally mixed B via Bell-like pairs
    vecs = [np.kron(e, u[:, k]) for k, e in enumerate(np.eye(3, dtype=complex))]
    state = BipartiteState.from_vectors(3, 3, vecs)
    normalized, fwd, inv = b_normalize(state)
    assert np.allclose(reduce(normalized, "B"), np.eye(3))
    assert np.allclose(fwd @ inv, np.eye(3))


def test_b_normalize_random(rng):
    state = random_rank_r_state(3, 3, 4, rng)
    normalized, fwd, inv = b_normalize(state)
    assert np.linalg.norm(reduce(normalized, "B") - np.eye(3)) < 1e-8


def test_b_normalize_reducible_marginals_become_projectors(rng):
    state = b_direct_sum_of_products(2, rng)
    normalized, _, _ = b_normalize(state)
    decomp = decompose_b_direct(state)
    for comp in decomp.components:
        marg = reduce(comp, "B")
        # idempotent within tolerance: an orthogonal projector
        assert np.linalg.norm(marg @ marg - marg) < 1e-8


def test_commutant_scalar_family_has_full_commutant():
    # scalar blocks commute with everything; a generic element splits
    # the B space completely (any 1-level-by-2 state is reducible)
    projectors = commutant_decompose(
        [np.eye(3, dtype=complex) * c for c in (1.0, 2.0, 0.5)])
    assert len(projectors) == 3


def test_commutant_irreducible_family(rng):
    state = random_rank_r_state(3, 3, 4, rng)
    normalized, _, _ = b_normalize(state)
    assert len(commutant_decompose(b_blocks(normalized))) == 1


def test_commutant_two_block_family(rng):
    u = random_unitary(4, rng)
    family = []
    for _ in range(4):
        m = np.zeros((4, 4), dtype=complex)
        m[:2, :2] = complex_gaussian(rng, (2, 2))
        m[2:, 2:] = complex_gaussian(rng, (2, 2))
        family.append(u @ m @ u.conj().T)
    family += [f.conj().T for f in family]
    projectors = commutant_decompose(family)
    assert len(projectors) == 2
    recovered = {2}
    assert {int(round(np.trace(p).real)) for p in projectors} == recovered
    # recovered invariant subspaces match the construction
    p_expected = u @ np.diag([1, 1, 0, 0]).astype(complex) @ u.conj().T
    match = min(np.linalg.norm(p - p_expected) for p in projectors)
    assert match < 1e-8


def loop_commutant_constraint(blocks):
    """Reference: one commutator per (basis element, block) pair."""
    n = blocks[0].shape[0]
    basis = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = e[j, i] = inv_sqrt2
            basis.append(e)
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1j * inv_sqrt2
            e[j, i] = -1j * inv_sqrt2
            basis.append(e)
    assert np.array(basis).tobytes() == _hermitian_basis(n).tobytes()
    cols = []
    for e in basis:
        pieces = []
        for s in blocks:
            comm = e @ s - s @ e
            pieces.append(np.concatenate([comm.real.ravel(), comm.imag.ravel()]))
        cols.append(np.concatenate(pieces))
    return np.array(cols).T


@pytest.mark.parametrize("m, n, r", [(3, 3, 4), (2, 4, 4), (4, 3, 4)])
def test_commutant_constraint_matches_the_loop_bit_for_bit(m, n, r):
    rng = np.random.default_rng([m, n, r])
    for _ in range(5):
        normalized, _, _ = b_normalize(random_rank_r_state(m, n, r, rng))
        blocks = b_blocks(normalized)
        constraint = _commutant_constraint(np.asarray(blocks))
        assert constraint.shape == (2 * m * m * n * n, n * n)
        reference = loop_commutant_constraint(blocks)
        assert np.array_equal(constraint, reference)
        assert constraint.tobytes() == reference.tobytes()  # signed zeros too


def test_hermitian_basis_is_built_once_and_read_only():
    assert _hermitian_basis(3) is _hermitian_basis(3)
    assert not _hermitian_basis(3).flags.writeable


@pytest.mark.parametrize("seed", range(20))
def test_commutant_finds_a_planted_two_plus_one_split(seed):
    # B levels {0, 1} carry a generic rank-2 part, level 2 one product;
    # a random ILO hides the split
    rng = np.random.default_rng(seed)
    two = [np.kron(complex_gaussian(rng, 3), np.eye(3)[0])
           + np.kron(complex_gaussian(rng, 3), np.eye(3)[1]) for _ in range(2)]
    one = np.kron(complex_gaussian(rng, 3), np.eye(3)[2])
    state = apply_local(BipartiteState.from_vectors(3, 3, two + [one]),
                        random_invertible(3, rng), random_invertible(3, rng))
    normalized, _, _ = b_normalize(state)
    projectors = commutant_decompose(b_blocks(normalized))
    assert len(projectors) == 2
    assert sorted(int(round(np.trace(p).real)) for p in projectors) == [1, 2]


def test_commutant_diagonal_family():
    projectors = commutant_decompose(
        [np.eye(3, dtype=complex), np.diag([1.0, 2.0, 3.0]).astype(complex)])
    assert len(projectors) == 3
    assert all(int(round(np.trace(p).real)) == 1 for p in projectors)


def test_decompose_4x4_example():
    decomp = decompose_b_direct(reducible_4x4())
    assert decomp.n_components == 2


def test_decompose_generic_irreducible(rng):
    state = random_rank_r_state(3, 3, 4, rng)
    assert decompose_b_direct(state).irreducible


def test_decompose_three_products(rng):
    state = b_direct_sum_of_products(3, rng)
    decomp = decompose_b_direct(state)
    assert decomp.n_components == 3


def test_irreducible_decomposition_builds_no_state(rng, monkeypatch):
    state = random_rank_r_state(3, 3, 4, rng)
    built = []
    post_init = BipartiteState.__post_init__
    monkeypatch.setattr(BipartiteState, "__post_init__",
                        lambda self: built.append(1) or post_init(self))
    decomp = decompose_b_direct(state)
    assert decomp.irreducible
    assert built == []


def test_decompose_components_match_b_normalize_byte_for_byte(rng):
    for state in (random_rank_r_state(3, 3, 4, rng), random_rank_r_state(2, 4, 4, rng),
                  b_direct_sum_of_products(3, rng), reducible_4x4()):
        decomp = decompose_b_direct(state)
        normalized, _, _ = b_normalize(state)
        expected = [normalized] if decomp.irreducible else [
            apply_local(normalized, None, p) for p in decomp.b_projectors]
        assert len(decomp.components) == len(expected) == decomp.n_components
        for got, want in zip(decomp.components, expected):
            assert (got.dim_a, got.dim_b) == (want.dim_a, want.dim_b)
            assert got.matrix.tobytes() == want.matrix.tobytes()
        assert decomp.components is decomp.components


def test_decompose_sum_matches_normalized_state(rng):
    state = b_direct_sum_of_products(2, rng)
    decomp = decompose_b_direct(state)
    normalized = apply_local(state, None, decomp.conjugator)
    total = sum(c.matrix for c in decomp.components)
    assert rel_residual(total, normalized.matrix) < 1e-9


def test_decompose_component_ranges_orthogonal(rng):
    state = b_direct_sum_of_products(3, rng)
    decomp = decompose_b_direct(state)
    margs = [reduce(c, "B") for c in decomp.components]
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.linalg.norm(margs[i] @ margs[j]) < 1e-8


def test_decompose_idempotent(rng):
    state = b_direct_sum_of_products(2, rng)
    decomp = decompose_b_direct(state)
    for comp in decomp.components:
        assert decompose_b_direct(comp).irreducible


def test_decompose_count_ilo_invariant(rng):
    base = b_direct_sum_of_products(2, rng, conjugate=False)
    for _ in range(5):
        conj = apply_local(base, random_invertible(3, rng), random_invertible(3, rng))
        assert decompose_b_direct(conj).n_components == 2


def test_aggregate_all_separable(rng):
    state = b_direct_sum_of_products(2, rng)
    decomp = decompose_b_direct(state)
    verdicts = [classify_state(c, rng=rng) for c in decomp.components]
    assert all(isinstance(v, Separable) for v in verdicts)
    cert = aggregate(decomp, verdicts)
    assert isinstance(cert, Separable)
    assert rel_residual(cert.reconstruct(3, 3), state.matrix) < 1e-8


def test_aggregate_distillable_component(rng):
    # NPT 2x2 block in one B sector, separable product in another
    bell = np.zeros(9, dtype=complex)
    bell[0 * 3 + 0] = bell[1 * 3 + 1] = 1.0
    prod = np.kron(complex_gaussian(rng, 3), np.array([0, 0, 1.0]))
    state = BipartiteState.from_vectors(3, 3, [bell, prod])
    state = apply_local(state, random_invertible(3, rng), random_invertible(3, rng))
    decomp = decompose_b_direct(state)
    assert decomp.n_components == 2
    verdicts = [classify_state(c, rng=rng) for c in decomp.components]
    cert = aggregate(decomp, verdicts)
    assert isinstance(cert, Distillable)
    assert validate_witness(state, cert.witness) < -1e-10


def test_common_kernel_constructed_fixture(rng):
    # blocks with zeroed first columns for all but the first A level, as
    # built, under local unitaries and under ILOs: the kernel pattern's
    # coefficients are then complex, not real up to a phase
    blocks = [complex_gaussian(rng, (4, 3)) for _ in range(3)]
    for c in blocks[1:]:
        c[:, 0] = 0.0
    w = np.hstack(blocks)
    base = BipartiteState(3, 3, w.conj().T @ w)
    states = [base]
    for local in (random_unitary, random_invertible):
        states += [apply_local(base, local(3, rng), local(3, rng)) for _ in range(3)]
    for state in states:
        cert = common_kernel_distill(state, rng=rng)
        assert isinstance(cert, Distillable)
        assert validate_witness(state, cert.witness) < -1e-10


def test_common_kernel_reducible_three_level_route(rng):
    # a reducible state with the kernel pattern: B level 0 carries a
    # product, levels 1-2 carry an entangled pure state; the common
    # kernel route leaves reducible states to the B-direct decomposition,
    # whose aggregate certifies distillability
    v1 = np.kron(complex_gaussian(rng, 3), np.array([1.0, 0, 0]))
    bell = np.zeros((3, 3), dtype=complex)
    bell[0, 1] = bell[1, 2] = 1.0
    state = BipartiteState.from_vectors(3, 3, [v1, bell.reshape(-1)])
    assert common_kernel_distill(state, rng=rng) is None
    decomp = decompose_b_direct(state)
    verdicts = [classify_state(c, rng=rng) for c in decomp.components]
    routed = aggregate(decomp, verdicts)
    assert isinstance(routed, Distillable)
    assert validate_witness(state, routed.witness) < -1e-10


def test_common_kernel_generic_none(rng):
    state = random_rank_r_state(3, 3, 5, rng)
    assert common_kernel_distill(state, rng=rng) is None


def common_kernel_5x3_state(zero_cols):
    """A rank-6 5x3 state whose kernel holds e_a (x) e_b for a < 4 and
    every column b (0 or 1) listed in zero_cols."""
    rng = np.random.default_rng(5)
    vecs = complex_gaussian(rng, (6, 15))
    vecs[:, [3 * a + b for a in range(4) for b in zero_cols]] = 0.0
    state = BipartiteState.from_vectors(5, 3, list(vecs))
    assert state.local_ranks() == (5, 3)
    return state


def test_common_kernel_none_beyond_the_product_search_scope():
    # the kernel holds C^4 (x) C^2: every combination of the first two
    # pencil members is rank 1, the points of that plane are not
    # independent, so the second compound declines, and the enumeration
    # does not reach 5 levels; the search raises UndecidableError, which
    # the route reports as no pattern
    state = common_kernel_5x3_state((0, 1))
    pencil = np.stack(left_pencil(block_form(state)))
    with pytest.raises(UndecidableError, match="6x5"):
        rank_one_in_span(pencil)
    assert common_kernel_distill(state, rng=np.random.default_rng(5)) is None


def test_common_kernel_pattern_read_off_the_null_space_of_a_6x5_pencil():
    # the kernel holds C^4 (x) |0>: the pencil's one rank-1 combination
    # is the null vector of its second compound, beyond the enumeration
    state = common_kernel_5x3_state((0,))
    found = rank_one_in_span(np.stack(left_pencil(block_form(state))))
    assert (found.found, found.method) == (True, "second compound null space")
    b = found.coefficients / np.linalg.norm(found.coefficients)
    assert abs(b[0]) == pytest.approx(1.0, abs=1e-10)
    cert = common_kernel_distill(state, rng=np.random.default_rng(5))
    assert isinstance(cert, Distillable)
    assert validate_witness(state, cert.witness) < 0


def test_common_kernel_none_on_a_generic_5x3_state_by_the_second_compound(rng):
    # no common-kernel pattern, proved by the bound beyond the enumeration
    state = random_rank_r_state(5, 3, 6, rng)
    found = rank_one_in_span(np.stack(left_pencil(block_form(state))))
    assert (found.found, found.method) == (False, "second compound")
    assert common_kernel_distill(state, rng=rng) is None


def test_classical_side_construction(rng):
    sigmas = [complex_gaussian(rng, (2, 2)) for _ in range(3)]
    sigmas = [s @ s.conj().T for s in sigmas]
    rho = np.zeros((6, 6), dtype=complex)
    for k, s in enumerate(sigmas):
        tag = np.zeros((3, 3), dtype=complex)
        tag[k, k] = 1.0
        rho += np.kron(s, tag)
    state = BipartiteState(2, 3, rho)
    flag, basis = classical_side(state, "B")
    assert flag
    assert basis is not None


def test_classical_side_bell_not_classical():
    assert not classical_side(bell_projector(), "B")[0]
    assert not classical_side(bell_projector(), "A")[0]


def test_classical_side_ghz_reduction(rng):
    ghz = make_generalized_ghz([1.0, 1.0])
    rho_bc = reduced_pair(ghz, "BC")
    assert classical_side(rho_bc, "A")[0]
    assert classical_side(rho_bc, "B")[0]


def test_classical_implies_ppt_separable(rng):
    sigmas = [complex_gaussian(rng, (2, 2)) for _ in range(2)]
    sigmas = [s @ s.conj().T for s in sigmas]
    rho = np.zeros((4, 4), dtype=complex)
    for k, s in enumerate(sigmas):
        tag = np.zeros((2, 2), dtype=complex)
        tag[k, k] = 1.0
        rho += np.kron(s, tag)
    state = BipartiteState(2, 2, rho)
    assert classical_side(state, "B")[0]
    assert is_ppt(state)[0]
    cert = classify_state(state, rng=rng)
    assert isinstance(cert, Separable)


def test_label_state_entropy_matches_decomposition(rng):
    # components with different A-side supports, so their normalized
    # block families are inequivalent and the finest splitting is the
    # constructed one (pure components with identical structure admit
    # other equally valid splittings with different per-component sums)
    from entcert.families import label_state_entanglement

    comps = [PureState(3, 2, complex_gaussian(rng, 6)) for _ in range(2)]
    probs = [0.25, 0.75]
    state = make_label_state(probs, comps)
    expected = label_state_entanglement(probs, comps)

    decomp = decompose_b_direct(state)
    assert decomp.n_components == 2
    total = 0.0
    for comp in decomp.components:
        # pull the component back out of the B-normalized frame
        orig = apply_local(comp, None, decomp.conjugator_inv)
        weight = float(np.real(np.trace(orig.matrix)))
        red = reduce(orig, "B")
        total += weight * von_neumann_entropy(red, normalize=True)
    assert abs(total - expected) < 1e-9
