import numpy as np
import pytest

from entcert.certificates import Distillable, Separable
from entcert.families import make_generalized_ghz
from entcert.random_states import complex_gaussian, random_unitary
from entcert.tripartite import (
    TripartitePure,
    canonical_two_ppt,
    classify_pairs,
    ghz_test,
    reduced_pair,
    reduced_single,
)


def ghz_state():
    return make_generalized_ghz([1.0, 1.0])


def w_state():
    amp = np.zeros(8, dtype=complex)
    amp[1] = amp[2] = amp[4] = 1.0
    return TripartitePure((2, 2, 2), amp)


def a_ii_state(d_a, d, rng):
    """sum_i |a_i>|ii> with random (generally non-orthogonal) a_i."""
    amp = np.zeros((d_a, d, d), dtype=complex)
    for i in range(d):
        amp[:, i, i] = complex_gaussian(rng, d_a)
    return TripartitePure((d_a, d, d), amp.reshape(-1))


def rotated(psi, rng):
    d_a, d_b, d_c = psi.dims
    t = np.einsum(
        "ai,bj,ck,ijk->abc",
        random_unitary(d_a, rng), random_unitary(d_b, rng),
        random_unitary(d_c, rng), psi.tensor())
    return TripartitePure(psi.dims, t.reshape(-1))


def test_reduced_pair_ghz_diagonal():
    rho = reduced_pair(ghz_state(), "AB")
    off = rho.matrix - np.diag(np.diag(rho.matrix))
    assert np.linalg.norm(off) < 1e-12


def test_purification_spectra_match(rng):
    for _ in range(5):
        dims = tuple(int(d) for d in rng.integers(2, 4, size=3))
        psi = TripartitePure(dims, complex_gaussian(rng, int(np.prod(dims))))
        for pair, single in (("AB", "C"), ("AC", "B"), ("BC", "A")):
            w_pair = np.linalg.eigvalsh(reduced_pair(psi, pair).matrix)
            w_single = np.linalg.eigvalsh(reduced_single(psi, single))
            nz_pair = sorted(x for x in w_pair if x > 1e-10)
            nz_single = sorted(x for x in w_single if x > 1e-10)
            assert np.allclose(nz_pair, nz_single)


def test_w_state_pairs_distillable():
    pc = classify_pairs(w_state(), rng=1)
    assert not pc.ppt["AB"] and not pc.ppt["AC"]
    assert isinstance(pc.certificates["AB"], Distillable)
    assert isinstance(pc.certificates["AC"], Distillable)
    assert pc.canonical is None


def test_a_ii_construction_both_ppt(rng):
    for _ in range(5):
        psi = a_ii_state(2, 3, rng)
        pc = classify_pairs(psi, rng=1)
        assert pc.ppt["AB"] and pc.ppt["AC"]
        assert pc.canonical is not None
        assert pc.canonical.residual < 1e-8
        assert isinstance(pc.certificates["AB"], Separable)
        assert isinstance(pc.certificates["AC"], Separable)


def test_canonical_form_gauge(rng):
    psi = a_ii_state(3, 3, rng)
    form = canonical_two_ppt(psi, rng=1)
    norms = [np.linalg.norm(a) for a in form.a_vectors]
    assert all(norms[i] >= norms[i + 1] - 1e-12 for i in range(len(norms) - 1))
    for a in form.a_vectors:
        first = a[np.argmax(np.abs(a) > 0)]
        assert abs(first.imag) < 1e-10 * abs(first)
        assert first.real > 0
    for u in (form.u_b, form.u_c):
        assert np.linalg.norm(u @ u.conj().T - np.eye(u.shape[0])) < 1e-10


def test_ghz_test_true_on_constructions(rng):
    ok, coeffs = ghz_test(ghz_state(), rng=1)
    assert ok
    assert np.allclose(coeffs, [1.0, 1.0])
    psi = rotated(make_generalized_ghz([1.0, 0.6, 0.3]), rng)
    ok, coeffs = ghz_test(psi, rng=1)
    assert ok
    assert np.allclose(coeffs, [1.0, 0.6, 0.3], atol=1e-8)


def test_ghz_test_false_on_non_orthogonal(rng):
    for _ in range(5):
        psi = a_ii_state(2, 2, rng)
        vecs = psi.tensor()
        a0 = vecs[:, 0, 0]
        a1 = vecs[:, 1, 1]
        overlap = abs(np.vdot(a0, a1)) / (np.linalg.norm(a0) * np.linalg.norm(a1))
        ok, _ = ghz_test(psi, rng=1)
        assert ok == (overlap < 1e-8)


def test_ghz_test_false_on_generic(rng):
    for _ in range(5):
        psi = TripartitePure((2, 2, 2), complex_gaussian(rng, 8))
        ok, _ = ghz_test(psi, rng=1)
        assert not ok


@pytest.mark.parametrize("eps", [2e-4, 5e-4, 1e-3])
def test_ghz_test_false_on_near_ghz_with_small_entangled_block(eps):
    # c|000> + eps |Phi+>_AB |1>_C: rho_AB's off-diagonal B-block is
    # (eps^2/2)|0><1|, non-normal on its own scale but far below the
    # largest block, and rho_AB^Gamma has eigenvalue -eps^2/2.  Both
    # routes must call it not GHZ.
    amp = np.zeros((2, 2, 2), dtype=complex)
    amp[0, 0, 0] = np.sqrt(1.0 - eps ** 2)
    amp[0, 0, 1] = amp[1, 1, 1] = eps / np.sqrt(2.0)
    assert ghz_test(TripartitePure((2, 2, 2), amp.reshape(-1)), rng=1) == (False, None)


def test_no_two_ppt_entangled_reductions(rng):
    # the headline constraint: both pairs PPT forces both separable
    for _ in range(40):
        dims = tuple(int(d) for d in rng.integers(2, 4, size=3))
        psi = TripartitePure(dims, complex_gaussian(rng, int(np.prod(dims))))
        pc = classify_pairs(psi, rng=1)
        if pc.ppt["AB"] and pc.ppt["AC"]:
            assert pc.canonical is not None
            assert isinstance(pc.certificates["AB"], Separable)
            assert isinstance(pc.certificates["AC"], Separable)


def test_tripartite_validation():
    with pytest.raises(ValueError):
        TripartitePure((2, 2), np.ones(4))
    with pytest.raises(ValueError):
        TripartitePure((2, 2, 2), np.zeros(8))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            TripartitePure((2, 2, 2), np.append(np.ones(7), bad))
    with pytest.raises(ValueError):
        reduced_pair(ghz_state(), "AD")
    for system in ("D", "AB", ""):
        with pytest.raises(ValueError, match="system must be"):
            reduced_single(ghz_state(), system)
