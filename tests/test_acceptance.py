"""Acceptance suite: one test per criterion, each printing a PASS line.

Counts and tolerances are pinned to the contract; run with -s to see the
per-criterion summaries.
"""

import json
import subprocess
import sys

import numpy as np

from entcert.analyze import classify_state
from entcert.certificates import (
    Distillable,
    PptEntangled,
    Separable,
    UndecidableError,
    validate_witness,
)
from entcert.criteria import full_rank_property, is_ppt
from entcert.families import (
    checkerboard_ppt_instance,
    classify_checkerboard,
    label_state_entanglement,
    make_antisymmetric,
    make_shifts_upb,
    make_tiles_upb,
    random_checkerboard,
    shifts_bipartite_cut,
)
from entcert.io import load_state, save_state
from entcert.linalg import numerical_rank, rel_residual
from entcert.product_search import (
    Subspace,
    degree_scale,
    find_product_vector,
    hypersurface_2x3,
    hypersurface_2x4,
    pluecker_coords,
    random_product_containing_subspace,
    random_subspace,
)
from entcert.random_states import (
    complex_gaussian,
    random_invertible,
    random_product_sum,
    random_rank_r_state,
)
from entcert.rank4 import decide_rank4, separable_decomposition_rank_n
from entcert.states import BipartiteState, PureState, sector, tensor
from entcert.structure import aggregate, decompose_b_direct
from entcert.tripartite import TripartitePure, classify_pairs, ghz_test

from conftest import ppt_rank_n_state


def report(name, detail):
    print(f"\n[PASS] {name}: {detail}")


# --------------------------------------------------------------------------
# criterion 1: the 2x3 cubic
# --------------------------------------------------------------------------

def test_criterion_01_cubic_2x3():
    a = np.zeros(6, dtype=complex)
    a[0] = a[4] = 1.0
    b = np.zeros(6, dtype=complex)
    b[1] = b[5] = 1.0
    spot = hypersurface_2x3(Subspace(2, 3, np.vstack([a, b])))
    assert abs(spot - (-1.0)) <= 1e-12

    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        v = random_product_containing_subspace(2, 3, 2, rng)
        coords = pluecker_coords(v)
        rel = abs(hypersurface_2x3(v, coords)) / degree_scale(coords, 3)
        worst = max(worst, rel)
        assert rel <= 1e-9

    agree = 0
    total = 1000
    for _ in range(total):
        v = random_subspace(2, 3, 2, rng)
        coords = pluecker_coords(v)
        vanishes = abs(hypersurface_2x3(v, coords)) <= 1e-9 * degree_scale(coords, 3)
        found = find_product_vector(v, rng=rng).found
        agree += vanishes == found
    assert agree >= 990
    report("criterion 1 (2x3 cubic)",
           f"spot value -1 exact; worst vanishing residual {worst:.2e}; "
           f"zero-test/search agreement {agree}/1000")


# --------------------------------------------------------------------------
# criterion 2: the 2x4 quartic
# --------------------------------------------------------------------------

def test_criterion_02_quartic_2x4():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        v = random_product_containing_subspace(2, 4, 3, rng)
        coords = pluecker_coords(v)
        rel = abs(hypersurface_2x4(v, coords)) / degree_scale(coords, 4)
        worst = max(worst, rel)
        assert rel <= 1e-8

    consistent = 0
    total = 1000
    for _ in range(total):
        v = random_subspace(2, 4, 3, rng)
        coords = pluecker_coords(v)
        nonzero = abs(hypersurface_2x4(v, coords)) > 1e-9 * degree_scale(coords, 4)
        none_found = not find_product_vector(v, rng=rng).found
        consistent += nonzero and none_found
    assert consistent >= 990

    hom_worst = 0.0
    for _ in range(100):
        v = random_subspace(2, 4, 3, rng)
        g = complex_gaussian(rng, (3, 3))
        v1 = hypersurface_2x4(v)
        v2 = hypersurface_2x4(v.change_basis(g))
        err = abs(v2 - np.linalg.det(g) ** 4 * v1) / abs(v2)
        hom_worst = max(hom_worst, err)
        assert err <= 1e-9
    report("criterion 2 (2x4 quartic)",
           f"worst vanishing residual {worst:.2e}; generic consistency "
           f"{consistent}/1000; worst homogeneity error {hom_worst:.2e}")


# --------------------------------------------------------------------------
# criterion 3: full-rank criterion
# --------------------------------------------------------------------------

def test_criterion_03_full_rank():
    rng = np.random.default_rng(103)
    ras = make_antisymmetric(3)
    assert not full_rank_property(ras, "right", rng=rng).holds
    for _ in range(1000):
        x = complex_gaussian(rng, 3)
        rank, _ = numerical_rank(sector(ras, x, "A"))
        assert rank == 2
    assert full_rank_property(tensor(ras, ras), "right", rng=rng).holds

    v1 = np.zeros(6, dtype=complex)
    v1[0] = v1[4] = 1.0
    v2 = np.zeros(6, dtype=complex)
    v2[5] = 1.0
    v3 = np.zeros(6, dtype=complex)
    v3[2] = 1.0
    printed = BipartiteState.from_vectors(2, 3, [v1, v2, v3])
    assert not full_rank_property(printed, "right", rng=rng).holds

    for i in range(1000):
        m = 2 + i % 3  # M in {2, 3, 4}
        r = int(rng.integers(2, 2 * m + 1))
        state = random_rank_r_state(m, 2, min(r, 2 * m), rng)
        assert full_rank_property(state, "right", rng=rng).holds

    for _ in range(500):
        state = random_product_sum(3, 3, int(rng.integers(4, 8)), rng)
        assert full_rank_property(state, "right", rng=rng).holds
        assert full_rank_property(state, "left", rng=rng).holds
    report("criterion 3 (full-rank criterion)",
           "antisymmetric violated with sector rank 2 at 1000 points, "
           "two-copy holds, printed 2x3 violated, 1000 Mx2 hold, "
           "500 PPT states hold on both sides")


# --------------------------------------------------------------------------
# criterion 4: criterion incomparability
# --------------------------------------------------------------------------

def test_criterion_04_incomparability():
    from entcert.criteria import reduction_criterion, schmidt2_witness

    rng = np.random.default_rng(104)
    ras = make_antisymmetric(3)
    assert not full_rank_property(ras, "right", rng=rng).holds  # detected
    assert not reduction_criterion(ras)[0]                      # not detected

    p = 0.8
    psi1 = np.sqrt(p / 2) * np.array([1, 0, 0, 1], dtype=complex)
    psi2 = np.sqrt((1 - p) / 2) * np.array([1, 0, 0, -1], dtype=complex)
    two_term = BipartiteState.from_vectors(2, 2, [psi1, psi2])
    assert full_rank_property(two_term, "right", rng=rng).holds
    assert full_rank_property(two_term, "left", rng=rng).holds
    violated, witness = reduction_criterion(two_term)
    assert violated
    assert validate_witness(two_term, witness) < -1e-10
    assert schmidt2_witness(two_term) is not None  # 1-distillable
    report("criterion 4 (incomparability)",
           "antisymmetric: full-rank yes / reduction no; two-term 2x2: "
           "full-rank no / reduction yes, witness validated")


# --------------------------------------------------------------------------
# criterion 5: rank-max certificates
# --------------------------------------------------------------------------

def test_criterion_05_rank_max_certificates():
    rng = np.random.default_rng(105)
    produced = 0
    certified = 0
    false_separable = 0
    attempts = 0
    while produced < 300 and attempts < 3000:
        attempts += 1
        dims = (3, 3) if produced % 2 == 0 else (3, 4)
        state = random_rank_r_state(*dims, max(dims), rng)
        ppt, _ = is_ppt(state)
        if ppt:
            continue
        produced += 1
        try:
            cert = classify_state(state, rng=rng)
        except (UndecidableError, RuntimeError):
            continue
        if isinstance(cert, Separable):
            false_separable += 1
        elif isinstance(cert, Distillable):
            if validate_witness(state, cert.witness) < -1e-10:
                certified += 1
    assert produced == 300
    assert false_separable == 0
    assert certified >= 297  # >= 99%
    report("criterion 5 (rank-max certificates)",
           f"{certified}/300 NPT rank-max states certified distillable "
           f"with re-validated witnesses, 0 false separable verdicts")


# --------------------------------------------------------------------------
# criterion 6: rank-4 decision
# --------------------------------------------------------------------------

def test_criterion_06_rank4_decision():
    rng = np.random.default_rng(106)
    tiles = make_tiles_upb()
    verdict = decide_rank4(tiles, rng=rng)
    assert isinstance(verdict.outcome, PptEntangled)

    rho8, _ = make_shifts_upb()
    cut = shifts_bipartite_cut(rho8, "A")
    verdict = decide_rank4(cut, rng=rng)
    assert isinstance(verdict.outcome, Separable)
    assert rel_residual(verdict.outcome.reconstruct(2, 4), cut.matrix) <= 1e-8

    sep_worst = 0.0
    for _ in range(300):
        state = random_product_sum(3, 3, 4, rng)
        if state.rank() != 4:
            continue
        verdict = decide_rank4(state, rng=rng)
        assert isinstance(verdict.outcome, Separable)
        res = rel_residual(verdict.outcome.reconstruct(3, 3), state.matrix)
        sep_worst = max(sep_worst, res)
        assert res <= 1e-8

    planted_ok = 0
    misclassified_ppt_entangled = 0
    produced = 0
    while produced < 300:
        prod = np.kron(complex_gaussian(rng, 3), complex_gaussian(rng, 3))
        vecs = [prod] + [complex_gaussian(rng, 9) for _ in range(3)]
        state = BipartiteState.from_vectors(3, 3, vecs)
        if state.rank() != 4:
            continue
        produced += 1
        verdict = decide_rank4(state, rng=rng)
        if isinstance(verdict.outcome, PptEntangled):
            misclassified_ppt_entangled += 1
        ppt, _ = is_ppt(state)
        if not ppt:
            assert isinstance(verdict.outcome, Distillable)
            assert validate_witness(state, verdict.outcome.witness) < -1e-10
            planted_ok += 1
        else:
            assert isinstance(verdict.outcome, Separable)
    assert misclassified_ppt_entangled == 0
    report("criterion 6 (rank-4 decision)",
           f"tiles PPT-entangled, shifts cut separable, 300 separable "
           f"rank-4 reconstructed (worst {sep_worst:.2e}), {planted_ok} NPT "
           f"planted-product states distillable, 0 product-in-range states "
           f"classified entangled")


# --------------------------------------------------------------------------
# criterion 7: checkerboard theorem
# --------------------------------------------------------------------------

def test_criterion_07_checkerboard():
    rng = np.random.default_rng(107)
    n_npt = 0
    n_certified = 0
    n_error = 0
    for seed in range(500):
        _, state = random_checkerboard(seed)
        if is_ppt(state)[0]:
            continue
        n_npt += 1
        try:
            cert = classify_checkerboard(state, rng=seed)
        except UndecidableError:
            n_error += 1  # flagged as undecided, never a verdict
            continue
        assert isinstance(cert, Distillable)
        if validate_witness(state, cert.witness) < -1e-10:
            n_certified += 1
    assert n_certified >= int(np.ceil(0.99 * n_npt))

    for seed in range(20):
        _, state = checkerboard_ppt_instance(seed)
        assert is_ppt(state)[0]
        cert = classify_checkerboard(state, rng=seed)
        assert not isinstance(cert, Distillable)
    report("criterion 7 (checkerboard theorem)",
           f"{n_certified}/{n_npt} NPT instances certified "
           f"({n_error} undecided), 20 proof-constraint instances PPT")


# --------------------------------------------------------------------------
# criterion 8: reducibility
# --------------------------------------------------------------------------

def _b_direct_fixture(rng):
    """2-3 irreducible components on disjoint B sectors, then a random ILO.

    Components are either product states (B-rank 1) or pure entangled
    two-level states (B-rank 2, NPT); ground truth follows construction.
    """
    n_components = int(rng.integers(2, 4))
    kinds = [rng.choice(["product", "entangled"]) for _ in range(n_components)]
    b_levels_needed = sum(1 if k == "product" else 2 for k in kinds)
    n = max(3, b_levels_needed)
    m = 3
    vecs = []
    level = 0
    for kind in kinds:
        if kind == "product":
            b = np.zeros(n, dtype=complex)
            b[level] = 1.0
            vecs.append(np.kron(complex_gaussian(rng, m), b))
            level += 1
        else:
            amp = np.zeros((m, n), dtype=complex)
            amp[:, level] = complex_gaussian(rng, m)
            amp[:, level + 1] = complex_gaussian(rng, m)
            vecs.append(amp.reshape(-1))
            level += 2
    state = BipartiteState.from_vectors(m, n, vecs)
    from entcert.states import apply_local

    state = apply_local(state, random_invertible(m, rng), random_invertible(n, rng))
    distillable_truth = "entangled" in kinds
    return state, n_components, distillable_truth


def test_criterion_08_reducibility():
    from entcert.families import make_reducible_4x4_example

    rng = np.random.default_rng(108)
    count_ok = 0
    verdict_ok = 0
    for _ in range(200):
        state, n_true, truth_distillable = _b_direct_fixture(rng)
        decomp = decompose_b_direct(state)
        if decomp.n_components == n_true:
            count_ok += 1
        verdicts = [classify_state(c, rng=rng) for c in decomp.components]
        cert = aggregate(decomp, verdicts)
        if truth_distillable:
            ok = isinstance(cert, Distillable) and \
                validate_witness(state, cert.witness) < -1e-10
        else:
            ok = isinstance(cert, Separable) and rel_residual(
                cert.reconstruct(state.dim_a, state.dim_b), state.matrix) <= 1e-8
        verdict_ok += ok
    assert count_ok == 200
    assert verdict_ok == 200

    example, _, _ = make_reducible_4x4_example()
    assert decompose_b_direct(example).n_components == 2
    report("criterion 8 (reducibility)",
           "200/200 component counts recovered, 200/200 aggregate verdicts "
           "match ground truth, 4x4 example splits into 2 components")


# --------------------------------------------------------------------------
# criterion 9: tripartite
# --------------------------------------------------------------------------

def test_criterion_09_tripartite():
    rng = np.random.default_rng(109)
    two_ppt_entangled = 0
    ghz_route_checks = 0
    for _ in range(500):
        dims = tuple(int(d) for d in rng.integers(2, 4, size=3))
        psi = TripartitePure(dims, complex_gaussian(rng, int(np.prod(dims))))
        pc = classify_pairs(psi, rng=rng)
        if pc.ppt["AB"] and pc.ppt["AC"]:
            # both PPT must come with a separability certificate
            if pc.canonical is None:
                two_ppt_entangled += 1
        # ghz_test raises if its two routes disagree
        ghz_test(psi, rng=rng)
        ghz_route_checks += 1
    assert two_ppt_entangled == 0
    assert ghz_route_checks == 500

    worst = 0.0
    for _ in range(100):
        d_a = int(rng.integers(2, 4))
        d = int(rng.integers(2, 4))
        amp = np.zeros((d_a, d, d), dtype=complex)
        for i in range(d):
            amp[:, i, i] = complex_gaussian(rng, d_a)
        psi = TripartitePure((d_a, d, d), amp.reshape(-1))
        pc = classify_pairs(psi, rng=rng)
        assert pc.ppt["AB"] and pc.ppt["AC"]
        assert pc.canonical is not None
        worst = max(worst, pc.canonical.residual)
        assert pc.canonical.residual <= 1e-8

    from entcert.families import make_generalized_ghz
    from entcert.random_states import random_unitary

    ghz_true = 0
    for _ in range(25):
        d = int(rng.integers(2, 4))
        coeffs = np.abs(complex_gaussian(rng, d)) + 0.2
        psi = make_generalized_ghz(coeffs)
        t = np.einsum("ai,bj,ck,ijk->abc", random_unitary(d, rng),
                      random_unitary(d, rng), random_unitary(d, rng),
                      psi.tensor())
        ok, recovered = ghz_test(TripartitePure((d, d, d), t.reshape(-1)), rng=rng)
        expect = np.sort(np.abs(coeffs))[::-1]
        if ok and np.allclose(recovered, expect, atol=1e-8 * expect[0]):
            ghz_true += 1
    assert ghz_true == 25
    report("criterion 9 (tripartite)",
           f"0/500 states with two PPT-entangled reductions, 100 canonical "
           f"forms recovered (worst residual {worst:.2e}), GHZ detection "
           f"25/25 with coefficients recovered, both routes agreed 500/500")


# --------------------------------------------------------------------------
# criterion 10: separable decomposition at rank N
# --------------------------------------------------------------------------

def test_criterion_10_rank_n_decomposition():
    rng = np.random.default_rng(110)
    worst = 0.0
    for i in range(200):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, n + 1))
        state = ppt_rank_n_state(m, n, rng)
        products = separable_decomposition_rank_n(state)
        assert len(products) == n
        cert = Separable(products=tuple(products))
        res = rel_residual(cert.reconstruct(m, n), state.matrix)
        worst = max(worst, res)
        assert res <= 1e-8
    report("criterion 10 (rank-N separable decomposition)",
           f"200/200 states decomposed into exactly N products, "
           f"worst reconstruction residual {worst:.2e}")


# --------------------------------------------------------------------------
# criterion 11: label-state measure
# --------------------------------------------------------------------------

def test_criterion_11_label_state_measure():
    bell = PureState(2, 2, np.array([1, 0, 0, 1], dtype=complex))
    prod = PureState(2, 2, np.array([1, 0, 0, 0], dtype=complex))
    cases = [
        ([1.0], [bell], 1.0),
        ([0.3, 0.7], [prod, prod], 0.0),
        ([0.5, 0.5], [bell, prod], 0.5),
    ]
    for probs, comps, expected in cases:
        value = label_state_entanglement(probs, comps)
        assert abs(value - expected) <= 1e-12
    report("criterion 11 (label-state measure)",
           "three listed distillable-entanglement values exact to 1e-12")


# --------------------------------------------------------------------------
# criterion 12: CLI determinism and round-trip
# --------------------------------------------------------------------------

def _cli(args):
    return subprocess.run([sys.executable, "-m", "entcert.cli", *args],
                          capture_output=True, text=True)


def test_criterion_12_cli_determinism(tmp_path):
    fixtures = [
        (["generate", "antisymmetric", "3"], "as.json"),
        (["generate", "upb_tiles_3x3"], "tiles.json"),
        (["generate", "checkerboard", "--random", "--seed", "9"], "cb.json"),
        (["generate", "werner", "3", "-0.8"], "werner.json"),
        (["generate", "generalized_ghz", "1,0.5"], "ghz.json"),
        (["generate", "upb_shifts_2x2x2"], "shifts.json"),
    ]
    for args, name in fixtures:
        path = tmp_path / name
        proc = _cli(args + ["--out", str(path)])
        assert proc.returncode == 0, proc.stderr
        # round trip: the loaded object re-serializes byte-identically
        obj = load_state(path)
        again = tmp_path / ("rt_" + name)
        save_state(obj, again)
        assert path.read_bytes() == again.read_bytes()
        out1 = _cli(["analyze", str(path), "--seed", "3"])
        out2 = _cli(["analyze", str(path), "--seed", "3"])
        assert out1.returncode == out2.returncode
        payload1 = json.dumps(json.loads(out1.stdout)["payload"], sort_keys=True)
        payload2 = json.dumps(json.loads(out2.stdout)["payload"], sort_keys=True)
        assert payload1 == payload2
    report("criterion 12 (CLI determinism and round-trip)",
           f"{len(fixtures)} fixtures: byte-identical payloads under a "
           "fixed seed, generate->load->save byte-identical")
