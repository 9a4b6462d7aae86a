import json
import subprocess
import sys

import numpy as np
import pytest

from entcert.cli import main
from entcert.criteria import full_rank_property
from entcert.io import (
    StateFileError,
    decode_complex,
    doc_to_object,
    encode_complex,
    load_state,
    save_state,
)
from entcert.linalg import ToleranceConfig
from entcert.product_search import (
    Subspace, find_product_vector, random_product_containing_subspace, random_subspace,
)
from entcert.random_states import complex_gaussian, random_rank_r_state
from entcert.rank4 import classify_state
from entcert.states import BipartiteState, partial_transpose
from entcert.tripartite import TripartitePure


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "entcert.cli", *args],
        capture_output=True, text=True)
    return proc


def test_round_trip_bipartite(tmp_path, rng):
    state = random_rank_r_state(2, 3, 3, rng)
    path = tmp_path / "state.json"
    save_state(state, path)
    loaded = load_state(path)
    assert isinstance(loaded, BipartiteState)
    assert np.array_equal(loaded.matrix, state.matrix)  # exact, not approx


def test_round_trip_tripartite(tmp_path, rng):
    psi = TripartitePure((2, 2, 3), complex_gaussian(rng, 12))
    path = tmp_path / "psi.json"
    save_state(psi, path)
    loaded = load_state(path)
    assert np.array_equal(loaded.amplitudes, psi.amplitudes)


def test_round_trip_subspace(tmp_path, rng):
    sub = Subspace(2, 3, complex_gaussian(rng, (2, 6)))
    path = tmp_path / "sub.json"
    save_state(sub, path)
    loaded = load_state(path)
    assert np.array_equal(loaded.basis, sub.basis)


def test_parse_errors_are_positioned(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"version": 1, "kind": "bipartite"')
    with pytest.raises(StateFileError, match=r":\d+:"):
        load_state(path)
    with pytest.raises(StateFileError, match="version"):
        doc_to_object({"version": 9, "kind": "bipartite"})
    with pytest.raises(StateFileError, match="kind"):
        doc_to_object({"version": 1, "kind": "wat"})
    one = [[[float(1).hex(), float(0).hex()]]]
    zero = [float(0).hex(), float(0).hex()]
    bad = [
        ({"kind": "bipartite", "dims": [1, 1], "data": one, "tolerances": {"foo": 1}},
         r"tolerances\.foo"),
        ({"kind": "bipartite", "dims": [1, 1], "data": one, "tolerances": {"psd_tol": "abc"}},
         r"tolerances\.psd_tol"),
        ({"kind": "bipartite", "dims": [1, 1], "data": one, "tolerances": {"psd_tol": 2.0}},
         r"tolerances: psd_tol"),
        ({"kind": "tripartite", "dims": [2, 2, 2], "data": None}, r"data:"),
        ({"kind": "bipartite", "dims": [1, 1], "data": [5]}, r"data\[0\]"),
        ({"kind": "bipartite", "dims": [1, 2], "data": [[zero, zero], [zero]]}, r"data\[1\]"),
        ({"kind": "bipartite", "dims": [None, 1], "data": one}, r"dims"),
        ({"kind": "bipartite", "dims": [1.5, 1], "data": one}, r"dims"),
        # a JSON boolean is a Python int, but not a number of the format
        ({"kind": "bipartite", "dims": [1, 1], "data": [[[True, False]]]}, r"data\[0\]\[0\]"),
    ]
    for doc, where in bad:
        with pytest.raises(StateFileError, match=where):
            doc_to_object({"version": 1, **doc})


@pytest.mark.parametrize("kind, dims, data", [
    ("bipartite", [2, 2], np.diag([1.0, np.nan, 1.0, 1.0]).astype(complex)),
    ("tripartite", [2, 2, 2], np.append(np.ones(7), np.nan).astype(complex)),
])
def test_cli_rejects_non_finite_entries(tmp_path, capsys, kind, dims, data):
    # "nan" is a valid hex-float string, so the state's constructor is
    # what rejects it, before any search sees it
    encode = np.vectorize(encode_complex, otypes=[object])
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"version": 1, "kind": kind, "dims": dims,
                                "data": encode(data).tolist()}))
    assert main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: data: ") and "finite" in err


def test_non_psd_input_rejected(tmp_path):
    doc = {
        "version": 1,
        "kind": "bipartite",
        "dims": [2, 2],
        "data": [[[float(x).hex(), float(0).hex()] for x in row]
                 for row in np.diag([1.0, -1.0, 1.0, 1.0])],
    }
    path = tmp_path / "npsd.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(StateFileError, match="PSD"):
        load_state(path)


def bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0
    return BipartiteState.from_vectors(2, 2, [bell])


@pytest.mark.parametrize("build, value", [
    (bell_state, -1.0),
    # full local ranks, M = N so no swap, NPT, rank = max local rank:
    # the witness comes from a 2x3 projection
    (lambda: random_rank_r_state(3, 3, 3, np.random.default_rng(0)), None),
], ids=["bell", "rank-max-3x3"])
def test_cli_analyze_distillable(tmp_path, build, value):
    state = build()
    path = tmp_path / "state.json"
    save_state(state, path)
    proc = run_cli(["analyze", str(path)])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)["payload"]
    assert payload["verdict"] == "Distillable"
    witness = payload["witness"]
    assert witness["kind"] == "schmidt-rank-2"
    assert set(witness) == {"kind", "value", "vector"}
    psi = np.array([decode_complex(z, "vector") for z in witness["vector"]])
    expectation = (psi.conj() @ partial_transpose(state) @ psi).real / np.vdot(psi, psi).real
    assert expectation == pytest.approx(payload["revalidation"]["witness_value"], rel=1e-12)
    assert witness["value"] == pytest.approx(expectation, rel=1e-10)
    if value is not None:
        assert witness["value"] == pytest.approx(value)


def test_cli_determinism(tmp_path):
    proc = run_cli(["generate", "checkerboard", "--random", "--seed", "5",
                    "--out", str(tmp_path / "cb.json")])
    assert proc.returncode == 0
    out1 = run_cli(["analyze", str(tmp_path / "cb.json"), "--seed", "11"])
    out2 = run_cli(["analyze", str(tmp_path / "cb.json"), "--seed", "11"])
    payload1 = json.dumps(json.loads(out1.stdout)["payload"], sort_keys=True)
    payload2 = json.dumps(json.loads(out2.stdout)["payload"], sort_keys=True)
    assert payload1 == payload2


def test_cli_generate_round_trip(tmp_path):
    path = tmp_path / "as3.json"
    proc = run_cli(["generate", "antisymmetric", "3", "--out", str(path)])
    assert proc.returncode == 0
    from entcert.families import make_antisymmetric

    loaded = load_state(path)
    assert np.array_equal(loaded.matrix, make_antisymmetric(3).matrix)


def test_cli_generate_ghz_tripartite(tmp_path):
    path = tmp_path / "ghz.json"
    proc = run_cli(["generate", "generalized_ghz", "1,1", "--out", str(path)])
    assert proc.returncode == 0
    loaded = load_state(path)
    assert isinstance(loaded, TripartitePure)
    proc = run_cli(["analyze", str(path)])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["payload"]["generalized_ghz"] is True


def test_cli_exit_codes(tmp_path):
    missing = run_cli(["analyze", str(tmp_path / "nope.json")])
    assert missing.returncode == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run_cli(["analyze", str(bad)]).returncode == 1
    # usage errors are errors, not "undecided" (2)
    for argv in (["analyze"], [], ["classify", "x.json"], ["analyze", "x.json", "--mode", "nope"]):
        proc = run_cli(argv)
        assert proc.returncode == 1, argv
        assert "usage:" in proc.stderr
    assert run_cli(["--help"]).returncode == 0
    assert run_cli(["analyze", "--help"]).returncode == 0


@pytest.mark.parametrize("tol", ["1", "inf"])
def test_cli_rejects_a_tolerance_that_voids_every_check(tmp_path, monkeypatch, capsys, tol):
    # at --tol 1 the NPT Werner state used to pass as "Ppt", its own
    # min_eig_gamma -1.4 notwithstanding
    path = tmp_path / "werner.json"
    assert main(["generate", "werner", "3", "-0.8", "--out", str(path)]) == 0
    assert main(["analyze", str(path), "--tol", tol]) == 1
    monkeypatch.setenv("ENTCERT_TOL", tol)
    assert main(["analyze", str(path)]) == 1
    assert "tol must lie strictly between 0 and 1" in capsys.readouterr().err


@pytest.mark.parametrize("var, raw", [("ENTCERT_MODE", "bogus"), ("ENTCERT_SEED", "abc"),
                                      ("ENTCERT_TOL", "abc"), ("ENTCERT_BUDGET", "abc"),
                                      ("ENTCERT_BUDGET", "0")])
def test_cli_rejects_a_bad_environment_value_by_name(tmp_path, monkeypatch, capsys, var, raw):
    # argparse checks choices and types on flags, not on the defaults the
    # variables set; a bad one once ran as given or raised a traceback
    path = tmp_path / "werner.json"
    assert main(["generate", "werner", "3", "-0.8", "--out", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.setenv(var, raw)
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {var}=")


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_cli_rejects_a_budget_below_one(tmp_path, monkeypatch, capsys, budget):
    # at budget 0 the full-rank mode used to report "holds: false" with
    # failure_bound 1.0 on a state whose first sample proves it holds, and
    # classify_state ran no random frame and could return Undecided
    path = tmp_path / "r3.json"
    state = random_rank_r_state(3, 3, 3, np.random.default_rng(0))
    save_state(state, path)
    assert main(["analyze", str(path), "--mode", "full-rank"]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["right"]["holds"] is True
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(path), "--mode", "full-rank", f"--budget={budget}"])
    assert exc.value.code == 1
    assert "error: argument --budget: budget must be at least 1" in capsys.readouterr().err
    with pytest.raises(ValueError, match="budget must be at least 1"):
        full_rank_property(state, "right", budget=int(budget))
    with pytest.raises(ValueError, match="budget must be at least 1"):
        classify_state(state, budget=int(budget))


@pytest.mark.parametrize("argv", [["analyze", "tiles.json"], ["product-test", "sub.json"],
                                  ["generate", "checkerboard", "--random", "--out", "cb.json"]])
def test_cli_rejects_a_negative_seed_by_name(tmp_path, monkeypatch, capsys, argv):
    # numpy's Generator takes non-negative seeds only; a negative one
    # used to exit on numpy's bare "expected non-negative integer", which
    # names neither the flag nor the variable
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "upb_tiles_3x3", "--out", "tiles.json"]) == 0
    save_state(random_subspace(2, 4, 3, np.random.default_rng(0)), "sub.json")
    assert main(argv + ["--seed", "0"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1"])
    assert exc.value.code == 1
    assert "error: argument --seed: seed must be non-negative, got -1" in capsys.readouterr().err
    monkeypatch.setenv("ENTCERT_SEED", "-5")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ENTCERT_SEED='-5': seed must be non-negative, got -5\n"


def test_cli_product_test_loads_with_the_tolerance_given(tmp_path, monkeypatch, capsys):
    # a product moved by 1e-6 off the span is found at tolerance 1e-4 only
    rng = np.random.default_rng(0)
    prod = np.kron(complex_gaussian(rng, 2), complex_gaussian(rng, 4))
    moved = prod / np.linalg.norm(prod) + 1e-6 * complex_gaussian(rng, 8)
    sub = Subspace(2, 4, np.vstack([moved, complex_gaussian(rng, (2, 8))]))
    loose = Subspace(2, 4, sub.basis, ToleranceConfig(psd_tol=1e-4, residual_tol=1e-4))
    assert not find_product_vector(sub).found and find_product_vector(loose).found
    path = tmp_path / "moved.json"
    save_state(sub, path)

    def found(*flags):
        assert main(["product-test", str(path), *flags]) == 0
        return json.loads(capsys.readouterr().out)["payload"]["search"]["found"]
    assert found() is False
    assert found("--tol", "1e-4") is True
    monkeypatch.setenv("ENTCERT_TOL", "1e-4")
    assert found() is True


@pytest.mark.parametrize("argv", [["product-test", "sub.json"],
                                  ["generate", "werner", "3", "-0.8", "--out", "w.json"]])
def test_cli_budget_belongs_to_analyze_only(tmp_path, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--budget", "5"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --budget 5" in capsys.readouterr().err


def test_cli_tiles_ppt_entangled(tmp_path):
    path = tmp_path / "tiles.json"
    run_cli(["generate", "upb_tiles_3x3", "--out", str(path)])
    proc = run_cli(["analyze", str(path), "--mode", "rank4"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["payload"]["verdict"] == "PptEntangled"
    assert "no-product-in-range" in doc["payload"]["trail"]


def test_cli_full_rank_mode(tmp_path):
    path = tmp_path / "as.json"
    run_cli(["generate", "antisymmetric", "3", "--out", str(path)])
    proc = run_cli(["analyze", str(path), "--mode", "full-rank"])
    doc = json.loads(proc.stdout)
    assert doc["payload"]["right"]["holds"] is False
    assert doc["payload"]["left"]["holds"] is False


def test_cli_reduce_mode(tmp_path):
    path = tmp_path / "red.json"
    run_cli(["generate", "reducible_4x4_example", "--out", str(path)])
    proc = run_cli(["analyze", str(path), "--mode", "reduce"])
    doc = json.loads(proc.stdout)
    assert doc["payload"]["n_components"] == 2


def test_cli_product_test_spec_example(tmp_path):
    a = np.zeros(6, dtype=complex)
    a[0] = a[4] = 1.0
    b = np.zeros(6, dtype=complex)
    b[1] = b[5] = 1.0
    sub = Subspace(2, 3, np.vstack([a, b]))
    path = tmp_path / "sub.json"
    save_state(sub, path)
    proc = run_cli(["product-test", str(path)])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    hyper = doc["payload"]["hypersurface"]
    value = complex(float.fromhex(hyper["value"][0]), float.fromhex(hyper["value"][1]))
    assert value == pytest.approx(-1.0)
    assert hyper["vanishes"] is False
    assert doc["payload"]["search"]["found"] is False
    assert doc["payload"]["agreement"] is True


def test_cli_product_test_numeric_only_shape(tmp_path, rng):
    sub = Subspace(3, 3, complex_gaussian(rng, (4, 9)))
    path = tmp_path / "sub33.json"
    save_state(sub, path)
    proc = run_cli(["product-test", str(path)])
    doc = json.loads(proc.stdout)
    assert doc["payload"]["hypersurface"] is None
    assert "note" in doc["payload"]


def test_cli_product_test_beyond_the_search_scope_is_undecided(tmp_path, rng):
    # a planted product in a 14-dim span: 100 minors against 105
    # monomials leave a null space the readout cannot account for, and
    # the eigenvalue enumeration does not reach a 5-level side
    sub = random_product_containing_subspace(5, 5, 14, rng)
    path = tmp_path / "sub55.json"
    save_state(sub, path)
    proc = run_cli(["product-test", str(path)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("undecided:")
    assert "5x5" in proc.stderr


def test_cli_product_test_reads_a_planted_5x5_product_off_the_null_space(tmp_path, rng):
    sub = random_product_containing_subspace(5, 5, 3, rng)
    path = tmp_path / "sub55.json"
    save_state(sub, path)
    proc = run_cli(["product-test", str(path)])
    assert proc.returncode == 0
    search = json.loads(proc.stdout)["payload"]["search"]
    assert search["found"] is True
    assert search["best_rank1_defect"] < 1e-10
    a, b = (np.array([complex(float.fromhex(re), float.fromhex(im)) for re, im in search[key]])
            for key in "ab")
    e = np.kron(a, b)
    q = np.linalg.qr(sub.basis.T)[0]
    assert np.linalg.norm(e - q @ (q.conj().T @ e)) < 1e-10 * np.linalg.norm(e)


def test_cli_product_test_finds_a_product_in_a_large_5x5_span_by_dimension_count(tmp_path):
    sub = random_subspace(5, 5, 21, 0)
    path = tmp_path / "sub55.json"
    save_state(sub, path)
    proc = run_cli(["product-test", str(path)])
    assert proc.returncode == 0
    search = json.loads(proc.stdout)["payload"]["search"]
    assert search["found"] is True
    assert search["best_rank1_defect"] < 1e-10


def test_cli_product_test_decides_a_generic_5x5_span_by_the_second_compound(tmp_path, rng):
    sub = Subspace(5, 5, complex_gaussian(rng, (3, 25)))
    path = tmp_path / "sub55.json"
    save_state(sub, path)
    proc = run_cli(["product-test", str(path)])
    assert proc.returncode == 0
    search = json.loads(proc.stdout)["payload"]["search"]
    assert search["found"] is False
    assert search["best_rank1_defect"] > 1e-6


def test_cli_product_test_names_the_method_behind_its_defect(tmp_path, rng):
    # a proved lower bound and a tested defect share best_rank1_defect, so
    # the payload says which one it holds
    planted = random_product_containing_subspace(2, 4, 3, rng)
    generic = Subspace(3, 3, complex_gaussian(rng, (4, 9)))
    searches = []
    for name, sub in (("planted", planted), ("generic", generic)):
        path = tmp_path / f"{name}.json"
        save_state(sub, path)
        proc = run_cli(["product-test", str(path)])
        assert proc.returncode == 0
        searches.append(json.loads(proc.stdout)["payload"]["search"])
    planted_search, generic_search = searches
    expected = find_product_vector(planted, rng=np.random.default_rng(7))
    assert planted_search["found"] is True
    assert planted_search["method"] == expected.method == "second compound null space"
    assert generic_search["found"] is False
    assert generic_search["method"] == "second compound null vector"


def test_cli_env_override(tmp_path, monkeypatch):
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0
    state = BipartiteState.from_vectors(2, 2, [bell])
    path = tmp_path / "bell.json"
    save_state(state, path)
    monkeypatch.setenv("ENTCERT_SEED", "99")
    assert main(["analyze", str(path)]) == 0


def test_cli_in_process_text_mode(tmp_path, capsys):
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0
    save_state(BipartiteState.from_vectors(2, 2, [bell]), tmp_path / "b.json")
    code = main(["analyze", str(tmp_path / "b.json"), "--text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: Distillable" in out


def test_fixture_kind_state_file(tmp_path):
    doc = {"version": 1, "kind": "fixture", "name": "antisymmetric",
           "params": {"n": 3}}
    path = tmp_path / "fix.json"
    path.write_text(json.dumps(doc))
    from entcert.families import make_antisymmetric

    loaded = load_state(path)
    assert np.array_equal(loaded.matrix, make_antisymmetric(3).matrix)
    proc = run_cli(["analyze", str(path)])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["verdict"] == "Distillable"


def test_fixture_kind_checkerboard_and_shifts(tmp_path):
    doc = {"version": 1, "kind": "fixture", "name": "checkerboard",
           "params": {"seed": 4}}
    path = tmp_path / "cb.json"
    path.write_text(json.dumps(doc))
    loaded = load_state(path)
    assert loaded.rank() == 4

    doc = {"version": 1, "kind": "fixture", "name": "upb_shifts_2x2x2",
           "cut": "B"}
    path = tmp_path / "shifts.json"
    path.write_text(json.dumps(doc))
    loaded = load_state(path)
    assert (loaded.dim_a, loaded.dim_b) == (2, 4)

    doc = {"version": 1, "kind": "fixture", "name": "nope"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(StateFileError, match="fixture"):
        load_state(path)
