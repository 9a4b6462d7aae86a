"""Seeded corpora, the timed verdict call and the correctness gate of
each workload.

Every corpus is built from the library's public generators and a numpy
Generator seeded with the workload seed, so a seed fixes the inputs.
Each item carries the ground truth of its construction; ``check``
compares a verdict with it and re-validates the certificate.  Ground
truth that is not fixed by the construction (NPT or not) is computed
here with plain numpy, independently of the library's own criteria.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

RESIDUAL_MAX = 1.0e-8  # separable reconstruction residual the gate accepts
PSD_TOL = 1.0e-8  # relative eigenvalue floor of the independent NPT test


class WrongVerdict(Exception):
    """A verdict or certificate contradicts the ground truth of its input."""


@dataclass
class Item:
    kind: str
    data: object  # what the verdict call receives
    seed: int  # rng seed handed to the library call
    truth: object  # ground truth of the construction


# ---------------------------------------------------------------------------
# independent ground truth (numpy only)
# ---------------------------------------------------------------------------

def partial_transpose(rho, m, n):
    """Transpose on the A indices, the library's convention for witnesses."""
    return rho.reshape(m, n, m, n).transpose(2, 1, 0, 3).reshape(m * n, m * n)


def is_npt(rho, m, n):
    scale = max(float(np.linalg.eigvalsh(rho)[-1]), 1.0e-300)
    return float(np.linalg.eigvalsh(partial_transpose(rho, m, n))[0]) < -PSD_TOL * scale


def separable_residual(products, rho):
    recon = np.zeros_like(rho)
    for a, b in products:
        v = np.kron(a, b)
        recon += np.outer(v, v.conj())
    return float(np.linalg.norm(recon - rho) / max(np.linalg.norm(rho), 1.0e-300))


def bipartite_truth(rho, m, n):
    return "npt" if is_npt(rho, m, n) else "ppt"


def reduced_pair(amplitudes, dims, pair):
    """rho_AB, rho_AC or rho_BC of a tripartite pure state, traced by einsum."""
    order = {"AB": (0, 1, 2), "AC": (0, 2, 1), "BC": (1, 2, 0)}[pair]
    t = amplitudes.reshape(dims).transpose(order)
    da, db, _ = t.shape
    rho = np.einsum("ijk,lmk->ijlm", t, t.conj())
    return rho.reshape(da * db, da * db), (da, db)


# ---------------------------------------------------------------------------
# the gate shared by the in-process workloads
# ---------------------------------------------------------------------------

def check_certificate(state, cert, truth):
    """Raise WrongVerdict unless cert matches truth; return 'ok' or 'undecided'.

    truth is 'separable' (by construction), 'ppt-entangled' (tiles) or
    'npt' (independent test).  Every certificate must also re-validate.
    """
    from entcert.certificates import (
        Distillable,
        PptEntangled,
        Separable,
        Undecided,
        validate_certificate,
        validate_witness,
    )

    if isinstance(cert, Undecided):
        return "undecided"
    try:
        validate_certificate(state, cert)
    except (ValueError, TypeError) as exc:
        raise WrongVerdict(f"certificate does not re-validate: {exc}") from exc
    if truth == "separable":
        if not isinstance(cert, Separable):
            raise WrongVerdict(f"separable state got {type(cert).__name__}")
        res = separable_residual(cert.products, state.matrix)
        if not res <= RESIDUAL_MAX:
            raise WrongVerdict(f"separable reconstruction residual {res:.3e}")
    elif truth == "npt":
        if not isinstance(cert, Distillable):
            raise WrongVerdict(f"NPT state got {type(cert).__name__}")
        value = validate_witness(state, cert.witness)
        if not value < 0:
            raise WrongVerdict(f"witness value {value} is not negative")
    elif truth == "ppt-entangled":
        if not isinstance(cert, PptEntangled):
            raise WrongVerdict(f"tiles state got {type(cert).__name__}")
    else:
        raise ValueError(f"unknown ground truth {truth!r}")
    return "ok"


def _seed(rng):
    return int(rng.integers(1 << 31))


# ---------------------------------------------------------------------------
# rank4-3x3: decide_rank4 on 3x3 rank-4 states
# ---------------------------------------------------------------------------

# Calls on separable and planted states take about half as long as calls
# on tiles and generic states.  With six of eight calls in the fast group,
# the median falls at two thirds of the fast group and p90 at three fifths
# of the slow one, not near the edge of either.
RANK4_CYCLE = ["separable", "planted", "tiles", "separable", "planted",
               "generic", "separable", "planted"]


def build_rank4(seed, cycles):
    from entcert import families, random_states
    from entcert.states import BipartiteState

    rng = np.random.default_rng(seed)
    tiles = families.make_tiles_upb()
    items = []
    for _ in range(cycles):
        for kind in RANK4_CYCLE:
            if kind == "separable":
                state = random_states.random_product_sum(3, 3, 4, rng)
                truth = "separable"
            elif kind == "planted":
                # one product vector plus three random vectors: a product
                # lies in the range, so the verdict is never PptEntangled
                prod = np.kron(random_states.complex_gaussian(rng, 3),
                               random_states.complex_gaussian(rng, 3))
                vecs = [prod] + [random_states.complex_gaussian(rng, 9)
                                 for _ in range(3)]
                state = BipartiteState.from_vectors(3, 3, vecs)
                truth = bipartite_truth(state.matrix, 3, 3)
                if truth == "ppt":
                    truth = "separable"  # PPT rank 4 with a product in range
            elif kind == "tiles":
                state, truth = tiles, "ppt-entangled"
            else:
                state = random_states.random_rank_r_state(3, 3, 4, rng)
                truth = bipartite_truth(state.matrix, 3, 3)
            if truth == "ppt":
                raise RuntimeError(f"seed {seed}: a {kind} state is PPT; no "
                                   "ground truth for it")
            items.append(Item(kind, state, _seed(rng), truth))
    return items


def call_rank4(item):
    import entcert.rank4

    return entcert.rank4.decide_rank4(item.data, rng=item.seed)


def check_rank4(item, verdict):
    return check_certificate(item.data, verdict.outcome, item.truth)


# ---------------------------------------------------------------------------
# classify-mixed: classify_state and friends on a mix of inputs
# ---------------------------------------------------------------------------

# The 2x3 product sums are the slow tail (separable peeling); two of the
# twelve are 5-term sums so that p90 falls inside that slice.
MIXED_CYCLE = [
    ("lt", (4, 4, 2)), ("lt", (4, 4, 3)),
    ("eq", (3, 3, 3)), ("eq", (3, 4, 4)),
    ("ppt-n", (2, 3)), ("ppt-n", (3, 3)), ("ppt-n", (3, 4)),
    ("checkerboard", None), ("tripartite", (2, 2, 2)),
    ("product-sum", (2, 3, 4)), ("product-sum", (2, 3, 5)),
    ("product-sum", (2, 3, 5)),
]


def ppt_rank_n_state(m, n, rng):
    """PPT m x n state of rank n from commuting normal blocks, conjugated
    by a random invertible local operator (separable by construction)."""
    from entcert.random_states import complex_gaussian, random_invertible, random_unitary
    from entcert.states import BipartiteState, apply_local

    u = random_unitary(n, rng)
    blocks = [u @ np.diag(complex_gaussian(rng, n)) @ u.conj().T
              for _ in range(m - 1)]
    blocks.append(np.eye(n, dtype=complex))
    w = np.hstack(blocks)
    state = BipartiteState(m, n, w.conj().T @ w)
    return apply_local(state, random_invertible(m, rng), random_invertible(n, rng))


def build_mixed(seed, cycles):
    from entcert import families, random_states
    from entcert.tripartite import TripartitePure

    rng = np.random.default_rng(seed)
    items = []
    for _ in range(cycles):
        for kind, shape in MIXED_CYCLE:
            if kind in ("lt", "eq"):
                data = random_states.random_rank_r_state(*shape, rng)
                truth = bipartite_truth(data.matrix, data.dim_a, data.dim_b)
            elif kind == "ppt-n":
                data, truth = ppt_rank_n_state(*shape, rng), "separable"
            elif kind == "product-sum":
                data = random_states.random_product_sum(*shape, rng)
                truth = "separable"
            elif kind == "checkerboard":
                data = families.random_checkerboard(rng)[1]
                truth = bipartite_truth(data.matrix, 3, 3)
            else:
                amps = random_states.random_tripartite_pure_amplitudes(*shape, rng)
                data = TripartitePure(shape, amps)
                truth = tripartite_truth(amps, shape)
            if truth == "ppt":
                raise RuntimeError(f"seed {seed}: a {kind} state is PPT; no "
                                   "ground truth for it")
            items.append(Item(kind, data, _seed(rng), truth))
    return items


def tripartite_truth(amps, dims):
    """Per-pair truth of AB and AC, and whether all three pairs are PPT."""
    truth = {}
    all_ppt = True
    for pair in ("AB", "AC", "BC"):
        rho, (m, n) = reduced_pair(amps, dims, pair)
        npt = is_npt(rho, m, n)
        all_ppt = all_ppt and not npt
        if pair != "BC":
            truth[pair] = "npt" if npt else "separable"
    truth["ghz"] = all_ppt
    return truth


def call_mixed(item):
    import entcert.analyze
    import entcert.families
    import entcert.tripartite

    if item.kind == "checkerboard":
        return entcert.families.classify_checkerboard(item.data, rng=item.seed)
    if item.kind == "tripartite":
        pairs = entcert.tripartite.classify_pairs(item.data, rng=item.seed)
        return pairs, entcert.tripartite.ghz_test(item.data, rng=item.seed)
    return entcert.analyze.classify_state(item.data, rng=item.seed)


def check_mixed(item, result):
    if item.kind != "tripartite":
        return check_certificate(item.data, result, item.truth)
    from entcert.states import BipartiteState

    pairs, (is_ghz, _) = result
    if bool(is_ghz) != item.truth["ghz"]:
        raise WrongVerdict(f"ghz_test said {is_ghz}, truth {item.truth['ghz']}")
    status = "ok"
    for name in ("AB", "AC"):
        rho, (m, n) = reduced_pair(item.data.amplitudes, item.data.dims, name)
        got = check_certificate(BipartiteState(m, n, rho),
                                pairs.certificates[name], item.truth[name])
        if got == "undecided":
            status = got
    return status


# ---------------------------------------------------------------------------
# cli-fixtures: cold `python -m entcert.cli` processes
# ---------------------------------------------------------------------------

# (file stem, generate arguments); the checkerboard seed comes from the
# workload seed.  These are the criterion-12 fixtures of the test suite.
CLI_FIXTURES = [
    ("as", ["antisymmetric", "3"]),
    ("tiles", ["upb_tiles_3x3"]),
    ("cb", ["checkerboard", "--random", "--seed", None]),
    ("werner", ["werner", "3", "-0.8"]),
    ("ghz", ["generalized_ghz", "1,0.5"]),
    ("shifts", ["upb_shifts_2x2x2"]),
]
# analyze invocations: (file stem, extra arguments)
CLI_ANALYZE = [("as", []), ("tiles", []), ("cb", []), ("werner", []),
               ("ghz", []), ("shifts", []), ("tiles", ["--mode", "rank4"])]
CLI_ANALYZE_TRUTH = {"as": "Distillable", "tiles": "PptEntangled",
                     "cb": "Distillable", "werner": "Distillable",
                     "ghz": "ghz", "shifts": "Separable"}
# product-test files per cycle: half planted, half generic 2x4 dim-3
CLI_SUBSPACES = ["planted", "generic"] * 4


def cli_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_cli(args, env, timeout=120):
    return subprocess.run([sys.executable, "-m", "entcert.cli", *args],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


def generate_cli_corpus(seed, cycles, workdir, env):
    """Write the fixtures (through `entcert generate`) and subspace files
    (through io.save_state) into workdir; return the invocation list."""
    from entcert import product_search
    from entcert.io import save_state

    rng = np.random.default_rng(seed)
    cb_seed = str(_seed(rng) % 100000)
    for stem, gen_args in CLI_FIXTURES:
        args = ["generate"] + [cb_seed if a is None else a for a in gen_args]
        proc = run_cli(args + ["--out", os.path.join(workdir, stem + ".json")], env)
        if proc.returncode != 0:
            raise RuntimeError(f"entcert {' '.join(args)} exited "
                               f"{proc.returncode}: {proc.stderr.strip()}")
    analyze_seed = str(_seed(rng) % 100000)
    items = []
    count = 0
    for _ in range(cycles):
        analyze = [Item("analyze", ["analyze", os.path.join(workdir, stem + ".json"),
                                    "--seed", analyze_seed, *extra], 0, stem)
                   for stem, extra in CLI_ANALYZE]
        tests = []
        for kind in CLI_SUBSPACES:
            if kind == "planted":
                sub = product_search.random_product_containing_subspace(2, 4, 3, rng)
            else:
                sub = product_search.random_subspace(2, 4, 3, rng)
            path = os.path.join(workdir, f"sub{count:04d}.json")
            count += 1
            save_state(sub, path)
            tests.append(Item("product-test",
                              ["product-test", path, "--seed", analyze_seed],
                              0, kind))
        # interleave: analyze, product-test, analyze, ...
        for i in range(max(len(analyze), len(tests))):
            items.extend(analyze[i:i + 1] + tests[i:i + 1])
    return items


def _decode(vec):
    return np.array([complex(float.fromhex(re), float.fromhex(im)) for re, im in vec])


def check_cli(item, returncode, stdout, loaded):
    """Gate one CLI invocation; loaded maps a file path to its object."""
    if returncode == 2:
        return "undecided"
    if returncode != 0:
        return "error"
    payload = json.loads(stdout)["payload"]
    obj = loaded(item.data[1])
    if item.kind == "product-test":
        search, hyper = payload["search"], payload["hypersurface"]
        planted = item.truth == "planted"
        if search["found"] != planted or hyper["vanishes"] != planted:
            raise WrongVerdict(f"{item.truth} subspace: found={search['found']} "
                               f"vanishes={hyper['vanishes']}")
        if planted:
            v = np.kron(_decode(search["a"]), _decode(search["b"]))
            q, _ = np.linalg.qr(obj.basis.T)
            off = np.linalg.norm(v - q @ (q.conj().T @ v)) / np.linalg.norm(v)
            if not off <= 1.0e-6:
                raise WrongVerdict(f"product vector lies {off:.3e} off the subspace")
        return "ok"
    stem = os.path.basename(item.data[1])[:-len(".json")]
    want = CLI_ANALYZE_TRUTH[stem]
    if want == "ghz":
        if payload["generalized_ghz"] is not True:
            raise WrongVerdict("generalized GHZ fixture not recognised")
        for name, pair in payload["pairs"].items():
            if pair["verdict"] != "Separable":
                raise WrongVerdict(f"GHZ pair {name} got {pair['verdict']}")
        return "ok"
    got = payload["verdict"]
    if got != want:
        raise WrongVerdict(f"{stem} got {got}, expected {want}")
    rho, m, n = obj.matrix, obj.dim_a, obj.dim_b
    if got == "Separable":
        products = [(_decode(p["a"]), _decode(p["b"])) for p in payload["products"]]
        res = separable_residual(products, rho)
        if not res <= RESIDUAL_MAX:
            raise WrongVerdict(f"{stem}: separable residual {res:.3e}")
    elif got == "Distillable":
        if not is_npt(rho, m, n):
            raise WrongVerdict(f"{stem} is PPT but was called Distillable")
        v = _decode(payload["witness"]["vector"])
        value = float(np.real(v.conj() @ partial_transpose(rho, m, n) @ v)
                      / np.real(v.conj() @ v))
        if not (value < 0 and payload["revalidation"]["witness_value"] < 0):
            raise WrongVerdict(f"{stem}: witness value {value} is not negative")
    elif got == "PptEntangled" and is_npt(rho, m, n):
        raise WrongVerdict(f"{stem} is NPT but was called PptEntangled")
    return "ok"
