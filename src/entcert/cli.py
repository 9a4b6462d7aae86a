"""Batch command-line front end.

Subcommands: analyze (verdicts with machine-checkable payloads),
generate (fixture files), product-test (hypersurface and numeric
product-vector search on a subspace file).  Exit codes: 0 decided,
2 undecided, 1 error, usage errors included.  --seed, --tol, --budget
and --mode can also be set by an environment variable with the ENTCERT_
prefix (ENTCERT_SEED, ENTCERT_TOL, ENTCERT_BUDGET, ENTCERT_MODE); --text,
and generate's --out, --random and --cut, cannot.  --budget and --mode
belong to analyze only; --budget sets only the samples of --mode
full-rank.  The seed reaches only the steps that draw: the enumeration
of the product search, the 2xN peeling, --mode full-rank's samples and
generate --random.  Every other route, the rank = max local rank
constructions and the B-direct split included, draws nothing.

A variable is parsed as its flag is, for every subcommand: a seed,
budget or tolerance that is not a number, a negative seed, a budget
below 1 and a mode that is not one of the choices exit 1 with an error
line that names the flag or the variable.  A tolerance outside (0, 1)
exits 1 as well.  analyze and product-test load their input with --tol.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from .analyze import classify_state
from .certificates import (
    Distillable,
    Ppt,
    PptEntangled,
    Separable,
    Undecided,
    UndecidableError,
    validate_certificate,
)
from .criteria import full_rank_property, is_ppt
from .families import FIXTURE_BUILDERS, make_fixture, shifts_bipartite_cut
from .io import StateFileError, encode_complex, load_state, save_state
from .linalg import DEFAULT_TOL, ToleranceConfig
from .product_search import Subspace, find_product_vector, hypersurface_value
from .rank4 import decide_rank4
from .structure import decompose_b_direct
from .tripartite import TripartitePure, classify_pairs, ghz_test

EXIT_DECIDED = 0
EXIT_ERROR = 1
EXIT_UNDECIDED = 2

_ENV_PREFIX = "ENTCERT_"
MODES = ("auto", "ppt", "full-rank", "rank4", "reduce", "tripartite")


def _env_default(name, fallback, parse):
    """ENTCERT_<NAME> parsed as its flag's value is, or fallback when unset."""
    var = _ENV_PREFIX + name.upper()
    raw = os.environ.get(var)
    if raw is None:
        return fallback
    try:
        return parse(raw)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ValueError(f"{var}={raw!r}: {exc}") from None


def _mode(raw: str) -> str:
    if raw not in MODES:
        raise ValueError(f"invalid choice (choose from {', '.join(MODES)})")
    return raw


def budget(raw: str) -> int:
    """A sample budget: an integer of at least 1."""
    if (value := int(raw)) < 1:
        raise argparse.ArgumentTypeError(f"budget must be at least 1, got {value}")
    return value


def seed(raw: str) -> int:
    """A seed: a non-negative integer, the seeds numpy's Generator takes."""
    if (value := int(raw)) < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {value}")
    return value


def _vector_payload(vec):
    return [encode_complex(z) for z in np.asarray(vec).reshape(-1)]


def _certificate_payload(state, cert):
    body = {"verdict": type(cert).__name__}
    if isinstance(cert, Separable):
        body["products"] = [
            {"a": _vector_payload(a), "b": _vector_payload(b)}
            for a, b in cert.products]
    elif isinstance(cert, Ppt):
        body["min_eig_gamma"] = cert.min_eig_gamma
    elif isinstance(cert, PptEntangled):
        body["min_eig_gamma"] = cert.min_eig_gamma
        body["product_search_report"] = cert.product_search_report
    elif isinstance(cert, Distillable):
        w = cert.witness
        body["witness"] = {"kind": "schmidt-rank-2", "value": w.value,
                           "vector": _vector_payload(w.vector)}
    elif isinstance(cert, Undecided):
        body["report"] = cert.report
    if state is not None and not isinstance(cert, Undecided):
        body["revalidation"] = validate_certificate(state, cert)
    return body


def _digest(path):
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def _emit(payload, started, text, stream=None):
    stream = stream or sys.stdout
    elapsed = time.perf_counter() - started
    if text:
        _emit_text(payload, stream)
        stream.write(f"elapsed: {elapsed:.3f}s\n")
    else:
        doc = {"payload": payload, "timing_seconds": round(elapsed, 6)}
        stream.write(json.dumps(doc, sort_keys=True) + "\n")


def _emit_text(payload, stream, indent=0):
    pad = "  " * indent
    for key, value in sorted(payload.items()):
        if isinstance(value, dict):
            stream.write(f"{pad}{key}:\n")
            _emit_text(value, stream, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            stream.write(f"{pad}{key}: [{len(value)} entries]\n")
        elif key in ("vector", "products"):
            stream.write(f"{pad}{key}: [...]\n")
        else:
            stream.write(f"{pad}{key}: {value}\n")


def _tol_from_args(args) -> ToleranceConfig:
    if args.tol is None:
        return DEFAULT_TOL
    return ToleranceConfig(psd_tol=args.tol, residual_tol=args.tol)


def cmd_analyze(args) -> int:
    started = time.perf_counter()
    tol = _tol_from_args(args)
    obj = load_state(args.path, tol_override=tol if args.tol else None)
    payload = {
        "input_digest": _digest(args.path),
        "seed": args.seed,
        "budget": args.budget,
        "mode": args.mode,
    }
    rng = np.random.default_rng(args.seed)

    if isinstance(obj, TripartitePure):
        if args.mode not in ("auto", "tripartite"):
            raise StateFileError(f"mode {args.mode} needs a bipartite input")
        pc = classify_pairs(obj, rng=rng)
        is_ghz, coeffs = ghz_test(obj)
        payload["pairs"] = {
            name: {"ppt": bool(pc.ppt[name]),
                   **_certificate_payload(None, pc.certificates[name])}
            for name in sorted(pc.ppt)}
        payload["canonical_form"] = (
            None if pc.canonical is None else
            {"residual": pc.canonical.residual,
             "a_vectors": [_vector_payload(a) for a in pc.canonical.a_vectors]})
        payload["generalized_ghz"] = bool(is_ghz)
        if coeffs is not None:
            payload["ghz_coefficients"] = list(coeffs)
        _emit(payload, started, args.text)
        return EXIT_DECIDED

    if isinstance(obj, Subspace):
        raise StateFileError("subspace files are handled by 'product-test'")

    state = obj
    mode = args.mode
    if mode == "tripartite":
        raise StateFileError("mode tripartite needs a tripartite input")
    if mode == "ppt":
        flag, min_eig = is_ppt(state)
        payload.update({"ppt": bool(flag), "min_eig_gamma": min_eig})
        _emit(payload, started, args.text)
        return EXIT_DECIDED
    if mode == "full-rank":
        for side in ("right", "left"):
            res = full_rank_property(state, side, budget=args.budget, rng=rng)
            payload[side] = {
                "holds": bool(res.holds),
                "shortcut": res.shortcut,
                "samples": res.samples,
                "failure_bound": res.failure_bound,
                "witness": None if res.witness is None else _vector_payload(res.witness),
            }
        _emit(payload, started, args.text)
        return EXIT_DECIDED
    if mode == "reduce":
        decomp = decompose_b_direct(state)
        payload["n_components"] = decomp.n_components
        payload["component_b_ranks"] = [
            int(round(float(np.real(np.trace(p))))) for p in decomp.b_projectors]
        verdicts = [classify_state(c, rng=rng) for c in decomp.components]
        payload["components"] = [_certificate_payload(c, v)
                                 for c, v in zip(decomp.components, verdicts)]
        _emit(payload, started, args.text)
        return EXIT_DECIDED

    if mode == "rank4":
        verdict = decide_rank4(state, rng=rng)
        payload["trail"] = list(verdict.trail)
        cert = verdict.outcome
    else:  # auto
        cert = classify_state(state, rng=rng)
    payload.update(_certificate_payload(state, cert))
    _emit(payload, started, args.text)
    return EXIT_UNDECIDED if isinstance(cert, Undecided) else EXIT_DECIDED


def _parse_value(raw: str):
    raw = raw.strip()
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    try:
        return complex(raw)
    except ValueError:
        return raw


def cmd_generate(args) -> int:
    started = time.perf_counter()
    tol = _tol_from_args(args)
    family = args.family
    params = {}
    if args.random:
        params["seed"] = args.seed
    for item in args.params:
        if "=" in item:
            key, raw = item.split("=", 1)
            if "," in raw:
                params[key] = [_parse_value(v) for v in raw.split(",")]
            else:
                params[key] = _parse_value(raw)
        elif family in ("antisymmetric", "werner") and "n" not in params:
            params["n"] = int(item)
        elif family == "werner":
            params["phi"] = float(item)
        elif family == "generalized_ghz":
            params["coefficients"] = [_parse_value(v) for v in item.split(",")]
        elif family == "label_state" and "probabilities" not in params:
            params["probabilities"] = [float(v) for v in item.split(",")]
        elif family == "label_state":
            params["kinds"] = item.split(",")
        else:
            raise ValueError(f"cannot interpret positional parameter {item!r} "
                             f"for family {family!r}")
    obj = make_fixture(family, tol=tol, **params)
    if family == "upb_shifts_2x2x2":
        rho8, _ = obj
        obj = shifts_bipartite_cut(rho8, args.cut, tol)
    save_state(obj, args.out)
    payload = {"family": family, "out": args.out,
               "digest": _digest(args.out), "seed": args.seed}
    _emit(payload, started, args.text)
    return EXIT_DECIDED


def cmd_product_test(args) -> int:
    started = time.perf_counter()
    tol = _tol_from_args(args)
    obj = load_state(args.path, tol_override=tol if args.tol else None)
    if not isinstance(obj, Subspace):
        raise StateFileError("'product-test' needs a subspace file")
    payload = {"input_digest": _digest(args.path), "seed": args.seed,
               "dims": [obj.dim_a, obj.dim_b], "subspace_dim": obj.dim}
    hyper = hypersurface_value(obj)
    if hyper is not None:
        value, degree, scale = hyper
        vanishes = abs(value) <= 1.0e-9 * max(scale, 1.0e-300)
        payload["hypersurface"] = {
            "value": encode_complex(value),
            "abs_value": abs(value),
            "degree": degree,
            "scale": scale,
            "vanishes": bool(vanishes),
        }
    else:
        payload["hypersurface"] = None
        payload["note"] = ("no hypersurface equation for this shape; "
                           "the product search decides alone")
    result = find_product_vector(obj, rng=args.seed)
    payload["search"] = {
        "found": bool(result.found),
        "method": result.method,
        "best_rank1_defect": result.best_defect,
    }
    if result.found:
        payload["search"]["a"] = _vector_payload(result.a)
        payload["search"]["b"] = _vector_payload(result.b)
    if hyper is not None:
        payload["agreement"] = bool(payload["hypersurface"]["vanishes"] == result.found)
    _emit(payload, started, args.text)
    return EXIT_DECIDED


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on EXIT_ERROR: its own code, 2, is
    EXIT_UNDECIDED.  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="entcert",
        description="certified distillability / PPT / separability analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float,
                       default=_env_default("tol", None, float),
                       help="override psd/residual tolerances")
        p.add_argument("--seed", type=seed,
                       default=_env_default("seed", 7, seed),
                       help="seed of the steps that draw: the product-search "
                            "enumeration, the 2xN peeling, --mode full-rank's "
                            "samples and generate --random")
        p.add_argument("--text", action="store_true",
                       help="human-readable output instead of JSON")

    pa = sub.add_parser("analyze", help="classify a state file")
    pa.add_argument("path")
    pa.add_argument("--mode", choices=MODES, default=_env_default("mode", "auto", _mode))
    pa.add_argument("--budget", type=budget,
                    default=_env_default("budget", 256, budget),
                    help="samples of the full-rank property test (--mode full-rank)")
    common(pa)
    pa.set_defaults(func=cmd_analyze)

    pg = sub.add_parser("generate", help="write a named fixture to a state file")
    pg.add_argument("family", choices=sorted(FIXTURE_BUILDERS))
    pg.add_argument("params", nargs="*",
                    help="positional or key=value family parameters")
    pg.add_argument("--out", required=True)
    pg.add_argument("--random", action="store_true",
                    help="draw random parameters using the seed")
    pg.add_argument("--cut", default="A", choices=["A", "B", "C"],
                    help="bipartition used when saving the shifts UPB state")
    common(pg)
    pg.set_defaults(func=cmd_generate)

    pp = sub.add_parser("product-test",
                        help="product vectors in a subspace file")
    pp.add_argument("path")
    common(pp)
    pp.set_defaults(func=cmd_product_test)
    return parser


def main(argv=None) -> int:
    try:
        # build_parser reads the ENTCERT_ variables, and names a bad one
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UndecidableError as exc:
        sys.stderr.write(f"undecided: {exc}\n")
        return EXIT_UNDECIDED
    except (StateFileError, ValueError, NotImplementedError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except RuntimeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
