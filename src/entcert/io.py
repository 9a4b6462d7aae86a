"""State files: lossless JSON serialization of analysis inputs.

Complex entries are stored as [re, im] pairs of hex-float strings
(float.hex round-trips doubles exactly), so generate -> load is the
identity on the data.  The version field is mandatory.
"""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np

from .families import make_fixture, shifts_bipartite_cut
from .linalg import DEFAULT_TOL, ToleranceConfig
from .product_search import Subspace
from .states import BipartiteState
from .tripartite import TripartitePure

__all__ = [
    "FORMAT_VERSION",
    "encode_complex",
    "decode_complex",
    "state_to_doc",
    "doc_to_object",
    "save_state",
    "load_state",
    "StateFileError",
]

FORMAT_VERSION = 1


class StateFileError(ValueError):
    """Malformed state file, with a location hint."""


def encode_complex(z: complex):
    return [float(np.real(z)).hex(), float(np.imag(z)).hex()]


def decode_complex(pair, where: str) -> complex:
    if (not isinstance(pair, (list, tuple))) or len(pair) != 2:
        raise StateFileError(f"{where}: expected an [re, im] pair, got {pair!r}")
    try:
        return complex(_from_number(pair[0]), _from_number(pair[1]))
    except (TypeError, ValueError) as exc:
        raise StateFileError(f"{where}: {exc}") from exc


def _from_number(x):
    if isinstance(x, str):
        return float.fromhex(x)
    if isinstance(x, (int, float)):
        return float(x)
    raise ValueError(f"not a number or hex-float string: {x!r}")


def _encode_array(arr: np.ndarray):
    if arr.ndim == 1:
        return [encode_complex(z) for z in arr]
    return [_encode_array(row) for row in arr]


def _decode_vector(data, where: str) -> np.ndarray:
    if not isinstance(data, list):
        raise StateFileError(f"{where}: expected an array of [re, im] pairs, got {data!r}")
    return np.array([decode_complex(z, f"{where}[{i}]") for i, z in enumerate(data)])


def _decode_matrix(data, where: str) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise StateFileError(f"{where}: expected a nested array")
    rows = [_decode_vector(row, f"{where}[{i}]") for i, row in enumerate(data)]
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise StateFileError(
                f"{where}[{i}]: row has {len(row)} entries, row 0 has {len(rows[0])}")
    return np.array(rows)


def _decode_dims(dims, count: int) -> tuple[int, ...]:
    if not (isinstance(dims, list) and len(dims) == count
            and all(type(d) is int for d in dims)):
        raise StateFileError(f"dims: expected {count} integers, got {dims!r}")
    return tuple(dims)


def _tol_to_doc(tol: ToleranceConfig):
    if tol == DEFAULT_TOL:
        return None
    return {"rank_tol_factor": tol.rank_tol_factor, "psd_tol": tol.psd_tol,
            "residual_tol": tol.residual_tol}


def _tol_from_doc(doc) -> ToleranceConfig:
    if doc is None:
        return DEFAULT_TOL
    if not isinstance(doc, dict):
        raise StateFileError("tolerances: expected an object")
    names = [f.name for f in fields(ToleranceConfig)]
    values = {}
    for key, value in doc.items():
        if key not in names:
            raise StateFileError(f"tolerances.{key}: unknown field; expected one of {names}")
        try:
            values[key] = float(value)
        except (TypeError, ValueError) as exc:
            raise StateFileError(f"tolerances.{key}: {exc}") from exc
    try:
        return ToleranceConfig(**values)
    except ValueError as exc:
        raise StateFileError(f"tolerances: {exc}") from exc


def state_to_doc(obj) -> dict:
    """Serialize a BipartiteState, TripartitePure or Subspace."""
    if isinstance(obj, BipartiteState):
        return {
            "version": FORMAT_VERSION,
            "kind": "bipartite",
            "dims": [obj.dim_a, obj.dim_b],
            "data": _encode_array(obj.matrix),
            "tolerances": _tol_to_doc(obj.tol),
        }
    if isinstance(obj, TripartitePure):
        return {
            "version": FORMAT_VERSION,
            "kind": "tripartite",
            "dims": list(obj.dims),
            "data": _encode_array(obj.amplitudes),
            "tolerances": _tol_to_doc(obj.tol),
        }
    if isinstance(obj, Subspace):
        return {
            "version": FORMAT_VERSION,
            "kind": "subspace",
            "dims": [obj.dim_a, obj.dim_b],
            "data": _encode_array(obj.basis),
            "tolerances": _tol_to_doc(obj.tol),
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def doc_to_object(doc, tol_override: ToleranceConfig | None = None):
    """Parse a state-file document into its domain object."""
    if not isinstance(doc, dict):
        raise StateFileError("top level: expected a JSON object")
    if doc.get("version") != FORMAT_VERSION:
        raise StateFileError(
            f"version: expected {FORMAT_VERSION}, got {doc.get('version')!r}")
    kind = doc.get("kind")
    dims = doc.get("dims")
    data = doc.get("data")
    tol = tol_override or _tol_from_doc(doc.get("tolerances"))
    if kind in ("bipartite", "tripartite", "subspace"):
        if kind == "tripartite":
            build, args = TripartitePure, (_decode_dims(dims, 3), _decode_vector(data, "data"))
        else:
            build = BipartiteState if kind == "bipartite" else Subspace
            args = (*_decode_dims(dims, 2), _decode_matrix(data, "data"))
        try:
            return build(*args, tol)
        except ValueError as exc:
            raise StateFileError(f"data: {exc}") from exc
    if kind == "fixture":
        name = doc.get("name")
        params = doc.get("params", {})
        if not isinstance(name, str):
            raise StateFileError("name: fixture files need a fixture name")
        if not isinstance(params, dict):
            raise StateFileError("params: expected an object")
        try:
            obj = make_fixture(name, tol=tol, **params)
        except (TypeError, ValueError) as exc:
            raise StateFileError(f"fixture: {exc}") from exc
        if name == "upb_shifts_2x2x2":
            rho8, _ = obj
            obj = shifts_bipartite_cut(rho8, doc.get("cut", "A"), tol)
        return obj
    raise StateFileError(f"kind: unknown kind {kind!r}")


def save_state(obj, path):
    with open(path, "w") as fh:
        json.dump(state_to_doc(obj), fh, indent=1)
        fh.write("\n")


def load_state(path, tol_override: ToleranceConfig | None = None):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise StateFileError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return doc_to_object(doc, tol_override)
