"""Machine-checkable verdicts and the witnesses that back them.

Every Distillable verdict carries a witness that re-validates from the
state alone; every Separable verdict carries a product decomposition
that reconstructs the state.  Validation helpers live here so the test
suite and the CLI re-check certificates through one code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .linalg import dagger, rel_residual
from .states import BipartiteState, PureState, apply_local, partial_transpose, reduce, schmidt

__all__ = [
    "TrivialSubmatrixWitness",
    "TwoByNProjectionWitness",
    "ReductionViolationWitness",
    "SchmidtRank2Witness",
    "Witness",
    "Separable",
    "Ppt",
    "PptEntangled",
    "Distillable",
    "Undecided",
    "Certificate",
    "UndecidableError",
    "lift_through_local",
    "validate_witness",
    "validate_certificate",
]


class UndecidableError(RuntimeError):
    """Raised when an analysis cannot reach a verdict within its contract."""


def _freeze(arr):
    a = np.asarray(arr, dtype=complex)
    a.flags.writeable = False
    return a


def lift_through_local(psi: np.ndarray, a: np.ndarray | None, b: np.ndarray | None,
                       dims: tuple[int, int]) -> np.ndarray:
    """Pull a witness vector on tau = (A (x) B) rho (A (x) B)^dag back to rho.

    <psi| tau^G |psi> = <phi| rho^G |phi> for phi = (A^T (x) B^dag) psi,
    where G transposes the A factor.  dims are (dim_a, dim_b) of tau.
    """
    ma, mb = dims
    a = np.eye(ma, dtype=complex) if a is None else np.asarray(a, dtype=complex)
    b = np.eye(mb, dtype=complex) if b is None else np.asarray(b, dtype=complex)
    op = np.kron(a.T, dagger(b))
    return op @ np.asarray(psi, dtype=complex).reshape(-1)


@dataclass(frozen=True)
class TrivialSubmatrixWitness:
    """2x2 principal submatrix of rho^G with a zero diagonal entry and
    a nonzero off-diagonal entry; (row, col) are global indices."""

    row: int
    col: int
    vector: np.ndarray
    value: float

    def __post_init__(self):
        object.__setattr__(self, "vector", _freeze(self.vector))


@dataclass(frozen=True)
class TwoByNProjectionWitness:
    """A 2 x N' compression of the state whose partial transpose is negative.

    a_columns (M x 2) and b_operator (N' x N, optional) define the local
    map; the projected state is (a_columns^dag (x) b_operator) applied to
    rho.  x is the scalar of the combination x C_i + C_j of a
    non-commuting normal block pair, when one was used.
    """

    a_columns: np.ndarray
    b_operator: np.ndarray | None
    x: complex | None
    vector: np.ndarray
    value: float

    def __post_init__(self):
        object.__setattr__(self, "a_columns", _freeze(self.a_columns))
        if self.b_operator is not None:
            object.__setattr__(self, "b_operator", _freeze(self.b_operator))
        object.__setattr__(self, "vector", _freeze(self.vector))


@dataclass(frozen=True)
class ReductionViolationWitness:
    """Negative direction of rho_A (x) I - rho (side A) or I (x) rho_B - rho."""

    side: str
    eigenvector: np.ndarray
    value: float

    def __post_init__(self):
        object.__setattr__(self, "eigenvector", _freeze(self.eigenvector))


@dataclass(frozen=True)
class SchmidtRank2Witness:
    """Schmidt-rank-2 vector psi with <psi| rho^G |psi> < 0."""

    vector: np.ndarray
    value: float

    def __post_init__(self):
        object.__setattr__(self, "vector", _freeze(self.vector))


Witness = Union[
    TrivialSubmatrixWitness,
    TwoByNProjectionWitness,
    ReductionViolationWitness,
    SchmidtRank2Witness,
]


@dataclass(frozen=True)
class Separable:
    """Product decomposition rho = sum_i |a_i, b_i><a_i, b_i|."""

    products: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        frozen = tuple((_freeze(a), _freeze(b)) for a, b in self.products)
        object.__setattr__(self, "products", frozen)

    def reconstruct(self, dim_a: int, dim_b: int) -> np.ndarray:
        rho = np.zeros((dim_a * dim_b, dim_a * dim_b), dtype=complex)
        for a, b in self.products:
            v = np.kron(a, b)
            rho += np.outer(v, v.conj())
        return rho


@dataclass(frozen=True)
class Ppt:
    """PPT, hence undistillable; separability not claimed."""

    min_eig_gamma: float


@dataclass(frozen=True)
class PptEntangled:
    """PPT with an exhausted product-vector search over the range."""

    min_eig_gamma: float
    product_search_report: str


@dataclass(frozen=True)
class Distillable:
    witness: Witness


@dataclass(frozen=True)
class Undecided:
    report: str


Certificate = Union[Separable, Ppt, PptEntangled, Distillable, Undecided]


def _gamma_expectation(state: BipartiteState, psi: np.ndarray) -> float:
    g = partial_transpose(state)
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return float(np.real(psi.conj() @ g @ psi) / (psi.conj() @ psi).real)


def validate_witness(state: BipartiteState, witness: Witness) -> float:
    """Recompute the witness's negative quantity from the state alone.

    Returns the recomputed value; raises ValueError if the witness does
    not satisfy its structural invariants.
    """
    thr = state.tol.negativity_floor(state.spectral_norm)
    if isinstance(witness, TrivialSubmatrixWitness):
        g = partial_transpose(state)
        k, l = witness.row, witness.col
        sub = np.array([[g[k, k], g[k, l]], [g[l, k], g[l, l]]])
        a, c = float(np.real(sub[0, 0])), float(np.real(sub[1, 1]))
        b = complex(sub[0, 1])
        if abs(b) <= thr:
            raise ValueError("trivial-submatrix witness has vanishing off-diagonal")
        if min(a, c) > thr:
            raise ValueError("trivial-submatrix witness lacks a zero diagonal entry")
        value = float(np.linalg.eigvalsh(sub)[0])
        if value >= -thr:
            raise ValueError("trivial submatrix is not negative")
        return value
    if isinstance(witness, SchmidtRank2Witness):
        psi = PureState(state.dim_a, state.dim_b, witness.vector)
        coeffs, _, _ = schmidt(psi, state.tol)
        if len(coeffs) != 2:
            raise ValueError(f"witness vector has Schmidt rank {len(coeffs)}, expected 2")
        value = _gamma_expectation(state, witness.vector)
        if value >= -thr:
            raise ValueError(f"witness expectation {value:.3e} is not negative")
        return value
    if isinstance(witness, TwoByNProjectionWitness):
        a = dagger(witness.a_columns)  # 2 x M compression
        projected = apply_local(state, a, witness.b_operator)
        value = float(np.linalg.eigvalsh(partial_transpose(projected))[0])
        if value >= -thr:
            raise ValueError("projected 2xN state is not NPT")
        return value
    if isinstance(witness, ReductionViolationWitness):
        v = witness.eigenvector.reshape(-1)
        if witness.side.upper() == "A":
            op = np.kron(reduce(state, "A"), np.eye(state.dim_b)) - state.matrix
        else:
            op = np.kron(np.eye(state.dim_a), reduce(state, "B")) - state.matrix
        value = float(np.real(v.conj() @ op @ v) / (v.conj() @ v).real)
        if value >= -thr:
            raise ValueError("reduction-criterion expectation is not negative")
        return value
    raise TypeError(f"unknown witness type {type(witness).__name__}")


def validate_certificate(state: BipartiteState, cert: Certificate) -> dict:
    """Re-validate a certificate against its state; returns check numbers."""
    if isinstance(cert, Separable):
        residual = rel_residual(cert.reconstruct(state.dim_a, state.dim_b), state.matrix)
        if residual > state.tol.residual_tol:
            raise ValueError(f"separable decomposition residual {residual:.3e} too large")
        return {"reconstruction_residual": residual, "n_products": len(cert.products)}
    if isinstance(cert, (Ppt, PptEntangled)):
        w = np.linalg.eigvalsh(partial_transpose(state))
        if float(w[0]) < -state.tol.negativity_floor(state.spectral_norm):
            raise ValueError(f"claimed PPT but min eigenvalue of rho^G is {w[0]:.3e}")
        return {"min_eig_gamma": float(w[0])}
    if isinstance(cert, Distillable):
        return {"witness_value": validate_witness(state, cert.witness)}
    if isinstance(cert, Undecided):
        return {}
    raise TypeError(f"unknown certificate type {type(cert).__name__}")
