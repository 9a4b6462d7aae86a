"""Machine-checkable verdicts and the witnesses that back them.

Every Distillable verdict carries one kind of witness, a Schmidt-rank-2
vector psi valued <psi| rho^G |psi> / <psi|psi> on the state it was
returned for, which re-validates from that state alone; every Separable
verdict carries a product decomposition that reconstructs the state.
Validation helpers live here so the test suite and the CLI re-check
certificates through one code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .linalg import dagger, kron, rel_residual
from .states import BipartiteState, PureState, partial_transpose, schmidt

__all__ = [
    "SchmidtRank2Witness",
    "Separable",
    "Ppt",
    "PptEntangled",
    "Distillable",
    "Undecided",
    "Certificate",
    "UndecidableError",
    "lift_through_local",
    "lifted_value",
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
    where G transposes the A factor.  dims are (dim_a, dim_b) of tau.  A
    2-d psi is lifted column by column.
    """
    ma, mb = dims
    a = np.eye(ma, dtype=complex) if a is None else np.asarray(a, dtype=complex)
    b = np.eye(mb, dtype=complex) if b is None else np.asarray(b, dtype=complex)
    op = kron(a.T, dagger(b))
    psi = np.asarray(psi, dtype=complex)
    return op @ (psi if psi.ndim == 2 else psi.reshape(-1))


def lifted_value(witness, phi: np.ndarray) -> float:
    """The value of a Schmidt-rank-2 witness phi on rho, for phi a lift
    (lift_through_local, a swap) of witness.vector psi on tau.

    <psi| tau^G |psi> = <phi| rho^G |phi>, so the normalized expectation
    is value ||psi||^2 / ||phi||^2, with no state needed.
    """
    psi = np.asarray(witness.vector).reshape(-1)
    phi = np.asarray(phi).reshape(-1)
    return float(witness.value * np.vdot(psi, psi).real / np.vdot(phi, phi).real)


@dataclass(frozen=True)
class SchmidtRank2Witness:
    """Schmidt-rank-2 vector psi with value = <psi| rho^G |psi> / <psi|psi>
    < 0 on the state it certifies."""

    vector: np.ndarray
    value: float

    def __post_init__(self):
        object.__setattr__(self, "vector", _freeze(self.vector))


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
            v = kron(a, b)
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
    witness: SchmidtRank2Witness


@dataclass(frozen=True)
class Undecided:
    report: str


Certificate = Union[Separable, Ppt, PptEntangled, Distillable, Undecided]


def _gamma_expectation(state: BipartiteState, psi: np.ndarray) -> float:
    g = partial_transpose(state)
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return float(np.real(psi.conj() @ g @ psi) / (psi.conj() @ psi).real)


def validate_witness(state: BipartiteState, witness: SchmidtRank2Witness) -> float:
    """Recompute the witness's normalized expectation from the state alone.

    Returns the recomputed value; raises ValueError if the vector does
    not have Schmidt rank 2 or its value is not negative beyond the
    state's floor.
    """
    psi = PureState(state.dim_a, state.dim_b, witness.vector)
    coeffs, _, _ = schmidt(psi, state.tol)
    if len(coeffs) != 2:
        raise ValueError(f"witness vector has Schmidt rank {len(coeffs)}, expected 2")
    value = _gamma_expectation(state, witness.vector)
    if value >= -state.tol.negativity_floor(state.spectral_norm):
        raise ValueError(f"witness expectation {value:.3e} is not negative")
    return value


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
