"""Seeded random fixtures: generic states, product sums, local operators.

All searches in this package take an explicit seed; these helpers wrap
numpy's Generator so an int, a Generator, or None is accepted anywhere.
"""

from __future__ import annotations

import numpy as np

from .linalg import DEFAULT_TOL, ToleranceConfig, kron
from .states import BipartiteState, PureState

__all__ = [
    "as_rng",
    "complex_gaussian",
    "unit_disc",
    "random_rank_r_state",
    "random_product_sum",
    "random_pure",
    "random_invertible",
    "random_unitary",
    "random_tripartite_pure_amplitudes",
]


def as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def complex_gaussian(rng, shape) -> np.ndarray:
    rng = as_rng(rng)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def unit_disc(rng, shape) -> np.ndarray:
    """Complex samples with modulus <= 1, radius-uniform in area."""
    rng = as_rng(rng)
    r = np.sqrt(rng.uniform(0.0, 1.0, shape))
    phi = rng.uniform(0.0, 2.0 * np.pi, shape)
    return r * np.exp(1j * phi)


def random_rank_r_state(dim_a, dim_b, rank, rng=0,
                        tol: ToleranceConfig = DEFAULT_TOL) -> BipartiteState:
    """Generic rank-r state rho = W^dag W with Gaussian W."""
    rng = as_rng(rng)
    w = complex_gaussian(rng, (rank, dim_a * dim_b))
    return BipartiteState(dim_a, dim_b, w.conj().T @ w, tol)


def random_product_sum(dim_a, dim_b, terms, rng=0,
                       tol: ToleranceConfig = DEFAULT_TOL) -> BipartiteState:
    """Separable state: sum of `terms` random product projectors."""
    rng = as_rng(rng)
    vecs = [kron(complex_gaussian(rng, dim_a), complex_gaussian(rng, dim_b))
            for _ in range(terms)]
    return BipartiteState.from_vectors(dim_a, dim_b, vecs, tol)


def random_pure(dim_a, dim_b, rng=0) -> PureState:
    rng = as_rng(rng)
    return PureState(dim_a, dim_b, complex_gaussian(rng, dim_a * dim_b))


def random_invertible(dim, rng=0, min_sv: float = 0.2) -> np.ndarray:
    """Random invertible matrix with singular values clamped away from 0."""
    rng = as_rng(rng)
    g = complex_gaussian(rng, (dim, dim))
    u, s, vh = np.linalg.svd(g)
    s = np.maximum(s, min_sv * s[0])
    return u @ np.diag(s) @ vh


def random_unitary(dim, rng=0) -> np.ndarray:
    rng = as_rng(rng)
    q, r = np.linalg.qr(complex_gaussian(rng, (dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_tripartite_pure_amplitudes(d_a, d_b, d_c, rng=0) -> np.ndarray:
    rng = as_rng(rng)
    return complex_gaussian(rng, d_a * d_b * d_c)
