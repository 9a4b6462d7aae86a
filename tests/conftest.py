"""Shared fixture generators for the test suite."""

import sys

import numpy as np
import pytest

from entcert import rank4
from entcert.random_states import (
    as_rng,
    complex_gaussian,
    random_invertible,
    random_unitary,
)
from entcert.states import BipartiteState, apply_local


def ppt_rank_n_state(m, n, rng, conjugate=True):
    """PPT M x N state of rank N built from commuting normal blocks,
    optionally conjugated by a random invertible local operator."""
    rng = as_rng(rng)
    u = random_unitary(n, rng)
    blocks = []
    for _ in range(m - 1):
        d = complex_gaussian(rng, n)
        blocks.append(u @ np.diag(d) @ u.conj().T)
    blocks.append(np.eye(n, dtype=complex))
    w = np.hstack(blocks)
    state = BipartiteState(m, n, w.conj().T @ w)
    if conjugate:
        state = apply_local(state, random_invertible(m, rng),
                            random_invertible(n, rng))
    return state


def reducible_b_state(rng):
    """The B-direct sum of a pure entangled 2x2 block (rank 1 < local
    rank 2) and a rank-3 3x1 block, under random ILOs: a 3x3 rank-4
    state that decide_rank4 decides by its 2x3 scan, or on its
    "reducible-b" route once the scan misses."""
    psi = np.zeros((3, 3), dtype=complex)
    psi[:2, :2] = complex_gaussian(rng, (2, 2))
    rest = [np.kron(complex_gaussian(rng, 3), np.array([0, 0, 1.0])) for _ in range(3)]
    state = BipartiteState.from_vectors(3, 3, [psi.reshape(-1)] + rest)
    return apply_local(state, random_invertible(3, rng), random_invertible(3, rng))


def ill_conditioned(kappa, rng):
    """A 3 x 3 invertible operator with singular values 1 .. 1/kappa
    between random unitaries."""
    s = np.diag(np.logspace(0, -np.log10(kappa), 3))
    return random_unitary(3, rng) @ s @ random_unitary(3, rng)


def bell_projector(scale=1.0):
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0
    return BipartiteState(2, 2, scale * np.outer(v, v.conj()))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def miss_3x3_scan(monkeypatch):
    """Make step (a') of the rank-4 tree, the coordinate 2x3 scan of a 3x3
    state, find nothing, so that NPT states go on to reducibility and the
    eigen-frames; every other caller's scan stays real.  Returns the list
    of states step (a') scanned."""
    scanned, scan = [], rank4.schmidt2_witness

    def missing(state):
        if ((state.dim_a, state.dim_b) != (3, 3)
                or sys._getframe(1).f_code is not rank4._decide_rank4_local.__code__):
            return scan(state)
        scanned.append(state)
        return None

    monkeypatch.setattr(rank4, "schmidt2_witness", missing)
    return scanned
