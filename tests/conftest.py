"""Shared fixture generators for the test suite."""

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


def bell_projector(scale=1.0):
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0
    return BipartiteState(2, 2, scale * np.outer(v, v.conj()))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def miss_3x3_scan(monkeypatch):
    """Make decide_rank4's coordinate 2x3 scan find nothing on 3x3
    states, so that NPT states walk the rest of the case tree; the
    cascade's projected 3x2 states keep the real scan.  Returns the
    list of 3x3 states the scan was called on."""
    scanned, scan = [], rank4.schmidt2_witness

    def missing(state):
        if (state.dim_a, state.dim_b) != (3, 3):
            return scan(state)
        scanned.append(state)
        return None

    monkeypatch.setattr(rank4, "schmidt2_witness", missing)
    return scanned
