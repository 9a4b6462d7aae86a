"""Full classification when the rank equals the maximum local rank.

At rank N = max local rank the separability problem is completely
solved: PPT states decompose into exactly N products (via commuting
normal blocks), and NPT states are distillable.  The library certifies
an NPT one by a validated Schmidt-rank-2 witness from its NPT chain: a
negative coordinate 2xN block of rho^G, or an A 2-frame read off the
eigenvectors of rho^G when the scan finds none; a state both miss
raises UndecidableError.  Below that rank every state is distillable.
"""

import numpy as np

from entcert import classify_rank_le_max, is_ppt, validate_certificate
from entcert.certificates import Distillable, Separable
from entcert.random_states import (
    complex_gaussian,
    random_invertible,
    random_rank_r_state,
    random_unitary,
)
from entcert.states import BipartiteState, apply_local

rng = np.random.default_rng(0)

# --- NPT at rank = max local rank ------------------------------------------
state = random_rank_r_state(3, 3, 3, rng)
assert not is_ppt(state)[0]
cert = classify_rank_le_max(state)
assert isinstance(cert, Distillable)
check = validate_certificate(state, cert)
print("random 3x3 state of rank 3 (NPT):")
print(f"  verdict: Distillable, witness kind {type(cert.witness).__name__}")
print(f"  re-validated coordinate 2xN block value: {check['witness_value']:+.4f}")

# --- PPT at rank = max local rank: exactly N products -----------------------
u = random_unitary(3, rng)
blocks = [u @ np.diag(complex_gaussian(rng, 3)) @ u.conj().T for _ in range(2)]
blocks.append(np.eye(3, dtype=complex))
w = np.hstack(blocks)
ppt_state = BipartiteState(3, 3, w.conj().T @ w)
ppt_state = apply_local(ppt_state, random_invertible(3, rng), random_invertible(3, rng))
assert is_ppt(ppt_state)[0]

cert = classify_rank_le_max(ppt_state)
assert isinstance(cert, Separable)
check = validate_certificate(ppt_state, cert)
print("\n3x3 PPT state of rank 3 (from commuting normal blocks + random ILO):")
print(f"  verdict: Separable with {check['n_products']} products")
print(f"  reconstruction residual: {check['reconstruction_residual']:.2e}")

# --- rank below the max local rank: always distillable ----------------------
low = random_rank_r_state(3, 4, 3, rng)
cert = classify_rank_le_max(low)
print(f"\n3x4 state of rank 3 (< max local rank): "
      f"{type(cert).__name__}, witness value "
      f"{validate_certificate(low, cert)['witness_value']:+.4f}")
