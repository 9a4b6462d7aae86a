"""Checkerboard states: a two-qutrit family where NPT implies distillable.

The family is built from four pure states on a fixed checkerboard
sparsity pattern (18 complex parameters), generically of rank 4.  Every
NPT member is 1-distillable.  classify_checkerboard returns the verdict
of classify_state, so a rank-4 member goes through decide_rank4: a
negative coordinate 2x3 block of rho^G, or, for a range with no product
vector, the lowest eigenvector of rho^G compressed to a negative 2-frame
read off its eigenvectors, gives the witness, which decide_rank4
re-validates.
"""

import numpy as np

from entcert.certificates import Distillable
from entcert.criteria import is_ppt
from entcert.families import (
    CheckerboardParams,
    checkerboard_ppt_instance,
    classify_checkerboard,
    make_checkerboard,
    random_checkerboard,
)

# --- the pattern -------------------------------------------------------------
params, state = random_checkerboard(7)
print("a random checkerboard state (magnitude pattern, 9x9):")
for row in np.abs(state.matrix):
    print("   " + "".join("#" if x > 1e-12 else "." for x in row))
print(f"rank {state.rank()}, local ranks {state.local_ranks()}, "
      f"PPT = {is_ppt(state)[0]}")

# --- NPT members are certified distillable -----------------------------------
n_npt = n_cert = 0
for seed in range(60):
    _, st = random_checkerboard(seed)
    if is_ppt(st)[0]:
        continue
    n_npt += 1
    cert = classify_checkerboard(st, rng=seed)
    if isinstance(cert, Distillable):
        n_cert += 1
print(f"\nrandom draws: {n_cert}/{n_npt} NPT instances certified distillable")

# --- PPT members exist on a constraint chain ---------------------------------
params, ppt_state = checkerboard_ppt_instance(3)
cert = classify_checkerboard(ppt_state, rng=3)
print(f"\nconstraint-chain instance: PPT = {is_ppt(ppt_state)[0]}, "
      f"verdict = {type(cert).__name__}")

# --- degenerate parameter choices fall back to the low-rank classifier -------
thin = make_checkerboard(CheckerboardParams(a=1, g=1, c=0.3))
cert = classify_checkerboard(thin, rng=0)
print(f"\ndegenerate two-vector instance: rank {thin.rank()}, "
      f"verdict = {type(cert).__name__}")
