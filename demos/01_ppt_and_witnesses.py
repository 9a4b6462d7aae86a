"""Distillability witnesses: where they come from and how they re-validate.

Certificates are only worth something if they can be checked without
trusting the code that produced them.  This walk-through builds a few
states, extracts witnesses, and re-validates each one from the state
alone.
"""

import numpy as np

from entcert import (
    BipartiteState,
    is_ppt,
    reduction_criterion,
    schmidt2_witness,
    trivially_distillable,
    validate_witness,
)
from entcert.families import make_antisymmetric, make_werner
from entcert.random_states import random_product_sum

# --- a maximally entangled pair -------------------------------------------
bell = np.zeros(4, complex)
bell[0] = bell[3] = 1.0
rho = BipartiteState.from_vectors(2, 2, [bell])

flag, min_eig = is_ppt(rho)
print(f"Bell pair: PPT = {flag}, min eigenvalue of rho^Gamma = {min_eig:+.3f}")

w = schmidt2_witness(rho)
print(f"  Schmidt-rank-2 witness value  <psi|rho^G|psi> = {w.value:+.3f}")
print(f"  re-validated from the state:  {validate_witness(rho, w):+.3f}")

violated, rw = reduction_criterion(rho)
print(f"  reduction criterion violated: {violated} "
      f"(its Schmidt-rank-2 witness {validate_witness(rho, rw):+.3f})")

# --- a separable state passes every test ----------------------------------
sep = random_product_sum(3, 3, 6, rng=1)
print(f"\nrandom separable 3x3 state: PPT = {is_ppt(sep)[0]}, "
      f"trivial witness = {trivially_distillable(sep)}, "
      f"schmidt2 witness = {schmidt2_witness(sep)}")

# --- trivial distillability: a 2x2 principal submatrix of rho^Gamma -------
v1 = np.array([1, 0, 0, 0.5], complex)
v2 = np.array([0, 1, 0, 0], complex)
triv = BipartiteState.from_vectors(2, 2, [v1, v2])
tw = trivially_distillable(triv)
row, col = np.flatnonzero(tw.vector)
print(f"\nconstructed state: rho^G has a [[*,b],[b*,0]] submatrix at "
      f"rows ({row}, {col}); min eigenvalue {tw.value:+.3f}")

# --- Werner states: the parameter ranges ----------------------------------
print("\nWerner family I + phi*SWAP on 3x3:")
for phi in (-0.2, -0.4, -0.8):
    state = make_werner(3, phi)
    flag, _ = is_ppt(state)
    w = schmidt2_witness(state)
    found = "found" if w is not None else "none "
    print(f"  phi = {phi:+.1f}: PPT = {str(flag):5s}  schmidt2 witness: {found}"
          + ("  <- NPT but 1-undistillable window" if not flag and w is None else ""))

# --- the antisymmetric state: NPT, caught by schmidt2 ----------------------
ras = make_antisymmetric(3)
w = schmidt2_witness(ras)
print(f"\nantisymmetric two-qutrit state: NPT = {not is_ppt(ras)[0]}, "
      f"witness value {w.value:+.3f}")
