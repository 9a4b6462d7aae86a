"""The complete rank-4 decision: separable iff PPT with a product in range.

decide_rank4 walks a decision tree and reports the proof path alongside
the verdict.  A PPT state is settled by the product vectors in its
range: four of them diagonalize a separable state, and none means PPT
entangled.  An NPT state takes a negative coordinate 2x3 block of
rho^G as its witness; only when that scan misses does it go through
reducibility and then the eigen-frames of rho^G.
"""

import numpy as np

from entcert.certificates import Distillable, PptEntangled, Separable
from entcert.criteria import is_ppt
from entcert.families import make_shifts_upb, make_tiles_upb, shifts_bipartite_cut
from entcert.linalg import rel_residual
from entcert.random_states import complex_gaussian, random_product_sum
from entcert.rank4 import decide_rank4
from entcert.states import BipartiteState

rng = np.random.default_rng(0)

# --- the tiles UPB complement: PPT entangled --------------------------------
tiles = make_tiles_upb()
verdict = decide_rank4(tiles, rng=rng)
print("tiles UPB complement (3x3, rank 4):")
print(f"  PPT = {is_ppt(tiles)[0]}, verdict = {type(verdict.outcome).__name__}")
print(f"  trail: {verdict.trail}")
print(f"  {verdict.outcome.product_search_report}")

# --- a separable rank-4 state: explicit 4-product decomposition -------------
sep = random_product_sum(3, 3, 4, rng)
verdict = decide_rank4(sep, rng=rng)
assert isinstance(verdict.outcome, Separable)
res = rel_residual(verdict.outcome.reconstruct(3, 3), sep.matrix)
print(f"\nsum of 4 random products: verdict = Separable, trail = {verdict.trail}")
print(f"  {len(verdict.outcome.products)} products, reconstruction residual {res:.2e}")

# --- NPT with a product vector planted in the range -------------------------
prod = np.kron(complex_gaussian(rng, 3), complex_gaussian(rng, 3))
vecs = [prod] + [complex_gaussian(rng, 9) for _ in range(3)]
npt = BipartiteState.from_vectors(3, 3, vecs)
verdict = decide_rank4(npt, rng=rng)
assert isinstance(verdict.outcome, Distillable)
print(f"\nNPT rank-4 state with a product vector in its range:")
print(f"  verdict = Distillable, trail = {verdict.trail}")
print(f"  witness value {verdict.outcome.witness.value:+.4f}")

# --- a three-qubit UPB state cut as 2x4: separable ---------------------------
rho8, _ = make_shifts_upb()
for cut in "ABC":
    state = shifts_bipartite_cut(rho8, cut)
    verdict = decide_rank4(state, rng=rng)
    res = rel_residual(verdict.outcome.reconstruct(2, 4), state.matrix)
    print(f"\nshifts UPB state, cut {cut}:{'BC' if cut == 'A' else '...'} as 2x4: "
          f"{type(verdict.outcome).__name__} "
          f"({len(verdict.outcome.products)} products, residual {res:.1e})")
