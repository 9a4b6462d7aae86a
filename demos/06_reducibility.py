"""Reducibility: splitting states into B-direct sums of irreducible parts.

A state is B-reducible when its B-marginal range splits as a direct sum
across summands.  After normalizing rho_B to the identity the splitting
is exactly an orthogonal projector commuting with every B-side block,
so the finest decomposition drops out of the commutant of the block
family.  Verdicts aggregate: separable iff all parts are, distillable
iff any part is.
"""

import numpy as np

from entcert.analyze import classify_state
from entcert.certificates import validate_witness
from entcert.families import make_label_state, make_reducible_4x4_example, label_state_entanglement
from entcert.random_states import complex_gaussian, random_invertible, random_rank_r_state
from entcert.states import BipartiteState, PureState, apply_local, reduce, von_neumann_entropy
from entcert.structure import aggregate, decompose_b_direct

rng = np.random.default_rng(0)

# --- a two-summand example with a second, different splitting ---------------
example, (phi1, phi2), (alt1, alt2) = make_reducible_4x4_example()
decomp = decompose_b_direct(example)
print(f"4x4 sum of two entangled pure states: {decomp.n_components} components")
print("  (the splitting is not unique; the count and the verdict are)")

# --- hidden reducibility behind a random ILO --------------------------------
bell = np.zeros(9, complex)
bell[0] = bell[4] = 1.0                                   # entangled on B-levels 0,1
prod = np.kron(complex_gaussian(rng, 3), np.array([0, 0, 1.0]))  # B-level 2
state = BipartiteState.from_vectors(3, 3, [bell, prod])
state = apply_local(state, random_invertible(3, rng), random_invertible(3, rng))

decomp = decompose_b_direct(state)
verdicts = [classify_state(c, rng=rng) for c in decomp.components]
cert = aggregate(decomp, verdicts)
print(f"\nILO-hidden B-direct sum: {decomp.n_components} components, "
      f"component verdicts {[type(v).__name__ for v in verdicts]}")
print(f"  aggregate: {type(cert).__name__} (witness value {cert.witness.value:+.3f})")
# aggregate only combines; its lifted witness is re-checked on the whole state
print(f"  re-checked on the whole state: {validate_witness(state, cert.witness):+.3f}")

# --- irreducible states stay in one piece ------------------------------------
generic = random_rank_r_state(3, 3, 4, rng)
print(f"\ngeneric 3x3 rank-4 state: "
      f"{decompose_b_direct(generic).n_components} component (irreducible)")

# --- label states: distillable entanglement from the decomposition -----------
comps = [PureState(3, 2, complex_gaussian(rng, 6)) for _ in range(2)]
probs = [0.25, 0.75]
label = make_label_state(probs, comps)
expected = label_state_entanglement(probs, comps)

decomp = decompose_b_direct(label)
total = 0.0
for comp in decomp.components:
    orig = apply_local(comp, None, decomp.conjugator_inv)
    weight = float(np.real(np.trace(orig.matrix)))
    total += weight * von_neumann_entropy(reduce(orig, "B"))
print(f"\nlabel state with weights {probs}:")
print(f"  distillable entanglement by formula:      {expected:.9f} bits")
print(f"  sum of weighted component entropies:      {total:.9f} bits")
