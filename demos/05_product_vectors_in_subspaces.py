"""Product vectors in subspaces: analytic equations vs numeric search.

For 2-dimensional subspaces of 2x3 and 3-dimensional subspaces of 2x4,
a single polynomial in the Pluecker coordinates vanishes exactly when
the subspace contains a product vector.  The numeric search covers
every shape with a smaller side of up to 4 levels: it enumerates every
candidate product as an eigenvalue of a multiparameter eigenvalue
problem, so it returns all the product vectors with explicit factors,
and "not found" means there are none.  Before it, one SVD of the matrix
taking the products z_i z_j to the 2 x 2 minors decides many spans with
no random numbers and at any shape: without a null space it bounds the
rank-1 defect of the whole span from below, and a bound above the
tolerance proves "none"; a null space spanned by a few independent
products hands them over, all of them.
"""

import numpy as np

from entcert.product_search import (
    Subspace,
    degree_scale,
    find_product_vector,
    hypersurface_2x3,
    hypersurface_2x4,
    pluecker_coords,
    random_product_containing_subspace,
    random_subspace,
)

rng = np.random.default_rng(0)

# --- a hand-picked 2x3 subspace: polynomial value exactly -1 ----------------
a = np.zeros(6, complex); a[0] = a[4] = 1.0
b = np.zeros(6, complex); b[1] = b[5] = 1.0
v = Subspace(2, 3, np.vstack([a, b]))
print(f"span{{|11>+|22>, |12>+|23>}} in 2x3: cubic value = {hypersurface_2x3(v):.6f}")
print("  nonzero, so the subspace contains no product vector")
print(f"  numeric search agrees: found = {find_product_vector(v, rng=rng).found}")

# --- vanishing detects planted product vectors ------------------------------
print("\nplanted product vectors (value / degree-scaled norm):")
for dims, dim, poly, deg in (((2, 3), 2, hypersurface_2x3, 3),
                             ((2, 4), 3, hypersurface_2x4, 4)):
    planted = random_product_containing_subspace(*dims, dim, rng)
    generic = random_subspace(*dims, dim, rng)
    cp = pluecker_coords(planted)
    cg = pluecker_coords(generic)
    print(f"  {dims[0]}x{dims[1]}, dim {dim}: planted {abs(poly(planted, cp)) / degree_scale(cp, deg):.1e}"
          f"   generic {abs(poly(generic, cg)) / degree_scale(cg, deg):.1e}")

# --- the numeric search also returns the factors ----------------------------
v = random_product_containing_subspace(3, 3, 4, rng)
result = find_product_vector(v, rng=rng)
vec = np.kron(result.a, result.b)
member = result.coefficients @ v.basis
print(f"\n3x3, dim-4 subspace with a planted product (no known equation):")
print(f"  found = {result.found} ({result.method}), rank-1 defect = {result.best_defect:.1e}")
print(f"  |a x b - combination| = {np.linalg.norm(vec - member):.1e}")

# --- large subspaces always contain product vectors --------------------------
v = random_subspace(3, 3, 5, rng)
print(f"\nany 5-dimensional subspace of 3x3 contains one: "
      f"found = {find_product_vector(v, rng=rng).found}")

# --- a generic 10-dim subspace of 4x4 holds exactly C(6, 3) = 20 ------------
result = find_product_vector(random_subspace(4, 4, 10, rng), rng=rng)
print(f"\ngeneric 10-dimensional subspace of 4x4: {len(result.products)} product "
      f"vectors ({result.method})")

# --- the second-compound bound proves "none" beyond the enumeration ---------
result = find_product_vector(random_subspace(5, 5, 13, rng), rng=rng)
print(f"\ngeneric 13-dimensional subspace of 5x5: found = {result.found} "
      f"({result.method}, rank-1 defect >= {result.best_defect:.1e})")
