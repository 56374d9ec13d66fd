"""Running the structural property checks on arbitrary matrices.

The properties that make an RGA meaningful are all checkable: permutation
equivariance, invariance under diagonal rescaling, the generalized-inverse
identities, the element-sum-equals-rank rule, and (for nonsingular square
input) unit row and column sums. This script exercises them on a random
rank-deficient rectangular matrix, where the MP and UC routes part ways.
"""

import numpy as np

from ucrga import (
    check_gi_identities,
    pinv,
    rga_routes,
    rga_summary,
    scaling_invariance_residual,
    uc_inverse,
)

np.set_printoptions(precision=4, suppress=True)

rng = np.random.default_rng(11)

# a 4x6 matrix of rank 2
g = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 6))
print("random 4x6 plant of rank 2")
print()

results = rga_routes(g, ("mp", "uc"))
for result in results.values():
    print(f"--- {result.method} route ---")
    print(f"rank used: {result.numerical_rank}, element sum: {result.element_sum:.12f}")
    for check in rga_summary(result).checks:
        tag = " (informational)" if check.informational else ""
        print(f"  {check.name}: {check.value:.3e}{tag}")
    print()

# the discriminating test: a random change of units
d = np.exp(rng.uniform(np.log(1e-4), np.log(1e4), 4))
e = np.exp(rng.uniform(np.log(1e-4), np.log(1e4), 6))
moved = scaling_invariance_residual(g, results, d, e)
print("random diagonal rescaling, factors spanning 1e-4 .. 1e4")
print(f"  MP-RGA moves by: {moved['mp']:.3e}")
print(f"  UC-RGA moves by: {moved['uc']:.3e}")
print()

# both inverses still satisfy the defining generalized-inverse identities
for name, candidate in (("pinv", pinv(g)), ("uc_inverse", uc_inverse(g))):
    res = check_gi_identities(g, candidate)
    print(f"{name}: a@g@a residual {res.residual_axa:.2e}, g@a@g residual {res.residual_xax:.2e}")
