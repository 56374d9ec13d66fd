"""The scale-balancing decomposition behind the unit-consistent inverse.

``balance`` factors a matrix into diagonal scale factors and a core whose
nonzero magnitudes have unit geometric mean along every row and column. The
core is a canonical form: rescale rows or columns of the input however you
like and the core stays put, which is exactly what makes the inverse built
from it unit-consistent. All the arithmetic happens on logarithms, so wildly
mixed magnitudes cost nothing.
"""

import numpy as np

from ucrga import balance, uc_inverse

np.set_printoptions(precision=4, suppress=True)

rng = np.random.default_rng(0)
base = rng.standard_normal((3, 4))

# simulate terrible unit choices: rows in megaunits, columns in microunits
row_units = np.array([1e6, 1.0, 1e-5])
col_units = np.array([1e-7, 1.0, 1e4, 3.0])
messy = row_units[:, None] * base * col_units[None, :]

print("matrix with absurdly mixed units (entries span ~13 orders of magnitude):")
print(messy)
print()

# every entry is nonzero, so the balance is two-way centering of log|a| in
# closed form; only a matrix with zero entries is balanced by sweeping
dec = balance(messy)
print(f"balanced in closed form (converged: {dec.converged})")
print("core (unit geometric mean in every row and column):")
print(dec.core)
print("row scale factors:   ", np.exp(dec.left_log))
print("column scale factors:", np.exp(dec.right_log))
print()

print("|row products of core|:", np.abs(np.prod(dec.core, axis=1)))
print("|col products of core|:", np.abs(np.prod(dec.core, axis=0)))
print()

reconstruction = dec.reconstruct()
rel = np.abs(reconstruction - messy).max() / np.abs(messy).max()
print(f"reconstruction error (relative): {rel:.2e}")
print()

# the same base matrix under clean units balances to the same core
clean_core = balance(base).core
print("core computed from the clean-units version of the same matrix differs by:")
print(f"  {np.abs(clean_core - dec.core).max():.2e}")
print()

# and that is why the unit-consistent inverse commutes with unit changes
inv_messy = uc_inverse(messy)
inv_base = uc_inverse(base)
mapped = col_units[:, None] * inv_messy * row_units[None, :]
print("uc_inverse(messy) mapped back to clean units differs from uc_inverse(clean) by:")
print(f"  {np.abs(mapped - inv_base).max() / np.abs(inv_base).max():.2e}")
