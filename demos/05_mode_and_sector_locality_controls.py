"""Positive controls: mode and sector separability ARE compatible with locality.

The impossibility results for the particle-style notions would be
uninteresting if nothing ever factorized.  Here the converse is exercised:
operators local to one mode (or one spatial side, sector-block-diagonal)
factorize on the matching separable states to machine precision, across
random polynomial pairs.
"""

import numpy as np

from entloc import FockSpace, occupation_imbalance_pair, positive_control, residual

print("=== mode locality on the truncated two-mode Fock space ===\n")
space = FockSpace(n_max=4)
n0, n1 = space.number("0"), space.number("1")
for occ in ((1, 1), (2, 0)):
    v = space.occupation_state(occ)
    print(f"  occupation {occ}: residual of (n0, n1) = "
          f"{abs(residual(n0, n1, v)):.2e}")

rep = positive_control("mode", n_pairs=100, n_states=100, seed=0)
print(f"\n100 random degree-<=2 ladder polynomial pairs x 100 occupation states:")
print(f"  max |residual| = {rep.max_abs_residual:.2e}")
print(f"  verdict: {rep.verdict}")

print("\n=== sector locality on the four-level pair space ===\n")
A, B = occupation_imbalance_pair()
psi = np.zeros(10, dtype=complex)
psi[1] = psi[8] = 1 / np.sqrt(2)  # left pair + right pair superposition
print(f"  left/right imbalance pair on pair(L0,L1)+pair(R0,R1): "
      f"residual = {abs(residual(A, B, psi)):.2e}")

rep = positive_control("ssr", n_pairs=100, n_states=100, seed=0)
print(f"\n100 random one-body L-side/R-side pairs x 100 single-sector states:")
print(f"  max |residual| = {rep.max_abs_residual:.2e}")
print(f"  verdict: {rep.verdict}")

print("""
Caveat worth knowing: sector-coherent superpositions such as
|L0,L0> + |R1,R1> are still sector-separable, but they carry *classical*
correlations between the sectors (the residual of the imbalance pair on
that state is exactly 1).  The factorization form of locality is a
statement about uncorrelated states, so the controls sample one sector at
a time -- the regime in which the sector theory claims, and delivers,
exact factorization.
""")
