"""Tour of the five separability notions on a small gallery of states.

Two bosons can be called "unentangled" in five inequivalent ways.  This
script classifies a handful of hand-picked states under every notion that
applies to their space and prints the verdicts side by side.
"""

import numpy as np

from entloc import (
    classify_mode,
    classify_sep_I,
    classify_sep_II,
    classify_sep_III,
    classify_ssr,
    sep_I_state,
    sep_II_orthogonal_state,
    symmetrize_product,
)

print("=== two-level pair states (basis: |00>, |11>, symmetric 01 pair) ===\n")

gallery3 = {
    "|00>": np.array([1, 0, 0], dtype=complex),
    "symmetric 01 pair": np.array([0, 0, 1], dtype=complex),
    "(|00>+|11>)/sqrt2": np.array([1, 1, 0], dtype=complex) / np.sqrt(2),
    "(|00>+pair)/sqrt2": np.array([1, 0, 1], dtype=complex) / np.sqrt(2),
    "squared (3/5,4/5)": sep_I_state(3 / 5, 4 / 5),
    "orthogonal pair (1,2)/sqrt5": sep_II_orthogonal_state(1 / np.sqrt(5), 2 / np.sqrt(5)),
}

for name, psi in gallery3.items():
    v1 = classify_sep_I(psi)
    v2 = classify_sep_II(psi)
    vm = classify_mode(psi)
    print(f"{name:32s} {v1.set.value:12s} {v2.set.value:12s} {vm.set.value:8s}"
          f"   I margin={v2.diagnostics['discriminant']:.4f}"
          f"   II margin={v2.diagnostics['margin']:.4f}")

print("""
Each margin is a linear distance from its family, and a state is a member
when it is at most 1e-9.  The I margin is the discriminant; the II margin
is 2||rho - 1/2||, 0 on the orthogonal-pair branch.  Notice the orderings:
the squared family sits inside family II (I margin 0), and
(|00>+|11>)/sqrt2 is secretly an orthogonal-pair state (II margin 0),
while (|00>+pair)/sqrt2 is entangled in both senses (II margin
sqrt3/2 = 0.8660).  Mode separability only accepts single occupation
vectors.
""")

print("=== four-level pair states (levels L0, L1, R0, R1) ===\n")

L0 = np.array([1, 0, 0, 0], dtype=complex)
L1 = np.array([0, 1, 0, 0], dtype=complex)
R0 = np.array([0, 0, 1, 0], dtype=complex)
R1 = np.array([0, 0, 0, 1], dtype=complex)

gallery10 = {
    "|L0,L0>": symmetrize_product(L0, L0),
    "pair(L0,L1)": symmetrize_product(L0, L1),
    "pair(L0,R1)": symmetrize_product(L0, R1),
    "pair(L0,R1)+pair(L1,R0)": symmetrize_product(L0, R1) + symmetrize_product(L1, R0),
    "|L0,L0>+|R1,R1>": symmetrize_product(L0, L0) + symmetrize_product(R1, R1),
}

for name, psi in gallery10.items():
    v3 = classify_sep_III(psi)
    vs = classify_ssr(psi)
    print(f"{name:28s} {v3.set.value:14s} {vs.set.value:8s}"
          f"   III margin={v3.diagnostics['margin']:.4f}   ssr margin={vs.diagnostics['margin']:.4f}")

print("""
pair(L0,L1) is the instructive case: it is entangled in the reduced-matrix
sense (notion III) yet separable under the sector superselection rule,
because its left-sector content is a single two-particle configuration.
The swapped LR superposition is the reverse: its LR amplitude block has
rank two, so it is sector-entangled.
""")
