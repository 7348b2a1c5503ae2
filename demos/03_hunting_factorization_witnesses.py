"""Factorization residuals and the automated witness hunt.

Locality in the operational sense demands <AB> = <A><B> on every separable
state.  For the three particle-style separability notions this fails for
every nontrivial operator pair; this script evaluates the classic residuals
by hand and then lets the search find violations on its own.
"""

import numpy as np

from entloc import (
    PAULI,
    audit,
    construct_sep_I_preserver,
    expectations,
    find_violation_witness,
    occupation_imbalance_pair,
    project_symmetric,
    residual,
    sep_I_state,
)

A = project_symmetric(np.kron(PAULI[1], PAULI[1]))
B = project_symmetric(np.kron(PAULI[2], PAULI[2]))

print("=== hand-picked residuals on the squared family ===\n")
for c0, c1 in ((1.0, 0.0), (1 / np.sqrt(5), 2 / np.sqrt(5))):
    r = residual(A, B, sep_I_state(c0, c1))
    print(f"  c = ({c0:.3f}, {c1:.3f})   residual = {r.real:+.4f}")
print("\nBoth are nonzero: the squared pauli pair is correlated on states")
print("that the squared family calls unentangled.\n")

print("=== audit: residual statistics over 1000 seeded samples ===\n")
rep = audit(A, B, "I", 1000, seed=42)
print(f"  max |residual| = {rep.max_abs_residual:.4f}")
print(f"  mean |residual| = {rep.mean_abs_residual:.4f}")
print(f"  verdict: {rep.verdict}\n")

print("=== witness search on all three particle-style families ===\n")
pairs = {
    "I": (construct_sep_I_preserver(PAULI[3]), construct_sep_I_preserver(PAULI[3])),
    "II": (A, B),
    "III": occupation_imbalance_pair(),
}
for family, (X, Y) in pairs.items():
    w = find_violation_witness(X, Y, family, budget=10_000, seed=1)
    print(f"  family {family:3s}: witness residual {abs(w.residual):.4f}, "
          f"membership verdict {w.verdict.set.value}")

print("""
Every search succeeds: for each family there are separable states carrying
order-one correlations.  The membership verdict confirms each witness
really belongs to its family, so the violation cannot be blamed on leaving
the separable set.
""")

print("=== the four-level reference family in closed form ===\n")
print("state: c_ll |L0,L0> + c_lr pair(L0,R1) + c_rr |R1,R1>")
coeffs = [(1 / np.sqrt(2), 0, 1 / np.sqrt(2)), (3 / 5, 4 / 5, 0), (0, 1, 0)]
S = np.zeros((len(coeffs), 10), dtype=complex)
S[:, [0, 3, 9]] = coeffs  # the slots of |L0,L0>, pair(L0,R1) and |R1,R1>
for c, ab, a, b in zip(coeffs, *expectations(*occupation_imbalance_pair(), S)):
    print(f"  c = {tuple(round(float(abs(x)), 3) for x in c)}: "
          f"<AB> = {ab.real:+.3f}, <A><B> = {(a * b).real:+.3f}, "
          f"residual = {(ab - a * b).real:+.3f}")
print("\nOnly the pure LR state factorizes; superpositions with doubly")
print("occupied sites always carry correlations.")
