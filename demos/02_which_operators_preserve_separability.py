"""Which operators map separable states to separable states?

For the squared family the answer has a closed form: exactly the symmetric
compressions of O x O.  This script constructs them, recognizes them (and
rejects impostors), checks the stricter unitary-proportionality criterion
of the orthogonal-pair family, and shows the sector block structure on the
four-level space.
"""

import numpy as np

from entloc import (
    PAULI,
    commutativity_condition,
    construct_sep_I_preserver,
    fit_sep_I_preserver,
    is_block_scalar,
    is_sep_II_preserver,
    number_level_operator,
    project_symmetric,
    sym_one_body,
)

rng = np.random.default_rng(1)

print("=== squared-family preservers: construct and recognize ===\n")

O = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
A = construct_sep_I_preserver(O)
print("random generator O:\n", np.round(O, 3))
print("its pair square on the symmetric basis:\n", np.round(A, 3))
print(
    "matches the compressed Kronecker square:",
    np.allclose(A, project_symmetric(np.kron(O, O))),
)

fit = fit_sep_I_preserver(A)
print(f"recognized back with defect {fit.defect:.2e}; generator recovered up to sign:",
      np.allclose(fit.O, O) or np.allclose(fit.O, -O))

print("\nimpostors are rejected:")
for name, M in {
    "diag(1,1,0)": np.diag([1.0, 1.0, 0.0]).astype(complex),
    "symmetrized one-body pauli-1": sym_one_body(PAULI[1]),
}.items():
    print(f"  {name:30s} fits: {fit_sep_I_preserver(M).fits}")

print("\n=== the orthogonal-pair family needs unitary-proportional generators ===\n")
for name, M in {
    "pauli-2": PAULI[2],
    "3 * exp(i pauli-3)": 3 * np.diag(np.exp([1j, -1j])),
    "diag(1,2)": np.diag([1.0, 2.0]).astype(complex),
}.items():
    print(f"  {name:22s} unitary-proportional: {is_sep_II_preserver(M)}")

print("\n=== commutativity of squared pairs in Pauli data ===\n")
for O1, O2, label in (
    (PAULI[1], PAULI[2], "pauli-1, pauli-2"),
    (PAULI[3], np.diag([1.0, 2.0]), "pauli-3, diag(1,2)"),
    (PAULI[1], PAULI[1] + PAULI[2], "pauli-1, pauli-1+pauli-2"),
):
    chk = commutativity_condition(O1, O2)
    print(f"  {label:26s} s={chk.s:+.1f}  |z|={np.linalg.norm(chk.z):.1f}  "
          f"commutes={chk.commutes}")
print("\ncommuting squares always have s = 0 or z = 0.")

print("\n=== sector block structure on the four-level space ===\n")
imbalance = number_level_operator(0) - number_level_operator(1)
rep = is_block_scalar(imbalance)
print("left occupation imbalance: block-scalar?", rep.block_scalar)
rep = is_block_scalar(np.eye(10, dtype=complex))
print("identity: block-scalar?", rep.block_scalar,
      " identity-proportional?", rep.identity_proportional)
print("""
Only multiples of the identity are block-scalar with equal sector weights;
that is precisely the class of operators left over once factorization is
demanded on the four-level separable family.
""")
