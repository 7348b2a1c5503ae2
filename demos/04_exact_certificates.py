"""Exact, finite proofs that factorization fails as a polynomial identity.

Numerical witnesses show a violation at one state; the certificates show it
at every state at once: the factorization defect, expanded exactly over the
separable parametrization, has a nonzero coefficient.  The arithmetic is
Gaussian-rational throughout, so a certificate is a checkable object, not a
float that happens to be large.
"""

import numpy as np

from entloc import (
    certify_factorization_sep_I,
    certify_sector_coupling,
    expand_residual_sep_I,
)
from entloc.certificates import PAULI_EXACT
from entloc.exact import GaussianRational

print("=== the squared pauli-1 / pauli-2 pair ===\n")
poly = expand_residual_sep_I(PAULI_EXACT[1], PAULI_EXACT[2])
print(f"residual polynomial: {len(poly.terms)} terms, total degree {max(map(sum, poly.terms), default=0)}")
print("canonical form:", poly.canonical_text())

cert = certify_factorization_sep_I(PAULI_EXACT[1], PAULI_EXACT[2])
print("\nverdict:", cert.verdict)
print("witness monomial:", dict(zip(cert.variables, cert.monomial)))
print("its exact coefficient:", cert.coefficient)
print("structural test (diagonal in both bases?):", cert.structural)

print("\n=== identity-proportional generators certify as local ===\n")
lam = GaussianRational.coerce(3)
zero = GaussianRational.coerce(0)
scalar = ((lam, zero), (zero, lam))
cert = certify_factorization_sep_I(scalar, PAULI_EXACT[2])
print("3*identity against pauli-2:", cert.verdict)
print("structural test:", cert.structural)

print("\n=== diagonal is not enough: it must be diagonal in every basis ===\n")
one = GaussianRational.coerce(1)
two = GaussianRational.coerce(2)
diag12 = ((one, zero), (zero, two))
diag10 = ((one, zero), (zero, zero))
cert = certify_factorization_sep_I(diag12, diag10)
print("diag(1,2) against diag(1,0):", cert.verdict)
print("structural test:", cert.structural)
print("""
Both operators are diagonal here, yet the certificate is nonzero: after a
Hadamard rotation the pair stops being diagonal, and the identity already
fails on the original family.  A 2x2 matrix diagonal in two non-commuting
bases is a multiple of the identity; that is the whole classification.
""")

print("=== sector coupling certificates on the four-level space ===\n")
transfer = np.zeros((10, 10), dtype=int)
transfer[1, 8] = transfer[8, 1] = 1  # couples the LL pair to the RR pair
cert = certify_sector_coupling(transfer, transfer, "LL", "RR")
print("pair-transfer operator, (LL,RR) coupling:", cert.verdict)
print("witness monomial coefficient:", cert.coefficient)

cert = certify_sector_coupling(np.eye(10, dtype=int), np.eye(10, dtype=int), "LL", "RR")
print("identity pair, (LL,RR) coupling:", cert.verdict)
print("""
Any local pair must have identically vanishing mixed-sector couplings;
the transfer operator fails exactly, with a rational coefficient as proof.
""")
