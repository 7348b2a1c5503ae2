"""Built-in reference checks, re-derived from matrices on every run.

Each line rebuilds its operators and states from first principles (Kronecker
squares, symmetric compressions, family parametrizations), evaluates the
quantity of interest and compares against the known closed-form value at
1e-12 absolute.  The CLI exposes these as the ``reproduce-paper`` command.
"""

from __future__ import annotations

import numpy as np

from .factorization import occupation_imbalance_expectations, residual
from .hilbert import PAULI, project_symmetric, sym_one_body
from .invariance import commutativity_condition
from .separability import sep_I_discriminant, sep_I_state, sep_II_orthogonal_state

TOL = 1e-12


def _line(line_id: str, description: str, pairs: list[tuple[complex, complex]]) -> dict:
    err = max(abs(np.asarray(got) - np.asarray(want)) for got, want in pairs)
    return {
        "id": line_id,
        "description": description,
        "computed": [[complex(g).real, complex(g).imag] for g, _ in pairs],
        "expected": [[complex(w).real, complex(w).imag] for _, w in pairs],
        "max_abs_error": float(err),
        "pass": bool(err <= TOL),
    }


def reference_lines() -> list[dict]:
    A = project_symmetric(np.kron(PAULI[1], PAULI[1]))
    B = project_symmetric(np.kron(PAULI[2], PAULI[2]))
    lines = []

    psi = sep_I_state(1.0, 0.0)
    lines.append(
        _line(
            "ex-I-1",
            "squared pauli-1/pauli-2 pair on the squared family at c0=1: residual -1",
            [(residual(A, B, psi), -1.0)],
        )
    )

    psi = sep_I_state(1 / np.sqrt(5.0), 2 / np.sqrt(5.0))
    n = np.vdot(psi, psi)
    ab = np.vdot(psi, A @ B @ psi) / n
    prod = (np.vdot(psi, A @ psi) / n) * (np.vdot(psi, B @ psi) / n)
    lines.append(
        _line(
            "ex-I-2",
            "same pair at (c0,c1)=(1,2)/sqrt5: <AB> = -9/25 against <A><B> = 0",
            [(ab, -9 / 25), (prod, 0.0)],
        )
    )

    psi = sep_II_orthogonal_state(1 / np.sqrt(5.0), 2 / np.sqrt(5.0))
    n = np.vdot(psi, psi)
    ab = np.vdot(psi, A @ B @ psi) / n
    lines.append(
        _line(
            "ex-II-1",
            "orthogonal-pair branch at (1,2)/sqrt5: <AB> = -7/25 and residual 0",
            [(ab, -7 / 25), (residual(A, B, psi), 0.0)],
        )
    )

    psi = sep_II_orthogonal_state(1 / np.sqrt(2.0), np.exp(1j * np.pi / 4) / np.sqrt(2.0))
    lines.append(
        _line(
            "ex-II-2",
            "orthogonal-pair branch at c0=1/sqrt2, c1=e^{i pi/4}/sqrt2: residual -1",
            [(residual(A, B, psi), -1.0)],
        )
    )

    ab, a, b = occupation_imbalance_expectations(1 / np.sqrt(2.0), 0.0, 1 / np.sqrt(2.0))
    lines.append(
        _line(
            "ex-III-1",
            "imbalance pair on the three-sector family, c_lr=0: <AB>=0 against <A><B>=-1",
            [(ab, 0.0), (a * b, -1.0)],
        )
    )

    ab, a, b = occupation_imbalance_expectations(3 / 5, 4 / 5, 0.0)
    lines.append(
        _line(
            "ex-III-2",
            "same pair with c_rr=0, |c_ll|^2=9/25: <A><B>/<AB> = 1 + |c_ll|^2",
            [(ab, -16 / 25), (a * b / ab, 34 / 25)],
        )
    )

    ab, a, b = occupation_imbalance_expectations(0.0, 1.0, 0.0)
    lines.append(
        _line(
            "ex-III-3",
            "pure LR-sector state: triple (-1, 1, -1) factorizes (residual 0)",
            [(ab, -1.0), (a, 1.0), (b, -1.0), (ab - a * b, 0.0)],
        )
    )

    chk = commutativity_condition(PAULI[1], PAULI[2])
    lines.append(
        _line(
            "commuting-pair",
            "pauli-1/pauli-2 squares commute with s=0 and z=(0,0,1)",
            [
                (chk.s, 0.0),
                (chk.z[0], 0.0),
                (chk.z[1], 0.0),
                (chk.z[2], 1.0),
                (1.0 if chk.commutes else 0.0, 1.0),
            ],
        )
    )

    sym1 = sym_one_body(PAULI[1])
    image = sym1 @ sep_I_state(1.0, 0.0)
    disc = sep_I_discriminant(image) / np.vdot(image, image)
    lines.append(
        _line(
            "symmetrized-one-body",
            "symmetrized pauli-1 maps the doubly occupied state out of the family "
            "(relative discriminant 1)",
            [(disc, 1.0)],
        )
    )
    return lines


def reference_suite() -> tuple[list[dict], bool]:
    lines = reference_lines()
    return lines, all(line["pass"] for line in lines)
