"""Built-in reference checks, re-derived from matrices on every run.

Each line rebuilds its operators and states from first principles (Kronecker
squares, symmetric compressions, family parametrizations), evaluates the
quantity of interest and compares against the known closed-form value at
1e-12 absolute.  The CLI exposes these as the ``reproduce-paper`` command.
"""

from __future__ import annotations

import numpy as np

from .factorization import expectations, occupation_imbalance_pair
# unused: perfbench/test_perfbench.py checks that its tracer patches this binding (ROADMAP item 2)
from .factorization import residual  # noqa: F401
from .hilbert import PAULI, check_state, project_symmetric, sym_one_body
from .invariance import commutativity_condition
from .report import complex_pair
from .separability import sep_I_discriminant, sep_I_state, sep_II_orthogonal_state

TOL = 1e-12


def _line(line_id: str, description: str, pairs: list[tuple[complex, complex]]) -> dict:
    err = max(abs(np.asarray(got) - np.asarray(want)) for got, want in pairs)
    return {
        "id": line_id,
        "description": description,
        "computed": [complex_pair(g) for g, _ in pairs],
        "expected": [complex_pair(w) for _, w in pairs],
        "max_abs_error": float(err),
        "pass": bool(err <= TOL),
    }


def reference_lines() -> list[dict]:
    A = project_symmetric(np.kron(PAULI[1], PAULI[1]))
    B = project_symmetric(np.kron(PAULI[2], PAULI[2]))
    # the squared family at c0=1 and (1,2)/sqrt5, then the orthogonal-pair branch at
    # (1,2)/sqrt5 and (1, e^{i pi/4})/sqrt2: one batch of the squared pauli pair
    S = np.array([
        sep_I_state(1.0, 0.0),
        sep_I_state(1 / np.sqrt(5.0), 2 / np.sqrt(5.0)),
        sep_II_orthogonal_state(1 / np.sqrt(5.0), 2 / np.sqrt(5.0)),
        sep_II_orthogonal_state(1 / np.sqrt(2.0), np.exp(1j * np.pi / 4) / np.sqrt(2.0)),
    ])
    ab, a, b = expectations(A, B, S)
    r = ab - a * b
    lines = [
        _line(
            "ex-I-1",
            "squared pauli-1/pauli-2 pair on the squared family at c0=1: residual -1",
            [(r[0], -1.0)],
        ),
        _line(
            "ex-I-2",
            "same pair at (c0,c1)=(1,2)/sqrt5: <AB> = -9/25 against <A><B> = 0",
            [(ab[1], -9 / 25), (a[1] * b[1], 0.0)],
        ),
        _line(
            "ex-II-1",
            "orthogonal-pair branch at (1,2)/sqrt5: <AB> = -7/25 and residual 0",
            [(ab[2], -7 / 25), (r[2], 0.0)],
        ),
        _line(
            "ex-II-2",
            "orthogonal-pair branch at c0=1/sqrt2, c1=e^{i pi/4}/sqrt2: residual -1",
            [(r[3], -1.0)],
        ),
    ]

    # the three-sector family c_ll |L0,L0> + c_lr pair(L0,R1) + c_rr |R1,R1>, in slots 0, 3, 9
    S = np.zeros((3, 10), dtype=complex)
    S[:, [0, 3, 9]] = [[1 / np.sqrt(2.0), 0.0, 1 / np.sqrt(2.0)], [3 / 5, 4 / 5, 0.0], [0.0, 1.0, 0.0]]
    ab, a, b = expectations(*occupation_imbalance_pair(), S)
    r = ab - a * b
    lines += [
        _line(
            "ex-III-1",
            "imbalance pair on the three-sector family, c_lr=0: <AB>=0 against <A><B>=-1",
            [(ab[0], 0.0), (a[0] * b[0], -1.0)],
        ),
        _line(
            "ex-III-2",
            "same pair with c_rr=0, |c_ll|^2=9/25: <A><B>/<AB> = 1 + |c_ll|^2",
            [(ab[1], -16 / 25), (a[1] * b[1] / ab[1], 34 / 25)],
        ),
        _line(
            "ex-III-3",
            "pure LR-sector state: triple (-1, 1, -1) factorizes (residual 0)",
            [(ab[2], -1.0), (a[2], 1.0), (b[2], -1.0), (r[2], 0.0)],
        ),
    ]

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
    disc = sep_I_discriminant(image) / check_state(image)
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
