"""Seeded op generator for the entloc benchmark.

An op is one user-facing call: either an ``entloc.cli.main(argv)`` call (the
benchmark appends ``--out FILE``) or a direct public-library call for a
feature the CLI does not expose.  Each op carries the answer rule and the
expected verdict, both derived from how its input was built, never from a
recorded run.

A workload is an endless sequence of *cycles*.  Every cycle of a workload has
the same balanced design (the same families, pair kinds and size strata);
the seed only picks the concrete operators, states, sample counts within
their stratum, per-op seeds and the order.  Runs measure whole cycles, so
two seeds give op-cost distributions that differ only in their details.

This module needs numpy and the standard library only; it never imports
``entloc``, so the program sees nothing but the generated argv lists and
arrays.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

FAMILIES = ("I", "II", "III", "mode", "ssr")
LEVELS = ("L0", "L1", "R0", "R1")
SECTORS = ("LL", "LR", "RR")
# symmetric-basis slots of the four-level pair space: pairs (i <= j) of
# L0, L1, R0, R1 in lexicographic order
PAIRS4 = tuple((i, j) for i in range(4) for j in range(i, 4))
SECTOR_SLOTS = {
    "LL": tuple(k for k, (i, j) in enumerate(PAIRS4) if j < 2),
    "LR": tuple(k for k, (i, j) in enumerate(PAIRS4) if i < 2 <= j),
    "RR": tuple(k for k, (i, j) in enumerate(PAIRS4) if i >= 2),
}
WITNESS_BUDGET = 10_000
REPEATS = 4
"""Ops of the first cycle run again after the timed phase to compare result bytes."""


@dataclass(frozen=True, eq=False)
class Op:
    """One user-facing call with its answer rule.

    ``check`` names the rule in ``checks.py``; ``expect`` is the verdict the
    rule requires.  CLI ops set ``argv``; library ops set ``call`` (a public
    name of the ``entloc`` package) with ``args`` and ``kwargs``.
    """

    label: str
    check: str
    expect: Any
    argv: tuple[str, ...] = ()
    call: str = ""
    args: tuple = ()
    kwargs: tuple = ()

    def key(self) -> bytes:
        """Canonical bytes of the op's inputs, for comparing generated lists."""
        parts = [self.label, self.check, repr(self.expect), *self.argv, self.call]
        for a in self.args:
            parts.append(np.asarray(a).tobytes().hex() if isinstance(a, np.ndarray) else repr(a))
        parts.extend(f"{k}={v!r}" for k, v in self.kwargs)
        return "\x1f".join(parts).encode()


@dataclass(frozen=True)
class Workload:
    """A balanced cycle design and the run rules that go with it.

    ``min_cycles`` is the least number of cycles an end-to-end run measures,
    chosen so that ``tail_q`` leaves at least ten samples beyond it;
    ``trace_cycles`` is the fixed op set of a traced run.
    """

    name: str
    index: int
    make_cycle: Callable[[np.random.Generator], list[Op]]
    min_cycles: int
    trace_cycles: int
    tail_q: float
    warmup: Op = field(repr=False)


# ---------------------------------------------------------------------------
# spec and number formatting


def _cplx(z: complex) -> str:
    z = complex(z)
    return f"{z.real!r}{z.imag:+}j"


def _gauss(rng: np.random.Generator, *shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _entries(M: np.ndarray) -> str:
    """``entries:`` spec of a numeric matrix, complex entries as [re, im]."""
    rows = [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(M, complex)]
    return "entries:" + json.dumps(rows, separators=(",", ":"))


def _exact_entries(M) -> str:
    """``entries:`` spec of an integer or Gaussian-rational string matrix."""
    return "entries:" + json.dumps([list(row) for row in M], separators=(",", ":"))


def _seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(2**31)))


# ---------------------------------------------------------------------------
# state and operator constructions (independent of entloc)


def sym_product4(phi: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Symmetric-basis amplitudes of ``|phi>|zeta>`` on four levels."""
    r2 = math.sqrt(2.0)
    return np.array(
        [phi[i] * zeta[i] if i == j else (phi[i] * zeta[j] + phi[j] * zeta[i]) / r2 for i, j in PAIRS4],
        dtype=complex,
    )


def sep_III_amps(rng: np.random.Generator) -> np.ndarray:
    """A member of family III: one L direction, an LR pair and a free RR part."""
    sigma = _gauss(rng, 2)
    sigma /= np.linalg.norm(sigma)
    v_l = np.concatenate([sigma, [0, 0]])
    v_r = np.concatenate([[0, 0], _gauss(rng, 2)])
    psi = complex(_gauss(rng, 1)[0]) * sym_product4(v_l, v_l) + sym_product4(v_l, v_r)
    psi[list(SECTOR_SLOTS["RR"])] += _gauss(rng, 3)
    return psi


def pair_square(O: np.ndarray) -> np.ndarray:
    """Symmetric compression of ``O x O`` on the two-level basis |00>,|11>,pair."""
    E = np.zeros((4, 3), dtype=complex)
    E[0, 0] = E[3, 1] = 1.0
    E[1, 2] = E[2, 2] = 1.0 / math.sqrt(2.0)
    return E.conj().T @ np.kron(O, O) @ E


def _pauli_pair(rng: np.random.Generator, local: bool) -> str:
    j, k = (int(v) for v in rng.integers(1, 4, size=2))
    if local:  # one operator is the identity
        return f"pauli:0,pauli:{k}" if rng.random() < 0.5 else f"pauli:{j},pauli:0"
    return f"pauli:{j},pauli:{k}"


def _imbalance_pair(rng: np.random.Generator) -> tuple[str, str]:
    """Left and right occupation imbalances, with seeded signs and order."""
    a, b = (int(v) for v in rng.integers(2, size=2))
    A = f"number:L{a}-number:L{1 - a}"
    B = f"number:R{b}-number:R{1 - b}"
    return (A, B) if rng.random() < 0.5 else (B, A)


# ---------------------------------------------------------------------------
# audit: sampling, seeding and residual evaluation at 1e2..1e4 samples


def audit_cycle(rng: np.random.Generator) -> list[Op]:
    """25 audit ops at sample counts stratified log-uniformly over 1e2..1e4.

    Op ``i`` draws its count from the ``i``-th of 25 equal steps in
    log10(count).  Each run of five steps holds every family once, and the
    families rotate from run to run, so every family spans the whole range
    and the op costs of a cycle spread evenly with no large gaps; a
    quantile of the latencies then moves little with the seed.
    """
    ops = []
    for i in range(25):
        stratum, offset = divmod(i, 5)
        fam = FAMILIES[(stratum + offset) % 5]
        n = int(round(10 ** (2 + 2 * (i + rng.random()) / 25)))
        seed = ["--seed", _seed(rng)]
        if fam in ("I", "II"):
            # violating and identity-containing pairs alternate over the strata
            local = (stratum % 2 == 0) != (fam == "I")
            argv = ["audit", "--set", fam, "--pair", _pauli_pair(rng, local), "--samples", str(n)]
            expect = "FactorizesOnSamples" if local else "ViolationFound"
            label = f"audit/{fam}/{'identity' if local else 'pauli'}"
        elif fam == "III":
            A, B = _imbalance_pair(rng)
            argv = ["audit", "--set", "III", "--A", A, "--B", B, "--samples", str(n)]
            expect, label = "ViolationFound", "audit/III/imbalance"
        else:
            pairs = max(1, round(n / 100))
            states = max(1, round(n / pairs))
            argv = ["audit", "--set", fam, "--pairs", f"random:{pairs}", "--states", str(states)]
            expect, label = "FactorizesOnSamples", f"audit/{fam}/positive-control"
        ops.append(Op(f"{label}/{stratum}", "audit", expect, tuple(argv + seed)))
    return ops


# ---------------------------------------------------------------------------
# witness: sequential one-state evaluations, found early or at full budget


def _mode_pair(rng: np.random.Generator, local: bool) -> tuple[np.ndarray, np.ndarray]:
    """3x3 operators on the two-mode, two-particle space (|2,0>, |0,2>, |1,1>).

    Diagonal operators are functions of the occupations, so their residual
    vanishes on every occupation state; real symmetric ones with nonzero
    off-diagonal entries give ``sum_m A_nm B_mn != 0``.
    """
    if local:
        return np.diag(rng.normal(size=3)).astype(complex), np.diag(rng.normal(size=3)).astype(complex)
    out = []
    for _ in range(2):
        M = rng.normal(size=(3, 3))
        out.append(((M + M.T) / 2).astype(complex))
    return out[0], out[1]


def witness_cycle(rng: np.random.Generator) -> list[Op]:
    ops = []

    def cli(fam: str, found: bool, label: str, pair_args: list[str]) -> None:
        argv = ["witness", "--set", fam, *pair_args, "--seed", _seed(rng)]
        ops.append(Op(f"witness/{fam}/{label}", "witness", found, tuple(argv)))

    for fam in ("I", "II"):
        for _ in range(2):
            cli(fam, True, "pauli", ["--pair", _pauli_pair(rng, local=False)])
        cli(fam, False, "identity", ["--pair", _pauli_pair(rng, local=True)])
    A, B = _imbalance_pair(rng)
    cli("III", True, "imbalance", ["--A", A, "--B", B])
    x = LEVELS[int(rng.integers(4))]
    cli("III", True, "number-variance", ["--pair", f"number:{x},number:{x}"])
    for _ in range(2):
        x = LEVELS[int(rng.integers(4))]
        cli("ssr", True, "number-variance", ["--pair", f"number:{x},number:{x}"])
    left, right = f"number:L{int(rng.integers(2))}", f"number:R{int(rng.integers(2))}"
    cli("ssr", False, "sector-local", ["--A", left, "--B", right])
    # `entloc witness --set mode` rejects every input (it resolves operators
    # on the Fock space but searches 3-dim states), so the mode share runs
    # through the library; the CLI defect is probed separately in each run
    for local in (False, False, True):
        A, B = _mode_pair(rng, local)
        kwargs = (("budget", WITNESS_BUDGET), ("seed", int(rng.integers(2**31))))
        label = "witness/mode/" + ("occupation-diagonal" if local else "off-diagonal")
        ops.append(Op(label, "witness-lib", not local, (), "find_violation_witness", (A, B, "mode"), kwargs))
    return ops


MODE_WITNESS_PROBE = ("witness", "--set", "mode", "--pair", "number:0,number:1")
"""CLI call that entloc 0.1.0 rejects with exit 2; probed once per run, untimed."""


# ---------------------------------------------------------------------------
# interactive: small commands a user types, no sampling path


def _gauss_rational_matrix(rng: np.random.Generator, identity: bool) -> list[list[str]]:
    """A 2x2 Gaussian-rational matrix, proportional to the identity iff ``identity``.

    Entries are ``(re + im*j) / den`` with small integers; a draw that is
    identity-proportional (or zero) when it should not be is redrawn.
    """
    while True:
        re = rng.integers(-4, 5, size=(2, 2))
        im = rng.integers(-4, 5, size=(2, 2))
        if identity:
            re, im = np.diag([re[0, 0]] * 2), np.diag([im[0, 0]] * 2)
            if re[0, 0] or im[0, 0]:
                break
        elif re[0, 1] or im[0, 1] or re[1, 0] or im[1, 0] or re[0, 0] != re[1, 1] or im[0, 0] != im[1, 1]:
            break
    den = int(rng.integers(1, 3))
    return [[f"{re[i, k]}/{den}{im[i, k]:+d}/{den}j" for k in range(2)] for i in range(2)]


def _sector_matrix(rng: np.random.Generator, X: str, Y: str, coupled: bool) -> list[list[int]]:
    """Sparse integer 10x10 matrix whose (X, Y) block is full if ``coupled``, else zero.

    A full block makes a certificate's cost depend on the sector pair alone.
    """
    M = rng.integers(-2, 3, size=(10, 10)) * (rng.random((10, 10)) < 0.5)
    block = np.ix_(list(SECTOR_SLOTS[X]), list(SECTOR_SLOTS[Y]))
    M[block] = rng.choice([-2, -1, 1, 2], size=M[block].shape) if coupled else 0
    return M.tolist()


def _random_unitary(rng: np.random.Generator) -> np.ndarray:
    a, b = _gauss(rng, 2)
    n = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    a, b = a / n, b / n
    return np.array([[a, -np.conj(b)], [b, np.conj(a)]])


def _block_scalar_diag(rng: np.random.Generator, scalar: bool) -> str:
    if scalar:
        alpha = {X: rng.normal() for X in SECTORS}
        values = [0.0] * 10
        for X in SECTORS:
            for slot in SECTOR_SLOTS[X]:
                values[slot] = alpha[X]
    else:
        values = list(rng.normal(size=10))
    return "diag:" + ",".join(repr(float(v)) for v in values)


def _verdicts3(sep_I: str, sep_II: str, mode: str) -> dict:
    return {"sep_I": sep_I, "sep_II": sep_II, "mode": mode}


def interactive_cycle(rng: np.random.Generator) -> list[Op]:
    ops = []

    def add(label: str, check: str, expect, *argv: str) -> None:
        ops.append(Op(f"interactive/{label}", check, expect, tuple(argv)))

    # classify: family-built, generic and occupation states on sym3 and sym10
    c = _gauss(rng, 2)
    coeffs = ",".join(_cplx(z) for z in c)
    add("classify/sym3-family-I", "classify", _verdicts3("SepI", "SepI", "ModeEnt"),
        "classify", "--family", "I", f"--coeffs={coeffs}")
    c = _gauss(rng, 2)
    coeffs = ",".join(_cplx(z) for z in c)
    add("classify/sym3-family-II", "classify", _verdicts3("EntangledI", "SepIIOnly", "ModeEnt"),
        "classify", "--family", "II", f"--coeffs={coeffs}")
    add("classify/sym3-generic", "classify", _verdicts3("EntangledI", "EntangledII", "ModeEnt"),
        "classify", "--amps=" + ",".join(_cplx(z) for z in _gauss(rng, 3)))
    slot = int(rng.integers(3))
    amps = ["0", "0", "0"]
    amps[slot] = _cplx(_gauss(rng, 1)[0])
    occ = _verdicts3("SepI", "SepI", "ModeSep") if slot < 2 else _verdicts3("EntangledI", "SepIIOnly", "ModeSep")
    add("classify/sym3-occupation", "classify", occ, "classify", "--amps=" + ",".join(amps))
    add("classify/sym10-family-III", "classify", {"sep_III": "SepIII", "ssr": "SsrSep"},
        "classify", "--basis", "sym10", "--amps=" + ",".join(_cplx(z) for z in sep_III_amps(rng)))
    add("classify/sym10-generic", "classify", {"sep_III": "EntangledIII", "ssr": "SsrEnt"},
        "classify", "--basis", "sym10", "--amps=" + ",".join(_cplx(z) for z in _gauss(rng, 10)))
    ll = np.zeros(10, dtype=complex)
    ll[list(SECTOR_SLOTS["LL"])] = _gauss(rng, 3)
    add("classify/sym10-LL-sector", "classify", {"sep_III": "EntangledIII", "ssr": "SsrSep"},
        "classify", "--basis", "sym10", "--amps=" + ",".join(_cplx(z) for z in ll))

    # certify: 2x2 Gaussian-rational pairs and sector couplings
    O, Q = _gauss_rational_matrix(rng, False), _gauss_rational_matrix(rng, False)
    add("certify/pair-generic", "summary", "NonzeroMonomial",
        "certify", "--A", _exact_entries(O), "--B", _exact_entries(Q))
    ident = _exact_entries(_gauss_rational_matrix(rng, True))
    other = _exact_entries(_gauss_rational_matrix(rng, False))
    A, B = (ident, other) if rng.random() < 0.5 else (other, ident)
    add("certify/pair-identity", "summary", "IdenticallyZero", "certify", "--A", A, "--B", B)
    add("certify/pair-pauli", "summary", "NonzeroMonomial", "certify", "--pair", _pauli_pair(rng, local=False))
    X, Y = (SECTORS[int(i)] for i in rng.permutation(3)[:2])
    add("certify/sectors-number", "summary", "IdenticallyZero",
        "certify", "--sectors", f"{X},{Y}", "--A", _imbalance_pair(rng)[0], "--B", f"number:{LEVELS[int(rng.integers(4))]}")
    for X, Y in (("LL", "LR"), ("LL", "RR"), ("LR", "RR")):
        X, Y = (X, Y) if rng.random() < 0.5 else (Y, X)
        add(f"certify/sectors-coupled-{min(X, Y)}-{max(X, Y)}", "summary", "NonzeroMonomial",
            "certify", "--sectors", f"{X},{Y}",
            "--A", _exact_entries(_sector_matrix(rng, X, Y, True)),
            "--B", _exact_entries(_sector_matrix(rng, X, Y, True)))
    X, Y = (SECTORS[int(i)] for i in rng.permutation(3)[:2])
    A = _exact_entries(_sector_matrix(rng, X, Y, True))
    B = _exact_entries(_sector_matrix(rng, X, Y, False))
    A, B = (A, B) if rng.random() < 0.5 else (B, A)
    add("certify/sectors-one-block-zero", "summary", "IdenticallyZero",
        "certify", "--sectors", f"{X},{Y}", "--A", A, "--B", B)

    # preserve-check on 2x2, 3x3 and 10x10 inputs, and on 2x2 pairs
    add("preserve-check/2x2-unitary", "summary", "sep-II-preserver",
        "preserve-check", "--op", _entries(abs(rng.normal()) * _random_unitary(rng)))
    add("preserve-check/2x2-generic", "summary", "sep-I-preserver",
        "preserve-check", "--op", _entries(_gauss(rng, 2, 2)))
    add("preserve-check/3x3-pair-square", "summary", "fits",
        "preserve-check", "--op", "oxo:" + _entries(_gauss(rng, 2, 2)))
    add("preserve-check/3x3-generic", "summary", "does-not-fit",
        "preserve-check", "--op", _entries(_gauss(rng, 3, 3)))
    add("preserve-check/10x10-block-scalar", "summary", "block-scalar",
        "preserve-check", "--op", _block_scalar_diag(rng, True))
    add("preserve-check/10x10-generic", "summary", "not-block-scalar",
        "preserve-check", "--op", _block_scalar_diag(rng, False))
    # squares of Pauli matrices commute: anticommuting factors meet twice
    add("preserve-check/pair-pauli", "summary", "commutes",
        "preserve-check", "--pair", _pauli_pair(rng, local=False))
    add("preserve-check/pair-generic", "summary", "does-not-commute",
        "preserve-check", "--A", _entries(_gauss(rng, 2, 2)), "--B", _entries(_gauss(rng, 2, 2)))

    # sample every family, and the reference suite
    for fam in FAMILIES:
        add(f"sample/{fam}", "sample", True, "sample", "--set", fam, "--n", "5", "--seed", _seed(rng))
    add("reproduce-paper", "summary", "PASS", "reproduce-paper")

    # the preservation quartic through the library
    c0 = complex(_gauss(rng, 1)[0])
    ops.append(Op("interactive/quartic/pair-square", "quartic", True, (),
                  "solve_preservation_quartic", (pair_square(_gauss(rng, 2, 2)), c0)))
    c0 = complex(_gauss(rng, 1)[0])
    ops.append(Op("interactive/quartic/generic", "quartic", False, (),
                  "solve_preservation_quartic", (_gauss(rng, 3, 3), c0)))
    return ops


# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "audit", 0, audit_cycle, min_cycles=4, trace_cycles=2, tail_q=0.90,
            warmup=Op("audit/warmup", "audit", "ViolationFound",
                      ("audit", "--set", "I", "--pair", "pauli:1,pauli:2", "--samples", "100", "--seed", "0")),
        ),
        Workload(
            "witness", 1, witness_cycle, min_cycles=15, trace_cycles=4, tail_q=0.90,
            warmup=Op("witness/warmup", "witness", True,
                      ("witness", "--set", "I", "--pair", "pauli:1,pauli:2", "--seed", "0")),
        ),
        Workload(
            "interactive", 2, interactive_cycle, min_cycles=40, trace_cycles=10, tail_q=0.99,
            warmup=Op("interactive/warmup", "classify", _verdicts3("EntangledI", "SepIIOnly", "ModeSep"),
                      ("classify", "--amps", "0,0,1")),
        ),
    )
}


def cycle(workload: str, seed: int, index: int) -> list[Op]:
    """Ops of cycle ``index`` of a workload: a pure function of its arguments."""
    w = WORKLOADS[workload]
    rng = np.random.default_rng(np.random.SeedSequence([seed, w.index, index]))
    ops = w.make_cycle(rng)
    return [ops[i] for i in rng.permutation(len(ops))]


def repeat_picks(workload: str, seed: int) -> list[int]:
    """Positions in cycle 0 whose ops are run again to compare result bytes."""
    size = len(cycle(workload, seed, 0))
    rng = np.random.default_rng([seed, WORKLOADS[workload].index])
    return sorted(int(i) for i in rng.choice(size, size=REPEATS, replace=False))
