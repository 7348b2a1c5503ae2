"""Factorization residuals, sample audits, witness search and locality controls.

The residual of an operator pair on a state,

    <AB>/<1> - (<A>/<1>)(<B>/<1>),

vanishes on every separable state exactly when the pair is local for the
corresponding separability notion.  Audits evaluate it over seeded samples;
the witness search looks for separable states with a residual above
threshold; the positive controls confirm that mode- and sector-local pairs
factorize to numerical precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hilbert import (
    EPS_STATE,
    SECTOR_SLOTS,
    SECTORS,
    FockSpace,
    check_state,
    number_level_operator,
    sym_one_body,
)
from .separability import (
    DEFAULT_TOL,
    SeparabilityVerdict,
    Tolerances,
    canonical_set_name,
    classify,
    family,
)

WITNESS_THRESHOLD = 1e-6
"""A separable state with |residual| above this counts as a violation witness."""

AUDIT_BLOCK = 1024
"""Most states one ``residuals`` call of :func:`audit` or
:func:`find_violation_witness` evaluates: bounds their working memory."""


def residuals(A: np.ndarray, B: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Normalized connected correlators ``<AB> - <A><B>``, one per state of ``S``.

    ``S`` is a ``(..., d)`` stack of states (not necessarily normalized);
    operators and states must be finite, and so must the results.  numpy
    rounds the rows of an ``(m, d)`` stack as one matrix product and a
    one-row stack as a vector product; the states of an ``(m, 1, d)`` stack
    are vector products, so each rounds bit for bit as a one-row call.
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    S = np.asarray(S, dtype=complex)
    d = S.shape[-1]
    if S.ndim < 2 or A.shape != (d, d) or B.shape != (d, d):
        raise ValueError("operator and state dimensions do not match")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValueError("operators contain non-finite entries")
    n = check_state(S)
    conj = S.conj()
    BS = S @ B.T
    ab = np.einsum("...j,...j->...", conj, BS @ A.T)
    a = np.einsum("...j,...j->...", conj, S @ A.T)
    b = np.einsum("...j,...j->...", conj, BS)
    r = (ab - a * b / n) / n
    if not np.isfinite(r).all():
        raise ValueError("residual overflowed: operator entries are too large")
    return r


def residual(A: np.ndarray, B: np.ndarray, psi: np.ndarray) -> complex:
    """Normalized connected correlator ``<AB> - <A><B>`` on one state."""
    return complex(residuals(A, B, np.asarray(psi)[None, :])[0])


def _check_threshold(threshold: float) -> None:
    if not (np.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be finite and non-negative, got {threshold!r}")


@dataclass
class AuditReport:
    """Residual statistics of one operator pair over separable samples."""

    pair: str
    set_name: str
    n_samples: int
    seed: int
    max_abs_residual: float
    mean_abs_residual: float
    argmax_state: np.ndarray
    argmax_residual: complex
    threshold: float
    verdict: str
    tolerances: Tolerances = field(default_factory=Tolerances)

    def recheck(self, A: np.ndarray, B: np.ndarray) -> float:
        """Recompute the extremal residual; must reproduce the report."""
        return abs(abs(residual(A, B, self.argmax_state)) - abs(self.argmax_residual))


def audit(
    A: np.ndarray,
    B: np.ndarray,
    set_name: str,
    n_samples: int,
    seed: int,
    threshold: float = WITNESS_THRESHOLD,
    tol: Tolerances = DEFAULT_TOL,
    pair: str = "",
    fock: FockSpace | None = None,
) -> AuditReport:
    """Evaluate the pair residual on seeded separable samples.

    One generator seeded with ``seed`` draws the samples in blocks of
    ``AUDIT_BLOCK``, each evaluated as one batch, so the report is a pure
    function of the inputs.  ``fock`` makes the mode family the headroom
    occupation states of that space (see :func:`entloc.separability.family`).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    _check_threshold(threshold)
    set_name = canonical_set_name(set_name)
    fam = family(set_name, fock)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    total, best = 0.0, None
    for start in range(0, n_samples, AUDIT_BLOCK):
        states = fam.sample(rng, min(AUDIT_BLOCK, n_samples - start))
        values = residuals(A, B, states)
        mags = np.abs(values)
        k = int(np.argmax(mags))
        total += float(np.sum(mags))
        if best is None or mags[k] > best[0]:
            best = (float(mags[k]), complex(values[k]), states[k])
    max_abs, argmax_residual, argmax_state = best
    verdict = "ViolationFound" if max_abs > threshold else "FactorizesOnSamples"
    return AuditReport(
        pair=pair,
        set_name=set_name,
        n_samples=n_samples,
        seed=seed,
        max_abs_residual=max_abs,
        mean_abs_residual=total / n_samples,
        argmax_state=argmax_state,
        argmax_residual=argmax_residual,
        threshold=threshold,
        verdict=verdict,
        tolerances=tol,
    )


@dataclass
class Witness:
    """A separable state violating factorization for a specific pair."""

    state: np.ndarray
    residual: complex
    set_name: str
    verdict: SeparabilityVerdict


def find_violation_witness(
    A: np.ndarray,
    B: np.ndarray,
    set_name: str,
    budget: int = 10_000,
    seed: int = 0,
    threshold: float = WITNESS_THRESHOLD,
    tol: Tolerances = DEFAULT_TOL,
    fock: FockSpace | None = None,
) -> Witness | None:
    """Search the separable family for a state with ``|residual| > threshold``.

    Random restarts draw fresh family parameters; each restart is refined
    by coordinate sweeps (perturbations act on the defining coefficients,
    so every visited state stays exactly inside the family).  A sweep
    evaluates ``2k`` probes: the first probe above threshold in sweep order
    is the witness, else the restart moves to the best improving probe,
    else it halves the step.  Every probe counts against ``budget``; the
    search returns ``None`` once it is spent.  A discrete family (mode) is
    evaluated once, all its states in one batch.

    The answer is that of running the restarts one after another, but they
    run in lockstep rounds.  The first round is the first restart alone;
    each later round draws as many restarts as the remaining budget could
    start (a restart without a hit spends at least ``1 + 9*2k``
    evaluations), at most ``AUDIT_BLOCK // 2k``, and evaluates the current
    sweep of all of them in one batch.  A restart stops once it cannot
    matter: an earlier one has hit, or the least the earlier ones can spend
    plus its own evaluations reaches the budget.  The round is then replayed
    in draw order: the first hit at a global evaluation index below
    ``budget`` wins, and the answer is taken from the batch the sequential
    search evaluates last: the start state, or the sweep cut to the
    remaining budget.  The sequential search evaluates each start state
    alone, and a one-row batch rounds differently from a larger one; so a
    round's start states are evaluated in one ``(n, 1, d)`` stack, whose
    states round bit for bit as one-row batches (see :func:`residuals`).
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    _check_threshold(threshold)
    set_name = canonical_set_name(set_name)
    fam = family(set_name, fock)
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    def evaluate(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(n, d)`` states of the rows of ``P`` and their |residual| (0 if degenerate).

        ``P`` is ``(n, 1 + k)``, or ``(n, 1, 1 + k)`` to round each row as a
        one-row batch; masking by an ``(n,)`` vector keeps that stack's shape.
        """
        S = fam.build(P)
        rows = S.reshape(len(P), -1)
        ok = np.linalg.norm(rows, axis=1) > EPS_STATE
        r = np.zeros(len(P))
        r[ok] = np.abs(residuals(A, B, S[ok])).ravel()
        return rows, r

    def first_hit(S: np.ndarray, r: np.ndarray) -> Witness | None:
        hits = np.flatnonzero(r > threshold)
        if not hits.size:
            return None
        psi = S[hits[0]] / np.linalg.norm(S[hits[0]])
        return Witness(psi, residual(A, B, psi), set_name, classify(set_name, psi, tol))

    if fam.n_real == 0:
        return first_hit(*evaluate(np.arange(min(fam.branches, budget), dtype=float)[:, None]))

    width = 2 * fam.n_real
    coords = np.arange(1, fam.n_real + 1)
    rows = 2 * np.arange(fam.n_real)

    def probes(P: np.ndarray, step: np.ndarray) -> np.ndarray:
        """``(n, 2k, 1 + k)`` sweep probes: +step then -step on each coordinate."""
        Q = np.repeat(P[:, None, :], width, axis=1)
        Q[:, rows, coords] += step[:, None]
        Q[:, rows + 1, coords] -= step[:, None]
        return Q

    def least_spend(spent: np.ndarray, step: np.ndarray) -> np.ndarray:
        """Evaluations a restart spends at least if it never hits: one sweep per halving left."""
        return spent + width * np.maximum(np.ceil(np.log2(step / 1e-3)), 0).astype(int)

    evals, n = 0, 1  # evaluations of the finished rounds; restarts per round
    while evals < budget:
        # one draw per restart keeps the generator stream of the sequential search
        P = np.vstack([fam.draw(rng, 1) for _ in range(n)])
        S0, r0 = evaluate(P[:, None, :])
        r = r0.copy()
        hit = np.where(r > threshold, 0, -1)  # restart-local index of the first hit
        spent = np.ones(n, dtype=int)
        step = np.full(n, 0.5)
        trail = []  # (points, steps) before each lockstep sweep
        while True:
            # restart j matters only if no earlier one hits, and then it starts
            # after the least spend of the earlier ones; past the budget it stops
            hit_before = np.cumsum(hit >= 0) - (hit >= 0) > 0
            least = least_spend(spent, step)
            earliest = evals + np.cumsum(least) - least
            live = (hit < 0) & (step > 1e-3) & ~hit_before & (earliest + spent < budget)
            idx = np.flatnonzero(live)
            if not idx.size:
                break
            trail.append((P.copy(), step.copy()))
            Q = probes(P[idx], step[idx])
            rq = evaluate(Q.reshape(-1, P.shape[1]))[1].reshape(len(idx), width)
            over = rq > threshold
            found = over.any(axis=1)
            hit[idx[found]] = spent[idx[found]] + np.argmax(over[found], axis=1)
            best = np.argmax(rq, axis=1)
            top = rq[np.arange(len(idx)), best]
            better = top > r[idx]
            P[idx[better]] = Q[better, best[better]]
            r[idx[better]] = top[better]
            step[idx[~better]] /= 2.0
            spent[idx] += width
        for j in range(n):
            if hit[j] < 0 and evals + spent[j] < budget:
                evals += spent[j]
                continue
            # restart j decides: rebuild the last batch the sequential search evaluates
            last = budget - evals - 1 if hit[j] < 0 else min(hit[j], budget - evals - 1)
            if last == 0:
                return first_hit(S0[j : j + 1], r0[j : j + 1])
            # live sets only shrink, so sweep s of restart j is lockstep sweep s
            s = (last - 1) // width
            P_s, step_s = trail[s]
            Q = probes(P_s[j : j + 1], step_s[j : j + 1])[0]
            return first_hit(*evaluate(Q[: budget - evals - 1 - s * width]))
        n = min(-(-(budget - evals) // least_spend(1, 0.5)), AUDIT_BLOCK // width)
    return None


# --- canonical four-level pair and its expectation triple ------------------

def occupation_imbalance_pair() -> tuple[np.ndarray, np.ndarray]:
    """Left and right occupation-imbalance operators on the 10-dim space.

    ``A`` counts left particles in internal level 0 minus level 1; ``B`` the
    same on the right side.  Both are sector-block-diagonal one-body
    operators, the standard local pair of the four-level theory.
    """
    A = number_level_operator(0) - number_level_operator(1)
    B = number_level_operator(2) - number_level_operator(3)
    return A, B


def occupation_imbalance_expectations(
    c_ll: complex, c_lr: complex, c_rr: complex
) -> tuple[complex, complex, complex]:
    """``(<AB>, <A>, <B>)`` of the imbalance pair on the three-sector family.

    The state is ``c_ll |L0,L0> + c_lr |L0,R1-pair> + c_rr |R1,R1>``
    (coefficients are normalized internally); everything is computed from
    the 10x10 matrices.
    """
    A, B = occupation_imbalance_pair()
    psi = np.zeros(10, dtype=complex)
    psi[0] = c_ll  # (L0,L0)
    psi[3] = c_lr  # (L0,R1) pair
    psi[9] = c_rr  # (R1,R1)
    n = check_state(psi)
    ab = complex(np.vdot(psi, A @ (B @ psi)) / n)
    a = complex(np.vdot(psi, A @ psi) / n)
    b = complex(np.vdot(psi, B @ psi) / n)
    return ab, a, b


def ssr_constrain(A: np.ndarray) -> np.ndarray:
    """Zero all off-diagonal sector blocks of a 10x10 operator (idempotent)."""
    A = np.asarray(A, dtype=complex)
    if A.shape != (10, 10):
        raise ValueError("expected a 10x10 operator")
    out = np.zeros_like(A)
    for X in SECTORS:
        slots = list(SECTOR_SLOTS[X])
        out[np.ix_(slots, slots)] = A[np.ix_(slots, slots)]
    return out


# --- positive controls ------------------------------------------------------

def _mode_polynomial(space: FockSpace, mode: str, rng: np.random.Generator) -> np.ndarray:
    """Random degree-<=2 polynomial in the ladder operators of one mode."""
    a = space.annihilate(mode)
    ad = space.create(mode)
    basis = [np.eye(space.dim, dtype=complex), a, ad, ad @ a, a @ a, ad @ ad]
    coeff = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    return sum(c * m for c, m in zip(coeff, basis))


def _one_body_sector_op(side: str, h: np.ndarray) -> np.ndarray:
    """Symmetrized one-body operator supported on the L or R level block."""
    H = np.zeros((4, 4), dtype=complex)
    ofs = 0 if side == "L" else 2
    H[ofs : ofs + 2, ofs : ofs + 2] = h
    return sym_one_body(H)


def positive_control(
    kind: str,
    n_pairs: int = 100,
    n_states: int = 100,
    seed: int = 0,
    n_max: int = 4,
    threshold: float = 1e-10,
) -> AuditReport:
    """Residual audit of local pairs on the matching separable samples.

    ``kind='mode'``: degree-<=2 ladder polynomials of mode 0 against mode 1
    on a truncated two-mode Fock space, evaluated on its headroom occupation
    states (total number at most ``n_max - 2``) so the truncation is exact.
    ``kind='ssr'``: one-body L-side against R-side operators (sector
    block-diagonal by construction) on single-sector separable states.
    The expected outcome is ``max |residual| <= 1e-10``.
    """
    if kind not in ("mode", "ssr"):
        raise ValueError("positive controls exist for 'mode' and 'ssr' only")
    if n_pairs < 1:
        raise ValueError("n_pairs must be at least 1")
    rng_ops = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    space = FockSpace(("0", "1"), n_max) if kind == "mode" else None
    worst: AuditReport | None = None
    mean_acc = 0.0
    for j in range(n_pairs):
        if kind == "mode":
            A = _mode_polynomial(space, "0", rng_ops)
            B = _mode_polynomial(space, "1", rng_ops)
        else:
            hA = rng_ops.normal(size=(2, 2)) + 1j * rng_ops.normal(size=(2, 2))
            hB = rng_ops.normal(size=(2, 2)) + 1j * rng_ops.normal(size=(2, 2))
            A = _one_body_sector_op("L", (hA + hA.conj().T) / 2)
            B = _one_body_sector_op("R", (hB + hB.conj().T) / 2)
        rep = audit(
            A,
            B,
            kind,
            n_states,
            seed=int(np.random.SeedSequence((seed, 2, j)).generate_state(1)[0]),
            threshold=threshold,
            pair=f"{kind}-local random pair {j}",
            fock=space,
        )
        mean_acc += rep.mean_abs_residual
        if worst is None or rep.max_abs_residual > worst.max_abs_residual:
            worst = rep
    return AuditReport(
        pair=f"{kind}-local random pairs x{n_pairs}",
        set_name=kind,
        n_samples=n_pairs * n_states,
        seed=seed,
        max_abs_residual=worst.max_abs_residual,
        mean_abs_residual=mean_acc / n_pairs,
        argmax_state=worst.argmax_state,
        argmax_residual=worst.argmax_residual,
        threshold=threshold,
        verdict="FactorizesOnSamples"
        if worst.max_abs_residual <= threshold
        else "ViolationFound",
        tolerances=worst.tolerances,
    )
