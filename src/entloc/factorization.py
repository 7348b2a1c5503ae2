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

from dataclasses import dataclass

import numpy as np

from .hilbert import (
    N_MAX,
    FockSpace,
    check_state,
    number_level_operator,
    sym_one_body,
)
from .separability import (
    DEFAULT_TOL,
    Family,
    SeparabilityVerdict,
    Tolerances,
    canonical_set_name,
    classify,
    family,
)

WITNESS_THRESHOLD = 1e-6
"""A separable state with |residual| above this counts as a violation witness."""

CONTROL_THRESHOLD = 1e-10
"""A local pair with |residual| above this on a separable state fails its positive control."""

WITNESS_BUDGET = 10_000
"""States :func:`find_violation_witness` evaluates by default."""

CONTROL_STATES = 100
"""Samples per pair :func:`positive_control` draws by default."""

AUDIT_BLOCK = 1024
"""Most states one ``residuals`` call of :func:`audit`, :func:`positive_control`
or :func:`find_violation_witness` evaluates: bounds their working memory."""


def _moments(A: np.ndarray, B: np.ndarray, S: np.ndarray) -> tuple[np.ndarray, ...]:
    """The unnormalized sums ``(<AB>, <A>, <B>, <1>)`` of each state of ``S``, checked as
    :func:`residuals` documents.  Overflows are left to the caller's finiteness check."""
    S = np.asarray(S, dtype=complex)
    A, B = _checked_pair(A, B, S)
    n = check_state(S)
    At, Bt, conj = np.swapaxes(A, -1, -2), np.swapaxes(B, -1, -2), S.conj()
    with np.errstate(over="ignore", invalid="ignore"):
        BS = S @ Bt
        ab = np.einsum("...j,...j->...", conj, BS @ At)
        a = np.einsum("...j,...j->...", conj, S @ At)
        b = np.einsum("...j,...j->...", conj, BS)
    return ab, a, b, n


def residuals(A: np.ndarray, B: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Normalized connected correlators ``<AB> - <A><B>``, one per state of ``S``.

    ``S`` is a ``(..., m, d)`` stack of states (not necessarily normalized);
    ``A`` and ``B`` are ``(d, d)`` or ``(..., d, d)`` stacks broadcast
    against it, so ``(p, d, d)`` pairs with ``(p, m, d)`` states give each
    pair its own ``m`` states, rounded bit for bit as its own 2-D call.
    Operators and states must be finite, and so must the results; a state
    of norm at most ``EPS_STATE`` raises :class:`ZeroNormError`.  numpy
    rounds the rows of an ``(m, d)`` stack as one matrix product and a
    one-row stack as a vector product; the states of an ``(m, 1, d)`` stack
    are vector products, so each rounds bit for bit as a one-row call.
    """
    ab, a, b, n = _moments(A, B, S)
    # an overflow shows as a non-finite result, which _finite reports
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite((ab - a * b / n) / n)


def expectations(A: np.ndarray, B: np.ndarray, S: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalized ``(<AB>, <A>, <B>)``, each one per state of ``S``, from the sums of
    :func:`residuals`, with its shapes and its refusals."""
    ab, a, b, n = _moments(A, B, S)
    with np.errstate(over="ignore", invalid="ignore"):
        return tuple(_finite(x / n, "expectation") for x in (ab, a, b))


def basis_residuals(A: np.ndarray, B: np.ndarray, S: np.ndarray) -> np.ndarray:
    """:func:`residuals`, with its refusals, of ``(m, d)`` states that are each a unit
    basis vector ``e_k``: ``(AB)_kk - A_kk B_kk = sum_j A_kj B_jk - A_kk B_kk``, from
    row ``k`` of ``A`` and column ``k`` of ``B``.  einsum rounds every product as a
    scalar does, so neither BLAS nor a fused multiply-add moves a byte."""
    A, B = _checked_pair(A, B, S)
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.einsum("...kj,...jk->...k", A, B) - np.einsum("...kk,...kk->...k", A, B)
    return _finite(r[..., np.argmax(np.abs(S), axis=-1)])


def _checked_pair(A: np.ndarray, B: np.ndarray, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex ``A`` and ``B``, refused unless finite and ``(..., d, d)`` for ``(..., d)`` states ``S``."""
    A, B = np.asarray(A, dtype=complex), np.asarray(B, dtype=complex)
    if S.ndim < 2 or not A.shape[-2:] == B.shape[-2:] == (S.shape[-1],) * 2:
        raise ValueError("operator and state dimensions do not match")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValueError("operators contain non-finite entries")
    return A, B


def _finite(r: np.ndarray, what: str = "residual") -> np.ndarray:
    if not np.isfinite(r).all():
        raise ValueError(f"{what} overflowed: operator entries are too large")
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

    def recheck(self, A: np.ndarray, B: np.ndarray) -> float:
        """Recompute the extremal residual; must reproduce the report."""
        return abs(abs(residual(A, B, self.argmax_state)) - abs(self.argmax_residual))


def _audit_pairs(
    groups, rng: np.random.Generator, fam: Family, n_states: int,
    pair: str, set_name: str, seed: int, threshold: float,
) -> AuditReport:
    """One report of the ``(A, B)`` pair stacks in ``groups``, ``n_states`` states per
    pair drawn from ``rng``: the first pair at the maximum |residual|, and the mean
    of the per-pair means added in pair order.  A group joins it once its blocks end.

    Each ``AUDIT_BLOCK`` block of ``m`` states of a ``p``-pair group makes one
    ``fam.draw(rng, p*m)`` call, and pair ``j`` reads rows ``j*m`` to
    ``(j+1)*m`` of it, so one pair is one generator drawing block after block.
    A block's states are evaluated in one ``residuals`` call.  A discrete
    family (mode) has only ``branches`` states: each block picks its values
    from one :func:`basis_residuals` table per pair, and its states, by branch.
    """
    max_abs, max_r, max_s, mean, n_pairs = -1.0, 0j, None, 0.0, 0
    if fam.n_real == 0:
        distinct = fam.build_normalized(np.arange(fam.branches, dtype=float)[:, None])
    for A, B in groups:
        p, rows = A.shape[0], np.arange(A.shape[0])
        best, total, best_r = np.full(p, -1.0), np.zeros(p), np.zeros(p, dtype=complex)
        best_s = np.zeros((p, A.shape[-1]), dtype=complex)
        if fam.n_real == 0:
            table = basis_residuals(A, B, distinct)
        for start in range(0, n_states, AUDIT_BLOCK):
            m = min(AUDIT_BLOCK, n_states - start)
            P = fam.draw(rng, p * m).reshape(p, m, -1)
            if fam.n_real == 0:
                branch = P[..., 0].astype(int)
                values, states = table[rows[:, None], branch], None
            else:
                states = fam.build_normalized(P)
                values = residuals(A, B, states)
            mags = np.abs(values)
            k = np.argmax(mags, axis=-1)
            top = distinct[branch[rows, k]] if states is None else states[rows, k]
            total += np.sum(mags, axis=-1)
            # strict: a later block wins only above the best so far, as in one run
            better = mags[rows, k] > best
            best[better] = mags[rows, k][better]
            best_r[better] = values[rows, k][better]
            best_s[better] = top[better]
        # strict again, so the first pair at the maximum wins as np.argmax would
        w = int(np.argmax(best))
        if best[w] > max_abs:
            max_abs, max_r, max_s = float(best[w]), complex(best_r[w]), best_s[w]
        # the running sum of the per-pair means, one add per pair as np.cumsum makes
        mean = np.cumsum(np.concatenate(([mean], total / n_states)))[-1]
        n_pairs += p
    return AuditReport(
        pair=pair, set_name=set_name, n_samples=n_pairs * n_states, seed=seed,
        max_abs_residual=max_abs, mean_abs_residual=float(mean) / n_pairs,
        argmax_state=max_s, argmax_residual=max_r, threshold=threshold,
        verdict="ViolationFound" if max_abs > threshold else "FactorizesOnSamples",
    )


def audit(
    A: np.ndarray,
    B: np.ndarray,
    set_name: str,
    n_samples: int,
    seed: int,
    threshold: float = WITNESS_THRESHOLD,
    pair: str = "",
    fock: FockSpace | None = None,
) -> AuditReport:
    """Evaluate the pair residual on seeded separable samples.

    One generator seeded with ``seed`` draws the samples in blocks of
    ``AUDIT_BLOCK``, each evaluated as one batch, so the report is a pure
    function of the inputs; it is the one-pair case of the core that
    :func:`positive_control` runs on groups of pairs.  ``fock`` makes the
    mode family the headroom occupation states of that space (see
    :func:`entloc.separability.family`).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    _check_threshold(threshold)
    set_name = canonical_set_name(set_name)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    groups = [(np.asarray(A)[None], np.asarray(B)[None])]
    return _audit_pairs(groups, rng, family(set_name, fock), n_samples, pair, set_name, seed, threshold)


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
    budget: int = WITNESS_BUDGET,
    seed: int = 0,
    threshold: float = WITNESS_THRESHOLD,
    tol: Tolerances = DEFAULT_TOL,
    fock: FockSpace | None = None,
) -> Witness | None:
    """Search the separable family for a state with ``|residual| > threshold``.

    Random restarts draw fresh family parameters; each restart is refined
    by coordinate sweeps (perturbations act on the defining coefficients,
    so every visited state stays exactly inside the family).  A sweep
    evaluates ``2k`` probes, +step then -step on each coordinate; the
    restart moves to the best probe if it improves on its current state,
    else it halves the step, and it stops once the step is below 1e-3.

    Restarts run in lockstep rounds.  A round draws
    ``min(AUDIT_BLOCK // 2k, budget left)`` restarts in one call, evaluates
    their start states as one batch (sweep 0), then evaluates each sweep
    of all its live restarts as one batch, until none is live.  The witness
    is the first state above threshold in the order round, sweep, restart,
    probe.  Every evaluated state counts against ``budget``, and the last
    batch is cut to what is left of it, so a search that returns ``None``
    has evaluated exactly ``budget`` states.  A discrete family (mode)
    reads its first ``min(branches, budget)`` states at once, through
    :func:`basis_residuals`, and its witness reports that value.

    Each batch is one :func:`residuals` call, with the checks of :func:`audit`:
    a state of norm at most 1e-12 raises :class:`ZeroNormError`.  A family
    state gets there only when every coordinate its branch reads is near 0
    at once (for I, II and ssr-LR at least four real coordinates within
    about 1e-6 of 0, for III and ssr-LL/RR six within 1e-12), and draws are
    standard normal, with probes that move one coordinate by ``±0.5·2^-j``.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    _check_threshold(threshold)
    set_name = canonical_set_name(set_name)
    fam = family(set_name, fock)
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    def evaluate(P: np.ndarray) -> tuple[np.ndarray, Witness | None]:
        """|residual| of the rows ``P``, and the witness at the first one above threshold."""
        S = fam.build(P)
        r = np.abs(residuals(A, B, S))
        hits = np.flatnonzero(r > threshold)
        if not hits.size:
            return r, None
        psi = S[hits[0]] / np.sqrt(check_state(S[hits[0]]))
        return r, Witness(psi, residual(A, B, psi), set_name, classify(set_name, psi, tol))

    if fam.n_real == 0:
        S = fam.build_normalized(np.arange(min(fam.branches, budget), dtype=float)[:, None])
        r = basis_residuals(A, B, S)
        hits = np.flatnonzero(np.abs(r) > threshold)
        if not hits.size:
            return None
        return Witness(S[hits[0]], complex(r[hits[0]]), set_name, classify(set_name, S[hits[0]], tol))

    width = 2 * fam.n_real
    # probe j of a restart moves coordinate j // 2 by +step (j even) or -step (j odd)
    moves = np.zeros((width, 1 + fam.n_real))
    moves[np.arange(width), 1 + np.arange(width) // 2] = np.tile([1.0, -1.0], fam.n_real)
    evals = 0
    while evals < budget:
        P = fam.draw(rng, min(AUDIT_BLOCK // width, budget - evals))
        r, found = evaluate(P)
        evals += len(P)
        step = np.full(len(P), 0.5)
        live = np.arange(len(P))
        while found is None and live.size and evals < budget:
            Q = P[live, None, :] + step[live, None, None] * moves
            rq, found = evaluate(Q.reshape(-1, P.shape[1])[: budget - evals])
            evals += len(rq)
            if len(rq) < Q.shape[0] * width:
                break  # the budget ran out mid-sweep
            rq = rq.reshape(len(live), width)
            best = np.argmax(rq, axis=1)
            top = rq.max(axis=1)
            better = top > r[live]
            moved = live[better]
            P[moved] = Q[better, best[better]]
            r[moved] = top[better]
            step[live[~better]] /= 2.0
            live = live[step[live] > 1e-3]
        if found is not None:
            return found
    return None


# --- canonical four-level pair --------------------------------------------

def occupation_imbalance_pair() -> tuple[np.ndarray, np.ndarray]:
    """Left and right occupation-imbalance operators on the 10-dim space.

    ``A`` counts left particles in internal level 0 minus level 1; ``B`` the
    same on the right side.  Both are sector-block-diagonal one-body
    operators, the standard local pair of the four-level theory.
    """
    A = number_level_operator(0) - number_level_operator(1)
    B = number_level_operator(2) - number_level_operator(3)
    return A, B


# --- positive controls ------------------------------------------------------

def _local_pairs(
    kind: str, g: int, rng: np.random.Generator, terms: list
) -> tuple[np.ndarray, np.ndarray]:
    """``(g, d, d)`` stacks of ``g`` random local pairs ``A`` (side 0), ``B`` (side 1).

    Per pair the draws are A's real then imaginary coefficients, then B's.
    mode: polynomials in the ``(6, d, d)`` stack ``terms`` of each mode's ladder
    monomials.  ssr: symmetrized one-body operators of Hermitian 2x2 blocks on
    the L and R levels.
    """
    c = rng.normal(size=(g, 2, 2, 6) if kind == "mode" else (g, 2, 2, 2, 2))
    ops = []
    for side in (0, 1):
        coeff = c[:, side, 0] + 1j * c[:, side, 1]
        if kind == "mode":
            op = np.einsum("gi,ijk->gjk", coeff, terms[side])
        else:
            H = np.zeros((g, 4, 4), dtype=complex)
            H[:, 2 * side : 2 * side + 2, 2 * side : 2 * side + 2] = (
                coeff + np.swapaxes(coeff.conj(), -1, -2)
            ) / 2
            op = sym_one_body(H)
        ops.append(op)
    return ops[0], ops[1]


def positive_control(
    kind: str,
    n_pairs: int = 100,
    n_states: int = CONTROL_STATES,
    seed: int = 0,
    n_max: int = N_MAX,
    threshold: float = CONTROL_THRESHOLD,
) -> AuditReport:
    """Residual audit of local pairs on the matching separable samples.

    ``kind='mode'``: degree-<=2 ladder polynomials of mode 0 against mode 1
    on a truncated two-mode Fock space, evaluated on its headroom occupation
    states (total number at most ``n_max - 2``) so the truncation is exact.
    ``kind='ssr'``: one-body L-side against R-side operators (sector
    block-diagonal by construction) on single-sector separable states.
    The expected outcome is ``max |residual| <= 1e-10``.

    Pairs run in groups, as many as fit in ``AUDIT_BLOCK`` states and in
    ``AUDIT_BLOCK**2`` entries per operator stack (at least one), each built
    when it runs and folded into the report when it is done.
    One generator seeded from ``(seed, 2)`` draws the states of every group in
    turn: each block of ``m`` states of a ``p``-pair group is one draw of
    ``p*m`` rows, of which pair ``j`` reads rows ``j*m`` to ``(j+1)*m``.
    """
    if kind not in ("mode", "ssr"):
        raise ValueError("positive controls exist for 'mode' and 'ssr' only")
    if n_pairs < 1:
        raise ValueError("n_pairs must be at least 1")
    if n_states < 1:
        raise ValueError("n_states must be at least 1")
    _check_threshold(threshold)
    rng_ops = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
    space = FockSpace(n_max) if kind == "mode" else None
    # the ladder monomials 1, a, a+, a+ a, a a, a+ a+ of each mode
    terms = [np.stack([np.eye(space.dim), space.ladder(m, -1), space.ladder(m, 1), space.number(m),
                       space.ladder(m, -2), space.ladder(m, 2)]) for m in space.modes] if space else []
    dim = space.dim if space else 10  # ssr operators act on the ten pair slots of four levels
    per_call = max(1, min(AUDIT_BLOCK // min(n_states, AUDIT_BLOCK), AUDIT_BLOCK**2 // dim**2))
    sizes = (min(per_call, n_pairs - first) for first in range(0, n_pairs, per_call))
    groups = (_local_pairs(kind, g, rng_ops, terms) for g in sizes)  # each built when its group runs
    pair = f"{kind}-local random pairs x{n_pairs}"
    return _audit_pairs(groups, rng, family(kind, space), n_states, pair, kind, seed, threshold)
