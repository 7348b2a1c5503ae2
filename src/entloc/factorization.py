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
    A, B = _checked_pair(A, B, S.shape)
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


def basis_residuals(A: np.ndarray, B: np.ndarray, slots: np.ndarray, dim: int) -> np.ndarray:
    """:func:`residuals`, with its refusals, of the unit basis vectors ``e_k`` of dimension
    ``dim``, one per slot ``k`` of the ``(m,)`` array ``slots``: ``(AB)_kk - A_kk B_kk =
    sum_j A_kj B_jk - A_kk B_kk``, from row ``k`` of ``A`` and column ``k`` of ``B``.  einsum
    rounds every product as a scalar does, so neither BLAS nor a fused multiply-add moves a byte."""
    A, B = _checked_pair(A, B, (*np.shape(slots), dim))
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.einsum("...kj,...jk->...k", A, B) - np.einsum("...kk,...kk->...k", A, B)
    return _finite(r[..., slots])


def _checked_pair(A: np.ndarray, B: np.ndarray, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Complex ``A`` and ``B``, refused unless finite and ``(..., d, d)`` for ``(..., m, d)`` states."""
    A, B = np.asarray(A, dtype=complex), np.asarray(B, dtype=complex)
    if len(shape) < 2 or not A.shape[-2:] == B.shape[-2:] == (shape[-1],) * 2:
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
    """One report of the pair groups in ``groups``, ``n_states`` states per pair drawn
    from ``rng``: the first pair at the maximum |residual|, and the mean of the
    per-pair means added in pair order.  A group joins it once its blocks end.

    Each ``AUDIT_BLOCK`` block of ``m`` states of a ``p``-pair group makes one
    ``fam.draw(rng, p*m)`` call, and pair ``j`` reads rows ``j*m`` to
    ``(j+1)*m`` of it, so one pair is one generator drawing block after block.
    A group of a continuous family is its ``(p, d, d)`` stacks ``(A, B)``, and a
    block's states are evaluated in one ``residuals`` call.  A group of a
    discrete family (mode) is ``(a, b, table)``: the residual of pair ``j`` on
    branch ``k`` is ``sum_il a[j, i] b[j, l] table[i, l, k]``, read by branch.
    Each pair keeps its best parameter row, and the report builds one state,
    the winner's; :class:`Family` builds a row alike alone or in a block.
    """
    max_abs, max_r, max_P, mean, n_pairs = -1.0, 0j, None, 0.0, 0
    for group in groups:
        p, rows = len(group[0]), np.arange(len(group[0]))
        best, total, best_r = np.full(p, -1.0), np.zeros(p), np.zeros(p, dtype=complex)
        best_P = np.zeros((p, 1 + fam.n_real))
        for start in range(0, n_states, AUDIT_BLOCK):
            m = min(AUDIT_BLOCK, n_states - start)
            P = fam.draw(rng, p * m).reshape(p, m, -1)
            if fam.n_real == 0:
                a, b, table = group
                values = np.einsum("pi,pl,ilpm->pm", a, b, table[:, :, P[..., 0].astype(int)])
            else:
                values = residuals(*group, fam.build_normalized(P))
            mags = np.abs(values)
            k = np.argmax(mags, axis=-1)
            total += np.sum(mags, axis=-1)
            # strict: a later block wins only above the best so far, as in one run
            better = mags[rows, k] > best
            best[better] = mags[rows, k][better]
            best_r[better] = values[rows, k][better]
            best_P[better] = P[rows, k][better]
        # strict again, so the first pair at the maximum wins as np.argmax would
        w = int(np.argmax(best))
        if best[w] > max_abs:
            max_abs, max_r, max_P = float(best[w]), complex(best_r[w]), best_P[w]
        # the running sum of the per-pair means, one add per pair as np.cumsum makes
        mean = np.cumsum(np.concatenate(([mean], total / n_states)))[-1]
        n_pairs += p
    return AuditReport(
        pair=pair, set_name=set_name, n_samples=n_pairs * n_states, seed=seed,
        max_abs_residual=max_abs, mean_abs_residual=float(mean) / n_pairs,
        argmax_state=fam.build_normalized(max_P[None])[0], argmax_residual=max_r, threshold=threshold,
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
    fam = family(set_name, fock)
    groups = [(np.asarray(A)[None], np.asarray(B)[None])]
    if fam.n_real == 0:  # the one-pair case of a discrete group: weights 1 and its own table
        groups = [(*np.ones((2, 1, 1)), basis_residuals(*groups[0], fam.slots, fam.dim)[None])]
    return _audit_pairs(groups, rng, fam, n_samples, pair, set_name, seed, threshold)


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
    reads its first ``min(branches, budget)`` slots at once, through
    :func:`basis_residuals`, builds only the witness state, and reports that value.

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
        r = basis_residuals(A, B, fam.slots[:budget], fam.dim)
        hits = np.flatnonzero(np.abs(r) > threshold)
        if not hits.size:
            return None
        psi = fam.build_normalized(hits[:1, None].astype(float))[0]
        return Witness(psi, complex(r[hits[0]]), set_name, classify(set_name, psi, tol))

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

def _local_pairs(kind: str, g: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``g`` random local pairs as weights over one operator basis per side: ``A`` of side 0, ``B`` of 1.

    Per pair the draws are A's real then imaginary coefficients, then B's.  mode: a side's
    ``(g, 6)`` ladder-monomial weights.  ssr: its ``(g, 2, 2)`` Hermitian L or R block.
    """
    c = rng.normal(size=(g, 2, 2, 6) if kind == "mode" else (g, 2, 2, 2, 2))
    coeff = c[:, :, 0] + 1j * c[:, :, 1]
    if kind == "ssr":
        coeff = (coeff + np.swapaxes(coeff.conj(), -1, -2)) / 2
    return coeff[:, 0], coeff[:, 1]


def _weighted_operators(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``einsum("gij,ijkl->gkl", w, basis)`` of complex weights over a real operator basis, as
    one real einsum for each part: numpy's complex einsum runs a scalar loop."""
    out = np.empty(w.shape[:1] + basis.shape[2:], dtype=complex)
    out.real = np.einsum("gij,ijkl->gkl", w.real, basis)
    out.imag = np.einsum("gij,ijkl->gkl", w.imag, basis)
    return out


def _monomial_maps(space: FockSpace, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`FockSpace.ladder_map` column maps of one mode's monomials ``1, a, a+, a+ a, a a, a+ a+``."""
    maps = [space.ladder_map(mode, k) for k in (0, -1, 1, 0, -2, 2)]
    maps[3] = maps[0][0], space.occupations[:, space.modes.index(mode)].astype(float)  # a+ a
    return tuple(map(np.stack, zip(*maps)))


def _map_residuals(T, U, k: np.ndarray) -> np.ndarray:
    """:func:`basis_residuals` of every pair of the column maps ``T = (rows, values)`` and ``U``,
    each ``(n, dim)``, on the slots ``k``, as an ``(n_T, n_U, len(k))`` array.  Column
    ``k`` of ``U`` holds its one nonzero in row ``j``, so ``(TU)_kk = T_kj U_jk``."""
    (rT, vT), (rU, vU) = T, U
    j, u = rU[:, k], vU[:, k]  # a column with no nonzero reads row -1, with u = 0
    t_kj, t_kk = (np.where(rT[:, i] == k, vT[:, i], 0.0) for i in (j, k))
    return (t_kj * u - t_kk[:, None] * np.where(j == k, u, 0.0)).astype(complex)


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

    Pairs run in groups, as many as fit in ``AUDIT_BLOCK`` states (at least
    one), each drawn when it runs and folded into the report when it is done.
    One generator seeded from ``(seed, 2)`` draws the states of every group in
    turn: each block of ``m`` states of a ``p``-pair group is one draw of
    ``p*m`` rows, of which pair ``j`` reads rows ``j*m`` to ``(j+1)*m``.  A pair
    is weights over one operator basis per side, built once per control.  mode:
    six ladder monomials, and every pair reads its values from one table of the
    36 monomial pairs, computed from their column maps.  ssr: the one-body
    operators of a side's four 2x2 matrix units.
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
    fam = family(kind, space)
    per_call = max(1, AUDIT_BLOCK // min(n_states, AUDIT_BLOCK))
    sizes = (min(per_call, n_pairs - first) for first in range(0, n_pairs, per_call))
    groups = (_local_pairs(kind, g, rng_ops) for g in sizes)  # each drawn when its group runs
    if space:
        table = _map_residuals(*(_monomial_maps(space, m) for m in space.modes), fam.slots)
        groups = ((a, b, table) for a, b in groups)
    else:  # a side's weights are over the one-body operators of its four 2x2 matrix units
        units = np.eye(16).reshape(4, 4, 4, 4)  # units[i, j] is the 4x4 matrix unit e_ij
        # real and contiguous, so that each part of a group's weights is one fast real einsum
        L, R = (np.ascontiguousarray(sym_one_body(u).real) for u in (units[:2, :2], units[2:, 2:]))
        groups = ((_weighted_operators(a, L), _weighted_operators(b, R)) for a, b in groups)
    pair = f"{kind}-local random pairs x{n_pairs}"
    return _audit_pairs(groups, rng, fam, n_states, pair, kind, seed, threshold)
