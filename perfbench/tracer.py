"""Span tracer for the traced benchmark run.

The tracer wraps the public ``entloc`` functions listed in ``TRACED`` from
the benchmark's own files.  A name can be bound in several places (``cli``
imports ``residual`` from ``factorization``, ``separability.CLASSIFIERS``
holds the classifiers), so every ``entloc`` module namespace and every
module-level dict holding the original object is patched, and all of it is
restored by :meth:`Tracer.uninstall`.

Spans live in flat in-memory arrays: name, parent span, op id, start and
end.  Calls made outside an op span (answer checks, set-up) pass through
unrecorded.  :func:`layer_metrics` derives self times (a span's duration
minus its children's durations) from spans written to disk.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

TRACED = {
    "cli": ("main", "build_parser", "parse_operator"),
    "report": ("build_report", "emit"),
    "factorization": ("audit", "positive_control", "find_violation_witness", "residual"),
    "separability": (
        "sample_separable", "classify", "classify_sep_I", "classify_sep_II", "classify_sep_III",
        "classify_mode", "classify_ssr", "solve_preservation_quartic",
    ),
    "hilbert": (
        "check_state", "partial_trace_second_particle", "reduced_single_particle_dm",
        "symmetrize_product", "FockSpace",
    ),
    "invariance": (
        "construct_sep_I_preserver", "fit_sep_I_preserver", "is_block_scalar", "commutativity_condition",
    ),
    "exact": ("MultiPoly.__mul__", "MultiPoly.__add__"),
    "certificates": ("certify_factorization_sep_I", "certify_sector_coupling"),
    "reference": ("reference_suite",),
    "roots": ("all_roots",),
}
ROOT_SPAN = "op"
FUNCTIONS = tuple(f"{mod}.{name}" for mod, names in TRACED.items() for name in names)


class Tracer:
    """Records one span per call of a traced function inside an op span."""

    def __init__(self):
        self.names = (ROOT_SPAN, *FUNCTIONS)
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.searches = 0
        self.found = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int, op_id: int, start: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(op_id)
        self.start.append(start)
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def run_op(self, op_id: int, fn, *args, **kwargs):
        """Call ``fn`` under a root span with op id ``op_id``."""
        idx = self._open(0, op_id, 0)
        self.start[idx] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, name_id: int, fn):
        stack, op, clock = self._stack, self.op, time.perf_counter_ns
        counts_search = self.names[name_id] == "factorization.find_violation_witness"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            # the clock is read first so that the span's own bookkeeping
            # counts in its self time, not in its parent's
            idx = self._open(name_id, op[stack[0]], clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counts_search:
                self.searches += 1
                self.found += result is not None
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "entloc" or n.startswith("entloc.")]
        for name_id, full in enumerate(FUNCTIONS, start=1):
            mod_name, _, attr = full.partition(".")
            mod = importlib.import_module(f"entloc.{mod_name}")
            if "." in attr:  # a method: patch the class attribute
                cls_name, _, meth = attr.partition(".")
                self._patch(getattr(mod, cls_name), meth, name_id)
                continue
            original = getattr(mod, attr)
            if isinstance(original, type):  # a class: time its construction
                self._patch(original, "__init__", name_id)
                continue
            wrapper = self._wrap(name_id, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((setattr, m, key, original))
                        setattr(m, key, wrapper)
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for k, v in list(value.items()):
                            if v is original:
                                self._restore.append((dict.__setitem__, value, k, original))
                                value[k] = wrapper

    def _patch(self, owner, attr: str, name_id: int) -> None:
        original = owner.__dict__[attr]
        self._restore.append((setattr, owner, attr, original))
        setattr(owner, attr, self._wrap(name_id, original))

    def uninstall(self) -> None:
        for put, owner, key, original in reversed(self._restore):
            put(owner, key, original)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write all spans to ``path`` (an ``.npz`` archive)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(
                fh,
                names=np.array(self.names),
                name=np.frombuffer(self.name, dtype=np.int32),
                parent=np.frombuffer(self.parent, dtype=np.int32),
                op=np.frombuffer(self.op, dtype=np.int32),
                start=np.frombuffer(self.start, dtype=np.int64),
                end=np.frombuffer(self.end, dtype=np.int64),
            )


def layer_metrics(path: Path) -> tuple[dict[str, tuple[int, float]], np.ndarray, np.ndarray]:
    """Calls and self time (ms) per traced function; root spans' self and total ns.

    A span's self time is its duration minus the durations of its direct
    children.  A root span's self time is the part of its op spent outside
    every traced function call.
    """
    with np.load(path) as z:
        names, name, parent = list(z["names"]), z["name"], z["parent"]
        dur = (z["end"] - z["start"]).astype(np.float64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    own = dur - child
    calls = np.bincount(name, minlength=len(names))
    self_ns = np.bincount(name, weights=own, minlength=len(names))
    per_fn = {n: (int(calls[i]), float(self_ns[i]) / 1e6) for i, n in enumerate(names) if n != ROOT_SPAN}
    roots = name == 0
    return per_fn, own[roots], dur[roots]
