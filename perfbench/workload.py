"""One workload process: a single closed-loop client running ops in process.

Started by ``run.py``; not meant to be run by hand.  Modes:

``setup``  import numpy and entloc, generate the inputs, run one warm-up
           op, and report the set-up time (launch to first timed op);
``run``    the same set-up, then whole cycles of timed ops until at least
           ``--seconds`` of op time and the workload's minimum cycle count
           are reached; end-to-end figures, untraced;
``trace``  the same set-up, then a fixed op set (``trace_cycles`` cycles),
           each op once untraced and once traced; per-layer figures.

Every op's answer is checked after its timed span.  After the timed phase a
seeded subset of ops is re-run and its ``results`` bytes compared, and the
known ``witness --set mode`` CLI defect is probed once, untimed.

Prints one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import entloc  # noqa: E402
from entloc import cli  # noqa: E402

import checks  # noqa: E402
import ops as gen  # noqa: E402
import tracer as tracing  # noqa: E402

WALL_CAP_S = 120.0
"""No new cycle starts after this much wall time in the timed phase."""


class Client:
    """Runs ops in process and checks their answers outside the timed span."""

    def __init__(self, workdir: Path):
        self.out = workdir / "report.json"
        self.ok_ns: list[int] = []
        self.busy_ns = 0
        self.failed = 0
        self.failures: list[str] = []

    def execute(self, op, call=None):
        """Run ``op`` once; return (latency in ns, outcome).

        ``call`` wraps the entry point (the tracer's root span); the outcome
        is the parsed report, the library result, or a :class:`Failure`.
        """
        call = call or (lambda fn, *a, **k: fn(*a, **k))
        if op.argv:
            self.out.unlink(missing_ok=True)
            argv = [*op.argv, "--out", str(self.out)]
            t0 = time.perf_counter_ns()
            try:
                rc = call(cli.main, argv)
            except SystemExit as exc:  # argparse rejects the argv
                rc = exc.code
            except Exception as exc:
                rc = repr(exc)
            dt = time.perf_counter_ns() - t0
            if rc != 0:
                return dt, checks.Failure(f"exit {rc}")
            with open(self.out, encoding="utf-8") as fh:
                return dt, json.load(fh)
        fn = getattr(entloc, op.call)
        kwargs = dict(op.kwargs)
        t0 = time.perf_counter_ns()
        try:
            result = call(fn, *op.args, **kwargs)
        except Exception as exc:
            return time.perf_counter_ns() - t0, checks.Failure(repr(exc))
        return time.perf_counter_ns() - t0, result

    def timed(self, op, call=None):
        """Execute, count and check one timed op; return its outcome."""
        dt, outcome = self.execute(op, call)
        self.busy_ns += dt
        reason = checks.check(op, outcome)
        if reason is None:
            self.ok_ns.append(dt)
        else:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{op.label}: {reason}")
        return outcome

    @property
    def attempted(self) -> int:
        return len(self.ok_ns) + self.failed


def finish(client: Client, first_cycle: list, first_bytes: dict) -> dict:
    """Untimed epilogue: repeat a seeded subset, probe the known CLI defect."""
    mismatches = []
    for pos in sorted(first_bytes):
        _, outcome = client.execute(first_cycle[pos])
        if checks.outcome_bytes(outcome) != first_bytes[pos]:
            mismatches.append(first_cycle[pos].label)
    out = ROOT / ".perfbench" / f"probe-{os.getpid()}.json"
    try:
        with open(os.devnull, "w") as null, contextlib.redirect_stderr(null):
            probe_rc = cli.main([*gen.MODE_WITNESS_PROBE, "--out", str(out)])
    finally:
        out.unlink(missing_ok=True)
    return {"repeat_mismatches": mismatches, "repeats": len(first_bytes), "probe_exit": probe_rc}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run", "trace"))
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--launch-ns", type=int, required=True)
    args = ap.parse_args()
    w = gen.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench" / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    real_stdout = sys.stdout
    try:
        # reproduce-paper prints its PASS lines; keep them off our stdout
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            result = _run(args, w, Client(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), file=real_stdout)
    return 0


def _run(args, w, client: Client) -> dict:
    n_cycles = w.trace_cycles if args.mode == "trace" else w.min_cycles
    cycles = [gen.cycle(w.name, args.seed, c) for c in range(n_cycles)]
    warm = client.execute(w.warmup)[1]
    result = {
        "setup_s": (time.monotonic_ns() - args.launch_ns) / 1e9,
        "warmup_failure": checks.check(w.warmup, warm),
    }
    if args.mode == "setup":
        return result
    picks = set(gen.repeat_picks(w.name, args.seed))
    first_bytes: dict[int, bytes] = {}  # results bytes of the ops repeated at the end
    phase = timed_phase if args.mode == "run" else traced_phase
    result.update(phase(args, w, client, cycles, picks, first_bytes))
    result.update(
        attempted=client.attempted,
        failed=client.failed,
        failures=client.failures,
        env=environment(),
        **finish(client, cycles[0], first_bytes),
    )
    return result


def timed_phase(args, w, client: Client, cycles: list, picks: set, first_bytes: dict) -> dict:
    """Whole cycles until ``--seconds`` of op time and ``min_cycles`` are reached."""
    wall0 = time.monotonic()
    c = 0
    while True:
        if c == len(cycles):
            cycles.append(gen.cycle(w.name, args.seed, c))
        for pos, op in enumerate(cycles[c]):
            outcome = client.timed(op)
            if c == 0 and pos in picks:
                first_bytes[pos] = checks.outcome_bytes(outcome)
        c += 1
        if c >= w.min_cycles and client.busy_ns >= args.seconds * 1e9:
            break
        if time.monotonic() - wall0 > WALL_CAP_S:
            break
    lat_ms = np.array(client.ok_ns, dtype=np.float64) / 1e6
    tail_ms = float(np.percentile(lat_ms, w.tail_q * 100)) if lat_ms.size else 0.0
    return {
        "cycles": c,
        "ops_per_s": len(client.ok_ns) / (client.busy_ns / 1e9),
        "p50_ms": float(np.median(lat_ms)) if lat_ms.size else 0.0,
        "tail_ms": tail_ms,
        "tail_q": w.tail_q,
        "tail_beyond": int(np.sum(lat_ms > tail_ms)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_phase(args, w, client: Client, cycles: list, picks: set, first_bytes: dict) -> dict:
    """Each op of the fixed set untraced and traced; per-layer figures from the spans."""
    tr = tracing.Tracer()
    busy = {False: 0, True: 0}  # op time without and with tracing
    flat = [op for cyc in cycles for op in cyc]
    for op_id, op in enumerate(flat):
        # back to back, in alternating order, so that drifts in machine
        # speed cancel in the overhead
        for traced in (False, True) if op_id % 2 == 0 else (True, False):
            before = client.busy_ns
            if traced:
                tr.install()
                try:
                    client.timed(op, lambda fn, *a, i=op_id, **k: tr.run_op(i, fn, *a, **k))
                finally:
                    tr.uninstall()
            else:
                outcome = client.timed(op)
                if op_id in picks:
                    first_bytes[op_id] = checks.outcome_bytes(outcome)
            busy[traced] += client.busy_ns - before
    path = ROOT / ".perfbench" / f"spans-{w.name}.npz"
    tr.write(path)
    per_fn, root_self, root_dur = tracing.layer_metrics(path)
    return {
        "ops": len(flat),
        "per_fn": per_fn,
        "searches": tr.searches,
        "found": tr.found,
        "overhead_frac": busy[True] / busy[False] - 1.0,
        "uncovered_frac": float(root_self.sum() / root_dur.sum()),
        "uncovered_max": float(np.max(root_self / np.maximum(root_dur, 1.0))),
    }


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "entloc": entloc.__version__,
    }


if __name__ == "__main__":
    sys.exit(main())
