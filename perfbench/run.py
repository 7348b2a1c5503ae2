"""entloc benchmark: one command per workload, every metric with its unit.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (``src/entloc`` must exist; nothing
needs to be installed).  Workloads: ``audit``, ``witness``, ``interactive``
(see ``ops.py`` and README.md).  Each op is one user-facing call run in
process by a single closed-loop client; every answer is checked.

``--trace 0`` measures end to end, untraced: it launches ``SETUP_RUNS``
workload processes, reports the median set-up time, and times ops in the
middle one.  ``--trace 1`` runs one traced workload process and reports the
per-layer figures.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it summarize the run.  Exits nonzero, printing no result, when the
checkout holds no entloc sources or a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 7
CHILD_TIMEOUT_S = 150.0


def child(mode: str, args) -> dict:
    """Launch one workload process and return its JSON result."""
    launch = time.monotonic_ns()
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "workload.py"), mode,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--launch-ns", str(launch),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process ({mode}) exited {proc.returncode}")
    return json.loads(lines[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py"))


def end_to_end(args) -> tuple[dict, list[str], dict]:
    # set-ups before and after the timed run, so that one slow stretch of
    # the machine does not hit them all
    before = [child("setup", args) for _ in range(SETUP_RUNS // 2)]
    run = child("run", args)
    after = [child("setup", args) for _ in range(SETUP_RUNS - 1 - SETUP_RUNS // 2)]
    launches = before + [run] + after
    setup_times = [r["setup_s"] for r in launches]
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "ops_per_s": metric(run["ops_per_s"], "1/s"),
        "latency_ms.p50": metric(run["p50_ms"], "ms"),
        "latency_ms.tail": metric(run["tail_ms"], "ms"),
        "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
    }
    notes = [
        f"setup_s runs: {', '.join(f'{t:.4f}' for t in setup_times)}",
        f"timed ops: {run['attempted']} in {run['cycles']} cycles; "
        f"latency_ms.tail is p{run['tail_q'] * 100:g} with {run['tail_beyond']} of "
        f"{run['attempted'] - run['failed']} successful ops beyond it",
    ]
    run["warmup_failures"] = [r["warmup_failure"] for r in launches if r["warmup_failure"]]
    return metrics, notes, run


def traced(args) -> tuple[dict, list[str], dict]:
    run = child("trace", args)
    metrics = {}
    for name, (calls, self_ms) in run["per_fn"].items():
        metrics[f"{name}.calls"] = metric(calls, "count")
        metrics[f"{name}.self_ms"] = metric(self_ms, "ms")
    residual_calls = run["per_fn"]["factorization.residual"][0]
    metrics["factorization.find_violation_witness.found_ratio"] = metric(
        run["found"] / run["searches"] if run["searches"] else 0.0, "ratio"
    )
    metrics["factorization.residual.calls_per_op"] = metric(residual_calls / run["ops"], "calls/op")
    metrics["trace.overhead_frac"] = metric(run["overhead_frac"], "ratio")
    metrics["trace.root_uncovered_frac"] = metric(run["uncovered_frac"], "ratio")
    metrics["failed_frac"] = metric(run["failed"] / run["attempted"], "ratio")
    metrics["cli.witness_mode_probe.exit_code"] = metric(run["probe_exit"], "count")
    notes = [
        f"traced ops: {run['ops']} (each run untraced and traced, back to back); "
        f"witness searches {run['searches']}, found {run['found']}",
        f"op time outside traced calls: {run['uncovered_frac']:.4f} of all op time "
        f"(worst op {run['uncovered_max']:.4f}); trace overhead {run['overhead_frac']:.4f}",
    ]
    if run["uncovered_frac"] > max(run["overhead_frac"], 0.0):
        notes.append("WARNING: root spans are not covered by traced calls within the trace overhead")
    run["warmup_failures"] = [run["warmup_failure"]] if run["warmup_failure"] else []
    return metrics, notes, run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "entloc" / "__init__.py").is_file():
        print(f"perfbench: no entloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        metrics, notes, run = (traced if args.trace else end_to_end)(args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    env = run["env"]
    print(
        f"workload {args.workload}, seed {args.seed}, trace {args.trace}: nproc {env['nproc']}, "
        f"python {env['python']}, numpy {env['numpy']}, entloc {env['entloc']}, src lines {src_lines()}"
    )
    for note in notes:
        print(note)
    if run["probe_exit"] != 0:
        print(
            f"known defect: `entloc witness --set mode` exits {run['probe_exit']} for every input; "
            "probed once, untimed, not counted as an op"
        )
    failures = run["failures"] + run["warmup_failures"]
    failures += [f"{label}: results bytes differ on repeat" for label in run["repeat_mismatches"]]
    for line in failures:
        print(f"FAILED {line}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    correct = not failures and run["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
