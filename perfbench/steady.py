"""Steadiness check: run the benchmark repeatedly and compare against its bounds.

    python3 perfbench/steady.py

Runs every workload of BENCHMARK.json ``RUNS`` times per set, in ``SETS``
sets, each run with another seed (the same seeds in every set), untraced,
for ``run_seconds``.  For each end-to-end metric it reports, per set, the
median and the spread (distance between the first and third quartile as a
share of the median, from ``statistics.quantiles(values, n=4)``), and how far
the second set's median moved against the first in the metric's worse
direction.  A metric whose spread in either set, or whose median shift,
exceeds its bound is listed as unresolved.  Exits 1 if any run fails or any
metric is unresolved.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2
SEEDS = range(1, RUNS + 1)


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]

    values = {}  # (set, workload, metric) -> list of values
    for s in range(SETS):
        for w in workloads:
            for seed in SEEDS:
                for name, v in run_once(spec["command"], w, seed, spec["run_seconds"]).items():
                    values.setdefault((s, w, name), []).append(v)
                print(f"set {s + 1} {w} seed {seed} done", file=sys.stderr, flush=True)

    unresolved = []
    report = {}
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [values[(s, w, name)] for s in range(SETS)]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            sign = 1.0 if m["better"] == "lower" else -1.0
            shift = sign * (medians[-1] - medians[0]) / medians[0]
            row = {"bound": bound, "medians": medians, "spreads": spreads, "shift": shift, "values": sets}
            report[f"{w}/{name}"] = row
            flags = []
            if max(spreads) > bound:
                flags.append("spread above bound")
            if shift > bound:
                flags.append("median moved beyond bound")
            if flags:
                unresolved.append(f"{w}/{name}: {', '.join(flags)}")
            print(
                f"{w:12s} {name:16s} bound {bound:.2f}  "
                + "  ".join(f"median {md:.6g} spread {sp:.3f}" for md, sp in zip(medians, spreads))
                + f"  shift {shift:+.3f}"
                + (f"  UNRESOLVED ({', '.join(flags)})" if flags else "")
            )
    out = ROOT / ".perfbench" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"unresolved": unresolved, "metrics": report}, indent=1), encoding="utf-8")
    print(f"unresolved: {len(unresolved)}; details in {out.relative_to(ROOT)}")
    return 1 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
