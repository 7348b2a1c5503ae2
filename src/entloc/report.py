"""Deterministic report assembly and serialization.

Reports are JSON documents with a frozen schema id.  The ``results`` section
is a pure function of (command, config, seed): floats are serialized with
shortest round-trip decimals and keys are sorted, so re-running a command
byte-reproduces it.  Wall time and other volatile data live outside
``results``.  CSV output is a flat projection of tabular ``lines``.
"""

from __future__ import annotations

import csv
import io
import json
import sys

import numpy as np

from .errors import ConsistencyError

SCHEMA = "entloc-report/v1"

CONFIG_KNOBS = (
    "command", "seed", "tol_class", "witness_threshold", "samples", "budget", "fmt", "out",
)
"""The keys of every report's ``config``, besides ``extra``.

A knob the command does not take is ``None``; the command's other inputs
go in ``extra``.
"""


def complex_pair(z: complex) -> list[float]:
    """Canonical JSON form of a complex number: ``[re, im]``."""
    z = complex(z)
    return [z.real, z.imag]


def state_json(psi: np.ndarray) -> list[list[float]]:
    return [complex_pair(z) for z in np.asarray(psi, dtype=complex)]


def build_report(config: dict, results: dict, summary: str, wall_time_s: float) -> dict:
    from . import __version__

    return {
        "schema": SCHEMA,
        "version": __version__,
        "config": config,
        "results": results,
        "summary": summary,
        "wall_time_s": wall_time_s,
    }


def results_bytes(report: dict) -> bytes:
    """Canonical bytes of the reproducible section."""
    return json.dumps(report["results"], sort_keys=True, separators=(",", ":")).encode()


def _scalar_row(d: dict, prefix: str = "") -> dict:
    row = {}
    for k, v in d.items():
        if isinstance(v, (str, int, float, bool)):
            row[prefix + k] = v
        elif isinstance(v, dict) and not prefix:
            row.update(_scalar_row(v, prefix=f"{k}."))
    return row


def render_csv(report: dict) -> str:
    """Flat projection of the tabular lines of a report."""
    lines = report["results"].get("lines")
    if not lines:
        lines = [_scalar_row(report["results"])]
    keys = sorted({k for line in lines for k in line if isinstance(line[k], (str, int, float, bool))})
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=keys, extrasaction="ignore")  # a missing field is ""
    writer.writeheader()
    writer.writerows(lines)
    return buf.getvalue()


def emit(report: dict, out: str | None, fmt: str) -> None:
    """Write the report to the file ``out``, or to stdout.

    A report never holds NaN or an infinity, in either format: one that
    does raises :class:`ConsistencyError` and nothing is written.
    """
    try:  # the JSON document gets its final newline here
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise ConsistencyError("the report holds a number that is NaN or infinite") from None
    if fmt == "csv":  # a CSV ends with its row terminator
        text = render_csv(report)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except ValueError as exc:  # a null byte in the path: unwritable, as a missing directory is
            raise OSError(str(exc)) from None
    else:
        sys.stdout.write(text)
