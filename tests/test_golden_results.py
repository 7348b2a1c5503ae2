"""The ``results`` bytes of seeded audit, witness, sample and certify runs are pinned.

``golden_results.json`` holds the sha256 of the canonical ``results`` bytes
(:func:`entloc.report.results_bytes`) of each case below.  A change that
moves any byte of a sampled state, a residual, a verdict or a margin shows
here.  Regenerate the file only for a change that means to move them:

    PYTHONPATH=src python tests/test_golden_results.py

It prints each case whose hash changed, as ``name: old -> new``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from entloc.cli import main
from entloc.hilbert import SECTOR_SLOTS
from entloc.report import results_bytes

GOLDEN_PATH = Path(__file__).with_name("golden_results.json")
TOTAL_NUMBER = "number:L0+number:L1+number:R0+number:R1"  # 2 x identity on two particles


def entries(M) -> str:
    return "entries:" + json.dumps(M, separators=(",", ":"))


def sector_matrix(X: str, Y: str, coupled: bool, salt: int) -> list[list]:
    """A sparse integer 10x10 matrix whose (X, Y) block is full if ``coupled``, else zero."""
    M = [[(7 * i + 3 * j + salt) % 5 - 2 if (i + 2 * j + salt) % 3 else 0 for j in range(10)] for i in range(10)]
    for i in SECTOR_SLOTS[X]:
        for j in SECTOR_SLOTS[Y]:
            M[i][j] = (1, -1, 2, -2)[(i + 3 * j + salt) % 4] if coupled else 0
    return M


def certify_sectors(X: str, Y: str, A, B) -> list[str]:
    return ["certify", "--sectors", f"{X},{Y}", "--A", entries(A), "--B", entries(B)]


# off-block entries of every kind an exact entry can take: a fraction string,
# a JSON decimal and an [re, im] pair
ONE_BLOCK_ZERO_A = sector_matrix("LL", "RR", True, 8)
ONE_BLOCK_ZERO_A[0][0], ONE_BLOCK_ZERO_A[9][9], ONE_BLOCK_ZERO_A[4][7] = "3/2-1/4j", 0.25, [1, -2]

CASES = {
    "audit/I/pauli": ["audit", "--set", "I", "--pair", "pauli:1,pauli:2", "--samples", "1500", "--seed", "3"],
    "audit/I/identity": ["audit", "--set", "I", "--pair", "pauli:0,pauli:3", "--samples", "300", "--seed", "4"],
    "audit/II/pauli": ["audit", "--set", "II", "--pair", "pauli:3,pauli:1", "--samples", "2100", "--seed", "5"],
    "audit/II/identity": ["audit", "--set", "II", "--pair", "pauli:2,pauli:0", "--samples", "300", "--seed", "6"],
    "audit/III/imbalance": [
        "audit", "--set", "III", "--A", "number:L0-number:L1", "--B", "number:R0-number:R1",
        "--samples", "1100", "--seed", "7",
    ],
    "audit/mode/pair": [
        "audit", "--set", "mode", "--pair", "ladder:0:-,ladder:0:+", "--samples", "2500", "--n-max", "4",
        "--seed", "30",
    ],
    "audit/mode/control": ["audit", "--set", "mode", "--pairs", "random:7", "--states", "300", "--seed", "8"],
    "audit/ssr/control": ["audit", "--set", "ssr", "--pairs", "random:5", "--states", "700", "--seed", "9"],
    "witness/I/found": ["witness", "--set", "I", "--pair", "pauli:1,pauli:2", "--seed", "10"],
    "witness/I/not-found": ["witness", "--set", "I", "--pair", "pauli:0,pauli:1", "--seed", "11"],
    "witness/II/found": ["witness", "--set", "II", "--pair", "pauli:3,pauli:3", "--seed", "12"],
    "witness/II/not-found": ["witness", "--set", "II", "--pair", "pauli:2,pauli:0", "--seed", "13"],
    "witness/III/found": [
        "witness", "--set", "III", "--A", "number:L0-number:L1", "--B", "number:R0-number:R1", "--seed", "14",
    ],
    "witness/III/not-found": ["witness", "--set", "III", "--A", TOTAL_NUMBER, "--B", "number:L0", "--seed", "15"],
    "witness/ssr/found": ["witness", "--set", "ssr", "--pair", "number:L1,number:L1", "--seed", "16"],
    "witness/ssr/not-found": ["witness", "--set", "ssr", "--A", "number:L0", "--B", "number:R1", "--seed", "17"],
    "witness/ssr/not-found-odd-budget": [
        "witness", "--set", "ssr", "--A", "number:L1", "--B", "number:R0", "--budget", "1237", "--seed", "18",
    ],
    "witness/mode/found": ["witness", "--set", "mode", "--pair", "ladder:0:-,ladder:0:+", "--seed", "19"],
    "witness/mode/not-found": ["witness", "--set", "mode", "--pair", "number:0,number:1", "--seed", "20"],
    "certify/pair-generic": [
        "certify", "--A", entries([["1/2-3/2j", "2"], ["-1+1/3j", "3/4"]]),
        "--B", entries([["0", "1-2j"], ["5/2", "-1/3+j"]]),
    ],
    "certify/pair-identity": [
        "certify", "--A", entries([["-7/4+2j", "1/3j"], ["3", "1"]]),
        "--B", entries([["3/2+1/2j", "0"], ["0", "3/2+1/2j"]]),
    ],
    "certify/pair-pauli": ["certify", "--pair", "pauli:1,pauli:2"],
    "certify/sectors-number": [
        "certify", "--sectors", "RR,LR", "--A", "number:L1-number:L0", "--B", "number:R0",
    ],
    "certify/sectors-coupled-LL-LR": certify_sectors(
        "LR", "LL", sector_matrix("LR", "LL", True, 1), sector_matrix("LR", "LL", True, 2)
    ),
    "certify/sectors-coupled-LL-RR": certify_sectors(
        "LL", "RR", sector_matrix("LL", "RR", True, 3), sector_matrix("LL", "RR", True, 4)
    ),
    "certify/sectors-coupled-LR-RR": certify_sectors(
        "RR", "LR", sector_matrix("RR", "LR", True, 5), sector_matrix("RR", "LR", True, 6)
    ),
    "certify/sectors-one-block-zero": certify_sectors(
        "LL", "RR", sector_matrix("LL", "RR", False, 7), ONE_BLOCK_ZERO_A
    ),
    **{
        f"sample/{kind}": ["sample", "--set", kind, "--n", "40", "--seed", str(21 + i)]
        for i, kind in enumerate(("I", "II", "III", "mode", "ssr"))
    },
}


def results_sha256(argv: list[str], out: Path) -> str:
    code = main([*argv, "--out", str(out)])
    if code != 0:
        raise AssertionError(f"{argv} exited {code}")
    return hashlib.sha256(results_bytes(json.loads(out.read_text()))).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_results_bytes_match_the_golden_hashes(name, tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden[name] == results_sha256(CASES[name], tmp_path / "report.json")


def test_golden_file_covers_exactly_the_cases():
    assert sorted(json.loads(GOLDEN_PATH.read_text())) == sorted(CASES)


if __name__ == "__main__":
    import tempfile

    old = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        hashes = {name: results_sha256(argv, Path(tmp) / "report.json") for name, argv in sorted(CASES.items())}
    # every case whose hash moved, was added or was dropped, with its old and new hash
    for name in sorted(old.keys() | hashes.keys()):
        if old.get(name) != hashes.get(name):
            print(f"{name}: {old.get(name)} -> {hashes.get(name)}")
    GOLDEN_PATH.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
