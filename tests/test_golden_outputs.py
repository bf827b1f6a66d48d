"""Byte identity of the verbs' CSVs against files checked in under `golden/`.

A change that should not alter results (a refactor, a simplification) must
leave every CSV here byte-identical; manifests are not compared because they
carry wall-clock times.

The contract the files hold to: on the host class that made them (x86-64
with AVX2 and AVX-512 dispatch in numpy), the files match byte for byte, and
that is what this test checks. On any other host, the same lines match,
every non-dB column matches byte for byte, and every dB column is within one
printed unit (1e-6 dB): numpy's SIMD dispatch moves the last bits of the
filter spectra and the composites, which can move a deep-stopband PSD value
by that unit.

After a deliberate change of results, rewrite the golden files with

    PYTHONPATH=src python tests/test_golden_outputs.py

which prints, for each file, "unchanged" or the lines that moved and the
largest numeric difference (`describe_difference`); list them in the
change's description and show each within the rule above.
"""

import math
import tempfile
from pathlib import Path

import pytest

from waveform_lab.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "guardtone-desk": ["guardtone", "--scenario", "three-subband-desk", "--guards", "0,2",
                       "--offsets-db", "0,10", "--trials", "2", "--seed", "3"],
    "guardtone-lte20": ["guardtone", "--scenario", "three-subband-lte20", "--guards", "0",
                        "--offsets-db", "10", "--modulations", "qpsk", "--trials", "1"],
    "psd-desk": ["psd", "--scenario", "three-subband-desk", "--ttis", "2"],
    "psd-desk-pa": ["psd", "--scenario", "three-subband-desk", "--ttis", "2", "--pa-on"],
    "psd-lte20": ["psd", "--scenario", "three-subband-lte20", "--ttis", "2"],
    "psd-lte20-pa": ["psd", "--scenario", "three-subband-lte20", "--ttis", "2", "--pa-on"],
    "throughput": ["throughput", "--scenario", "throughput-table"],
}


def _run(case: str, out: Path) -> dict[str, bytes]:
    assert main(CASES[case] + ["--out", str(out)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


def _field_difference(a: str, b: str) -> float | None:
    try:
        delta = abs(float(a) - float(b))
    except ValueError:
        return None
    return delta if math.isfinite(delta) else None


def describe_difference(got: bytes, expected: bytes) -> str:
    """The 1-based numbers of the lines that differ, and the largest
    difference between the numeric fields of those lines."""
    new, old = got.decode().splitlines(), expected.decode().splitlines()
    lines = [i + 1 for i, (a, b) in enumerate(zip(new, old)) if a != b]
    text = f"lines {lines}" if lines else "no common line differs"
    if len(new) != len(old):
        text += f"; {len(new)} lines, expected {len(old)}"
    deltas = [_field_difference(a, b)
              for i in lines for a, b in zip(new[i - 1].split(","), old[i - 1].split(","))]
    deltas = [d for d in deltas if d is not None]
    if deltas:
        text += f"; largest numeric difference {max(deltas):.3g}"
    return text


@pytest.mark.parametrize("case", sorted(CASES))
def test_csvs_match_golden(case, tmp_path):
    got = _run(case, tmp_path / case)
    expected_dir = GOLDEN / case
    expected = {p.name: p.read_bytes() for p in sorted(expected_dir.glob("*.csv"))}
    assert sorted(got) == sorted(expected)
    for name, data in got.items():
        assert data == expected[name], (
            f"{case}/{name} differs from {expected_dir / name}: "
            + describe_difference(data, expected[name]))


def test_difference_report_names_lines_and_largest_delta():
    old = b"offset,value\n1,-150.000001\n2,3\n3,nan\n"
    new = b"offset,value\n1,-150.000002\n2,3\n3,x\n"
    assert describe_difference(new, old) == "lines [2, 4]; largest numeric difference 1e-06"
    assert describe_difference(old + b"4,0\n", old) == "no common line differs; 5 lines, expected 4"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            target = GOLDEN / case
            target.mkdir(parents=True, exist_ok=True)
            old = {p.name: p.read_bytes() for p in target.glob("*.csv")}
            for stale in target.glob("*.csv"):
                stale.unlink()
            got = _run(case, Path(tmp) / case)
            for name, data in got.items():
                (target / name).write_bytes(data)
                report = ("new file" if name not in old else "unchanged" if data == old[name]
                          else describe_difference(data, old[name]))
                print(f"{case}/{name}: {report}")
            for name in sorted(set(old) - set(got)):
                print(f"{case}/{name}: removed")
