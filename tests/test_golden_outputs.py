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

The rule itself is checked on this host too: the psd cases, the ones whose
bits move with the dispatch, rerun in a child process with numpy held to
its pre-AVX2 x86-64 dispatch.
"""

import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import waveform_lab
from waveform_lab.cli import main

GOLDEN = Path(__file__).parent / "golden"
DESK_MIXED = str(Path(__file__).parent / "data" / "desk-mixed.json")

CASES = {
    "guardtone-desk": ["guardtone", "--scenario", "three-subband-desk", "--guards", "0,2",
                       "--offsets-db", "0,10", "--trials", "2", "--seed", "3"],
    "guardtone-lte20": ["guardtone", "--scenario", "three-subband-lte20", "--guards", "0",
                        "--offsets-db", "10", "--modulations", "qpsk", "--trials", "1"],
    "guardtone-desk-mixed": ["guardtone", "--scenario", DESK_MIXED, "--guards", "0,2",
                             "--offsets-db", "0,10", "--trials", "2"],
    "psd-desk": ["psd", "--scenario", "three-subband-desk", "--ttis", "2"],
    "psd-desk-mixed": ["psd", "--scenario", DESK_MIXED, "--ttis", "2"],
    "psd-four-service": ["psd", "--scenario", "four-service", "--ttis", "2"],
    "psd-desk-pa": ["psd", "--scenario", "three-subband-desk", "--ttis", "2", "--pa-on"],
    "psd-lte20": ["psd", "--scenario", "three-subband-lte20", "--ttis", "2"],
    "psd-lte20-pa": ["psd", "--scenario", "three-subband-lte20", "--ttis", "2", "--pa-on"],
    "throughput": ["throughput", "--scenario", "four-service"],
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


# Narrows numpy's SIMD dispatch to the x86-64 baseline (no AVX2, no AVX-512)
# in the process it is set for; feature names a host lacks are ignored.
BASELINE_DISPATCH = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
DB_UNIT = 1e-6  # one printed unit of a dB column


def cross_host_violations(got: bytes, expected: bytes) -> list[str]:
    """Where `got` breaks the cross-host rule against `expected`: a line
    added or removed, a non-dB field that differs, or a dB field (a column
    named `*_db*`) off by more than one printed unit."""
    new, old = got.decode().splitlines(), expected.decode().splitlines()
    if len(new) != len(old):
        return [f"{len(new)} lines, expected {len(old)}"]
    header = old[0].split(",") if old else []
    out = []
    for i, (a, b) in enumerate(zip(new, old), start=1):
        fields, want = a.split(","), b.split(",")
        if len(fields) != len(want):
            out.append(f"line {i}: {len(fields)} fields, expected {len(want)}")
            continue
        for col, x, y in zip(header, fields, want):
            delta = _field_difference(x, y) if "_db" in col else None
            if x != y and (i == 1 or delta is None or delta > DB_UNIT * (1 + 1e-6)):
                out.append(f"line {i} {col}: {x} against {y}")
    return out


@pytest.mark.parametrize("case", ["psd-desk", "psd-desk-mixed", "psd-four-service",
                                  "psd-lte20"])
def test_psd_csvs_hold_the_cross_host_rule_at_baseline_dispatch(case, tmp_path):
    out = tmp_path / case
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=BASELINE_DISPATCH,
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(Path(waveform_lab.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    code = "import sys; from waveform_lab.cli import main; sys.exit(main(sys.argv[1:]))"
    run = subprocess.run([sys.executable, "-c", code, *CASES[case], "--out", str(out)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    expected_dir = GOLDEN / case
    got = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
    assert sorted(got) == sorted(p.name for p in expected_dir.glob("*.csv"))
    for name, data in got.items():
        assert cross_host_violations(data, (expected_dir / name).read_bytes()) == [], name


def test_cross_host_rule_allows_one_db_unit_and_nothing_else():
    old = b"freq_hz,power_dbr\n-100.000000,-150.000001\n0.000000,-3.000000\n"
    assert cross_host_violations(old, old) == []
    assert cross_host_violations(old.replace(b"-150.000001", b"-150.000002"), old) == []
    assert cross_host_violations(old.replace(b"-150.000001", b"-150.000003"), old) == [
        "line 2 power_dbr: -150.000003 against -150.000001"]
    assert cross_host_violations(old.replace(b"-100.000000", b"-100.000001"), old) == [
        "line 2 freq_hz: -100.000001 against -100.000000"]
    assert cross_host_violations(old + b"1,2\n", old) == ["4 lines, expected 3"]


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
