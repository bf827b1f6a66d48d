"""End-to-end benchmark of the waveform-lab batch CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-desk --seed 1 --seconds 30 --trace 0

One run, in a single process:

1. untraced runs only: times `SETUP_REPEATS` fresh interpreters that import
   `waveform_lab.cli` and load and validate the workload's scenario
   (`setup_s`, median);
2. makes one small warm-up call of `waveform_lab.cli.main(argv)` (same verb
   and scenario, fewer trials or TTIs), so lazy set-up is done before timing;
3. repeats the call for at most `--seconds` seconds: a call is started only
   if the previous one says it will end in time (`wall_s`, median per call).
   With `--trace 1` it alternates untraced and traced calls instead and
   reports the per-layer metrics of `spans.Tracer`, plus the tracing overhead;
4. checks every call's CSVs: at the reference seed they must match
   `reference/<workload>/` (measured dB columns within `DB_TOLERANCE`,
   everything else exactly); at any seed every column that does not depend
   on the seed must match, and every call must write the same bytes as the
   first one;
5. runs the library's built-in oracle suite (`run_selftest`).

Human-readable lines go to stdout, and the last line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. Outputs, the recorded
environment and the spans of a traced run are written under `.perfbench_work/`.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
WORK = ROOT / ".perfbench_work"

REFERENCE_SEED = 1
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60
DB_TOLERANCE = 1e-3
# Columns whose values are measured (and so depend on the seed); all other
# columns are inputs or grid coordinates and must match the reference exactly.
DB_COLUMNS = frozenset({"evm_db_edge", "evm_db_inner", "oobe_dbr", "power_dbr"})
MEASURED_COLUMNS = DB_COLUMNS | {"ber"}


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    evaluations: int        # victim tx->rx trial evaluations per call (0: not a sweep)
    samples: int            # composite output samples generated per call
    working_set_bytes: int  # complex128 streams held by one trial (psd: by the whole run)
    warmup: tuple[str, ...]  # arguments appended for the warm-up call


# The sizes below are derived from the scenarios' geometry (stream length =
# symbols x extended-CP symbol length + taps - 1; composite = latest offset
# + length); test_perfbench.py recomputes them from the library.
# sweep-desk runs the CLI default of 50 trials rather than the acceptance
# fixture's 200: a 200-trial call takes ~25-40 s on a 2-core host, and
# several timed calls per run on every workload would not fit the run budget.
# sweep-lte20 runs 10 trials (~6.5 s a call), so a run holds 4 calls, not 2.
# psd-long runs 100 TTIs (~0.9 s a call) rather than 400 (~4 s): at 400 every
# whole-stream temporary exceeds glibc's 32 MB mmap ceiling, so each call
# page-faults ~700 MB afresh and its time tracks the host's memory traffic
# (+12% beside one memory-bound neighbour, against +2% at 100 TTIs); and a
# run then holds 5 calls instead of 30.
WORKLOADS = {
    "sweep-desk": Workload(
        argv=("guardtone", "--scenario", "three-subband-desk", "--guards", "0,1,2",
              "--offsets-db", "0,10", "--modulations", "qpsk,16qam,64qam",
              "--snr-db", "30", "--trials", "50"),
        evaluations=1050, samples=8_817_600, working_set_bytes=787_392,
        warmup=("--trials", "1")),
    "sweep-lte20": Workload(
        argv=("guardtone", "--scenario", "three-subband-lte20", "--guards", "0,1,2",
              "--offsets-db", "0,10", "--modulations", "qpsk,16qam,64qam",
              "--snr-db", "30", "--trials", "10"),
        evaluations=210, samples=7_054_080, working_set_bytes=3_149_568,
        warmup=("--trials", "1")),
    "psd-long": Workload(
        argv=("psd", "--scenario", "three-subband-desk", "--pa-on", "--ttis", "100"),
        evaluations=0, samples=1_535_752, working_set_bytes=122_807_552,
        warmup=("--ttis", "8")),
}

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
from waveform_lab import cli
from waveform_lab.core import load_scenario, validate_scenario
cfg = load_scenario(cli.resolve_scenario_path(sys.argv[2])[0])
if not validate_scenario(cfg).ok:
    sys.exit("scenario failed validation")
print(time.monotonic())
"""


def measure_setup(scenario: str) -> float:
    """Seconds from spawning a fresh interpreter to the scenario validated."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), scenario],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1]) - start


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def compare_csv(got: str, ref: str, exact_measured: bool) -> str | None:
    """None when `got` matches `ref`, else the first difference.

    Measured columns must be finite; with `exact_measured` they must also
    match the reference (dB columns within `DB_TOLERANCE`, BER exactly).
    """
    got_rows, ref_rows = got.splitlines(), ref.splitlines()
    if len(got_rows) != len(ref_rows) or got_rows[:1] != ref_rows[:1]:
        return f"header or row count differs ({len(got_rows)} vs {len(ref_rows)} lines)"
    header = ref_rows[0].split(",")
    for line, (g, r) in enumerate(zip(got_rows[1:], ref_rows[1:]), start=2):
        for col, a, b in zip(header, g.split(","), r.split(",")):
            if a == b:
                continue
            if col not in MEASURED_COLUMNS:
                return f"line {line} column {col}: {a} != {b}"
            if not math.isfinite(float(a)):
                return f"line {line} column {col}: {a} is not finite"
            if exact_measured and (col not in DB_COLUMNS
                                   or abs(float(a) - float(b)) > DB_TOLERANCE):
                return f"line {line} column {col}: {a} != {b}"
    return None


def check_outputs(out_dir: Path, reference_dir: Path, exact_measured: bool) -> list[str]:
    got = {p.name for p in out_dir.glob("*.csv")}
    ref = {p.name for p in reference_dir.glob("*.csv")}
    if got != ref:
        return [f"CSV files {sorted(got)} != reference {sorted(ref)}"]
    problems = []
    for name in sorted(ref):
        diff = compare_csv((out_dir / name).read_text(encoding="utf-8"),
                           (reference_dir / name).read_text(encoding="utf-8"),
                           exact_measured)
        if diff is not None:
            problems.append(f"{name}: {diff}")
    return problems


def csv_digests(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}


class Runner:
    """Calls the CLI on one workload and checks every call's outputs."""

    def __init__(self, cli, name: str, seed: int, work_dir: Path):
        self.cli = cli
        self.name = name
        self.seed = seed
        self.out_dir = work_dir / "out"
        self.argv = [*WORKLOADS[name].argv, "--out", str(self.out_dir), "--seed", str(seed)]
        self.attempted = 0
        self.failed = 0
        self._first: dict[str, str] | None = None

    def call(self, extra: tuple[str, ...] = ()) -> float:
        """One `cli.main(argv + extra)` call; returns its wall time in seconds.

        Outputs are checked only for the workload's own arguments (no `extra`).
        """
        self.attempted += 1
        shutil.rmtree(self.out_dir, ignore_errors=True)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = self.cli.main([*self.argv, *extra])
                wall = time.perf_counter() - start
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return math.nan
        if code != 0:
            problems = [f"exit code {code}"]
        else:
            problems = [] if extra else self._check()
        for p in problems:
            print(f"check failed ({self.name}, seed {self.seed}): {p}", file=sys.stderr)
        self.failed += bool(problems)
        return wall

    def _check(self) -> list[str]:
        digests = csv_digests(self.out_dir)
        if self._first is None:
            problems = check_outputs(self.out_dir, REFERENCE / self.name,
                                     exact_measured=self.seed == REFERENCE_SEED)
            if not problems:
                self._first = digests
            return problems
        if digests != self._first:
            return ["CSVs differ from the first call of this run"]
        return []


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _blas_threads() -> int | None:
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _cache_bytes() -> dict[str, int]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction" and size.endswith("K"):
            sizes[f"L{level}"] = int(size[:-1]) * 1024
    return sizes


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(workload: Workload) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = _cache_bytes()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "cache_bytes": caches,
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "working_set_bytes": workload.working_set_bytes,
        "working_set_over_l2": (workload.working_set_bytes / caches["L2"]
                                if "L2" in caches else None),
    }


# ---------------------------------------------------------------------------
# Run
# ---------------------------------------------------------------------------

def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _median_wall(walls: list[float], what: str) -> float:
    timed = [w for w in walls if not math.isnan(w)]
    if not timed:
        raise SystemExit(f"error: every {what} call raised; nothing to report")
    return statistics.median(timed)


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from waveform_lab import cli
    from spans import Tracer, metric_units

    workload = WORKLOADS[name]
    work_dir = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)

    scenario = workload.argv[workload.argv.index("--scenario") + 1]
    setup = [] if trace else [measure_setup(scenario) for _ in range(SETUP_REPEATS)]
    runner = Runner(cli, name, seed, work_dir)
    runner.call(workload.warmup)

    tracer = Tracer() if trace else None
    untraced, traced = [], []
    start = time.monotonic()
    step = 0.0  # length of the last iteration, taken as that of the next one
    while not untraced or time.monotonic() - start + step <= seconds:
        step_start = time.monotonic()
        untraced.append(runner.call())
        if tracer is not None:
            with tracer:
                traced.append(runner.call())
        step = time.monotonic() - step_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    selftest = cli.run_selftest(verbose=False)
    selftest_failed = [check for check, passed, _ in selftest if not passed]

    lines = [f"workload {name}  seed {seed}  trace {int(trace)}  "
             f"calls {runner.attempted} (1 warm-up)"]
    wall_s = _median_wall(untraced, "untraced")
    if trace:
        metrics = {k: _metric(v, metric_units()[k]) for k, v in tracer.layer_metrics().items()}
        traced_wall_s = _median_wall(traced, "traced")
        overhead = traced_wall_s - wall_s
        metrics["trace.overhead_s"] = _metric(overhead, "s")
        tracer.write_spans(work_dir / "spans.jsonl")
        lines += [f"{'layer':<32}{'calls':>9}{'total_s':>10}{'self_s':>10}{'ms/call':>10}"]
        for layer in sorted({k.rsplit(".", 1)[0] for k in metrics if k.endswith(".calls")}):
            calls = metrics[f"{layer}.calls"]["value"]
            if calls:
                total = metrics[f"{layer}.total_s"]["value"]
                lines.append(f"{layer:<32}{calls:>9.0f}{total:>10.3f}"
                             f"{metrics[f'{layer}.self_s']['value']:>10.3f}"
                             f"{1e3 * total / calls:>10.3f}")
        lines += [f"{k:<45} {v['value']:.6g} {v['unit']} (computed)"
                  for k, v in metrics.items() if not k.endswith(("calls", "_s"))]
        lines.append(f"trace.overhead_s {overhead:.4f} s "
                     f"(traced {traced_wall_s:.4f} - untraced {wall_s:.4f})")
        if tracer.missing:
            lines.append(f"not found, not traced: {', '.join(tracer.missing)}")
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "wall_s": _metric(wall_s, "s"),
            "samples_per_s": _metric(workload.samples / wall_s, "1/s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
        lines += [f"{k:<14} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
        if workload.evaluations:
            lines.append(f"{'trials_per_s':<14} {workload.evaluations / wall_s:.6g} 1/s")
        lines.append(f"(setup: median of {len(setup)}; wall: median of {len(untraced)} calls)")
    lines.append(f"{'failed_ratio':<14} {runner.failed / runner.attempted:.6g} ratio "
                 f"({runner.failed}/{runner.attempted} calls)")
    lines.append("selftest " + ("FAILED: " + ", ".join(selftest_failed)
                                if selftest_failed else "passed"))

    result = {
        "correct": runner.failed == 0 and not selftest_failed,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    env = environment(workload)
    record = {"workload": name, "seed": seed, "trace": int(trace), "environment": env,
              "setup_s": setup, "wall_s": untraced, "traced_wall_s": traced, **result}
    (work_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    print("\n".join(lines))
    print("env " + json.dumps(env, sort_keys=True))
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="waveform-lab end-to-end benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=REFERENCE_SEED,
                   help="passed to the CLI's --seed (reference outputs exist for seed 1)")
    p.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "waveform_lab" / "cli.py").is_file():
        print(f"error: no waveform_lab source tree at {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread: OpenBLAS's idle worker spins on the second core during
    # the sweeps (process CPU ~2x wall) without shortening any call, and a
    # busy second core only adds to the host noise. Set before numpy loads;
    # the set-up interpreters inherit it.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
