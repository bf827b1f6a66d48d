"""Tests of the benchmark harness itself.

Run from the repository root: PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import run
import spans
from waveform_lab import cli, subband
from waveform_lab.core import load_scenario

# Same verbs and scenarios as the benchmark workloads, at a size a test can afford.
SMALL_ARGV = {
    "sweep-desk": ["guardtone", "--scenario", "three-subband-desk", "--guards", "0,2",
                   "--offsets-db", "0,10", "--modulations", "qpsk", "--trials", "1"],
    "sweep-lte20": ["guardtone", "--scenario", "three-subband-lte20", "--guards", "0",
                    "--offsets-db", "10", "--modulations", "qpsk", "--trials", "1"],
    "psd-long": ["psd", "--scenario", "three-subband-desk", "--pa-on", "--ttis", "2"],
}
PSD_ONLY = {"subband.tx_subband_unfiltered", "impairments.pa_rapp",
            "metrics.psd_welch", "metrics.oobe"}
SWEEP_ONLY = {"subband.guardtone_sweep", "subband.rx_subband", "subband.genie_estimates",
              "subband.sweep_noise", "filters.response_at", "modem.qam_demap",
              "modem.ofdm_demodulate", "modem.equalize", "modem.evm_db", "modem.ber"}
EXPECTED_LAYERS = {
    "sweep-desk": set(spans.LAYERS) - PSD_ONLY,
    "sweep-lte20": set(spans.LAYERS) - PSD_ONLY,
    "psd-long": set(spans.LAYERS) - SWEEP_ONLY,
}
CALLS_PER_WORKLOAD = 2


def _all_bindings():
    objs = [getattr(cli, "ManifestWriter")]
    objs += [sys.modules[f"waveform_lab.{m}"] for m in spans.MODULES]
    return {(id(o), k): v for o in objs for k, v in list(vars(o).items())}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Workload name -> Tracer holding CALLS_PER_WORKLOAD traced calls."""
    out = {}
    for name, argv in SMALL_ARGV.items():
        tracer = spans.Tracer()
        target = tmp_path_factory.mktemp(name)
        for _ in range(CALLS_PER_WORKLOAD):
            with tracer:
                assert cli.main([*argv, "--out", str(target)]) == 0
        out[name] = tracer
    return out


def test_every_wrapper_is_removed_after_the_traced_run(tmp_path):
    before = _all_bindings()
    demap, finalize = subband.qam_demap, cli.ManifestWriter.finalize
    with spans.Tracer() as tracer:
        assert subband.qam_demap.__wrapped__ is demap
        assert cli.ManifestWriter.finalize.__wrapped__ is finalize
        cli.main([*SMALL_ARGV["sweep-desk"], "--out", str(tmp_path)])
    after = _all_bindings()
    assert tracer.spans and not tracer.missing
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_wrappers_are_removed_when_the_call_raises():
    before = _all_bindings()
    with pytest.raises(SystemExit):
        with spans.Tracer():
            cli.main(["guardtone", "--no-such-flag"])
    after = _all_bindings()
    assert all(after[k] is v for k, v in before.items())


@pytest.mark.parametrize("name", sorted(SMALL_ARGV))
def test_spans_nest_under_cli_main(traced, name):
    tracer = traced[name]
    by_id = {s[0]: s for s in tracer.spans}
    roots = [s for s in tracer.spans if s[1] is None]
    assert len(roots) == CALLS_PER_WORKLOAD
    assert all(s[3] == spans.ROOT for s in roots)
    for span_id, parent, trace, _, start, end in tracer.spans:
        node = by_id[span_id]
        while node[1] is not None:
            node = by_id[node[1]]
        assert trace == node[0]
        if parent is not None:
            assert by_id[parent][4] <= start <= end <= by_id[parent][5]


@pytest.mark.parametrize("name", sorted(SMALL_ARGV))
def test_self_time_sum_within_root_total(traced, name):
    for m in traced[name].per_trace().values():
        self_sum = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
        assert 0 < self_sum <= m[f"{spans.ROOT}.total_s"] + 1e-9
        assert all(m[f"{layer}.self_s"] >= -1e-9 for layer in spans.LAYERS)


@pytest.mark.parametrize("name", sorted(SMALL_ARGV))
def test_every_layer_the_workload_calls_is_emitted(traced, name):
    metrics = traced[name].layer_metrics()
    assert set(metrics) == set(spans.metric_units())
    called = {layer for layer in spans.LAYERS if metrics[f"{layer}.calls"] > 0}
    assert called == EXPECTED_LAYERS[name]
    assert all(metrics[f"{layer}.total_s"] > 0 for layer in called)
    for count in spans.COUNTS:
        layer = count.rsplit(".", 1)[0]
        if layer in called or layer == "cli":  # cli.bytes_written counts cli._write_csv
            assert metrics[count] > 0, count


@pytest.mark.parametrize("name", sorted(SMALL_ARGV))
def test_computed_counts_repeat_exactly(traced, name):
    first, second = traced[name].per_trace().values()
    for count in spans.COUNTS:
        assert first[count] == second[count], count
    for layer in spans.LAYERS:
        assert first[f"{layer}.calls"] == second[f"{layer}.calls"], layer


def test_overlap_save_counts_match_the_block_arithmetic(tmp_path):
    x = np.ones(10_000, dtype=complex)
    taps = np.ones(257)
    with spans.Tracer() as tracer:
        subband._overlap_save(x, taps, 4096)
    (m,) = tracer.per_trace().values()
    blocks = 3  # ceil((10_000 + 256) / (4096 - 256))
    assert m["filters.overlap_save.samples"] == 10_000
    assert m["filters.overlap_save.fft_points"] == 2 * blocks * 4096 + 4096
    assert m["filters.overlap_save.bytes_computed"] == 32 * (2 * blocks * 4096 + 4096)
    assert m["filters.overlap_save.useful_ratio"] == pytest.approx(10_256 / (blocks * 4096))


def test_benchmark_json_names_every_metric():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert per_layer == {**spans.metric_units(), "trace.overhead_s": "s"}
    assert {m["name"] for m in doc["end_to_end"]} == {
        "setup_s", "wall_s", "samples_per_s", "peak_rss_mb"}


def _stream_lengths(subs, fs, order, backoff, filtered=True):
    out = []
    for s in subs:
        fir = subband.design_subband_filter(s, fs, order=order, edge_backoff_tones=backoff)
        policy = subband.derive_tail_policy(fir, s.numerology, subband.DEFAULT_TAIL_THRESHOLD)
        n = subband._extended_numerology(s, policy)
        tail = len(fir.taps) - 1 if filtered else 0
        out.append((s.timing_offset_samples, n.symbols_per_tti * n.samples_per_symbol + tail))
    return out


def _work_size(argv):
    """(evaluations, composite samples, working-set bytes) of one CLI call."""
    args = cli.build_parser().parse_args([*argv, "--out", "unused"])
    base = load_scenario(cli.resolve_scenario_path(args.scenario)[0])
    fs = base.sample_rate_hz
    order, backoff = subband.scenario_filter_profile(base)
    if args.command == "psd":
        long = cli._scale_ttis(base, args.ttis)
        filt = _stream_lengths(long.subbands, fs, order, backoff)
        plain = _stream_lengths(long.subbands, fs, order, backoff, filtered=False)
        comps = [max(o + n for o, n in filt), max(o + n for o, n in plain)]
        streams = sum(n for _, n in filt + plain)
        return 0, sum(comps), 16 * (streams + 2 * sum(comps))
    mods = args.modulations.split(",")
    cells = [[replace(base.subbands[0], modulation=m, power_offset_db=0.0,
                      timing_offset_samples=0)] for m in mods]
    cells += [subband._sweep_geometry(base, int(g), float(p), m)
              for g in args.guards.split(",") for p in args.offsets_db.split(",")
              for m in mods]
    samples, working_set = 0, 0
    for subs in cells:
        lengths = _stream_lengths(subs, fs, order, backoff)
        comp = max(o + n for o, n in lengths)
        samples += args.trials * comp
        working_set = max(working_set, 16 * (sum(n for _, n in lengths) + 3 * comp))
    return args.trials * len(cells), samples, working_set


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_sizes_match_the_scenario_geometry(name):
    w = run.WORKLOADS[name]
    assert _work_size(w.argv) == (w.evaluations, w.samples, w.working_set_bytes)


def test_compare_csv_tolerances():
    ref = "guard_tones,modulation,evm_db_edge,ber\n0,qpsk,-17.000000,0.001\n"
    assert run.compare_csv(ref, ref, exact_measured=True) is None
    near = ref.replace("-17.000000", "-17.000900")
    far = ref.replace("-17.000000", "-17.002000")
    other_ber = ref.replace("0.001", "0.002")
    assert run.compare_csv(near, ref, exact_measured=True) is None
    assert run.compare_csv(far, ref, exact_measured=True) is not None
    assert run.compare_csv(other_ber, ref, exact_measured=True) is not None
    assert run.compare_csv(far, ref, exact_measured=False) is None
    assert run.compare_csv(other_ber, ref, exact_measured=False) is None
    assert run.compare_csv(ref.replace("qpsk", "16qam"), ref, exact_measured=False)
    assert run.compare_csv(ref.replace("0.001", "nan"), ref, exact_measured=False)
    assert run.compare_csv(ref + "1,qpsk,-17.0,0.0\n", ref, exact_measured=False)


def test_runner_checks_reference_and_repeat(tmp_path, monkeypatch):
    argv = SMALL_ARGV["sweep-desk"]
    reference = tmp_path / "reference"
    assert cli.main([*argv, "--out", str(reference / "tiny"), "--seed", "1"]) == 0
    monkeypatch.setattr(run, "WORKLOADS", {"tiny": run.Workload(tuple(argv), 0, 1, 1, ())})
    monkeypatch.setattr(run, "REFERENCE", reference)

    runner = run.Runner(cli, "tiny", 1, tmp_path / "work")
    runner.call()
    runner.call()
    assert (runner.attempted, runner.failed) == (2, 0)

    other_seed = run.Runner(cli, "tiny", 7, tmp_path / "work7")
    other_seed.call()
    assert other_seed.failed == 0

    sweep = reference / "tiny" / "guardtone_sweep.csv"
    rows = sweep.read_text().splitlines()
    cols = rows[1].split(",")
    cols[-1] = "0.5"  # ber
    sweep.write_text("\n".join([rows[0], ",".join(cols), *rows[2:]]) + "\n")
    broken = run.Runner(cli, "tiny", 1, tmp_path / "work-broken")
    broken.call()
    assert broken.failed == 1


def test_exits_nonzero_without_a_source_tree(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
