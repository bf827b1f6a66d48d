"""The benchmark's span tracer names library functions by dotted path
(`perfbench/spans.py`, `LAYERS`). A rename in the library that leaves such a
path dangling silently drops that layer from the traced benchmark, so the
paths are checked here, in the regular suite."""

import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from waveform_lab import cli, core, subband

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("layer", sorted(spans.LAYERS))
def test_layer_path_resolves_to_a_function(layer):
    mod_name, *attrs = spans.LAYERS[layer].split(".")
    assert mod_name in spans.MODULES
    owner = importlib.import_module(f"waveform_lab.{mod_name}")
    for attr in attrs:
        owner = getattr(owner, attr, None)
        assert owner is not None, f"{layer}: waveform_lab.{spans.LAYERS[layer]} not found"
    assert callable(owner)


def test_tracer_reads_the_call_shapes_it_counts(tmp_path):
    """The tracer's work counters read positional arguments of the library
    calls (`tx_subband`, `genie_estimates`, `_overlap_save`, `qam_demap`); a
    signature change that moves them breaks the traced benchmark."""
    runs = {
        "guardtone": ["guardtone", "--scenario", "three-subband-desk", "--guards", "0",
                      "--offsets-db", "0", "--modulations", "qpsk", "--trials", "1"],
        "psd": ["psd", "--scenario", "three-subband-desk", "--ttis", "2"],
    }
    metrics = {}
    for verb, argv in runs.items():
        with spans.Tracer() as tracer:
            assert cli.main([*argv, "--out", str(tmp_path / verb)]) == 0
        assert tracer.missing == []
        metrics[verb] = tracer.layer_metrics()
    assert metrics["guardtone"]["subband.genie_estimates.tone_taps"] > 0
    assert metrics["guardtone"]["modem.qam_demap.symbols"] > 0
    assert metrics["psd"]["filters.overlap_save.samples"] > 0
    # `_overlap_save` is called with the filter's spectrum as a 4th argument;
    # the tracer still counts one call and the input samples of every pass.
    calls, samples = _sweep_convolutions("three-subband-desk", guard=0, power_db=0.0, mod="qpsk")
    assert metrics["guardtone"]["filters.overlap_save.calls"] == calls
    assert metrics["guardtone"]["filters.overlap_save.samples"] == samples


def _sweep_convolutions(preset, guard, power_db, mod):
    """(calls, input samples) of `_overlap_save` in a 1-trial guardtone sweep
    of one guard, offset and modulation: the isolated baseline, then the
    cell. Each subband's stream is filtered on transmit, and the victim's
    composite on receive."""
    cfg = core.load_scenario(cli.resolve_scenario_path(preset)[0])
    order, backoff = subband.scenario_filter_profile(cfg)
    baseline = replace(cfg.subbands[0], modulation=mod)
    calls = samples = 0
    for subs in ([baseline], subband._sweep_geometry(cfg, guard, power_db, mod)):
        composite = 0
        for s in subs:
            fir = subband.design_subband_filter(s, cfg.sample_rate_hz, order=order,
                                                edge_backoff_tones=backoff)
            extra = subband.derive_tail_policy(fir, s.numerology).extra_cp_samples
            stream = s.numerology.symbols_per_tti * (s.numerology.samples_per_symbol + extra)
            composite = max(composite, s.timing_offset_samples + stream + len(fir.taps) - 1)
            calls, samples = calls + 1, samples + stream
        calls, samples = calls + 1, samples + composite
    return calls, samples
