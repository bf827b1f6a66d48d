"""The benchmark's span tracer names library functions by dotted path
(`perfbench/spans.py`, `LAYERS`). A rename in the library that leaves such a
path dangling silently drops that layer from the traced benchmark, so the
paths are checked here, in the regular suite."""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
    cli = importlib.import_module("waveform_lab.cli")  # `cli.main` is looked up traced

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
