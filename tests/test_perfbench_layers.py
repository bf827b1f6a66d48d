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
