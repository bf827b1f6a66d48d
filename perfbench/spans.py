"""Span tracer for the waveform_lab call chain, installed from outside the library.

`Tracer` wraps each function named in `LAYERS` for the duration of a `with`
block. The library's modules import functions by name, so a function is
wrapped on every module-level binding that holds it (for example
`waveform_lab.subband.qam_demap` as well as `waveform_lab.modem.qam_demap`);
the call chain then reaches the wrapper whichever namespace it looks in.
Leaving the block restores every original binding.

Spans are kept in memory as `[id, parent, trace, name, start, end]`, where
`trace` is the id of the enclosing `cli.main` span, so every span of one
workload run shares an identifier. Work counts are computed from the call
arguments at the same boundaries.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
import types
from collections import defaultdict
from functools import wraps

MODULES = ("cli", "core", "filters", "modem", "subband", "impairments", "metrics")

ROOT = "cli.main"

# Layer name -> "<module>.<attribute path>" of the function it wraps.
LAYERS = {
    "cli.main": "cli.main",
    "cli._write_csv": "cli._write_csv",
    "cli.ManifestWriter.finalize": "cli.ManifestWriter.finalize",
    "core.load_scenario": "core.load_scenario",
    "core.validate_scenario": "core.validate_scenario",
    "core.seeded_rng": "core.seeded_rng",
    "filters.design_windowed_sinc": "filters.design_windowed_sinc",
    "filters.overlap_save": "filters._overlap_save",
    "filters.response_at": "filters.response_at",
    "modem.qam_map": "modem.qam_map",
    "modem.qam_demap": "modem.qam_demap",
    "modem.ofdm_modulate": "modem.ofdm_modulate",
    "modem.ofdm_demodulate": "modem.ofdm_demodulate",
    "modem.equalize": "modem.equalize",
    "modem.evm_db": "modem.evm_db",
    "modem.ber": "modem.ber",
    "subband.guardtone_sweep": "subband.guardtone_sweep",
    "subband.design_subband_filter": "subband.design_subband_filter",
    "subband.derive_tail_policy": "subband.derive_tail_policy",
    "subband.payload_bits": "subband.payload_bits",
    "subband.tx_subband": "subband.tx_subband",
    "subband.tx_subband_unfiltered": "subband.tx_subband_unfiltered",
    "subband.rx_subband": "subband.rx_subband",
    "subband.genie_estimates": "subband.genie_estimates",
    "subband.assemble": "subband.assemble",
    "subband.sweep_noise": "subband._sweep_noise",
    "impairments.pa_rapp": "impairments.pa_rapp",
    "metrics.psd_welch": "metrics.psd_welch",
    "metrics.oobe": "metrics.oobe",
}

SPAN_FIELDS = (("calls", "count"), ("total_s", "s"), ("self_s", "s"))

# Work counts computed from call arguments: name -> unit.
COUNTS = {
    "filters.overlap_save.samples": "count",
    "filters.overlap_save.fft_points": "count",
    "filters.overlap_save.bytes_computed": "B",
    "filters.overlap_save.useful_ratio": "ratio",
    "filters.overlap_save.distinct_taps_ratio": "ratio",
    "subband.genie_estimates.tone_taps": "count",
    "subband.genie_estimates.distinct_ratio": "ratio",
    "subband.tx_subband.distinct_phasor_ratio": "ratio",
    "subband.design_subband_filter.distinct_ratio": "ratio",
    "modem.qam_demap.symbols": "count",
    "cli.bytes_written": "B",
}

# Bytes per FFT point: one complex128 read and one written.
FFT_POINT_BYTES = 32


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {f"{layer}.{field}": unit for layer in LAYERS for field, unit in SPAN_FIELDS}
    units.update(COUNTS)
    return units


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _count_overlap_save(counts, distinct, args, kwargs):
    x, taps, block = (_arg(args, kwargs, i, n) for i, n in enumerate(("x", "taps", "block")))
    n_out = len(x) + len(taps) - 1
    blocks = -(-n_out // (block - (len(taps) - 1)))
    points = 2 * blocks * block + block  # forward + inverse per block, plus the taps spectrum
    counts["filters.overlap_save.samples"] += len(x)
    counts["filters.overlap_save.fft_points"] += points
    counts["filters.overlap_save.bytes_computed"] += FFT_POINT_BYTES * points
    counts["overlap_save.out_samples"] += n_out
    counts["overlap_save.block_samples"] += blocks * block
    distinct["filters.overlap_save"].add(taps.tobytes())


def _count_genie(counts, distinct, args, kwargs):
    spec, fir = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "fir")
    policy = _arg(args, kwargs, 2, "policy")
    counts["subband.genie_estimates.tone_taps"] += spec.data_tones * len(fir.taps)
    distinct["subband.genie_estimates"].add((spec, fir.taps.tobytes(), policy))


def _count_tx(counts, distinct, args, kwargs):
    spec, policy = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 3, "policy")
    n = spec.numerology
    extra = policy.extra_cp_samples if policy is not None else 0
    length = n.symbols_per_tti * (n.samples_per_symbol + extra)
    distinct["subband.tx_subband"].add((spec.shift_hz, length))


def _count_design(counts, distinct, args, kwargs):
    distinct["subband.design_subband_filter"].add((args, tuple(sorted(kwargs.items()))))


def _count_demap(counts, distinct, args, kwargs):
    counts["modem.qam_demap.symbols"] += len(_arg(args, kwargs, 0, "symbols"))


def _count_write_csv(counts, distinct, args, kwargs):
    lines = _arg(args, kwargs, 1, "lines")
    counts["cli.bytes_written"] += sum(len(ln.encode("utf-8")) + 1 for ln in lines)


COUNTERS = {
    "filters.overlap_save": _count_overlap_save,
    "subband.genie_estimates": _count_genie,
    "subband.tx_subband": _count_tx,
    "subband.design_subband_filter": _count_design,
    "modem.qam_demap": _count_demap,
    "cli._write_csv": _count_write_csv,
}

# Distinct-input ratio metric -> layer whose distinct inputs it counts.
DISTINCT_RATIOS = {
    "filters.overlap_save.distinct_taps_ratio": "filters.overlap_save",
    "subband.genie_estimates.distinct_ratio": "subband.genie_estimates",
    "subband.tx_subband.distinct_phasor_ratio": "subband.tx_subband",
    "subband.design_subband_filter.distinct_ratio": "subband.design_subband_filter",
}


class Tracer:
    """Context manager that wraps `LAYERS` and records spans and counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._counts: dict[int, defaultdict] = defaultdict(lambda: defaultdict(int))
        self._distinct: dict[int, defaultdict] = defaultdict(lambda: defaultdict(set))

    def __enter__(self):
        self.missing = []
        modules = [importlib.import_module(f"waveform_lab.{m}") for m in MODULES]
        by_name = dict(zip(MODULES, modules))
        for layer, path in LAYERS.items():
            mod_name, *attrs = path.split(".")
            owner = by_name[mod_name]
            for attr in attrs[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, attrs[-1], None)
            if original is None:
                self.missing.append(layer)
                continue
            wrapped = self._wrap(layer, original, COUNTERS.get(layer))
            if isinstance(owner, types.ModuleType):
                targets = [(m, a) for m in modules for a, v in vars(m).items() if v is original]
            else:
                targets = [(owner, attrs[-1])]
            for obj, attr in targets:
                self._patches.append((obj, attr, original))
                setattr(obj, attr, wrapped)
        return self

    def __exit__(self, *exc):
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)
        return False

    def _wrap(self, layer, fn, counter):
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = len(spans)
            trace = spans[parent][2] if parent is not None else span_id
            span = [span_id, parent, trace, layer, 0.0, 0.0]
            spans.append(span)
            if counter is not None:
                counter(self._counts[trace], self._distinct[trace], args, kwargs)
            stack.append(span_id)
            span[4] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                stack.pop()

        return traced

    def per_trace(self) -> dict[int, dict[str, float]]:
        """Per-layer metrics of each trace (one `cli.main` call), keyed by trace id."""
        covered = [0.0] * len(self.spans)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        names = metric_units()
        out: dict[int, dict[str, float]] = {}
        for span_id, _, trace, layer, start, end in self.spans:
            if trace not in out:
                out[trace] = dict.fromkeys(names, 0)
            m = out[trace]
            m[f"{layer}.calls"] += 1
            m[f"{layer}.total_s"] += end - start
            m[f"{layer}.self_s"] += end - start - covered[span_id]
        for trace, m in out.items():
            counts, distinct = self._counts[trace], self._distinct[trace]
            for name in COUNTS:
                if name in counts:
                    m[name] = counts[name]
            if counts["overlap_save.block_samples"]:
                m["filters.overlap_save.useful_ratio"] = (
                    counts["overlap_save.out_samples"] / counts["overlap_save.block_samples"])
            for name, layer in DISTINCT_RATIOS.items():
                if m[f"{layer}.calls"]:
                    m[name] = len(distinct[layer]) / m[f"{layer}.calls"]
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Median over traces of every metric in `metric_units()`."""
        traces = list(self.per_trace().values())
        return {name: statistics.median(t[name] for t in traces) for name in metric_units()}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, trace, layer, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "trace": trace,
                                     "name": layer, "start_s": start, "end_s": end}) + "\n")
