"""Spectral and throughput measurement.

PSD estimation is Welch with Hann segments at 50% overlap, implemented in
numpy; curves are reported in dBr, normalized so the in-band mean sits at 0.
The throughput calculator is pure overhead arithmetic (data-tone fraction
times CP efficiency); it deliberately models no link adaptation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, SignalBuffer

THROUGHPUT_CAVEAT = (
    "Overhead arithmetic only: coded link adaptation is not modeled, so the "
    "upper end of the reported range is not reachable by this calculator."
)


@dataclass(frozen=True)
class PsdEstimate:
    freqs_hz: np.ndarray     # strictly increasing, [-fs/2, fs/2)
    power_dbr: np.ndarray    # normalized: in-band mean == 0 dBr

    @property
    def resolution_hz(self) -> float:
        return float(self.freqs_hz[1] - self.freqs_hz[0])


# Segments are transformed in batches of about this many samples, bounding the
# temporaries; a periodogram has the same bits in any batch.
_WELCH_BATCH_SAMPLES = 1 << 16


def _welch_density(x: np.ndarray, fs: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided Welch density in power per Hz, DC-centered: the mean of the
    periodic-Hann-windowed periodograms of `n`-sample segments of `x`,
    overlapping by `n // 2`; with the bin frequencies in Hz.

    The operation order is part of the result, since an ulp can move a
    printed value in the `tests/golden/` PSD files. The window is scaled by a
    sequential `sum` divided by `1 / fs`, |X|^2 is re^2 + im^2, and the mean
    is a sequential sum over segments divided by their count: each
    periodogram is added, in segment order, into one n-bin total. `np.sum`,
    `* fs`, `abs(X) ** 2` or a pairwise `mean` each move some bins by an ulp.
    No (bins, segments) array is held, and the bits do not depend on the
    batching.
    """
    window = (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)))[:-1]
    window = window * (1.0 / np.sqrt(sum(window ** 2) / (1.0 / fs)))
    segments = np.lib.stride_tricks.sliding_window_view(x, n)[::n - n // 2]
    total = np.zeros(n)
    batch = max(1, _WELCH_BATCH_SAMPLES // n)
    for first in range(0, len(segments), batch):
        spectra = np.fft.fft(segments[first:first + batch] * window, axis=1)
        for periodogram in spectra.real ** 2 + spectra.imag ** 2:
            total += periodogram
    density = total / len(segments)
    return np.fft.fftshift(np.fft.fftfreq(n, 1.0 / fs)), np.fft.fftshift(density)


def psd_welch(
    sig: SignalBuffer,
    segment_size: int = 4096,
    in_band_hz: tuple[float, float] | None = None,
) -> PsdEstimate:
    """Averaged Hann-windowed periodograms of a complex baseband stream,
    overlapping by half a segment.

    `in_band_hz` selects the bins whose mean defines 0 dBr; when omitted the
    whole band is used. Raises on signals shorter than two segments or with
    zero power.
    """
    if segment_size < 2:
        raise ConfigError("segment size must be at least 2")
    if len(sig) < 2 * segment_size:
        raise ConfigError(
            f"signal of {len(sig)} samples is too short for segments of {segment_size}"
        )
    freqs, density = _welch_density(sig.samples, sig.sample_rate_hz, segment_size)
    if in_band_hz is None:
        band_mask = np.ones(len(freqs), dtype=bool)
    else:
        lo, hi = in_band_hz
        band_mask = (freqs >= lo) & (freqs < hi)
        if not band_mask.any():
            raise ConfigError(f"in-band interval {in_band_hz} selects no PSD bins")
    ref = float(np.mean(density[band_mask]))
    if ref <= 0.0:
        raise ConfigError("signal has zero power; PSD normalization undefined")
    power_dbr = 10.0 * np.log10(np.maximum(density / ref, 1e-300))
    return PsdEstimate(freqs_hz=freqs, power_dbr=power_dbr)


OOBE_WINDOW_HZ = 15_000.0


def oobe(psd: PsdEstimate, band_edges_hz: tuple[float, float], offsets_hz) -> list[float]:
    """Mean emission over a 15 kHz window at each offset beyond both edges.

    For each offset the windows centered at `upper_edge + offset` and
    `lower_edge - offset` are averaged (linear mean) and returned in dBr.
    """
    lo_edge, hi_edge = band_edges_hz
    nyquist = psd.freqs_hz[-1] + psd.resolution_hz
    out = []
    lin = np.power(10.0, psd.power_dbr / 10.0)
    for off in offsets_hz:
        if off <= 0:
            raise ConfigError(f"offset {off} must be positive (outside the band)")
        centers = (hi_edge + off, lo_edge - off)
        values = []
        for c in centers:
            if c + OOBE_WINDOW_HZ / 2 > nyquist or c - OOBE_WINDOW_HZ / 2 < psd.freqs_hz[0]:
                raise ConfigError(f"measurement window at {c} Hz exceeds Nyquist")
            mask = np.abs(psd.freqs_hz - c) <= OOBE_WINDOW_HZ / 2
            values.append(float(np.mean(lin[mask])))
        out.append(10.0 * math.log10(max(np.mean(values), 1e-300)))
    return out


# ---------------------------------------------------------------------------
# Normalized throughput
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThroughputInput:
    name: str
    symbol_duration_s: float
    cp_duration_s: float
    data_tone_fraction: float
    bandwidth_weight: float = 1.0


@dataclass(frozen=True)
class SubbandThroughput:
    name: str
    data_tone_fraction: float
    cp_overhead_fraction: float
    normalized_throughput: float
    bandwidth_weight: float


@dataclass(frozen=True)
class ThroughputReport:
    subbands: tuple[SubbandThroughput, ...]
    fofdm_total: float
    ofdm_total: float
    gain_percent: float
    caveat: str = THROUGHPUT_CAVEAT


def _efficiency(entry: ThroughputInput) -> SubbandThroughput:
    for name in ("symbol_duration_s", "cp_duration_s", "data_tone_fraction",
                 "bandwidth_weight"):
        if not math.isfinite(getattr(entry, name)):
            raise ConfigError(f"{name} for {entry.name!r} must be finite")
    if entry.symbol_duration_s <= 0 or entry.cp_duration_s < 0:
        raise ConfigError(f"invalid durations for {entry.name!r}")
    if not 0.0 <= entry.data_tone_fraction <= 1.0:
        raise ConfigError(f"data tone fraction for {entry.name!r} must lie in [0, 1]")
    overhead = entry.cp_duration_s / (entry.symbol_duration_s + entry.cp_duration_s)
    return SubbandThroughput(
        name=entry.name,
        data_tone_fraction=entry.data_tone_fraction,
        cp_overhead_fraction=overhead,
        normalized_throughput=entry.data_tone_fraction * (1.0 - overhead),
        bandwidth_weight=entry.bandwidth_weight,
    )


def normalized_throughput(
    subbands: list[ThroughputInput], baseline: ThroughputInput
) -> ThroughputReport:
    """Bandwidth-weighted overhead efficiency of the split waveform vs one baseline."""
    if not subbands:
        raise ConfigError("at least one subband is required")
    per = tuple(_efficiency(e) for e in subbands)
    base = _efficiency(baseline)
    total_weight = sum(s.bandwidth_weight for s in per)
    if total_weight <= 0:
        raise ConfigError("bandwidth weights must sum to a positive value")
    fofdm_total = sum(s.normalized_throughput * s.bandwidth_weight for s in per) / total_weight
    ofdm_total = base.normalized_throughput
    if ofdm_total <= 0:
        raise ConfigError("baseline throughput is zero; gain undefined")
    gain = (fofdm_total - ofdm_total) / ofdm_total * 100.0
    return ThroughputReport(
        subbands=per,
        fofdm_total=fofdm_total,
        ofdm_total=ofdm_total,
        gain_percent=gain,
    )
