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

from .core import ConfigError

THROUGHPUT_CAVEAT = (
    "Overhead arithmetic only: coded link adaptation is not modeled, so the "
    "upper end of the reported range is not reachable by this calculator. "
    "The f-OFDM rows assume a data-tone fraction of 1.0, that is no guard "
    "tones, while 64QAM may need up to two guard tones per edge next to an "
    "asynchronous neighbour."
)


@dataclass(frozen=True)
class PsdEstimate:
    freqs_hz: np.ndarray     # strictly increasing, [-fs/2, fs/2)
    power_dbr: np.ndarray    # normalized: in-band mean == 0 dBr


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
    return welch_freqs(n, fs), np.fft.fftshift(density)


def welch_freqs(segment_size: int, sample_rate_hz: float) -> np.ndarray:
    """Bin frequencies of a `psd_welch` estimate, in Hz, DC-centered; known
    before any transform."""
    return np.fft.fftshift(np.fft.fftfreq(segment_size, 1.0 / sample_rate_hz))


def psd_welch(
    samples: np.ndarray,
    sample_rate_hz: float,
    segment_size: int = 4096,
    in_band_hz: tuple[float, float] | None = None,
) -> PsdEstimate:
    """Averaged Hann-windowed periodograms of a complex baseband stream
    sampled at `sample_rate_hz`, overlapping by half a segment.

    `in_band_hz` selects the bins whose mean defines 0 dBr; when omitted the
    whole band is used. Raises on signals shorter than two segments or with
    zero power.
    """
    if segment_size < 2:
        raise ConfigError("segment size must be at least 2")
    if len(samples) < 2 * segment_size:
        raise ConfigError(
            f"signal of {len(samples)} samples is too short for segments of {segment_size}"
        )
    freqs, density = _welch_density(samples, sample_rate_hz, segment_size)
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


def oobe_windows(
    freqs_hz: np.ndarray, band_edges_hz: tuple[float, float], offsets_hz
) -> list[tuple[float, float]]:
    """Centers of the (upper, lower) 15 kHz windows at each offset beyond the
    band edges. Raises if a window leaves the bins `freqs_hz`, which
    `welch_freqs` gives before any transform, or holds none of them, or if
    the band itself holds none."""
    lo_edge, hi_edge = band_edges_hz
    if not ((freqs_hz >= lo_edge) & (freqs_hz < hi_edge)).any():
        raise ConfigError(f"in-band interval {band_edges_hz} selects no PSD bins")
    nyquist = freqs_hz[-1] + (freqs_hz[1] - freqs_hz[0])
    windows = []
    for off in offsets_hz:
        if off <= 0:
            raise ConfigError(f"offset {off} must be positive (outside the band)")
        centers = (hi_edge + off, lo_edge - off)
        for c in centers:
            if c + OOBE_WINDOW_HZ / 2 > nyquist or c - OOBE_WINDOW_HZ / 2 < freqs_hz[0]:
                raise ConfigError(f"measurement window at {c} Hz exceeds Nyquist")
            if not (np.abs(freqs_hz - c) <= OOBE_WINDOW_HZ / 2).any():
                raise ConfigError(f"measurement window at {c} Hz holds no PSD bin")
        windows.append(centers)
    return windows


def oobe(psd: PsdEstimate, band_edges_hz: tuple[float, float], offsets_hz) -> list[float]:
    """Mean emission over a 15 kHz window at each offset beyond both edges.

    For each offset the windows centered at `upper_edge + offset` and
    `lower_edge - offset` are averaged (linear mean) and returned in dBr.
    """
    lin = np.power(10.0, psd.power_dbr / 10.0)
    out = []
    for centers in oobe_windows(psd.freqs_hz, band_edges_hz, offsets_hz):
        values = [float(np.mean(lin[np.abs(psd.freqs_hz - c) <= OOBE_WINDOW_HZ / 2]))
                  for c in centers]
        out.append(10.0 * math.log10(max(np.mean(values), 1e-300)))
    return out


# ---------------------------------------------------------------------------
# Normalized throughput
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThroughputInput:
    """One numerology in samples; its CP overhead needs no sample rate."""
    name: str
    fft_size: int
    cp_samples: int
    data_tone_fraction: float
    bandwidth_weight: float = 1.0

    @property
    def cp_overhead_fraction(self) -> float:
        return self.cp_samples / (self.fft_size + self.cp_samples)

    @property
    def normalized_throughput(self) -> float:
        return self.data_tone_fraction * (1.0 - self.cp_overhead_fraction)


@dataclass(frozen=True)
class ThroughputReport:
    fofdm_total: float
    ofdm_total: float
    gain_percent: float


def _check(entry: ThroughputInput) -> None:
    for name in ("data_tone_fraction", "bandwidth_weight"):
        if not math.isfinite(getattr(entry, name)):
            raise ConfigError(f"{name} for {entry.name!r} must be finite")
    if not 0 <= entry.cp_samples < entry.fft_size:
        raise ConfigError(f"cp_samples {entry.cp_samples} for {entry.name!r} "
                          "must lie in [0, fft_size)")
    if not 0.0 <= entry.data_tone_fraction <= 1.0:
        raise ConfigError(f"data tone fraction for {entry.name!r} must lie in [0, 1]")
    if entry.bandwidth_weight < 0:
        raise ConfigError(f"bandwidth_weight {entry.bandwidth_weight:g} for {entry.name!r} "
                          "must be nonnegative")


def normalized_throughput(
    subbands: list[ThroughputInput], baseline: ThroughputInput
) -> ThroughputReport:
    """Bandwidth-weighted overhead efficiency of the split waveform vs one baseline."""
    if not subbands:
        raise ConfigError("at least one subband is required")
    for entry in (*subbands, baseline):
        _check(entry)
    total_weight = sum(s.bandwidth_weight for s in subbands)
    if total_weight <= 0:
        raise ConfigError("bandwidth weights must sum to a positive value")
    fofdm_total = (sum(s.normalized_throughput * s.bandwidth_weight for s in subbands)
                   / total_weight)
    ofdm_total = baseline.normalized_throughput
    if ofdm_total <= 0:
        raise ConfigError("baseline throughput is zero; gain undefined")
    gain = (fofdm_total - ofdm_total) / ofdm_total * 100.0
    return ThroughputReport(fofdm_total=fofdm_total, ofdm_total=ofdm_total, gain_percent=gain)
