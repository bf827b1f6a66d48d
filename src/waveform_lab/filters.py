"""Soft-truncated sinc subband filters and fast convolution.

Filters are windowed-sinc prototypes (Hann or root-raised-cosine taper),
optionally modulated to a subband center, and applied to sample streams
with overlap-save block convolution. A direct O(N*L) convolution is kept
as the reference implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import ConfigError, SignalBuffer

WINDOW_HANN = "hann"
WINDOW_RRC = "rrc"
WINDOW_EXTERNAL = "external"

MAX_TAPS = 4097

# Smallest overlap-save block: keeps short filters out of a long block loop.
MIN_BLOCK = 4096


@dataclass(frozen=True)
class FilterSpec:
    order: int                      # tap count = order + 1
    passband_width_hz: float        # two-sided width around the center
    center_offset_hz: float = 0.0
    window: str = WINDOW_HANN
    rrc_rolloff: float = 0.6


@dataclass(frozen=True)
class FirFilter:
    taps: np.ndarray
    spec: FilterSpec
    sample_rate_hz: float
    mainlobe_samples: int           # span between the first minima around the peak tap
    mainlobe_is_full: bool = False

    def __post_init__(self):
        taps = np.asarray(self.taps)
        taps = taps.copy()
        taps.flags.writeable = False
        object.__setattr__(self, "taps", taps)

    def __len__(self) -> int:
        return len(self.taps)


def _rrc_window(length: int, rolloff: float) -> np.ndarray:
    """Flat center with root-raised-cosine tapers over the outer `rolloff` fraction."""
    if not 0.0 < rolloff <= 1.0:
        raise ConfigError(f"rrc rolloff must be in (0, 1], got {rolloff}")
    half = (length - 1) / 2.0
    m = np.abs(np.arange(length) - half)
    flat = (1.0 - rolloff) * half
    w = np.ones(length)
    taper = m > flat
    if half > 0:
        t = (m[taper] - flat) / (rolloff * half)  # in (0, 1]
        w[taper] = np.sqrt(0.5 * (1.0 + np.cos(np.pi * t)))
    return w


def design_windowed_sinc(spec: FilterSpec, sample_rate_hz: float) -> FirFilter:
    """Windowed-sinc lowpass, modulated to `center_offset_hz`, unit gain at center.

    taps[n] = sinc(fc*(n-M)) * w[n] * exp(j*2*pi*fo*(n-M)/fs), fc = passband/fs,
    then divided by the complex response at the passband center.
    """
    if sample_rate_hz <= 0:
        raise ConfigError("sample rate must be positive")
    if spec.order <= 0 or spec.order % 2 != 0:
        raise ConfigError(f"filter order must be even and positive, got {spec.order}")
    if spec.order + 1 > MAX_TAPS:
        raise ConfigError(f"tap count {spec.order + 1} exceeds maximum {MAX_TAPS}")
    if spec.passband_width_hz <= 0:
        raise ConfigError("passband width must be positive")
    if spec.passband_width_hz >= sample_rate_hz:
        raise ConfigError("passband cutoff reaches Nyquist; filter is degenerate")

    n = np.arange(spec.order + 1)
    m = n - spec.order / 2.0
    fc = spec.passband_width_hz / sample_rate_hz
    kernel = np.sinc(fc * m)
    if spec.window == WINDOW_HANN:
        w = np.hanning(spec.order + 1)
    elif spec.window == WINDOW_RRC:
        w = _rrc_window(spec.order + 1, spec.rrc_rolloff)
    else:
        raise ConfigError(f"unknown window {spec.window!r}")

    taps = kernel * w
    if spec.center_offset_hz != 0.0:
        taps = taps * np.exp(2j * np.pi * spec.center_offset_hz * m / sample_rate_hz)
    gain = np.sum(taps * np.exp(-2j * np.pi * spec.center_offset_hz * n / sample_rate_hz))
    if abs(gain) == 0.0:
        raise ConfigError("degenerate design: zero gain at passband center")
    taps = taps / gain
    if spec.center_offset_hz == 0.0:
        taps = taps.real  # conjugate-symmetric prototype

    lobe, full = _mainlobe(np.abs(taps))
    return FirFilter(taps=taps, spec=spec, sample_rate_hz=sample_rate_hz,
                     mainlobe_samples=lobe, mainlobe_is_full=full)


def _mainlobe(mag: np.ndarray) -> tuple[int, bool]:
    if len(mag) == 1:
        return 1, False
    peak = int(np.argmax(mag))
    right = None
    for i in range(peak + 1, len(mag)):
        if i == len(mag) - 1 or mag[i + 1] >= mag[i]:
            right = i
            break
    left = None
    for i in range(peak - 1, -1, -1):
        if i == 0 or mag[i - 1] >= mag[i]:
            left = i
            break
    if right is None or left is None or (right == len(mag) - 1 and left == 0):
        # No interior minima: taps are monotone around the peak to both ends.
        return len(mag), True
    return right - left, False


@dataclass(frozen=True)
class FrequencyResponse:
    freqs_hz: np.ndarray
    magnitude_db: np.ndarray
    phase_rad: np.ndarray


def frequency_response(f: FirFilter, n_points: int) -> FrequencyResponse:
    """Zero-padded spectrum of the taps over [-fs/2, fs/2)."""
    if n_points < len(f.taps):
        raise ConfigError("n_points must be at least the tap count")
    spectrum = np.fft.fftshift(np.fft.fft(f.taps, n_points))
    freqs = np.fft.fftshift(np.fft.fftfreq(n_points, d=1.0 / f.sample_rate_hz))
    mag = np.abs(spectrum)
    return FrequencyResponse(
        freqs_hz=freqs,
        magnitude_db=20.0 * np.log10(np.maximum(mag, 1e-300)),
        phase_rad=np.angle(spectrum),
    )


def response_at(f: FirFilter, freqs_hz) -> np.ndarray:
    """Exact complex response sum(taps[n] * exp(-j*2*pi*f*n/fs)) at given frequencies."""
    freqs = np.atleast_1d(np.asarray(freqs_hz, dtype=float))
    n = np.arange(len(f.taps))
    return np.exp(-2j * np.pi * np.outer(freqs, n) / f.sample_rate_hz) @ f.taps


def direct_convolve(x: SignalBuffer, f: FirFilter) -> SignalBuffer:
    """Reference linear convolution; output length len(x) + taps - 1."""
    return SignalBuffer(np.convolve(x.samples, f.taps), x.sample_rate_hz)


def overlap_save_convolve(x: SignalBuffer, f: FirFilter, block_fft_size: int) -> SignalBuffer:
    """Linear convolution via overlap-save blocks of `block_fft_size`."""
    return SignalBuffer(_overlap_save(x.samples, f.taps, block_fft_size), x.sample_rate_hz)


def _overlap_save(x: np.ndarray, taps: np.ndarray, block: int) -> np.ndarray:
    taps = np.asarray(taps)
    tap_count = len(taps)
    if block < 2 * tap_count or block & (block - 1) != 0:
        raise ConfigError(
            f"block size {block} must be a power of two and at least 2x tap count {tap_count}"
        )
    n_out = len(x) + tap_count - 1
    step = block - (tap_count - 1)
    spectrum = np.fft.fft(taps, block)
    n_blocks = -(-n_out // step)
    padded = np.zeros(tap_count - 1 + n_blocks * step + block, dtype=np.complex128)
    padded[tap_count - 1:tap_count - 1 + len(x)] = x
    out = np.empty(n_blocks * step, dtype=np.complex128)
    for b in range(n_blocks):
        seg = padded[b * step:b * step + block]
        y = np.fft.ifft(np.fft.fft(seg) * spectrum)
        out[b * step:(b + 1) * step] = y[tap_count - 1:tap_count - 1 + step]
    return out[:n_out]


def default_block_size(tap_count: int) -> int:
    block = 1 << (2 * tap_count - 1).bit_length()
    return max(block, MIN_BLOCK)


# ---------------------------------------------------------------------------
# External tap files: line 1 = "taps v1 <count>", then one "re im" per line.
# ---------------------------------------------------------------------------

def export_taps(f: FirFilter, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"taps v1 {len(f.taps)}\n")
        for t in np.asarray(f.taps, dtype=np.complex128):
            fh.write(f"{t.real:.17e} {t.imag:.17e}\n")


def import_taps(path, sample_rate_hz: float) -> FirFilter:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ConfigError(f"tap file {path} is empty")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "taps" or header[1] != "v1":
        raise ConfigError(f"tap file {path} has a malformed header: {lines[0]!r}")
    try:
        count = int(header[2])
    except ValueError as e:
        raise ConfigError(f"tap file {path} has a malformed count") from e
    body = lines[1:]
    if len(body) != count:
        raise ConfigError(f"tap file {path} declares {count} taps but contains {len(body)}")
    taps = np.empty(count, dtype=np.complex128)
    for i, ln in enumerate(body):
        parts = ln.split()
        if len(parts) != 2:
            raise ConfigError(f"tap file {path} line {i + 2}: expected 're im'")
        try:
            taps[i] = complex(float(parts[0]), float(parts[1]))
        except ValueError as e:
            raise ConfigError(f"tap file {path} line {i + 2}: not numeric") from e
    if not np.all(np.isfinite(taps.view(float))):
        raise ConfigError(f"tap file {path} contains NaN or infinite taps")
    gain = np.sum(taps)  # normalize at DC; external center is unknown
    if abs(gain) == 0.0:
        raise ConfigError(f"tap file {path} has zero DC gain; cannot normalize")
    taps = taps / gain
    if np.allclose(taps.imag, 0.0, atol=0.0):
        taps = taps.real
    lobe, full = _mainlobe(np.abs(taps))
    spec = FilterSpec(order=count - 1, passband_width_hz=math.nan,
                      center_offset_hz=0.0, window=WINDOW_EXTERNAL)
    return FirFilter(taps=taps, spec=spec, sample_rate_hz=sample_rate_hz,
                     mainlobe_samples=lobe, mainlobe_is_full=full)
