"""Soft-truncated sinc subband filters and fast convolution.

Filters are Hann-windowed sinc prototypes, optionally modulated to a
subband center, and applied to sample streams with overlap-save block
convolution. Overlap-save stages, filters and compacts its blocks in one
`(blocks, block)` array and returns a view of it. A direct O(N*L)
convolution is kept as the reference implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import ConfigError

MAX_TAPS = 4097

# Largest overlap-save block `default_block_size` picks, unless the taps need more.
MAX_BLOCK = 4096


@dataclass(frozen=True)
class FilterSpec:
    order: int                      # tap count = order + 1
    passband_width_hz: float        # two-sided width around the center
    center_offset_hz: float = 0.0


@dataclass(frozen=True)
class FirFilter:
    taps: np.ndarray
    sample_rate_hz: float
    mainlobe_samples: int           # span between the first minima around the peak tap
    # Taps spectra by block size. Not an init field, so `dataclasses.replace`
    # starts a new filter with none.
    _spectra: dict[int, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        taps = np.asarray(self.taps)
        taps = taps.copy()
        taps.flags.writeable = False
        object.__setattr__(self, "taps", taps)

    def spectrum(self, block: int) -> np.ndarray:
        """Read-only `block`-point FFT of the taps, computed once per block size."""
        spectrum = self._spectra.get(block)
        if spectrum is None:
            spectrum = np.fft.fft(self.taps, block)
            spectrum.flags.writeable = False
            self._spectra[block] = spectrum
        return spectrum


def design_windowed_sinc(spec: FilterSpec, sample_rate_hz: float) -> FirFilter:
    """Hann-windowed sinc lowpass, modulated to `center_offset_hz`, unit gain at center.

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
    taps = np.sinc(fc * m) * np.hanning(spec.order + 1)
    if spec.center_offset_hz != 0.0:
        taps = taps * np.exp(2j * np.pi * spec.center_offset_hz * m / sample_rate_hz)
    gain = np.sum(taps * np.exp(-2j * np.pi * spec.center_offset_hz * n / sample_rate_hz))
    if abs(gain) == 0.0:
        raise ConfigError("degenerate design: zero gain at passband center")
    taps = taps / gain
    if spec.center_offset_hz == 0.0:
        taps = taps.real  # conjugate-symmetric prototype

    return FirFilter(taps=taps, sample_rate_hz=sample_rate_hz,
                     mainlobe_samples=_mainlobe(np.abs(taps)))


def _mainlobe(mag: np.ndarray) -> int:
    if len(mag) == 1:
        return 1
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
        return len(mag)
    return right - left


def response_at(f: FirFilter, freqs_hz) -> np.ndarray:
    """Exact complex response sum(taps[n] * exp(-j*2*pi*f*n/fs)) at given frequencies."""
    freqs = np.atleast_1d(np.asarray(freqs_hz, dtype=float))
    n = np.arange(len(f.taps))
    return np.exp(-2j * np.pi * np.outer(freqs, n) / f.sample_rate_hz) @ f.taps


def direct_convolve(x: np.ndarray, f: FirFilter) -> np.ndarray:
    """Reference linear convolution; output length len(x) + taps - 1."""
    return np.convolve(x, f.taps)


def _overlap_save(
    x: np.ndarray, taps: np.ndarray, block: int, spectrum: np.ndarray | None = None
) -> np.ndarray:
    """Linear convolution via overlap-save blocks of `block` FFT points;
    `spectrum`, when given, is `np.fft.fft(taps, block)` (`FirFilter.spectrum`).
    Returns a view into the one array the blocks were filtered in."""
    taps = np.asarray(taps)
    tap_count = len(taps)
    if block < 2 * tap_count or block & (block - 1) != 0:
        raise ConfigError(
            f"block size {block} must be a power of two and at least 2x tap count {tap_count}"
        )
    if spectrum is None:
        spectrum = np.fft.fft(taps, block)
    elif spectrum.shape != (block,):
        raise ConfigError(f"spectrum of shape {spectrum.shape} given for {block}-point blocks")
    lead = tap_count - 1
    n_out = len(x) + lead
    step = block - lead
    n_blocks = -(-n_out // step)
    rows = np.empty((n_blocks, block), dtype=np.complex128)
    # Row i holds x[i*step - lead : i*step - lead + block], zero outside x.
    # Rows 1 to inner-1 lie wholly inside x and are copied in one go.
    inner = len(x) // step
    if inner > 1:
        item = x.strides[0]
        rows[1:inner] = as_strided(x[step - lead:], (inner - 1, block), (step * item, item),
                                   writeable=False)
    for i in (0, *range(max(inner, 1), n_blocks)):
        start = i * step - lead
        lo, hi = max(start, 0) - start, min(start + block, len(x)) - start
        row = rows[i]
        row[:lo] = 0
        row[lo:hi] = x[start + lo:start + hi]
        row[hi:] = 0
    np.fft.fft(rows, axis=1, out=rows)
    rows *= spectrum
    np.fft.ifft(rows, axis=1, out=rows)
    # Each row's `step` valid outputs move down to flat[i*step:], in row
    # order: row i's destination ends before row i+1's source begins, and
    # numpy copies a 1-D slice onto an overlapping one like memmove.
    flat = rows.reshape(-1)
    for i in range(n_blocks):
        flat[i * step:(i + 1) * step] = rows[i, lead:]
    return flat[:n_out]


def default_block_size(tap_count: int, samples: int) -> int:
    """Overlap-save block for `samples` inputs: of the powers of two from the
    smallest >= 2x `tap_count` up to MAX_BLOCK, the one that pads the
    `samples + tap_count - 1` outputs to the fewest FFT points (the larger
    block on a tie)."""
    n_out = samples + tap_count - 1
    blocks = [1 << (2 * tap_count - 1).bit_length()]
    while blocks[-1] * 2 <= MAX_BLOCK:
        blocks.append(blocks[-1] * 2)
    return min(blocks, key=lambda b: (-(-n_out // (b - (tap_count - 1))) * b, -b))
