"""Per-subband OFDM baseband: QAM mapping, IFFT/CP modulation, equalization.

Constellations follow the LTE Gray convention: bits are interleaved onto the
I and Q axes (even-index bits to I, odd to Q) and each axis is Gray-coded
over levels {+/-1}, {+/-1, +/-3}, or {+/-1 .. +/-7}, scaled to unit average
power by sqrt(2), sqrt(10), sqrt(42).

Bit vectors are `np.uint8`, one 0/1 byte per bit: `qam_demap` returns them
so, and `qam_map` reads any integer 0/1 vector as bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import ConfigError, Numerology, ResourceGrid

BITS_PER_SYMBOL = {"qpsk": 2, "16qam": 4, "64qam": 6}

EVM_FLOOR_DB = -100.0


def _axis_level(bits: np.ndarray) -> np.ndarray:
    """LTE per-axis Gray mapping; `bits` has shape (n, bits_per_axis)."""
    k = bits.shape[1]
    sign = 1 - 2 * bits[:, 0]
    if k == 1:
        return sign.astype(float)
    if k == 2:
        return sign * (2 - (1 - 2 * bits[:, 1]))
    if k == 3:
        return sign * (4 - (1 - 2 * bits[:, 1]) * (2 - (1 - 2 * bits[:, 2])))
    raise ConfigError(f"unsupported bits per axis: {k}")


def _build_constellation(modulation: str) -> np.ndarray:
    bps = BITS_PER_SYMBOL[modulation]
    labels = np.arange(2 ** bps)
    bits = ((labels[:, None] >> np.arange(bps - 1, -1, -1)) & 1).astype(np.int64)
    i_level = _axis_level(bits[:, 0::2])
    q_level = _axis_level(bits[:, 1::2])
    norm = {"qpsk": 2.0, "16qam": 10.0, "64qam": 42.0}[modulation]
    return (i_level + 1j * q_level) / math.sqrt(norm)


CONSTELLATIONS = {mod: _build_constellation(mod) for mod in BITS_PER_SYMBOL}


def _per_axis_levels(modulation: str) -> tuple[np.ndarray, np.ndarray]:
    """(I, Q) amplitudes of the constellation indexed by axis label: a label's
    I bits (or its Q bits) read MSB first, the other axis' bits zero."""
    k = BITS_PER_SYMBOL[modulation] // 2
    axis = np.arange(2 ** k)
    # The axis bit of weight 2^r sits at label weight 4^r on Q, 2 * 4^r on I.
    spread = sum(((axis >> r) & 1) << (2 * r) for r in range(k))
    points = CONSTELLATIONS[modulation]
    return points[2 * spread].real, points[spread].imag


_AXIS_LEVELS = {mod: _per_axis_levels(mod) for mod in BITS_PER_SYMBOL}


def qam_map(bits, modulation: str) -> np.ndarray:
    """Map a 0/1 bit vector to Gray-labeled unit-average-power symbols."""
    if modulation not in BITS_PER_SYMBOL:
        raise ConfigError(f"unknown modulation {modulation!r}")
    bits = np.asarray(bits, dtype=np.uint8)
    bps = BITS_PER_SYMBOL[modulation]
    if bits.ndim != 1 or len(bits) % bps != 0:
        raise ConfigError(f"bit count {bits.size} is not a multiple of {bps}")
    groups = bits.reshape(-1, bps)
    labels = groups[:, 0].copy()  # MSB first; a label of at most 6 bits fits a byte
    for col in range(1, bps):
        labels <<= 1
        labels |= groups[:, col]
    return CONSTELLATIONS[modulation][labels]


def qam_demap(symbols, modulation: str) -> np.ndarray:
    """Hard minimum-distance decisions; ties resolve to the lowest label.

    The constellation is the product of two Gray-labeled PAM axes, so the
    nearest point pairs the nearest I level with the nearest Q level. A label
    interleaves the I and Q bits, so among tied points the lowest label pairs
    the lowest tied I label with the lowest tied Q label.
    """
    if modulation not in BITS_PER_SYMBOL:
        raise ConfigError(f"unknown modulation {modulation!r}")
    symbols = np.asarray(symbols, dtype=np.complex128).ravel()
    k = BITS_PER_SYMBOL[modulation] // 2
    shifts = np.arange(k - 1, -1, -1)
    bits = np.empty((len(symbols), 2 * k), dtype=np.uint8)
    for col, x, levels in zip((0, 1), (symbols.real, symbols.imag), _AXIS_LEVELS[modulation]):
        labels = np.argmin(np.abs(x[:, None] - levels), axis=1)  # first == lowest label
        bits[:, col::2] = (labels[:, None] >> shifts) & 1
    return bits.ravel()


def _tone_bins(tones: int, fft_size: int) -> np.ndarray:
    if tones > fft_size:
        raise ConfigError(f"grid of {tones} tones does not fit fft size {fft_size}")
    return (np.arange(tones) - tones // 2) % fft_size


def ofdm_modulate(grid: ResourceGrid, n: Numerology) -> np.ndarray:
    """Centered tone mapping, unitary IFFT, cyclic prefix; symbols concatenated.

    Built in its output, a writeable array the caller owns: each symbol's
    body holds its spectrum, is transformed in place, and lends its tail to
    the cyclic prefix."""
    bins = _tone_bins(grid.tones, n.fft_size)
    symbols = np.zeros((grid.symbols, n.samples_per_symbol), dtype=np.complex128)
    body = symbols[:, n.cp_samples:]
    body[:, bins] = grid.cells.T
    np.fft.ifft(body, axis=1, norm="ortho", out=body)
    symbols[:, :n.cp_samples] = body[:, n.fft_size - n.cp_samples:]
    return symbols.reshape(-1)


def ofdm_demodulate(
    samples: np.ndarray, n: Numerology, window_advance_samples: int, tones: int
) -> ResourceGrid:
    """Unitary FFT per symbol with the window advanced into the cyclic prefix.

    The advance-induced per-tone phase ramp is left in place for the
    equalizer to absorb.
    """
    if window_advance_samples < 0 or (
        window_advance_samples > 0 and window_advance_samples >= n.cp_samples
    ):
        raise ConfigError(
            f"window advance {window_advance_samples} must lie in [0, cp={n.cp_samples})"
        )
    sps = n.samples_per_symbol
    n_sym = len(samples) // sps
    if n_sym < 1:
        raise ConfigError(f"signal of {len(samples)} samples is shorter than one symbol ({sps})")
    x = np.ascontiguousarray(samples, dtype=np.complex128)[n.cp_samples - window_advance_samples:]
    # Window k starts k*sps + cp - advance into the signal and, as advance >= 0,
    # ends by (k + 1) * sps: every window lies inside the signal.
    step = x.strides[0]
    windows = as_strided(x, (n_sym, n.fft_size), (sps * step, step), writeable=False)
    spectrum = np.fft.fft(windows, axis=1, norm="ortho")
    return ResourceGrid(spectrum[:, _tone_bins(tones, n.fft_size)].T)


def equalize(grid: ResourceGrid, estimates: np.ndarray) -> ResourceGrid:
    """One-tap division by per-tone genie channel estimates (shape (tones,)).

    Tones whose estimate has zero magnitude are left undivided at zero.
    """
    est = np.asarray(estimates, dtype=np.complex128)
    if est.shape != (grid.tones,):
        raise ConfigError(
            f"estimate shape {est.shape} does not match grid {grid.cells.shape}"
        )
    erased = np.abs(est) == 0.0
    safe = np.where(erased, 1.0, est)[:, None]
    return ResourceGrid(np.where(erased[:, None], 0.0, grid.cells / safe))


def evm_db(reference: ResourceGrid, received: ResourceGrid) -> float:
    """10*log10(error power / reference power) over nonzero reference cells."""
    if reference.cells.shape != received.cells.shape:
        raise ConfigError("reference and received grids differ in shape")
    mask = reference.cells != 0
    ref_power = np.sum(np.abs(reference.cells[mask]) ** 2)
    if ref_power == 0.0:
        raise ConfigError("reference grid has no nonzero cells")
    err_power = np.sum(np.abs(received.cells[mask] - reference.cells[mask]) ** 2)
    return error_ratio_db(err_power, ref_power)


def error_ratio_db(err_power: float, ref_power: float) -> float:
    """10*log10(err_power / ref_power), floored at EVM_FLOOR_DB (also for zero error)."""
    if err_power == 0.0:
        return EVM_FLOOR_DB
    return max(10.0 * math.log10(err_power / ref_power), EVM_FLOOR_DB)


@dataclass(frozen=True)
class BerResult:
    errors: int
    total: int

    @property
    def ratio(self) -> float:
        return self.errors / self.total if self.total else 0.0


def ber(tx_bits, rx_bits) -> BerResult:
    """Bit errors between two 0/1 vectors, compared in their own dtypes."""
    tx = np.asarray(tx_bits)
    rx = np.asarray(rx_bits)
    if tx.shape != rx.shape:
        raise ConfigError(f"bit vectors differ in length: {tx.size} vs {rx.size}")
    return BerResult(errors=int(np.count_nonzero(tx != rx)), total=int(tx.size))
