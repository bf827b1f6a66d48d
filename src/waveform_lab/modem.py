"""Per-subband OFDM baseband: QAM mapping, IFFT/CP modulation, equalization.

Constellations are the tables of 3GPP TS 36.211 §7.1: bits are interleaved
onto the I and Q axes (even-index bits to I, odd to Q) and each axis is
Gray-coded over levels {+/-1}, {+/-1, +/-3}, or {+/-1 .. +/-7}, scaled to unit
average power by sqrt(2), sqrt(10), sqrt(42). Both axes read one table.

Bit vectors are `np.uint8`, one 0/1 byte per bit: `qam_demap` returns them
so, and `qam_map` reads any integer or bool vector of 0s and 1s as bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import ConfigError, Numerology

BITS_PER_SYMBOL = {"qpsk": 2, "16qam": 4, "64qam": 6}

EVM_FLOOR_DB = -100.0

# One axis' Gray levels, indexed by that axis' bits read MSB first, scaled to
# unit power as a product with 1/sqrt(norm): a division moves some 64QAM bits.
_AXIS_LEVELS = {
    mod: np.array(levels, dtype=float) * (1.0 / math.sqrt(norm))
    for mod, levels, norm in (
        ("qpsk", (1, -1), 2),
        ("16qam", (1, 3, -1, -3), 10),
        ("64qam", (3, 1, 5, 7, -3, -1, -5, -7), 42),
    )
}


def _constellation(levels: np.ndarray) -> np.ndarray:
    """Point `label`: the I level of its even bits + j * the Q level of its odd bits."""
    k = len(levels).bit_length() - 1
    bits = (np.arange(4 ** k)[:, None] >> np.arange(2 * k - 1, -1, -1)) & 1
    weights = 1 << np.arange(k - 1, -1, -1)
    return levels[bits[:, 0::2] @ weights] + 1j * levels[bits[:, 1::2] @ weights]


CONSTELLATIONS = {mod: _constellation(levels) for mod, levels in _AXIS_LEVELS.items()}


def qam_map(bits, modulation: str) -> np.ndarray:
    """Map a 0/1 bit vector to Gray-labeled unit-average-power symbols."""
    if modulation not in BITS_PER_SYMBOL:
        raise ConfigError(f"unknown modulation {modulation!r}")
    bits = np.asarray(bits)
    bps = BITS_PER_SYMBOL[modulation]
    if bits.dtype.kind not in "biu":
        raise ConfigError(f"bits must be integers or bools, got dtype {bits.dtype}")
    if bits.ndim != 1 or len(bits) % bps != 0:
        raise ConfigError(f"bit count {bits.size} is not a multiple of {bps}")
    if bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ConfigError(f"bits must be 0 or 1, got values in [{bits.min()}, {bits.max()}]")
    groups = bits.astype(np.uint8, copy=False).reshape(-1, bps)
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
    levels = _AXIS_LEVELS[modulation]
    bits = np.empty((len(symbols), 2 * k), dtype=np.uint8)
    for col, x in ((0, symbols.real), (1, symbols.imag)):
        labels = np.argmin(np.abs(x[:, None] - levels), axis=1)  # first == lowest label
        bits[:, col::2] = (labels[:, None] >> shifts) & 1
    return bits.ravel()


def _tone_bins(tones: int, fft_size: int) -> np.ndarray:
    if tones > fft_size:
        raise ConfigError(f"grid of {tones} tones does not fit fft size {fft_size}")
    return (np.arange(tones) - tones // 2) % fft_size


def ofdm_modulate(grid: np.ndarray, n: Numerology) -> np.ndarray:
    """Centered tone mapping of a (tones, symbols) grid, unitary IFFT, cyclic
    prefix; symbols concatenated.

    Built in its output, a writeable array the caller owns: each symbol's
    body holds its spectrum, is transformed in place, and lends its tail to
    the cyclic prefix."""
    tones, n_sym = grid.shape
    bins = _tone_bins(tones, n.fft_size)
    symbols = np.zeros((n_sym, n.samples_per_symbol), dtype=np.complex128)
    body = symbols[:, n.cp_samples:]
    body[:, bins] = grid.T
    np.fft.ifft(body, axis=1, norm="ortho", out=body)
    symbols[:, :n.cp_samples] = body[:, n.fft_size - n.cp_samples:]
    return symbols.reshape(-1)


def ofdm_demodulate(
    samples: np.ndarray, n: Numerology, window_advance_samples: int, tones: int
) -> np.ndarray:
    """Unitary FFT per symbol with the window advanced into the cyclic prefix;
    returns the (tones, symbols) grid, a transposed view of the spectra.

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
    return spectrum[:, _tone_bins(tones, n.fft_size)].T


def equalize(grid: np.ndarray, estimates: np.ndarray) -> np.ndarray:
    """One-tap division by per-tone genie channel estimates (shape (tones,)).

    Tones whose estimate has zero magnitude are left undivided at zero.
    """
    est = np.asarray(estimates, dtype=np.complex128)
    if est.shape != grid.shape[:1]:
        raise ConfigError(f"estimate shape {est.shape} does not match grid {grid.shape}")
    erased = np.abs(est) == 0.0
    safe = np.where(erased, 1.0, est)[:, None]
    return np.where(erased[:, None], 0.0, grid / safe)


def evm_db(reference: np.ndarray, received: np.ndarray) -> float:
    """10*log10(error power / reference power) over nonzero reference cells."""
    if reference.shape != received.shape:
        raise ConfigError("reference and received grids differ in shape")
    mask = reference != 0
    ref_power = np.sum(np.abs(reference[mask]) ** 2)
    if ref_power == 0.0:
        raise ConfigError("reference grid has no nonzero cells")
    err_power = np.sum(np.abs(received[mask] - reference[mask]) ** 2)
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
