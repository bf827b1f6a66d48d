"""FIR design, analysis, and fast convolution."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import as_strided

from waveform_lab.core import ConfigError, seeded_rng
from waveform_lab.filters import (
    MAX_BLOCK,
    _overlap_save,
    default_block_size,
    design_windowed_sinc,
    direct_convolve,
    response_at,
)

FS = 30.72e6


def _design(order=1024, passband=720e3, center=0.0, fs=FS):
    return design_windowed_sinc(order, passband, fs, center)


def _dense_response_db(f, n_points):
    """(freqs_hz, magnitude_db) of the zero-padded tap spectrum, in FFT order."""
    freqs = np.fft.fftfreq(n_points, d=1.0 / f.sample_rate_hz)
    mag = np.abs(np.fft.fft(f.taps, n_points))
    return freqs, 20.0 * np.log10(np.maximum(mag, 1e-300))


# ---------------------------------------------------------------------------
# Design
# ---------------------------------------------------------------------------

def test_prototype_is_real_and_symmetric():
    f = _design()
    assert len(f.taps) == 1025
    assert not np.iscomplexobj(f.taps)
    assert np.allclose(f.taps, f.taps[::-1], atol=1e-15)


def test_end_taps_vanish():
    f = _design()
    mid = abs(f.taps[len(f.taps) // 2])
    assert abs(f.taps[0]) < mid * 1e-2
    assert abs(f.taps[-1]) < mid * 1e-2
    # Hann window is exactly zero at the endpoints.
    assert f.taps[0] == 0.0
    assert f.taps[-1] == 0.0


def test_center_gain_normalized():
    for center in (0.0, 1.2e6, -3e6):
        f = _design(center=center)
        gain = response_at(f, np.array([center]))[0]
        assert abs(gain) == pytest.approx(1.0, abs=1e-12)


def test_shifted_design_is_modulated_prototype():
    base = _design()
    shifted = _design(center=2e6)
    m = np.arange(1025) - 512
    expected = base.taps * np.exp(2j * np.pi * 2e6 * m / FS)
    expected /= np.sum(expected * np.exp(-2j * np.pi * 2e6 * np.arange(1025) / FS))
    assert np.allclose(shifted.taps, expected, atol=1e-12)


def test_degenerate_allpass_rejected():
    with pytest.raises(ConfigError):
        _design(passband=FS)


def test_odd_order_rejected():
    with pytest.raises(ConfigError):
        _design(order=1023)


def test_tap_budget_enforced():
    with pytest.raises(ConfigError):
        design_windowed_sinc(4098, 720e3, FS)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def test_mainlobe_tracks_sinc_zeros():
    # First sinc zeros at +-1/fc; fc = 1/64 gives a ~128-sample mainlobe.
    f = _design(order=1024, passband=FS / 64)
    assert f.mainlobe_samples == pytest.approx(128, abs=4)


def test_wideband_mainlobe_is_narrow():
    f = _design(order=256, passband=FS / 4)
    assert f.mainlobe_samples == pytest.approx(8, abs=2)


def test_monotone_taps_flagged_full():
    # A 720 kHz passband over only 17 taps: no interior minima.
    f = _design(order=16, passband=720e3)
    assert f.mainlobe_samples == len(f.taps)


def test_stopband_floor():
    f = _design()
    freqs, mag_db = _dense_response_db(f, 8192)
    transition = 4 * FS / len(f.taps)
    far = np.abs(freqs) > (720e3 / 2 + 2 * transition)
    assert np.max(mag_db[far]) <= -40.0


def test_passband_fidelity_and_rejection():
    f = _design()
    transition = 4 * FS / len(f.taps)
    center = abs(response_at(f, np.array([0.0]))[0])
    assert 20 * np.log10(center) == pytest.approx(0.0, abs=0.1)
    outside = abs(response_at(f, np.array([720e3 / 2 + 3 * transition]))[0])
    assert 20 * np.log10(outside) < -40.0


def test_response_at_matches_dense_response():
    f = _design(center=1.5e6)
    freqs, mag_db = _dense_response_db(f, 4096)
    k = int(np.argmin(np.abs(freqs - (1.5e6 + 200e3))))
    direct = response_at(f, np.array([freqs[k]]))[0]
    assert 20 * np.log10(abs(direct)) == pytest.approx(mag_db[k], abs=1e-6)


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

def test_overlap_save_matches_direct():
    rng = seeded_rng(11, "filters/os")
    for _ in range(10):
        n = int(rng.integers(100, 5000))
        order = int(rng.integers(4, 300)) * 2
        f = _design(order=order, passband=float(rng.uniform(0.02, 0.4)) * FS)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ref = direct_convolve(x, f)
        got = _overlap_save(x, f.taps, default_block_size(len(f.taps), n))
        assert len(got) == n + len(f.taps) - 1
        err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
        assert err < 1e-9


def test_overlap_save_block_size_invariance():
    rng = seeded_rng(12, "filters/block")
    f = _design(order=128, passband=2e6)
    x = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
    outs = [_overlap_save(x, f.taps, block) for block in (512, 1024, 4096, 16384)]
    for other in outs[1:]:
        assert np.allclose(outs[0], other, atol=1e-9)


def test_overlap_save_rejects_small_block():
    f = _design(order=128, passband=2e6)
    with pytest.raises(ConfigError):
        _overlap_save(np.ones(512, dtype=complex), f.taps, 128)  # < 2x tap count


def test_overlap_save_rejects_a_spectrum_of_the_wrong_shape():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    taps = rng.standard_normal(5)
    for spectrum in (np.array([1 + 0j]), np.fft.fft(taps, 32), np.fft.fft(taps, 16)[None, :]):
        with pytest.raises(ConfigError, match="spectrum"):
            _overlap_save(x, taps, 16, spectrum)


def _staged_overlap_save(x, taps, block):
    """Reference overlap-save: the blocks are read from a zero-padded copy of
    `x`, and the valid outputs are gathered into a new array."""
    tap_count = len(taps)
    n_out = len(x) + tap_count - 1
    step = block - (tap_count - 1)
    n_blocks = -(-n_out // step)
    padded = np.zeros((n_blocks - 1) * step + block, dtype=np.complex128)
    padded[tap_count - 1:tap_count - 1 + len(x)] = x
    item = padded.itemsize
    blocks = as_strided(padded, (n_blocks, block), (step * item, item), writeable=False)
    spectra = np.fft.fft(blocks, axis=1)
    spectra *= np.fft.fft(taps, block)
    np.fft.ifft(spectra, axis=1, out=spectra)
    return spectra[:, tap_count - 1:tap_count - 1 + step].reshape(-1)[:n_out]


def _assert_bitwise_staged(x, taps, block):
    got = _overlap_save(x, taps, block)
    ref = _staged_overlap_save(x, taps, block)
    assert got.shape == ref.shape
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("length, tap_count, block", [
    (1, 17, 64),            # one sample, one block
    (32, 17, 64),           # the outputs fill one block's 48 valid samples
    (47, 17, 64),           # shorter than block - taps + 1: two blocks
    (3 * 48 - 16, 17, 64),  # the outputs end exactly on a block boundary
    (96, 17, 64),           # the input ends exactly on a step: the last row's body is zeros
    (48, 17, 64),
    (500, 1, 2),            # a one-tap filter: nothing overlaps
    (7672, 257, 2048),      # desk sweep: transmit streams, then the cell's composite
    (8476, 257, 2048),
    (30_688, 1025, 4096),   # LTE-20 sweep
    (33_904, 1025, 4096),
    (76_720, 257, 4096),    # a 10-TTI desk psd chunk
])
def test_overlap_save_is_bitwise_the_staged_kernel(length, tap_count, block):
    rng = np.random.default_rng(length)
    taps = rng.standard_normal(tap_count) + 1j * rng.standard_normal(tap_count)
    x = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    _assert_bitwise_staged(x, taps, block)


def test_overlap_save_reads_a_strided_input():
    rng = np.random.default_rng(3)
    taps = rng.standard_normal(257)
    x = rng.standard_normal(2 * 9000) + 1j * rng.standard_normal(2 * 9000)
    _assert_bitwise_staged(x[::2], taps, 2048)
    _assert_bitwise_staged(x[::-3], taps, 1024)


@settings(max_examples=60, deadline=None)
@given(length=st.integers(1, 20_000), half_order=st.integers(0, 512),
       extra_doublings=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_overlap_save_is_bitwise_the_staged_kernel_for_any_legal_block(
        length, half_order, extra_doublings, seed):
    rng = np.random.default_rng(seed)
    taps = rng.standard_normal(2 * half_order + 1) + 1j * rng.standard_normal(2 * half_order + 1)
    x = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    _assert_bitwise_staged(x, taps, (1 << (2 * len(taps) - 1).bit_length()) << extra_doublings)


def test_filter_spectrum_is_cached_read_only_and_not_inherited(monkeypatch):
    f = _design(order=128, passband=2e6, center=1e6)
    transforms = []
    real_fft = np.fft.fft

    def counted_fft(a, *args, **kwargs):
        transforms.append(len(a))
        return real_fft(a, *args, **kwargs)
    monkeypatch.setattr(np.fft, "fft", counted_fft)
    for block in (512, 1024, 512, 1024, 512):
        s = f.spectrum(block)
        assert np.array_equal(s.view(np.uint64), real_fft(f.taps, block).view(np.uint64))
        assert not s.flags.writeable
        with pytest.raises(ValueError):
            s[0] = 0.0
    assert f.spectrum(512) is f.spectrum(512)
    assert len(transforms) == 2  # one per block size
    taps = f.taps.copy()
    taps[64] *= 1.001
    changed = replace(f, taps=taps)  # never inherits the old filter's spectra
    assert np.array_equal(changed.spectrum(512), real_fft(taps, 512))
    assert not np.array_equal(changed.spectrum(512), f.spectrum(512))


@settings(max_examples=50, deadline=None)
@given(length=st.integers(1, 20_000), half_order=st.integers(1, 512),
       extra_doublings=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_overlap_save_given_the_spectrum_is_bitwise_the_plain_call(
        length, half_order, extra_doublings, seed):
    rng = np.random.default_rng(seed)
    taps = rng.standard_normal(2 * half_order + 1) + 1j * rng.standard_normal(2 * half_order + 1)
    x = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    block = default_block_size(len(taps), length) << extra_doublings
    plain = _overlap_save(x, taps, block)
    given_spectrum = _overlap_save(x, taps, block, np.fft.fft(taps, block))
    assert np.array_equal(given_spectrum.view(np.uint64), plain.view(np.uint64))


def _padded_points(block: int, tap_count: int, samples: int) -> int:
    """FFT points of the overlap-save blocks that hold `samples + taps - 1` outputs."""
    return -(-(samples + tap_count - 1) // (block - (tap_count - 1))) * block


def test_default_block_size_covers_taps():
    for tap_count, samples in [(3, 1), (129, 4000), (257, 7728), (257, 23_184), (257, 77_280),
                               (513, 20_000), (1025, 10), (1025, 33_000), (4097, 100)]:
        b = default_block_size(tap_count, samples)
        assert b & (b - 1) == 0
        assert b >= 2 * tap_count
        smallest = 1 << (2 * tap_count - 1).bit_length()
        candidates = [smallest << k for k in range(13) if k == 0 or smallest << k <= MAX_BLOCK]
        points = _padded_points(b, tap_count, samples)
        assert all(points < _padded_points(c, tap_count, samples) for c in candidates if c > b)
        assert all(points <= _padded_points(c, tap_count, samples) for c in candidates)
    # The desk sweep's ~8k-sample streams, psd's 10-TTI desk chunks, LTE-20 streams.
    assert default_block_size(257, 7728) == 2048
    assert default_block_size(257, 77_280) == 4096
    assert default_block_size(1025, 33_000) == 4096
    # A tie, 14 x 2,048 = 7 x 4,096 points, goes to the larger block.
    assert default_block_size(257, 23_184) == 4096


@settings(max_examples=100, deadline=None)
@given(length=st.integers(1, 20_000), half_order=st.integers(1, 512),
       seed=st.integers(0, 2**32 - 1))
def test_production_block_matches_direct_convolution(length, half_order, seed):
    rng = np.random.default_rng(seed)
    taps = rng.standard_normal(2 * half_order + 1) + 1j * rng.standard_normal(2 * half_order + 1)
    x = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    ref = np.convolve(x, taps)
    got = _overlap_save(x, taps, default_block_size(len(taps), len(x)))
    assert len(got) == len(ref)
    assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 1e-9
