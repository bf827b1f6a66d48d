"""Complex Gaussian noise and the Rapp PA model."""

import math
import tracemalloc

import numpy as np
import pytest

from waveform_lab import impairments

from waveform_lab.core import ConfigError, seeded_rng
from waveform_lab.impairments import complex_noise, mean_power, pa_rapp

FS = 7.68e6


# ---------------------------------------------------------------------------
# Noise
# ---------------------------------------------------------------------------

def test_complex_noise_power_calibration():
    noise = complex_noise(10**6, 0.01, seeded_rng(1, "imp/awgn/noise"))
    measured = 10 * np.log10(np.mean(np.abs(noise) ** 2) / 0.01)
    assert measured == pytest.approx(0.0, abs=0.05)


@pytest.mark.parametrize("length", [7, 1000, 200_000])
def test_complex_noise_matches_the_two_draw_formula(length):
    # The guard-tone sweep's noise bits: I drawn first, then Q, both scaled.
    want_rng, got_rng = seeded_rng(4, "imp/noise"), seeded_rng(4, "imp/noise")
    scale = math.sqrt(0.37 / 2.0)
    want = scale * (want_rng.standard_normal(length) + 1j * want_rng.standard_normal(length))
    assert np.array_equal(complex_noise(length, 0.37, got_rng), want)


# ---------------------------------------------------------------------------
# Mean power
# ---------------------------------------------------------------------------

def test_mean_power():
    assert mean_power(np.array([3.0 + 4.0j, 0.0])) == pytest.approx(12.5)


@pytest.mark.parametrize("length", [1, 1000, (1 << 15) + 1, 200_003])
def test_mean_power_is_the_mean_of_squares(length):
    rng = seeded_rng(3, f"core/power/{length}")
    x = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    want = np.mean(np.abs(x) ** 2)
    assert mean_power(x) == pytest.approx(want, rel=1e-14, abs=0)


def test_mean_power_holds_no_whole_stream_temporary():
    x = np.ones(10**6, dtype=complex)
    tracemalloc.start()
    try:
        mean_power(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"mean_power peaked at {peak} bytes"


# ---------------------------------------------------------------------------
# Rapp PA
# ---------------------------------------------------------------------------

def test_rapp_linear_region():
    x = 0.001 * np.exp(2j * np.pi * np.arange(512) / 64)
    y = pa_rapp(x, 40.0, 2.0)
    gain_db = 20 * np.log10(np.abs(y) / np.abs(x))
    assert np.max(np.abs(gain_db)) < 0.01


def test_rapp_saturation_limit():
    samples = np.ones(1024, dtype=complex)
    samples[-1] = 1e6  # driven far beyond saturation
    a_sat = np.sqrt(mean_power(samples))  # backoff 0 dB
    y = pa_rapp(samples, 0.0, 2.0)
    assert abs(y[-1]) == pytest.approx(a_sat, rel=1e-3)


def test_rapp_phase_transparent():
    rng = seeded_rng(7, "imp/rapp")
    x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    y = pa_rapp(x, 3.0, 2.0)
    assert np.allclose(np.angle(y), np.angle(x), atol=1e-12)


def test_rapp_compression_monotone():
    mags = np.linspace(0.01, 10.0, 500)
    out = np.abs(pa_rapp(mags.astype(complex), 0.0, 2.0))
    assert np.all(np.diff(out) > 0)  # monotone AM/AM
    assert np.all(out <= mags)  # never expands


def test_rapp_slices_change_no_output_bit(monkeypatch):
    rng = seeded_rng(7, "imp/rapp/slices")
    x = rng.standard_normal(5500) + 1j * rng.standard_normal(5500)
    whole = pa_rapp(x, 3.0, 2.0)
    monkeypatch.setattr(impairments, "_PA_SLICE_SAMPLES", 1000)
    assert np.array_equal(pa_rapp(x, 3.0, 2.0), whole)


@pytest.mark.parametrize("scale", [1.0, 0.0])
def test_rapp_in_place_is_bitwise_the_fresh_output(monkeypatch, scale):
    monkeypatch.setattr(impairments, "_PA_SLICE_SAMPLES", 1000)
    rng = seeded_rng(7, "imp/rapp/in-place")
    buf = scale * (rng.standard_normal(5500) + 1j * rng.standard_normal(5500))
    fresh = pa_rapp(buf, 3.0, 2.0)
    y = pa_rapp(buf, 3.0, 2.0, out=buf)
    assert np.shares_memory(y, buf)
    assert np.array_equal(y.view(np.uint64), fresh.view(np.uint64))


def test_rapp_rejects_a_mismatched_out():
    x = np.ones(8, dtype=complex)
    with pytest.raises(ValueError):
        pa_rapp(x, 3.0, 2.0, out=np.empty(7, dtype=complex))


def test_rapp_smoothness_validation():
    x = np.ones(8, dtype=complex)
    with pytest.raises(ConfigError):
        pa_rapp(x, 9.6, 0.0)


def test_rapp_spectral_regrowth():
    # OFDM-like signal at moderate backoff: distortion raises the out-of-band
    # floor relative to the clean signal.
    from waveform_lab.metrics import psd_welch
    rng = seeded_rng(8, "imp/regrowth")
    n = 1 << 15
    spectrum = np.zeros(n, dtype=complex)
    half = int(1.5e6 / FS * n)  # occupy +-1.5 MHz
    occupied = np.arange(-half, half) % n
    spectrum[occupied] = np.exp(2j * np.pi * rng.uniform(size=2 * half))
    x = np.fft.ifft(spectrum) * np.sqrt(n)
    y = pa_rapp(x, 9.6, 2.0)
    psd_x = psd_welch(x, FS, segment_size=4096)
    psd_y = psd_welch(y, FS, segment_size=4096)
    far = np.abs(psd_x.freqs_hz) > 2.0e6  # outside the band, inside 3rd-order reach
    assert np.mean(psd_y.power_dbr[far]) > np.mean(psd_x.power_dbr[far]) + 20.0
