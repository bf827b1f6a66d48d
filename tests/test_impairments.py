"""AWGN calibration, tapped-delay-line fading, and the Rapp PA model."""

import math

import numpy as np
import pytest

from waveform_lab import impairments

from waveform_lab.core import (
    ConfigError,
    Numerology,
    ResourceGrid,
    SignalBuffer,
    seeded_rng,
)
from waveform_lab.impairments import (
    apply_tdl,
    available_profiles,
    awgn,
    complex_noise,
    load_tdl_profile,
    pa_rapp,
)
from waveform_lab.modem import equalize, evm_db, ofdm_demodulate, ofdm_modulate, qam_map

FS = 7.68e6
DESK = Numerology(scs_hz=15e3, fft_size=512, cp_samples=36, symbols_per_tti=14)


# ---------------------------------------------------------------------------
# AWGN
# ---------------------------------------------------------------------------

def test_awgn_power_calibration():
    rng = seeded_rng(1, "imp/awgn")
    x = SignalBuffer(rng.standard_normal(10**6) + 1j * rng.standard_normal(10**6), FS)
    y = awgn(x, 20.0, seeded_rng(1, "imp/awgn/noise"))
    noise = y.samples - x.samples
    measured = 10 * np.log10(x.power() / np.mean(np.abs(noise) ** 2))
    assert measured == pytest.approx(20.0, abs=0.05)


@pytest.mark.parametrize("length", [7, 1000, 200_000])
def test_complex_noise_matches_the_two_draw_formula(length):
    # The guard-tone sweep's noise bits: I drawn first, then Q, both scaled.
    want_rng, got_rng = seeded_rng(4, "imp/noise"), seeded_rng(4, "imp/noise")
    scale = math.sqrt(0.37 / 2.0)
    want = scale * (want_rng.standard_normal(length) + 1j * want_rng.standard_normal(length))
    assert np.array_equal(complex_noise(length, 0.37, got_rng), want)


def test_awgn_off_passthrough():
    x = SignalBuffer(np.ones(64, dtype=complex), FS)
    y = awgn(x, None, seeded_rng(1, "imp/off"))
    assert np.array_equal(y.samples, x.samples)


def test_awgn_zero_power_rejected():
    x = SignalBuffer(np.zeros(64, dtype=complex), FS)
    with pytest.raises(ConfigError):
        awgn(x, 10.0, seeded_rng(1, "imp/zero"))


# ---------------------------------------------------------------------------
# TDL profiles
# ---------------------------------------------------------------------------

def test_shipped_profiles_present():
    names = available_profiles()
    for name in ("epa", "etu", "eva"):
        assert name in names


@pytest.mark.parametrize("name", ["epa", "etu", "eva"])
def test_profile_unit_power(name):
    p = load_tdl_profile(name)
    total = np.sum(10.0 ** (np.asarray(p.powers_db) / 10.0))
    assert total == pytest.approx(1.0, abs=1e-12)
    assert p.delays_ns[0] == 0.0
    assert all(b >= a for a, b in zip(p.delays_ns, p.delays_ns[1:]))


def test_profile_unknown_name():
    with pytest.raises(ConfigError):
        load_tdl_profile("tdl-z")


def test_realization_mean_unit_gain():
    # Rayleigh taps on a unit-power profile: average total power is one.
    p = load_tdl_profile("eva")
    rng = seeded_rng(2, "imp/gain")
    x = SignalBuffer(np.ones(256, dtype=complex), FS)
    powers = []
    for _ in range(400):
        _, ch = apply_tdl(x, p, rng)
        powers.append(np.sum(np.abs(ch.gains) ** 2))
    assert np.mean(powers) == pytest.approx(1.0, rel=0.15)


def test_realization_frequency_response_matches_fft():
    p = load_tdl_profile("etu")
    x = SignalBuffer(np.ones(64, dtype=complex), FS)
    _, ch = apply_tdl(x, p, seeded_rng(3, "imp/fr"))
    h = ch.impulse_response()
    n = 4096
    grid = np.fft.fftfreq(n, d=1 / FS)
    dense = np.fft.fft(h, n)
    probe = ch.frequency_response(grid[:100])
    assert np.allclose(probe, dense[:100], atol=1e-12)


def test_delay_rounding_metadata():
    p = load_tdl_profile("eva")  # 30 ns tap rounds off-grid at 7.68 MS/s
    x = SignalBuffer(np.ones(64, dtype=complex), FS)
    _, ch = apply_tdl(x, p, seeded_rng(4, "imp/round"))
    assert len(ch.rounding_error_ns) == len(p.delays_ns)
    assert any(abs(r) > 1.0 for r in ch.rounding_error_ns)
    assert not ch.delay_exceeds_cp


def test_delay_budget_flag():
    p = load_tdl_profile("etu")  # 5000 ns = 38.4 samples at 7.68 MS/s
    x = SignalBuffer(np.ones(64, dtype=complex), FS)
    _, ch = apply_tdl(x, p, seeded_rng(5, "imp/budget"), cp_budget_samples=36)
    assert ch.delay_exceeds_cp


def test_tdl_equalized_loopback():
    # Block-fading channel known to the genie: one-tap equalization restores
    # the grid almost exactly when the delay spread fits inside the CP.
    rng = seeded_rng(6, "imp/tdl-loop")
    bits = rng.integers(0, 2, 48 * 14 * 2)
    grid = ResourceGrid(qam_map(bits, "qpsk").reshape(14, 48).T)
    sig = ofdm_modulate(grid, DESK)
    faded, ch = apply_tdl(sig, load_tdl_profile("epa"), seeded_rng(6, "imp/tdl-ch"),
                          cp_budget_samples=DESK.cp_samples)
    assert not ch.delay_exceeds_cp
    trimmed = SignalBuffer(faded.samples[:len(sig)], FS)
    raw = ofdm_demodulate(trimmed, DESK, 0, 48)
    tone_freqs = (np.arange(48) - 24) * DESK.scs_hz
    est = ch.frequency_response(tone_freqs)
    assert np.all(np.abs(est) > 0.0)
    assert evm_db(grid, equalize(raw, est)) <= -60.0


# ---------------------------------------------------------------------------
# Rapp PA
# ---------------------------------------------------------------------------

def test_rapp_linear_region():
    x = SignalBuffer(0.001 * np.exp(2j * np.pi * np.arange(512) / 64), FS)
    y = pa_rapp(x, 40.0, 2.0)
    gain_db = 20 * np.log10(np.abs(y.samples) / np.abs(x.samples))
    assert np.max(np.abs(gain_db)) < 0.01


def test_rapp_saturation_limit():
    samples = np.ones(1024, dtype=complex)
    samples[-1] = 1e6  # driven far beyond saturation
    x = SignalBuffer(samples, FS)
    a_sat = np.sqrt(x.power())  # backoff 0 dB
    y = pa_rapp(x, 0.0, 2.0)
    assert abs(y.samples[-1]) == pytest.approx(a_sat, rel=1e-3)


def test_rapp_phase_transparent():
    rng = seeded_rng(7, "imp/rapp")
    x = SignalBuffer(rng.standard_normal(256) + 1j * rng.standard_normal(256), FS)
    y = pa_rapp(x, 3.0, 2.0)
    assert np.allclose(np.angle(y.samples), np.angle(x.samples), atol=1e-12)


def test_rapp_compression_monotone():
    mags = np.linspace(0.01, 10.0, 500)
    x = SignalBuffer(mags.astype(complex), FS)
    y = pa_rapp(x, 0.0, 2.0)
    out = np.abs(y.samples)
    assert np.all(np.diff(out) > 0)  # monotone AM/AM
    assert np.all(out <= mags)  # never expands


def test_rapp_slices_change_no_output_bit(monkeypatch):
    rng = seeded_rng(7, "imp/rapp/slices")
    x = SignalBuffer(rng.standard_normal(5500) + 1j * rng.standard_normal(5500), FS)
    whole = pa_rapp(x, 3.0, 2.0).samples
    monkeypatch.setattr(impairments, "_PA_SLICE_SAMPLES", 1000)
    assert np.array_equal(pa_rapp(x, 3.0, 2.0).samples, whole)


def test_rapp_smoothness_validation():
    x = SignalBuffer(np.ones(8, dtype=complex), FS)
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
    x = SignalBuffer(np.fft.ifft(spectrum) * np.sqrt(n), FS)
    y = pa_rapp(x, 9.6, 2.0)
    psd_x = psd_welch(x, segment_size=4096)
    psd_y = psd_welch(y, segment_size=4096)
    far = np.abs(psd_x.freqs_hz) > 2.0e6  # outside the band, inside 3rd-order reach
    assert np.mean(psd_y.power_dbr[far]) > np.mean(psd_x.power_dbr[far]) + 20.0
