"""PSD estimation, out-of-band emission windows, and throughput arithmetic."""

from dataclasses import replace

import numpy as np
import pytest

from waveform_lab import metrics
from waveform_lab.core import ConfigError, seeded_rng
from waveform_lab.metrics import (
    THROUGHPUT_CAVEAT,
    ThroughputInput,
    _welch_density,
    normalized_throughput,
    oobe,
    oobe_windows,
    psd_welch,
    welch_freqs,
)

FS = 7.68e6


def _tone(freq_hz, n=1 << 15, fs=FS):
    t = np.arange(n) / fs
    return np.exp(2j * np.pi * freq_hz * t)


def _bandlimited(rng, half_hz, n=1 << 15, fs=FS):
    spectrum = np.zeros(n, dtype=complex)
    half = int(half_hz / fs * n)
    occupied = np.arange(-half, half) % n
    spectrum[occupied] = np.exp(2j * np.pi * rng.uniform(size=2 * half))
    return np.fft.ifft(spectrum) * np.sqrt(n)


# ---------------------------------------------------------------------------
# psd_welch
# ---------------------------------------------------------------------------

def test_psd_tone_peak_location():
    est = psd_welch(_tone(1.0e6), FS, segment_size=4096)
    peak = est.freqs_hz[int(np.argmax(est.power_dbr))]
    assert peak == pytest.approx(1.0e6, abs=FS / 4096)


def test_psd_in_band_reference_is_0dbr():
    rng = seeded_rng(9, "metrics/ref")
    sig = _bandlimited(rng, 1.0e6)
    est = psd_welch(sig, FS, segment_size=4096, in_band_hz=(-1.0e6, 1.0e6))
    mask = (est.freqs_hz >= -1.0e6) & (est.freqs_hz <= 1.0e6)
    lin = 10.0 ** (est.power_dbr[mask] / 10.0)
    assert 10 * np.log10(np.mean(lin)) == pytest.approx(0.0, abs=1e-9)


def test_psd_axis_covers_complex_band():
    est = psd_welch(_tone(-2.0e6), FS, segment_size=1024)
    assert est.freqs_hz[0] < -3.5e6 and est.freqs_hz[-1] > 3.5e6
    assert np.all(np.diff(est.freqs_hz) > 0)
    peak = est.freqs_hz[int(np.argmax(est.power_dbr))]
    assert peak == pytest.approx(-2.0e6, abs=FS / 1024)


def _welch_oracle(x, fs, n):
    """Per-segment loop: Hann-windowed periodograms in power per Hz, averaged."""
    window = np.hanning(n + 1)[:-1]
    hop = n - n // 2
    starts = range(0, len(x) - n + 1, hop)
    density = sum(np.abs(np.fft.fft(window * x[s:s + n])) ** 2 for s in starts)
    density = density / (len(starts) * fs * np.sum(window ** 2))
    return (np.arange(n) - n // 2) * fs / n, np.fft.fftshift(density)


@pytest.mark.parametrize("n,length,strided", [
    (1024, 1 << 13, False),
    (1024, 5000, False),   # the tail shorter than a hop is dropped
    (257, 3001, False),    # odd: hop 129, overlap 128
    (3, 40, False),
    (1000, 4321, True),    # x[::2] of a longer buffer
])
def test_welch_density_matches_per_segment_oracle(n, length, strided):
    rng = seeded_rng(9, f"metrics/oracle/{n}/{length}")
    x = rng.standard_normal(2 * length) + 1j * rng.standard_normal(2 * length)
    x = x[::2] if strided else x[:length]
    freqs, density = _welch_density(x, FS, n)
    want_freqs, want_density = _welch_oracle(x, FS, n)
    np.testing.assert_allclose(freqs, want_freqs, rtol=1e-15, atol=1e-9)
    np.testing.assert_allclose(density, want_density, rtol=1e-12, atol=0)
    est = psd_welch(x, FS, segment_size=n)
    want_dbr = 10.0 * np.log10(want_density / np.mean(want_density))
    np.testing.assert_allclose(est.power_dbr, want_dbr, rtol=0, atol=1e-9)


@pytest.mark.parametrize("n", [1024, 257])
def test_welch_density_same_bits_in_any_batching(monkeypatch, n):
    rng = seeded_rng(9, f"metrics/batches/{n}")
    x = rng.standard_normal(40 * n) + 1j * rng.standard_normal(40 * n)
    monkeypatch.setattr(metrics, "_WELCH_BATCH_SAMPLES", 1 << 30)
    _, one_batch = _welch_density(x, FS, n)
    monkeypatch.setattr(metrics, "_WELCH_BATCH_SAMPLES", 3 * n)  # 79 segments in 27 batches
    _, batched = _welch_density(x, FS, n)
    assert np.array_equal(batched, one_batch)


@pytest.mark.parametrize("n", [1024, 257])
def test_welch_density_integrates_to_mean_power(n):
    # Parseval: for a constant-modulus signal every windowed segment carries
    # exactly the signal's power, so the density integrates to amplitude^2.
    rng = seeded_rng(9, f"metrics/parseval/{n}")
    amplitude = 3.0
    x = amplitude * np.exp(2j * np.pi * rng.uniform(size=6 * n + 17))
    freqs, density = _welch_density(x, FS, n)
    assert np.sum(density) * (freqs[1] - freqs[0]) == pytest.approx(amplitude ** 2, rel=1e-12)


def test_psd_unchanged_for_a_view_of_the_input():
    rng = seeded_rng(9, "metrics/view")
    base = rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000)
    for view in (base[7:7 + 9000], base[::2]):
        assert not view.flags.owndata
        got = _welch_density(view, FS, 1000)
        want = _welch_density(view.copy(), FS, 1000)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert np.array_equal(psd_welch(view, FS, 1000).power_dbr,
                              psd_welch(view.copy(), FS, 1000).power_dbr)


@pytest.mark.parametrize("n", [1024, 4096, 257])
def test_welch_freqs_are_the_estimate_bins(n):
    est = psd_welch(_tone(1.0e6), FS, segment_size=n)
    assert np.array_equal(welch_freqs(n, FS), est.freqs_hz)


def test_psd_short_signal_rejected():
    with pytest.raises(ConfigError):
        psd_welch(np.ones(1000, dtype=complex), FS, segment_size=1024)


def test_psd_zero_power_rejected():
    with pytest.raises(ConfigError):
        psd_welch(np.zeros(1 << 13, dtype=complex), FS)


# ---------------------------------------------------------------------------
# oobe
# ---------------------------------------------------------------------------

def test_oobe_monotone_for_bandlimited_signal():
    rng = seeded_rng(9, "metrics/oobe")
    sig = _bandlimited(rng, 0.5e6)
    est = psd_welch(sig, FS, segment_size=4096, in_band_hz=(-0.5e6, 0.5e6))
    vals = oobe(est, (-0.5e6, 0.5e6), [0.2e6, 0.6e6, 1.5e6])
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < -40.0


def test_oobe_offset_must_be_positive():
    est = psd_welch(_tone(0.0), FS, segment_size=1024)
    with pytest.raises(ConfigError):
        oobe(est, (-1e6, 1e6), [0.0])


def test_oobe_window_beyond_nyquist_rejected():
    est = psd_welch(_tone(0.0), FS, segment_size=1024)
    with pytest.raises(ConfigError):
        oobe(est, (-1e6, 1e6), [3.5e6])


def test_oobe_windows_and_the_band_must_each_hold_a_bin():
    # 64-point segments at 1.92 MHz put the bins 30 kHz apart: a 15 kHz band
    # or window between two bins would average nothing and read NaN.
    freqs = welch_freqs(64, 1.92e6)
    with pytest.raises(ConfigError, match=r"in-band interval \(15000.0, 30000.0\) selects no"):
        oobe_windows(freqs, (15e3, 30e3), [200e3])
    with pytest.raises(ConfigError, match="window at 315000.0 Hz holds no PSD bin"):
        oobe_windows(freqs, (0.0, 300e3), [15e3])
    assert oobe_windows(freqs, (0.0, 300e3), [30e3]) == [(330e3, -30e3)]


# ---------------------------------------------------------------------------
# normalized throughput
# ---------------------------------------------------------------------------

def _baseline():
    # Worst-case reference: extended CP (15 kHz at 30.72 MHz) and 10% reserved tones.
    return ThroughputInput(name="baseline", fft_size=2048, cp_samples=512,
                           data_tone_fraction=0.9)


def test_baseline_efficiency():
    rep = normalized_throughput([_baseline()], _baseline())
    assert rep.ofdm_total == pytest.approx(0.72, abs=1e-6)


def test_long_symbol_short_cp_efficiency():
    entry = ThroughputInput(name="pedestrian", fft_size=8192, cp_samples=80,
                            data_tone_fraction=1.0, bandwidth_weight=1.0)
    rep = normalized_throughput([entry], _baseline())
    # The overhead is a ratio of sample counts; one subband's total is its own.
    assert entry.cp_overhead_fraction == 80 / 8272
    assert rep.fofdm_total == entry.normalized_throughput
    assert entry.normalized_throughput == pytest.approx(0.99033, abs=1e-5)


def test_bandwidth_weighted_total():
    a = ThroughputInput("a", 8192, 80, 1.0, bandwidth_weight=3.0)
    b = ThroughputInput("b", 512, 60, 1.0, bandwidth_weight=1.0)
    rep = normalized_throughput([a, b], _baseline())
    ea = 1 - 80 / (8192 + 80)
    eb = 1 - 60 / (512 + 60)
    assert rep.fofdm_total == pytest.approx((3 * ea + eb) / 4, rel=1e-9)
    assert rep.gain_percent == pytest.approx(
        (rep.fofdm_total / rep.ofdm_total - 1) * 100, rel=1e-9)


def test_throughput_validation():
    with pytest.raises(ConfigError):
        normalized_throughput([], _baseline())
    # The scenario validator's CP rule: 0 <= cp_samples < fft_size.
    for fft_size, cp_samples in ((64, 64), (64, -1), (0, 0)):
        bad = ThroughputInput("bad", fft_size, cp_samples, 1.0, 1.0)
        with pytest.raises(ConfigError, match=f"cp_samples {cp_samples} for 'bad'"):
            normalized_throughput([bad], _baseline())
        with pytest.raises(ConfigError, match="cp_samples"):
            normalized_throughput([_baseline()], bad)
    assert normalized_throughput([ThroughputInput("no-cp", 64, 0, 1.0)],
                                 _baseline()).fofdm_total == 1.0
    over = ThroughputInput("over", 64, 4, 1.5, 1.0)
    with pytest.raises(ConfigError):
        normalized_throughput([over], _baseline())


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("field", ["data_tone_fraction", "bandwidth_weight"])
def test_throughput_rejects_non_finite(field, value):
    entry = replace(_baseline(), **{field: value})
    with pytest.raises(ConfigError, match=field):
        normalized_throughput([entry], _baseline())
    with pytest.raises(ConfigError, match=field):
        normalized_throughput([_baseline()], entry)


def test_caveat_mentions_link_adaptation():
    assert "link adaptation" in THROUGHPUT_CAVEAT
    # ... and the guard tones the rows leave out.
    assert "data-tone fraction of 1.0" in THROUGHPUT_CAVEAT
    assert "two guard tones per edge" in THROUGHPUT_CAVEAT
