"""FIR design, analysis, fast convolution, and tap file exchange."""

import numpy as np
import pytest

from waveform_lab.core import ConfigError, SignalBuffer, seeded_rng
from waveform_lab.filters import (
    FilterSpec,
    default_block_size,
    design_windowed_sinc,
    direct_convolve,
    export_taps,
    frequency_response,
    import_taps,
    overlap_save_convolve,
    response_at,
)

FS = 30.72e6


def _design(order=1024, passband=720e3, center=0.0, window="hann", rolloff=0.6,
            fs=FS):
    return design_windowed_sinc(
        FilterSpec(order=order, passband_width_hz=passband,
                   center_offset_hz=center, window=window, rrc_rolloff=rolloff),
        fs,
    )


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
        design_windowed_sinc(
            FilterSpec(order=4098, passband_width_hz=720e3, center_offset_hz=0.0),
            FS,
        )


def test_rrc_window_variants_design():
    for rolloff in (0.2, 0.6, 1.0):
        f = _design(window="rrc", rolloff=rolloff)
        assert abs(response_at(f, np.array([0.0]))[0]) == pytest.approx(1.0, abs=1e-12)


def test_rrc_rolloff_bounds():
    with pytest.raises(ConfigError):
        _design(window="rrc", rolloff=0.0)
    with pytest.raises(ConfigError):
        _design(window="rrc", rolloff=1.5)


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
    assert f.mainlobe_is_full
    assert f.mainlobe_samples == len(f.taps)


def test_frequency_response_center_is_0db():
    f = _design()
    fr = frequency_response(f, 4096)
    k = int(np.argmin(np.abs(fr.freqs_hz)))
    assert fr.magnitude_db[k] == pytest.approx(0.0, abs=0.01)


def test_stopband_floor():
    f = _design()
    fr = frequency_response(f, 8192)
    transition = 4 * FS / len(f.taps)
    far = np.abs(fr.freqs_hz) > (720e3 / 2 + 2 * transition)
    assert np.max(fr.magnitude_db[far]) <= -40.0


def test_passband_fidelity_and_rejection():
    f = _design()
    transition = 4 * FS / len(f.taps)
    center = abs(response_at(f, np.array([0.0]))[0])
    assert 20 * np.log10(center) == pytest.approx(0.0, abs=0.1)
    outside = abs(response_at(f, np.array([720e3 / 2 + 3 * transition]))[0])
    assert 20 * np.log10(outside) < -40.0


def test_response_at_matches_dense_response():
    f = _design(center=1.5e6)
    fr = frequency_response(f, 4096)
    k = int(np.argmin(np.abs(fr.freqs_hz - (1.5e6 + 200e3))))
    direct = response_at(f, np.array([fr.freqs_hz[k]]))[0]
    assert 20 * np.log10(abs(direct)) == pytest.approx(fr.magnitude_db[k], abs=1e-6)


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

def test_overlap_save_matches_direct():
    rng = seeded_rng(11, "filters/os")
    for _ in range(10):
        n = int(rng.integers(100, 5000))
        order = int(rng.integers(4, 300)) * 2
        f = _design(order=order, passband=float(rng.uniform(0.02, 0.4)) * FS)
        x = SignalBuffer(rng.standard_normal(n) + 1j * rng.standard_normal(n), FS)
        ref = direct_convolve(x, f)
        got = overlap_save_convolve(x, f, default_block_size(len(f.taps)))
        assert len(got) == n + len(f.taps) - 1
        err = np.linalg.norm(got.samples - ref.samples) / np.linalg.norm(ref.samples)
        assert err < 1e-9


def test_overlap_save_block_size_invariance():
    rng = seeded_rng(12, "filters/block")
    f = _design(order=128, passband=2e6)
    x = SignalBuffer(rng.standard_normal(4000) + 1j * rng.standard_normal(4000), FS)
    outs = [
        overlap_save_convolve(x, f, block).samples
        for block in (512, 1024, 4096, 16384)
    ]
    for other in outs[1:]:
        assert np.allclose(outs[0], other, atol=1e-9)


def test_overlap_save_rejects_small_block():
    f = _design(order=128, passband=2e6)
    x = SignalBuffer(np.ones(512, dtype=complex), FS)
    with pytest.raises(ConfigError):
        overlap_save_convolve(x, f, 128)  # < 2x tap count


def test_default_block_size_covers_taps():
    assert default_block_size(129) >= 4096
    assert default_block_size(1025) >= 2 * 1025
    # Power of two.
    b = default_block_size(1025)
    assert b & (b - 1) == 0


# ---------------------------------------------------------------------------
# Tap files
# ---------------------------------------------------------------------------

def test_tap_file_round_trip(tmp_path):
    f = _design(order=64, passband=2e6)
    path = tmp_path / "f.taps"
    export_taps(f, path)
    g = import_taps(path, FS)
    assert len(g.taps) == len(f.taps)
    # DC-normalized on import; compare up to the common scale.
    scale = np.sum(f.taps)
    assert np.allclose(g.taps, f.taps / scale, atol=1e-12)


def test_tap_file_bad_header(tmp_path):
    p = tmp_path / "bad.taps"
    p.write_text("weights v1 3\n1 0\n1 0\n1 0\n")
    with pytest.raises(ConfigError):
        import_taps(p, FS)


def test_tap_file_count_mismatch(tmp_path):
    p = tmp_path / "bad.taps"
    p.write_text("taps v1 3\n1 0\n1 0\n")
    with pytest.raises(ConfigError):
        import_taps(p, FS)


def test_tap_file_nan_rejected(tmp_path):
    p = tmp_path / "bad.taps"
    p.write_text("taps v1 2\nnan 0\n1 0\n")
    with pytest.raises(ConfigError):
        import_taps(p, FS)


def test_tap_file_empty_rejected(tmp_path):
    p = tmp_path / "bad.taps"
    p.write_text("")
    with pytest.raises(ConfigError):
        import_taps(p, FS)
