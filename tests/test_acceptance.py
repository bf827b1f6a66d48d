"""End-to-end acceptance checks for the library.

Each test pins the headline guarantees: convolution-route equivalence,
error-free loopback with a recorded distortion floor, spectral confinement
with and without a saturating amplifier, guard-tone interference behavior,
throughput arithmetic, and the built-in oracle suite.
"""

import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from waveform_lab.cli import main, preset_dir, run_selftest
from waveform_lab.core import (
    Numerology,
    SubbandSpec,
    load_scenario,
    seeded_rng,
)
from waveform_lab.filters import (
    FilterSpec,
    _overlap_save,
    default_block_size,
    design_windowed_sinc,
    direct_convolve,
)
from waveform_lab.metrics import normalized_throughput
from waveform_lab.modem import (
    BITS_PER_SYMBOL,
    ber,
    evm_db,
    ofdm_demodulate,
    ofdm_modulate,
    qam_demap,
    qam_map,
)
from waveform_lab.subband import (
    DEFAULT_TAIL_THRESHOLD,
    derive_tail_policy,
    design_subband_filter,
    downconversion_carrier,
    genie_estimates,
    guardtone_sweep,
    payload_bits,
    rx_subband,
    tx_subband,
    upconversion_carrier,
)

FS = 7.68e6

# Measured loopback distortion floors (dB) for the default filter profile;
# pinned as regression constants so a design change cannot drift unnoticed.
LOOPBACK_EVM_FLOOR_DB = {
    (36, "qpsk"): -36.17, (36, "16qam"): -36.16, (36, "64qam"): -36.10,
    (48, "qpsk"): -37.93, (48, "16qam"): -38.06, (48, "64qam"): -37.69,
    (144, "qpsk"): -39.28, (144, "16qam"): -39.32, (144, "64qam"): -39.79,
    (288, "qpsk"): -38.32, (288, "16qam"): -37.94, (288, "64qam"): -37.92,
}


# ---------------------------------------------------------------------------
# 1. Fast convolution matches direct convolution
# ---------------------------------------------------------------------------

def test_overlap_save_equivalence_100_cases():
    rng = seeded_rng(100, "accept/conv")
    t0 = time.monotonic()
    worst = 0.0
    n = 4096
    for _ in range(100):
        order = int(rng.integers(4, 513)) * 2  # up to 1025 taps
        spec = FilterSpec(order=order,
                          passband_width_hz=float(rng.uniform(0.02, 0.4)) * FS,
                          center_offset_hz=float(rng.uniform(-0.2, 0.2)) * FS)
        fir = design_windowed_sinc(spec, FS)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ref = direct_convolve(x, fir)
        # The smallest legal block, and the production route: the block a run
        # picks for n samples, with the filter's cached spectrum.
        smallest = 1 << (2 * len(fir.taps) - 1).bit_length()
        production = default_block_size(len(fir.taps), n)
        for got in (_overlap_save(x, fir.taps, smallest),
                    _overlap_save(x, fir.taps, production, fir.spectrum(production))):
            err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
            worst = max(worst, err)
    elapsed = time.monotonic() - t0
    assert worst < 1e-9
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. Loopback correctness and distortion floor
# ---------------------------------------------------------------------------

def _long_numerology(width: int, mod: str) -> Numerology:
    symbols = math.ceil(100_000 / (width * BITS_PER_SYMBOL[mod]))
    return Numerology(scs_hz=15e3, fft_size=512, cp_samples=36,
                      symbols_per_tti=symbols)


@pytest.mark.parametrize("mod", list(BITS_PER_SYMBOL))
def test_plain_ofdm_loopback_error_free(mod):
    width = 48
    n = _long_numerology(width, mod)
    rng = seeded_rng(100, f"accept/plain/{mod}")
    bits = rng.integers(0, 2, width * n.symbols_per_tti * BITS_PER_SYMBOL[mod])
    assert len(bits) >= 100_000
    grid = qam_map(bits, mod).reshape(n.symbols_per_tti, width).T
    sig = ofdm_modulate(grid, n)
    back = ofdm_demodulate(sig, n, 0, width)
    assert evm_db(grid, back) <= -90.0
    assert ber(bits, qam_demap(back.T.ravel(), mod)).errors == 0


@pytest.mark.parametrize("width,mod", sorted(LOOPBACK_EVM_FLOOR_DB))
def test_fofdm_loopback_error_free_with_pinned_floor(width, mod):
    n = _long_numerology(width, mod)
    spec = SubbandSpec(start_tone=-width // 2, width_tones=width,
                       guard_tones_left=0, guard_tones_right=0,
                       numerology=n, modulation=mod)
    fir = design_subband_filter(spec, FS)
    policy = derive_tail_policy(fir, n, DEFAULT_TAIL_THRESHOLD)
    bits = payload_bits(spec, seeded_rng(7, f"acc/{width}/{mod}"))
    assert len(bits) >= 100_000
    sig, grid = tx_subband(spec, FS, bits, policy, fir, upconversion_carrier(spec, FS, policy))
    res = rx_subband(sig, spec, fir, grid, policy,
                     downconversion_carrier(spec, fir, policy, FS),
                     genie_estimates(spec, fir, policy))
    assert ber(bits, res.bits).errors == 0
    assert res.evm_db <= -35.0
    assert res.evm_db == pytest.approx(LOOPBACK_EVM_FLOOR_DB[(width, mod)], abs=0.5)


# ---------------------------------------------------------------------------
# 3. Out-of-band emission ordering, amplifier off and on
# ---------------------------------------------------------------------------

def _oobe_by_offset(out_dir: Path) -> dict:
    vals = {}
    for row in (out_dir / "oobe_summary.csv").read_text().strip().splitlines()[1:]:
        name, off, db = row.split(",")
        vals[(name, float(off))] = float(db)
    return vals


def test_spectral_confinement_gap(tmp_path):
    t0 = time.monotonic()
    out_off = tmp_path / "pa_off"
    out_on = tmp_path / "pa_on"
    assert main(["psd", "--scenario", "three-subband-desk",
                 "--out", str(out_off)]) == 0
    assert main(["psd", "--scenario", "three-subband-desk",
                 "--out", str(out_on), "--pa-on"]) == 0
    elapsed = time.monotonic() - t0

    off_vals = _oobe_by_offset(out_off)
    on_vals = _oobe_by_offset(out_on)
    # Offsets are scaled to the desk sample rate; the middle one corresponds
    # to 1 MHz at full scale (250 kHz here).
    mid = sorted({k[1] for k in off_vals})[1]
    assert mid == pytest.approx(250e3, rel=1e-6)

    clean_gap = off_vals[("ofdm", mid)] - off_vals[("fofdm", mid)]
    pa_gap = on_vals[("ofdm", mid)] - on_vals[("fofdm", mid)]
    assert clean_gap >= 20.0
    assert pa_gap > 5.0
    assert pa_gap < clean_gap  # saturation regrowth narrows the advantage
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 4. Guard tones against an asynchronous neighbor
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_sweep():
    cfg = load_scenario(preset_dir() / "three-subband-desk.json")
    t0 = time.monotonic()
    result = guardtone_sweep(cfg, [0, 1, 2], [0.0, 10.0], 30.0, 200,
                             modulations=("qpsk", "16qam", "64qam"))
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    return result


def _edge(result, guard, power, mod):
    for r in result.rows:
        if (r.guard_tones, r.power_offset_db, r.modulation) == (guard, power, mod):
            return r.evm_db_edge
    raise AssertionError("row missing")


def test_low_order_modulations_need_no_guard(desk_sweep):
    for mod in ("qpsk", "16qam"):
        delta = _edge(desk_sweep, 0, 0.0, mod) - desk_sweep.baselines[mod].evm_db_edge
        assert delta < 1.0


def test_64qam_within_two_guards(desk_sweep):
    base = desk_sweep.baselines["64qam"].evm_db_edge
    deltas = [_edge(desk_sweep, g, 0.0, "64qam") - base for g in (0, 1, 2)]
    assert min(deltas) < 1.0
    assert deltas[2] < 1.0  # two guard tones always suffice


def test_two_guards_absorb_strong_interferer(desk_sweep):
    for mod in ("qpsk", "16qam", "64qam"):
        delta = _edge(desk_sweep, 2, 10.0, mod) - desk_sweep.baselines[mod].evm_db_edge
        assert delta < 1.0


# ---------------------------------------------------------------------------
# 5. Normalized throughput arithmetic
# ---------------------------------------------------------------------------

def test_throughput_gain_range(tmp_path, capsys):
    from waveform_lab.cli import load_throughput_preset
    subbands, baseline = load_throughput_preset(
        preset_dir() / "throughput-table.json")
    # Four services and an extended-CP baseline, as 30.72 MHz sample counts:
    # 3.75 kHz twice, 30 kHz and 60 kHz against 15 kHz.
    assert [(s.fft_size, s.cp_samples) for s in (*subbands, baseline)] == [
        (8192, 80), (8192, 230), (1024, 90), (512, 60), (2048, 512)]
    rep = normalized_throughput(subbands, baseline)
    assert rep.ofdm_total == pytest.approx(0.720, abs=1e-3)
    assert 25.0 <= rep.gain_percent <= 46.0

    assert main(["throughput", "--scenario", "throughput-table",
                 "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    assert "link adaptation" in printed  # the gain needs it; report says so


# ---------------------------------------------------------------------------
# 6. Built-in oracle suite
# ---------------------------------------------------------------------------

def test_selftest_green_under_budget():
    t0 = time.monotonic()
    results = run_selftest(verbose=False)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    assert len(results) == 8
    failed = [name for name, passed, _ in results if not passed]
    assert failed == []
