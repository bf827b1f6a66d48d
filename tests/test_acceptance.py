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

from waveform_lab import subband
from waveform_lab.cli import main, preset_dir, run_selftest
from waveform_lab.core import (
    Numerology,
    SubbandSpec,
    load_scenario,
    seeded_rng,
)
from waveform_lab.filters import (
    FirFilter,
    _overlap_save,
    default_block_size,
    design_windowed_sinc,
    direct_convolve,
)
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
    _edge_tone_count,
    _ErrorAccumulator,
    derive_tail_policy,
    design_subband,
    design_subband_filter,
    downconversion_carrier,
    genie_estimates,
    guardtone_sweep,
    packed_filter_order,
    payload_bits,
    rx_subband,
    tx_subband,
    upconversion_carrier,
)

FS = 7.68e6

# The desk preset with the interferer at 30 kHz (256 + 18 samples, 28
# symbols) and the third subband at 7.5 kHz (1,024 + 72, 7): every subband
# keeps a 7,672-sample TTI. ROADMAP item 7's mixed-numerology scenario.
DESK_MIXED = Path(__file__).parent / "data" / "desk-mixed.json"

# Measured loopback distortion floors (dB) for the default filter profile;
# pinned as regression constants so a design change cannot drift unnoticed.
LOOPBACK_EVM_FLOOR_DB = {
    (36, "qpsk"): -36.17, (36, "16qam"): -36.16, (36, "64qam"): -36.10,
    (48, "qpsk"): -37.93, (48, "16qam"): -38.06, (48, "64qam"): -37.69,
    (144, "qpsk"): -39.28, (144, "16qam"): -39.32, (144, "64qam"): -39.79,
    (288, "qpsk"): -38.32, (288, "16qam"): -37.94, (288, "64qam"): -37.92,
}

# Measured self-interference floors (edge dB, inner dB) of each preset's
# victim under the packed profile, alone and noiseless, over three TTIs: the
# floor that the guard-tone sweep's baselines and deltas stand on, set by the
# filter rather than the 30 dB noise. Pinned with the bit error ratios the
# floor costs.
PACKED_EVM_FLOOR_DB = {
    ("desk", "qpsk"): (-17.31, -22.72), ("desk", "16qam"): (-17.59, -22.11),
    ("desk", "64qam"): (-18.39, -22.93),
    ("lte20", "qpsk"): (-17.39, -22.79), ("lte20", "16qam"): (-17.61, -22.17),
    ("lte20", "64qam"): (-18.51, -22.99),
}
PACKED_BER_FLOOR = {
    ("desk", "qpsk"): 0.0, ("desk", "16qam"): 2.48e-3, ("desk", "64qam"): 8.35e-3,
    ("lte20", "qpsk"): 0.0, ("lte20", "16qam"): 2.48e-3, ("lte20", "64qam"): 8.43e-3,
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
        fir = design_windowed_sinc(order, float(rng.uniform(0.02, 0.4)) * FS, FS,
                                   float(rng.uniform(-0.2, 0.2)) * FS)
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
    sig, grid = tx_subband(spec, bits, fir, policy, upconversion_carrier(spec, FS, policy))
    res = rx_subband(sig, spec, fir, grid, policy,
                     downconversion_carrier(spec, fir, policy),
                     genie_estimates(spec, fir, policy))
    assert ber(bits, res.bits).errors == 0
    assert res.evm_db <= -35.0
    assert res.evm_db == pytest.approx(LOOPBACK_EVM_FLOOR_DB[(width, mod)], abs=0.5)


@pytest.mark.parametrize("preset,mod", sorted(PACKED_EVM_FLOOR_DB))
def test_packed_profile_self_interference_floor(preset, mod):
    cfg = load_scenario(preset_dir() / f"three-subband-{preset}.json")
    fs = cfg.sample_rate_hz
    spec = replace(cfg.subbands[0], modulation=mod)
    fir, policy, _ = design_subband(spec, cfg)
    up = upconversion_carrier(spec, fs, policy)
    down = downconversion_carrier(spec, fir, policy)
    estimates = genie_estimates(spec, fir, policy)
    acc = _ErrorAccumulator(_edge_tone_count(spec))  # the sweep's edge RB and inner tones
    for trial in range(3):
        bits = payload_bits(spec, seeded_rng(cfg.seed, f"accept/packed/{mod}/{trial}"))
        sig, grid = tx_subband(spec, bits, fir, policy, up)
        res = rx_subband(sig, spec, fir, grid, policy, down, estimates)
        acc.add(grid, res.grid, bits, res.bits)
    row = acc.row(0, 0.0, mod, math.inf)
    edge, inner = PACKED_EVM_FLOOR_DB[(preset, mod)]
    assert row.evm_db_edge == pytest.approx(edge, abs=0.5)
    assert row.evm_db_inner == pytest.approx(inner, abs=0.5)
    assert row.ber == pytest.approx(PACKED_BER_FLOOR[(preset, mod)], rel=0.25)


FOUR_SERVICES = ("highway", "pedestrian", "v2v", "urban")  # the preset's subbands, in tone order


@pytest.mark.parametrize("index", range(4), ids=FOUR_SERVICES)
def test_four_service_subband_alone_holds_the_packed_edge_floor(index):
    # Each subband takes the packed filter cut to half its own symbol: at
    # 30 and 60 kHz a half 15 kHz symbol (1,025 taps at 30.72 MHz) spans
    # one and two of their symbols and read -14 dB on the edge RB. Alone
    # and noiseless, QPSK, each must hold the desk floor's edge plus 0.5 dB.
    cfg = load_scenario(preset_dir() / "four-service.json")
    fs = cfg.sample_rate_hz
    spec = cfg.subbands[index]
    assert spec.modulation == "qpsk"
    fir, policy, _ = design_subband(spec, cfg)
    assert len(fir.taps) == min(packed_filter_order(fs), spec.numerology.fft_size // 2) + 1
    up = upconversion_carrier(spec, fs, policy)
    down = downconversion_carrier(spec, fir, policy)
    estimates = genie_estimates(spec, fir, policy)
    acc = _ErrorAccumulator(_edge_tone_count(spec))
    for trial in range(3):
        bits = payload_bits(spec, seeded_rng(cfg.seed, f"accept/four-service/{index}/{trial}"))
        sig, grid = tx_subband(spec, bits, fir, policy, up)
        res = rx_subband(sig, spec, fir, grid, policy, down, estimates)
        acc.add(grid, res.grid, bits, res.bits)
    row = acc.row(0, 0.0, "qpsk", math.inf)
    assert row.evm_db_edge <= PACKED_EVM_FLOOR_DB[("desk", "qpsk")][0] + 0.5
    assert row.ber == 0.0


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
    # The desk preset, and the same band with three numerologies (DESK_MIXED).
    for scenario in ("three-subband-desk", str(DESK_MIXED)):
        t0 = time.monotonic()
        out_off = tmp_path / Path(scenario).stem / "pa_off"
        out_on = tmp_path / Path(scenario).stem / "pa_on"
        assert main(["psd", "--scenario", scenario, "--out", str(out_off)]) == 0
        assert main(["psd", "--scenario", scenario, "--out", str(out_on), "--pa-on"]) == 0
        elapsed = time.monotonic() - t0

        off_vals = _oobe_by_offset(out_off)
        on_vals = _oobe_by_offset(out_on)
        # Offsets are scaled to the desk sample rate; the middle one
        # corresponds to 1 MHz at full scale (250 kHz here).
        mid = sorted({k[1] for k in off_vals})[1]
        assert mid == pytest.approx(250e3, rel=1e-6)

        clean_gap = off_vals[("ofdm", mid)] - off_vals[("fofdm", mid)]
        pa_gap = on_vals[("ofdm", mid)] - on_vals[("fofdm", mid)]
        assert clean_gap >= 20.0, scenario
        assert pa_gap > 5.0, scenario
        assert pa_gap < clean_gap, scenario  # saturation regrowth narrows the advantage
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


def test_fofdm_confines_a_strong_neighbor_that_plain_ofdm_does_not(monkeypatch):
    # The desk sweep once as is and once as plain OFDM: every subband filter
    # replaced by a one-tap pass-through. QPSK edge EVM at seed 1: plain
    # OFDM's baseline reads the 30 dB noise (-30.1 dB), f-OFDM's its filter's
    # self-interference floor (-17.2 dB). A +10 dB neighbour two guard tones
    # away leaves f-OFDM at that floor and lifts plain OFDM to -8.0 dB; with
    # sixteen guard tones plain OFDM still reads -13.2 dB. Not bounded: next
    # to a 0 dB neighbour at two guard tones f-OFDM's floor (-17.2 dB) sits
    # above plain OFDM (-17.7 dB).
    cfg = load_scenario(preset_dir() / "three-subband-desk.json")

    def edges():
        result = guardtone_sweep(cfg, [2, 16], [10.0], 30.0, 20, modulations=("qpsk",))
        return {g: _edge(result, g, 10.0, "qpsk") for g in (2, 16)}
    fofdm = edges()
    monkeypatch.setattr(subband, "design_subband_filter", lambda spec, fs, **_: FirFilter(
        taps=[1.0], sample_rate_hz=fs, mainlobe_samples=1))
    plain = edges()
    assert fofdm[2] <= plain[2] - 5.0
    assert plain[16] > fofdm[2]


def test_two_guards_absorb_strong_interferer_across_numerologies():
    # Guard 0 is not bounded here: at 0 dB the QPSK and 16QAM edge EVM read
    # 1.15 and 1.45 dB above baseline at seed 1, the orthogonality lost
    # between numerologies that guard tones are there to absorb.
    cfg = load_scenario(DESK_MIXED)
    mods = ("qpsk", "16qam", "64qam")
    result = guardtone_sweep(cfg, [2], [10.0], 30.0, 20, modulations=mods)
    for mod in mods:
        assert _edge(result, 2, 10.0, mod) - result.baselines[mod].evm_db_edge < 1.0, mod


# ---------------------------------------------------------------------------
# 5. Normalized throughput arithmetic
# ---------------------------------------------------------------------------

def test_throughput_gain_range(tmp_path, capsys):
    cfg = load_scenario(preset_dir() / "four-service.json")
    # Four services in one 20 MHz band, as 30.72 MHz sample counts: 30 kHz,
    # 3.75 kHz, 60 kHz and 3.75 kHz, against an extended-CP 15 kHz baseline.
    assert [(sb.numerology.fft_size, sb.numerology.cp_samples) for sb in cfg.subbands] == [
        (1024, 90), (8192, 80), (512, 60), (8192, 230)]
    assert main(["throughput", "--scenario", "four-service", "--out", str(tmp_path)]) == 0
    rows = {ln.split(",")[0]: ln.split(",")
            for ln in (tmp_path / "throughput.csv").read_text().splitlines()[1:]}
    assert float(rows["total_ofdm"][3]) == pytest.approx(0.720, abs=1e-3)
    assert 25.0 <= float(rows["gain_percent"][3]) <= 46.0
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
