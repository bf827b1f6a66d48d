"""Per-subband transmit/receive chains, tail policies, assembly, and the
guard-tone interference sweep."""

import re
import tracemalloc
from dataclasses import astuple, replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from waveform_lab import subband
from waveform_lab.cli import preset_dir
from waveform_lab.core import (
    ConfigError,
    Numerology,
    ScenarioConfig,
    SubbandSpec,
    load_scenario,
    seeded_rng,
    validate_scenario,
)
from waveform_lab.filters import FirFilter
from waveform_lab.impairments import mean_power
from waveform_lab.metrics import psd_welch
from waveform_lab.modem import BITS_PER_SYMBOL, ber, qam_map
from waveform_lab.subband import (
    DEFAULT_TAIL_THRESHOLD,
    TAIL_NONE,
    TailPolicy,
    assemble,
    build_grid,
    derive_tail_policy,
    design_subband,
    design_subband_filter,
    downconversion_carrier,
    genie_estimates,
    guardtone_sweep,
    packed_filter_order,
    payload_bits,
    rx_subband,
    scenario_filter_profile,
    tx_subband,
    tx_subband_unfiltered,
    upconversion_carrier,
)

FS = 7.68e6
DESK = Numerology(scs_hz=15e3, fft_size=512, cp_samples=36, symbols_per_tti=14)


def _subband(start=-24, width=48, mod="qpsk", **kw):
    args = dict(
        start_tone=start,
        width_tones=width,
        guard_tones_left=0,
        guard_tones_right=0,
        numerology=DESK,
        modulation=mod,
    )
    args.update(kw)
    return SubbandSpec(**args)


def _tx(spec, bits, fir, policy):
    return tx_subband(spec, bits, fir, policy, upconversion_carrier(spec, FS, policy))


def _rx(composite, spec, fir, grid, policy):
    return rx_subband(composite, spec, fir, grid, policy,
                      downconversion_carrier(spec, fir, policy),
                      genie_estimates(spec, fir, policy))


def _loopback(spec, policy=None, fir=None, label="loop"):
    if fir is None:
        fir = design_subband_filter(spec, FS)
    if policy is None:
        policy = derive_tail_policy(fir, spec.numerology, DEFAULT_TAIL_THRESHOLD)
    bits = payload_bits(spec, seeded_rng(1, label))
    sig, grid = _tx(spec, bits, fir, policy)
    res = _rx(sig, spec, fir, grid, policy)
    return bits, res


def _period(shift_hz, fs):
    """Samples after which the subband's carrier repeats."""
    return (Fraction(shift_hz) / Fraction(fs)).denominator


# ---------------------------------------------------------------------------
# Filter defaults and tail policy
# ---------------------------------------------------------------------------

def _taps(width, numerology=DESK):
    return len(design_subband_filter(_subband(width=width, numerology=numerology), FS).taps)


def test_default_order_scales_with_subband_width():
    assert _taps(48) == 65
    assert _taps(288) == 33  # clipped at the floor
    assert _taps(12) == 257


def test_default_order_within_half_symbol():
    for width in (12, 48, 144, 433):
        assert _taps(width) <= (512 + 36) // 2


def _numerology(fft):
    """The desk numerology scaled to `fft` points at 7.68 MHz."""
    return Numerology(scs_hz=FS / fft, fft_size=fft, cp_samples=fft * 36 // 512,
                      symbols_per_tti=14 * 512 // fft)


@pytest.mark.parametrize("fft", [1024, 512, 256, 128])
@pytest.mark.parametrize("width", [12, 24, 48])
def test_default_order_within_half_the_subbands_own_symbol(fft, width):
    # A narrow subband's width-aware order outgrows a 30 or 60 kHz symbol's
    # half; like a given order, it is capped there.
    assert _taps(width, _numerology(fft)) - 1 <= fft // 2


def test_narrow_60khz_64qam_lone_subband_is_error_free_without_noise():
    # 24 reference tones at 60 kHz: 6 data tones of a 128-point FFT. A filter
    # longer than its FFT (129 taps) spread each symbol into the next.
    spec = _subband(start=-12, width=24, mod="64qam", numerology=_numerology(128))
    fir = design_subband_filter(spec, FS)
    policy = derive_tail_policy(fir, spec.numerology)
    for trial in range(40):
        bits = payload_bits(spec, seeded_rng(1, f"lone-60khz/{trial}"))
        sig, grid = _tx(spec, bits, fir, policy)
        res = _rx(sig, spec, fir, grid, policy)
        assert ber(bits, res.bits).errors == 0
        assert res.evm_db <= -35.0


def test_packed_order_is_half_symbol_bound():
    assert packed_filter_order(FS) == 256
    assert packed_filter_order(30.72e6) == 1024


def test_filter_centered_on_subband():
    spec = _subband(start=100, width=48)
    fir = design_subband_filter(spec, FS)
    from waveform_lab.filters import response_at
    peak = abs(response_at(fir, np.array([spec.center_hz]))[0])
    assert peak == pytest.approx(1.0, abs=1e-9)
    off = abs(response_at(fir, np.array([spec.center_hz + 60 * 15e3]))[0])
    assert off < 0.05


def test_backoff_cannot_consume_passband():
    with pytest.raises(ConfigError):
        design_subband_filter(_subband(width=12), FS, edge_backoff_tones=6.0)


def test_tail_policy_wideband_advances_without_extending_cp():
    # A 4-sample mainlobe exceeds a tenth of the 36-sample CP but fits in it:
    # the window advances by half the mainlobe and the CP stays as it is.
    fir = design_subband_filter(_subband(width=288), FS, order=32)
    assert fir.mainlobe_samples == 4
    assert derive_tail_policy(fir, DESK) == TailPolicy(extra_cp_samples=0, rx_advance_samples=2)
    assert derive_tail_policy(fir, DESK, threshold=1.0) == TAIL_NONE


def test_tail_policy_narrowband_extends_cp():
    # 180 kHz subband: the mainlobe outgrows the nominal CP.
    fir = design_subband_filter(_subband(width=12), FS)
    pol = derive_tail_policy(fir, DESK)
    assert pol.extra_cp_samples == fir.mainlobe_samples - DESK.cp_samples
    assert pol.rx_advance_samples == fir.mainlobe_samples // 2


def test_tail_policy_threshold_parameter():
    fir = design_subband_filter(_subband(width=48), FS)  # mainlobe ~22
    assert derive_tail_policy(fir, DESK, threshold=1.0) == TAIL_NONE
    assert derive_tail_policy(fir, DESK, threshold=0.5).rx_advance_samples > 0


def test_scenario_profiles():
    # `design_subband` applies each profile: the explicit chain's filter and
    # tail policy, and the numerology with its CP as sent. An 8-sample CP
    # under the 22-sample filter mainlobe is sent 22 samples long.
    short_cp = replace(DESK, cp_samples=8)
    iso = ScenarioConfig(FS, 6.5e6, (_subband(numerology=short_cp),), 1)
    packed = ScenarioConfig(FS, 6.5e6, (_subband(-100), _subband(0, numerology=short_cp)), 1)
    assert scenario_filter_profile(iso) == (None, 0.0)
    assert scenario_filter_profile(packed) == (256, 1.0)
    for scenario, (order, backoff) in ((iso, (None, 0.0)), (packed, (256, 1.0))):
        spec = scenario.subbands[-1]
        fir = design_subband_filter(spec, FS, order=order, edge_backoff_tones=backoff)
        design = design_subband(spec, scenario)
        assert np.array_equal(design.fir.taps, fir.taps)
        assert design.policy == derive_tail_policy(fir, short_cp)
        assert design.numerology == replace(short_cp, cp_samples=22)


# ---------------------------------------------------------------------------
# Grids and payloads
# ---------------------------------------------------------------------------

def test_build_grid_symbol_major():
    spec = _subband(width=12, mod="qpsk")
    bits = payload_bits(spec, seeded_rng(1, "grid"))
    grid = build_grid(spec, bits)
    assert grid.shape == (12, 14)
    first_symbol = qam_map(bits[: 12 * 2], "qpsk")
    assert np.array_equal(grid[:, 0], first_symbol)


def test_build_grid_wrong_payload():
    for count in (0, 5):  # an empty payload is rejected like a short one
        with pytest.raises(ConfigError):
            build_grid(_subband(width=12), np.zeros(count, dtype=int))


def test_payload_bits_count():
    spec = _subband(width=48, mod="64qam")
    bits = payload_bits(spec, seeded_rng(1, "count"))
    assert len(bits) == 48 * 14 * 6


@pytest.mark.parametrize("mod", list(BITS_PER_SYMBOL))
def test_payload_bits_are_bytes_of_the_int64_draw(mod):
    # One byte per bit, but drawn as int64: every RNG label yields the bits
    # it always did, and leaves its generator where it always did.
    spec = _subband(width=48, mod=mod)
    rng, oracle = seeded_rng(1, f"bytes/{mod}"), seeded_rng(1, f"bytes/{mod}")
    bits = payload_bits(spec, rng)
    draw = oracle.integers(0, 2, 48 * 14 * BITS_PER_SYMBOL[mod], dtype=np.int64)
    assert bits.dtype == np.uint8
    assert np.array_equal(bits, draw)
    assert rng.integers(0, 2**62) == oracle.integers(0, 2**62)


# ---------------------------------------------------------------------------
# Transmit chain
# ---------------------------------------------------------------------------

def test_tx_length_includes_filter_transient():
    spec = _subband()
    fir = design_subband_filter(spec, FS)
    sig, _ = _tx(spec, payload_bits(spec, seeded_rng(1, "len")), fir, TAIL_NONE)
    assert len(sig) == 14 * 548 + len(fir.taps) - 1


def test_tx_power_offset_scales_amplitude():
    spec = _subband()
    bits = payload_bits(spec, seeded_rng(1, "pwr"))
    fir = design_subband_filter(spec, FS)
    lo, _ = _tx(spec, bits, fir, TAIL_NONE)
    hi, _ = _tx(replace(spec, power_offset_db=6.0), bits, fir, TAIL_NONE)
    assert mean_power(hi) / mean_power(lo) == pytest.approx(10 ** 0.6, rel=1e-9)


def test_tx_spectrum_confined():
    # Whole-band subband: negligible emission a few transition widths out.
    spec = _subband(start=-216, width=432)
    order = 256
    fir = design_subband_filter(spec, FS, order=order)
    n_long = replace(DESK, symbols_per_tti=28)
    long_spec = replace(spec, numerology=n_long)
    sig, _ = _tx(long_spec, payload_bits(long_spec, seeded_rng(1, "psd")), fir, TAIL_NONE)
    est = psd_welch(sig, FS, segment_size=2048,
                    in_band_hz=(spec.occupied_low_hz, spec.occupied_high_hz))
    transition = 4 * FS / (order + 1)
    far = np.abs(est.freqs_hz) > (spec.occupied_high_hz + 3 * transition)
    assert far.any()
    assert np.max(est.power_dbr[far]) <= -40.0


def test_unfiltered_tx_matches_filtered_in_band_power():
    spec = _subband()
    bits = payload_bits(spec, seeded_rng(1, "unf"))
    plain = tx_subband_unfiltered(spec, bits, TAIL_NONE, upconversion_carrier(spec, FS, TAIL_NONE))
    assert len(plain) == 14 * 548
    # The short default filter rolls off edge tones, so the filtered signal
    # loses a little energy but stays within ~1.5 dB of the plain one.
    filt, _ = _tx(spec, bits, design_subband_filter(spec, FS), TAIL_NONE)
    e_plain = np.sum(np.abs(plain) ** 2)
    e_filt = np.sum(np.abs(filt) ** 2)
    assert 10 * abs(np.log10(e_filt / e_plain)) < 1.5


def test_unit_filter_tx_matches_unfiltered_chain():
    # f-OFDM with a one-tap unit filter is plain OFDM: both transmit
    # functions share the grid, modulation, upconversion and scaling.
    spec = _subband(mod="16qam", power_offset_db=-3.0)
    bits = payload_bits(spec, seeded_rng(1, "unit"))
    policy = TailPolicy(extra_cp_samples=10, rx_advance_samples=5)
    unit = FirFilter(taps=np.ones(1), sample_rate_hz=FS, mainlobe_samples=1)
    carrier = upconversion_carrier(spec, FS, policy)
    filt, _ = tx_subband(spec, bits, unit, policy, carrier)
    plain = tx_subband_unfiltered(spec, bits, policy, carrier)
    assert len(filt) == len(plain) == 14 * (548 + 10)
    err = np.linalg.norm(filt - plain) / np.linalg.norm(plain)
    assert err < 1e-12


def _traced_peak(call):
    """tracemalloc peak, in bytes, of `call()`."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _desk_chunk():
    """A 10-TTI desk interferer chunk, as `psd` sends it: (spec, fs, bits,
    policy, fir, carrier)."""
    desk = load_scenario(preset_dir() / "three-subband-desk.json")
    fs, sb = desk.sample_rate_hz, desk.subbands[1]
    spec = replace(sb, numerology=replace(sb.numerology,
                                          symbols_per_tti=10 * sb.numerology.symbols_per_tti))
    fir, policy, _ = design_subband(spec, desk)
    carrier = upconversion_carrier(spec, fs, policy)
    bits = payload_bits(spec, seeded_rng(1, "chunk"))
    return spec, fs, bits, policy, fir, carrier


def test_unfiltered_chunk_is_shifted_in_the_modulator_output():
    # The carrier shifts the OFDM baseband in place, so the baseband and an
    # upconverted copy of it are never held at once.
    spec, fs, bits, policy, _, carrier = _desk_chunk()
    out = tx_subband_unfiltered(spec, bits, policy, carrier)  # FFT plans are cached
    peak = _traced_peak(lambda: tx_subband_unfiltered(spec, bits, policy, carrier))
    assert peak < 2.0 * out.nbytes


def test_filtered_chunk_is_convolved_in_one_buffer():
    # Overlap-save stages, filters and compacts its blocks in the one array
    # it returns a view of: no padded input copy, no gathered output copy.
    spec, fs, bits, policy, fir, carrier = _desk_chunk()
    _, up = subband._upconverted(spec, bits, policy, carrier)
    block = subband.default_block_size(len(fir.taps), len(up))
    filtered = subband._overlap_save(up, fir.taps, block, fir.spectrum(block))  # warm-up
    peak = _traced_peak(lambda: subband._overlap_save(up, fir.taps, block, fir.spectrum(block)))
    assert peak < 1.5 * filtered.nbytes, f"peak is {peak / filtered.nbytes:.2f}x the output"
    out, _ = tx_subband(spec, bits, fir, policy, carrier)
    peak = _traced_peak(lambda: tx_subband(spec, bits, fir, policy, carrier))
    assert peak < 3.2 * out.nbytes, f"peak is {peak / out.nbytes:.2f}x the output"


# ---------------------------------------------------------------------------
# Receive chain
# ---------------------------------------------------------------------------

def test_loopback_policy_none_medium_qpsk():
    bits, res = _loopback(_subband(mod="qpsk"), policy=TAIL_NONE, label="none")
    assert ber(bits, res.bits).errors == 0


def test_loopback_derived_policy_all_modulations():
    for mod in BITS_PER_SYMBOL:
        bits, res = _loopback(_subband(mod=mod), label=f"lp/{mod}")
        assert ber(bits, res.bits).errors == 0
        assert res.evm_db <= -35.0


# Properties of the chain rather than of its floats: they hold through a
# re-baseline of the golden files.

@st.composite
def _isolated_subbands(draw):
    """One subband near the presets' isolated profile (15 or 7.5 kHz spacing
    at 7.68 MHz, a normal CP, a TTI or two), anywhere in the band."""
    fft = draw(st.sampled_from([512, 1024]))
    width = draw(st.sampled_from([48, 72, 96, 144]))
    n = Numerology(scs_hz=FS / fft, fft_size=fft,
                   cp_samples=fft * draw(st.integers(34, 38)) // 512,
                   symbols_per_tti=draw(st.integers(14, 28)))
    return _subband(start=draw(st.integers(-200, 200 - width)), width=width, numerology=n,
                    mod=draw(st.sampled_from(sorted(BITS_PER_SYMBOL))))


@settings(max_examples=40, deadline=None)
@given(spec=_isolated_subbands(), seed=st.integers(0, 2**32 - 1))
def test_noiseless_fofdm_loopback_is_error_free(spec, seed):
    fir = design_subband_filter(spec, FS)
    policy = derive_tail_policy(fir, spec.numerology)
    bits = payload_bits(spec, seeded_rng(seed, "loop"))
    sig, grid = _tx(spec, bits, fir, policy)
    # The carrier repeats every `period` samples; the stream spans many periods.
    assert len(sig) > 7 * _period(spec.shift_hz, FS)
    res = _rx(sig, spec, fir, grid, policy)
    assert ber(bits, res.bits).errors == 0
    assert res.evm_db <= -35.0


@st.composite
def _numerology_subbands(draw):
    """One QPSK subband of 24-192 reference tones, anywhere in the band, at
    7.5, 15, 30 or 60 kHz spacing: the 7.68 MHz FFT sizes 1,024 to 128, the
    desk CP scaled with the FFT, and a 1 ms TTI of symbols."""
    fft = draw(st.sampled_from([1024, 512, 256, 128]))
    n = _numerology(fft)
    step = max(1, 512 // fft)  # reference tones per subcarrier
    width = step * draw(st.integers(-(-24 // step), 192 // step))
    return _subband(start=draw(st.integers(-256, 256 - width)), width=width, numerology=n)


@settings(max_examples=40, deadline=None)
@given(spec=_numerology_subbands(), seed=st.integers(0, 2**32 - 1))
def test_noiseless_fofdm_loopback_across_numerologies(spec, seed):
    # The paper's premise is a numerology per subband. A lone QPSK subband
    # at any of them decodes without error; narrow ones at wide spacings
    # have few data tones, so the floor is looser than at 15 kHz. 64QAM is
    # not error-free at every width here, even without noise.
    assert validate_scenario(ScenarioConfig(FS, FS, (spec,))).ok
    fir = design_subband_filter(spec, FS)
    policy = derive_tail_policy(fir, spec.numerology)
    bits = payload_bits(spec, seeded_rng(seed, "numerologies"))
    sig, grid = _tx(spec, bits, fir, policy)
    res = _rx(sig, spec, fir, grid, policy)
    assert ber(bits, res.bits).errors == 0
    assert res.evm_db <= -20.0


@settings(max_examples=25, deadline=None)
@given(spec=_isolated_subbands(), power_db=st.floats(-30, 30), seed=st.integers(0, 2**32 - 1))
def test_transmission_scales_with_amplitude(spec, power_db, seed):
    fir = design_subband_filter(spec, FS)
    policy = derive_tail_policy(fir, spec.numerology)
    bits = payload_bits(spec, seeded_rng(seed, "scale"))
    scaled = replace(spec, power_offset_db=power_db)
    carrier = upconversion_carrier(spec, FS, policy)
    for unit, got in (
        (_tx(spec, bits, fir, policy)[0], _tx(scaled, bits, fir, policy)[0]),
        (tx_subband_unfiltered(spec, bits, policy, carrier),
         tx_subband_unfiltered(scaled, bits, policy, carrier)),
    ):
        expect = scaled.amplitude * unit
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_assembled_composite_is_the_sum_of_its_shifted_subbands(data):
    subs = _sweep_base(symbols=data.draw(st.integers(1, 3))).subbands
    signals, offsets = [], []
    for i in data.draw(st.lists(st.integers(0, len(subs) - 1), min_size=1, max_size=4)):
        spec = subs[i]
        fir = design_subband_filter(spec, FS)
        bits = payload_bits(spec, seeded_rng(data.draw(st.integers(0, 99)), f"asm/{i}"))
        signals.append(_tx(spec, bits, fir, TAIL_NONE)[0])
        offsets.append(data.draw(st.integers(0, 3_000)))
    length = max(o + len(s) for s, o in zip(signals, offsets))
    out = np.zeros(length, dtype=complex)
    for s, o in zip(signals, offsets):
        assemble(out, s, o)
    expect = np.zeros(length, dtype=complex)
    for s, o in zip(signals, offsets):
        expect[o:o + len(s)] += s
    assert np.abs(out - expect).max() <= 1e-12 * np.abs(expect).max()


def test_narrow_subband_tail_treatment_helps():
    spec = _subband(start=-6, width=12)
    fir = design_subband_filter(spec, FS)
    _, plain = _loopback(spec, policy=TAIL_NONE, fir=fir, label="ab")
    _, treated = _loopback(spec, fir=fir, label="ab")
    assert treated.evm_db < plain.evm_db - 3.0


def test_genie_estimates_shape_and_power_offset():
    spec = _subband(power_offset_db=6.0)
    fir = design_subband_filter(spec, FS)
    est = genie_estimates(spec, fir, TAIL_NONE)
    assert est.shape == (48,)
    # Center tone: clean cascade response times the amplitude offset.
    assert abs(est[24]) == pytest.approx(10 ** 0.3, rel=1e-3)


def test_carrier_length_must_match_the_stream():
    spec = _subband()
    fir = design_subband_filter(spec, FS)
    bits = payload_bits(spec, seeded_rng(1, "carrier"))
    longer = replace(spec, numerology=replace(DESK, symbols_per_tti=15))
    with pytest.raises(ConfigError, match="carrier of"):
        tx_subband(spec, bits, fir, TAIL_NONE, upconversion_carrier(longer, FS, TAIL_NONE))
    sig, grid = _tx(spec, bits, fir, TAIL_NONE)
    with pytest.raises(ConfigError, match="carrier of"):
        rx_subband(sig, spec, fir, grid, TAIL_NONE,
                   downconversion_carrier(longer, fir, TAIL_NONE),
                   genie_estimates(spec, fir, TAIL_NONE))


@pytest.mark.parametrize("fs", [FS, 30.72e6])
@pytest.mark.parametrize("shift_hz", [-2.5e6, -7.5e3, 0.0, 7.5e3, 1234567.891, 3.3333e6])
def test_carriers_are_bitwise_the_complex_exponential(shift_hz, fs):
    # Oracles: the plain complex expressions the carriers replace, evaluated
    # at the non-negative remainder of t by the carrier's period.
    period = _period(shift_hz, fs)
    n = replace(DESK, symbols_per_tti=2)
    policy = TailPolicy(extra_cp_samples=5)
    length = 2 * (n.samples_per_symbol + 5)
    for first in (0, 1, 77_280):
        spec = SimpleNamespace(numerology=n, shift_hz=shift_hz, timing_offset_samples=0)
        r = np.mod(np.arange(first, first + length), period)
        oracle = np.exp(2j * np.pi * shift_hz * r / fs)
        got = upconversion_carrier(spec, fs, policy, first).materialize()
        assert np.array_equal(got.view(np.uint64), oracle.view(np.uint64))
    spec = SimpleNamespace(numerology=n, shift_hz=shift_hz)
    for taps in (1, 257, 1025):  # the frame starts at t = taps - 1
        r = np.mod(np.arange(taps - 1, taps - 1 + length), period)
        oracle = np.exp(-2j * np.pi * shift_hz * r / fs)
        fir = SimpleNamespace(taps=np.zeros(taps), sample_rate_hz=fs)
        got = downconversion_carrier(spec, fir, policy).materialize()
        assert np.array_equal(got.view(np.uint64), oracle.view(np.uint64))


_shifts = st.one_of(st.integers(-600, 600).map(lambda k: 7.5e3 * k),
                    st.floats(-1.5e7, 1.5e7, allow_nan=False))


@settings(max_examples=60, deadline=None)
@given(shift_hz=_shifts, fs=st.sampled_from([FS, 30.72e6]), data=st.data())
def test_carriers_are_bitwise_slices_of_longer_streams(shift_hz, fs, data):
    # A carrier's samples depend on their index alone, never on where the
    # stream or the chunk starts or how long it is.
    def spec(symbols):
        return SimpleNamespace(numerology=replace(DESK, symbols_per_tti=symbols),
                               shift_hz=shift_hz)

    policy = TailPolicy(extra_cp_samples=data.draw(st.integers(0, 40)))
    symbols = data.draw(st.integers(1, 3))
    first = data.draw(st.integers(0, 10**6))
    lead = data.draw(st.integers(0, min(first, 3 * 14 * DESK.samples_per_symbol)))
    got = upconversion_carrier(spec(symbols), fs, policy, first).materialize()
    whole = upconversion_carrier(spec(symbols + lead // DESK.samples_per_symbol + 1), fs, policy,
                                 first - lead).materialize()
    assert np.array_equal(got.view(np.uint64), whole[lead:lead + len(got)].view(np.uint64))

    # The frame starts at t = taps - 1: a filter `lead` taps shorter starts
    # its frame `lead` samples earlier, on the same phasor.
    taps = data.draw(st.integers(1, 300))
    lead = data.draw(st.integers(0, taps - 1))
    def fir(taps):
        return SimpleNamespace(taps=np.zeros(taps), sample_rate_hz=fs)

    got = downconversion_carrier(spec(symbols), fir(taps), policy).materialize()
    whole = downconversion_carrier(spec(symbols + 1), fir(taps - lead), policy).materialize()
    assert np.array_equal(got.view(np.uint64), whole[lead:lead + len(got)].view(np.uint64))
    if shift_hz % 7.5e3 == 0:
        # On the grid the carrier repeats every period: a frame one period
        # later is bitwise the same.
        moved = downconversion_carrier(spec(symbols), fir(taps + _period(shift_hz, fs)), policy)
        assert np.array_equal(got.view(np.uint64), moved.materialize().view(np.uint64))


@settings(max_examples=80, deadline=None)
@given(shift_hz=_shifts, fs=st.sampled_from([FS, 30.72e6]), data=st.data())
def test_mixing_by_a_carrier_is_the_product_with_its_samples(shift_hz, fs, data):
    # `_mixed` multiplies a period-long row at a time by the one period a
    # carrier keeps; that is bitwise the product of every sample laid out
    # with the stream, carrier first. Covered: periods longer than the stream
    # (non-grid shifts) and carriers that start mid-period (psd chunks, the
    # receiver's frame).
    spec = SimpleNamespace(numerology=replace(DESK, symbols_per_tti=data.draw(
        st.integers(1, 3))), shift_hz=shift_hz)
    policy = TailPolicy(extra_cp_samples=data.draw(st.integers(0, 40)))
    if data.draw(st.booleans()):
        carrier = upconversion_carrier(spec, fs, policy, data.draw(st.integers(0, 10**6)))
    else:
        fir = SimpleNamespace(taps=np.zeros(data.draw(st.integers(1, 300))), sample_rate_hz=fs)
        carrier = downconversion_carrier(spec, fir, policy)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(len(carrier)) + 1j * rng.standard_normal(len(carrier))
    expect = np.multiply(carrier.materialize(), x.copy())
    got = subband._mixed(x, carrier)  # in place, as the receiver mixes its frame
    assert got is x
    assert np.array_equal(x.view(np.uint64), expect.view(np.uint64))


def test_mixing_a_lone_sample_past_the_rows_is_bitwise_the_product():
    # A 3.84 MHz carrier at 30.72 MHz repeats every 8 samples, so a 585-sample
    # frame leaves one sample past its rows; numpy multiplies a lone sample in
    # place by a loop whose last bit can differ from the vector loop's.
    spec = SimpleNamespace(numerology=replace(DESK, symbols_per_tti=1), shift_hz=3.84e6)
    fir = SimpleNamespace(taps=np.zeros(6), sample_rate_hz=30.72e6)
    carrier = downconversion_carrier(spec, fir, TailPolicy(extra_cp_samples=37))
    assert (len(carrier), len(carrier.head)) == (585, 8)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(585) + 1j * rng.standard_normal(585)
    expect = np.multiply(carrier.materialize(), x)
    assert np.array_equal(subband._mixed(x, carrier).view(np.uint64), expect.view(np.uint64))


@pytest.mark.parametrize("preset", ["three-subband-desk", "three-subband-lte20"])
def test_carriers_stay_accurate_over_long_streams(preset):
    # The exact phasor exp(2j*pi*((K*t) mod M)/M), shift/fs = K/M, in integer
    # arithmetic. The carrier's phase never exceeds 2*pi*|K| in magnitude, so
    # a few of its ulps bound the carrier's error at every t; the former
    # formula, 2*pi*shift*t/fs in floats, drifts far past that by t ~ 10^7.
    cfg = load_scenario(preset_dir() / f"{preset}.json")
    fs = cfg.sample_rate_hz
    for spec in cfg.subbands:
        q = Fraction(spec.shift_hz) / Fraction(fs)
        k, m = q.numerator, q.denominator
        bound = 4 * np.finfo(float).eps * (2 * np.pi * abs(k) + 1)
        for first in (0, 10**7 - 40_000):
            got = upconversion_carrier(spec, fs, TAIL_NONE, first).materialize()
            t = first + np.arange(len(got))
            exact = np.exp(2j * np.pi * np.array([k * i % m for i in t.tolist()]) / m)
            assert len(got) > m  # every residue is checked
            assert np.abs(got - exact).max() <= bound
        # The last window ends at t = 10^7 - 40,000 + len(got).
        former = np.exp(1j * ((2 * np.pi * spec.shift_hz) * t * (1.0 / fs)))
        assert np.abs(former - exact).max() > 100 * bound


def test_downconversion_carrier_is_exact_off_the_sample_rate_grid():
    # 14,999.5 Hz x 512 = 7,679,744 Hz puts the shift of a subband at tone
    # 300 off the sample-rate grid: its carrier repeats only every 30,718,976
    # samples. The frame starts at t = taps - 1 whatever the timing offset,
    # so each sample is the phasor at a small non-negative t. Exact phasor:
    # exp(-2j*pi*((K*t) mod M)/M) for shift/fs = K/M, in integer arithmetic.
    n = Numerology(scs_hz=14_999.5, fft_size=512, cp_samples=36, symbols_per_tti=14)
    fs = n.scs_hz * n.fft_size
    spec = _subband(start=300, width=12, numerology=n, timing_offset_samples=274)
    q = Fraction(spec.shift_hz) / Fraction(fs)
    k, m = q.numerator, q.denominator
    assert (fs, m) == (7_679_744.0, 30_718_976)
    fir = design_subband_filter(spec, fs)
    got = downconversion_carrier(spec, fir, derive_tail_policy(fir, n)).materialize()
    t = len(fir.taps) - 1 + np.arange(len(got))
    exact = np.exp(-2j * np.pi * np.array([k * i % m for i in t.tolist()]) / m)
    assert np.abs(got - exact).max() <= 1e-11


def test_rx_buffer_too_short():
    spec = _subband()
    fir = design_subband_filter(spec, FS)
    bits = payload_bits(spec, seeded_rng(1, "short"))
    sig, grid = _tx(spec, bits, fir, TAIL_NONE)
    cut = sig[: len(sig) // 2]
    with pytest.raises(ConfigError):
        _rx(cut, spec, fir, grid, TAIL_NONE)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def test_assemble_superposition():
    rng = seeded_rng(1, "asm")
    a = rng.standard_normal(100) + 0j
    b = rng.standard_normal(60) + 0j
    out = np.zeros(110, dtype=complex)
    assert assemble(out, a, 0) is None  # in place
    assemble(out, b, 50)
    expect = np.zeros(110, dtype=complex)
    expect[:100] += a
    expect[50:110] += b
    assert np.allclose(out, expect, atol=1e-12)


def test_assemble_rejects_negative_offset():
    out = np.zeros(16, dtype=complex)
    with pytest.raises(ConfigError):
        assemble(out, np.ones(8, dtype=complex), -1)
    assert not out.any()


@pytest.mark.parametrize("offset, length", [(9, 8), (0, 17)])
def test_assemble_rejects_a_stream_past_the_buffer(offset, length):
    out = np.zeros(16, dtype=complex)
    with pytest.raises(ConfigError, match="does not fit a 16-sample buffer"):
        assemble(out, np.ones(length, dtype=complex), offset)
    assert not out.any()
    assemble(out, np.ones(8, dtype=complex), 8)  # ends exactly at the buffer's end
    assert out[8:].sum() == 8


def test_assemble_rejects_empty():
    # There is no list left to be empty: an empty buffer takes no sample,
    # and an empty stream, which fits anywhere up to the end, adds nothing.
    with pytest.raises(ConfigError):
        assemble(np.zeros(0, dtype=complex), np.ones(1, dtype=complex), 0)
    out = np.ones(4, dtype=complex)
    assemble(out, np.empty(0, dtype=complex), 4)
    assert np.array_equal(out, np.ones(4))


# ---------------------------------------------------------------------------
# Guard-tone sweep
# ---------------------------------------------------------------------------

def _sweep_base(symbols=4):
    n = replace(DESK, symbols_per_tti=symbols)
    subs = (
        _subband(start=-194, width=48, guard_tones_right=2, numerology=n),
        _subband(start=-144, width=288, numerology=n,
                 timing_offset_samples=274),
        _subband(start=146, width=48, guard_tones_left=2, numerology=n,
                 timing_offset_samples=548),
    )
    return ScenarioConfig(FS, 6.5e6, subs, seed=1)


def test_sweep_csv_shape_and_order():
    res = guardtone_sweep(_sweep_base(), [2, 0], [0.0], 30.0, 2,
                          modulations=("qpsk", "16qam"))
    lines = res.csv_lines()
    assert lines[0] == ("guard_tones,power_offset_db,modulation,snr_db,"
                        "evm_db_edge,evm_db_inner,ber")
    assert len(lines) == 1 + 4
    # Sorted by guard count then modulation despite the [2, 0] request order.
    firsts = [ln.split(",")[0] for ln in lines[1:]]
    assert firsts == ["0", "0", "2", "2"]


def test_sweep_deterministic():
    a = guardtone_sweep(_sweep_base(), [0], [0.0], 30.0, 2, modulations=("qpsk",))
    b = guardtone_sweep(_sweep_base(), [0], [0.0], 30.0, 2, modulations=("qpsk",))
    assert a.csv_lines() == b.csv_lines()


def test_sweep_guard_monotone_and_baseline_anchor():
    res = guardtone_sweep(_sweep_base(), [0, 1, 2], [0.0], 30.0, 4,
                          modulations=("qpsk",))
    by_guard = {r.guard_tones: r.evm_db_edge for r in res.rows}
    assert by_guard[2] <= by_guard[1] + 0.1 <= by_guard[0] + 0.2
    # With two guard tones the edge RB sits within 1 dB of the isolated run.
    assert by_guard[2] - res.baselines["qpsk"].evm_db_edge < 1.0


def test_sweep_refuses_a_lone_subband_before_sending(monkeypatch):
    # With no interferer every row would copy the baseline.
    sent, real = [], subband.tx_subband
    monkeypatch.setattr(subband, "tx_subband", lambda *a: sent.append(a) or real(*a))
    base = ScenarioConfig(FS, 6.5e6, (_subband(),), seed=1)
    with pytest.raises(ConfigError, match="^the scenario has 1 subband; the sweep needs "
                                          "a victim and an interferer$"):
        guardtone_sweep(base, [0, 2], [0.0], 30.0, 2, modulations=("qpsk",))
    assert sent == []


def test_sweep_builds_trial_invariants_once_per_cell(monkeypatch):
    # Filters, carriers and genie estimates depend on neither the trial, the
    # power offset nor the modulation: each is built once per call for each
    # distinct subband, and each downconversion carrier, like each genie
    # estimate, once per distinct victim. The interferer does not move with
    # the guard count, and the baseline's victim is guard 2's. In each trial
    # of a modulation the victim's payload and the noise are drawn once, and
    # each distinct victim is sent once, for every group and offset.
    calls = {}

    def counted(name):
        real = getattr(subband, name)

        def wrapper(*args, **kwargs):
            calls.setdefault(name, []).append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(subband, name, wrapper)

    for name in ("design_subband_filter", "genie_estimates", "upconversion_carrier",
                 "downconversion_carrier", "payload_bits", "_sweep_noise", "tx_subband"):
        counted(name)
    spectra = []
    real_spectrum = FirFilter.spectrum

    def spectrum(self, block):
        spectra.append((self, block, real_spectrum(self, block)))
        return spectra[-1][2]
    monkeypatch.setattr(FirFilter, "spectrum", spectrum)
    guards, offsets, mods, trials = [0, 2], [0.0, 10.0], ("qpsk", "16qam"), 3
    guardtone_sweep(_sweep_base(), guards, offsets, 30.0, trials, modulations=mods)
    victims = len(guards)  # guard 0's and guard 2's, which is the baseline's
    designed = victims + 1 + len(guards)  # victims, interferer, third subbands
    cells = len(guards) * len(offsets) * len(mods)
    assert {name: len(args) for name, args in calls.items()} == {
        "design_subband_filter": designed,
        "genie_estimates": victims,
        "downconversion_carrier": victims,
        "upconversion_carrier": designed,
        "payload_bits": trials * (len(mods) + 2 * cells),  # interferer, third subband per cell
        "_sweep_noise": trials * len(mods),
        "tx_subband": trials * (victims * len(mods) + 2 * cells),
    }
    assert len({args[0] for args in calls["design_subband_filter"]}) == designed
    victim_bits = [a for a in calls["payload_bits"] if a[0].timing_offset_samples == 0]
    assert len(victim_bits) == trials * len(mods)
    sent = [a[0] for a in calls["tx_subband"] if a[0].timing_offset_samples == 0]
    assert len(sent) == trials * len(mods) * victims
    assert all(len(set(sent[i:i + victims])) == victims
               for i in range(0, len(sent), victims))
    # Each (filter, block) is transformed once for all trials, offsets and
    # modulations.
    transforms = {id(s) for _, _, s in spectra}
    assert len(transforms) == len({(id(f), block) for f, block, _ in spectra})
    assert len({id(f) for f, _, _ in spectra}) == designed
    # Per trial: each victim's tx, two more tx and one rx per cell, one rx per baseline.
    assert len(spectra) == trials * (victims * len(mods) + 3 * cells + len(mods))
    # A one-modulation call builds as much.
    built = ("design_subband_filter", "genie_estimates", "upconversion_carrier",
             "downconversion_carrier")
    counts = {name: len(calls[name]) for name in built}
    calls.clear()
    guardtone_sweep(_sweep_base(), guards, offsets, 30.0, 1, modulations=mods[:1])
    assert {name: len(calls[name]) for name in built} == counts


def test_sweep_memory_is_scoped_to_one_pass():
    # The designs, carriers, estimates and buffer are built once per call and
    # shared by every modulation, and one modulation's trial streams are
    # freed before the next modulation's are sent, so three modulations peak
    # as high as one.
    desk = load_scenario(preset_dir() / "three-subband-desk.json")

    def sweep(*mods):
        return guardtone_sweep(desk, [0, 2], [0.0, 10.0], 30.0, 1, modulations=mods)
    sweep("qpsk")  # FFT plans are cached, not counted against a sweep
    one = _traced_peak(lambda: sweep("qpsk"))
    three = _traced_peak(lambda: sweep("qpsk", "16qam", "64qam"))
    assert three <= 1.05 * one


def test_sweep_cell_holds_one_stream_beyond_the_baseline():
    # A guard cell adds each other subband to the composite as it is sent and
    # its noise prefix in place, so it peaks under two transmitted streams
    # above the baseline-only sweep, against 4.0 when every stream was held
    # until assembly and the noise prefix was a copy. The 1.2 streams it
    # reads on LTE-20 say where the receiver is built, not what a cell holds:
    # the baseline-only sweep peaks while its genie estimate's temporary is
    # built beside the trial's streams, a higher reference than a cell's own
    # streams alone would set.
    lte = load_scenario(preset_dir() / "three-subband-lte20.json")
    fir, _, sent = design_subband(lte.subbands[1], lte)
    stream = 16 * (sent.tti_samples + len(fir.taps) - 1)  # complex128 samples

    def sweep(*guards):
        return guardtone_sweep(lte, list(guards), [0.0], 30.0, 1, modulations=("64qam",))
    sweep(0)  # FFT plans are cached, not counted against a sweep
    baseline = _traced_peak(sweep)
    cell = _traced_peak(lambda: sweep(0))
    assert cell < baseline + 2 * stream, f"{(cell - baseline) / stream:.2f} streams"


def _row_bits(rows):
    return [repr(astuple(r)) for r in rows]


def test_sweep_offsets_share_work_without_changing_rows():
    # One sweep over two offsets shares the victim and the noise between
    # them; its rows are bitwise those of one sweep per offset.
    args = (_sweep_base(), [0, 2])
    kw = dict(snr_db=30.0, trials=2, modulations=("qpsk", "16qam"))
    joint = guardtone_sweep(*args, [0.0, 10.0], **kw)
    apart = [r for p in (0.0, 10.0) for r in guardtone_sweep(*args, [p], **kw).rows]
    apart.sort(key=lambda r: (r.guard_tones, r.power_offset_db, r.modulation))
    assert len(joint.rows) == 8
    assert _row_bits(joint.rows) == _row_bits(apart)


def test_sweep_guard_and_baseline_rows_do_not_depend_on_the_other_groups():
    # A modulation's groups share the victim's payload, its transmission and
    # one noise draw per trial, but no group's rows depend on which others run.
    kw = dict(snr_db=30.0, trials=2, modulations=("qpsk", "64qam"))
    joint = guardtone_sweep(_sweep_base(), [0, 1, 2], [0.0, 10.0], **kw)
    for guard in (0, 1, 2):
        alone = guardtone_sweep(_sweep_base(), [guard], [0.0, 10.0], **kw)
        assert _row_bits(alone.rows) == _row_bits(r for r in joint.rows if r.guard_tones == guard)
        assert _row_bits(alone.baselines.values()) == _row_bits(joint.baselines.values())
    isolated = guardtone_sweep(_sweep_base(), [], [0.0, 10.0], **kw)
    assert isolated.rows == ()
    assert _row_bits(isolated.baselines.values()) == _row_bits(joint.baselines.values())


def test_sweep_error_sums_do_not_depend_on_the_grids_memory_order(monkeypatch):
    # The sent grid reaches the accumulator as a transposed view, not a
    # C-ordered array. A float sum's bits depend on the order it runs in, so
    # every sum must match that of C-ordered (and F-ordered) copies.
    added = []
    real_add = subband._ErrorAccumulator.add

    def spy(self, *args):
        added.append((self.edge_count, *args))
        return real_add(self, *args)
    monkeypatch.setattr(subband._ErrorAccumulator, "add", spy)
    desk = load_scenario(preset_dir() / "three-subband-desk.json")
    guardtone_sweep(desk, [0], [10.0], 30.0, 2, modulations=("qpsk", "16qam", "64qam"))
    assert any(not sent.flags.c_contiguous for _, sent, *_ in added)

    def sums(edge_count, sent, received, tx_bits, rx_bits):
        acc = subband._ErrorAccumulator(edge_count)
        real_add(acc, sent, received, tx_bits, rx_bits)
        return [v.hex() for v in (acc.err_edge, acc.ref_edge, acc.err_inner, acc.ref_inner)]

    for k, sent, received, tx_bits, rx_bits in added:
        got = sums(k, sent, received, tx_bits, rx_bits)
        for layout in (np.ascontiguousarray, np.asfortranarray):
            assert sums(k, layout(sent), layout(received), tx_bits, rx_bits) == got


@settings(max_examples=40, deadline=None)
@given(longest=st.integers(1, 5_000), data=st.data())
def test_noise_prefix_is_the_shorter_draw_of_the_same_label(longest, data):
    # A baseline's noise is cut from the longer noise of its modulation's
    # guard groups, drawn from the same label, and added in place.
    # The longest cell adds the whole noise.
    for length in (data.draw(st.integers(1, longest)), longest):
        seed, label = data.draw(st.integers(0, 2**32 - 1)), f"noise/baseline/qpsk/{length}"
        variance = data.draw(st.floats(1e-6, 10.0))
        noise = subband._sweep_noise(longest, variance, seeded_rng(seed, label))
        fresh = subband._sweep_noise(length, variance, seeded_rng(seed, label))
        comp = subband._sweep_noise(length, 1.0, seeded_rng(seed, "composite"))
        want = comp + fresh
        subband._add_noise_prefix(comp, noise)
        assert np.array_equal(comp.view(np.uint64), want.view(np.uint64))


def _desk_sweep(edit=None, offsets=(10.0,)):
    """Two-trial guard-0 QPSK sweep of the desk preset, one subband edited."""
    desk = load_scenario(preset_dir() / "three-subband-desk.json")
    if edit is not None:
        i, field, value = edit
        subs = list(desk.subbands)
        subs[i] = replace(subs[i], **{field: value})
        desk = replace(desk, subbands=tuple(subs))
    return guardtone_sweep(desk, [0], list(offsets), 30.0, 2, modulations=("qpsk",))


@pytest.mark.parametrize("edit", [
    (0, "timing_offset_samples", 100),
    (1, "timing_offset_samples", 100),
    (2, "timing_offset_samples", 100),
    (2, "power_offset_db", 3.0),
], ids=lambda e: f"subband {e[0]} {e[1]}")
def test_sweep_reads_the_fields_it_does_not_sweep(edit):
    # The sweep moves start tones and sets guards, modulation and the
    # interferer's power; every other field is the scenario's and acts. Past
    # the interferer's 288 tones, the third subband's power moves the rows
    # only below the printed digits.
    edited, preset = _desk_sweep(edit), _desk_sweep()
    assert _row_bits(edited.rows) != _row_bits(preset.rows)
    if edit[1] == "timing_offset_samples":
        assert edited.csv_lines() != preset.csv_lines()


def test_victim_power_offset_keeps_its_snr_and_its_baseline():
    # The noise follows the victim's power, so its per-tone SNR stays
    # `snr_db` and the baseline reads the same; only its ratio to the
    # neighbors moves, and a stronger victim reads a cleaner edge.
    preset, louder = _desk_sweep(), _desk_sweep((0, "power_offset_db", 3.0))
    assert louder.baseline_csv_lines() == preset.baseline_csv_lines()
    assert louder.rows[0].evm_db_edge < preset.rows[0].evm_db_edge - 1.0


@pytest.mark.parametrize("victim_db", [0.0, 3.0])
def test_a_victim_power_offset_builds_no_second_design(monkeypatch, victim_db):
    # Designs are keyed at zero power offset, the victim's too: three
    # victims (the baseline's is guard 2's), the interferer and three third
    # subbands, whatever the victim's power.
    designed = []
    real = subband.design_subband_filter
    monkeypatch.setattr(subband, "design_subband_filter",
                        lambda *a, **k: designed.append(a[0]) or real(*a, **k))
    desk = load_scenario(preset_dir() / "three-subband-desk.json")
    victim = replace(desk.subbands[0], power_offset_db=victim_db)
    desk = replace(desk, subbands=(victim, *desk.subbands[1:]))
    guardtone_sweep(desk, [0, 1, 2], [0.0, 10.0], 30.0, 1, modulations=("qpsk",))
    assert len(designed) == 7


def test_negative_zero_offset_is_the_zero_offset_cell():
    # One cell, one RNG label and one row, printed as 0.
    assert _desk_sweep(offsets=[-0.0]).csv_lines() == _desk_sweep(offsets=[0.0]).csv_lines()


@pytest.mark.parametrize("guards, offsets, modulations, repeated", [
    ([0, 0], [0.0], ("qpsk",), "guard count 0 "),
    ([0], [10.0, 10], ("qpsk",), "power offset 10.0 "),
    ([0], [0.0, -0.0], ("qpsk",), "power offset -0.0 "),
    ([0], [0.0], ("qpsk", "16qam", "qpsk"), "modulation 'qpsk' "),
    # Distinct values that print alike would share one RNG label and one row.
    ([0], [3.0000001, 3.0000002], ("qpsk",),
     "power offset 3.0000002 appears more than once in the sweep, as 3"),
])
def test_sweep_rejects_repeated_axis_values(guards, offsets, modulations, repeated):
    with pytest.raises(ConfigError, match=re.escape(repeated)):
        guardtone_sweep(_sweep_base(), guards, offsets, 30.0, 1, modulations=modulations)


@pytest.mark.parametrize("snr_db, modulations", [
    (30.0, ("bpsk",)),
    (30.0, ("qpsk", "256qam")),
    (float("nan"), ("qpsk",)),
    (float("inf"), ("qpsk",)),
])
def test_sweep_rejects_unknown_modulation_and_nonfinite_snr(snr_db, modulations):
    with pytest.raises(ConfigError):
        guardtone_sweep(_sweep_base(), [0], [0.0], snr_db, 1, modulations=modulations)


def test_sweep_validates_inputs():
    with pytest.raises(ConfigError):
        guardtone_sweep(_sweep_base(), [0], [0.0], 30.0, 0, modulations=("qpsk",))
    bad = replace(_sweep_base(), sample_rate_hz=7.69e6)
    with pytest.raises(ConfigError):
        guardtone_sweep(bad, [0], [0.0], 30.0, 1, modulations=("qpsk",))
