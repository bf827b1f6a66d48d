"""Constellations, OFDM transform pair, equalization, and error counting."""

import tracemalloc
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from waveform_lab.core import ConfigError, Numerology, ResourceGrid, load_scenario, seeded_rng
from waveform_lab.modem import (
    BITS_PER_SYMBOL,
    CONSTELLATIONS,
    ber,
    equalize,
    evm_db,
    ofdm_demodulate,
    ofdm_modulate,
    qam_demap,
    qam_map,
)

DESK = Numerology(scs_hz=15e3, fft_size=512, cp_samples=36, symbols_per_tti=14)


# ---------------------------------------------------------------------------
# Constellations
# ---------------------------------------------------------------------------

def test_qpsk_first_point():
    pt = qam_map(np.array([0, 0]), "qpsk")[0]
    assert pt == pytest.approx((1 + 1j) / np.sqrt(2))


def test_qpsk_gray_axes():
    # First bit flips the real axis, second the imaginary axis.
    assert qam_map(np.array([1, 0]), "qpsk")[0] == pytest.approx((-1 + 1j) / np.sqrt(2))
    assert qam_map(np.array([0, 1]), "qpsk")[0] == pytest.approx((1 - 1j) / np.sqrt(2))


@pytest.mark.parametrize("mod", list(BITS_PER_SYMBOL))
def test_constellation_unit_power(mod):
    pts = CONSTELLATIONS[mod]
    assert len(pts) == 2 ** BITS_PER_SYMBOL[mod]
    assert np.mean(np.abs(pts) ** 2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("mod", list(BITS_PER_SYMBOL))
def test_constellation_gray_neighbors(mod):
    # Nearest neighbor of every point differs in exactly one bit.
    pts = CONSTELLATIONS[mod]
    bps = BITS_PER_SYMBOL[mod]
    for i, p in enumerate(pts):
        d = np.abs(pts - p)
        d[i] = np.inf
        j = int(np.argmin(d))
        assert bin(i ^ j).count("1") == 1


@pytest.mark.parametrize("mod", list(BITS_PER_SYMBOL))
def test_map_demap_round_trip(mod):
    rng = seeded_rng(5, f"modem/{mod}")
    bits = rng.integers(0, 2, 99996)
    n = (len(bits) // BITS_PER_SYMBOL[mod]) * BITS_PER_SYMBOL[mod]
    bits = bits[:n]
    again = qam_demap(qam_map(bits, mod), mod)
    assert np.array_equal(again, bits)


@pytest.mark.parametrize("mod", list(BITS_PER_SYMBOL))
def test_bits_are_bytes_read_msb_first(mod):
    # Point i of the constellation carries label i, MSB first, as uint8 bits.
    bps = BITS_PER_SYMBOL[mod]
    labels = np.arange(2 ** bps)
    bits = ((labels[:, None] >> np.arange(bps - 1, -1, -1)) & 1).astype(np.uint8).ravel()
    points = CONSTELLATIONS[mod]
    assert np.array_equal(qam_map(bits, mod).view(np.uint64), points.view(np.uint64))
    demapped = qam_demap(points, mod)
    assert demapped.dtype == np.uint8
    assert np.array_equal(demapped, bits)


def _squared_distances(symbol: complex, mod: str) -> list[Fraction]:
    """Exact squared distance to every point, from the float coordinate
    differences (rounding those can turn a near-tie into a tie, never reverse
    an order)."""
    return [Fraction(symbol.real - p.real) ** 2 + Fraction(symbol.imag - p.imag) ** 2
            for p in CONSTELLATIONS[mod]]


def _oracle_bits(symbol: complex, mod: str) -> list[int]:
    """Brute-force minimum distance over all points, lowest label on ties."""
    d = _squared_distances(symbol, mod)
    label = d.index(min(d))
    bps = BITS_PER_SYMBOL[mod]
    return [(label >> (bps - 1 - i)) & 1 for i in range(bps)]


def _axis_values(mod: str) -> tuple[list[float], list[float]]:
    """(levels, float-exact decision boundaries) of one constellation axis."""
    levels = sorted(set(CONSTELLATIONS[mod].real.tolist()))
    mids = [(a + b) / 2 for a, b in zip(levels, levels[1:])]
    return levels, [x for x, a, b in zip(mids, levels, levels[1:]) if x - a == b - x]


@pytest.mark.parametrize("mod", list(BITS_PER_SYMBOL))
@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_demap_matches_brute_force_oracle(mod, data):
    levels, boundaries = _axis_values(mod)
    coordinate = st.one_of(
        st.floats(-1.5, 1.5),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(levels + boundaries),
    )
    pairs = data.draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=16))
    symbols = np.array([complex(re, im) for re, im in pairs])
    expected = [b for sym in symbols for b in _oracle_bits(sym, mod)]
    assert qam_demap(symbols, mod).tolist() == expected


@pytest.mark.parametrize("mod", list(BITS_PER_SYMBOL))
def test_demap_ties_resolve_to_lowest_label(mod):
    levels, boundaries = _axis_values(mod)
    assert 0.0 in boundaries
    symbols = [complex(t, u) for t in boundaries for u in levels + boundaries]
    symbols += [complex(u, t) for t in boundaries for u in levels]
    for sym in symbols:
        d = _squared_distances(sym, mod)
        assert d.count(min(d)) >= 2, sym  # a genuine tie between points
        assert qam_demap([sym], mod).tolist() == _oracle_bits(sym, mod), sym
    # At the origin the tied points are the four innermost, and the lowest
    # label takes the positive inner level on both axes.
    assert qam_demap([0j], mod).tolist() == {
        "qpsk": [0, 0], "16qam": [0, 0, 0, 0], "64qam": [0, 0, 0, 0, 1, 1]}[mod]


def test_map_rejects_ragged_bits():
    with pytest.raises(ConfigError):
        qam_map(np.array([0, 1, 0]), "16qam")


def test_map_rejects_unknown_modulation():
    with pytest.raises(ConfigError):
        qam_map(np.array([0, 1]), "256qam")


# ---------------------------------------------------------------------------
# OFDM transform pair
# ---------------------------------------------------------------------------

def _random_grid(rng, tones=48, symbols=14, mod="16qam"):
    bits = rng.integers(0, 2, tones * symbols * BITS_PER_SYMBOL[mod])
    return ResourceGrid(qam_map(bits, mod).reshape(symbols, tones).T)


def test_mod_demod_identity():
    rng = seeded_rng(5, "modem/loop")
    grid = _random_grid(rng)
    sig = ofdm_modulate(grid, DESK)
    assert len(sig) == 14 * 548
    back = ofdm_demodulate(sig, DESK, 0, 48)
    assert np.max(np.abs(back.cells - grid.cells)) < 1e-12


def test_window_advance_neutral_after_equalization():
    # Moving the receiver window into the CP adds a known per-tone phase
    # ramp that the genie estimate removes exactly on an ideal channel.
    rng = seeded_rng(5, "modem/advance")
    grid = _random_grid(rng)
    sig = ofdm_modulate(grid, DESK)
    advance = 11
    raw = ofdm_demodulate(sig, DESK, advance, 48)
    bins = np.arange(48) - 24
    est = np.exp(2j * np.pi * bins * (-advance) / 512)
    eq = equalize(raw, est)
    assert np.max(np.abs(eq.cells - grid.cells)) < 1e-12


def test_advance_must_stay_inside_cp():
    sig = ofdm_modulate(_random_grid(seeded_rng(5, "modem/x")), DESK)
    with pytest.raises(ConfigError):
        ofdm_demodulate(sig, DESK, 36, 48)


def test_demodulate_rejects_short_signal():
    sig = ofdm_modulate(_random_grid(seeded_rng(5, "modem/y")), DESK)
    with pytest.raises(ConfigError):
        ofdm_demodulate(sig[:500], DESK, 0, 48)


def test_modulate_allocates_only_its_output():
    # The LTE-20 interferer: 1,200 tones on a 2,048-point FFT. The grid is
    # scattered into the output's symbol bodies and transformed there, so no
    # (symbols, fft) spectrum is live beside the output.
    path = resources.files("waveform_lab") / "data" / "presets" / "three-subband-lte20.json"
    spec = load_scenario(path).subbands[1]
    n = spec.numerology
    grid = _random_grid(seeded_rng(5, "modem/alloc"), spec.data_tones, n.symbols_per_tti)
    ofdm_modulate(grid, n)  # FFT plans are cached, not counted against a call
    tracemalloc.start()
    try:
        sig = ofdm_modulate(grid, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec.data_tones == 1200
    assert peak < 1.2 * sig.nbytes


def _modulate_axis0(grid, n):
    """Oracle: the tones x symbols (axis-0) formula that `ofdm_modulate` replaced."""
    bins = (np.arange(grid.tones) - grid.tones // 2) % n.fft_size
    spectrum = np.zeros((n.fft_size, grid.symbols), dtype=np.complex128)
    spectrum[bins, :] = grid.cells
    body = np.fft.ifft(spectrum, axis=0, norm="ortho")
    with_cp = np.concatenate([body[n.fft_size - n.cp_samples:, :], body], axis=0)
    return with_cp.reshape(-1, order="F")


def _demodulate_axis0(x, n, advance, tones):
    """Oracle: the gathered-window (axis-0) formula that `ofdm_demodulate` replaced."""
    sps = n.samples_per_symbol
    starts = np.arange(len(x) // sps) * sps + n.cp_samples - advance
    windows = x[starts[None, :] + np.arange(n.fft_size)[:, None]]
    spectrum = np.fft.fft(windows, axis=0, norm="ortho")
    return spectrum[(np.arange(tones) - tones // 2) % n.fft_size, :]


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_symbol_major_transforms_are_bitwise_the_axis0_formulas(data):
    fft = data.draw(st.integers(64, 2048), label="fft_size")
    cp = data.draw(st.integers(0, fft // 4), label="cp")
    symbols = data.draw(st.integers(1, 28), label="symbols")
    tones = data.draw(st.integers(1, fft), label="tones")
    advance = data.draw(st.integers(0, max(cp - 1, 0)), label="advance")
    partial = data.draw(st.integers(0, fft + cp - 1), label="trailing samples")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n = Numerology(scs_hz=15e3, fft_size=fft, cp_samples=cp, symbols_per_tti=symbols)
    grid = ResourceGrid(rng.standard_normal((tones, symbols))
                        + 1j * rng.standard_normal((tones, symbols)))
    sig = ofdm_modulate(grid, n)
    assert np.array_equal(sig.view(np.uint64), _modulate_axis0(grid, n).view(np.uint64))
    tail = rng.standard_normal(partial) + 1j * rng.standard_normal(partial)
    rx = np.concatenate([sig, tail])
    got = ofdm_demodulate(rx, n, advance, tones).cells
    oracle = _demodulate_axis0(rx, n, advance, tones)
    assert got.shape == (tones, symbols)
    assert np.array_equal(got.view(np.uint64), oracle.view(np.uint64))


def test_modulator_unitary_power():
    # 1/sqrt(N) scaling: time-domain power is (tones/N) x grid power (CP off).
    rng = seeded_rng(5, "modem/pwr")
    grid = _random_grid(rng)
    from dataclasses import replace
    sig = ofdm_modulate(grid, replace(DESK, cp_samples=0))
    e_time = np.sum(np.abs(sig) ** 2)
    e_grid = np.sum(np.abs(grid.cells) ** 2)
    assert e_time == pytest.approx(e_grid, rel=1e-12)


# ---------------------------------------------------------------------------
# Equalization, EVM, BER
# ---------------------------------------------------------------------------

def test_equalize_zero_estimate_erases():
    grid = ResourceGrid(np.ones((4, 2), dtype=complex))
    est = np.array([1.0, 0.0, 2.0, 1.0], dtype=complex)
    eq = equalize(grid, est)
    assert np.all(eq.cells[1, :] == 0.0)
    assert np.allclose(eq.cells[[0, 3], :], 1.0)
    assert np.allclose(eq.cells[2, :], 0.5)


def test_equalize_shape_mismatch():
    grid = ResourceGrid(np.ones((4, 2), dtype=complex))
    with pytest.raises(ConfigError):
        equalize(grid, np.ones(3, dtype=complex))


def test_evm_perfect_hits_floor():
    g = ResourceGrid(np.ones((4, 2), dtype=complex))
    assert evm_db(g, g) == -100.0


def test_evm_rejects_an_all_zero_reference():
    # No payload sends an all-zero grid; `rx_subband` relies on this raising.
    zeros = ResourceGrid(np.zeros((4, 2), dtype=complex))
    with pytest.raises(ConfigError, match="no nonzero cells"):
        evm_db(zeros, zeros)


def test_evm_known_error():
    ref = ResourceGrid(np.ones((1, 1), dtype=complex))
    rec = ResourceGrid(np.full((1, 1), 1.0 + 0.1j))
    assert evm_db(ref, rec) == pytest.approx(-20.0, abs=1e-9)


def test_evm_ignores_empty_cells():
    ref = ResourceGrid(np.array([[1.0], [0.0]], dtype=complex))
    rec = ResourceGrid(np.array([[1.0], [5.0]], dtype=complex))
    assert evm_db(ref, rec) == -100.0


def test_ber_counts():
    # int64, the payload's bytes, and int64 sent against demapped bytes.
    for tx_dtype, rx_dtype in ((np.int64, np.int64), (np.uint8, np.uint8), (np.int64, np.uint8)):
        r = ber(np.array([0, 1, 1, 0], dtype=tx_dtype), np.array([0, 1, 0, 1], dtype=rx_dtype))
        assert (r.errors, r.total) == (2, 4)
        assert r.ratio == pytest.approx(0.5)


def test_ber_length_mismatch():
    with pytest.raises(ConfigError):
        ber(np.array([0, 1]), np.array([0, 1, 1]))
