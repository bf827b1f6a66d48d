"""Configuration model: numerology timing, subband placement, validation,
scenario (de)serialization, and seeded randomness."""

import json
import math
import re
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from waveform_lab.core import (
    ConfigError,
    Numerology,
    ScenarioConfig,
    SubbandSpec,
    load_scenario,
    scenario_from_dict,
    scenario_hash,
    scenario_to_dict,
    seeded_rng,
    validate_scenario,
)

DESK = Numerology(scs_hz=15e3, fft_size=512, cp_samples=36, symbols_per_tti=14)
FS = 7.68e6
DESK_PRESET = load_scenario(
    resources.files("waveform_lab") / "data" / "presets" / "three-subband-desk.json")


def _scenario(subbands, fs=FS, bw=6.5e6, seed=1):
    return ScenarioConfig(
        sample_rate_hz=fs,
        total_bandwidth_hz=bw,
        subbands=tuple(subbands),
        seed=seed,
    )


def _subband(start, width, **kw):
    args = dict(
        start_tone=start,
        width_tones=width,
        guard_tones_left=0,
        guard_tones_right=0,
        numerology=DESK,
        modulation="qpsk",
    )
    args.update(kw)
    return SubbandSpec(**args)


# ---------------------------------------------------------------------------
# Numerology / timing
# ---------------------------------------------------------------------------

def test_numerology_symbol_timing():
    assert 1 / DESK.scs_hz == pytest.approx(1 / 15e3)
    assert DESK.cp_samples / (DESK.scs_hz * DESK.fft_size) == pytest.approx(36 / FS)
    assert DESK.samples_per_symbol == 548


def test_timing_narrow_spacing():
    # 3.75 kHz spacing at the same rate: four times the symbol duration.
    n = Numerology(scs_hz=3.75e3, fft_size=2048, cp_samples=20, symbols_per_tti=14)
    assert n.scs_hz * n.fft_size == pytest.approx(FS)
    assert 1 / n.scs_hz == pytest.approx(266.67e-6, rel=1e-4)


def test_timing_rate_mismatch_rejected():
    report = validate_scenario(_scenario([_subband(-24, 48)], fs=7.69e6))
    assert [v.subband for v in report.violations] == [0]
    assert "sample rate" in report.violations[0].message


def test_timing_cp_exceeding_symbol_rejected():
    bad = Numerology(scs_hz=15e3, fft_size=512, cp_samples=512, symbols_per_tti=14)
    report = validate_scenario(_scenario([_subband(-24, 48, numerology=bad)]))
    assert [v.subband for v in report.violations] == [0]
    assert "cp_samples" in report.violations[0].message


def test_numerology_sample_rate_property():
    assert DESK.scs_hz * DESK.fft_size == pytest.approx(FS)
    assert DESK.samples_per_symbol == 548


# ---------------------------------------------------------------------------
# Subband placement
# ---------------------------------------------------------------------------

def test_subband_edges_and_center():
    sb = _subband(-24, 48)
    assert sb.occupied_low_hz == pytest.approx(-360e3)
    assert sb.occupied_high_hz == pytest.approx(360e3)
    assert sb.center_hz == pytest.approx(0.0)
    assert sb.data_tones == 48


def test_subband_half_tone_symmetry():
    # Data tone d sits at occupied_low + (d + 0.5) * scs; the DC of the
    # baseband grid (bin 0 = tone d = data_tones//2) is the shift frequency.
    sb = _subband(-24, 48)
    d = sb.data_tones // 2
    assert sb.shift_hz == pytest.approx(sb.occupied_low_hz + (d + 0.5) * 15e3)
    # Symmetric occupancy: first and last tone equidistant from the edges.
    first = sb.occupied_low_hz + 0.5 * 15e3
    last = sb.occupied_low_hz + (sb.data_tones - 1 + 0.5) * 15e3
    assert (first - sb.occupied_low_hz) == pytest.approx(sb.occupied_high_hz - last)


def test_subband_reserved_span_includes_guards():
    sb = _subband(-24, 48, guard_tones_left=2, guard_tones_right=3)
    assert sb.reserved_span == (-26, 27)


def test_data_tones_at_wider_spacing():
    n = Numerology(scs_hz=30e3, fft_size=256, cp_samples=18, symbols_per_tti=28)
    sb = _subband(0, 48, numerology=n)
    assert sb.data_tones == 24


# ---------------------------------------------------------------------------
# Scenario validation
# ---------------------------------------------------------------------------

def test_validate_accepts_disjoint_layout():
    cfg = _scenario([_subband(-100, 48), _subband(0, 48)])
    assert validate_scenario(cfg).ok


def test_validate_rejects_overlap():
    cfg = _scenario([_subband(-24, 48), _subband(20, 48)])
    report = validate_scenario(cfg)
    assert not report.ok
    assert any("overlap" in v.message for v in report.violations)


def test_validate_guard_overlap_counts():
    # Adjacent but guard tones collide.
    cfg = _scenario([
        _subband(-48, 48, guard_tones_right=2),
        _subband(1, 48),
    ])
    assert not validate_scenario(cfg).ok


def test_validate_rejects_rate_mismatch():
    n = Numerology(scs_hz=15e3, fft_size=1024, cp_samples=36, symbols_per_tti=14)
    cfg = _scenario([_subband(0, 48, numerology=n)])
    assert not validate_scenario(cfg).ok


def test_validate_rejects_band_overflow():
    cfg = _scenario([_subband(200, 48)], bw=6.5e6)
    assert not validate_scenario(cfg).ok


def test_validate_rejects_fractional_width():
    # Width not a whole number of the subband's own subcarriers.
    n = Numerology(scs_hz=30e3, fft_size=256, cp_samples=18, symbols_per_tti=28)
    cfg = _scenario([_subband(0, 47, numerology=n)])
    assert not validate_scenario(cfg).ok


def _with_subband(cfg, index, **changes):
    subs = list(cfg.subbands)
    subs[index] = replace(subs[index], **changes)
    return replace(cfg, subbands=tuple(subs))


# Every float field of a scenario -> setter(cfg, value, subband index).
_FLOAT_FIELDS = {
    "sample_rate_hz": lambda c, v, i: replace(c, sample_rate_hz=v),
    "total_bandwidth_hz": lambda c, v, i: replace(c, total_bandwidth_hz=v),
    "power_offset_db": lambda c, v, i: _with_subband(c, i, power_offset_db=v),
    "numerology.scs_hz": lambda c, v, i: _with_subband(
        c, i, numerology=replace(c.subbands[i].numerology, scs_hz=v)),
}


@pytest.mark.parametrize("field, value", [
    ("power_offset_db", math.nan),
    ("power_offset_db", -math.inf),
    ("timing_offset_samples", -5),
])
def test_validate_rejects_nonfinite_and_negative_offsets(field, value):
    assert validate_scenario(DESK_PRESET).ok
    if field == "timing_offset_samples":
        cfg = _with_subband(DESK_PRESET, 0, timing_offset_samples=value)
    else:
        cfg = _FLOAT_FIELDS[field](DESK_PRESET, value, 0)
    report = validate_scenario(cfg)
    assert any(field.split(".")[-1] in v.message for v in report.violations)


@pytest.mark.parametrize("bandwidth_hz", [7.68e6 + 1.0, 9e6])
def test_validate_rejects_bandwidth_above_the_sample_rate(bandwidth_hz):
    # Subbands beyond Nyquist: rejected up front, not once both psd
    # composites are built.
    assert validate_scenario(replace(DESK_PRESET, total_bandwidth_hz=7.68e6)).ok
    report = validate_scenario(replace(DESK_PRESET, total_bandwidth_hz=bandwidth_hz))
    assert [(v.subband, v.message) for v in report.violations] == [
        (None, f"total_bandwidth_hz {bandwidth_hz} exceeds sample_rate_hz 7680000.0")]


@pytest.mark.parametrize("width", [1, 2])
def test_validate_rejects_a_subband_too_narrow_for_the_packed_filter(width):
    # A scenario with more than one subband pulls every filter passband in
    # by one tone per edge, which leaves a 1- or 2-tone subband none.
    subs = list(DESK_PRESET.subbands)
    subs[2] = replace(subs[2], width_tones=width)
    report = validate_scenario(replace(DESK_PRESET, subbands=tuple(subs)))
    assert [(v.subband, v.message) for v in report.violations] == [
        (2, f"width_tones {width} leaves no filter passband inside the 1-tone edge "
            "backoff of a multi-subband scenario")]
    subs[2] = replace(subs[2], width_tones=3)
    assert validate_scenario(replace(DESK_PRESET, subbands=tuple(subs))).ok
    # Alone in its scenario, a subband's filter keeps every tone.
    assert validate_scenario(_scenario([_subband(0, width)])).ok


@settings(max_examples=50, deadline=None)
@given(field=st.sampled_from(sorted(_FLOAT_FIELDS)),
       value=st.sampled_from([math.nan, math.inf, -math.inf]),
       index=st.integers(0, len(DESK_PRESET.subbands) - 1))
def test_validate_rejects_any_nonfinite_float(field, value, index):
    assert not validate_scenario(_FLOAT_FIELDS[field](DESK_PRESET, value, index)).ok


def test_validate_rejects_empty_scenario():
    report = validate_scenario(_scenario([]))
    assert [(v.subband, v.message) for v in report.violations] == [
        (None, "scenario has no subbands")]


def test_validate_reports_subband_index():
    cfg = _scenario([_subband(-100, 48), _subband(200, 48)])
    report = validate_scenario(cfg)
    assert not report.ok
    assert report.violations[0].subband == 1


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_scenario_round_trip(tmp_path):
    cfg = _scenario([_subband(-24, 48, guard_tones_right=2, power_offset_db=3.0)])
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario_to_dict(cfg), indent=2, sort_keys=True) + "\n")
    again = load_scenario(path)
    assert again == cfg
    assert scenario_hash(again) == scenario_hash(cfg)


def test_scenario_unknown_key_rejected():
    d = scenario_to_dict(_scenario([_subband(-24, 48)]))
    d["extra"] = 1
    with pytest.raises(ConfigError):
        scenario_from_dict(d)


def test_scenario_unknown_subband_key_rejected():
    d = scenario_to_dict(_scenario([_subband(-24, 48)]))
    d["subbands"][0]["bogus"] = True
    with pytest.raises(ConfigError):
        scenario_from_dict(d)


def _desk_dict():
    return scenario_to_dict(DESK_PRESET)


@pytest.mark.parametrize("edit, field", [
    (lambda d: d["subbands"][0]["numerology"].update(fft_size=math.nan),
     "scenario.subbands[0].numerology.fft_size"),
    (lambda d: d["subbands"][1]["numerology"].update(cp_samples=512.5),
     "scenario.subbands[1].numerology.cp_samples"),
    (lambda d: d["subbands"][2].pop("modulation"), "scenario.subbands[2].modulation"),
    (lambda d: d["subbands"][0].update(modulation=3), "scenario.subbands[0].modulation"),
    (lambda d: d["subbands"][0].update(numerology=512), "scenario.subbands[0].numerology"),
    (lambda d: d.pop("sample_rate_hz"), "scenario.sample_rate_hz"),
    (lambda d: d.update(sample_rate_hz="7.68e6"), "scenario.sample_rate_hz"),
    (lambda d: d.update(total_bandwidth_hz=10**400), "scenario.total_bandwidth_hz"),
    (lambda d: d.update(seed=True), "scenario.seed"),
    (lambda d: d.update(subbands={}), "scenario.subbands"),
    # The PA is set by `psd --pa-on` alone; the scenario has no impairments.
    (lambda d: d.update(impairments={"pa": "off"}), "unknown keys in scenario: ['impairments']"),
    # A section of any shape, or with keys that were never read, fails the
    # same way, on the section's name. The ids name what each row feeds in.
    pytest.param(lambda d: d.update(impairments=[]),
                 "unknown keys in scenario: ['impairments']",
                 id="<lambda>-scenario.impairments"),
    pytest.param(lambda d: d.update(impairments={"snr_db": "high", "channel": "epa"}),
                 "unknown keys in scenario: ['impairments']",
                 id="<lambda>-unknown keys in scenario.impairments: snr_db, channel"),
])
def test_scenario_from_dict_names_malformed_field(edit, field):
    d = _desk_dict()
    edit(d)
    with pytest.raises(ConfigError, match=re.escape(field)):
        scenario_from_dict(d)


def test_scenario_from_dict_defaults_come_from_the_dataclasses():
    d = _desk_dict()
    for key in ("power_offset_db", "timing_offset_samples", "guard_tones_left"):
        del d["subbands"][1][key]
    del d["seed"]
    cfg = scenario_from_dict(d)
    assert cfg.subbands[1].power_offset_db == 0.0
    assert cfg.subbands[1].timing_offset_samples == 0
    assert cfg.subbands[1].guard_tones_left == 0
    assert cfg.seed == 0


@pytest.mark.parametrize("preset, digest", [
    ("three-subband-desk", "6b53c85d3a61b66bdd17420f4a921f231266b6a3cc0c462f34aa705d25416218"),
    ("three-subband-lte20", "6e93ab2cae4a15a5510618ee888f8fad57e2c896b21f6f5513e60f77d6f3611c"),
])
def test_preset_scenario_hashes_are_pinned(preset, digest):
    # A manifest's scenario_hash moves only when a scenario's content or its
    # serialized form does.
    path = resources.files("waveform_lab") / "data" / "presets" / f"{preset}.json"
    assert scenario_hash(load_scenario(path)) == digest


def test_scenario_hash_tracks_content():
    a = _scenario([_subband(-24, 48)])
    b = _scenario([_subband(-24, 48)], seed=2)
    assert scenario_hash(a) != scenario_hash(b)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_scenarios = st.builds(
    ScenarioConfig,
    sample_rate_hz=_finite,
    total_bandwidth_hz=_finite,
    subbands=st.lists(st.builds(
        SubbandSpec,
        start_tone=st.integers(-4096, 4096),
        width_tones=st.integers(-10, 4096),
        guard_tones_left=st.integers(-2, 64),
        guard_tones_right=st.integers(-2, 64),
        numerology=st.builds(Numerology, scs_hz=_finite, fft_size=st.integers(0, 8192),
                             cp_samples=st.integers(0, 8192),
                             symbols_per_tti=st.integers(0, 1024)),
        modulation=st.text(max_size=8),
        power_offset_db=_finite,
        timing_offset_samples=st.integers(-10, 10**6),
    ), max_size=4).map(tuple),
    seed=st.integers(0, 2**64 - 1),
)


@settings(max_examples=50, deadline=None)
@given(_scenarios)
def test_scenario_dict_round_trip_is_identity(cfg):
    again = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(cfg))))
    assert again == cfg
    assert scenario_hash(again) == scenario_hash(cfg)


@pytest.mark.parametrize("preset", ["three-subband-desk", "three-subband-lte20"])
def test_shipped_presets_hold_only_parsed_keys(preset):
    # Every key a preset writes is one the parser reads back, with its value.
    path = resources.files("waveform_lab") / "data" / "presets" / f"{preset}.json"
    with open(path, encoding="utf-8") as fh:
        assert scenario_to_dict(load_scenario(path)) == json.load(fh)


# ---------------------------------------------------------------------------
# Seeded randomness
# ---------------------------------------------------------------------------

def test_seeded_rng_deterministic():
    a = seeded_rng(7, "x").standard_normal(8)
    b = seeded_rng(7, "x").standard_normal(8)
    assert np.array_equal(a, b)


def test_seeded_rng_label_separation():
    a = seeded_rng(7, "x").standard_normal(8)
    b = seeded_rng(7, "y").standard_normal(8)
    assert not np.array_equal(a, b)


def test_seeded_rng_seed_separation():
    a = seeded_rng(7, "x").standard_normal(8)
    b = seeded_rng(8, "x").standard_normal(8)
    assert not np.array_equal(a, b)
