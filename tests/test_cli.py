"""Command-line front end: preset resolution, output files, manifests, and
rerun determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from waveform_lab import cli, subband
from waveform_lab.cli import main, preset_dir, resolve_scenario_path
from waveform_lab.core import (
    MAX_TTI_SAMPLES,
    MODULATIONS,
    ConfigError,
    Numerology,
    ScenarioConfig,
    SubbandSpec,
    load_scenario,
    scenario_to_dict,
    seeded_rng,
    validate_scenario,
)
from waveform_lab.filters import FirFilter
from waveform_lab.subband import (
    assemble,
    design_subband,
    payload_bits,
    tx_subband,
    tx_subband_unfiltered,
    upconversion_carrier,
)


SRC = Path(__file__).resolve().parent.parent / "src"


def test_importing_the_cli_does_not_load_scipy():
    # Importing scipy.signal cost over a second of every process's start-up.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", "import waveform_lab.cli, sys; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# Preset resolution
# ---------------------------------------------------------------------------

# Every preset the package ships, so a new one is covered without a test edit.
SHIPPED_PRESETS = sorted(p.stem for p in preset_dir().glob("*.json"))


def test_shipped_presets_resolve_by_name():
    assert "four-service" in SHIPPED_PRESETS and "three-subband-desk" in SHIPPED_PRESETS
    for name in SHIPPED_PRESETS:
        path, preset = resolve_scenario_path(name)
        assert path.is_file()
        assert preset == name


def test_explicit_path_wins(tmp_path):
    p = tmp_path / "custom.json"
    p.write_text("{}")
    path, preset = resolve_scenario_path(str(p))
    assert path == p
    assert preset == "custom"


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        resolve_scenario_path("no-such-scenario")


# ---------------------------------------------------------------------------
# psd
# ---------------------------------------------------------------------------

def _read_manifest(out_dir: Path) -> dict:
    """The manifest, refused unless it is strict JSON (no NaN or Infinity)."""
    def refuse(constant):
        raise ValueError(f"manifest holds {constant}")
    with open(out_dir / "manifest.json") as fh:
        return json.load(fh, parse_constant=refuse)


@pytest.mark.parametrize("verb, scenario, extra, stems", [
    ("psd", "three-subband-desk", ["--ttis", "1"], ["fofdm_psd", "ofdm_psd", "oobe_summary"]),
    ("guardtone", None, ["--trials", "1"], ["guardtone_baseline", "guardtone_sweep"]),
    ("throughput", "four-service", [], ["throughput"]),
], ids=["psd", "guardtone", "throughput"])
def test_verb_outputs_and_manifest(tmp_path, capsys, verb, scenario, extra, stems):
    # The manifest names exactly the CSVs in `--out`, keyed by file stem, and
    # records the scenario's seed unless the verb draws no randomness.
    scenario = scenario or _shrunk_desk(tmp_path)
    out = tmp_path / verb
    argv = [verb, "--scenario", scenario, "--out", str(out), *extra]
    assert main(argv) == 0
    doc = _read_manifest(out)
    assert doc["command"] == verb
    assert doc["argv"] == argv  # so the manifest tells `--ttis` and `--pa-on` apart
    assert doc["status"] == "complete"
    assert doc["preset"] == Path(scenario).stem
    assert doc["wall_clock_s"] is not None
    seed = load_scenario(resolve_scenario_path(scenario)[0]).seed
    assert doc["seed"] == (None if verb == "throughput" else seed)
    assert sorted(doc["outputs"]) == stems
    # No `.tmp` file is left beside them.
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["manifest.json", *(f"{stem}.csv" for stem in stems)])
    for stem, entry in doc["outputs"].items():
        p = Path(entry["path"])
        assert p == out / f"{stem}.csv"
        assert hashlib.sha256(p.read_bytes()).hexdigest() == entry["sha256"]
    # Its last printed line names the files written.
    printed = capsys.readouterr().out.splitlines()[-1]
    assert printed.startswith(f"{verb}: wrote ") and printed.endswith(f" to {out}")
    assert all(f"{stem}.csv" in printed for stem in stems)


def test_psd_confinement_advantage(tmp_path):
    out = tmp_path / "psd"
    main(["psd", "--scenario", "three-subband-desk", "--out", str(out),
          "--ttis", "1"])
    rows = (out / "oobe_summary.csv").read_text().strip().splitlines()[1:]
    vals = {}
    for row in rows:
        name, off, db = row.split(",")
        vals[(name, float(off))] = float(db)
    # Offsets scale with the sample rate: desk runs probe 1 MHz / 4 = 250 kHz.
    offs = sorted({k[1] for k in vals})
    assert len(offs) == 3
    mid = offs[1]
    assert vals[("fofdm", mid)] < vals[("ofdm", mid)] - 20.0


def test_psd_pa_flag_changes_output(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(["psd", "--scenario", "three-subband-desk", "--out", str(out_a),
          "--ttis", "1"])
    main(["psd", "--scenario", "three-subband-desk", "--out", str(out_b),
          "--ttis", "1", "--pa-on"])
    a = (out_a / "fofdm_psd.csv").read_bytes()
    b = (out_b / "fofdm_psd.csv").read_bytes()
    assert a != b


def test_psd_segment_fits_the_shorter_composite(tmp_path):
    # Without a CP, one desk TTI's plain composite holds 8,024 samples, under
    # two 4,096-point segments; the f-OFDM one is longer by the filter tails.
    # Both take the segment that fits the plain one.
    def no_cp(cfg):
        for sb in cfg["subbands"]:
            sb["numerology"]["cp_samples"] = 0
    out = tmp_path / "psd"
    rc = main(["psd", "--scenario", _desk_file(tmp_path, no_cp), "--out", str(out),
               "--ttis", "1"])
    assert rc == 0
    for name in ("ofdm", "fofdm"):
        assert len((out / f"{name}_psd.csv").read_text().splitlines()) == 1 + 2048


def test_psd_checks_oobe_windows_before_sending_any_subband(tmp_path, capsys, monkeypatch):
    # A full-band desk copy whose third subband reaches 3.72 MHz validates,
    # but its 1 MHz OOBE window lies beyond Nyquist. The PSD bins follow from
    # the designs, so the run fails before a subband is sent.
    def near_nyquist(cfg):
        cfg["total_bandwidth_hz"] = 7.68e6
        cfg["subbands"][2]["start_tone"] = 200
    scn = _desk_file(tmp_path, near_nyquist)
    sent = []
    monkeypatch.setattr(cli, "tx_subband", lambda *a: sent.append(a))
    monkeypatch.setattr(cli, "tx_subband_unfiltered", lambda *a: sent.append(a))
    out = tmp_path / "psd"
    rc = main(["psd", "--scenario", scn, "--out", str(out), "--ttis", "1"])
    assert rc == 2
    msg = "measurement window at 3845000.0 Hz exceeds Nyquist"
    assert capsys.readouterr().err == f"error: {msg}\n"
    assert sent == []
    manifest = _read_manifest(out)
    assert manifest["status"] == "failed" and manifest["error"] == f"ConfigError: {msg}"


def test_psd_refuses_windows_between_its_bins_before_sending_any_subband(tmp_path, capsys):
    # One 128-sample TTI at 1.92 MHz gives 64-point segments, bins 30 kHz
    # apart: the 15 kHz window 31.25 kHz above a 45 kHz band holds none, and
    # its OOBE would be the mean of no bins, NaN.
    n = Numerology(scs_hz=15e3, fft_size=128, cp_samples=0, symbols_per_tti=1)
    cfg = ScenarioConfig(sample_rate_hz=1.92e6, total_bandwidth_hz=1.92e6, subbands=(
        SubbandSpec(start_tone=0, width_tones=3, guard_tones_left=0, guard_tones_right=0,
                    numerology=n, modulation="qpsk"),))
    scn = tmp_path / "coarse.json"
    scn.write_text(json.dumps(scenario_to_dict(cfg)))
    out = tmp_path / "psd"
    with mock.patch.object(cli, "_psd_composite") as built:
        rc = main(["psd", "--scenario", str(scn), "--out", str(out), "--ttis", "1"])
    assert rc == 2
    assert capsys.readouterr().err == "error: measurement window at 76250.0 Hz holds no PSD bin\n"
    assert not built.called
    assert _read_manifest(out)["status"] == "failed"


def test_psd_bounds_its_composite_before_building_one(tmp_path, capsys):
    # 10^9 desk TTIs would make a 7.7e12-sample composite (112 TiB). The
    # bound is checked from the designs, so no composite is started.
    out = tmp_path / "psd"
    with mock.patch.object(cli, "_psd_composite") as built:
        rc = main(["psd", "--scenario", "three-subband-desk", "--out", str(out),
                   "--ttis", str(10**9)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --ttis 1000000000 asks for a 7672000000804-sample composite")
    assert not built.called
    assert _read_manifest(out)["status"] == "failed"
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    # The longest composite a test or benchmark builds, LTE-20 at 400 TTIs,
    # sits 5.5x below the bound.
    cfg, designs = _preset_designs("three-subband-lte20")
    assert cli._psd_length(cfg, 400, designs, filtered=True) == 12_278_416
    assert 5 * 12_278_416 < cli.MAX_PSD_SAMPLES


def test_subband_too_narrow_for_its_filter_is_rejected_up_front(tmp_path, capsys):
    scn = _desk_file(tmp_path, lambda c: c["subbands"][2].update(width_tones=2))
    out = tmp_path / "x"
    rc = main(["psd", "--scenario", scn, "--out", str(out), "--ttis", "1"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "error: invalid scenario: subband 2: width_tones 2 leaves no filter passband")
    assert not out.exists()
    scn = _desk_file(tmp_path, lambda c: c["subbands"][2].update(width_tones=3))
    for argv in (["psd", "--ttis", "1"], ["guardtone", "--trials", "1"]):
        assert main([*argv, "--scenario", scn, "--out", str(tmp_path / argv[0])]) == 0


def _preset_designs(preset="three-subband-desk"):
    cfg = load_scenario(resolve_scenario_path(preset)[0])
    return cfg, [design_subband(sb, cfg) for sb in cfg.subbands]


def _whole_stream_composites(cfg, ttis):
    """(f-OFDM, plain) composites built the unchunked way: every subband's
    whole stream transmitted in one call, then assembled."""
    long_subbands = cli._scale_ttis(cfg, ttis).subbands
    filtered, plain = [], []
    for i, sb in enumerate(long_subbands):
        bits = payload_bits(sb, seeded_rng(cfg.seed, f"psd/bits/{i}"))
        fir, policy, _ = design_subband(sb, cfg)
        carrier = upconversion_carrier(sb, cfg.sample_rate_hz, policy)
        filtered.append(tx_subband(sb, bits, fir, policy, carrier)[0])
        plain.append(tx_subband_unfiltered(sb, bits, policy, carrier))
    composites = []
    for streams in (filtered, plain):
        out = np.zeros(max(sb.timing_offset_samples + len(s)
                           for sb, s in zip(long_subbands, streams)), dtype=complex)
        for sb, s in zip(long_subbands, streams):
            assemble(out, s, sb.timing_offset_samples)
        composites.append(out)
    return composites


def test_chunked_psd_composites_match_whole_streams():
    cfg, designs = _preset_designs()
    ttis = 2 * cli.PSD_CHUNK_TTIS + 1  # three chunks, the last one TTI long
    whole_f, whole_p = _whole_stream_composites(cfg, ttis)
    chunked_p = cli._psd_composite(cfg, ttis, designs, filtered=False)
    assert np.array_equal(chunked_p, whole_p)
    chunked_f = cli._psd_composite(cfg, ttis, designs, filtered=True)
    assert len(chunked_f) == len(whole_f)
    err = np.linalg.norm(chunked_f - whole_f) / np.linalg.norm(whole_f)
    assert err < 1e-12


def test_psd_transforms_each_filter_once_not_once_per_chunk(tmp_path, monkeypatch):
    spectra = []
    real_spectrum = FirFilter.spectrum

    def spectrum(self, block):
        spectra.append((self, block, real_spectrum(self, block)))
        return spectra[-1][2]
    monkeypatch.setattr(FirFilter, "spectrum", spectrum)
    ttis = 2 * cli.PSD_CHUNK_TTIS + 5  # three chunks, all at the same block size
    assert main(["psd", "--scenario", "three-subband-desk", "--ttis", str(ttis),
                 "--out", str(tmp_path / "psd")]) == 0
    cfg, _ = _preset_designs()
    chunks = -(-ttis // cli.PSD_CHUNK_TTIS)
    assert len(spectra) == chunks * len(cfg.subbands)  # one per f-OFDM chunk
    assert len({id(f) for f, _, _ in spectra}) == len(cfg.subbands)
    assert len({id(s) for _, _, s in spectra}) == len(cfg.subbands)  # one transform each


def _psd_peak_bytes(tmp_path, ttis: int) -> int:
    """tracemalloc peak of one desk `psd --pa-on` call."""
    argv = ["psd", "--scenario", "three-subband-desk", "--pa-on", "--ttis", str(ttis),
            "--out", str(tmp_path / f"psd{ttis}")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_psd_memory_stays_within_a_few_composites(tmp_path):
    ttis = 60
    cfg, designs = _preset_designs()
    composite_bytes = cli._psd_composite(cfg, ttis, designs, filtered=True).nbytes
    peak = _psd_peak_bytes(tmp_path, ttis)
    assert peak <= 1.9 * composite_bytes, f"peak is {peak / composite_bytes:.2f} composites"


def test_psd_memory_grows_only_by_the_composite(tmp_path):
    # The composite is the only whole-stream array: payload bits, PA output
    # and Welch periodograms stay one chunk or batch long.
    cfg, designs = _preset_designs()
    composite = {t: cli._psd_composite(cfg, t, designs, filtered=True).nbytes for t in (60, 120)}
    peak = {t: _psd_peak_bytes(tmp_path, t) for t in (60, 120)}
    growth = (peak[120] - peak[60]) / (composite[120] - composite[60])
    assert growth <= 1.1, f"peak grows by {growth:.2f}x the composite's growth"


@pytest.mark.parametrize("preset", ["three-subband-desk", "three-subband-lte20"])
def test_psd_chunk_payloads_concatenate_to_one_draw(preset):
    cfg = load_scenario(resolve_scenario_path(preset)[0])
    ttis = 2 * cli.PSD_CHUNK_TTIS + 5  # chunks of 10, 10 and 5 TTIs
    whole = cli._scale_ttis(cfg, ttis).subbands
    for i, sb in enumerate(whole):
        rng = seeded_rng(cfg.seed, f"psd/bits/{i}")
        chunks = [payload_bits(
            cli._scale_ttis(cfg, min(cli.PSD_CHUNK_TTIS, ttis - first)).subbands[i], rng)
            for first in range(0, ttis, cli.PSD_CHUNK_TTIS)]
        want = payload_bits(sb, seeded_rng(cfg.seed, f"psd/bits/{i}"))
        assert np.array_equal(np.concatenate(chunks), want), f"subband {i}"


# ---------------------------------------------------------------------------
# guardtone
# ---------------------------------------------------------------------------

def _shrunk_desk(tmp_path) -> str:
    """Desk preset with 2 symbols per TTI so sweeps stay fast."""
    cfg = json.loads(resolve_scenario_path("three-subband-desk")[0].read_text())
    for sb in cfg["subbands"]:
        sb["numerology"]["symbols_per_tti"] = 2
    p = tmp_path / "small-desk.json"
    p.write_text(json.dumps(cfg))
    return str(p)


def test_guardtone_outputs(tmp_path):
    scn = _shrunk_desk(tmp_path)
    out = tmp_path / "gt"
    argv = ["guardtone", "--scenario", scn, "--out", str(out), "--guards", "0,2",
            "--offsets-db", "0", "--trials", "2", "--modulations", "qpsk"]
    rc = main(argv)
    assert rc == 0
    sweep = (out / "guardtone_sweep.csv").read_text().splitlines()
    assert sweep[0] == ("guard_tones,power_offset_db,modulation,snr_db,"
                        "evm_db_edge,evm_db_inner,ber")
    assert len(sweep) == 3
    base = (out / "guardtone_baseline.csv").read_text().splitlines()
    assert base[0] == "modulation,snr_db,evm_db_edge,evm_db_inner,ber"
    assert len(base) == 2
    doc = _read_manifest(out)
    assert doc["status"] == "complete"
    assert doc["argv"] == argv


def test_guardtone_rerun_byte_identical(tmp_path):
    scn = _shrunk_desk(tmp_path)
    args = ["guardtone", "--scenario", scn, "--guards", "0", "--offsets-db",
            "0", "--trials", "2", "--modulations", "qpsk"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(args + ["--out", str(out_a)])
    main(args + ["--out", str(out_b)])
    assert ((out_a / "guardtone_sweep.csv").read_bytes()
            == (out_b / "guardtone_sweep.csv").read_bytes())
    assert ((out_a / "guardtone_baseline.csv").read_bytes()
            == (out_b / "guardtone_baseline.csv").read_bytes())


def test_guardtone_seed_override_changes_rows(tmp_path):
    scn = _shrunk_desk(tmp_path)
    args = ["guardtone", "--scenario", scn, "--guards", "0", "--offsets-db",
            "0", "--trials", "2", "--modulations", "qpsk"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(args + ["--out", str(out_a)])
    main(args + ["--out", str(out_b), "--seed", "99"])
    assert ((out_a / "guardtone_sweep.csv").read_bytes()
            != (out_b / "guardtone_sweep.csv").read_bytes())
    assert _read_manifest(out_a)["seed"] != _read_manifest(out_b)["seed"]


def test_guardtone_unknown_modulation(tmp_path, capsys):
    scn = _shrunk_desk(tmp_path)
    out = tmp_path / "x"
    rc = main(["guardtone", "--scenario", scn, "--out", str(out),
               "--modulations", "1024qam"])
    assert rc == 2
    assert "error" in capsys.readouterr().err
    # The run failed after the manifest was opened: it says so, not "running".
    doc = _read_manifest(out)
    assert doc["status"] == "failed"
    assert "1024qam" in doc["error"]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def _fourth_subband(cfg):
    cfg["subbands"].append({**cfg["subbands"][2], "start_tone": 196, "width_tones": 12,
                            "guard_tones_left": 0, "power_offset_db": 30.0})


def _one_rb_victim(cfg):
    cfg["subbands"][0].update(start_tone=-158, width_tones=12)


def _tight_band(cfg):
    cfg["total_bandwidth_hz"] = 5.82e6


def _lone_interferer(cfg):
    cfg["subbands"] = cfg["subbands"][1:2]


@pytest.mark.parametrize("edit, argv, message", [
    # The sweep sends a victim, an interferer and one more neighbor; a fourth
    # subband would be dropped without a sign in any output.
    (_fourth_subband, [], "the scenario has 4 subbands; the sweep sends three at most"),
    # A one-RB victim is all edge RB: its inner EVM would have no tone to read.
    (_one_rb_victim, [], "subbands[0].width_tones 12 gives the victim 12 data tones, none "
                         "beyond its 12-tone edge RB"),
    # Three guard tones push subbands 0 and 2 past a 5.82 MHz band.
    (_tight_band, ["--guards", "0,1,2,3"],
     "--guards 3 at --offsets-db 0 makes an invalid scenario: subband 0: subband "
     "(including guard tones) exceeds total bandwidth; subband 2: subband (including guard "
     "tones) exceeds total bandwidth"),
    # With no interferer every row would copy the baseline.
    (_lone_interferer, [], "the scenario has 1 subband; the sweep needs a victim and an "
                           "interferer"),
    # Each offset reaches a sweep cell, whose validation refuses it.
    (lambda cfg: None, ["--offsets-db", "nan"],
     "--guards 0 at --offsets-db nan makes an invalid scenario: subband 1: "
     "power_offset_db must be finite"),
], ids=["four-subbands", "one-rb-victim", "guards-past-the-band", "lone-subband",
        "non-finite-offset"])
def test_guardtone_refuses_a_sweep_it_cannot_run_before_sending(
        tmp_path, capsys, edit, argv, message):
    out = tmp_path / "x"
    with mock.patch.object(subband, "tx_subband", wraps=subband.tx_subband) as sent:
        rc = main(["guardtone", "--scenario", _desk_file(tmp_path, edit), "--out", str(out),
                   "--trials", "1", *argv])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not sent.called
    doc = _read_manifest(out)
    assert doc["status"] == "failed" and doc["error"].startswith(f"ConfigError: {message}")
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_a_victim_one_tone_past_its_edge_rb_runs(tmp_path):
    out = tmp_path / "x"
    scn = _desk_file(tmp_path, lambda c: c["subbands"][0].update(start_tone=-159, width_tones=13))
    assert main(["guardtone", "--scenario", scn, "--out", str(out), "--trials", "1",
                 "--guards", "0", "--offsets-db", "0", "--modulations", "qpsk"]) == 0
    assert _non_finite_fields(out) == []


# ---------------------------------------------------------------------------
# throughput
# ---------------------------------------------------------------------------

def _throughput_rows(out_dir: Path) -> dict[str, list[str]]:
    return {ln.split(",")[0]: ln.split(",")
            for ln in (out_dir / "throughput.csv").read_text().splitlines()[1:]}


def test_throughput_report(tmp_path, capsys):
    out = tmp_path / "tp"
    rc = main(["throughput", "--scenario", "four-service", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "OFDM 0.7200" in printed
    assert "link adaptation" in printed
    rows = _throughput_rows(out)
    assert list(rows) == ["0", "1", "2", "3", "total_fofdm", "total_ofdm", "gain_percent"]
    ofdm = float(rows["total_ofdm"][3])
    fofdm = float(rows["total_fofdm"][3])
    gain = float(rows["gain_percent"][3])
    assert ofdm == pytest.approx(0.72, abs=1e-6)
    assert fofdm == pytest.approx(sum(float(rows[str(i)][3]) for i in range(4)), abs=1e-8)
    assert gain == pytest.approx((fofdm / ofdm - 1) * 100, abs=1e-6)
    assert gain == pytest.approx(29.058923, abs=1e-6)


def _throughput_file(tmp_path, edit) -> str:
    scenario = json.loads(resolve_scenario_path("four-service")[0].read_text())
    edit(scenario)
    p = tmp_path / "four-service-edited.json"
    p.write_text(json.dumps(scenario))
    return str(p)


@pytest.mark.parametrize("edit, message", [
    (lambda t: t["subbands"][1]["numerology"].update(fft_size="8192"),
     "scenario.subbands[1].numerology.fft_size must be of type int"),
    (lambda t: t["subbands"][1].update(symbol_duration_us=266.67),
     "unknown keys in scenario.subbands[1]: ['symbol_duration_us']"),
    (lambda t: t["subbands"][2]["numerology"].update(cp_samples=512),
     "invalid scenario: subband 2: cp_samples 512 must lie in [0, fft_size)"),
    (lambda t: t["subbands"].append(3), "scenario.subbands[4] must be a JSON object"),
    # The throughput table's baseline section is no longer a scenario key.
    (lambda t: t.update(baseline={"fft_size": 2048, "cp_samples": 512}),
     "unknown keys in scenario: ['baseline']"),
], ids=["string-fft-size", "leftover-duration-key", "cp-not-below-fft", "non-object-entry",
        "leftover-baseline"])
def test_malformed_throughput_preset_exit_code(tmp_path, capsys, edit, message):
    out = tmp_path / "x"
    rc = main(["throughput", "--scenario", _throughput_file(tmp_path, edit), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


def test_throughput_rows_are_numerologies_the_simulator_builds(tmp_path):
    # Each row is the subband's share of the band with the CP it is sent
    # with: a 4-sample CP under v2v's 12-sample filter mainlobe is extended
    # to 12 samples, as `psd` sends it, and the row counts those 12.
    scn = _throughput_file(tmp_path, lambda t: t["subbands"][2]["numerology"].update(
        cp_samples=4))
    cfg = load_scenario(scn)
    sent = [design_subband(sb, cfg).numerology.cp_samples for sb in cfg.subbands]
    assert sent == [90, 80, 12, 230]
    out = tmp_path / "tp"
    assert main(["throughput", "--scenario", scn, "--out", str(out)]) == 0
    rows = _throughput_rows(out)
    for i, (sb, cp) in enumerate(zip(cfg.subbands, sent)):
        fft = sb.numerology.fft_size
        assert rows[str(i)][1:] == [f"{328 * 15e3 / 20e6:.9f}", f"{cp / (fft + cp):.9f}",
                                    f"{328 * 15e3 / 20e6 * fft / (fft + cp):.9f}"]


@pytest.mark.parametrize("verb, scenario", [("psd", "scenario file"),
                                             ("throughput", "scenario file")])
@pytest.mark.parametrize("content, reason", [
    (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff"),
    (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
], ids=["not-utf8", "nested-too-deep"])
def test_unparsable_input_file_exit_code(tmp_path, capsys, verb, scenario, content, reason):
    p = tmp_path / "input.json"
    p.write_bytes(content)
    assert main([verb, "--scenario", str(p), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {scenario} {p} is not valid JSON: ")
    assert reason in err and "Traceback" not in err


def test_non_object_throughput_preset_exit_code(tmp_path, capsys):
    p = tmp_path / "table.json"
    p.write_text("[1, 2]")
    assert main(["throughput", "--scenario", str(p), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "error: scenario must be a JSON object\n"


# ---------------------------------------------------------------------------
# selftest and errors
# ---------------------------------------------------------------------------

def test_selftest_passes(capsys):
    rc = main(["selftest"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "8/8 passed" in out


def test_selftest_detects_corruption(monkeypatch, capsys):
    real = cli._overlap_save

    def perturbed(*args, **kwargs):
        out = real(*args, **kwargs)
        out[len(out) // 2] *= 1.001
        return out
    monkeypatch.setattr(cli, "_overlap_save", perturbed)
    rc = main(["selftest"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert [ln.split()[:2] for ln in lines if ln.startswith("overlap_save_vs_direct")] == [
        ["overlap_save_vs_direct", "FAIL"]]


@pytest.mark.parametrize("flag", [["--jobs", "2"], ["--corrupt-taps"]], ids=["jobs", "corrupt-taps"])
def test_jobs_flag_rejected(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", *flag])
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["selftest", "throughput"])
def test_seed_flag_rejected_where_unused(verb, tmp_path, capsys):
    argv = [verb, "--seed", "1"]
    if verb == "throughput":
        argv += ["--scenario", "four-service", "--out", str(tmp_path / "tp")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def _desk_file(tmp_path, edit) -> str:
    cfg = json.loads(resolve_scenario_path("three-subband-desk")[0].read_text())
    edit(cfg)
    p = tmp_path / "edited.json"
    p.write_text(json.dumps(cfg))
    return str(p)


@pytest.mark.parametrize("edit, field", [
    (lambda c: c["subbands"][0]["numerology"].update(fft_size=float("nan")), "fft_size"),
    (lambda c: c["subbands"][1].pop("modulation"), "modulation"),
    (lambda c: c.update(subbands=[]), "scenario has no subbands"),
    # A lone subband filling the band, whose filter design would fail.
    (lambda c: c.update(total_bandwidth_hz=7.68e6, subbands=[
        {**c["subbands"][1], "start_tone": -256, "width_tones": 512}]),
     "subband 0: width_tones 512 x 15 kHz reaches sample_rate_hz 7680000"),
    # One TTI that would need gigabytes: rejected before any buffer is allocated.
    (lambda c: c["subbands"][1].update(timing_offset_samples=10**9),
     "subband 1: timing_offset_samples 1000000000"),
    (lambda c: c["subbands"][0]["numerology"].update(symbols_per_tti=10**7),
     "subband 0: timing_offset_samples 0 + symbols_per_tti 10000000"),
    # A finite power offset whose linear amplitude would overflow a float.
    (lambda c: c["subbands"][2].update(power_offset_db=7000),
     "subband 2: power_offset_db 7000 must lie in [-300, 300] dB"),
])
def test_malformed_scenario_field_exit_code(tmp_path, capsys, edit, field):
    scn = _desk_file(tmp_path, edit)
    rc = main(["psd", "--scenario", scn, "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize("argv", [
    ["guardtone", "--snr-db", "nan"],
    # Finite levels beyond 300 dB, which would write inf EVMs.
    ["guardtone", "--snr-db", "-3080"],
    ["guardtone", "--offsets-db", "0,3100"],
    ["guardtone", "--guards", "a"],
    ["guardtone", "--offsets-db", "x"],
    ["guardtone", "--guards", "0,0"],
    ["guardtone", "--offsets-db", "0,-0"],
    ["guardtone", "--modulations", "qpsk,qpsk"],
    ["guardtone", "--guards", "0,0", "--offsets-db", "0,0", "--modulations", "qpsk,qpsk"],
    ["psd", "--ttis", "-1"],
    ["psd", "--ttis", "0"],
], ids=" ".join)
def test_bad_verb_inputs_fail_the_run(tmp_path, capsys, argv):
    out = tmp_path / "x"
    trials = ["--trials", "1"] if argv[0] == "guardtone" else []
    argv = [*argv, *trials, "--scenario", _shrunk_desk(tmp_path), "--out", str(out)]
    rc = main(argv)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    doc = _read_manifest(out)  # strict JSON, a `nan` flag included
    assert doc["status"] == "failed" and doc["argv"] == argv
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


_PA = {"input_backoff_db": 3.0}


@pytest.mark.parametrize("argv, impairments, field", [
    (["psd"], {"pa": _PA}, "impairments.pa"),
    (["guardtone"], {"pa": _PA}, "impairments.pa"),
    (["psd", "--pa-on"], {"snr_db": 20.0}, "impairments.snr_db"),
    (["guardtone"], {"snr_db": 20.0}, "impairments.snr_db"),
    (["psd"], {"channel": "epa"}, "impairments.channel"),
    (["guardtone"], {"channel": "epa"}, "impairments.channel"),
    (["psd", "--pa-on"], {"pa": _PA}, "impairments.pa"),
    (["psd"], {"pa": "off"}, "impairments.pa"),
    (["guardtone"], {"pa": "off"}, "impairments.pa"),
])
def test_unapplied_impairments_rejected(tmp_path, capsys, argv, impairments, field):
    # `psd --pa-on` is the only PA setting and noise comes from `--snr-db`:
    # a scenario's `impairments` section is refused whole, so the message
    # names the section, never the `field` it sets.
    scn = _desk_file(tmp_path, lambda c: c.update(impairments=impairments))
    out = tmp_path / "x"
    rc = main([*argv, "--scenario", scn, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: unknown keys in scenario: ['impairments']\n"
    assert not out.exists()


@pytest.mark.parametrize("verb", ["psd", "guardtone", "throughput"])
@pytest.mark.parametrize("below_file", [False, True], ids=["is-file", "below-file"])
def test_unusable_out_exit_code(tmp_path, capsys, verb, below_file):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "sub" if below_file else blocker
    rc = main([verb, "--scenario", "three-subband-desk", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out ") and "Traceback" not in err
    assert blocker.read_text() == ""


def test_invalid_scenario_exit_code(tmp_path, capsys):
    cfg = json.loads(resolve_scenario_path("three-subband-desk")[0].read_text())
    cfg["subbands"][1]["start_tone"] = -400  # collide with the left subband
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    rc = main(["psd", "--scenario", str(p), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "invalid scenario" in capsys.readouterr().err


def test_shipped_presets_validate(tmp_path):
    for name in SHIPPED_PRESETS:
        cfg = load_scenario(resolve_scenario_path(name)[0])
        assert validate_scenario(cfg).ok
        assert main(["psd", "--scenario", name, "--out", str(tmp_path / name), "--ttis", "1"]) == 0


@st.composite
def _edge_scenarios(draw):
    """Small scenarios at the validator's edges: one to four 1- to 3-tone
    subbands, the first one RB wide or one tone wider at times, lone or packed
    side by side at either edge or the middle of a band from two tones below
    to one tone above the sample rate, CPs of 0 or fft_size - 1, and a timing
    offset that puts the last subband's TTI at or one sample past
    MAX_TTI_SAMPLES."""
    fs = draw(st.sampled_from([1.92e6, 3.84e6]))
    fft = int(fs / 15e3)
    band_tones = fft + draw(st.sampled_from([0, 0, -1, -2, 1]))
    count = draw(st.integers(1, 4))
    widths = [3] * count
    if count == 1 or draw(st.booleans()):
        widths[draw(st.integers(0, count - 1))] = draw(st.integers(1, 3))
    # `guardtone` measures a victim only past its 12-tone edge RB.
    widths[0] = draw(st.sampled_from([widths[0], 12, 13]))
    guards = [draw(st.integers(0, 1)) for _ in widths]
    used = sum(widths) + sum(guards)
    half = band_tones // 2
    start = draw(st.sampled_from([-(used // 2)] * 3 + [-half, -half - 1, half - used,
                                                      half - used + 1]))
    subbands = []
    for i, (width, guard) in enumerate(zip(widths, guards)):
        n = Numerology(scs_hz=15e3, fft_size=fft,
                       cp_samples=draw(st.sampled_from([0, 0, fft // 8, fft - 1])),
                       symbols_per_tti=draw(st.sampled_from([1, 2, 14])))
        edge = MAX_TTI_SAMPLES - n.symbols_per_tti * n.samples_per_symbol
        offsets = [0, 1, fft // 2] + ([edge, edge + 1] if i == count - 1 else [])
        subbands.append(SubbandSpec(
            start_tone=start, width_tones=width, guard_tones_left=0, guard_tones_right=guard,
            numerology=n, modulation=draw(st.sampled_from(["qpsk", "16qam", "64qam"])),
            timing_offset_samples=draw(st.sampled_from(offsets))))
        start += width + guard
    return ScenarioConfig(sample_rate_hz=fs, total_bandwidth_hz=15e3 * band_tones,
                          subbands=tuple(subbands), seed=draw(st.integers(0, 9)))


def _non_finite_fields(out_dir: Path) -> list[str]:
    """Fields of `out_dir`'s CSVs that are neither a label nor a finite number."""
    labels = {*MODULATIONS, "ofdm", "fofdm"}
    return [f"{p.name}: {field}" for p in sorted(out_dir.glob("*.csv"))
            for row in p.read_text().splitlines()[1:] for field in row.split(",")
            if field not in labels and not math.isfinite(float(field))]


@settings(max_examples=30, deadline=None)
@given(cfg=_edge_scenarios(), ttis=st.integers(1, 3))
def test_a_scenario_at_the_validators_edges_runs_or_is_rejected(cfg, ttis):
    # A verb may still refuse a valid scenario on its own terms (a PSD too
    # coarse for the band or its OOBE windows, sweep cells pushed out of the
    # band, more than three subbands or a victim without inner tones to sweep),
    # but only up front: exit 2 before any subband is sent. A completed run
    # writes only labels and finite numbers.
    report = validate_scenario(cfg)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "_psd_composite", wraps=cli._psd_composite) as psd, \
            mock.patch.object(subband, "tx_subband", wraps=subband.tx_subband) as sweep:
        scn = Path(tmp) / "edge.json"
        scn.write_text(json.dumps(scenario_to_dict(cfg)))
        for argv, sent in ((["psd", "--ttis", str(ttis)], psd),
                           (["guardtone", "--trials", "1"], sweep)):
            out = Path(tmp) / argv[0]
            rc = main([*argv, "--scenario", str(scn), "--out", str(out)])
            if not report.ok:
                assert rc == 2 and not out.exists()
            elif rc != 0:
                assert rc == 2 and not sent.called
                assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
            else:
                assert _non_finite_fields(out) == []
            event(f"{argv[0]}: {'rejected' if not report.ok else rc}")
