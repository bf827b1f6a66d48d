"""Batch command-line front end.

Verbs: psd | guardtone | throughput | selftest. Each data verb is a function
of the validated scenario that returns its CSV lines by file stem; one runner,
`_run_verb`, writes a run manifest before any data file, then the CSVs, then
finalizes the manifest with output hashes and wall clock, or marks it failed
with the error, so partial runs are detectable. `selftest` writes no file.
Files are replaced atomically. All CSVs use "." decimals and "\\n" line
endings; identical (scenario, seed, version) reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    MAX_PSD_SAMPLES,
    MODULATIONS,
    REFERENCE_TONE_HZ,
    ConfigError,
    ScenarioConfig,
    load_scenario,
    scenario_hash,
    seeded_rng,
    validate_scenario,
)
from .filters import _overlap_save, default_block_size, design_windowed_sinc, direct_convolve
from .impairments import complex_noise, pa_rapp
from .metrics import (THROUGHPUT_CAVEAT, ThroughputInput, normalized_throughput, oobe,
                      oobe_windows, psd_welch, welch_freqs)
from .modem import evm_db, ofdm_demodulate, ofdm_modulate
from .subband import (
    assemble,
    design_subband,
    downconversion_carrier,
    genie_estimates,
    guardtone_sweep,
    payload_bits,
    rx_subband,
    tx_subband,
    tx_subband_unfiltered,
    upconversion_carrier,
)

FULL_SCALE_RATE_HZ = 30.72e6
PA_BACKOFF_DB = 9.6
PA_SMOOTHNESS = 2.0


def preset_dir() -> Path:
    return Path(resources.files("waveform_lab")) / "data" / "presets"


def resolve_scenario_path(name_or_path: str) -> tuple[Path, str]:
    """Return (path, preset name). Bare names resolve in the preset directory."""
    p = Path(name_or_path)
    if p.is_file():
        return p, p.stem
    candidate = preset_dir() / f"{name_or_path}.json"
    if candidate.is_file():
        return candidate, name_or_path
    raise ConfigError(f"scenario {name_or_path!r} is neither a file nor a known preset")


def _out_dir(path: str) -> Path:
    """The `--out` directory, created if absent; an unusable path is a ConfigError."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"--out {path!r} is not a usable directory: {e.strerror}") from None
    return out_dir


def _write_atomic(path: Path, text: str) -> None:
    """Write to a temp file beside `path`, then rename it into place, so a
    reader never sees a half-written file under the final name."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_csv(path: Path, lines: list[str]) -> None:
    _write_atomic(path, "".join(ln + "\n" for ln in lines))


class ManifestWriter:
    """Run manifest; `status` goes running -> complete, or failed (with the
    error) when the verb raises inside the `with` block. `argv` is the
    argument list `main` parsed, kept as strings, so a `nan` flag stays
    valid JSON."""

    def __init__(self, out_dir: Path, args, scn_hash: str, seed: int, preset: str):
        self.path = out_dir / "manifest.json"
        self.started = time.monotonic()
        self.doc = {
            "command": args.command,
            "argv": args.argv,
            "scenario_hash": scn_hash,
            "seed": seed,
            "preset": preset,
            "library_version": __version__,
            "status": "running",
            "outputs": {},
            "wall_clock_s": None,
        }
        self._flush()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None:
            self.doc["status"] = "failed"
            self.doc["error"] = f"{exc_type.__name__}: {exc}"
            self.doc["wall_clock_s"] = round(time.monotonic() - self.started, 3)
            self._flush()
        return False

    def _flush(self):
        _write_atomic(self.path, json.dumps(self.doc, indent=2, sort_keys=True) + "\n")

    def finalize(self, outputs: dict[str, Path]):
        self.doc["outputs"] = {
            name: {"path": str(p), "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
            for name, p in outputs.items()
        }
        self.doc["status"] = "complete"
        self.doc["wall_clock_s"] = round(time.monotonic() - self.started, 3)
        self._flush()


def _run_verb(args) -> int:
    """Load and validate the scenario, then run the data verb inside one
    manifest and write each CSV it returns as `--out/<stem>.csv`. Scenario
    and `--out` errors come before the manifest; the verb's own error marks
    it failed."""
    path, preset = resolve_scenario_path(args.scenario)
    cfg = load_scenario(path)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    report = validate_scenario(cfg)
    if not report.ok:
        raise ConfigError(f"invalid scenario: {report.describe()}")
    out_dir = _out_dir(args.out)
    seed = cfg.seed if args.seeded else None
    with ManifestWriter(out_dir, args, scenario_hash(cfg), seed, preset) as manifest:
        outputs = {}
        for stem, lines in args.verb(cfg, args).items():
            outputs[stem] = out_dir / f"{stem}.csv"
            _write_csv(outputs[stem], lines)
        manifest.finalize(outputs)
    print(f"{args.command}: wrote {', '.join(p.name for p in outputs.values())} to {out_dir}")
    return 0


def _parse_list(text: str, kind: type, flag: str) -> list:
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} must be a comma list of {kind.__name__}, got {text!r}") from None


# ---------------------------------------------------------------------------
# psd
# ---------------------------------------------------------------------------

def _scale_ttis(cfg: ScenarioConfig, n_ttis: int) -> ScenarioConfig:
    subs = tuple(
        replace(sb, numerology=replace(
            sb.numerology, symbols_per_tti=sb.numerology.symbols_per_tti * n_ttis))
        for sb in cfg.subbands
    )
    return replace(cfg, subbands=subs)


# `psd` sends each subband's stream in chunks of this many TTIs, drawing each
# chunk's payload as it goes, so a run holds one composite and one chunk's
# temporaries at a time, whatever `--ttis` is.
PSD_CHUNK_TTIS = 10


def _psd_length(cfg: ScenarioConfig, ttis: int, designs, filtered: bool) -> int:
    """Samples in the f-OFDM (`filtered`) or plain-OFDM composite of `ttis`
    TTIs per subband, given each subband's `design_subband`; the f-OFDM one
    is longer by the filter tails."""
    return max(sb.timing_offset_samples + ttis * n.tti_samples
               + (len(fir.taps) - 1 if filtered else 0)
               for sb, (fir, _, n) in zip(cfg.subbands, designs))


def _psd_composite(cfg: ScenarioConfig, ttis: int, designs, filtered: bool) -> np.ndarray:
    """The samples of the f-OFDM (`filtered`) or plain-OFDM composite of
    `ttis` TTIs per subband, overlap-adding chunks of PSD_CHUNK_TTIS TTIs.
    Each chunk draws its bits from the subband's one `psd/bits/{i}`
    generator, so the chunks' bits concatenate to one whole-stream draw.
    Plain chunks do not overlap, so that composite is bitwise the
    whole-stream one; filtering is linear, so the f-OFDM one matches it up
    to rounding."""
    fs = cfg.sample_rate_hz
    out = np.zeros(_psd_length(cfg, ttis, designs, filtered), dtype=np.complex128)
    # Subband specs of a whole chunk and of the last one, which may be shorter.
    full = _scale_ttis(cfg, PSD_CHUNK_TTIS).subbands
    last = _scale_ttis(cfg, (ttis - 1) % PSD_CHUNK_TTIS + 1).subbands
    for i, (sb, (fir, policy, sent)) in enumerate(zip(cfg.subbands, designs)):
        rng = seeded_rng(cfg.seed, f"psd/bits/{i}")
        for first in range(0, ttis, PSD_CHUNK_TTIS):
            chunk = (full if ttis - first > PSD_CHUNK_TTIS else last)[i]
            carrier = upconversion_carrier(chunk, fs, policy, first * sent.tti_samples)
            bits = payload_bits(chunk, rng)
            sig = (tx_subband(chunk, bits, fir, policy, carrier)[0] if filtered
                   else tx_subband_unfiltered(chunk, bits, policy, carrier))
            assemble(out, sig, sb.timing_offset_samples + first * sent.tti_samples)
    return out


def cmd_psd(cfg: ScenarioConfig, args) -> dict[str, list[str]]:
    if args.ttis < 1:
        raise ConfigError(f"--ttis must be at least 1, got {args.ttis}")
    fs = cfg.sample_rate_hz
    designs = [design_subband(sb, cfg) for sb in cfg.subbands]
    lo = min(sb.occupied_low_hz for sb in cfg.subbands)
    hi = max(sb.occupied_high_hz for sb in cfg.subbands)

    longer = _psd_length(cfg, args.ttis, designs, filtered=True)
    if longer > MAX_PSD_SAMPLES:
        raise ConfigError(f"--ttis {args.ttis} asks for a {longer}-sample composite, "
                          f"above the {MAX_PSD_SAMPLES} samples one may hold")
    # One chain at a time: each composite is dropped after its Welch. Both
    # take the segment size of the plain composite, the shorter one; it
    # fixes the bins, so the OOBE windows are checked before any transform.
    shorter = _psd_length(cfg, args.ttis, designs, filtered=False)
    segment = min(4096, 1 << (shorter // 2).bit_length() - 1)
    offsets_hz = [mhz * 1e6 * (fs / FULL_SCALE_RATE_HZ) for mhz in (0.5, 1.0, 2.0)]
    oobe_windows(welch_freqs(segment, fs), (lo, hi), offsets_hz)
    estimates = {}
    for name, filtered in (("fofdm", True), ("ofdm", False)):
        composite = _psd_composite(cfg, args.ttis, designs, filtered)
        if args.pa_on:  # in place: the PA output is the composite's buffer
            pa_rapp(composite, PA_BACKOFF_DB, PA_SMOOTHNESS)
        estimates[name] = psd_welch(composite, fs, segment_size=segment, in_band_hz=(lo, hi))
        del composite

    files = {}
    summary = ["waveform,offset_hz,oobe_dbr"]
    for name in ("ofdm", "fofdm"):
        est = estimates[name]
        files[f"{name}_psd"] = ["freq_hz,power_dbr"] + [
            f"{f:.6f},{p:.6f}" for f, p in zip(est.freqs_hz, est.power_dbr)]
        for off, val in zip(offsets_hz, oobe(est, (lo, hi), offsets_hz)):
            summary.append(f"{name},{off:.6g},{val:.6f}")
    files["oobe_summary"] = summary
    return files


# ---------------------------------------------------------------------------
# guardtone
# ---------------------------------------------------------------------------

def cmd_guardtone(cfg: ScenarioConfig, args) -> dict[str, list[str]]:
    guards = _parse_list(args.guards, int, "--guards")
    offsets = _parse_list(args.offsets_db, float, "--offsets-db")
    mods = tuple(m.strip() for m in args.modulations.split(","))
    result = guardtone_sweep(cfg, guards, offsets, args.snr_db, args.trials, modulations=mods)
    return {"guardtone_sweep": result.csv_lines(),
            "guardtone_baseline": result.baseline_csv_lines()}


# ---------------------------------------------------------------------------
# throughput
# ---------------------------------------------------------------------------

def cmd_throughput(cfg: ScenarioConfig, args) -> dict[str, list[str]]:
    # Each subband's share of the band, with its CP as sent.
    rows = []
    for sb in cfg.subbands:
        n = design_subband(sb, cfg).numerology
        rows.append(ThroughputInput(sb.width_tones * REFERENCE_TONE_HZ / cfg.total_bandwidth_hz,
                                    n.fft_size, n.cp_samples))
    report = normalized_throughput(rows)
    lines = ["subband,band_fraction,cp_overhead_fraction,normalized_throughput"]
    lines += [f"{i},{r.band_fraction:.9f},{r.cp_overhead_fraction:.9f},"
              f"{r.normalized_throughput:.9f}" for i, r in enumerate(rows)]
    lines.append(f"total_fofdm,,,{report.fofdm_total:.9f}")
    lines.append(f"total_ofdm,,,{report.ofdm_total:.9f}")
    lines.append(f"gain_percent,,,{report.gain_percent:.9f}")
    print(f"throughput: OFDM {report.ofdm_total:.4f}, f-OFDM {report.fofdm_total:.4f}, "
          f"gain {report.gain_percent:.1f}%")
    print(f"note: {THROUGHPUT_CAVEAT}")
    return {"throughput": lines}


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def run_selftest(verbose: bool = True) -> list[tuple[str, bool, str]]:
    """Oracle suite; returns (name, passed, detail) per check."""
    from .core import Numerology, SubbandSpec
    from .modem import BITS_PER_SYMBOL, ber as _ber, qam_demap, qam_map

    results = []
    rng = seeded_rng(2024, "selftest")
    fs = 7.68e6

    # Overlap-save vs direct convolution.
    worst = 0.0
    for k in range(20):
        n = int(rng.integers(256, 4097))
        order = int(rng.integers(8, 256)) * 2
        fir = design_windowed_sinc(order, float(rng.uniform(0.02, 0.4)) * fs, fs)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ref = direct_convolve(x, fir)
        # The smallest legal block, and the block and cached spectrum a run uses.
        smallest = 1 << (2 * len(fir.taps) - 1).bit_length()
        production = default_block_size(len(fir.taps), n)
        for got in (_overlap_save(x, fir.taps, smallest),
                    _overlap_save(x, fir.taps, production, fir.spectrum(production))):
            err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
            worst = max(worst, err)
    results.append(("overlap_save_vs_direct", worst < 1e-9, f"max rel L2 {worst:.3e}"))

    # Plain OFDM loopback, all modulations.
    n = Numerology(scs_hz=15e3, fft_size=512, cp_samples=36, symbols_per_tti=14)
    ok, detail = True, []
    for mod in BITS_PER_SYMBOL:
        bits = rng.integers(0, 2, 48 * 14 * BITS_PER_SYMBOL[mod])
        grid = qam_map(bits, mod).reshape(14, 48).T
        sig = ofdm_modulate(grid, n)
        back = ofdm_demodulate(sig, n, 0, 48)
        evm = evm_db(grid, back)
        bits_hat = qam_demap(back.T.ravel(), mod)
        r = _ber(bits, bits_hat)
        ok = ok and r.errors == 0 and evm <= -90.0
        detail.append(f"{mod}: ber {r.ratio:.0e} evm {evm:.0f} dB")
    results.append(("plain_ofdm_loopback", ok, "; ".join(detail)))

    # f-OFDM single-subband loopback.
    spec = SubbandSpec(start_tone=-24, width_tones=48, guard_tones_left=0,
                       guard_tones_right=0, numerology=n, modulation="16qam")
    bits = rng.integers(0, 2, 48 * 14 * 4)
    fir, policy, _ = design_subband(spec, ScenarioConfig(fs, 6.5e6, (spec,)))  # alone in the band
    sig, grid = tx_subband(spec, bits, fir, policy, upconversion_carrier(spec, fs, policy))
    res = rx_subband(sig, spec, fir, grid, policy, downconversion_carrier(spec, fir, policy),
                     genie_estimates(spec, fir, policy))
    r = _ber(bits, res.bits)
    results.append(("fofdm_loopback",
                    r.errors == 0 and res.evm_db <= -35.0,
                    f"ber {r.ratio:.0e} evm {res.evm_db:.1f} dB"))

    # Parseval through the modulator (CP excluded).
    grid = qam_map(rng.integers(0, 2, 48 * 14 * 2), "qpsk").reshape(14, 48).T
    sig = ofdm_modulate(grid, replace(n, cp_samples=0))
    e_time = float(np.sum(np.abs(sig) ** 2))
    e_grid = float(np.sum(np.abs(grid) ** 2))
    results.append(("parseval", abs(e_time - e_grid) < 1e-12 * e_grid,
                    f"|dE| {abs(e_time - e_grid):.2e}"))

    # Noise power calibration at 1e6 samples.
    noise = complex_noise(10**6, 0.1, seeded_rng(2024, "selftest/noise"))
    error = 10.0 * np.log10(np.mean(np.abs(noise) ** 2) / 0.1)
    results.append(("noise_calibration", abs(error) < 0.05,
                    f"variance error {error:+.3f} dB"))

    # Assembly linearity.
    a = rng.standard_normal(2048) + 1j * rng.standard_normal(2048)
    b = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    both, lone_a, lone_b = (np.zeros(n, dtype=np.complex128) for n in (2048, 2048, 1124))
    for out, sig, offset in ((both, a, 0), (both, b, 100), (lone_a, a, 0), (lone_b, b, 100)):
        assemble(out, sig, offset)
    both -= lone_a
    err = np.linalg.norm(both[:len(lone_b)] - lone_b)
    results.append(("assembly_linearity", err < 1e-9, f"residual {err:.2e}"))

    # Guard-count EVM monotonicity and deterministic rerun (tiny sweep).
    base = load_scenario(preset_dir() / "three-subband-desk.json")
    small = replace(base, subbands=tuple(
        replace(sb, numerology=replace(sb.numerology, symbols_per_tti=4))
        for sb in base.subbands))
    res1 = guardtone_sweep(small, [0, 2], [0.0], 40.0, 2, modulations=("qpsk",))
    res2 = guardtone_sweep(small, [0, 2], [0.0], 40.0, 2, modulations=("qpsk",))
    by_guard = {r.guard_tones: r.evm_db_edge for r in res1.rows}
    results.append(("guard_monotonicity", by_guard[2] <= by_guard[0] + 1e-9,
                    f"edge evm g0 {by_guard[0]:.1f} dB, g2 {by_guard[2]:.1f} dB"))
    same = res1.csv_lines() == res2.csv_lines()
    results.append(("deterministic_rerun", same, "byte-identical sweep CSV"))

    if verbose:
        width = max(len(name) for name, _, _ in results)
        for name, passed, detail in results:
            print(f"{name:<{width}}  {'PASS' if passed else 'FAIL'}  {detail}")
    return results


def cmd_selftest(args) -> int:
    t0 = time.monotonic()
    results = run_selftest()
    elapsed = time.monotonic() - t0
    failed = [name for name, passed, _ in results if not passed]
    print(f"selftest: {len(results) - len(failed)}/{len(results)} passed "
          f"in {elapsed:.1f} s")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="waveform-lab",
                                description="Batch f-OFDM waveform experiments")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, verb, seed=True):
        """A data verb, run by `_run_verb`; `seed` says whether it takes
        `--seed` and its manifest records the scenario's seed."""
        sp.add_argument("--scenario", required=True, help="scenario file path or preset name")
        sp.add_argument("--out", required=True, help="output directory")
        if seed:
            sp.add_argument("--seed", type=int, default=None, help="override scenario seed")
        else:  # read by `_run_verb`; the verb draws no randomness
            sp.set_defaults(seed=None)
        sp.set_defaults(func=_run_verb, verb=verb, seeded=seed)

    sp = sub.add_parser("psd", help="PSD and OOBE of OFDM vs f-OFDM")
    common(sp, cmd_psd)
    sp.add_argument("--pa-on", action="store_true",
                    help=f"apply the Rapp PA ({PA_BACKOFF_DB} dB backoff)")
    sp.add_argument("--ttis", type=int, default=8, help="TTIs to average over")

    sp = sub.add_parser("guardtone", help="guard-tone / power-offset interference sweep")
    common(sp, cmd_guardtone)
    sp.add_argument("--guards", default="0,1,2", help="comma list of guard tone counts")
    sp.add_argument("--offsets-db", default="0,10", help="comma list of interferer power offsets")
    sp.add_argument("--snr-db", type=float, default=30.0)
    sp.add_argument("--trials", type=int, default=50)
    sp.add_argument("--modulations", default=",".join(MODULATIONS))

    sp = sub.add_parser("throughput", help="normalized throughput report")
    common(sp, cmd_throughput, seed=False)

    sp = sub.add_parser("selftest", help="run the built-in oracle suite")
    sp.set_defaults(func=cmd_selftest)
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    args.argv = argv
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
