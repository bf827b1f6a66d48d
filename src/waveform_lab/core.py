"""Scenario configuration and its JSON I/O, numerology arithmetic, validation
and seeded randomness.

All spectral placement is accounted on a fixed 15 kHz reference lattice:
tone index ``i`` denotes the frequency interval ``[i*15e3, (i+1)*15e3)`` Hz,
with the scenario band centered at 0 Hz. A resource block (RB) is 12
reference tones.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, asdict
from fractions import Fraction
from typing import Optional

import numpy as np

REFERENCE_TONE_HZ = 15_000.0
TONES_PER_RB = 12

MODULATIONS = ("qpsk", "16qam", "64qam")

# Passband pulled in by one reference tone per edge for subbands that share
# the band with neighbors: the outermost tones ride the filter transition
# (the equalizer boosts them back at a noise cost), and in exchange the
# skirts cut into neighboring allocations far more steeply. Every subband of
# a scenario with more than one takes it (`subband.scenario_filter_profile`),
# so the validator rejects one that it leaves no passband.
PACKED_EDGE_BACKOFF_TONES = 1.0

# Most samples one subband's TTI, with its timing offset, may span. 2**22 is
# 64 MiB as complex128 and about 136 LTE-20 TTIs (14 x 2,192 = 30,688
# samples), so every shipped preset and test sits far below it, while a
# scenario that would ask for gigabytes per stream is rejected before any
# buffer is allocated.
MAX_TTI_SAMPLES = 1 << 22

# Most samples a `psd` composite may hold. 2**26 is 1 GiB as complex128, about
# 1,979 LTE-20 or 7,917 desk TTIs; the longest one a test or the benchmark
# builds, LTE-20 at 400 TTIs, is 12,278,416 samples (5.5x below).
MAX_PSD_SAMPLES = 1 << 26


class ConfigError(ValueError):
    """Raised for parameter combinations that cannot be built or run."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Numerology:
    """OFDM parameter set of one subband.

    ``scs_hz * fft_size`` must equal the scenario sample rate; this is
    checked by :func:`validate_scenario`, not at construction time, so that
    arbitrary configs can be loaded and reported on.
    """

    scs_hz: float
    fft_size: int
    cp_samples: int
    symbols_per_tti: int

    @property
    def samples_per_symbol(self) -> int:
        return self.fft_size + self.cp_samples

    @property
    def tti_samples(self) -> int:
        return self.symbols_per_tti * self.samples_per_symbol


@dataclass(frozen=True)
class SubbandSpec:
    """Spectral placement and per-subband configuration.

    ``start_tone``/``width_tones`` count occupied 15 kHz reference tones;
    guard tones are empty reference tones reserved on either side and are
    included in the disjointness accounting.
    """

    start_tone: int
    width_tones: int
    guard_tones_left: int
    guard_tones_right: int
    numerology: Numerology
    modulation: str
    power_offset_db: float = 0.0
    timing_offset_samples: int = 0

    @property
    def data_tones(self) -> int:
        """Number of data subcarriers at the subband's own spacing."""
        return int(round(self.width_tones * REFERENCE_TONE_HZ / self.numerology.scs_hz))

    @property
    def reserved_span(self) -> tuple[int, int]:
        """Half-open reference-tone interval including guard tones."""
        return (
            self.start_tone - self.guard_tones_left,
            self.start_tone + self.width_tones + self.guard_tones_right,
        )

    @property
    def occupied_low_hz(self) -> float:
        return self.start_tone * REFERENCE_TONE_HZ

    @property
    def occupied_high_hz(self) -> float:
        return (self.start_tone + self.width_tones) * REFERENCE_TONE_HZ

    @property
    def center_hz(self) -> float:
        return 0.5 * (self.occupied_low_hz + self.occupied_high_hz)

    @property
    def shift_hz(self) -> float:
        """Upconversion frequency: DC of the baseband resource grid.

        Data subcarrier ``d`` (0-based, ascending) lands at
        ``occupied_low_hz + (d + 0.5) * scs``, symmetric inside the
        occupied interval.
        """
        d = self.data_tones
        return self.occupied_low_hz + (d // 2 + 0.5) * self.numerology.scs_hz

    @property
    def amplitude(self) -> float:
        """Linear amplitude scale of the power offset."""
        return 10.0 ** (self.power_offset_db / 20.0)


@dataclass(frozen=True)
class ScenarioConfig:
    sample_rate_hz: float
    total_bandwidth_hz: float
    subbands: tuple[SubbandSpec, ...]
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "subbands", tuple(self.subbands))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    subband: Optional[int]  # None for scenario-level problems
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        """The violations joined by "; ", each of one subband prefixed `subband i: `."""
        return "; ".join(v.message if v.subband is None else f"subband {v.subband}: {v.message}"
                         for v in self.violations)


def _frac(x: float) -> Fraction:
    return Fraction(x).limit_denominator(10**9)


def _rates_consistent(n: Numerology, sample_rate_hz: float) -> bool:
    try:
        return _frac(n.scs_hz) * n.fft_size == _frac(sample_rate_hz)
    except (ValueError, ZeroDivisionError, OverflowError):
        return False


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def validate_scenario(cfg: ScenarioConfig) -> ValidationReport:
    """Check every scenario invariant; violations are data, not exceptions."""
    out: list[Violation] = []

    def bad(idx, msg):
        out.append(Violation(idx, msg))

    if not (_finite(cfg.sample_rate_hz) and cfg.sample_rate_hz > 0):
        bad(None, "sample_rate_hz must be positive and finite")
    if not (_finite(cfg.total_bandwidth_hz) and cfg.total_bandwidth_hz > 0):
        bad(None, "total_bandwidth_hz must be positive and finite")
    elif cfg.total_bandwidth_hz > cfg.sample_rate_hz:  # subbands beyond Nyquist
        bad(None, f"total_bandwidth_hz {cfg.total_bandwidth_hz} exceeds "
                  f"sample_rate_hz {cfg.sample_rate_hz}")
    if not (isinstance(cfg.seed, int) and 0 <= cfg.seed < 2**64):
        bad(None, "seed must be an unsigned 64-bit integer")
    if not cfg.subbands:
        bad(None, "scenario has no subbands")

    half_bw = cfg.total_bandwidth_hz / 2.0 if cfg.total_bandwidth_hz > 0 else None
    packed = len(cfg.subbands) > 1
    for i, sb in enumerate(cfg.subbands):
        if sb.width_tones <= 0:
            bad(i, "width_tones must be positive")
            continue
        if packed and sb.width_tones <= 2 * PACKED_EDGE_BACKOFF_TONES:
            bad(i, f"width_tones {sb.width_tones} leaves no filter passband inside the "
                   f"{PACKED_EDGE_BACKOFF_TONES:g}-tone edge backoff of a multi-subband scenario")
        if not packed and sb.width_tones * REFERENCE_TONE_HZ >= cfg.sample_rate_hz:
            bad(i, f"width_tones {sb.width_tones} x 15 kHz reaches sample_rate_hz "
                   f"{cfg.sample_rate_hz:.0f}: the filter of a lone subband passes every "
                   "tone, so it would have no stopband")
        if sb.guard_tones_left < 0 or sb.guard_tones_right < 0:
            bad(i, "guard tone counts must be nonnegative")
        if sb.modulation not in MODULATIONS:
            bad(i, f"unknown modulation {sb.modulation!r}")
        if not _finite(sb.power_offset_db):
            bad(i, "power_offset_db must be finite")
        if sb.timing_offset_samples < 0:
            bad(i, "timing_offset_samples must be nonnegative")
        n = sb.numerology
        if not (_finite(n.scs_hz) and n.scs_hz > 0) or n.fft_size <= 0:
            bad(i, "numerology scs_hz and fft_size must be positive and finite")
            continue
        if n.symbols_per_tti <= 0:
            bad(i, "symbols_per_tti must be positive")
        if not 0 <= n.cp_samples < n.fft_size:
            bad(i, f"cp_samples {n.cp_samples} must lie in [0, fft_size)")
        span = sb.timing_offset_samples + n.tti_samples
        if span > MAX_TTI_SAMPLES:
            bad(i, f"timing_offset_samples {sb.timing_offset_samples} + symbols_per_tti "
                   f"{n.symbols_per_tti} x {n.samples_per_symbol} samples = {span} exceeds "
                   f"the {MAX_TTI_SAMPLES} samples one TTI may span")
        if cfg.sample_rate_hz > 0 and not _rates_consistent(n, cfg.sample_rate_hz):
            bad(i, f"scs x fft != sample rate ({n.scs_hz} x {n.fft_size} != {cfg.sample_rate_hz})")
        width_hz = _frac(REFERENCE_TONE_HZ) * sb.width_tones
        if (width_hz % _frac(n.scs_hz)) != 0:
            bad(i, f"width {sb.width_tones} tones is not a whole number of {n.scs_hz} Hz subcarriers")
        if half_bw is not None:
            lo, hi = sb.reserved_span
            if lo * REFERENCE_TONE_HZ < -half_bw or hi * REFERENCE_TONE_HZ > half_bw:
                bad(i, "subband (including guard tones) exceeds total bandwidth")

    spans = sorted(
        (sb.reserved_span, i)
        for i, sb in enumerate(cfg.subbands)
        if sb.width_tones > 0
    )
    for (span_a, ia), (span_b, ib) in zip(spans, spans[1:]):
        if span_b[0] < span_a[1]:
            bad(ib, f"reserved tone span overlaps subband {ia}")

    return ValidationReport(tuple(out))


# ---------------------------------------------------------------------------
# Deterministic randomness
# ---------------------------------------------------------------------------

def seeded_rng(seed: int, stream_label: str) -> np.random.Generator:
    """Deterministic, platform-stable random stream keyed by (seed, label)."""
    digest = hashlib.sha256(stream_label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([seed & (2**64 - 1), *words]))


# ---------------------------------------------------------------------------
# Scenario file I/O (strict JSON schema, unknown keys rejected)
# ---------------------------------------------------------------------------

def _take(d, allowed: set[str], ctx: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{ctx} must be a JSON object")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {ctx}: {sorted(unknown)}")


def _field(d: dict, key: str, kind: type, ctx: str, default=None):
    """`d[key]` as `kind`, or `default` when the key is absent. A missing key
    without a default, or a wrongly typed value, raises ConfigError naming it."""
    if key not in d:
        if default is None:
            raise ConfigError(f"{ctx}.{key} is missing")
        return default
    v = d[key]
    if not isinstance(v, bool) and isinstance(v, (int, float) if kind is float else kind):
        try:
            return kind(v)
        except OverflowError:  # an integer too large for a float
            pass
    raise ConfigError(f"{ctx}.{key} must be of type {kind.__name__}, got {v!r}")


def _numerology_from_dict(d: dict, ctx: str) -> Numerology:
    _take(d, {"scs_hz", "fft_size", "cp_samples", "symbols_per_tti"}, ctx)
    return Numerology(
        scs_hz=_field(d, "scs_hz", float, ctx),
        fft_size=_field(d, "fft_size", int, ctx),
        cp_samples=_field(d, "cp_samples", int, ctx),
        symbols_per_tti=_field(d, "symbols_per_tti", int, ctx),
    )


def _subband_from_dict(d: dict, ctx: str) -> SubbandSpec:
    _take(d, {
        "start_tone", "width_tones", "guard_tones_left", "guard_tones_right",
        "numerology", "modulation", "power_offset_db", "timing_offset_samples",
    }, ctx)
    return SubbandSpec(
        start_tone=_field(d, "start_tone", int, ctx),
        width_tones=_field(d, "width_tones", int, ctx),
        guard_tones_left=_field(d, "guard_tones_left", int, ctx, 0),
        guard_tones_right=_field(d, "guard_tones_right", int, ctx, 0),
        numerology=_numerology_from_dict(_field(d, "numerology", dict, ctx),
                                         f"{ctx}.numerology"),
        modulation=_field(d, "modulation", str, ctx),
        power_offset_db=_field(d, "power_offset_db", float, ctx, SubbandSpec.power_offset_db),
        timing_offset_samples=_field(d, "timing_offset_samples", int, ctx,
                                     SubbandSpec.timing_offset_samples),
    )


def scenario_from_dict(d: dict) -> ScenarioConfig:
    ctx = "scenario"
    _take(d, {"sample_rate_hz", "total_bandwidth_hz", "subbands", "seed"}, ctx)
    return ScenarioConfig(
        sample_rate_hz=_field(d, "sample_rate_hz", float, ctx),
        total_bandwidth_hz=_field(d, "total_bandwidth_hz", float, ctx),
        subbands=tuple(_subband_from_dict(s, f"{ctx}.subbands[{i}]")
                       for i, s in enumerate(_field(d, "subbands", list, ctx))),
        seed=_field(d, "seed", int, ctx, ScenarioConfig.seed),
    )


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    return {**asdict(cfg), "subbands": [asdict(s) for s in cfg.subbands]}


def read_json(path, what: str):
    """The JSON document in the file at `path`; text that is not UTF-8, not
    JSON or nested too deeply to parse is a ConfigError naming `what`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise ConfigError(f"{what} {path} is not valid JSON: {e}") from e


def load_scenario(path) -> ScenarioConfig:
    return scenario_from_dict(read_json(path, "scenario file"))


def scenario_hash(cfg: ScenarioConfig) -> str:
    blob = json.dumps(scenario_to_dict(cfg), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
