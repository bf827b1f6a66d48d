"""Subband composition: per-subband transmit/receive chains and sweeps.

Transmit: map bits onto the subband grid, OFDM-modulate (CP extended per
tail policy), upconvert to the subband center, bandpass-filter with the
subband-shifted windowed sinc, apply the power offset. Receive: matched
filter, downconvert, strip the two filter group delays, demodulate with the
receiver window advanced per policy, then divide out the genie estimate
(filter cascade response, window-advance phase ramp and power offset).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .core import (
    MAX_ABS_DB,
    PACKED_EDGE_BACKOFF_TONES,
    REFERENCE_TONE_HZ,
    TONES_PER_RB,
    ConfigError,
    Numerology,
    ScenarioConfig,
    SubbandSpec,
    seeded_rng,
    validate_scenario,
)
from .filters import (
    FirFilter,
    _overlap_save,
    default_block_size,
    design_windowed_sinc,
    response_at,
)
from .impairments import complex_noise as _sweep_noise  # fixed variance, no calibration
from .modem import (
    BITS_PER_SYMBOL,
    ber,
    equalize,
    error_ratio_db,
    evm_db,
    ofdm_demodulate,
    ofdm_modulate,
    qam_demap,
    qam_map,
)

# Passband equal to the occupied width: every data tone sits inside the flat
# region of the response, so the genie equalizer never has to boost a tone in
# the filter transition. Leakage confinement comes from the filter skirts and,
# where needed, from guard tones between subbands.
DEFAULT_EDGE_BACKOFF_TONES = 0.0

# Mainlobe-to-CP ratio above which the receiver window is advanced (and the
# CP extended once the mainlobe outgrows it). The engine applies the advance
# for any filter whose mainlobe is non-negligible against the CP: the filter
# cascade is symmetric in time, so splitting the protected window around the
# slicing point suppresses the pre-cursor half of the tails.
DEFAULT_TAIL_THRESHOLD = 0.1


@dataclass(frozen=True)
class TailPolicy:
    extra_cp_samples: int = 0
    rx_advance_samples: int = 0


TAIL_NONE = TailPolicy()


def packed_filter_order(sample_rate_hz: float) -> int:
    """Half the 15 kHz symbol duration in samples, rounded down to even.

    The longest order whose tap count stays within half a 15 kHz symbol;
    `design_subband_filter` cuts it to half the subband's own. Subbands
    that coexist with close neighbors take the sharpest affordable skirts;
    the extra self-interference this costs shows up on their own edge tones,
    where neighbor leakage dominates anyway.
    """
    order = int(sample_rate_hz / REFERENCE_TONE_HZ) // 2
    return order - (order % 2)


def scenario_filter_profile(scenario: ScenarioConfig) -> tuple[int | None, float]:
    """(order, edge backoff) for a scenario's subband filters.

    Isolated subbands favor low self-interference: a short filter (width-aware
    default, order None) with the passband covering every data tone. Packed
    scenarios favor confinement: the longest affordable filter with the
    passband pulled in at the edges.
    """
    if len(scenario.subbands) > 1:
        return packed_filter_order(scenario.sample_rate_hz), PACKED_EDGE_BACKOFF_TONES
    return None, DEFAULT_EDGE_BACKOFF_TONES


def design_subband_filter(
    spec: SubbandSpec,
    sample_rate_hz: float,
    order: int | None = None,
    edge_backoff_tones: float = DEFAULT_EDGE_BACKOFF_TONES,
) -> FirFilter:
    """Hann-windowed sinc bandpass centered on the subband's occupied interval.

    With no `order` given, the order scales with the passband: ~6 sinc
    mainlobes of taps, in [32, `packed_filter_order`], even. The window then
    soft-truncates the sinc tails close to the peak, so narrow subbands get
    longer filters (their sinc decays slowly) and wide ones a few dozen taps.
    Every order, given or not, is then capped at half the subband's own
    symbol (`fft_size // 2`, even), never raised: a filter longer than that
    spreads each symbol into its neighbours, so a 30 or 60 kHz subband takes
    a shorter filter than a 15 kHz one at the same sample rate.
    """
    passband = (spec.width_tones - 2.0 * edge_backoff_tones) * REFERENCE_TONE_HZ
    if passband <= 0:
        raise ConfigError(
            f"edge backoff {edge_backoff_tones} leaves no passband for "
            f"{spec.width_tones} tones"
        )
    if order is None:
        order = max(32, min(int(6.0 * sample_rate_hz / passband),
                            packed_filter_order(sample_rate_hz)))
        order -= order % 2
    half_symbol = spec.numerology.fft_size // 2
    order = min(order, half_symbol - half_symbol % 2)
    return design_windowed_sinc(order, passband, sample_rate_hz, spec.center_hz)


def derive_tail_policy(f: FirFilter, n, threshold: float = DEFAULT_TAIL_THRESHOLD) -> TailPolicy:
    """Once the filter mainlobe exceeds `threshold` times the nominal CP,
    advance the receiver window by half the mainlobe and extend the CP by
    the excess of the mainlobe over the nominal CP (none while it fits)."""
    lobe = f.mainlobe_samples
    if lobe <= n.cp_samples * threshold:
        return TAIL_NONE
    return TailPolicy(
        extra_cp_samples=max(lobe - n.cp_samples, 0),
        rx_advance_samples=lobe // 2,
    )


def _extended_numerology(spec: SubbandSpec, policy: TailPolicy):
    n = spec.numerology
    return replace(n, cp_samples=n.cp_samples + policy.extra_cp_samples)


class SubbandDesign(NamedTuple):
    fir: FirFilter
    policy: TailPolicy
    numerology: Numerology  # as sent: the CP extended per policy


def design_subband(spec: SubbandSpec, scenario: ScenarioConfig) -> SubbandDesign:
    """The subband's filter under the scenario's filter profile, its tail
    policy, and the numerology it is sent with: the one place a profile is
    applied."""
    order, backoff = scenario_filter_profile(scenario)
    fir = design_subband_filter(spec, scenario.sample_rate_hz, order=order,
                                edge_backoff_tones=backoff)
    policy = derive_tail_policy(fir, spec.numerology)
    return SubbandDesign(fir, policy, _extended_numerology(spec, policy))


def build_grid(spec: SubbandSpec, bits) -> np.ndarray:
    """Symbol-major fill of the subband's (tones, symbols) grid: a transposed
    view of the mapped symbols."""
    d = spec.data_tones
    s = spec.numerology.symbols_per_tti
    bps = BITS_PER_SYMBOL[spec.modulation]
    if len(bits) != d * s * bps:
        raise ConfigError(
            f"payload of {len(bits)} bits does not fill {d} tones x {s} symbols "
            f"at {bps} bits/symbol"
        )
    return qam_map(bits, spec.modulation).reshape(s, d).T


def payload_bits(spec: SubbandSpec, rng: np.random.Generator) -> np.ndarray:
    """One TTI's 0/1 payload as bytes. The draw itself stays int64: that
    fixes which values each RNG label yields."""
    count = spec.data_tones * spec.numerology.symbols_per_tti * BITS_PER_SYMBOL[spec.modulation]
    return rng.integers(0, 2, size=count, dtype=np.int64).astype(np.uint8)


def upconversion_carrier(
    spec: SubbandSpec, sample_rate_hz: float, policy: TailPolicy, first_sample: int = 0
) -> Carrier:
    """Phasor that shifts the subband's baseband TTI (CP extended per policy)
    to its center; it does not depend on the payload, so a sweep builds it
    once for all its trials. Its samples depend only on their index, so from
    `first_sample` on it is bitwise that slice of the phasor of a longer
    stream."""
    return _carrier(spec.shift_hz, sample_rate_hz, first_sample,
                    _extended_numerology(spec, policy).tti_samples)


def downconversion_carrier(spec: SubbandSpec, fir: FirFilter, policy: TailPolicy) -> Carrier:
    """Phasor that brings the subband's frame (CP extended per policy) back to
    baseband from the matched-filter output, at the filter's sample rate,
    with t counted from the subband's timing offset: the frame starts at
    t = len(fir.taps) - 1, the delay of the two filter passes, so t is never
    negative."""
    carrier = _carrier(-spec.shift_hz, fir.sample_rate_hz, len(fir.taps) - 1,
                       _extended_numerology(spec, policy).tti_samples)
    carrier.head.imag += 0.0  # at a zero phase, +0.0 as in `np.exp(-2j * ...)`, never -0.0
    return carrier


@dataclass(frozen=True, eq=False)
class Carrier:
    """`length` samples of a phasor that repeats every period. Only its
    first period is kept, or the whole carrier when it is shorter: sample i
    is head[i % len(head)]."""
    length: int
    head: np.ndarray

    def __len__(self) -> int:
        return self.length

    def materialize(self) -> np.ndarray:
        """Every sample, in one array."""
        return np.resize(self.head, self.length)


def _carrier(shift_hz: float, sample_rate_hz: float, first: int, count: int) -> Carrier:
    """Bitwise `np.exp(2j * np.pi * shift * r / fs)` at r = t mod P, the
    non-negative remainder, for t = first, ..., first + count - 1. P is the
    denominator of shift / fs in lowest terms, exact for the floats given
    (1,024 on the desk subbands, 4,096 on LTE-20), so only the first P
    samples are evaluated. On a zero real part, numpy's complex product and
    its quotient by a real (a product with its reciprocal) reduce to exactly
    the real operations below."""
    # Within int64; no stream spans 2**62 samples.
    period = min((Fraction(shift_hz) / Fraction(sample_rate_hz)).denominator, 2**62)
    r = np.mod(np.arange(first, first + min(count, period)), period)
    head = np.zeros(len(r), dtype=np.complex128)
    head.imag = (2 * np.pi * shift_hz) * r * (1.0 / sample_rate_hz)
    return Carrier(count, np.exp(head, out=head))


def _mixed(samples: np.ndarray, carrier: Carrier) -> np.ndarray:
    """`samples` shifted by `carrier`, in place; returns `samples`. Bitwise
    `np.multiply(carrier.materialize(), samples)`, computed against the
    carrier's one stored period as period-long rows, then a tail. An
    elementwise product does not depend on the row, so the bits are the same
    whether a carrier is built per call, once per sweep, or per chunk."""
    if len(carrier) != len(samples):
        raise ConfigError(f"carrier of {len(carrier)} samples does not match a "
                          f"{len(samples)}-sample stream")
    head, n, period = carrier.head, len(samples), len(carrier.head)
    whole = n // period * period
    rows = samples[:whole].reshape(-1, period)
    np.multiply(head, rows, out=rows)
    # Not in place: numpy multiplies a lone sample in place by a loop whose
    # last bit can differ from that of the vector loop.
    samples[whole:] = np.multiply(head[:n - whole], samples[whole:])
    return samples


def _upconverted(
    spec: SubbandSpec, bits, policy: TailPolicy, carrier: Carrier
) -> tuple[np.ndarray, np.ndarray]:
    """Grid and its OFDM signal (CP extended per policy) shifted to the
    subband by `carrier`, before any filter or power offset: the plain-OFDM
    chain. The shift is made in the modulator's output."""
    grid = build_grid(spec, bits)
    baseband = ofdm_modulate(grid, _extended_numerology(spec, policy))
    return grid, _mixed(baseband, carrier)


def tx_subband(
    spec: SubbandSpec, bits, fir: FirFilter, policy: TailPolicy, carrier: Carrier
) -> tuple[np.ndarray, np.ndarray]:
    """Modulate, upconvert by `upconversion_carrier`, filter, and scale one
    subband; returns its stream and its grid. `spec` stays at position 0 and
    `policy` at position 3: `perfbench/spans.py` reads them there."""
    grid, up = _upconverted(spec, bits, policy, carrier)
    block = default_block_size(len(fir.taps), len(up))
    filtered = _overlap_save(up, fir.taps, block, fir.spectrum(block))
    np.multiply(spec.amplitude, filtered, out=filtered)  # operand order of `amplitude * filtered`
    return filtered, grid


def tx_subband_unfiltered(
    spec: SubbandSpec, bits, policy: TailPolicy, carrier: Carrier
) -> np.ndarray:
    """Plain-OFDM reference: the `tx_subband` chain with the filter left out."""
    _, up = _upconverted(spec, bits, policy, carrier)
    np.multiply(spec.amplitude, up, out=up)  # operand order of `amplitude * up`
    return up


def genie_estimates(spec: SubbandSpec, fir: FirFilter, policy: TailPolicy) -> np.ndarray:
    """Per-tone complex gain of the full known chain (both filter passes,
    delay-compensated group delay, window-advance phase ramp and power
    offset)."""
    n = spec.numerology
    d = spec.data_tones
    bins = np.arange(d) - d // 2
    tone_freqs = spec.shift_hz + bins * n.scs_hz
    cascade = response_at(fir, tone_freqs) ** 2
    total_delay = len(fir.taps) - 1
    advance = policy.rx_advance_samples
    ramp = np.exp(2j * np.pi * bins * (total_delay - advance) / n.fft_size)
    return spec.amplitude * cascade * ramp


@dataclass(frozen=True)
class SubbandRxResult:
    grid: np.ndarray  # equalized (tones, symbols)
    bits: np.ndarray
    evm_db: float


def rx_subband(
    composite: np.ndarray,
    spec: SubbandSpec,
    fir: FirFilter,
    sent: np.ndarray,
    policy: TailPolicy,
    carrier: Carrier,
    estimates: np.ndarray,
) -> SubbandRxResult:
    """Recover one subband from the assembled stream, downconverting its
    frame by `downconversion_carrier` and equalizing by `genie_estimates`;
    EVM is against the transmitted grid `sent`."""
    total_delay = len(fir.taps) - 1
    filtered_len = len(composite) + total_delay
    n_ext = _extended_numerology(spec, policy)
    start = spec.timing_offset_samples + total_delay
    seg_len = n_ext.tti_samples
    if start < 0 or start + seg_len > filtered_len:
        raise ConfigError("composite buffer too short for the subband frame")
    block = default_block_size(len(fir.taps), len(composite))
    filtered = _overlap_save(composite, fir.taps, block, fir.spectrum(block))
    frame = filtered[start:start + seg_len]  # only the frame is downconverted, in place
    raw = ofdm_demodulate(_mixed(frame, carrier), n_ext,
                          policy.rx_advance_samples, spec.data_tones)
    eq = equalize(raw, estimates)
    bits_hat = qam_demap(eq.T.ravel(), spec.modulation)
    return SubbandRxResult(grid=eq, bits=bits_hat, evm_db=evm_db(sent, eq))


def assemble(out: np.ndarray, samples: np.ndarray, offset: int) -> None:
    """Add `samples`, shifted by `offset` samples, into `out` in place: how a
    composite gathers its subbands' streams, and a stream its chunks."""
    if offset < 0 or offset + len(samples) > len(out):
        raise ConfigError(f"a {len(samples)}-sample stream at offset {offset} does not fit "
                          f"a {len(out)}-sample buffer")
    out[offset:offset + len(samples)] += samples


# ---------------------------------------------------------------------------
# Guard-tone sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    guard_tones: int
    power_offset_db: float
    modulation: str
    snr_db: float
    evm_db_edge: float
    evm_db_inner: float
    ber: float


def _measured_fields(r: SweepRow) -> str:  # the columns both sweep CSVs end with
    return f"{r.snr_db:.6g},{r.evm_db_edge:.6f},{r.evm_db_inner:.6f},{r.ber:.8g}"


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    baselines: dict  # modulation -> SweepRow (guard_tones == -1 marker unused in CSV)

    def csv_lines(self) -> list[str]:
        return ["guard_tones,power_offset_db,modulation,snr_db,evm_db_edge,evm_db_inner,ber"] + [
            f"{r.guard_tones},{r.power_offset_db:.6g},{r.modulation},{_measured_fields(r)}"
            for r in self.rows]

    def baseline_csv_lines(self) -> list[str]:
        return ["modulation,snr_db,evm_db_edge,evm_db_inner,ber"] + [
            f"{b.modulation},{_measured_fields(b)}" for b in self.baselines.values()]


def _edge_tone_count(spec: SubbandSpec) -> int:
    per_rb = int(round(TONES_PER_RB * REFERENCE_TONE_HZ / spec.numerology.scs_hz))
    return min(max(per_rb, 1), spec.data_tones)


def _sweep_geometry(base: ScenarioConfig, guard: int, power_db: float, modulation: str):
    """Reposition the base subbands with `guard` empty tones between neighbors.

    The second subband (interferer) stays put and carries the power offset;
    the first (victim) and optional third move outward. Every subband takes
    `modulation` and its guard tones from here, and every other field, each
    timing offset among them, from the scenario.
    """
    subs = list(base.subbands)
    interferer = subs[1]
    out = []
    victim = replace(
        subs[0],
        start_tone=interferer.start_tone - guard - subs[0].width_tones,
        guard_tones_left=0,
        guard_tones_right=guard,
        modulation=modulation,
    )
    out.append(victim)
    out.append(replace(
        interferer,
        guard_tones_left=0,
        guard_tones_right=0,
        modulation=modulation,
        power_offset_db=power_db,
    ))
    if len(subs) > 2:
        out.append(replace(
            subs[2],
            start_tone=interferer.start_tone + interferer.width_tones + guard,
            guard_tones_left=guard,
            guard_tones_right=0,
            modulation=modulation,
        ))
    return out


class _ErrorAccumulator:
    """Error and reference power of the victim's edge RB, its last
    `edge_count` tones, and of its other tones; and its bit errors."""

    def __init__(self, edge_count: int):
        self.edge_count = edge_count
        self.err_edge = 0.0
        self.ref_edge = 0.0
        self.err_inner = 0.0
        self.ref_inner = 0.0
        self.bit_errors = 0
        self.bits_total = 0

    def add(self, reference: np.ndarray, received: np.ndarray, tx_bits, rx_bits):
        # Summed in C order whatever the grids' memory order: a float sum's
        # bits depend on the order it runs in.
        err = np.abs(np.subtract(received, reference, order="C")) ** 2
        ref = np.abs(reference, order="C") ** 2
        k = self.edge_count
        self.err_edge += float(err[-k:].sum())
        self.ref_edge += float(ref[-k:].sum())
        self.err_inner += float(err[:-k].sum())
        self.ref_inner += float(ref[:-k].sum())
        r = ber(tx_bits, rx_bits)
        self.bit_errors += r.errors
        self.bits_total += r.total

    def row(self, guard: int, power_db: float, modulation: str, snr_db: float) -> SweepRow:
        return SweepRow(
            guard_tones=guard,
            power_offset_db=power_db,
            modulation=modulation,
            snr_db=snr_db,
            evm_db_edge=error_ratio_db(self.err_edge, self.ref_edge),
            evm_db_inner=error_ratio_db(self.err_inner, self.ref_inner),
            ber=self.bit_errors / self.bits_total,
        )


def _add_noise_prefix(comp: np.ndarray, noise: np.ndarray) -> None:
    """Add to `comp`, in place, the `len(comp)`-sample `_sweep_noise` drawn
    from the generator state that drew `noise`. That draw takes I, then Q,
    from one run of standard normals, all scaled alike: I is the run's first
    `len(comp)` values and Q the next as many, both cut from `noise`'s I and
    Q laid end to end. A complex sum adds its parts apart, so the bits are
    those of `comp + fresh_draw`."""
    length = len(comp)
    within = min(length, len(noise) - length)  # Q's normals that fall in `noise`'s I
    comp.real += noise.real[:length]
    comp.imag[:within] += noise.real[length:length + within]
    comp.imag[within:] += noise.imag[:length - within]


def _reject_duplicates(axis: str, values, key=str) -> None:
    """Refuse two values of one axis that print alike: the rows and the RNG
    labels print each value as `key` gives it."""
    seen = set()
    for v in values:
        if key(v) in seen:
            raise ConfigError(f"{axis} {v!r} appears more than once in the sweep, as {key(v)}")
        seen.add(key(v))


def guardtone_sweep(
    base: ScenarioConfig,
    guard_counts: list[int],
    power_offsets_db: list[float],
    snr_db: float,
    trials: int,
    modulations: tuple[str, ...],
) -> SweepResult:
    """Full factorial (guard, power offset, modulation) interference sweep.

    The victim is the first subband; its RB adjacent to the interferer is the
    edge measurement. Noise is calibrated so the victim's per-tone SNR equals
    `snr_db` (per-sample variance 10^(-snr/10) times the victim's power, under
    the unit-power constellation and unitary FFT scaling), whatever its power
    offset. The isolated baseline sends the victim with its own power and
    timing, as every cell does, so baseline deltas isolate inter-subband
    interference. A scenario of one subband (no interferer) or of more than
    three, or a victim with no tone beyond its edge RB, is refused before any
    subband is sent; so is every cell that `validate_scenario` rejects, such
    as one whose power offset is not finite.
    """
    if trials < 1:
        raise ConfigError("at least one trial is required")
    if not math.isfinite(snr_db):
        raise ConfigError(f"snr_db must be finite, got {snr_db}")
    if abs(snr_db) > MAX_ABS_DB:
        raise ConfigError(f"snr_db {snr_db:g} must lie in [-{MAX_ABS_DB:g}, {MAX_ABS_DB:g}] dB")
    for m in modulations:
        if m not in BITS_PER_SYMBOL:
            raise ConfigError(f"unknown modulation {m!r}")
    _reject_duplicates("guard count", guard_counts)
    # -0.0 + 0.0 is 0.0: `0` and `-0` are one cell, with one label and one row.
    _reject_duplicates("power offset", [float(p) for p in power_offsets_db],
                       key=lambda p: f"{p + 0.0:g}")
    power_offsets_db = [float(p) + 0.0 for p in power_offsets_db]
    _reject_duplicates("modulation", modulations)
    report = validate_scenario(base)
    if not report.ok:
        raise ConfigError(f"invalid scenario: {report.describe()}")
    if len(base.subbands) == 1:
        raise ConfigError("the scenario has 1 subband; the sweep needs a victim and an "
                          "interferer")
    if len(base.subbands) > 3:
        raise ConfigError(f"the scenario has {len(base.subbands)} subbands; the sweep sends "
                          "three at most: a victim, an interferer and one more neighbor")
    victim_template = base.subbands[0]
    edge_count = _edge_tone_count(victim_template)
    if victim_template.data_tones <= edge_count:
        raise ConfigError(
            f"subbands[0].width_tones {victim_template.width_tones} gives the victim "
            f"{victim_template.data_tones} data tones, none beyond its {edge_count}-tone "
            "edge RB: no inner tone is left to measure")
    fs = base.sample_rate_hz
    sigma2 = 10.0 ** (-snr_db / 10.0) * victim_template.amplitude ** 2

    # The plan, built once for every modulation. Cells (label, subbands) are
    # the isolated baseline, then one per (guard, power offset), each
    # validated once at the victim's modulation: validation reads a
    # modulation only to check that it is known, as each swept one is.
    keys = list(itertools.product(guard_counts, power_offsets_db))
    cells = [("baseline", [victim_template])]
    for guard, power_db in keys:
        subs = _sweep_geometry(base, guard, power_db, victim_template.modulation)
        rep = validate_scenario(replace(base, subbands=tuple(subs)))
        if not rep.ok:
            raise ConfigError(f"--guards {guard} at --offsets-db {power_db:g} makes an "
                              f"invalid scenario: {rep.describe()}")
        cells.append((f"g{guard}/p{power_db:g}", subs))

    @functools.cache
    def design(s: SubbandSpec):
        """(filter, tail policy, upconversion carrier) of a subband at zero
        power offset, built once per place and numerology: neither the power
        offset nor the modulation changes any of them."""
        fir, policy, _ = design_subband(s, base)
        return fir, policy, upconversion_carrier(s, fs, policy)

    # victim -> (its design, its cells (index, label, others with their designs, composite
    # length)), in order of first appearance, so cells sharing a victim run back to back.
    groups = {}
    for index, (label, subs) in enumerate(cells):
        built = [design(replace(s, power_offset_db=0.0)) for s in subs]
        comp_len = max(s.timing_offset_samples + len(up) + len(fir.taps) - 1
                       for s, (fir, _, up) in zip(subs, built))
        groups.setdefault(subs[0], (built[0], []))[1].append(
            (index, label, list(zip(subs[1:], built[1:])), comp_len))
    longest = max(cell[3] for _, group in groups.values() for cell in group)
    buffer = np.empty(longest, dtype=np.complex128)
    receivers = {}  # victim -> (downconversion carrier, genie estimate at its amplitude)

    # Each modulation runs its trials over the plan. Per trial the victim's
    # payload and the longest noise are drawn once, as in the baseline, so
    # baseline deltas isolate inter-subband interference; each cell adds a
    # prefix of that noise in place. Each distinct victim is sent once per
    # trial and held across its cells. A cell builds its composite in the
    # one buffer: the victim, then each other subband, added as it is sent
    # and dropped, then the noise; it then receives the victim. So it holds
    # the victim's stream, the buffer, the noise and at most one other
    # stream in flight.
    baselines, rows = {}, []
    for mod in modulations:
        accs = [_ErrorAccumulator(edge_count) for _ in cells]
        for trial in range(trials):
            bits = payload_bits(replace(victim_template, modulation=mod),
                                seeded_rng(base.seed, f"bits/baseline/{mod}/{trial}"))
            noise = _sweep_noise(longest, sigma2,
                                 seeded_rng(base.seed, f"noise/baseline/{mod}/{trial}"))
            for victim, ((fir, policy, up), group) in groups.items():
                sent = replace(victim, modulation=mod)
                sig, grid = tx_subband(sent, bits, fir, policy, up)
                for index, label, others, comp_len in group:
                    # Noise last, as `((victim + s1) + s2) + noise`.
                    comp = buffer[:comp_len]
                    comp.fill(0)
                    assemble(comp, sig, victim.timing_offset_samples)
                    for i, (s, built) in enumerate(others, start=1):
                        s = replace(s, modulation=mod)
                        b = payload_bits(s, seeded_rng(base.seed, f"bits/{label}/{mod}/{trial}/s{i}"))
                        assemble(comp, tx_subband(s, b, *built)[0], s.timing_offset_samples)
                    _add_noise_prefix(comp, noise)
                    if victim not in receivers:  # built at its first receive
                        receivers[victim] = (downconversion_carrier(victim, fir, policy),
                                             genie_estimates(victim, fir, policy))
                    res = rx_subband(comp, sent, fir, grid, policy, *receivers[victim])
                    accs[index].add(grid, res.grid, bits, res.bits)
            del sig, grid, noise  # before the next trial's are made
        isolated, *guarded = accs
        baselines[mod] = isolated.row(-1, 0.0, mod, snr_db)
        rows += [acc.row(guard, power_db, mod, snr_db)
                 for (guard, power_db), acc in zip(keys, guarded)]

    rows.sort(key=lambda r: (r.guard_tones, r.power_offset_db, r.modulation))
    return SweepResult(rows=tuple(rows), baselines=baselines)
