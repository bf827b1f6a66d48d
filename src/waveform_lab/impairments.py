"""Channel and RF impairments: AWGN, static tapped-delay-line multipath, Rapp PA.

TDL profiles ship as text assets ("tdl v1 <name>" header, "delay_ns power_db"
rows); channel snapshots are block fades: one complex gain per tap, fixed for
the duration of a trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .core import ConfigError, SignalBuffer


@dataclass(frozen=True)
class TdlProfile:
    name: str
    delays_ns: tuple[float, ...]
    powers_db: tuple[float, ...]  # normalized: total linear power == 1


@dataclass(frozen=True)
class ChannelRealization:
    """One block-fading snapshot with its exact frequency response."""

    profile_name: str
    gains: np.ndarray             # complex gain per (sample-rounded) tap
    delays_samples: np.ndarray    # integer sample delays, nondecreasing
    sample_rate_hz: float
    rounding_error_ns: tuple[float, ...] = ()
    delay_exceeds_cp: bool = False

    def impulse_response(self) -> np.ndarray:
        h = np.zeros(int(self.delays_samples.max()) + 1, dtype=np.complex128)
        np.add.at(h, self.delays_samples, self.gains)
        return h

    def frequency_response(self, freqs_hz) -> np.ndarray:
        freqs = np.atleast_1d(np.asarray(freqs_hz, dtype=float))
        phase = np.exp(
            -2j * np.pi * np.outer(freqs, self.delays_samples) / self.sample_rate_hz
        )
        return phase @ self.gains


def _data_dir() -> Path:
    return Path(resources.files("waveform_lab")) / "data" / "tdl"


def available_profiles() -> tuple[str, ...]:
    d = _data_dir()
    if not d.is_dir():
        return ()
    return tuple(sorted(p.stem for p in d.glob("*.txt")))


def load_tdl_profile(name_or_path) -> TdlProfile:
    path = Path(name_or_path)
    if not path.suffix:
        path = _data_dir() / f"{name_or_path}.txt"
    if not path.is_file():
        raise ConfigError(f"unknown TDL profile {name_or_path!r}")
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("tdl v1 "):
        raise ConfigError(f"TDL file {path} has a malformed header")
    name = lines[0].split(maxsplit=2)[2]
    delays, powers = [], []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ConfigError(f"TDL file {path}: expected 'delay_ns power_db' rows")
        delays.append(float(parts[0]))
        powers.append(float(parts[1]))
    if not delays:
        raise ConfigError(f"TDL file {path} has no taps")
    if any(b < a for a, b in zip(delays, delays[1:])):
        raise ConfigError(f"TDL file {path}: delays must be nondecreasing")
    lin = np.power(10.0, np.asarray(powers) / 10.0)
    lin = lin / lin.sum()
    return TdlProfile(
        name=name,
        delays_ns=tuple(delays),
        powers_db=tuple(10.0 * np.log10(lin)),
    )


def complex_noise(length: int, variance: float, rng: np.random.Generator) -> np.ndarray:
    """Circular complex Gaussian noise of `variance` per sample; I drawn before Q."""
    scale = math.sqrt(variance / 2.0)
    noise = np.empty(length, dtype=np.complex128)
    noise.real = scale * rng.standard_normal(length)
    noise.imag = scale * rng.standard_normal(length)
    return noise


def awgn(sig: SignalBuffer, snr_db, rng: np.random.Generator) -> SignalBuffer:
    """Complex AWGN calibrated against the measured signal power."""
    if snr_db is None:
        return SignalBuffer(sig.samples.copy(), sig.sample_rate_hz)
    power = sig.power()
    if power == 0.0:
        raise ConfigError("cannot set a finite SNR on a zero-power signal")
    noise = complex_noise(len(sig), power * 10.0 ** (-snr_db / 10.0), rng)
    return SignalBuffer(sig.samples + noise, sig.sample_rate_hz)


def apply_tdl(
    sig: SignalBuffer,
    profile: TdlProfile,
    rng: np.random.Generator,
    cp_budget_samples: int | None = None,
) -> tuple[SignalBuffer, ChannelRealization]:
    """Convolve with one Rayleigh block-fading snapshot of the profile.

    Tap delays are rounded to the sample grid; the exact per-tap rounding
    remainders are recorded on the realization. Returns the faded signal and
    the realization whose `frequency_response` feeds the genie equalizer.
    """
    fs = sig.sample_rate_hz
    delays = np.asarray(profile.delays_ns) * 1e-9 * fs
    rounded = np.round(delays).astype(int)
    remainders = tuple((d - r) / fs * 1e9 for d, r in zip(delays, rounded))
    powers = np.power(10.0, np.asarray(profile.powers_db) / 10.0)
    gains = np.sqrt(powers / 2.0) * (
        rng.standard_normal(len(powers)) + 1j * rng.standard_normal(len(powers))
    )
    exceeded = bool(cp_budget_samples is not None and rounded.max() > cp_budget_samples)
    realization = ChannelRealization(
        profile_name=profile.name,
        gains=gains,
        delays_samples=rounded,
        sample_rate_hz=fs,
        rounding_error_ns=remainders,
        delay_exceeds_cp=exceeded,
    )
    faded = np.convolve(sig.samples, realization.impulse_response())
    return SignalBuffer(faded, fs), realization


# The PA curve runs per sample over slices this long, bounding its temporaries.
_PA_SLICE_SAMPLES = 1 << 16


def pa_rapp(sig: SignalBuffer, input_backoff_db: float, smoothness: float) -> SignalBuffer:
    """Rapp AM/AM solid-state PA; phase-transparent saturation.

    The saturation amplitude is set so the measured mean input power of the
    whole stream sits `input_backoff_db` below the saturation power.
    """
    if smoothness <= 0:
        raise ConfigError("Rapp smoothness must be positive")
    power = sig.power()
    if power == 0.0:
        return SignalBuffer(sig.samples.copy(), sig.sample_rate_hz)
    a_sat = math.sqrt(power * 10.0 ** (input_backoff_db / 10.0))
    out = np.empty_like(sig.samples)
    for start in range(0, len(sig), _PA_SLICE_SAMPLES):
        x = sig.samples[start:start + _PA_SLICE_SAMPLES]
        out[start:start + len(x)] = x / np.power(
            1.0 + np.power(np.abs(x) / a_sat, 2.0 * smoothness), 1.0 / (2.0 * smoothness))
    return SignalBuffer(out, sig.sample_rate_hz)
