"""RF impairments: circular complex Gaussian noise and the Rapp PA."""

from __future__ import annotations

import math

import numpy as np

from .core import ConfigError, SignalBuffer


def complex_noise(length: int, variance: float, rng: np.random.Generator) -> np.ndarray:
    """Circular complex Gaussian noise of `variance` per sample; I drawn before Q."""
    scale = math.sqrt(variance / 2.0)
    noise = np.empty(length, dtype=np.complex128)
    noise.real = scale * rng.standard_normal(length)
    noise.imag = scale * rng.standard_normal(length)
    return noise


# The PA curve runs per sample over slices this long, bounding its temporaries.
_PA_SLICE_SAMPLES = 1 << 16


def pa_rapp(sig: SignalBuffer, input_backoff_db: float, smoothness: float,
            out: np.ndarray | None = None) -> SignalBuffer:
    """Rapp AM/AM solid-state PA; phase-transparent saturation.

    The saturation amplitude is set so the measured mean input power of the
    whole stream sits `input_backoff_db` below the saturation power. Like a
    numpy ufunc, it writes into `out` when given, which may be the buffer
    under `sig` itself: the curve is elementwise, so the bits do not change.
    """
    if smoothness <= 0:
        raise ConfigError("Rapp smoothness must be positive")
    if out is None:
        out = np.empty_like(sig.samples)
    elif out.shape != sig.samples.shape or out.dtype != np.complex128:
        raise ValueError(f"out must be complex128 of shape {sig.samples.shape}")
    power = sig.power()
    if power == 0.0:
        out[:] = sig.samples
        return SignalBuffer(out, sig.sample_rate_hz)
    a_sat = math.sqrt(power * 10.0 ** (input_backoff_db / 10.0))
    for start in range(0, len(sig), _PA_SLICE_SAMPLES):
        x = sig.samples[start:start + _PA_SLICE_SAMPLES]
        out[start:start + len(x)] = x / np.power(
            1.0 + np.power(np.abs(x) / a_sat, 2.0 * smoothness), 1.0 / (2.0 * smoothness))
    return SignalBuffer(out, sig.sample_rate_hz)
