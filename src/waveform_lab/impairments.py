"""RF impairments: circular complex Gaussian noise and the Rapp PA."""

from __future__ import annotations

import math

import numpy as np

from .core import ConfigError


def complex_noise(length: int, variance: float, rng: np.random.Generator) -> np.ndarray:
    """Circular complex Gaussian noise of `variance` per sample; I drawn before Q."""
    scale = math.sqrt(variance / 2.0)
    noise = np.empty(length, dtype=np.complex128)
    noise.real = scale * rng.standard_normal(length)
    noise.imag = scale * rng.standard_normal(length)
    return noise


# `mean_power` sums over slices this long, and the PA curve runs per sample
# over slices this long, bounding their temporaries.
_POWER_SLICE_SAMPLES = 1 << 15
_PA_SLICE_SAMPLES = 1 << 16


def mean_power(samples: np.ndarray) -> float:
    """Mean |x|^2 of a stream (0.0 for an empty one), summed over slices of
    _POWER_SLICE_SAMPLES to bound the temporaries."""
    if not len(samples):
        return 0.0
    total = 0.0
    for start in range(0, len(samples), _POWER_SLICE_SAMPLES):
        total += float(np.sum(np.abs(samples[start:start + _POWER_SLICE_SAMPLES]) ** 2))
    return total / len(samples)


def pa_rapp(samples: np.ndarray, input_backoff_db: float, smoothness: float,
            out: np.ndarray | None = None) -> np.ndarray:
    """Rapp AM/AM solid-state PA; phase-transparent saturation.

    The saturation amplitude is set so the measured mean input power of the
    whole stream sits `input_backoff_db` below the saturation power. Like a
    numpy ufunc, it writes into `out` when given, which may be `samples`
    itself: the curve is elementwise, so the bits do not change.
    """
    if smoothness <= 0:
        raise ConfigError("Rapp smoothness must be positive")
    if out is None:
        out = np.empty(len(samples), dtype=np.complex128)
    elif out.shape != samples.shape or out.dtype != np.complex128:
        raise ValueError(f"out must be complex128 of shape {samples.shape}")
    power = mean_power(samples)
    if power == 0.0:
        out[:] = samples
        return out
    a_sat = math.sqrt(power * 10.0 ** (input_backoff_db / 10.0))
    for start in range(0, len(samples), _PA_SLICE_SAMPLES):
        x = samples[start:start + _PA_SLICE_SAMPLES]
        out[start:start + len(x)] = x / np.power(
            1.0 + np.power(np.abs(x) / a_sat, 2.0 * smoothness), 1.0 / (2.0 * smoothness))
    return out
