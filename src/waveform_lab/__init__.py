"""Filtered-OFDM link-level waveform simulator."""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    ConfigError,
    Numerology,
    ResourceGrid,
    ScenarioConfig,
    SignalBuffer,
    SubbandSpec,
    load_scenario,
    seeded_rng,
    validate_scenario,
)
