"""Direct (non-RIS) channel gains for the quantum optical and classical RF links.

Amplitude gains follow the Friis convention: antenna/telescope gains are folded
into the channel amplitude exactly once, so receiver-side formulas must not
multiply them in again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import LinkGeometry

TWO_PI = 2.0 * math.pi


def wrap_phase(phase_rad: float) -> float:
    """Normalize an angle to [0, 2*pi)."""
    p = math.fmod(phase_rad, TWO_PI)
    return p + TWO_PI if p < 0.0 else p


@dataclass(frozen=True)
class ComplexGain:
    """Amplitude/phase pair for a channel coefficient."""

    amplitude: float
    phase_rad: float

    def __post_init__(self) -> None:
        if self.amplitude < 0:
            raise ValueError("amplitude must be non-negative")
        object.__setattr__(self, "phase_rad", wrap_phase(self.phase_rad))

    @property
    def as_complex(self) -> complex:
        return self.amplitude * complex(math.cos(self.phase_rad), math.sin(self.phase_rad))


@dataclass(frozen=True)
class OpticalParams:
    """Quantum (850 nm) link parameters."""

    wavelength_m: float = 850e-9
    atten_per_km: float = 0.046          # linear per-km power coefficient (~0.2 dB/km)
    beam_divergence_rad: float = 10e-6
    rx_aperture_m: float = 0.3
    jitter_rad: float = 2e-6
    dark_count_prob: float = 1e-5
    ec_inefficiency: float = 1.1

    def __post_init__(self) -> None:
        if self.wavelength_m <= 0:
            raise ValueError("wavelength_m must be positive")
        if not 0.0 <= self.dark_count_prob <= 1e-3:
            raise ValueError("dark_count_prob must be in [0, 1e-3]")
        if self.ec_inefficiency < 1.0:
            raise ValueError("ec_inefficiency must be >= 1")


@dataclass(frozen=True)
class RfParams:
    """Classical S-band link parameters."""

    wavelength_m: float = 0.15
    atten_per_km: float = 0.0046         # linear per-km power coefficient (~0.02 dB/km)
    carrier_ghz: float = 2.0
    tec_units: float = 10.0              # TECU
    scint_index: float = 0.3             # S4
    ref_freq_ghz: float = 1.0
    rain_rate_mm_h: float = 0.0
    rain_k: float = 3e-4
    rain_alpha: float = 1.1
    tx_gain: float = 1.0                 # linear; absolute scale is set by calibration
    rx_gain: float = 1.0
    tx_power_w: float = 10.0
    sys_temp_k: float = 290.0
    bandwidth_hz: float = 1e8

    def __post_init__(self) -> None:
        for name in ("wavelength_m", "carrier_ghz", "ref_freq_ghz", "tx_gain",
                     "rx_gain", "tx_power_w", "sys_temp_k", "bandwidth_hz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 2.0 <= self.carrier_ghz <= 4.0:
            raise ValueError("carrier_ghz must lie in the S band [2, 4] GHz")
        if self.rain_rate_mm_h < 0:
            raise ValueError("rain_rate_mm_h must be non-negative")


def optical_tx_gain(params: OpticalParams) -> float:
    """Laser directivity gain 4*pi / theta_div^2."""
    if params.beam_divergence_rad <= 0:
        raise ValueError("beam divergence must be positive")
    return 4.0 * math.pi / params.beam_divergence_rad**2


def optical_rx_gain(params: OpticalParams) -> float:
    """Receiver telescope gain pi * D_r^2 / lambda^2."""
    if params.rx_aperture_m <= 0:
        raise ValueError("rx aperture must be positive")
    return math.pi * params.rx_aperture_m**2 / params.wavelength_m**2


def optical_direct_gain(params: OpticalParams, geom: LinkGeometry) -> ComplexGain:
    """Direct quantum channel amplitude at mean fading.

    (lambda / 4 pi d) * sqrt(Gt Gr) * exp(-kappa d_atm / 2) * sqrt(h_pe), with
    h_pe the mean pointing gain and the carrier propagation phase 2 pi d / lambda.
    """
    d_m = geom.slant_range_km * 1e3
    friis = params.wavelength_m / (4.0 * math.pi * d_m)
    gains = math.sqrt(optical_tx_gain(params) * optical_rx_gain(params))
    atm = math.exp(-params.atten_per_km * geom.atm_path_km / 2.0)
    fade = math.sqrt(mean_pointing_gain(params))
    phase = TWO_PI * d_m / params.wavelength_m
    return ComplexGain(friis * gains * atm * fade, wrap_phase(phase))


def ionospheric_loss(params: RfParams) -> float:
    """Ionospheric power loss factor from TEC and scintillation index.

    I_ion = 0.0265 TEC / f^2 + 0.018 S4 f_ref^1.5 / f^1.5 (dB), returned linear.
    """
    f = params.carrier_ghz
    i_db = (0.0265 * params.tec_units / f**2
            + 0.018 * params.scint_index * params.ref_freq_ghz**1.5 / f**1.5)
    return 10.0 ** (-i_db / 10.0)


def rain_loss(params: RfParams, geom: LinkGeometry) -> float:
    """Rain power loss exp(-k R^alpha * d_rain)."""
    if params.rain_rate_mm_h == 0.0:
        return 1.0
    gamma_r = params.rain_k * params.rain_rate_mm_h**params.rain_alpha
    return math.exp(-gamma_r * geom.rain_path_km)


def rf_atmospheric_loss(params: RfParams, geom: LinkGeometry) -> float:
    """Clear-air RF power loss exp(-kappa_C * d_atm)."""
    return math.exp(-params.atten_per_km * geom.atm_path_km)


def rf_direct_gain(params: RfParams, geom: LinkGeometry) -> ComplexGain:
    """Direct S-band channel amplitude.

    (lambda / 4 pi d) * sqrt(Gt Gr) * sqrt(L_atm L_ion L_rain), with the
    carrier propagation phase 2 pi d / lambda.
    """
    d_m = geom.slant_range_km * 1e3
    friis = params.wavelength_m / (4.0 * math.pi * d_m)
    gains = math.sqrt(params.tx_gain * params.rx_gain)
    losses = math.sqrt(rf_atmospheric_loss(params, geom)
                       * ionospheric_loss(params)
                       * rain_loss(params, geom))
    phase = TWO_PI * d_m / params.wavelength_m
    return ComplexGain(friis * gains * losses, wrap_phase(phase))


def mean_pointing_gain(params: OpticalParams) -> float:
    """Deterministic mean pointing loss 1 / (1 + 2 sigma_j^2 / theta_div^2)."""
    if params.jitter_rad < 0:
        raise ValueError("jitter must be non-negative")
    if params.beam_divergence_rad <= 0:
        raise ValueError("beam divergence must be positive")
    ratio = params.jitter_rad / params.beam_divergence_rad
    return 1.0 / (1.0 + 2.0 * ratio * ratio)
