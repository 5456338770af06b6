"""The link model of the quantum optical and classical RF bands: direct gains
and the per-band factors that the RIS cascades share.

Amplitude gains follow the Friis convention: antenna/telescope gains are folded
into the channel amplitude exactly once, so receiver-side formulas must not
multiply them in again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import LinkGeometry

TWO_PI = 2.0 * math.pi
BOLTZMANN = 1.380649e-23  # J/K


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


# Link factors that the calibration absorbs, fixed at the simulation parameter
# table's values. Each multiplies a band's direct path, its cascades or both by
# one constant, which the fitted h_ref_sq, element_amp_scale, rf_gain_offset_db
# and rf_element_scale cancel, so none of them is a config key.
OPTICAL_TX_GAIN = 4.0 * math.pi / (10e-6 * 10e-6)    # laser directivity 4 pi / theta_div^2
_JITTER_RATIO = 2e-6 / 10e-6                          # sigma_j / theta_div
MEAN_POINTING_GAIN = 1.0 / (1.0 + 2.0 * _JITTER_RATIO * _JITTER_RATIO)
# I_ion = 0.0265 TEC / f^2 + 0.018 S4 f_ref^1.5 / f^1.5 dB at f = 2 GHz,
# TEC = 10 TECU, S4 = 0.3 and f_ref = 1 GHz, as a linear power factor
IONOSPHERIC_LOSS = 10.0 ** (-(0.0265 * 10.0 / 2.0**2
                              + 0.018 * 0.3 * 1.0**1.5 / 2.0**1.5) / 10.0)
RX_APERTURE_M = 0.3                                   # receiver telescope diameter D_r


@dataclass(frozen=True)
class OpticalParams:
    """Quantum (850 nm) link parameters."""

    wavelength_m: float = 850e-9
    atten_per_km: float = 0.046          # linear per-km power coefficient (~0.2 dB/km)
    dark_count_prob: float = 1e-5
    ec_inefficiency: float = 1.1

    def __post_init__(self) -> None:
        if self.wavelength_m <= 0:
            raise ValueError("wavelength_m must be positive")
        rx = optical_rx_gain(self)
        for what, gain in (("rx gain", rx), ("tx gain times rx gain", OPTICAL_TX_GAIN * rx)):
            if not 0.0 < gain < math.inf:
                raise ValueError(f"the optical {what} is {gain:g}; it must be finite and > 0 "
                                 f"(wavelength_m = {self.wavelength_m:g})")
        if not 0.0 <= self.dark_count_prob <= 1e-3:
            raise ValueError("dark_count_prob must be in [0, 1e-3]")
        if self.ec_inefficiency < 1.0:
            raise ValueError("ec_inefficiency must be >= 1")


@dataclass(frozen=True)
class RfParams:
    """Classical S-band link parameters."""

    wavelength_m: float = 0.15
    atten_per_km: float = 0.0046         # linear per-km power coefficient (~0.02 dB/km)
    rain_rate_mm_h: float = 0.0
    rain_k: float = 3e-4
    rain_alpha: float = 1.1
    tx_power_w: float = 10.0
    sys_temp_k: float = 290.0
    bandwidth_hz: float = 1e8

    def __post_init__(self) -> None:
        for name in ("wavelength_m", "tx_power_w", "sys_temp_k", "bandwidth_hz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not BOLTZMANN * self.sys_temp_k * self.bandwidth_hz > 0.0:     # snr divides by it
            raise ValueError("the noise power k_B sys_temp_k bandwidth_hz underflows to 0 "
                             f"(sys_temp_k = {self.sys_temp_k:g}, "
                             f"bandwidth_hz = {self.bandwidth_hz:g})")
        if self.rain_rate_mm_h < 0:
            raise ValueError("rain_rate_mm_h must be non-negative")


def optical_rx_gain(params: OpticalParams) -> float:
    """Receiver telescope gain pi * D_r^2 / lambda^2, without raising: inf where
    lambda^2 underflows to 0."""
    square = params.wavelength_m * params.wavelength_m
    return math.pi * (RX_APERTURE_M * RX_APERTURE_M) / square if square > 0.0 else math.inf


def rain_loss(params: RfParams, geom: LinkGeometry) -> float:
    """Rain power loss exp(-k R^alpha * d_rain)."""
    if params.rain_rate_mm_h == 0.0:
        return 1.0
    gamma_r = params.rain_k * params.rain_rate_mm_h**params.rain_alpha
    return math.exp(-gamma_r * geom.rain_path_km)


def rf_atmospheric_loss(params: RfParams, geom: LinkGeometry) -> float:
    """Clear-air RF power loss exp(-kappa_C * d_atm)."""
    return math.exp(-params.atten_per_km * geom.atm_path_km)


def friis_amplitude(wavelength_m: float, distance_m: float) -> float:
    """Free-space amplitude lambda / (4 pi d) of one path segment."""
    return wavelength_m / (4.0 * math.pi * distance_m)


def band_factors(params: OpticalParams | RfParams, geom: LinkGeometry
                 ) -> tuple[float, float, float]:
    """(tx gain, rx gain, satellite-side path amplitude) of one band at geom.

    The one link model of both bands: the direct path and each RIS cascade are
    Friis amplitudes times these factors. The optical gains are the laser's
    OPTICAL_TX_GAIN and the telescope's pi D_r^2 / lambda^2; the S-band antennas
    are isotropic (gain 1). The path amplitude is exp(-kappa d_atm / 2) for the
    optical band and sqrt(L_atm L_ion L_rain) for the RF band.
    """
    if isinstance(params, OpticalParams):
        return (OPTICAL_TX_GAIN, optical_rx_gain(params),
                math.exp(-params.atten_per_km * geom.atm_path_km / 2.0))
    return (1.0, 1.0,
            math.sqrt(rf_atmospheric_loss(params, geom) * IONOSPHERIC_LOSS
                      * rain_loss(params, geom)))


def _direct_gain(params: OpticalParams | RfParams, geom: LinkGeometry,
                 fade: float) -> ComplexGain:
    """friis(d) sqrt(Gt Gr) path fade, with the carrier propagation phase 2 pi d / lambda."""
    d_m = geom.slant_range_km * 1e3
    tx, rx, path = band_factors(params, geom)
    amplitude = friis_amplitude(params.wavelength_m, d_m) * math.sqrt(tx * rx) * path * fade
    return ComplexGain(amplitude, TWO_PI * d_m / params.wavelength_m)


def optical_direct_gain(params: OpticalParams, geom: LinkGeometry) -> ComplexGain:
    """Direct quantum channel at mean fading: the fade is sqrt(h_pe), with h_pe
    the mean pointing gain 1 / (1 + 2 sigma_j^2 / theta_div^2)."""
    return _direct_gain(params, geom, math.sqrt(MEAN_POINTING_GAIN))


def rf_direct_gain(params: RfParams, geom: LinkGeometry) -> ComplexGain:
    """Direct S-band channel (no fade)."""
    return _direct_gain(params, geom, 1.0)

