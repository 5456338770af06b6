"""Dual-band RIS model: the phase bit layout and per-element cascade gains.

The two bands are controlled independently: each element carries b_Q bits for
the optical phase and b_C bits for the RF phase, and changing one band's bits
never perturbs the other band's composite gain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import ComplexGain, OpticalParams, RfParams, TWO_PI, band_factors, friis_amplitude
from .geometry import LinkGeometry

QUANTUM = "quantum"
CLASSICAL = "classical"
_BAND_CODE = {QUANTUM: 0, CLASSICAL: 1}
# each band keeps 2^bits phase levels per element in tables; the paper uses 2
MAX_BITS_PER_BAND = 8
# the RIS->ground segment, 0.5 km; its Friis amplitude scales every cascade of
# a band by one constant, which the calibration absorbs
RIS_TO_GROUND_M = 0.5 * 1e3


@dataclass(frozen=True)
class RisConfig:
    """RIS hardware description."""

    n_elements: int = 512
    bits_quantum: int = 2
    bits_classical: int = 2

    def __post_init__(self) -> None:
        if self.n_elements < 0:
            raise ValueError("n_elements must be non-negative")
        if not (1 <= self.bits_quantum <= MAX_BITS_PER_BAND
                and 1 <= self.bits_classical <= MAX_BITS_PER_BAND):
            raise ValueError(f"phase resolutions need 1 to {MAX_BITS_PER_BAND} bits per band")

    @property
    def bits_total(self) -> int:
        return self.n_elements * (self.bits_quantum + self.bits_classical)


@dataclass(frozen=True)
class ChannelState:
    """Direct gains plus per-element RIS cascade gains for both bands."""

    direct_quantum: ComplexGain
    direct_classical: ComplexGain
    cascade_quantum: np.ndarray = field(default_factory=lambda: np.zeros(0, complex))
    cascade_classical: np.ndarray = field(default_factory=lambda: np.zeros(0, complex))

    def __post_init__(self) -> None:
        if len(self.cascade_quantum) != len(self.cascade_classical):
            raise ValueError("cascade arrays must have equal length")

    @property
    def n_elements(self) -> int:
        return len(self.cascade_quantum)


def bits_to_levels(bits: np.ndarray, cfg: RisConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-element (quantum, classical) phase levels of a bit vector or of each row.

    The one bit layout of the package: all quantum bits first (element-major,
    bit k minor), then all classical bits; level_n = sum_k 2^k x_{n,k} over
    0/1 bits, and the element's phase in a band of b bits is 2 pi level_n / 2^b.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    lead, n = bits.shape[:-1], cfg.n_elements
    bq, bc = cfg.bits_quantum, cfg.bits_classical
    return (_combine_bits(bits[..., : n * bq].reshape(*lead, n, bq)),
            _combine_bits(bits[..., n * bq:].reshape(*lead, n, bc)))


def _combine_bits(block: np.ndarray) -> np.ndarray:
    """sum_k 2^k block[..., k] of 0/1 bits, by shift-or (an integer matmul is slower)."""
    levels = block[..., 0].astype(np.int64)
    for k in range(1, block.shape[-1]):
        levels |= block[..., k].astype(np.int64) << k
    return levels


def levels_to_bits(levels_q: np.ndarray, levels_c: np.ndarray, cfg: RisConfig) -> np.ndarray:
    """Inverse of bits_to_levels, for one level pair or a batch of them."""
    q_bits = (np.asarray(levels_q, np.int64)[..., None] >> np.arange(cfg.bits_quantum)) & 1
    c_bits = (np.asarray(levels_c, np.int64)[..., None] >> np.arange(cfg.bits_classical)) & 1
    lead, n = q_bits.shape[:-2], cfg.n_elements
    return np.concatenate([q_bits.reshape(*lead, n * cfg.bits_quantum),
                           c_bits.reshape(*lead, n * cfg.bits_classical)],
                          axis=-1).astype(np.uint8)


def element_phase_offsets(cfg: RisConfig, band: str, seed: int) -> np.ndarray:
    """Deterministic per-element incident phase offsets psi_n in [0, 2*pi).

    Stratified-jittered uniform draw: the N offsets are spread one per stratum
    of width 2*pi/N and shuffled, so the set is low-discrepancy while each
    element's value stays seed-dependent. Identical seeds give identical
    sequences bit for bit.
    """
    n = cfg.n_elements
    if n == 0:
        return np.zeros(0)
    seq = np.random.SeedSequence([int(seed), _BAND_CODE[band]])
    rng = np.random.default_rng(seq)
    jitter = rng.random(n)
    perm = rng.permutation(n)
    return TWO_PI * (perm + jitter) / n


def cascade_gains(cfg: RisConfig, geom: LinkGeometry,
                  band_params: OpticalParams | RfParams, seed: int) -> np.ndarray:
    """Per-element cascade gains g_n (complex array of length N) of the band
    that band_params describes.

    Each element contributes a two-segment Friis amplitude from the band's
    factors (band_factors): satellite->RIS over the slant range, with the tx
    gain and the satellite-side path amplitude, and RIS->ground over
    RIS_TO_GROUND_M (lossless), with the rx gain; the unit cells are
    isotropic. The phase is the element's offset psi_n drawn from seed.
    Absolute scale is pinned later by calibration.
    """
    n = cfg.n_elements
    if n == 0:
        return np.zeros(0, dtype=complex)
    tx, rx, path = band_factors(band_params, geom)
    lam = band_params.wavelength_m
    seg1 = friis_amplitude(lam, geom.slant_range_km * 1e3) * math.sqrt(tx) * path
    seg2 = friis_amplitude(lam, RIS_TO_GROUND_M) * math.sqrt(rx)
    amp = seg1 * seg2
    band = QUANTUM if isinstance(band_params, OpticalParams) else CLASSICAL
    return amp * np.exp(1j * element_phase_offsets(cfg, band, seed))
