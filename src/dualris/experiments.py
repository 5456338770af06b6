"""Calibration against Micius benchmark anchors, elevation sweeps, histograms.

The calibration solves a short sequence of one-dimensional fits, each pinning
one model constant to one published anchor value, in an order chosen so that
no fit disturbs an earlier one. Sweep points derive their cascade-phase seeds
from the master seed and the (elevation, N) pair, so adding sweep points never
perturbs existing rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .channels import OpticalParams, RfParams, optical_direct_gain, rf_direct_gain
from .geometry import GeometryParams, LinkGeometry, link_geometry
from .metrics import (
    Calibration,
    CostWeights,
    Metrics,
    QBER_SECURITY_THRESHOLD,
    calibrated_baseline_qber,
    calibrated_raw_rate,
    link_metrics,
    normalized_transmittance,
    qber,
    skr,
    snr,
)
from .qubo import ExactObjective, ObjectiveError, QuadraticObjective, build_qubo
from .ris import CLASSICAL, QUANTUM, ChannelState, RisConfig, cascade_gains
from .solvers import SolverConfig, SolverResult, enforce_security, solve


@dataclass(frozen=True)
class SweepSpec:
    """Grids for the reproduction experiments."""

    elevations_deg: tuple[float, ...] = tuple(float(e) for e in range(10, 95, 5))
    ris_sizes: tuple[int, ...] = (0, 128, 265, 512)
    attenuation_levels: tuple[float, ...] = (1.0, 0.6, 0.3, 0.1)

    def __post_init__(self) -> None:
        if not self.elevations_deg or not self.ris_sizes or not self.attenuation_levels:
            raise ValueError("sweep lists must be non-empty")
        for e in self.elevations_deg:
            if not 0.0 < e <= 90.0:
                raise ValueError(f"elevation {e} outside (0, 90] deg")
        for n in self.ris_sizes:
            if n < 0:
                raise ValueError(f"RIS size {n} is negative")
        for att in self.attenuation_levels:
            if not (math.isfinite(att) and att > 0.0):
                raise ValueError(f"attenuation level {att:g} must be finite and > 0")


@dataclass(frozen=True)
class RunConfig:
    """Complete run description; defaults mirror the simulation parameter table."""

    geometry: GeometryParams = field(default_factory=GeometryParams)
    optical: OpticalParams = field(default_factory=OpticalParams)
    rf: RfParams = field(default_factory=RfParams)
    ris: RisConfig = field(default_factory=RisConfig)
    weights: CostWeights = field(default_factory=CostWeights)
    solver: SolverConfig = field(default_factory=SolverConfig)
    sweep: SweepSpec = field(default_factory=SweepSpec)
    seed: int = 1
    output_dir: str = "."

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SweepRow:
    """One (elevation, N) sweep record."""

    elevation_deg: float
    n_elements: int
    snr_db: float
    ber: float
    qber: float
    skr_bits_s: float
    cost: float
    feasible: bool
    solver_evals: int


@dataclass(frozen=True)
class DeltaRow(SweepRow):
    """SweepRow plus RIS-vs-baseline improvement columns."""

    dsnr_db: float = 0.0
    dqber_pp: float = 0.0


@dataclass(frozen=True)
class CalibrationAnchors:
    """Published benchmark values the calibration reproduces."""

    qber_low: float = 0.012            # baseline QBER at low_deg
    qber_high: float = 0.009           # baseline QBER at high_deg
    skr_high_bits_s: float = 3500.0    # baseline SKR at high_deg
    snr_low_db: float = 11.0           # baseline SNR at snr_deg
    skr_gain_high: float = 1.02        # fractional SKR gain at (ris_n, high_deg)
    dsnr_high_db: float = 1.1          # SNR improvement in dB at (ris_n, high_deg)
    low_deg: float = 20.0
    high_deg: float = 80.0
    snr_deg: float = 10.0
    ris_n: int = 512


class CalibrationError(RuntimeError):
    """A calibration fit could not bracket or reach its anchor."""


def derived_seed(master_seed: int, elevation_deg: float, n_elements: int) -> int:
    """Deterministic per-(elevation, N) seed split of the master seed."""
    seq = np.random.SeedSequence(
        [int(master_seed), int(round(elevation_deg * 1e6)), int(n_elements)])
    return int(seq.generate_state(1)[0])


def build_channel_state(cfg: RunConfig, cal: Calibration, elevation_deg: float,
                        n_elements: int, att: float = 1.0
                        ) -> tuple[ChannelState, RisConfig, LinkGeometry]:
    """Direct gains plus calibration-scaled cascades for one sweep point.

    att scales every deterministic loss factor (both bands, direct and cascade
    paths) by a single linear power factor.
    """
    theta = math.radians(elevation_deg)
    geom = link_geometry(theta, cfg.geometry)
    hq = optical_direct_gain(cfg.optical, geom)
    hc = rf_direct_gain(cfg.rf, geom)
    amp_scale = math.sqrt(att)
    hq = replace(hq, amplitude=hq.amplitude * amp_scale)
    hc = replace(hc, amplitude=hc.amplitude * amp_scale)
    ris_cfg = replace(cfg.ris, n_elements=n_elements)
    seed = derived_seed(cfg.seed, elevation_deg, n_elements)
    cq = cascade_gains(QUANTUM, ris_cfg, geom, cfg.optical, seed)
    cc = cascade_gains(CLASSICAL, ris_cfg, geom, cfg.rf, seed)
    state = ChannelState(
        direct_quantum=hq,
        direct_classical=hc,
        cascade_quantum=cq * (cal.element_amp_scale * amp_scale),
        cascade_classical=cc * (cal.rf_element_scale * amp_scale),
    )
    return state, ris_cfg, geom


def _bisect(fn, lo: float, hi: float, rel_tol: float = 1e-6, max_iter: int = 200,
            what: str = "fit") -> float:
    """Root of a monotone scalar function by bisection to relative tolerance."""
    f_lo, f_hi = fn(lo), fn(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0:
        raise CalibrationError(
            f"{what}: no sign change on [{lo:g}, {hi:g}] "
            f"(f(lo)={f_lo:g}, f(hi)={f_hi:g})")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if f_mid == 0.0 or (hi - lo) <= rel_tol * abs(mid):
            return mid
        if f_lo * f_mid < 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def _direct_amplitudes(cfg: RunConfig, elevation_deg: float) -> tuple[float, float]:
    theta = math.radians(elevation_deg)
    geom = link_geometry(theta, cfg.geometry)
    hq = optical_direct_gain(cfg.optical, geom)
    hc = rf_direct_gain(cfg.rf, geom)
    return hq.amplitude, hc.amplitude


def solve_point(cfg: RunConfig, cal: Calibration, elevation_deg: float,
                n_elements: int, att: float = 1.0,
                solver: SolverConfig | None = None
                ) -> tuple[SolverResult, ExactObjective]:
    """Optimize one sweep point and apply the BB84 rule to the winner.

    Raises ObjectiveError before any solve when a cost term can overflow
    (objective_problem).
    """
    state, ris_cfg, _ = build_channel_state(cfg, cal, elevation_deg, n_elements, att)
    objective = ExactObjective(state, cfg.weights, cal, cfg.optical, cfg.rf, ris_cfg)
    problem = objective_problem(objective)
    if problem:
        raise ObjectiveError(problem)
    scfg = solver if solver is not None else cfg.solver
    if scfg.objective == "quadratic":
        model = build_qubo(state, cfg.weights, cal, cfg.optical, cfg.rf, ris_cfg)
        result = solve(QuadraticObjective(model), ris_cfg.bits_total, scfg)
        result.best_value = objective.value(result.best_bits)  # re-score exactly
    else:
        result = solve(objective, ris_cfg.bits_total, scfg)
    return enforce_security(result, objective), objective


_FIT_SOLVER = SolverConfig(kind="exact")


def calibrate(cfg: RunConfig, anchors: CalibrationAnchors | None = None) -> Calibration:
    """Fit the calibration constants to the benchmark anchors, in order.

    1. rf_gain_offset_db   -> baseline SNR(snr_deg) = snr_low_db
    2. h_ref_sq (+ V_eff)  -> baseline QBER(low_deg) and QBER(high_deg)
    3. raw_rate_scale      -> baseline SKR(high_deg)
    4. element_amp_scale   -> optimized SKR gain at (ris_n, high_deg)
    5. rf_element_scale    -> optimized SNR gain in dB at (ris_n, high_deg)

    Each step is a one-dimensional bisection to 1e-6 relative tolerance and is
    independent of the later steps' constants.
    """
    a = anchors if anchors is not None else CalibrationAnchors()
    pd = cfg.optical.dark_count_prob

    # step 1: RF gain offset against the low-elevation SNR anchor
    _, hc_low = _direct_amplitudes(cfg, a.snr_deg)
    base_snr = snr(cfg.rf, hc_low, 0.0)
    if base_snr <= 0.0:
        raise CalibrationError("baseline RF channel has zero power; "
                               "cannot fit the SNR anchor")
    base_snr_db = 10.0 * math.log10(base_snr)
    offset_db = _bisect(lambda o: base_snr_db + o - a.snr_low_db,
                        -300.0, 300.0, what="rf_gain_offset_db")

    # step 2: QBER anchors; for a candidate reference power the low anchor
    # fixes the visibility, the high anchor supplies the residual
    hq_low, _ = _direct_amplitudes(cfg, a.low_deg)
    hq_high, _ = _direct_amplitudes(cfg, a.high_deg)
    target_low = 1.0 - 2.0 * (a.qber_low - pd)
    if target_low <= 0:
        raise CalibrationError("low QBER anchor above 50%")

    def qber_high_residual(log_href: float) -> float:
        href_sq = 10.0 ** log_href
        h_low = normalized_transmittance(hq_low**2 / href_sq)
        v_eff = target_low / h_low
        h_high = normalized_transmittance(hq_high**2 / href_sq)
        return qber(min(v_eff, 1.0), h_high, pd) - a.qber_high

    # the residual is monotone in the reference power between "reference far
    # below the channel" and the visibility-equals-one boundary
    r_at_v1 = target_low / (1.0 - target_low)
    hi_bound = math.log10(hq_low**2 / r_at_v1)
    log_href = _bisect(qber_high_residual, hi_bound - 12.0, hi_bound,
                       what="h_ref_sq / effective_visibility")
    h_ref_sq = 10.0 ** log_href
    v_eff = target_low / normalized_transmittance(hq_low**2 / h_ref_sq)
    if not 0.0 < v_eff <= 1.0:
        raise CalibrationError(f"effective visibility {v_eff:g} outside (0, 1]")

    cal = Calibration(raw_rate_scale=1.0, effective_visibility=v_eff,
                      h_ref_sq=h_ref_sq, rf_gain_offset_db=offset_db)
    check_low = calibrated_baseline_qber(hq_low, cal, pd)
    check_high = calibrated_baseline_qber(hq_high, cal, pd)
    if abs(check_low - a.qber_low) > 1e-7 or abs(check_high - a.qber_high) > 1e-7:
        raise CalibrationError(
            f"QBER anchors not reproduced: {check_low:.6f} / {check_high:.6f}")

    # step 3: raw key rate scale against the high-elevation SKR anchor
    def skr_high(scale: float) -> float:
        c = replace(cal, raw_rate_scale=scale)
        return skr(calibrated_raw_rate(hq_high, c), check_high,
                   cfg.optical.ec_inefficiency) - a.skr_high_bits_s

    rate_scale = _bisect(skr_high, 1e-9, 1e15, what="raw_rate_scale")
    cal = replace(cal, raw_rate_scale=rate_scale)

    if a.ris_n == 0:
        return cal

    # step 4: optical cascade scale against the optimized SKR gain anchor
    base_skr = skr(calibrated_raw_rate(hq_high, cal),
                   calibrated_baseline_qber(hq_high, cal, pd),
                   cfg.optical.ec_inefficiency)
    cal = _fit_cascade_scale(
        cfg, cal, a, "element_amp_scale",
        lambda m: m.skr_bits_s / base_skr - (1.0 + a.skr_gain_high))

    # step 5: RF cascade scale against the optimized SNR-gain anchor
    _, hc_high = _direct_amplitudes(cfg, a.high_deg)
    base_snr_high = snr(cfg.rf, hc_high, cal.rf_gain_offset_db)
    return _fit_cascade_scale(
        cfg, cal, a, "rf_element_scale",
        lambda m: 10.0 * math.log10(m.snr_linear / base_snr_high) - a.dsnr_high_db)


def _fit_cascade_scale(cfg: RunConfig, cal: Calibration, a: CalibrationAnchors,
                       name: str, residual_of: Callable[[Metrics], float]) -> Calibration:
    """cal with its cascade scale `name` fitted so that residual_of(optimized
    metrics at (ris_n, high_deg)) is 0; the residual must grow with the scale."""
    def residual(scale: float) -> float:
        c = replace(cal, **{name: scale})
        result, objective = solve_point(cfg, c, a.high_deg, a.ris_n, solver=_FIT_SOLVER)
        return residual_of(objective.metrics_of(result.best_bits))

    lo, hi = 1e-12, 1e-6
    while residual(hi) < 0 and hi < 1e12:
        lo, hi = hi, hi * 10.0
    return replace(cal, **{name: _bisect(residual, lo, hi, what=name)})


def evaluate_point(cfg: RunConfig, cal: Calibration, elevation_deg: float,
                   n_elements: int, att: float = 1.0
                   ) -> tuple[SweepRow, SolverResult | None, ExactObjective | None]:
    """Metrics for one sweep point, with the result and objective it solved (None at N = 0)."""
    if n_elements == 0:
        state, _, _ = build_channel_state(cfg, cal, elevation_deg, 0, att)
        m = link_metrics(state.direct_quantum.amplitude, state.direct_quantum.amplitude,
                         state.direct_classical.amplitude, cfg.optical, cfg.rf,
                         cfg.weights, cal)
        row = SweepRow(elevation_deg, 0, m.snr_db, m.ber, m.qber, m.skr_bits_s,
                       m.cost, m.qber <= QBER_SECURITY_THRESHOLD, 0)
        return row, None, None
    result, objective = solve_point(cfg, cal, elevation_deg, n_elements, att)
    m = objective.metrics_of(result.best_bits)
    row = SweepRow(elevation_deg, n_elements, m.snr_db, m.ber, m.qber,
                   m.skr_bits_s, m.cost, bool(result.feasible), result.evaluations)
    return row, result, objective


def sweep_elevation(cfg: RunConfig, cal: Calibration) -> list[SweepRow]:
    """All (elevation, N) rows of the reproduction sweep, elevation-major."""
    return [evaluate_point(cfg, cal, elevation, n)[0]
            for elevation in cfg.sweep.elevations_deg for n in cfg.sweep.ris_sizes]


def delta_metrics(rows: list[SweepRow]) -> list[DeltaRow]:
    """Append per-row improvements over the matched N = 0 baseline.

    Baselines are matched in stream order: each N = 0 row becomes the
    reference for the following rows at its elevation.
    """
    baselines: dict[float, SweepRow] = {}
    out = []
    for r in rows:
        if r.n_elements == 0:
            baselines[r.elevation_deg] = r
        base = baselines.get(r.elevation_deg)
        if base is None:
            raise ValueError(f"no N=0 baseline row for elevation {r.elevation_deg}")
        out.append(DeltaRow(
            **{f: getattr(r, f) for f in SweepRow.__dataclass_fields__},
            dsnr_db=r.snr_db - base.snr_db,
            dqber_pp=(base.qber - r.qber) * 100.0,
        ))
    return out


def sweep_problem(spec: SweepSpec) -> str | None:
    """Why delta_metrics cannot pair the sweep's rows with baselines, or None."""
    if spec.ris_sizes[0] != 0:
        return (f"the sweep needs ris_sizes to start with 0 for its baseline rows, "
                f"got {','.join(map(str, spec.ris_sizes))}")
    return None


def objective_problem(obj: ExactObjective) -> str | None:
    """Why a cost term of obj can be infinite or NaN, or None when neither can.

    QBER lies in [0, 0.5 + p_dark], and by the triangle inequality no
    reachable |T_C| exceeds |h_C| + sum |u_C|, so the terms' extremes are
    alpha (0.5 + p_dark) and beta log2(1 + kappa (|h_C| + sum |u_C|)^2).
    """
    amp = abs(obj.h0c) + float(np.abs(obj.uc).sum())
    quantum = obj.alpha * (0.5 + obj.p_dark)
    classical = obj.beta * math.log2(1.0 + obj.snr_coeff * amp * amp)
    if math.isfinite(quantum) and math.isfinite(classical):
        return None
    return (f"the cost is not finite at these weights: alpha (0.5 + p_dark) = {quantum:g}, "
            f"beta log2(1 + kappa (|h_C| + sum |u_C|)^2) = {classical:g}")


def histogram_problem(ris: RisConfig) -> str | None:
    """Why phase_histogram cannot run on this RIS, or None when it can."""
    if ris.n_elements < 1:
        return "phase histograms need at least one RIS element"
    if ris.bits_quantum != 2 or ris.bits_classical != 2:
        return "phase histograms require 2-bit phases in both bands"
    return None


def phase_histogram(cfg: RunConfig, cal: Calibration,
                    att_levels: tuple[float, ...] | None = None,
                    elevation_deg: float = 45.0) -> dict[float, np.ndarray]:
    """Joint (optical, RF) phase-bin counts of the optimized RIS per Att level.

    Needs at least one element and 2-bit quantization in both bands (16 joint
    bins). Configurations violating the QBER security threshold are rejected
    outright.
    """
    problem = histogram_problem(cfg.ris)
    if problem:
        raise ValueError(problem)
    levels = att_levels if att_levels is not None else cfg.sweep.attenuation_levels
    grids: dict[float, np.ndarray] = {}
    for att in levels:
        result, objective = solve_point(cfg, cal, elevation_deg,
                                        cfg.ris.n_elements, att)
        if not result.feasible:
            raise CalibrationError(
                f"no feasible phase assignment at att={att:g}")
        lq, lc = objective.levels_of(result.best_bits)
        grid = np.zeros((4, 4), dtype=int)
        np.add.at(grid, (lq, lc), 1)
        grids[att] = grid
    return grids


def chi_square_uniform(grid: np.ndarray) -> float:
    """Chi-squared distance of a count grid to the uniform distribution."""
    expected = grid.sum() / grid.size
    return float(((grid - expected) ** 2 / expected).sum())
