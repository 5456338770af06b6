"""Binary objective minimizers: exact band sweep, brute force, annealing, tabu,
coordinate descent.

Every solver is bit-reproducible given (seed, config, objective), and the
returned best value is re-scored from scratch so no incremental cache can go
stale. The heuristics and brute force resolve ties toward the
lexicographically smallest bit vector; the band sweep has its own documented
tie rule. The RNG is numpy's PCG64; the algorithm name is recorded in each
result so runs replay across platforms.

Brute force, annealing and tabu take any objective with dim, value(x),
batch(xs) over rows, qber_batch(xs) (+inf where the objective has no QBER) and
walk(x); a walk holds x and value and offers peek_flip(i), apply_flip(i) and
qber(). ExactObjective and QuadraticObjective implement this interface. The
band sweep and coordinate descent need the per-element channel structure of
ExactObjective.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .metrics import QBER_SECURITY_THRESHOLD, field_gain_qber
from .qubo import ExactObjective
from .ris import levels_to_bits

RNG_ALGORITHM = "numpy-pcg64"
BRUTE_FORCE_MAX_BITS = 24


@dataclass(frozen=True)
class SolverConfig:
    kind: str = "exact"                # exact | brute | anneal | tabu | bcd
    seed: int = 0
    max_iters: int = 200               # sweeps (anneal/bcd) or moves (tabu)
    initial_temp: float | None = None  # None: 10 x std of F over 100 probes
    cooling_rate: float = 0.97
    tabu_tenure: int = 8
    restarts: int = 3
    objective: str = "exact"           # exact | quadratic

    def __post_init__(self) -> None:
        if not 0.0 < self.cooling_rate < 1.0:
            raise ValueError("cooling_rate must be in (0, 1)")
        if self.tabu_tenure < 1:
            raise ValueError("tabu_tenure must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.kind not in ("exact", "brute", "anneal", "tabu", "bcd"):
            raise ValueError(f"unknown solver kind {self.kind!r}")
        if self.objective not in ("exact", "quadratic"):
            raise ValueError(f"unknown objective {self.objective!r}")
        # exact and bcd read the channel structure, which the surrogate lacks
        if self.objective == "quadratic" and self.kind not in ("brute", "anneal", "tabu"):
            raise ValueError(f"solver kind {self.kind!r} cannot use the quadratic objective")


@dataclass
class SolverResult:
    best_bits: np.ndarray
    best_value: float
    evaluations: int
    feasible: bool | None = None       # set by enforce_security
    trace: list[tuple[int, float]] = field(default_factory=list)
    rng_algorithm: str = RNG_ALGORITHM
    qber: float | None = None
    best_feasible_bits: np.ndarray | None = None


def _lex_less(a: np.ndarray, b: np.ndarray) -> bool:
    for x, y in zip(a, b):
        if x != y:
            return x < y
    return False


class _Best:
    """Running best-so-far with lexicographic tie-breaking."""

    def __init__(self) -> None:
        self.value = math.inf
        self.bits: np.ndarray | None = None

    def offer(self, value: float, bits: np.ndarray) -> bool:
        if value < self.value or (value == self.value and self.bits is not None
                                  and _lex_less(bits, self.bits)):
            self.value = value
            self.bits = np.array(bits, dtype=np.uint8, copy=True)
            return True
        return False


class _FeasibleBest(_Best):
    """Best-so-far restricted to QBER-feasible states."""

    def offer_walk(self, walk) -> None:
        if walk.qber() <= QBER_SECURITY_THRESHOLD:
            self.offer(walk.value, walk.x)


def _finalize(objective, best: _Best, feas: _FeasibleBest, evaluations: int,
              trace: list[tuple[int, float]]) -> SolverResult:
    bits = best.bits if best.bits is not None else np.zeros(0, np.uint8)
    return SolverResult(best_bits=bits,
                        best_value=objective.value(bits),   # re-score: no stale caching
                        evaluations=evaluations, trace=trace,
                        best_feasible_bits=feas.bits)


def _enumerate_codes(dim: int, chunk: int = 1 << 15):
    """Yield (codes, bit-matrix) chunks in lexicographic bit-vector order."""
    shifts = np.arange(dim - 1, -1, -1, dtype=np.uint32)  # x_0 is most significant
    total = 1 << dim
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        bits = ((codes[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
        yield codes, bits


def brute_force(objective, dim: int) -> SolverResult:
    """Exhaustive minimum over all 2^dim bit vectors (oracle for small instances)."""
    if dim > BRUTE_FORCE_MAX_BITS:
        raise ValueError(
            f"brute force refused: dim {dim} exceeds the hard cap of "
            f"{BRUTE_FORCE_MAX_BITS} bits")
    best = _Best()
    feas = _FeasibleBest()
    evaluations = 0
    trace: list[tuple[int, float]] = []
    if dim == 0:
        empty = np.zeros(0, np.uint8)
        val = objective.value(empty)
        return SolverResult(best_bits=empty, best_value=val, evaluations=1,
                            trace=[(0, val)])
    for codes, bits in _enumerate_codes(dim):
        vals = objective.batch(bits)
        evaluations += len(vals)
        k = int(np.argmin(vals))      # first minimum = lexicographically smallest
        if best.offer(float(vals[k]), bits[k]):
            trace.append((evaluations, best.value))
        ok = objective.qber_batch(bits) <= QBER_SECURITY_THRESHOLD
        if ok.any():
            kf = int(np.flatnonzero(ok)[np.argmin(vals[ok])])
            feas.offer(float(vals[kf]), bits[kf])
    return _finalize(objective, best, feas, evaluations, trace)


def _auto_temperature(objective, dim: int, rng: np.random.Generator) -> float:
    probes = rng.integers(0, 2, size=(100, dim), dtype=np.uint8)
    spread = float(objective.batch(probes).std())
    return 10.0 * spread if spread > 0 else 1.0


def simulated_annealing(objective, dim: int, cfg: SolverConfig) -> SolverResult:
    """Metropolis single-flip annealing with geometric cooling per sweep."""
    rng = np.random.default_rng(cfg.seed)
    best = _Best()
    feas = _FeasibleBest()
    trace: list[tuple[int, float]] = []
    evaluations = 0
    if dim == 0:
        return brute_force(objective, 0)
    for _ in range(cfg.restarts):
        x0 = rng.integers(0, 2, size=dim, dtype=np.uint8)
        walk = objective.walk(x0)
        evaluations += 1
        if best.offer(walk.value, walk.x):
            trace.append((evaluations, best.value))
        feas.offer_walk(walk)
        temp = cfg.initial_temp if cfg.initial_temp else _auto_temperature(objective, dim, rng)
        for _ in range(cfg.max_iters):
            flips = rng.integers(0, dim, size=dim)
            accept_draws = rng.random(dim)
            for i, draw in zip(flips, accept_draws):
                cand = walk.peek_flip(int(i))
                evaluations += 1
                delta = cand - walk.value
                if delta <= 0.0 or draw < math.exp(-delta / temp):
                    walk.apply_flip(int(i))
                    feas.offer_walk(walk)
                    if best.offer(walk.value, walk.x):
                        trace.append((evaluations, best.value))
            temp *= cfg.cooling_rate
    return _finalize(objective, best, feas, evaluations, trace)


def tabu_search(objective, dim: int, cfg: SolverConfig) -> SolverResult:
    """Steepest single-flip descent with a recency tabu list and aspiration.

    Runs cfg.restarts independent starts of cfg.max_iters moves each; a move
    is tabu for cfg.tabu_tenure iterations after its variable was last flipped
    unless it improves on the best state ever seen (aspiration).
    """
    rng = np.random.default_rng(cfg.seed)
    best = _Best()
    feas = _FeasibleBest()
    trace: list[tuple[int, float]] = []
    evaluations = 0
    if dim == 0:
        return brute_force(objective, 0)
    for _ in range(cfg.restarts):
        x0 = rng.integers(0, 2, size=dim, dtype=np.uint8)
        walk = objective.walk(x0)
        evaluations += 1
        if best.offer(walk.value, walk.x):
            trace.append((evaluations, best.value))
        feas.offer_walk(walk)
        last_flip = np.full(dim, -10**9, dtype=np.int64)
        for it in range(cfg.max_iters):
            chosen = -1
            chosen_val = math.inf
            for i in range(dim):
                cand = walk.peek_flip(i)
                evaluations += 1
                tabu = (it - last_flip[i]) <= cfg.tabu_tenure
                if tabu and not cand < best.value:   # aspiration: allow if new best
                    continue
                if cand < chosen_val:                # lowest index wins ties
                    chosen_val = cand
                    chosen = i
            if chosen < 0:
                # whole neighborhood tabu: take the least-recently flipped move
                chosen = int(np.argmin(last_flip))
            walk.apply_flip(chosen)
            last_flip[chosen] = it
            feas.offer_walk(walk)
            if best.offer(walk.value, walk.x):
                trace.append((evaluations, best.value))
    return _finalize(objective, best, feas, evaluations, trace)


def _lex_level_order(bits: int) -> list[int]:
    """Phase levels ordered by the lexicographic order of their bit vectors."""
    return sorted(range(1 << bits), key=lambda l: tuple((l >> k) & 1 for k in range(bits)))


def block_coordinate_descent(objective: ExactObjective, cfg: SolverConfig) -> SolverResult:
    """Element-wise exact descent over all joint per-element phase options.

    Requires the exact objective (needs the per-element channel structure).
    Sweeps elements in index order from the all-zero configuration; for each
    element all 2^b_Q * 2^b_C joint phase pairs are scored exactly (the cost
    splits exactly into a quantum and a classical term, so the 16 joint values
    are sums of 4 + 4 band terms) and the best is kept. Stops when a full
    sweep makes no change or after max_iters sweeps.
    """
    if not isinstance(objective, ExactObjective):
        raise TypeError("block coordinate descent needs the exact objective")
    obj = objective
    evaluations = 0
    if obj.dim == 0:
        return brute_force(obj, 0)

    # local names: every candidate level goes through these in the inner loop
    log2, qber = math.log2, field_gain_qber
    alpha, beta, kappa = obj.alpha, obj.beta, obj.snr_coeff
    direct, eps_base, pd = obj.direct_amp, obj.eps_base, obj.p_dark
    order_q = _lex_level_order(obj.bq)
    order_c = _lex_level_order(obj.bc)
    # per-element candidate contributions, fixed for the whole run
    cand_q = [list(row) for row in obj.uq[:, None] * obj._phasor_q[None, :]]
    cand_c = [list(row) for row in obj.uc[:, None] * obj._phasor_c[None, :]]

    levels_q = [0] * obj.n
    levels_c = [0] * obj.n
    tq = obj.h0q + sum(row[0] for row in cand_q)
    tc = obj.h0c + sum(row[0] for row in cand_c)

    eps = qber(abs(tq), direct, eps_base, pd)
    value = alpha * eps - beta * log2(1.0 + kappa * (tc.real**2 + tc.imag**2))
    evaluations += 1
    trace: list[tuple[int, float]] = [(evaluations, value)]
    feas_levels = (list(levels_q), list(levels_c)) if eps <= QBER_SECURITY_THRESHOLD else None

    for _ in range(cfg.max_iters):
        changed = False
        for n in range(obj.n):
            row_q, row_c = cand_q[n], cand_c[n]
            lq_cur, lc_cur = levels_q[n], levels_c[n]
            base_tq = tq - row_q[lq_cur]
            base_tc = tc - row_c[lc_cur]
            pick_val = math.inf
            pick_q = lq_cur
            pick_c = lc_cur
            eps_terms = []
            for lq in order_q:
                t = base_tq + row_q[lq]
                eps_terms.append((alpha * qber(abs(t), direct, eps_base, pd), lq))
            log_terms = []
            for lc in order_c:
                t = base_tc + row_c[lc]
                log_terms.append((-beta * log2(1.0 + kappa * (t.real**2 + t.imag**2)), lc))
            for eq, lq in eps_terms:        # lexicographic candidate order
                for ec, lc in log_terms:
                    evaluations += 1
                    val = eq + ec
                    if val < pick_val:
                        pick_val = val
                        pick_q, pick_c = lq, lc
            # require a real improvement: re-summed totals carry float dust
            if value - pick_val > 1e-12 * abs(value) and (pick_q, pick_c) != (lq_cur, lc_cur):
                tq = base_tq + row_q[pick_q]
                tc = base_tc + row_c[pick_c]
                levels_q[n] = pick_q
                levels_c[n] = pick_c
                value = pick_val
                changed = True
                trace.append((evaluations, value))
                if qber(abs(tq), direct, eps_base, pd) <= QBER_SECURITY_THRESHOLD:
                    feas_levels = (list(levels_q), list(levels_c))
        if not changed:
            break

    best = _Best()
    feas = _FeasibleBest()
    best.offer(value, levels_to_bits(levels_q, levels_c, obj.cfg))
    if feas_levels is not None:
        feas.offer(value, levels_to_bits(*feas_levels, obj.cfg))
    # descent is monotone, so the final state is also the best feasible seen
    return _finalize(obj, best, feas, evaluations, trace)


def _band_levels(h0: complex, u: np.ndarray, phasor: np.ndarray) -> np.ndarray:
    """Per-element levels l_n that maximize |h0 + sum_n u_n phasor[l_n]|.

    For a reference angle phi, Re(T e^{-j phi}) is maximized element by element
    by the level closest to phi - arg u_n, and |T| = Re(T e^{-j phi}) at
    phi = arg T. The per-element choice changes only at the N*K breakpoints
    arg u_n + 2 pi (l + 1/2) / K (mod 2 pi), where element n steps from level l
    to l + 1 (mod K). Visiting them in sorted order from phi = 0 passes through
    every per-phi best assignment, so the largest |T| among the N*K + 1
    assignments met is the exact maximum, in O(NK log NK) (Zhang, Shen, Ren,
    Li, Chen, Luo, "Configuring Intelligent Reflecting Surface with Performance
    Guarantees: Optimal Beamforming", IEEE JSTSP 2022).

    Tie rule: the breakpoints are ordered by a stable argsort of the (N, K)
    breakpoint array, flattened element-major, so equal angles keep element
    order. Among equal |T| the first assignment met wins; the sweep starts
    from the assignment in which every element sits before its earliest
    breakpoint.
    """
    k = len(phasor)
    step = 2.0 * math.pi / k
    breaks = np.mod(np.angle(u)[:, None] + step * (np.arange(k) + 0.5), 2.0 * math.pi)
    # each element's earliest breakpoint moves it off the level it starts on
    start = np.argmin(breaks, axis=1)
    elem, lev = np.divmod(np.argsort(breaks, axis=None, kind="stable"), k)
    totals = np.empty(elem.size + 1, dtype=complex)
    totals[0] = h0 + (u * phasor[start]).sum()
    totals[1:] = totals[0] + np.cumsum(u[elem] * (phasor[(lev + 1) % k] - phasor[lev]))
    first_best = int(np.argmax(np.abs(totals)))
    return (start + np.bincount(elem[:first_best], minlength=u.size)) % k


def band_sweep(objective: ExactObjective) -> SolverResult:
    """Exact minimum by one breakpoint sweep per band.

    The cost alpha * QBER(|T_Q|) - beta * log2(1 + kappa |T_C|^2) has one term
    per band, and with alpha, beta >= 0 each term is non-increasing in its
    band's |T|, so maximizing |T_Q| and |T_C| separately (_band_levels, with
    its tie rule) minimizes it. evaluations counts the band totals scored,
    2 + N (2^b_Q + 2^b_C). The chosen |T_Q| is the largest any assignment
    reaches, so its QBER is the smallest: the result is its own feasible
    fallback when that QBER meets the threshold, and otherwise no assignment
    is feasible.
    """
    if not isinstance(objective, ExactObjective):
        raise TypeError("the band sweep needs the exact objective")
    obj = objective
    if obj.dim == 0:
        return brute_force(obj, 0)
    bits = levels_to_bits(_band_levels(obj.h0q, obj.uq, obj._phasor_q),
                          _band_levels(obj.h0c, obj.uc, obj._phasor_c), obj.cfg)
    evaluations = 2 + obj.n * (len(obj._phasor_q) + len(obj._phasor_c))
    best = _Best()
    feas = _FeasibleBest()
    best.offer(obj.value(bits), bits)
    if obj.qber_of(bits) <= QBER_SECURITY_THRESHOLD:
        feas.offer(best.value, bits)
    return _finalize(obj, best, feas, evaluations, [(evaluations, best.value)])


def min_qber(objective: ExactObjective) -> float:
    """Smallest QBER any phase assignment reaches: the QBER at the largest |T_Q|."""
    return objective.qber_of(band_sweep(objective).best_bits)


def solve(objective, dim: int, cfg: SolverConfig) -> SolverResult:
    """Dispatch on cfg.kind."""
    if cfg.kind == "exact":
        return band_sweep(objective)
    if cfg.kind == "brute":
        return brute_force(objective, dim)
    if cfg.kind == "anneal":
        return simulated_annealing(objective, dim, cfg)
    if cfg.kind == "tabu":
        return tabu_search(objective, dim, cfg)
    return block_coordinate_descent(objective, cfg)


def enforce_security(result: SolverResult, objective: ExactObjective,
                     threshold: float = QBER_SECURITY_THRESHOLD) -> SolverResult:
    """Apply the BB84 feasibility rule qber(x*) <= threshold.

    Infeasible winners are replaced by the best feasible visited state when one
    exists; otherwise the result is marked infeasible for the caller to reject.
    """
    eps = objective.qber_of(result.best_bits)
    result.feasible = eps <= threshold
    if not result.feasible and result.best_feasible_bits is not None:
        result.best_bits = result.best_feasible_bits
        result.best_value = objective.value(result.best_bits)
        eps = objective.qber_of(result.best_bits)
        result.feasible = True
    result.qber = eps
    return result


def trace_csv_lines(result: SolverResult) -> list[str]:
    """Solver trace as CSV lines (iteration, best_value)."""
    lines = ["iteration,best_value"]
    lines += [f"{it},{val:.17g}" for it, val in result.trace]
    return lines
