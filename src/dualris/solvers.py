"""Binary objective minimizers: exact band sweep, brute force, annealing, tabu,
coordinate descent.

Every solver is bit-reproducible given (seed, config, objective), and the
returned best value is re-scored from scratch so no incremental cache can go
stale. The heuristics and brute force resolve ties toward the
lexicographically smallest bit vector; the band sweep has its own documented
tie rule. The RNG is numpy's PCG64; the CSV metadata records its name,
RNG_ALGORITHM, so runs replay across platforms.

Brute force, annealing and tabu take any objective with dim, value(x),
batch(xs) over rows and walk(x); a walk holds x and value and offers
peek_flip(i), apply_flip(i) and peek_all(), which returns an array score for
every flip and a bound on each score's distance from peek_flip's.
ExactObjective and QuadraticObjective implement this interface. The band
sweep and coordinate descent need the per-element channel structure of
ExactObjective.

From TABU_SCREEN_MIN_DIM bits on, tabu screens each move with peek_all: it
skips the flips that are surely tabu without aspiration and those whose lower
bound exceeds the upper bound of a surely eligible flip, neither of which the
scalar rule could choose, and runs that rule on the rest in index order. The
chosen move is therefore always the unscreened one, and evaluations still
counts every flip of every move.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .metrics import QBER_SECURITY_THRESHOLD
from .qubo import ExactObjective, _product
from .ris import levels_to_bits

RNG_ALGORITHM = "numpy-pcg64"
BRUTE_FORCE_MAX_BITS = 24
# below this many bits, tabu's numpy screen costs more than scoring every flip
TABU_SCREEN_MIN_DIM = 64
COOLING_RATE = 0.97            # anneal's temperature factor per sweep


@dataclass(frozen=True)
class SolverConfig:
    kind: str = "exact"                # exact | brute | anneal | tabu | bcd
    seed: int = 0
    max_iters: int = 200               # sweeps (anneal/bcd) or moves (tabu)
    tabu_tenure: int = 8
    restarts: int = 3
    objective: str = "exact"           # exact | quadratic

    def __post_init__(self) -> None:
        if self.tabu_tenure < 1:
            raise ValueError("tabu_tenure must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
    qber: float | None = None
    best_feasible_bits: np.ndarray | None = None   # the fallback, set by enforce_security


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


def _finalize(objective, bits: np.ndarray | None, evaluations: int,
              trace: list[tuple[int, float]]) -> SolverResult:
    """The result at bits, re-scored; bits is None when _Best took no value."""
    if bits is None:             # every value was NaN or +inf, so none compared below inf
        raise ValueError(f"no finite objective value was found in {evaluations} evaluations")
    return SolverResult(best_bits=bits,
                        best_value=objective.value(bits),   # re-score: no stale caching
                        evaluations=evaluations, trace=trace)


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
    return _finalize(objective, best.bits, evaluations, trace)


def _auto_temperature(objective, dim: int, rng: np.random.Generator) -> float:
    probes = rng.integers(0, 2, size=(100, dim), dtype=np.uint8)
    spread = float(objective.batch(probes).std())
    return 10.0 * spread if spread > 0 else 1.0


def simulated_annealing(objective, dim: int, cfg: SolverConfig) -> SolverResult:
    """Metropolis single-flip annealing from _auto_temperature, cooled by
    COOLING_RATE per sweep."""
    rng = np.random.default_rng(cfg.seed)
    best = _Best()
    trace: list[tuple[int, float]] = []
    evaluations = 0
    if dim == 0:
        return brute_force(objective, 0)
    for _ in range(cfg.restarts):
        x0 = rng.integers(0, 2, size=dim, dtype=np.uint8)
        # the probes' batch temporaries are freed before the walk builds its table
        temp = _auto_temperature(objective, dim, rng)
        walk = objective.walk(x0)
        evaluations += 1
        if best.offer(walk.value, walk.x):
            trace.append((evaluations, best.value))
        for _ in range(cfg.max_iters):
            flips = rng.integers(0, dim, size=dim)
            accept_draws = rng.random(dim)
            for i, draw in zip(flips.tolist(), accept_draws.tolist()):
                cand = walk.peek_flip(i)
                evaluations += 1
                delta = cand - walk.value
                if delta <= 0.0 or draw < math.exp(-delta / temp):
                    walk.apply_flip(i)
                    if best.offer(walk.value, walk.x):
                        trace.append((evaluations, best.value))
            temp *= COOLING_RATE
    return _finalize(objective, best.bits, evaluations, trace)


def _tabu_screen(scores: np.ndarray, err: np.ndarray, is_tabu: np.ndarray,
                 best_value: float) -> np.ndarray:
    """Mask of the moves whose scalar scores tabu_search must still take.

    scores and err come from a walk's peek_all: each move's scalar score lies
    in [scores - err, scores + err]. A move is surely eligible when it is not
    tabu or its upper bound is below best_value (aspiration surely applies),
    and may be eligible when it is not tabu or its lower bound is below
    best_value. A move is kept when it may be eligible and its lower bound is
    at most the smallest upper bound among the surely eligible moves. Every
    comparison is written so that NaN keeps the move, or turns the cap off.
    """
    with np.errstate(invalid="ignore"):         # inf - inf: a NaN bound
        lo, hi = scores - err, scores + err
        surely = ~is_tabu | (hi < best_value)
        maybe = ~is_tabu | ~(lo >= best_value)
        cap = hi.min(where=surely, initial=math.inf)
        return maybe & ~(lo > cap)


def tabu_search(objective, dim: int, cfg: SolverConfig) -> SolverResult:
    """Steepest single-flip descent with a recency tabu list and aspiration.

    Runs cfg.restarts independent starts of cfg.max_iters moves each; a move
    is tabu for cfg.tabu_tenure iterations after its variable was last flipped
    unless it improves on the best state ever seen (aspiration). Each move
    takes the first eligible flip of smallest value, or the least recently
    flipped bit when none is eligible, and adds dim to evaluations.

    Screening. From TABU_SCREEN_MIN_DIM bits on, each move first scores every
    flip at once with the walk's peek_all, which bounds each array score's
    distance from peek_flip's, and skips the flips that _tabu_screen
    excludes: those surely tabu without aspiration, which the scalar rule
    would skip, and those whose lower bound exceeds the upper bound of a
    surely eligible flip, which cannot be the smallest. The scalar rule then
    runs, unchanged and in index order, on the flips left, so the chosen
    flip, the fallback and the trace never change. Below that size the
    screen's fixed cost of some 40 numpy calls exceeds scoring every flip.
    """
    rng = np.random.default_rng(cfg.seed)
    best = _Best()
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
        last_flip = np.full(dim, -10**9)
        recent = memoryview(last_flip)        # reads Python ints, without numpy scalars
        for it in range(cfg.max_iters):
            chosen = -1
            chosen_val = math.inf
            evaluations += dim
            if dim < TABU_SCREEN_MIN_DIM:
                candidates = range(dim)
            else:
                scores, err = walk.peek_all()
                candidates = np.flatnonzero(_tabu_screen(
                    scores, err, (it - last_flip) <= cfg.tabu_tenure, best.value)).tolist()
            for i in candidates:
                cand = walk.peek_flip(i)
                tabu = (it - recent[i]) <= cfg.tabu_tenure
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
            if best.offer(walk.value, walk.x):
                trace.append((evaluations, best.value))
    return _finalize(objective, best.bits, evaluations, trace)


def _lex_level_order(bits: int) -> list[int]:
    """Phase levels ordered by the lexicographic order of their bit vectors."""
    return sorted(range(1 << bits), key=lambda l: tuple((l >> k) & 1 for k in range(bits)))


SCREEN_BLOCK = 256       # elements the screen scores per numpy pass


def _unclearable(obj: ExactObjective, cand_q: np.ndarray, cand_c: np.ndarray,
                 cur_q: np.ndarray, cur_c: np.ndarray, tq: complex, tc: complex,
                 value: float) -> np.ndarray:
    """Mask of the block's elements that the screen cannot clear.

    cand_q, cand_c hold the block's candidate contributions as (K, B) arrays
    and cur_q, cur_c its current ones; see block_coordinate_descent.
    """
    with np.errstate(all="ignore"):     # a non-finite result is never cleared
        # complex add and subtract act per component, as in the scalar visit
        eps_terms, log_terms = obj.terms((tq - cur_q) + cand_q, (tc - cur_c) + cand_c)
        mq, mc = eps_terms.min(axis=0), log_terms.min(axis=0)
        slack = obj.screen_bound(value, mq, mc)
        # a clearing test, negated: NaN compares false, so it is never cleared
        return ~(value - (mq + mc) + slack <= 1e-12 * abs(value))


def block_coordinate_descent(objective: ExactObjective, cfg: SolverConfig) -> SolverResult:
    """Element-wise exact descent over all joint per-element phase options.

    Requires the exact objective (needs the per-element channel structure).
    Sweeps elements in index order from the all-zero configuration. The cost
    is a quantum term plus a classical term, so the best of the 2^b_Q * 2^b_C
    joint phase pairs of an element pairs the first strict argmin of its
    2^b_Q quantum terms with that of its 2^b_C classical terms, both in
    _lex_level_order; evaluations still counts every joint pair. Stops when
    a full sweep makes no change or after max_iters sweeps.

    Screening. A visit changes element n only if value - (eq + ec) >
    1e-12 |value|, where eq and ec are its smallest quantum and classical
    terms at the current totals. From the second sweep on (the first, from all
    zeros, changes most elements), the next SCREEN_BLOCK elements are scored
    at once in numpy (ExactObjective.terms) as mq, mc, and the screen clears
    element n when value - (mq + mc) + ExactObjective.screen_bound(value, mq,
    mc) <= 1e-12 |value|. A cleared element is skipped but still adds its
    joint pairs to evaluations; the others get the scalar visit in order. An
    accepted change moves the totals, so screening restarts at the next
    element. Skipping never changes a result: the candidate totals
    (t - cur_n) + u_n phasor[l] come from the same values through complex add
    and subtract, which act per component, so they equal the scalar visit's
    bit for bit, and screen_bound covers the terms' errors, their sum and the
    subtraction from value. So a cleared element is always one whose scalar
    visit would be rejected. NaN, from an infinite or overflowing weight, is
    never cleared.
    """
    if not isinstance(objective, ExactObjective):
        raise TypeError("block coordinate descent needs the exact objective")
    obj = objective
    if obj.dim == 0:
        return brute_force(obj, 0)

    qterm, cterm = obj.quantum_term, obj.classical_term
    order_q, order_c = _lex_level_order(obj.bq), _lex_level_order(obj.bc)
    joint = len(order_q) * len(order_c)
    # per-element candidate contributions, fixed for the whole run, in real
    # ufuncs so that they do not depend on numpy's dispatch; the screen reads
    # them level-major and the contributions in use per element
    cand_q_arr = _product(obj.uq[:, None], obj._phasor_q)
    cand_c_arr = _product(obj.uc[:, None], obj._phasor_c)
    cand_q, cand_c = cand_q_arr.tolist(), cand_c_arr.tolist()
    screen_q, screen_c = cand_q_arr.T.copy(), cand_c_arr.T.copy()
    cur_q, cur_c = cand_q_arr[:, 0].copy(), cand_c_arr[:, 0].copy()

    levels_q, levels_c = [0] * obj.n, [0] * obj.n
    tq = obj.h0q + sum(row[0] for row in cand_q)
    tc = obj.h0c + sum(row[0] for row in cand_c)
    value = qterm(tq) + cterm(tc)
    evaluations = 1
    trace: list[tuple[int, float]] = [(evaluations, value)]

    for sweep in range(cfg.max_iters):
        changed = False
        n = 0                       # elements before n are visited or skipped
        while n < obj.n:
            if sweep:
                hi = min(n + SCREEN_BLOCK, obj.n)
                todo = (n + np.flatnonzero(_unclearable(
                    obj, screen_q[:, n:hi], screen_c[:, n:hi], cur_q[n:hi], cur_c[n:hi],
                    tq, tc, value))).tolist()
            else:
                hi, todo = obj.n, range(n, obj.n)
            for m in todo:
                evaluations += joint * (m - n)          # the skipped elements
                n = m + 1
                row_q, row_c = cand_q[m], cand_c[m]
                lq_cur, lc_cur = levels_q[m], levels_c[m]
                base_tq, base_tc = tq - row_q[lq_cur], tc - row_c[lc_cur]
                eps_terms = [qterm(base_tq + row_q[lq]) for lq in order_q]
                log_terms = [cterm(base_tc + row_c[lc]) for lc in order_c]
                eq, ec = min(eps_terms), min(log_terms)      # min keeps the first of equals
                pick_q, pick_c = order_q[eps_terms.index(eq)], order_c[log_terms.index(ec)]
                pick_val = eq + ec
                evaluations += joint
                # require a real improvement: re-summed totals carry float dust
                if value - pick_val > 1e-12 * abs(value) and (pick_q, pick_c) != (lq_cur, lc_cur):
                    tq, tc = base_tq + row_q[pick_q], base_tc + row_c[pick_c]
                    levels_q[m], levels_c[m] = pick_q, pick_c
                    cur_q[m], cur_c[m] = row_q[pick_q], row_c[pick_c]
                    value = pick_val
                    changed = True
                    trace.append((evaluations, value))
                    if sweep:
                        break               # the totals moved: screen again from m + 1
            else:
                evaluations += joint * (hi - n)
                n = hi
        if not changed:
            break
    return _finalize(obj, levels_to_bits(levels_q, levels_c, obj.cfg), evaluations, trace)


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
    reaches, so its QBER is also the smallest: the result is feasible exactly
    when some assignment is (enforce_security relies on this).
    """
    if not isinstance(objective, ExactObjective):
        raise TypeError("the band sweep needs the exact objective")
    obj = objective
    if obj.dim == 0:
        return brute_force(obj, 0)
    bits = levels_to_bits(_band_levels(obj.h0q, obj.uq, obj._phasor_q),
                          _band_levels(obj.h0c, obj.uc, obj._phasor_c), obj.cfg)
    evaluations = 2 + obj.n * (len(obj._phasor_q) + len(obj._phasor_c))
    return _finalize(obj, bits, evaluations, [(evaluations, obj.value(bits))])


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

    An infeasible winner falls back to the band sweep's optimum, the assignment
    with the lowest cost and QBER (see band_sweep), and keeps its evaluations
    and trace; when the optimum fails too, no assignment is feasible and the
    result is marked infeasible. A fallback's bits are also best_feasible_bits.
    """
    eps = objective.qber_of(result.best_bits)
    if eps > threshold:
        optimum = band_sweep(objective)
        eps_opt = objective.qber_of(optimum.best_bits)
        if eps_opt <= threshold:
            result.best_bits = result.best_feasible_bits = optimum.best_bits
            result.best_value = optimum.best_value
            eps = eps_opt
    result.feasible = eps <= threshold
    result.qber = eps
    return result


def trace_csv_lines(result: SolverResult) -> list[str]:
    """Solver trace as CSV lines (iteration, best_value)."""
    lines = ["iteration,best_value"]
    lines += [f"{it},{val:.17g}" for it, val in result.trace]
    return lines
