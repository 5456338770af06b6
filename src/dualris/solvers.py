"""Binary objective minimizers: exact band sweep, brute force, annealing, tabu,
coordinate descent.

Every solver is bit-reproducible given (seed, config, objective), and the
returned best value is re-scored from scratch so no incremental cache can go
stale. The heuristics and brute force resolve ties toward the
lexicographically smallest bit vector; the band sweep has its own documented
tie rule. The RNG is numpy's PCG64; the CSV metadata records its name,
RNG_ALGORITHM, so runs replay across platforms.

Annealing and tabu take any objective with dim, value(x) and walk(x), and
brute force one with batch(xs) over rows; a walk holds x and value and offers
peek_flip(i), apply_flip(i), peek_all(), which returns an array score for
every flip and a bound on each score's distance from peek_flip's, and
anneal_sweep(...), one whole Metropolis sweep (simulated_annealing).
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

from .channels import TWO_PI
from .metrics import QBER_SECURITY_THRESHOLD
from .qubo import ExactObjective, _product
from .ris import levels_to_bits

RNG_ALGORITHM = "numpy-pcg64"
BRUTE_FORCE_MAX_BITS = 24
# rows per brute-force batch: the one bound on the (rows, N) temporaries of
# ExactObjective.batch; QuadraticObjective.batch chunks its pairs as well
BRUTE_FORCE_ROWS = 1 << 12
# below this many bits, tabu's numpy screen costs more than scoring every flip
TABU_SCREEN_MIN_DIM = 64
# anneal's last temperature over its first: every restart cools geometrically
# over its max_iters * dim proposed flips to this fraction of its start
ANNEAL_END_RATIO = 1e-7


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
    """Running best-so-far with lexicographic tie-breaking.

    A walk's anneal_sweep may set value alone on a new best and copy the bits
    later: before an accepted flip leaves that state for one that is not
    better, a tie included, and at the end of the sweep. The bits are those
    offer would have copied.
    """

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


def _enumerate_bits(dim: int):
    """Yield bit matrices of BRUTE_FORCE_ROWS rows in lexicographic bit-vector order."""
    shifts = np.arange(dim - 1, -1, -1, dtype=np.uint32)  # x_0 is most significant
    total = 1 << dim
    for start in range(0, total, BRUTE_FORCE_ROWS):
        codes = np.arange(start, min(start + BRUTE_FORCE_ROWS, total), dtype=np.uint32)
        yield ((codes[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def brute_force(objective, dim: int) -> SolverResult:
    """Exhaustive minimum over all 2^dim bit vectors (oracle for small instances).

    The vectors are scored BRUTE_FORCE_ROWS at a time, and the trace gains an
    entry after each batch that improves the best value.
    """
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
    for bits in _enumerate_bits(dim):
        vals = objective.batch(bits)
        evaluations += len(vals)
        k = int(np.argmin(vals))      # first minimum = lexicographically smallest
        if best.offer(float(vals[k]), bits[k]):
            trace.append((evaluations, best.value))
    return _finalize(objective, best.bits, evaluations, trace)


def _start_temperature(walk) -> float:
    """10 times the spread (standard deviation) of the walk's dim single-flip
    changes, from peek_all; 1.0 where that spread is not > 0 (0 or NaN)."""
    spread = float((walk.peek_all()[0] - walk.value).std())
    return 10.0 * spread if spread > 0 else 1.0


def simulated_annealing(objective, dim: int, cfg: SolverConfig) -> SolverResult:
    """Metropolis single-flip annealing from _start_temperature.

    Each restart starts at the scale of the flips it will propose, 10 times
    the spread of the single-flip changes at its random start, with no draw
    of its own. It proposes max_iters sweeps of dim random flips and multiplies
    the temperature by ANNEAL_END_RATIO^(1 / (max_iters dim)) after every
    proposed flip, so it ends at ANNEAL_END_RATIO of its start whatever the
    budget. A walk runs each sweep in one anneal_sweep call, which proposes
    the flips in order, accepts flip i when its change delta <= 0 or its
    draw < exp(-delta / temp), and offers each accepted state to best. Zero
    sweeps return the best random start.
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
        temp = _start_temperature(walk)
        evaluations += 1
        if best.offer(walk.value, walk.x):
            trace.append((evaluations, best.value))
        factor = ANNEAL_END_RATIO ** (1.0 / (cfg.max_iters * dim)) if cfg.max_iters else 1.0
        for _ in range(cfg.max_iters):
            flips = rng.integers(0, dim, size=dim)
            accept_draws = rng.random(dim)
            temp, evaluations = walk.anneal_sweep(flips.tolist(), accept_draws.tolist(),
                                                  temp, factor, best, trace, evaluations)
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


SCREEN_BLOCK = 256       # elements a first-sweep block or the screen scores per numpy pass


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


def _verified_prefix(obj: ExactObjective, cand_q: np.ndarray, cand_c: np.ndarray,
                     hint_q: np.ndarray, hint_c: np.ndarray, tq: complex, tc: complex,
                     value: float):
    """The longest prefix of a block's element visits that a guess reproduces.

    cand_q, cand_c hold the block's candidate contributions as (K, B) arrays
    with their rows in _lex_level_order, and every element of the block sits
    at level 0, row 0, as in the first sweep; see block_coordinate_descent.
    The guessed rows are hint_q, hint_c for the block's first elements, and
    per band the row whose contribution points most along the total without
    the element's own for the rest. Returns the prefix length p, the offsets
    of the elements that the prefix changes, their new rows and values, the
    totals and value after the prefix, and the rows decided after p, which
    hint the next block.
    """
    cur_q, cur_c = cand_q[0], cand_c[0]
    with np.errstate(all="ignore"):     # a non-finite result is never accepted
        guess = []
        for t, cand, cur, hint in ((tq, cand_q, cur_q, hint_q), (tc, cand_c, cur_c, hint_c)):
            base = t - cur
            rows = np.argmax(base.real * cand.real + base.imag * cand.imag, axis=0)
            rows[:hint.size] = hint
            guess.append(rows)
        guess_q, guess_c = guess
        moves = (guess_q != 0) | (guess_c != 0)
        moved = np.flatnonzero(moves)
        before = np.cumsum(moves) - moves         # guessed changes before each element
        # the totals after each guessed change, built as the visits build
        # them: t - old, then + new; a no-change adds nothing, not even 0
        after = []
        for t, cand, cur, rows in ((tq, cand_q, cur_q, guess_q), (tc, cand_c, cur_c, guess_c)):
            steps = np.empty(1 + 2 * moved.size, complex)
            steps[0] = t
            steps[1::2] = -cur[moved]
            steps[2::2] = cand[rows[moved], moved]
            after.append(np.add.accumulate(steps)[::2])
        pre_q, pre_c = after[0][before], after[1][before]
        # each element's visit at those totals, scored as the scalar visit
        eps_terms, log_terms = obj.exact_terms((pre_q - cur_q) + cand_q,
                                               (pre_c - cur_c) + cand_c)
        pick_q, pick_c = np.argmin(eps_terms, axis=0), np.argmin(log_terms, axis=0)
        cols = np.arange(pick_q.size)
        pick = eps_terms[pick_q, cols] + log_terms[pick_c, cols]
        values = np.concatenate(([value], pick[moved]))
        run = values[before]                      # the value before each element
        change = (run - pick > 1e-12 * np.abs(run)) & ((pick_q != 0) | (pick_c != 0))
        done_q, done_c = pick_q * change, pick_c * change
        # argmin takes the first NaN, so a NaN term, or a non-finite total,
        # makes pick non-finite; within the prefix, run is a finite pick too
        match = (done_q == guess_q) & (done_c == guess_c) & np.isfinite(pick)
    p = int(np.argmin(match)) if not match.all() else match.size
    k = int(np.searchsorted(moved, p))            # the guessed changes in the prefix
    return (p, moved[:k], guess_q[moved[:k]], guess_c[moved[:k]], pick[moved[:k]],
            complex(after[0][k]), complex(after[1][k]), float(values[k]),
            done_q[p + 1:], done_c[p + 1:])


def block_coordinate_descent(objective: ExactObjective, cfg: SolverConfig) -> SolverResult:
    """Element-wise exact descent over all joint per-element phase options.

    Requires the exact objective (needs the per-element channel structure).
    Sweeps elements in index order from the all-zero configuration. The cost
    is a quantum term plus a classical term, so the best of the 2^b_Q * 2^b_C
    joint phase pairs of an element pairs the first strict argmin of its
    2^b_Q quantum terms with that of its 2^b_C classical terms. Stops when a
    full sweep makes no change or after max_iters sweeps. Evaluations count
    by position: each element of each sweep started costs its joint pairs,
    whether it is visited, screened, accepted in a prefix or skipped, so the
    count once element m of sweep s (both from 0) is done is
    1 + joint (s N + m + 1), and the final count is 1 + joint N sweeps.

    One (K, N) table per band holds the candidates: row r, column n is
    u_n phasor[l] at the r-th level l of _lex_level_order, so row 0 is level
    0 and the first argmin over rows is the lexicographic one. Each element
    keeps its current row and contribution cur_n; levels are read from the
    rows at the end. A visit scores column n at the totals (t - cur_n) +
    table[r, n] and changes n only if value - (eq + ec) > 1e-12 |value|, eq
    and ec being its smallest terms, and their rows are new. When value is
    +-inf or NaN, value - (eq + ec) is +-inf or NaN and never exceeds
    1e-12 |value|, so a sweep ends once the value is not finite. Numpy
    scores SCREEN_BLOCK elements at once; each sweep's result, evaluations
    and trace equal those of scalar visits in order, bit for bit.

    First sweep: guess, verify, accept a prefix. From all zeros most elements
    change, so _verified_prefix guesses each element's rows: the decisions
    that the previous block scored for it, else per band the row that
    maximizes Re(conj(t - cur_n) table[r, n]). One np.add.accumulate per
    band over the guessed changes alone, each as t - old, then + new, gives
    the totals that the scalar visits would hold before each element, if
    every earlier guess is right. Complex add and subtract act per component
    and accumulate adds in order, so these totals equal the scalar visits'
    bit for bit; adding + 0 for an unchanged element would not, as -0.0 + 0
    is +0.0. ExactObjective.exact_terms scores the table at those totals as
    quantum_term and classical_term do, and the first argmin and the 1e-12
    test give each element's decision. The block accepts the longest prefix
    whose decisions equal the guesses and whose values are finite; the
    element that ends it has an exact pre-state and gets the scalar visit.

    Later sweeps: screen. The screen scores the next SCREEN_BLOCK columns
    with ExactObjective.terms as mq, mc, and clears element n when value -
    (mq + mc) + ExactObjective.screen_bound(value, mq, mc) <= 1e-12 |value|.
    A cleared element is skipped; the others get the scalar visit in order,
    and an accepted change moves the totals, so screening restarts at the
    next element. The screen's candidate totals
    come from the same table through complex add and subtract, so they equal
    the scalar visit's bit for bit, and screen_bound covers the terms'
    errors, their sum and the subtraction from value: a cleared element's
    scalar visit would be rejected. NaN is never cleared.
    """
    if not isinstance(objective, ExactObjective):
        raise TypeError("block coordinate descent needs the exact objective")
    obj = objective
    if obj.dim == 0:
        return brute_force(obj, 0)

    qterm, cterm = obj.quantum_term, obj.classical_term
    lex_q, lex_c = np.array(_lex_level_order(obj.bq)), np.array(_lex_level_order(obj.bc))
    joint = lex_q.size * lex_c.size
    # fixed for the whole run, in real ufuncs so that they do not depend on
    # numpy's dispatch
    table_q, table_c = (_product(u, phasor[lex, None])
                        for (_, u, phasor), lex in zip(obj.bands, (lex_q, lex_c)))
    rows_q, rows_c = np.zeros(obj.n, int), np.zeros(obj.n, int)
    cur_q, cur_c = table_q[0].copy(), table_c[0].copy()

    tq = obj.h0q + sum(table_q[0].tolist())
    tc = obj.h0c + sum(table_c[0].tolist())
    value = qterm(tq) + cterm(tc)
    trace: list[tuple[int, float]] = [(1, value)]
    hint = (np.zeros(0, int), np.zeros(0, int))     # the first sweep's guesses

    sweeps = 0
    for sweep in range(cfg.max_iters):
        sweeps = sweep + 1
        before = 1 + joint * obj.n * sweep      # the count before element 0 of this sweep
        changed = False
        n = 0                       # elements before n are visited or skipped
        while n < obj.n:
            if not math.isfinite(value):            # no visit can change an element
                break
            hi = min(n + SCREEN_BLOCK, obj.n)
            if sweep:
                todo = (n + np.flatnonzero(_unclearable(
                    obj, table_q[:, n:hi], table_c[:, n:hi], cur_q[n:hi], cur_c[n:hi],
                    tq, tc, value))).tolist()
            else:
                p, moved, new_q, new_c, vals, tq, tc, value, *hint = _verified_prefix(
                    obj, table_q[:, n:hi], table_c[:, n:hi], *hint, tq, tc, value)
                moved = n + moved
                trace += zip((before + joint * (moved + 1)).tolist(), vals.tolist())
                rows_q[moved], rows_c[moved] = new_q, new_c
                cur_q[moved], cur_c[moved] = table_q[new_q, moved], table_c[new_c, moved]
                changed = changed or moved.size > 0
                n += p
                hi = min(n + 1, hi)             # the element that ended the prefix, if any
                todo = range(n, hi)
            for m in todo:
                n = m + 1
                col_q, col_c = table_q[:, m].tolist(), table_c[:, m].tolist()
                row_q, row_c = int(rows_q[m]), int(rows_c[m])
                base_tq, base_tc = tq - col_q[row_q], tc - col_c[row_c]
                eps_terms = [qterm(base_tq + c) for c in col_q]
                log_terms = [cterm(base_tc + c) for c in col_c]
                eq, ec = min(eps_terms), min(log_terms)      # min keeps the first of equals
                pick_q, pick_c = eps_terms.index(eq), log_terms.index(ec)
                # require a real improvement: re-summed totals carry float dust
                if value - (eq + ec) > 1e-12 * abs(value) and (pick_q, pick_c) != (row_q, row_c):
                    tq, tc = base_tq + col_q[pick_q], base_tc + col_c[pick_c]
                    rows_q[m], rows_c[m] = pick_q, pick_c
                    cur_q[m], cur_c[m] = col_q[pick_q], col_c[pick_c]
                    value = eq + ec
                    changed = True
                    trace.append((before + joint * n, value))
                    break           # the totals moved: the next screen or block starts at m + 1
            else:
                n = hi
        if not changed:
            break
    return _finalize(obj, levels_to_bits(lex_q[rows_q], lex_c[rows_c], obj.cfg),
                     1 + joint * obj.n * sweeps, trace)


def band_levels(h0: complex, u: np.ndarray, phasor: np.ndarray) -> np.ndarray:
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

    The breakpoints equal np.mod(angle, 2 pi) bit for bit: the unwrapped
    angles lie in (-pi, 3 pi), where x - 2 pi is exact (Sterbenz) and x + 2 pi
    rounds as np.mod's fmod-then-add does. numpy's default argsort is tried
    first; when its sorted angles strictly increase it is the one permutation
    that sorts them, the stable one included, and on a tie or a NaN the stable
    argsort decides.
    """
    k = len(phasor)
    step = TWO_PI / k
    breaks = np.angle(u)[:, None] + step * (np.arange(k) + 0.5)
    breaks -= TWO_PI * (breaks >= TWO_PI)
    breaks += TWO_PI * (breaks < 0.0)
    # each element's earliest breakpoint moves it off the level it starts on
    start = np.argmin(breaks, axis=1)
    flat = breaks.ravel()
    order = np.argsort(flat)
    ordered = flat[order]
    if not (ordered[1:] > ordered[:-1]).all():
        order = np.argsort(flat, kind="stable")
    elem, lev = np.divmod(order, k)
    # per unit cascade, what a step from level l to l + 1 (mod K) adds to the total
    advance = phasor[(np.arange(k) + 1) % k] - phasor
    totals = np.empty(elem.size + 1, dtype=complex)
    totals[0] = h0 + (u * phasor[start]).sum()
    totals[1:] = totals[0] + np.cumsum(u[elem] * advance[lev])
    first_best = int(np.argmax(np.abs(totals)))
    return (start + np.bincount(elem[:first_best], minlength=u.size)) % k


def band_sweep(objective: ExactObjective) -> SolverResult:
    """Exact minimum by one breakpoint sweep per band.

    The cost alpha * QBER(|T_Q|) - beta * log2(1 + kappa |T_C|^2) has one term
    per band, and with alpha, beta >= 0 each term is non-increasing in its
    band's |T|, so maximizing |T_Q| and |T_C| separately (band_levels, with
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
    bits = levels_to_bits(*(band_levels(*band) for band in obj.bands), obj.cfg)
    evaluations = 2 + obj.n * sum(len(phasor) for _, _, phasor in obj.bands)
    result = _finalize(obj, bits, evaluations, [])
    result.trace.append((evaluations, result.best_value))
    return result


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
