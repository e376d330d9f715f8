"""Monte Carlo first-passage random walk on the weight simplex.

Grid model: weights are quantized to integer multiples of 1/M.  A step picks
an unordered pair of alive states uniformly, then a direction uniformly, and
transfers one grid unit.  The transfer is exactly weight-conserving and each
coordinate is a martingale, so the probability of a state absorbing the full
weight equals its start weight (the multi-state gambler's ruin).  A state
whose weight reaches zero is eliminated permanently; the walk stops when one
state holds all M units (a simplex vertex).

``run_walk`` is the step-by-step reference engine.  ``born_statistics`` runs
large trial batches through distribution-identical vectorized kernels.  In
the two-state kernel each raw uint64 word of the bit generator is 64 steps:
one pass over a draw takes every word's end position from its popcount, cuts
at the first word that ends on or beyond a wall, and keeps only the words
before that cut whose up or down count could carry them to a wall.  Those
few are read byte by byte through 256-entry tables (net move, lowest and
highest point, first step at each distance) to find the first hit.

Reproducibility contract: trial ``t`` of a batch with seed ``s`` always draws
from ``trial_rng(s, t)``.  ``born_statistics`` derives the seeds of a whole
block of trials in one vectorized pass of the same ``SeedSequence`` hash, so
it builds exactly those streams without one ``SeedSequence`` per trial.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import (
    DegenerateGridError,
    MaxStepsExceededError,
    NoAlivePairError,
)
from .states import JointState, QuantumState, form_joint

# numpy's SeedSequence hash (bit_generator.pyx): hashmix and mix constants,
# the 4-word entropy pool, and the pool words hashed into the output state
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_SEED_BLOCK = 1 << 12  # trials whose seed words are derived at a time


def _byte_tables():
    """Per-byte walk tables, bit 0 first, 1 = up.

    net: the byte's net move; low/high: its lowest and highest point relative
    to where the byte ends; down/up[b, d]: the first step (1-8) at which the
    byte has moved d down / d up, else 9 (so column 9 always reads 9).
    """
    bits = np.unpackbits(
        np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
    )
    prefix = np.cumsum(2 * bits.astype(np.int64) - 1, axis=1)
    net = prefix[:, -1]
    dist = np.arange(10)[:, None, None]

    def first(reached):
        steps = np.where(reached.any(axis=2), reached.argmax(axis=2) + 1, 9)
        return np.ascontiguousarray(steps.T)

    return (
        net,
        prefix.min(axis=1) - net,
        prefix.max(axis=1) - net,
        first(prefix == -dist),
        first(prefix == dist),
    )


_BYTE_NET, _BYTE_LOW, _BYTE_HIGH, _BYTE_DOWN, _BYTE_UP = _byte_tables()


@dataclass(frozen=True)
class WalkConfig:
    """Grid resolution M, safety cap on steps, and the base RNG seed.

    max_steps defaults to 100 * M**2, far beyond the diffusive exit-time
    scale, so cap hits signal pathology rather than slow luck.
    """

    grid_resolution: int = 1000
    max_steps: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be >= 2")
        if self.max_steps is None:
            object.__setattr__(self, "max_steps", 100 * self.grid_resolution**2)
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class WalkOutcome:
    """Result of one walk: winning state, step count, elimination history."""

    winner: int
    steps_taken: int
    elimination_order: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if any(state == self.winner for state, _ in self.elimination_order):
            raise ValueError("winner cannot appear in the elimination order")


@dataclass(frozen=True)
class BornStatistics:
    """Winner counts and frequencies over a batch of independent walks.

    ``mean_steps`` and ``steps_stderr`` describe the absorption times of the
    counted trials; ``expected_steps`` is their exact mean
    (M^2 - sum k_i^2) / 2, by optional stopping of the martingale
    sum k_i^2 - 2t.
    """

    trials: int
    winner_counts: np.ndarray
    frequencies: np.ndarray
    stderr: np.ndarray
    excluded: int = 0
    mean_steps: float = math.nan
    steps_stderr: float = math.nan
    expected_steps: float = math.nan

    def __post_init__(self):
        counts = np.asarray(self.winner_counts, dtype=np.int64)
        object.__setattr__(self, "winner_counts", counts)
        object.__setattr__(self, "frequencies", np.asarray(self.frequencies, float))
        object.__setattr__(self, "stderr", np.asarray(self.stderr, float))
        if counts.sum() != self.trials:
            raise ValueError("winner counts must sum to the trial count")


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent, order-free RNG stream for trial ``index`` under ``seed``."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    )


def _hashmix(value, const, mult=_MULT_A):
    """SeedSequence's hashmix on uint32 words: (hashed value, next const).

    With ``mult=_MULT_B`` it is the step that turns pool words into state.
    """
    const_next = const * mult & _M32
    value = (value ^ const) * const_next & _M32
    return value ^ value >> 16, const_next


def _mix(x, y):
    mixed = (_MIX_L * x - _MIX_R * y) & _M32
    return mixed ^ mixed >> 16


def _trial_seed_words(seed: int, lo: int, hi: int) -> np.ndarray:
    """``trial_rng(seed, t)``'s PCG64 seed words for ``lo <= t < hi``.

    Row ``t - lo`` equals ``SeedSequence(entropy=seed, spawn_key=(t,))
    .generate_state(4, np.uint64)`` for any seed below 2**128 (WalkConfig
    holds seeds below 2**64).  The seed's words, padded with zeros to the
    pool size, make a pool common to every trial; each trial's one or two
    spawn-key words (two for t >= 2**32) are then mixed into its copy of the
    pool, all trials at once in uint32 arithmetic.
    """
    # the little-endian uint32 words SeedSequence reads from an int
    run = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    if len(run) > _POOL:
        raise ValueError("seed must be below 2**128")
    const = _INIT_A
    pool = []
    for word in run + [0] * (_POOL - len(run)):
        word, const = _hashmix(word, const)
        pool.append(word)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                word, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], word)
    index = np.arange(lo, hi, dtype=np.uint64)
    pool = [np.full(index.size, word, dtype=np.uint32) for word in pool]
    low = (index & _M32).astype(np.uint32)
    for dst in range(_POOL):
        word, const = _hashmix(low, const)
        pool[dst] = _mix(pool[dst], word)
    wide = np.flatnonzero(index >> 32)
    if wide.size:
        high = (index[wide] >> 32).astype(np.uint32)
        for dst in range(_POOL):
            word, const = _hashmix(high, const)
            pool[dst][wide] = _mix(pool[dst][wide], word)
    state = np.empty((index.size, 2 * _POOL), dtype="<u4")
    const = _INIT_B
    for i in range(2 * _POOL):
        state[:, i], const = _hashmix(pool[i % _POOL], const, _MULT_B)
    return state.view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """Seed source for one PCG64 (which asks for 4 uint64 words), holding
    words that ``_trial_seed_words`` already computed."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _trial_rngs(seed: int, trials: int):
    """``trial_rng(seed, t)`` for ``t`` in ``range(trials)``, in order."""
    for lo in range(0, trials, _SEED_BLOCK):
        for words in _trial_seed_words(seed, lo, min(lo + _SEED_BLOCK, trials)):
            yield np.random.Generator(np.random.PCG64(_SeedWords(words)))


def quantize_weights(weights, grid_resolution: int) -> np.ndarray:
    """Round simplex weights to integer grid counts summing to M.

    Largest-remainder rounding minimizes sum |k_i - M w_i|; ties go to the
    lowest index.  Raises DegenerateGridError when a positive weight lands
    on zero and M < 10 N (the caller should raise M).
    """
    w = np.asarray(weights, dtype=float)
    m = int(grid_resolution)
    if m < 2:
        raise ValueError("grid resolution must be >= 2")
    if w.ndim != 1 or w.size < 2:
        raise ValueError("need a weight vector with at least 2 entries")
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("weights must be nonnegative and sum to 1")
    target = m * w
    base = np.floor(target).astype(np.int64)
    deficit = m - int(base.sum())
    if deficit > 0:
        order = np.argsort(-(target - base), kind="stable")
        base[order[:deficit]] += 1
    if np.any((w > 0) & (base == 0)) and m < 10 * w.size:
        raise DegenerateGridError(
            f"positive weight quantized to zero at M={m}; raise the resolution"
        )
    return base


def walk_step(grid_weights, alive, rng) -> tuple[np.ndarray, np.ndarray]:
    """One unbiased transfer of a single grid unit between two alive states.

    Drawing an ordered (source, destination) pair uniformly is identical in
    distribution to drawing an unordered pair and then a direction.  Returns
    fresh (grid_weights, alive) arrays; a state whose weight hits zero has
    its alive flag cleared permanently.
    """
    k = np.array(grid_weights, dtype=np.int64)
    al = np.array(alive, dtype=bool)
    idx = np.flatnonzero(al)
    if idx.size < 2:
        raise NoAlivePairError("need at least 2 alive states to step")
    a = int(rng.integers(idx.size))
    b = int(rng.integers(idx.size - 1))
    if b >= a:
        b += 1
    src, dst = int(idx[a]), int(idx[b])
    if k[src] <= 0:
        raise ValueError("alive state carries no weight; inconsistent input")
    k[src] -= 1
    k[dst] += 1
    if k[src] == 0:
        al[src] = False
    return k, al


def update_cross_terms(
    joint: JointState, weights=None, alive=None
) -> JointState:
    """Re-sync spectator cross terms to the current weights.

    For alive pairs |kappa_ij| becomes sqrt(w_i w_j) with the phase carried
    over from the input cross matrix; rows and columns of dead states are
    zeroed for good.  With ``weights`` given and ``alive`` omitted, states
    whose new weight is zero are treated as freshly eliminated.
    """
    w = joint.weights if weights is None else np.asarray(weights, dtype=float)
    if alive is not None:
        al = np.asarray(alive, dtype=bool)
    elif weights is not None:
        al = joint.alive & (w > 0)
    else:
        al = joint.alive
    mag = np.abs(joint.cross)
    safe = np.where(mag > 0, mag, 1.0)
    unit = np.where(mag > 0, joint.cross / safe, 0.0)
    kappa = unit * np.sqrt(np.outer(w, w))
    kappa[~al, :] = 0.0
    kappa[:, ~al] = 0.0
    np.fill_diagonal(kappa, 0.0)
    return JointState(weights=np.where(al, w, 0.0), cross=kappa, alive=al)


def run_walk(
    joint: JointState,
    config: WalkConfig,
    rng: np.random.Generator | None = None,
    observer=None,
) -> WalkOutcome:
    """Walk the quantized weights until one state holds everything.

    Reference engine: repeats ``walk_step`` and keeps the cross-term
    bookkeeping in lockstep.  ``observer(step, joint_state)`` is invoked
    after quantization (step 0) and after every step when provided.
    Raises MaxStepsExceededError at the safety cap.
    """
    m = config.grid_resolution
    k = quantize_weights(joint.weights, m)
    alive = k > 0
    eliminations = [(int(i), 0) for i in np.flatnonzero(~alive)]

    def snapshot(step):
        if observer is None:
            return
        observer(step, update_cross_terms(joint, weights=k / m, alive=alive))

    snapshot(0)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    steps = 0
    while int(alive.sum()) > 1:
        if steps >= config.max_steps:
            raise MaxStepsExceededError(
                f"walk not absorbed after {config.max_steps} steps"
            )
        before = alive.copy()
        k, alive = walk_step(k, alive, rng)
        steps += 1
        died = np.flatnonzero(before & ~alive)
        for state in died:
            eliminations.append((int(state), steps))
        snapshot(steps)
    winner = int(np.flatnonzero(alive)[0])
    return WalkOutcome(
        winner=winner,
        steps_taken=steps,
        elimination_order=tuple(eliminations),
    )


def born_statistics(
    state: QuantumState,
    trials: int,
    config: WalkConfig,
    workers: int = 1,
) -> BornStatistics:
    """Winner frequencies and absorption times over ``trials`` walks.

    Trial ``t`` runs on the stream ``trial_rng(config.seed, t)``, seeded in
    blocks by ``_trial_rngs``, through a vectorized kernel that is
    distribution-identical to ``run_walk``.  Trials hitting the step cap are
    excluded from the counts; more than 1% exclusions raises
    MaxStepsExceededError.  ``workers`` is deprecated and ignored: the
    trials run in one thread, and the result never depended on it.
    """
    if workers > 1:
        warnings.warn(
            "born_statistics(workers=...) is deprecated and ignored; "
            "trials run in one thread with the same results",
            DeprecationWarning,
            stacklevel=2,
        )
    if trials < 1:
        raise ValueError("trials must be >= 1")
    joint = form_joint(state)
    m = config.grid_resolution
    k0 = quantize_weights(joint.weights, m)
    n = k0.size
    counts = np.zeros(n, dtype=np.int64)
    total = total_sq = 0
    for rng in _trial_rngs(config.seed, trials):
        if n == 2:
            winner, steps = _first_passage_two_state(
                int(k0[0]), m, config.max_steps, rng
            )
        else:
            winner, steps, _ = _first_passage_multi(k0, m, config.max_steps, rng)
        if winner >= 0:
            counts[winner] += 1
            total += steps
            total_sq += steps * steps
    counted = int(counts.sum())
    excluded = trials - counted
    if excluded > 0.01 * trials:
        raise MaxStepsExceededError(
            f"{excluded} of {trials} trials hit the step cap (> 1%)"
        )
    freq = counts / counted
    stderr = np.sqrt(freq * (1.0 - freq) / counted)
    if counted > 1:
        var = (counted * total_sq - total * total) / (counted * (counted - 1))
        steps_stderr = math.sqrt(var / counted)
    else:
        steps_stderr = math.nan
    return BornStatistics(
        trials=counted,
        winner_counts=counts,
        frequencies=freq,
        stderr=stderr,
        excluded=excluded,
        mean_steps=total / counted,
        steps_stderr=steps_stderr,
        expected_steps=(m * m - int((k0 * k0).sum())) / 2,
    )


def _first_passage_two_state(
    k0: int, m: int, max_steps: int, rng: np.random.Generator
) -> tuple[int, int]:
    """Exact first passage of the unit-step walk on {0..M} starting at k0.

    Returns (winner, steps): winner 0 when absorbed at M, 1 when absorbed
    at 0, -1 when the cap was reached.  Each raw uint64 word of the bit
    generator encodes 64 steps (bit 0 first, 1 = up).  One pass per draw:
    popcounts give every word's end position; the pass is cut at the first
    word that ends on or beyond a wall, where absorption is certain.  A word
    starting at s can reach 0 only if it has s down-steps (s + popcount <=
    64) and M only if it has M - s up-steps (s + popcount >= M); only those
    words are read, byte by byte through the ``_BYTE_*`` tables, and the
    first byte whose lowest or highest point touches a wall gives the exact
    step of absorption.
    """
    pos = int(k0)
    if pos <= 0:
        return 1, 0
    if pos >= m:
        return 0, 0
    steps = 0
    while steps < max_steps:
        n = min(1 << 15, max(32, (pos * (m - pos)) // 40 + 32))
        words = rng.bit_generator.random_raw(n)
        # g_i = h_i - base, where pos + 2 h_i is the position after word i:
        # that word ends strictly inside (0, m) exactly when 0 <= g_i <= span
        base = (-pos) // 2 + 1
        span = (m - pos + 1) // 2 - 1 - base
        g = np.subtract(np.bitwise_count(words), 32, dtype=np.int64)
        g[0] -= base
        np.cumsum(g, out=g)
        out = g.view(np.uint64) > span
        cut = int(np.argmax(out)) + 1
        if cut == 1 and not out[0]:
            cut = n
        # word i starts at pos + 2 h_{i-1} with 32 + h_i - h_{i-1} up-steps,
        # so it can touch a wall only if h_{i-1} + h_i <= 32 - pos or
        # >= m - 32 - pos; shifted, the pair falls in [0, m - 66] otherwise
        pair = np.empty(cut, dtype=np.int64)
        pair[0] = g[0] - base
        np.add(g[: cut - 1], g[1:cut], out=pair[1:])
        pair -= 33 - pos - 2 * base
        rows = np.flatnonzero(pair.view(np.uint64) >= max(m - 65, 0))
        if rows.size:
            octets = words[rows].astype("<u8", copy=False).view(np.uint8)
            # byte ends of the candidate words, flat: the first byte of each
            # word also jumps from the previous candidate's end to its start
            before = g.take(rows - 1)
            if rows[0] == 0:
                before[0] = -base
            jump = before.copy()
            jump[1:] -= g.take(rows[:-1])
            jump *= 2
            jump[0] += pos + 2 * base
            ends = _BYTE_NET.take(octets)
            ends[::8] += jump
            np.cumsum(ends, out=ends)
            touch = (ends + _BYTE_LOW.take(octets) <= 0) | (
                ends + _BYTE_HIGH.take(octets) >= m
            )
            first = int(np.argmax(touch))
            if touch[first]:
                octet = int(octets[first])
                start = int(ends[first]) - int(_BYTE_NET[octet])
                down = int(_BYTE_DOWN[octet, min(start, 9)])
                up = int(_BYTE_UP[octet, min(m - start, 9)])
                row, byte = divmod(first, 8)
                steps += 64 * int(rows[row]) + 8 * byte + min(down, up)
                if steps > max_steps:
                    return -1, max_steps
                return (0, steps) if up < down else (1, steps)
        pos += 2 * (int(g[-1]) + base)
        steps += 64 * n
    return -1, max_steps


def _first_passage_multi(
    k0: np.ndarray, m: int, max_steps: int, rng: np.random.Generator
) -> tuple[int, int, list[tuple[int, int]]]:
    """First passage to a simplex vertex for N >= 3 quantized weights.

    Batched pair-transfer events with exact in-batch elimination detection;
    drops to the two-state kernel once only two states remain.  Returns
    (winner, steps, eliminations) with winner -1 on a cap hit.
    """
    k = np.array(k0, dtype=np.int64)
    alive_idx = np.flatnonzero(k > 0)
    eliminations = [(int(i), 0) for i in np.flatnonzero(k == 0)]
    steps = 0
    while alive_idx.size > 2 and steps < max_steps:
        n = alive_idx.size
        # diffusive guess for the time to the next elimination
        k_min = int(k[alive_idx].min())
        batch = min(max(k_min * (m - k_min) * n // 4, 64), 1 << 14)
        hit_row = -1
        while hit_row < 0 and steps < max_steps:
            # uniform ordered (source, destination) pairs, as in walk_step
            src = rng.integers(n, size=batch)
            dst = rng.integers(n - 1, size=batch)
            dst += dst >= src
            # moved[i, t]: net units state i has gained after step t
            moved = np.zeros((n, batch), dtype=np.int32)
            cols = np.arange(batch)
            moved[src, cols] = -1
            moved[dst, cols] = 1
            np.cumsum(moved, axis=1, out=moved)
            dead_mask = moved == -k[alive_idx, None]
            any_dead = dead_mask.any(axis=0)
            r = int(np.argmax(any_dead))
            if any_dead[r]:
                hit_row = r
                steps += r + 1
                local = int(np.argmax(dead_mask[:, r]))
                k[alive_idx] += moved[:, r]
                eliminations.append((int(alive_idx[local]), steps))
                alive_idx = np.delete(alive_idx, local)
            else:
                k[alive_idx] += moved[:, -1]
                steps += batch
                batch = min(batch * 2, 1 << 14)
    if alive_idx.size == 1:
        return int(alive_idx[0]), steps, eliminations
    if steps >= max_steps:
        return -1, max_steps, eliminations
    i, j = int(alive_idx[0]), int(alive_idx[1])
    winner01, tail = _first_passage_two_state(
        int(k[i]), m, max_steps - steps, rng
    )
    if winner01 < 0:
        return -1, max_steps, eliminations
    steps += tail
    winner, loser = (i, j) if winner01 == 0 else (j, i)
    eliminations.append((loser, steps))
    return winner, steps, eliminations
