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
at the first word that ends on or beyond a wall, and unpacks bit by bit only
the words before that cut that start within 64 units of a wall.

Reproducibility contract: trial ``t`` of a batch with seed ``s`` always draws
from ``trial_rng(s, t)``, so results are bit-identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGridError,
    MaxStepsExceededError,
    NoAlivePairError,
)
from .states import JointState, QuantumState, form_joint

_WALL = 64    # absorption impossible within one word starting > _WALL from a wall


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
    """Winner counts and frequencies over a batch of independent walks."""

    trials: int
    winner_counts: np.ndarray
    frequencies: np.ndarray
    stderr: np.ndarray
    excluded: int = 0

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
    """Winner frequencies over ``trials`` independent walks.

    Each trial runs on its own RNG stream from ``trial_rng(config.seed, t)``
    through a vectorized kernel that is distribution-identical to
    ``run_walk``.  Trials hitting the step cap are excluded from the counts;
    more than 1% exclusions raises MaxStepsExceededError.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    joint = form_joint(state)
    m = config.grid_resolution
    k0 = quantize_weights(joint.weights, m)
    n = k0.size

    def run_range(lo: int, hi: int) -> tuple[np.ndarray, int]:
        counts = np.zeros(n, dtype=np.int64)
        excluded = 0
        for t in range(lo, hi):
            rng = trial_rng(config.seed, t)
            if n == 2:
                winner, _ = _first_passage_two_state(
                    int(k0[0]), m, config.max_steps, rng
                )
            else:
                winner, _, _ = _first_passage_multi(k0, m, config.max_steps, rng)
            if winner < 0:
                excluded += 1
            else:
                counts[winner] += 1
        return counts, excluded

    if workers <= 1:
        counts, excluded = run_range(0, trials)
    else:
        bounds = np.linspace(0, trials, 4 * workers + 1, dtype=int)
        counts = np.zeros(n, dtype=np.int64)
        excluded = 0
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for part, exc in pool.map(
                lambda se: run_range(int(se[0]), int(se[1])),
                zip(bounds[:-1], bounds[1:]),
            ):
                counts += part
                excluded += exc

    if excluded > 0.01 * trials:
        raise MaxStepsExceededError(
            f"{excluded} of {trials} trials hit the step cap (> 1%)"
        )
    counted = trials - excluded
    freq = counts / counted
    stderr = np.sqrt(freq * (1.0 - freq) / counted)
    return BornStatistics(
        trials=counted,
        winner_counts=counts,
        frequencies=freq,
        stderr=stderr,
        excluded=excluded,
    )


def _first_passage_two_state(
    k0: int, m: int, max_steps: int, rng: np.random.Generator
) -> tuple[int, int]:
    """Exact first passage of the unit-step walk on {0..M} starting at k0.

    Returns (winner, steps): winner 0 when absorbed at M, 1 when absorbed
    at 0, -1 when the cap was reached.  Each raw uint64 word of the bit
    generator encodes 64 steps (bit 0 first, 1 = up).  One pass per draw:
    popcounts give every word's end position; the pass is cut at the first
    word that ends on or beyond a wall, where absorption is certain; of the
    words up to the cut, only those starting within 64 units of a wall can
    touch one, and just those are unpacked bit by bit to find the first hit.
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
        ends = np.bitwise_count(words).astype(np.int64)
        ends *= 2
        ends -= 64
        np.cumsum(ends, out=ends)
        ends += pos
        out = (ends <= 0) | (ends >= m)
        cut = int(np.argmax(out)) + 1 if out.any() else n
        starts = np.empty(cut, dtype=np.int64)
        starts[0] = pos
        starts[1:] = ends[: cut - 1]
        rows = np.flatnonzero((starts <= _WALL) | (starts >= m - _WALL))
        if rows.size:
            octets = words[rows].astype("<u8", copy=False).view(np.uint8)
            bits = np.unpackbits(octets, bitorder="little")
            path = bits.reshape(-1, 64).astype(np.int64)
            path *= 2
            path -= 1
            np.cumsum(path, axis=1, out=path)
            path += starts[rows, None]
            hit = (path <= 0) | (path >= m)
            first = int(np.argmax(hit))
            if hit.flat[first]:
                row, bit = divmod(first, 64)
                steps += 64 * int(rows[row]) + bit + 1
                if steps > max_steps:
                    return -1, max_steps
                return (0, steps) if path[row, bit] >= m else (1, steps)
        pos = int(ends[-1])
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
        batch = int(np.clip(k_min * (m - k_min) * n // 4, 64, 1 << 14))
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
