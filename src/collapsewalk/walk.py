"""Monte Carlo first-passage random walk on the weight simplex.

Grid model: weights are quantized to integer multiples of 1/M.  A step picks
an unordered pair of alive states uniformly, then a direction uniformly, and
transfers one grid unit.  The transfer is exactly weight-conserving and each
coordinate is a martingale, so the probability of a state absorbing the full
weight equals its start weight (the multi-state gambler's ruin).  A state
whose weight reaches zero is eliminated permanently; the walk stops when one
state holds all M units (a simplex vertex).

``run_walk`` and the ``walk`` command share one engine, ``_walk_counts``:
over the n alive states in index order, a step draws ``a = rng.integers(n)``,
then ``b = rng.integers(n - 1)`` shifted past ``a``, and moves one unit from
the a-th to the b-th.  The engine draws runs of steps, each in one
``integers`` call that reads the stream as those scalar draws do, and hands
the count rows, step 0 included, over in blocks; ``run_walk`` turns each
block into its observer's snapshots through ``states._synced_joints``, and
the command writes ``k_i / M`` from them.  ``born_statistics`` runs
large trial batches through distribution-identical vectorized kernels.  In
the two-state kernel each raw uint64 word of the bit generator is 64 steps:
one pass over a draw takes every word's end position from its popcount, cuts
at the first word that ends on or beyond a wall, and keeps only the words
before that cut whose up or down count could carry them to a wall.  Those
few are read byte by byte through 256-entry tables (net move, lowest and
highest point, first step at each distance) to find the first hit.  A block
of two-state walks runs in rounds of one draw each: rows that share a block
of ``_TAIL_BYTES`` of drawn words take that pass together, one row per
trial, and a row alone in its block (every row at M = 1000) takes it on its
own.  A row that outlives its draw goes on in the next round.

With N >= 3 states the walk runs in batches of steps until two states are
left.  Every state owns a 16-bit lane of a uint64 word, and a lane's top
bit marks the step where its state dies.  A batch is drawn whole, as the
stream fixes, but read only up to its first elimination: a table lookup of
each step's packed move and a cumsum run over its first third, then over
the rest only if no state died in the first.  Every trial of a block starts
at the same counts, so with exactly three alive states ``born_statistics``
runs the block's first phases in cross-trial rounds: each round draws one
batch of raw words per trial, reads its uint32 halves as the ``integers``
draws by threshold comparisons, and gives all rows one cumsum; a trial
whose draws hit a Lemire rejection reruns on the per-trial path.  A block
with two or fewer alive states skips the first phase.  Every block, two-state
grids included, then ends in one two-state pass: its rows left with two
states share one set of two-state rounds.
Every path reads the same stream words as the step-by-step definitions, so
outputs are bit-identical.

Reproducibility contract: trial ``t`` of a batch with seed ``s`` always draws
from ``trial_rng(s, t)``.  ``born_statistics`` derives the seeds of a whole
block of trials in one vectorized pass of the same ``SeedSequence`` hash, so
it builds exactly those streams without one ``SeedSequence`` per trial.

A ``born_statistics`` batch whose kernel time, estimated from its trials
and expected steps at costs for its count of alive states, reaches about
2 ms runs half its trials in a forked helper process, with the same result:
see ``_helper``.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import _helper
from .errors import DegenerateGridError, MaxStepsExceededError
from .states import NORM_TOL, JointState, QuantumState, _synced_joints, _unit_phases

# numpy's SeedSequence hash (bit_generator.pyx): hashmix and mix constants,
# the 4-word entropy pool, and the pool words hashed into the output state
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_SEED_BLOCK = 1 << 7  # trials whose seed words are derived at a time

# One-process kernel time of a born batch, in ns per trial and ns per
# expected step, by its alive states: 2, 3, and 4 or more.  Measured
# in-process (2 vCPUs, Python 3.11, numpy 2.4), whole 100-trial batches of
# _born_counts, median of 7 seeds, as us per trial at expected steps:
# * two states: 6.8 at M = 20 (84 steps), 11.7 at M = 100 (2,100), 83 at
#   M = 1000 (210,000);
# * three: 33 at M = 100 (3,100), 181 at M = 300 (27,900), 1,070 at M = 1000
#   (310,000).  Either 50-trial half of the M = 100 batch takes about 60%
#   of the whole's time;
# * four or more: 80 for four states at M = 40 (600), 119 at M = 100 (3,750),
#   225 at M = 200 (15,000); 460 for eight states at M = 200 (17,150).
# Each pair is the line through its regime's cheapest and dearest points
# (four states for four or more), so the batches in between, and those of
# more than four states, are underestimated and stay whole near the floor.
_KERNEL_NS = {2: (6770.0, 0.365), 3: (22600.0, 3.38), 4: (73600.0, 10.1)}
# Estimated kernel time (about 2.1 ms) from which a helper process shares a
# batch: 13 round trips of 0.16 ms.
# Split against whole, measured: -1% to -15% at 2.1-2.4 ms of kernel time,
# +3% and +32% at 1.3-1.4 ms.
_SPLIT_NS = 1 << 21

# N-state batches: 16-bit lanes, four to a uint64 column
_LANES = 4
_LANE_TOP = 1 << 15
_LANE_HIGH = np.uint64(0x8000_8000_8000_8000)  # the top bit of every lane
_BATCH_STEPS = 1 << 14  # longest batch, so a lane moves at most 2**14
_BATCH_BYTES = 1 << 20  # largest (batch, columns) uint64 path of one batch
_FIRST_SLICE = 3  # a batch is first read for batch // 3 steps, at least 64
_PAIR_TABLE_BYTES = 1 << 16  # largest table of packed moves by ordered pair
_TAIL_BYTES = 1 << 16  # raw words of one block of two-state rows

# Three-state cross-trial rounds.  integers(3) and integers(2) are Lemire's
# method on the stream's uint32 halves h: integers(3) = #{j : h >=
# ceil(j 2**32 / 3)} unless h = 0, which it rejects, and integers(2) =
# [h >= 2**31], which never rejects.
_THIRDS = (np.uint32(0x5555_5556), np.uint32(0xAAAA_AAAB))
_HALF = np.uint32(1 << 31)
_LANE_SHIFTS = np.arange(0, 48, 16, dtype=np.uint64)
_LANE_UNITS = np.uint64(1) << _LANE_SHIFTS
_LANE_PAD = np.uint64(_LANE_TOP << 48)  # the unused fourth lane
_ROUND_BYTES = 1 << 17  # raw words of one sub-block of a round
_SNAPSHOT_BYTES = 1 << 18  # cross terms of a snapshot block, count rows of a run


def _byte_tables():
    """Per-byte walk tables, bit 0 first, 1 = up.

    net: the byte's net move; low/high: its lowest and highest point relative
    to where the byte ends (these three int8); down/up[b, d]: the first step
    (1-8) at which the byte has moved d down / d up, else 9 (so column 9
    always reads 9).
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
        net.astype(np.int8),
        (prefix.min(axis=1) - net).astype(np.int8),
        (prefix.max(axis=1) - net).astype(np.int8),
        first(prefix == -dist),
        first(prefix == dist),
    )


_BYTE_NET, _BYTE_LOW, _BYTE_HIGH, _BYTE_DOWN, _BYTE_UP = _byte_tables()


@dataclass(frozen=True)
class WalkConfig:
    """Grid resolution M, safety cap on steps, and the base RNG seed.

    max_steps defaults to 100 * M**2, far beyond the diffusive exit-time
    scale, so cap hits signal pathology rather than slow luck.  A field
    that is not an integer (numpy ints are) raises ValueError.
    """

    grid_resolution: int = 1000
    max_steps: int | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("grid_resolution", "max_steps", "seed"):
            value = getattr(self, name)
            if value is None and name == "max_steps":
                value = 100 * self.grid_resolution**2
            object.__setattr__(self, name, _integer(value, name))
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be >= 2")
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


def _integer(value, name: str) -> int:
    """``value`` as a Python int; ValueError naming ``name`` unless it is an
    integer (a float, even a whole one, is not)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None


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
    holds seeds below 2**64).  ``SeedSequence(seed).pool``, the mix of the
    seed's words padded to the pool size, is common to every trial; each
    trial's one or two spawn-key words (two for t >= 2**32) are then mixed
    into its copy of the pool, all trials at once in uint32 arithmetic.
    """
    if seed >> 32 * _POOL:  # a fifth word would be mixed after the pool
        raise ValueError("seed must be below 2**128")
    index = np.arange(lo, hi, dtype=np.uint64)
    pool = [np.full(index.size, w, dtype=np.uint32) for w in np.random.SeedSequence(seed).pool]
    # the hash constant after the pool's 4 hashmix steps and 12 cross mixes
    const = _INIT_A * pow(_MULT_A, _POOL * _POOL, 1 << 32) & _M32
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


def _trial_rngs(seed: int, lo: int, hi: int) -> list:
    """``trial_rng(seed, t)`` for ``lo <= t < hi``, in order."""
    return [
        np.random.Generator(np.random.PCG64(_SeedWords(words)))
        for words in _trial_seed_words(seed, lo, hi)
    ]


def _expected_steps(k0: np.ndarray) -> int:
    """E[T] = (M^2 - sum k_i^2) / 2 steps of a walk from k0, in Python ints."""
    m = sum(int(k) for k in k0)
    return (m * m - sum(int(k) ** 2 for k in k0)) // 2


def quantize_weights(weights, grid_resolution: int) -> np.ndarray:
    """Round simplex weights to integer grid counts summing to M.

    Largest-remainder rounding minimizes sum |k_i - M w_i|; ties go to the
    lowest index.  At large M a weight sum off 1 within the 1e-9 tolerance
    can leave the floors of M w_i short of M by more than N units, or over
    it; the quotas are then M w_i / sum(w), so the counts always sum to M.
    M must be an integer, at most 2**53.  Raises DegenerateGridError,
    naming the states, when a positive weight lands on zero and M < 10 N
    (the caller should raise M); at M >= 10 N such counts are returned as
    they are.
    """
    w = np.asarray(weights, dtype=float)
    m = _integer(grid_resolution, "grid resolution")
    if m < 2:
        raise ValueError("grid resolution must be >= 2")
    if m > 2**53:  # above 2**53, m * w rounds off whole grid units
        raise ValueError("grid resolution must be <= 2**53")
    if w.ndim != 1 or w.size < 2:
        raise ValueError("need a weight vector with at least 2 entries")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("weights must be nonnegative and sum to 1")
    target = m * w
    base = np.floor(target).astype(np.int64)
    deficit = m - int(base.sum())
    if not 0 <= deficit <= w.size:
        base = _exact_largest_remainder(w, m)
    elif deficit > 0:
        order = np.argsort(-(target - base), kind="stable")
        base[order[:deficit]] += 1
    zeroed = _zeroed_message(w, base, m)
    if zeroed and m < 10 * w.size:
        raise DegenerateGridError(zeroed)
    return base


def _zeroed_message(weights, counts: np.ndarray, m: int) -> str:
    """The message naming the states whose positive weight quantizes to a
    zero count at M = m; empty when there are none."""
    dropped = np.flatnonzero((np.asarray(weights) > 0) & (counts == 0))
    if dropped.size == 0:
        return ""
    return (
        f"positive weights of states {dropped.tolist()} quantize to zero at "
        f"M={m}; raise the grid resolution"
    )


def _exact_largest_remainder(w: np.ndarray, m: int) -> np.ndarray:
    """Largest-remainder counts for the quotas M w_i / sum(w), in exact
    integers: the quotas sum to M, so fewer than N units are handed out."""
    ratios = [x.as_integer_ratio() for x in w.tolist()]
    denom = max(d for _, d in ratios)
    nums = [n * (denom // d) for n, d in ratios]
    total = sum(nums)
    base = [m * a // total for a in nums]
    rems = [m * a % total for a in nums]
    order = sorted(range(len(nums)), key=lambda i: -rems[i])  # ties to lowest index
    for i in order[: m - sum(base)]:
        base[i] += 1
    return np.array(base, dtype=np.int64)


def run_walk(
    joint: JointState,
    config: WalkConfig,
    rng: np.random.Generator | None = None,
    observer=None,
) -> WalkOutcome:
    """Walk the quantized weights until one state holds everything.

    Reference engine: each step draws ``a = rng.integers(n)`` and then
    ``b = rng.integers(n - 1)`` over the n alive states in index order,
    shifts ``b`` past ``a`` and moves one unit from the a-th to the b-th.
    ``observer(step, joint_state)``, when given, sees step 0 and every step
    after it, in order.  ``_walk_counts`` hands its count rows over in
    blocks of at most 256 KiB of cross terms (at least one step), and
    ``states._synced_joints`` builds each block's snapshots as one, without
    checking them again.  Before it draws anything, an observed walk refuses
    with ValueError an input whose phases phi_ij = kappa_ij / |kappa_ij| are
    not unit and Hermitian within NORM_TOL on the pairs alive at step 0:
    that is the one way an accepted JointState could make a snapshot fail
    JointState's checks.  A run's blocks are handed over once the run is
    drawn: if the observer raises at step j, no later snapshot is
    delivered, but ``rng`` may be up to one run past step j.  Raises
    MaxStepsExceededError at the safety cap, once the steps walked before it
    are delivered.  A positive weight quantized to zero (allowed at
    M >= 10 N) gives a RuntimeWarning.
    """
    m = config.grid_resolution
    k0 = quantize_weights(joint.weights, m)
    if zeroed := _zeroed_message(joint.weights, k0, m):
        warnings.warn(zeroed, RuntimeWarning, stacklevel=2)
    if observer is None:
        return _walk_counts(k0, config, rng)
    # the phases come from the input joint at every step, so derive them once;
    # a snapshot's kappa_ij is phi_ij sqrt(w_i w_j) with sqrt(w_i w_j) <= 1/2,
    # so unit Hermitian phases on the pairs alive now keep every one valid
    phases = _unit_phases(joint.cross)
    pairs = np.outer(k0 > 0, k0 > 0) & ~np.eye(k0.size, dtype=bool)
    phi, mirror = phases[pairs], phases.T[pairs].conj()
    off = float(np.maximum(abs(phi - mirror), abs(abs(phi) - 1.0)).max(initial=0.0))
    if off > NORM_TOL:
        raise ValueError(
            f"cross-term phases phi_ij of the states alive at M={m} must be unit "
            f"and Hermitian, off by {off!r}"
        )

    def deliver(first, counts):
        for step, snap in enumerate(_synced_joints(phases, counts / m, counts > 0), first):
            observer(step, snap)

    return _walk_counts(k0, config, rng, deliver)


def _walk_counts(k0: np.ndarray, config: WalkConfig, rng=None, visit=None):
    """``run_walk`` from the grid counts ``k0``, in runs of steps.

    A run draws its steps in one ``rng.integers(0, bounds)`` call, bounds
    n, n - 1, n, ... for its n alive states, which numpy reads exactly as
    the scalar draws (Lemire rejections and a spare uint32 half included).
    One scatter and one cumsum count the states it moves; if one dies, the
    saved stream state is restored and the steps up to that death are drawn
    again.  A run is as long as the walk so far, at least 64 steps and at
    most ``_SNAPSHOT_BYTES`` of count rows.  ``visit(first, rows)``, when
    given, gets ``rows[j]``, the counts of step ``first + j``: step 0 alone,
    then each run in blocks of at most ``_SNAPSHOT_BYTES`` of cross terms
    (at least one row), before MaxStepsExceededError at the cap.  Without
    ``rng`` the walk draws from ``default_rng(config.seed)``.
    """
    k = np.array(k0, dtype=np.int64)
    alive = np.flatnonzero(k)
    eliminations = [(i, 0) for i in np.flatnonzero(k == 0).tolist()]
    block = max(1, _SNAPSHOT_BYTES // (16 * k.size**2))
    longest = max(1, _SNAPSHOT_BYTES // (8 * k.size))
    rng = np.random.default_rng(config.seed) if rng is None else rng
    if visit is not None:
        visit(0, k[None].copy())
    steps = 0
    while alive.size > 1:
        if steps >= config.max_steps:
            raise MaxStepsExceededError(f"walk not absorbed after {config.max_steps} steps")
        run = min(max(64, steps), longest, config.max_steps - steps)
        bounds = np.tile([alive.size, alive.size - 1], run)
        saved = rng.bit_generator.state
        pairs = rng.integers(0, bounds).reshape(run, 2)
        pairs[:, 1] += pairs[:, 1] >= pairs[:, 0]
        # columns only for the states the run moves: a cumsum costs per column
        cols = np.flatnonzero(np.bincount(pairs.reshape(-1), minlength=alive.size))
        cols, pairs = alive[cols], np.searchsorted(cols, pairs)
        counts = np.zeros((run, cols.size), dtype=np.int64)
        counts[np.arange(run)[:, None], pairs] = (-1, 1)
        counts[0] += k[cols]
        np.cumsum(counts, axis=0, out=counts)
        died = counts[np.arange(run), pairs[:, 0]] == 0
        if died.any():
            run = int(died.argmax()) + 1
            rng.bit_generator.state = saved
            rng.integers(0, bounds[: 2 * run])
            dead = int(cols[pairs[run - 1, 0]])
            alive = alive[alive != dead]
            eliminations.append((dead, steps + run))
        if visit is not None:
            rows = np.tile(k, (run, 1))
            rows[:, cols] = counts[:run]
            for lo in range(0, run, block):
                visit(steps + 1 + lo, rows[lo : lo + block])
        k[cols] = counts[run - 1]
        steps += run
    return WalkOutcome(int(alive[0]), steps, tuple(eliminations))


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
    MaxStepsExceededError.  A batch of at least two trials whose estimated
    one-process kernel time (``_kernel_ns``: a cost per trial plus one per
    expected step, (M^2 - sum k_i^2) / 2 steps a trial, for its count of
    alive states) reaches ``_SPLIT_NS`` (about 2.1 ms) runs on two processes: a
    forked helper runs trials 0 to trials // 2 - 1 while this process runs
    the rest, with the same result as one process (see ``_helper``).
    ``workers`` is deprecated and ignored: the trials run in one thread per
    process, and the result never depended on it.  A positive weight that
    quantizes to zero (allowed at M >= 10 N) gives a RuntimeWarning.
    """
    if workers > 1:
        warnings.warn(
            "born_statistics(workers=...) is deprecated and ignored; "
            "trials run in one thread with the same results",
            DeprecationWarning,
            stacklevel=2,
        )
    trials = _integer(trials, "trials")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    m = config.grid_resolution
    weights = state.weights()
    k0 = quantize_weights(weights, m)
    if zeroed := _zeroed_message(weights, k0, m):
        warnings.warn(zeroed, RuntimeWarning, stacklevel=2)
    # no walk takes 2**62 steps; the clamp keeps step counts in int64
    args = (config.seed, k0, m, min(config.max_steps, 1 << 62))
    expected = _expected_steps(k0)
    helper = _helper.current() if trials >= 2 and _kernel_ns(k0, trials) >= _SPLIT_NS else None
    if helper is None:
        counts, total, total_sq = _born_counts(*args, 0, trials)
    else:
        half = trials // 2
        theirs, mine = _helper.split(
            helper, "walk._born_counts", (*args, 0, half), (*args, half, trials)
        )
        counts = np.add(theirs[0], mine[0])
        total, total_sq = theirs[1] + mine[1], theirs[2] + mine[2]
    counts = np.array(counts, dtype=np.int64)
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
        expected_steps=float(expected),
    )


def _kernel_ns(k0: np.ndarray, trials: int) -> float:
    """Estimated one-process kernel time of ``trials`` walks from ``k0``, in
    ns: a cost per trial plus one per expected step, from ``_KERNEL_NS`` by
    the count of alive states; 0 with fewer than two, where no walk steps."""
    alive = int(np.count_nonzero(k0))
    if alive < 2:
        return 0.0
    per_trial, per_step = _KERNEL_NS[min(alive, 4)]
    return trials * (per_trial + _expected_steps(k0) * per_step)


def _born_counts(seed: int, k0: np.ndarray, m: int, max_steps: int, lo: int, hi: int):
    """Winner counts (a list) of trials ``lo <= t < hi`` and the sum and sum
    of squares of their steps, over the trials below the cap, in Python ints.

    The trials run in blocks of ``_SEED_BLOCK`` from ``lo``; a trial's
    outcome depends only on its own stream, so any split of a batch's range
    adds up to the same sums.
    """
    counts = [0] * k0.size
    total = total_sq = 0
    for start in range(lo, hi, _SEED_BLOCK):
        block = _trial_rngs(seed, start, min(start + _SEED_BLOCK, hi))
        winners, steps = _born_block(k0, m, max_steps, block)
        for winner, step in zip(winners.tolist(), steps.tolist()):
            if winner >= 0:
                counts[winner] += 1
                total += step
                total_sq += step * step
    return counts, total, total_sq


def _born_block(k0: np.ndarray, m: int, max_steps: int, rngs: list):
    """Winners (-1 on a cap hit) and steps of one block of trials.

    First phase: with three alive states the block's rows run in cross-trial
    rounds (``_three_state_rounds``); rows whose draws hit a Lemire
    rejection, and every row when more than three states are alive, run
    ``_multi_first_phase`` one trial at a time; with two or fewer alive, as
    on a two-state grid, the rows keep ``k0``.  Then one tail pass: a row
    with one alive state has that state as winner, and rows with two alive
    states below the cap share one ``_two_state_block`` call from the
    lower-index survivor's count.
    """
    rows = len(rngs)
    alive0 = np.flatnonzero(k0)
    counts = np.tile(k0, (rows, 1))
    steps = np.zeros(rows, dtype=np.int64)
    per_trial = range(rows) if alive0.size > 3 else []
    if alive0.size == 3:
        counts[:, alive0], steps, rerun = _three_state_rounds(
            k0[alive0], m, max_steps, rngs
        )
        per_trial = np.flatnonzero(rerun).tolist()
    for t in per_trial:
        counts[t], _, steps[t], _ = _multi_first_phase(k0, m, max_steps, rngs[t])
    alive = counts > 0
    left = alive.sum(axis=1)
    winners = np.where(left == 1, alive.argmax(axis=1), -1)
    tails = np.flatnonzero((left == 2) & (steps < max_steps))
    pairs = np.nonzero(alive[tails])[1].reshape(-1, 2)  # survivors, in index order
    won, tail_steps = _two_state_block(
        counts[tails, pairs[:, 0]], max_steps - steps[tails], [rngs[t] for t in tails], m
    )
    winners[tails] = np.where(won < 0, -1, pairs[np.arange(tails.size), won])
    steps[tails] += tail_steps
    return winners, steps


def _three_state_rounds(k: np.ndarray, m: int, max_steps: int, rngs: list):
    """``_multi_first_phase`` from the three positive counts ``k`` on every
    stream of a block, in cross-trial rounds.

    Every trial starts at ``k``, so each takes the same batch sizes until its
    first elimination (``_batch_sizes``).  Round j draws the j-th size for
    every row still in the rounds (``_three_state_round``).  A row leaves
    them at its first death, which with three states ends its first phase;
    at the step cap; or on a Lemire rejection.  Returns (counts, steps,
    rerun): the (rows, 3) counts and the steps where each row left, and the
    rows whose draws hit a rejection.  Those streams are rewound to their
    start for ``_multi_first_phase`` to run again, so their counts and steps
    mean nothing.
    """
    rows = len(rngs)
    counts = np.tile(k, (rows, 1))
    steps = np.zeros(rows, dtype=np.int64)
    rerun = np.zeros(rows, dtype=bool)
    bits = [rng.bit_generator for rng in rngs]
    batches = _batch_sizes(int(k.min()), m, 3)
    going = np.arange(rows)
    while going.size:
        batch = next(batches)
        per_block = max(1, _ROUND_BYTES // (8 * batch))
        for lo in range(0, going.size, per_block):
            sub = going[lo : lo + per_block]
            counts[sub], steps[sub], rerun[sub] = _three_state_round(
                counts[sub], steps[sub], [bits[r] for r in sub.tolist()], batch
            )
        going = going[
            (steps[going] < max_steps) & ~rerun[going] & counts[going].all(axis=1)
        ]
    return counts, steps, rerun


def _three_state_round(counts: np.ndarray, steps: np.ndarray, bits: list, batch: int):
    """One ``batch`` of ``_multi_first_phase`` on every row at once.

    Each row draws ``batch`` raw words, whose uint32 halves, low half first,
    are the ``integers(3)`` sources and then the ``integers(2)``
    destinations, computed as ``_THIRDS`` and ``_HALF`` comparisons.  The
    packed moves of all rows then take one (rows, batch) cumsum.  Returns
    the rows' new (counts, steps, rejected).  A rejected row, whose source
    halves hold a 0 (the one value ``integers(3)`` redraws), is rewound to
    the start of its stream by ``PCG64.advance``.
    """
    words = np.empty((len(bits), batch), dtype=np.uint64)
    for r, bit in enumerate(bits):
        words[r] = bit.random_raw(batch)
    halves = words.view("<u4")
    src, dst = halves[:, :batch], halves[:, batch:]
    rejected = src.min(axis=1) == 0
    for r in np.flatnonzero(rejected).tolist():
        bits[r].advance(-int(steps[r] + batch))
    # ordered-pair row src * 2 + dst of _pair_moves(3)
    pair = (src >= _THIRDS[0]).view(np.uint8)
    pair += src >= _THIRDS[1]
    pair <<= 1
    pair += dst >= _HALF
    path = _pair_moves(3).reshape(-1).take(pair)
    start = np.minimum(counts, batch) + (_LANE_TOP - 1)
    path[:, 0] += start.astype(np.uint64) @ _LANE_UNITS + _LANE_PAD
    np.cumsum(path, axis=1, out=path)
    flagged = (path & _LANE_HIGH) != _LANE_HIGH
    r = flagged.argmax(axis=1)
    r[~flagged[np.arange(r.size), r]] = batch - 1
    lanes = path[np.arange(r.size), r][:, None] >> _LANE_SHIFTS & 0xFFFF
    counts = counts - start + lanes.astype(np.int64)
    died = (counts == 0).any(axis=1)
    return counts, steps + np.where(died, r + 1, batch), rejected


def _words_per_draw(spread: int) -> int:
    """Raw words per two-state draw from pos (M - pos), which is M^2 / 4 at
    most: about 1.6 times the mean need, so one draw usually ends the walk."""
    return min(1 << 15, max(32, spread // 40 + 32))


def _two_state_block(pos: np.ndarray, caps: np.ndarray, rngs: list, m: int):
    """Exact first passage of the unit-step walk on {0..M} for every row r,
    from ``pos[r]`` on the stream ``rngs[r]`` within ``caps[r]`` steps.

    Returns arrays (winners, steps): winner 0 when absorbed at M, 1 at 0,
    and -1 with steps = ``caps[r]`` at the cap.  Rows inside (0, M) run in
    rounds of one draw each, sized from the largest pos (M - pos) left, in
    blocks of at most ``_TAIL_BYTES`` of drawn words for ``_two_state_rows``.
    A row alone in its block (every row where a block cannot hold two draws,
    as at M = 1000) takes ``_two_state_draw`` on a draw sized from its own
    position.  An outcome depends only on the stream's words, not on how
    they are split into draws, so a row that outlives a draw goes on in the
    next round.
    """
    winners = np.where(pos <= 0, 1, 0)
    steps = np.zeros(pos.size, dtype=np.int64)
    pos = pos.astype(np.int64)
    going = np.flatnonzero((pos > 0) & (pos < m))
    while going.size:
        n = _words_per_draw(int((pos[going] * (m - pos[going])).max()))
        per_block = max(_TAIL_BYTES // (8 * n), 1)
        split = 0 if per_block == 1 else going.size - (going.size % per_block == 1)
        shared, lone = going[:split], going[split:]
        for lo in range(0, shared.size, per_block):
            rows = shared[lo : lo + per_block]
            winners[rows], hit, pos[rows] = _two_state_rows(
                pos[rows], [rngs[r] for r in rows.tolist()], m, n
            )
            steps[rows] += np.where(hit < 0, 64 * n, hit)
        for r, start in zip(lone.tolist(), pos[lone].tolist()):
            own = _words_per_draw(start * (m - start))
            winners[r], hit, pos[r] = _two_state_draw(start, m, own, rngs[r])
            steps[r] += 64 * own if hit < 0 else hit
        over = going[steps[going] > caps[going]]
        winners[over] = -1
        steps[over] = caps[over]
        going = going[(winners[going] < 0) & (steps[going] < caps[going])]
    return winners, steps


def _two_state_rows(pos: np.ndarray, rngs: list, m: int, n: int):
    """``_two_state_draw`` on many rows at once, as arrays (winners, steps,
    ends): every row draws the same ``n`` raw words from its own stream and
    starts inside (0, m)."""
    rows = pos.size
    words = np.empty((rows, n), dtype=np.uint64)
    for r, rng in enumerate(rngs):
        words[r] = rng.bit_generator.random_raw(n)
    # _two_state_draw's g, cut and candidate words, row by row
    base = (-pos) // 2 + 1
    span = (m - pos + 1) // 2 - 1 - base
    g = np.subtract(np.bitwise_count(words), 32, dtype=np.int64)
    g[:, 0] -= base
    np.cumsum(g, axis=1, out=g)
    out = g.view(np.uint64) > span.astype(np.uint64)[:, None]
    cut = np.where(out.any(axis=1), out.argmax(axis=1) + 1, n)
    pair = np.empty_like(g)
    pair[:, 0] = g[:, 0] - base
    np.add(g[:, :-1], g[:, 1:], out=pair[:, 1:])
    pair -= (33 - pos - 2 * base)[:, None]
    near = pair.view(np.uint64) >= max(m - 65, 0)
    near &= np.arange(n) < cut[:, None]
    row, col = np.nonzero(near)
    del out, pair, near  # the byte stage below is the peak
    winners = np.full(rows, -1, dtype=np.int64)
    steps = np.full(rows, -1, dtype=np.int64)
    after = pos + 2 * (g[:, -1] + base)
    if row.size:
        octets = words[row, col].astype("<u8", copy=False).view(np.uint8)
        # flat byte ends: each candidate's first byte jumps from the end of
        # the previous candidate (of any row) to its own start
        offset = pos[row] + 2 * base[row]
        ends_at = offset + 2 * g[row, col]
        jump = np.where(col > 0, offset + 2 * g[row, col - 1], pos[row])
        jump[1:] -= ends_at[:-1]
        ends = _BYTE_NET.take(octets).astype(np.int64)
        ends[::8] += jump
        np.cumsum(ends, out=ends)
        touch = (ends + _BYTE_LOW.take(octets) <= 0) | (
            ends + _BYTE_HIGH.take(octets) >= m
        )
        hit = np.flatnonzero(touch)
        if hit.size:
            hit_row = row[hit // 8]
            first = hit[np.diff(hit_row, prepend=-1) != 0]
            r = row[first // 8]
            octet = octets[first]
            start = ends[first] - _BYTE_NET[octet]
            down = _BYTE_DOWN[octet, np.minimum(start, 9)]
            up = _BYTE_UP[octet, np.minimum(m - start, 9)]
            steps[r] = 64 * col[first // 8] + 8 * (first % 8) + np.minimum(down, up)
            winners[r] = np.where(up < down, 0, 1)
            after[r] = np.where(up < down, m, 0)
    return winners, steps, after


def _two_state_draw(pos: int, m: int, n: int, rng) -> tuple[int, int, int]:
    """One draw of ``n`` raw words of the unit-step walk on {0..M} from
    ``pos`` inside (0, M).

    Returns (winner, step, end): winner 0 and end M when the draw reaches M,
    1 and end 0 when it reaches 0, with the step of absorption counted from
    the draw's start; otherwise (-1, -1, the position after the draw).  Each
    raw uint64 word of the bit generator encodes 64 steps (bit 0 first,
    1 = up).  Popcounts give every word's end position; the pass is cut at
    the first word that ends on or beyond a wall, where absorption is
    certain.  A word starting at s can reach 0 only if it has s down-steps
    (s + popcount <= 64) and M only if it has M - s up-steps (s + popcount
    >= M); only those words are read, byte by byte through the ``_BYTE_*``
    tables, and the first byte whose lowest or highest point touches a wall
    gives the exact step of absorption.
    """
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
        ends = _BYTE_NET.take(octets).astype(np.int64)
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
            step = 64 * int(rows[row]) + 8 * byte + min(down, up)
            return (0, step, m) if up < down else (1, step, 0)
    return -1, -1, pos + 2 * (int(g[-1]) + base)


def _lane_unit(states: np.ndarray) -> np.ndarray:
    """One unit in each state's 16-bit lane: state i owns lane i % 4 of the
    packed uint64 column i // 4."""
    return np.left_shift(np.uint64(1), (states % _LANES * 16).astype(np.uint64))


@functools.lru_cache(maxsize=64)
def _pair_moves(n: int) -> np.ndarray | None:
    """Packed move of every ordered pair among ``n`` alive states, or None
    where the table would pass ``_PAIR_TABLE_BYTES``.

    Row ``src * (n - 1) + draw`` is the pair that ``run_walk`` draws as
    (src, draw): -1 in the source's lane and +1 in the destination's, in
    uint64 arithmetic modulo 2**64.
    """
    cols = -(-n // _LANES)
    if n * (n - 1) * cols * 8 > _PAIR_TABLE_BYTES:
        return None
    src, dst = np.divmod(np.arange(n * (n - 1)), n - 1)
    dst += dst >= src
    rows = np.arange(src.size)
    pair = np.zeros((src.size, cols), dtype=np.uint64)
    pair[rows, src // _LANES] -= _lane_unit(src)
    pair[rows, dst // _LANES] += _lane_unit(dst)
    pair.setflags(write=False)
    return pair


def _packed_path(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """(batch, ceil(n / 4)) packed moves of the steps drawn as ``src`` and
    ``dst`` (``dst`` not yet shifted past ``src``); overwrites both."""
    pair = _pair_moves(n)
    if pair is not None:
        src *= n - 1
        src += dst
        return pair.take(src, axis=0)
    dst += dst >= src
    path = np.zeros((src.size, -(-n // _LANES)), dtype=np.uint64)
    flat = path.reshape(-1)
    rows = np.arange(0, flat.size, path.shape[1])
    flat[rows + src // _LANES] -= _lane_unit(src)
    flat[rows + dst // _LANES] += _lane_unit(dst)
    return path


def _multi_first_phase(k0, m: int, max_steps: int, rng):
    """Walk N >= 3 quantized weights until at most two states are alive.

    Returns (k, alive, steps, eliminations) as Python lists and ints: the
    grid counts, the indices of the states still alive, the steps taken and
    the (state, step) history.  Steps come in batches of ordered (source,
    destination) pairs.  Each batch is drawn whole, then read only up to its
    first elimination as a cumsum over packed 16-bit lanes (``_packed_path``)
    in two slices: its first max(64, batch // 3) steps, then the rest from
    that slice's last row if no state died in it.  Lane arithmetic is modulo
    2**64, so the slices give the whole batch's cumsum row for row.  Lane i
    starts at 2**15 + min(k_i, batch) - 1, so its top bit first clears on
    the step where state i reaches zero.  With k_i > batch the state cannot
    die within the batch: its lane spans [2**15 - 1, 2**16 - 1] and clears
    its top bit only if every step of the batch took from it, which the
    exact counts read at the flagged step then rule out.  No lane leaves
    [0, 2**16), so none carries into the next.
    Past the cap the caller reads ``steps >= max_steps``.
    """
    k = [int(x) for x in k0]
    alive = [i for i, x in enumerate(k) if x > 0]
    eliminations = [(i, 0) for i, x in enumerate(k) if x == 0]
    steps = 0
    while len(alive) > 2 and steps < max_steps:
        n = len(alive)
        cols = -(-n // _LANES)
        ka = [k[i] for i in alive]
        batches = _batch_sizes(min(ka), m, n)
        while steps < max_steps:
            batch = next(batches)
            # uniform ordered (source, destination) pairs, as in run_walk
            src = rng.integers(n, size=batch)
            dst = rng.integers(n - 1, size=batch)
            start = [min(x, batch) + _LANE_TOP - 1 for x in ka]
            # read the batch up to its first flagged step: a leading slice,
            # then the rest from the slice's last row if no lane cleared
            lo, hi = 0, min(max(64, batch // _FIRST_SLICE), batch)
            row = _pack_lanes(start, cols)
            while True:
                path = _packed_path(n, src[lo:hi], dst[lo:hi])
                path[0] += row
                # np.cumsum's result, without its wrapper's per-call cost
                np.add.accumulate(path, axis=0, out=path)
                live = path[:, 0] & _LANE_HIGH
                for col in range(1, cols):
                    live &= path[:, col]
                flagged = live != _LANE_HIGH
                r = int(flagged.argmax())
                if flagged[r] or hi == batch:
                    break
                lo, hi, row = hi, batch, path[-1]
            row = path[r if flagged[r] else -1].tolist()
            ka = [
                x - s + (row[i // _LANES] >> i % _LANES * 16 & 0xFFFF)
                for i, (x, s) in enumerate(zip(ka, start))
            ]
            for i, x in zip(alive, ka):
                k[i] = x
            if 0 in ka:
                steps += lo + r + 1
                eliminations.append((alive.pop(ka.index(0)), steps))
                break
            steps += batch
    return k, alive, steps, eliminations


def _batch_sizes(k_min: int, m: int, n: int):
    """Steps of each batch of an N-state first phase until its next death,
    from ``n`` alive states whose smallest count is ``k_min``: a diffusive
    guess for the time to that death, at least 64, then doubling; at most
    2**14 steps and ``_BATCH_BYTES`` of packed path."""
    longest = max(1, min(_BATCH_STEPS, _BATCH_BYTES // (8 * -(-n // _LANES))))
    batch = min(max(k_min * (m - k_min) * n // 4, 64), longest)
    while True:
        yield batch
        batch = min(2 * batch, longest)


def _pack_lanes(lanes: list[int], cols: int) -> np.ndarray:
    """Pack 16-bit lane values into ``cols`` uint64 words; missing lanes
    read 2**15, whose top bit is set."""
    words = [0] * cols
    for i, lane in enumerate(lanes + [_LANE_TOP] * (_LANES * cols - len(lanes))):
        words[i // _LANES] |= lane << i % _LANES * 16
    return np.array(words, dtype=np.uint64)

