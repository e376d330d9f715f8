import contextlib
import itertools
import json
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from collapsewalk import _helper, cli, walk
from collapsewalk.states import _synced_joints, _unit_phases
from collapsewalk import (
    DegenerateGridError,
    JointState,
    MaxStepsExceededError,
    WalkConfig,
    born_statistics,
    form_joint,
    normalize,
    quantize_weights,
    run_walk,
    trial_rng,
)
from collapsewalk.walk import (
    _BYTE_DOWN,
    _BYTE_HIGH,
    _BYTE_LOW,
    _BYTE_NET,
    _BYTE_UP,
    _BATCH_BYTES,
    _SEED_BLOCK,
    _ROUND_BYTES,
    _TAIL_BYTES,
    _born_block,
    _multi_first_phase,
    _pair_moves,
    _SeedWords,
    _SNAPSHOT_BYTES,
    _three_state_rounds,
    _trial_rngs,
    _trial_seed_words,
    _two_state_block,
    _two_state_draw,
    _two_state_rows,
    _walk_counts,
    _words_per_draw,
)

from chain_oracle import chain_solve
from step_oracle import walk_step


# ---------------------------------------------------------------- quantize

def test_quantize_exact_representations():
    assert quantize_weights([0.5, 0.5], 10).tolist() == [5, 5]
    assert quantize_weights([0.3, 0.7], 1000).tolist() == [300, 700]


def brute_best_rounding(weights, m):
    """Enumerate every integer split of m and keep the L1-closest ones."""
    n = len(weights)
    best, best_err = [], None
    for combo in itertools.product(range(m + 1), repeat=n - 1):
        if sum(combo) > m:
            continue
        k = list(combo) + [m - sum(combo)]
        err = sum(abs(ki - m * wi) for ki, wi in zip(k, weights))
        if best_err is None or err < best_err - 1e-12:
            best, best_err = [tuple(k)], err
        elif abs(err - best_err) <= 1e-12:
            best.append(tuple(k))
    return best, best_err


def test_quantize_thirds_matches_enumeration_oracle():
    w = [1 / 3, 1 / 3, 1 / 3]
    k = quantize_weights(w, 10)
    assert k.tolist() == [4, 3, 3]
    optima, best_err = brute_best_rounding(w, 10)
    assert tuple(k) in optima
    assert abs(sum(abs(ki - 10 * wi) for ki, wi in zip(k, w)) - best_err) < 1e-12


def test_quantize_random_weights_attain_minimal_l1():
    rng = np.random.default_rng(2)
    for _ in range(10):
        w = rng.dirichlet(np.ones(3))
        k = quantize_weights(w, 12)
        assert k.sum() == 12
        optima, _ = brute_best_rounding(list(w), 12)
        assert tuple(k) in optima


def test_quantize_degenerate_grid_raises_only_when_coarse():
    w = [1e-6, 1 - 1e-6]
    with pytest.raises(DegenerateGridError, match=r"states \[0\] quantize to zero at M=15"):
        quantize_weights(w, 15)  # M < 10 N and the tiny weight rounds to 0
    k = quantize_weights(w, 1000)  # coarse weight still rounds to 0, M large
    assert k.tolist() == [0, 1000]


def test_quantize_rejects_nonfinite_weights():
    """nan weights pass a sum test written as |sum - 1| > tol; they would
    round to int64 garbage."""
    for w in ([np.nan, 1.0], [0.5, np.nan, 0.5], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="finite"):
            quantize_weights(w, 10)


def test_quantize_caps_resolution_at_2_pow_53():
    """Up to 2**53 float64 holds every grid count, so the counts sum to M;
    above it m * w rounds off whole units (2**60 + 3 came out 65 short)."""
    k = quantize_weights([0.3, 0.7], 2**53)
    assert int(k.sum()) == 2**53
    for m in (2**53 + 1, 2**60 + 3, 10**20):
        with pytest.raises(ValueError, match="2\\*\\*53"):
            quantize_weights([0.3, 0.7], m)


def test_quantize_refuses_non_integer_resolution():
    """M = 10.5 used to be truncated to a 10-unit grid; numpy ints pass."""
    for m in (10.5, 10.0, np.float64(10.0), "10"):
        with pytest.raises(ValueError, match="grid resolution must be an integer"):
            quantize_weights([0.6, 0.4], m)
    assert quantize_weights([0.6, 0.4], np.int32(10)).tolist() == [6, 4]


def largest_remainder(weights, m):
    """Reference rounding in plain Python: floor every m*w_i, then give the
    missing units to the largest remainders, ties to the lowest index."""
    target = [m * w for w in weights]
    base = [int(np.floor(t)) for t in target]
    order = sorted(range(len(weights)), key=lambda i: (-(target[i] - base[i]), i))
    for i in order[: m - sum(base)]:
        base[i] += 1
    return base


# raw weights: exact zeros and tiny values make degenerate grids likely
simplex_points = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-7, 1e-3), st.floats(1e-3, 1.0)),
    min_size=2,
    max_size=8,
).filter(lambda raw: sum(raw) > 0).map(lambda raw: np.array(raw) / sum(raw))


@settings(derandomize=True, database=None, deadline=None)
@given(w=simplex_points, m=st.integers(2, 400))
def test_quantize_property_sum_and_unit_error(w, m):
    try:
        k = quantize_weights(w, m)
    except DegenerateGridError:
        return
    assert k.sum() == m
    assert np.all(np.abs(k - m * w) < 1)


@settings(derandomize=True, database=None, deadline=None)
@given(w=simplex_points, m=st.integers(2, 400))
def test_quantize_property_no_better_integer_vector(w, m):
    """sum |k_i - M w_i| is separable and convex in each k_i, so over integer
    vectors with sum M a point that no single unit transfer improves is a
    global minimum; check every transfer k_i -> k_j."""
    try:
        k = quantize_weights(w, m)
    except DegenerateGridError:
        return
    target = m * w
    err = np.abs(k - target).sum()
    for i, j in itertools.permutations(range(w.size), 2):
        if k[i] == 0:
            continue
        moved = k.copy()
        moved[i] -= 1
        moved[j] += 1
        assert np.abs(moved - target).sum() >= err - 1e-9, (i, j)


@settings(derandomize=True, database=None, deadline=None)
@given(w=simplex_points, m=st.integers(2, 100))
def test_quantize_property_degenerate_exactly_when_coarse(w, m):
    expect = largest_remainder(list(w), m)
    lost = any(wi > 0 and ki == 0 for wi, ki in zip(w, expect))
    if lost and m < 10 * w.size:
        with pytest.raises(DegenerateGridError):
            quantize_weights(w, m)
    else:
        assert quantize_weights(w, m).tolist() == expect


def quantize_weights_unbalanced(weights, m):
    """The rounding of quantize_weights as it was before its counts were made
    to sum to M: it gave at most one unit to each entry and took none back."""
    w = np.asarray(weights, dtype=float)
    target = m * w
    base = np.floor(target).astype(np.int64)
    deficit = m - int(base.sum())
    if deficit > 0:
        order = np.argsort(-(target - base), kind="stable")
        base[order[:deficit]] += 1
    return base


def test_quantize_sums_to_m_when_the_weight_sum_is_off_one():
    """A weight sum 5e-10 off 1 left the floors 549 units from M = 2**40."""
    m = 2**40
    for w in ([0.3, 0.7 - 5e-10], [0.3, 0.7 + 5e-10], [0.0, 0.3, 0.7 - 5e-10]):
        assert int(quantize_weights_unbalanced(w, m).sum()) != m
        k = quantize_weights(w, m)
        assert int(k.sum()) == m and k.min() >= 0, w
        assert np.all((k == 0) == (np.asarray(w) == 0)), w
        quotas = m * np.asarray(w) / sum(w)
        assert np.all(np.abs(k - quotas) <= 1), w


# points on the simplex with one entry scaled by up to 1 +- 1e-9, so the sum
# is off 1 by at most the tolerance quantize_weights allows
off_simplex_points = st.tuples(
    simplex_points, st.integers(0, 7), st.integers(-990, 990)
).map(lambda p: p[0] * (1 + (np.arange(p[0].size) == p[1] % p[0].size) * p[2] * 1e-12))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    w=off_simplex_points,
    m=st.one_of(
        st.integers(2, 400), st.integers(2, 2**53), st.integers(2**40, 2**53)
    ),
)
def test_quantize_property_counts_sum_to_m_at_any_resolution(w, m):
    try:
        k = quantize_weights(w, m)
    except (ValueError, DegenerateGridError):
        assume(False)
    assert k.dtype == np.int64 and k.min() >= 0
    assert int(k.sum()) == m
    before = quantize_weights_unbalanced(w, m)
    if int(before.sum()) == m:
        assert k.tolist() == before.tolist()


# ------------------------------------------------ walk_step (step_oracle)

def test_walk_step_from_one_one_forced():
    seen = set()
    for i in range(50):
        k, alive = walk_step(np.array([1, 1]), np.array([True, True]), trial_rng(3, i))
        assert k.sum() == 2
        seen.add(tuple(k))
        assert alive.tolist() == [k[0] > 0, k[1] > 0]
    assert seen == {(0, 2), (2, 0)}


def test_walk_step_is_a_martingale():
    start = np.array([3, 4, 5])
    alive = np.array([True, True, True])
    rng = np.random.default_rng(8)
    total = np.zeros(3)
    n = 100_000
    for _ in range(n):
        k, _ = walk_step(start, alive, rng)
        total += k
    mean = total / n
    # each coordinate moves with probability 2/3, so Var(step) = 2/3
    se = np.sqrt(2 / 3 / n)
    assert np.all(np.abs(mean - start) < 4 * se)


def test_walk_step_conserves_total_weight():
    rng = np.random.default_rng(4)
    k = np.array([7, 2, 3, 8])
    alive = k > 0
    for _ in range(2000):
        k, alive = walk_step(k, alive, rng)
        assert k.sum() == 20
        assert np.all(k >= 0)
        if alive.sum() < 2:
            break


@st.composite
def grid_states(draw):
    """Grid weights k: a composition of M <= 50 into N <= 6 parts, zeros
    allowed, at least two positive; and one phase per state."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(2, 50))
    cuts = sorted(draw(st.lists(st.integers(0, m), min_size=n - 1, max_size=n - 1)))
    k = np.diff([0, *cuts, m])
    assume(np.count_nonzero(k) >= 2)
    return k, np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))


@settings(derandomize=True, database=None, deadline=None)
@given(start=grid_states(), seed=st.integers(0, 2**32 - 1))
def test_reference_engine_invariants(start, seed):
    """Walked to absorption: after every walk_step, sum k = M and dead states
    stay dead; synced as run_walk's snapshots are, |kappa_ij| = sqrt(w_i w_j)
    for alive pairs and 0 for pairs with a dead state."""
    k, phases = start
    m = int(k.sum())
    joint = form_joint(normalize(np.sqrt(k / m) * np.exp(1j * phases)))
    alive = k > 0
    rng = np.random.default_rng(seed)
    unit = _unit_phases(joint.cross)
    while np.count_nonzero(alive) > 1:
        dead = ~alive
        k, alive = walk_step(k, alive, rng)
        assert k.sum() == m and k.min() >= 0
        assert not alive[dead].any() and not k[dead].any()
        assert np.array_equal(alive, k > 0)
        w = k / m
        synced = next(_synced_joints(unit, w[None], alive[None]))
        pairs = np.outer(alive, alive)
        np.fill_diagonal(pairs, False)
        expect = np.where(pairs, np.sqrt(np.outer(w, w)), 0.0)
        assert np.abs(np.abs(synced.cross) - expect).max() < 1e-12
        assert np.array_equal(synced.alive, alive)


# ----------------------------------------------------------- _synced_joints

def sync(joint, w, alive=None):
    """``joint`` re-synced to weights ``w``, as run_walk's snapshots are; by
    default a state dies when its weight reaches zero."""
    alive = joint.alive & (w > 0) if alive is None else alive
    w = np.where(alive, w, 0.0)
    return next(_synced_joints(_unit_phases(joint.cross), w[None], alive[None]))


def test_synced_joint_elimination_zeroes_pair():
    joint = form_joint(normalize([1.0, 1.0]))
    assert abs(joint.cross[0, 1] - 0.5) < 1e-12
    done = sync(joint, np.array([1.0, 0.0]))
    assert done.cross[0, 1] == 0.0
    assert done.alive.tolist() == [True, False]
    assert done.weights.tolist() == [1.0, 0.0]


def test_synced_joint_magnitude_rule():
    joint = form_joint(normalize([1.0, 1.0]))
    moved = sync(joint, np.array([0.36, 0.64]))
    assert abs(abs(moved.cross[0, 1]) - 0.48) < 1e-12


def test_synced_joint_preserves_phase():
    joint = form_joint(normalize([0.6, 0.8j]))
    phase0 = np.angle(joint.cross[0, 1])
    moved = sync(joint, np.array([0.5, 0.5]))
    assert abs(abs(moved.cross[0, 1]) - 0.5) < 1e-12
    assert abs(np.angle(moved.cross[0, 1]) - phase0) < 1e-12


def test_synced_joint_idempotent_at_own_weights():
    joint = form_joint(normalize([0.6, 0.8]))
    again = sync(joint, joint.weights)
    assert np.allclose(again.cross, joint.cross)
    assert np.allclose(again.weights, joint.weights)


def reference_sync(cross, w, alive):
    """The original one-function cross-term sync formula, kept as the
    oracle: (weights, cross, alive) of the re-synced state."""
    mag = np.abs(cross)
    safe = np.where(mag > 0, mag, 1.0)
    unit = np.where(mag > 0, cross / safe, 0.0)
    kappa = unit * np.sqrt(np.outer(w, w))
    kappa[~alive, :] = 0.0
    kappa[:, ~alive] = 0.0
    np.fill_diagonal(kappa, 0.0)
    return np.where(alive, w, 0.0), kappa, alive


def assert_same_bits(got, expect):
    assert got.dtype == expect.dtype and got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()


def test_observer_snapshots_match_reference_formula():
    """Every snapshot of 60 observed walks equals the reference formula bit
    for bit, on a replay of the same walk through walk_step; a walk warns
    exactly when a positive weight quantizes to zero."""
    gen = np.random.default_rng(60)
    for walk in range(60):
        n = int(gen.integers(2, 6))
        m = int(gen.integers(4, 25))
        raw = gen.normal(size=n) * np.exp(1j * gen.uniform(-np.pi, np.pi, n))
        raw[gen.random(n) < 0.15] = 0.0
        raw[0] = raw[0] or 1.0
        joint = form_joint(normalize(raw))
        config = WalkConfig(grid_resolution=m, seed=walk)
        try:
            k = quantize_weights(joint.weights, m)
        except DegenerateGridError:
            continue
        snaps = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_walk(joint, config, observer=lambda step, s: snaps.append(s))
        zeroed = bool(np.any((joint.weights > 0) & (k == 0)))
        assert [w.category for w in caught] == [RuntimeWarning] * zeroed
        alive = k > 0
        rng = np.random.default_rng(walk)
        for step, snap in enumerate(snaps):
            if step:
                k, alive = walk_step(k, alive, rng)
            expect = reference_sync(joint.cross, k / m, alive)
            for got, want in zip((snap.weights, snap.cross, snap.alive), expect):
                assert_same_bits(got, want)
        assert np.count_nonzero(alive) == 1


def test_observed_walk_on_subnormal_cross_terms_is_quiet():
    """A zero-weight state whose cross terms are subnormal: kappa / |kappa|
    overflows there, yet the observed walk warns of nothing and its snapshots
    equal the reference formula bit for bit."""
    joint = form_joint(normalize([1e-310, 1.0, 1.0]))
    m = 4
    snaps = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_walk(joint, WalkConfig(grid_resolution=m, seed=1),
                 observer=lambda step, s: snaps.append(s))
    k = quantize_weights(joint.weights, m)
    alive = k > 0
    rng = np.random.default_rng(1)
    for step, snap in enumerate(snaps):
        if step:
            k, alive = walk_step(k, alive, rng)
        with np.errstate(all="ignore"):
            expect = reference_sync(joint.cross, k / m, alive)
        for got, want in zip((snap.weights, snap.cross, snap.alive), expect):
            assert_same_bits(got, want)
    assert len(snaps) > 1 and np.count_nonzero(alive) == 1


def test_synced_joint_matches_reference_formula():
    """Weights with and without freshly dead states, on joints with dead
    states and a nonzero (unused) real diagonal."""
    gen = np.random.default_rng(61)
    for _ in range(40):
        n = int(gen.integers(2, 6))
        raw = gen.normal(size=n) + 1j * gen.normal(size=n)
        raw[gen.random(n) < 0.3] = 0.0
        raw[0] = raw[0] or 1.0
        base = form_joint(normalize(raw))
        alive = base.weights > 0
        cross = base.cross + np.diag(gen.normal(size=n) * alive)
        joint = JointState(base.weights, cross, alive)
        w = gen.dirichlet(np.ones(n)) * alive
        w[1:][gen.random(n - 1) < 0.3] = 0.0
        w /= w.sum()
        for ww, al in (
            (joint.weights, joint.alive),
            (w, joint.alive & (w > 0)),
            (w, w > 0),
        ):
            got = sync(joint, ww, al)
            expect = reference_sync(joint.cross, ww, al)
            for g, e in zip((got.weights, got.cross, got.alive), expect):
                assert_same_bits(g, e)


# ------------------------------------------------------------------ run_walk

def test_run_walk_vertex_start_wins_immediately():
    joint = form_joint(normalize([1.0, 0.0]))
    out = run_walk(joint, WalkConfig(grid_resolution=50, seed=1))
    assert out.winner == 0
    assert out.steps_taken == 0
    assert out.elimination_order == ((1, 0),)


def test_run_walk_elimination_order_complete():
    joint = form_joint(normalize(np.sqrt([0.5, 0.3, 0.2])))
    out = run_walk(joint, WalkConfig(grid_resolution=12, seed=9))
    assert len(out.elimination_order) == 2
    assert out.winner not in [s for s, _ in out.elimination_order]
    steps = [s for _, s in out.elimination_order]
    assert steps == sorted(steps)


def test_run_walk_trajectory_invariants():
    """Conservation, irreversibility and cross-term consistency, every step."""
    joint = form_joint(normalize(np.sqrt([0.4, 0.35, 0.25]) * np.exp(1j * np.array([0.3, -1.1, 2.0]))))
    m = 15
    seen_dead = set()
    def check(step, snap):
        assert abs(snap.weights.sum() - 1.0) < 1e-12
        k = snap.weights * m
        assert np.allclose(k, np.round(k), atol=1e-9)
        for i in np.flatnonzero(~snap.alive):
            seen_dead.add(i)
            assert snap.weights[i] == 0.0
            assert not snap.cross[i].any() and not snap.cross[:, i].any()
        for i in seen_dead:  # irreversibility
            assert not snap.alive[i]
        mag2 = np.abs(snap.cross) ** 2
        expect = np.outer(snap.weights, snap.weights)
        for i in range(3):
            for j in range(3):
                if i != j and snap.alive[i] and snap.alive[j]:
                    assert abs(mag2[i, j] - expect[i, j]) < 1e-12
    out = run_walk(joint, WalkConfig(grid_resolution=m, seed=21), observer=check)
    assert out.steps_taken >= 1


def test_run_walk_two_state_absorption_probability():
    joint = form_joint(normalize([np.sqrt(0.35), np.sqrt(0.65)]))
    config = WalkConfig(grid_resolution=20, seed=42)
    trials = 2000
    wins = sum(
        run_walk(joint, config, rng=trial_rng(config.seed, t)).winner == 0
        for t in range(trials)
    )
    se = np.sqrt(0.35 * 0.65 / trials)
    assert abs(wins / trials - 0.35) < 4 * se


def test_run_walk_max_steps_raises():
    joint = form_joint(normalize([1.0, 1.0]))
    with pytest.raises(MaxStepsExceededError):
        run_walk(joint, WalkConfig(grid_resolution=100, max_steps=3, seed=0))


def test_run_walk_deterministic_per_stream():
    joint = form_joint(normalize(np.sqrt([0.5, 0.3, 0.2])))
    config = WalkConfig(grid_resolution=10, seed=7)
    a = run_walk(joint, config, rng=trial_rng(7, 3))
    b = run_walk(joint, config, rng=trial_rng(7, 3))
    assert a == b


def oracle_walk(k, rng, max_steps):
    """The counts after each step of the oracle's walk from counts ``k``,
    step 0 included, until one state is left or ``max_steps`` steps."""
    alive = k > 0
    seen = [k]
    while np.count_nonzero(alive) > 1 and len(seen) <= max_steps:
        k, alive = walk_step(k, alive, rng)
        seen.append(k)
    return seen


STREAM_CASES = [
    ([0.6, 0.8], 30),
    (np.sqrt([0.5, 0.3, 0.2]), 20),
    (np.sqrt([0.3, 0.25, 0.2, 0.15, 0.1]), 20),
]


@pytest.mark.parametrize("amplitudes, m", STREAM_CASES)
@pytest.mark.parametrize("spare_half", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_run_walk_leaves_the_stream_where_the_step_oracle_does(amplitudes, m, spare_half, seed):
    """A caller's generator ends in the state that stepping the oracle
    through the same walk leaves, also when it starts holding a spare
    uint32 half; the snapshots and the outcome match the oracle's walk."""
    joint = form_joint(normalize(amplitudes))
    g = np.random.default_rng(seed)
    if spare_half:
        g.integers(3)
        assert g.bit_generator.state["has_uint32"] == 1
    h = np.random.default_rng()
    h.bit_generator.state = g.bit_generator.state
    snaps = []
    out = run_walk(joint, WalkConfig(grid_resolution=m), rng=g,
                   observer=lambda step, s: snaps.append(s.weights))
    seen = oracle_walk(quantize_weights(joint.weights, m), h, 10**6)
    assert g.bit_generator.state == h.bit_generator.state
    assert out.steps_taken == len(seen) - 1
    assert out.winner == int(np.argmax(seen[-1])) and seen[-1].max() == m
    assert [w.tobytes() for w in snaps] == [(k / m).tobytes() for k in seen]


@pytest.mark.parametrize("amplitudes, m", STREAM_CASES)
def test_run_walk_cap_raises_after_the_oracle_snapshots(amplitudes, m):
    """A walk capped at 15 steps raises MaxStepsExceededError after the
    same 16 snapshots and the same draws as the oracle's first 15 steps."""
    joint = form_joint(normalize(amplitudes))
    g, h = np.random.default_rng(3), np.random.default_rng(3)
    snaps = []
    with pytest.raises(MaxStepsExceededError):
        run_walk(joint, WalkConfig(grid_resolution=m, max_steps=15), rng=g,
                 observer=lambda step, s: snaps.append(s.weights))
    seen = oracle_walk(quantize_weights(joint.weights, m), h, 15)
    assert len(seen) == 16
    assert [w.tobytes() for w in snaps] == [(k / m).tobytes() for k in seen]
    assert g.bit_generator.state == h.bit_generator.state


# --------------------------------------------------------- snapshot blocks

def perturbed(joint, gen):
    """``joint`` with the cross term of one pair of positive-weight states
    moved within the tolerance: its phase turned by 0.9e-12, off Hermitian,
    or its magnitude scaled by 1 + 0.9e-12 on both sides."""
    live = np.flatnonzero(joint.weights > 0)
    if live.size < 2:
        return joint
    cross = joint.cross.copy()
    i, j = gen.choice(live, 2, replace=False)
    if gen.random() < 0.5:
        cross[i, j] *= np.exp(0.9e-12j)
    else:
        cross[i, j] *= 1.0 + 0.9e-12
        cross[j, i] = np.conj(cross[i, j])
    return JointState(joint.weights, cross, joint.alive)


def test_observed_snapshots_pass_the_public_constructor_and_are_read_only():
    """Every snapshot of 40 observed walks over 2 to 6 states, some of zero
    weight, and of 40 more on cross terms perturbed at the tolerance, goes
    back through JointState unchanged, and none of its arrays can be
    written."""
    gen = np.random.default_rng(62)
    for walk in range(80):
        n = int(gen.integers(2, 7))
        raw = gen.normal(size=n) * np.exp(1j * gen.uniform(-np.pi, np.pi, n))
        raw[gen.random(n) < 0.25] = 0.0
        raw[0] = raw[0] or 1.0
        joint = form_joint(normalize(raw))
        if walk >= 40:
            joint = perturbed(joint, gen)
        snaps = []
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "positive weights", RuntimeWarning)
            run_walk(joint, WalkConfig(grid_resolution=10 * n, seed=walk),
                     observer=lambda step, s: snaps.append(s))
        for snap in snaps:
            arrays = (snap.weights, snap.cross, snap.alive)
            again = JointState(*arrays)
            for got, want in zip((again.weights, again.cross, again.alive), arrays):
                assert_same_bits(got, want)
            for arr in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = arr[0]


def test_observed_walk_over_many_blocks_matches_reference_formula():
    """A walk of five blocks of snapshots equals the reference formula bit for
    bit at every step; capped in the middle of its third block, it delivers
    the same snapshots through the cap before it raises."""
    joint = form_joint(normalize(np.sqrt([0.5, 0.3, 0.2]) * np.exp([0.3j, -1.2j, 2.5j])))
    m, seed = 150, 2
    block = _SNAPSHOT_BYTES // (16 * 3 * 3)
    snaps = []
    run_walk(joint, WalkConfig(grid_resolution=m, seed=seed),
             observer=lambda step, s: snaps.append((step, s)))
    seen = oracle_walk(quantize_weights(joint.weights, m), np.random.default_rng(seed), 10**6)
    assert len(seen) > 4 * block
    assert [step for step, _ in snaps] == list(range(len(seen)))
    for (_, snap), k in zip(snaps, seen):
        expect = reference_sync(joint.cross, k / m, k > 0)
        for got, want in zip((snap.weights, snap.cross, snap.alive), expect):
            assert_same_bits(got, want)
    cap = 2 * block + block // 2
    capped = []
    with pytest.raises(MaxStepsExceededError):
        run_walk(joint, WalkConfig(grid_resolution=m, seed=seed, max_steps=cap),
                 observer=lambda step, s: capped.append((step, s)))
    assert [step for step, _ in capped] == list(range(cap + 1))
    for (_, got), (_, want) in zip(capped, snaps):
        for a, b in zip((got.weights, got.cross, got.alive), (want.weights, want.cross, want.alive)):
            assert_same_bits(a, b)


def skewed_joint():
    """An accepted two-state joint whose phases are 2.8e-11 from Hermitian:
    its cross terms are within 1e-12 of Hermitian, but |kappa_01| is 0.03."""
    w = np.array([0.999, 0.001])
    cross = np.zeros((2, 2), dtype=complex)
    cross[0, 1] = np.sqrt(w[0] * w[1])
    cross[1, 0] = cross[0, 1] + 0.9e-12j
    return JointState(w, cross, np.ones(2, dtype=bool))


def zero_phase_joint():
    """An accepted three-state joint with kappa_02 = kappa_12 = 0, allowed
    at w_2 = 1e-24; at M = 2**40 state 2 quantizes to one unit, where
    |kappa_02| must be 7e-7."""
    w = np.array([0.5, 0.5 - 2.0**-40, 1e-24])
    cross = np.zeros((3, 3), dtype=complex)
    cross[0, 1] = np.sqrt(w[0] * w[1]) * np.exp(0.3j)
    cross[1, 0] = np.conj(cross[0, 1])
    return JointState(w, cross, np.ones(3, dtype=bool))


@pytest.mark.parametrize("joint, config", [
    (skewed_joint(), WalkConfig(grid_resolution=1000)),
    (zero_phase_joint(), WalkConfig(grid_resolution=2**40, max_steps=50)),
], ids=["skewed", "zero-phase"])
def test_observed_walk_refuses_unsound_phases_before_drawing(joint, config):
    """An input whose phases would give snapshots JointState refuses is
    refused before the first draw, with a message naming the phases; the
    unobserved walk still runs (up to its cap at M = 2**40)."""
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    seen = []
    with pytest.raises(ValueError, match="phases"):
        run_walk(joint, config, rng=rng, observer=lambda step, s: seen.append(step))
    assert rng.bit_generator.state == state and seen == []
    with contextlib.suppress(MaxStepsExceededError):
        run_walk(joint, config, rng=rng)
    assert rng.bit_generator.state != state


class Halt(Exception):
    pass


@pytest.mark.parametrize("error", [Halt, MaxStepsExceededError])
def test_observer_error_stops_the_snapshots(error):
    """An observer that raises at step j, at and around block edges and in
    the last block: that exception propagates unchanged, and no snapshot
    after step j is delivered."""
    joint = form_joint(normalize([0.6, 0.8]))
    config = WalkConfig(grid_resolution=300, seed=2)
    block = _SNAPSHOT_BYTES // (16 * 2 * 2)
    last = run_walk(joint, config).steps_taken
    assert 2 * block < last < 3 * block
    for j in (0, 7, block - 1, block, block + 1, 2 * block, last):
        exc = error(f"stop at {j}")
        seen = []

        def observer(step, snap):
            seen.append(step)
            if step == j:
                raise exc

        with pytest.raises(error) as info:
            run_walk(joint, config, observer=observer)
        assert info.value is exc
        assert seen == list(range(j + 1))


EDGE_BLOCK = 10  # rows of one block in the block-edge tests
EDGE_ROWS = (9, 10, 11, 19, 20, 21)  # one row before each of two edges, on it, past it


def edge_seed(k0, rows, capped):
    """The first seed whose oracle walk from ``k0`` walks exactly ``rows``
    rows (step 0 included), or, if ``capped``, more than ``rows``."""
    for seed in range(10_000):
        if len(oracle_walk(k0, np.random.default_rng(seed), rows)) == rows + capped:
            return seed
    raise AssertionError(f"no seed walks {rows} rows")


def record_blocks(blocks, visit=lambda first, rows: None):
    """A visit that records each block handed over, then passes it on."""
    def record(first, rows):
        blocks.append((first, [list(k) for k in rows]))
        visit(first, rows)
    return record


def assert_blocks_are_rows(blocks, seen):
    """The blocks hand over the rows ``seen``, steps 0..end once each and in
    order, none empty and none longer than EDGE_BLOCK."""
    assert all(0 < len(rows) <= EDGE_BLOCK for _, rows in blocks)
    assert [first for first, _ in blocks] == list(itertools.accumulate(
        [0] + [len(rows) for _, rows in blocks[:-1]]))
    assert [k for _, rows in blocks for k in rows] == [k.tolist() for k in seen]


@pytest.mark.parametrize("amplitudes", [[0.6, 0.8], np.sqrt([0.5, 0.3, 0.2])])
@pytest.mark.parametrize("capped", [False, True])
def test_blocks_at_their_edges(amplitudes, capped, monkeypatch, tmp_path):
    """With blocks of 10 rows, walks that end, or are capped, one row before
    a block edge, on it and one row past it: the step loop, the observed
    run_walk and the walk command give the oracle's rows once each, in
    order, in blocks none of which is empty; a cap raises after the capped
    rows; and a caller's generator ends where the oracle leaves it."""
    m = 11  # odd, so a two-state walk can end after an odd or an even step count
    joint = form_joint(normalize(amplitudes))
    k0 = quantize_weights(joint.weights, m)
    monkeypatch.setattr("collapsewalk.walk._SNAPSHOT_BYTES", 16 * k0.size**2 * EDGE_BLOCK)
    text = ";".join(f"{float(a)!r},0" for a in amplitudes)
    command_blocks = []  # the blocks of the walk command's step loop
    walk_counts = cli._walk_counts
    monkeypatch.setattr(cli, "_walk_counts", lambda k, c, visit: walk_counts(
        k, c, visit=record_blocks(command_blocks, visit)))
    for rows in EDGE_ROWS:
        seed = edge_seed(k0, rows, capped)
        cap = rows - 1 if capped else 10**6
        config = WalkConfig(grid_resolution=m, seed=seed, max_steps=cap)
        h = np.random.default_rng(seed)
        seen = oracle_walk(k0, h, cap)
        assert len(seen) == rows

        def ends():
            return pytest.raises(MaxStepsExceededError) if capped else contextlib.nullcontext()

        blocks = []
        g = np.random.default_rng(seed)
        with ends():
            _walk_counts(k0, config, g, record_blocks(blocks))
        assert_blocks_are_rows(blocks, seen)
        assert g.bit_generator.state == h.bit_generator.state

        snaps = []
        g = np.random.default_rng(seed)
        with ends():
            run_walk(joint, config, rng=g,
                     observer=lambda step, s: snaps.append((step, s.weights.tobytes())))
        assert snaps == [(step, (k / m).tobytes()) for step, k in enumerate(seen)]
        assert g.bit_generator.state == h.bit_generator.state

        command_blocks.clear()
        out = tmp_path / f"walk{rows}.json"
        argv = ["walk", "--amplitudes", text, "--grid-resolution", str(m), "--seed", str(seed),
                "--format", "json", "--out", str(out)]
        if capped:
            argv += ["--max-steps", str(cap)]
        assert cli.main(argv) == (1 if capped else 0)
        assert_blocks_are_rows(command_blocks, seen)
        if not capped:
            trajectory = json.loads(out.read_text())["trajectory"]
            header = ["step"] + [f"w{i}" for i in range(k0.size)]
            assert [[row[key] for key in header] for row in trajectory] == [
                [step, *(k / m).tolist()] for step, k in enumerate(seen)]


BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]


def same_state(a, b):
    """Bit generator state dicts equal field by field, arrays by value."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[key], b[key]) for key in a)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("bit", BIT_GENERATORS + [np.random.PCG64DXSM])
@pytest.mark.parametrize("spare_half", [False, True])
def test_array_bounds_draw_as_scalar_draws(bit, spare_half):
    """``integers(0, bounds)`` gives the scalar draws ``integers(b)`` for
    b in bounds, in order, and leaves the same state: with bounds that
    Lemire's method rejects about 1/4 and 1/2 of the time, from a spare
    uint32 half, and with bounds of 1, which draw nothing."""
    g = np.random.Generator(bit(11))
    if spare_half:
        g.integers(3)
    h = np.random.Generator(bit(11))
    h.bit_generator.state = g.bit_generator.state
    bounds = np.tile([3 * 2**30 + 1, 2**31 + 5, 3, 1, 2], 400)
    assert g.integers(0, bounds).tolist() == [int(h.integers(b)) for b in bounds.tolist()]
    assert same_state(g.bit_generator.state, h.bit_generator.state)
    # the 1,600 draws that read the stream did not take one uint32 half each
    plain = np.random.Generator(bit(11))
    if spare_half:
        plain.integers(3)
    plain.integers(0, 2**32, size=1600)  # one half each, never rejected
    assert not same_state(g.bit_generator.state, plain.bit_generator.state)
    state = g.bit_generator.state
    assert g.integers(0, np.ones(50, dtype=np.int64)).tolist() == [0] * 50
    assert same_state(g.bit_generator.state, state)


def oracle_outcome(seen):
    """(winner, steps, elimination order) of the oracle rows ``seen``."""
    dead = [(i, 0) for i in np.flatnonzero(seen[0] == 0).tolist()]
    for step, (before, after) in enumerate(zip(seen, seen[1:]), 1):
        dead += [(i, step) for i in np.flatnonzero((before > 0) & (after == 0)).tolist()]
    return int(np.argmax(seen[-1])), len(seen) - 1, tuple(dead)


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(
    counts=st.lists(st.integers(0, 12), min_size=2, max_size=8).filter(lambda k: sum(k) >= 2),
    bit=st.sampled_from(BIT_GENERATORS),
    seed=st.integers(0, 2**32 - 1),
    spare_half=st.booleans(),
    cap=st.one_of(st.none(), st.sampled_from([64, 128, 256]), st.integers(1, 600)),
    cap_at_death=st.booleans(),
    block=st.sampled_from([None, 1, 3, 10]),
)
def test_run_loop_walks_as_the_step_oracle(counts, bit, seed, spare_half, cap, cap_at_death, block):
    """_walk_counts on 2 to 8 states, some at zero, over four bit generators,
    some holding a spare uint32 half: the rows it hands over, its outcome
    and the whole state it leaves are the step oracle's.  Runs are cut by a
    death, by the cap (which falls mid-run, on the 64, 128 and 256 step
    edges of runs without a death, or on the step of a death) or, with
    ``block`` rows of snapshots, by the run length 2 N ``block``."""
    k0 = np.array(counts, dtype=np.int64)
    g = np.random.Generator(bit(seed))
    if spare_half:
        g.integers(3)
    start = g.bit_generator.state
    h = np.random.Generator(bit(seed))
    if cap_at_death:
        h.bit_generator.state = start
        deaths = [step for _, step in oracle_outcome(oracle_walk(k0, h, 10**6))[2] if step]
        cap = deaths[0] if deaths else cap
    cap = cap or 10**6
    h.bit_generator.state = start
    seen = oracle_walk(k0, h, cap)
    capped = np.count_nonzero(seen[-1]) > 1
    blocks = []
    snapshot = _SNAPSHOT_BYTES if block is None else 16 * k0.size**2 * block
    with mock.patch("collapsewalk.walk._SNAPSHOT_BYTES", snapshot):
        with pytest.raises(MaxStepsExceededError) if capped else contextlib.nullcontext():
            out = _walk_counts(k0, WalkConfig(grid_resolution=int(k0.sum()), max_steps=cap), g,
                               lambda first, rows: blocks.append((first, rows.tolist())))
    assert [first for first, _ in blocks] == list(itertools.accumulate(
        [0] + [len(rows) for _, rows in blocks[:-1]]))
    assert all(0 < len(rows) <= max(1, snapshot // (16 * k0.size**2)) for _, rows in blocks)
    assert [k for _, rows in blocks for k in rows] == [k.tolist() for k in seen]
    if not capped:
        assert (out.winner, out.steps_taken, out.elimination_order) == oracle_outcome(seen)
    assert same_state(g.bit_generator.state, h.bit_generator.state)


# ------------------------------------------------------------ born_statistics

def test_born_statistics_vertex_start_exact():
    stats = born_statistics(normalize([1.0, 0.0]), 500, WalkConfig(grid_resolution=100, seed=0))
    assert stats.frequencies.tolist() == [1.0, 0.0]
    assert stats.winner_counts.tolist() == [500, 0]


def test_born_statistics_two_state_frequency():
    state = normalize([np.sqrt(0.3), np.sqrt(0.7)])
    stats = born_statistics(state, 20_000, WalkConfig(grid_resolution=100, seed=5))
    se = np.sqrt(0.3 * 0.7 / 20_000)
    assert abs(stats.frequencies[0] - 0.3) < 4 * se
    assert np.allclose(
        stats.stderr,
        np.sqrt(stats.frequencies * (1 - stats.frequencies) / stats.trials),
    )


def test_born_statistics_matches_reference_engine():
    """Vectorized kernels and the step-by-step reference draw from the same
    distribution: compare winner frequencies by a two-proportion z-test."""
    state = normalize([np.sqrt(0.35), np.sqrt(0.65)])
    joint = form_joint(state)
    config = WalkConfig(grid_resolution=20, seed=42)
    trials = 2500
    ref = sum(
        run_walk(joint, config, rng=trial_rng(1000 + config.seed, t)).winner == 0
        for t in range(trials)
    ) / trials
    fast = born_statistics(state, trials, config).frequencies[0]
    z = abs(ref - fast) / np.sqrt(2 * 0.35 * 0.65 / trials)
    assert z < 4.0


def test_born_statistics_three_states_match_chain_solve():
    state = normalize(np.sqrt([0.5, 0.3, 0.2]))
    exact = chain_solve([5, 3, 2])
    assert np.allclose(exact, [0.5, 0.3, 0.2], atol=1e-12)
    stats = born_statistics(state, 20_000, WalkConfig(grid_resolution=10, seed=3))
    for freq, p in zip(stats.frequencies, exact):
        assert abs(freq - p) < 4 * np.sqrt(p * (1 - p) / stats.trials)


def test_born_statistics_equal_thirds():
    state = normalize([1.0, 1.0, 1.0])
    stats = born_statistics(state, 20_000, WalkConfig(grid_resolution=99, seed=17))
    se = np.sqrt((1 / 3) * (2 / 3) / stats.trials)
    assert np.all(np.abs(stats.frequencies - 1 / 3) < 4 * se)


def test_born_statistics_deterministic_across_workers():
    state = normalize([np.sqrt(0.3), np.sqrt(0.7)])
    config = WalkConfig(grid_resolution=50, seed=12)
    base = born_statistics(state, 4000, config)
    for workers in (1, 2, 8):
        again = born_statistics(state, 4000, config, workers=workers)
        assert np.array_equal(base.winner_counts, again.winner_counts)


def test_born_statistics_excluded_trials_fail_loudly():
    state = normalize([1.0, 1.0])
    config = WalkConfig(grid_resolution=100, max_steps=10, seed=0)
    with pytest.raises(MaxStepsExceededError):
        born_statistics(state, 200, config)


def test_born_statistics_workers_deprecated_same_counts():
    state = normalize([np.sqrt(0.3), np.sqrt(0.7)])
    config = WalkConfig(grid_resolution=50, seed=12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base = born_statistics(state, 500, config, workers=1)
    with pytest.warns(DeprecationWarning, match="workers"):
        again = born_statistics(state, 500, config, workers=2)
    assert np.array_equal(base.winner_counts, again.winner_counts)
    assert base.mean_steps == again.mean_steps


def test_zeroed_weight_warns_and_keeps_draws():
    """At M >= 10 N a positive weight that quantizes to zero is exempt from
    DegenerateGridError; born_statistics and run_walk warn, naming the state
    and M, and return what they returned before the warning."""
    state = normalize([0.02, 0.7, 0.7139])
    config = WalkConfig(grid_resolution=1000, seed=0)
    named = r"states \[0\] quantize to zero at M=1000"
    with pytest.warns(RuntimeWarning, match=named):
        stats = born_statistics(state, 200, config)
    assert stats.winner_counts.tolist() == [0, 91, 109]
    with pytest.warns(RuntimeWarning, match=named):
        outcome = run_walk(form_joint(state), config)
    assert (outcome.winner, outcome.steps_taken) == (2, 575794)
    assert outcome.elimination_order == ((0, 0), (1, 575794))


@pytest.mark.parametrize(
    "counts, m",
    [
        ((300, 700), 1000),
        ((50, 30, 20), 100),
        ((10, 6, 4), 20),
        ((40, 35, 30, 25, 25, 20, 15, 10), 200),
        ((0, 3, 7), 10),
    ],
)
def test_exact_grid_weights_do_not_warn(counts, m):
    """Weights that are multiples of 1/M, as the benchmark's, keep every
    positive weight on the grid; a zero weight is not a dropped one."""
    state = normalize(np.sqrt(np.array(counts) / m))
    config = WalkConfig(grid_resolution=m, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        born_statistics(state, 20, config)
        run_walk(form_joint(state), config)


# (grid weights, M, seed, trials) -> (winner counts, total steps), recorded
# from the per-trial trial_rng loop; seeds at and beyond 2**32 take two and
# more entropy words.
BORN_GOLDEN = [
    ((300, 700), 1000, 2**63 + 5, 300, [82, 218], 63187636),
    ((50, 30, 20), 100, 2**32, 300, [151, 93, 56], 928021),
    ((13, 51), 64, 0, 2000, [404, 1596], 1287814),
    ((40, 35, 30, 25, 25, 20, 15, 10), 200, 2**64 - 1, 30,
     [9, 3, 5, 2, 5, 1, 2, 3], 518813),
    # zero weights: two or three alive states among more, and a single one
    ((40, 0, 60), 100, 7, 300, [111, 0, 189], 680054),
    ((0, 37, 0, 63), 100, 2**40, 300, [0, 119, 0, 181], 697406),
    ((0, 30, 20, 0, 50), 100, 2**63, 300, [0, 86, 56, 0, 158], 1010591),
    ((0, 64), 64, 3, 200, [0, 200], 0),
    ((100, 0, 0), 100, 1, 50, [50, 0, 0], 0),
    # M = 1000 and 3000 batches from 2 to 301 trials, odd counts included
    ((500, 500), 1000, 11, 2, [1, 1], 478012),
    ((300, 700), 1000, 2**40 + 3, 3, [1, 2], 423862),
    ((250, 250, 500), 1000, 77, 129, [32, 35, 62], 40107956),
    ((300, 700), 1000, 9, 301, [88, 213], 64915236),
    ((1500, 1500), 3000, 4, 2, [1, 1], 4954142),
    # N >= 4 batches of a few ms: the bench's eight-state shape, four and five
    # states at 20 and 19 trials and four at 19, and four alive among eight
    ((40, 35, 30, 25, 25, 20, 15, 10), 200, 3, 25, [4, 3, 2, 3, 3, 2, 5, 3], 494225),
    ((25, 25, 25, 25), 100, 2**32 + 1, 20, [7, 3, 5, 5], 67130),
    ((20, 20, 20, 20, 20), 100, 6, 19, [5, 5, 5, 1, 3], 69110),
    ((25, 25, 25, 25), 100, 2**63 + 1, 19, [4, 7, 5, 3], 74049),
    ((0, 50, 0, 50, 0, 50, 0, 50), 200, 12, 25, [0, 5, 0, 9, 0, 7, 0, 4], 383404),
    # a few ms of short walks: the bench's three-state batch, and 1,000
    # two-state trials at M = 100
    ((50, 30, 20), 100, 601, 100, [52, 30, 18], 276653),
    ((30, 70), 100, 70, 1000, [312, 688], 2205788),
]

# steps_stderr of each BORN_GOLDEN row, by (grid weights, M, seed, trials):
# it comes from the sum of squared steps, so it pins that sum as exactly as
# the total pins the sum of steps
BORN_GOLDEN_STEPS_STDERR = {
    ((300, 700), 1000, 2**63 + 5, 300): 10957.749910463892,
    ((50, 30, 20), 100, 2**32, 300): 117.95829895368773,
    ((13, 51), 64, 0, 2000): 17.11773741306284,
    ((40, 35, 30, 25, 25, 20, 15, 10), 200, 2**64 - 1, 30): 1935.4458702101203,
    ((40, 0, 60), 100, 7, 300): 118.61137148878743,
    ((0, 37, 0, 63), 100, 2**40, 300): 116.05020050045033,
    ((0, 30, 20, 0, 50), 100, 2**63, 300): 137.05527017803757,
    ((0, 64), 64, 3, 200): 0.0,
    ((100, 0, 0), 100, 1, 50): 0.0,
    ((500, 500), 1000, 11, 2): 1332.0,
    ((300, 700), 1000, 2**40 + 3, 3): 40586.35518386827,
    ((250, 250, 500), 1000, 77, 129): 20577.431944896918,
    ((300, 700), 1000, 9, 301): 12228.028939677606,
    ((1500, 1500), 3000, 4, 2): 1794479.0,
    ((40, 35, 30, 25, 25, 20, 15, 10), 200, 3, 25): 2078.714993291128,
    ((25, 25, 25, 25), 100, 2**32 + 1, 20): 310.6981146081396,
    ((20, 20, 20, 20, 20), 100, 6, 19): 351.87246169787636,
    ((25, 25, 25, 25), 100, 2**63 + 1, 19): 305.33159093802607,
    ((0, 50, 0, 50, 0, 50, 0, 50), 200, 12, 25): 1457.8796585909736,
    ((50, 30, 20), 100, 601, 100): 206.0022891188887,
    ((30, 70), 100, 70, 1000): 67.93419759044967,
}


@pytest.mark.parametrize("k, m, seed, trials, counts, total", BORN_GOLDEN)
def test_born_statistics_golden_counts_and_steps(k, m, seed, trials, counts, total):
    state = normalize(np.sqrt(np.array(k) / m))
    stats = born_statistics(state, trials, WalkConfig(grid_resolution=m, seed=seed))
    assert stats.winner_counts.tolist() == counts
    assert stats.mean_steps == total / trials
    assert stats.steps_stderr == BORN_GOLDEN_STEPS_STDERR[k, m, seed, trials]
    assert stats.expected_steps == (m * m - sum(ki * ki for ki in k)) / 2


def test_born_statistics_golden_with_excluded_trials():
    """At max_steps = 10**6, 3 of 301 walks from (300, 700) at M = 1000
    hit the cap (trials 42, 69 and 180, the 1% limit exactly); the counts
    and step sums of the other 298 are pinned."""
    state = normalize(np.sqrt([0.3, 0.7]))
    config = WalkConfig(grid_resolution=1000, max_steps=10**6, seed=9)
    stats = born_statistics(state, 301, config)
    assert (stats.trials, stats.excluded) == (298, 3)
    assert stats.winner_counts.tolist() == [87, 211]
    assert stats.mean_steps == 61490790 / 298
    assert stats.steps_stderr == 11081.426577434942


# ---------------------------------------------------------------- helper process

# 301 walks of 210,000 expected two-state steps, an estimated 32 ms of kernel
# time: over _SPLIT_NS, so a helper process takes trials 0-149; the outcome
# is BORN_GOLDEN's, recorded in one process
SPLIT_BATCH = (normalize(np.sqrt([0.3, 0.7])), 301)
SPLIT_OUTCOME = ([88, 213], 64915236 / 301, 12228.028939677606, 0)

_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
needs_helper = pytest.mark.skipif(
    not hasattr(os, "fork") or (_CPUS or 1) < 2, reason="no fork or no second CPU"
)


def _split_outcome(seed=9):
    stats = born_statistics(*SPLIT_BATCH, WalkConfig(grid_resolution=1000, seed=seed))
    return stats.winner_counts.tolist(), stats.mean_steps, stats.steps_stderr, stats.excluded


def _gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def _exit_code(pid, timeout=60.0):
    """The exit code of the forked child ``pid``, killing it after ``timeout``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    raise AssertionError(f"forked child {pid} did not finish in {timeout} s")


@needs_helper
def test_split_batch_runs_on_a_helper_with_the_serial_outcome():
    _helper.discard()
    assert _split_outcome() == SPLIT_OUTCOME
    helper = _helper._HELPERS[os.getpid()].pid
    assert _split_outcome() == SPLIT_OUTCOME
    assert _helper._HELPERS[os.getpid()].pid == helper  # kept for the next call
    if os.path.isdir(f"/proc/{helper}/fd"):
        stdio = [os.readlink(f"/proc/{helper}/fd/{fd}") for fd in range(3)]
        assert stdio == [os.devnull] * 3


@needs_helper
def test_helper_leaves_at_end_of_file():
    """It holds no writing end of its own request pipe, so closing this
    process's end (as the exit of this process does) ends it."""
    _split_outcome()
    helper = _helper._HELPERS.pop(os.getpid())
    os.close(helper.requests)
    os.close(helper.replies)
    assert _exit_code(helper.pid) == 0


@needs_helper
def test_killed_helper_gives_the_serial_outcome():
    _split_outcome()
    helper = _helper._HELPERS[os.getpid()].pid
    os.kill(helper, signal.SIGKILL)
    assert _split_outcome() == SPLIT_OUTCOME
    assert os.getpid() not in _helper._HELPERS and _gone(helper)
    assert _split_outcome() == SPLIT_OUTCOME  # on a new helper
    assert _helper._HELPERS[os.getpid()].pid != helper


@needs_helper
def test_interrupted_call_discards_the_helper(monkeypatch):
    """The helper's reply to an interrupted call (seed 10) must not be read
    by the next one (seed 9)."""
    _split_outcome()
    helper = _helper._HELPERS[os.getpid()].pid
    born_counts = walk._born_counts

    def interrupted(*args):
        if args[-2] > 0:  # this process's half
            raise KeyboardInterrupt
        return born_counts(*args)

    monkeypatch.setattr(walk, "_born_counts", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _split_outcome(seed=10)
    monkeypatch.undo()
    assert os.getpid() not in _helper._HELPERS and _gone(helper)
    assert _split_outcome() == SPLIT_OUTCOME


@needs_helper
def test_forked_child_forks_its_own_helper():
    _split_outcome()
    helper = _helper._HELPERS[os.getpid()].pid
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            own = _split_outcome() == SPLIT_OUTCOME and _helper._HELPERS[os.getpid()].pid != helper
            _helper.discard()
            code = 0 if own else 2
        finally:
            os._exit(code)
    assert _exit_code(pid) == 0
    assert _helper._HELPERS[os.getpid()].pid == helper
    assert _split_outcome() == SPLIT_OUTCOME


@needs_helper
def test_helper_holds_no_output_and_outlives_no_process(tmp_path):
    """A process with unflushed output makes a split call and exits: its
    output is written once, its stdout pipe closes on exit (or the run would
    time out), its atexit hook runs once, and its helper is reaped."""
    exits = tmp_path / "exits"
    script = (
        "import atexit, os, sys\n"
        f"atexit.register(lambda: open({str(exits)!r}, 'a').write('exit'))\n"
        "print('x', end='')\n"
        "import numpy as np\n"
        "from collapsewalk import WalkConfig, _helper, born_statistics, normalize\n"
        "state = normalize(np.sqrt([0.3, 0.7]))\n"
        "born_statistics(state, 301, WalkConfig(grid_resolution=1000, seed=9))\n"
        "sys.stderr.write(str(_helper._HELPERS[os.getpid()].pid))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "x"
    assert exits.read_text() == "exit"
    assert _gone(int(proc.stderr))


@needs_helper
def test_split_call_warns_nothing():
    _helper.discard()  # the call below forks
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _split_outcome() == SPLIT_OUTCOME
    assert os.getpid() in _helper._HELPERS


def _born_outcome(k, m, seed, trials):
    state = normalize(np.sqrt(np.array(k) / m))
    stats = born_statistics(state, trials, WalkConfig(grid_resolution=m, seed=seed))
    return stats.winner_counts.tolist(), stats.mean_steps, stats.steps_stderr, stats.excluded


@needs_helper
@pytest.mark.parametrize("k, m, seed, trials", [
    ((40, 35, 30, 25, 25, 20, 15, 10), 200, 3, 25),  # the bench's eight states, 6.2 ms
    ((25, 25, 25, 25), 100, 2**32 + 1, 20),  # 2.23 ms estimated
    ((20, 20, 20, 20, 20), 100, 6, 19),  # 2.17 ms
    ((0, 50, 0, 50, 0, 50, 0, 50), 200, 12, 25),  # four alive among eight, 5.6 ms
    ((500, 300, 200), 1000, 8, 100),  # three states at M = 1000, 107 ms
    ((25, 25, 25, 25), 100, 2**63 + 1, 19),  # 2.12 ms, just over the floor
    ((50, 30, 20), 100, 601, 100),  # the bench's three states, 3.3 ms
    ((50, 30, 20), 100, 601, 64),  # 2.12 ms, just over
    ((30, 70), 100, 70, 1000),  # two states at M = 100, 7.5 ms
])
def test_batch_over_the_time_floor_splits_with_the_one_process_outcome(
    k, m, seed, trials, monkeypatch
):
    with monkeypatch.context() as patch:
        patch.setattr(_helper, "current", lambda: None)
        want = _born_outcome(k, m, seed, trials)
    _helper.discard()
    assert _born_outcome(k, m, seed, trials) == want
    assert isinstance(_helper._HELPERS[os.getpid()], _helper.Helper)


@needs_helper
@pytest.mark.parametrize("k, m, trials", [
    ((50, 30, 20), 100, 63),  # 2.08 ms estimated, just under the floor
    ((0, 100, 0), 100, 5000),  # one alive state: no step
    ((25, 25, 25, 25), 100, 18),  # 2.01 ms, just under
    ((40, 35, 30, 25, 25, 20, 15, 10), 200, 4),  # 0.99 ms
    ((300, 700), 1000, 25),  # 2.09 ms, just under
])
def test_batch_under_the_time_floor_forks_nothing(k, m, trials):
    _helper.discard()
    _born_outcome(k, m, 1, trials)
    assert os.getpid() not in _helper._HELPERS


def test_kernel_estimate_per_trial_and_step():
    """No walk steps with fewer than two alive states; the estimate grows
    with trials; the bench's three-state and two-state batches reach the
    floor; batches that measured slower split stay under it (four states at
    M = 100 and 6 trials, +32%; two states at M = 1000 and 10 trials, +3%)."""
    for k in [(0, 100, 0), (100,), (0, 0, 0)]:
        assert walk._kernel_ns(np.array(k), 1000) == 0
    for k in [(6, 14), (50, 30, 20), (25, 25, 25, 25), (40, 35, 30, 25, 25, 20, 15, 10)]:
        times = [walk._kernel_ns(np.array(k), t) for t in range(1, 200)]
        assert times == sorted(times) and times[0] > 0
    assert walk._kernel_ns(np.array([50, 30, 20]), 100) >= walk._SPLIT_NS
    assert walk._kernel_ns(np.array([300, 700]), 100) >= walk._SPLIT_NS
    assert walk._kernel_ns(np.array([25, 25, 25, 25]), 6) < walk._SPLIT_NS
    assert walk._kernel_ns(np.array([300, 700]), 10) < walk._SPLIT_NS


def test_no_helper_while_other_threads_run():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert _helper.current() is None
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_born_statistics_mean_steps_matches_oracle():
    """E[T] = (M^2 - sum k_i^2) / 2 = 3100 for [.5, .3, .2] at M = 100."""
    state = normalize(np.sqrt([0.5, 0.3, 0.2]))
    stats = born_statistics(state, 4000, WalkConfig(grid_resolution=100, seed=2718))
    assert stats.expected_steps == 3100
    assert 0 < stats.steps_stderr < 100
    assert abs(stats.mean_steps - 3100) < 4 * stats.steps_stderr


def test_born_statistics_expected_steps_exact_at_large_m():
    """At M = 2**33 the squared counts overflowed int64 and E[T] read
    3.69e19; (M^2 - 1 - (M - 1)^2) / 2 = M - 1 exactly."""
    m = 2**33
    state = normalize(np.sqrt([1 / m, 1 - 1 / m]))
    config = WalkConfig(grid_resolution=m, max_steps=10**6, seed=5)
    assert quantize_weights(state.weights(), m).tolist() == [1, m - 1]
    stats = born_statistics(state, 100, config)
    assert stats.expected_steps == 8_589_934_591


def test_born_statistics_vertex_start_takes_no_steps():
    stats = born_statistics(normalize([0.0, 1.0]), 10, WalkConfig(grid_resolution=40))
    assert (stats.mean_steps, stats.steps_stderr, stats.expected_steps) == (0, 0, 0)


def test_walk_config_defaults():
    config = WalkConfig(grid_resolution=200)
    assert config.max_steps == 100 * 200**2
    with pytest.raises(ValueError):
        WalkConfig(grid_resolution=1)


@pytest.mark.parametrize("field, value", [
    ("max_steps", 2.5),
    ("max_steps", 2.0),
    ("grid_resolution", 10.5),
    ("grid_resolution", np.float64(10.0)),
    ("grid_resolution", "10"),
    ("seed", 1.5),
    ("seed", None),
])
def test_walk_config_refuses_non_integers(field, value):
    """A float cap would never be reached by whole step counts, and a float
    M or seed fails deep inside the kernels; each is refused up front."""
    with pytest.raises(ValueError, match=field):
        WalkConfig(**{"grid_resolution": 10, field: value})


def test_born_statistics_refuses_non_integer_trials():
    """A float or string trial count is refused by name, not by ``range``
    or a comparison deep inside; a numpy integer still runs."""
    state = normalize([0.6, 0.8])
    config = WalkConfig(grid_resolution=10, seed=1)
    for trials in (2.5, "3"):
        with pytest.raises(ValueError, match="trials"):
            born_statistics(state, trials, config)
    assert born_statistics(state, np.int64(3), config).trials == 3


def test_walk_config_stores_numpy_ints_as_python_ints():
    config = WalkConfig(grid_resolution=np.int64(10), max_steps=np.uint32(2), seed=np.int16(3))
    assert [type(v) for v in (config.grid_resolution, config.max_steps, config.seed)] == [int] * 3
    assert (config.grid_resolution, config.max_steps, config.seed) == (10, 2, 3)
    # k = [4, 6] cannot be absorbed in two steps, so every trial hits the cap
    with pytest.raises(MaxStepsExceededError):
        born_statistics(normalize([0.6, 0.8]), 10, config)


# ------------------------------------------------------------------- kernels

def step_by_step_two_state(k0, m, max_steps, rng):
    """Oracle for the two-state kernel: one raw word at a time, one step per
    bit, least significant bit first, 1 = up.  Absorption at step s counts
    when s <= max_steps; otherwise the result is (-1, max_steps)."""
    pos, steps = k0, 0
    if pos <= 0:
        return 1, 0
    if pos >= m:
        return 0, 0
    while True:
        word = int(rng.bit_generator.random_raw())
        for bit in range(64):
            if steps == max_steps:
                return -1, max_steps
            pos += 1 if (word >> bit) & 1 else -1
            steps += 1
            if pos == 0:
                return 1, steps
            if pos == m:
                return 0, steps


def two_state(k0, m, cap, rng):
    """_two_state_block on one row, as a (winner, steps) pair."""
    won, steps = _two_state_block(np.array([k0]), np.array([cap]), [rng], m)
    return int(won[0]), int(steps[0])


def check_both_passes(k0, m, cap, seed, rows):
    """_two_state_block against the bitwise oracle on ``rows`` streams, one
    row at a time (the one-row pass) and as one block (the block pass
    wherever a block holds two draws)."""
    streams = [(seed, t) for t in range(rows)]
    expect = [step_by_step_two_state(k0, m, cap, trial_rng(*s)) for s in streams]
    alone = [two_state(k0, m, cap, trial_rng(*s)) for s in streams]
    block = _two_state_block(
        np.full(rows, k0), np.full(rows, cap), [trial_rng(*s) for s in streams], m
    )
    assert alone == expect, (m, k0, cap)
    assert list(zip(*(a.tolist() for a in block))) == expect, (m, k0, cap)


@pytest.mark.parametrize("m", [2, 3, 64, 65, 100, 129, 1000])
def test_two_state_kernel_matches_bitwise_oracle(m):
    """Caps around one byte (8 steps), one word (64) and the first draw."""
    for k0 in sorted({1, m // 2, m - 1}):
        draw = 64 * _words_per_draw(k0 * (m - k0))
        for cap in (1, 7, 8, 9, 63, 64, 65, draw - 1, draw, draw + 1, 100 * m * m):
            check_both_passes(k0, m, cap, 1000 * m + k0, 4)


@pytest.mark.parametrize("m", [4, 8, 9, 10, 17, 66, 130])
def test_two_state_kernel_matches_bitwise_oracle_at_byte_edges(m):
    """Caps and grids around one byte (8 steps) of a word."""
    for k0 in sorted({1, 2, m // 2, m - 2, m - 1} - {0, m}):
        for cap in (7, 8, 9, 15, 16, 17, 100 * m * m):
            check_both_passes(k0, m, cap, 7000 + 100 * m + k0, 3)


def bit_walk(byte):
    """Positions after each of the 8 steps of a byte, bit 0 first, 1 = up."""
    pos, path = 0, []
    for bit in range(8):
        pos += 1 if (byte >> bit) & 1 else -1
        path.append(pos)
    return path


def test_byte_tables_match_bit_walk():
    for byte in range(256):
        path = bit_walk(byte)
        net = path[-1]
        assert _BYTE_NET[byte] == net
        assert _BYTE_LOW[byte] == min(path) - net
        assert _BYTE_HIGH[byte] == max(path) - net
        for d in range(10):
            down = next((s + 1 for s, p in enumerate(path) if p == -d), 9)
            up = next((s + 1 for s, p in enumerate(path) if p == d), 9)
            assert _BYTE_DOWN[byte, d] == down, (byte, d)
            assert _BYTE_UP[byte, d] == up, (byte, d)


SEED_CASES = [0, 1, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1]
INDEX_RANGES = [(0, 40), (10**6, 10**6 + 40), (2**32 - 2, 2**32 + 3)]


@pytest.mark.parametrize("seed", SEED_CASES)
def test_trial_seed_words_match_trial_rng(seed):
    for lo, hi in INDEX_RANGES:
        words = _trial_seed_words(seed, lo, hi)
        assert words.shape == (hi - lo, 4) and words.dtype == np.uint64
        for row, t in zip(words, range(lo, hi)):
            seq = np.random.SeedSequence(entropy=seed, spawn_key=(t,))
            assert np.array_equal(row, seq.generate_state(4, np.uint64)), t
            assert (np.random.PCG64(_SeedWords(row)).state
                    == trial_rng(seed, t).bit_generator.state), t


def test_trial_seed_words_reject_seeds_beyond_the_pool():
    words = _trial_seed_words(2**128 - 1, 0, 2)
    assert np.array_equal(
        words[1],
        np.random.SeedSequence(entropy=2**128 - 1, spawn_key=(1,)).generate_state(4, np.uint64),
    )
    with pytest.raises(ValueError):
        _trial_seed_words(2**128, 0, 2)


def test_trial_rngs_follow_trial_rng_across_blocks():
    trials = _SEED_BLOCK + 3
    rngs = _trial_rngs(99, 0, _SEED_BLOCK) + _trial_rngs(99, _SEED_BLOCK, trials)
    for t, rng in enumerate(rngs):
        assert rng.bit_generator.state == trial_rng(99, t).bit_generator.state, t
    assert t == trials - 1


# (seed, t) -> (winner, steps, eliminations) of _first_passage_multi under the
# default cap 100 M^2; fixed so that any change to the N-state kernel or its
# two-state tail that alters a single draw or step shows up here.
MULTI_GOLDEN = {
    ((5, 3, 2), 10): {
        (0, 0): (1, 17, [(2, 2), (0, 17)]),
        (7, 3): (1, 25, [(0, 9), (2, 25)]),
        (2024, 11): (0, 28, [(1, 10), (2, 28)]),
    },
    ((50, 30, 20), 100): {
        (0, 0): (1, 2958, [(2, 566), (0, 2958)]),
        (7, 3): (1, 5998, [(2, 2629), (0, 5998)]),
        (2024, 11): (2, 4123, [(1, 284), (0, 4123)]),
    },
    ((40, 35, 30, 25, 25, 20, 15, 10), 200): {
        (0, 0): (0, 10199, [(7, 163), (6, 1286), (3, 1737), (5, 3481),
                            (4, 4018), (1, 8256), (2, 10199)]),
        (7, 3): (0, 24262, [(7, 3515), (6, 3523), (1, 4106), (2, 6212),
                            (3, 8945), (5, 12204), (4, 24262)]),
        (2024, 11): (0, 14127, [(2, 1344), (1, 2043), (7, 3308), (5, 6050),
                                (4, 6873), (6, 9878), (3, 14127)]),
    },
}


@pytest.mark.parametrize("k0, m", list(MULTI_GOLDEN))
def test_multi_kernel_golden_outcomes(k0, m):
    for (seed, t), expect in MULTI_GOLDEN[(k0, m)].items():
        got = _first_passage_multi(np.array(k0), m, 100 * m * m, trial_rng(seed, t))
        assert got == expect, (seed, t)


@pytest.mark.parametrize(
    "k0, m",
    [((50, 30, 20), 100), ((40, 35, 30, 25, 25, 20, 15, 10), 200)],
)
def test_multi_kernel_mean_exit_time(k0, m):
    """E[T] = (M^2 - sum k_i^2) / 2 by optional stopping of the martingale
    sum k_i^2 - 2t, for any number of states."""
    trials = 4000
    steps = np.empty(trials)
    for t in range(trials):
        winner, steps[t], _ = _first_passage_multi(
            np.array(k0), m, 100 * m * m, trial_rng(77, t)
        )
        assert winner >= 0
    expect = (m * m - sum(k * k for k in k0)) / 2
    assert abs(steps.mean() - expect) < 4 * steps.std(ddof=1) / np.sqrt(trials)


def longest_batch(n):
    """The N-state kernel's longest batch: 2**14 steps, capped so that the
    (batch, ceil(n / 4)) uint64 path stays within _BATCH_BYTES."""
    return max(1, min(1 << 14, _BATCH_BYTES // (8 * -(-n // 4))))


def matrix_first_phase(k0, m, max_steps, rng, batches=None):
    """Oracle for _multi_first_phase: the same draws and batch sizes, with
    each batch's path built as an (n, batch) int32 matrix of per-state net
    moves, one cumsum per row and an exact test against -k_i.  A list
    ``batches`` gets (first step, batch size, row of the death or -1) of
    every batch."""
    k = np.array(k0, dtype=np.int64)
    alive_idx = np.flatnonzero(k > 0)
    eliminations = [(int(i), 0) for i in np.flatnonzero(k == 0)]
    steps = 0
    while alive_idx.size > 2 and steps < max_steps:
        n = alive_idx.size
        k_min = int(k[alive_idx].min())
        batch = min(max(k_min * (m - k_min) * n // 4, 64), longest_batch(n))
        hit_row = -1
        while hit_row < 0 and steps < max_steps:
            src = rng.integers(n, size=batch)
            dst = rng.integers(n - 1, size=batch)
            dst += dst >= src
            moved = np.zeros((n, batch), dtype=np.int32)
            cols = np.arange(batch)
            moved[src, cols] = -1
            moved[dst, cols] = 1
            np.cumsum(moved, axis=1, out=moved)
            dead_mask = moved == -k[alive_idx, None]
            any_dead = dead_mask.any(axis=0)
            r = int(np.argmax(any_dead))
            if batches is not None:
                batches.append((steps, batch, r if any_dead[r] else -1))
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
                batch = min(batch * 2, longest_batch(n))
    return k.tolist(), alive_idx.tolist(), steps, eliminations


def matrix_multi(k0, m, max_steps, rng):
    """Oracle for _first_passage_multi: matrix_first_phase, then the
    two-state kernel (itself pinned to the bitwise oracle)."""
    k, alive, steps, eliminations = matrix_first_phase(k0, m, max_steps, rng)
    if len(alive) == 1:
        return alive[0], steps, eliminations
    if steps >= max_steps:
        return -1, max_steps, eliminations
    i, j = alive
    winner01, tail = two_state(k[i], m, max_steps - steps, rng)
    if winner01 < 0:
        return -1, max_steps, eliminations
    steps += tail
    winner, loser = (i, j) if winner01 == 0 else (j, i)
    eliminations.append((loser, steps))
    return winner, steps, eliminations


def _first_passage_multi(k0, m, max_steps, rng):
    """First passage to a simplex vertex for N >= 3 quantized weights, one
    trial: _multi_first_phase, then the two-state kernel once only two
    states remain.  Returns (winner, steps, eliminations) with winner -1 on
    a cap hit."""
    k, alive, steps, eliminations = _multi_first_phase(k0, m, max_steps, rng)
    if len(alive) == 1:
        return alive[0], steps, eliminations
    if steps >= max_steps:
        return -1, max_steps, eliminations
    i, j = alive
    winner01, tail = two_state(k[i], m, max_steps - steps, rng)
    if winner01 < 0:
        return -1, max_steps, eliminations
    steps += tail
    winner, loser = (i, j) if winner01 == 0 else (j, i)
    eliminations.append((loser, steps))
    return winner, steps, eliminations


def random_multi_cases(count, sizes, seed, alpha=0.7):
    """(k0, m, cap) with some zero weights, grids from N to max(100, 4N)
    and caps from one step to 100 M^2; a larger ``alpha`` leaves fewer
    states at zero."""
    gen = np.random.default_rng(seed)
    for case in range(count):
        n = int(gen.choice(sizes))
        m = int(gen.integers(n, max(101, 4 * n + 1)))
        k0 = gen.multinomial(m, gen.dirichlet(np.full(n, alpha)))
        if case % 5 == 0:
            k0[gen.integers(n)] = 0
            k0[gen.integers(n)] += m - k0.sum()
        cap = int(gen.choice([1, 7, 63, 64, 65, 500, 4000, 100 * m * m]))
        yield k0, m, cap


def test_multi_first_phase_matches_matrix_oracle():
    batches = set()
    for case, (k0, m, cap) in enumerate(random_multi_cases(300, range(3, 10), 61)):
        expect = matrix_first_phase(k0, m, cap, trial_rng(61, case))
        got = _multi_first_phase(k0, m, cap, trial_rng(61, case))
        assert got == expect, (case, k0.tolist(), m, cap)
        alive = k0[k0 > 0]
        batches.add(min(max(alive.min() * (m - alive.min()) * alive.size // 4, 64), 1 << 14))
    assert any(b % 2 for b in batches)  # odd batch sizes were exercised


def test_multi_first_phase_matches_matrix_oracle_at_slice_edges():
    """A batch is read in two slices, its first max(64, batch // 3) steps
    and then the rest.  Deaths on either side of the cut, batches without a
    death and caps before, at and past the cut all give the oracle's outputs
    and leave the stream where the oracle leaves it.  The caps fall in
    batches read past their cut."""
    kinds = {"death ends slice", "death starts rest", "no death",
             "cap in slice", "cap at cut", "cap in rest"}
    found = set()
    gen = np.random.default_rng(64)
    for t in range(20_000):
        n = int(gen.integers(3, 7))
        m = int(gen.integers(4 * n, 40))
        k0 = gen.multinomial(m - n, np.full(n, 1 / n)) + 1
        batch = first_batch(k0, m)
        cut = min(max(64, batch // 3), batch)
        cap = [cut // 2, cut, (cut + batch) // 2, 100 * m * m][t % 4]
        oracle, rng, batches = trial_rng(64, t), trial_rng(64, t), []
        expect = matrix_first_phase(k0, m, cap, oracle, batches)
        assert _multi_first_phase(k0, m, cap, rng) == expect, t
        assert rng.bit_generator.state == oracle.bit_generator.state, t
        for start, size, dead in batches:
            cut = max(64, size // 3)
            if cut >= size:
                continue
            rest = dead < 0 or dead >= cut  # the batch is read past its cut
            cases = {
                "death ends slice": dead == cut - 1,
                "death starts rest": dead == cut,
                "no death": dead < 0,
                "cap in slice": rest and start < cap < start + cut,
                "cap at cut": rest and cap == start + cut,
                "cap in rest": rest and start + cut < cap < start + size,
            }
            found |= {kind for kind, hit in cases.items() if hit}
        if found == kinds:
            break
    assert found == kinds, kinds - found


def test_multi_kernel_matches_matrix_oracle():
    """Whole outputs, including the scattered moves of 33 and more alive
    states (no ordered-pair table) and batches capped by _BATCH_BYTES."""
    cases = itertools.chain(
        random_multi_cases(120, range(3, 10), 62),
        random_multi_cases(30, [33, 40, 47, 64], 63, alpha=20.0),
    )
    for case, (k0, m, cap) in enumerate(cases):
        expect = matrix_multi(k0, m, cap, trial_rng(62, case))
        got = _first_passage_multi(k0, m, cap, trial_rng(62, case))
        assert got == expect, (case, k0.tolist(), m, cap)
    assert _pair_moves(32) is not None and _pair_moves(33) is None
    assert longest_batch(40) < 1 << 14


def test_multi_batch_memory_is_bounded_for_large_n():
    """One batch of 1000 states (250 packed columns) stays within a fixed
    budget; an (n, batch) int32 matrix would take 65 MB."""
    k0 = np.full(1000, 10)
    tracemalloc.start()
    try:
        winner, steps, _ = _first_passage_multi(k0, 10_000, 1, trial_rng(5, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (winner, steps) == (-1, 1)
    assert peak < 2 * _BATCH_BYTES


def test_born_statistics_memory_is_bounded_for_large_n():
    """3000 states need no N x N matrix: the weights come straight from the
    amplitudes.  The one trial hits its one-step cap, which raises."""
    state = normalize(np.ones(3000))
    tracemalloc.start()
    try:
        with pytest.raises(MaxStepsExceededError):
            born_statistics(state, 1, WalkConfig(grid_resolution=30_000, max_steps=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * _BATCH_BYTES


def test_seed_block_memory_is_bounded():
    """A seed block's generators all live until its two-state tail pass, at
    about 1 KB each; one 4096-trial batch stays under 3/4 MiB."""
    state = normalize(np.sqrt([0.5, 0.3, 0.2]))
    config = WalkConfig(grid_resolution=100, seed=7)
    tracemalloc.start()
    try:
        result = born_statistics(state, 4096, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.trials == 4096
    assert peak < 3 << 18, peak


def per_trial_block(k0, m, cap, rngs):
    """Oracle for _born_block: _multi_first_phase one trial at a time (a
    no-op from two or fewer alive states), then one _two_state_block call on
    the rows left with two states.  Returns (winners, steps) arrays."""
    rows = len(rngs)
    winners = np.full(rows, -1, dtype=np.int64)
    steps = np.zeros(rows, dtype=np.int64)
    tails, pos, pairs = [], [], []
    for t, rng in enumerate(rngs):
        k, alive, steps[t], _ = _multi_first_phase(k0, m, cap, rng)
        if len(alive) == 1:
            winners[t] = alive[0]
        elif steps[t] < cap:
            tails.append(t)
            pos.append(k[alive[0]])
            pairs.append(alive)
    if tails:
        won, tail_steps = _two_state_block(
            np.array(pos), cap - steps[tails], [rngs[t] for t in tails], m
        )
        for t, w, s, pair in zip(tails, won.tolist(), tail_steps.tolist(), pairs):
            winners[t] = -1 if w < 0 else pair[w]
            steps[t] += s
    return winners, steps


def first_batch(k0, m):
    """_multi_first_phase's first batch from k0."""
    alive = k0[k0 > 0]
    k_min = int(alive.min())
    return min(max(k_min * (m - k_min) * alive.size // 4, 64), longest_batch(alive.size))


def test_born_block_matches_per_trial_composition():
    """180 blocks of N = 3-9 states, half of them with exactly three alive
    states among zero weights: the cross-trial rounds and the per-trial path
    give the same winners and steps, caps around the first batch included.
    Then 48 blocks that skip the first phase: one or two alive states among
    N = 3-9, and two-state grids, with and without a zero count."""
    gen = np.random.default_rng(64)
    seen = set()
    for case in range(180):
        n = int(gen.integers(3, 10))
        m = int(gen.integers(max(n, 6), 121))
        if case % 2:
            k0 = np.zeros(n, dtype=np.int64)
            k0[gen.choice(n, 3, replace=False)] = 1 + gen.multinomial(m - 3, [1 / 3] * 3)
        else:
            k0 = gen.multinomial(m, gen.dirichlet(np.full(n, 0.8)))
        b = first_batch(k0, m)
        cap_kind = case // 2 % 6
        cap = [1, b - 1, b, b + 1, 3 * b, 100 * m * m][cap_kind]
        rows = int(gen.integers(1, 41))
        seeds = [(64, case, t) for t in range(rows)]
        got = _born_block(k0, m, cap, [np.random.default_rng(s) for s in seeds])
        expect = per_trial_block(k0, m, cap, [np.random.default_rng(s) for s in seeds])
        assert [a.tolist() for a in got] == [a.tolist() for a in expect], (
            case, k0.tolist(), m, cap
        )
        if np.count_nonzero(k0) == 3:
            seen.add(("cap", cap_kind))
            seen.add(("odd batch", b % 2 == 1))
            seen.add(("zero weights", k0.size > 3))
            seen.add(("sub-blocks", rows > _ROUND_BYTES // (8 * b)))
    for case in range(48):
        kind = case % 4
        n = 2 if kind >= 2 else int(gen.integers(3, 10))
        m = int(gen.integers(max(n, 6), 121))
        alive = 1 + (kind != 0 and kind != 3)
        k0 = np.zeros(n, dtype=np.int64)
        split = 1 + gen.multinomial(m - alive, [1 / alive] * alive)
        k0[gen.choice(n, alive, replace=False)] = split
        cap_kind = case // 4 % 4
        cap = [1, 7, 64, 100 * m * m][cap_kind]
        rows = int(gen.integers(1, 41))
        seeds = [(64, 180 + case, t) for t in range(rows)]
        got = _born_block(k0, m, cap, [np.random.default_rng(s) for s in seeds])
        expect = per_trial_block(k0, m, cap, [np.random.default_rng(s) for s in seeds])
        assert [a.tolist() for a in got] == [a.tolist() for a in expect], (
            case, k0.tolist(), m, cap
        )
        seen.add(("skips first phase", min(n, 3), np.count_nonzero(k0), cap_kind))
    assert seen == {("cap", c) for c in range(6)} | {
        (name, flag)
        for name in ("odd batch", "zero weights", "sub-blocks")
        for flag in (False, True)
    } | {
        ("skips first phase", n, alive, c)  # n = 3: any N >= 3
        for n, alive in ((3, 1), (3, 2), (2, 2), (2, 1))
        for c in range(4)
    }


PCG64_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645


def low_half_rng(seed, at, value):
    """A PCG64 generator whose raw word ``at`` has the low uint32 half
    ``value``.

    PCG64 steps its 128-bit state s -> s * mult + inc, then outputs the xor
    of the new state's halves rotated by its top 6 bits; so a state with top
    bits 0 whose halves xor to ``value`` in their low 32 bits outputs such a
    word.
    """
    gen = np.random.default_rng(seed)
    inc = int(gen.integers(2**62)) << 66 | int(gen.integers(2**62)) << 1 | 1
    high = int(gen.integers(2**58))
    low = int(gen.integers(2**32)) << 32 | (high ^ value) & 0xFFFF_FFFF
    before = ((high << 64 | low) - inc) * pow(PCG64_MULT, -1, 2**128) % 2**128
    bits = np.random.PCG64()
    bits.state = {
        "bit_generator": "PCG64",
        "state": {"state": before, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    bits.advance(-at)
    return np.random.Generator(bits)


# (word, its low half): 0 is the one source half integers(3) rejects and
# draws again; the others sit on either side of the thresholds 2**32 j / 3
# (sources) and 2**31 (destinations)
EDGE_HALVES = [
    ("first source", 0),
    ("last source", 0),
    ("destination", 0),
    ("first source", 0x5555_5555),
    ("first source", 0x5555_5556),
    ("first source", 0xAAAA_AAAA),
    ("first source", 0xAAAA_AAAB),
    ("destination", 0x7FFF_FFFF),
    ("destination", 0x8000_0000),
]


@pytest.mark.parametrize("k0, m", [((50, 30, 20), 100), ((49, 30, 20), 99)])
@pytest.mark.parametrize("where, value", EDGE_HALVES)
def test_born_block_draws_at_lemire_edges(k0, m, where, value):
    """One stream of a block carries an edge half in its first batch (1,200
    or 1,185 steps).  A zero source half makes integers(3) draw again, so
    the row's draws no longer line up with its raw words: it must leave the
    rounds and rerun on the per-trial path.  Every other edge half stays in
    the rounds, and the block matches the per-trial path either way."""
    k0 = np.array(k0)
    b = first_batch(k0, m)
    at = {"first source": 0, "last source": (b - 1) // 2, "destination": (b + 1) // 2}[where]
    cap = 100 * m * m

    def block():
        rngs = [trial_rng(5, t) for t in range(6)]
        rngs[3] = low_half_rng(3, at, value)
        return rngs

    assert block()[3].bit_generator.random_raw(at + 1)[at] & 0xFFFF_FFFF == value
    rejected = value == 0 and where != "destination"
    rerun = _three_state_rounds(k0, m, cap, block())[2]
    assert rerun.tolist() == [t == 3 and rejected for t in range(6)]
    got = _born_block(k0, m, cap, block())
    expect = per_trial_block(k0, m, cap, block())
    assert [a.tolist() for a in got] == [a.tolist() for a in expect]


TAIL_GRIDS = [2, 3, 10, 64, 65, 100, 1000]
TAIL_CAPS = [1, 7, 8, 9, 63, 64, 65]


@pytest.mark.parametrize("m", TAIL_GRIDS)
def test_two_state_block_matches_per_trial_kernel(m):
    """Mixed start positions (walls included) and caps, up to ``cap`` row
    by row: one block of 24 rows against 24 one-row blocks.  At M = 1000 a
    block cannot hold two draws from the middle, so those rows take the
    one-row pass either way."""
    gen = np.random.default_rng(m)
    for cap in TAIL_CAPS + [100 * m * m]:
        pos = gen.integers(0, m + 1, size=24)
        pos[:3] = (1, m - 1, m // 2)
        caps = gen.integers(1, cap + 1, size=pos.size)
        caps[:3] = cap
        expect = [
            two_state(int(p), m, int(c), trial_rng(m, t))
            for t, (p, c) in enumerate(zip(pos, caps))
        ]
        got = _two_state_block(pos, caps, [trial_rng(m, t) for t in range(pos.size)], m)
        assert list(zip(*(a.tolist() for a in got))) == expect, (m, cap)
    n = _words_per_draw(m * m // 4)
    assert (_TAIL_BYTES // (8 * n) < 2) == (m == 1000)


@pytest.mark.parametrize("m", TAIL_GRIDS)
@pytest.mark.parametrize("n", [1, 3, None])
def test_two_state_rows_match_per_trial_kernel(m, n):
    """The block pass and the one-row pass give the same (winner, step,
    end) on every row: draws of 1 and 3 words, which most rows outlive, and
    of the default size; one-row blocks included."""
    gen = np.random.default_rng(1000 + m)
    for rep in range(8):
        for rows in (1, 9):
            pos = gen.integers(1, m, size=rows)
            words = n or _words_per_draw(int((pos * (m - pos)).max()))
            seeds = [(m, rep, rows, t) for t in range(rows)]
            expect = [
                _two_state_draw(int(p), m, words, np.random.default_rng(s))
                for p, s in zip(pos, seeds)
            ]
            got = _two_state_rows(pos, [np.random.default_rng(s) for s in seeds], m, words)
            assert list(zip(*(a.tolist() for a in got))) == expect, (m, rep, rows)


def composition_law(k0, max_t=4000):
    """Exact law of _first_passage_multi for small M by a forward DP over
    the compositions of M into len(k0) parts, each tagged with the states
    eliminated so far (in order).

    Returns ({elimination order: probability}, E[T], Var T); the mass left
    unabsorbed after max_t steps must be negligible.
    """
    m, n = sum(k0), len(k0)
    comps = [c for c in itertools.product(range(m + 1), repeat=n) if sum(c) == m]
    keys, index = [], {}
    for c in comps:
        dead = [i for i in range(n) if c[i] == 0]
        for order in itertools.permutations(dead):
            index[(c, order)] = len(keys)
            keys.append((c, order))
    src, dst, prob = [], [], []
    absorbed = {}
    for c, order in keys:
        alive = [i for i in range(n) if c[i] > 0]
        if len(alive) == 1:
            absorbed[index[(c, order)]] = order
            continue
        p = 1.0 / (len(alive) * (len(alive) - 1))
        for a, b in itertools.permutations(alive, 2):
            nxt = list(c)
            nxt[a] -= 1
            nxt[b] += 1
            src.append(index[(c, order)])
            dst.append(index[(tuple(nxt), order + ((a,) if nxt[a] == 0 else ()))])
            prob.append(p)
    src, dst, prob = map(np.array, (src, dst, prob))
    mass = np.zeros(len(keys))
    mass[index[(tuple(k0), ())]] = 1.0
    law = dict.fromkeys(absorbed.values(), 0.0)
    moments = np.zeros(3)
    for t in range(1, max_t + 1):
        mass = np.bincount(dst, weights=mass[src] * prob, minlength=len(keys))
        for i, order in absorbed.items():
            law[order] += mass[i]
            moments += mass[i] * np.array([1.0, t, t * t])
            mass[i] = 0.0
    assert 1.0 - moments[0] < 1e-12
    mean = moments[1]
    return law, mean, moments[2] - mean * mean


def test_multi_kernel_matches_exact_composition_law():
    """[5, 3, 2] at M = 10: elimination-order frequencies by chi^2 over the
    six orders (bins fixed from the exact law before sampling) and the mean
    exit time by a z-test, both at 4 sigma.  E[T] = (100 - 38) / 2 = 31."""
    k0 = (5, 3, 2)
    law, mean, var = composition_law(k0)
    assert abs(mean - 31) < 1e-9
    orders = sorted(law)
    assert len(orders) == 6 and min(law.values()) > 0.01
    trials = 6000
    counts = dict.fromkeys(orders, 0)
    total = 0
    for t in range(trials):
        winner, steps, eliminations = _first_passage_multi(
            np.array(k0), 10, 100 * 10 * 10, trial_rng(4242, t)
        )
        order = tuple(state for state, _ in eliminations)
        assert winner >= 0 and eliminations[-1][1] == steps
        counts[order] += 1
        total += steps
    expected = np.array([law[o] for o in orders]) * trials
    observed = np.array([counts[o] for o in orders])
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < stats.chi2.isf(stats.norm.sf(4) * 2, len(orders) - 1), (chi2, counts)
    assert abs(total / trials - mean) < 4 * np.sqrt(var / trials)


def test_run_walk_matches_exact_composition_law():
    """The reference engine on the same exact law: [5, 3, 2] at M = 10 over
    6,000 walks on trial_rng streams, elimination-order frequencies by chi^2
    over the six orders and the mean exit time 31 by a z-test, both at
    4 sigma."""
    k0 = (5, 3, 2)
    law, mean, var = composition_law(k0)
    orders = sorted(law)
    joint = form_joint(normalize(np.sqrt(np.array(k0) / 10)))
    config = WalkConfig(grid_resolution=10, seed=4242)
    assert quantize_weights(joint.weights, 10).tolist() == list(k0)
    trials = 6000
    counts = dict.fromkeys(orders, 0)
    total = 0
    for t in range(trials):
        out = run_walk(joint, config, rng=trial_rng(config.seed, t))
        counts[tuple(state for state, _ in out.elimination_order)] += 1
        total += out.steps_taken
    expected = np.array([law[o] for o in orders]) * trials
    observed = np.array([counts[o] for o in orders])
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < stats.chi2.isf(stats.norm.sf(4) * 2, len(orders) - 1), (chi2, counts)
    assert abs(total / trials - mean) < 4 * np.sqrt(var / trials)


def two_state_time_law(k, m, max_t):
    """P(T = t, absorbed at 0) and P(T = t, absorbed at M) for t = 0..max_t,
    by a forward DP over the positions {0..M} of the walk started at k."""
    mass = np.zeros(m + 1)
    mass[k] = 1.0
    at_zero = np.zeros(max_t + 1)
    at_m = np.zeros(max_t + 1)
    for t in range(1, max_t + 1):
        nxt = np.zeros(m + 1)
        nxt[:-2] += 0.5 * mass[1:-1]
        nxt[2:] += 0.5 * mass[1:-1]
        at_zero[t], at_m[t] = nxt[0], nxt[m]
        nxt[0] = nxt[m] = 0.0
        mass = nxt
    assert mass.sum() < 1e-12
    return at_zero, at_m


def two_state_time_cdf(k, m, t):
    """P(T <= t) for the walk on {0..M} started at k, by the spectral sum
    sum_j sin(pi j/M)[sin(pi j k/M) + sin(pi j (M-k)/M)](1 - cos^t(pi j/M))
    / (M (1 - cos(pi j/M))) over j = 1..M-1; t may be an array."""
    x = np.pi * np.arange(1, m) / m
    c = np.cos(x)
    weight = np.sin(x) * (np.sin(x * k) + np.sin(x * (m - k))) / (m * (1.0 - c))
    return (weight * (1.0 - c ** np.asarray(t)[..., None])).sum(axis=-1)


@pytest.mark.parametrize("m, k", [(100, 30), (1000, 300)])
def test_two_state_block_variance_and_conditional_mean(m, k):
    """Var T = k(M-k)(k^2 + (M-k)^2 - 2)/3 and E[T | absorbed at M] =
    (M^2 - k^2)/3 (winner 0 is absorption at M), each by a z-test at
    4 sigma; M = 1000 runs the one-row pass.  The closed forms are
    checked against the DP at (20, 7) first."""
    at_zero, at_m = two_state_time_law(7, 20, 4000)
    t = np.arange(at_zero.size)
    law = at_zero + at_m
    mean = float((t * law).sum())
    assert abs(mean - 7 * 13) < 1e-8
    assert abs(float((t * t * law).sum()) - mean**2 - 6552) < 1e-6
    assert abs(float((t * at_m).sum() / at_m.sum()) - (400 - 49) / 3) < 1e-8

    trials = 30_000
    winners, steps = _two_state_block(
        np.full(trials, k), np.full(trials, 100 * m * m), _trial_rngs(77, 0, trials), m
    )
    steps = steps.astype(float)
    assert winners.min() >= 0
    var = k * (m - k) * (k * k + (m - k) ** 2 - 2) / 3
    dev2 = (steps - steps.mean()) ** 2
    assert abs(dev2.mean() - var) < 4 * dev2.std(ddof=1) / np.sqrt(trials), dev2.mean()
    top = steps[winners == 0]
    expect = (m * m - k * k) / 3
    assert abs(top.mean() - expect) < 4 * top.std(ddof=1) / np.sqrt(top.size), top.mean()


@pytest.mark.parametrize("m, k", [(20, 7), (1000, 300)])
def test_two_state_block_time_law_chi2(m, k):
    """chi^2 of T over ten bins of (nearly) equal probability at 4 sigma.
    The bins are cut before sampling from the spectral CDF, by bisection
    (the DP cannot reach T ~ 10^6 at M = 1000); the spectral CDF is checked
    against the forward DP at (20, 7) first."""
    at_zero, at_m = two_state_time_law(7, 20, 4000)
    gap = two_state_time_cdf(7, 20, np.arange(4001)) - np.cumsum(at_zero + at_m)
    assert np.abs(gap).max() < 1e-12

    trials = 20_000
    targets = np.arange(1, 10) / 10
    lo = np.zeros(targets.size, dtype=np.int64)  # P(T <= lo) < target
    hi = np.full(targets.size, 100 * m * m)  # P(T <= hi) >= target
    while np.any(hi - lo > 1):
        mid = (lo + hi) // 2
        up = two_state_time_cdf(k, m, mid) >= targets
        hi, lo = np.where(up, mid, hi), np.where(up, lo, mid)
    cuts = hi
    assert np.all(np.diff(cuts) > 0)
    probs = np.diff(np.concatenate([[0.0], two_state_time_cdf(k, m, cuts), [1.0]]))
    winners, steps = _two_state_block(
        np.full(trials, k), np.full(trials, 100 * m * m), _trial_rngs(78, 0, trials), m
    )
    assert winners.min() >= 0
    observed = np.bincount(np.searchsorted(cuts, steps), minlength=probs.size)
    expected = probs * trials
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < stats.chi2.isf(stats.norm.sf(4) * 2, probs.size - 1), (chi2, observed)
