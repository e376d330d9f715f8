import itertools

import numpy as np
import pytest

from collapsewalk import (
    DegenerateGridError,
    MaxStepsExceededError,
    NoAlivePairError,
    WalkConfig,
    born_statistics,
    form_joint,
    normalize,
    quantize_weights,
    run_walk,
    trial_rng,
    update_cross_terms,
    walk_step,
)
from collapsewalk.analytic import absorption_probs_chain
from collapsewalk.walk import _first_passage_multi, _first_passage_two_state


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
    with pytest.raises(DegenerateGridError):
        quantize_weights(w, 15)  # M < 10 N and the tiny weight rounds to 0
    k = quantize_weights(w, 1000)  # coarse weight still rounds to 0, M large
    assert k.tolist() == [0, 1000]


# ---------------------------------------------------------------- walk_step

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


def test_walk_step_needs_two_alive():
    with pytest.raises(NoAlivePairError):
        walk_step(np.array([10, 0]), np.array([True, False]), trial_rng(0, 0))


# ------------------------------------------------------- update_cross_terms

def test_update_cross_terms_elimination_zeroes_pair():
    joint = form_joint(normalize([1.0, 1.0]))
    assert abs(joint.cross[0, 1] - 0.5) < 1e-12
    done = update_cross_terms(joint, weights=np.array([1.0, 0.0]))
    assert done.cross[0, 1] == 0.0
    assert done.alive.tolist() == [True, False]
    assert done.weights.tolist() == [1.0, 0.0]


def test_update_cross_terms_magnitude_rule():
    joint = form_joint(normalize([1.0, 1.0]))
    moved = update_cross_terms(joint, weights=np.array([0.36, 0.64]))
    assert abs(abs(moved.cross[0, 1]) - 0.48) < 1e-12


def test_update_cross_terms_preserves_phase():
    joint = form_joint(normalize([0.6, 0.8j]))
    phase0 = np.angle(joint.cross[0, 1])
    moved = update_cross_terms(joint, weights=np.array([0.5, 0.5]))
    assert abs(abs(moved.cross[0, 1]) - 0.5) < 1e-12
    assert abs(np.angle(moved.cross[0, 1]) - phase0) < 1e-12


def test_update_cross_terms_idempotent_without_arguments():
    joint = form_joint(normalize([0.6, 0.8]))
    again = update_cross_terms(joint)
    assert np.allclose(again.cross, joint.cross)
    assert np.allclose(again.weights, joint.weights)


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
    exact = absorption_probs_chain([5, 3, 2])
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


def test_walk_config_defaults():
    config = WalkConfig(grid_resolution=200)
    assert config.max_steps == 100 * 200**2
    with pytest.raises(ValueError):
        WalkConfig(grid_resolution=1)


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


@pytest.mark.parametrize("m", [2, 3, 64, 65, 100, 129, 1000])
def test_two_state_kernel_matches_bitwise_oracle(m):
    for k0 in sorted({1, m // 2, m - 1}):
        for cap in (1, 63, 64, 65, 100 * m * m):
            for t in range(4):
                seed = 1000 * m + k0
                expect = step_by_step_two_state(k0, m, cap, trial_rng(seed, t))
                got = _first_passage_two_state(k0, m, cap, trial_rng(seed, t))
                assert got == expect, (m, k0, cap, t)


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
