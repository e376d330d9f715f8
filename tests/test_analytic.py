import tracemalloc

import numpy as np
import pytest

from collapsewalk import (
    DiffusionParams,
    NumericOverflowError,
    absorption_flux_residual,
    absorption_probs,
    absorption_probs_chain,
    greens_tilde,
    mean_exit_time,
)


# ------------------------------------------------------------- greens_tilde

def test_boundary_values_vanish():
    for x0 in (0.2, 0.5, 0.9):
        params = DiffusionParams(x0=x0)
        for s in (1e-6, 1.0, 100.0):
            assert greens_tilde(0.0, s, params) == 0.0
            assert greens_tilde(1.0, s, params) == 0.0


def test_source_observer_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(100):
        x, x0 = rng.uniform(0.01, 0.99, size=2)
        s = float(10 ** rng.uniform(-4, 2))
        d = float(10 ** rng.uniform(-1, 1))
        a = greens_tilde(x, s, DiffusionParams(x0=x0, diffusion=d))
        b = greens_tilde(x0, s, DiffusionParams(x0=x, diffusion=d))
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_small_s_limit_matches_series():
    # sinh(u) ~ u gives c~ -> x_<(1 - x_>) / D
    val = greens_tilde(0.5, 1e-8, DiffusionParams(x0=0.5, diffusion=1.0))
    assert abs(val - 0.25) < 1e-7
    val = greens_tilde(0.2, 1e-8, DiffusionParams(x0=0.6, diffusion=2.0))
    assert abs(val - 0.2 * 0.4 / 2.0) < 1e-7


def test_satisfies_laplace_ode_away_from_source():
    """d2c/dx2 - (s/D) c = 0 on either side of x0, via 5-point stencil."""
    rng = np.random.default_rng(7)
    h = 1e-3
    for _ in range(25):
        x0 = rng.uniform(0.3, 0.7)
        params = DiffusionParams(x0=x0, diffusion=float(10 ** rng.uniform(-0.5, 0.5)))
        s = float(10 ** rng.uniform(-0.5, 1.0))
        x = rng.uniform(5 * h, 1 - 5 * h)
        while abs(x - x0) < 5 * h:
            x = rng.uniform(5 * h, 1 - 5 * h)
        pts = x + h * np.array([-2, -1, 0, 1, 2])
        vals = greens_tilde(pts, s, params)
        second = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (
            12 * h * h
        )
        target = (s / params.diffusion) * vals[2]
        assert abs(second - target) < 1e-6 * max(abs(target), 1e-12)


def test_large_argument_stable_against_naive_formula():
    params = DiffusionParams(x0=0.5)
    # naive sinh form still finite here: q = 600
    s = 600.0**2
    q = 600.0
    naive = (
        np.sinh(q * 0.25) * np.sinh(q * 0.5) / (np.sqrt(s) * np.sinh(q))
    )
    stable = greens_tilde(0.25, s, params)
    assert abs(stable - naive) < 1e-12 * naive
    # far past the overflow point of sinh
    huge = greens_tilde(0.25, 4e6, params)
    assert np.isfinite(huge) and huge >= 0.0


def test_overflowing_ratio_raises():
    with pytest.raises(NumericOverflowError):
        greens_tilde(0.5, 1e308, DiffusionParams(x0=0.5, diffusion=1e-300))


def test_input_validation():
    with pytest.raises(ValueError):
        greens_tilde(1.5, 1.0, DiffusionParams(x0=0.5))
    with pytest.raises(ValueError):
        greens_tilde(0.5, 0.0, DiffusionParams(x0=0.5))
    with pytest.raises(ValueError):
        DiffusionParams(x0=0.0)
    with pytest.raises(ValueError):
        DiffusionParams(x0=0.5, diffusion=-1.0)


# --------------------------------------------------------- absorption_probs

def test_absorption_probs_nine_point_grid():
    for x0 in np.linspace(0.1, 0.9, 9):
        p0, p1 = absorption_probs(float(x0))
        assert p0 == 1.0 - x0
        assert p1 == x0
        assert p0 + p1 == 1.0


def test_absorption_probs_walls_are_trivial():
    assert absorption_probs(0.0) == (1.0, 0.0)
    assert absorption_probs(1.0) == (0.0, 1.0)


def test_flux_self_test_residual_is_small():
    for x0 in (0.1, 0.3, 0.5, 0.7, 0.9):
        assert absorption_flux_residual(x0) < 1e-4


def test_absorption_probs_validates_range():
    with pytest.raises(ValueError):
        absorption_probs(1.5)


# ----------------------------------------------------------- mean_exit_time

def test_mean_exit_time_values():
    assert mean_exit_time(DiffusionParams(x0=0.5, diffusion=1.0)) == 0.125
    assert abs(mean_exit_time(DiffusionParams(x0=0.3, diffusion=1.0)) - 0.105) < 1e-15
    # T(x0) solves D T'' = -1 with absorbing ends; exit time -> 0 at the wall
    assert mean_exit_time(DiffusionParams(x0=1e-9, diffusion=1.0)) < 1e-9


def test_mean_exit_time_scales_inverse_with_diffusion():
    slow = mean_exit_time(DiffusionParams(x0=0.4, diffusion=0.5))
    fast = mean_exit_time(DiffusionParams(x0=0.4, diffusion=2.0))
    assert abs(slow / fast - 4.0) < 1e-12


# -------------------------------------------------- discrete chain absorption

def test_chain_two_state_matches_closed_form():
    m = 20
    for k0 in range(1, m):
        probs = absorption_probs_chain([k0, m - k0])
        assert abs(probs[0] - k0 / m) < 1e-12
        assert abs(probs.sum() - 1.0) < 1e-12


def test_chain_three_state_equals_start_weights():
    probs = absorption_probs_chain([5, 3, 2])
    assert np.max(np.abs(probs - np.array([0.5, 0.3, 0.2]))) < 1e-10
    probs = absorption_probs_chain([4, 3, 3])
    assert np.max(np.abs(probs - np.array([0.4, 0.3, 0.3]))) < 1e-10


def test_chain_with_dead_start_state():
    probs = absorption_probs_chain([6, 0, 4])
    assert probs[1] == 0.0
    assert abs(probs[0] - 0.6) < 1e-12


def test_chain_vertex_start():
    probs = absorption_probs_chain([10, 0, 0])
    assert probs.tolist() == [1.0, 0.0, 0.0]


def test_chain_four_states():
    probs = absorption_probs_chain([3, 3, 2, 2])
    assert np.max(np.abs(probs - np.array([0.3, 0.3, 0.2, 0.2]))) < 1e-10


def test_chain_too_large_raises_before_allocating():
    """[220, 120, 100] has 97,461 states: a dense matrix would need ~76 GB."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="states"):
            absorption_probs_chain([220, 120, 100])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_chain_within_budget_still_solves():
    probs = absorption_probs_chain([20, 12, 8])  # 861 states
    assert np.max(np.abs(probs - np.array([0.5, 0.3, 0.2]))) < 1e-10
