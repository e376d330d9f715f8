"""Closed-form oracles for the walk engine.

Two-state walk in the continuum limit: diffusion on (0, 1) with absorbing
walls.  The Laplace-domain Green's function for a delta source at x0 is

    c~(x, s) = sinh(q x_<) sinh(q (1 - x_>)) / (sqrt(s D) sinh q),

with q = sqrt(s/D), x_< = min(x, x0), x_> = max(x, x0).  The boundary flux
in the s -> 0 limit gives the absorption probabilities (1 - x0, x0), and the
mean exit time solves D T'' = -1 with absorbing ends: T = x0 (1 - x0) / 2D.

For N states on the grid each count k_i is a martingale of the walk, so
the winner law is k / M; the tests solve the finite Markov chain as an
independent check of that form and of the Monte Carlo engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericOverflowError

FLUX_TEST_S = 1e-8      # Laplace variable used for the s -> 0 flux limit
FLUX_TEST_H = 1e-6      # central-difference step for the boundary flux


@dataclass(frozen=True)
class DiffusionParams:
    """Diffusion constant (interaction strength scale) and start point."""

    x0: float
    diffusion: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.x0 < 1.0:
            raise ValueError("x0 must lie strictly inside (0, 1)")
        if not 0.0 < self.diffusion < np.inf:
            raise ValueError("diffusion constant must be finite and positive")


def _log_sinh(u):
    """log(sinh(u)) for u > 0, overflow-free; -inf at u = 0."""
    with np.errstate(divide="ignore"):
        return u + np.log(-np.expm1(-2.0 * u)) - np.log(2.0)


def greens_tilde(x, s: float, params: DiffusionParams):
    """Laplace-domain concentration c~(x, s) for a delta source at x0.

    Vanishes identically at the absorbing walls x = 0 and x = 1.  Evaluated
    in log space, so large sqrt(s/D) does not overflow sinh; only inputs
    whose ratio s/D is itself unrepresentable raise NumericOverflowError.
    Accepts a scalar or an array of positions.
    """
    x_arr = np.asarray(x, dtype=float)
    if not np.all((x_arr >= 0.0) & (x_arr <= 1.0)):
        raise ValueError("positions must lie in [0, 1]")
    if not s > 0.0:
        raise ValueError("Laplace variable s must be positive")
    d = params.diffusion
    q = np.sqrt(s / d)
    if not np.isfinite(q) or q == 0.0:
        raise NumericOverflowError(f"sqrt(s/D) not representable for s={s}, D={d}")
    xl = np.minimum(x_arr, params.x0)
    xu = np.maximum(x_arr, params.x0)
    inner = (xl > 0.0) & (xu < 1.0)
    out = np.zeros_like(x_arr, dtype=float)
    if np.any(inner):
        log_val = (
            _log_sinh(q * xl[inner])
            + _log_sinh(q * (1.0 - xu[inner]))
            - _log_sinh(q)
            - 0.5 * np.log(s * d)
        )
        out[inner] = np.exp(log_val)
    return out if out.ndim else float(out)


def absorption_flux_residual(x0: float, diffusion: float = 1.0) -> float:
    """Deviation of the numeric boundary flux from the closed form.

    Evaluates D dc~/dx at each wall by a central difference (step 1e-6)
    at s = 1e-8 and compares against (1 - x0, x0).  Self-test for the
    Green's function; anything above 1e-4 is an implementation bug.
    """
    params = DiffusionParams(x0=x0, diffusion=diffusion)
    h = FLUX_TEST_H
    s = FLUX_TEST_S
    g = greens_tilde(np.array([0.0, 2 * h, 1.0 - 2 * h, 1.0]), s, params)
    p0_num = diffusion * (g[1] - g[0]) / (2 * h)
    p1_num = -diffusion * (g[3] - g[2]) / (2 * h)
    return max(abs(p0_num - (1.0 - x0)), abs(p1_num - x0))


def absorption_probs(x0: float) -> tuple[float, float]:
    """Probability of absorbing at x = 0 and at x = 1 from start x0: the
    closed form (1 - x0, x0).  The walls themselves are trivially absorbing;
    absorption_flux_residual checks the form against the Green's function.
    """
    if not 0.0 <= x0 <= 1.0:
        raise ValueError("x0 must lie in [0, 1]")
    return (1.0 - x0, x0)


def mean_exit_time(params: DiffusionParams) -> float:
    """Mean first-passage time to either wall: x0 (1 - x0) / (2 D)."""
    return params.x0 * (1.0 - params.x0) / (2.0 * params.diffusion)


def absorption_probs_chain(grid_weights) -> np.ndarray:
    """Exact winner distribution of the grid walk from counts k: k / M.

    A pair move takes one unit from an alive state and gives it to another,
    and the reverse move is equally likely, so each k_i is a bounded
    martingale that ends at M or 0: state i wins with probability k_i / M.
    States with zero weight are dead and never win.  The counts must be
    nonnegative whole numbers, at least two of them, with a total M in
    [1, 2**53); the tests check the result against a Markov-chain solve.
    """
    whole = "grid counts must be whole numbers with a total below 2**53"
    try:
        k = np.asarray(grid_weights, dtype=float)
    except OverflowError:  # an int beyond the float range
        raise ValueError(whole) from None
    m = k.sum()
    if k.ndim != 1 or k.size < 2 or not m >= 1:
        raise ValueError("need at least 2 states and a positive total weight")
    if np.any(k < 0):
        raise ValueError("grid counts must be nonnegative")
    if not (m < 2**53 and np.array_equal(k, np.floor(k))):  # below 2**53 m is exact
        raise ValueError(whole)
    return k / m
