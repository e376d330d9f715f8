"""Closed-form oracles for the walk engine.

Two-state walk in the continuum limit: diffusion on (0, 1) with absorbing
walls.  The Laplace-domain Green's function for a delta source at x0 is

    c~(x, s) = sinh(q x_<) sinh(q (1 - x_>)) / (sqrt(s D) sinh q),

with q = sqrt(s/D), x_< = min(x, x0), x_> = max(x, x0).  The boundary flux
in the s -> 0 limit gives the absorption probabilities (1 - x0, x0), and the
mean exit time solves D T'' = -1 with absorbing ends: T = x0 (1 - x0) / 2D.

For N states the grid walk is a finite Markov chain; absorption
probabilities are solved exactly from the linear system as an independent
check on the Monte Carlo engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import NumericOverflowError, OracleMismatchError

FLUX_TEST_S = 1e-8      # Laplace variable used for the s -> 0 flux limit
FLUX_TEST_H = 1e-6      # central-difference step for the boundary flux
FLUX_TOL = 1e-4
CHAIN_DENSE_BYTES = 256 << 20  # largest dense float64 matrix the chain solve builds


@dataclass(frozen=True)
class DiffusionParams:
    """Diffusion constant (interaction strength scale) and start point."""

    x0: float
    diffusion: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.x0 < 1.0:
            raise ValueError("x0 must lie strictly inside (0, 1)")
        if not self.diffusion > 0.0:
            raise ValueError("diffusion constant must be positive")


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
    if np.any((x_arr < 0.0) | (x_arr > 1.0)):
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
    Green's function; anything above FLUX_TOL is an implementation bug.
    """
    params = DiffusionParams(x0=x0, diffusion=diffusion)
    h = FLUX_TEST_H
    s = FLUX_TEST_S
    g = greens_tilde(np.array([0.0, 2 * h, 1.0 - 2 * h, 1.0]), s, params)
    p0_num = diffusion * (g[1] - g[0]) / (2 * h)
    p1_num = -diffusion * (g[3] - g[2]) / (2 * h)
    return max(abs(p0_num - (1.0 - x0)), abs(p1_num - x0))


def absorption_probs(x0: float) -> tuple[float, float]:
    """Probability of absorbing at x = 0 and at x = 1 from start x0.

    Returns the closed form (1 - x0, x0) after the numeric flux self-test
    passes; a disagreement beyond FLUX_TOL raises OracleMismatchError.
    The walls themselves are trivially absorbing.
    """
    if not 0.0 <= x0 <= 1.0:
        raise ValueError("x0 must lie in [0, 1]")
    if 4 * FLUX_TEST_H < x0 < 1.0 - 4 * FLUX_TEST_H:
        residual = absorption_flux_residual(x0)
        if residual > FLUX_TOL:
            raise OracleMismatchError(
                f"numeric flux deviates from closed form by {residual:.3e}"
            )
    return (1.0 - x0, x0)


def mean_exit_time(params: DiffusionParams) -> float:
    """Mean first-passage time to either wall: x0 (1 - x0) / (2 D)."""
    return params.x0 * (1.0 - params.x0) / (2.0 * params.diffusion)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def absorption_probs_chain(grid_weights) -> np.ndarray:
    """Exact winner distribution of the grid walk, by linear-system solve.

    Enumerates every composition of M into N parts, builds the pair-transfer
    transition matrix (states with zero weight are dead and never selected),
    and solves for the absorption probabilities at each vertex.  Independent
    of the Monte Carlo engine; practical for small M and N only: a chain whose
    dense matrix would exceed CHAIN_DENSE_BYTES (about 5,800 states) raises
    ValueError before anything is built.
    """
    k0 = np.asarray(grid_weights, dtype=np.int64)
    n = k0.size
    m = int(k0.sum())
    if n < 2 or m < 1:
        raise ValueError("need at least 2 states and a positive total weight")
    n_states = comb(m + n - 1, n - 1)
    if n_states * n_states * 8 > CHAIN_DENSE_BYTES:
        raise ValueError(
            f"chain with {n_states} states needs a {n_states}x{n_states} dense "
            f"matrix, over the {CHAIN_DENSE_BYTES >> 20} MiB budget"
        )

    states = list(_compositions(m, n))
    index = {s: i for i, s in enumerate(states)}
    absorbing = []
    transient = []
    for s in states:
        (absorbing if max(s) == m else transient).append(s)
    t_index = {s: i for i, s in enumerate(transient)}

    nt = len(transient)
    a_mat = np.eye(nt)
    b_mat = np.zeros((nt, n))
    for s in transient:
        row = t_index[s]
        alive = [i for i in range(n) if s[i] > 0]
        na = len(alive)
        prob = 1.0 / (na * (na - 1))
        for src in alive:
            for dst in alive:
                if src == dst:
                    continue
                nxt = list(s)
                nxt[src] -= 1
                nxt[dst] += 1
                nxt = tuple(nxt)
                if max(nxt) == m:
                    b_mat[row, int(np.argmax(nxt))] += prob
                else:
                    a_mat[row, t_index[nxt]] -= prob

    start = tuple(int(v) for v in k0)
    if start not in index:
        raise ValueError("start weights are not a composition of the total")
    if max(start) == m:
        out = np.zeros(n)
        out[int(np.argmax(start))] = 1.0
        return out
    solution = np.linalg.solve(a_mat, b_mat)
    return solution[t_index[start]]
