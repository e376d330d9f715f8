"""Markov-chain solve of the grid walk's winner law, the tests' oracle.

``absorption_probs_chain`` returns the closed form k / M.  This module
solves the same absorption problem from the chain itself: it enumerates
every composition of M into N parts, builds the pair-transfer transition
matrix (states with zero weight are dead and never selected) and solves the
dense linear system for the absorption probabilities.  It shares no code
with the package, and is practical for small M and N only.
"""

import numpy as np


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def chain_solve(grid_weights) -> np.ndarray:
    """Probability that each state wins, from start counts ``grid_weights``."""
    start = tuple(int(v) for v in grid_weights)
    n = len(start)
    m = sum(start)
    if max(start) == m:
        out = np.zeros(n)
        out[start.index(m)] = 1.0
        return out

    transient = [s for s in _compositions(m, n) if max(s) < m]
    t_index = {s: i for i, s in enumerate(transient)}
    a_mat = np.eye(len(transient))
    b_mat = np.zeros((len(transient), n))
    for row, s in enumerate(transient):
        alive = [i for i in range(n) if s[i] > 0]
        prob = 1.0 / (len(alive) * (len(alive) - 1))
        for src in alive:
            for dst in alive:
                if src == dst:
                    continue
                nxt = list(s)
                nxt[src] -= 1
                nxt[dst] += 1
                if nxt[dst] == m:
                    b_mat[row, dst] += prob
                else:
                    a_mat[row, t_index[tuple(nxt)]] -= prob
    return np.linalg.solve(a_mat, b_mat)[t_index[start]]
