"""One step of the grid walk on numpy arrays, the tests' oracle for ``run_walk``.

``run_walk`` draws its steps in runs, each in one ``integers`` call over an
array of bounds.  This module takes one step per call from (counts, alive
mask) arrays, with the scalar draws that run reads as: over the n alive
states in index order, ``a = rng.integers(n)`` and then ``b =
rng.integers(n - 1)``, with ``b`` shifted past ``a``; one unit moves from
the a-th alive state to the b-th.  It shares no code with the package.
"""

import numpy as np


def walk_step(grid_weights, alive, rng):
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
        raise ValueError("need at least 2 alive states to step")
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
