"""Domain types for amplitude vectors and coupled system-detector states.

A ``QuantumState`` is a normalized complex amplitude vector.  Coupling it to
its detector image squares the coefficients: the diagonal of the coupled
state is the probability vector w_i = |a_i|^2 that seeds the random walk,
while the off-diagonal cross terms kappa_ij = a_i * conj(a_j) ride along as
passive bookkeeping ("spectators").  Cross terms never drive the walk; they
are rescaled after every step and forced to zero once a state is eliminated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllZeroError, TooFewStatesError

NORM_TOL = 1e-12


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _require_finite(*arrays):
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("weights and cross terms must be finite")


@dataclass(frozen=True)
class QuantumState:
    """Normalized complex amplitude vector over N >= 2 basis states."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _frozen_array(self.amplitudes, np.complex128)
        if amps.ndim != 1 or amps.size < 2:
            raise TooFewStatesError("need an amplitude vector with at least 2 entries")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_TOL:  # a nan norm fails too
            raise ValueError(f"amplitudes not normalized: |a| = {norm!r}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n(self) -> int:
        return self.amplitudes.size

    def weights(self) -> np.ndarray:
        """Squared magnitudes |a_i|^2 (sums to 1 within tolerance)."""
        return np.abs(self.amplitudes) ** 2


def _check_joint(w, k, al):
    """JointState's value checks over stacks: weights and alive (..., N),
    cross (..., N, N).  Raises the error of the first row that fails one,
    with the message that row alone gives.

    A nan or infinite entry fails one of the first three checks (it makes
    the sum or the Hermitian residual non-finite), and each of them first
    looks for one, so non-finite input always gets that one message.
    """
    n = w.shape[-1]
    total = w.sum(axis=-1)
    # a row that fails may give nan or inf here; it fails below all the same
    with np.errstate(invalid="ignore", over="ignore"):
        skew = np.abs(k - np.swapaxes(k, -1, -2).conj())
        gap = np.abs(np.abs(k) - np.sqrt(w[..., :, None] * w[..., None, :]))
    gap.reshape(*w.shape[:-1], n * n)[..., :: n + 1] = 0.0  # the diagonal is unused
    dead = ~al
    any_dead = dead.any()
    if any_dead:
        rim = dead[..., :, None] | dead[..., None, :]  # the rows and columns of dead states
        gap[rim] = 0.0
    bad = (w.min(axis=-1) < 0) | ~(abs(total - 1.0) <= NORM_TOL)
    bad |= ~(np.maximum(skew, gap).max(axis=(-2, -1)) <= NORM_TOL)
    failed = bad
    if any_dead:
        failed = bad | np.where(dead, w, 0.0).any(axis=-1)
        failed |= np.where(rim, k, 0.0).any(axis=(-2, -1))
    if not failed.any():
        return
    r = np.unravel_index(np.argmax(failed), np.shape(failed))  # the first failing row
    w, k, total = w[r], k[r], total[r]
    if bad[r]:
        _require_finite(w, k)
        if w.min() < 0:
            raise ValueError("weights must be nonnegative")
        if not abs(total - 1.0) <= NORM_TOL:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        if skew[r].max() > NORM_TOL:
            raise ValueError("cross terms must be Hermitian")
        raise ValueError("|cross_ij| must equal sqrt(w_i w_j) for alive pairs")
    if w[dead[r]].any():
        raise ValueError("dead states must carry zero weight")
    raise ValueError("dead states must have zero cross terms")


@dataclass(frozen=True)
class JointState:
    """Coupled system-detector state: simplex weights plus spectator cross terms.

    weights  -- w_i >= 0, sum 1; the diagonal coefficients |a_i|^2
    cross    -- Hermitian off-diagonal matrix, |kappa_ij| = sqrt(w_i w_j) for
                alive pairs; diagonal unused (zero)
    alive    -- False once a state's weight has irreversibly hit zero
    """

    weights: np.ndarray
    cross: np.ndarray
    alive: np.ndarray

    def __post_init__(self):
        w = _frozen_array(self.weights, np.float64)
        k = _frozen_array(self.cross, np.complex128)
        al = _frozen_array(self.alive, bool)
        n = w.size
        if w.ndim != 1 or n < 2:
            raise TooFewStatesError("need at least 2 states")
        if k.shape != (n, n) or al.shape != (n,):
            raise ValueError("weights, cross and alive have inconsistent shapes")
        _check_joint(w, k, al)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "cross", k)
        object.__setattr__(self, "alive", al)

    @property
    def n(self) -> int:
        return self.weights.size


def _joint_rows(weights, cross, alive):
    """One JointState per row of the stacks weights and alive (rows, N) and
    cross (rows, N, N), all checked at once by JointState's checks; the
    stacks become read-only and each state holds row views of them."""
    _check_joint(weights, cross, alive)
    for arr in (weights, cross, alive):
        arr.setflags(write=False)
    for w, k, al in zip(weights, cross, alive):
        joint = object.__new__(JointState)
        joint.__dict__.update(weights=w, cross=k, alive=al)  # frozen: set past __setattr__
        yield joint


def normalize(raw) -> QuantumState:
    """Normalize a raw complex vector to a QuantumState.

    Raises AllZeroError for a (numerically) zero vector, TooFewStatesError
    for fewer than two entries and ValueError for a nan or infinite entry.
    """
    amps = np.asarray(raw, dtype=np.complex128)
    if amps.ndim != 1 or amps.size < 2:
        raise TooFewStatesError("need an amplitude vector with at least 2 entries")
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes must be finite")
    peak = np.abs(amps).max()
    # |a_i|^2 can overflow or underflow; the norm is then peak * |a / peak|
    scale = peak if peak > 1e150 or 0.0 < peak < 1e-150 else 1.0
    if scale != 1.0:  # by parts: complex division takes 1 / scale, inf if subnormal
        amps = amps.real / scale + 1j * (amps.imag / scale)
    norm = np.linalg.norm(amps)
    if scale * norm < 1e-300:
        raise AllZeroError("cannot normalize an all-zero amplitude vector")
    return QuantumState(amps / norm)


def form_joint(state: QuantumState) -> JointState:
    """Couple a quantum state to its detector image.

    The pairing of equal-amplitude components squares the coefficients:
    w_i = |a_i|^2.  Off-diagonal entries kappa_ij = a_i * conj(a_j) record
    the spectator cross terms; the diagonal is left zero (unused).
    """
    a = state.amplitudes
    w = np.abs(a) ** 2
    cross = np.outer(a, a.conj())
    np.fill_diagonal(cross, 0.0)
    alive = np.ones(a.size, dtype=bool)
    return JointState(weights=w, cross=cross, alive=alive)


def parse_amplitudes(text: str) -> np.ndarray:
    """Parse semicolon-separated "re,im" pairs, e.g. "0.6,0;0,0.8".

    Returns the raw (unnormalized) complex vector.
    """
    parts = [p.strip() for p in text.split(";") if p.strip()]
    if not parts:
        raise ValueError("empty amplitude string")
    out = []
    for part in parts:
        fields = part.split(",")
        if len(fields) != 2:
            raise ValueError(f"amplitude entry {part!r} is not a 're,im' pair")
        try:
            re, im = float(fields[0]), float(fields[1])
        except ValueError as exc:
            raise ValueError(f"amplitude entry {part!r} is not numeric") from exc
        out.append(complex(re, im))
    return np.array(out, dtype=np.complex128)
