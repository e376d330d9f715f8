"""Domain types for amplitude vectors and coupled system-detector states.

A ``QuantumState`` is a normalized complex amplitude vector.  Coupling it to
its detector image squares the coefficients: the diagonal of the coupled
state is the probability vector w_i = |a_i|^2 that seeds the random walk,
while the off-diagonal cross terms kappa_ij = a_i * conj(a_j) ride along as
passive bookkeeping ("spectators").  Cross terms never drive the walk; they
are rescaled after every step and forced to zero once a state is eliminated.

The walk's snapshots are built here as well: ``_synced_joints`` takes a block
of the walk's weight rows, rescales the cross terms on the input's fixed unit
phases (``_unit_phases``) and yields one read-only JointState per row, valid
by construction and not checked again.  The one invariant an accepted input
can still break there, unit Hermitian phases on the pairs alive once the
weights are quantized, ``run_walk`` checks once before its first draw.
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
        _require_finite(w, k)
        if w.min() < 0:
            raise ValueError("weights must be nonnegative")
        total = w.sum()
        if not abs(total - 1.0) <= NORM_TOL:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        with np.errstate(over="ignore"):  # a huge finite entry fails all the same
            skew = np.abs(k - k.conj().T).max()
            gap = np.abs(np.abs(k) - np.sqrt(np.outer(w, w)))
        if skew > NORM_TOL:
            raise ValueError("cross terms must be Hermitian")
        dead = ~al
        gap[dead] = gap[:, dead] = 0.0  # the rows and columns of dead states
        np.fill_diagonal(gap, 0.0)  # the diagonal is unused
        if gap.max() > NORM_TOL:
            raise ValueError("|cross_ij| must equal sqrt(w_i w_j) for alive pairs")
        if w[dead].any():
            raise ValueError("dead states must carry zero weight")
        if k[dead].any() or k[:, dead].any():
            raise ValueError("dead states must have zero cross terms")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "cross", k)
        object.__setattr__(self, "alive", al)

    @property
    def n(self) -> int:
        return self.weights.size


def _unit_phases(cross) -> np.ndarray:
    """kappa_ij / |kappa_ij|, and 0 where kappa_ij = 0 or the quotient is not
    finite (a subnormal kappa_ij, whose state has weight zero)."""
    mag = np.abs(cross)
    safe = np.where(mag > 0, mag, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        unit = cross / safe
    return np.where((mag > 0) & np.isfinite(unit), unit, 0.0)


def _synced_joints(phases, w, alive):
    """The joint states with weights ``w`` (zero at dead states) and
    |kappa_ij| = sqrt(w_i w_j) on the given unit phases, one per row of the
    (rows, N) stacks ``w`` and ``alive``; the diagonal and the rows and
    columns of dead states are zero.  The rows are not checked again: counts
    / M make valid weights, and ``run_walk`` has refused phases that are not
    unit and Hermitian on the pairs alive at step 0, the one way a state
    built here could fail JointState's checks.  The stacks become read-only
    and each state holds row views of them."""
    n = w.shape[1]
    kappa = phases * np.sqrt(w[:, :, None] * w[:, None, :])
    dead = ~alive
    kappa[dead[:, :, None] | dead[:, None, :]] = 0.0
    kappa[:, range(n), range(n)] = 0.0
    for arr in (w, kappa, alive):
        arr.setflags(write=False)
    for wr, kr, ar in zip(w, kappa, alive):
        joint = object.__new__(JointState)
        joint.__dict__.update(weights=wr, cross=kr, alive=ar)  # frozen: set past __setattr__
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
