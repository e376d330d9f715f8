"""Bell-test correlation laboratory.

Three correlation models for a spin-anticorrelated pair measured along unit
vectors a and b, plus the inequality evaluators that compare them:

* quantum reference            C(a, b) = -a.b
* deterministic sign model     E^A = sign(a.lam), E^B = -sign(b.lam) with
                               lam uniform on the sphere; C = -1 + 2 theta/pi
* detector-image model         each wing carries a three-valued local
                               variable mu in {0, +1, -1} whose density
                               depends on the shared lam and the local
                               setting: density c1 |setting.lam| for mu = 0
                               (outcome sign(setting.lam)) and c2 for each of
                               mu = +-1 (outcome +-1).  With c1 = sqrt(3/4pi)
                               and c2 fixed by normalizing the joint measure,
                               the +-1 branches cancel in the expectation and
                               C(a, b) = cos(theta) up to an overall sign
                               convention, matching the quantum magnitude and
                               violating the CHSH bound.

``chsh`` and ``bell64`` combine the estimates into an InequalityReport, which
alone decides each verdict: past the bound by more than three combined
standard errors and by more than a Hoeffding margin in the event count, so a
local model on its bound is flagged in at most VERDICT_ALPHA of runs at any n.

The lam integrals run over the solid angle with density rho(lam) = 1 (total
mass 4 pi); c2 depends on the angle between the two settings through the
overlap integral I(theta) = integral |a.lam||b.lam| dOmega, so it is solved
per setting pair.  I(theta) and the mu = 0 correlation c1^2 integral
(a.lam)(b.lam) dOmega = a.b are evaluated in closed form only; Monte Carlo
checks of both closed forms live in the tests.

The estimators never build lam itself.  The joint law of (a.lam, b.lam)
depends on the settings only through a.b, so every estimator draws the two
projections directly in the plane of the settings, from one point (p, q)
uniform in the unit disc and no trigonometry (see ``_dot_pairs``):

* uniform lam: Marsaglia's (1972) map of the disc onto the sphere gives
  a.lam = 1 - 2s and the in-plane normal part 2p sqrt(1 - s), s = p^2 + q^2;
* lam with density proportional to |a.lam|: the sphere's area element over
  the disc of lam's projection normal to a is d^2w / |a.lam|, so that
  projection is uniform in the disc, a.lam = +-sqrt(1 - s) with a fair sign,
  and the in-plane normal part is q.

The image density, a product over the wings of c1 |setting.lam| [mu = 0] +
c2 [mu = +-1], is sampled as a mixture of its four terms (the composition
method; Devroye 1986, II.4).  Each term is one (mu_A, mu_B) class cell, so
the term that draws lam fixes which branches are 0; each +-1 branch is a
fair coin.  Only the overlap term c1^2 |a.lam||b.lam| needs rejection: its
proposals come from the density |a.lam| / 2 pi and are kept with
probability |b.lam|, so the acceptance is exactly I(theta) / 2 pi >= 0.42
(the disc's own rejection only makes proposals and is not counted).
Image-event batches and estimates carry this rate as ``acceptance_rate``.

Every Monte Carlo estimator draws through chunks of CHUNK_SIZE events with
independent child streams, so results are reproducible for a given seed
regardless of scheduling: image-event and sign-model calls of at least
_SPLIT_CHUNKS chunks share them with a forked helper process (see
``_helper``) and give the bytes of one process.  Per-seed draws depend on
CHUNK_SIZE and on the order in which the samplers consume their streams;
changing either changes the per-seed output of both estimators (sign model,
image events), not their laws.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import _helper
from .errors import NoRealRootError, RejectionStallError

C1 = math.sqrt(3.0 / (4.0 * math.pi))
UNIT_TOL = 1e-12
CHUNK_SIZE = 1 << 14  # events per chunk: one chunk's arrays stay within L2
MODEL_TAGS = ("quantum", "bell-sign", "image-analytic", "image-event")
SAMPLED_MODELS = ("bell-sign", "image-event")  # the others are closed forms and draw nothing
VERDICT_ALPHA = 0.00135  # false-verdict rate of a margin: the one-sided 3 sigma tail
# fewest chunks of a sampled call that a helper shares: in one process, about
# 5 ms of image events or 2 ms of sign-model events
_SPLIT_CHUNKS = 4
_EVENT_BYTES = 20  # one image event's columns: two float64 projections, four int8 labels


@dataclass(frozen=True, init=False)
class DetectorSetting:
    """Unit 3-vector measurement frame of one detector."""

    direction: np.ndarray

    def __init__(self, direction):
        v = np.array(direction, dtype=float)
        if v.shape != (3,):
            raise ValueError("direction must be a 3-vector")
        # np.linalg.norm's own sum, as a Python float; ndarray.dot is the ddot
        # that v @ v reaches, at half its call cost
        norm = math.sqrt(v.dot(v))
        if not abs(norm - 1.0) <= UNIT_TOL:
            raise ValueError(f"vector must have unit norm, got |v| = {norm!r}")
        v.setflags(write=False)
        self.__dict__.update(direction=v)  # frozen: set past __setattr__

    @classmethod
    def from_vector(cls, values) -> "DetectorSetting":
        v = np.asarray(values, dtype=float)
        # |v|^2 can overflow or underflow where v does not: scale by max |v_i|
        peak = float(np.abs(v).max(initial=0.0))  # 0, inf or nan exactly when |v| is
        if not 0.0 < peak < math.inf:
            raise ValueError(f"cannot orient a detector along a vector of norm {peak!r}")
        v = v / peak
        return cls(v / np.linalg.norm(v))

    @classmethod
    def from_plane_angle_degrees(cls, degrees: float) -> "DetectorSetting":
        """Coplanar setting at the given angle in the x-z plane."""
        rad = math.radians(degrees)
        return cls([math.sin(rad), 0.0, math.cos(rad)])


@dataclass(frozen=True, init=False)
class ModelConstants:
    """Image-model densities: fixed c1 and the per-setting-pair c2.

    c2 solves 16 pi c2^2 + 8 pi c1 c2 + c1^2 I(theta) - 1 = 0 (the total
    joint mass over lam and both mu branches equals one); it vanishes for
    parallel or antiparallel settings.  The residual is the |.| of that
    left-hand side, so it lies in [0, 1e-8].
    """

    c1: float
    c2: float
    theta: float
    overlap: float
    residual: float

    def __init__(self, c1: float, c2: float, theta: float, overlap: float, residual: float):
        if not abs(c1 - C1) <= 1e-15:
            raise ValueError("c1 must equal sqrt(3 / 4 pi)")
        if not 0.0 <= c2 < math.inf:
            raise ValueError("c2 must be finite and nonnegative")
        if not 0.0 <= theta <= math.pi + 1e-12:  # the range overlap_integral takes
            raise ValueError("theta must lie in [0, pi]")
        if not 0.0 <= overlap < math.inf:
            raise ValueError("overlap must be finite and nonnegative")
        if not residual <= 1e-8:
            raise ValueError(f"normalization residual {residual!r} above 1e-8")
        if residual < 0.0:  # an absolute value
            raise ValueError(f"normalization residual {residual!r} below 0")
        # frozen: set past __setattr__
        self.__dict__.update(c1=c1, c2=c2, theta=theta, overlap=overlap, residual=residual)


@dataclass(frozen=True, init=False)
class CorrelationEstimate:
    """Correlation value with its standard error and provenance tag; image-event
    estimates also carry their overlap term's acceptance rate."""

    value: float
    stderr: float
    n: int
    model: str
    acceptance_rate: float | None = None

    def __init__(
        self, value: float, stderr: float, n: int, model: str, acceptance_rate: float | None = None
    ):
        if model not in MODEL_TAGS:
            raise ValueError(f"unknown model tag {model!r}")
        if not 0.0 <= stderr < math.inf:
            raise ValueError("stderr must be finite and nonnegative")
        if operator.index(n) < 0:
            raise ValueError("n must be nonnegative")
        if acceptance_rate is not None and not 0.0 < acceptance_rate <= 1.0:
            raise ValueError("acceptance_rate must lie in (0, 1]")
        if not abs(value) <= 1.0 + 3.0 * stderr + 1e-9:
            raise ValueError(f"estimate {value!r} outside the physical range by > 3 sigma")
        # frozen: set past __setattr__
        self.__dict__.update(
            value=value, stderr=stderr, n=n, model=model, acceptance_rate=acceptance_rate
        )


@dataclass(frozen=True)
class InequalityReport:
    """CHSH and three-setting inequality results for one model run, with the
    correlation estimates they combine.

    The report alone decides each verdict: an inequality is violated when its
    statistic exceeds its bound by more than max(3 stderr, margin).  The
    margin is the Hoeffding deviation that n events per estimate (the fewest
    among the estimates) exceed with probability at most VERDICT_ALPHA, so a
    local model on its bound is flagged in at most that share of runs even
    at small n, where the plug-in stderr collapses (it is 0 once an estimate
    reads +-1).  Each estimate is the mean of n products in {-1, +1}: S sums
    4n independent terms of range 2/n, so P(S - E S >= t) <= exp(-n t^2 / 8);
    lhs - rhs sums 3n such terms for either sign inside |.|, so
    P <= 2 exp(-n t^2 / 6).  Exact models (n = 0) take no margin.
    """

    model: str
    settings: tuple
    chsh_s: float | None = None
    chsh_bound: float = 2.0
    chsh_stderr: float | None = None
    chsh_margin: float | None = field(init=False, default=None)
    chsh_violated: bool | None = field(init=False, default=None)
    bell64_lhs: float | None = None
    bell64_rhs: float | None = None
    bell64_stderr: float | None = None
    bell64_margin: float | None = field(init=False, default=None)
    bell64_violated: bool | None = field(init=False, default=None)
    estimates: tuple = ()

    def __post_init__(self):
        n = min((e.n for e in self.estimates), default=0)

        def decide(prefix, value, bound, stderr, spread, tails):
            margin = math.sqrt(spread * math.log(tails / VERDICT_ALPHA) / n) if n else 0.0
            object.__setattr__(self, prefix + "_margin", margin)
            object.__setattr__(
                self, prefix + "_violated", value > bound + max(3.0 * stderr, margin)
            )

        if self.chsh_s is not None:
            decide("chsh", abs(self.chsh_s), self.chsh_bound, self.chsh_stderr, 8.0, 1.0)
        if self.bell64_lhs is not None:
            decide(
                "bell64", self.bell64_lhs, self.bell64_rhs, self.bell64_stderr, 6.0, 2.0
            )


def _as_rng(rng) -> np.random.Generator:
    if rng is None:
        return np.random.default_rng(0)
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _event_count(n) -> int:
    """``n`` as a Python int; TypeError naming it unless it is an integer."""
    try:
        return operator.index(n)
    except TypeError:
        raise TypeError(f"n must be an integer, not {n!r}") from None


def _chunks(rng: np.random.Generator, n: int):
    """Yield (count, stream) pieces of CHUNK_SIZE events with independent
    child streams, each spawned as its chunk is reached: the children
    ``rng.spawn(chunks)`` would give, without holding them all at once."""
    for lo in range(0, n, CHUNK_SIZE):
        yield min(CHUNK_SIZE, n - lo), rng.spawn(1)[0]


class _ChildChunks:
    """``count`` full chunks on the children ``first``, ``first + 1``, ... of
    ``rng``'s SeedSequence: the streams ``_chunks`` spawns at those spawn
    counts, built one at a time from fields that pickle, so a helper process
    can be sent them."""

    def __init__(self, rng: np.random.Generator, first: int, count: int):
        seq = rng.bit_generator.seed_seq
        self.bit_generator = type(rng.bit_generator)
        self.fields = seq.entropy, seq.spawn_key, seq.pool_size
        self.first, self.count = first, count

    def __iter__(self):
        entropy, spawn_key, pool_size = self.fields
        for i in range(self.first, self.first + self.count):
            seq = np.random.SeedSequence(
                entropy, spawn_key=(*spawn_key, i), pool_size=pool_size
            )
            yield CHUNK_SIZE, np.random.Generator(self.bit_generator(seq))


def _plane(a: DetectorSetting, b: DetectorSetting) -> tuple[float, float]:
    """(cos, sin) of the angle between two settings: a.b and |a x b|.

    The sine comes from the cross product, not from sqrt(1 - cos^2), so it is
    exactly zero for identical or opposite directions even when a.a rounds
    below one.  The cross product is formed from Python floats, with the
    products and differences ``np.cross`` forms and ``np.linalg.norm``'s
    sum, at a tenth of ``np.cross``'s cost.
    """
    (a0, a1, a2), (b0, b1, b2) = a.direction.tolist(), b.direction.tolist()
    cross = np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
    return float(a.direction @ b.direction), math.sqrt(cross @ cross)


def _disc_points(rng: np.random.Generator, n: int):
    """(p, q, s) for n points uniform in the unit disc, with s = p^2 + q^2.

    Rejection from the square [-1, 1)^2 keeps a point with probability
    pi / 4; each round is sized with a 4 sigma margin, so one round nearly
    always suffices.  Points are compressed by index, never by mask.
    """
    parts = []
    left = n
    while True:
        m = int((left + 4.0 * math.sqrt(left)) / (math.pi / 4.0)) + 1
        pq = rng.random(2 * m)
        pq *= 2.0
        pq -= 1.0
        p, q = pq[:m], pq[m:]
        s = p * p
        s += q * q
        keep = np.flatnonzero(s < 1.0)[:left]
        parts.append((p.take(keep), q.take(keep), s.take(keep)))
        left -= keep.size
        if left == 0:
            break
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(column) for column in zip(*parts))


def _dot_pairs(
    rng: np.random.Generator,
    n: int,
    cos_ab: float,
    sin_ab: float,
    tilted: bool = False,
):
    """(x.lam, y.lam) for n hidden vectors, x and y unit at angle (cos_ab, sin_ab).

    Drawn in the plane of x and y from one point (p, q) uniform in the unit
    disc, s = p^2 + q^2, with no trigonometry.  Write lam = u x + w, with w
    normal to x and e the unit vector normal to x in the plane of x and y,
    so y.lam = cos_ab u + sin_ab (e.w).

    * Uniform lam (Marsaglia 1972): (2p sqrt(1 - s), 2q sqrt(1 - s), 1 - 2s)
      is uniform on the sphere, so u = 1 - 2s and e.w = 2p sqrt(1 - s).
    * Density proportional to |x.lam| (``tilted``): the sphere's area
      element is d^2w / |u| over the disc of w, so the weight |u| makes w
      itself uniform in the disc, and the sign of u is a fair bit
      independent of it.  So e.w = q and u = sqrt(1 - s) with the sign of
      p: p enters s only squared, so its sign is a fair bit independent of
      s and q.  |u| then has density 2|u| on [0, 1], i.e. u has density
      |u| / 2.

    The joint law of the two projections depends on the settings only
    through x.y, so this matches projecting a full lam batch.  For parallel
    or antiparallel settings sin_ab is exactly zero and y.lam = cos_ab u.
    """
    p, q, s = _disc_points(rng, n)
    root = np.sqrt(1.0 - s)
    if tilted:
        u = np.copysign(root, p, out=root)
        perp = q
    else:
        u = 1.0 - 2.0 * s
        perp = root
        perp *= 2.0 * p
    v = cos_ab * u
    v += sin_ab * perp
    return u, v


def angle_between(a: DetectorSetting, b: DetectorSetting) -> float:
    return float(np.arccos(np.clip(a.direction @ b.direction, -1.0, 1.0)))


def quantum_correlation(a: DetectorSetting, b: DetectorSetting) -> float:
    """Spin correlation of the anticorrelated pair: -a.b."""
    return -float(a.direction.dot(b.direction))


def _estimate_count(n) -> None:
    """ValueError unless the integer ``n`` is at least 2: the stderr of a
    mean of n products needs n - 1 > 0.  The estimators check it before
    they draw, so a refused call leaves the caller's stream as it was."""
    if _event_count(n) < 2:
        raise ValueError("a correlation estimate needs at least two events")


def _sign_estimate(
    total: int, n: int, model: str, convention: int = 1, acceptance_rate=None
) -> CorrelationEstimate:
    """Estimate from the sum of n products E^A E^B in {-1, +1}: the mean,
    with stderr sqrt((1 - mean^2) / (n - 1)), so n must be at least 2."""
    _estimate_count(n)
    value = convention * (total / n)
    stderr = math.sqrt(max(0.0, 1.0 - value * value) / (n - 1))
    return CorrelationEstimate(value, stderr, n, model, acceptance_rate)


def bell_sign_correlation(
    a: DetectorSetting, b: DetectorSetting, n: int, rng=None
) -> CorrelationEstimate:
    """Deterministic hemisphere model: E^A = sign(a.lam), E^B = -sign(b.lam).

    Ties a.lam = 0 (measure zero) are resampled.  The estimate converges to
    -1 + 2 theta / pi and never violates the inequalities.  From 4 chunks on,
    a forked helper process sums chunks 0 to chunks // 2 - 1 while this
    process sums the rest (see ``_helper``).
    """
    _estimate_count(n)
    total = sum(_chunk_parts(_sign_sums, a, b, n, rng))
    return _sign_estimate(total, n, "bell-sign")


def _sign_sums(a: DetectorSetting, b: DetectorSetting, chunks) -> int:
    """Sum of E^A E^B over the sign-model events of chunks."""
    cos_ab, sin_ab = _plane(a, b)
    total = 0
    for count, sub in chunks:
        da, db = _dot_pairs(sub, count, cos_ab, sin_ab)
        tie = (da == 0.0) | (db == 0.0)
        while np.any(tie):
            da[tie], db[tie] = _dot_pairs(sub, int(tie.sum()), cos_ab, sin_ab)
            tie = (da == 0.0) | (db == 0.0)
        # E^A E^B = -1 where the projections share a sign, +1 elsewhere
        total += count - 2 * int(np.count_nonzero(np.signbit(da) == np.signbit(db)))
    return total


def overlap_integral(theta: float) -> float:
    """I(theta) = integral over the sphere of |a.lam||b.lam| dOmega.

    Exactly (8/3)(sin theta + cos theta arcsin(cos theta)), i.e. 4 pi / 3
    times E|X||Y| for standard normals with correlation cos theta; written
    with arcsin(cos theta) = pi/2 - theta, which holds on [0, pi] and keeps
    full accuracy near the ends.  Equals 4 pi / 3 for parallel or
    antiparallel settings and 8/3 at right angles; c1^2 I(theta) <= 1
    everywhere (Cauchy-Schwarz), which keeps the c2 quadratic solvable.
    """
    if not 0.0 <= theta <= math.pi + 1e-12:
        raise ValueError("theta must lie in [0, pi]")
    return 8.0 / 3.0 * (math.sin(theta) + (math.pi / 2.0 - theta) * math.cos(theta))


def solve_c2(theta: float) -> ModelConstants:
    """Normalization constant of the mu = +-1 branches for settings at theta.

    Largest real root of 16 pi c2^2 + 8 pi c1 c2 + (c1^2 I(theta) - 1) = 0,
    using integral |a.lam| dOmega = 2 pi.  Roots below -1e-10 (impossible
    for a correct overlap integral) raise NoRealRootError; values within
    tolerance of zero are clamped to exactly zero.
    """
    overlap = overlap_integral(theta)
    a_coef = 16.0 * math.pi
    b_coef = 8.0 * math.pi * C1
    c_coef = C1 * C1 * overlap - 1.0
    disc = b_coef * b_coef - 4.0 * a_coef * c_coef
    if disc < 0.0:
        if disc < -1e-9:
            raise NoRealRootError(f"discriminant {disc!r} negative; bad overlap")
        disc = 0.0
    c2 = (-b_coef + math.sqrt(disc)) / (2.0 * a_coef)
    if c2 < -1e-10:
        raise NoRealRootError(f"admissible root {c2!r} below -1e-10")
    if abs(c2) <= 1e-10:
        c2 = 0.0
    residual = abs(a_coef * c2 * c2 + b_coef * c2 + c_coef)
    return ModelConstants(C1, c2, theta, overlap, residual)


def image_correlation_analytic(
    a: DetectorSetting, b: DetectorSetting, convention: int = 1
) -> CorrelationEstimate:
    """c1^2 integral of (a.lam)(b.lam) dOmega: the mu = 0 contribution.

    Exactly c1^2 (4 pi / 3) a.b = a.b (stderr 0).  ``convention`` flips the
    overall sign (the reported default keeps +cos theta; the anticorrelated
    convention uses -1).
    """
    if convention not in (1, -1):
        raise ValueError("convention must be +1 or -1")
    return CorrelationEstimate(
        convention * float(a.direction.dot(b.direction)), 0.0, 0, "image-analytic"
    )


@dataclass(frozen=True)
class ImageEventBatch:
    """Event-level draw from the image model for one setting pair.

    outcome arrays hold E^A, E^B in {-1, +1}; mu arrays hold the branch
    labels; dot arrays keep lam projected on each setting for diagnostics.
    """

    dot_a: np.ndarray
    dot_b: np.ndarray
    mu_a: np.ndarray
    mu_b: np.ndarray
    outcome_a: np.ndarray
    outcome_b: np.ndarray
    acceptance_rate: float
    constants: ModelConstants

    def __post_init__(self):
        # O(1) checks only, so a batch of any size costs no scan
        events = (getattr(self.dot_a, "size", None),)
        for name in ("dot_a", "dot_b", "mu_a", "mu_b", "outcome_a", "outcome_b"):
            column = getattr(self, name)
            if not (isinstance(column, np.ndarray) and column.shape == events):
                raise ValueError(f"{name} must be a 1-D array as long as dot_a")
        if not 0.0 < self.acceptance_rate <= 1.0:
            raise ValueError("acceptance_rate must lie in (0, 1]")
        if not isinstance(self.constants, ModelConstants):
            raise ValueError("constants must be a ModelConstants")


def _overlap_term_draws(
    sub: np.random.Generator, need: int, cos_ab: float, sin_ab: float, rate: float
):
    """need (a.lam, b.lam) pairs from the density proportional to |a.lam||b.lam|.

    Proposals come tilted about a (density proportional to |a.lam|) and are
    kept with probability |b.lam|, so the acceptance rate is exactly
    ``rate`` = I(theta) / 2 pi; each round is sized from it with a 4 sigma
    margin, so one round nearly always suffices.  A collapsed rate (below
    1e-3 after ten chunks' worth of proposals) raises RejectionStallError.
    """
    us, vs = [], []
    have = proposed = accepted = 0
    while have < need:
        if proposed >= 10 * CHUNK_SIZE and accepted < 1e-3 * proposed:
            raise RejectionStallError(
                f"acceptance rate {accepted / proposed:.2e}; invalid constants"
            )
        left = need - have
        m = int((left + 4.0 * math.sqrt(left)) / rate) + 1
        u, v = _dot_pairs(sub, m, cos_ab, sin_ab, tilted=True)
        keep = np.flatnonzero(sub.random(m) < np.abs(v))
        proposed += m
        accepted += keep.size
        keep = keep[:left]
        us.append(u.take(keep))
        vs.append(v.take(keep))
        have += keep.size
    if len(us) == 1:  # nearly always: that round's arrays, not a copy of them
        return us[0], vs[0], proposed, accepted
    empty = [np.empty(0)]  # need == 0 still gives float64 arrays
    return np.concatenate(empty + us), np.concatenate(empty + vs), proposed, accepted


def _wing(sub: np.random.Generator, dot: np.ndarray, noisy: np.ndarray):
    """mu and outcome of one wing: mu is a fair +-1 coin at the noisy indices
    and 0 elsewhere; the outcome is mu, or sign(dot) where mu = 0.  There the
    term that drew the event carries |dot|, so dot != 0 and its sign bit is
    sign(dot).
    """
    coins = np.int8(1) - np.int8(2) * (sub.random(noisy.size) < 0.5).view(np.int8)
    mu = np.zeros(dot.size, np.int8)
    mu[noisy] = coins
    out = np.int8(1) - np.int8(2) * np.signbit(dot).view(np.int8)
    out[noisy] = coins
    return mu, out


def _image_events(a: DetectorSetting, b: DetectorSetting, chunks):
    """Image events for the settings a, b, one (count, stream) chunk at a time.

    Yields (dot_a, dot_b, mu_a, mu_b, outcome_a, outcome_b, proposed,
    accepted) per chunk: the chunk's event arrays, then the overlap term's
    proposals and acceptances in it.
    """
    consts = solve_c2(angle_between(a, b))
    c1, c2 = consts.c1, consts.c2
    cos_ab, sin_ab = _plane(a, b)
    rate = consts.overlap / (2.0 * math.pi)
    side = 4.0 * math.pi * c1 * c2
    mass = np.array([c1 * c1 * consts.overlap, side, side, 16.0 * math.pi * c2 * c2])
    edges = np.cumsum(mass / mass.sum())[:-1].tolist()
    for count, sub in chunks:
        r = sub.random(count)
        term = (r >= edges[0]).view(np.int8)
        term += r >= edges[1]
        term += r >= edges[2]
        da = np.empty(count)
        db = np.empty(count)
        pick = np.flatnonzero(term == 0)
        da[pick], db[pick], proposed, accepted = _overlap_term_draws(
            sub, pick.size, cos_ab, sin_ab, rate
        )
        # one tilted draw for terms 1 and 2: about a for term 1, about b for term 2
        one, two = np.flatnonzero(term == 1), np.flatnonzero(term == 2)
        u, v = _dot_pairs(sub, one.size + two.size, cos_ab, sin_ab, tilted=True)
        da[one], db[one] = u[: one.size], v[: one.size]
        db[two], da[two] = u[one.size :], v[one.size :]
        pick = np.flatnonzero(term == 3)
        da[pick], db[pick] = _dot_pairs(sub, pick.size, cos_ab, sin_ab)
        # mu_a is +-1 for terms 2 and 3, mu_b for terms 1 and 3
        mu_a, out_a = _wing(sub, da, np.flatnonzero(term >= 2))
        mu_b, out_b = _wing(sub, db, np.flatnonzero(term & 1))
        yield da, db, mu_a, mu_b, out_a, out_b, proposed, accepted


def _image_event_list(a: DetectorSetting, b: DetectorSetting, chunks) -> list:
    """The per-chunk tuples of ``_image_events``."""
    return list(_image_events(a, b, chunks))


def _image_event_sums(a: DetectorSetting, b: DetectorSetting, chunks):
    """(sum of E^A E^B, proposed, accepted) over the image events of chunks;
    one chunk is held at a time."""
    total = proposed = accepted = 0
    for *_, out_a, out_b, tried, kept in _image_events(a, b, chunks):
        total += _outcome_sum(out_a, out_b)
        proposed += tried
        accepted += kept
    return total, proposed, accepted


def _chunk_parts(task, a, b, n, rng, most: int | None = None):
    """Results of ``task(a, b, chunks)`` over the chunks of n events drawn
    from rng, in chunk order.

    In one process that is ``[task(a, b, _chunks(rng, n))]``.  From
    _SPLIT_CHUNKS chunks, with a helper process and a stream of numpy's own
    types, the helper runs chunks 0 to h - 1, h = chunks // 2 (at most
    ``most``), on the children ``_chunks`` would spawn for them, while this
    process runs the rest: ``(theirs, mine)``.  Either way rng ends with one
    child spawned per chunk.
    """
    if _event_count(n) < 1:
        raise ValueError("need at least one event")
    rng = _as_rng(rng)
    chunks = -(-n // CHUNK_SIZE)
    gen, seq = rng.bit_generator, rng.bit_generator.seed_seq
    helper = None
    if (
        chunks >= _SPLIT_CHUNKS
        and type(rng) is np.random.Generator
        and type(seq) is np.random.SeedSequence
        and type(gen).__module__.startswith("numpy.random.")
    ):
        helper = _helper.current()
    if helper is None:
        return [task(a, b, _chunks(rng, n))]
    h = min(chunks // 2, most or chunks)
    theirs = _ChildChunks(rng, seq.n_children_spawned, h)
    for _ in range(h):
        seq.spawn(1)
    mine = _chunks(rng, n - h * CHUNK_SIZE)
    return _helper.split(helper, f"bell.{task.__name__}", (a, b, theirs), (a, b, mine))


def sample_image_events(
    a: DetectorSetting, b: DetectorSetting, n: int, rng=None
) -> ImageEventBatch:
    """Draw n local events (lam, mu^A, mu^B) from the joint image density.

    The density is sampled as a mixture of its four terms, with weights equal
    to their masses: c1^2 I(theta) for c1^2 |a.lam||b.lam| (mu^A = mu^B = 0),
    4 pi c1 c2 for 2 c1 c2 |a.lam| (mu^A = 0, mu^B = +-1) and for
    2 c1 c2 |b.lam| (mu^A = +-1, mu^B = 0), and 16 pi c2^2 for the constant
    4 c2^2 (both +-1); they sum to one, which is the equation solve_c2
    solves.  Each +-1 branch is a fair coin.  Outcomes are sign(setting.lam)
    on the mu = 0 branch and mu itself otherwise.  dot_a and dot_b hold the
    projections, drawn in the plane of the settings; lam is never formed.

    ``acceptance_rate`` is accepted / proposed for the overlap term; its
    exact value is I(theta) / 2 pi, between 0.42 and 0.67 for every theta
    (1.0 when no event came from that term).  A collapsed rate (below 1e-3
    after ten chunks' worth of proposals) cannot happen for valid constants
    and raises RejectionStallError.

    From 4 chunks of CHUNK_SIZE events on, a forked helper process draws
    chunks 0 to chunks // 2 - 1, at most the 12 whose columns fit its
    ``_helper.REGION_BYTES`` reply region, while this process draws the
    rest; the events are those one process draws (see ``_helper``).
    """
    most = _helper.REGION_BYTES // (CHUNK_SIZE * _EVENT_BYTES)
    parts = _chunk_parts(_image_event_list, a, b, n, rng, most)
    *columns, proposed, accepted = zip(*(chunk for part in parts for chunk in part))
    proposed, accepted = sum(proposed), sum(accepted)
    return ImageEventBatch(
        *(np.concatenate(column) for column in columns),
        acceptance_rate=accepted / proposed if proposed else 1.0,
        constants=solve_c2(angle_between(a, b)),
    )


def _outcome_sum(out_a: np.ndarray, out_b: np.ndarray) -> int:
    """Sum of E^A E^B over events whose outcomes are +-1: +1 where they agree."""
    return 2 * int(np.count_nonzero(out_a == out_b)) - out_a.size


def estimate_from_events(
    batch: ImageEventBatch, convention: int = 1
) -> CorrelationEstimate:
    """Correlation estimate (mean of E^A E^B) for an event batch; it carries
    the batch's acceptance rate."""
    if convention not in (1, -1):
        raise ValueError("convention must be +1 or -1")
    total = _outcome_sum(batch.outcome_a, batch.outcome_b)
    return _sign_estimate(
        total, batch.outcome_a.size, "image-event", convention, batch.acceptance_rate
    )


def image_correlation_event(
    a: DetectorSetting,
    b: DetectorSetting,
    n: int,
    rng=None,
    convention: int = 1,
) -> CorrelationEstimate:
    """Event-level estimate of the image-model correlation.

    Mean of E^A E^B over n sampled events; converges to cos(theta) (times
    the sign convention) as the mu = +-1 branches cancel.  The events and
    acceptance rate are those sample_image_events draws from the same rng,
    reduced chunk by chunk, so memory stays at one chunk per process for any
    n.  From 4 chunks on, a forked helper process reduces chunks 0 to
    chunks // 2 - 1 while this process reduces the rest (see ``_helper``).
    """
    if convention not in (1, -1):
        raise ValueError("convention must be +1 or -1")
    _estimate_count(n)
    parts = _chunk_parts(_image_event_sums, a, b, n, rng)
    total, proposed, accepted = (sum(column) for column in zip(*parts))
    rate = accepted / proposed if proposed else 1.0
    return _sign_estimate(total, n, "image-event", convention, rate)


def correlation_estimate(
    model: str,
    a: DetectorSetting,
    b: DetectorSetting,
    n: int | None = None,
    rng=None,
    convention: int = 1,
) -> CorrelationEstimate:
    """Uniform entry point over the four correlation models."""
    if model == "quantum":
        return CorrelationEstimate(quantum_correlation(a, b), 0.0, 0, "quantum")
    samples = 10**6 if n is None else n
    if model == "bell-sign":
        return bell_sign_correlation(a, b, samples, rng)
    if model == "image-analytic":
        return image_correlation_analytic(a, b, convention=convention)
    if model == "image-event":
        return image_correlation_event(a, b, samples, rng, convention=convention)
    raise ValueError(f"unknown model tag {model!r}")


def chsh(
    model: str,
    a: DetectorSetting,
    a_alt: DetectorSetting,
    b: DetectorSetting,
    b_alt: DetectorSetting,
    n: int | None = None,
    rng=None,
    convention: int = 1,
) -> InequalityReport:
    """Four-setting inequality: local setting-independent models obey
    |S| <= 2; the cosine-curve models reach 2 sqrt(2).

    S = C(a,b) - C(a,b') + C(a',b) + C(a',b'), the sign placement under
    which the canonical coplanar settings 0, 90, 45, 135 degrees (read as
    a, a', b, b') probe the bound maximally.  The report flags a violation
    only when |S| exceeds 2 by more than max(3 combined stderr, its margin);
    see InequalityReport.
    """
    rng = _as_rng(rng)
    streams = rng.spawn(4)
    est = [
        correlation_estimate(model, a, b, n, streams[0], convention),
        correlation_estimate(model, a, b_alt, n, streams[1], convention),
        correlation_estimate(model, a_alt, b, n, streams[2], convention),
        correlation_estimate(model, a_alt, b_alt, n, streams[3], convention),
    ]
    return InequalityReport(
        model=model,
        settings=(a, a_alt, b, b_alt),
        chsh_s=est[0].value - est[1].value + est[2].value + est[3].value,
        chsh_bound=2.0,
        chsh_stderr=math.sqrt(sum(e.stderr**2 for e in est)),
        estimates=tuple(est),
    )


def bell64(
    model: str,
    a: DetectorSetting,
    b: DetectorSetting,
    b_alt: DetectorSetting,
    n: int | None = None,
    rng=None,
    convention: int = 1,
) -> InequalityReport:
    """Three-setting inequality 1 + C(b, b') >= |C(a, b) - C(a, b')|.

    Violated by the cosine models at generic coplanar angles, never by the
    sign model.  The report flags a violation only when lhs exceeds rhs by
    more than max(3 combined stderr, its margin); see InequalityReport.
    """
    rng = _as_rng(rng)
    streams = rng.spawn(3)
    c_ab = correlation_estimate(model, a, b, n, streams[0], convention)
    c_ab2 = correlation_estimate(model, a, b_alt, n, streams[1], convention)
    c_bb2 = correlation_estimate(model, b, b_alt, n, streams[2], convention)
    return InequalityReport(
        model=model,
        settings=(a, b, b_alt),
        bell64_lhs=abs(c_ab.value - c_ab2.value),
        bell64_rhs=1.0 + c_bb2.value,
        bell64_stderr=math.sqrt(c_ab.stderr**2 + c_ab2.stderr**2 + c_bb2.stderr**2),
        estimates=(c_ab, c_ab2, c_bb2),
    )
