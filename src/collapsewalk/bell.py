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

The image density (c1 |a.lam| + 2 c2)(c1 |b.lam| + 2 c2) is sampled as a
mixture of its four terms (the composition method): the |.| and constant
terms are drawn directly, and only the overlap term c1^2 |a.lam||b.lam|
needs rejection.  Its proposals come from the density |a.lam| / 2 pi and
are kept with probability |b.lam|, so the acceptance is exactly
integral |a.lam||b.lam| dOmega / 2 pi = I(theta) / 2 pi >= 0.42.  The
disc's own rejection step only makes each proposal and is not counted.
Image-event batches and estimates carry this rate as ``acceptance_rate``.

Every Monte Carlo estimator draws through chunks of CHUNK_SIZE events with
independent child streams, so results are reproducible for a given seed
regardless of scheduling.  Per-seed draws depend on CHUNK_SIZE and on the
order in which the samplers consume their streams; changing either changes
the per-seed output of both estimators (sign model, image events), not their
laws.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import NoRealRootError, RejectionStallError

C1 = math.sqrt(3.0 / (4.0 * math.pi))
UNIT_TOL = 1e-12
CHUNK_SIZE = 1 << 14  # events per chunk: one chunk's arrays stay within L2
MODEL_TAGS = ("quantum", "bell-sign", "image-analytic", "image-event")
VERDICT_ALPHA = 0.00135  # false-verdict rate of a margin: the one-sided 3 sigma tail


def _unit_vector(values) -> np.ndarray:
    v = np.array(values, dtype=float)
    if v.shape != (3,):
        raise ValueError("direction must be a 3-vector")
    if not abs(np.linalg.norm(v) - 1.0) <= UNIT_TOL:
        raise ValueError(f"vector must have unit norm, got |v| = {np.linalg.norm(v)!r}")
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class DetectorSetting:
    """Unit 3-vector measurement frame of one detector."""

    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "direction", _unit_vector(self.direction))

    @classmethod
    def from_vector(cls, values) -> "DetectorSetting":
        v = np.asarray(values, dtype=float)
        norm = np.linalg.norm(v)
        if not 0.0 < norm < math.inf:
            raise ValueError(f"cannot orient a detector along a vector of norm {norm!r}")
        return cls(v / norm)

    @classmethod
    def from_plane_angle_degrees(cls, degrees: float) -> "DetectorSetting":
        """Coplanar setting at the given angle in the x-z plane."""
        rad = math.radians(degrees)
        return cls(np.array([math.sin(rad), 0.0, math.cos(rad)]))


@dataclass(frozen=True)
class ModelConstants:
    """Image-model densities: fixed c1 and the per-setting-pair c2.

    c2 solves 16 pi c2^2 + 8 pi c1 c2 + c1^2 I(theta) - 1 = 0 (the total
    joint mass over lam and both mu branches equals one); it vanishes for
    parallel or antiparallel settings.
    """

    c1: float
    c2: float
    theta: float
    overlap: float
    residual: float

    def __post_init__(self):
        if not abs(self.c1 - C1) <= 1e-15:
            raise ValueError("c1 must equal sqrt(3 / 4 pi)")
        if not 0.0 <= self.c2 < math.inf:
            raise ValueError("c2 must be finite and nonnegative")
        if not 0.0 <= self.theta <= math.pi + 1e-12:  # the range overlap_integral takes
            raise ValueError("theta must lie in [0, pi]")
        if not 0.0 <= self.overlap < math.inf:
            raise ValueError("overlap must be finite and nonnegative")
        if not self.residual <= 1e-8:
            raise ValueError(f"normalization residual {self.residual!r} above 1e-8")


@dataclass(frozen=True)
class CorrelationEstimate:
    """Correlation value with its standard error and provenance tag; image-event
    estimates also carry their overlap term's acceptance rate."""

    value: float
    stderr: float
    n: int
    model: str
    acceptance_rate: float | None = None

    def __post_init__(self):
        if self.model not in MODEL_TAGS:
            raise ValueError(f"unknown model tag {self.model!r}")
        if not 0.0 <= self.stderr < math.inf:
            raise ValueError("stderr must be finite and nonnegative")
        if operator.index(self.n) < 0:
            raise ValueError("n must be nonnegative")
        if self.acceptance_rate is not None and not 0.0 < self.acceptance_rate <= 1.0:
            raise ValueError("acceptance_rate must lie in (0, 1]")
        if not abs(self.value) <= 1.0 + 3.0 * self.stderr + 1e-9:
            raise ValueError(
                f"estimate {self.value!r} outside the physical range by > 3 sigma"
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


def _chunks(rng: np.random.Generator, n: int):
    """Yield (count, stream) pieces of CHUNK_SIZE events with independent
    child streams."""
    streams = rng.spawn((n + CHUNK_SIZE - 1) // CHUNK_SIZE)
    for c, sub in enumerate(streams):
        yield min(CHUNK_SIZE, n - c * CHUNK_SIZE), sub


def _plane(a: DetectorSetting, b: DetectorSetting) -> tuple[float, float]:
    """(cos, sin) of the angle between two settings: a.b and |a x b|.

    The sine comes from the cross product, not from sqrt(1 - cos^2), so it is
    exactly zero for identical or opposite directions even when a.a rounds
    below one.
    """
    cos_ab = float(a.direction @ b.direction)
    return cos_ab, float(np.linalg.norm(np.cross(a.direction, b.direction)))


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
    return -float(a.direction @ b.direction)


def _sign_estimate(
    total: int, n: int, model: str, convention: int = 1, acceptance_rate=None
) -> CorrelationEstimate:
    """Estimate from the sum of n products E^A E^B in {-1, +1}: the mean,
    with stderr sqrt((1 - mean^2) / (n - 1)), so n must be at least 2."""
    if n < 2:
        raise ValueError("a correlation estimate needs at least two events")
    value = convention * (total / n)
    stderr = math.sqrt(max(0.0, 1.0 - value * value) / (n - 1))
    return CorrelationEstimate(value, stderr, n, model, acceptance_rate)


def bell_sign_correlation(
    a: DetectorSetting, b: DetectorSetting, n: int, rng=None
) -> CorrelationEstimate:
    """Deterministic hemisphere model: E^A = sign(a.lam), E^B = -sign(b.lam).

    Ties a.lam = 0 (measure zero) are resampled.  The estimate converges to
    -1 + 2 theta / pi and never violates the inequalities.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = _as_rng(rng)
    cos_ab, sin_ab = _plane(a, b)
    total = 0
    for count, sub in _chunks(rng, n):
        da, db = _dot_pairs(sub, count, cos_ab, sin_ab)
        tie = (da == 0.0) | (db == 0.0)
        while np.any(tie):
            da[tie], db[tie] = _dot_pairs(sub, int(tie.sum()), cos_ab, sin_ab)
            tie = (da == 0.0) | (db == 0.0)
        # E^A E^B = -1 where the projections share a sign, +1 elsewhere
        total += count - 2 * int(np.count_nonzero(np.signbit(da) == np.signbit(db)))
    return _sign_estimate(total, n, "bell-sign")


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
    return ModelConstants(
        c1=C1, c2=c2, theta=theta, overlap=overlap, residual=residual
    )


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
        convention * float(a.direction @ b.direction), 0.0, 0, "image-analytic"
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
    us, vs = [np.empty(0)], [np.empty(0)]
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
    return np.concatenate(us), np.concatenate(vs), proposed, accepted


def _wing_branches(
    sub: np.random.Generator, dot: np.ndarray, c1: float, c2: float
):
    """mu and outcome of one wing given setting.lam for each event.

    mu is 0 with probability c1 |dot| / (c1 |dot| + 2 c2), else +-1
    equiprobably; the outcome is sign(dot) on the mu = 0 branch and mu
    itself otherwise.  One uniform per event: with w = c1 |dot| and
    x = U (w + 2 c2), mu is 0 for x < w, +1 for x < w + c2 and -1 otherwise.
    Given mu != 0, x is uniform on [w, w + 2 c2), so +-1 stay equiprobable
    and independent of dot.  mu = 0 needs x < w, hence dot != 0, so the
    sign bit of dot gives sign(dot) there.
    """
    weight = c1 * np.abs(dot)
    x = sub.random(dot.size)
    x *= weight + 2.0 * c2
    zero = x < weight
    weight += c2
    plus = x < weight
    mu = plus.view(np.int8) * np.int8(2)
    mu -= np.int8(1)
    mu -= zero.view(np.int8)
    sign = np.int8(1) - np.int8(2) * np.signbit(dot).view(np.int8)
    return mu, np.where(zero, sign, mu)


def _image_events(a: DetectorSetting, b: DetectorSetting, n: int, rng):
    """n image events for the settings a, b, one CHUNK_SIZE chunk at a time.

    Yields (dot_a, dot_b, mu_a, mu_b, outcome_a, outcome_b, proposed,
    accepted) per chunk: the chunk's event arrays, then the overlap term's
    proposals and acceptances in it.
    """
    if n < 1:
        raise ValueError("need at least one event")
    consts = solve_c2(angle_between(a, b))
    c1, c2 = consts.c1, consts.c2
    cos_ab, sin_ab = _plane(a, b)
    rate = consts.overlap / (2.0 * math.pi)
    side = 4.0 * math.pi * c1 * c2
    mass = np.array([c1 * c1 * consts.overlap, side, side, 16.0 * math.pi * c2 * c2])
    edges = np.cumsum(mass / mass.sum())[:-1].tolist()
    for count, sub in _chunks(_as_rng(rng), n):
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
        pick = np.flatnonzero(term == 1)
        da[pick], db[pick] = _dot_pairs(sub, pick.size, cos_ab, sin_ab, tilted=True)
        pick = np.flatnonzero(term == 2)
        db[pick], da[pick] = _dot_pairs(sub, pick.size, cos_ab, sin_ab, tilted=True)
        pick = np.flatnonzero(term == 3)
        da[pick], db[pick] = _dot_pairs(sub, pick.size, cos_ab, sin_ab)
        mu_a, out_a = _wing_branches(sub, da, c1, c2)
        mu_b, out_b = _wing_branches(sub, db, c1, c2)
        yield da, db, mu_a, mu_b, out_a, out_b, proposed, accepted


def sample_image_events(
    a: DetectorSetting, b: DetectorSetting, n: int, rng=None
) -> ImageEventBatch:
    """Draw n local events (lam, mu^A, mu^B) from the joint image density.

    The lam density (c1 |a.lam| + 2 c2)(c1 |b.lam| + 2 c2) is sampled as a
    mixture of its four terms, with weights equal to their masses:
    c1^2 I(theta) for c1^2 |a.lam||b.lam|, 4 pi c1 c2 for each of
    2 c1 c2 |a.lam| and 2 c1 c2 |b.lam|, and 16 pi c2^2 for the constant
    4 c2^2 (they sum to one, which is the equation solve_c2 solves).  Each
    event is drawn as its pair (a.lam, b.lam) in the plane of the settings;
    the |.| terms and the constant term are drawn directly, and the overlap
    term is drawn tilted about a and kept with probability |b.lam|.
    Each mu is then 0 with probability c1 |setting.lam| /
    (c1 |setting.lam| + 2 c2), else +-1 equiprobably.  Outcomes are
    sign(setting.lam) on the mu = 0 branch and mu itself otherwise.
    dot_a and dot_b hold the projections; lam itself is never formed.

    ``acceptance_rate`` is accepted / proposed for the overlap term; its
    exact value is I(theta) / 2 pi, between 0.42 and 0.67 for every theta
    (1.0 when no event came from that term).  A collapsed rate (below 1e-3
    after ten chunks' worth of proposals) cannot happen for valid constants
    and raises RejectionStallError.
    """
    *columns, proposed, accepted = zip(*_image_events(a, b, n, rng))
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
    reduced chunk by chunk, so memory stays at one chunk for any n.
    """
    if convention not in (1, -1):
        raise ValueError("convention must be +1 or -1")
    total = proposed = accepted = 0
    for *_, out_a, out_b, tried, kept in _image_events(a, b, n, rng):
        total += _outcome_sum(out_a, out_b)
        proposed += tried
        accepted += kept
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
        return CorrelationEstimate(
            value=quantum_correlation(a, b), stderr=0.0, n=0, model="quantum"
        )
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
