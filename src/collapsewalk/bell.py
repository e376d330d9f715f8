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

The lam integrals run over the solid angle with density rho(lam) = 1 (total
mass 4 pi); c2 depends on the angle between the two settings through the
overlap integral I(theta) = integral |a.lam||b.lam| dOmega, so it is solved
per setting pair.  I(theta) and the mu = 0 correlation c1^2 integral
(a.lam)(b.lam) dOmega = a.b are evaluated in closed form; the Monte Carlo
paths remain independent routes to the same numbers.

Every Monte Carlo estimator draws through fixed-size chunks with independent
child streams, so results are reproducible for a given (seed, chunk size)
regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoRealRootError, RejectionStallError

C1 = math.sqrt(3.0 / (4.0 * math.pi))
UNIT_TOL = 1e-12
CHUNK_SIZE = 1 << 16
MODEL_TAGS = ("quantum", "bell-sign", "image-analytic", "image-event")


def _unit_vector(values) -> np.ndarray:
    v = np.array(values, dtype=float)
    if v.shape != (3,):
        raise ValueError("direction must be a 3-vector")
    if abs(np.linalg.norm(v) - 1.0) > UNIT_TOL:
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
        if norm == 0.0:
            raise ValueError("cannot orient a detector along the zero vector")
        return cls(v / norm)

    @classmethod
    def from_plane_angle_degrees(cls, degrees: float) -> "DetectorSetting":
        """Coplanar setting at the given angle in the x-z plane."""
        rad = math.radians(degrees)
        return cls(np.array([math.sin(rad), 0.0, math.cos(rad)]))


@dataclass(frozen=True)
class HiddenVector:
    """Unit 3-vector hidden variable shared by the pair."""

    lam: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lam", _unit_vector(self.lam))


@dataclass(frozen=True)
class MuBranch:
    """Detector-local three-valued branch label."""

    value: int

    def __post_init__(self):
        if self.value not in (0, 1, -1):
            raise ValueError("mu branch must be one of 0, +1, -1")


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
        if abs(self.c1 - C1) > 1e-15:
            raise ValueError("c1 must equal sqrt(3 / 4 pi)")
        if self.c2 < 0.0:
            raise ValueError("c2 must be nonnegative")
        if self.residual > 1e-8:
            raise ValueError(f"normalization residual {self.residual!r} above 1e-8")


@dataclass(frozen=True)
class CorrelationEstimate:
    """Correlation value with its standard error and provenance tag."""

    value: float
    stderr: float
    n: int
    model: str

    def __post_init__(self):
        if self.model not in MODEL_TAGS:
            raise ValueError(f"unknown model tag {self.model!r}")
        if self.stderr < 0.0:
            raise ValueError("stderr must be nonnegative")
        if abs(self.value) > 1.0 + 3.0 * self.stderr + 1e-9:
            raise ValueError(
                f"estimate {self.value!r} outside the physical range by > 3 sigma"
            )


@dataclass(frozen=True)
class InequalityReport:
    """CHSH and three-setting inequality results for one model run."""

    model: str
    settings: tuple
    chsh_s: float | None = None
    chsh_bound: float = 2.0
    chsh_stderr: float | None = None
    chsh_violated: bool | None = None
    bell64_lhs: float | None = None
    bell64_rhs: float | None = None
    bell64_stderr: float | None = None
    bell64_violated: bool | None = None

    def __post_init__(self):
        if self.chsh_s is not None:
            expect = abs(self.chsh_s) > self.chsh_bound + 3.0 * self.chsh_stderr
            if bool(self.chsh_violated) != expect:
                raise ValueError("chsh violated flag inconsistent with values")
        if self.bell64_lhs is not None:
            expect = self.bell64_lhs > self.bell64_rhs + 3.0 * self.bell64_stderr
            if bool(self.bell64_violated) != expect:
                raise ValueError("bell64 violated flag inconsistent with values")


def _as_rng(rng) -> np.random.Generator:
    if rng is None:
        return np.random.default_rng(0)
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _chunks(rng: np.random.Generator, n: int, chunk: int = CHUNK_SIZE):
    """Yield (count, stream) pieces with independent child streams."""
    n_chunks = (n + chunk - 1) // chunk
    streams = rng.spawn(n_chunks)
    for c, sub in enumerate(streams):
        yield min(chunk, n - c * chunk), sub


def _lambda_batch(rng: np.random.Generator, n: int) -> np.ndarray:
    """n points uniform on the unit sphere: cos(polar) and azimuth uniform."""
    z = rng.uniform(-1.0, 1.0, n)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def sample_lambda(rng) -> HiddenVector:
    """Draw one hidden vector uniformly over the sphere."""
    return HiddenVector(_lambda_batch(_as_rng(rng), 1)[0])


def angle_between(a: DetectorSetting, b: DetectorSetting) -> float:
    return float(np.arccos(np.clip(a.direction @ b.direction, -1.0, 1.0)))


def quantum_correlation(a: DetectorSetting, b: DetectorSetting) -> float:
    """Spin correlation of the anticorrelated pair: -a.b."""
    return -float(a.direction @ b.direction)


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
    total = 0
    for count, sub in _chunks(rng, n):
        lam = _lambda_batch(sub, count)
        da = lam @ a.direction
        db = lam @ b.direction
        tie = (da == 0.0) | (db == 0.0)
        while np.any(tie):
            redraw = _lambda_batch(sub, int(tie.sum()))
            da[tie] = redraw @ a.direction
            db[tie] = redraw @ b.direction
            tie = (da == 0.0) | (db == 0.0)
        total += int((np.sign(da) * -np.sign(db)).sum())
    value = total / n
    stderr = math.sqrt(max(0.0, 1.0 - value * value) / (n - 1)) if n > 1 else 0.0
    return CorrelationEstimate(value=value, stderr=stderr, n=n, model="bell-sign")


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
    a: DetectorSetting,
    b: DetectorSetting,
    method: str = "quadrature",
    n: int = 10**6,
    rng=None,
    convention: int = 1,
) -> CorrelationEstimate:
    """c1^2 integral of (a.lam)(b.lam) dOmega: the mu = 0 contribution.

    The "quadrature" path returns the exact value c1^2 (4 pi / 3) a.b = a.b
    (stderr 0); the Monte Carlo path averages the 4 pi weighted integrand
    over uniform lam as an independent route to the same number.
    ``convention`` flips the overall sign (the reported default keeps
    +cos theta; the anticorrelated convention uses -1).
    """
    if convention not in (1, -1):
        raise ValueError("convention must be +1 or -1")
    if method == "quadrature":
        return CorrelationEstimate(
            value=convention * float(a.direction @ b.direction),
            stderr=0.0,
            n=0,
            model="image-analytic",
        )
    if method != "mc":
        raise ValueError("method must be 'quadrature' or 'mc'")
    if n < 2:
        raise ValueError("need at least two samples for the MC path")
    rng = _as_rng(rng)
    s1 = 0.0
    s2 = 0.0
    for count, sub in _chunks(rng, n):
        lam = _lambda_batch(sub, count)
        vals = 4.0 * np.pi * C1 * C1 * (lam @ a.direction) * (lam @ b.direction)
        s1 += float(vals.sum())
        s2 += float((vals * vals).sum())
    mean = s1 / n
    var = max(0.0, (s2 - n * mean * mean) / (n - 1))
    return CorrelationEstimate(
        value=convention * mean,
        stderr=math.sqrt(var / n),
        n=n,
        model="image-analytic",
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


def sample_image_events(
    a: DetectorSetting, b: DetectorSetting, n: int, rng=None
) -> ImageEventBatch:
    """Draw n local events (lam, mu^A, mu^B) from the joint image density.

    lam is rejection-sampled with weight
    (c1 |a.lam| + 2 c2)(c1 |b.lam| + 2 c2) against the global envelope
    (c1 + 2 c2)^2; each mu is then 0 with probability
    c1 |setting.lam| / (c1 |setting.lam| + 2 c2), else +-1 equiprobably.
    Outcomes are sign(setting.lam) on the mu = 0 branch and mu itself
    otherwise.  A collapsed acceptance rate (below 1e-3) cannot happen for
    valid constants and raises RejectionStallError.
    """
    if n < 1:
        raise ValueError("need at least one event")
    rng = _as_rng(rng)
    consts = solve_c2(angle_between(a, b))
    c1, c2 = consts.c1, consts.c2
    w_max = (c1 + 2.0 * c2) ** 2
    da_parts, db_parts = [], []
    proposed = 0
    accepted = 0
    for count, sub in _chunks(rng, n):
        have = 0
        da_chunk, db_chunk = [], []
        while have < count:
            lam = _lambda_batch(sub, CHUNK_SIZE)
            da = lam @ a.direction
            db = lam @ b.direction
            weight = (c1 * np.abs(da) + 2.0 * c2) * (c1 * np.abs(db) + 2.0 * c2)
            keep = sub.random(CHUNK_SIZE) * w_max < weight
            proposed += CHUNK_SIZE
            accepted += int(keep.sum())
            da_chunk.append(da[keep])
            db_chunk.append(db[keep])
            have += int(keep.sum())
            if proposed >= 10 * CHUNK_SIZE and accepted < 1e-3 * proposed:
                raise RejectionStallError(
                    f"acceptance rate {accepted / proposed:.2e}; invalid constants"
                )
        da = np.concatenate(da_chunk)[:count]
        db = np.concatenate(db_chunk)[:count]
        p0a = c1 * np.abs(da) / (c1 * np.abs(da) + 2.0 * c2)
        p0b = c1 * np.abs(db) / (c1 * np.abs(db) + 2.0 * c2)
        zero_a = sub.random(count) < p0a
        zero_b = sub.random(count) < p0b
        flip_a = (sub.integers(0, 2, count) * 2 - 1).astype(np.int8)
        flip_b = (sub.integers(0, 2, count) * 2 - 1).astype(np.int8)
        mu_a = np.where(zero_a, np.int8(0), flip_a)
        mu_b = np.where(zero_b, np.int8(0), flip_b)
        out_a = np.where(zero_a, np.sign(da).astype(np.int8), flip_a)
        out_b = np.where(zero_b, np.sign(db).astype(np.int8), flip_b)
        da_parts.append((da, db, mu_a, mu_b, out_a, out_b))
    dot_a = np.concatenate([p[0] for p in da_parts])
    dot_b = np.concatenate([p[1] for p in da_parts])
    mu_a = np.concatenate([p[2] for p in da_parts])
    mu_b = np.concatenate([p[3] for p in da_parts])
    out_a = np.concatenate([p[4] for p in da_parts])
    out_b = np.concatenate([p[5] for p in da_parts])
    return ImageEventBatch(
        dot_a=dot_a,
        dot_b=dot_b,
        mu_a=mu_a,
        mu_b=mu_b,
        outcome_a=out_a,
        outcome_b=out_b,
        acceptance_rate=accepted / proposed,
        constants=consts,
    )


def estimate_from_events(
    batch: ImageEventBatch, convention: int = 1
) -> CorrelationEstimate:
    """Correlation estimate (mean of E^A E^B) for an event batch."""
    if convention not in (1, -1):
        raise ValueError("convention must be +1 or -1")
    prod = batch.outcome_a.astype(np.int64) * batch.outcome_b.astype(np.int64)
    n = prod.size
    value = convention * float(prod.mean())
    stderr = math.sqrt(max(0.0, 1.0 - value * value) / (n - 1)) if n > 1 else 0.0
    return CorrelationEstimate(value=value, stderr=stderr, n=n, model="image-event")


def image_correlation_event(
    a: DetectorSetting,
    b: DetectorSetting,
    n: int,
    rng=None,
    convention: int = 1,
) -> CorrelationEstimate:
    """Event-level estimate of the image-model correlation.

    Mean of E^A E^B over n sampled events; converges to cos(theta) (times
    the sign convention) as the mu = +-1 branches cancel.
    """
    if convention not in (1, -1):
        raise ValueError("convention must be +1 or -1")
    return estimate_from_events(sample_image_events(a, b, n, rng), convention)


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
    a, a', b, b') probe the bound maximally.  The flag fires only when the
    bound is exceeded by more than three combined standard errors.
    """
    rng = _as_rng(rng)
    streams = rng.spawn(4)
    est = [
        correlation_estimate(model, a, b, n, streams[0], convention),
        correlation_estimate(model, a, b_alt, n, streams[1], convention),
        correlation_estimate(model, a_alt, b, n, streams[2], convention),
        correlation_estimate(model, a_alt, b_alt, n, streams[3], convention),
    ]
    s = est[0].value - est[1].value + est[2].value + est[3].value
    combined = math.sqrt(sum(e.stderr**2 for e in est))
    return InequalityReport(
        model=model,
        settings=(a, a_alt, b, b_alt),
        chsh_s=s,
        chsh_bound=2.0,
        chsh_stderr=combined,
        chsh_violated=abs(s) > 2.0 + 3.0 * combined,
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

    Violated (beyond three combined standard errors) by the cosine models
    at generic coplanar angles, never by the sign model.
    """
    rng = _as_rng(rng)
    streams = rng.spawn(3)
    c_ab = correlation_estimate(model, a, b, n, streams[0], convention)
    c_ab2 = correlation_estimate(model, a, b_alt, n, streams[1], convention)
    c_bb2 = correlation_estimate(model, b, b_alt, n, streams[2], convention)
    lhs = abs(c_ab.value - c_ab2.value)
    rhs = 1.0 + c_bb2.value
    combined = math.sqrt(c_ab.stderr**2 + c_ab2.stderr**2 + c_bb2.stderr**2)
    return InequalityReport(
        model=model,
        settings=(a, b, b_alt),
        bell64_lhs=lhs,
        bell64_rhs=rhs,
        bell64_stderr=combined,
        bell64_violated=lhs > rhs + 3.0 * combined,
    )
