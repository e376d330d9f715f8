import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from collapsewalk import (
    C1,
    CorrelationEstimate,
    DetectorSetting,
    ImageEventBatch,
    InequalityReport,
    ModelConstants,
    bell64,
    bell_sign_correlation,
    chsh,
    correlation_estimate,
    image_correlation_analytic,
    image_correlation_event,
    overlap_integral,
    quantum_correlation,
    sample_image_events,
    solve_c2,
)
from collapsewalk.bell import (
    CHUNK_SIZE,
    VERDICT_ALPHA,
    _chunks,
    _disc_points,
    _dot_pairs,
    _overlap_term_draws,
    _plane,
    estimate_from_events,
)

# Frozen Monte Carlo oracle for the overlap integral at 90 degrees:
# 1e7 uniform sphere samples of 4 pi |a.lam||b.lam|, seed 20260808,
# recorded before the quadrature was built.  (Closed form: 8/3.)
OVERLAP_90_MC = 2.666642
OVERLAP_90_MC_SE = 0.000585


def setting(deg):
    return DetectorSetting.from_plane_angle_degrees(deg)


def random_rotation(rng):
    mat, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(mat) < 0:
        mat[:, 0] = -mat[:, 0]
    return mat


def rotated(setting_obj, rot):
    return DetectorSetting(rot @ setting_obj.direction)


def overlap_semianalytic(theta):
    """Independent oracle: closed-form azimuth integral, 1D quadrature in t."""

    def phi_abs_integral(amp, off):
        if amp <= abs(off):
            return 2 * np.pi * abs(off)
        cross = np.arccos(-off / amp)
        return 4 * amp * np.sin(cross) + off * (4 * cross - 2 * np.pi)

    def f(t):
        return abs(t) * phi_abs_integral(
            np.sin(theta) * np.sqrt(max(0.0, 1 - t * t)), np.cos(theta) * t
        )

    return quad(f, -1, 0, limit=200)[0] + quad(f, 0, 1, limit=200)[0]


def sign_model_oracle(theta, n_t=1500, n_phi=3000):
    """Brute midpoint quadrature of E[sign(a.lam) sign(b.lam)]."""
    ct, st = np.cos(theta), np.sin(theta)
    t = -1 + (2 * np.arange(n_t) + 1) / n_t
    phi = (2 * np.pi) * (np.arange(n_phi) + 0.5) / n_phi
    rt = np.sqrt(1 - t * t)
    db = st * rt[:, None] * np.cos(phi)[None, :] + ct * t[:, None]
    vals = np.sign(t)[:, None] * np.sign(db)
    return float(vals.mean())


# ------------------------------------------------------ Marsaglia's sphere

def marsaglia_sphere(rng, n):
    """Oracle: n points uniform on the unit sphere by Marsaglia's (1972) map
    of a disc point, (2p sqrt(1 - s), 2q sqrt(1 - s), 1 - 2s)."""
    p, q, s = _disc_points(rng, n)
    root = 2.0 * np.sqrt(1.0 - s)
    return np.stack([root * p, root * q, 1.0 - 2.0 * s], axis=1)


def test_marsaglia_sphere_unit_norm():
    """The map lands on the sphere, and _dot_pairs' uniform branch is its
    projection on the plane of the settings, bit for bit."""
    rng = np.random.default_rng(0)
    lam = marsaglia_sphere(rng, 100_000)
    norms = np.linalg.norm(lam, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    u, v = _dot_pairs(np.random.default_rng(0), 100_000, 0.0, 1.0)
    assert u.tobytes() == lam[:, 2].tobytes()
    assert v.tobytes() == lam[:, 0].tobytes()


def test_marsaglia_sphere_isotropic_mean():
    lam = marsaglia_sphere(np.random.default_rng(1), 1_000_000)
    assert np.all(np.abs(lam.mean(axis=0)) < 4 / np.sqrt(1_000_000))


def test_marsaglia_sphere_second_moment():
    # integral (a.lam)^2 dOmega / 4pi = 1/3
    lam = marsaglia_sphere(np.random.default_rng(2), 1_000_000)
    proj2 = lam[:, 2] ** 2
    se = proj2.std(ddof=1) / np.sqrt(proj2.size)
    assert abs(proj2.mean() - 1 / 3) < 4 * se


def test_dot_pairs_uniform_moments():
    # E[(x.lam)(y.lam)] = x.y / 3 and E[(y.lam)^2] = 1/3 for uniform lam
    n = 1_000_000
    for cos_ab in (1.0, 0.5, 0.0, -0.8):
        sin_ab = math.sqrt(1.0 - cos_ab * cos_ab)
        u, v = _dot_pairs(np.random.default_rng(30), n, cos_ab, sin_ab)
        assert np.all(np.abs(u) <= 1.0) and np.all(np.abs(v) <= 1.0 + 1e-15)
        uv, v2 = u * v, v * v
        assert abs(uv.mean() - cos_ab / 3) < 4 * uv.std(ddof=1) / np.sqrt(n)
        assert abs(v2.mean() - 1 / 3) < 4 * v2.std(ddof=1) / np.sqrt(n)


def test_dot_pairs_tilted_moments():
    # density |u| / 2 on [-1, 1]: E|u| = 2/3, E[u^2] = 1/2, symmetric in sign
    n = 1_000_000
    u, v = _dot_pairs(np.random.default_rng(31), n, 0.3, math.sqrt(0.91), tilted=True)
    au, u2 = np.abs(u), u * u
    assert abs(au.mean() - 2 / 3) < 4 * au.std(ddof=1) / np.sqrt(n)
    assert abs(u2.mean() - 1 / 2) < 4 * u2.std(ddof=1) / np.sqrt(n)
    assert abs(u.mean()) < 4 * u.std(ddof=1) / np.sqrt(n)


def test_disc_points_fill_over_several_rounds():
    """A first round that keeps only a few points is topped up by more."""

    class FewInsideFirst:
        def __init__(self):
            self.rng = np.random.default_rng(73)
            self.calls = 0

        def random(self, size):
            self.calls += 1
            values = self.rng.random(size)
            if self.calls == 1:
                values[size // 20 :] = 0.999  # q near 1: almost all outside
            return values

    rng = FewInsideFirst()
    p, q, s = _disc_points(rng, 1000)
    assert rng.calls >= 2
    assert p.size == q.size == s.size == 1000
    assert np.all(s < 1.0) and np.array_equal(s, p * p + q * q)


@pytest.mark.parametrize(
    "need, rate", [(1, 4 / (3 * math.pi)), (5000, 4 / (3 * math.pi)), (5000, 1.0)]
)
def test_overlap_term_draws_give_need_pairs(need, rate):
    """need float64 pairs from one round at the true rate, I(90 deg) / 2 pi
    = 4 / 3 pi, or from several at rate 1.0, which sizes each round too
    small."""
    rng = np.random.default_rng(21)
    u, v, proposed, accepted = _overlap_term_draws(rng, need, 0.0, 1.0, rate)
    assert u.dtype == v.dtype == np.float64 and u.shape == v.shape == (need,)
    assert np.all(np.abs(u) <= 1.0) and np.all(np.abs(v) <= 1.0)
    first = int((need + 4.0 * math.sqrt(need)) / rate) + 1
    assert (proposed == first) == (rate < 1.0) and accepted >= need


def test_overlap_term_draws_of_no_pairs_propose_nothing():
    u, v, proposed, accepted = _overlap_term_draws(np.random.default_rng(0), 0, 0.0, 1.0, 0.5)
    assert u.dtype == v.dtype == np.float64 and u.size == v.size == 0
    assert proposed == accepted == 0


def dot_pairs_cos_oracle(rng, n, cos_ab, sin_ab, tilted=False):
    """Independent pair sampler with trigonometry: x.lam by inverting its
    CDF (uniform on [-1, 1], or density |u| / 2 when tilted) and the azimuth
    phi of lam about x uniform, so y.lam = cos_ab u + sin_ab sqrt(1 - u^2)
    cos(phi)."""
    w = rng.uniform(-1.0, 1.0, n)
    u = np.copysign(np.sqrt(np.abs(w)), w) if tilted else w
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    return u, cos_ab * u + sin_ab * np.sqrt(1.0 - u * u) * np.cos(phi)


def chi2_4sigma(dof):
    return stats.chi2.isf(2 * stats.norm.sf(4), dof)


def two_sample_chi2(a, b, pool_below=10):
    """Two-sample chi^2 (statistic, dof) of two equal-size samples' counts
    over the same fixed bins.  Bins whose pooled count is below
    ``pool_below`` are merged into one, a rule symmetric in the samples."""
    a, b = np.ravel(a), np.ravel(b)
    small = a + b < pool_below
    a = np.append(a[~small], a[small].sum())
    b = np.append(b[~small], b[small].sum())
    used = a + b > 0
    a, b = a[used], b[used]
    return float(((a - b) ** 2 / (a + b)).sum()), a.size - 1


def square_bins(u, v, per_side=16):
    """Counts of (u, v) over a fixed per_side x per_side grid on [-1, 1]^2."""
    iu = np.clip(((u + 1.0) * (per_side / 2)).astype(int), 0, per_side - 1)
    iv = np.clip(((v + 1.0) * (per_side / 2)).astype(int), 0, per_side - 1)
    return np.bincount(iu * per_side + iv, minlength=per_side * per_side)


@pytest.mark.parametrize("tilted", [False, True])
@pytest.mark.parametrize("cos_ab", [1.0, math.cos(math.pi / 4), 0.0, -0.5])
def test_dot_pairs_match_cos_oracle(cos_ab, tilted):
    """Two-sample chi^2 at 4 sigma of the disc sampler against the
    trigonometric oracle over a 16 x 16 grid fixed before sampling (cells
    with a pooled count below 10 merged); sin_ab = 0 must give v = u."""
    sin_ab = 0.0 if cos_ab == 1.0 else math.sqrt(1.0 - cos_ab * cos_ab)
    n = 600_000
    u, v = _dot_pairs(np.random.default_rng(70), n, cos_ab, sin_ab, tilted)
    if sin_ab == 0.0:
        assert np.array_equal(u, v)
    ou, ov = dot_pairs_cos_oracle(np.random.default_rng(71), n, cos_ab, sin_ab, tilted)
    chi2, dof = two_sample_chi2(square_bins(u, v), square_bins(ou, ov))
    assert chi2 < chi2_4sigma(dof), (chi2, dof)


# ------------------------------------------------------ quantum correlation

def test_quantum_correlation_angles():
    assert quantum_correlation(setting(0), setting(0)) == -1.0
    assert abs(quantum_correlation(setting(0), setting(90))) < 1e-15
    assert abs(quantum_correlation(setting(0), setting(60)) + 0.5) < 1e-15


# ------------------------------------------------------------ sign model

def test_bell_sign_parallel_exact():
    # at 3 degrees a.a = 1 - 2^-53, where sqrt(1 - (a.b)^2) would give ~1.5e-8;
    # the plane sine must still vanish
    assert setting(3).direction @ setting(3).direction < 1.0
    for deg in (0, 3):
        a = setting(deg)
        assert _plane(a, a)[1] == 0.0
        est = bell_sign_correlation(a, a, 5000, np.random.default_rng(3))
        assert est.value == -1.0
        assert est.stderr == 0.0


def test_bell_sign_antiparallel_exact():
    est = bell_sign_correlation(setting(0), setting(180), 5000, np.random.default_rng(4))
    assert est.value == 1.0
    a = setting(3)
    b = DetectorSetting(-a.direction)
    assert _plane(a, b)[1] == 0.0
    assert bell_sign_correlation(a, b, 5000, np.random.default_rng(4)).value == 1.0


def test_estimators_refuse_fewer_than_two_events():
    """One event gives no error estimate: the stderr sqrt((1 - E^2) / (n - 1))
    is undefined, and reading it as 0 let one event 'violate' CHSH at S = 4.
    The sampler itself still draws a single event."""
    a, b = setting(0), setting(45)
    batch = sample_image_events(a, b, 1, np.random.default_rng(2))
    with pytest.raises(ValueError, match="at least two events"):
        estimate_from_events(batch)
    for estimate in (bell_sign_correlation, image_correlation_event):
        with pytest.raises(ValueError, match="at least two events"):
            estimate(a, b, 1, np.random.default_rng(1))
        for n in (0, -1):
            with pytest.raises(ValueError):
                estimate(a, b, n, np.random.default_rng(1))
    assert bell_sign_correlation(a, b, 2, np.random.default_rng(1)).n == 2
    assert image_correlation_event(a, b, 2, np.random.default_rng(1)).n == 2


def test_image_entry_points_refuse_no_events_before_drawing():
    """n = 0 is refused before any draw: the caller's generator is left as
    it was, although the events come from a generator run only on use."""
    a, b = setting(0), setting(45)
    for sample in (sample_image_events, image_correlation_event):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            sample(a, b, 0, rng)
        assert rng.bit_generator.state == state


@pytest.mark.parametrize(
    "sample", [bell_sign_correlation, sample_image_events, image_correlation_event]
)
def test_samplers_refuse_non_integer_n_before_drawing(sample):
    """A float n is refused by name before any draw; a numpy integer runs."""
    a, b = setting(0), setting(45)
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(TypeError, match=r"\bn\b"):
        sample(a, b, 2.5, rng)
    assert rng.bit_generator.state == state
    assert sample(a, b, np.int64(2), rng) is not None


def test_bell_sign_matches_linear_curve():
    rng = np.random.default_rng(6)
    for deg in (30, 90, 150):
        est = bell_sign_correlation(setting(0), setting(deg), 10**6, rng)
        expect = -1 + 2 * math.radians(deg) / math.pi
        assert abs(est.value - expect) < 4 * est.stderr


def test_bell_sign_agrees_with_brute_quadrature_oracle():
    for deg in (45, 90, 120):
        oracle = -sign_model_oracle(math.radians(deg))
        expect = -1 + 2 * math.radians(deg) / math.pi
        assert abs(oracle - expect) < 2e-3
        est = bell_sign_correlation(
            setting(0), setting(deg), 200_000, np.random.default_rng(deg)
        )
        assert abs(est.value - oracle) < 4 * est.stderr + 2e-3


# ------------------------------------------------------- overlap integral

def test_overlap_parallel_and_antiparallel():
    assert abs(overlap_integral(0.0) - 4 * np.pi / 3) < 1e-10
    assert abs(overlap_integral(np.pi) - 4 * np.pi / 3) < 1e-10


def test_overlap_right_angle_pinned_mc_oracle():
    val = overlap_integral(np.pi / 2)
    assert abs(val - OVERLAP_90_MC) < 4 * OVERLAP_90_MC_SE
    assert abs(val - 8 / 3) < 1e-8


def test_overlap_matches_semianalytic_oracle():
    for deg in range(0, 181):
        theta = math.radians(deg)
        assert abs(overlap_integral(theta) - overlap_semianalytic(theta)) < 5e-8


def test_overlap_bounded_for_real_c2():
    for deg in range(0, 181, 10):
        assert C1 * C1 * overlap_integral(math.radians(deg)) <= 1.0 + 1e-12


# ------------------------------------------------------------------- c2

def test_c2_vanishes_at_parallel_settings():
    assert solve_c2(0.0).c2 == 0.0
    assert solve_c2(math.pi).c2 == 0.0


def test_c2_positive_in_between_with_zero_residual():
    consts = solve_c2(math.pi / 2)
    assert consts.c2 > 0.02
    assert consts.residual < 1e-8
    # substituting back into the defining quadratic
    check = (
        16 * math.pi * consts.c2**2
        + 8 * math.pi * consts.c1 * consts.c2
        + consts.c1**2 * consts.overlap
        - 1.0
    )
    assert abs(check) < 1e-8


def test_model_constants_validation():
    with pytest.raises(ValueError):
        ModelConstants(c1=0.5, c2=0.0, theta=0.0, overlap=4.0, residual=0.0)
    with pytest.raises(ValueError):
        ModelConstants(c1=C1, c2=-0.1, theta=0.0, overlap=4.0, residual=0.0)
    with pytest.raises(ValueError):
        ModelConstants(c1=C1, c2=0.0, theta=0.0, overlap=4.0, residual=1e-3)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_model_constants_refuse_non_finite(bad):
    for field in ("c1", "c2", "residual"):
        values = dict(c1=C1, c2=0.0, theta=0.0, overlap=4.0, residual=0.0)
        values[field] = bad
        with pytest.raises(ValueError):
            ModelConstants(**values)


def test_model_constants_refuse_theta_outside_overlap_range():
    """theta must lie where overlap_integral is defined, nan refused; the
    constants solve_c2 builds on every whole degree pass."""
    for theta in (-1e-9, math.pi + 1e-9, math.nan, -math.inf, math.inf):
        with pytest.raises(ValueError, match="theta"):
            ModelConstants(c1=C1, c2=0.0, theta=theta, overlap=4.0, residual=0.0)
    for deg in range(181):
        assert solve_c2(math.radians(deg)).theta == math.radians(deg)


def test_model_constants_refuse_bad_overlap():
    for overlap in (-5.0, -1e-300, math.nan, math.inf):
        with pytest.raises(ValueError, match="overlap"):
            ModelConstants(c1=C1, c2=0.0, theta=0.0, overlap=overlap, residual=0.0)


# ------------------------------------------------------ image model, analytic

def test_image_quadrature_equals_cosine():
    a = setting(0)
    for deg in range(0, 181, 15):
        est = image_correlation_analytic(a, setting(deg))
        assert est.stderr == 0.0
        assert abs(est.value - math.cos(math.radians(deg))) < 1e-12


def test_image_quadrature_convention_flag():
    a, b = setting(0), setting(60)
    assert abs(image_correlation_analytic(a, b, convention=-1).value + 0.5) < 1e-6


def test_image_mc_path_agrees():
    """Monte Carlo oracle for the closed form: 4 pi c1^2 (a.lam)(b.lam) averaged
    over lam uniform on the sphere, drawn as normalized Gaussian triples."""
    a, b = setting(0), setting(60)
    lam = np.random.default_rng(8).standard_normal((400_000, 3))
    lam /= np.linalg.norm(lam, axis=1, keepdims=True)
    vals = 4 * np.pi * C1 * C1 * (lam @ a.direction) * (lam @ b.direction)
    stderr = vals.std(ddof=1) / math.sqrt(vals.size)
    assert stderr > 0
    assert abs(vals.mean() - image_correlation_analytic(a, b).value) < 4 * stderr


# --------------------------------------------------------- image model, event

def test_image_event_parallel_settings_exactly_one():
    for deg in (0, 3):
        a = setting(deg)
        est = image_correlation_event(a, a, 20_000, np.random.default_rng(9))
        assert est.value == 1.0
        assert est.stderr == 0.0


def test_image_event_sixty_degrees():
    est = image_correlation_event(setting(0), setting(60), 10**6, np.random.default_rng(10))
    assert abs(est.value - 0.5) < 4 * est.stderr


def test_image_event_matches_quadrature_path():
    a = setting(0)
    rng = np.random.default_rng(11)
    for deg in range(0, 181, 30):
        b = setting(deg)
        ev = image_correlation_event(a, b, 200_000, rng)
        an = image_correlation_analytic(a, b)
        tol = 4 * ev.stderr if ev.stderr > 0 else 1e-9
        assert abs(ev.value - an.value) < tol


def test_image_event_mu_branches_cancel():
    batch = sample_image_events(setting(0), setting(75), 400_000, np.random.default_rng(12))
    noisy = (batch.mu_a != 0) | (batch.mu_b != 0)
    assert noisy.any() and (~noisy).any()
    sub = (batch.outcome_a[noisy] * batch.outcome_b[noisy]).astype(float)
    se = sub.std(ddof=1) / np.sqrt(sub.size)
    assert abs(sub.mean()) < 4 * se


def test_image_event_acceptance_rate_reported():
    batch = sample_image_events(setting(0), setting(90), 50_000, np.random.default_rng(13))
    assert 0.2 < batch.acceptance_rate < 0.45
    assert batch.constants.c2 == solve_c2(math.pi / 2).c2


def test_image_event_acceptance_matches_overlap_rate():
    # the overlap term keeps a proposal tilted about a with probability
    # |b.lam|, so its exact acceptance is I(theta) / 2 pi
    for deg in (0, 45, 90):
        batch = sample_image_events(
            setting(0), setting(deg), 200_000, np.random.default_rng(40 + deg)
        )
        exact = overlap_integral(math.radians(deg)) / (2 * math.pi)
        assert abs(batch.acceptance_rate - exact) < 0.005


def test_image_event_mu_zero_probability():
    # P(mu_a = 0) is the mass of the two terms carrying c1 |a.lam|
    for deg, expect in ((45, 0.8962), (90, 0.8004)):
        consts = solve_c2(math.radians(deg))
        exact = consts.c1**2 * consts.overlap + 4 * math.pi * consts.c1 * consts.c2
        assert abs(exact - expect) < 1e-4
        n = 400_000
        batch = sample_image_events(
            setting(0), setting(deg), n, np.random.default_rng(50 + deg)
        )
        zero = float((batch.mu_a == 0).mean())
        assert abs(zero - exact) < 4 * math.sqrt(exact * (1 - exact) / n)
        plus = int((batch.mu_a == 1).sum())
        minus = int((batch.mu_a == -1).sum())
        assert abs(plus - minus) < 4 * math.sqrt(plus + minus)


def test_image_event_wing_branches_by_tercile():
    """Within each tercile of |setting.lam|, mu = +1 and mu = -1 agree within
    4 sigma, and the mu = 0 count matches the sum over the tercile of
    c1 |dot| / (c1 |dot| + 2 c2) within 4 sigma; both wings at 90 degrees."""
    consts = solve_c2(math.pi / 2)
    batch = sample_image_events(setting(0), setting(90), 300_000, np.random.default_rng(72))
    for dot, mu in ((batch.dot_a, batch.mu_a), (batch.dot_b, batch.mu_b)):
        d = np.abs(dot)
        p_zero = consts.c1 * d / (consts.c1 * d + 2 * consts.c2)
        tercile = np.searchsorted(np.quantile(d, [1 / 3, 2 / 3]), d)
        for j in range(3):
            mine = tercile == j
            plus = int((mu[mine] == 1).sum())
            minus = int((mu[mine] == -1).sum())
            assert abs(plus - minus) < 4 * math.sqrt(plus + minus), (j, plus, minus)
            p = p_zero[mine]
            zero = int((mu[mine] == 0).sum())
            assert abs(zero - p.sum()) < 4 * math.sqrt((p * (1 - p)).sum()), (j, zero)


def test_image_event_branch_classes_follow_term_masses():
    """The frequencies of (mu_A = 0?, mu_B = 0?) match the four term masses
    c1^2 I(theta), 4 pi c1 c2, 4 pi c1 c2 and 16 pi c2^2 within 4 sigma;
    inside each noisy class +1 and -1 split evenly on each noisy wing, and
    the two coins agree half the time where both wings are noisy.  Parallel
    and antiparallel settings give only (0, 0)."""
    n = 400_000
    for deg in (45, 90, 135):
        c = solve_c2(math.radians(deg))
        side = 4 * math.pi * c.c1 * c.c2
        masses = {
            (True, True): c.c1**2 * c.overlap,
            (True, False): side,
            (False, True): side,
            (False, False): 16 * math.pi * c.c2**2,
        }
        batch = sample_image_events(
            setting(0), setting(deg), n, np.random.default_rng(80 + deg)
        )
        zero_a, zero_b = batch.mu_a == 0, batch.mu_b == 0
        for (za, zb), p in masses.items():
            cell = (zero_a == za) & (zero_b == zb)
            count = int(cell.sum())
            assert abs(count - n * p) < 4 * math.sqrt(n * p * (1 - p)), (deg, za, zb)
            mus = [mu[cell] for mu, zero in ((batch.mu_a, za), (batch.mu_b, zb)) if not zero]
            for mu in mus:
                assert np.all(np.abs(mu) == 1)
                assert abs(2 * int((mu == 1).sum()) - count) < 4 * math.sqrt(count)
            if len(mus) == 2:
                agree = int((mus[0] == mus[1]).sum())
                assert abs(2 * agree - count) < 4 * math.sqrt(count)
    for deg in (0, 180):
        batch = sample_image_events(setting(0), setting(deg), 50_000, np.random.default_rng(8))
        assert not batch.mu_a.any() and not batch.mu_b.any()


def test_image_event_single_events():
    # with n = 1 the event often comes from a term with no rejection step
    for seed in range(20):
        rng = np.random.default_rng(seed)
        batch = sample_image_events(setting(0), setting(90), 1, rng)
        assert batch.outcome_a.size == batch.dot_b.size == 1
        assert 0.0 < batch.acceptance_rate <= 1.0


def test_image_event_collapsed_acceptance_raises(monkeypatch):
    from collapsewalk import bell
    from collapsewalk.errors import RejectionStallError

    def no_overlap(rng, n, cos_ab, sin_ab, tilted=False):
        u, v = _dot_pairs(rng, n, cos_ab, sin_ab, tilted)
        return u, np.zeros_like(v) if tilted else v

    monkeypatch.setattr(bell, "_dot_pairs", no_overlap)
    with pytest.raises(RejectionStallError):
        sample_image_events(setting(0), setting(90), 1000, np.random.default_rng(61))


def test_image_event_streaming_equals_batch():
    n = 2 * CHUNK_SIZE + 5
    for convention in (1, -1):
        streamed = image_correlation_event(
            setting(0), setting(70), n, np.random.default_rng(60), convention
        )
        rng = np.random.default_rng(60)
        batch = sample_image_events(setting(0), setting(70), n, rng)
        assert batch.outcome_a.size == n
        assert streamed == estimate_from_events(batch, convention)


# Image events at sizes of several chunks, pinned in one process: the four
# canonical CHSH pairs at 10**5 events (7 chunks) and at 4 CHUNK_SIZE + 1 (5),
# each on seed 41 + its index.  A pin is (children spawned on the caller's
# stream, sha256 of sample_image_events' six columns, acceptance rate and the
# caller's next spawned draw, sha256 of image_correlation_event's estimate,
# spawn count and next draw).
SPLIT_SIZE_PINS = {
    (0, 45, 100000): (
        7,
        "02f171d6d34c23f090c79d55666dd708009a90d67daf6891c1b38c62ae4d57f6",
        "7eb0f4877ea2edbdcff620525b9033f7616281354c0f6ca0cf373c2b208bd81f",
    ),
    (0, 135, 100000): (
        7,
        "77efea7aaa2ee6fe445c776a9f9b7bd63b7142082bf42921f0b8e2292bb78251",
        "c7903206e2766a47780755ada28eb251b62211fa19200e569588546c06f9b14d",
    ),
    (90, 45, 100000): (
        7,
        "ae7f956baefdc991f06ce78419bbb39baf67aa26799a78056799f5481f6c3fd4",
        "d6990615c985e285e969f2f811792a97e79c5ef6c0295d24decffba14a848ef7",
    ),
    (90, 135, 100000): (
        7,
        "5eb796a81f401471c846e3d5c0fcf945dc4070b20d1fa47ae35d787dd7efeecc",
        "9ad696ed437b856268f3a79b31f2d96417d94d5c1fa59ef3aa93fb68fb6f31c9",
    ),
    (0, 45, 65537): (
        5,
        "838b5891a96c859b8077d4a74ccbee784688a27288f697a9f132c6a94fcf4832",
        "88a1d87712bbbf37d32d0fadd4c30453f393bc87133d4aaa1fa683fb2be65b54",
    ),
    (0, 135, 65537): (
        5,
        "0c362011aa45fe7b84d82f29a6abbb085181309ce233e76fec38ec362a5658af",
        "3b60374434db3dd0fb484aec0c5da2d1eea332bc248afb543f6b6ec935be0e26",
    ),
    (90, 45, 65537): (
        5,
        "107bd8991107cc503dca6c6439e419e91f07f0493847e4394d06b6218eefc64e",
        "f75b501fb95dfea398908cb37efc18d9f46a7acc4db42e78e78ba245438113d1",
    ),
    (90, 135, 65537): (
        5,
        "6a0f6765752d53a1e64ed024c4e0d74e19c7dddbb66f9e456bf5be2d3f581e86",
        "9d718ddcc20c68aabfdd96e56506641a07746a9d5e4f310a42362d42966a9c84",
    ),
}


def _next_draw(rng):
    """The caller's spawn count after a call, and its next child's first word."""
    return rng.bit_generator.seed_seq.n_children_spawned, int(
        rng.spawn(1)[0].integers(1 << 63)
    )


@pytest.mark.parametrize("case", list(SPLIT_SIZE_PINS), ids=lambda c: "{}-{}-n{}".format(*c))
def test_image_events_at_split_sizes_match_their_pins(case):
    """Bytes that do not depend on where the chunks ran."""
    x, y, n = case
    seed = 41 + list(SPLIT_SIZE_PINS).index(case)
    spawned, batch_sha, estimate_sha = SPLIT_SIZE_PINS[case]
    rng = np.random.default_rng(seed)
    batch = sample_image_events(setting(x), setting(y), n, rng)
    digest = hashlib.sha256()
    for name in ("dot_a", "dot_b", "mu_a", "mu_b", "outcome_a", "outcome_b"):
        digest.update(getattr(batch, name).tobytes())
    digest.update(repr(batch.acceptance_rate).encode())
    after = _next_draw(rng)
    digest.update(repr(after).encode())
    assert (after[0], digest.hexdigest()) == (spawned, batch_sha)
    rng = np.random.default_rng(seed)
    est = image_correlation_event(setting(x), setting(y), n, rng)
    after = _next_draw(rng)
    assert after[0] == spawned
    assert hashlib.sha256(repr((est, *after)).encode()).hexdigest() == estimate_sha


def test_chunks_spawn_each_stream_as_it_is_reached():
    """The chunk streams are the children one spawn of them all would give,
    and the first chunk of 20,000 comes without spawning the others."""
    n = 2 * CHUNK_SIZE + 5
    chunks = list(_chunks(np.random.default_rng(5), n))
    assert [count for count, _ in chunks] == [CHUNK_SIZE, CHUNK_SIZE, 5]
    spawned = np.random.default_rng(5).spawn(3)
    for (_, got), want in zip(chunks, spawned):
        assert got.bit_generator.state == want.bit_generator.state
    tracemalloc.start()
    try:
        next(_chunks(np.random.default_rng(5), 20_000 * CHUNK_SIZE))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_estimates_carry_the_image_event_acceptance_rate():
    """correlation_estimate("image-event") and estimate_from_events carry the
    acceptance rate sample_image_events reports on the same seed; the other
    three models leave it unset."""
    a, b, n = setting(0), setting(70), CHUNK_SIZE + 7
    batch = sample_image_events(a, b, n, np.random.default_rng(62))
    est = correlation_estimate("image-event", a, b, n, np.random.default_rng(62))
    assert 0.0 < batch.acceptance_rate < 1.0
    assert est.acceptance_rate == batch.acceptance_rate
    assert estimate_from_events(batch).acceptance_rate == batch.acceptance_rate
    for model in ("quantum", "bell-sign", "image-analytic"):
        est = correlation_estimate(model, a, b, 1000, np.random.default_rng(62))
        assert est.acceptance_rate is None, model


def test_image_event_outcomes_are_signs():
    batch = sample_image_events(setting(0), setting(120), 10_000, np.random.default_rng(14))
    for dot, mu, outcome in (
        (batch.dot_a, batch.mu_a, batch.outcome_a),
        (batch.dot_b, batch.mu_b, batch.outcome_b),
    ):
        assert set(np.unique(outcome)) <= {-1, 1}
        assert set(np.unique(mu)) <= {-1, 0, 1}
        zero = mu == 0
        assert np.array_equal(outcome[zero], np.sign(dot[zero]).astype(np.int8))
        assert np.array_equal(outcome[~zero], mu[~zero])


def test_image_event_deterministic():
    a = image_correlation_event(setting(0), setting(45), 50_000, np.random.default_rng(15))
    b = image_correlation_event(setting(0), setting(45), 50_000, np.random.default_rng(15))
    assert a == b


# ---------------------------------------------------------------- symmetry

def test_models_symmetric_in_settings():
    a, b = setting(20), setting(110)
    assert quantum_correlation(a, b) == quantum_correlation(b, a)
    q1 = image_correlation_analytic(a, b).value
    q2 = image_correlation_analytic(b, a).value
    assert abs(q1 - q2) < 1e-10
    e1 = bell_sign_correlation(a, b, 100_000, np.random.default_rng(16))
    e2 = bell_sign_correlation(b, a, 100_000, np.random.default_rng(17))
    assert abs(e1.value - e2.value) < 4 * math.hypot(e1.stderr, e2.stderr)


def test_rotation_invariance_all_models():
    rng = np.random.default_rng(18)
    a, b = setting(0), setting(40)
    base_q = quantum_correlation(a, b)
    base_i = image_correlation_analytic(a, b).value
    base_sign = bell_sign_correlation(a, b, 100_000, np.random.default_rng(19))
    base_ev = image_correlation_event(a, b, 100_000, np.random.default_rng(20))
    for k in range(50):
        rot = random_rotation(rng)
        ra, rb = rotated(a, rot), rotated(b, rot)
        assert abs(quantum_correlation(ra, rb) - base_q) < 1e-10
        assert abs(image_correlation_analytic(ra, rb).value - base_i) < 1e-10
        if k < 10:  # Monte Carlo paths are costlier; statistical agreement
            est = bell_sign_correlation(ra, rb, 100_000, np.random.default_rng(21 + k))
            assert abs(est.value - base_sign.value) < 4 * math.hypot(est.stderr, base_sign.stderr)
            est = image_correlation_event(ra, rb, 100_000, np.random.default_rng(71 + k))
            assert abs(est.value - base_ev.value) < 4 * math.hypot(est.stderr, base_ev.stderr)


def test_image_magnitude_matches_quantum():
    a = setting(0)
    for deg in range(0, 181, 15):
        b = setting(deg)
        image = image_correlation_analytic(a, b).value
        assert abs(abs(image) - abs(quantum_correlation(a, b))) < 1e-6


# ------------------------------------------------------------- inequalities

def test_chsh_quantum_reaches_tsirelson():
    report = chsh("quantum", setting(0), setting(90), setting(45), setting(135))
    assert abs(report.chsh_s + 2 * math.sqrt(2)) < 1e-12
    assert report.chsh_violated


def test_chsh_image_analytic_both_conventions():
    args = (setting(0), setting(90), setting(45), setting(135))
    plus = chsh("image-analytic", *args)
    minus = chsh("image-analytic", *args, convention=-1)
    assert abs(abs(plus.chsh_s) - 2 * math.sqrt(2)) < 1e-5
    assert abs(abs(minus.chsh_s) - 2 * math.sqrt(2)) < 1e-5
    assert abs(plus.chsh_s + minus.chsh_s) < 1e-12
    assert plus.chsh_violated and minus.chsh_violated


def test_chsh_sign_model_respects_bound():
    report = chsh(
        "bell-sign",
        setting(0), setting(90), setting(45), setting(135),
        n=200_000,
        rng=np.random.default_rng(22),
    )
    assert abs(report.chsh_s) <= 2.0 + 4 * report.chsh_stderr
    assert not report.chsh_violated


def test_chsh_image_event_violates():
    report = chsh(
        "image-event",
        setting(0), setting(90), setting(45), setting(135),
        n=200_000,
        rng=np.random.default_rng(23),
    )
    assert abs(abs(report.chsh_s) - 2 * math.sqrt(2)) < 4 * report.chsh_stderr
    assert report.chsh_violated


def test_bell64_quantum_violates():
    report = bell64("quantum", setting(0), setting(45), setting(90))
    assert abs(report.bell64_lhs - math.cos(math.pi / 4)) < 1e-12
    assert abs(report.bell64_rhs - (1 - math.cos(math.pi / 4))) < 1e-12
    assert report.bell64_violated


def test_bell64_sign_model_saturates_without_violation():
    report = bell64(
        "bell-sign",
        setting(0), setting(45), setting(90),
        n=200_000,
        rng=np.random.default_rng(24),
    )
    assert abs(report.bell64_lhs - 0.5) < 0.02
    assert abs(report.bell64_rhs - 0.5) < 0.02
    assert not report.bell64_violated


def test_bell64_degenerate_settings():
    report = bell64("quantum", setting(0), setting(45), setting(45))
    assert report.bell64_lhs == 0.0
    assert abs(report.bell64_rhs) < 1e-12
    assert not report.bell64_violated


def test_sign_model_bound_discipline_grid():
    """The classic model obeys |C(a,b) - C(a,b')| <= 1 + C(b,b') everywhere."""
    rng = np.random.default_rng(25)
    a = setting(0)
    n = 20_000
    degs = np.linspace(0, 180, 10)
    for idx, d1 in enumerate(degs):
        for d2 in degs:
            b, b2 = setting(d1), setting(d2)
            c_ab = bell_sign_correlation(a, b, n, rng)
            c_ab2 = bell_sign_correlation(a, b2, n, rng)
            c_bb2 = bell_sign_correlation(b, b2, n, rng)
            lhs = abs(c_ab.value - c_ab2.value)
            slack = 4 * math.sqrt(
                c_ab.stderr**2 + c_ab2.stderr**2 + c_bb2.stderr**2
            )
            assert lhs <= 1 + c_bb2.value + slack


# -------------------------------------------------------------- validation

def test_correlation_estimate_validation():
    with pytest.raises(ValueError):
        CorrelationEstimate(value=1.5, stderr=0.0, n=10, model="quantum")
    with pytest.raises(ValueError):
        CorrelationEstimate(value=0.5, stderr=0.0, n=10, model="nonsense")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_correlation_estimate_refuses_non_finite(bad):
    for value, stderr in ((bad, 0.0), (0.5, bad), (bad, bad)):
        with pytest.raises(ValueError):
            CorrelationEstimate(value, stderr, 3, "quantum")


def test_correlation_estimate_refuses_bad_n():
    """n is a nonnegative integer; the analytic models pass 0."""
    for n in (-1, -3):
        with pytest.raises(ValueError, match="n must"):
            CorrelationEstimate(0.5, 0.1, n, "quantum")
    for n in (2.5, math.nan, "3", None):
        with pytest.raises(TypeError):
            CorrelationEstimate(0.5, 0.1, n, "quantum")
    assert CorrelationEstimate(0.5, 0.0, 0, "quantum").n == 0
    assert CorrelationEstimate(0.5, 0.1, np.int64(7), "bell-sign").n == 7


def test_correlation_estimate_refuses_bad_acceptance_rate():
    for rate in (0.0, -0.1, 1.0 + 1e-12, math.nan, math.inf):
        with pytest.raises(ValueError, match="acceptance_rate"):
            CorrelationEstimate(0.5, 0.1, 3, "image-event", acceptance_rate=rate)
    for rate in (None, 1e-9, 0.5, 1.0):
        CorrelationEstimate(0.5, 0.1, 3, "image-event", acceptance_rate=rate)


def image_batch(**changes):
    """A valid three-event ImageEventBatch with the given fields replaced."""
    values = dict(
        dot_a=np.array([0.5, -0.2, 0.1]),
        dot_b=np.array([0.3, 0.4, -0.6]),
        mu_a=np.array([0, 0, 1], np.int8),
        mu_b=np.array([0, -1, 0], np.int8),
        outcome_a=np.array([1, -1, 1], np.int8),
        outcome_b=np.array([1, -1, -1], np.int8),
        acceptance_rate=0.5,
        constants=solve_c2(0.5),
    )
    values.update(changes)
    return ImageEventBatch(**values)


@pytest.mark.parametrize(
    "name", ["dot_a", "dot_b", "mu_a", "mu_b", "outcome_a", "outcome_b"]
)
def test_image_event_batch_refuses_bad_event_arrays(name):
    """Each event array is a 1-D ndarray as long as dot_a."""
    bads = [np.zeros((3, 1)), np.zeros(()), [0.0, 0.0, 0.0]]
    if name != "dot_a":
        bads.append(np.zeros(2))
    for bad in bads:
        with pytest.raises(ValueError, match=f"^{name} must be a 1-D array"):
            image_batch(**{name: bad})


def test_image_event_batch_refuses_bad_acceptance_rate():
    for rate in (0.0, -0.1, 1.0 + 1e-12, math.nan, math.inf):
        with pytest.raises(ValueError, match="^acceptance_rate"):
            image_batch(acceptance_rate=rate)
    for rate in (1e-9, 1.0):
        assert image_batch(acceptance_rate=rate).acceptance_rate == rate


def test_image_event_batch_refuses_bad_constants():
    for bad in (None, 0.5, (C1, 0.1, 0.5, 3.0, 0.0)):
        with pytest.raises(ValueError, match="^constants"):
            image_batch(constants=bad)


def test_image_event_batch_refuses_mismatched_outcomes():
    """Outcome arrays of different lengths and a nan rate are refused with
    the first field at fault named, not left to fail inside numpy later."""
    zeros = np.zeros(3)
    with pytest.raises(ValueError, match="^outcome_b"):
        ImageEventBatch(
            zeros, zeros, zeros, zeros, np.array([1, 1, -1]), np.array([1, -1]),
            math.nan, solve_c2(0.5),
        )


def test_inequality_report_consistency():
    """The report derives each margin and flag from its own fields: n is the
    fewest events among the estimates, and a flag needs the bound passed by
    more than max(3 stderr, margin).  A flag cannot be passed in."""
    with pytest.raises(TypeError):
        InequalityReport(model="quantum", settings=(), chsh_s=2.8, chsh_violated=False)
    exact = InequalityReport(model="quantum", settings=(), chsh_s=2.8, chsh_stderr=0.0)
    assert exact.chsh_margin == 0.0 and exact.chsh_violated
    assert exact.bell64_margin is None and exact.bell64_violated is None
    events = tuple(CorrelationEstimate(0.0, 0.1, n, "bell-sign") for n in (400, 100))
    chsh_margin = math.sqrt(8 * math.log(1 / VERDICT_ALPHA) / 100)
    bell64_margin = math.sqrt(6 * math.log(2 / VERDICT_ALPHA) / 100)
    for s, stderr, violated in (
        (2.0 + chsh_margin * 0.99, 0.0, False),
        (-2.0 - chsh_margin * 1.01, 0.0, True),
        (2.0 + chsh_margin * 1.01, chsh_margin / 2.9, False),
    ):
        report = InequalityReport(
            model="bell-sign", settings=(), chsh_s=s, chsh_stderr=stderr, estimates=events
        )
        assert report.chsh_margin == chsh_margin
        assert report.chsh_violated is violated
    for lhs, stderr, violated in (
        (0.5 + bell64_margin * 0.99, 0.0, False),
        (0.5 + bell64_margin * 1.01, 0.0, True),
        (0.5 + bell64_margin * 1.01, bell64_margin / 2.9, False),
    ):
        report = InequalityReport(
            model="bell-sign", settings=(), bell64_lhs=lhs, bell64_rhs=0.5,
            bell64_stderr=stderr, estimates=events,
        )
        assert report.bell64_margin == bell64_margin
        assert report.bell64_violated is violated
        assert report.chsh_margin is None and report.chsh_violated is None


def test_sign_model_verdicts_calibrated_at_small_n():
    """On its bound the local sign model is flagged in at most VERDICT_ALPHA
    of runs at any n: over 400 seeds, no more flags per inequality and n than
    the binomial(400, VERDICT_ALPHA) quantile at 1 - 1e-6 allows.  The image
    model keeps its violation at n = 1000."""
    seeds = 400
    most = stats.binom.ppf(1 - 1e-6, seeds, VERDICT_ALPHA)
    four = [setting(d) for d in (0, 90, 45, 135)]
    three = [setting(d) for d in (0, 60, 120)]
    for n in (2, 5, 20, 100):
        flagged_chsh = sum(
            chsh("bell-sign", *four, n=n, rng=np.random.default_rng(seed)).chsh_violated
            for seed in range(seeds)
        )
        flagged_bell64 = sum(
            bell64("bell-sign", *three, n=n, rng=np.random.default_rng(seed)).bell64_violated
            for seed in range(seeds)
        )
        assert flagged_chsh <= most, (n, flagged_chsh)
        assert flagged_bell64 <= most, (n, flagged_bell64)
    for seed in range(10):
        assert chsh("image-event", *four, n=1000, rng=np.random.default_rng(seed)).chsh_violated


def test_detector_settings_validate():
    with pytest.raises(ValueError):
        DetectorSetting(np.array([1.0, 1.0, 0.0]))
    unit = DetectorSetting.from_vector([2.0, 0.0, 0.0])
    assert np.allclose(unit.direction, [1, 0, 0])
    with pytest.raises(ValueError, match="norm 0.0"):
        DetectorSetting.from_vector([0.0, 0.0, 0.0])


def test_detector_setting_refusal_prints_its_norm_as_a_float():
    with pytest.raises(ValueError) as info:
        DetectorSetting([1, 1, 0])
    assert str(info.value) == "vector must have unit norm, got |v| = 1.4142135623730951"


def test_detector_setting_takes_the_vectors_linalg_norm_takes():
    """Near the unit tolerance, a direction is accepted exactly when
    np.linalg.norm puts it within UNIT_TOL of 1."""
    rng = np.random.default_rng(27)
    v = rng.standard_normal((2000, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    v *= 1.0 + rng.uniform(-2e-12, 2e-12, (2000, 1))
    for row in v:
        accepted = abs(np.linalg.norm(row) - 1.0) <= 1e-12
        try:
            DetectorSetting(row)
        except ValueError:
            assert not accepted, row
        else:
            assert accepted, row


@pytest.mark.parametrize("scale", [1e200, 1e-170])
def test_detector_setting_from_vector_takes_finite_directions_of_any_size(scale):
    """A finite direction whose squared norm overflows or underflows is a
    direction all the same."""
    unit = DetectorSetting.from_vector([scale, scale, 0.0])
    assert np.allclose(unit.direction, [math.sqrt(0.5), math.sqrt(0.5), 0.0], rtol=0, atol=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_detector_settings_refuse_non_finite(bad):
    """A non-finite direction is refused, not passed on to the estimators,
    where the sign model read it as a number."""
    for make in (
        lambda: DetectorSetting([bad, 0.0, 0.0]),
        lambda: DetectorSetting([1.0, bad, 0.0]),
        lambda: DetectorSetting.from_vector([bad, 1.0, 0.0]),
        lambda: DetectorSetting.from_plane_angle_degrees(bad),
    ):
        with pytest.raises(ValueError):
            make()


def test_correlation_estimate_dispatcher():
    a, b = setting(0), setting(90)
    est = correlation_estimate("quantum", a, b)
    assert est.model == "quantum" and est.stderr == 0.0
    assert abs(est.value) < 1e-15
    with pytest.raises(ValueError):
        correlation_estimate("bogus", a, b)
