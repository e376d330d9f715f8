"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a PASS/FAIL line (visible with pytest -s or in captured
output) so the suite doubles as a checklist.
"""

import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from collapsewalk import (
    DetectorSetting,
    DiffusionParams,
    WalkConfig,
    absorption_flux_residual,
    absorption_probs,
    bell_sign_correlation,
    born_statistics,
    chsh,
    greens_tilde,
    image_correlation_analytic,
    image_correlation_event,
    mean_exit_time,
    normalize,
    solve_c2,
    trial_rng,
)
from collapsewalk.walk import _two_state_block

from chain_oracle import chain_solve


@contextmanager
def criterion(num, label):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:02d} FAIL  {label}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS  {label}")


def setting(deg):
    return DetectorSetting.from_plane_angle_degrees(deg)


def test_criterion_01_born_rule_two_states():
    with criterion(1, "two-state winner frequency = |a0|^2 within 4 sigma, < 60 s"):
        state = normalize([math.sqrt(0.3), math.sqrt(0.7)])
        config = WalkConfig(grid_resolution=1000, seed=20260808)
        started = time.perf_counter()
        stats = born_statistics(state, 100_000, config, workers=1)
        elapsed = time.perf_counter() - started
        assert stats.excluded == 0
        assert abs(stats.frequencies[0] - 0.300) < 0.006  # 4 sigma at 1e5 trials
        assert elapsed < 60.0, f"single-threaded run took {elapsed:.1f}s"


def test_criterion_02_born_rule_three_states():
    with criterion(2, "three-state winner frequencies = weights; exact chain solve"):
        exact = chain_solve([5, 3, 2])
        assert np.max(np.abs(exact - np.array([0.5, 0.3, 0.2]))) < 1e-10
        state = normalize(np.sqrt([0.5, 0.3, 0.2]))
        stats = born_statistics(
            state, 100_000, WalkConfig(grid_resolution=100, seed=424242)
        )
        assert stats.excluded == 0
        for freq, w in zip(stats.frequencies, (0.5, 0.3, 0.2)):
            assert abs(freq - w) < 4 * math.sqrt(w * (1 - w) / stats.trials)


def test_criterion_03_analytic_absorption_probabilities():
    with criterion(3, "absorption probabilities (1-x0, x0), flux self-test < 1e-4"):
        for x0 in np.linspace(0.1, 0.9, 9):
            x0 = float(x0)
            p0, p1 = absorption_probs(x0)
            assert p0 == 1.0 - x0
            assert p1 == x0
            assert p0 + p1 == 1.0
            assert absorption_flux_residual(x0) < 1e-4


def test_criterion_04_greens_function():
    with criterion(4, "boundary zeros, ODE residual < 1e-6, symmetry < 1e-12"):
        rng = np.random.default_rng(99)
        h = 1e-3
        for _ in range(40):
            x0 = float(rng.uniform(0.25, 0.75))
            d = float(10 ** rng.uniform(-0.5, 0.5))
            s = float(10 ** rng.uniform(-0.5, 1.0))
            params = DiffusionParams(x0=x0, diffusion=d)
            assert greens_tilde(0.0, s, params) == 0.0
            assert greens_tilde(1.0, s, params) == 0.0
            x = float(rng.uniform(5 * h, 1 - 5 * h))
            while abs(x - x0) < 5 * h:
                x = float(rng.uniform(5 * h, 1 - 5 * h))
            pts = x + h * np.array([-2, -1, 0, 1, 2])
            vals = greens_tilde(pts, s, params)
            second = (
                -vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]
            ) / (12 * h * h)
            target = (s / d) * vals[2]
            assert abs(second - target) < 1e-6 * max(abs(target), 1e-12)
            x_b = float(rng.uniform(0.05, 0.95))
            swap_a = greens_tilde(x_b, s, params)
            swap_b = greens_tilde(x0, s, DiffusionParams(x0=x_b, diffusion=d))
            assert abs(swap_a - swap_b) < 1e-12


def test_criterion_05_image_model_cosine_curve():
    with criterion(5, "image correlation = cos(theta): quadrature 1e-6, events 4 sigma"):
        a = setting(0)
        started = time.perf_counter()
        worst = 0.0
        for k, deg in enumerate(range(0, 181, 15)):
            b = setting(deg)
            quad_est = image_correlation_analytic(a, b)
            worst = max(worst, abs(quad_est.value - math.cos(math.radians(deg))))
            event_est = image_correlation_event(
                a, b, 10**6, np.random.default_rng(1234 + k)
            )
            tol = 4 * event_est.stderr if event_est.stderr > 0 else 1e-9
            assert abs(event_est.value - math.cos(math.radians(deg))) < tol
        elapsed = time.perf_counter() - started
        assert worst < 1e-6
        assert elapsed < 120.0, f"curve took {elapsed:.1f}s"


def test_criterion_06_chsh_violation():
    with criterion(6, "CHSH: image 2.828 +- 0.02, sign model <= 2, quantum 2 sqrt 2"):
        args = (setting(0), setting(90), setting(45), setting(135))
        image = chsh("image-event", *args, n=10**6, rng=np.random.default_rng(55))
        assert abs(abs(image.chsh_s) - 2.828) < 0.02
        assert image.chsh_violated
        sign = chsh("bell-sign", *args, n=10**6, rng=np.random.default_rng(56))
        assert abs(sign.chsh_s) <= 2.0 + 4 * sign.chsh_stderr
        assert not sign.chsh_violated
        quantum = chsh("quantum", *args)
        assert abs(abs(quantum.chsh_s) - 2 * math.sqrt(2)) < 1e-12
        assert quantum.chsh_violated


def test_criterion_07_c2_solver_grid():
    with criterion(7, "c2 = 0 at 0/180 deg; real, nonnegative, residual < 1e-8 on 181 angles"):
        assert abs(solve_c2(0.0).c2) < 1e-8
        assert abs(solve_c2(math.pi).c2) < 1e-8
        for k in range(181):
            consts = solve_c2(math.radians(k))
            assert consts.c2 >= 0.0
            assert consts.residual < 1e-8


def test_criterion_08_sign_model_curve():
    with criterion(8, "sign model = -1 + 2 theta/pi within 4 sigma; exact at the ends"):
        a = setting(0)
        ends = bell_sign_correlation(a, setting(0), 10**6, np.random.default_rng(77))
        assert ends.value == -1.0
        ends = bell_sign_correlation(a, setting(180), 10**6, np.random.default_rng(78))
        assert ends.value == 1.0
        for k, deg in enumerate(range(15, 180, 15)):
            est = bell_sign_correlation(
                a, setting(deg), 10**6, np.random.default_rng(790 + k)
            )
            expect = -1 + 2 * math.radians(deg) / math.pi
            assert abs(est.value - expect) < 4 * est.stderr


def test_criterion_09_mean_exit_time():
    with criterion(9, "MC mean steps x (1/M)^2/2 within 2% of x0(1-x0)/2D"):
        m, trials, seed = 200, 10_000, 31337
        winners, steps = _two_state_block(
            np.full(trials, m // 2),
            np.full(trials, 100 * m * m),
            [trial_rng(seed, t) for t in range(trials)],
            m,
        )
        assert winners.min() >= 0
        scaled = (int(steps.sum()) / trials) / (m * m) / 2.0
        expect = mean_exit_time(DiffusionParams(x0=0.5, diffusion=1.0))
        assert expect == 0.125
        assert abs(scaled - expect) < 0.02 * expect


def test_criterion_10_determinism_across_threads(tmp_path):
    with criterion(10, "byte-identical outputs for repeated runs and 1/2/8 threads"):
        def run(out, threads):
            proc = subprocess.run(
                [
                    sys.executable, "-m", "collapsewalk.cli",
                    "born",
                    "--amplitudes", "0.547722,0;0.836660,0",
                    "--trials", "5000",
                    "--grid-resolution", "100",
                    "--seed", "13",
                    "--threads", str(threads),
                    "--out", str(out),
                ],
                capture_output=True,
                text=True,
                cwd=tmp_path,
                env=dict(os.environ),
            )
            assert proc.returncode == 0, proc.stderr
            return out.read_bytes()

        reference = run(tmp_path / "t1.csv", 1)
        assert run(tmp_path / "t1b.csv", 1) == reference
        assert run(tmp_path / "t2.csv", 2) == reference
        assert run(tmp_path / "t8.csv", 8) == reference
