import json
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import collapsewalk
from collapsewalk.bell import (
    CHUNK_SIZE,
    DetectorSetting,
    estimate_from_events,
    sample_image_events,
)
from collapsewalk.cli import main, parse_config
from collapsewalk.errors import UsageError


def run_cli(args, tmp_path, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "collapsewalk.cli", *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )


# -------------------------------------------------------------- parse_config

def test_parse_born_amplitudes():
    config = parse_config(
        ["born", "--amplitudes", "0.547722,0;0.836660,0", "--trials", "100000"]
    )
    assert config.subcommand == "born"
    assert config.trials == 100_000
    from collapsewalk import normalize, parse_amplitudes

    weights = normalize(parse_amplitudes(config.amplitudes)).weights()
    assert abs(weights[0] - 0.3) < 1e-5
    assert abs(weights[1] - 0.7) < 1e-5


def test_parse_missing_required_flag():
    with pytest.raises(UsageError):
        parse_config(["chsh", "--model", "quantum"])


def test_parse_rejects_nonpositive_counts():
    with pytest.raises(UsageError):
        parse_config(["born", "--amplitudes", "1,0;0,1", "--trials", "0"])


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"trials": 500, "seed": 9}))
    config = parse_config(
        ["born", "--config", str(cfg), "--amplitudes", "1,0;0,1", "--trials", "1000"]
    )
    assert config.trials == 1000  # flag wins
    assert config.seed == 9  # file fills the rest
    config = parse_config(["born", "--config", str(cfg), "--amplitudes", "1,0;0,1"])
    assert config.trials == 500


def test_config_file_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"trils": 500}))
    with pytest.raises(UsageError):
        parse_config(["born", "--config", str(cfg), "--amplitudes", "1,0;0,1"])


def test_usage_error_exit_code(tmp_path):
    proc = run_cli(["chsh", "--model", "quantum"], tmp_path)
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["born", "--amplitudes", "abc"],
        ["greens", "--x0", "1.5"],
        ["born", "--amplitudes", "1,0;1,0", "--grid-resolution", "1"],
        ["greens", "--x0", "0.5", "--laplace-s", "-1"],
        ["greens", "--x0", "0.5", "--laplace-s", "0"],
        ["born", "--amplitudes", "1,0"],
        ["born", "--amplitudes", "0,0;0,0"],
    ],
)
def test_invalid_input_values_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "values, argv",
    [
        (
            {"convention": 5},
            ["chsh", "--model", "image-event", "--settings", "0,90,45,135"],
        ),
        ({"model": "foo"}, ["bell", "--theta-grid", "0:90:45"]),
        ({"format": "xml"}, ["c2", "--theta-grid", "0:90:45"]),
        ({"trials": "abc"}, ["born", "--amplitudes", "1,0;0,1"]),
        ({"seed": 1.5}, ["born", "--amplitudes", "1,0;0,1"]),
        ({"trials": True}, ["born", "--amplitudes", "1,0;0,1"]),
        (
            {"samples": "abc"},
            ["chsh", "--model", "bell-sign", "--settings", "0,90,45,135"],
        ),
    ],
)
def test_invalid_config_values_exit_2(values, argv, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(values))
    out = tmp_path / "result.txt"
    assert main(argv + ["--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


# ----------------------------------------------------------------- commands

def test_bell_image_analytic_curve(tmp_path):
    proc = run_cli(
        ["bell", "--model", "image-analytic", "--theta-grid", "0:180:30"], tmp_path
    )
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "theta_deg,value,stderr,n,model"
    assert len(lines) == 8
    for line in lines[1:]:
        deg, value = line.split(",")[:2]
        assert abs(float(value) - math.cos(math.radians(float(deg)))) < 1e-6


def test_bell_image_event_streams_same_as_batch(tmp_path):
    """The bell command reduces image events chunk by chunk; its rows and
    acceptance rates equal those of whole batches drawn on the same seed."""
    n = 2 * CHUNK_SIZE + 5
    out = tmp_path / "bell.json"
    argv = [
        "bell", "--model", "image-event", "--theta-grid", "0:90:45",
        "--samples", str(n), "--seed", "21", "--format", "json", "--out", str(out),
    ]
    assert main(argv) == 0
    rows = json.loads(out.read_text())["rows"]
    rates = json.loads((tmp_path / "bell.json.manifest.json").read_text())[
        "diagnostics"
    ]["acceptance_rate"]
    streams = np.random.default_rng(np.random.SeedSequence(21)).spawn(3)
    a = DetectorSetting.from_plane_angle_degrees(0.0)
    batch_rates = []
    for row, theta_deg, stream in zip(rows, (0.0, 45.0, 90.0), streams):
        b = DetectorSetting.from_plane_angle_degrees(theta_deg)
        batch = sample_image_events(a, b, n, stream)
        est = estimate_from_events(batch)
        batch_rates.append(batch.acceptance_rate)
        assert row == {
            "theta_deg": theta_deg, "value": est.value, "stderr": est.stderr,
            "n": n, "model": "image-event",
        }
    assert rates == {
        "min": min(batch_rates),
        "max": max(batch_rates),
        "mean": sum(batch_rates) / len(batch_rates),
    }


def test_chsh_quantum_json(tmp_path):
    proc = run_cli(
        ["chsh", "--model", "quantum", "--settings", "0,90,45,135", "--format", "json"],
        tmp_path,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert abs(payload["S"] + 2 * math.sqrt(2)) < 1e-9
    assert payload["violated"] is True


def test_c2_grid_endpoints_zero(tmp_path):
    proc = run_cli(["c2", "--theta-grid", "0:180:90"], tmp_path)
    assert proc.returncode == 0
    rows = [line.split(",") for line in proc.stdout.strip().splitlines()[1:]]
    assert float(rows[0][1]) == 0.0
    assert float(rows[2][1]) == 0.0
    assert float(rows[1][1]) > 0.02


def test_greens_profile(tmp_path):
    proc = run_cli(
        ["greens", "--x0", "0.5", "--laplace-s", "1", "--x-grid", "0:1:0.5"], tmp_path
    )
    rows = [line.split(",") for line in proc.stdout.strip().splitlines()[1:]]
    assert float(rows[0][1]) == 0.0
    assert float(rows[2][1]) == 0.0
    mid = math.sinh(0.5) ** 2 / math.sinh(1.0)
    assert abs(float(rows[1][1]) - mid) < 1e-12


def test_walk_trajectory_conserves_weight(tmp_path):
    proc = run_cli(
        [
            "walk",
            "--amplitudes", "0.707107,0;0,0.707107",
            "--grid-resolution", "10",
            "--seed", "4",
        ],
        tmp_path,
    )
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "step,w0,w1"
    for line in lines[1:]:
        _, w0, w1 = line.split(",")
        assert abs(float(w0) + float(w1) - 1.0) < 1e-12


def test_walk_json_has_outcome(tmp_path):
    proc = run_cli(
        [
            "walk",
            "--amplitudes", "1,0;0,1",
            "--grid-resolution", "8",
            "--seed", "1",
            "--format", "json",
        ],
        tmp_path,
    )
    payload = json.loads(proc.stdout)
    assert payload["winner"] in (0, 1)
    assert len(payload["elimination_order"]) == 1
    assert payload["trajectory"][0]["step"] == 0


def test_born_writes_manifest(tmp_path):
    out = tmp_path / "born.csv"
    proc = run_cli(
        [
            "born",
            "--amplitudes", "0.547722,0;0.836660,0",
            "--trials", "2000",
            "--grid-resolution", "50",
            "--out", str(out),
        ],
        tmp_path,
    )
    assert proc.returncode == 0
    manifest = json.loads((tmp_path / "born.csv.manifest.json").read_text())
    assert manifest["config"]["trials"] == 2000
    assert manifest["diagnostics"]["excluded_trials"] == 0
    assert manifest["error"] is None
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "state,count,frequency,stderr"
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert sum(counts) == 2000


def test_numerical_failure_exit_code(tmp_path):
    out = tmp_path / "fail.csv"
    proc = run_cli(
        [
            "born",
            "--amplitudes", "1,0;0,1",
            "--trials", "200",
            "--grid-resolution", "100",
            "--max-steps", "5",
            "--out", str(out),
        ],
        tmp_path,
    )
    assert proc.returncode == 1
    manifest = json.loads((tmp_path / "fail.csv.manifest.json").read_text())
    assert "MaxStepsExceeded" in manifest["error"]


# ------------------------------------------------------------- determinism

def test_repeat_runs_byte_identical(tmp_path):
    args = [
        "born",
        "--amplitudes", "0.6,0;0,0.8",
        "--trials", "2000",
        "--grid-resolution", "50",
        "--seed", "7",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(out1)], tmp_path).returncode == 0
    assert run_cli(args + ["--out", str(out2)], tmp_path).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_thread_count_does_not_change_output(tmp_path):
    base = None
    for threads in (1, 2, 8):
        out = tmp_path / f"t{threads}.csv"
        proc = run_cli(
            [
                "born",
                "--amplitudes", "0.547722,0;0.836660,0",
                "--trials", "3000",
                "--grid-resolution", "60",
                "--seed", "3",
                "--threads", str(threads),
                "--out", str(out),
            ],
            tmp_path,
        )
        assert proc.returncode == 0
        data = out.read_bytes()
        base = data if base is None else base
        assert data == base


def test_thread_env_cap_keeps_output(tmp_path):
    out1, out2 = tmp_path / "capped.csv", tmp_path / "free.csv"
    args = [
        "born",
        "--amplitudes", "1,0;0,1",
        "--trials", "1000",
        "--grid-resolution", "40",
        "--threads", "8",
    ]
    run_cli(args + ["--out", str(out1)], tmp_path, env_extra={"COLLAPSE_WALK_THREADS": "1"})
    run_cli(args + ["--out", str(out2)], tmp_path)
    assert out1.read_bytes() == out2.read_bytes()


def test_born_manifest_reports_steps_and_records_threads(tmp_path, monkeypatch):
    """Thread settings are recorded but ignored; the manifest carries the
    mean absorption time, its standard error and the exact oracle."""
    monkeypatch.setenv("COLLAPSE_WALK_THREADS", "not-a-number")
    out = tmp_path / "born.csv"
    argv = [
        "born",
        "--amplitudes", "0.707107,0;0.5,0;0.5,0",
        "--trials", "2000",
        "--grid-resolution", "40",
        "--seed", "5",
        "--threads", "4",
        "--out", str(out),
    ]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "born.csv.manifest.json").read_text())
    assert manifest["config"]["threads"] == 4
    diag = manifest["diagnostics"]
    assert diag["expected_steps"] == (40**2 - 20**2 - 10**2 - 10**2) / 2
    assert abs(diag["mean_steps"] - diag["expected_steps"]) < 4 * diag["steps_stderr"]
    single = tmp_path / "single.csv"
    assert main(argv[:-4] + ["--out", str(single)]) == 0
    assert single.read_bytes() == out.read_bytes()


def test_born_csv_golden_bytes(tmp_path):
    """The born result of acceptance criterion 10, fixed byte for byte."""
    out = tmp_path / "born.csv"
    argv = [
        "born",
        "--amplitudes", "0.547722,0;0.836660,0",
        "--trials", "5000",
        "--grid-resolution", "100",
        "--seed", "13",
        "--out", str(out),
    ]
    assert main(argv) == 0
    assert out.read_bytes() == (
        b"state,count,frequency,stderr\n"
        b"0,1480,0.296,0.00645575712058624\n"
        b"1,3520,0.704,0.00645575712058624\n"
    )


def test_manifest_round_trip_reproduces_result(tmp_path):
    # born has no --model, so its manifest records "model": null
    runs = (
        [
            "bell",
            "--model", "image-event",
            "--theta-grid", "0:90:45",
            "--samples", "20000",
            "--seed", "11",
        ],
        ["born", "--amplitudes", "1,0;1,0", "--trials", "50", "--seed", "4"],
    )
    for argv in runs:
        name = argv[0]
        out1 = tmp_path / f"{name}-first.csv"
        run_cli(argv + ["--out", str(out1)], tmp_path)
        manifest = json.loads((tmp_path / f"{name}-first.csv.manifest.json").read_text())
        config = manifest["config"]
        out2 = tmp_path / f"{name}-second.csv"
        config["out"] = str(out2)
        replay = tmp_path / f"{name}-replay.json"
        replay.write_text(json.dumps(config))
        proc = run_cli([name, "--config", str(replay)], tmp_path)
        assert proc.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_entropy_seeds_recorded_and_distinct(tmp_path):
    seeds = []
    for name in ("e1.csv", "e2.csv"):
        out = tmp_path / name
        proc = run_cli(
            [
                "born",
                "--amplitudes", "1,0;0,1",
                "--trials", "100",
                "--grid-resolution", "20",
                "--entropy",
                "--out", str(out),
            ],
            tmp_path,
        )
        assert proc.returncode == 0
        manifest = json.loads((tmp_path / (name + ".manifest.json")).read_text())
        assert manifest["config"]["entropy"] is False
        seeds.append(manifest["config"]["seed"])
    assert seeds[0] != seeds[1]


def test_main_entry_point_runs_in_process(capsys):
    assert not [
        name for name in collapsewalk.__all__
        if isinstance(getattr(collapsewalk, name), types.ModuleType)
    ]
    code = main(["bell", "--model", "quantum", "--theta-grid", "0:180:90"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert float(lines[1].split(",")[1]) == -1.0
