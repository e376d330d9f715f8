import ast
import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import collapsewalk
import collapsewalk.cli
from collapsewalk import WalkConfig, form_joint, normalize, parse_amplitudes, run_walk
from collapsewalk.bell import (
    CHUNK_SIZE,
    DetectorSetting,
    chsh,
    estimate_from_events,
    sample_image_events,
)
from collapsewalk.cli import (
    _OPTIONS, _build_parser, _options_of, _parse_grid, main, parse_config
)
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


_INVALID_ARGV = [
    ["born", "--amplitudes", "abc"],
    ["greens", "--x0", "1.5"],
    ["born", "--amplitudes", "1,0;1,0", "--grid-resolution", "1"],
    ["greens", "--x0", "0.5", "--laplace-s", "-1"],
    ["greens", "--x0", "0.5", "--laplace-s", "0"],
    ["greens", "--x0", "0.5", "--laplace-s", "inf"],
    ["greens", "--x0", "0.5", "--diffusion", "inf"],
    ["born", "--amplitudes", "1,0"],
    ["born", "--amplitudes", "0,0;0,0"],
    ["c2", "--theta-grid", "nan:nan:1"],
    ["c2", "--theta-grid", "0:inf:1"],
    ["c2", "--theta-grid", "0:180:1e-13"],
    ["c2", "--theta-grid=-1e308:1e308:1"],
    ["greens", "--x0", "0.5", "--x-grid", "0:1:1e-14"],
    ["bell", "--model", "image-analytic", "--theta-grid", "0:90:nan"],
    ["chsh", "--model", "quantum", "--settings", "0,nan,45,135"],
    ["chsh", "--model", "quantum", "--settings", "0,90,inf,135"],
    ["greens", "--x0", "0.5", "--x-grid", "0:100:1"],
    ["greens", "--x0", "0.5", "--x-grid=-0.5:1:0.5"],
    ["greens", "--x0", "0.5", "--x-grid", "0:1.5:0.5"],
    ["c2", "--theta-grid", "0:270:90"],
    ["born", "--amplitudes"],
    ["c2", "--theta-grid", "0:90:45", "--bogus"],
    ["bell", "--model", "nonsense", "--theta-grid", "0:90:45"],
    ["greens", "--x0", "0.5", "--x-grid", "-0.5:1:0.5"],
    ["bell", "--model", "quantum", "--theta-grid", "0:90:45", "--seed=-1"],
    ["chsh", "--model", "quantum", "--settings", "0,90,45,135", "--seed=-1"],
    [
        "bell", "--model", "quantum", "--theta-grid", "0:90:45",
        "--seed", "18446744073709551616",
    ],
    ["walk", "--amplitudes", "1,0;1,0", "--grid-resolution", "100000"],
    [
        "born", "--amplitudes", "0.5,0;0.3,0;0.2,0",
        "--grid-resolution", "100000", "--trials", "2",
    ],
    # a positive weight quantized to zero, at a fine and a coarse grid
    [
        "born", "--amplitudes", "0.02,0;0.7,0;0.7139,0",
        "--grid-resolution", "1000", "--trials", "200",
    ],
    [
        "born", "--amplitudes", "0.02,0;0.7,0;0.7139,0",
        "--grid-resolution", "20", "--trials", "200",
    ],
    ["walk", "--amplitudes", "0.02,0;0.7,0;0.7139,0", "--grid-resolution", "1000"],
    ["walk", "--amplitudes", "0.02,0;0.7,0;0.7139,0", "--grid-resolution", "20"],
]
# argv that no subcommand's parser accepts: none given, an unknown name, a
# flag before the subcommand, a flag of another subcommand
_BAD_SUBCOMMAND_ARGV = [
    [],
    ["bel"],
    ["--seed", "1", "c2", "--theta-grid", "0:180:90"],
    ["c2", "--samples", "5", "--theta-grid", "0:180:90"],
]


@pytest.mark.parametrize("argv", _INVALID_ARGV + _BAD_SUBCOMMAND_ARGV)
def test_invalid_input_values_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("command", ["born", "walk"])
@pytest.mark.parametrize("m", [20, 1000])
def test_zeroed_weight_refusal_names_the_state(command, m, capsys):
    """quantize_weights refuses the grid at M < 10 N, the run itself at
    M >= 10 N; both refusals read the same and name state 0."""
    argv = [command, "--amplitudes", "0.02,0;0.7,0;0.7139,0", "--grid-resolution", str(m)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"usage error: positive weights of states [0] quantize to zero at M={m}; "
        "raise the grid resolution\n"
    )


@pytest.mark.parametrize("argv", [["-h"], ["bell", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: collapsewalk")


def test_top_level_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for subcommand in collapsewalk.cli._SUBCOMMANDS:
        assert subcommand in out


@pytest.mark.parametrize("subcommand", list(collapsewalk.cli._SUBCOMMANDS))
def test_subcommand_help_same_as_full_parser(subcommand, capsys):
    """``<sub> --help`` builds that subcommand's parser alone and prints the
    help text that the parser of all six prints."""
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: collapsewalk {subcommand} ")
    with pytest.raises(SystemExit):
        _build_parser([]).parse_args([subcommand, "--help"])
    assert capsys.readouterr().out == out


def _parse(parser, argv) -> str:
    """repr of the parsed argv's vars (nan == nan), or its UsageError."""
    try:
        return repr(vars(parser.parse_args(argv)))
    except UsageError as exc:
        return f"UsageError: {exc}"


def assert_parses_as_full_parser(argv):
    """The parser built for argv, which holds argv[0]'s subparser alone when
    argv[0] names a subcommand, parses argv as the parser of all six does,
    or refuses it with the same message."""
    assert _parse(_build_parser(argv), argv) == _parse(_build_parser([]), argv)


@pytest.mark.parametrize(
    "argv",
    _INVALID_ARGV + _BAD_SUBCOMMAND_ARGV + [
        ["c2", "--theta-grid", "0:180:30", "--out", "x.csv"],
        ["born", "--amplitudes", "1,0;0,1", "--entropy", "--config", "run.json"],
        ["chsh", "--model", "quantum", "--settings", "0,90,45,135", "--seed=3"],
        ["greens", "--x0", "0.5", "--diff", "2"],
        ["walk"],
        ["c2", "born", "--amplitudes", "1,0;0,1"],
    ],
)
def test_subcommand_parser_matches_full_parser(argv):
    assert_parses_as_full_parser(argv)


def test_cli_imports_no_private_bell_name():
    """The CLI reaches the Bell laboratory through public entry points only."""
    tree = ast.parse(inspect.getsource(collapsewalk.cli))
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("bell", "collapsewalk.bell")
        for alias in node.names
    ]
    assert "correlation_estimate" in names
    assert not [name for name in names if name.startswith("_")], names


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
        ({"seed": -1}, ["bell", "--model", "quantum", "--theta-grid", "0:90:45"]),
        (
            {"seed": 2**64},
            ["chsh", "--model", "quantum", "--settings", "0,90,45,135"],
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


BELL_GOLDEN_SHA256 = {
    "image-event": "0fce2b0ac4f90aec24aa7df6e56279c7d13fdbf9965e096dc9e31bdbf138f5c8",
    "bell-sign": "7654998f1734c196fee8973d45967c03c9a41caf93ad56f169b1e8fdb10ae97b",
}


@pytest.mark.parametrize("model", ["quantum", "image-analytic", *BELL_GOLDEN_SHA256])
def test_bell_spawns_streams_only_for_models_that_draw(model, monkeypatch, tmp_path):
    """The closed-form models spawn no child stream; the sampled models
    spawn one per angle and write their golden bytes."""
    made = []

    def default_rng(seed=None):
        made.append(np.random.Generator(np.random.PCG64(seed)))
        return made[-1]

    monkeypatch.setattr(collapsewalk.cli.np.random, "default_rng", default_rng)
    out = tmp_path / "bell.csv"
    argv = ["bell", "--model", model, "--theta-grid", "0:180:45", "--samples", "2000",
            "--seed", "3", "--out", str(out)]
    assert main(argv) == 0
    (rng,) = made
    draws = model in BELL_GOLDEN_SHA256
    assert rng.bit_generator.seed_seq.n_children_spawned == 5 * draws
    if draws:
        assert hashlib.sha256(out.read_bytes()).hexdigest() == BELL_GOLDEN_SHA256[model]


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


@pytest.mark.parametrize(
    "model", ["image-event", "quantum", "bell-sign", "image-analytic"]
)
def test_chsh_manifest_reports_acceptance_rates(model, tmp_path):
    """chsh reports the acceptance rates of its four image-event estimates as
    bell does, and the verdict margin of every model; its result file is the
    report's values."""
    out = tmp_path / "chsh.csv"
    argv = [
        "chsh", "--model", model, "--settings", "0,90,45,135",
        "--samples", "40000", "--seed", "5", "--out", str(out),
    ]
    assert main(argv) == 0
    diagnostics = json.loads((tmp_path / "chsh.csv.manifest.json").read_text())[
        "diagnostics"
    ]
    frames = (DetectorSetting.from_plane_angle_degrees(d) for d in (0, 90, 45, 135))
    report = chsh(model, *frames, 40000, np.random.default_rng(5))
    assert out.read_text().splitlines()[1].split(",")[:4] == [
        model, f"{report.chsh_s:.15g}", "2", f"{report.chsh_stderr:.15g}"
    ]
    assert diagnostics.pop("chsh_margin") == report.chsh_margin
    assert (report.chsh_margin == 0.0) == (model in ("quantum", "image-analytic"))
    if model != "image-event":
        assert diagnostics == {}
        return
    rates = [est.acceptance_rate for est in report.estimates]
    assert diagnostics["acceptance_rate"] == {
        "min": min(rates), "max": max(rates), "mean": sum(rates) / len(rates)
    }
    assert 0.42 <= min(rates) and max(rates) <= 0.67


def test_walk_run_capped_at_max_rows(tmp_path, monkeypatch):
    """A walk expecting more than WALK_MAX_ROWS rows is refused; an accepted
    walk that outlives WALK_MAX_ROWS - 1 steps fails with exit 1 and a
    manifest.  M = 10 from [.5, .5] expects (100 - 50) / 2 + 1 = 26 rows."""
    argv = ["walk", "--amplitudes", "1,0;1,0", "--grid-resolution", "10"]
    monkeypatch.setattr(collapsewalk.cli, "WALK_MAX_ROWS", 25)
    assert main(argv) == 2
    monkeypatch.setattr(collapsewalk.cli, "WALK_MAX_ROWS", 40)
    out = tmp_path / "walk.csv"
    assert main(argv + ["--seed", "0", "--out", str(out)]) == 0  # 17 steps
    assert len(out.read_text().splitlines()) == 1 + 18
    assert main(argv + ["--seed", "1", "--out", str(out)]) == 1  # 41 steps
    manifest = json.loads((tmp_path / "walk.csv.manifest.json").read_text())
    assert "MaxStepsExceededError" in manifest["error"]
    assert "39 steps" in manifest["error"]


def test_walk_budget_counts_cells(tmp_path, monkeypatch, capsys):
    """A walk of N states may buffer 2 WALK_MAX_ROWS // N rows of N counts.
    724 equal amplitudes at M = 724 expect 261,727 rows, under WALK_MAX_ROWS
    but about 1.9e8 cells: exit 2 within a second, before any draw, with no
    result file.  [4, 3, 1] / 8 at M = 8 expects 20 rows, refused when three
    states may take 19 and accepted when they may take 20."""
    def no_walk(*args, **kwargs):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(collapsewalk.cli, "_walk_counts", no_walk)
    out = tmp_path / "walk.csv"
    argv = ["walk", "--amplitudes", ";".join(["1,0"] * 724), "--grid-resolution", "724",
            "--out", str(out)]
    started = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - started < 1.0
    assert not out.exists()
    assert capsys.readouterr().err == (
        "usage error: walk of 724 states expects more than 724 trajectory rows; "
        "lower --grid-resolution\n"
    )
    monkeypatch.undo()
    amplitudes = ";".join(f"{math.sqrt(w)!r},0" for w in (0.5, 0.375, 0.125))
    argv = ["walk", "--amplitudes", amplitudes, "--grid-resolution", "8", "--out", str(out)]
    monkeypatch.setattr(collapsewalk.cli, "WALK_MAX_ROWS", 29)  # 58 // 3 = 19 rows
    assert main(argv) == 2
    monkeypatch.setattr(collapsewalk.cli, "WALK_MAX_ROWS", 30)  # 60 // 3 = 20 rows
    assert main(argv) == 0  # seed 0 walks 7 steps
    assert len(out.read_text().splitlines()) == 1 + 8


def test_chsh_quantum_json(tmp_path):
    proc = run_cli(
        ["chsh", "--model", "quantum", "--settings", "0,90,45,135", "--format", "json"],
        tmp_path,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert abs(payload["S"] + 2 * math.sqrt(2)) < 1e-9
    assert payload["violated"] is True


@pytest.mark.parametrize("spec", ["0, 90 ,45,135\n", "0,90,45,1_35"])
def test_chsh_csv_writes_the_angles_it_ran(spec, tmp_path):
    """The settings cell holds the parsed angles, not the flag's text:
    spaces, a newline or digit underscores write the bytes of 0,90,45,135."""
    argv = ["chsh", "--model", "quantum", "--settings"]
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    assert main([*argv, "0,90,45,135", "--out", str(want)]) == 0
    assert main([*argv, spec, "--out", str(got)]) == 0
    assert got.read_bytes() == want.read_bytes()


def test_c2_grid_endpoints_zero(tmp_path):
    proc = run_cli(["c2", "--theta-grid", "0:180:90"], tmp_path)
    assert proc.returncode == 0
    rows = [line.split(",") for line in proc.stdout.strip().splitlines()[1:]]
    assert float(rows[0][1]) == 0.0
    assert float(rows[2][1]) == 0.0
    assert float(rows[1][1]) > 0.02


@pytest.mark.parametrize(
    "spec, expect",
    [
        ("0:180:70", [0.0, 70.0, 140.0]),
        ("0:180:90", [0.0, 90.0, 180.0]),
        ("0:1:0.1", [i / 10 for i in range(11)]),
        ("0:0.3:0.1", [0.0, 0.1, 0.2, 0.3]),
        ("0:1:0.3", [0.0, 0.3, 0.6, 0.9]),
        ("5:5:1", [5.0]),
    ],
)
def test_parse_grid_stops_at_stop(spec, expect):
    """The last point lies at stop or below it, up to rounding."""
    grid = _parse_grid(spec, "grid")
    assert grid.size == len(expect)
    assert np.allclose(grid, expect, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["c2", "--theta-grid", "0:180:70"],
        ["bell", "--model", "quantum", "--theta-grid", "0:180:70"],
    ],
)
def test_theta_grid_does_not_overshoot(argv, capsys):
    assert main(argv) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0", "70", "140"]


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


WALK_GOLDEN = {
    # two states, M = 6: four steps
    ("0.6,0;0.8,0", "6", "2"): (
        b"step,w0,w1\n"
        b"0,0.333333333333333,0.666666666666667\n"
        b"1,0.5,0.5\n"
        b"2,0.333333333333333,0.666666666666667\n"
        b"3,0.166666666666667,0.833333333333333\n"
        b"4,0,1\n",
        "109b254833b570c14abacfb6e9ecec460baa504a36f19907d4b2601b5d6939dd",
    ),
    # three states with phases, M = 5: state 2 dies at step 2
    ("0.5,0;0.3,0.2;0,0.4", "5", "7"): (
        b"step,w0,w1,w2\n"
        b"0,0.4,0.2,0.4\n"
        b"1,0.4,0.4,0.2\n"
        b"2,0.4,0.6,0\n"
        b"3,0.6,0.4,0\n"
        b"4,0.8,0.2,0\n"
        b"5,1,0,0\n",
        "37bfa4e56dcd7389a2172c71a0b5649d170658b377d4e7d0fd32c13576ee05eb",
    ),
}


@pytest.mark.parametrize("amplitudes, m, seed", list(WALK_GOLDEN))
def test_walk_golden_bytes(amplitudes, m, seed, tmp_path):
    """walk's CSV bytes, and the sha256 of its JSON bytes, fixed."""
    csv_bytes, json_sha256 = WALK_GOLDEN[(amplitudes, m, seed)]
    argv = ["walk", "--amplitudes", amplitudes, "--grid-resolution", m, "--seed", seed]
    out = tmp_path / "walk.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == csv_bytes
    out = tmp_path / "walk.json"
    assert main(argv + ["--format", "json", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == json_sha256


@pytest.mark.parametrize(
    "amplitudes, m",
    [("0.6,0;0.8,0", "3"), ("0.6,0;0.8,0", "40"), ("1,0;1,0;1,0", "90")],
)
def test_walk_csv_cells_are_its_json_weights(amplitudes, m, tmp_path):
    """Whether M + 1 is below the row count or above it, each CSV weight cell
    is the JSON weight to 15 significant digits."""
    argv = ["walk", "--amplitudes", amplitudes, "--grid-resolution", m, "--seed", "11"]
    assert main(argv + ["--out", str(tmp_path / "walk.csv")]) == 0
    assert main(argv + ["--format", "json", "--out", str(tmp_path / "walk.json")]) == 0
    header, *rows = (tmp_path / "walk.csv").read_text().splitlines()
    names = header.split(",")
    trajectory = json.loads((tmp_path / "walk.json").read_text())["trajectory"]
    assert len(rows) == len(trajectory)
    for row, point in zip(rows, trajectory):
        step, *cells = row.split(",")
        assert int(step) == point["step"]
        assert cells == [f"{point[name]:.15g}" for name in names[1:]]


# sha256 of the CSV and of the JSON result of each README example and CI
# smoke command (born and image-event at fewer trials or samples), fixed
OUTPUT_SHA256 = {
    ("born", "--amplitudes", "0.547722,0;0.836660,0", "--trials", "5000",
     "--grid-resolution", "100", "--seed", "13"): (
        "d3404d4c96c338a6be8ddbf618bbff0cf68d5865c6126fcf173c827e879d5af6",
        "0a98937ea4e69e84b80aaf8d4777420f232421c516b40eb91523adf716ddb2fe",
    ),
    ("born", "--amplitudes", "0.547723,0;0.836660,0", "--trials", "300",
     "--grid-resolution", "1000", "--seed", "5"): (
        "7fb40be7d5ac8ca46f6a749bc749577c6d53cf1adc75b1115ee6f8e9c7f80194",
        "94c98df70227edba6e1eec0e4219d0caa1a7879c43322797a87e5218484556bc",
    ),
    ("born", "--amplitudes", "0.6,0;0.8,0", "--trials", "100", "--grid-resolution", "20"): (
        "32aab9482da83170cd0bf186b6e2d8d23e8e54eefac1df9bff70e3780d78f107",
        "a00a6ab66b019177ee62ce3ee32d5e3b2c642b57e3d86748e5cb6259a5e4d4c7",
    ),
    ("born", "--amplitudes", "0.5,0;0.5,0;0.5,0;0.5,0;0.5,0", "--trials", "200",
     "--grid-resolution", "60", "--seed", "1"): (
        "5abfb64181aa6937df4de75eababc519c4b812f49724b55337ebf1a770a6b0f3",
        "34bb1bf1625bd8f074194b317797af86a0823526f5d5a70ac37cf560fc210a0d",
    ),
    ("born", "--amplitudes", "0.6,0;0,0;0.8,0", "--trials", "200", "--grid-resolution",
     "20", "--seed", "2"): (
        "ef15f84c2330adcd22d88da6f881dcec3663fd85109ddb19490428eb3edace77",
        "fe98ca4d13ecae67d4ee270979731961a3cb46ff60722b3d3c8ab1ae8b5df49d",
    ),
    # the bench's eight-state batch: 25 trials at M = 200
    ("born", "--amplitudes",
     "0.447214,0;0.418330,0;0.387298,0;0.353553,0;0.353553,0;0.316228,0;0.273861,0;0.223607,0",
     "--trials", "25", "--grid-resolution", "200", "--seed", "3"): (
        "0fd8101ebfec72e31f848edb5b73d3240c0b322845f91ce0c60bb2ef78aeffd7",
        "835366405a7a1d3b82f6e39a32a902e0ffd32664c31e81f194319d315fac6e89",
    ),
    # the bench's three-state batch: 100 trials of [.5, .3, .2] at M = 100
    ("born", "--amplitudes", "0.707107,0;0.547723,0;0.447214,0", "--trials", "100",
     "--grid-resolution", "100", "--seed", "4"): (
        "75d6265959558ec5a011f7f6df66f0b27c9bd9d251579d6fb9119c9eed5bafed",
        "36371fa8d728baf9ed5b1f1a8a24b7b0a112d799ece606a22ab1f8acc8362c1f",
    ),
    # one alive state: every walk is absorbed at step 0
    ("born", "--amplitudes", "1,0;0,0", "--trials", "5000", "--seed", "2"): (
        "fc4e38a9a40a8336c3e319dbfc9f7df2dc944ad0bf54500d2b44d1ddba1914eb",
        "2e52b843723201dab75114123ff0c6576229c9b834229f5b55de1f14b95bc4f7",
    ),
    ("walk", "--amplitudes", "0.707107,0;0.707107,0", "--grid-resolution", "20"): (
        "5ee8defa5edd06f3253bf155e69a74ff08c509092cb54f8134a11b6e952bd5d2",
        "fbeecb9ac9e47545c1366d66c5f4f10a6bc03521c8073cad98d2270327a6298a",
    ),
    ("walk", "--amplitudes", "0.6,0;0.8,0", "--grid-resolution", "20", "--seed", "3"): (
        "782489f56a6541d709ad3e44bd323cdacd72e71412aaad54ad62bc3a22547f84",
        "380b6719608c68ef51bbf833c2beddf5772f29a8cfd0cb591365d47336cad07c",
    ),
    ("walk", "--amplitudes", "0.5,0;0.3,0;0.2,0", "--grid-resolution", "30", "--seed", "3"): (
        "acd4f82da150f53e8f12d59315674a184acfc48cae45380d69c5a4f7219f291c",
        "f5ff1e340630296010522a7823295b865907f4801310dc35c8564cc032830d19",
    ),
    ("greens", "--x0", "0.5", "--laplace-s", "1", "--x-grid", "0:1:0.05"): (
        "716ff6e35ab955b5fb8f7b034610c3fc9150e5e246ac31c4b9c07bc8611025d7",
        "8fa2ed928f03181a55ad435ca8fc7fad4eeaa86b7e8da6c3d803b907dc094388",
    ),
    ("c2", "--theta-grid", "0:180:1"): (
        "68fdd295771237d7d226ce7a945a4e6db7ffee13611160e5bc26b9de8634c77b",
        "cef5aa4f87ddd31d56f1761a6c3555f4a7e52b67215b5f3dce01ad8f028a8938",
    ),
    ("c2", "--theta-grid", "0:180:90"): (
        "d2b11a7ff83b492c289fbf9d7f2ab079f9c99262b784ad6ddfb3714170f1dd21",
        "a7422f13471855919c8dae79655a0075da98ac0affbf206f4acf61510998a177",
    ),
    ("bell", "--model", "quantum", "--theta-grid", "0:180:15"): (
        "cd47f92d0462412632caacc8506674207a3d71c64cbf8a4a23205be85c6e1bad",
        "21eabfffbafeae2c854e9933bc52efdd7fc1cabb876e59853524e6e1b8a1ec27",
    ),
    ("bell", "--model", "quantum", "--theta-grid", "0:180:90"): (
        "f706c934e6c55e74e20de9927ef9b95cd8cfc1cf7054bc9d560934dd9e2a75b2",
        "a5fd1a09fd557fb30eed2ee6f17c54ce77e6e1daf41b00ac77b10793f46c0f16",
    ),
    ("bell", "--model", "image-analytic", "--theta-grid", "0:180:15"): (
        "e380a4db66aee48dbd590574dab09f461f894cf5fcbce2cabb3f74e6b65d70d2",
        "0eb20ed36dfe3fdef750e5d58bdfbd1ae586a84e61c5bebc3fe03c4a776fd9f7",
    ),
    ("bell", "--model", "bell-sign", "--theta-grid", "0:180:15", "--seed", "1"): (
        "91fe7d45e5bbeb6ab46d79ad435769c8b2b036c7031a792448bcbe740f54f10f",
        "e20b42c752760776c3b44485670f51889ae7232d59dec41813cb928118f95f7d",
    ),
    ("bell", "--model", "image-event", "--theta-grid", "0:180:90", "--samples", "1000",
     "--seed", "1"): (
        "98fbb4919b50c62d667d1ca10feec8790aeb30c2c26a5ec306dfcb70e6eaff0a",
        "386200dcb07815f0abd304935e2fcdefcbb095ca620a220183b93c89b733e9a8",
    ),
    ("chsh", "--model", "quantum", "--settings", "0,90,45,135"): (
        "37194ebb9132ee9ef408ca010cfa79e2cfd2f70c4306ef23b48e1ada121f6385",
        "4fbd8baedbc2b14b4b708ac21ce990ec2d2e39f76c35a0d22c367fe9efba93cd",
    ),
    ("chsh", "--model", "bell-sign", "--settings", "0,90,45,135", "--samples", "1000",
     "--seed", "1"): (
        "a53afcc66a271f5f17e0e742f4157733062856fcc67b625af299fda741abb6f9",
        "700696b6e194e16d1f458f8915bcfa910bdfa4ba53db1382b17645217afe0d18",
    ),
    ("chsh", "--model", "image-event", "--settings", "0,90,45,135", "--samples", "1000",
     "--seed", "1"): (
        "185f9af52b6293b55e4ccd63caa39d9ff0c192864f55ce4537cf075607d40fcb",
        "d6225960b03e8ad03434cade876ba023b779ab112eb001f951dfe57609af3282",
    ),
    # sizes of several chunks per correlation: 7 chunks at 10**5, 13 at 2 10**5
    ("bell", "--model", "image-event", "--theta-grid", "0:180:45", "--samples", "100000",
     "--seed", "1"): (
        "a6e4ec69d724f2733eeabd04bf369d435dd50be13c42988a5d11bfc67da1e8e1",
        "830ba11b03345acdedfdd52d931dead5b3bbae7f4c20d2a29efc2b7b7b620174",
    ),
    ("chsh", "--model", "image-event", "--settings", "0,90,45,135", "--samples", "200000",
     "--seed", "1"): (
        "bdf0bd44595bf9d134044adabe9803aa17a334ba2501ea2a869b4dd899c65107",
        "5734274b584f5d90b7b9ce30b700de5f816125635d39fa8e389f029e4ed8e461",
    ),
    # the sign model at the bench's 7 chunks per correlation, at 13 (the CI
    # smoke command) and at exactly 4 chunks per angle
    ("chsh", "--model", "bell-sign", "--settings", "0,90,45,135", "--samples", "100000",
     "--seed", "1"): (
        "ac6a367f21b83c2c23d55761384a8215499168ce1c4275b190667ce10497e657",
        "e4ed503e8cbaade1d60cb5aa3db0eede2f901ba6199339568424a73e5184c8eb",
    ),
    ("chsh", "--model", "bell-sign", "--settings", "0,90,45,135", "--samples", "200000",
     "--seed", "1"): (
        "49ac1a8a7101f8695a816b7e6a0a55a4a518f2986edd6f4d2b3891e20f1af43d",
        "0116d68bf0401a8fea61e8967544ae959576dbe48a9aa54bf818e8afa8c6d5d4",
    ),
    ("bell", "--model", "bell-sign", "--theta-grid", "0:180:45", "--samples", "65536",
     "--seed", "2"): (
        "e1cb0d8b2cebd5677e104ae0a07d12308af2b57532a7f4f1e9394936fdcafad3",
        "e9721d96bf91a741f00242db6989277966d396908e7ea64ee43fe2aa9e15dfbe",
    ),
    # the closed forms on a fine grid: 3,601 angles each
    ("c2", "--theta-grid", "0:180:0.05"): (
        "4dd81861d52f154d21982c9f1807dcb5be54dd5765183c04bc66114c87cd8c55",
        "44f8233189cc4e1b8b64018f92dc2f1710f2f0973793088e171ae3e1bc70165c",
    ),
    ("bell", "--model", "quantum", "--theta-grid", "0:180:0.05"): (
        "20dad4006e8069fb58a051a6ed4776c118a8acaab6b65e61932af865644c7113",
        "270894f966d1fefd0082debe1c0597b487a9f30dc283400c0663eecec10d1c8d",
    ),
    ("bell", "--model", "image-analytic", "--theta-grid", "0:180:0.05"): (
        "372f24e7c0eae405c54afc852d16d4b19ae501e38d4f48b0b280e066edc6a5d3",
        "724583624d87f72a56363138811a78221a6a0c85457052502e95627d58be2c6f",
    ),
}


@pytest.mark.parametrize("argv", list(OUTPUT_SHA256), ids=" ".join)
def test_output_golden_sha256(argv, tmp_path):
    """Each example's CSV and JSON bytes, fixed by their sha256."""
    out = tmp_path / "result"
    for fmt, want in zip(("csv", "json"), OUTPUT_SHA256[argv]):
        assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want, fmt


def test_walk_command_builds_no_joint_state(monkeypatch, tmp_path):
    """The walk command writes its rows from the step loop's counts: with
    every snapshot and JointState construction failing, it still writes
    its golden bytes."""
    def refuse(*args, **kwargs):
        raise AssertionError("the walk command built a JointState")

    monkeypatch.setattr("collapsewalk.walk._synced_joints", refuse)
    monkeypatch.setattr("collapsewalk.states.JointState.__post_init__", refuse)
    (amplitudes, m, seed), (csv_bytes, _) = list(WALK_GOLDEN.items())[1]
    out = tmp_path / "walk.csv"
    argv = ["walk", "--amplitudes", amplitudes, "--grid-resolution", m, "--seed", seed]
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == csv_bytes


_AMPLITUDE = st.just(0.0) | st.floats(-1.0, 1.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    pairs=st.lists(st.tuples(_AMPLITUDE, _AMPLITUDE), min_size=2, max_size=5),
    m=st.integers(2, 40),
    seed=st.integers(0, 2**64 - 1),
)
@example(pairs=[(0.0, 0.0), (0.6, 0.0), (0.0, 0.8)], m=20, seed=0)
@example(pairs=[(1e-310, 0.0), (1.0, 0.0), (1.0, 0.0)], m=4, seed=1)
def test_walk_command_walks_as_run_walk(pairs, m, seed):
    """The walk command's JSON trajectory, winner, step count and
    elimination order are what run_walk's observer records for the same
    state, grid and seed, and it writes nothing to stderr; grids the
    command refuses are skipped."""
    amplitudes = ";".join(f"{re!r},{im!r}" for re, im in pairs)
    argv = [f"--amplitudes={amplitudes}", "--grid-resolution", str(m), "--seed", str(seed)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["walk", *argv, "--format", "json"])
    assume(code != 2)
    assert (code, stderr.getvalue()) == (0, "")
    payload = json.loads(stdout.getvalue())
    snaps = []
    outcome = run_walk(
        form_joint(normalize(parse_amplitudes(amplitudes))),
        WalkConfig(grid_resolution=m, seed=seed),
        observer=lambda step, s: snaps.append([step, *s.weights.tolist()]),
    )
    header = ["step"] + [f"w{i}" for i in range(len(pairs))]
    assert [[row[key] for key in header] for row in payload["trajectory"]] == snaps
    assert payload["winner"] == outcome.winner
    assert payload["steps_taken"] == outcome.steps_taken
    assert payload["elimination_order"] == [list(e) for e in outcome.elimination_order]


def test_born_accepts_amplitudes_whose_squares_underflow(tmp_path):
    out = tmp_path / "born.csv"
    argv = ["born", "--amplitudes", "1e-200,0;1e-200,0", "--trials", "5",
            "--grid-resolution", "10", "--seed", "0", "--out", str(out)]
    assert main(argv) == 0
    assert out.read_text().splitlines()[0] == "state,count,frequency,stderr"


@pytest.mark.parametrize(
    "argv, accepted",
    [
        # the README example and criterion 01: 2.1e10 two-state steps
        (["born", "--amplitudes", "0.547722,0;0.836660,0", "--trials", "100000"], True),
        # criterion 02 through the CLI: 3.1e8 three-state steps
        (["born", "--amplitudes", "0.707107,0;0.547723,0;0.447214,0",
          "--grid-resolution", "100", "--trials", "100000"], True),
        # a cap bounds the expected steps of every trial
        (["born", "--amplitudes", "0.5,0;0.3,0;0.2,0", "--grid-resolution", "100000",
          "--trials", "2", "--max-steps", "1000"], True),
        (["born", "--amplitudes", "0.5,0;0.3,0;0.2,0", "--grid-resolution", "100000",
          "--trials", "2"], False),
        (["born", "--amplitudes", "1,0;1,0", "--trials", str(2**60)], False),
        # every trial costs at least a two-state trial's setup, however short its walk
        (["born", "--amplitudes", "1,0;1,0", "--grid-resolution", "2",
          "--trials", str(10**9)], False),
        (["born", "--amplitudes", "1,0;1,0", "--grid-resolution", "2",
          "--trials", str(2 * 10**6)], True),
        # one alive state walks no step, yet each trial still costs its setup
        (["born", "--amplitudes", "1,0;0,0", "--trials", str(10**12)], False),
        (["born", "--amplitudes", "1,0;0,0", "--trials", "1000"], True),
        # a count past any float is refused, not an OverflowError
        (["born", "--amplitudes", "1,0;1,0", "--trials", str(10**400)], False),
    ],
)
def test_born_step_budget(argv, accepted, monkeypatch, capsys):
    """Runs within BORN_MAX_NS reach born_statistics (stubbed here, so
    nothing runs); the others stop with one usage-error line."""
    called = []

    def stub(state, trials, config):
        called.append(trials)
        raise collapsewalk.MaxStepsExceededError("stub")

    monkeypatch.setattr(collapsewalk.cli, "born_statistics", stub)
    code = main(argv)
    err = capsys.readouterr().err
    if accepted:
        assert (code, called) == (1, [int(argv[argv.index("--trials") + 1])])
    else:
        assert (code, called) == (2, [])
        assert err.startswith("usage error: born expects more than") and err.count("\n") == 1


_CHSH_SETTINGS = ["--settings", "0,90,45,135"]


@pytest.mark.parametrize(
    "argv, accepted",
    [
        (["bell", "--model", "image-event", "--theta-grid", "0:1048575:1",
          "--samples", str(10**15)], False),
        (["chsh", "--model", "image-event", *_CHSH_SETTINGS, "--samples", str(10**18)], False),
        (["bell", "--model", "bell-sign", "--theta-grid", "0:180:90",
          "--samples", str(2**28 // 3 + 1)], False),
        (["chsh", "--model", "bell-sign", *_CHSH_SETTINGS, "--samples", str(2**26 + 1)], False),
        (["chsh", "--model", "bell-sign", *_CHSH_SETTINGS, "--samples", str(2**26)], True),
        # the README example: 13 angles of 10**6 events
        (["bell", "--model", "image-event", "--theta-grid", "0:180:15",
          "--samples", "1000000"], True),
    ],
)
def test_bell_event_budget(argv, accepted, monkeypatch, tmp_path, capsys):
    """Sampled runs within BELL_MAX_EVENTS reach their estimator (stubbed
    here, so nothing is drawn); the others exit 2 within a second, before
    any draw, and write no result file."""
    called = []

    def stub(model, *args):
        called.append(model)
        raise collapsewalk.MaxStepsExceededError("stub")

    monkeypatch.setattr(collapsewalk.cli, "correlation_estimate", stub)
    monkeypatch.setattr(collapsewalk.cli, "chsh", stub)
    out = tmp_path / "result.csv"
    started = time.perf_counter()
    code = main(argv + ["--out", str(out)])
    elapsed = time.perf_counter() - started
    err = capsys.readouterr().err
    assert not out.exists()
    if accepted:
        assert (code, called[:1]) == (1, [argv[2]])
    else:
        assert (code, called) == (2, [])
        assert elapsed < 1.0
        assert err == (
            f"usage error: {argv[0]} would draw more than {2**28} events; lower --samples\n"
        )


@pytest.mark.parametrize("model", ["quantum", "image-analytic"])
def test_closed_form_models_take_any_sample_count(model, tmp_path):
    """The event budget binds only the models that draw."""
    out = tmp_path / "result.csv"
    assert main(["bell", "--model", model, "--theta-grid", "0:180:90",
                 "--samples", str(10**15), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4
    assert main(["chsh", "--model", model, *_CHSH_SETTINGS, "--samples", str(10**18),
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].startswith(f"{model},")


def test_manifest_round_trip_reproduces_result(tmp_path):
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


# Manifests written before they echoed only their subcommand's options: all
# nineteen keys, those of other subcommands at null or their default.
_FULL_MANIFESTS = {
    "born": (
        {
            "amplitudes": "0.6,0;0,0.8", "convention": 1, "diffusion": 1.0,
            "entropy": False, "format": "csv", "grid_resolution": 20,
            "laplace_s": 1.0, "max_steps": None, "model": None, "out": None,
            "samples": 1000000, "seed": 3, "settings": None, "subcommand": "born",
            "theta_grid": None, "threads": 1, "trials": 40, "x0": None,
            "x_grid": "0:1:0.05",
        },
        b"state,count,frequency,stderr\n"
        b"0,12,0.3,0.0724568837309472\n"
        b"1,28,0.7,0.0724568837309472\n",
    ),
    "c2": (
        {
            "amplitudes": None, "convention": 1, "diffusion": 1.0, "entropy": False,
            "format": "csv", "grid_resolution": 1000, "laplace_s": 1.0,
            "max_steps": None, "model": None, "out": None, "samples": 1000000,
            "seed": 0, "settings": None, "subcommand": "c2", "theta_grid": "0:90:45",
            "threads": 1, "trials": 100000, "x0": None, "x_grid": "0:1:0.05",
        },
        b"theta_deg,c2\n0,0\n45,0.0150565532410585\n90,0.0266781187302068\n",
    ),
}


@pytest.mark.parametrize("name", sorted(_FULL_MANIFESTS))
def test_full_manifest_replays(name, tmp_path):
    """A manifest echoing every option replays to the bytes it recorded."""
    config, expected = _FULL_MANIFESTS[name]
    out = tmp_path / "replay.csv"
    path = tmp_path / "manifest-config.json"
    path.write_text(json.dumps({**config, "out": str(out)}))
    assert main([name, "--config", str(path)]) == 0
    assert out.read_bytes() == expected


@pytest.mark.parametrize(
    "model, code", [("quantum", 2), ("nonsense", 2), (True, 2), (None, 0)]
)
def test_foreign_config_key_only_at_null_or_default(model, code, tmp_path, capsys):
    """born takes no model: a config file may name it only as null."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": model}))
    argv = ["born", "--amplitudes", "1,0;1,0", "--trials", "5", "--grid-resolution", "10"]
    assert main(argv + ["--config", str(path)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("usage error: ") and err.count("\n") == 1
    else:
        assert err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["born", "--amplitudes", "1,0;1,0", "--trials", "5", "--grid-resolution", "10"],
        ["walk", "--amplitudes", "1,0;1,0", "--grid-resolution", "6"],
        ["greens", "--x0", "0.5", "--x-grid", "0:1:0.5"],
        ["bell", "--model", "quantum", "--theta-grid", "0:90:45", "--samples", "10"],
        ["chsh", "--model", "quantum", "--settings", "0,90,45,135", "--samples", "10"],
        ["c2", "--theta-grid", "0:90:45"],
    ],
)
def test_manifest_echoes_own_options(argv, tmp_path):
    out = tmp_path / "result.csv"
    assert main(argv + ["--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "result.csv.manifest.json").read_text())
    assert set(manifest["config"]) == {"subcommand", *_options_of(argv[0])}


@pytest.mark.parametrize(
    "argv",
    [
        ["chsh", "--model", "image-event", "--settings", "0,90,45,135"],
        ["chsh", "--model", "bell-sign", "--settings", "0,90,45,135"],
        ["bell", "--model", "image-event", "--theta-grid", "0:90:45"],
    ],
)
@pytest.mark.parametrize("where", ["flag", "config"])
def test_single_sample_is_usage_error(argv, where, tmp_path, capsys):
    """One event per correlation gave stderr 0, so chsh --samples 1 read
    S = 4 with combined_stderr 0 and violated = true, exit 0."""
    if where == "flag":
        argv = argv + ["--samples", "1"]
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"samples": 1}))
        argv = argv + ["--config", str(path)]
    out = tmp_path / "result.csv"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "usage error: --samples must be at least 2\n"
    assert not out.exists()
    assert main(argv[:-2] + ["--samples", "2", "--out", str(out)]) == 0


@pytest.mark.parametrize("command", ["born", "walk"])
def test_huge_grid_resolution_one_stderr_line(command, tmp_path):
    """M = 10**20 overflowed int64 in quantize_weights, and numpy's warnings
    preceded the usage error (pytest catches warnings, hence a subprocess)."""
    proc = run_cli(
        [command, "--amplitudes", "1,0;1,0", "--grid-resolution", str(10**20)], tmp_path
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage error: ") and proc.stderr.count("\n") == 1


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


# -------------------------------------------------------------------- fuzz

def _mostly(valid, invalid):
    """Values from ``valid`` seven times in eight, else from ``invalid``."""
    return st.integers(0, 7).flatmap(lambda i: valid if i else invalid)


def _words(valid, invalid):
    return _mostly(st.sampled_from(valid), st.sampled_from(invalid))


_POSITIVE = _mostly(st.floats(0.01, 100.0), st.sampled_from([math.nan, math.inf, 0.0, -1]))
_X0 = _mostly(st.floats(0.01, 0.99), st.sampled_from([math.nan, 1.0, 1.5, 1e-320]))
_GRID = _mostly(
    st.builds(
        "{}:{}:{}".format, st.integers(0, 90), st.integers(90, 180), st.integers(20, 90)
    ),
    st.sampled_from(
        ["0:270:90", "nan:nan:1", "0:90:0", "0:180:1e-13", "1:0:1", "abc", "-1e308:1e308:1"]
    ),
)
_UNIT_GRID = _words(
    ["0:1:0.5", "0:1:0.05", "0.2:0.8:0.3"], ["-0.5:1:0.5", "0:1.5:0.5", "0:1:1e-14", "0:1"]
)
_AMPLITUDES = _words(
    ["1,0;1,0", "0.6,0;0,0.8", "0.5,0;0.3,0;0.2,0", "1,0;0,1;1,1;0.1,0", "1,0;1e-200,0",
     "1e200,0;1e200,0"],
    ["1,0", "0,0;0,0", "nan,0;1,0", "inf,0;1,0", "abc", "1;0"],
)
_SETTINGS = _words(
    ["0,90,45,135", "0,45,22.5,67.5", "10,20,30,40", "1e300,0,0,0"],
    ["0,90,45", "0,nan,45,135", "0,90,inf,135", "a,b,c,d"],
)
_MODEL = _words(list(collapsewalk.cli.MODEL_TAGS), ["nonsense"])
_SEED = _mostly(st.integers(0, 40), st.sampled_from([-1, 2**64 - 1, 2**64]))
_FORMAT = _words(["csv", "json"], ["xml"])
_CONVENTION = _words([1, -1], [0, 5])
_THREADS = _mostly(st.integers(1, 4), st.just(0))
_MAX_STEPS = _mostly(st.integers(1, 3000), st.sampled_from([0, 2**70]))
_TRIALS = _mostly(st.integers(1, 30), st.just(0))
_SAMPLES = _mostly(st.integers(1, 3000), st.just(-1))
_RESOLUTION = _mostly(st.integers(2, 60), st.sampled_from([0, 1, 2**53 + 1, 10**20]))

# flags every run of a subcommand carries: its required ones, and sizes, so
# that no large default applies
_REQUIRED_FLAGS = {
    "born": {
        "--amplitudes": _AMPLITUDES, "--trials": _TRIALS, "--grid-resolution": _RESOLUTION
    },
    "walk": {  # 100000 is over the trajectory row budget
        "--amplitudes": _AMPLITUDES,
        "--grid-resolution": _mostly(_RESOLUTION, st.just(100_000)),
    },
    "greens": {"--x0": _X0},
    "bell": {"--model": _MODEL, "--theta-grid": _GRID, "--samples": _SAMPLES},
    "chsh": {"--model": _MODEL, "--settings": _SETTINGS, "--samples": _SAMPLES},
    "c2": {"--theta-grid": _GRID},
}
# flag -> strategy of its value (None for a switch)
_OPTIONAL_FLAGS = {
    "--seed": _mostly(_SEED, st.sampled_from(["1.5", "x"])),
    "--entropy": st.none(),
    "--format": _FORMAT,
    "--threads": _THREADS,
}
_MORE_FLAGS = {
    "born": {"--max-steps": _MAX_STEPS},
    "walk": {"--max-steps": _MAX_STEPS},
    "greens": {"--diffusion": _POSITIVE, "--laplace-s": _POSITIVE, "--x-grid": _UNIT_GRID},
    "bell": {"--convention": _CONVENTION},
    "chsh": {"--convention": _CONVENTION},
    "c2": {},
}
# config-file values of each option: the flag's own values
_CONFIG_KEYS = {
    "seed": _SEED, "entropy": st.booleans(), "format": _FORMAT, "threads": _THREADS,
    "trials": _TRIALS, "samples": _SAMPLES, "grid_resolution": _RESOLUTION,
    "max_steps": _MAX_STEPS, "amplitudes": _AMPLITUDES, "model": _MODEL,
    "settings": _SETTINGS, "theta_grid": _GRID, "x0": _X0, "diffusion": _POSITIVE,
    "laplace_s": _POSITIVE, "x_grid": _UNIT_GRID, "convention": _CONVENTION,
}


def _config_values(command):
    """A config file of the subcommand's own options (the test sets out), at
    times with one bad entry: an own key of a wrong type, the subcommand key,
    an unknown key, or a key of another subcommand."""
    own = [name for name in _options_of(command) if name != "out"]
    foreign = [name for name, opt in _OPTIONS.items() if command not in opt.takes]
    bad_entry = st.dictionaries(
        st.sampled_from([*own, "subcommand", "trils"]),
        st.sampled_from(["abc", 1.5, True, None, [1]]),
        min_size=1,
        max_size=1,
    ) | st.sampled_from(foreign).flatmap(
        lambda key: _CONFIG_KEYS[key].map(lambda value: {key: value})
    )
    return st.builds(
        lambda values, bad: {**values, **bad},
        st.fixed_dictionaries({}, optional={name: _CONFIG_KEYS[name] for name in own}),
        _mostly(st.just({}), bad_entry),
    )


@st.composite
def _cli_run(draw):
    """argv of one run and its config file: None, a dict or broken JSON."""
    command = draw(st.sampled_from(sorted(_REQUIRED_FLAGS)))
    optional = {**_OPTIONAL_FLAGS, **_MORE_FLAGS[command]}
    values = draw(st.fixed_dictionaries(_REQUIRED_FLAGS[command], optional=optional))
    argv = [command] + [
        flag if value is None else f"{flag}={value}" for flag, value in values.items()
    ]
    config = draw(
        _mostly(st.none() | _config_values(command), st.sampled_from(["{", "[]"]))
    )
    return argv, config


_PEAK_BUDGET = 8 << 20  # bytes of traced Python and numpy allocations per run


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(run=_cli_run(), out=st.booleans())
@example(
    run=(["walk", "--amplitudes", "1,0;1,0", "--grid-resolution", "100", "--max-steps", "10"],
         None),
    out=True,
)
@example(
    run=(["bell", "--model", "quantum", "--theta-grid", "0:90:45", "--seed=-1"], None),
    out=True,
)
@example(
    run=(["chsh", "--model", "quantum", "--settings", "0,90,45,135", "--seed=-1"], None),
    out=True,
)
@example(
    run=(
        ["bell", "--model", "quantum", "--theta-grid", "0:90:45", "--seed", str(2**64)],
        None,
    ),
    out=True,
)
@example(
    run=(
        ["chsh", "--model", "image-event", "--settings", "0,90,45,135", "--samples=4000"],
        None,
    ),
    out=True,
)
@example(
    run=(["walk", "--amplitudes", "1,0;1,0", "--grid-resolution", "100000"], None),
    out=True,
)
@example(
    run=(
        ["born", "--amplitudes", "nan,0;1,0", "--trials", "5", "--grid-resolution", "10"],
        None,
    ),
    out=True,
)
@example(
    run=(["walk", "--amplitudes", "nan,0;1,0", "--grid-resolution", "10"], None),
    out=True,
)
@example(
    run=(["walk", "--amplitudes", "1e200,0;1e200,0", "--grid-resolution", "10"], None),
    out=False,
)
@example(run=(["born", "--amplitudes", "1,0;0,1"], {"trials": "abc"}), out=True)
@example(run=(["born", "--amplitudes", "1,0;1,0", "--trials", str(10**400)], None), out=True)
@example(
    run=(
        ["born", "--amplitudes", "0.5,0;0.3,0;0.2,0", "--grid-resolution", "100000",
         "--trials", "2"],
        None,
    ),
    out=True,
)
@example(
    run=(["chsh", "--model", "bell-sign", "--settings", "0,90,45,135"], {"samples": "abc"}),
    out=True,
)
def test_cli_fuzz_exit_contract(run, out):
    """Over the flag grammar and config-file values: no exception escapes;
    the exit code is 0 with nothing on stderr, 1 with one error line or 2
    with one usage-error line and no file written; a run with --out writes
    its manifest (exit 1 included), and an image-event run's manifest
    carries the acceptance rates; the traced allocation peak stays within
    budget.  The parser of argv's subcommand alone parses argv as the parser
    of all six does."""
    argv, config = run
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(argv)
        if config is not None:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(config if isinstance(config, str) else json.dumps(config))
            argv += ["--config", path]
        result = os.path.join(tmp, "result")
        if out:
            argv += ["--out", result]
        assert_parses_as_full_parser(argv)
        stdout, stderr = io.StringIO(), io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = stderr.getvalue()
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert peak < _PEAK_BUDGET, peak
        manifest_path = result + ".manifest.json"
        prefix = {0: "", 1: "error: ", 2: "usage error: "}[code]
        assert err.startswith(prefix) and err.count("\n") == (code > 0), err
        if code == 2:
            assert not os.path.exists(result) and not os.path.exists(manifest_path)
            return
        if not out:
            return
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert (manifest["error"] is None) == (code == 0)
        resolved = manifest["config"]
        if code == 0 and resolved["subcommand"] in ("bell", "chsh") and (
            resolved["model"] == "image-event"
        ):
            rates = manifest["diagnostics"]["acceptance_rate"]
            assert 0.0 <= rates["min"] <= rates["mean"] <= rates["max"] <= 1.0
