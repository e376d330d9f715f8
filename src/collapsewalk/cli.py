"""Reproducible experiment runner.

Subcommands: born, walk, greens, bell, chsh, c2.  Every run resolves a full
configuration (flags override an optional JSON config file, which overrides
defaults), executes with explicitly seeded RNG streams, and writes the
result as CSV or JSON plus a manifest echoing the resolved configuration.
Re-running the echoed configuration reproduces the result file byte for byte.

CSV carries one header row, '.' decimals and 15 significant digits; angles
are accepted in degrees and converted to radians internally.  Seed 0 is a
valid seed; --entropy asks the OS for one and records the drawn value in
the manifest.  --threads (config key ``threads``) and the
COLLAPSE_WALK_THREADS environment variable are still accepted, and
--threads is recorded in the manifest, but every run uses one thread.
Exit codes: 0 success, 1 numerical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import typing
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .analytic import DiffusionParams, greens_tilde
from .bell import (
    MODEL_TAGS,
    DetectorSetting,
    _image_event_estimate,
    chsh,
    correlation_estimate,
    solve_c2,
)
from .errors import AllZeroError, CollapseWalkError, TooFewStatesError, UsageError
from .states import form_joint, normalize, parse_amplitudes
from .walk import WalkConfig, born_statistics, run_walk


@dataclass
class RunConfig:
    """Fully resolved parameters of one experiment run."""

    subcommand: str
    seed: int = 0
    entropy: bool = False
    trials: int = 100_000
    samples: int = 1_000_000
    grid_resolution: int = 1000
    max_steps: int | None = None
    threads: int = 1
    amplitudes: str | None = None
    model: str | None = None
    settings: str | None = None
    theta_grid: str | None = None
    x0: float | None = None
    diffusion: float = 1.0
    laplace_s: float = 1.0
    x_grid: str = "0:1:0.05"
    convention: int = 1
    out: str | None = None
    format: str = "csv"


_DEFAULTS = RunConfig(subcommand="")

# Allowed values of the options that have a fixed set; the parser's flags and
# the config file's values are both checked against them.
_CHOICES = {
    "format": ("csv", "json"),
    "model": MODEL_TAGS,
    "convention": (1, -1),
}

# Which JSON values a config file may give a RunConfig field of each type: an
# int field takes no bool or float, a float field also takes an int, and an
# "X | None" field also takes null (manifests record unset options as null).
_ACCEPTS = {
    int: lambda v: isinstance(v, int) and not isinstance(v, bool),
    float: lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    bool: lambda v: isinstance(v, bool),
    str: lambda v: isinstance(v, str),
    type(None): lambda v: v is None,
}
_FIELD_TYPES = {
    name: typing.get_args(hint) or (hint,)
    for name, hint in typing.get_type_hints(RunConfig).items()
}

_REQUIRED = {
    "born": ("amplitudes",),
    "walk": ("amplitudes",),
    "greens": ("x0",),
    "bell": ("model", "theta_grid"),
    "chsh": ("model", "settings"),
    "c2": ("theta_grid",),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collapsewalk",
        description="First-passage walk and Bell-correlation experiment runner",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (0 is valid)")
        p.add_argument(
            "--entropy",
            action="store_true",
            default=None,
            help="draw the seed from the OS and record it in the manifest",
        )
        p.add_argument("--out", default=None, help="result file (stdout if omitted)")
        p.add_argument("--format", choices=_CHOICES["format"], default=None)
        p.add_argument(
            "--threads", type=int, default=None,
            help="accepted and recorded only; every run uses one thread",
        )

    p = sub.add_parser("born", help="winner frequencies over many walks")
    common(p)
    p.add_argument("--amplitudes", help="semicolon-separated re,im pairs")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--grid-resolution", type=int, default=None, dest="grid_resolution")
    p.add_argument("--max-steps", type=int, default=None, dest="max_steps")

    p = sub.add_parser("walk", help="single walk trajectory dump")
    common(p)
    p.add_argument("--amplitudes")
    p.add_argument("--grid-resolution", type=int, default=None, dest="grid_resolution")
    p.add_argument("--max-steps", type=int, default=None, dest="max_steps")

    p = sub.add_parser("greens", help="Laplace-domain profile over an x grid")
    common(p)
    p.add_argument("--x0", type=float, default=None, help="source point in (0, 1)")
    p.add_argument("--diffusion", type=float, default=None)
    p.add_argument("--laplace-s", type=float, default=None, dest="laplace_s")
    p.add_argument("--x-grid", default=None, dest="x_grid", help="start:stop:step")

    p = sub.add_parser("bell", help="correlation curve over a theta grid")
    common(p)
    p.add_argument("--model", choices=_CHOICES["model"], default=None)
    p.add_argument(
        "--theta-grid", default=None, dest="theta_grid", help="degrees start:stop:step"
    )
    p.add_argument("--samples", type=int, default=None)
    p.add_argument(
        "--convention", type=int, choices=_CHOICES["convention"], default=None
    )

    p = sub.add_parser("chsh", help="four-setting inequality report")
    common(p)
    p.add_argument("--model", choices=_CHOICES["model"], default=None)
    p.add_argument(
        "--settings", default=None, help="coplanar degrees a,a',b,b' e.g. 0,90,45,135"
    )
    p.add_argument("--samples", type=int, default=None)
    p.add_argument(
        "--convention", type=int, choices=_CHOICES["convention"], default=None
    )

    p = sub.add_parser("c2", help="branch normalization constant over a theta grid")
    common(p)
    p.add_argument(
        "--theta-grid", default=None, dest="theta_grid", help="degrees start:stop:step"
    )
    return parser


def parse_config(argv) -> RunConfig:
    """Resolve a RunConfig from argv and an optional JSON config file."""
    args = _build_parser().parse_args(argv)
    values = {"subcommand": args.subcommand}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise UsageError("config file must hold a JSON object")
        for key, val in file_values.items():
            if key == "subcommand":
                if val != args.subcommand:
                    raise UsageError(
                        f"config file is for subcommand {val!r}, not {args.subcommand!r}"
                    )
                continue
            if not hasattr(_DEFAULTS, key):
                raise UsageError(f"unknown config key {key!r}")
            if not any(_ACCEPTS[t](val) for t in _FIELD_TYPES[key]):
                kinds = " or ".join(
                    "null" if t is type(None) else t.__name__ for t in _FIELD_TYPES[key]
                )
                raise UsageError(f"config value {key} = {val!r} is not {kinds}")
            if key in _CHOICES and val is not None and val not in _CHOICES[key]:
                raise UsageError(
                    f"config value {key} = {val!r} is not one of {_CHOICES[key]!r}"
                )
            values[key] = val
    for key in vars(args):
        if key in ("config", "subcommand"):
            continue
        flag_value = getattr(args, key)
        if flag_value is not None:
            values[key] = flag_value
    config = RunConfig(**{**asdict(_DEFAULTS), **values})
    for name in _REQUIRED[config.subcommand]:
        if getattr(config, name) is None:
            raise UsageError(
                f"--{name.replace('_', '-')} is required for {config.subcommand}"
            )
    for name in ("trials", "samples", "grid_resolution", "threads"):
        if getattr(config, name) < 1:
            raise UsageError(f"--{name.replace('_', '-')} must be positive")
    if config.max_steps is not None and config.max_steps < 1:
        raise UsageError("--max-steps must be positive")
    return config


def _parse_grid(spec: str, name: str) -> np.ndarray:
    try:
        start, stop, step = (float(v) for v in spec.split(":"))
    except ValueError as exc:
        raise UsageError(f"--{name} must look like start:stop:step") from exc
    if step <= 0 or stop < start:
        raise UsageError(f"--{name} needs step > 0 and stop >= start")
    count = int(round((stop - start) / step)) + 1
    return start + step * np.arange(count)


def _parse_settings(spec: str) -> tuple[DetectorSetting, ...]:
    try:
        degs = [float(v) for v in spec.split(",")]
    except ValueError as exc:
        raise UsageError("--settings must be comma-separated degrees") from exc
    if len(degs) != 4:
        raise UsageError("--settings needs exactly four angles: a,a',b,b'")
    return tuple(DetectorSetting.from_plane_angle_degrees(d) for d in degs)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.15g}"
    return str(value)


def _emit(config: RunConfig, header, rows, json_obj) -> None:
    if config.format == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(json_obj, indent=2, sort_keys=True) + "\n"
    if config.out is None:
        sys.stdout.write(text)
    else:
        with open(config.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _rows_to_json(header, rows):
    return [
        {k: (float(v) if isinstance(v, (float, np.floating)) else v)
         for k, v in zip(header, row)}
        for row in rows
    ]


def _walk_inputs(config: RunConfig):
    """State and WalkConfig of a born or walk run; bad input is a UsageError."""
    try:
        state = normalize(parse_amplitudes(config.amplitudes))
        walk_config = WalkConfig(
            grid_resolution=config.grid_resolution,
            max_steps=config.max_steps,
            seed=config.seed,
        )
    except (ValueError, TooFewStatesError, AllZeroError) as exc:
        raise UsageError(str(exc)) from exc
    return state, walk_config


def _run_born(config: RunConfig, diagnostics: dict):
    state, walk_config = _walk_inputs(config)
    stats = born_statistics(state, config.trials, walk_config)
    diagnostics["excluded_trials"] = stats.excluded
    diagnostics["mean_steps"] = stats.mean_steps
    diagnostics["steps_stderr"] = (
        stats.steps_stderr if math.isfinite(stats.steps_stderr) else None
    )
    diagnostics["expected_steps"] = stats.expected_steps
    header = ("state", "count", "frequency", "stderr")
    rows = [
        (i, int(stats.winner_counts[i]), float(stats.frequencies[i]), float(stats.stderr[i]))
        for i in range(stats.winner_counts.size)
    ]
    return header, rows, {
        "trials": stats.trials,
        "excluded": stats.excluded,
        "rows": _rows_to_json(header, rows),
    }


def _run_walk(config: RunConfig, diagnostics: dict):
    state, walk_config = _walk_inputs(config)
    joint = form_joint(state)
    trajectory = []

    def observer(step, snapshot):
        trajectory.append((step, tuple(float(w) for w in snapshot.weights)))

    outcome = run_walk(joint, walk_config, observer=observer)
    diagnostics["winner"] = outcome.winner
    diagnostics["steps_taken"] = outcome.steps_taken
    header = ("step",) + tuple(f"w{i}" for i in range(state.n))
    rows = [(step,) + weights for step, weights in trajectory]
    return header, rows, {
        "winner": outcome.winner,
        "steps_taken": outcome.steps_taken,
        "elimination_order": [list(e) for e in outcome.elimination_order],
        "trajectory": _rows_to_json(header, rows),
    }


def _run_greens(config: RunConfig, diagnostics: dict):
    try:
        params = DiffusionParams(x0=config.x0, diffusion=config.diffusion)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if not config.laplace_s > 0.0:
        raise UsageError("--laplace-s must be positive")
    xs = np.clip(_parse_grid(config.x_grid, "x-grid"), 0.0, 1.0)
    values = greens_tilde(xs, config.laplace_s, params)
    header = ("x", "value")
    rows = [(float(x), float(v)) for x, v in zip(xs, values)]
    return header, rows, {"laplace_s": config.laplace_s, "rows": _rows_to_json(header, rows)}


def _run_bell(config: RunConfig, diagnostics: dict):
    thetas = _parse_grid(config.theta_grid, "theta-grid")
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    streams = rng.spawn(len(thetas))
    header = ("theta_deg", "value", "stderr", "n", "model")
    rows = []
    rates = []
    a = DetectorSetting.from_plane_angle_degrees(0.0)
    for theta_deg, stream in zip(thetas, streams):
        b = DetectorSetting.from_plane_angle_degrees(float(theta_deg))
        if config.model == "image-event":
            est, rate = _image_event_estimate(
                a, b, config.samples, stream, config.convention
            )
            rates.append(rate)
        else:
            est = correlation_estimate(
                config.model, a, b, config.samples, stream, config.convention
            )
        rows.append((float(theta_deg), est.value, est.stderr, est.n, est.model))
    if rates:
        diagnostics["acceptance_rate"] = {
            "min": min(rates), "max": max(rates), "mean": sum(rates) / len(rates)
        }
    return header, rows, {"rows": _rows_to_json(header, rows)}


def _run_chsh(config: RunConfig, diagnostics: dict):
    a, a_alt, b, b_alt = _parse_settings(config.settings)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    report = chsh(
        config.model, a, a_alt, b, b_alt, config.samples, rng, config.convention
    )
    header = ("model", "S", "bound", "combined_stderr", "violated", "settings_deg")
    row = (
        report.model,
        report.chsh_s,
        report.chsh_bound,
        report.chsh_stderr,
        bool(report.chsh_violated),
        config.settings.replace(",", ";"),
    )
    return header, [row], {
        "model": report.model,
        "S": report.chsh_s,
        "bound": report.chsh_bound,
        "combined_stderr": report.chsh_stderr,
        "violated": bool(report.chsh_violated),
        "settings_deg": [float(v) for v in config.settings.split(",")],
    }


def _run_c2(config: RunConfig, diagnostics: dict):
    thetas = _parse_grid(config.theta_grid, "theta-grid")
    header = ("theta_deg", "c2")
    rows = []
    worst = 0.0
    for theta_deg in thetas:
        consts = solve_c2(math.radians(float(theta_deg)))
        worst = max(worst, consts.residual)
        rows.append((float(theta_deg), consts.c2))
    diagnostics["max_normalization_residual"] = worst
    return header, rows, {"rows": _rows_to_json(header, rows)}


_RUNNERS = {
    "born": _run_born,
    "walk": _run_walk,
    "greens": _run_greens,
    "bell": _run_bell,
    "chsh": _run_chsh,
    "c2": _run_c2,
}


def execute(config: RunConfig) -> int:
    """Run one experiment, write result and manifest, return the exit code."""
    if config.entropy:
        config.seed = int.from_bytes(os.urandom(8), "little")
        config.entropy = False
    diagnostics: dict = {}
    started = time.perf_counter()
    error = None
    code = 0
    try:
        header, rows, json_obj = _RUNNERS[config.subcommand](config, diagnostics)
        _emit(config, header, rows, json_obj)
    except CollapseWalkError as exc:
        if isinstance(exc, UsageError):
            raise
        error = f"{type(exc).__name__}: {exc}"
        print(f"error: {error}", file=sys.stderr)
        code = 1
    duration = time.perf_counter() - started
    if config.out is not None:
        manifest = {
            "version": __version__,
            "config": asdict(config),
            "duration_s": duration,
            "diagnostics": diagnostics,
            "error": error,
        }
        with open(config.out + ".manifest.json", "w", encoding="utf-8", newline="\n") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return code


def main(argv=None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
        return execute(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
