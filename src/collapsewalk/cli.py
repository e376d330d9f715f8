"""Reproducible experiment runner.

Subcommands: born, walk, greens, bell, chsh, c2.  Every run resolves a full
configuration (flags override an optional JSON config file, which overrides
defaults), executes with explicitly seeded RNG streams, and writes the
result as CSV or JSON plus a manifest echoing the resolved options of its
subcommand.  Re-running the echoed configuration reproduces the result file
byte for byte.  Each option is described once, in _OPTIONS; the flags, the
config-file checks, RunConfig and the manifest are built from that table.  A
run builds the argument parser of its own subcommand alone; help, a missing
or unknown subcommand and a flag before the subcommand get the parser of all
six.  A config key of another subcommand is a usage error unless it holds
null or its default, so a manifest that echoes every option still replays.

Each runner hands its result to _emit as columns; CSV is formatted column by
column (one header row, '.' decimals, floats to 15 significant digits) and
JSON rows are built only for JSON output.  Angles are accepted in degrees and
converted to radians internally.  Seeds lie in [0, 2**64), 0 included;
--entropy asks the OS for one and records the drawn value in the manifest.
The grid resolution M of born and walk is at most 2**53, as float64 holds
every integer only up to there.  A walk run of N states buffers at most
2 WALK_MAX_ROWS // N rows, a born run may expect at most BORN_MAX_STEPS walk
steps, each trial counting at least BORN_TRIAL_STEPS, and a bell or chsh run
of a sampled model draws at most BELL_MAX_EVENTS events.
--threads (config key ``threads``) and the COLLAPSE_WALK_THREADS
environment variable are still accepted, and --threads is recorded in the
manifest, but they change nothing: every run uses one thread, and a large
born batch or image-event correlation runs half its work in a forked helper
process whatever they say.
Exit codes: 0 success, 1 numerical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, make_dataclass, replace

import numpy as np

from . import __version__
from .analytic import DiffusionParams, greens_tilde
from .bell import MODEL_TAGS, SAMPLED_MODELS, DetectorSetting, chsh, correlation_estimate, solve_c2
from .errors import (
    AllZeroError, CollapseWalkError, DegenerateGridError, TooFewStatesError, UsageError
)
from .states import normalize, parse_amplitudes
from .walk import WalkConfig, _expected_steps, _walk_counts, _zeroed_message
from .walk import born_statistics, quantize_weights


GRID_MAX_POINTS = 1 << 20  # largest start:stop:step grid a run accepts
WALK_MAX_ROWS = 1 << 18  # longest two-state trajectory a walk run buffers
# most expected walk steps of one born run, tens of seconds on a 2-vCPU VM; a
# step of a two-state walk counts 1/64, as its kernel reads 64 steps per word
BORN_MAX_STEPS = 1 << 30
# least a trial counts against BORN_MAX_STEPS: a trial's fixed cost, about
# 10 µs, whatever its walk
BORN_TRIAL_STEPS = 1 << 9
# most events a bell or chsh run of a sampled model draws, tens of seconds at
# about 133 ns an image event
BELL_MAX_EVENTS = 1 << 28


_SUBCOMMANDS = {
    "born": "winner frequencies over many walks",
    "walk": "single walk trajectory dump",
    "greens": "Laplace-domain profile over an x grid",
    "bell": "correlation curve over a theta grid",
    "chsh": "four-setting inequality report",
    "c2": "branch normalization constant over a theta grid",
}
_ALL = tuple(_SUBCOMMANDS)


@dataclass(frozen=True)
class _Option:
    """One option of the table below: its JSON and argparse type, default,
    the subcommands that take it, whether those require it, its allowed
    values, the least value it takes, and its help text.  An option
    whose default is None also takes null from a config file."""

    kind: type
    default: object
    takes: tuple[str, ...]
    required: bool = False
    choices: tuple | None = None
    minimum: int | None = None
    help: str | None = None


# Every option, keyed by its config key; its flag is --key with dashes.
_OPTIONS = {
    "seed": _Option(int, 0, _ALL, help="RNG seed in [0, 2**64), 0 included"),
    "entropy": _Option(
        bool, False, _ALL, help="draw the seed from the OS and record it in the manifest"
    ),
    "out": _Option(str, None, _ALL, help="result file (stdout if omitted)"),
    "format": _Option(str, "csv", _ALL, choices=("csv", "json")),
    "threads": _Option(
        int, 1, _ALL, minimum=1,
        help="accepted and recorded only; every run uses one thread",
    ),
    "amplitudes": _Option(
        str, None, ("born", "walk"), required=True, help="semicolon-separated re,im pairs"
    ),
    "trials": _Option(int, 100_000, ("born",), minimum=1),
    "grid_resolution": _Option(
        int, 1000, ("born", "walk"), minimum=1, help="grid size M, at most 2**53"
    ),
    "max_steps": _Option(int, None, ("born", "walk"), minimum=1),
    "x0": _Option(float, None, ("greens",), required=True, help="source point in (0, 1)"),
    "diffusion": _Option(float, 1.0, ("greens",)),
    "laplace_s": _Option(float, 1.0, ("greens",)),
    "x_grid": _Option(str, "0:1:0.05", ("greens",), help="start:stop:step"),
    "model": _Option(str, None, ("bell", "chsh"), required=True, choices=MODEL_TAGS),
    "theta_grid": _Option(
        str, None, ("bell", "c2"), required=True, help="degrees start:stop:step"
    ),
    "settings": _Option(
        str, None, ("chsh",), required=True,
        help="coplanar degrees a,a',b,b' e.g. 0,90,45,135",
    ),
    "samples": _Option(int, 1_000_000, ("bell", "chsh"), minimum=2),
    "convention": _Option(int, 1, ("bell", "chsh"), choices=(1, -1)),
}

RunConfig = make_dataclass(
    "RunConfig",
    [("subcommand", str)]
    + [(name, opt.kind, field(default=opt.default)) for name, opt in _OPTIONS.items()],
    namespace={"__doc__": "Fully resolved parameters of one experiment run."},
)

# Which JSON values a config file may give an option of each kind: an int
# option takes no bool or float, and a float option also takes an int.
_ACCEPTS = {
    int: lambda v: isinstance(v, int) and not isinstance(v, bool),
    float: lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    bool: lambda v: isinstance(v, bool),
    str: lambda v: isinstance(v, str),
}


def _options_of(subcommand: str) -> list[str]:
    return [name for name, opt in _OPTIONS.items() if subcommand in opt.takes]


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors are usage errors (one line, exit 2);
    its subcommand parsers inherit the class."""

    def error(self, message):
        raise UsageError(message)


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser for ``argv``: with the subparser of argv[0] alone when it
    names a subcommand, else with all six, for help and usage errors."""
    parser = _Parser(
        prog="collapsewalk",
        description="First-passage walk and Bell-correlation experiment runner",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    names = argv[:1] if argv and argv[0] in _SUBCOMMANDS else _SUBCOMMANDS
    for subcommand in names:
        p = sub.add_parser(subcommand, help=_SUBCOMMANDS[subcommand])
        p.add_argument("--config", help="JSON config file; flags override it")
        for name in _options_of(subcommand):
            opt = _OPTIONS[name]
            if opt.kind is bool:
                p.add_argument(_flag(name), action="store_true", default=None, help=opt.help)
            else:
                p.add_argument(
                    _flag(name), type=opt.kind, choices=opt.choices, default=None,
                    help=opt.help,
                )
    return parser


def _read_config_file(path: str, subcommand: str) -> dict:
    """The options a JSON config file sets for ``subcommand``.  A key of
    another subcommand is accepted, and ignored, only at null or its default,
    so every manifest replays."""
    try:
        with open(path, encoding="utf-8") as fh:
            file_values = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(file_values, dict):
        raise UsageError("config file must hold a JSON object")
    values = {}
    for key, val in file_values.items():
        if key == "subcommand":
            if val != subcommand:
                raise UsageError(
                    f"config file is for subcommand {val!r}, not {subcommand!r}"
                )
            continue
        opt = _OPTIONS.get(key)
        if opt is None:
            raise UsageError(f"unknown config key {key!r}")
        accepted = _ACCEPTS[opt.kind](val)
        if subcommand not in opt.takes:
            if val is None or (accepted and val == opt.default):
                continue
            raise UsageError(f"config key {key!r} does not apply to {subcommand}")
        if not (accepted or (val is None and opt.default is None)):
            kinds = opt.kind.__name__ + (" or null" if opt.default is None else "")
            raise UsageError(f"config value {key} = {val!r} is not {kinds}")
        if opt.choices and val is not None and val not in opt.choices:
            raise UsageError(f"config value {key} = {val!r} is not one of {opt.choices!r}")
        values[key] = val
    return values


def parse_config(argv) -> RunConfig:
    """Resolve a RunConfig from argv and an optional JSON config file."""
    args = vars(_build_parser(argv).parse_args(argv))
    subcommand, path = args.pop("subcommand"), args.pop("config")
    values = _read_config_file(path, subcommand) if path else {}
    values.update((key, val) for key, val in args.items() if val is not None)
    config = RunConfig(subcommand=subcommand, **values)
    for name in _options_of(subcommand):
        opt, value = _OPTIONS[name], getattr(config, name)
        if opt.required and value is None:
            raise UsageError(f"{_flag(name)} is required for {subcommand}")
        if opt.minimum is not None and value is not None and value < opt.minimum:
            raise UsageError(f"{_flag(name)} must be at least {opt.minimum}")
    if not 0 <= config.seed < 2**64:
        raise UsageError("--seed must lie in [0, 2**64)")
    return config


def _parse_grid(
    spec: str, name: str, lo: float = -math.inf, hi: float = math.inf
) -> np.ndarray:
    """Points start, start + step, ... up to stop, all within [lo, hi]."""
    try:
        start, stop, step = (float(v) for v in spec.split(":"))
    except ValueError as exc:
        raise UsageError(f"--{name} must look like start:stop:step") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise UsageError(f"--{name} needs finite start, stop and step")
    if step <= 0 or stop < start:
        raise UsageError(f"--{name} needs step > 0 and stop >= start")
    intervals = (stop - start) / step  # inf when the span overflows
    if intervals >= GRID_MAX_POINTS:
        raise UsageError(f"--{name} has more than {GRID_MAX_POINTS} points")
    # no point past stop, but a quotient like 0.3 / 0.1 = 2.9999999999999996
    # still counts its last interval
    grid = start + step * np.arange(math.floor(intervals * (1.0 + 1e-9)) + 1)
    if grid[0] < lo or grid[-1] > hi + 1e-9 * max(1.0, abs(hi)):
        raise UsageError(f"--{name} must lie within [{lo:g}, {hi:g}]")
    return np.minimum(grid, hi)  # absorbs rounding of the last point


def _parse_settings(spec: str) -> list[float]:
    """The four angles a, a', b, b' of ``--settings``, in degrees."""
    try:
        degs = [float(v) for v in spec.split(",")]
    except ValueError as exc:
        raise UsageError("--settings must be comma-separated degrees") from exc
    if not all(map(math.isfinite, degs)):
        raise UsageError("--settings needs finite angles")
    if len(degs) != 4:
        raise UsageError("--settings needs exactly four angles: a,a',b,b'")
    return degs


def _csv_cells(values: list) -> list[str]:
    """One column's CSV cells, by the type of its first value: floats to 15
    significant digits, bools as true/false, anything else through str."""
    if isinstance(values[0], float):
        return [f"{v:.15g}" for v in values]
    if isinstance(values[0], bool):
        return ["true" if v else "false" for v in values]
    return [str(v) for v in values]


def _emit(config: RunConfig, columns: dict, fields: dict, key: str | None) -> None:
    """Write a runner's result.  ``columns`` maps each header to its column,
    a numpy array, range or list; JSON holds ``fields`` and the rows under
    ``key``, or, with ``key`` None, the one row with ``fields`` over it."""
    values = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns.values()]
    if config.format == "csv":
        rows = zip(*map(_csv_cells, values))
        text = "\n".join(map(",".join, [columns, *rows])) + "\n"
    else:
        rows = [dict(zip(columns, row)) for row in zip(*values)]
        obj = {**rows[0], **fields} if key is None else {**fields, key: rows}
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if config.out is None:
        sys.stdout.write(text)
    else:
        with open(config.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _walk_inputs(config: RunConfig):
    """State, WalkConfig and grid counts k0 of a born or walk run; bad input,
    a grid that quantizes a positive weight to zero included, is a
    UsageError."""
    try:
        state = normalize(parse_amplitudes(config.amplitudes))
        walk_config = WalkConfig(
            grid_resolution=config.grid_resolution,
            max_steps=config.max_steps,
            seed=config.seed,
        )
        weights = state.weights()
        k0 = quantize_weights(weights, walk_config.grid_resolution)
    except (ValueError, TooFewStatesError, AllZeroError, DegenerateGridError) as exc:
        raise UsageError(str(exc)) from exc
    # quantize_weights refuses this only at M < 10 N; the run refuses it at any M
    if zeroed := _zeroed_message(weights, k0, walk_config.grid_resolution):
        raise UsageError(zeroed)
    return state, walk_config, k0


def _run_born(config: RunConfig, diagnostics: dict):
    state, walk_config, k0 = _walk_inputs(config)
    # E[min(T, cap)] <= min(E[T], cap) per trial
    steps = min(_expected_steps(k0), walk_config.max_steps)
    if np.count_nonzero(k0) <= 2:
        steps /= 64
    if config.trials * max(steps, BORN_TRIAL_STEPS) > BORN_MAX_STEPS:
        raise UsageError(
            f"born expects more than {BORN_MAX_STEPS} walk steps; "
            "lower --trials or --grid-resolution"
        )
    stats = born_statistics(state, config.trials, walk_config)
    diagnostics["excluded_trials"] = stats.excluded
    diagnostics["mean_steps"] = stats.mean_steps
    diagnostics["steps_stderr"] = (
        stats.steps_stderr if math.isfinite(stats.steps_stderr) else None
    )
    diagnostics["expected_steps"] = stats.expected_steps
    columns = {
        "state": range(stats.winner_counts.size),
        "count": stats.winner_counts,
        "frequency": stats.frequencies,
        "stderr": stats.stderr,
    }
    return columns, {"trials": stats.trials, "excluded": stats.excluded}, "rows"


def _run_walk(config: RunConfig, diagnostics: dict):
    _, walk_config, k0 = _walk_inputs(config)
    # cells, not rows: N states take 2 WALK_MAX_ROWS // N rows of N counts
    limit = 2 * WALK_MAX_ROWS // k0.size
    # E[T] steps, plus the row of step 0
    if _expected_steps(k0) + 1 > limit:
        raise UsageError(
            f"walk of {k0.size} states expects more than {limit} trajectory rows; "
            "lower --grid-resolution"
        )
    walk_config = replace(walk_config, max_steps=min(walk_config.max_steps, limit - 1))
    blocks = []
    outcome = _walk_counts(k0, walk_config, visit=lambda first, block: blocks.append(block))
    diagnostics.update(winner=outcome.winner, steps_taken=outcome.steps_taken)
    # k / M exactly as Python divides it: both convert exactly for M <= 2**53
    weights = np.concatenate(blocks) / walk_config.grid_resolution
    columns = {"step": range(len(weights))}
    columns.update((f"w{i}", weights[:, i]) for i in range(k0.size))
    return columns, {
        "winner": outcome.winner,
        "steps_taken": outcome.steps_taken,
        "elimination_order": [list(e) for e in outcome.elimination_order],
    }, "trajectory"


def _run_greens(config: RunConfig, diagnostics: dict):
    try:
        params = DiffusionParams(x0=config.x0, diffusion=config.diffusion)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if not 0.0 < config.laplace_s < math.inf:
        raise UsageError("--laplace-s must be finite and positive")
    xs = _parse_grid(config.x_grid, "x-grid", 0.0, 1.0)
    values = greens_tilde(xs, config.laplace_s, params)
    return {"x": xs, "value": values}, {"laplace_s": config.laplace_s}, "rows"


def _report_acceptance(estimates, diagnostics: dict) -> None:
    """min/max/mean of the image-event acceptance rates among the estimates;
    nothing when no estimate carries one."""
    rates = [e.acceptance_rate for e in estimates if e.acceptance_rate is not None]
    if rates:
        diagnostics["acceptance_rate"] = {
            "min": min(rates), "max": max(rates), "mean": sum(rates) / len(rates)
        }


def _check_events(config: RunConfig, points: int) -> None:
    """A usage error if a sampled model would draw more than BELL_MAX_EVENTS
    events over ``points`` correlations."""
    if config.model in SAMPLED_MODELS and points * config.samples > BELL_MAX_EVENTS:
        raise UsageError(
            f"{config.subcommand} would draw more than {BELL_MAX_EVENTS} events; lower --samples"
        )


def _run_bell(config: RunConfig, diagnostics: dict):
    thetas = _parse_grid(config.theta_grid, "theta-grid")
    _check_events(config, thetas.size)
    rng = np.random.default_rng(config.seed)
    estimates = []
    a = DetectorSetting.from_plane_angle_degrees(0.0)
    draws = config.model in SAMPLED_MODELS
    for theta_deg in thetas.tolist():
        b = DetectorSetting.from_plane_angle_degrees(theta_deg)
        # spawned per angle: the children of one spawn of them all, not held at once
        stream = rng.spawn(1)[0] if draws else None
        estimates.append(
            correlation_estimate(config.model, a, b, config.samples, stream, config.convention)
        )
    _report_acceptance(estimates, diagnostics)
    columns = {"theta_deg": thetas}
    for name in ("value", "stderr", "n", "model"):
        columns[name] = [getattr(e, name) for e in estimates]
    return columns, {}, "rows"


def _run_chsh(config: RunConfig, diagnostics: dict):
    degs = _parse_settings(config.settings)
    a, a_alt, b, b_alt = map(DetectorSetting.from_plane_angle_degrees, degs)
    _check_events(config, 4)
    rng = np.random.default_rng(config.seed)
    report = chsh(
        config.model, a, a_alt, b, b_alt, config.samples, rng, config.convention
    )
    _report_acceptance(report.estimates, diagnostics)
    diagnostics["chsh_margin"] = report.chsh_margin
    columns = {
        "model": [report.model],
        "S": [report.chsh_s],
        "bound": [report.chsh_bound],
        "combined_stderr": [report.chsh_stderr],
        "violated": [bool(report.chsh_violated)],
        "settings_deg": [";".join(_csv_cells(degs))],
    }
    return columns, {"settings_deg": degs}, None


def _run_c2(config: RunConfig, diagnostics: dict):
    thetas = _parse_grid(config.theta_grid, "theta-grid", 0.0, 180.0)
    consts = [solve_c2(math.radians(theta_deg)) for theta_deg in thetas.tolist()]
    diagnostics["max_normalization_residual"] = max(c.residual for c in consts)
    return {"theta_deg": thetas, "c2": [c.c2 for c in consts]}, {}, "rows"


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
        _emit(config, *_RUNNERS[config.subcommand](config, diagnostics))
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
            "config": {
                "subcommand": config.subcommand,
                **{name: getattr(config, name) for name in _options_of(config.subcommand)},
            },
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
