"""One workload run of the benchmark, in a fresh process.

run.py starts this file once per workload run:

    python3 bench/child.py --workload born-two --seed 1 --index 0 --trace 0 --scale full

The child imports collapsewalk from the repository's own ``src`` by absolute
path, so the working directory and any inherited PYTHONPATH do not matter.
It builds the workload's inputs from (seed, index), makes the workload's
public calls one after another (a closed loop with one caller), checks every
output against an independent oracle, and prints one JSON line: the latency
and outcome of every call, the raw statistics for the pooled oracle checks
that run.py makes, the ready and wall times, the peak RSS and, when traced,
the spans.  Only public collapsewalk names are used.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import resource
import sys
import tempfile
import time
from contextlib import contextmanager
from math import comb
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

# Grid weights are exact multiples of 1/M, so the Born oracle k/M does not
# depend on the package's own quantization.
TWO_K, TWO_M = (300, 700), 1000
THREE_K, THREE_M = (50, 30, 20), 100
EIGHT_K, EIGHT_M = (40, 35, 30, 25, 25, 20, 15, 10), 200
CHSH_DEG = (0.0, 90.0, 45.0, 135.0)  # a, a', b, b'
ABSORPTION_X0 = tuple(i / 10 for i in range(1, 10))

# Sizes of one workload run.  "full" is what the benchmark measures (each run
# makes at least 100 calls, so p90 has at least 10 samples beyond it);
# "smoke" exercises the same calls and checks in well under a second.
SCALES = {
    "full": {
        "trials": 100,
        "two_batches": 100,
        "three_batches": 80,
        "eight_batches": 15,
        "eight_trials": 25,
        "walks": 10,
        "walk_m": 20,
        "image_rounds": 24,
        "sign_rounds": 8,
        "events": 100_000,
        "c2_step_deg": 1,
        "chain": (20, 12, 8),
        "greens_points": 1001,
        "cli_grid": "0:180:30",
        "thread_trials": 1000,
    },
    "smoke": {
        "trials": 20,
        "two_batches": 3,
        "three_batches": 3,
        "eight_batches": 2,
        "eight_trials": 5,
        "walks": 2,
        "walk_m": 10,
        "image_rounds": 2,
        "sign_rounds": 1,
        "events": 2000,
        "c2_step_deg": 45,
        "chain": (4, 3, 2),
        "greens_points": 21,
        "cli_grid": "0:180:90",
        "thread_trials": 20,
    },
}


REF_EVERY_S = 0.05


def reference_kernel(np) -> float:
    """Seconds taken by a fixed piece of work that does not use collapsewalk.

    An interpreter loop, a random draw and a sort, a mix like the package's
    own.  run.py divides each call's time by this kernel's median time
    around that call, so a slower or busier machine moves both alike.
    """
    start = time.perf_counter()
    x = 0
    for j in range(20_000):
        x += j * j
    np.sort(np.random.default_rng(x % 7).random(40_000))
    return time.perf_counter() - start


class Run:
    """Call log, spans and pooled statistics of one workload run."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.reference = None  # set once numpy is imported
        self.reference_s: list[tuple[float, float]] = []  # (when, seconds)
        self._next_reference = 0.0
        self.calls: list[dict] = []
        self.spans: list[dict] = []
        self.pooled: dict[str, dict] = {}
        self.last: dict = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        """Record (name, start, end, parent, counts) when traced.

        Yields the span record, so counts known only after the work can be
        added to it; untraced runs get a throwaway dict.
        """
        if not self.traced:
            yield {}
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None, **counts}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, group: str, fn, **counts):
        """Time one public call ``fn()``; a call that raises is a failed call.

        Returns the call's result, or None when it raised.  ``self.last`` is
        the call's span record afterwards.
        """
        now = time.perf_counter()
        if self.reference is not None and now >= self._next_reference:
            self.reference_s.append((now, self.reference()))
            self._next_reference = time.perf_counter() + REF_EVERY_S
        start = time.perf_counter()
        rec = {"name": name, "group": group, "ok": True, "start": start}
        self.calls.append(rec)
        try:
            with self.span(name, **counts) as self.last:
                out = fn()
        except Exception as exc:  # the run goes on; the failure is counted
            out = None
            rec.update(ok=False, error=f"{type(exc).__name__}: {exc}")
        rec["ms"] = (time.perf_counter() - start) * 1e3
        return out

    def check(self, ok: bool, message: str) -> None:
        """Count the last call as failed unless ``ok``."""
        if not ok and self.calls[-1]["ok"]:
            self.calls[-1].update(ok=False, error=message)


def clear_caches(cw) -> None:
    """Empty the c2 and overlap caches, where the package has them."""
    for name in ("solve_c2", "overlap_integral"):
        clear = getattr(getattr(cw, name, None), "cache_clear", None)
        if clear is not None:
            clear()


def overlap_closed_form(theta: float) -> float:
    """I(theta) = (8/3)(sin theta + cos theta arcsin(cos theta))."""
    c = math.cos(theta)
    return 8.0 / 3.0 * (math.sin(theta) + c * math.asin(max(-1.0, min(1.0, c))))


# ------------------------------------------------------------------ born


def _state(cw, np, run, k, m):
    with run.span("states.prepare"):
        return cw.normalize(np.sqrt(np.array(k) / m))


def _configs(cw, np, seq, count, m):
    """One WalkConfig per batch, each with its own seed drawn from ``seq``."""
    return [cw.WalkConfig(grid_resolution=m, seed=int(s))
            for s in seq.generate_state(count, np.uint64)]


def _born_batch(cw, run, group, state, trials, config, k):
    stats = run.call("walk.born_statistics", group,
                     lambda: cw.born_statistics(state, trials, config),
                     trials=trials, states=len(k))
    if stats is None:
        return
    run.last["excluded"] = int(stats.excluded)
    counts = [int(c) for c in stats.winner_counts]
    run.check(stats.excluded == 0 and stats.trials == trials
              and len(counts) == len(k) and sum(counts) == trials,
              f"batch seed {config.seed}: trials {stats.trials}, "
              f"excluded {stats.excluded}, counts {counts}")
    pool = run.pooled.setdefault(group, {"counts": [0] * len(k), "trials": 0})
    pool["counts"] = [a + b for a, b in zip(pool["counts"], counts)]
    pool["trials"] += sum(counts)


def _time_trial_rng(cw, run, configs, trials):
    """trial_rng cost per call, on the trial indices the batches used."""
    with run.span("walk.trial_rng", calls=len(configs) * trials):
        for config in configs:
            for t in range(trials):
                cw.trial_rng(config.seed, t)


def prepare_born_two(cw, np, run, seq, size):
    return {"state": _state(cw, np, run, TWO_K, TWO_M),
            "configs": _configs(cw, np, seq, size["two_batches"], TWO_M)}


def work_born_two(cw, np, run, inp, size):
    for config in inp["configs"]:
        _born_batch(cw, run, "two", inp["state"], size["trials"], config, TWO_K)


def extras_born_two(cw, np, run, inp, size):
    _time_trial_rng(cw, run, inp["configs"], size["trials"])
    # Same slice with one and two worker threads; the counts must agree.
    if "workers" not in inspect.signature(cw.born_statistics).parameters:
        return
    config, trials = inp["configs"][0], size["thread_trials"]
    counts = {}
    for workers in (1, 2):
        stats = run.call(
            "walk.born_statistics.threads", "threads",
            lambda: cw.born_statistics(inp["state"], trials, config, workers=workers),
            trials=trials, workers=workers)
        if stats is not None:
            counts[workers] = [int(c) for c in stats.winner_counts]
    run.check(counts.get(1) == counts.get(2),
              f"workers=1 counts {counts.get(1)} != workers=2 counts {counts.get(2)}")


def prepare_born_multi(cw, np, run, seq, size):
    three, eight, walks, order = seq.spawn(4)
    state3 = _state(cw, np, run, THREE_K, THREE_M)
    with run.span("states.prepare"):
        joint = cw.form_joint(state3)
    tasks = ([("three", c) for c in _configs(cw, np, three, size["three_batches"], THREE_M)]
             + [("eight", c) for c in _configs(cw, np, eight, size["eight_batches"], EIGHT_M)]
             + [("walk", c) for c in _configs(cw, np, walks, size["walks"], size["walk_m"])])
    perm = np.random.default_rng(order).permutation(len(tasks))
    return {"state3": state3, "state8": _state(cw, np, run, EIGHT_K, EIGHT_M),
            "joint": joint, "tasks": [tasks[i] for i in perm]}


def _walk(cw, run, joint, config):
    """One run_walk trajectory with an observer, as the walk subcommand runs it."""
    trajectory = []

    def observer(step, snapshot):
        trajectory.append((step, tuple(float(w) for w in snapshot.weights)))

    out = run.call("walk.run_walk", "walk",
                   lambda: cw.run_walk(joint, config, observer=observer))
    if out is None:
        return
    run.last["steps"] = out.steps_taken
    n = joint.n
    losers = sorted(state for state, _ in out.elimination_order)
    run.check(0 <= out.winner < n
              and losers == [i for i in range(n) if i != out.winner]
              and len(trajectory) == out.steps_taken + 1
              and trajectory[-1][1][out.winner] == 1.0,
              f"walk seed {config.seed}: winner {out.winner}, losers {losers}, "
              f"{len(trajectory)} snapshots for {out.steps_taken} steps")


def work_born_multi(cw, np, run, inp, size):
    for kind, config in inp["tasks"]:
        if kind == "three":
            _born_batch(cw, run, "three", inp["state3"], size["trials"], config, THREE_K)
        elif kind == "eight":
            _born_batch(cw, run, "eight", inp["state8"], size["eight_trials"], config, EIGHT_K)
        else:
            _walk(cw, run, inp["joint"], config)


def extras_born_multi(cw, np, run, inp, size):
    configs = [c for kind, c in inp["tasks"] if kind == "three"]
    _time_trial_rng(cw, run, configs, size["trials"])


# ------------------------------------------------------------------ bell


def prepare_bell_chsh(cw, np, run, seq, size):
    settings = [cw.DetectorSetting.from_plane_angle_degrees(d) for d in CHSH_DEG]
    models = (["image-event"] * size["image_rounds"]
              + ["bell-sign"] * size["sign_rounds"])
    rng = np.random.default_rng(seq)
    models = [models[i] for i in rng.permutation(len(models))]
    return {"settings": settings, "rounds": list(zip(models, rng.spawn(len(models))))}


def _image_correlation(cw, run, a, b, n, rng):
    with run.span("bell.sample_image_events", events=n) as rec:
        batch = cw.sample_image_events(a, b, n, rng)
    rec["acceptance"] = batch.acceptance_rate
    rec["bytes"] = sum(getattr(batch, f.name).nbytes for f in dataclasses.fields(batch)
                       if hasattr(getattr(batch, f.name), "nbytes"))
    with run.span("bell.estimate_from_events", events=n):
        est = cw.estimate_from_events(batch)
    return batch, est


def work_bell_chsh(cw, np, run, inp, size):
    a, a_alt, b, b_alt = inp["settings"]
    n = size["events"]
    for model, stream in inp["rounds"]:
        values, var = [], 0.0
        for (x, y), sub in zip(((a, b), (a, b_alt), (a_alt, b), (a_alt, b_alt)),
                               stream.spawn(4)):
            if model == "image-event":
                out = run.call("bell.image_correlation", "chsh-image",
                               lambda: _image_correlation(cw, run, x, y, n, sub))
                if out is None:
                    continue
                batch, est = out
                run.check(batch.outcome_a.size == n and 0.0 < batch.acceptance_rate <= 1.0,
                          f"image batch: {batch.outcome_a.size} events, "
                          f"acceptance {batch.acceptance_rate!r}")
            else:
                est = run.call("bell.sign_correlation", "chsh-sign",
                               lambda: cw.bell_sign_correlation(x, y, n, sub), events=n)
                if est is None:
                    continue
            run.check(est.n == n and abs(est.value) <= 1.0,
                      f"{model} estimate {est.value!r} over {est.n} events")
            values.append(est.value)
            var += est.stderr**2
        if len(values) == 4:
            pool = run.pooled.setdefault("chsh-image" if model == "image-event"
                                         else "chsh-sign", {"s": [], "var": []})
            pool["s"].append(values[0] - values[1] + values[2] + values[3])
            pool["var"].append(var)


def extras_none(cw, np, run, inp, size):
    pass


# ------------------------------------------------------------------ oracle grid


def prepare_oracle_grid(cw, np, run, seq, size):
    degrees = list(range(0, 181, size["c2_step_deg"]))
    rng = np.random.default_rng(seq)
    return {
        "degrees": degrees,
        "thetas": [math.radians(float(d)) for d in degrees],
        "chain": size["chain"],
        "params": cw.DiffusionParams(x0=float(rng.uniform(0.1, 0.9))),
        "laplace_s": float(rng.uniform(0.5, 4.0)),
        "xs": np.linspace(0.0, 1.0, size["greens_points"]),
        "cli_grid": size["cli_grid"],
    }


def _greens_closed_form(np, xs, s, x0):
    q = math.sqrt(s)
    lo, hi = np.minimum(xs, x0), np.maximum(xs, x0)
    return np.sinh(q * lo) * np.sinh(q * (1.0 - hi)) / (math.sqrt(s) * math.sinh(q))


def work_oracle_grid(cw, np, run, inp, size):
    from collapsewalk import cli

    clear_caches(cw)
    c2 = {}
    for deg, theta in zip(inp["degrees"], inp["thetas"]):
        consts = run.call("bell.solve_c2", "c2", lambda: cw.solve_c2(theta), theta_deg=deg)
        if consts is None:
            continue
        c2[deg] = consts.c2
        run.last["overlap_err"] = abs(consts.overlap - overlap_closed_form(theta))
        run.check(consts.c2 >= 0.0 and consts.residual < 1e-8
                  and (deg not in (0, 180) or consts.c2 == 0.0),
                  f"solve_c2 at {deg} deg: c2 {consts.c2!r}, residual {consts.residual!r}")

    k = inp["chain"]
    m = sum(k)
    probs = run.call("analytic.absorption_probs_chain", "chain",
                     lambda: cw.absorption_probs_chain(list(k)),
                     states=comb(m + len(k) - 1, len(k) - 1))
    if probs is not None:
        err = max(abs(float(p) - ki / m) for p, ki in zip(probs, k))
        run.check(len(probs) == len(k) and err <= 1e-10,
                  f"chain solve off k/M by {err!r}")

    for x0 in ABSORPTION_X0:
        probs = run.call("analytic.absorption_probs", "absorption",
                         lambda: cw.absorption_probs(x0))
        if probs is not None:
            run.check(abs(probs[0] - (1.0 - x0)) <= 1e-12 and abs(probs[1] - x0) <= 1e-12,
                      f"absorption_probs({x0}) = {probs!r}")

    xs, s, params = inp["xs"], inp["laplace_s"], inp["params"]
    values = run.call("analytic.greens_tilde", "greens",
                      lambda: cw.greens_tilde(xs, s, params), points=len(xs))
    if values is not None:
        expected = _greens_closed_form(np, xs, s, params.x0)
        run.check(values[0] == 0.0 and values[-1] == 0.0
                  and bool(np.allclose(values, expected, rtol=1e-10, atol=1e-14)),
                  f"greens_tilde off the closed form at x0={params.x0}, s={s}")

    clear_caches(cw)
    start, stop, step = (float(v) for v in inp["cli_grid"].split(":"))
    angles = [start + step * i for i in range(int(round((stop - start) / step)) + 1)]
    code, rows, error = _cli_c2(cli, run, inp["cli_grid"], "cli.main")
    run.last["angles"] = len(angles)
    want = ["theta_deg,c2"] + [f"{a:.15g},{c2.get(a, math.nan):.15g}" for a in angles]
    run.check(code == 0 and rows == want and error is None,
              f"cli c2: exit {code}, manifest error {error!r}, csv {rows} != {want}")


def _cli_c2(cli, run, grid, name):
    """cli.main c2 over ``grid`` into a temporary file.

    Returns the exit code, the CSV lines and the manifest's error field.
    """
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        csv = Path(tmp) / "c2.csv"
        code = run.call(name, "cli", lambda: cli.main(["c2", "--theta-grid", grid,
                                                      "--out", str(csv)]))
        rows = csv.read_text().splitlines() if csv.is_file() else []
        manifest = Path(str(csv) + ".manifest.json")
        error = json.loads(manifest.read_text()).get("error") if manifest.is_file() else "missing"
    return code, rows, error


def extras_oracle_grid(cw, np, run, inp, size):
    from collapsewalk import cli

    for theta in inp["thetas"]:
        cw.solve_c2(theta)
    with run.span("bell.solve_c2.warm", calls=len(inp["thetas"])):
        for theta in inp["thetas"]:
            cw.solve_c2(theta)
    # With every angle cached, cli.main's time is its own (cli.self_ms).
    code, _, error = _cli_c2(cli, run, inp["cli_grid"], "cli.main.warm")
    run.check(code == 0 and error is None, f"warm cli c2: exit {code}, error {error!r}")


WORKLOADS = {
    "born-two": (prepare_born_two, work_born_two, extras_born_two),
    "born-multi": (prepare_born_multi, work_born_multi, extras_born_multi),
    "bell-chsh": (prepare_bell_chsh, work_bell_chsh, extras_none),
    "oracle-grid": (prepare_oracle_grid, work_oracle_grid, extras_oracle_grid),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=SCALES, required=True)
    args = parser.parse_args(argv)

    run = Run(traced=bool(args.trace))
    sys.path.insert(0, str(SRC))
    with run.span("cli.import"):
        import collapsewalk as cw
        import collapsewalk.cli  # noqa: F401  (what a command-line user loads)
    if not Path(cw.__file__).resolve().is_relative_to(SRC):
        print(f"collapsewalk came from {cw.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np

    run.reference = lambda: reference_kernel(np)
    prepare, work, extras = WORKLOADS[args.workload]
    size = SCALES[args.scale]
    seq = np.random.SeedSequence(args.seed, spawn_key=(args.index,))
    inputs = prepare(cw, np, run, seq, size)
    ready = time.perf_counter()
    work(cw, np, run, inputs, size)
    done = time.perf_counter()
    if run.traced:
        extras(cw, np, run, inputs, size)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "index": args.index,
        "trace": args.trace,
        "ready": ready,
        "wall_s": done - ready,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "calls": run.calls,
        "reference_s": run.reference_s,
        "pooled": run.pooled,
        "spans": run.spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
