"""collapsewalk benchmark: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload born-two --seed 1 --seconds 20 --trace 0

Untraced (--trace 0): starts one fresh child process per workload run
(bench/child.py) until --seconds have passed, one at a time, and reports the
end-to-end metrics over those runs.  Traced (--trace 1): runs every workload
once in a traced child, so each layer is measured on the workload that
exercises it, plus one untraced run of the named workload for the tracing
overhead, and reports the per-layer metrics.

Every output is checked against an independent oracle, in the child per
call and here over the pooled calls of all children.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; a full report (environment, per-child figures, failures) and,
when traced, the spans are written under bench/out/.  The exit code is 0
when every check passed, 1 when one failed and 2 when the package source is
missing.  See bench/README.md for why each workload exists and which
end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import child

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD_TIMEOUT_S = 120
# The machine's speed drifts by tens of percent within seconds, so each child
# times a fixed reference kernel between calls (child.reference_kernel) and
# its times are expressed at the speed where that kernel takes this long; see
# README.md.
REFERENCE_NOMINAL_S = 0.002
REFERENCE_WINDOW_S = 0.6

WORKLOADS = tuple(child.WORKLOADS)

# Pooled oracles: (kind, expected).  Born groups expect k/M per state; CHSH
# groups expect 2 sqrt 2 (image model) or a local bound of 2 (sign model).
ORACLES = {
    "two": ("born", tuple(k / child.TWO_M for k in child.TWO_K)),
    "three": ("born", tuple(k / child.THREE_M for k in child.THREE_K)),
    "eight": ("born", tuple(k / child.EIGHT_M for k in child.EIGHT_K)),
    "chsh-image": ("chsh-equal", 2.0 * math.sqrt(2.0)),
    "chsh-sign": ("chsh-bound", 2.0),
}
Z = 4.0


def spawn(workload: str, seed: int, index: int, trace: int, scale: str) -> dict:
    """Run one workload run in a fresh child; add its setup time.

    setup_s runs from just before the spawn to the child's "ready" mark
    (collapsewalk imported, inputs built).  Both read time.perf_counter,
    which on Linux is the system-wide CLOCK_MONOTONIC.
    """
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--index", str(index), "--trace", str(trace),
           "--scale", scale]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"workload": workload, "index": index, "trace": trace,
                "crashed": f"exit {proc.returncode}: {err.strip()[-2000:]}"}
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - start
    normalize(result)
    return result


def normalize(result: dict) -> None:
    """Rescale a child's times to the speed where the reference kernel takes
    REFERENCE_NOMINAL_S, and keep the measured ones as raw_*.

    A time is divided by the slowdown measured around it: the median
    reference time within REFERENCE_WINDOW_S of it (or the nearest one)
    over the nominal time.  Time outside the calls uses the child's median.
    """
    samples = result.pop("reference_s")
    result["reference_ms"] = statistics.median(r for _, r in samples) * 1e3

    def slowdown(t):
        near = [r for when, r in samples if abs(when - t) <= REFERENCE_WINDOW_S]
        near = near or [min(samples, key=lambda s: abs(s[0] - t))[1]]
        return statistics.median(near) / REFERENCE_NOMINAL_S

    for c in result["calls"]:
        c["raw_ms"] = c["ms"]
        c["ms"] /= slowdown(c["start"])
    done = result["ready"] + result["wall_s"]
    timed = [c for c in result["calls"] if c["start"] < done]  # not traced extras
    between = result["wall_s"] - sum(c["raw_ms"] for c in timed) / 1e3
    result["raw_wall_s"], result["raw_setup_s"] = result["wall_s"], result["setup_s"]
    result["wall_s"] = (sum(c["ms"] for c in timed) / 1e3
                        + between * REFERENCE_NOMINAL_S * 1e3 / result["reference_ms"])
    result["setup_s"] /= slowdown(result["ready"])


# ------------------------------------------------------------------ checks


def pooled_failures(children: list[dict], oracles: dict = ORACLES) -> dict:
    """Pool each group's statistics over the children and check them.

    Returns {group: message} for every group whose pooled oracle check fails.
    """
    pooled: dict[str, dict] = {}
    for ch in children:
        for group, data in ch.get("pooled", {}).items():
            pool = pooled.setdefault(group, {})
            for key, val in data.items():
                if key == "counts":
                    pool[key] = [a + b for a, b in zip(pool.get(key, [0] * len(val)), val)]
                elif isinstance(val, list):
                    pool[key] = pool.get(key, []) + val
                else:
                    pool[key] = pool.get(key, 0) + val
    failures = {}
    for group, data in pooled.items():
        kind, expected = oracles[group]
        if kind == "born":
            n = data["trials"]
            for i, (count, p) in enumerate(zip(data["counts"], expected)):
                sigma = math.sqrt(p * (1.0 - p) / n)
                if abs(count / n - p) > Z * sigma:
                    failures[group] = (f"state {i}: frequency {count / n:.6f} vs "
                                       f"k/M = {p:.6f}, 4 sigma = {Z * sigma:.6f}, n = {n}")
            continue
        rounds = len(data["s"])
        s = sum(data["s"]) / rounds
        sigma = math.sqrt(sum(data["var"])) / rounds
        if kind == "chsh-equal" and abs(abs(s) - expected) > Z * sigma:
            failures[group] = f"|S| = {abs(s):.6f} vs {expected:.6f} +- {Z * sigma:.6f}"
        if kind == "chsh-bound" and abs(s) > expected + Z * sigma:
            failures[group] = f"|S| = {abs(s):.6f} above {expected} + {Z * sigma:.6f}"
    return failures


def outcome(children: list[dict], oracles: dict = ORACLES) -> dict:
    """Attempted and failed calls; a failed pooled check fails all its calls."""
    pooled = pooled_failures(children, oracles)
    calls = [c for ch in children for c in ch.get("calls", [])]
    crashed = [ch["crashed"] for ch in children if "crashed" in ch]
    failed = [c for c in calls if not c["ok"] or c["group"] in pooled]
    attempted = len(calls) + len(crashed)
    errors = sorted({c.get("error") or f"{c['group']}: {pooled[c['group']]}" for c in failed})
    return {"attempted": max(attempted, 1), "failed": len(failed) + len(crashed),
            "failed_ratio": (len(failed) + len(crashed)) / max(attempted, 1),
            "errors": crashed + errors[:20]}


# ------------------------------------------------------------------ metrics


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default method)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(children: list[dict]) -> dict:
    ok = [ch for ch in children if "crashed" not in ch]
    ms = [c["ms"] for ch in ok for c in ch["calls"]]
    if not ok or not ms:
        return {}
    return {
        "wall_s": (statistics.median(ch["wall_s"] for ch in ok), "s"),
        "call_p50_ms": (quantile(ms, 0.5), "ms"),
        "call_p90_ms": (quantile(ms, 0.9), "ms"),
        "setup_s": (statistics.median(ch["setup_s"] for ch in ok), "s"),
        "peak_rss_mb": (statistics.median(ch["peak_rss_kb"] for ch in ok) / 1024.0, "MB"),
    }


def self_times(spans: list[dict]) -> None:
    """Set each span's self_s: its duration minus what its children cover."""
    kids: dict[int, list] = {}
    for sp in spans:
        if sp["parent"] is not None:
            kids.setdefault(sp["parent"], []).append((sp["start"], sp["end"]))
    for sp in spans:
        covered, reach = 0.0, sp["start"]
        for lo, hi in sorted(kids.get(sp["id"], [])):
            lo, hi = max(lo, reach), min(hi, sp["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        sp["self_s"] = sp["end"] - sp["start"] - covered


def per_layer(traced: dict[str, dict], overhead: float) -> dict:
    """Per-layer metrics from the spans of one traced child per workload."""

    def spans(workloads, name):
        return [sp for w in workloads for sp in traced[w]["spans"] if sp["name"] == name]

    def dur(sps):
        return sum(sp["end"] - sp["start"] for sp in sps)

    def total(sps, key):
        return sum(sp[key] for sp in sps)

    born = ("born-two", "born-multi")
    rng = spans(born, "walk.trial_rng")
    rng_us = dur(rng) / total(rng, "calls") * 1e6
    two = spans(["born-two"], "walk.born_statistics")
    multi = [sp for sp in spans(["born-multi"], "walk.born_statistics") if sp["states"] > 2]
    walks = spans(["born-multi"], "walk.run_walk")
    threads = {sp["workers"]: sp["end"] - sp["start"]
               for sp in spans(["born-two"], "walk.born_statistics.threads")}
    batches = spans(born, "walk.born_statistics")
    image = spans(["bell-chsh"], "bell.sample_image_events")
    estimate = spans(["bell-chsh"], "bell.estimate_from_events")
    sign = spans(["bell-chsh"], "bell.sign_correlation")
    c2 = spans(["oracle-grid"], "bell.solve_c2")
    warm = spans(["oracle-grid"], "bell.solve_c2.warm")
    chain = spans(["oracle-grid"], "analytic.absorption_probs_chain")
    absorb = spans(["oracle-grid"], "analytic.absorption_probs")
    greens = spans(["oracle-grid"], "analytic.greens_tilde")
    main = spans(["oracle-grid"], "cli.main")
    main_warm = spans(["oracle-grid"], "cli.main.warm")
    warm_us = dur(warm) / total(warm, "calls") * 1e6
    imports = [sp["end"] - sp["start"] for w in traced for sp in spans([w], "cli.import")]
    prepares = spans(born, "states.prepare")
    return {
        "walk.trial_rng_us": (rng_us, "us"),
        "walk.two_state_us_per_trial": (dur(two) / total(two, "trials") * 1e6 - rng_us, "us"),
        "walk.multi_us_per_trial": (dur(multi) / total(multi, "trials") * 1e6 - rng_us, "us"),
        "walk.run_walk_us_per_step": (dur(walks) / total(walks, "steps") * 1e6, "us"),
        "walk.steps_per_trial": (total(walks, "steps") / len(walks), "count"),
        "walk.excluded_ratio": (total(batches, "excluded") / total(batches, "trials"), "ratio"),
        "walk.threads2_speedup": (threads[1] / threads[2] if len(threads) == 2 else 1.0,
                                  "ratio"),
        "bell.image_ns_per_event": (dur(image) / total(image, "events") * 1e9, "ns"),
        "bell.estimate_ns_per_event": (dur(estimate) / total(estimate, "events") * 1e9, "ns"),
        "bell.sign_ns_per_event": (dur(sign) / total(sign, "events") * 1e9, "ns"),
        "bell.image_acceptance": (total(image, "acceptance") / len(image), "ratio"),
        "bell.image_bytes_per_event": (total(image, "bytes") / total(image, "events"), "B"),
        "bell.solve_c2_cold_ms": (dur(c2) / len(c2) * 1e3, "ms"),
        "bell.solve_c2_warm_us": (warm_us, "us"),
        "bell.overlap_max_err": (max(sp["overlap_err"] for sp in c2), "1"),
        "analytic.chain_solve_ms": (dur(chain) * 1e3, "ms"),
        "analytic.chain_states": (total(chain, "states"), "count"),
        "analytic.absorption_probs_us": (dur(absorb) / len(absorb) * 1e6, "us"),
        "analytic.greens_us_per_point": (dur(greens) / total(greens, "points") * 1e6, "us"),
        "cli.c2_main_ms": (dur(main) * 1e3, "ms"),
        "cli.self_ms": (dur(main_warm) * 1e3 - total(main, "angles") * warm_us / 1e3, "ms"),
        "cli.import_s": (statistics.median(imports), "s"),
        "states.prepare_us": (dur(prepares) / len(prepares) * 1e6, "us"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


# ------------------------------------------------------------------ main


def environment(args) -> dict:
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    import numpy

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "scale": args.scale, "commit": commit,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "closed_loop_workers": 1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=child.SCALES, default="full",
                        help="'smoke' runs every call and check at a tiny size")
    args = parser.parse_args(argv)
    if not (SRC / "collapsewalk" / "__init__.py").is_file():
        print(f"error: no collapsewalk package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    if args.trace:
        plain = spawn(args.workload, args.seed, 0, 0, args.scale)
        traced = {w: spawn(w, args.seed, 0, 1, args.scale) for w in WORKLOADS}
        children = [plain, *traced.values()]
        result = outcome(children)
        metrics = {}
        if not result["errors"]:
            overhead = traced[args.workload]["wall_s"] / plain["wall_s"]
            metrics = per_layer(traced, overhead)
        spans = [{**sp, "workload": w, "run": f"{w}:{args.seed}:0"}
                 for w, ch in traced.items() for sp in ch.get("spans", [])]
        self_times(spans)
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans))
    else:
        children = []
        start = time.perf_counter()
        while not children or time.perf_counter() - start < args.seconds:
            children.append(spawn(args.workload, args.seed, len(children), 0, args.scale))
        result = outcome(children)
        metrics = end_to_end(children)

    calls = sum(len(ch.get("calls", [])) for ch in children)
    print(f"runs {len(children)}  calls {calls} (latency samples)  "
          f"failed_ratio {result['failed_ratio']:.6g}", flush=True)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    for err in result["errors"]:
        print(f"FAILED {err}")
    report = {"env": env, **result, "latency_samples": calls,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "runs": [{k: ch.get(k) for k in ("workload", "index", "trace", "wall_s", "raw_wall_s",
                                               "setup_s", "raw_setup_s", "reference_ms",
                                               "peak_rss_kb", "crashed")}
                       for ch in children]}
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1))
    correct = result["failed"] == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": report["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
