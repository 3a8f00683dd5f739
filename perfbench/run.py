"""fraclab benchmark: one workload per run, cold passes, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; fraclab is imported from ``src``.  Every
pass is a fresh process (CLI users pay imports and cold caches on each
command).  The run starts passes one after another while less than
``--seconds`` has passed, so it makes at least one, and a started pass
runs to its end.  With ``--trace 0`` the last stdout line holds the
end-to-end metrics, medians over the passes.  With ``--trace 1`` it holds
the per-layer metrics of one traced pass, and one untraced pass of the
same inputs gives the tracing overhead.  The line before it holds the
environment and the per-pass detail.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("verify_all", "operator_sweep", "solver_grid", "construct_plan")

#: Import-only processes per untraced run, so setup_s is a median even
#: when one pass fills the run.
SETUP_PROBES = 4

#: A run that would pass this many seconds stops its pass and prints no
#: result, so every run ends within 180 s.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _spawn(mode, workload, seed, tiny, deadline):
    env = dict(os.environ)
    env.pop("FRACLAP_THREADS", None)   # suite concurrency at its default
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the next pass")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, mode, workload, str(seed),
             "1" if tiny else "0", repr(spawned_at)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass of {workload} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass of {workload} exited with "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload, seed, seconds, trace, tiny=False):
    """Measure one workload; returns (result line, detail line)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "fraclab", "__init__.py")):
        raise BenchError("no fraclab sources under src/ in this checkout")
    deadline = time.monotonic() + DEADLINE_S
    setups = [] if trace else [
        _spawn("setup", workload, seed, tiny, deadline)["setup_s"]
        for _ in range(SETUP_PROBES)]
    start = time.monotonic()
    passes = []
    modes = ("plain", "traced") if trace else ("plain",)
    while not passes or (not trace and time.monotonic() - start < seconds):
        for mode in modes:
            passes.append(dict(_spawn(mode, workload, seed, tiny, deadline),
                               mode=mode))
    setups += [p["setup_s"] for p in passes]
    return summarize(workload, seed, seconds, trace, passes, setups)


def summarize(workload, seed, seconds, trace, passes, setups):
    """Result line and detail line from the pass records of one run."""
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    # the same seed gives the same inputs, so every pass must agree
    repeatable = len({p["digest"] for p in passes}) == 1
    correct = repeatable and all(p["incorrect"] == 0 for p in passes)
    if trace:
        traced = next(p for p in passes if p["mode"] == "traced")
        plain = next(p for p in passes if p["mode"] == "plain")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in traced["layers"].items()}
        metrics["trace.overhead_s"] = {
            "value": traced["wall_s"] - plain["wall_s"], "unit": "s"}
    else:
        if not all(p["accuracy"] for p in passes):
            raise BenchError("a pass raised before any accuracy probe ran")
        oracle = max(err / tol for p in passes
                     for err, tol in p["accuracy"].values())
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(p["wall_s"] for p in passes),
                       "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                p["peak_rss_mb"] for p in passes), "unit": "MB"},
            "pass_share": {"value": (attempted - failed) / attempted,
                           "unit": "ratio"},
            "oracle_err": {"value": oracle, "unit": "ratio"},
        }
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "env": passes[0]["env"],
        "passes": [{k: p[k] for k in ("mode", "setup_s", "wall_s",
                                      "peak_rss_mb", "attempted", "failed")}
                   for p in passes],
        "setup_s": setups,
        "accuracy": passes[0]["accuracy"],
        "failures": sorted({f"{name}: {why}" for p in passes
                            for name, why in p["failures"]}),
        "outputs_repeat": repeatable,
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, detail = run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
