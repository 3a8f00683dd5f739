"""Self-test of the benchmark at tiny sizes; exits non-zero on a failure.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It checks that every workload runs and
prints exactly the metrics BENCHMARK.json names, that traced work
counters repeat exactly across passes with one seed, and that forced
failures are counted: a raising operation in ``failed`` and
``pass_share``, a wrong output in ``correct``.
"""

import json
import os
import sys
import time

import run
import worker  # puts this checkout's src/ on sys.path
import workloads
from fraclab import solver

SEED = 3


def _config():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _units(section):
    return {m["name"]: m["unit"] for m in _config()[section]}


def check_workloads():
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS) \
        == {w["name"] for w in _config()["workloads"]}
    end_to_end, per_layer = _units("end_to_end"), _units("per_layer")
    for workload in run.WORKLOADS:
        for trace, units in ((False, end_to_end), (True, per_layer)):
            result, _ = run.run(workload, SEED, 0.0, trace, tiny=True)
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result.keys()
            assert result["correct"], (workload, trace)
            assert result["attempted"] >= 1
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == units, (workload,
                                  set(got.items()) ^ set(units.items()))
            for metric in result["metrics"].values():
                assert isinstance(metric["value"], (int, float)), metric
        print(f"ok   {workload}: end-to-end and per-layer metrics at tiny size")


def check_counters_repeat():
    for workload in run.WORKLOADS:
        deadline = time.monotonic() + run.DEADLINE_S
        first, second = (run._spawn("traced", workload, SEED, True, deadline)
                         for _ in range(2))
        assert first["counters"] == second["counters"], workload
        assert any(first["counters"].values()), workload
    print("ok   traced counters repeat exactly for one seed")


def _broken(*args, **kwargs):
    raise RuntimeError("forced failure")


def check_forced_failures():
    original = solver.solve_linear
    solver.solve_linear = _broken
    try:
        raised = worker.run_pass("solver_grid", SEED, True, traced=False)
    finally:
        solver.solve_linear = original
    result, _ = run.summarize("solver_grid", SEED, 0.0, False,
                              [dict(raised, mode="plain", setup_s=0.0)], [0.0])
    solves = sum(1 for name, _ in raised["failures"]
                 if name.startswith("solve_linear"))
    assert solves == result["failed"] > 0, raised["failures"]
    share = result["metrics"]["pass_share"]["value"]
    assert share == 1.0 - result["failed"] / result["attempted"] < 1.0
    assert result["correct"], "an exception is a failure, not a wrong output"

    original = solver.getoor_profile
    solver.getoor_profile = lambda x, params: 0.9 * original(x, params)
    try:
        wrong = worker.run_pass("solver_grid", SEED, True, traced=False)
    finally:
        solver.getoor_profile = original
    result, _ = run.summarize("solver_grid", SEED, 0.0, False,
                              [dict(wrong, mode="plain", setup_s=0.0)], [0.0])
    assert result["failed"] >= 1 and not result["correct"], wrong["failures"]
    print("ok   forced failures are counted in failed, pass_share and correct")


def main():
    check_workloads()
    check_counters_repeat()
    check_forced_failures()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
