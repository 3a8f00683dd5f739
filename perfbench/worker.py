"""One benchmark pass in a fresh process; prints one JSON line.

    python3 perfbench/worker.py MODE WORKLOAD SEED TINY SPAWNED_AT

MODE is ``setup`` (import only), ``plain`` or ``traced``.  SPAWNED_AT is
the parent's ``time.monotonic()`` just before it started this process, so
``setup_s`` covers interpreter start, the numpy/scipy imports and the
import of every fraclab module: what a CLI user pays on each command.
The package is imported from the ``src`` directory of this checkout.
"""

import time
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import fraclab  # noqa: E402,F401  (imported for its set-up time)

READY = time.monotonic()

import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def _blas_threads(package):
    """Thread count of the OpenBLAS that ``package`` bundles, or None."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                          f"{package.__name__}.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment():
    """Machine and library facts that a timing depends on."""
    import numpy
    import scipy
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }
    for package in (numpy, scipy):
        name = package.__name__
        blas = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env[name] = package.__version__
        env[f"{name}_blas"] = f"{blas.get('name')} {blas.get('version')}"
        env[f"{name}_blas_threads"] = _blas_threads(package)
    return env


def run_pass(workload, seed, tiny, traced):
    """Run one workload once in this process; returns the pass record."""
    spans = tracer.Tracer().install() if traced else None
    start = time.perf_counter()
    outcome = workloads.WORKLOADS[workload](seed, tiny)
    wall = time.perf_counter() - start
    result = {
        "wall_s": wall, "attempted": outcome.attempted,
        "failed": outcome.failed, "incorrect": outcome.failed - outcome.raised,
        "failures": outcome.failures, "accuracy": outcome.accuracy,
        "digest": outcome.digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "env": environment(),
    }
    if spans is not None:
        result["layers"] = spans.metrics()
        result["counters"] = spans.counters()
    return result


def main(argv):
    mode, workload, seed, tiny, spawned_at = argv
    result = {"setup_s": READY - float(spawned_at)}
    if mode != "setup":
        result.update(run_pass(workload, int(seed), tiny == "1",
                               mode == "traced"))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
