"""Paths, thread pinning, the benchmark's own data generator and provenance.

Importing this module pins the BLAS/OpenMP thread pools to one thread,
so it must be imported before numpy.  It imports nothing heavy itself:
the set-up probe times ``import rdbw`` after importing it.
"""

import hashlib
import os
import platform
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")

# numpy links a multithreaded OpenBLAS; with the two pool workers on two
# cores its threads would oversubscribe the machine, so every process runs one.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

if SRC not in sys.path:
    sys.path.insert(0, SRC)

WORKLOADS = ("mc_n500", "select_n5e5", "cli_csv_2e5")

# design1 of the paper's simulation, written out here so that the inputs of
# select_n5e5 do not depend on the program under test
_PROB_SHIFT = 1.28
_SLOPES_PLUS = (18.49, -54.8, 74.3, -45.02, 9.83)
_SLOPES_MINUS = (2.99, 3.28, 1.45, 0.22, 0.03)
_INTERCEPT_TREATED = -0.17
_INTERCEPT_CONTROL = 4.13
_ERROR_SD = 0.1295


def design1_arrays(seed, n, index=0):
    """(x, y, d) float arrays of one design1 sample, a pure function of the arguments."""
    import numpy as np
    from scipy.special import ndtr

    rng = np.random.default_rng([20_151_509, seed, index])
    x = 2.0 * rng.beta(2.0, 4.0, n) - 1.0
    p = ndtr(x + np.where(x >= 0.0, _PROB_SHIFT, -_PROB_SHIFT))
    d = (rng.uniform(size=n) < p).astype(float)
    trend = np.zeros(n)
    for slopes, side in ((_SLOPES_PLUS, x > 0.0), (_SLOPES_MINUS, x <= 0.0)):
        acc = np.zeros(int(side.sum()))
        for b in reversed(slopes):
            acc = x[side] * (acc + b)
        trend[side] = acc
    y = np.where(d == 1.0, _INTERCEPT_TREATED, _INTERCEPT_CONTROL) + trend
    return x, y + rng.normal(0.0, _ERROR_SD, n), d


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    # the benchmark may run from an export without .git; read no further up
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "rdbw")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(workload, seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }
