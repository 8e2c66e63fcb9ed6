"""Machine facts recorded with every result.  Everything here is read only;
the benchmark sets no thread or BLAS variable, so it measures the defaults
users get."""

from __future__ import annotations

import os
import platform
import subprocess
import sys

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MAJORANA_PT_THREADS")


def _read(path: str) -> str | None:
    try:
        with open(path) as handle:
            return handle.read().strip()
    except OSError:
        return None


def cpu_limit() -> str | None:
    """cgroup v2 ``cpu.max``, else the v1 ``quota period`` pair in the same form."""
    value = _read("/sys/fs/cgroup/cpu.max")
    if value is not None:
        return value
    quota = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    if quota is None or period is None:
        return None
    return f"{'max' if quota == '-1' else quota} {period}"


def git_commit(root: str) -> str | None:
    """HEAD of ``root`` if it is itself a git work tree (never a parent's)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(root)))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def blas() -> str | None:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{deps.get('name')} {deps.get('version')}"


def collect(root: str) -> dict:
    import mpmath
    import numpy
    import scipy

    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": len(affinity) if affinity is not None else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cgroup_cpu_max": cpu_limit(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas(),
        "env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "git_commit": git_commit(root),
    }
