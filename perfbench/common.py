"""Shared plumbing of the repo benchmark: paths, statistics, provenance.

Every workload module imports the program under test through
:func:`bootstrap`, which insists on the checkout's own ``src/`` tree, so a
run can never measure an installed copy of ``repro`` by accident.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
"""The checkout the benchmark runs in (it is started from the root)."""
SRC = ROOT / "src"
RESULTS = ROOT / "results"
SCRATCH = ROOT / ".perfbench"
"""Per-run scratch space (artifact stores, service state, span dumps)."""

WORKLOADS = ("campaign-web", "suite-cold", "serve-mixed")


class BenchFailure(Exception):
    """The benchmark cannot produce a result (missing program, bad setup)."""


def bootstrap() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``; fail without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchFailure(
            f"no program source under {SRC}: run the benchmark from the root "
            f"of a repro checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchFailure(f"imported repro from {repro.__file__}, not {SRC}")


def child_env() -> dict[str, str]:
    """Environment for subprocesses that import the checkout's program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def scratch_dir(name: str) -> Path:
    """A fresh, empty directory under :data:`SCRATCH`."""
    path = SCRATCH / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def median(values: list[float]) -> float:
    if not values:
        raise BenchFailure("median of no samples")
    return float(statistics.median(values))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q < 100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def tail_percentile(values: list[float], q: float) -> float:
    """``q``-th percentile, only where at least ten samples lie beyond it.

    A tail read off fewer samples is a copy of the largest few values, not a
    tail; asking for one is a benchmark bug.
    """
    beyond = len(values) * (100 - q) / 100
    if beyond < 10:
        raise BenchFailure(
            f"p{q:g} needs >= 10 samples beyond it; have {len(values)} "
            f"samples ({beyond:.1f} beyond)"
        )
    return percentile(values, q)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; 0.0 for an empty base (reported with it)."""
    return numerator / denominator if denominator else 0.0


def peak_rss_mb_self() -> float:
    """Peak resident set of this process, in MB (Linux ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set (VmHWM) of another live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchFailure(f"no VmHWM for pid {pid}")


def cpu_steal_s() -> float:
    """Seconds the hypervisor has taken from this machine's CPUs, all CPUs
    summed (the ``steal`` column of ``/proc/stat``); 0.0 where unreadable.

    A run whose steal grew was descheduled by the host: its figures are
    the host's contention, not the program's speed.
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def git_sha() -> str:
    """The checkout's commit, or ``unknown`` outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def provenance() -> dict[str, object]:
    import numpy

    return {
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "unix_time": round(time.time(), 3),
    }


def run_setup_probes(workload: str, count: int) -> list[float]:
    """Time ``count`` cold set-ups of ``workload`` in fresh interpreters.

    Each child runs the same set-up code as the measuring process and
    prints its own set-up seconds; imports and warm-up therefore count
    exactly as they do for the run itself.
    """
    seconds = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")),
             "--setup-probe", workload],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        if out.returncode != 0:
            raise BenchFailure(
                f"set-up probe for {workload} failed: {out.stderr[-2000:]}"
            )
        seconds.append(float(out.stdout.strip().splitlines()[-1]))
    return seconds
