"""The run record and the choice of tail percentile."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
from pathlib import Path

TAIL_LADDER_PERMILLE = (500, 750, 800, 900, 950, 990, 999)
TAIL_MIN_BEYOND = 10


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND of n samples
    strictly beyond it; the median when n is too small for any tail."""
    best = TAIL_LADDER_PERMILLE[0]
    for pm in TAIL_LADDER_PERMILLE:
        if n * (1000 - pm) >= TAIL_MIN_BEYOND * 1000:  # exact in integers
            best = pm
    return best / 10.0


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_sha(root: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(src: Path) -> str:
    """sha256 over the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            h.update(path.relative_to(src).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_pressure() -> float | None:
    """Share of the last 10 s in which some runnable task here waited for a
    CPU (Linux PSI), in percent; None where the kernel does not report it."""
    try:
        line = Path("/proc/pressure/cpu").read_text().splitlines()[0]
    except (OSError, IndexError):
        return None
    fields = dict(item.split("=") for item in line.split()[1:])
    return float(fields["avg10"])


def run_record(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": [round(x, 2) for x in os.getloadavg()],
        "cpu_pressure_before": cpu_pressure(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(root),
        "src_sha256": source_digest(root / "src" / "sandbox3d"),
        "seed": seed,
    }
