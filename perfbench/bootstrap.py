"""Import rackle from this checkout's ``src`` and describe the machine.

Both the benchmark and its set-up child call ``load_rackle`` first, so the
package measured is always the one in the checkout, never an installed copy,
and the two environment variables that change what rackle does are unset.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# RACKLE_THREADS would make enumeration parallel; RACKLE_ORDER24=0 would drop
# sl23 from the catalog sweeps. The benchmark measures the defaults.
SCRUBBED_ENV = ("RACKLE_THREADS", "RACKLE_ORDER24")


class SetupError(Exception):
    """The checkout cannot be benchmarked (no package, wrong package)."""


def load_rackle():
    for key in SCRUBBED_ENV:
        os.environ.pop(key, None)
    if not (SRC / "rackle" / "__init__.py").is_file():
        raise SetupError(f"no rackle package under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import rackle
    except ImportError as exc:
        raise SetupError(f"cannot import rackle from {SRC}: {exc}") from exc
    if Path(rackle.__file__).resolve().parent != SRC / "rackle":
        raise SetupError(f"imported rackle from {rackle.__file__}, not {SRC}")
    return rackle


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload": workload,
        "seed": seed,
    }
