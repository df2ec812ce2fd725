"""Shared plumbing: the run sandbox, percentiles, and peak RSS.

Everything a run writes (cost caches, the daemon socket, persisted
JSONL, temp dirs of the real runtimes) lives in one directory under
the checkout, removed when the run ends; only the traced run's span
dump is kept, beside it.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import sys
import tempfile

#: Per-run scratch root, relative to the checkout (git-ignored).
RUN_ROOT = ".perfbench_run"


class Sandbox(object):
    """The run's private directory and the environment pointing at it."""

    def __init__(self, root: str) -> None:
        self.dir = os.path.join(RUN_ROOT, str(os.getpid()))
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        tmp = self.path("tmp")
        os.makedirs(tmp)
        os.environ["TMPDIR"] = os.path.abspath(tmp)
        tempfile.tempdir = None  # re-read TMPDIR
        os.environ["REPRO_CACHE_DIR"] = os.path.abspath(
            self.path("cache")
        )
        src = os.path.join(os.path.abspath(root), "src")
        if src not in sys.path:
            sys.path.insert(0, src)
            path = os.environ.get("PYTHONPATH")
            os.environ["PYTHONPATH"] = src + (
                os.pathsep + path if path else "")
        self._n = 0

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def fresh(self, prefix: str) -> str:
        """A new empty directory (relative path) inside the sandbox."""
        self._n += 1
        path = self.path(f"{prefix}-{self._n}")
        os.makedirs(path)
        return path

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(RUN_ROOT)
        except OSError:
            pass  # another run's directory is still there


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set (VmHWM) of a live process, in KiB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def child_pids(pid: int) -> list[int]:
    """Live direct children of ``pid`` (scans ``/proc``)."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and fields[1] == str(pid):
            out.append(int(entry))
    return sorted(out)


def tree_hwm_mb(pid: int) -> float:
    """Sum of the peak RSS of ``pid`` and its live children, in MiB."""
    total = vm_hwm_kb(pid) + sum(vm_hwm_kb(c) for c in child_pids(pid))
    return total / 1024.0


def reaped_children_max_mb() -> float:
    """Largest peak RSS of any child this process has waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
