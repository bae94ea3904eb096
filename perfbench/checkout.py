"""Where the benchmark runs: the checkout root, its sources, its scratch
space, and the environment block recorded with every result."""

from __future__ import annotations

import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")


class CheckoutError(Exception):
    pass


def use_source() -> None:
    """Import enclavesim from this checkout's src/ and nowhere else."""
    package = os.path.join(SOURCE, "enclavesim", "__init__.py")
    if not os.path.isfile(package):
        raise CheckoutError(f"no enclavesim sources at {SOURCE}")
    if SOURCE not in sys.path:
        sys.path.insert(0, SOURCE)
    import enclavesim

    if os.path.dirname(os.path.abspath(enclavesim.__file__)) != os.path.dirname(package):
        raise CheckoutError(f"enclavesim imported from {enclavesim.__file__}, "
                            f"not from {SOURCE}")


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment() -> dict:
    import cryptography

    return {
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "note": ("servers and clients talk over loopback TCP and containers sit "
                 "in a warm page cache, so latencies are this host's and not "
                 "a network's or a storage device's"),
    }
