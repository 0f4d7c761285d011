"""Where a benchmark record came from: code, backend, machine and seed."""

from __future__ import annotations

import hashlib
import os
import platform
import sys

THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "RANDMAP_WORKERS",
    "RANDMAP_FORCE_FALLBACK",
)


def git_sha(root: str):
    """HEAD of a git checkout at root, read from .git; None outside git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except (FileNotFoundError, NotADirectoryError):
        return None
    return None


def source_sha256(root: str) -> str:
    """Digest of every file under src/, so records of one source tree match without git."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def provenance(root: str, seed: int) -> dict:
    import mpmath
    import numpy
    import scipy

    import randmap

    return {
        "backend": randmap.kernel_backend,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "python_executable": sys.executable,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "machine": platform.machine(),
        "git_sha": git_sha(root),
        "source_sha256": source_sha256(root),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "seed": seed,
    }
