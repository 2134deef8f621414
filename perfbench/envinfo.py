"""Environment record stored with every result.

Reads only files of this process, the checkout and /proc or /sys; starts no
process.  Fields that cannot be read are recorded as "unknown".
"""

import ctypes
import os
import platform


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def git_sha(root: str) -> str:
    head = _read(os.path.join(root, ".git", "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    sha = _read(os.path.join(root, ".git", ref)).strip()
    if sha:
        return sha
    for line in _read(os.path.join(root, ".git", "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _l3_size() -> str:
    return _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip() or "unknown"


def _openblas() -> list:
    """Version string and thread count of every OpenBLAS this process loaded."""
    paths = sorted(
        {line.split()[-1] for line in _read("/proc/self/maps").splitlines() if "openblas" in line.lower()}
    )
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        entry = {"library": os.path.basename(path)}
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode("ascii", "replace")
                    entry["threads"] = int(threads())
        found.append(entry)
    return found


def record(root: str) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "BREGPCG_THREADS": os.environ.get("BREGPCG_THREADS", "unset"),
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "l3_size": _l3_size(),
    }
