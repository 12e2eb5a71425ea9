"""Host record printed with every run: CPUs, interpreter, BLAS, cache size
against the workload's state, and the filesystem under the run's files."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np

_CACHE_ROOT = Path("/sys/devices/system/cpu/cpu0/cache")


def _size_bytes(text: str) -> int:
    text = text.strip().upper()
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def last_level_cache_bytes() -> int | None:
    """Size of the highest-level data or unified cache of CPU 0, if known."""
    best: tuple[int, int] | None = None
    try:
        for index in _CACHE_ROOT.glob("index*"):
            if (index / "type").read_text().strip() == "Instruction":
                continue
            level = int((index / "level").read_text())
            size = _size_bytes((index / "size").read_text())
            if best is None or level > best[0]:
                best = (level, size)
    except (OSError, ValueError):
        return None
    return best[1] if best else None


def filesystem(path: Path) -> dict:
    """Mount point, type and device of the filesystem holding *path*."""
    target = str(path.resolve())
    best = {"mount": None, "type": "unknown", "device": None}
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                device, mount, fstype = line.split()[:3]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best["mount"] or ""):
                    best = {"mount": mount, "type": fstype, "device": device}
    except OSError:
        pass
    return best


def blas() -> str:
    """The BLAS numpy was built against, as numpy reports it."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return " ".join(
        str(info.get(key, "")) for key in ("name", "version", "openblas configuration")
    ).strip()


def record(state_bytes: int, run_dir: Path) -> dict:
    """Everything a reader needs to place one run's numbers."""
    llc = last_level_cache_bytes()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": blas(),
        "llc_bytes": llc,
        "state_bytes": state_bytes,
        "state_over_llc": state_bytes / llc if llc else None,
        # Journal appends and checkpoints fsync here, so their times are
        # this filesystem's.
        "run_filesystem": filesystem(run_dir),
    }
