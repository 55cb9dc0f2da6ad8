"""CPU time and peak resident memory of the driver and its Ray workers, read
from /proc (no psutil).

Ray workers are the driver's descendant processes whose command line starts
with ``ray::`` (the worker process title); Ray's own daemons (raylet, GCS,
log monitor) are not counted.
"""

from __future__ import annotations

import os

_TICK = os.sysconf("SC_CLK_TCK")


def _read(path: str, mode: str = "r"):
    try:
        with open(path, mode) as f:
            return f.read()
    except OSError:  # the process exited between listing and reading
        return None


def _stat_fields(pid: int) -> list[str] | None:
    raw = _read(f"/proc/{pid}/stat")
    if raw is None:
        return None
    # comm (field 2) may hold spaces; fields after it start past the ')'
    return raw[raw.rindex(")") + 2:].split()


def _children() -> dict[int, list[int]]:
    """ppid -> live (non-zombie) child pids."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            f = _stat_fields(int(name))
            if f is not None and f[0] != "Z":
                children.setdefault(int(f[1]), []).append(int(name))
    return children


def descendants(root: int | None = None) -> list[int]:
    """Every live descendant process of root (default: this process)."""
    children = _children()
    out, todo = [], list(children.get(root or os.getpid(), []))
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, []))
    return out


def worker_pids() -> list[int]:
    """This process (the driver) plus every descendant Ray worker."""
    return [os.getpid()] + [
        pid for pid in descendants()
        if (_read(f"/proc/{pid}/cmdline", "rb") or b"").startswith(b"ray::")]


def cpu_seconds(pids: list[int]) -> dict[int, float]:
    """user + system CPU seconds per pid."""
    out = {}
    for pid in pids:
        f = _stat_fields(pid)
        if f is not None:
            out[pid] = (int(f[11]) + int(f[12])) / _TICK
    return out


def reset_peak_rss(pids: list[int]) -> None:
    """Reset each process's VmHWM to its current RSS (clear_refs 5)."""
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as f:
                f.write("5")
        except OSError:
            pass


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of VmHWM (peak resident set since the last reset), in MB."""
    total_kb = 0
    for pid in pids:
        raw = _read(f"/proc/{pid}/status")
        if raw is None:
            continue
        for line in raw.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024


class JobMeter:
    """CPU seconds and peak RSS of the driver and Ray workers over one job."""

    def start(self) -> None:
        self.pids = worker_pids()
        reset_peak_rss(self.pids)
        self.cpu0 = cpu_seconds(self.pids)

    def stop(self) -> tuple[float, float]:
        pids = worker_pids()
        cpu1 = cpu_seconds(pids)
        cpu = sum(v - self.cpu0.get(pid, 0.0) for pid, v in cpu1.items())
        return cpu, peak_rss_mb(pids)

