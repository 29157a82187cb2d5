"""Small measurement helpers: percentiles, /proc readers, result container."""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (``q`` in [0, 1]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_operation(repeats, statistic) -> list[float]:
    """Per operation, ``statistic`` over its repeats.

    ``repeats`` holds one list of seconds per repeat (pass, stream), aligned:
    position ``i`` is the same operation on the same state in every repeat.
    """
    return [statistic(samples) for samples in zip(*repeats)]


# ----------------------------------------------------------------------
# Machine speed
# ----------------------------------------------------------------------
#: Mean seconds of one :func:`reference_kernel` call on the quiet reference
#: box (2.1 GHz Xeon vCPU, CPython 3.11): the speed timings are reported at.
REFERENCE_KERNEL_S = 0.00530

_PROBE_TABLE = {str(number): (number, str(number * 31)) for number in range(500)}
_PROBE_KEYS = [str(number % 500) for number in range(40000)]


def reference_kernel() -> float:
    """A fixed slice of interpreter work; returns the seconds it took.

    Half of it builds strings and writes a dict, half of it reads a dict,
    unpacks tuples and fills a set — the kind of work the program does — in
    code that shares nothing with the program, so only the machine can
    change how long it takes.
    """
    started = time.perf_counter()
    counts: dict[str, int] = {}
    for number in range(8000):
        key = str(number * 7919 % 10007)
        counts[key] = counts.get(key, 0) + len(key)
    mixed = 0
    for key, count in counts.items():
        mixed ^= hash(key) & count
    table = _PROBE_TABLE
    seen: set[str] = set()
    for key in _PROBE_KEYS:
        number, text = table[key]
        mixed += number
        seen.add(text)
    return time.perf_counter() - started


class MachineSpeed:
    """How slow the machine is right now, measured beside the workload.

    The reference box is a shared VM: for seconds or minutes at a time
    everything on it, this kernel included, runs 5-90 % slower, and no
    statistic inside a run can remove a slow phase that outlasts the run.
    Slices of :func:`reference_kernel` are therefore interleaved with the
    timed operations of a phase (a tenth of the phase's time), and every
    end-to-end timing of the phase is divided by :meth:`slowdown`: the mean
    slice time over the reference time.  Both sides are plain means over
    the same stretch of time, so noise that does not care which code is
    running cancels; the timing reads as on the quiet reference box.
    README.md, "Steadiness", has the measurements.
    """

    #: Share of a phase's time spent in kernel slices by :meth:`tick`.
    SHARE = 0.10
    #: Slices taken before and after a one-off operation (a set-up).
    AROUND = 20

    def __init__(self) -> None:
        self.slices: list[float] = []
        self.begin()

    def begin(self) -> None:
        """Start a phase: :meth:`tick` and :meth:`slowdown` count from here."""
        self._first = len(self.slices)
        self._started = time.perf_counter()
        self._kernel_seconds = 0.0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            seconds = reference_kernel()
            self.slices.append(seconds)
            self._kernel_seconds += seconds

    def tick(self) -> None:
        """Between two timed operations: top the kernel's share up."""
        while self._kernel_seconds < self.SHARE * (
            time.perf_counter() - self._started
        ):
            self.sample()

    def slowdown(self) -> float:
        """Mean slice time of the phase over the reference time."""
        phase = self.slices[self._first:]
        return sum(phase) / len(phase) / REFERENCE_KERNEL_S


# ----------------------------------------------------------------------
# /proc readers (Linux; the reference box and the driver both are)
# ----------------------------------------------------------------------
_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def _read(path: str) -> str:
    try:
        with open(path, encoding="ascii", errors="replace") as handle:
            return handle.read()
    except OSError:
        return ""


def process_tree(root_pid: int) -> list[int]:
    """``root_pid`` and every live descendant (the server and its workers)."""
    parent_of: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        stat = _read(f"/proc/{entry}/stat")
        # "pid (comm) state ppid ..." — comm may contain spaces and parens.
        tail = stat.rpartition(")")[2].split()
        if len(tail) > 1:
            parent_of[int(entry)] = int(tail[1])
    tree = [root_pid]
    frontier = [root_pid]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, ppid in parent_of.items() if ppid == parent]
        tree.extend(children)
        frontier.extend(children)
    return tree


def peak_rss_mb(pids) -> float:
    """Sum of the peak resident set sizes (VmHWM) of ``pids`` in MB."""
    total_kb = 0
    for pid in pids:
        for line in _read(f"/proc/{pid}/status").splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def cpu_seconds(pids) -> float:
    """User + system CPU seconds consumed so far by ``pids``."""
    ticks = 0
    for pid in pids:
        tail = _read(f"/proc/{pid}/stat").rpartition(")")[2].split()
        if len(tail) > 12:
            ticks += int(tail[11]) + int(tail[12])
    return ticks / _CLK_TCK


def directory_bytes(directory: Path, suffix: str = "") -> int:
    """Total size of the regular files under ``directory``."""
    return sum(
        path.stat().st_size
        for path in directory.rglob(f"*{suffix}")
        if path.is_file()
    )


# ----------------------------------------------------------------------
# What a workload returns
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    """Outcome of one workload run (either tracing mode)."""

    workload: str
    seed: int
    traced: bool
    #: Operations attempted / failed (errors, refusals, incomplete or
    #: incorrect answers all count as failed).
    attempted: int = 0
    failed: int = 0
    #: The first few failure reasons, for the human-readable report.
    failures: list[str] = field(default_factory=list)
    #: Metric name -> value (end-to-end names untraced, per-layer traced).
    metrics: dict[str, float] = field(default_factory=dict)
    topk_digest: str = ""
    #: Free-form facts for the report (sample counts, pass counts, ...).
    notes: dict[str, object] = field(default_factory=dict)

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 5:
            self.failures.append(reason)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0
