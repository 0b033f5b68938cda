"""Shared plumbing for the perfbench workloads: paths, timing, statistics, results.

Every workload module exposes ``run(config, clock, tracer) -> Outcome``;
``run.py`` turns the outcome into the one-line JSON result the benchmark
prints last.
"""

from __future__ import annotations

import gc
import json
import math
import os
import shutil
import statistics
import sys
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

#: Repository root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes lives under here (listed in the root .gitignore).
WORK_ROOT = ROOT / ".perfbench_work"
TRACE_DIR = WORK_ROOT / "traces"


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/`` (there is no install step)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for subprocesses that must import ``repro`` from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Config:
    """One invocation: which workload, its inputs and how long to measure."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    #: Seed of the training corpora / models; fixed so every run serves and
    #: structures with the same model whatever ``seed`` draws as inputs.
    train_seed: int = 0
    #: Size knobs; the self-test shrinks them, the benchmark never does.
    scale: str = "full"


@dataclass
class Outcome:
    """What a workload hands back: counts, metrics and failed checks."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Figures printed for reference (never part of the gated result).
    notes: dict[str, object] = field(default_factory=dict)


class WorkDir:
    """A per-run scratch directory under ``.perfbench_work``, removed on exit."""

    def __init__(self, label: str) -> None:
        self.path = WORK_ROOT / f"{label}-{os.getpid()}"

    def __enter__(self) -> Path:
        if self.path.exists():
            shutil.rmtree(self.path)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *_exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values, share: float) -> float:
    """Linear-interpolated percentile (``share`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * share
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def dir_bytes(path: Path) -> tuple[int, int]:
    """``(total bytes, file count)`` of the regular files directly in ``path``."""
    total = files = 0
    for entry in path.iterdir():
        if entry.is_file():
            total += entry.stat().st_size
            files += 1
    return total, files


def result_line(outcome: Outcome) -> str:
    return json.dumps(
        {
            "correct": not outcome.problems,
            "attempted": int(outcome.attempted),
            "failed": int(outcome.failed),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in outcome.metrics.items()
            },
        },
        sort_keys=False,
    )


class Zipf:
    """A Zipf law (exponent ``s``) over ``names`` in rank order, drawn stratified.

    ``draw(rng, k)`` takes one point from each of ``k`` equal-probability
    slices of the distribution, so every run sees the same mix of head and
    tail terms whatever the seed picks inside each slice.
    """

    def __init__(self, names, s: float) -> None:
        self.names = list(names)
        weights = list(accumulate((rank + 1) ** -s for rank in range(len(self.names))))
        self.cumulative = [weight / weights[-1] for weight in weights]

    def draw(self, rng, count: int) -> list[str]:
        points = [(slot + rng.random()) / count for slot in range(count)]
        rng.shuffle(points)
        last = len(self.names) - 1
        return [self.names[min(bisect_left(self.cumulative, point), last)] for point in points]


class Deadline:
    """Measured-phase clock: rounds start only while time remains."""

    def __init__(self, seconds: float, *, min_rounds: int) -> None:
        self.seconds = seconds
        self.min_rounds = min_rounds
        self.started = time.perf_counter()
        self.rounds = 0

    def another_round(self) -> bool:
        if self.rounds < self.min_rounds:
            return True
        return time.perf_counter() - self.started < self.seconds


#: What the host-speed probe takes on this benchmark's reference host at
#: full speed; measured times are reported scaled to it (see ``scale``).
PROBE_REFERENCE_S = 0.022
_PROBE_WORDS = [f"w{number:05d}x" for number in range(20_000)]


def _timed_probe() -> float:
    """Seconds a fixed pure-Python workload takes now: a host-speed probe.

    The 2-core host this benchmark runs on alternates, for seconds to
    minutes at a time, between full speed and states up to ~2x slower;
    whole runs can land in a slow spell.  Probes between rounds, while the
    program is idle, say how fast the host was around each round.

    The probe mixes an integer loop with dict, string and JSON work.  In
    slow spells the program slows more than the integer loop alone and less
    than the dict/JSON part alone; with the two parts at about 10 ms and
    12 ms, a slow spell moves program time and probe time in proportion
    (model, chartag and index-build calls timed between probes: the scaled
    times of the slowest and fastest halves of the probes differ by 0-4%,
    against 13-15% with the integer loop alone).  The garbage collector is
    off during the probe so the program's heap does not weigh on it; the
    probe frees everything it allocates.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        total = 0
        for value in range(150_000):
            total += value * value % 7
        for _ in range(2):
            counts: dict[str, int] = {}
            for number in range(12_000):
                word = _PROBE_WORDS[number * 7919 % len(_PROBE_WORDS)]
                counts[word] = counts.get(word, 0) + len(word.upper())
            ordered = sorted(counts, key=counts.get)
            json.loads(json.dumps([{"k": word, "v": counts[word]} for word in ordered[:3000]]))
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


#: Child processes of the program (the server) whose CPU time ``probe`` watches.
_WATCHED_PIDS: set[int] = set()
_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")
#: A probe is retaken when the program used more CPU during it than this
#: share of the probe's time, and given up after ``PROBE_ATTEMPTS`` tries.
BUSY_SHARE = 0.1
PROBE_ATTEMPTS = 5
#: ``retaken``: probes retaken because the program was busy; ``busy``:
#: probes that never found the program idle (the run is then not correct).
PROBE_STATS = {"retaken": 0, "busy": 0}


def watch(pid: int) -> None:
    """Count the CPU time of child process ``pid`` as the program's in ``probe``."""
    _WATCHED_PIDS.add(pid)


def unwatch(pid: int) -> None:
    _WATCHED_PIDS.discard(pid)


def _program_cpu_s() -> float:
    """CPU seconds the program has used outside the calling thread.

    That is this process's other threads and every watched child process
    (utime + stime from ``/proc/<pid>/stat``, in clock ticks).
    """
    total = time.process_time() - time.thread_time()
    for pid in _WATCHED_PIDS:
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        total += (int(fields[11]) + int(fields[12])) * _TICK_S
    return total


def probe() -> float:
    """A host-speed probe (:func:`_timed_probe`) taken while the program is idle.

    Scaling by a probe assumes the probe had the host to itself.  A program
    that burns CPU between requests or rounds would slow the probe, shrink
    the scale factor and read as a speedup, so a probe during which the
    program's other threads or watched processes used more than
    ``BUSY_SHARE`` of the probe's time is retaken.  One tick of a watched
    process (10 ms) is already more than that, so a process that uses a
    little CPU now and then costs a retake now and then; after
    ``PROBE_ATTEMPTS`` busy tries the probe is counted in
    ``PROBE_STATS["busy"]`` and ``run.py`` marks the run not correct.
    """
    for _attempt in range(PROBE_ATTEMPTS):
        used = _program_cpu_s()
        reading = _timed_probe()
        if _program_cpu_s() - used <= BUSY_SHARE * reading:
            return reading
        PROBE_STATS["retaken"] += 1
    PROBE_STATS["busy"] += 1
    return reading


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two probes into reference-host time."""
    return PROBE_REFERENCE_S / ((before + after) / 2.0)


class SetupClock:
    """Set-up time from the process's start, scaled to reference host speed lap by lap.

    A workload cuts its set-up into laps where it passes from one job to the
    next (training, corpus and index builds, server start, warm-up) and
    calls :meth:`lap` at each cut; the last call ends set-up.  A probe ends
    every lap and each lap's time is scaled by the probes on either side of
    it, as the measured phase's times are, so a set-up that lands in a slow
    spell of the host reads like one that does not, while work added to
    set-up still shows in full.  The probes' own time is left out.
    """

    def __init__(self, start: float) -> None:
        self.raw_s = self.scaled_s = 0.0
        self.probes: list[float] = []
        self._lap_started = start
        self.lap()

    def lap(self) -> None:
        ended = time.perf_counter()
        if not self.probes:
            _timed_probe()  # a process's first probe reads 5-15% slow
        reading = probe()
        before = self.probes[-1] if self.probes else reading
        self.raw_s += ended - self._lap_started
        self.scaled_s += (ended - self._lap_started) * scale(before, reading)
        self.probes.append(reading)
        self._lap_started = time.perf_counter()
