"""Measurement helpers for the benchmark: percentiles, failure tallies,
span tracing with self time, layer patching, and run provenance.

Nothing here imports numpy or the package under test, so the helpers can
be unit-tested on their own and imported before the BLAS thread count is
pinned.
"""
from __future__ import annotations

import functools
import hashlib
import math
import os
import platform
import resource
import subprocess
import sys
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass, field


# ---------------------------------------------------------------- statistics

@dataclass(frozen=True)
class Percentile:
    q: float          # percentile level in [0, 100]
    value: float
    n: int            # sample count the value was taken from
    beyond: int       # samples strictly above the percentile's rank

    @property
    def resolved(self) -> bool:
        """A tail percentile is only reported with ten samples beyond it."""
        return self.beyond >= 10


def percentile(values, q: float) -> Percentile:
    """Linear-interpolation percentile (numpy's default) with its counts."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must lie in [0, 100]")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    value = data[lo] + (data[hi] - data[lo]) * (pos - lo)
    return Percentile(q=q, value=value, n=len(data), beyond=len(data) - 1 - lo)


def median(values) -> float:
    return percentile(values, 50.0).value


# ------------------------------------------------------------------ failures

@dataclass
class Tally:
    """Attempted and failed operations, with the first few reasons kept."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)
    keep: int = 5

    def record(self, label: str, problems) -> bool:
        """Count one operation; it fails if ``problems`` is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < self.keep:
                self.reasons.append(f"{label}: {'; '.join(problems)}")
        return not problems

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def rel_close(a: float, b: float, rtol: float, scale: float | None = None) -> bool:
    """|a - b| <= rtol * scale, with scale defaulting to max(|a|, |b|)."""
    if scale is None:
        scale = max(abs(a), abs(b))
    return abs(a - b) <= rtol * scale


# ------------------------------------------------------------------- tracing

@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the enclosing span, None at top level
    run_id: str
    work: float = 0.0    # optional work units (e.g. integrator steps)
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [span.duration - _covered(children.get(i, ()))
            for i, span in enumerate(spans)]


class Tracer:
    """Keeps spans in memory; wrapped functions record only while active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = "workload"
        self.active = False
        self._stack: list[int] = []

    def wrap(self, name: str, fn, work=None):
        """Return ``fn`` wrapped in a span; ``work(args, kwargs)`` gives its
        work units."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = Span(name, math.nan, math.nan,
                        self._stack[-1] if self._stack else None, self.run_id)
            if work is not None:
                span.work = work(args, kwargs)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                # the clock starts last so the span's own set-up is not timed
                span.start = time.perf_counter()
                return fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced

    @contextmanager
    def recording(self, run_id: str):
        previous = self.run_id, self.active
        self.run_id, self.active = run_id, True
        try:
            yield
        finally:
            self.run_id, self.active = previous

    def select(self, run_id: str | None = None, name: str | None = None):
        return [s for s in self.spans
                if (run_id is None or s.run_id == run_id)
                and (name is None or s.name == name)]


@contextmanager
def patched(tracer: Tracer, package: str, targets):
    """Replace each target function at every import site inside ``package``.

    ``targets`` maps a span name to ``(original_function, work_or_None)``.
    Module attributes and dict values (registries such as a table of
    figure generators) that are the original object are swapped for the
    wrapper, and restored on exit.
    """
    wrappers = {id(fn): tracer.wrap(name, fn, work)
                for name, (fn, work) in targets.items()}
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and not isinstance(value, types.ModuleType):
                undo.append((module.__dict__, attr, value))
                setattr(module, attr, wrappers[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if callable(item) and id(item) in wrappers:
                        undo.append((value, key, item))
                        value[key] = wrappers[id(item)]
    try:
        yield
    finally:
        for container, key, original in reversed(undo):
            container[key] = original


# ---------------------------------------------------------------- provenance

def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def src_fingerprint(src_dir: str) -> tuple[str, int]:
    """sha256 over the package sources and their total line count."""
    digest = hashlib.sha256()
    lines = 0
    for dirpath, dirnames, filenames in os.walk(src_dir):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            digest.update(os.path.relpath(path, src_dir).encode() + b"\0" + data)
            lines += data.count(b"\n")
    return digest.hexdigest(), lines


def git_commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unavailable ({exc})"
    return out.stdout.strip() or "unavailable"


def environment(root: str, src_dir: str, blas_threads: int) -> dict:
    import numpy
    import scipy

    sha, loc = src_fingerprint(src_dir)
    return {
        "nproc": nproc(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads,
        "git_commit": git_commit(root),
        "src_sha256": sha,
        "src_loc": loc,
    }
