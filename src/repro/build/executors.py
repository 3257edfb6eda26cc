"""Pluggable execution strategies for sharded label construction.

The construction fan-out of :mod:`repro.build.plan` is expressed as one shape:
``executor.map(build_shard, tasks)`` over picklable task descriptions, with
the results merged back in task order.  Because every shard's contribution is
an XOR term of the final labels (Proposition 2: a vertex label is the XOR of
its incident edges' parity-check rows), the merge is order- and
partition-insensitive, so **every executor produces bit-identical labelings**
— the conformance suite in ``tests/test_build_executors.py`` asserts equality
of whole-snapshot bytes.

Two strategies conform to :class:`BuildExecutor`:

``SerialExecutor``
    A plain comprehension on the calling thread.  The default; zero overhead,
    exactly the pre-``repro.build`` behavior.

``ProcessExecutor``
    A shared :class:`~concurrent.futures.ProcessPoolExecutor` — the
    multiprocessing fan-out the ROADMAP asked for.  Tasks and results cross
    process boundaries, so shard inputs are plain data (see
    :mod:`repro.build.shards`).

Selection is normalized by :func:`resolve_executor`; the
``REPRO_BUILD_EXECUTOR`` environment variable (mirroring
``REPRO_GF2_BACKEND``) overrides the default for whole runs, e.g.
``REPRO_BUILD_EXECUTOR=process`` or ``REPRO_BUILD_EXECUTOR=process:4``.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import (TYPE_CHECKING, Callable, Protocol, Sequence,
                    runtime_checkable)

if TYPE_CHECKING:
    from multiprocessing.context import BaseContext

#: Environment variable selecting the default executor
#: (``serial`` / ``process[:N]``).
EXECUTOR_ENV_VAR = "REPRO_BUILD_EXECUTOR"

#: The conforming strategy names, in documentation order.
EXECUTOR_NAMES = ("serial", "process")


def default_jobs() -> int:
    """Worker count when none is requested: one per CPU."""
    return os.cpu_count() or 1


@runtime_checkable
class BuildExecutor(Protocol):
    """The contract every build execution strategy satisfies.

    ``map`` applies ``fn`` to every task and returns the results **in task
    order** (the plan's merge relies on positional correspondence); ``name``
    and ``jobs`` feed the :class:`~repro.build.plan.BuildReport`.  ``close``
    releases pooled workers and must be idempotent — executors are reusable
    across many builds until closed.
    """

    name: str
    jobs: int

    def map(self, fn: Callable, tasks: Sequence) -> list: ...

    def close(self) -> None: ...


class SerialExecutor:
    """Run every shard inline on the calling thread (the default)."""

    name = "serial"
    jobs = 1

    def map(self, fn: Callable, tasks: Sequence) -> list:
        return [fn(task) for task in tasks]

    def close(self) -> None:
        pass

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ProcessExecutor:
    """Fan shards out to a shared process pool (true CPU parallelism).

    The pool is created on first :meth:`map` and reused across builds (the
    tier-1 suite under ``REPRO_BUILD_EXECUTOR=process`` constructs dozens of
    labelings; one pool amortizes worker startup across all of them).  All
    pool handling is lock-protected so concurrent builds may share one
    executor instance.

    Shard functions and tasks must be picklable: the plan only ever submits
    the module-level :func:`repro.build.shards.build_shard` with plain-data
    task dicts, so this holds by construction.

    Measured with ``benchmarks/bench_build_parallel.py`` (pool warmed) on a
    2-CPU host, ``process:2`` never beat serial: it ran at 0.66-1.0x of
    serial speed at n=300, 0.69-0.72x at n=600 and 0.66-0.87x at n=1200,
    across runs.  CI's ``bench-strict`` job, which gates a 1.5x speedup at
    n=480 f=7, is the only place it is asserted to win.
    """

    name = "process"

    def __init__(self, jobs: int | None = None):
        if jobs is not None and jobs < 1:
            raise ValueError("executor jobs must be at least 1, got %d" % jobs)
        self.jobs = jobs if jobs is not None else default_jobs()
        self._pool: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()
        self._closed = False

    def _ensure_pool(self) -> ProcessPoolExecutor:
        import multiprocessing

        with self._lock:
            if self._closed:
                raise RuntimeError("process executor is closed")
            if self._pool is None:
                # The pool is created lazily, possibly after the embedding
                # process grew threads (the query server's session workers,
                # test harnesses) — plain fork from a threaded parent can
                # deadlock a worker on an inherited lock.  forkserver forks
                # every worker from one clean, single-threaded server process
                # instead (the parent's sys.path travels in the spawn
                # preparation data, so src-layout imports keep working);
                # platforms without it (Windows) use their spawn default.
                context: BaseContext | None
                try:
                    context = multiprocessing.get_context("forkserver")
                except ValueError:  # pragma: no cover - no forkserver
                    context = None
                self._pool = ProcessPoolExecutor(max_workers=self.jobs,
                                                 mp_context=context)
            return self._pool

    def map(self, fn: Callable, tasks: Sequence) -> list:
        tasks = list(tasks)
        if len(tasks) <= 1:
            with self._lock:
                if self._closed:
                    raise RuntimeError("process executor is closed")
            # One shard gains nothing from the pool; skip the round-trip and
            # the pickling entirely.
            return [fn(task) for task in tasks]
        pool = self._ensure_pool()
        try:
            return list(pool.map(fn, tasks))
        except BrokenExecutor:
            # A killed worker (OOM, segfault) breaks the pool permanently;
            # executors are shared and long-lived, so drop the carcass and
            # let the next map start a fresh pool instead of failing forever.
            with self._lock:
                if self._pool is pool:
                    self._pool = None
            pool.shutdown(wait=False)
            raise

    def close(self) -> None:
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __repr__(self) -> str:
        return "ProcessExecutor(jobs=%d)" % self.jobs


_EXECUTOR_CLASSES: dict[str, Callable[..., BuildExecutor]] = {
    "serial": SerialExecutor,
    "process": ProcessExecutor,
}

#: Executors resolved from string specs are cached and shared so repeated
#: builds (and the whole test suite under the env override) reuse one pool.
_shared_executors: dict[tuple, BuildExecutor] = {}
_shared_lock = threading.Lock()


def available_executors() -> tuple:
    """The conforming strategy names (for CLI help and error messages)."""
    return EXECUTOR_NAMES


def _parse_spec(spec: str) -> tuple:
    """Split ``"process:4"`` / ``"process"`` / ``"serial"`` into (name, jobs)."""
    name, separator, count = spec.strip().lower().partition(":")
    jobs = None
    if separator:
        if not count.isdigit() or int(count) < 1:
            raise ValueError("bad executor spec %r: job count must be a "
                             "positive integer" % spec)
        jobs = int(count)
    if name not in _EXECUTOR_CLASSES:
        raise ValueError("unknown build executor %r (expected one of: %s, "
                         "optionally with :N workers)"
                         % (spec, ", ".join(EXECUTOR_NAMES)))
    if name == "serial" and jobs not in (None, 1):
        raise ValueError("the serial executor runs exactly one job, got %r" % spec)
    return name, jobs


def _shared_executor(name: str, jobs: int | None) -> BuildExecutor:
    key = (name, jobs)
    with _shared_lock:
        executor = _shared_executors.get(key)
        # A closed executor must not poison the cache: callers are allowed to
        # close() what resolve_executor handed them, and the next resolve of
        # the same spec gets a fresh instance.
        if executor is None or getattr(executor, "_closed", False):
            executor = _shared_executors[key] = _EXECUTOR_CLASSES[name]() \
                if name == "serial" else _EXECUTOR_CLASSES[name](jobs)
        return executor


def resolve_executor(executor: "BuildExecutor | str | None" = None,
                     jobs: int | None = None) -> BuildExecutor:
    """Normalize every entry point's ``executor=`` / ``jobs=`` onto one strategy.

    Precedence:

    * a :class:`BuildExecutor` instance is used as-is (``jobs`` must then be
      omitted — two sources of truth would be ambiguous);
    * a string spec (``"serial"`` or ``"process"``, optionally ``":N"``)
      selects a shared instance; a separate ``jobs=`` fills in the worker
      count when the spec has none;
    * ``jobs=N`` alone means "just parallelize": ``N > 1`` selects the
      process executor with ``N`` workers, ``N == 1`` the serial one;
    * with neither given, the ``REPRO_BUILD_EXECUTOR`` environment variable
      decides, and its absence means serial — the historical behavior.
    """
    if executor is not None and not isinstance(executor, str):
        if not isinstance(executor, BuildExecutor):
            raise TypeError("executor must be a BuildExecutor or a spec string, "
                            "got %r" % type(executor).__name__)
        if jobs is not None and jobs != executor.jobs:
            raise ValueError("jobs=%d conflicts with the executor's %d workers; "
                             "pass one or the other" % (jobs, executor.jobs))
        return executor
    if jobs is not None and jobs < 1:
        raise ValueError("jobs must be at least 1, got %d" % jobs)
    if executor is not None:
        name, spec_jobs = _parse_spec(executor)
        if jobs is not None and spec_jobs is not None and jobs != spec_jobs:
            raise ValueError("jobs=%d conflicts with executor spec %r"
                             % (jobs, executor))
        effective = spec_jobs if spec_jobs is not None else jobs
        if name == "serial" and effective not in (None, 1):
            # Same conflict "serial:4" raises in _parse_spec; asking for N
            # workers must never silently build serially.
            raise ValueError("jobs=%d conflicts with the serial executor"
                             % effective)
        return _shared_executor(name, effective)
    if jobs is not None:
        return _shared_executor("serial" if jobs == 1 else "process",
                                None if jobs == 1 else jobs)
    env = os.environ.get(EXECUTOR_ENV_VAR, "").strip()
    if env:
        name, spec_jobs = _parse_spec(env)
        return _shared_executor(name, spec_jobs)
    return _shared_executor("serial", None)


__all__ = [
    "BuildExecutor",
    "SerialExecutor",
    "ProcessExecutor",
    "EXECUTOR_ENV_VAR",
    "EXECUTOR_NAMES",
    "available_executors",
    "default_jobs",
    "resolve_executor",
]
