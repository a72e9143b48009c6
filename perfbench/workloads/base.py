"""What every workload shares: requests, passes and the closed loop.

A request is one public-API call the caller waits for, paired with the
check its output must pass.  A pass is one round over the workload's
fixed request list.  Throughputs come from the median latency of each
kind of request over the run, so one request slowed by a noisy neighbour
moves no figure.
"""

from __future__ import annotations

import sys
import threading
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterable

from perfbench.checks import CheckFailed
from perfbench.stats import median

#: Where runs leave their files, relative to the working directory.
OUT_DIR = ".perfbench-out"


class NullTracer:
    """Stands in for a :class:`~perfbench.spans.SpanRecorder` when the
    run is not traced."""

    def span(self, name: str, layer: str):
        return nullcontext()


NULL_TRACER = NullTracer()


@dataclass
class Request:
    """One call into the program and the check of its output."""

    name: str
    call: Callable[[], object]
    #: Returns ``(samples, interactions)`` or raises ``CheckFailed``.
    check: Callable[[object], tuple[int, int]]


@dataclass(frozen=True)
class Done:
    """One request that returned and passed its check."""

    name: str
    start: float
    end: float
    samples: int
    interactions: int

    @property
    def latency(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Rates:
    """Throughputs of one run."""

    jobs_per_s: float
    samples_per_s: float
    interactions_per_s: float


@dataclass
class Measurement:
    """Everything one closed loop measured."""

    done: list[Done] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Wall-clock bounds of the loop.
    start: float = 0.0
    end: float = 0.0
    #: Guards every update: client threads share one measurement.
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def fail(self, message: str) -> None:
        with self.lock:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(message)

    @property
    def latencies(self) -> list[float]:
        return [d.latency for d in self.done]


def execute(request: Request, tracer, record: Measurement) -> None:
    """Run one request: time the call, then check its output."""
    with tracer.span(request.name, "bench"):
        with record.lock:
            record.attempted += 1
        start = time.perf_counter()
        try:
            output = request.call()
        except Exception as exc:  # a failed operation, not a crash
            record.fail(f"{request.name}: {exc!r}")
            traceback.print_exc(file=sys.stderr)
            return
        end = time.perf_counter()
        with tracer.span("check_output", "bench"):
            try:
                samples, interactions = request.check(output)
            except CheckFailed as exc:
                record.fail(f"{request.name}: {exc}")
                return
    done = Done(request.name, start, end, samples, interactions)
    with record.lock:
        record.done.append(done)


class Workload:
    """A seeded closed loop over the public API.

    Subclasses set :attr:`name` and :attr:`why`, do their imports and
    warm-up in :meth:`setup`, draw their inputs in :meth:`make_inputs`
    and either list each pass's requests in :meth:`pass_requests` (one
    caller) or override :meth:`run`, :meth:`rates` and
    :meth:`p50_latency`.
    """

    name = ""
    why = ""
    #: Client threads issuing requests concurrently.
    threads = 1
    #: Index of the next pass; fresh replicate seeds every pass.
    _next_pass = 0

    def setup(self) -> None:
        """Imports, protocol construction, table compile, warm-up."""
        raise NotImplementedError

    def make_inputs(self, seed: int, seconds: float) -> None:
        """Draw every input from ``seed`` for a run of ``seconds``
        (never timed)."""
        raise NotImplementedError

    def pass_requests(self, k: int) -> Iterable[Request]:
        """The requests of pass ``k``."""
        raise NotImplementedError

    def run(self, seconds: float, tracer=NULL_TRACER) -> Measurement:
        """Issue requests pass after pass until ``seconds`` have gone."""
        record = Measurement(start=time.perf_counter())
        while True:
            for request in self.pass_requests(self._next_pass):
                if time.perf_counter() - record.start >= seconds:
                    record.end = time.perf_counter()
                    self._next_pass += 1
                    return record
                execute(request, tracer, record)
            self._next_pass += 1

    def rates(self, record: Measurement) -> Rates:
        """Throughput of a typical pass: each kind of request costs its
        median latency and delivers its median work."""
        kinds: dict[str, list[Done]] = defaultdict(list)
        for d in record.done:
            kinds[d.name].append(d)
        seconds = sum(median([d.latency for d in ds]) for ds in kinds.values())
        return Rates(
            jobs_per_s=len(kinds) / seconds,
            samples_per_s=sum(
                median([d.samples for d in ds]) for ds in kinds.values()
            ) / seconds,
            interactions_per_s=sum(
                median([d.interactions for d in ds]) for ds in kinds.values()
            ) / seconds,
        )

    def p50_latency(self, record: Measurement) -> float:
        """Median request of a typical pass: the median over request
        kinds of each kind's median latency.  (The median of all
        latencies would fall between two kinds and read the extremes
        of both.)"""
        kinds: dict[str, list[float]] = defaultdict(list)
        for d in record.done:
            kinds[d.name].append(d.latency)
        return median([median(lat) for lat in kinds.values()])

    def final_checks(self) -> list[str]:
        """Checks that need the whole run; returns problems found."""
        return []

    def worker_crashes(self) -> int:
        return 0

    def headlines(self, record: Measurement) -> list[tuple[str, str, str]]:
        """``(name, value, unit)`` rows printed beside the metrics for
        figures ``BENCHMARK.json`` has no slot for."""
        return []

    def close(self) -> None:
        """Release pools and other resources."""
