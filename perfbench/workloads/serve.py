"""``serve``: two client threads share one ``ServePool(max_workers=2)``,
each submitting a job and waiting for its reply before the next.

Jobs are small to-convergence ensembles (64 seeds) of Prop. 12, 13 and
14 at P in {4, 6, 8}, so the simulation kernel is small and pool
dispatch, the result memo, the artifact cache and the shared-memory
result transport weigh heavily.  (At 16 seeds a job took about 5 ms,
most of it process hand-offs, and throughput swung by a factor of two
with the host's CPU steal; 64 seeds keep each job's own work larger
than the hand-offs.)  A quarter of the jobs repeat an earlier
spec exactly: they take the memo path beside the compute path, so a
gain on one that costs the other shows.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import threading
import time

from perfbench.checks import (
    CheckFailed,
    check_converged_names,
    check_reference,
    check_repeat,
    result_digest,
)
from perfbench.stats import TooFewSamples, median, percentile
from perfbench.workloads.base import (
    NULL_TRACER,
    OUT_DIR,
    Measurement,
    Rates,
    Request,
    Workload,
    execute,
)
from perfbench.workloads.factories import scheduler_factory, uniform_start

PROTOCOLS = (
    "AsymmetricNamingProtocol",
    "SymmetricGlobalNamingProtocol",
    "LeaderUniformNamingProtocol",
)
BOUNDS = (4, 6, 8)
SEEDS_PER_JOB = 64
REPEAT_SHARE = 0.25
BUDGET = 1_000_000
WORKERS = 2
CLIENTS = 2
#: Jobs drawn per second of run time; more than the pool can serve.
JOBS_PER_SECOND = 400
#: Jobs compared against an in-process ``run_ensemble`` after the run.
REFERENCE_SAMPLE = 6
#: Width of the windows throughput is counted in.
WINDOW_S = 1.0


class Serve(Workload):
    name = "serve"
    why = (
        "many small 64-seed jobs from two waiting clients, a quarter "
        "repeated: pool dispatch, memo, artifact cache and shm transport "
        "weigh heavily"
    )
    threads = CLIENTS

    def setup(self) -> None:
        import repro
        from repro.engine.fast import compile_table

        self.kinds = []
        for cls_name in PROTOCOLS:
            for bound in BOUNDS:
                protocol = getattr(repro, cls_name)(bound)
                compile_table(protocol)
                self.kinds.append((protocol, bound))
        self._repro = repro
        # The artifact cache lives in the checkout, not the system temp.
        os.makedirs(OUT_DIR, exist_ok=True)
        self.cache_dir = tempfile.mkdtemp(prefix="serve-cache-", dir=OUT_DIR)
        self.pool = repro.ServePool(
            max_workers=WORKERS, cache_dir=self.cache_dir
        )
        self.pool.warm()

    def make_inputs(self, seed: int, seconds: float) -> None:
        repro = self._repro
        rng = random.Random(f"serve:{seed}")
        next_seed = rng.randrange(1 << 40)
        #: specs[j] and, for a repeat, the index of its first submission.
        self.specs = []
        self.first_of: list[int | None] = []
        originals: list[int] = []
        for j in range(int(JOBS_PER_SECOND * max(seconds, 1.0))):
            if originals and rng.random() < REPEAT_SHARE:
                o = rng.choice(originals)
                self.specs.append(self.specs[o])
                self.first_of.append(o)
                continue
            protocol, bound = rng.choice(self.kinds)
            n = rng.randint(3, bound)
            self.specs.append(repro.JobSpec(
                protocol=protocol,
                population=repro.Population(n, protocol.requires_leader),
                scheduler_factory=scheduler_factory,
                initial_factory=uniform_start(protocol),
                problem=repro.NamingProblem(),
                seeds=range(next_seed, next_seed + SEEDS_PER_JOB),
                max_interactions=BUDGET,
            ))
            next_seed += SEEDS_PER_JOB
            self.first_of.append(None)
            originals.append(j)
        self._cursor = 0
        self._digests: dict[int, str] = {}
        self._served: dict[int, object] = {}
        self._deferred: list[tuple[int, str]] = []

    def _request(self, j: int) -> Request:
        spec = self.specs[j]
        first = self.first_of[j]

        def check(ensemble):
            counted = check_converged_names(ensemble, SEEDS_PER_JOB)
            if first is None:
                self._digests[j] = result_digest(ensemble)
                if j < REFERENCE_SAMPLE:
                    self._served[j] = ensemble
            elif first in self._digests:
                check_repeat(self._digests[first], ensemble)
            else:  # the first submission is still in flight
                self._deferred.append((first, result_digest(ensemble)))
            return counted

        return Request(
            name="job",
            call=lambda: self.pool.submit(spec).result(),
            check=check,
        )

    def run(self, seconds: float, tracer=NULL_TRACER) -> Measurement:
        """Both clients take the next job until ``seconds`` have gone."""
        lock = threading.Lock()
        record = Measurement(start=time.perf_counter())
        deadline = record.start + seconds

        def client():
            while time.perf_counter() < deadline:
                with lock:
                    j = self._cursor
                    if j >= len(self.specs):
                        return
                    self._cursor += 1
                execute(self._request(j), tracer, record)

        clients = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for t in clients:
            t.start()
        for t in clients:
            t.join()
        record.end = time.perf_counter()
        return record

    def rates(self, record: Measurement) -> Rates:
        """Jobs per second is the median over one-second windows of the
        jobs completed in each, so a burst of host noise moves one
        window, not the figure; the work per job is averaged over the
        whole run, whose job mix is the seed's."""
        n = int((record.end - record.start) // WINDOW_S)
        if n < 1 or not record.done:
            raise TooFewSamples("serve run shorter than one window")
        jobs = [0] * n
        for d in record.done:
            w = int((d.end - record.start) // WINDOW_S)
            if w < n:
                jobs[w] += 1
        jobs_per_s = median(jobs) / WINDOW_S
        done = len(record.done)
        return Rates(
            jobs_per_s=jobs_per_s,
            samples_per_s=jobs_per_s * sum(d.samples for d in record.done)
            / done,
            interactions_per_s=jobs_per_s
            * sum(d.interactions for d in record.done) / done,
        )

    def p50_latency(self, record: Measurement) -> float:
        return median(record.latencies)

    def headlines(self, record: Measurement) -> list[tuple[str, str, str]]:
        try:
            p90 = f"{percentile(record.latencies, 90) * 1e3:.4f}"
        except TooFewSamples as exc:
            p90 = f"refused ({exc})"
        return [("job_p90_ms", p90, "ms")]

    def final_checks(self) -> list[str]:
        problems = []
        for first, digest in self._deferred:
            if self._digests.get(first) != digest:
                problems.append(f"job {first}: repeat differs from first")
        for j, served in sorted(self._served.items()):
            spec = self.specs[j]
            reference = self._repro.run_ensemble(
                spec.protocol, spec.population, spec.scheduler_factory,
                spec.initial_factory, spec.problem, spec.seeds,
                max_interactions=spec.max_interactions,
                backend=spec.backend,
            )
            try:
                check_reference(served, reference)
            except CheckFailed as exc:
                problems.append(f"job {j}: {exc}")
        return problems

    def worker_crashes(self) -> int:
        return self.pool.stats()["worker_crashes"]

    def close(self) -> None:
        self.pool.shutdown()
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        # The shared-memory transport started multiprocessing's resource
        # tracker; every segment is released by now, so stop it and wait
        # for it rather than leave it to outlive the benchmark.
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
