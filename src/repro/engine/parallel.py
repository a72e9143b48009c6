"""Zero-copy parallel execution over POSIX shared memory.

The pickle path that :func:`repro.engine.ensemble.run_ensemble` uses for
``n_jobs > 1`` ships every worker's finished
:class:`~repro.engine.simulator.SimulationResult` objects back through
the :class:`~concurrent.futures.ProcessPoolExecutor` result pipe.  For
the lockstep engines that is pure waste: a worker's entire output is one
``(r, S)`` slice of the ensemble's counts matrix plus one ``(r, 8)``
scalar block (:class:`~repro.engine.batch.LockstepRaw`), and both are
flat ``int64`` arrays that could have been written where the parent can
already see them.  This module does exactly that:

1.  The parent allocates one ``(R, S)`` counts block and one
    ``(R, N_SCALARS)`` scalars block in POSIX shared memory
    (:class:`SharedBlock`) and hands each worker its contiguous row
    offset plus the blocks' :class:`ShmBlockMeta` descriptors (name,
    shape, dtype - a few hundred bytes, the only thing pickled).
2.  Each worker runs its seed chunk natively via
    ``run_replicates_raw`` and writes the raw rows **in place**
    (:func:`run_chunk_into_shm`), returning only a tiny outcome marker.
3.  The parent materializes all rows in seed order through the same
    :func:`~repro.engine.batch.materialize_raw` the serial path uses,
    so parallel results are the **same objects built from the same
    arrays** - bit-identical to serial by construction (each row's
    randomness is a function of its own seed; see
    :mod:`repro.engine.batch`).

Ownership protocol
------------------

Shared segments have exactly one owner: the process that created them.
Attachers (:meth:`SharedBlock.attach`) immediately unregister the
segment from their ``resource_tracker`` - Python 3.11 registers on
*every* attach, so a worker's tracker would otherwise unlink a segment
the parent is still reading when the worker exits.  The owner bundles
its blocks into a :class:`ShmLease` whose idempotent :meth:`~ShmLease.release`
closes and unlinks everything; a :func:`weakref.finalize` backstop fires
the same teardown if the lease is dropped without release, so no
segment outlives its job even on error paths.

Fallback ladder
---------------

Every degradation is structured and total-order safe:

- no shared memory on the platform (probe in :func:`shm_available`)
  -> one :class:`~repro.errors.BackendFallbackWarning` naming the
  reason, then the existing pickle-transport pool path;
- a chunk's lockstep preconditions fail inside a worker -> that worker
  reruns the chunk through ``run_replicates``, which warns once and
  walks the serial backend ladder, and ships those results pickled
  (markers and pickled lists mix freely per chunk);
- any error -> the lease still tears the segments down.
"""

from __future__ import annotations

import traceback as _traceback
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as _np

from repro.engine.batch import (
    N_SCALARS,
    BatchedEnsembleSimulator,
    LockstepRaw,
    materialize_raw,
)
from repro.engine.fast import warn_fallback

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.simulator import SimulationResult


try:  # POSIX shared memory; absent on some minimal/embedded builds.
    from multiprocessing import resource_tracker as _resource_tracker
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - exercised via probe override
    _resource_tracker = None
    _shared_memory = None


#: Cached result of the one-time shared-memory probe; see
#: :func:`shm_available`.
_SHM_PROBE: tuple[bool, str | None] | None = None


def shm_available() -> tuple[bool, str | None]:
    """Probe once whether POSIX shared memory actually works here.

    Returns ``(True, None)`` or ``(False, reason)``.  Importing
    :mod:`multiprocessing.shared_memory` is not enough - containers and
    locked-down platforms can expose the module but refuse ``shm_open``
    at runtime - so the probe round-trips a real 8-byte segment.  The
    verdict is cached for the life of the process.
    """
    global _SHM_PROBE
    if _SHM_PROBE is None:
        if _shared_memory is None:
            _SHM_PROBE = (False, "multiprocessing.shared_memory is unavailable")
        else:
            try:
                segment = _shared_memory.SharedMemory(create=True, size=8)
                segment.buf[0] = 1
                ok = segment.buf[0] == 1
                segment.close()
                segment.unlink()
                _SHM_PROBE = (
                    (True, None)
                    if ok
                    else (False, "shared-memory probe read back wrong data")
                )
            except (OSError, ValueError, PermissionError) as exc:
                _SHM_PROBE = (False, f"shared-memory probe failed: {exc}")
    return _SHM_PROBE


@dataclass(frozen=True)
class ShmBlockMeta:
    """Picklable descriptor of a shared block: everything an attacher needs."""

    name: str
    shape: tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        n = _np.dtype(self.dtype).itemsize
        for dim in self.shape:
            n *= dim
        return n


class SharedBlock:
    """One NumPy array backed by one POSIX shared-memory segment.

    Create with :meth:`create` (owner side) or :meth:`attach` (worker
    side); read/write through :attr:`array`; tear down with
    :meth:`close` (both sides) and :meth:`unlink` (owner only).  Both
    teardown calls are idempotent.
    """

    def __init__(self, segment, meta: ShmBlockMeta, owner: bool) -> None:
        self._segment = segment
        self._meta = meta
        self._owner = owner
        self._array = None
        self._unlinked = False

    @classmethod
    def create(cls, shape: Sequence[int], dtype: str) -> "SharedBlock":
        """Allocate a fresh zero-filled segment sized for ``(shape, dtype)``."""
        meta_size = _np.dtype(dtype).itemsize
        for dim in shape:
            meta_size *= int(dim)
        segment = _shared_memory.SharedMemory(
            create=True, size=max(1, meta_size)
        )
        meta = ShmBlockMeta(
            name=segment.name, shape=tuple(int(d) for d in shape), dtype=dtype
        )
        return cls(segment, meta, owner=True)

    @classmethod
    def attach(cls, meta: ShmBlockMeta) -> "SharedBlock":
        """Map an existing segment by descriptor, without taking ownership.

        Python 3.11 registers the segment with this process's
        ``resource_tracker`` on attach; undo that immediately, or the
        attacher's tracker unlinks the segment out from under the owner
        when the attaching process exits.
        """
        segment = _shared_memory.SharedMemory(name=meta.name)
        try:
            _resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker may be absent
            pass
        return cls(segment, meta, owner=False)

    @property
    def meta(self) -> ShmBlockMeta:
        return self._meta

    @property
    def nbytes(self) -> int:
        return self._meta.nbytes

    @property
    def array(self):
        """The live NumPy view (cached; invalid after :meth:`close`)."""
        if self._array is None:
            if self._segment is None:
                raise ValueError("shared block is closed")
            self._array = _np.ndarray(
                self._meta.shape,
                dtype=self._meta.dtype,
                buffer=self._segment.buf,
            )
        return self._array

    def close(self) -> None:
        """Drop this process's mapping.  Idempotent."""
        self._array = None
        segment, self._segment = self._segment, None
        if segment is not None:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - caller kept a view
                pass

    def unlink(self) -> None:
        """Remove the segment's name (owner side).  Idempotent."""
        if self._unlinked:
            return
        self._unlinked = True
        try:
            _shared_memory.SharedMemory(name=self._meta.name).unlink()
        except FileNotFoundError:
            pass


def _release_blocks(blocks: tuple) -> None:
    """Teardown shared by :meth:`ShmLease.release` and its finalizer."""
    for block in blocks:
        block.close()
        block.unlink()


class ShmLease:
    """Owner-side handle bundling a job's shared blocks for teardown.

    ``release()`` closes and unlinks every block and is safe to call any
    number of times, from any error path.  If the lease is garbage
    collected without release (caller crashed, handle dropped), a
    :func:`weakref.finalize` backstop runs the identical teardown - the
    segments never outlive the job, and ``__del__``-ordering hazards do
    not apply because the finalizer holds the blocks directly.
    """

    def __init__(self, blocks: Sequence[SharedBlock]) -> None:
        self._blocks = tuple(blocks)
        self._finalizer = weakref.finalize(self, _release_blocks, self._blocks)

    @property
    def nbytes(self) -> int:
        return sum(block.nbytes for block in self._blocks)

    @property
    def released(self) -> bool:
        return not self._finalizer.alive

    def release(self) -> None:
        """Close and unlink every block.  Idempotent, any error path."""
        self._finalizer()


def run_chunk_into_shm(
    protocol,
    population,
    scheduler_factory,
    initial_factory,
    problem,
    max_interactions: int,
    backend: str,
    check_interval: int | None,
    sanitize: bool,
    fault_hook,
    seeds: Sequence[int],
    row_lo: int,
    counts_meta: ShmBlockMeta,
    scalars_meta: ShmBlockMeta,
) -> tuple | None:
    """Worker body: run one seed chunk natively, write raw rows in place.

    Returns a small marker ``("shm", n_rows, wall_seconds, has_leap)``
    on success - the actual results live in the shared blocks at rows
    ``[row_lo, row_lo + n_rows)`` - or ``None`` when the chunk's
    lockstep preconditions fail, in which case the caller degrades to
    the pickled per-chunk runner (which warns and walks the ladder).

    Shared between the ensemble layer (:func:`maybe_run_sharded`) and
    the serving pool (:mod:`repro.serve.pool`), so both transports have
    one write path and one ownership discipline.
    """
    from repro.engine.bleap import BatchedLeapSimulator
    from repro.engine.ensemble import _LazyInitials

    schedulers = [scheduler_factory(population, seed) for seed in seeds]
    initials = _LazyInitials(initial_factory, population, seeds)
    simulator_class = (
        BatchedLeapSimulator if backend == "bleap" else BatchedEnsembleSimulator
    )
    simulator = simulator_class(
        protocol,
        population,
        schedulers[0],
        problem,
        check_interval,
        sanitize=sanitize,
    )
    raw, _reason = simulator.run_replicates_raw(
        initials,
        schedulers,
        max_interactions=max_interactions,
        fault_hook=fault_hook,
    )
    if raw is None:
        return None
    counts = SharedBlock.attach(counts_meta)
    scalars = SharedBlock.attach(scalars_meta)
    try:
        counts.array[row_lo : row_lo + raw.n_rows] = raw.counts
        scalars.array[row_lo : row_lo + raw.n_rows] = raw.scalars
    finally:
        counts.close()
        scalars.close()
    return ("shm", raw.n_rows, raw.wall_seconds, raw.has_leap)


def _shard_task(task: tuple) -> tuple | list:
    """Pool entry point: shm fast path, pickled ladder walk on failure."""
    common, seeds, row_lo, counts_meta, scalars_meta = task
    (
        protocol,
        population,
        scheduler_factory,
        initial_factory,
        problem,
        max_interactions,
        backend,
        check_interval,
        _raise_on_timeout,  # enforced in the parent, in seed order
        fault_hook,
        sanitize,
    ) = common
    marker = run_chunk_into_shm(
        protocol,
        population,
        scheduler_factory,
        initial_factory,
        problem,
        max_interactions,
        backend,
        check_interval,
        sanitize,
        fault_hook,
        seeds,
        row_lo,
        counts_meta,
        scalars_meta,
    )
    if marker is not None:
        return marker
    from repro.engine.ensemble import _run_batch_chunk

    return _run_batch_chunk((common, list(seeds)))


def maybe_run_sharded(
    common: tuple, seeds: Sequence[int], n_jobs: int
) -> "list[SimulationResult] | None":
    """Run a lockstep ensemble sharded over shared memory, if possible.

    Returns results in seed order, or ``None`` when the shared path
    cannot apply (no shared memory - warned; obvious precondition
    misses - silent, the pickle path will produce the warning) so the
    caller falls through to the existing pickle-transport pool.
    """
    available, reason = shm_available()
    if not available:
        warn_fallback("parallel", "pickle-transport ensemble", reason)
        return None
    (
        protocol,
        population,
        scheduler_factory,
        initial_factory,
        problem,
        max_interactions,
        backend,
        check_interval,
        raise_on_timeout,
        fault_hook,
        sanitize,
    ) = common
    # Cheap parent-side probe: compile once (cached by fingerprint) and
    # bail before allocating segments when the whole ensemble obviously
    # cannot run lockstep.  Chunks can still fail finer preconditions
    # inside workers (non-uniform schedulers, unenumerable initials);
    # those degrade per chunk, inside the pool.
    if fault_hook is not None:
        return None
    from repro.engine.bleap import BatchedLeapSimulator

    simulator_class = (
        BatchedLeapSimulator if backend == "bleap" else BatchedEnsembleSimulator
    )
    probe = simulator_class(
        protocol,
        population,
        scheduler_factory(population, seeds[0]),
        problem,
        check_interval,
        sanitize=sanitize,
    )
    if probe._table is None or probe._plan is None or not probe._plan.closed:
        return None
    from repro.engine.ensemble import _chunk_seeds

    seeds = list(seeds)
    chunks = _chunk_seeds(seeds, n_jobs)
    offsets = []
    row_lo = 0
    for chunk in chunks:
        offsets.append(row_lo)
        row_lo += len(chunk)
    n_rows = len(seeds)
    n_states = probe._table.n_states
    counts = SharedBlock.create((n_rows, n_states), "int64")
    scalars = SharedBlock.create((n_rows, N_SCALARS), "int64")
    lease = ShmLease((counts, scalars))
    try:
        tasks = [
            (common, chunk, off, counts.meta, scalars.meta)
            for chunk, off in zip(chunks, offsets)
        ]
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            outcomes = list(pool.map(_shard_task, tasks))
        return _assemble_sharded(
            probe,
            protocol,
            population,
            max_interactions,
            raise_on_timeout,
            counts,
            scalars,
            lease.nbytes,
            chunks,
            offsets,
            outcomes,
        )
    except BaseException as exc:
        # The traceback's frames pin NumPy views into the segments
        # (e.g. a ConvergenceError out of materialize_raw).  Release
        # below unmaps the memory, so drop those references first -
        # otherwise any later frame inspection reads unmapped pages.
        _traceback.clear_frames(exc.__traceback__)
        raise
    finally:
        lease.release()


def _assemble_sharded(
    probe,
    protocol,
    population,
    max_interactions: int,
    raise_on_timeout: bool,
    counts: SharedBlock,
    scalars: SharedBlock,
    shm_bytes: int,
    chunks: list,
    offsets: list,
    outcomes: list,
) -> "list[SimulationResult]":
    """Materialize per-chunk outcomes (markers or pickled lists) in order.

    Own frame so every view into the shared blocks dies before the
    caller releases the lease - closing a segment with live exports
    would raise :class:`BufferError`.
    """
    results = []
    shards = len(chunks)
    per_row_saved = (counts.meta.shape[1] + N_SCALARS) * 8
    for chunk, off, outcome in zip(chunks, offsets, outcomes):
        if isinstance(outcome, tuple) and outcome and outcome[0] == "shm":
            _, n_rows, wall_seconds, has_leap = outcome
            raw = LockstepRaw(
                counts=counts.array[off : off + n_rows],
                scalars=scalars.array[off : off + n_rows],
                has_leap=has_leap,
                wall_seconds=wall_seconds,
            )
            results.extend(
                materialize_raw(
                    probe._table,
                    probe._plan.n_mobile,
                    population,
                    protocol.display_name,
                    raw,
                    max_interactions,
                    raise_on_timeout,
                    shards=shards,
                    shm_bytes=shm_bytes,
                    copy_bytes_saved=per_row_saved,
                )
            )
        else:
            results.extend(outcome)
    return results
