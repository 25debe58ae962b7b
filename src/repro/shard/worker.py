"""Per-shard worker processes: the GIL-free side of process scatter.

The thread-pool scatter caps Python scoring at one core no matter how many
shards exist.  This module moves each shard's engine stack into a
long-lived worker *process*:

* the shard's columnar block data (its selection and ranking matrices) is
  shipped **once** at spawn time into
  :mod:`multiprocessing.shared_memory`-backed numpy arrays — scatter legs
  send only pickled queries over a pipe and gather only top-k tuples,
  never the relation;
* the worker builds its :class:`~repro.engine.Executor` at boot (a
  worker is only spawned when a leg is about to run on it) and then
  sends one ``ready`` frame; the parent consumes it before the first
  request under the fixed :data:`SPAWN_TIMEOUT`, so the cold start
  (interpreter, numpy import, shared-memory attach, index build) is
  never charged to a leg's ``recv_timeout`` or deadline;
* every reply rides the worker-side observability back to the parent: the
  worker engine's :class:`~repro.obs.metrics.MetricsRegistry` state, its
  cache gauges current (raw histogram reservoirs, so merged percentiles
  pool correctly).

The request/reply protocol is strictly synchronous per worker — one
in-flight request per pipe, serialized by :class:`ShardWorker`'s lock —
and crash-safe: a killed worker surfaces as
:class:`~repro.errors.ShardWorkerError` (the pipe reports end-of-file
immediately), never as a hang.  A *wedged* worker (alive but not
answering) is bounded too: ``recv_timeout`` caps every reply wait
(and :data:`SPAWN_TIMEOUT` the wait for the ``ready`` frame), and a
worker that misses the bound is killed and reported with
``ShardWorkerError.timed_out`` set — the scatter executor respawns it
on the next leg.  :class:`ShardWorker.close` is deterministic: ask the
worker to exit, escalate to ``terminate`` if it does not, and unlink
the shared memory either way.

For chaos testing, a :class:`~repro.fault.inject.FaultInjector` can be
attached: leg requests then deterministically suffer pre/post-leg
worker kills, real hung pipes (the worker naps through the ``hang``
op), and discarded "corrupted" replies — every failure the retry and
breaker layers must recover from, replayable from a seed.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ShardWorkerError
from repro.storage.table import Relation, Schema

#: Operations a worker understands.  ``execute_many``/``plan`` are the
#: engine front-door surface (every leg, one rider or many, is an
#: ``execute_many``, run past the worker's result cache: the scatter's
#: front door is the one cache level); ``ping`` checks liveness; ``hang``
#: naps (fault injection: a simulated wedge the bounded recv must catch);
#: ``close`` asks the worker to exit its loop.
_OPS = ("execute_many", "plan", "ping", "hang", "close")

#: Leg-shaped operations the fault injector may sabotage.  Lifecycle
#: traffic is never injected — chaos must exercise leg recovery, not
#: break the worker's lifecycle.
_INJECTABLE_OPS = ("execute_many",)

#: Seconds a freshly spawned worker may take to send its ``ready`` frame.
#: Fixed and generous: a healthy boot takes well under a second, and the
#: bound only exists so a worker wedged *while booting* still surfaces.
SPAWN_TIMEOUT = 60.0


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to rebuild its shard: small and picklable.

    The relation itself travels out-of-band through the two named shared
    memory blocks; the spec carries only the schema, the block names and
    shapes, and the ``Executor.for_relation`` keyword arguments.
    """

    schema: Schema
    relation_name: str
    selection_shm: str
    selection_shape: Tuple[int, int]
    ranking_shm: str
    ranking_shape: Tuple[int, int]
    executor_kwargs: Tuple[Tuple[str, object], ...]


def _send_error(conn, exc: Exception) -> None:
    """Ship ``exc`` to the parent (a summary when it does not pickle)."""
    try:
        pickle.dumps(exc)
    except Exception:
        exc = ShardWorkerError(f"{type(exc).__name__}: {exc}")
    conn.send(("error", exc, None))


def shard_worker_main(conn, spec: WorkerSpec) -> None:
    """Worker-process entry point: attach the shard, serve the pipe.

    Builds the shard's engine stack, announces it with a ``ready`` frame
    (an ``error`` frame, then exit, when the build fails), and serves
    until the parent sends ``close`` or its end of the pipe disappears
    (parent exit), then detaches from the shared memory.  Any exception
    an operation raises is shipped back as a reply — the worker itself
    stays up, mirroring how an in-process engine survives a failed query.
    """
    from multiprocessing.shared_memory import SharedMemory

    from repro.engine import Executor

    # On Python <= 3.12 attaching re-registers the block with the resource
    # tracker; workers share the parent's tracker process (the fd rides the
    # spawn preparation data) and its cache is a set, so the duplicate
    # registration is a no-op and the parent's unlink cleans it up — the
    # worker must NOT unregister, or it would strip the parent's own entry.
    sel_shm = SharedMemory(name=spec.selection_shm)
    rank_shm = SharedMemory(name=spec.ranking_shm)
    # Column-major as the parent wrote them, so the relation copies nothing.
    selection = np.ndarray(spec.selection_shape, dtype=np.int64,
                           buffer=sel_shm.buf, order="F")
    ranking = np.ndarray(spec.ranking_shape, dtype=np.float64,
                         buffer=rank_shm.buf, order="F")
    relation = Relation(spec.schema, selection, ranking,
                        name=spec.relation_name)
    executor = None
    try:
        try:
            executor = Executor.for_relation(relation,
                                             **dict(spec.executor_kwargs))
        except Exception as exc:
            _send_error(conn, exc)
            return
        conn.send(("ready", None, None))
        while True:
            try:
                op, payload = conn.recv()
            except (EOFError, OSError):
                break
            if op == "close":
                conn.send(("ok", None, None))
                break
            try:
                out = None
                if op == "ping":
                    out = relation.num_tuples
                elif op == "hang":
                    # Fault injection: a genuine wedge.  The worker naps
                    # through the request, so only the parent's bounded
                    # recv (not a cooperative error reply) can surface it.
                    time.sleep(float(payload))
                elif op == "execute_many":
                    out = executor.execute_many(payload,
                                                use_result_cache=False)
                elif op == "plan":
                    out = executor.plan(payload)
                else:
                    raise ShardWorkerError(f"unknown worker op {op!r}")
                (registry,) = executor.observed()
                conn.send(("ok", out, registry.state()))
            except Exception as exc:  # ship the failure, stay alive
                _send_error(conn, exc)
    finally:
        # Drop the arrays' buffer views before detaching, otherwise
        # SharedMemory.close() raises about exported memoryview pointers.
        del selection, ranking, relation, executor
        sel_shm.close()
        rank_shm.close()
        try:
            conn.close()
        except OSError:
            pass


class ShardWorker:
    """Parent-side handle of one shard's worker process.

    Spawning copies the shard's column-major matrices into two fresh
    shared-memory blocks (this is the *only* time relation data crosses
    the process boundary) and starts the worker on the configured
    multiprocessing context.  :meth:`request` is the synchronous RPC
    surface; it returns ``(result, observability)`` where observability
    is the worker engine's registry state.

    ``relation_id``/``num_rows`` snapshot the shard the worker was built
    over; :class:`~repro.shard.legs.WorkerProcessLegs` compares
    them after every mutation and tears the worker down when the shard
    grew or was replaced (its shared-memory copy is stale).

    ``recv_timeout`` bounds every reply wait (per-request ``timeout``
    overrides it, e.g. from a request deadline): a worker that misses
    the bound is killed and reported with a ``timed_out`` error, so a
    wedged worker can never stall the parent indefinitely.  Neither
    covers the boot: the first request first consumes the worker's
    ``ready`` frame under :data:`SPAWN_TIMEOUT`.  ``injector`` attaches
    deterministic chaos to leg requests only.
    """

    def __init__(self, shard, executor_kwargs: Dict[str, object],
                 ctx: multiprocessing.context.BaseContext,
                 recv_timeout: Optional[float] = None,
                 injector=None) -> None:
        from multiprocessing.shared_memory import SharedMemory

        relation = shard.relation
        self.index = int(shard.index)
        self.recv_timeout = recv_timeout
        self._injector = injector
        self.relation_id = id(relation)
        self.num_rows = int(relation.num_tuples)
        self._lock = threading.Lock()
        self._alive = False
        self._ready = False
        selection = relation.selection_matrix()
        ranking = relation.ranking_matrix()
        # A zero-row shard still needs a 1-byte block: shm size must be > 0.
        self._sel_shm = SharedMemory(create=True,
                                     size=max(1, selection.nbytes))
        self._rank_shm = SharedMemory(create=True,
                                      size=max(1, ranking.nbytes))
        if selection.size:
            np.ndarray(selection.shape, dtype=np.int64,
                       buffer=self._sel_shm.buf, order="F")[:] = selection
        if ranking.size:
            np.ndarray(ranking.shape, dtype=np.float64,
                       buffer=self._rank_shm.buf, order="F")[:] = ranking
        spec = WorkerSpec(
            schema=relation.schema,
            relation_name=relation.name,
            selection_shm=self._sel_shm.name,
            selection_shape=tuple(selection.shape),
            ranking_shm=self._rank_shm.name,
            ranking_shape=tuple(ranking.shape),
            executor_kwargs=tuple(sorted(executor_kwargs.items())),
        )
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(target=shard_worker_main,
                                   args=(child_conn, spec),
                                   name=f"repro-shard-worker-{self.index}",
                                   daemon=True)
        self.process.start()
        child_conn.close()
        self._alive = True

    # ------------------------------------------------------------------
    # RPC
    # ------------------------------------------------------------------
    def request(self, op: str, payload=None,
                timeout: Optional[float] = None):
        """Send one operation and wait (boundedly) for its reply.

        ``timeout`` overrides the worker's ``recv_timeout`` for this
        request — the scatter layer passes the request deadline's
        remaining time here, so a per-request deadline tightens the
        bound and a hung worker is detected within it.  The bound starts
        once the worker has booted (see :data:`SPAWN_TIMEOUT`).

        Raises :class:`~repro.errors.ShardWorkerError` when the worker
        process died (the pipe EOFs immediately — a killed worker is a
        clear error, never a hang) or missed the reply bound (the wedged
        worker is killed; the error carries ``timed_out=True``), and
        re-raises, in the parent, any exception the operation itself
        raised in the worker.
        """
        effective = timeout if timeout is not None else self.recv_timeout
        crash_pre = hang = crash_post = corrupt = False
        injector = self._injector
        if injector is not None and op in _INJECTABLE_OPS:
            crash_pre = injector.fires("worker.crash.pre")
            if not crash_pre and effective is not None:
                # A hang is only observable through a bounded recv; with
                # no bound it would be an unbounded stall, so skip it.
                hang = injector.fires("pipe.hang")
            if not (crash_pre or hang):
                crash_post = injector.fires("worker.crash.post")
                if not crash_post:
                    corrupt = injector.fires("reply.corrupt")
        with self._lock:
            if not self._alive:
                raise ShardWorkerError(
                    f"shard {self.index} worker is closed",
                    shard_index=self.index)
            try:
                if crash_pre:
                    # The worker dies before serving the leg; the send
                    # may still land in the pipe buffer, but the recv
                    # below EOFs and takes the died-error path.
                    self.process.kill()
                    self.process.join(5.0)
                if not self._ready:
                    status, out, _ = self._recv_bounded(SPAWN_TIMEOUT, "boot")
                    if status == "error":  # the engine build failed
                        self._teardown(terminate=True)
                        raise out
                    self._ready = True
                if hang:
                    # Wedge the worker for real: it naps well past the
                    # recv bound, so detection (not the nap ending) is
                    # what unblocks us.  If the nap somehow ends first,
                    # consume its reply and fall through to the real op.
                    self._conn.send(("hang", injector.hang_seconds))
                    self._recv_bounded(effective, op)
                self._conn.send((op, payload))
                status, out, stats = self._recv_bounded(effective, op)
                if crash_post:
                    # The reply was computed but is "lost": kill the
                    # worker and discard it, so a retried leg recomputes.
                    self.process.kill()
                    self.process.join(5.0)
                    self._teardown(terminate=True)
                    raise ShardWorkerError(
                        f"shard {self.index} worker process died during "
                        f"{op!r} before its reply was consumed (injected "
                        f"post-leg crash); the scatter executor will "
                        f"respawn it on the next leg",
                        shard_index=self.index)
                if corrupt:
                    # The reply stream can no longer be trusted once a
                    # frame is mangled: discard it and the worker both.
                    self._teardown(terminate=True)
                    raise ShardWorkerError(
                        f"shard {self.index} worker reply for {op!r} was "
                        f"corrupted (injected); worker torn down and will "
                        f"be respawned on the next leg",
                        shard_index=self.index)
            except (EOFError, OSError, BrokenPipeError) as exc:
                self._teardown(terminate=True)
                code = self.process.exitcode
                raise ShardWorkerError(
                    f"shard {self.index} worker process died "
                    f"(exit code {code}) during {op!r}; the scatter "
                    f"executor will respawn it on the next leg",
                    shard_index=self.index) from exc
        if status == "error":
            if isinstance(out, Exception):
                raise out
            raise ShardWorkerError(str(out), shard_index=self.index)
        return out, stats

    def _recv_bounded(self, timeout: Optional[float], op: str):
        """Receive one reply, killing a worker that misses the bound.

        Must be called with the lock held.  A ``None`` timeout preserves
        the original unbounded wait.
        """
        if timeout is not None and not self._conn.poll(max(0.0, timeout)):
            self._teardown(terminate=True)
            raise ShardWorkerError(
                f"shard {self.index} worker did not reply within "
                f"{timeout:.4g}s during {op!r} (hung worker killed; the "
                f"scatter executor will respawn it on the next leg)",
                shard_index=self.index, timed_out=True)
        return self._conn.recv()

    @property
    def alive(self) -> bool:
        """Whether the worker can still take requests."""
        return self._alive and self.process.is_alive()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: float = 2.0) -> None:
        """Stop the worker and release its shared memory.  Idempotent.

        Asks politely first (``close`` op), escalates to ``terminate``
        when the worker does not exit within ``timeout`` seconds, and
        unlinks both shared-memory blocks afterwards — the parent created
        them, so the parent is the one that must unlink them.
        """
        with self._lock:
            if not self._alive:
                return
            try:
                self._conn.send(("close", None))
                if self._conn.poll(timeout):
                    self._conn.recv()
            except (EOFError, OSError, BrokenPipeError):
                pass
            self._teardown(terminate=True, timeout=timeout)

    def _teardown(self, terminate: bool = False, timeout: float = 2.0) -> None:
        """Close the pipe, reap the process, unlink the memory (lock held)."""
        self._alive = False
        try:
            self._conn.close()
        except OSError:
            pass
        self.process.join(timeout)
        if terminate and self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout)
        for shm in (self._sel_shm, self._rank_shm):
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:
                pass

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close(timeout=0.5)
        except Exception:
            pass
