"""What one Ray session keeps between checks: warm crawl actors, the
last corpus broadcast, and the session's CPU count.

Starting an actor costs a worker-process start-up, which on a small box
is most of a short check. So the mesh (state/mesh.py) does not spawn
its nodes; it leases them here, and a cleanly finished check hands
them back. Every pooled actor is the same shell, :class:`CrawlActor`,
which hosts one ``MeshNode`` per lease, built fresh from the new
check's corpus, transport blob and kwargs. Nothing of the previous
check survives a lease, because the hosted node is new, not
re-initialised.

Lifetime and resources are decided here and nowhere else:

- actors reserve no CPU, neither to be placed nor while they live: idle
  ones never starve tasks or Ray Data, and a check that spawns more
  actors than the session has CPUs starts them all at once, where
  default actors (one CPU to be placed) would start them a creation at
  a time;
- only a cleanly finished check releases its actors (:func:`release`);
  every error or interrupt path kills them (:func:`discard`);
- after a release the pool keeps only that check's actors, so idle
  processes never outnumber one check's actors;
- the pool is keyed by the Ray session (job id + node id) and its
  actors are not detached: ``ray.shutdown()`` ends them with the session.

The session also keeps what every check of one corpus would otherwise
redo (the object store puts a value once for many readers, as Spark's
broadcast variables do):

- one resident corpus (:func:`corpus_index`, :func:`corpus_ref`): the
  index arrays of the last documents table a check was built on, and
  the ``ObjectRef`` of its broadcast (the encoded documents plus those
  arrays). It is keyed by the table's identity (held by a ``weakref``),
  the corpus host and ``multi_host``, and its ref by the session. The
  entry is dropped when the table is garbage-collected or another
  corpus is checked, and its ref when the session changes;
- the session's CPU count (:func:`session_cpus`), read once per session.
"""

from __future__ import annotations

import functools
import gc
import itertools
import os
import threading
import weakref

import numpy as np
import pyarrow as pa

# the MeshNode methods a hosted node answers through its actor
FORWARDED = (
    "connect", "enqueue", "deliver_candidates", "deliver_wants",
    "pause", "resume_run", "snapshot",
)
# self-messages, driver nudges and waiting polls that can reach an actor
# after its check released it: dropped when the actor is idle (the mesh
# node drops stale ones itself, by generation)
LATE = ("pump", "kick", "poll")


class CrawlActor:
    """Ray actor shell hosting one crawl object per lease.

    ``reset`` and ``release`` carry the lease generation, so a release
    that arrives after the next check's reset is a no-op."""

    def __init__(self):
        # ONE Arrow thread per actor: pyarrow defaults its pool to
        # os.cpu_count() per process, so K actors would spawn K×ncpu
        # threads and thrash the node
        pa.set_cpu_count(1)
        pa.set_io_thread_count(1)
        self._lock = threading.Lock()
        self._obj = None
        self._generation = 0

    def reset(self, generation: int, factory, *args) -> int:
        """Host ``factory(*args)`` for lease ``generation``, and start it
        (``obj.start(this actor's handle, generation)``) if it has a
        ``start``: a mesh node pumps its seeds from here."""
        import ray
        # ``args`` ride as top-level task arguments, so Ray resolves an
        # ObjectRef among them (the session's corpus) before the call
        obj = factory(*args)
        with self._lock:
            old, self._obj = self._obj, obj
            self._generation = generation
        _close(old)
        start = getattr(obj, "start", None)
        if start is not None:
            start(ray.get_runtime_context().current_actor, generation)
        return os.getpid()

    def release(self, generation: int) -> None:
        with self._lock:
            if generation != self._generation:
                return
            old, self._obj = self._obj, None
        _close(old)
        del old
        # the check's objects are gone: collect once, then move what
        # survives (imports, Ray's worker state, ~120k objects) out of
        # the collector's reach. A pooled process lives for many checks,
        # and a gen-2 collection that walks them takes ~85 ms, in the
        # middle of whichever crawl triggers it
        gc.collect()
        gc.freeze()


def _close(obj) -> None:
    close = getattr(obj, "close", None)
    if close is not None:
        close()


def _forward(name: str, late: bool):
    def method(self, *args, **kwargs):
        obj = self._obj
        if obj is None:
            if late:
                return None
            raise RuntimeError(f"{name}() called on an idle pooled actor")
        return getattr(obj, name)(*args, **kwargs)
    method.__name__ = method.__qualname__ = name
    return method


for _name in FORWARDED:
    setattr(CrawlActor, _name, _forward(_name, late=False))
for _name in LATE:
    setattr(CrawlActor, _name, _forward(_name, late=True))


_lock = threading.Lock()
_generations = itertools.count(1)
# (job id, node id) → idle actor handles; holds one session at most
_idle: dict[tuple[str, str], list] = {}


def _session() -> tuple[str, str]:
    import ray
    ctx = ray.get_runtime_context()
    return ctx.get_job_id(), ctx.get_node_id()


# session → its CPU count (None: the cluster reports none); one session
_cpus: dict[tuple[str, str], int | None] = {}


def session_cpus() -> int | None:
    """The session's CPUs (``ray.cluster_resources()``, a GCS round
    trip), read once per session; None when the cluster reports none or
    cannot be asked."""
    import ray
    key = _session()
    with _lock:
        if key not in _cpus:
            try:
                cpus = ray.cluster_resources().get("CPU")
            except Exception:
                return None
            _cpus.clear()
            _cpus[key] = int(cpus) if cpus else None
        return _cpus[key]


class _Corpus:
    """The resident corpus: a documents table (by weakref), the corpus
    host and ``multi_host`` it was indexed for, its index arrays, and
    the broadcast's ref with the session it was put in."""

    def __init__(self, documents: pa.Table, host: str, multi_host: bool,
                 index: dict):
        self.table = weakref.ref(documents, _drop_corpus)
        self.host = host
        self.multi_host = multi_host
        self.index = index
        self.ref = None
        self.session = None

    def holds(self, documents: pa.Table, host: str, multi_host: bool) -> bool:
        return self.table() is documents and self.host == host \
            and self.multi_host == multi_host


_corpus: _Corpus | None = None


def _drop_corpus(table_ref) -> None:
    # the weakref callback runs inside a garbage collection, maybe while
    # this thread holds ``_lock``: so no lock, one atomic assignment
    global _corpus
    if _corpus is not None and _corpus.table is table_ref:
        _corpus = None


def _resident(documents: pa.Table, host: str,
              multi_host: bool) -> _Corpus:
    """The entry of ``documents``, made (its index built) if the
    resident corpus is another; call with ``_lock`` held."""
    global _corpus
    entry = _corpus
    if entry is None or not entry.holds(documents, host, multi_host):
        from linkinator_ray.sources.documents import build_corpus_index_blob
        index = build_corpus_index_blob(documents, multi_host, host)
        for arr in index.values():
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False  # shared by every checker
        entry = _corpus = _Corpus(documents, host, multi_host, index)
    return entry


def corpus_index(documents: pa.Table, host: str, multi_host: bool) -> dict:
    """``build_corpus_index_blob(documents, multi_host, host)``, built by
    the first check of the table and shared, read-only, by every later
    one."""
    with _lock:
        return _resident(documents, host, multi_host).index


def corpus_ref(documents: pa.Table, host: str, multi_host: bool):
    """The ``ObjectRef`` of ``documents``' broadcast, put once per
    session: ``{"documents": schema.encode(documents), "corpus_index":
    ..., "corpus_host": host, "multi_host": multi_host}``, what a
    ``MeshNode`` takes as its ``corpus``."""
    import ray

    from linkinator_ray import schema
    session = _session()
    with _lock:
        entry = _resident(documents, host, multi_host)
        if entry.session != session:
            # the documents cross as one IPC buffer (Ray would pickle
            # the table column by column)
            entry.ref = ray.put({"documents": schema.encode(documents),
                                 "corpus_index": entry.index,
                                 "corpus_host": host,
                                 "multi_host": multi_host})
            entry.session = session
        return entry.ref


def _session_idle() -> list:
    """This session's idle list; a previous session's actors ended with
    it, so its handles are dropped."""
    key = _session()
    if key not in _idle:
        _idle.clear()
        _idle[key] = []
    return _idle[key]


@functools.cache
def _actor_class():
    """The shell as a Ray actor class, built once per process: every
    new class is exported to the cluster again, ~40 ms per spawn.
    max_concurrency=3: a mesh node's pump, the driver's waiting poll and
    a peer message run at once, so a poll waiting for news never blocks
    intake during a pump (MeshNode guards its state with its own
    lock)."""
    import ray
    return ray.remote(num_cpus=0, max_concurrency=3,
                      scheduling_strategy="SPREAD")(CrawlActor)


def _spawn():
    return _actor_class().remote()


class Lease:
    """One actor per entry of ``arg_lists``, each hosting
    ``factory(*args)``. Construction only sends the resets; ``wait``
    blocks until they are done, so the leases of one check reset (and
    their new actors start) concurrently."""

    def __init__(self, factory, arg_lists: list[tuple]):
        self.factory = factory
        self.arg_lists = arg_lists
        self.generation = next(_generations)
        with _lock:
            idle = _session_idle()
            self.handles = [idle.pop() for _ in
                            range(min(len(idle), len(arg_lists)))]
        self.reused = self._pooled = len(self.handles)
        self.handles += [_spawn() for _ in
                         range(len(arg_lists) - self.reused)]
        self._pending = [self._reset(i) for i in range(len(arg_lists))]
        self.pids: list[int] = []

    @property
    def spawned(self) -> int:
        return len(self.handles) - self.reused

    def _reset(self, i: int):
        return self.handles[i].reset.remote(
            self.generation, self.factory, *self.arg_lists[i])

    def wait(self) -> list:
        """The ready handles. An idle actor that died since its release
        (``ray.kill``, OOM) is replaced by a new one here."""
        if self._pending is None:
            return self.handles
        import ray
        for i, ref in enumerate(self._pending):
            try:
                pid = ray.get(ref)
            except ray.exceptions.RayActorError:
                if i >= self._pooled:
                    raise  # a brand-new actor died: nothing to fall back to
                self.handles[i] = _spawn()
                self.reused -= 1
                pid = ray.get(self._reset(i))
            self.pids.append(pid)
        # the reset arguments hold the check's transport blob and seeds:
        # drop them with the reset refs once every node holds its own
        self._pending = self.factory = self.arg_lists = None
        return self.handles


def release(leases: list[Lease]) -> None:
    """Hand a cleanly finished check's actors back: each drops its
    hosted object (and with it the check's transport blob, connection
    threads and mesh peer handles) and goes idle. Idle actors of earlier
    checks that this check did not take are killed. A check that leased
    nothing (local mode) leaves the pool alone."""
    import ray
    if not leases:
        return
    for lease in leases:
        for handle in lease.handles:
            handle.release.remote(lease.generation)
    with _lock:
        idle = _session_idle()
        extra = list(idle)
        idle[:] = [h for lease in leases for h in lease.handles]
    for handle in extra:
        ray.kill(handle, no_restart=True)


def discard(leases: list[Lease]) -> None:
    """Kill the actors of a check that failed or was interrupted: their
    state (in-flight messages, half-built queues) is not reusable."""
    import ray
    for lease in leases:
        for handle in lease.handles:
            ray.kill(handle, no_restart=True)


def idle_count() -> int:
    """Idle actors this session's pool holds."""
    with _lock:
        return len(_session_idle())
