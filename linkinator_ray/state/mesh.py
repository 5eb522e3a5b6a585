"""Actor-mesh frontier: the driverless crawl dataflow, and the one
implementation of the frontier stages. Every Ray check runs K nodes as
actors; a Ray-free check runs one node in-process, one uncapped pump
per BFS round (``LinkChecker._run_rounds``).

Routing every fetched batch through the driver for the global dedup
joins costs ~25 µs/URL of serial work, which Amdahl-caps compute-bound
scaling at ≈0.4 (BASELINE.md round 1). The mesh moves the whole
frontier cycle into K symmetric ``MeshNode`` actors; each node is BOTH
a fetch worker and the seen/edge shard for its ``url_hash % K`` key
range:

    node.pump ──candidates (url_hash % K)──▶ owner.submit_candidates
        ▲                                          │ dedup (edge+URL)
        └────────────fresh frontier rows───────────┘

In the balanced routing mode (no per-host actor state needed) a fresh
URL's dedup owner IS its fetch owner — candidate→frontier routing is a
single actor message and the owner enqueues locally, zero extra hops.
With host-sticky routing (scripted mock sequences, Retry-After delay
maps, politeness) the owner forwards fresh rows to the host's home node
— one extra hop, only when the semantics require it.

Node responsibilities: rewrites, skip classification, politeness +
retry deferrals (on the check's clock, the wall clock on Ray;
owner-local), the fetch/extract/classify state machine
(stages/fetch.py), URL-seen + edge-seen filters for its key range,
duplicate-edge buffering and the duplicate-broken join (J1) over them.
Every result row a node makes goes to the driver with its next poll
answer; the driver fires ``on_results``/'link' and writes the
``results_dir`` parts. A node and its fetch worker read every setting
from the check's ``CheckOptions``; the driver adds only facts of the
check: the corpus and the blob's data, the static host, connections,
listened events, host-sticky routing, the clock and the pump cap
(4 × ``batch_size`` on Ray, the whole queue in-process).

The driver's part is one round trip at each end. At the start, each
node's lease reset carries its seed keys and frontier share (``seed``),
and the node pumps its seeds before it has its peers; the peer handles
follow in one ``connect`` once every reset is done. In between, the
driver keeps one waiting ``poll`` per node: a node answers when it has
news (its first results and then every pump cap's worth, turning idle,
an idle node's counters moving, an error, a deferred deadline), so the
driver hears the end from the nodes instead of sampling on a timer. The end is the four-counter rule over
the monotonic send/receive counters (an in-flight message shows up as a
sum mismatch), confirmed by one immediate round; that round carries the
frontier-level BROKEN rows, routed to their URLs' owners, and each node
answers with its J1 rows. An edge always lives on its URL's dedup
owner, so no dup edge reaches the driver. Every answer also hands over
the node's request log since its last one.

Wire format: every table a message carries (frontier rows, peer
candidates and fragment wants, ``poll``'s results, events, J1 rows and
request log, ``snapshot``, and the corpus's documents) crosses Ray as one
Arrow IPC stream buffer, written by ``schema.encode`` and read by
``schema.decode``; no message takes or returns a ``pa.Table``: Ray 2.49
pickles a table by rebuilding each column buffer by buffer in Python
(0.6–0.8 ms a table), and writing an IPC stream takes tens of µs. The
actor-facing entries decode and hand tables to the node's own intake
(``deliver_candidates`` → ``submit_candidates``).

Batching: ``enqueue``/``deliver_candidates`` only append; a
self-scheduled ``pump`` message processes everything accumulated since
the last pump, so under load the mailbox coalesces many small routed
pieces into full fetch batches. Self-addressed pieces are delivered
in-process (no message, no counter — symmetric). A pump publishes its
results before it routes its candidates, and ends by sending every peer
what it routed to that peer, so no peer sits idle while this node holds
its work.

Listener events: the driver names the events that have listeners, and
nodes buffer only those (``pagestart``, ``retry`` and the warning
events) as small tables that ``poll`` hands to the driver, which fires
them as the rounds executor does.

Reference semantics preserved: edge + URL dedup order
(src/index.ts:800-817 — edge-fresh rows only consult/insert the URL
set), duplicate-broken re-reporting input (:840-875), retry handling
(:1019-1109), fragment wants registered at link-processing time and
validated at target fetch (:754-784, :616-673). robots.txt rules are
compiled per node from the corpus. Checkpoints are driver-coordinated
epoch snapshots (pause → settle → snapshot every node → one atomic
write → resume) in the rounds' format: each node journals the keys it
inserts, and a resume at any node count routes the journal's keys and
dup edges to their new owners (``seed``). Every LinkChecker feature runs
here, through the frontier-stage kernels of pipelines/crawl.py, which no
other code calls.

Scale notes: the frontier queue spills to node-local parquet past
``mesh_frontier_spill_rows`` (FIFO tail out, parts reloaded as the head
drains; snapshots include spilled parts), bounding per-node frontier
heap at 10^10 URLs. Candidate buffers are pump-bounded; result rows
leave with the next poll answer, which a node gives once it holds a
pump cap's worth, and the driver, the one writer of ``results_dir``
parts, spills them past ``results_flush_rows``. Sends are not
individually acked; the monotonic counters make loss visible (sent !=
received never converges, and the driver's stall detector raises with
a full state dump).
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from linkinator_ray import schema, urlkit
from linkinator_ray.options import CheckOptions
from linkinator_ray.stages.classify import JITTER_SEED
from linkinator_ray.stages.fetch import hash_owner, split_by_owner
from linkinator_ray.state.checkpoint import KeyJournal, pending_table
from linkinator_ray.state.clock import Clock
from linkinator_ray.state.seen import SEEN_CAPACITY, SeenShard

def _host_assignment(hosts: list[str], num_nodes: int,
                     memo: dict) -> np.ndarray:
    out = np.empty(len(hosts), dtype=np.int64)
    for i, h in enumerate(hosts):
        a = memo.get(h)
        if a is None:
            a = memo[h] = int(urlkit.hash64(h) % num_nodes)
        out[i] = a
    return out


def frontier_owner(frontier: pa.Table, num_nodes: int, sticky: bool,
                   memo: dict) -> np.ndarray:
    """The node that fetches each frontier row: its host's home node in
    sticky mode, else its url_hash owner (so a fresh URL's dedup owner
    fetches it, with no extra hop)."""
    if sticky:
        return _host_assignment(frontier["host"].to_pylist(), num_nodes, memo)
    return hash_owner(frontier["url_hash"].to_numpy(zero_copy_only=False),
                      num_nodes)


def want_owner(wants: pa.Table, num_nodes: int, sticky: bool,
               memo: dict) -> np.ndarray:
    """The node that will fetch each fragment want's target page — the
    owner ``frontier_owner`` gives that page's row."""
    urls = wants["target_url"].combine_chunks()
    if sticky:
        return _host_assignment([urlkit.host_of_normalized(u)
                                 for u in urls.to_pylist()], num_nodes, memo)
    return hash_owner(urlkit.hash64_arrow(urls), num_nodes)


class MeshNode:
    """One symmetric node: fetch worker + seen/edge shard for its
    ``url_hash % K`` range."""

    def __init__(self, actor_id: int, num_nodes: int, corpus: dict | None,
                 transport_blob: dict, opts: CheckOptions,
                 seed: dict | None = None, *,
                 static_host: str | None = None, connections: int = 1,
                 events=(), sticky_hosts: bool = True, clock=None,
                 pump_cap: int | None = None):
        """``corpus`` is the session's corpus broadcast
        (``actors.corpus_ref``: the documents ``schema.encode``d, their
        index arrays, corpus host and ``multi_host``), or None when
        ``transport_blob`` carries the documents itself or there are
        none; ``transport_blob`` the check's own data (``http_map``,
        latency, ``strict``, ``record_calls``); ``seed`` this node's share
        of the check's start (see ``_seed``), or None for a node that
        starts empty. ``clock`` is the check's clock (the wall clock
        ``Clock()`` by default) and ``pump_cap`` the most queued rows
        one pump takes (4 × ``batch_size`` by default)."""
        import threading
        # the node runs with max_concurrency=3 so enqueue/submit land
        # WHILE a pump computes (latency hiding — pumps otherwise convoy
        # the whole mesh into lock-step waves), and a driver poll can
        # wait for news without blocking either. All shared state is
        # guarded by this lock; the pump's long fetch/extract section
        # runs outside it. A waiting poll sleeps on ``changed``.
        self.lock = threading.Lock()
        self.changed = threading.Condition(self.lock)
        from linkinator_ray.stages.fetch import FetchWorker, build_transport
        self.actor_id = actor_id
        self.num_nodes = num_nodes
        self.opts = opts
        if corpus is not None:
            transport_blob = {**transport_blob, **corpus, "documents":
                              schema.decode(corpus["documents"])}
        self.worker = FetchWorker(build_transport(transport_blob, opts), opts,
                                  static_host=static_host,
                                  connections=connections)
        self.clock = clock or Clock()
        self.batch_cap = pump_cap or opts.batch_size * 4
        self.rng = np.random.default_rng(JITTER_SEED + actor_id)
        self.sticky_hosts = sticky_hosts
        # robots rules are a pure function of the corpus — each node
        # compiles them locally (no shared cache actor needed)
        from linkinator_ray.state.robots import RobotsCache
        corpus = getattr(self.worker.transport, "corpus", None)
        if self.opts.respect_robots and corpus is not None:
            self.robots = RobotsCache.from_corpus(
                corpus, transport_blob.get("multi_host", False))
        else:
            self.robots = RobotsCache()
        self.url_seen = SeenShard(actor_id, opts.seen_filter)
        # edges outnumber URLs ~linkage-factor×; give the filter headroom
        self.edge_seen = SeenShard(actor_id ^ 0xFFFF, opts.seen_filter,
                                   SEEN_CAPACITY * 4)
        # keys inserted since the last snapshot (checkpointed runs)
        self.journal = KeyJournal(bool(opts.checkpoint_dir))
        self.dup_edges: list[pa.Table] = []
        self.queue: list[pa.Table] = []
        self.queued_rows = 0
        self.deferred: list[pa.Table] = []
        self.delay_map: dict[str, float] = {}
        # result rows not yet handed to the driver (``poll``)
        self.results_buf: list[pa.Table] = []
        # listener events the driver fires from poll(): only the events
        # that have a listener are buffered
        from linkinator_ray.pipelines.crawl import WARN_EVENTS
        self.events = frozenset(events)
        self.buffer_warnings = bool(self.events & WARN_EVENTS)
        self.event_buf: dict[str, list] = {"pagestart": [], "warn": [],
                                           "retry": []}
        self.counters = {"retries": 0, "warn_redirect": 0, "warn_insecure": 0,
                         "warn_status": 0, "pages_crawled": 0,
                         "urls_checked": 0, "rounds": 0}
        self.received_frontier = 0
        self.sent_frontier = 0
        self.received_cand = 0
        self.sent_cand = 0
        self.sent_cand_bytes = 0
        self.messages_received = 0
        self.pump_scheduled = False
        self.pumping = False
        self.paused = False
        self.self_handle = None
        self.peers = None
        # the lease generation this node serves (start); pumps, kicks and
        # waiting polls carry it, so ones sent for an earlier check are
        # dropped
        self.generation = None
        # poll answers given: the driver has fired every answer's
        # buffers once it has taken this many
        self.answers = 0
        self.first_results = True
        self.host_memo: dict = {}
        self.errors: list[str] = []
        # the first exception a pump caught, for an in-process scheduler
        # to raise as it is
        self.error: Exception | None = None
        # pump seconds: admission and ``fetch_batch`` of ``busy_sec``
        self.busy_sec = 0.0
        self.skip_sec = 0.0
        self.fetch_sec = 0.0
        # per-peer buffers of candidates, and of frontier rows forwarded
        # to their host's node, sent by ``_flush_peers``: at the end of
        # each pump or intake, and once the peers are known (``connect``)
        self.peer_buf: list[list[pa.Table]] = [[] for _ in range(num_nodes)]
        self.peer_frontier: list[list[pa.Table]] = \
            [[] for _ in range(num_nodes)]
        # fragment wants: registered unconditionally on arrival
        # (reference registers at link-processing time,
        # src/index.ts:754-784); validated only when the target page is
        # fetched AFTERWARDS — a want for an already-fetched page simply
        # never validates, same as the reference's cached-page path
        self.pending_fragments: dict[str, set] = {}
        self.peer_wants: list[list[pa.Table]] = [[] for _ in range(num_nodes)]
        self.sent_wants = 0
        self.received_wants = 0
        # frontier queue spill (options.mesh_frontier_spill_rows): when
        # the in-memory queue exceeds the cap, the FIFO tail spills to a
        # node-local parquet part; pumps reload parts as the head drains.
        # At 10^10 URLs a node's frontier share can't live in heap —
        # this bounds it to ~cap rows + one part in flight. 0 = off.
        self._frontier_spill_dir: str | None = None
        self._frontier_parts: list[str] = []
        self._spilled_frontier_rows = 0
        self._frontier_part_seq = 0
        if seed is not None:
            self._seed(**seed)
        # whether the driver's last poll answer is out of date: a waiting
        # poll answers once it is set (``_wake``). A node with work
        # answers its first one with its first results, an empty one at
        # once
        self.news = not self.queued_rows

    def _seed(self, frontier, url_keys: np.ndarray, edge_keys: np.ndarray,
              wants, dup_edges, delay_map: dict, seq_counters: dict) -> None:
        """This node's share of the check's start, carried by the lease
        reset: the seen and edge keys of its hash range (the seeds, or a
        checkpoint's key journal: not journaled again, the driver or the
        checkpoint's earlier epochs hold them), the frontier rows it
        fetches, and its pending fragment wants and duplicate edges, each
        ``schema.encode``d or None. Every node takes the whole delay map
        and scripted-sequence counters: any node may own a host."""
        if len(url_keys):
            self.url_seen.contains_or_insert(
                np.asarray(url_keys, dtype=np.uint64))
        if len(edge_keys):
            self.edge_seen.contains_or_insert(
                np.asarray(edge_keys, dtype=np.uint64))
        self.delay_map.update(delay_map)
        self.worker.transport.seq_counters.update(seq_counters)
        if wants is not None:
            self._register_wants(schema.decode(wants))
        if dup_edges is not None:
            self.dup_edges.append(schema.decode(dup_edges))
        if frontier is not None:
            self._enqueue_table(schema.decode(frontier))

    def start(self, self_handle, generation: int) -> None:
        """Serve lease ``generation``: pumps go to ``self_handle``, and
        the seeds' first pump is scheduled. The peers come later
        (``connect``); until then sends are held."""
        with self.lock:
            self.self_handle = self_handle
            self.generation = generation
            self._schedule_pump()

    def connect(self, peers) -> None:
        """Every node's handle (this one's included), sent once every
        node's reset has finished: a pooled actor not yet reset would
        answer a peer message as an idle shell. Sends the held ones."""
        with self.lock:
            self.peers = peers
            if self._flush_peers():
                self._wake_if_idle()

    def close(self) -> None:
        """Release: drop the peer handles (the mesh's handle cycle), stop
        answering this check's pumps and kicks, answer a waiting poll,
        stop the fetch worker's connection threads and remove the
        frontier spill directory."""
        import shutil
        with self.lock:
            self.generation = None
            self.self_handle = None
            self.peers = None
            self.changed.notify_all()
        self.worker.close()
        if self._frontier_spill_dir is not None:
            shutil.rmtree(self._frontier_spill_dir, ignore_errors=True)

    # -- intake ------------------------------------------------------------

    def enqueue(self, buf) -> None:
        """Peer message: frontier rows (``schema.encode``d) whose fetch
        this node owns."""
        table = schema.decode(buf)
        with self.lock:
            self.messages_received += 1
            self._enqueue_table(table)
            self._wake_if_idle()

    def _enqueue_table(self, table: pa.Table) -> None:
        """Rows restored from a checkpoint can carry a future
        ``not_before`` (retry backoff / politeness deferrals snapshotted
        mid-wait) — they park in ``deferred`` so the resume honors the
        original deadline instead of re-fetching a still-failing host
        immediately; a waiting poll wakes them at their deadline."""
        if table.num_rows == 0:
            return
        self.received_frontier += table.num_rows
        nb = table["not_before"].to_numpy(zero_copy_only=False)
        future = nb > self.clock.now()
        if future.any():
            self.deferred.append(table.filter(pa.array(future)))
            table = table.filter(pa.array(~future))
        if table.num_rows:
            self._append_local(table)

    def _append_local(self, table: pa.Table) -> None:
        self.queue.append(table)
        self.queued_rows += table.num_rows
        cap = self.opts.mesh_frontier_spill_rows
        if cap and self.queued_rows > cap:
            self._spill_frontier()
        self._schedule_pump()

    def _spill_frontier(self) -> None:
        """Keep the FIFO head (half the cap) in memory, write the tail
        to a node-local parquet part."""
        import os
        import tempfile

        import pyarrow.parquet as pq
        merged = pa.concat_tables(self.queue).combine_chunks()
        keep = max(1, self.opts.mesh_frontier_spill_rows // 2)
        head = merged.slice(0, keep)
        tail = merged.slice(keep)
        if tail.num_rows == 0:
            return
        if self._frontier_spill_dir is None:
            self._frontier_spill_dir = tempfile.mkdtemp(
                prefix=f"mesh-frontier-{self.actor_id:02d}-")
        path = os.path.join(self._frontier_spill_dir,
                            f"part{self._frontier_part_seq:06d}.parquet")
        self._frontier_part_seq += 1
        pq.write_table(tail, path + ".tmp")
        os.replace(path + ".tmp", path)
        self._frontier_parts.append(path)
        self._spilled_frontier_rows += tail.num_rows
        self.queue = [head]
        self.queued_rows = head.num_rows
        self.counters["frontier_spilled_rows"] = \
            self.counters.get("frontier_spilled_rows", 0) + tail.num_rows

    def _unspill_frontier(self) -> None:
        """Reload the oldest spilled part into the queue (FIFO)."""
        import os

        import pyarrow.parquet as pq
        path = self._frontier_parts.pop(0)
        part = pq.read_table(path)
        os.unlink(path)
        self._spilled_frontier_rows -= part.num_rows
        self.queue.append(part)
        self.queued_rows += part.num_rows

    def deliver_candidates(self, buf) -> None:
        """Peer message: candidate links (``schema.encode``d) whose
        url_hash this node owns."""
        self.submit_candidates(schema.decode(buf))

    def submit_candidates(self, cand: pa.Table) -> None:
        """Candidate links whose url_hash this node owns."""
        with self.lock:
            self.messages_received += 1
            self.received_cand += cand.num_rows
            self._accept_candidates(cand)
            self._flush_peers()
            self._wake_if_idle()

    def deliver_wants(self, buf) -> None:
        """Peer message: fragment wants (``schema.encode``d) whose target
        page this node will fetch."""
        wants = schema.decode(buf)
        with self.lock:
            self.messages_received += 1
            self.received_wants += wants.num_rows
            self._register_wants(wants)
            self._wake_if_idle()

    def _register_wants(self, wants: pa.Table) -> None:
        for url, frag in zip(wants["target_url"].to_pylist(),
                             wants["fragment"].to_pylist()):
            self.pending_fragments.setdefault(url, set()).add(frag)

    def _schedule_pump(self) -> None:
        if not self.pump_scheduled and not self.paused \
                and self.self_handle is not None \
                and (self.queue or self._frontier_parts):
            self.pump_scheduled = True
            self.self_handle.pump.remote(self.generation)

    def _wake(self) -> None:
        """Mark the driver's view of this node out of date, and answer a
        waiting poll."""
        self.news = True
        self.changed.notify_all()

    def _wake_if_idle(self) -> None:
        """Wake a waiting poll if no pump is running or scheduled: a busy
        node's pump wakes it when its results are ready or it turns
        idle, so an idle node whose counters moved is the one case
        left."""
        if not (self.pumping or self.pump_scheduled):
            self._wake()

    # -- checkpoint coordination (driver-driven epoch snapshots) ----------

    def pause(self) -> None:
        """Stop scheduling new pumps; intake keeps queueing. The driver
        waits for in-flight messages to settle (counters) then
        snapshots."""
        with self.lock:
            self.paused = True
            if self._flush_peers():
                self._wake_if_idle()

    def resume_run(self) -> None:
        with self.lock:
            self.paused = False
            self._schedule_pump()

    def snapshot(self) -> dict:
        """Consistent node state for a checkpoint — call only when
        paused and settled (the driver's counter check guarantees no
        in-flight messages)."""
        with self.lock:
            spilled = []
            if self._frontier_parts:
                import pyarrow.parquet as pq
                # parts stay on disk (the live run keeps draining them);
                # the checkpoint reads them into the frontier snapshot
                spilled = [pq.read_table(p) for p in self._frontier_parts]
            return {
                "frontier": _wire(self.queue + spilled + self.deferred,
                                  schema.FRONTIER),
                # drained into THIS epoch's checkpoint: every key lives
                # in exactly one epoch's journal
                "journal": self.journal.drain(),
                "pending_fragments": schema.encode(
                    pending_table(self.pending_fragments)),
                "delay_map": dict(self.delay_map),
                "seq_counters": dict(self.worker.transport.seq_counters),
                "dup_edges": _wire(self.dup_edges, schema.EDGES),
                "counters": dict(self.counters),
            }

    # -- dedup + frontier routing (the shard role) -------------------------

    def _accept_candidates(self, cand: pa.Table) -> None:
        """The dedup joins over this node's key range (crawl
        ``dedup_candidates``), then fresh rows to their fetch owners;
        (url, parent) duplicates of seen URLs are kept for the J1 join."""
        from linkinator_ray.pipelines.crawl import dedup_candidates
        frontier, dups, edge_fresh, keep = dedup_candidates(
            cand, self.edge_seen, self.url_seen)
        self.journal.add_candidates(cand, edge_fresh, keep)
        if dups.num_rows:
            self.dup_edges.append(dups)
        if not frontier.num_rows:
            return
        if not self.sticky_hosts:
            # balanced mode: the url_hash owner IS the fetch owner
            self._append_local(frontier)
            return
        owners = frontier_owner(frontier, self.num_nodes, True, self.host_memo)
        for a, piece in split_by_owner(frontier, owners, self.num_nodes):
            if a == self.actor_id:
                self._append_local(piece)
            else:
                self.peer_frontier[a].append(piece)

    # -- the work loop -----------------------------------------------------

    def _wake_deferred(self, now: float) -> None:
        if not self.deferred:
            return
        still = []
        for t in self.deferred:
            nb = t["not_before"].to_numpy(zero_copy_only=False)
            ready = nb <= now
            if ready.any():
                piece = t.filter(pa.array(ready))
                self.queue.append(piece)
                self.queued_rows += piece.num_rows
                t = t.filter(pa.array(~ready))
            if t.num_rows:
                still.append(t)
        self.deferred = still

    def pump(self, generation: int) -> None:
        now = self.clock.now()
        with self.lock:
            if generation != self.generation:
                return  # sent for a check this node no longer serves
            self.pump_scheduled = False
            if self.pumping:
                return  # the active pump reschedules on exit
            self.pumping = True
            self._wake_deferred(now)
            if not self.queue and self._frontier_parts:
                self._unspill_frontier()
            if not self.queue:
                self.pumping = False
                self._flush_peers()
                self._wake_if_idle()
                return
            batch = pa.concat_tables(self.queue)
            self.queue = []
            self.queued_rows = 0
            if batch.num_rows > self.batch_cap:
                tail = batch.slice(self.batch_cap)
                self.queue = [tail]
                self.queued_rows = tail.num_rows
                batch = batch.slice(0, self.batch_cap)
        t0 = time.perf_counter()
        try:
            self._process(batch, now, t0)
        except Exception as exc:
            # surfaced via poll(); fire-and-forget would lose it
            import traceback
            with self.lock:
                self.errors.append(traceback.format_exc())
                self.error = self.error or exc
                self._wake()
        with self.lock:
            self._flush_peers()
            self.busy_sec += time.perf_counter() - t0
            self.counters["rounds"] += 1
            self.pumping = False
            self._schedule_pump()
            self._wake_if_idle()

    def _process(self, batch: pa.Table, now: float, t0: float) -> None:
        from linkinator_ray.pipelines.crawl import (admit_frontier,
                                                    apply_rewrites_table,
                                                    assemble_result_tables,
                                                    compute_requeues,
                                                    validate_fragment_wants)
        batch = apply_rewrites_table(batch, self.opts.url_rewrites)
        with self.lock:
            batch, skipped, deferred = admit_frontier(
                batch, now, self.counters["rounds"], self.opts,
                self.worker.skip, self.robots, self.delay_map)
            if skipped is not None:
                self.results_buf.append(skipped)
            self.deferred.extend(deferred)
            if "pagestart" in self.events and batch.num_rows:
                self.event_buf["pagestart"].append(
                    batch.select(schema.PAGESTART_ROWS.names))
            pending_list = list(self.pending_fragments) \
                if self.opts.check_fragments else []
            t1 = time.perf_counter()
            self.skip_sec += t1 - t0
        if batch.num_rows == 0:
            return
        # the long fetch/extract section runs WITHOUT the lock so peer
        # messages (enqueue/submit/poll) land concurrently
        output = self.worker.fetch_batch(batch, pending_list, now)
        fetched = output["fetched"]
        t2 = time.perf_counter()
        # retries count from the fetch's end: on a wall clock it took time
        done = self.clock.now()
        with self.lock:
            self.fetch_sec += t2 - t1
            self.counters["urls_checked"] += fetched.num_rows
            fetched, requeues, n_retries = compute_requeues(
                fetched, done, self.delay_map, self.opts, self.rng,
                done - now)
            self.counters["retries"] += n_retries
            requeues = [t for t in requeues if t.num_rows]
            self.deferred.extend(requeues)
            if "retry" in self.events:
                self.event_buf["retry"].extend(
                    t.select(["url", "not_before"]).append_column(
                        "now", pa.array(np.full(t.num_rows, done)))
                    for t in requeues)
            results, remaining = assemble_result_tables(
                fetched, output["link_results"], self.counters["rounds"],
                self.counters, check_css=self.opts.check_css)
            self.results_buf.extend(results)
            if self.buffer_warnings and remaining.num_rows:
                self.event_buf["warn"].append(
                    remaining.select(schema.WARN_ROWS.names))
            # the results go to a waiting poll now, not after routing:
            # the node's first ones at once (the check's first answer),
            # then a pump's worth (the pump cap) at a time. Each answer
            # costs the busy pumps a reply; turning idle hands over the
            # rest
            if self.first_results or sum(
                    t.num_rows for t in self.results_buf) >= self.batch_cap:
                self.first_results = False
                self._wake()
        with self.lock:
            if self.opts.check_fragments:
                # own-range wants register BEFORE validating this
                # batch's pages, so same-page/same-batch fragments
                # validate now (the reference's ordering)
                self._route_wants(output["pending_frags"])
                if remaining.num_rows:
                    bad = validate_fragment_wants(
                        remaining, output["frag_targets"],
                        self.pending_fragments, self.counters["rounds"])
                    if bad is not None:
                        self.results_buf.append(bad)
            self._route_candidates(output["candidates"])

    def _route_wants(self, wants: pa.Table) -> None:
        """Route fragment wants to the node that will FETCH the target
        (host owner in sticky mode, url_hash owner in balanced mode —
        the same assignment frontier rows use). Own-range wants register
        immediately so same-batch pages validate in this pump (driver-
        mode ordering)."""
        if wants.num_rows == 0:
            return
        owners = want_owner(wants, self.num_nodes, self.sticky_hosts,
                            self.host_memo)
        for a, piece in split_by_owner(wants, owners, self.num_nodes):
            if a == self.actor_id:
                self._register_wants(piece)
            else:
                self.peer_wants[a].append(piece)

    def _route_candidates(self, cand: pa.Table) -> None:
        if cand.num_rows == 0:
            return
        owners = hash_owner(cand["url_hash"].to_numpy(zero_copy_only=False),
                            self.num_nodes)
        for a, piece in split_by_owner(cand, owners, self.num_nodes):
            if a == self.actor_id:
                self._accept_candidates(piece)
            else:
                self.peer_buf[a].append(piece)

    def _flush_peers(self) -> bool:
        """Send every peer its buffered candidates, fragment wants and
        forwarded frontier rows, one message per kind; hold them while
        the peers are not known yet. Whether anything was sent."""
        if self.peers is None:
            return False
        sent = False
        for a in range(self.num_nodes):
            bufs = self.peer_buf[a]
            if bufs:
                self.peer_buf[a] = []
                self.sent_cand += sum(t.num_rows for t in bufs)
                buf = _wire(bufs, schema.CANDIDATES)
                self.sent_cand_bytes += buf.size
                self.peers[a].deliver_candidates.remote(buf)
            wbufs = self.peer_wants[a]
            if wbufs:
                self.peer_wants[a] = []
                self.sent_wants += sum(t.num_rows for t in wbufs)
                self.peers[a].deliver_wants.remote(
                    _wire(wbufs, schema.PENDING_FRAGS))
            fbufs = self.peer_frontier[a]
            if fbufs:
                self.peer_frontier[a] = []
                self.sent_frontier += sum(t.num_rows for t in fbufs)
                self.peers[a].enqueue.remote(_wire(fbufs, schema.FRONTIER))
            sent = sent or bool(bufs or wbufs or fbufs)
        return sent

    # -- driver interface --------------------------------------------------

    def poll(self, generation: int | None = None, wait: bool = False,
             broken=None) -> dict:
        """Stable-state snapshot + results drain (consistent under the
        node lock; a mid-pump node reports pumping=True so the driver
        never mistakes it for idle). ``results`` and each kind of
        ``events`` are one ``schema.encode``d table, or None when
        empty.

        ``wait`` holds the answer until there is news (``_wake``): the
        node's first results, a pump cap's worth of results, the node
        turning idle, an idle node's counters moving, an error, or the
        earliest deferred deadline, at which the node wakes those rows
        itself. A close, or a lease other than ``generation``, answers
        at once.

        Each answer is numbered (``answer``) and hands over the request
        log's rows since the last one (``requests``, encoded, or None).

        ``broken`` (the crawl's frontier-level BROKEN rows whose URLs
        this node owns, ``schema.encode``d) asks for the end of the
        check: the answer adds this node's duplicate-broken rows
        (``j1``, None when there are none). The dup edges stay, in case
        the driver finds the mesh was not done."""
        with self.lock:
            while wait and not self.news and not self.errors \
                    and generation == self.generation:
                due = self._earliest_deadline()
                now = self.clock.now()
                if due and due <= now:
                    self._wake_deferred(now)
                    self._schedule_pump()
                    break
                self.changed.wait(due - now + 0.001 if due else None)
            self.news = False
            state = self._poll_locked()
            dups = list(self.dup_edges)
            requests = self.worker.transport.log.take()
        # encoded outside the lock, which a pump needs to hand over its
        # results
        results = state["results"]
        state["results"] = _wire(results, schema.RESULT_ROWS) \
            if results else None
        state["requests"] = _wire(requests, schema.CALLS) \
            if requests else None
        state["events"] = {kind: _wire(tables, EVENT_SCHEMAS[kind])
                           if tables else None
                           for kind, tables in state["events"].items()}
        if broken is not None:
            from linkinator_ray.pipelines.crawl import duplicate_broken_rows
            j1 = duplicate_broken_rows(dups, schema.decode(broken))
            state["j1"] = schema.encode(j1) if j1 is not None else None
        return state

    def _earliest_deadline(self) -> float:
        """The earliest ``not_before`` of the deferred rows, 0.0 when
        none wait."""
        return min((float(t["not_before"].to_numpy(
            zero_copy_only=False).min()) for t in self.deferred),
            default=0.0)

    def _poll_locked(self) -> dict:
        results = self.results_buf
        self.results_buf = []
        events = self.event_buf
        self.event_buf = {kind: [] for kind in events}
        self.answers += 1
        return {
            "answer": self.answers,
            "received_frontier": self.received_frontier,
            "sent_frontier": self.sent_frontier,
            "received_cand": self.received_cand,
            "sent_cand": self.sent_cand,
            "sent_wants": self.sent_wants,
            "received_wants": self.received_wants,
            "messages_received": self.messages_received,
            "queued_rows": self.queued_rows + self._spilled_frontier_rows,
            "held_cand": sum(t.num_rows for bufs in
                             (*self.peer_buf, *self.peer_wants,
                              *self.peer_frontier)
                             for t in bufs),
            "deferred_rows": sum(t.num_rows for t in self.deferred),
            "earliest_deadline": self._earliest_deadline(),
            "pump_scheduled": self.pump_scheduled or self.pumping,
            "sent_cand_bytes": self.sent_cand_bytes,
            "counters": dict(self.counters),
            "results": results,
            "events": events,
            "errors": self.errors,
            "busy_sec": self.busy_sec,
            # the pumps' seconds by stage: admission, ``fetch_batch``
            # and the rest
            "stage_sec": {"skip": self.skip_sec, "fetch": self.fetch_sec,
                          "process": self.busy_sec - self.skip_sec
                          - self.fetch_sec},
            "seen_size": self.url_seen.size(),
        }

    def kick(self, generation: int) -> None:
        """Driver nudge: wake deferred rows whose deadline passed and
        send any buffered sends."""
        with self.lock:
            if generation != self.generation:
                return
            self._wake_deferred(self.clock.now())
            sent = self._flush_peers()
            self._schedule_pump()
            if sent:
                self._wake_if_idle()


# the schema of each kind of buffered listener event (``poll``)
EVENT_SCHEMAS = {"pagestart": schema.PAGESTART_ROWS,
                 "warn": schema.WARN_ROWS, "retry": schema.RETRY_ROWS}


def _wire(tables: list[pa.Table], table_schema: pa.Schema):
    """``tables`` as one ``schema.encode``d table (an empty table of
    ``table_schema`` when there are none)."""
    if not tables:
        return schema.encode(schema.empty(table_schema))
    return schema.encode(tables[0] if len(tables) == 1
                         else pa.concat_tables(tables))
