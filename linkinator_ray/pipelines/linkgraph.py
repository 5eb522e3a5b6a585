"""Link-graph analytics over the crawl's extracted edge list.

What a crawl engine's output feeds next: per-page degree statistics and
link rankings over the (src_doc, dst_doc) edge list that the
span-extraction pipeline produces (graph.extract_edges — the Ray
analogue of walking linkinator's per-page ParsedUrl[] output, reference
src/links.ts:94-140).

Every operator is EXACT-integer so the driver's DuckDB oracle hashes
identically:

- ``degree_stats``: each edge emits (src,+out) and (dst,+in) increment
  rows; ONE combiner exchange (hashagg) sums them — no join, no driver
  state, rows moved = 2·|E| pre-combined to ≤ 2·|V|.
- ``pagerank`` and ``hits``: fixed-point arithmetic (floor division
  everywhere) makes each iteration a pure integer recurrence —
  order-independent sums, so an unrolled SQL oracle reproduces the
  distributed result bit-for-bit. Both run on one engine of resident
  ``GraphShard`` actors, vertex-partitioned as in Pregel (Malewicz et
  al., SIGMOD 2010): the edge list is scattered ONCE, and an iteration
  step moves only pre-aggregated (node, sum) rows between shards.
  PageRank's dangling nodes (404 targets: in-links only) contribute
  nothing, per the standard mass-dropping simplification — identical in
  the oracle.

Scale notes: the shards hold every edge twice (at its src's owner and
at its dst's owner, one exchange plan per direction) and O(|V|) int64
vectors; a step moves O(|V|) rows, where a Dataset plan would re-shuffle
the O(|E|) edge list every iteration. The driver sees per-step
(min, max) scalars and the final rank table.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import pyarrow as pa

from linkinator_ray.pipelines import graph
from linkinator_ray.pipelines.hashagg import hash_aggregate, hash_join, topk

PR_SCALE = 10 ** 12
PR_DAMPING_PCT = 85
PR_ITERS = 4
HITS_SCALE = 10 ** 6
HITS_ITERS = 3


def _guard_contrib(contrib: np.ndarray, damping_pct: int) -> None:
    """Fail loudly instead of diverging from the bigint oracle.

    contrib approaches |in-links|·pr for a hub. Two wrap points: the
    int64 SUM itself (pairwise wrap lands negative — checked via
    min()<0; a double-wrap back to positive needs ≈2^64·pr of mass,
    i.e. ≥2^24 MORE in-links past the first detection point), and the
    damping multiply (checked against (2^63−1)//damping_pct). Both
    recoverable by lowering PR_SCALE."""
    if not len(contrib):
        return
    lo, hi = int(contrib.min()), int(contrib.max())
    if lo < 0:
        raise OverflowError(
            "pagerank contribution SUM wrapped int64 (negative "
            f"partial {lo}); lower scale")
    if hi > (2**63 - 1) // damping_pct:
        raise OverflowError(
            "pagerank contrib would overflow int64 in the damping "
            f"multiply (max contrib {hi}, damping {damping_pct}); "
            "lower scale")


def degree_stats(sf_dir: str):
    """(doc_id, out_deg, in_deg) over the distinct extracted edge set.

    Nodes = src ∪ dst (a 404 target has in_deg > 0, out_deg = 0)."""
    edges = graph.extract_edges(sf_dir)

    def to_increments(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        ones = pa.array(np.ones(n, dtype=np.int64))
        zeros = pa.array(np.zeros(n, dtype=np.int64))
        doc = pa.chunked_array([batch["src_doc"], batch["dst_doc"]])
        return pa.table({
            "doc_id": doc.combine_chunks(),
            "out_inc": pa.chunked_array([ones, zeros]).combine_chunks(),
            "in_inc": pa.chunked_array([zeros, ones]).combine_chunks(),
        })

    inc = edges.map_batches(to_increments, batch_format="pyarrow")
    return hash_aggregate(inc, "doc_id", {"out_deg": ("out_inc", "sum"),
                                          "in_deg": ("in_inc", "sum")})


def pagerank(sf_dir: str, iters: int = PR_ITERS,
             damping_pct: int = PR_DAMPING_PCT, scale: int = PR_SCALE,
             num_shards: int | None = None):
    """Exact-integer PageRank over the extracted link graph.

    pr0[v] = scale; pr[v] = base + (Σ_{u→v} pr[u]//deg[u]) · d // 100
    with base = (100−d)·scale//100 — all floor division on int64, so
    the result is independent of summation order and of ``num_shards``
    (the resident-shard count; default from the cluster's CPUs)."""
    base = (100 - damping_pct) * scale // 100

    def coeffs(lo: int, hi: int) -> tuple[int, int, int]:
        _guard_contrib(np.array([lo, hi], np.int64), damping_pct)
        return base, damping_pct, 100

    step = _Step("pr", "out", True, "pr", coeffs)
    return _rank_on_shards(graph.extract_edges(sf_dir), {"pr": scale},
                           [step] * iters, num_shards)


# the name the resident-shard engine first had, kept for its callers
pagerank_actors = pagerank


def hits(sf_dir: str, iters: int = HITS_ITERS, scale: int = HITS_SCALE):
    """Exact-integer HITS (hubs & authorities) over the extracted link
    graph (Kleinberg 1999), the second classic crawl-output ranking
    next to ``pagerank`` (reference walks the same per-page link lists,
    src/links.ts:94-140).

    a0[v] = scale; per iteration: h[u] = norm(Σ_{u→v} a[v]),
    a[v] = norm(Σ_{u→v} h[u]) with norm(x) = x·scale // max(x) — all
    int64 floor arithmetic. Max-normalization (instead of the textbook
    L2 norm) keeps the recurrence exact: sums and max are
    order-independent, so a 3-iteration unrolled SQL oracle hashes
    identically. Each half-step is one shard step."""
    return _hits_edges(graph.extract_edges(sf_dir), iters, scale)


def _hits_edges(edges, iters: int = HITS_ITERS, scale: int = HITS_SCALE,
                num_shards: int | None = None):
    """``hits`` over any DISTINCT (src_doc, dst_doc) edge Dataset."""
    def coeffs(lo: int, hi: int) -> tuple[int, int, int]:
        if hi <= 0:
            raise ValueError("HITS max-normalizer is 0 — empty edge set?")
        if hi > (2 ** 63 - 1) // scale:
            raise OverflowError(
                f"HITS normalize multiply would overflow int64 (max raw "
                f"{hi}, scale {scale}); lower scale")
        if lo < 0:
            raise OverflowError("HITS contribution SUM wrapped int64")
        return 0, scale, hi

    # the hub step sums a[v] over out-edges (u, v), i.e. pushes a[v]
    # back along in-edges to u; the authority step pushes h[u] forward
    steps = [_Step("auth", "in", False, "hub", coeffs),
             _Step("hub", "out", False, "auth", coeffs)] * iters
    return _rank_on_shards(edges, {"hub": 0, "auth": scale}, steps,
                           num_shards)


def hits_reference(edges: list[tuple[int, int]], iters: int = HITS_ITERS,
                   scale: int = HITS_SCALE) -> dict[int, tuple[int, int]]:
    """Single-machine integer HITS (differential-test oracle)."""
    nodes = sorted({u for u, _ in edges} | {v for _, v in edges})
    a = {v: scale for v in nodes}
    h = {v: 0 for v in nodes}
    for _ in range(iters):
        raw_h = {v: 0 for v in nodes}
        for u, v in edges:
            raw_h[u] += a[v]
        m = max(raw_h.values())
        h = {v: raw_h[v] * scale // m for v in nodes}
        raw_a = {v: 0 for v in nodes}
        for u, v in edges:
            raw_a[v] += h[u]
        m = max(raw_a.values())
        a = {v: raw_a[v] * scale // m for v in nodes}
    return {v: (h[v], a[v]) for v in nodes}


def pagerank_reference(edges: list[tuple[int, int]], iters: int = PR_ITERS,
                       damping_pct: int = PR_DAMPING_PCT,
                       scale: int = PR_SCALE) -> dict[int, int]:
    """Single-machine integer PageRank (differential-test oracle)."""
    base = (100 - damping_pct) * scale // 100
    nodes = sorted({u for u, _ in edges} | {v for _, v in edges})
    deg: dict[int, int] = {}
    for u, _ in edges:
        deg[u] = deg.get(u, 0) + 1
    pr = {v: scale for v in nodes}
    for _ in range(iters):
        contrib = {v: 0 for v in nodes}
        for u, v in edges:
            contrib[v] += pr[u] // deg[u]
        pr = {v: base + contrib[v] * damping_pct // 100 for v in nodes}
    return pr


# ---------------------------------------------------------------------------
# The resident-shard ranking engine — iterative algorithms without
# per-iteration edge shuffles
# ---------------------------------------------------------------------------

class _Step(NamedTuple):
    """One iteration step: every edge carries vector ``read`` of its
    sending end ("out": src → dst; "in": dst → src), divided by the
    src's out-degree when ``per_degree``; the receiving nodes sum what
    they get, and ``write`` = add + sum·mul // div, where
    ``coeffs(lo, hi)`` of the global (min, max) sum gives
    (add, mul, div) or raises where int64 would wrap."""
    read: str
    along: str
    per_degree: bool
    write: str
    coeffs: Callable[[int, int], tuple[int, int, int]]


def _owner_of(ids: np.ndarray, num_shards: int) -> np.ndarray:
    """Node → shard assignment (splitmix64 mod P — balanced under
    sequential doc_ids)."""
    from linkinator_ray.pipelines.hashagg import _splitmix64
    with np.errstate(over="ignore"):
        return (_splitmix64(ids.astype(np.int64).view(np.uint64))
                % np.uint64(num_shards)).astype(np.int64)


def _batch_checksum(src: np.ndarray, dst: np.ndarray) -> int:
    """Content checksum of one scatter batch. Batches partition the
    globally-DISTINCT edge set, so batch contents never repeat and the
    checksum is a valid idempotency key (collision odds ~2^-64 — the
    same trust level as the documented cuckoo budget)."""
    from linkinator_ray.pipelines.hashagg import _splitmix64
    with np.errstate(over="ignore"):
        h = _splitmix64(src.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
                        + dst.view(np.uint64))
        return int(h.sum(dtype=np.uint64))


def _make_graph_shard():
    """Defined lazily so importing this module never requires Ray."""
    import ray

    @ray.remote
    class GraphShard:
        """One vertex partition of the link graph, held resident across
        iterations: every edge with an endpoint this shard OWNS, one
        precomputed exchange plan per direction, the owned nodes'
        out-degrees and named int64 vectors over them. A step puts only
        PRE-AGGREGATED (node, sum) rows on the wire — the edge list
        never moves again after the one-time build scatter.

        This is the documented raw-actor escape hatch (SURVEY §2.3 /
        ray_guide): Ray Data has no persistent co-partitioning, so a
        Dataset plan re-partitions the full edge list every iteration;
        at 10^10 edges that shuffle dwarfs the rank-row traffic this
        design pays instead.

        Every build message carries an idempotency key (content
        checksum of its source batch): Ray Data map tasks RETRY, and a
        retried scatter task re-sends its messages — duplicates are
        dropped here so the exact-count barrier stays satisfiable."""

        def __init__(self, shard_id: int, num_shards: int):
            self.shard_id = shard_id
            self.P = num_shards
            self._edge_parts: list = []    # (src, dst) arrays
            self._seen_keys: set = set()
            self._sealed = False
            self.n_edges_recv = 0
            self._inbox: dict = {}         # step -> list of (node, sum)
            self._inbox_from: dict = {}    # step -> set of sender ids
            self._raw = None               # the gathered step's sums
            # fire-and-forget senders drop their ObjectRefs, so a
            # worker-side exception would otherwise vanish and the run
            # would die 120 s later as an opaque barrier timeout —
            # record it here; the driver polls via errors()
            self._errors: list = []

        def errors(self) -> list:
            return self._errors

        # ---- build ----
        def add_edges(self, key, src: np.ndarray, dst: np.ndarray) -> None:
            # post-seal arrivals can only be retry duplicates: the
            # exact-count barrier already accounted for every unique
            # batch before seal ran
            try:
                if self._sealed or key in self._seen_keys:
                    return
                self._seen_keys.add(key)
                self._edge_parts.append((src, dst))
                self.n_edges_recv += len(src)
            except Exception:  # surfaced via errors(), not lost
                import traceback
                self._errors.append(traceback.format_exc())
                raise

        def received(self) -> int:
            return self.n_edges_recv

        def seal(self, init: dict) -> int:
            """Freeze the partition: owned nodes, their out-degrees,
            one vector per ``init`` entry (name → start value) and the
            two ITERATION-INVARIANT exchange plans, so a step does no
            sorting at all. Returns the owned node count."""
            parts = self._edge_parts or [(np.empty(0, np.int64),) * 2]
            src = np.concatenate([p[0] for p in parts])
            dst = np.concatenate([p[1] for p in parts])
            self._edge_parts = self._seen_keys = None
            self._sealed = True
            out = _owner_of(src, self.P) == self.shard_id
            inn = _owner_of(dst, self.P) == self.shard_id
            # a node is an endpoint of some edge, and that edge reached
            # the node's owner
            self.nodes = np.unique(np.concatenate([src[out], dst[inn]]))
            # local degree == global degree: ALL out-edges of an owned
            # src live here
            su, sc = np.unique(src[out], return_counts=True)
            self.deg = np.zeros(len(self.nodes), np.int64)
            self.deg[np.searchsorted(self.nodes, su)] = sc
            self._plans = {"out": self._plan(src[out], dst[out]),
                           "in": self._plan(dst[inn], src[inn])}
            self.vecs = {name: np.full(len(self.nodes), v, np.int64)
                         for name, v in init.items()}
            return len(self.nodes)

        def _plan(self, frm: np.ndarray, to: np.ndarray) -> tuple:
            """Edges frm → to (frm owned here) sorted by (owner of to,
            to): the slot of each edge's frm, the start of each to
            group, the group's to id, and each peer's group range."""
            own = _owner_of(to, self.P)
            order = np.lexsort((to, own))
            to_s = to[order]
            starts = np.flatnonzero(
                np.r_[len(to_s) > 0, to_s[1:] != to_s[:-1]])
            bounds = np.searchsorted(own[order][starts],
                                     np.arange(self.P + 1))
            return (np.searchsorted(self.nodes, frm[order]), starts,
                    to_s[starts], bounds)

        # ---- iterate ----
        def push(self, step: int, read: str, along: str,
                 per_degree: bool, peers: list) -> None:
            """Shares of vector ``read`` in plan order, one reduceat
            over the precomputed group starts, one message per peer
            shard (empty messages keep the barrier deterministic)."""
            slot, starts, targets, bounds = self._plans[along]
            shares = self.vecs[read][slot]
            if per_degree:
                shares = shares // self.deg[slot]
            sums = np.add.reduceat(shares, starts) if len(starts) \
                else shares
            for p in range(self.P):
                lo, hi = bounds[p], bounds[p + 1]
                peers[p].receive.remote(step, self.shard_id,
                                        targets[lo:hi], sums[lo:hi])

        def receive(self, step: int, sender: int, nodes: np.ndarray,
                    sums: np.ndarray) -> None:
            # dedupe by SENDER, not message count: a retried/duplicated
            # delivery must not let the barrier pass with 2 messages
            # from shard A and 0 from B (sums double-counted and
            # dropped, silently wrong ranks). A sender's (step, payload)
            # is a pure function of sealed state + its vectors, so
            # dropping the duplicate is exact.
            try:
                heard = self._inbox_from.setdefault(step, set())
                if sender in heard:
                    return
                heard.add(sender)
                self._inbox.setdefault(step, []).append((nodes, sums))
            except Exception:
                import traceback
                self._errors.append(traceback.format_exc())
                raise

        def ready(self, step: int) -> bool:
            return len(self._inbox_from.get(step, ())) >= self.P

        def gather(self, step: int) -> tuple:
            """Sum the step's messages per owned node; returns the
            (min, max) sum, (0, 0) on a shard that owns no node."""
            raw = np.zeros(len(self.nodes), np.int64)
            for nodes, sums in self._inbox.pop(step, []):
                # a message names each node once, so += is exact
                raw[np.searchsorted(self.nodes, nodes)] += sums
            self._inbox_from.pop(step, None)
            self._raw = raw
            return (int(raw.min()), int(raw.max())) if len(raw) else (0, 0)

        def apply(self, write: str, add: int, mul: int, div: int) -> None:
            self.vecs[write] = add + self._raw * mul // div
            self._raw = None

        def table(self, names: list) -> "pa.Table":
            cols = {"doc_id": pa.array(self.nodes, pa.int64())}
            for name in names:
                cols[name] = pa.array(self.vecs[name], pa.int64())
            return pa.table(cols)

    return GraphShard


def _raise_shard_errors(shards: list) -> None:
    """Re-raise the first worker-side traceback a shard recorded."""
    import ray
    for p, errs in enumerate(ray.get([s.errors.remote() for s in shards])):
        if errs:
            raise RuntimeError(f"graph shard {p} failed:\n{errs[0]}")


def _await(shards: list, poll: Callable, want: list, what: str) -> None:
    """Poll ``poll(shard)`` on every shard until the answers equal
    ``want``. Actor mailboxes order messages per sender only, so the
    driver cannot just send the next RPC after fire-and-forget traffic.

    The deadline is progress-based: a healthy large scatter that is
    still draining mailboxes must not be killed by a fixed clock — only
    answers that stop changing for 120 s time out. Errors are polled
    every ~1 s, so a deterministic worker failure surfaces at once
    instead of costing the stall window first."""
    import time

    import ray
    stall_s, err_poll_s = 120, 1.0
    last, last_change = None, time.time()
    last_err_poll = time.time()
    while True:
        got = ray.get([poll(s) for s in shards])
        if got == want:
            return
        now = time.time()
        if now - last_err_poll > err_poll_s:
            _raise_shard_errors(shards)
            last_err_poll = now
        if got != last:
            last, last_change = got, now
        elif now - last_change > stall_s:
            _raise_shard_errors(shards)
            raise TimeoutError(f"{what} stalled {stall_s}s: "
                               f"{got} != {want}")
        time.sleep(0.02)


def _rank_on_shards(edges, init: dict, steps: list, num_shards: int | None):
    """Run ``steps`` over a DISTINCT (src_doc, dst_doc) edge Dataset on
    resident ``GraphShard`` actors; returns (doc_id, *init) as a Dataset.

    Build: each edge goes ONCE to its src's owner and to its dst's
    owner (one message when they are the same shard). Routing tasks
    return per-shard row counts, and the driver waits until every shard
    received exactly that many — a bare seal RPC could overtake
    in-flight scatter messages (same counter pattern as state/mesh.py
    quiescence). Shards are killed in a finally block — a failed run
    leaves no resident graph copies behind."""
    import ray
    import ray.data as rd

    from linkinator_ray.pipelines.hashagg import default_parts
    P = num_shards or max(2, min(16, default_parts() // 2))
    GraphShard = _make_graph_shard()
    shards = [GraphShard.remote(i, P) for i in range(P)]
    try:
        def scatter(batch: pa.Table) -> pa.Table:
            src = batch["src_doc"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            dst = batch["dst_doc"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            key = _batch_checksum(src, dst)
            so, do = _owner_of(src, P), _owner_of(dst, P)
            sent = np.zeros(P, np.int64)
            for p in range(P):
                m = (so == p) | (do == p)
                if m.any():
                    shards[p].add_edges.remote((key, p), src[m], dst[m])
                    sent[p] = int(m.sum())
            return pa.table({"shard": pa.array(np.arange(P)),
                             "e": pa.array(sent)})

        sent = edges.map_batches(scatter, batch_format="pyarrow",
                                 batch_size=65536).to_pandas() \
            .groupby("shard")["e"].sum()
        _await(shards, lambda s: s.received.remote(),
               [int(sent.get(p, 0)) for p in range(P)], "scatter barrier")
        ray.get([s.seal.remote(init) for s in shards])

        for it, step in enumerate(steps):
            ray.get([s.push.remote(it, step.read, step.along,
                                   step.per_degree, shards)
                     for s in shards])
            _await(shards, lambda s: s.ready.remote(it), [True] * P,
                   f"step {it} barrier")
            sums = ray.get([s.gather.remote(it) for s in shards])
            add, mul, div = step.coeffs(min(lo for lo, _ in sums),
                                        max(hi for _, hi in sums))
            ray.get([s.apply.remote(step.write, add, mul, div)
                     for s in shards])

        tables = ray.get([s.table.remote(list(init)) for s in shards])
    finally:
        for s in shards:
            ray.kill(s)
    return rd.from_arrow([t for t in tables if t.num_rows] or tables[:1])


def _run_pairs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(left, right) row indices of every pair i < j inside each run of
    equal ``keys`` (rows sorted by key) — run boundaries + np.repeat
    indexing, no Python loop."""
    n = len(keys)
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    sizes = np.diff(np.r_[starts, n])
    local = np.arange(n) - np.repeat(starts, sizes)
    reps = np.repeat(sizes, sizes) - 1 - local  # pairs with i as left
    lefts = np.repeat(np.arange(n), reps)
    run_off = np.cumsum(reps) - reps
    within = np.arange(len(lefts)) - np.repeat(run_off, reps)
    rights = np.repeat(np.arange(n) + 1, reps) + within
    return lefts, rights


def triangle_count(sf_dir: str, num_parts: int | None = None):
    """Per-node triangle participation over the undirected link graph —
    (doc_id, deg, wedges, triangles), all exact int64 so the DuckDB
    3-way-self-join oracle hashes identically.  ``wedges`` is the
    clustering-coefficient denominator C(deg, 2); the consumer divides.

    The distributed shape is the degree-ordered node-iterator (Schank &
    Wagner 2005; the MapReduce formulation is Suri & Vassilvitskii,
    WWW'11 "Counting Triangles and the Curse of the Last Reducer"):

    1. canonicalize directed links to undirected distinct edges
       (min, max) — one combiner exchange (hashagg distinct);
    2. degrees via one combiner exchange over (endpoint, +1) rows;
    3. orient every edge from the (deg, id)-smaller endpoint to the
       larger (two hash joins pin deg onto both endpoints).  The
       orientation is acyclic and caps every node's OUT-degree at
       O(sqrt |E|) — the step that kills the curse-of-the-last-reducer
       hub blowup: a 10^6-degree hub generates wedges only from its
       few higher-ordered neighbors, never C(10^6, 2) pairs;
    4. wedge generation per center — ONE hash exchange on the center
       id, then a fully vectorized per-partition kernel (sort + run
       boundaries + np.repeat pair indexing, no Python loop).  Total
       wedges are bounded by sum(out_deg^2) = O(|E|^1.5) spread across
       partitions; a residual hot center can be salted by splitting
       its out-list (same lever as fetch.py's host salting);
    5. triangle closure = hash semi-join of wedges against the
       oriented edge set on (v, w).  Each triangle has EXACTLY one
       (u→v, u→w, v→w) orientation under the total order, so no
       dedup or division by 3 exists anywhere;
    6. per-node counts: triangle rows fan out 3 increments, degree
       rows carry the deg column, one final combiner exchange.

    Only O(|E|)-bounded datasets materialize (edge list + degrees +
    oriented edges — the same working-set contract as ``pagerank``);
    the driver never sees a row.
    """
    return triangle_count_edges(graph.extract_edges(sf_dir),
                                num_parts=num_parts)


def triangle_count_edges(edges, num_parts: int | None = None):
    """Core of ``triangle_count`` over any (src_doc, dst_doc) edge
    Dataset (directed, possibly with duplicates/self-loops — both are
    canonicalized away)."""
    from linkinator_ray.pipelines.hashagg import hash_partition_apply
    import pandas as pd

    def canon(batch: pa.Table) -> pa.Table:
        s = batch["src_doc"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch["dst_doc"].to_numpy(zero_copy_only=False).astype(np.int64)
        a, b = np.minimum(s, d), np.maximum(s, d)
        keep = a != b
        return pa.table({"a": pa.array(a[keep]), "b": pa.array(b[keep])})

    ue = hash_aggregate(edges.map_batches(canon, batch_format="pyarrow"),
                        ["a", "b"], {"n": ("a", "count")},
                        num_parts=num_parts) \
        .select_columns(["a", "b"]).materialize()

    def to_inc(batch: pa.Table) -> pa.Table:
        node = pa.chunked_array([batch["a"], batch["b"]]).combine_chunks()
        return pa.table({"doc_id": node,
                         "inc": pa.array(np.ones(len(node), np.int64))})

    deg = hash_aggregate(ue.map_batches(to_inc, batch_format="pyarrow"),
                         "doc_id", {"deg": ("inc", "sum")},
                         num_parts=num_parts).materialize()

    e1 = hash_join(ue, deg, on="a", right_on="doc_id",
                   num_parts=num_parts).rename_columns({"deg": "deg_a"})
    e2 = hash_join(e1, deg, on="b", right_on="doc_id", num_parts=num_parts)

    def orient(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        da = batch["deg_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        db = batch["deg"].to_numpy(zero_copy_only=False).astype(np.int64)
        a_first = (da < db) | ((da == db) & (a < b))
        return pa.table({
            "u": pa.array(np.where(a_first, a, b)),
            "v": pa.array(np.where(a_first, b, a)),
            "deg_v": pa.array(np.where(a_first, db, da)),
        })

    oriented = e2.map_batches(orient, batch_format="pyarrow").materialize()

    def wedge_fn(df: "pd.DataFrame") -> "pd.DataFrame":
        # neighbors sorted by the SAME (deg, id) total order as the
        # orientation, so every emitted (cv, cw) pair is already in
        # oriented-edge direction and the closure probe is one semi-join
        df = df.sort_values(["u", "deg_v", "v"], kind="stable")
        u = df["u"].to_numpy()
        v = df["v"].to_numpy()
        lefts, rights = _run_pairs(u)
        return pd.DataFrame({"cu": u[lefts], "cv": v[lefts],
                             "cw": v[rights]})

    wedges = hash_partition_apply(oriented, "u", wedge_fn,
                                  num_parts=num_parts)
    tri = hash_join(wedges, oriented.select_columns(["u", "v"]),
                    on=["cv", "cw"], right_on=["u", "v"], how="semi",
                    num_parts=num_parts)

    def tri_inc(batch: pa.Table) -> pa.Table:
        node = pa.chunked_array(
            [batch["cu"], batch["cv"], batch["cw"]]).combine_chunks()
        n = len(node)
        return pa.table({"doc_id": node,
                         "tri_inc": pa.array(np.ones(n, np.int64)),
                         "deg_inc": pa.array(np.zeros(n, np.int64))})

    def deg_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({"doc_id": batch["doc_id"],
                         "tri_inc": pa.array(np.zeros(n, np.int64)),
                         "deg_inc": batch["deg"]})

    both = tri.map_batches(tri_inc, batch_format="pyarrow") \
        .union(deg.map_batches(deg_rows, batch_format="pyarrow"))
    counts = hash_aggregate(both, "doc_id",
                            {"triangles": ("tri_inc", "sum"),
                             "deg": ("deg_inc", "sum")},
                            num_parts=num_parts)

    def face(batch: pa.Table) -> pa.Table:
        d = batch["deg"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "doc_id": batch["doc_id"],
            "deg": batch["deg"],
            "wedges": pa.array(d * (d - 1) // 2),
            "triangles": batch["triangles"],
        })

    return counts.map_batches(face, batch_format="pyarrow")


def triangle_reference(edges: list[tuple[int, int]]) -> dict[int, int]:
    """Single-machine per-node triangle counts (set intersections) —
    the differential oracle for ``triangle_count`` tests."""
    from collections import defaultdict
    adj = defaultdict(set)
    for s, d in edges:
        if s != d:
            adj[s].add(d)
            adj[d].add(s)
    tri: dict[int, int] = {n: 0 for n in adj}
    seen = set()
    for a in adj:
        for b in adj[a]:
            if (min(a, b), max(a, b)) in seen:
                continue
            seen.add((min(a, b), max(a, b)))
            for c in adj[a] & adj[b]:
                # each triangle visited once per edge = 3 times total;
                # credit the OPPOSITE vertex each time
                tri[c] += 1
    return tri


def cocitation_topk(sf_dir: str, k: int = 20, max_out_degree: int = 64,
                    num_parts: int | None = None):
    """Top-k CO-CITED page pairs: (a, b) ranked by how many pages link
    to both — the classic co-citation similarity signal over the
    crawl's link graph (companion to ``hits``/``pagerank``; the wedge
    kernel is triangle_count's, re-aimed at pair counting).

    Plan: ONE hash partition of the distinct edge set on src co-locates
    each citing page's out-list; the per-partition kernel drops sources
    above ``max_out_degree`` (a hub page citing m targets emits C(m,2)
    pairs — the cap bounds the blowup at scale and is mirrored in the
    SQL oracle, not silently applied), generates ordered (a<b) pairs
    fully vectorized (run boundaries + np.repeat indexing), and
    pre-counts per pair as the combiner; a two-level hash aggregate
    merges pair counts and a mergeable per-partition top-k leaves P×k
    rows for the driver. Deterministic (n desc, a, b) order."""
    return cocitation_topk_edges(graph.extract_edges(sf_dir), k=k,
                                 max_out_degree=max_out_degree,
                                 num_parts=num_parts)


def cocitation_topk_edges(edges, k: int = 20, max_out_degree: int = 64,
                          num_parts: int | None = None):
    """Core of ``cocitation_topk`` over any DISTINCT (src_doc, dst_doc)
    edge dataset (callers must pre-dedup — duplicate edges would
    double-count pairs and inflate the degree cap)."""
    import pandas as pd

    from linkinator_ray.pipelines.hashagg import hash_partition_apply

    def pair_fn(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(["src_doc", "dst_doc"], kind="stable")
        s = df["src_doc"].to_numpy()
        d = df["dst_doc"].to_numpy()
        starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
        sizes = np.diff(np.r_[starts, len(s)])
        # degree cap BEFORE pair generation: the oracle filters the
        # same sources, so results stay bit-identical
        keep_run = sizes <= max_out_degree
        keep = np.repeat(keep_run, sizes)
        lefts, rights = _run_pairs(s[keep])
        d = d[keep]
        out = pd.DataFrame({"a": d[lefts], "b": d[rights]})
        # out-lists are dst-sorted within each src run, so a < b always
        return out.groupby(["a", "b"], sort=False).size() \
            .rename("n").reset_index()

    pairs = hash_partition_apply(edges, "src_doc", pair_fn,
                                 num_parts=num_parts)
    merged = hash_aggregate(pairs, ["a", "b"], {"n": ("n", "sum")},
                            num_parts=num_parts)

    return topk(merged, k, [("n", "descending"), ("a", "ascending"),
                            ("b", "ascending")])


def crawl_depth_edges(edges, roots: list[int], max_rounds: int = 64,
                      num_parts: int | None = None):
    """Declarative dataset face of BFS discovery depth (the engine path
    is graph.crawl_depth — the crawl itself, whose round counter IS the
    depth; this formulation exists as its oracle-checkable equivalence
    witness over any DISTINCT (src_doc, dst_doc) edge dataset).

    Level-synchronous frontier expansion, TWO hash exchanges per level:

    1. ``hash_join(frontier, edges, on=src)`` expands the frontier;
    2. one fused partition on the discovered id: unique(candidates)
       LEFT ANTI visited — the dataset analogue of the engine's sharded
       URL-seen set (state/seen.py), with the distinct folded into the
       same exchange instead of a separate combiner pass.

    Rounds = graph depth (log |V| on link graphs with tree-like cores).
    Re-shipping the edge set through exchange 1 every level is the
    declarative formulation's cost — the engine avoids it by holding
    edges/seen sharded in actors, which is the 100 TB path. Visited
    fronts accumulate as materialized O(|V|) blocks; the driver sees
    only per-round counts until the final bounded result."""
    import pandas as pd
    import ray.data as rd

    from linkinator_ray.pipelines.hashagg import hash_partition_apply

    edges = edges.materialize()
    root_t = pa.table({"doc_id": pa.array(sorted(set(roots)), pa.int64()),
                       "depth": pa.array([0] * len(set(roots)), pa.int64())})
    fronts = [rd.from_arrow(root_t)]
    frontier = fronts[0]

    # explicit arrow projection instead of select_columns: the per-round
    # frontier comes out of map_groups as pandas blocks, where
    # select_columns does not reliably project (observed on Ray 2.49 —
    # the downstream join then saw the depth column), and this also
    # normalizes every union input back to arrow blocks
    def proj(src_col: str, tag_val: int | None = None):
        def fn(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            cols = {"doc_id": pc.cast(batch[src_col], pa.int64())}
            if tag_val is not None:
                cols["__new"] = pa.array([tag_val] * batch.num_rows,
                                         pa.int8())
            return pa.table(cols)
        return fn

    for depth in range(1, max_rounds + 1):
        cand = hash_join(
            frontier.map_batches(proj("doc_id"), batch_format="pyarrow"),
            edges, on="doc_id", right_on="src_doc", num_parts=num_parts) \
            .map_batches(proj("dst_doc"), batch_format="pyarrow")

        visited = fronts[0].map_batches(proj("doc_id", 0),
                                        batch_format="pyarrow")
        for f in fronts[1:]:
            visited = visited.union(
                f.map_batches(proj("doc_id", 0), batch_format="pyarrow"))
        tagged = cand.map_batches(proj("doc_id", 1),
                                  batch_format="pyarrow").union(visited)

        def antidiff(df: "pd.DataFrame", d: int = depth) -> "pd.DataFrame":
            new = df.loc[df["__new"] == 1, "doc_id"].unique()
            seen = df.loc[df["__new"] == 0, "doc_id"].to_numpy()
            fresh = new[~np.isin(new, seen)]
            return pd.DataFrame({
                "doc_id": fresh.astype(np.int64),
                "depth": np.full(len(fresh), d, np.int64)})

        new = hash_partition_apply(tagged, "doc_id", antidiff,
                                   num_parts=num_parts).materialize()
        if new.count() == 0:
            break
        fronts.append(new)
        frontier = new
    else:
        raise RuntimeError(f"BFS did not drain in {max_rounds} rounds")

    out = fronts[0]
    for f in fronts[1:]:
        out = out.union(f)
    df = out.to_pandas().sort_values("doc_id").reset_index(drop=True)
    return pa.Table.from_pandas(df, preserve_index=False)
