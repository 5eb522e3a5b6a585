"""The BFS crawl driver — the Ray-native replacement for the reference's
event-loop queue (/root/reference/src/index.ts:216-927, src/queue.ts).

Design (SURVEY.md §3 "Ray-native lifecycle"): the frontier is a table of
``(url, url_hash, host, parent, depth, do_crawl, root_path, attempt,
not_before)`` rows, and the frontier stages below are the kernels of
one ``MeshNode.pump`` (state/mesh.py), the one implementation of a
frontier cycle. A Ray-free check runs one node in-process: a round is
one pump of that node over its whole queue (``LinkChecker._run_rounds``),
so a row's round is its BFS depth. A Ray check runs K nodes as actors
(``_run_mesh``). One pump:

1. wake deferred rows whose ``not_before`` passed (in-process, the
   round loop is the clock: with nothing queued it jumps, or sleeps, to
   the earliest deadline — no timers);
2. rewrite + skip-classify (vectorized kernel; SKIPPED rows → results);
3. per-host politeness gate (429 deadlines + optional token-bucket
   stagger) → more deferrals;
4. fetch through the node's fetch worker (stages/fetch.py);
5. handle Retry-After re-enqueues (max-of-deadlines per host,
   src/index.ts:1035-1043) and error-retry backoff (:1069-1109);
6. classify (stages/classify.py) → results rows;
7. extract links from crawled bodies (stages/extract.py, inside the
   fetch worker), dedup edges, consult the seen set of the URL's owner
   (batched anti-join) → next frontier;
8. validate fragments whose target page was fetched in this pump.

The driver takes each node's results and events with its poll answers,
and checkpoints the nodes' snapshots (frontier + key journal + lineage,
state/checkpoint.py) after every round, or every mesh epoch. At the
end the duplicate-broken hash join (SURVEY.md §2.4 J1) re-reports
every BROKEN URL once per distinct referring parent, on the nodes that
own the URLs.

Equality contract vs the reference (SURVEY.md §2.6): final URL-seen set,
per-URL state/status, per-(url,parent) BROKEN edges, and retry counts —
not emit order, which is nondeterministic in the reference.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import functools
import os
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from linkinator_ray import schema, urlkit
from linkinator_ray.options import CheckOptions
from linkinator_ray.sources.documents import CorpusIndex
from linkinator_ray.stages import classify as classify_mod
from linkinator_ray.stages.fetch import (SkipRules, call_tuples, hash_owner,
                                         split_by_owner)
from linkinator_ray.state import actors
from linkinator_ray.state import checkpoint as ckpt
from linkinator_ray.state.clock import Clock, FakeClock

@dataclasses.dataclass
class CrawlResult:
    passed: bool
    results: pa.Table       # schema.RESULTS
    stats: dict
    request_log: pa.Table   # schema.CALLS, one row per request sent

    @functools.cached_property
    def call_log(self) -> list[tuple[str, str, int]]:
        """The request log as (url, method, status) tuples, built when
        first read."""
        return call_tuples(self.request_log)


# the row-level warning events, fired off the fetch worker's warn_* masks
WARN_EVENTS = frozenset({"statusCodeWarning", "redirect", "httpInsecure"})


def _frontier_rows(**cols) -> pa.Table:
    return schema.table(schema.FRONTIER, **cols)


def result_rows(round_no: int, frontier_level: bool, url, status, state,
                parent, failure="") -> pa.Table:
    """schema.RESULT_ROWS for ``len(url)`` rows, the one constructor every
    stage uses. Columns are Arrow arrays or Python lists; a str fills
    every row and ``None`` makes the column null."""
    n = len(url)
    cols = []
    for values, field in zip((url, status, state, parent, failure),
                             schema.RESULT_ROWS):
        if values is None:
            values = pa.nulls(n, field.type)
        elif isinstance(values, str):
            values = pa.repeat(pa.scalar(values, field.type), n)
        elif isinstance(values, pa.ChunkedArray):
            values = values.chunk(0) if values.num_chunks == 1 \
                else values.combine_chunks()
        elif not isinstance(values, pa.Array):
            values = pa.array(values, field.type)
        cols.append(values)
    cols.append(pa.array(np.full(n, round_no, dtype=np.int32)))
    cols.append(pa.array(np.full(n, frontier_level, dtype=bool)))
    return pa.Table.from_arrays(cols, schema=schema.RESULT_ROWS)


def seed_frontier(paths: list[str], corpus_base: str) -> pa.Table:
    """Frontier rows for the expanded seed paths: each seed is its own
    root path at depth 0. The caller pre-inserts their hashes into its
    seen set (src/index.ts:267-288)."""
    urls = [urlkit.normalize_url(
        p if urlkit.is_absolute_url(p) else corpus_base + p.lstrip("/"),
        keep_fragment=False) for p in paths]
    n = len(urls)
    return _frontier_rows(
        url=urls, url_hash=urlkit.hash64_array(urls),
        host=[urlkit.host_of(u) for u in urls], parent=[""] * n,
        depth=[0] * n, do_crawl=[True] * n, root_path=urls,
        attempt=[0] * n, not_before=[0.0] * n)


def compute_requeues(fetched: pa.Table, now: float, delay_map: dict,
                     opts: CheckOptions, rng,
                     fetch_s: float) -> tuple[pa.Table, list, int]:
    """Retry-After re-enqueues with host-wide max-of-deadlines
    (src/index.ts:1019-1060) and error-retry backoff (:1069-1109); the
    error-retry gate is the fetch worker's ``retry_error`` column.
    ``now`` is when the fetch ended, ``fetch_s`` how long it took on the
    check's clock: the worker parsed each Retry-After against the
    fetch's start, so its deadline moves by ``fetch_s`` to count from
    the response (a date one only waits longer). Mutates ``delay_map``,
    the node's (state/mesh.py)."""
    requeues: list[pa.Table] = []
    n_retries = 0
    if fetched.num_rows == 0:
        return fetched, requeues, 0
    ra_epoch = fetched["retry_after_epoch"].to_numpy(zero_copy_only=False)
    ra_mask = ra_epoch > 0
    if ra_mask.any():
        rows = fetched.filter(pa.array(ra_mask))
        hosts = rows["host"].to_pylist()
        epochs = ra_epoch[ra_mask] + fetch_s
        for host, epoch in zip(hosts, epochs):
            cur = delay_map.get(host)
            delay_map[host] = max(cur, epoch) if cur is not None else epoch
        deadlines = np.fromiter((delay_map[h] for h in hosts),
                                np.float64, len(hosts))
        requeues.append(_frontier_rows(
            url=rows["url"].to_pylist(), url_hash=rows["url_hash"].to_pylist(),
            host=hosts, parent=rows["parent"].to_pylist(),
            depth=rows["depth"].to_pylist(), do_crawl=rows["do_crawl"].to_pylist(),
            root_path=rows["root_path"].to_pylist(),
            attempt=rows["attempt"].to_pylist(),
            not_before=deadlines,
        ))
        n_retries += len(hosts)
        fetched = fetched.filter(pa.array(~ra_mask))
    attempt = fetched["attempt"].to_numpy(zero_copy_only=False).astype(np.int64)
    err_mask = fetched["retry_error"].to_numpy(zero_copy_only=False)
    if err_mask.any():
        rows = fetched.filter(pa.array(err_mask))
        attempts = attempt[err_mask]
        delays = classify_mod.backoff_delays(attempts, opts, rng)
        requeues.append(_frontier_rows(
            url=rows["url"].to_pylist(), url_hash=rows["url_hash"].to_pylist(),
            host=rows["host"].to_pylist(), parent=rows["parent"].to_pylist(),
            depth=rows["depth"].to_pylist(), do_crawl=rows["do_crawl"].to_pylist(),
            root_path=rows["root_path"].to_pylist(),
            attempt=(attempts + 1).tolist(),
            not_before=(now + delays).tolist(),
        ))
        n_retries += int(err_mask.sum())
        fetched = fetched.filter(pa.array(~err_mask))
    return fetched, requeues, n_retries


def validate_fragment_wants(fetched: pa.Table, frags: pa.Table,
                            pending: dict, round_no: int) -> pa.Table | None:
    """Fragment validation at target-fetch time (src/index.ts:616-673,
    :878-920): requested fragments anti-joined against the page's
    fragment-target ids (extracted in the fetch actor). ``fetched``
    carries the actor-side classification. Satisfied pages pop from
    ``pending``; each missing fragment is a BROKEN url#frag row with the
    page's status and the page's own parent."""
    states = pc.equal(fetched["state"], "OK").to_numpy(zero_copy_only=False)
    is_html = fetched["recurse_html"].to_numpy(zero_copy_only=False)
    has_body = fetched["has_body"].to_numpy(zero_copy_only=False)
    ok_pages = np.flatnonzero(states & is_html & has_body)
    if len(ok_pages) == 0:
        return None
    present_by_page: dict[str, set[str]] = {}
    for page, frag in zip(frags["page_url"].to_pylist(),
                          frags["fragment_id"].to_pylist()):
        present_by_page.setdefault(page, set()).add(frag)
    urls = fetched["url"].to_pylist()
    parents = fetched["parent"].to_pylist()
    statuses = fetched["status"].to_numpy(zero_copy_only=False)
    soft404s = fetched["soft404"].to_numpy(zero_copy_only=False)
    bad: list[tuple] = []
    for i in ok_pages:
        url = urls[i]
        wanted = pending.pop(url, None)
        if not wanted:
            continue
        if soft404s[i]:  # soft-404 heuristic (src/index.ts:630-637)
            continue
        present = present_by_page.get(url, set())
        for frag in sorted(wanted - present):
            bad.append((
                f"{url}#{frag}", int(statuses[i]), parents[i],
                f'[{{"error": "Fragment identifier \'#{frag}\' not found on page"}}]'))
    if not bad:
        return None
    url, status, parent, failure = zip(*bad)
    return result_rows(round_no, False, url, status, "BROKEN", parent, failure)


def assemble_result_tables(fetched: pa.Table, link_results: pa.Table,
                           round_no: int, counters: dict,
                           check_css: bool = False) -> tuple[list, pa.Table]:
    """Classified fetch output → schema.RESULT_ROWS tables:
    redirect-skipped rows → SKIPPED, actor-classified rows
    pass through as Arrow columns, link-level results append. Returns
    (result tables, remaining fetched rows) and bumps the warn / pages
    counters. ``fetched`` must carry actor-side classification columns
    (state/failure/warn_*/recurse_*)."""
    out: list[pa.Table] = []
    if fetched.num_rows:
        # redirect-skipped rows → SKIPPED results (src/index.ts:370-373)
        rskip = urlkit.nonempty(fetched["redirect_skipped"])
        if rskip.any():
            rows = fetched.filter(pa.array(rskip))
            out.append(result_rows(round_no, True, rows["url"], None,
                                   "SKIPPED", rows["parent"]))
            fetched = fetched.filter(pa.array(~rskip))
    if fetched.num_rows:
        out.append(result_rows(round_no, True, fetched["url"],
                               fetched["status"], fetched["state"],
                               fetched["parent"], fetched["failure"]))
        for warn in ("warn_status", "warn_redirect", "warn_insecure"):
            counters[warn] += int(fetched[warn].to_numpy().sum())
        recurse_html = fetched["recurse_html"].to_numpy(zero_copy_only=False)
        recurse_css = fetched["recurse_css"].to_numpy(zero_copy_only=False)
        do_crawl = fetched["do_crawl"].to_numpy(zero_copy_only=False)
        has_body = fetched["has_body"].to_numpy(zero_copy_only=False)
        counters["pages_crawled"] += int(
            (do_crawl & has_body &
             (recurse_html | (recurse_css & check_css))).sum())
    if link_results.num_rows:
        out.append(result_rows(round_no, False, link_results["url"],
                               link_results["status"], link_results["state"],
                               link_results["parent"]))
    return out, fetched


def apply_rewrites_table(table: pa.Table, rewrites) -> pa.Table:
    """urlRewriteExpressions over frontier URLs (src/index.ts:311-318).

    Every node must apply the SAME rewrite → rehash → rehost transform
    or their seen/routing keys diverge (exact-equality contract,
    SURVEY.md §2.6)."""
    if not rewrites:
        return table
    urls = table["url"].to_pylist()
    out, changed = [], False
    for url in urls:
        new = url
        for rw in rewrites:
            new = rw.pattern.sub(rw.replacement, new)
        changed |= new != url
        out.append(new)
    if not changed:
        return table
    hashes = urlkit.hash64_array(out)
    hosts = [urlkit.host_of(u) for u in out]
    table = table.set_column(0, "url", pa.array(out, pa.string()))
    table = table.set_column(1, "url_hash", pa.array(hashes, pa.uint64()))
    return table.set_column(2, "host", pa.array(hosts, pa.string()))


def politeness_gate_table(table: pa.Table, now: float, delay_map: dict,
                          politeness_delay: float):
    """Host deadline gate (delayCache, src/index.ts:326-342) plus the
    optional per-host token-bucket stagger (north_rule politeness):
    with ``politeness_delay`` > 0 each host runs at most one fetch per
    delay window; excess rows carry to ``not_before`` slots.

    Returns ``(runnable, deferred_tables)`` — deferred rows carry their wake
    deadline in ``not_before``."""
    deferred = []
    if delay_map and table.num_rows:
        hosts = table["host"].to_pylist()
        deadlines = np.fromiter(
            (delay_map.get(h, 0.0) for h in hosts), np.float64, len(hosts))
        gate = deadlines > now
        if gate.any():
            parked = table.filter(pa.array(gate))
            parked = parked.set_column(
                parked.schema.get_field_index("not_before"), "not_before",
                pa.array(deadlines[gate], pa.float64()))
            deferred.append(parked)
            table = table.filter(pa.array(~gate))
    if politeness_delay > 0 and table.num_rows:
        hosts = table["host"].to_pylist()
        first_seen: dict[str, int] = {}
        slot = np.zeros(len(hosts), dtype=np.int64)
        for i, h in enumerate(hosts):
            slot[i] = first_seen.get(h, 0)
            first_seen[h] = slot[i] + 1
        later = slot > 0
        if later.any():
            parked = table.filter(pa.array(later))
            parked = parked.set_column(
                parked.schema.get_field_index("not_before"), "not_before",
                pa.array(now + slot[later] * politeness_delay, pa.float64()))
            deferred.append(parked)
            table = table.filter(pa.array(~later))
    return table, deferred


def skip_stage_table(table: pa.Table, skip: SkipRules, robots,
                     round_no: int) -> tuple[pa.Table, pa.Table | None]:
    """Frontier-level skip classification (src/index.ts:320-323,
    :973-985): non-http(s) → SKIPPED status 0; skip rules and robots.txt
    → SKIPPED status null. Returns (live rows, SKIPPED result rows or
    None)."""
    n = table.num_rows
    url_col = table["url"].combine_chunks()
    is_http = pc.or_(pc.starts_with(url_col, "http://"),
                     pc.starts_with(url_col, "https://")) \
        .to_numpy(zero_copy_only=False)
    skip_mask = ~is_http
    if skip:
        skip_mask |= skip.match_vec(url_col)
    if robots.has_rules():
        allowed = robots.allowed
        skip_mask |= np.fromiter(
            (not allowed(u) for u in url_col.to_pylist()), bool, n)
    if not skip_mask.any():
        return table, None
    rows = table.filter(pa.array(skip_mask))
    status = pa.array(np.zeros(rows.num_rows, dtype=np.int32),
                      mask=is_http[skip_mask])
    return (table.filter(pa.array(~skip_mask)),
            result_rows(round_no, True, rows["url"], status, "SKIPPED",
                        rows["parent"]))


def admit_frontier(table: pa.Table, now: float, round_no: int,
                   opts: CheckOptions, skip: SkipRules, robots,
                   delay_map: dict):
    """The admission step a node runs on frontier rows before they are
    fetched: skip → politeness gate, on rows that have already been
    through ``apply_rewrites_table`` (kept apart so the node rewrites
    outside its lock). Returns ``(runnable rows, SKIPPED result
    rows or None, deferred tables)``."""
    live, skipped = skip_stage_table(table, skip, robots, round_no)
    live, deferred = politeness_gate_table(live, now, delay_map,
                                           opts.politeness_delay)
    return live, skipped, deferred


def dedup_candidates(cand: pa.Table, edge_seen, url_seen):
    """The two global joins of link discovery: edge dedup
    (relationshipCache, src/index.ts:800-810) and the seen-set anti-join
    (cache, :812-875); edge-fresh rows alone consult and insert the URL
    set. ``edge_seen``/``url_seen`` are one node's SeenShards. Returns
    ``(new frontier rows, (url, parent) edges to an already-seen URL —
    the duplicate-broken join's input, edge_fresh mask, keep mask)``."""
    edge_hash = np.asarray(cand.column("edge_hash").to_numpy(),
                           dtype=np.uint64)
    edge_fresh = ~edge_seen.contains_or_insert(edge_hash)
    url_hash = np.asarray(cand.column("url_hash").to_numpy(),
                          dtype=np.uint64)
    url_dup = np.zeros(len(url_hash), dtype=bool)
    fresh_idx = np.flatnonzero(edge_fresh)
    if len(fresh_idx):
        url_dup[fresh_idx] = url_seen.contains_or_insert(url_hash[fresh_idx])
    dup_idx = np.flatnonzero(edge_fresh & url_dup)
    dups = cand.select(["url", "parent"]).take(pa.array(dup_idx)) \
        if len(dup_idx) else schema.empty(schema.EDGES)
    keep = edge_fresh & ~url_dup
    rows = cand.select(_CANDIDATE_FRONTIER)
    rows = rows.combine_chunks() if keep.all() \
        else rows.take(pa.array(np.flatnonzero(keep)))
    n = rows.num_rows
    frontier = pa.Table.from_arrays(rows.columns + [
        pa.array(np.zeros(n, dtype=np.int32)),
        pa.array(np.zeros(n, dtype=np.float64)),
    ], schema=schema.FRONTIER)
    return frontier, dups, edge_fresh, keep


# the CANDIDATES columns a frontier row keeps (FRONTIER adds the retry
# attempt and the not-before deadline)
_CANDIDATE_FRONTIER = schema.FRONTIER.names[:7]

# the columns of a frontier-level BROKEN row the duplicate-broken join reads
BROKEN_COLUMNS = ["url", "status", "failure_details"]


def frontier_broken_mask(results: pa.Table):
    """Which of ``results``' rows (schema.RESULT_ROWS) are frontier-level
    BROKEN: the duplicate-broken join's broken side, one row per URL by
    construction."""
    return pc.and_(results["frontier_level"],
                   pc.equal(results["state"], "BROKEN"))


def duplicate_broken_rows(dup_edges: list[pa.Table],
                          broken: pa.Table) -> pa.Table | None:
    """The duplicate-broken join (SURVEY.md §2.4 J1), a post-hoc hash
    join replacing the in-flight wait at src/index.ts:840-875: every
    distinct (url, parent) duplicate edge whose URL's frontier-level
    result is BROKEN re-reports with that parent. ``broken`` holds those
    results' ``BROKEN_COLUMNS``, one row per URL. Each node runs it on the
    edges and rows of the URLs it owns. None when no row re-reports."""
    dups = [t for t in dup_edges if t.num_rows]
    if not dups or broken.num_rows == 0:
        return None
    dups = pa.concat_tables(dups)
    # each edge's row in ``broken`` (null when its URL did not break): a
    # hash probe of the few broken URLs, where an Arrow join pays ~1.5 ms
    # to set up
    at = pc.index_in(dups["url"], value_set=broken["url"].combine_chunks())
    hit = at.is_valid()
    edges = dups.filter(hit)
    if edges.num_rows == 0:
        return None
    rows = broken.take(at.filter(hit))
    return result_rows(-1, False, edges["url"], rows["status"], "BROKEN",
                       edges["parent"], rows["failure_details"])


def write_results_part(results_dir: str, k: int, rows: pa.Table) -> None:
    """Atomically write the driver's result part ``k`` as
    ``part_00_{k:05d}.parquet``, so a ``part_*.parquet`` scan of
    ``results_dir`` sees every part."""
    import pyarrow.parquet as pq
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"part_00_{k:05d}.parquet")
    pq.write_table(rows.drop_columns(["frontier_level"]), path + ".tmp")
    os.replace(path + ".tmp", path)


def prune_stale_spill_parts(results_dir: str | None,
                            spill_part: int) -> None:
    """Resume hygiene: delete results_dir parquet parts written AFTER
    the checkpoint being resumed (the dead run kept spilling past its
    last snapshot; the replay re-produces those rows, so stale parts
    would double-count them in the results_dir scan). A part
    ``part_{w:02d}_{k:05d}.parquet`` is stale when it is the driver's
    (w = 0, ``write_results_part``) and k >= the restored
    ``spill_part``, or when any other writer made it (only earlier
    versions' mesh nodes did). Orphan ``.tmp`` files from an
    interrupted atomic write also go."""
    import re
    if not results_dir or not os.path.isdir(results_dir):
        return
    pat = re.compile(r"^part_(\d+)_(\d+)\.parquet(\.tmp)?$")
    for name in os.listdir(results_dir):
        m = pat.match(name)
        if not m:
            continue
        w, k, tmp = int(m[1]), int(m[2]), m[3]
        if tmp or w != 0 or k >= spill_part:
            try:
                os.remove(os.path.join(results_dir, name))
            except FileNotFoundError:
                pass


# the messages mesh nodes count, by poll key suffix
MESH_MESSAGES = {"cand": "candidates", "wants": "fragment wants",
                 "frontier": "frontier rows"}


def mesh_message_totals(polls: list[dict], seed_rows: int) -> dict:
    """Mesh-wide ``(sent, received)`` per message kind from the nodes'
    ``MeshNode.poll`` answers. The driver's ``seed_rows`` count as sent
    frontier rows; a kind whose counts differ has a message in flight
    (or lost)."""
    return {key: (sum(p[f"sent_{key}"] for p in polls)
                  + (seed_rows if key == "frontier" else 0),
                  sum(p[f"received_{key}"] for p in polls))
            for key in MESH_MESSAGES}


# the poll counters that must not move between two rounds of a quiet mesh
MESH_COUNTERS = tuple(f"{way}_{key}" for key in MESH_MESSAGES
                      for way in ("sent", "received"))


def mesh_quiescent(prev: list[dict], cur: list[dict], seed_rows: int,
                   paused: bool = False) -> bool:
    """The mesh's end test: the four-counter rule (Mattern, *Algorithms
    for distributed termination detection*, 1987) over two rounds of
    ``MeshNode.poll`` answers, ``cur`` asked after every answer of
    ``prev`` was in. Quiet when, in both rounds, no node runs or has
    scheduled a pump or holds sends (and, unless ``paused``, none has
    queued or deferred rows), every node's message counters are the
    same in both, and the mesh-wide totals balance (the driver's
    ``seed_rows`` count as sent frontier rows). A paused mesh keeps its
    queues: quiet then means settled for a checkpoint.
    ``mesh_quiescent(polls, polls, ...)`` asks whether one round could
    be the end, which a second round must confirm."""
    def idle(p):
        return not (p["pump_scheduled"] or p["held_cand"] or not paused
                    and (p["queued_rows"] or p["deferred_rows"]))
    return len(prev) == len(cur) \
        and all(idle(p) and idle(c) and all(p[k] == c[k]
                                            for k in MESH_COUNTERS)
                for p, c in zip(prev, cur)) \
        and all(s == r for s, r in mesh_message_totals(cur, seed_rows).values())


def mesh_stall_message(what: str, polls: list[dict], seed_rows: int) -> str:
    """The error for a mesh that stopped making progress. It names each
    node that still has queued rows, a scheduled pump or held sends, or
    takes part in a message kind whose mesh-wide counts do not balance,
    with those counters."""
    unbalanced = {key: (sent, received) for key, (sent, received)
                  in mesh_message_totals(polls, seed_rows).items()
                  if sent != received}
    lines = []
    for i, p in enumerate(polls):
        why = [f"{label} {p[field]}" for label, field in (
            ("queued rows", "queued_rows"), ("held sends", "held_cand"))
            if p[field]]
        if p["pump_scheduled"]:
            why.append("pump scheduled")
        why += [f"{MESH_MESSAGES[key]} sent {p[f'sent_{key}']} received "
                f"{p[f'received_{key}']}" for key in unbalanced
                if p[f"sent_{key}"] or p[f"received_{key}"]]
        if why:
            lines.append(f"  node {i}: " + ", ".join(why))
    head = f"{what} stalled 60s"
    if unbalanced:
        head += "; unbalanced: " + ", ".join(
            f"{MESH_MESSAGES[key]} sent {sent} received {received}"
            for key, (sent, received) in unbalanced.items())
    return "\n".join([head] + (lines or ["  no node reports pending work"]))


def _owner_pieces(table: pa.Table, owners: np.ndarray,
                  num_nodes: int) -> list:
    """``table``'s rows of each node (``owners``), ``schema.encode``d;
    None for a node with no rows."""
    pieces = [None] * num_nodes
    for a, piece in split_by_owner(table, owners, num_nodes):
        pieces[a] = schema.encode(piece)
    return pieces


class _MeshPolls:
    """The driver's side of a running mesh's polls: one waiting poll out
    at every node, each node's latest answer, and the answers taken from
    each. ``on_answer`` sees every answer as it is taken, in the order
    they come in, which may put an older answer of a node after a newer
    one: ``latest`` keeps the newest."""

    def __init__(self, nodes, generation: int, on_answer):
        self.nodes = nodes
        self.generation = generation
        self.on_answer = on_answer
        self.latest: list[dict | None] = [None] * len(nodes)
        self.count = [0] * len(nodes)
        self.waiting = {self._send(i): i for i in range(len(nodes))}

    def _send(self, i: int):
        return self.nodes[i].poll.remote(self.generation, True)

    def _take(self, i: int, answer: dict) -> None:
        self.count[i] += 1
        if self.latest[i] is None \
                or answer["answer"] > self.latest[i]["answer"]:
            self.latest[i] = answer
        self.on_answer(answer)

    def caught_up(self) -> bool:
        """Whether every answer the nodes gave has been taken (a waiting
        poll can answer while an immediate round is out): only then are
        all of their results and request log rows in."""
        return all(p is not None and p["answer"] == n
                   for p, n in zip(self.latest, self.count))

    def wait(self, timeout: float) -> list[int]:
        """Take the answers in within ``timeout`` seconds (the first one
        waited for, then every other one ready), and send each node that
        answered its next waiting poll; those nodes. With none in, one
        immediate round (``poll_now``) answers for every node."""
        import ray
        refs = list(self.waiting)
        ready, _ = ray.wait(refs, num_returns=1, timeout=timeout)
        if not ready:
            self.poll_now()
            return list(range(len(self.nodes)))
        ready, _ = ray.wait(refs, num_returns=len(refs), timeout=0)
        answered = []
        for ref, answer in zip(ready, ray.get(ready)):
            i = self.waiting.pop(ref)
            self.waiting[self._send(i)] = i
            self._take(i, answer)
            answered.append(i)
        return answered

    def poll_now(self, broken: list | None = None) -> list[dict]:
        """One immediate poll round, ``broken[i]`` to node i when given
        (``MeshNode.poll``); its answers become the latest."""
        import ray
        answers = ray.get([n.poll.remote(
            self.generation, False, None if broken is None else broken[i])
            for i, n in enumerate(self.nodes)])
        for i, answer in enumerate(answers):
            self._take(i, answer)
        return answers

    def settle(self, seed_rows: int, paused: bool = False, broken=None,
               until: float | None = None) -> list[dict] | None:
        """Wait on the nodes' answers until the mesh is quiet
        (``mesh_quiescent``, ``paused`` or not) with every answer taken,
        then confirm it by one immediate round; that round's answers.
        ``broken()``, when given, makes the confirming round's
        ``broken`` pieces. A node that has queued rows (unless paused)
        or held sends but no pump coming is kicked (a lost pump
        self-message). Raises after 60 s without progress (a node
        waiting out a deferral makes progress); returns None once the
        monotonic time ``until`` passes."""
        import time as _time
        last_progress = (None, _time.monotonic())
        answered = range(len(self.nodes))
        while True:
            now = _time.monotonic()
            if until is not None and now >= until:
                return None
            latest = self.latest
            if None not in latest:
                for i in answered:
                    p = latest[i]
                    if (p["held_cand"] or p["queued_rows"] and not paused) \
                            and not p["pump_scheduled"]:
                        self.nodes[i].kick.remote(self.generation)
                progress = tuple((p["counters"]["rounds"],
                                  *(p[k] for k in MESH_COUNTERS))
                                 for p in latest)
                if not paused and any(p["deferred_rows"] for p in latest):
                    last_progress = (progress, now)
                elif progress != last_progress[0]:
                    # the first full view keeps the clock of the start
                    last_progress = (progress, now if last_progress[0]
                                     is not None else last_progress[1])
                elif now - last_progress[1] > 60:
                    raise RuntimeError(mesh_stall_message(
                        "mesh checkpoint settle" if paused else "mesh",
                        latest, seed_rows))
                if mesh_quiescent(latest, latest, seed_rows, paused) \
                        and self.caught_up():
                    # the answers are replaced in place: keep this round
                    prev = list(latest)
                    confirm = self.poll_now(broken() if broken else None)
                    if mesh_quiescent(prev, confirm, seed_rows, paused) \
                            and self.caught_up():
                        return confirm
                    answered = range(len(self.nodes))
                    continue
            wait_s = 60 - (now - last_progress[1])
            if until is not None:
                wait_s = min(wait_s, until - now)
            answered = self.wait(max(0.0, wait_s))


class LinkChecker:
    """One crawl job. Construct with options + the corpus table (+ mock
    http_map); ``check()`` runs the BFS loop to frontier exhaustion."""

    def __init__(self, options: CheckOptions, documents: pa.Table | None = None,
                 http_map: list[dict] | None = None, clock: Clock | None = None,
                 corpus_host: str = "corpus.test", use_ray: bool | None = None,
                 transport_latency_s: float = 0.0, multi_host: bool = False,
                 on_results=None):
        # shallow copy: _expand_paths' markdown auto-detect assigns into
        # opts; the caller's options object must stay untouched so a
        # second check() with the same object behaves identically
        import copy
        self.opts = copy.copy(options)
        # real HTTP waits out Retry-After and politeness in wall time; the
        # mock transport's deadlines are jumped to
        self.clock = clock or (Clock() if options.transport == "http"
                               else FakeClock())
        self.corpus_host = corpus_host
        self.corpus_base = f"http://{corpus_host}/"
        self.documents = documents if documents is not None \
            else schema.empty(schema.DOCUMENTS)
        self.http_map = http_map or []
        if use_ray is None:
            use_ray = options.execution == "ray"
        self.use_ray = use_ray
        self.transport_latency_s = transport_latency_s
        self.multi_host = multi_host

        # the index arrays are the session's (state/actors.py): every
        # checker of one documents table shares them
        self._corpus_index = actors.corpus_index(self.documents, corpus_host,
                                                 multi_host)
        self.corpus = CorpusIndex(self.documents, host=corpus_host,
                                  clean_urls=options.clean_urls,
                                  markdown=options.markdown,
                                  multi_host=multi_host,
                                  directory_listing=options.directory_listing,
                                  prebuilt=self._corpus_index)

        # the driver's share of the crawl state: the seen sets, pending
        # fragment wants and dup edges of the reference's shared caches
        # (src/index.ts:260-265) live on the nodes
        self.results_tables: list[pa.Table] = []
        # every frontier-level BROKEN row, gathered as it is emitted and
        # kept across spills (the J1 join's input)
        self.broken_first_tables: list[pa.Table] = []
        self._spill_part = 0
        # a resumed checkpoint's delay map (host → retry-after deadline)
        # and scripted-sequence counters, for the nodes' seeds
        self.delay_map: dict[str, float] = {}
        self.seq_counters: dict[tuple[str, str], int] = {}
        # the seed keys, and the keys a resume into another directory
        # replays: the nodes journal the keys they insert themselves
        self.journal = ckpt.KeyJournal(bool(self.opts.checkpoint_dir))
        self._journal_from = 1  # the first round of checkpoint_dir's chain
        self.counters = {
            "retries": 0, "warn_redirect": 0, "warn_insecure": 0,
            "warn_status": 0, "pages_crawled": 0, "urls_checked": 0,
            "rounds": 0,
        }
        self.static_host = self.corpus_base  # requireHttps exemption + mapUrl
        self.run_id = uuid.uuid4().hex[:12]
        # "spawn": the seeds and the nodes (on Ray, leasing, resetting
        # and spawning actors, state/actors.py); "finish": from the end
        # of the crawl loop to the returned CrawlResult (the nodes'
        # duplicate-broken rows, the results tail, the stats)
        self.timings = {"spawn": 0.0, "skip": 0.0, "fetch": 0.0,
                        "process": 0.0, "finish": 0.0}
        self._loop_end = 0.0  # perf_counter when the crawl loop ended
        self._leases: list = []
        self._executor = ""
        # mesh only: each node's busy seconds and pump count
        self._mesh_stats: dict | None = None
        # a mesh check's polls
        self._mesh_polls: _MeshPolls | None = None
        # the request log's pieces the nodes' poll answers gathered
        self._requests: list[pa.Table] = []
        # §2.8 event-listener parity: the reference's 'link' events become
        # a per-batch callback over each appended results table
        self.on_results = on_results
        # per-event listeners (reference emits at src/index.ts:496, :546,
        # :601, :614, :677, :1058, :1107): 'link' | 'pagestart' | 'retry'
        # | 'redirect' | 'statusCodeWarning' | 'httpInsecure'. Zero
        # overhead when nothing is registered. Every executor fires them
        # all: the nodes buffer the events that have a listener and the
        # driver fires them as it polls.
        self._listeners: dict[str, list] = {}

    def on(self, event: str, callback) -> "LinkChecker":
        """Register an event listener (reference EventEmitter surface,
        src/index.ts:193-208)."""
        self._listeners.setdefault(event, []).append(callback)
        return self

    def _emit_event(self, event: str, payload) -> None:
        for callback in self._listeners.get(event, ()):
            callback(payload)

    def _emit_warn_events(self, fetched: pa.Table) -> None:
        """Row-level warning events off the actor-classified masks
        (statusCodeWarning :496, redirect :546, httpInsecure :601).
        An empty batch may lack the warn_* columns (``empty_outputs``
        when admission left nothing to fetch)."""
        if fetched.num_rows == 0 or not any(
                self._listeners.get(e) for e in WARN_EVENTS):
            return
        urls = fetched["url"].to_pylist()
        statuses = fetched["status"].to_pylist()
        finals = fetched["final_url"].to_pylist()
        warn_status, warn_redirect, warn_insecure = (
            fetched[c].to_numpy(zero_copy_only=False)
            for c in ("warn_status", "warn_redirect", "warn_insecure"))
        for i in np.flatnonzero(warn_status):
            self._emit_event("statusCodeWarning",
                             {"url": urls[i], "status": statuses[i]})
        for i in np.flatnonzero(warn_redirect):
            self._emit_event("redirect", {
                "url": urls[i], "status": statuses[i],
                "targetUrl": finals[i] if finals[i] != urls[i] else "",
                "isNonStandard": statuses[i] not in
                (301, 302, 303, 307, 308)})
        for i in np.flatnonzero(warn_insecure):
            self._emit_event("httpInsecure", {"url": urls[i]})

    def _emit_retry_events(self, retry: pa.Table) -> None:
        """'retry' for every requeued row (schema.RETRY_ROWS: its
        ``not_before`` and the ``now`` its retry was scheduled at)."""
        if not self._listeners.get("retry"):
            return
        wait = retry["not_before"].to_numpy(zero_copy_only=False) \
            - retry["now"].to_numpy(zero_copy_only=False)
        for url, seconds in zip(retry["url"].to_pylist(), wait):
            self._emit_event("retry", {
                "url": url,
                "secondsUntilRetry": int(round(max(0.0, seconds)))})

    def _emit_pagestart(self, live: pa.Table) -> None:
        """'pagestart' (src/index.ts:677) for every admitted row whose
        page will be crawled."""
        if not self._listeners.get("pagestart") or live.num_rows == 0:
            return
        do_crawl = live["do_crawl"].to_numpy(zero_copy_only=False)
        for url in np.asarray(live["url"].to_pylist(),
                              dtype=object)[do_crawl]:
            self._emit_event("pagestart", url)

    def _emit_link_rows(self, table: pa.Table) -> None:
        if not self._listeners.get("link"):
            return
        for row in table.to_pylist():
            self._emit_event("link", {
                "url": row["url"], "status": row["status"],
                "state": row["state"], "parent": row["parent"] or None,
                "failureDetails": row["failure_details"] or ""})

    # ------------------------------------------------------------------
    # seed handling (processOptions, src/options.ts:54-191)
    # ------------------------------------------------------------------

    def _expand_paths(self) -> list[str]:
        paths = []
        for path in self.opts.paths:
            if urlkit.is_absolute_url(path):
                paths.append(path)
                continue
            if any(ch in path for ch in "*?["):
                matches = sorted(fnmatch.filter(self.corpus.doc_ids(), path))
                if not matches:
                    raise ValueError(f"glob provided, but no matches found: {path}")
                paths.extend(matches)
            else:
                paths.append(path)
        if not paths:
            raise ValueError("at least one path is required")
        # no mixing of local corpus paths and absolute URLs, and
        # server_root only applies to local scans (src/options.ts:77-114)
        has_http = any(urlkit.is_absolute_url(p) for p in paths)
        has_local = any(not urlkit.is_absolute_url(p) for p in paths)
        if has_http and has_local:
            raise ValueError(
                "cannot mix absolute URLs and local corpus paths in one scan")
        if has_http and self.opts.server_root:
            raise ValueError("server_root cannot be used with absolute URLs")
        # markdown auto-detect (src/options.ts:156-164)
        if any(p.endswith((".md", ".mdx")) for p in paths) and not self.opts.markdown:
            self.opts.markdown = True
            self.corpus.markdown = True
        return paths

    # ------------------------------------------------------------------
    # results plumbing
    # ------------------------------------------------------------------

    def _emit(self, table: pa.Table) -> None:
        self.results_tables.append(table)
        broken = table.filter(frontier_broken_mask(table))
        if broken.num_rows:
            self.broken_first_tables.append(broken)
        if self.on_results is not None:
            self.on_results(table.drop_columns(["frontier_level"]))
        self._emit_link_rows(table)

    # ------------------------------------------------------------------
    # the round loop
    # ------------------------------------------------------------------

    def check(self, resume_from: str | None = None) -> CrawlResult:
        """Run the crawl. On Ray the mesh nodes come from the session's
        pool (state/actors.py): a clean finish hands them back, any
        error or interrupt kills them."""
        self._leases = []
        try:
            result = self._check(resume_from)
        except BaseException:
            actors.discard(self._leases)
            raise
        finally:
            # the refs of the polls still waiting end with the check
            self._mesh_polls = None
        actors.release(self._leases)
        return result

    def _check(self, resume_from: str | None) -> CrawlResult:
        opts = self.opts
        if self.use_ray and opts.max_rounds < CheckOptions.max_rounds:
            # the mesh has no rounds: a cap would silently crawl to the end
            raise ValueError(
                f"max_rounds={opts.max_rounds} caps BFS rounds, which only "
                "the local rounds executor has; run with use_ray=False")
        # expand seeds FIRST: glob expansion and the .md/.mdx markdown
        # auto-detect (src/options.ts:156-164) mutate opts/corpus state;
        # workers read opts, so they get self.opts only after this
        self._expanded_paths = self._expand_paths()
        # the blob holds the check's data, never an option; the corpus
        # (documents and index) joins it per executor
        transport_blob = {
            "http_map": self.http_map,
            "latency_s": self.transport_latency_s,
            "strict": False,
            # the request log (CrawlResult.request_log) exists for the
            # conformance tests. Fetch workers keep it as Arrow chunks
            # and the driver gathers it once after the crawl, so it
            # costs O(requests) memory and transfer, but no Python object
            # per batched request. Over 50,000 docs with no http_map it
            # is off
            "record_calls": bool(self.http_map) or self.documents.num_rows <= 50_000,
        }
        # the reference's `concurrency` caps simultaneous connections
        # (src/index.ts:256-258): actors × per-actor connection threads
        # never exceed it
        num_actors = max(1, min(opts.fetch_concurrency, opts.concurrency))
        # connection threads only pay off when requests actually wait on
        # the wire (simulated latency OR the real HTTP transport); with
        # a zero-latency mock they are pure GIL churn
        connections = max(1, min(25, opts.concurrency // num_actors)) \
            if self.transport_latency_s > 0 or opts.transport == "http" \
            else 1
        scripted = any(e.get("seq", -1) >= 0 for e in self.http_map)
        if scripted or opts.retry:
            # scripted sequences and Retry-After need each URL's requests
            # in order: one connection, on every executor
            connections = 1

        # Ray runs the mesh; a Ray-free check runs one node in-process
        if self.use_ray:
            return self._run_mesh(transport_blob, num_actors, connections,
                                  scripted, resume_from=resume_from)
        return self._run_rounds(transport_blob, connections, resume_from)

    def _run_rounds(self, transport_blob: dict, connections: int,
                    resume_from: str | None) -> CrawlResult:
        """Strict BFS rounds, Ray-free: the one node of a one-node mesh
        (state/mesh.py), run in-process on the check's clock with no pump
        cap, so one pump is one round and a result row's ``round`` is its
        BFS depth. Each round the clock first jumps (or sleeps) to the
        earliest deferred deadline when nothing is queued; then one pump,
        its poll answer and, with ``checkpoint_dir``, the round's
        checkpoint. The conformance-test executor."""
        import sys
        import time as _time

        from linkinator_ray.state import mesh as mesh_mod
        opts = self.opts
        t0 = _time.perf_counter()
        self._executor = "rounds"
        seeds, _, round_no = self._seeds(resume_from, 1, False)
        node = mesh_mod.MeshNode(
            0, 1, None, dict(transport_blob, documents=self.documents,
                             corpus_index=self._corpus_index,
                             corpus_host=self.corpus_host,
                             multi_host=self.multi_host),
            opts, seeds[0], **self._node_kwargs(connections, False),
            clock=self.clock, pump_cap=sys.maxsize)
        # the node numbers the rounds, from the checkpoint's on a resume
        node.counters["rounds"], self.counters["rounds"] = round_no, 0
        self.timings["spawn"] = _time.perf_counter() - t0
        try:
            answer = node.poll()
            while (answer["queued_rows"] or answer["deferred_rows"]) \
                    and answer["counters"]["rounds"] < opts.max_rounds:
                if not answer["queued_rows"]:
                    self.clock.advance_to(answer["earliest_deadline"])
                node.pump(None)
                if node.error is not None:
                    raise node.error
                answer = node.poll()
                self._take_poll(answer)
                if opts.checkpoint_dir:
                    self._save_snapshots(answer["counters"]["rounds"],
                                         [node.snapshot()])
            self._loop_end = _time.perf_counter()
            final = node.poll(broken=self._broken_pieces(1)[0])
            self._take_poll(final)
        finally:
            node.close()
        for stage, seconds in final["stage_sec"].items():
            self.timings[stage] += seconds
        return self._finish([final])

    def _maybe_spill_results(self, force: bool = False) -> None:
        """Streaming results sink (options.results_dir): when the driver
        holds more than ``results_flush_rows`` result rows, write them to
        an atomic parquet part and drop them (``_emit`` keeps the
        frontier-level BROKEN rows, the duplicate-broken join's input,
        apart). At 10^10 URLs the
        results never accumulate in driver memory; output is partitioned
        so a rerun diffs/resumes per part. ``force`` flushes the tail at
        finish time regardless of the threshold (never mutate the
        caller's shared opts to do this)."""
        opts = self.opts
        if not opts.results_dir:
            return
        held = sum(t.num_rows for t in self.results_tables)
        if held == 0 or (not force and held < opts.results_flush_rows):
            return
        merged = pa.concat_tables(self.results_tables).combine_chunks()
        write_results_part(opts.results_dir, self._spill_part, merged)
        self._spill_part += 1
        self.counters["spilled_rows"] = \
            self.counters.get("spilled_rows", 0) + merged.num_rows
        self.counters["spilled_broken"] = \
            self.counters.get("spilled_broken", 0) + merged.filter(
                pc.equal(merged["state"], "BROKEN")).num_rows
        self.results_tables = []

    def _finish(self, confirm: list[dict]) -> CrawlResult:
        """The check's end from the nodes' confirming poll answers (their
        counters, seen set sizes and duplicate-broken rows), the results
        tail and the stats. The "finish" timing runs from
        ``self._loop_end``, the ``perf_counter`` reading the executor
        took as its loop ended."""
        import time as _time
        for p in confirm:
            for key, val in p["counters"].items():
                self.counters[key] = self.counters.get(key, 0) + val
            if p["j1"] is not None:
                self._emit(schema.decode(p["j1"]))
        if self.opts.results_dir and self.results_tables:
            # flush the tail (including the J1 re-reports) so the parquet
            # parts are the complete result record
            self._maybe_spill_results(force=True)
        results = self._final_results()
        # spilled rows were counted at spill time; in-memory rows (tail +
        # J1 re-reports) are disjoint from the spilled parts
        total_broken = results.filter(
            pc.equal(results["state"], "BROKEN")).num_rows \
            + self.counters.get("spilled_broken", 0)
        self.timings["finish"] = _time.perf_counter() - self._loop_end
        stats = dict(self.counters, broken=total_broken,
                     seen_urls=sum(p["seen_size"] for p in confirm),
                     results_dir=self.opts.results_dir,
                     timings={k: round(v, 6) for k, v in self.timings.items()},
                     executor=self._executor,
                     actors={"spawned": sum(x.spawned for x in self._leases),
                             "reused": sum(x.reused for x in self._leases)})
        if self._mesh_stats is not None:
            stats["mesh"] = self._mesh_stats
        return CrawlResult(
            passed=total_broken == 0, results=results, stats=stats,
            request_log=pa.concat_tables([schema.empty(schema.CALLS),
                                          *self._requests]))

    # ------------------------------------------------------------------
    # mesh execution — the driverless frontier (state/mesh.py)
    # ------------------------------------------------------------------

    def _run_mesh(self, transport_blob: dict, num_actors: int,
                  connections: int, scripted: bool,
                  resume_from: str | None = None) -> CrawlResult:
        """Actor-mesh frontier: fetch actors push candidates straight to
        seen-shard actors; shards route fresh rows back to the owning
        fetch actors. The driver hands each node its share of the start
        in its lease reset, waits on the nodes' polls until the mesh is
        quiet (two rounds of the monotonic send/receive counters,
        ``mesh_quiescent``), fires the result and event buffers they
        carry, and gathers the nodes' duplicate-broken rows. No per-URL
        driver work, so no ~25 µs/URL serial ceiling from routing every
        batch through the driver (BASELINE.md r1)."""
        import time as _time

        from linkinator_ray.state import mesh as mesh_mod
        opts = self.opts
        # cap nodes at the cluster's CPUs — pooled actors hold no CPU,
        # but more nodes than CPUs only time-slice one another
        num_actors = max(1, min(num_actors,
                                actors.session_cpus() or num_actors))
        t0 = _time.perf_counter()
        self._executor = "mesh"
        # the corpus is put once per session (state/actors.py); the
        # check's own data rides inline with each reset
        corpus_ref = actors.corpus_ref(self.documents, self.corpus_host,
                                       self.multi_host)
        # host affinity only when per-host actor state matters (scripted
        # sequences, Retry-After delay maps, politeness); else balance by
        # url_hash
        sticky = scripted or opts.retry or opts.politeness_delay > 0
        seeds, seed_rows, epoch = self._seeds(resume_from, num_actors, sticky)
        # nodes get the options whole; the corpus rides as a top-level
        # reset argument so Ray resolves its ref (state/actors.py)
        factory = functools.partial(mesh_mod.MeshNode,
                                    **self._node_kwargs(connections, sticky))
        lease = actors.Lease(factory, [(i, num_actors, corpus_ref,
                                        transport_blob, opts, seeds[i])
                                       for i in range(num_actors)])
        self._leases.append(lease)
        del corpus_ref, seeds
        nodes = lease.wait()
        # the nodes pump their seeds already; this message overlaps it
        for n in nodes:
            n.connect.remote(nodes)
        self.timings["spawn"] = _time.perf_counter() - t0
        return self._run_mesh_body(nodes, num_actors, lease.generation,
                                   seed_rows, epoch)

    def _node_kwargs(self, connections: int, sticky: bool) -> dict:
        """The facts of the check a ``MeshNode`` takes besides its
        options: the static host, connections, host-sticky routing and
        the events that have listeners."""
        return {"static_host": self.static_host, "connections": connections,
                "sticky_hosts": sticky,
                "events": [e for e, cbs in self._listeners.items() if cbs]}

    def _seeds(self, resume_from: str | None, k: int,
               sticky: bool) -> tuple[list[dict], int, int]:
        """Each of ``k`` nodes' seed (``_mesh_seeds``), the frontier rows
        they hold and the round (or epoch) the check goes on from: a
        fresh check's expanded paths, pre-inserted into their owners'
        seen sets (src/index.ts:267-288), or the newest checkpoint under
        ``resume_from``, whatever node count wrote it."""
        if resume_from is not None:
            frontier, round_no, wants, dups, journal = \
                self._load_checkpoint(resume_from)
        else:
            frontier = seed_frontier(self._expanded_paths, self.corpus_base)
            round_no = 0
            hashes = frontier["url_hash"].to_numpy(zero_copy_only=False)
            self.journal.add_urls(np.unique(hashes))
            no_keys = np.empty(0, dtype=np.uint64)
            journal = (hashes, no_keys, no_keys)
            wants = schema.empty(schema.PENDING_FRAGS)
            dups = schema.empty(schema.EDGES)
        return (self._mesh_seeds(frontier, journal, wants, dups, k, sticky),
                frontier.num_rows, round_no)

    def _mesh_seeds(self, frontier: pa.Table, journal, wants: pa.Table,
                    dups: pa.Table, k: int, sticky: bool) -> list[dict]:
        """Each of the ``k`` nodes' ``MeshNode`` seed: the journal's URL
        and edge keys of its hash range (edges by their routing hash),
        its fetch share of ``frontier``, the pending wants whose target
        it fetches, the dup edges of its URLs, and the whole delay map
        and scripted-sequence counters."""
        from linkinator_ray.state import mesh as mesh_mod
        url_keys, edge_keys, edge_routes = journal
        url_owner = hash_owner(url_keys, k)
        edge_owner = hash_owner(edge_routes, k)
        rows = _owner_pieces(frontier, mesh_mod.frontier_owner(
            frontier, k, sticky, {}), k)
        want_pieces = _owner_pieces(wants, mesh_mod.want_owner(
            wants, k, sticky, {}), k) if wants.num_rows else [None] * k
        dup_pieces = _owner_pieces(dups, hash_owner(urlkit.hash64_arrow(
            dups["url"].combine_chunks()), k), k) if dups.num_rows \
            else [None] * k
        return [{"frontier": rows[i], "url_keys": url_keys[url_owner == i],
                 "edge_keys": edge_keys[edge_owner == i],
                 "wants": want_pieces[i], "dup_edges": dup_pieces[i],
                 "delay_map": self.delay_map,
                 "seq_counters": self.seq_counters} for i in range(k)]

    def _run_mesh_body(self, nodes, num_actors: int, generation: int,
                       seed_rows: int, epoch: int) -> CrawlResult:
        import time as _time
        opts = self.opts
        polls = self._mesh_polls = _MeshPolls(nodes, generation,
                                              self._take_poll)
        t_start = _time.perf_counter()
        # a pause starves the mesh if it re-fires before any work ran —
        # floor the epoch cadence
        ckpt_interval = max(0.25, opts.checkpoint_interval_s)
        # no timer: each node answers its waiting poll when it has news
        # (results, turning idle, counters moving while idle, an error or
        # a deferred deadline), so the driver wakes once per answer, and
        # a busy mesh is not polled for nothing
        while True:
            until = _time.monotonic() + ckpt_interval \
                if opts.checkpoint_dir else None
            confirm = polls.settle(
                seed_rows, broken=lambda: self._broken_pieces(num_actors),
                until=until)
            if confirm is not None:
                break
            epoch += 1
            self._mesh_checkpoint(nodes, epoch, num_actors, seed_rows)
        self._loop_end = _time.perf_counter()
        self.timings["fetch"] += self._loop_end - t_start
        self._mesh_stats = {
            "busy_sec": [p["busy_sec"] for p in confirm],
            "pumps": [p["counters"]["rounds"] for p in confirm],
            # peer candidate messages: rows each node sent and received,
            # and the wire bytes it sent
            "cand_rows_sent": [p["sent_cand"] for p in confirm],
            "cand_rows_received": [p["received_cand"] for p in confirm],
            "cand_bytes_sent": [p["sent_cand_bytes"] for p in confirm],
            # messages each node took from its peers, and the poll
            # answers the driver took from it
            "messages_received": [p["messages_received"] for p in confirm],
            "polls": list(polls.count)}
        return self._finish(confirm)

    def _broken_pieces(self, num_actors: int) -> list:
        """The frontier-level BROKEN rows so far, ``schema.encode``d per
        node by their URLs' dedup owner (an empty table for a node with
        none): the confirming poll's ``broken``."""
        broken = self._broken_first()
        pieces = _owner_pieces(broken, hash_owner(
            urlkit.hash64_arrow(broken["url"].combine_chunks()),
            num_actors), num_actors)
        empty = schema.encode(broken.slice(0, 0))
        return [p if p is not None else empty for p in pieces]

    def _broken_first(self) -> pa.Table:
        """The ``BROKEN_COLUMNS`` of every frontier-level BROKEN row so
        far (``_emit`` gathers them in broken_first_tables)."""
        return pa.concat_tables(
            [schema.empty(schema.RESULT_ROWS), *self.broken_first_tables]) \
            .select(BROKEN_COLUMNS)

    def _final_results(self) -> pa.Table:
        if not self.results_tables:
            return schema.empty(schema.RESULTS)
        return pa.concat_tables(self.results_tables) \
            .drop_columns(["frontier_level"])

    def _take_poll(self, poll: dict) -> None:
        """One node's poll answer: its error, else its buffers and its
        piece of the request log."""
        if poll["errors"]:
            raise RuntimeError(f"mesh node failed:\n{poll['errors'][0]}")
        self._fire_node_buffers(poll)
        if poll["requests"] is not None:
            self._requests.append(schema.decode(poll["requests"]))
        self._maybe_spill_results()

    def _fire_node_buffers(self, poll: dict) -> None:
        """One node poll's buffers (each an encoded table, or None), kind
        by kind in the order a round fires them: 'pagestart', 'retry',
        the result rows ('link'), then the warning events. Each kind
        keeps the node's order, but a poll may cover several pumps,
        whose events are grouped by kind, not by pump."""
        events = poll["events"]
        if events["pagestart"] is not None:
            self._emit_pagestart(schema.decode(events["pagestart"]))
        if events["retry"] is not None:
            self._emit_retry_events(schema.decode(events["retry"]))
        if poll["results"] is not None:
            self._emit(schema.decode(poll["results"]))
        if events["warn"] is not None:
            self._emit_warn_events(schema.decode(events["warn"]))

    # ------------------------------------------------------------------
    # mesh checkpoint / resume (driver-coordinated epoch snapshots)
    # ------------------------------------------------------------------

    def _mesh_checkpoint(self, nodes, epoch: int, num_actors: int,
                         seed_rows: int) -> None:
        """Pause the mesh, wait on the nodes' polls (``self._mesh_polls``,
        the check's) until it is settled
        (``mesh_quiescent`` with ``paused``: stable counters alone can't
        see a message still on the wire between two polls, which would
        be in neither a sender buffer nor a receiver queue, silently
        missing from the snapshot), snapshot every node's state, write
        one atomic checkpoint, resume. The pause costs one settle round
        trip — the cadence knob is opts.checkpoint_interval_s."""
        import ray

        ray.get([n.pause.remote() for n in nodes])
        self._mesh_polls.settle(seed_rows, paused=True)
        self._maybe_spill_results()
        self._save_snapshots(epoch,
                             ray.get([n.snapshot.remote() for n in nodes]))
        ray.get([n.resume_run.remote() for n in nodes])

    def _save_snapshots(self, round_no: int, snaps: list[dict]) -> None:
        """The one checkpoint every executor writes, from its nodes'
        ``MeshNode.snapshot``s: their frontier, pending wants, duplicate
        edges, delay maps, scripted-sequence counters and key journals,
        plus the driver's counters, results and spill state (retained
        frontier-level BROKEN rows are the J1 join's input, and a resumed
        run continues numbering parquet parts)."""
        delay_union: dict[str, float] = {}
        # a scripted URL is fetched by its host's one node, but after a
        # resume at another node count a stale copy may sit on another:
        # counts only grow, so the max is the live one
        seq_union: dict[tuple[str, str], int] = {}
        counters = dict(self.counters)
        for s in snaps:
            for host, deadline in s["delay_map"].items():
                cur = delay_union.get(host)
                delay_union[host] = max(cur, deadline) \
                    if cur is not None else deadline
            for key, count in s["seq_counters"].items():
                seq_union[key] = max(seq_union.get(key, 0), count)
            for key, val in s["counters"].items():
                counters[key] = counters.get(key, 0) + val
        # the driver's journal holds the seed keys, and the keys a resume
        # from another directory replayed
        journals = [s["journal"] for s in snaps] + [self.journal.drain()]

        def table(key, table_schema):
            parts = [t for t in (schema.decode(s[key]) for s in snaps)
                     if t.num_rows]
            return pa.concat_tables(parts) if parts \
                else schema.empty(table_schema)
        tables = {
            "frontier": table("frontier", schema.FRONTIER),
            "pending_fragments": table("pending_fragments",
                                       schema.PENDING_FRAGS),
            # a resumed check routed its dup edges to the nodes too
            "dup_edges": table("dup_edges", schema.EDGES),
            "results": pa.concat_tables(self.results_tables)
            if self.results_tables else schema.empty(schema.RESULT_ROWS),
            "broken_first": pa.concat_tables(self.broken_first_tables)
            if self.broken_first_tables else schema.empty(schema.RESULT_ROWS),
            "delay_map": pa.table({
                "host": pa.array(list(delay_union), pa.string()),
                "deadline": pa.array(list(delay_union.values()),
                                     pa.float64())}),
            "seq_counters": ckpt.seq_counter_table(seq_union),
            **ckpt.journal_tables(*(np.concatenate(parts)
                                    for parts in zip(*journals))),
        }
        ckpt.save_round(
            self.opts.checkpoint_dir, self.run_id, round_no, tables,
            counters, extra={"clock": self._now(),
                             "executor": self._executor,
                             "spill_part": self._spill_part,
                             "journal_from": self._journal_from})

    def _load_checkpoint(self, checkpoint_dir: str):
        """Restore the driver's share of the newest checkpoint, whoever
        wrote it: counters, results, spill state, the delay map and the
        scripted-sequence counters. Returns ``(frontier, round, pending
        wants, duplicate edges, key journal)`` for the nodes' seeds."""
        last = ckpt.latest_round(checkpoint_dir)
        if last is None:
            raise ValueError(f"no checkpoint found under {checkpoint_dir}")
        manifest, tables = ckpt.load_round(checkpoint_dir, last)
        if any(manifest["extra"].get("node_spill_parts", [])):
            # an earlier version's mesh nodes wrote results parts of
            # their own; the prune below would delete their finished rows
            raise ValueError(
                f"checkpoint {checkpoint_dir}: round {last} counts results "
                "parts written by mesh nodes (an earlier version); its "
                "results_dir cannot be resumed")
        first = manifest["extra"].get("journal_from", 1)
        journal = ckpt.load_key_journal(checkpoint_dir, last, first)
        self._journal_from = first
        if self.opts.checkpoint_dir and os.path.realpath(
                self.opts.checkpoint_dir) != os.path.realpath(checkpoint_dir):
            # a new directory starts a new chain: its first round
            # journals every key replayed here
            self.journal.add_urls(journal[0])
            self.journal.add_edges(journal[1], journal[2])
            self._journal_from = last + 1
        self.counters.update(manifest["counters"])
        results = tables["results"]
        self.results_tables = [results]
        # ``broken_first`` holds every frontier-level BROKEN row; an
        # earlier version's held only the spilled ones, so the results'
        # own that it lacks (by URL, one row each) join it
        broken_first = tables["broken_first"]
        held = results.filter(frontier_broken_mask(results))
        held = held.filter(pc.invert(pc.is_in(
            held["url"], value_set=broken_first["url"].combine_chunks())))
        broken_first = pa.concat_tables([broken_first, held])
        if broken_first.num_rows:
            self.broken_first_tables = [broken_first]
        # every deadline keeps the time it had left when the checkpoint
        # was written, on this executor's clock: either executor resumes
        # the other's checkpoints
        saved, now = manifest["extra"].get("clock", 0.0), self._now()
        frontier = tables["frontier"]
        not_before = frontier["not_before"].to_numpy(zero_copy_only=False)
        frontier = frontier.set_column(
            frontier.schema.get_field_index("not_before"), "not_before",
            pa.array(now + np.maximum(0.0, not_before - saved), pa.float64()))
        delay = tables["delay_map"]
        self.delay_map = {
            host: now + max(0.0, deadline - saved) for host, deadline in
            zip(delay["host"].to_pylist(), delay["deadline"].to_pylist())}
        self.seq_counters = ckpt.seq_counters_of(tables["seq_counters"])
        # parts the dead run spilled AFTER this checkpoint duplicate
        # rows the replay will re-produce — drop them before resuming
        self._spill_part = int(manifest["extra"].get("spill_part", 0))
        prune_stale_spill_parts(self.opts.results_dir, self._spill_part)
        return (frontier, manifest["round"], tables["pending_fragments"],
                tables["dup_edges"], journal)

    def _now(self) -> float:
        """The clock this executor's deadlines are measured on: the
        nodes' wall clock on the mesh, ``self.clock`` in rounds."""
        import time as _time
        return _time.time() if self._executor == "mesh" else self.clock.now()


def check(options: CheckOptions, documents: pa.Table | None = None,
          http_map: list[dict] | None = None, **kwargs) -> CrawlResult:
    """Convenience one-shot scan (reference: src/index.ts:1116-1120)."""
    return LinkChecker(options, documents, http_map, **kwargs).check()
