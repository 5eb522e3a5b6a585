"""Fetch stage: transports and the fetch worker.

Re-expresses the reference's ``makeRequest`` + per-URL crawl state
machine (/root/reference/src/index.ts:1185-1286 and :344-479) as a
batch worker. Each worker holds the transport (connection pool
analogue), compiled skip rules, and per-(url, method) sequence
counters. Every mesh node (state/mesh.py) owns one, the in-process
node of a Ray-free check included, and the mesh routes a host's rows
to one node when per-host state matters (scripted response sequences,
Retry-After delay maps, politeness), so those stay deterministic on a
cluster (SURVEY.md §4 partitioning keys).

A worker runs the state machine as masked steps over its whole batch,
one request per selected row per step. Two transports sit behind the
same ``request`` interface: ``MockTransport`` (FIXTURES.md ``http_map``
— the stand-in for undici's MockAgent in the reference tests — backed
by the corpus resolver, which answers a step's corpus rows in one
vectorized pass) and the stdlib ``HttpTransport``
(stages/http_transport.py), which the worker drives per row over its
connection threads.
"""

from __future__ import annotations

import json
import threading
import time
from email.utils import parsedate_to_datetime
from urllib.parse import urljoin

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from linkinator_ray import schema, urlkit
from linkinator_ray.options import CheckOptions, RedirectsMode
from linkinator_ray.sources.documents import CorpusIndex
from linkinator_ray.stages.classify import (CSS_TYPES, HTML_TYPES,
                                            content_masks)

REDIRECT_STATUSES = frozenset([301, 302, 303, 307, 308])
_METHODS = pa.array(["HEAD", "GET"])  # by the ``get`` flag
SENSITIVE_HEADERS = frozenset(["authorization", "cookie", "proxy-authorization"])
MAX_REDIRECTS = 20  # src/index.ts:1272-1275
# the host of an absolute URL with a plain lower-case host (RE2)
_RE_HOST = (r"^[a-z][a-z0-9+.-]*://(?P<host>[a-z0-9.-]+)(?::[0-9]*)?"
            r"(?:[/?#]|$)")


# one fetch-step response per row: the fields the state machine and
# FETCH_RESULTS read ('' / 0 / -1 when the request threw)
STEP = pa.schema([
    ("status", pa.int32()),
    ("final_url", pa.string()),
    ("body_doc_id", pa.string()),
    ("content_type", pa.string()),
    ("has_location", pa.bool_()),
    ("location", pa.string()),
    ("cf_mitigated", pa.bool_()),
    ("retry_after", pa.string()),       # raw retry-after header
    ("redirect_skipped", pa.string()),
    ("error", pa.string()),             # '' = a response arrived
    ("body_row", pa.int64()),           # corpus row of the body, -1 if none
])


class TransportError(Exception):
    pass


class TResponse:
    __slots__ = ("status", "headers", "content_type", "body_doc_id", "url",
                 "redirect_skipped")

    def __init__(self, status, headers=None, content_type="", body_doc_id="",
                 url="", redirect_skipped=""):
        self.status = status
        self.headers = headers or {}
        self.content_type = content_type
        self.body_doc_id = body_doc_id  # '' = no body
        self.url = url
        self.redirect_skipped = redirect_skipped

    @property
    def has_body(self) -> bool:
        return self.body_doc_id != ""


class CallLog:
    """A transport's request log (schema.CALLS), kept as Arrow. A batched
    step appends its url/method/status columns as one chunk; a single
    request (a scripted row, a redirect hop, any HTTP request) appends a
    row, and the rows pending become a chunk before the next batched one,
    so the log keeps request order. Disabled, it records nothing: at
    bench/cluster scale it is an O(requests) memory and end-of-run
    serialization cost. Connection threads append concurrently."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._chunks: list[pa.Table] = []
        self._rows: list[tuple[str, str, int]] = []
        self._lock = threading.Lock()

    def append(self, url: str, method: str, status: int) -> None:
        if self.enabled:
            with self._lock:
                self._rows.append((url, method, status))

    def extend(self, urls: pa.Array, methods: pa.Array,
               status: pa.Array) -> None:
        if self.enabled:
            chunk = pa.Table.from_arrays(
                [urls, methods, status.cast(pa.int32())], schema=schema.CALLS)
            with self._lock:
                self._flush_rows()
                self._chunks.append(chunk)

    def _flush_rows(self) -> None:
        """The pending rows as a chunk; called under ``_lock``."""
        rows, self._rows = self._rows, []
        if rows:
            self._chunks.append(pa.Table.from_arrays(
                [pa.array(col, f.type) for col, f in zip(zip(*rows),
                                                          schema.CALLS)],
                schema=schema.CALLS))

    def table(self) -> pa.Table:
        with self._lock:
            self._flush_rows()
            chunks = list(self._chunks)
        return pa.concat_tables([schema.empty(schema.CALLS), *chunks])

    def take(self) -> list[pa.Table]:
        """The chunks logged since the last ``take``, which the log
        forgets: a mesh node hands its log to the driver a piece per
        poll answer."""
        with self._lock:
            self._flush_rows()
            chunks, self._chunks = self._chunks, []
        return chunks


def call_tuples(calls: pa.Table) -> list[tuple[str, str, int]]:
    """A request log as (url, method, status) tuples."""
    return list(zip(*(calls[name].to_pylist() for name in schema.CALLS.names)))


def parse_retry_after(raw: str, now: float) -> float:
    """seconds | HTTP-date | '30s'/'1m30s' → epoch seconds, or nan
    (src/index.ts:993-1009)."""
    try:
        return now + float(raw)
    except ValueError:
        pass
    try:
        return parsedate_to_datetime(raw).timestamp()
    except (ValueError, TypeError):
        pass
    import re
    match = re.match(r"^(?:(\d+)m)?(\d+)s$", raw)
    if match:
        return now + int(match.group(1) or 0) * 60 + int(match.group(2))
    return float("nan")


class MockTransport:
    """Deterministic single-hop HTTP: scripted http_map first, corpus
    resolution second, 'unmocked' error otherwise. Sequence counters are
    per (url, method) — host-sticky routing keeps them global in effect."""

    def __init__(self, http_map: list[dict] | None = None,
                 corpus: CorpusIndex | None = None,
                 latency_s: float = 0.0, strict: bool = True,
                 record_calls: bool = True):
        self.corpus = corpus
        self.latency_s = latency_s
        self.strict = strict
        # the call log exists for conformance tests
        self.log = CallLog(record_calls)
        self.header_log: list[tuple[str, str, dict]] = []  # (url, method, headers)
        # requests answered so far per scripted (url, method) key: the
        # next one gets `seq` = this count. Checkpoints save it, so a
        # resumed check continues each script where it stopped
        self.seq_counters: dict[tuple[str, str], int] = {}
        self._map: dict[tuple[str, str], list[dict]] = {}
        for entry in http_map or []:
            # keys are stored normalized — the engine always fetches
            # normalized fragmentless URLs
            url = urlkit.normalize_url(entry["url"], keep_fragment=False)
            key = (url, entry.get("method", "*"))
            self._map.setdefault(key, []).append(dict(entry))
        for entries in self._map.values():
            entries.sort(key=lambda e: e.get("seq", -1))
        self._map_urls = pa.array(sorted({url for url, _ in self._map}),
                                  pa.string())

    def _match(self, url: str, method: str) -> dict | None:
        for key in ((url, method), (url, "*")):
            entries = self._map.get(key)
            if not entries:
                continue
            seq = self.seq_counters.get(key, 0)
            self.seq_counters[key] = seq + 1
            exact = [e for e in entries if e.get("seq", -1) == seq]
            if exact:
                return exact[0]
            always = [e for e in entries if e.get("seq", -1) == -1]
            if always:
                return always[0]
            scripted = [e for e in entries if e.get("seq", -1) < seq]
            if scripted:
                return scripted[-1]  # past the script: repeat the last response
            return entries[0]
        return None

    def request(self, url: str, method: str,
                headers: dict[str, str] | None = None) -> TResponse:
        if headers:
            # recorded so tests can assert the per-hop header flow
            # (incl. cross-host sensitive-header stripping)
            self.header_log.append((url, method, dict(headers)))
        self.wait()
        entry = self._match(url, method)
        if entry is not None:
            if entry.get("error"):
                self.log.append(url, method, 0)
                raise TransportError(entry["error"])
            headers = json.loads(entry["headers_json"]) if entry.get("headers_json") else {}
            headers = {k.lower(): v for k, v in headers.items()}
            if entry.get("retry_after"):
                headers["retry-after"] = entry["retry_after"]
            if entry.get("content_type"):
                headers["content-type"] = entry["content_type"]
            body = entry.get("body_doc_id", "") if method == "GET" else ""
            self.log.append(url, method, entry["status"])
            return TResponse(entry["status"], headers, entry.get("content_type", ""),
                             body, url)
        if self.corpus is not None:
            res = self.corpus.resolve_many(pa.array([url], pa.string())) \
                .to_pylist()[0]
            if res["on_corpus"]:
                status = res["status"]
                self.log.append(url, method, status)
                if status == 301:
                    return TResponse(301, {"location": res["location"]},
                                     "", "", url)
                if status == 200:
                    body = res["doc_id"] if method == "GET" else ""
                    ct = res["content_type"]
                    return TResponse(200, {"content-type": ct}, ct, body, url)
                return TResponse(status, {}, "", "", url)
        self.log.append(url, method, 0)
        if self.strict:
            raise TransportError(f"unmocked request: {method} {url}")
        return TResponse(404, {}, "", "", url)

    def wait(self) -> None:
        """One request's simulated time on the wire."""
        if self.latency_s:
            time.sleep(self.latency_s)

    def scripted(self, urls: pa.Array) -> np.ndarray:
        """Rows whose URL has an http_map entry: they keep per-row
        ``request`` calls, which own the sequence counters."""
        if not len(self._map_urls):
            return np.zeros(len(urls), dtype=bool)
        return pc.is_in(urls, value_set=self._map_urls) \
            .to_numpy(zero_copy_only=False)

    def request_many(self, urls: pa.Array, get: np.ndarray,
                     headers: dict[str, str] | None = None,
                     url_hash: np.ndarray | None = None) -> pa.Table:
        """``request`` for a batch of URLs without an http_map entry
        (GET where ``get``, else HEAD): one ``CorpusIndex.resolve_many``
        pass keyed by ``url_hash`` (``urlkit.hash64`` of each URL), the
        same responses and call-log rows. Returns STEP rows; following a
        301's location is the caller's hop loop, and each row's ``wait``
        the caller's connection threads."""
        res = self.corpus.resolve_many(urls, url_hash)
        n = len(urls)
        status, doc_id, location, row = (
            res.column(name).chunk(0)
            for name in ("status", "doc_id", "location", "row"))
        on = res.column("on_corpus").to_numpy()
        methods = _METHODS.take(pa.array(get.astype(np.int8)))
        if headers:
            self.header_log.extend((u, m, dict(headers)) for u, m in
                                   zip(urls.to_pylist(), methods.to_pylist()))
        self.log.extend(urls, methods, status)
        empty = pa.repeat(pa.scalar("", pa.string()), n)
        error, final_url = empty, urls
        if not on.all():
            off = pa.array(~on)
            if self.strict:
                error = pc.if_else(off, pc.binary_join_element_wise(
                    "unmocked request:", methods, urls, " "), "")
                final_url = pc.if_else(off, "", urls)
            else:
                status = pc.if_else(off, pa.scalar(404, pa.int32()), status)
        # a HEAD request's 200 has no body
        head_ok = (status.to_numpy(zero_copy_only=False) == 200) & ~get
        if head_ok.any():
            body = pa.array(~head_ok)
            doc_id = pc.if_else(body, doc_id, "")
            row = pc.if_else(body, row, -1)
        return pa.Table.from_arrays([
            status, final_url, doc_id, res.column("content_type").chunk(0),
            pa.array(urlkit.nonempty(location)), location,
            pa.array(np.zeros(n, dtype=bool)), empty, empty, error, row,
        ], schema=STEP)


class SkipRules:
    """A skip option's value (``links_to_skip``, src/index.ts:929-955,
    or ``fragments_to_skip``): regex patterns or one callable. The fetch
    worker matches them per link and per redirect hop, and the frontier
    skip stage (pipelines/crawl.py) matches them per batch."""

    def __init__(self, rule=None):
        import re
        self.fn = rule if callable(rule) else None
        self.patterns = [] if self.fn is not None \
            else [re.compile(p) for p in rule or []]
        self._vec_ok: dict[int, bool] = {}

    def __bool__(self) -> bool:
        return bool(self.patterns) or self.fn is not None

    def should_skip(self, href: str) -> bool:
        if not href.startswith(("http://", "https://")):
            return True
        if self.fn is not None:
            return bool(self.fn(href))
        return any(p.search(href) for p in self.patterns)

    def match_vec(self, col) -> np.ndarray:
        """Vectorized rule matching. RE2-compatible patterns run as
        Arrow kernels; Python-only patterns (or a callable rule) fall
        back to the per-row path."""
        import pyarrow.compute as pc
        n = len(col)
        if self.fn is not None:
            vals = col.to_pylist()
            return np.fromiter((bool(self.fn(v)) for v in vals), bool, n)
        hit = np.zeros(n, dtype=bool)
        for k, pat in enumerate(self.patterns):
            if self._vec_ok.get(k, True):
                try:
                    hit |= pc.match_substring_regex(col, pat.pattern) \
                        .to_numpy(zero_copy_only=False)
                    continue
                except Exception:
                    self._vec_ok[k] = False
            vals = col.to_pylist()
            hit |= np.fromiter((bool(pat.search(v)) for v in vals), bool, n)
        return hit


class FetchWorker:
    """One fetch worker: the per-URL request state machine of
    src/index.ts:344-479 (HEAD→GET fallbacks, manual redirect loop with
    per-hop skip rules, retry-after detection), run as masked steps over
    a whole batch, then extraction, per-link rules and classification.

    Every setting comes from ``opts``, the check's ``CheckOptions``;
    ``static_host`` and ``connections`` are the driver's facts of the
    check. Owned by a mesh node (state/mesh.py).
    """

    def __init__(self, transport: MockTransport, opts: CheckOptions, *,
                 static_host: str | None = None, connections: int = 1):
        self.transport = transport
        self.opts = opts
        self.static_host = static_host
        # per-worker concurrent connection streams (the reference's
        # `concurrency` is simultaneous connections, src/index.ts:256)
        self.connections = max(1, connections)
        self.skip = SkipRules(opts.links_to_skip)
        self.frag_skip = SkipRules(opts.fragments_to_skip)
        corpus = getattr(transport, "corpus", None)
        # body rows of per-row responses come from the corpus index
        self._index = corpus if isinstance(corpus, CorpusIndex) else None
        # built on first use: extraction imports stages/extract lazily,
        # connection threads only exist when a batch fetches in parallel
        self._extractor = None
        self._pool = None
        # '0', '1', ...: the doc_ids of an extraction batch (_positions)
        self._position_ids = pa.array([], pa.string())

    def close(self) -> None:
        """Stop the connection threads (their keep-alive connections
        close with them)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- makeRequest with redirect handling (src/index.ts:1185-1286) ------

    def make_request(self, method: str, url: str,
                     first: TResponse | None = None) -> TResponse:
        """One request and its redirect hops. ``first`` is the first
        hop's response when a batched step already sent it."""
        manual = self.opts.redirects == RedirectsMode.ERROR
        per_hop_skip = not manual and bool(self.skip)
        current = url
        headers = dict(self.opts.headers)
        hops = 0
        while True:
            resp = first if first is not None else \
                self.transport.request(current, method, headers)
            first = None
            resp.url = current
            location = resp.headers.get("location", "")
            if manual or resp.status not in REDIRECT_STATUSES or not location:
                return resp
            target = urlkit.normalize_url(urljoin(current, location), keep_fragment=True)
            if per_hop_skip and self.skip.should_skip(target):
                resp.redirect_skipped = target
                resp.body_doc_id = ""
                return resp
            if hops >= MAX_REDIRECTS:
                raise TransportError("redirect count exceeded")
            if urlkit.host_of(current) != urlkit.host_of(target):
                headers = {k: v for k, v in headers.items()
                           if k.lower() not in SENSITIVE_HEADERS}
            current = target
            hops += 1

    # -- the per-URL state machine, one batch step at a time ---------------

    def _request_steps(self, urls: pa.Array, url_hash: np.ndarray,
                       do_crawl: np.ndarray, pending: np.ndarray,
                       now: float) -> "_StepState":
        """Run src/index.ts:344-479 over the batch as masked steps, each
        one request per selected row, in the reference's order: first
        request (GET to crawl, else HEAD), 405 → GET, last-gasp GET,
        CSS body re-GET, fragment body re-GET. A redirect skip or a
        usable retry-after ends a row; a thrown request is recorded and
        the row goes on. ``url_hash`` is the batch's column: the mock
        transport keys its corpus lookups by it."""
        state = _StepState(len(urls))
        get_all = np.ones(len(urls), dtype=bool)

        def step(mask, get, forget_on_error: bool, check_retry: bool):
            idx = np.flatnonzero(mask)
            if len(idx):
                rows, table = self._send(urls, url_hash, idx, get[idx])
                state.record(rows, table, forget_on_error,
                             check_retry and self.opts.retry, now)

        step(get_all, do_crawl, True, True)
        # server dislikes HEAD → GET
        step(~state.ended & state.has_resp & (state.status == 405),
             get_all, True, True)
        # last-gasp GET for non-crawl targets (src/index.ts:396-417)
        ok2xx = state.has_resp & (state.status >= 200) & (state.status < 300)
        step(~state.ended & ~do_crawl & ~ok2xx, get_all, False, True)
        if self.opts.check_css:
            # CSS body re-GET (src/index.ts:426-448)
            step(~state.ended & state.has_resp & state.is_css
                 & ~state.has_body & do_crawl, get_all, False, False)
        if self.opts.check_fragments:
            # fragment body re-GET (src/index.ts:450-473)
            step(~state.ended & state.has_resp & state.is_html
                 & ~state.has_body & pending, get_all, False, False)
        return state

    def _send(self, urls: pa.Array, url_hash: np.ndarray, idx: np.ndarray,
              get: np.ndarray):
        """One request for each row ``idx`` (GET where ``get``, else
        HEAD) → (rows, STEP table). A mock transport answers its corpus
        rows with one ``request_many`` and, when it simulates latency,
        waits once per row over the connection threads; scripted rows,
        redirects to follow and the HTTP transport go through
        ``make_request`` per row."""
        sub = urlkit.take_rows(urls, idx)
        transport = self.transport
        per_row = transport.scripted(sub) if self._index is not None \
            else np.ones(len(idx), dtype=bool)
        todo = np.flatnonzero(per_row)
        firsts: list = [None] * len(todo)
        rows, tables = [], []
        batched = np.flatnonzero(~per_row)
        if len(batched):
            t = transport.request_many(urlkit.take_rows(sub, batched),
                                       get[batched], self.opts.headers,
                                       url_hash[idx[batched]])
            if transport.latency_s:
                self._per_row(lambda _: transport.wait(), len(batched))
            hop = np.zeros(len(batched), dtype=bool)
            if self.opts.redirects != RedirectsMode.ERROR:
                hop = t["has_location"].to_numpy()
                if hop.any():
                    hop = hop & np.isin(t["status"].to_numpy(),
                                        list(REDIRECT_STATUSES))
            if hop.any():
                h = pa.array(np.flatnonzero(hop))
                firsts += [TResponse(st, {"location": loc}, "", "", u)
                           for st, loc, u in zip(
                               t["status"].take(h).to_pylist(),
                               t["location"].take(h).to_pylist(),
                               t["final_url"].take(h).to_pylist())]
                todo = np.concatenate([todo, batched[hop]])
                t = t.filter(pa.array(~hop))
                batched = batched[~hop]
            rows.append(idx[batched])
            tables.append(t)
        if len(todo):
            outcomes = self._request_rows(
                sub.take(pa.array(todo)).to_pylist(), get[todo], firsts)
            rows.append(idx[todo])
            tables.append(self._step_table(outcomes))
        if len(tables) == 1:
            return rows[0], tables[0]
        return np.concatenate(rows), pa.concat_tables(tables)

    def _request_rows(self, urls: list[str], get: np.ndarray,
                      firsts: list) -> list:
        """``make_request`` per row: a TResponse, or the TransportError
        message."""
        methods = np.where(get, "GET", "HEAD").tolist()

        def one(j):
            try:
                return self.make_request(methods[j], urls[j], firsts[j])
            except TransportError as exc:
                return str(exc)

        return self._per_row(one, len(urls))

    def _per_row(self, fn, n: int) -> list:
        """``[fn(j) for j in range(n)]``, over the connection threads
        when there are several: waits on the wire overlap, the GIL
        serializes the cheap per-row compute."""
        if self.connections > 1 and n > 1:
            from concurrent.futures import ThreadPoolExecutor
            if self._pool is None:
                self._pool = ThreadPoolExecutor(self.connections)
            return list(self._pool.map(fn, range(n)))
        return [fn(j) for j in range(n)]

    def _step_table(self, outcomes: list) -> pa.Table:
        """STEP rows for per-row outcomes."""
        def fields(o):
            if isinstance(o, str):  # the request threw
                return (0, "", "", "", False, "", False, "", "", o)
            h = o.headers
            return (o.status, o.url, o.body_doc_id,
                    h.get("content-type", ""), "location" in h,
                    h.get("location", ""), bool(h.get("cf-mitigated")),
                    h.get("retry-after", ""), o.redirect_skipped, "")

        cols = [pa.array(list(col), field.type) for field, col
                in zip(STEP, zip(*map(fields, outcomes)))]
        bodies = cols[STEP.get_field_index("body_doc_id")]
        cols.append(pa.array(
            self._index.rows_of(bodies) if self._index is not None
            else np.full(len(outcomes), -1, dtype=np.int64)))
        return pa.Table.from_arrays(cols, schema=STEP)

    def fetch_batch(self, batch: pa.Table, pending_fragment_urls: list[str],
                    now: float) -> dict:
        """Fetch + fused extraction + per-link prep, one RPC per round
        per actor.

        Fusing parse (and the per-link skip/crawl-gate/hash work) into
        the fetch actor mirrors the reference (parsing happens inside the
        crawl task, src/index.ts:675-715) and keeps the driver's round
        work down to the two dedup joins — the part that must see global
        state. Bodies never re-ship through the object store.

        Returns dict of tables: fetched / candidates / link_results /
        pending_frags / frag_targets.
        """
        from linkinator_ray.stages.extract import ExtractLinks
        if self._extractor is None:
            self._extractor = ExtractLinks(check_css=self.opts.check_css)
        out = empty_outputs()
        if batch.num_rows == 0:
            return out
        # FETCH_RESULTS carries the frontier columns, one chunk each
        batch = batch.select(schema.FETCH_RESULTS.names[:8]).combine_chunks()
        urls = batch["url"].chunk(0)
        do_crawl = batch["do_crawl"].to_numpy(zero_copy_only=False)
        pending = pc.is_in(urls, value_set=pa.array(
            pending_fragment_urls, pa.string())).to_numpy(
            zero_copy_only=False) if pending_fragment_urls \
            else np.zeros(batch.num_rows, dtype=bool)
        state = self._request_steps(
            urls, batch["url_hash"].to_numpy(), do_crawl, pending, now)
        resp = state.responses()
        is_html, is_css, has_body = state.is_html, state.is_css, state.has_body
        # parsed: crawl targets with an HTML (or checked CSS) body, and
        # pages whose fragments are wanted — all of them in one documents
        # table through the batch extractor (stages/extract.py)
        eligible = do_crawl & has_body & (is_html | (is_css & self.opts.check_css))
        need_frags = self.opts.check_fragments & has_body & is_html \
            & (eligible | pending)
        rows = np.flatnonzero(~state.ended & (eligible | need_frags))
        soft404 = np.zeros(batch.num_rows, dtype=bool)
        if len(rows):
            soft404[rows] = self._extract_and_process(
                rows, batch, resp, eligible[rows],
                (is_css & ~is_html)[rows], need_frags[rows], out)

        if state.failures:
            errors = np.full(batch.num_rows, "", dtype=object)
            for row, messages in state.failures.items():
                errors[row] = json.dumps(messages)
            errors = pa.array(errors, pa.string())
        else:
            errors = resp["error"]  # '' on every row
        cols = batch.columns + [
            resp["status"], resp["final_url"], pa.array(has_body),
            resp["body_doc_id"], resp["content_type"], resp["has_location"],
            pa.array(state.retry_at), resp["cf_mitigated"],
            resp["redirect_skipped"], errors, pa.array(soft404)]
        fetched = pa.Table.from_arrays(cols, schema=schema.FETCH_RESULTS)
        out["fetched"] = pa.Table.from_arrays(
            cols + self._classify_in_actor(fetched, (is_html, is_css)),
            schema=CLASSIFIED)
        return out

    # -- extraction + per-link handling, actor-side (src/index.ts:675-798) --

    def _extract_and_process(self, rows: np.ndarray, batch: pa.Table,
                             resp: pa.Table, eligible: np.ndarray,
                             css: np.ndarray, need_frags: np.ndarray,
                             out: dict) -> np.ndarray:
        """Extract links from the bodies of batch rows ``rows`` in one
        call and run the per-link rules on the links of ``eligible``
        ones; fills ``out`` and returns the rows' soft-404 mask (set on
        fragment-checked pages)."""
        take = pa.array(rows)
        spans = self._spans(resp["body_doc_id"], rows,
                            resp["body_row"].to_numpy(zero_copy_only=False)[rows])
        # doc_id = LOCAL position string so link rows map back to their
        # row with one cast instead of a lookup; fragment targets are
        # keyed by the checked URL, links resolve against the final one
        # (a row with a body has one)
        names = ["doc_id", "spans", "page_url", "base_url"]
        cols = [self._positions(len(rows)), spans,
                batch.column("url").take(take),
                resp.column("final_url").take(take)]
        if css.any():
            names.append("css")
            cols.append(pa.array(css))
        links, frags = self._extractor.extract_with_fragments(
            pa.Table.from_arrays(cols, names=names))
        doc_pos = None
        if not eligible.all():
            doc_pos = pc.cast(links["doc_id"], pa.int64()) \
                .to_numpy(zero_copy_only=False)
            keep = eligible[doc_pos]
            links, doc_pos = links.filter(pa.array(keep)), doc_pos[keep]
        out.update(self._process_links_vec(links, batch, rows, doc_pos))
        if not self.opts.check_fragments:
            return np.zeros(len(rows), dtype=bool)
        # the only parsed rows that are not fragment-checked then are
        # stylesheets, which have no fragment targets
        out["frag_targets"] = frags
        # soft-404 heuristic over the body text (src/index.ts:630-637)
        texts = pc.list_flatten(spans).field("text")
        owner = pc.list_parent_indices(spans).to_numpy(zero_copy_only=False)

        def some_span_has(word: str) -> np.ndarray:
            hit = pc.fill_null(pc.match_substring(texts, word), False) \
                .to_numpy(zero_copy_only=False)
            return np.bincount(owner[hit], minlength=len(rows)) > 0

        return need_frags & some_span_has("noindex") & some_span_has("nofollow")

    def _positions(self, n: int) -> pa.Array:
        """'0', '1', ... as a string column of ``n`` rows, sliced from
        one column the worker keeps and grows."""
        if len(self._position_ids) < n:
            self._position_ids = pc.cast(pa.array(np.arange(
                max(n, 2 * len(self._position_ids), 64))), pa.string())
        return self._position_ids.slice(0, n)

    def _spans(self, bodies, rows: np.ndarray,
               body_row: np.ndarray) -> pa.Array:
        """The span lists of the ``bodies`` of batch rows ``rows``
        (``body_row`` is each one's corpus row, -1 if none): corpus rows
        by one take on the corpus's spans column, live bodies and
        directory listings from the transport's body store."""
        stored = np.flatnonzero(body_row >= 0)
        if len(stored) == len(body_row):
            return self._index._spans_col.take(pa.array(body_row))
        spans_type = schema.DOCUMENTS.field("spans").type
        store = getattr(self.transport, "corpus", None)
        others = np.flatnonzero(body_row < 0)
        listed = pa.array(
            [store.spans_of(b) if store is not None else [] for b in
             bodies.take(pa.array(rows[others])).to_pylist()], spans_type)
        if not len(stored):
            return listed
        pick = np.empty(len(body_row), dtype=np.int64)
        pick[stored] = np.arange(len(stored))
        pick[others] = len(stored) + np.arange(len(others))
        return pa.concat_arrays([
            self._index._spans_col.take(pa.array(body_row[stored])),
            listed]).take(pa.array(pick))

    def _process_links_vec(self, links: pa.Table, batch: pa.Table,
                           rows: np.ndarray,
                           doc_pos: np.ndarray | None = None) -> dict:
        """Arrow-native per-link processing (src/index.ts:717-798) of
        links whose ``doc_id`` is the position of their page in ``rows``
        (batch rows; ``doc_pos`` holds those positions when the caller
        has them): doc metadata joins are C-speed takes on the page
        rows, string work stays in Arrow kernels, hashing runs on the
        flat UTF-8 buffers. Python touches only user skip callables and
        each distinct seed root. Returns the candidates, link_results
        and pending_frags tables."""
        n = links.num_rows
        if n == 0:
            return {}
        if doc_pos is None:
            doc_pos = pc.cast(links["doc_id"], pa.int64()) \
                .to_numpy(zero_copy_only=False)
        # a link's parent is its page's url
        parents = links.column("parent_url").chunk(0)
        url_col = links.column("url").chunk(0)
        wfrag = links.column("url_with_fragment").chunk(0)

        # parse errors → BROKEN status 0 (src/index.ts:717-730)
        broken = urlkit.nonempty(links.column("parse_error"))
        live = ~broken
        skipped = np.zeros(n, dtype=bool)
        # fragment-full skip rule (src/index.ts:732-752)
        if self.skip:
            is_http = pc.or_(pc.starts_with(url_col, "http://"),
                             pc.starts_with(url_col, "https://")) \
                .to_numpy(zero_copy_only=False)
            skipped = live & is_http & self.skip.match_vec(wfrag)
            live &= ~skipped
        # fragment tracking (src/index.ts:754-784): the URL is still
        # checked when its fragment is skipped
        out = {}
        if self.opts.check_fragments:
            frag_col = links.column("fragment").chunk(0)
            has_frag = np.flatnonzero(live & urlkit.nonempty(frag_col))
            sel = pa.array(has_frag)
            frags, frag_urls = frag_col.take(sel), wfrag.take(sel)
            if self.frag_skip.fn is not None:
                hit = np.fromiter(
                    (bool(self.frag_skip.fn(f, u)) for f, u in
                     zip(frags.to_pylist(), frag_urls.to_pylist())),
                    bool, len(has_frag))
            else:
                hit = self.frag_skip.match_vec(frags)
            skipped[has_frag[hit]] = True
            keep = pa.array(~hit)
            out["pending_frags"] = pa.Table.from_arrays(
                [url_col.take(sel).filter(keep), frags.filter(keep)],
                schema=schema.PENDING_FRAGS)
        if (broken | skipped).any():
            sel = pa.array(np.flatnonzero(broken | skipped))
            bad = pa.array(broken).take(sel)
            out["link_results"] = pa.Table.from_arrays([
                pc.if_else(bad, links.column("raw_link").chunk(0).take(sel),
                           wfrag.take(sel)),
                pc.if_else(bad, pa.scalar(0, pa.int32()),
                           pa.scalar(None, pa.int32())),
                pc.if_else(bad, "BROKEN", "SKIPPED"),
                parents.take(sel),
            ], schema=schema.LINK_RESULTS)
        if not live.any():
            return out

        all_live = live.all()
        live_pa = None if all_live else pa.array(live)
        live_urls = url_col if all_live else url_col.filter(live_pa)
        live_page = rows[doc_pos] if all_live else rows[doc_pos[live]]
        link_hosts = self._hosts_vec(live_urls)
        # child-crawl gate (src/index.ts:786-798): url under the seed's
        # rootPath, same host unless the root pins a path
        roots = pc.dictionary_encode(batch.column("root_path").chunk(0))
        root_of = roots.indices.to_numpy(zero_copy_only=False)[live_page]
        crawl_flags = np.zeros(len(live_page), dtype=bool)
        if self.opts.recurse:
            crawl_flags = _under_roots(live_urls, roots.dictionary, root_of)
            if crawl_flags.any():
                root_strs = roots.dictionary.to_pylist()
                pins = np.array([root.find("/", root.find("://") + 3) >= 0
                                 and "://" in root for root in root_strs],
                                dtype=bool)
                loose = crawl_flags & ~pins[root_of]
                if loose.any():
                    idx = np.flatnonzero(loose)
                    root_hosts = pa.array([urlkit.host_of(r)
                                           for r in root_strs])
                    crawl_flags[idx] = pc.equal(
                        link_hosts.take(pa.array(idx)),
                        root_hosts.take(pa.array(root_of[idx]))) \
                        .to_numpy(zero_copy_only=False)

        # the edge key mixes the two URL hashes: the page's url_hash is
        # hash64 of its url, which every frontier stage keeps
        url_hash = urlkit.hash64_arrow(live_urls)
        parent_hash = batch.column("url_hash").to_numpy()[live_page]
        depth = batch.column("depth").to_numpy()[live_page] + 1
        out["candidates"] = pa.Table.from_arrays([
            live_urls,
            pa.array(url_hash, pa.uint64()),
            pa.array(urlkit.edge_key(url_hash, parent_hash), pa.uint64()),
            link_hosts,
            parents if all_live else parents.filter(live_pa),
            pa.array(depth.astype(np.int32)),
            pa.array(crawl_flags),
            roots.dictionary.take(pa.array(root_of)),
        ], schema=schema.CANDIDATES)
        return out

    @staticmethod
    def _hosts_vec(url_col: pa.Array) -> pa.Array:
        """Vectorized host-of for normalized URLs, as an Arrow column:
        one host-only RE2; rows it misses (userinfo, IPv6, odd schemes)
        fall back to the scalar helper."""
        host = pc.struct_field(pc.extract_regex(url_col, _RE_HOST), "host")
        if not host.null_count:
            return host
        misses = pc.is_null(host)
        return pc.replace_with_mask(host, misses, pa.array(
            [urlkit.host_of_normalized(u)
             for u in url_col.filter(misses).to_pylist()], pa.string()))

    def _classify_in_actor(self, fetched: pa.Table,
                           content: tuple | None = None) -> list:
        """Run M17-M20 classification + the retryErrors gate inside the
        actor: the columns CLASSIFIED adds to FETCH_RESULTS (state/
        failure/warn/retry_error/recurse). ``content`` is the rows'
        (HTML, CSS) content-type masks when the request steps hold
        them."""
        from linkinator_ray.stages import classify as classify_mod
        opts = self.opts
        verdict = classify_mod.classify_batch(fetched, opts, self.static_host,
                                              content)
        status = fetched["status"].to_numpy(zero_copy_only=False).astype(np.int64)
        attempt = fetched["attempt"].to_numpy(zero_copy_only=False).astype(np.int64)
        ra = fetched["retry_after_epoch"].to_numpy(zero_copy_only=False)
        retry_err = classify_mod.should_retry_error_mask(status, attempt, ra, opts)
        not_retrying = ~(retry_err | (ra > 0))
        return [
            pa.array(verdict["state"].tolist(), pa.string()),
            pa.array(verdict["failure"].tolist(), pa.string()),
            pa.array(verdict["warn_status"] & not_retrying),
            pa.array(verdict["warn_redirect"] & not_retrying),
            pa.array(verdict["warn_insecure"] & not_retrying),
            pa.array(retry_err),
            pa.array(verdict["should_recurse_html"]),
            pa.array(verdict["should_recurse_css"]),
        ]

    def request_log(self) -> pa.Table:
        """Every request this worker's transport sent (schema.CALLS)."""
        return self.transport.log.table()

    def call_log(self) -> list[tuple[str, str, int]]:
        return call_tuples(self.request_log())


# a classified fetch result: FETCH_RESULTS and the verdict columns
CLASSIFIED = pa.schema(list(schema.FETCH_RESULTS) + [
    ("state", pa.string()), ("failure", pa.string()),
    ("warn_status", pa.bool_()), ("warn_redirect", pa.bool_()),
    ("warn_insecure", pa.bool_()), ("retry_error", pa.bool_()),
    ("recurse_html", pa.bool_()), ("recurse_css", pa.bool_())])


class _StepState:
    """Each batch row's state while the request steps run: its current
    response (a row of the step tables) and the masks the next steps
    branch on."""

    def __init__(self, n: int):
        self.tables: list[pa.Table] = []
        self.recorded = 0                     # rows of self.tables
        self.src = np.zeros(n, dtype=np.int64)
        self.has_resp = np.zeros(n, dtype=bool)
        self.ended = np.zeros(n, dtype=bool)  # redirect skip / retry-after
        self.status = np.zeros(n, dtype=np.int64)
        self.has_body = np.zeros(n, dtype=bool)
        self.is_html = np.zeros(n, dtype=bool)
        self.is_css = np.zeros(n, dtype=bool)
        self.retry_at = np.zeros(n)           # retry_after_epoch
        self.failures: dict[int, list[str]] = {}  # thrown-request messages

    def record(self, rows: np.ndarray, t: pa.Table, forget_on_error: bool,
               check_retry: bool, now: float) -> None:
        """Take one step's responses (STEP rows for batch rows ``rows``)."""
        err = urlkit.nonempty(t["error"])
        if err.any():
            for r, msg in zip(rows[err], t["error"].filter(err).to_pylist()):
                self.failures.setdefault(int(r), []).append(msg)
        # a thrown first request leaves no response; a thrown follow-up
        # keeps the earlier one
        take = np.ones(len(rows), dtype=bool) if forget_on_error else ~err
        r = rows[take]
        self.src[r] = self.recorded + np.flatnonzero(take)
        self.recorded += t.num_rows
        self.tables.append(t)
        self.has_resp[r] = ~err[take]
        status = t["status"].to_numpy(zero_copy_only=False)
        self.status[r] = status[take]
        self.has_body[r] = urlkit.nonempty(t["body_doc_id"])[take]
        html, css = content_masks(t["content_type"], HTML_TYPES, CSS_TYPES)
        self.is_html[r] = html[take]
        self.is_css[r] = css[take]
        skipped = urlkit.nonempty(t["redirect_skipped"])
        self.ended[rows[skipped]] = True
        if check_retry:
            # 429 + parseable retry-after while retry enabled
            # (src/index.ts:1019-1032)
            wait = np.flatnonzero(~skipped & (status == 429)
                                  & urlkit.nonempty(t["retry_after"]))
            for j, raw in zip(wait, t["retry_after"].take(pa.array(wait))
                              .to_pylist()):
                epoch = parse_retry_after(raw, now)
                if epoch == epoch and epoch:  # nan → no retry
                    self.retry_at[rows[j]] = epoch
                    self.ended[rows[j]] = True

    def responses(self) -> pa.Table:
        """Each row's final response, in batch order."""
        if len(self.tables) == 1 and \
                (self.src == np.arange(len(self.src))).all():
            return self.tables[0]  # one step answered every row, in order
        return pa.concat_tables(self.tables).take(pa.array(self.src))


def _under_roots(urls: pa.Array, roots: pa.Array,
                 root_of: np.ndarray) -> np.ndarray:
    """Rows of ``urls`` that start with their own root (``roots`` at
    ``root_of``), compared on the UTF-8 buffers for every root at once:
    each row's leading bytes, as 8-byte words, masked to its root's
    length and matched against the root's words."""
    u_off, u_data = _string_buffers(urls)
    r_off, r_data = _string_buffers(roots)
    r_len = r_off[1:] - r_off[:-1]
    if not len(r_len):
        return np.zeros(len(root_of), dtype=bool)
    width = max(8, -(-int(r_len.max()) // 8) * 8)
    # each root's bytes and a byte mask of its length, zero-padded
    in_root = np.arange(width) < r_len[:, None]
    root_bytes = np.zeros(in_root.shape, dtype=np.uint8)
    root_bytes[in_root] = r_data[(r_off[:-1, None]
                                  + np.arange(width))[in_root]]
    root_words = root_bytes.view(np.uint64)
    mask_words = (in_root.astype(np.uint8) * np.uint8(0xFF)).view(np.uint64)
    # each url's first ``width`` bytes: rows of a sliding window over
    # the (padded) data buffer; bytes past a url's end belong to the
    # next url, and only matter when the url is shorter than its root
    padded = np.concatenate((u_data, np.zeros(width, dtype=np.uint8)))
    windows = np.lib.stride_tricks.as_strided(
        padded, shape=(len(u_data) + 1, width), strides=(1, 1))
    url_words = windows[u_off[:-1]].view(np.uint64)
    same = ((url_words & mask_words[root_of]) == root_words[root_of]) \
        .all(axis=1)
    return same & (u_off[1:] - u_off[:-1] >= r_len[root_of])


def _string_buffers(col: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """A string array's row offsets (int64, into the data buffer) and
    UTF-8 bytes."""
    n = len(col)
    bufs = col.buffers()
    offsets = np.frombuffer(bufs[1], dtype=np.int32, count=n + 1,
                            offset=col.offset * 4).astype(np.int64)
    data = np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None \
        else np.zeros(0, dtype=np.uint8)
    return offsets, data


# the fetch_batch result tables, by key
OUTPUT_SCHEMAS = {
    "fetched": schema.FETCH_RESULTS, "candidates": schema.CANDIDATES,
    "link_results": schema.LINK_RESULTS, "pending_frags": schema.PENDING_FRAGS,
    "frag_targets": schema.FRAGMENT_TARGETS,
}


def empty_outputs() -> dict:
    """A fetch_batch result with no rows."""
    return {k: schema.empty(s) for k, s in OUTPUT_SCHEMAS.items()}


def hash_owner(hashes, num_owners: int) -> np.ndarray:
    """``hash % K``: the owner of each u64 key (fetch worker, seen or
    edge shard, mesh node)."""
    return (np.asarray(hashes, dtype=np.uint64)
            % np.uint64(num_owners)).astype(np.int64)


def split_by_owner(data, owner: np.ndarray, num_owners: int):
    """Yield ``(owner, its rows)`` for every owner with at least one
    row. ``data`` is an Arrow table or a numpy array; rows keep their
    order within each piece (scripted sequences rely on it). The rows
    are grouped by owner with one stable sort and one take, and each
    piece is a slice of the result."""
    if len(owner) == 0:
        return
    if (owner == owner[0]).all():
        yield int(owner[0]), data  # one owner takes every row
        return
    order = np.argsort(owner, kind="stable")
    grouped = data[order] if isinstance(data, np.ndarray) \
        else data.take(pa.array(order))
    bounds = np.searchsorted(owner[order], np.arange(num_owners + 1))
    for a in range(num_owners):
        if bounds[a + 1] > bounds[a]:
            yield a, grouped[bounds[a]:bounds[a + 1]] \
                if isinstance(data, np.ndarray) \
                else grouped.slice(bounds[a], bounds[a + 1] - bounds[a])


class FetchPool:
    """Empty: every check's fetch worker lives in a ``MeshNode``
    (state/mesh.py), in-process or on Ray. The name stays because the
    benchmark's span tracer (perfbench/trace.py) wraps
    ``FetchPool.__init__`` by name; it goes with the next benchmark
    change."""

    def __init__(self):
        pass


def build_transport(blob: dict, opts: CheckOptions):
    """Reconstruct a transport from a broadcast blob (the check's data,
    no options) and the check's options. The corpus rides as the Arrow
    documents table — zero-copy through the object store (cloudpickling
    a nested-python corpus costs minutes at 10^5+ docs; Arrow ships in
    milliseconds). ``opts.transport == "http"`` builds the real stdlib
    HTTP transport instead (stages/http_transport)."""
    if opts.transport == "http":
        from linkinator_ray.stages.http_transport import HttpTransport
        # CheckOptions.timeout is milliseconds (reference --timeout unit,
        # src/cli.ts:118-119); the transport's socket knob is seconds
        return HttpTransport(timeout=(opts.timeout or 0.0) / 1000.0,
                             user_agent=opts.user_agent,
                             allow_insecure_certs=opts.allow_insecure_certs,
                             proxy=opts.proxy)
    corpus = None
    documents = blob.get("documents")
    if documents is not None:
        corpus = CorpusIndex(documents,
                             host=blob.get("corpus_host", "corpus.test"),
                             clean_urls=opts.clean_urls,
                             markdown=opts.markdown,
                             multi_host=blob.get("multi_host", False),
                             directory_listing=opts.directory_listing,
                             prebuilt=blob.get("corpus_index"))
    return MockTransport(blob.get("http_map"), corpus,
                         latency_s=blob.get("latency_s", 0.0),
                         strict=blob.get("strict", True),
                         record_calls=blob.get("record_calls", True))
