"""Fetch stage: deterministic transport + host-sticky fetch actor pool.

Re-expresses the reference's ``makeRequest`` + per-URL crawl state
machine (/root/reference/src/index.ts:1185-1286 and :344-479) as a Ray
actor pool. Each worker holds the transport (connection pool analogue),
compiled skip rules, and per-(url, method) sequence counters; the driver
routes each round's frontier to workers by ``hash(host) % K`` so one
host's requests always hit the same worker — that affinity is what makes
per-host politeness and scripted response sequences deterministic on a
cluster (SURVEY.md §4 partitioning keys).

The transport is a mock (FIXTURES.md ``http_map`` — the stand-in for
undici's MockAgent in the reference tests) backed by the corpus resolver
for on-corpus URLs. There is no network in this sandbox; a real
aiohttp/urllib transport would slot in behind the same ``request``
interface.
"""

from __future__ import annotations

import json
import time
from email.utils import parsedate_to_datetime
from urllib.parse import urljoin

import numpy as np
import pyarrow as pa

from linkinator_ray import schema, urlkit
from linkinator_ray.options import RedirectsMode
from linkinator_ray.sources.documents import CorpusIndex

REDIRECT_STATUSES = frozenset([301, 302, 303, 307, 308])
SENSITIVE_HEADERS = frozenset(["authorization", "cookie", "proxy-authorization"])
MAX_REDIRECTS = 20  # src/index.ts:1272-1275


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
        # the call log exists for conformance tests; at bench/cluster
        # scale it is an O(requests) memory+serialization cost — off
        self.record_calls = record_calls
        self.calls: list[tuple[str, str, int]] = []  # (url, method, status)
        self.header_log: list[tuple[str, str, dict]] = []  # (url, method, headers)
        self._counters: dict[tuple[str, str], int] = {}
        self._map: dict[tuple[str, str], list[dict]] = {}
        for entry in http_map or []:
            # keys are stored normalized — the engine always fetches
            # normalized fragmentless URLs
            url = urlkit.normalize_url(entry["url"], keep_fragment=False)
            key = (url, entry.get("method", "*"))
            self._map.setdefault(key, []).append(dict(entry))
        for entries in self._map.values():
            entries.sort(key=lambda e: e.get("seq", -1))

    def _match(self, url: str, method: str) -> dict | None:
        for key in ((url, method), (url, "*")):
            entries = self._map.get(key)
            if not entries:
                continue
            seq = self._counters.get(key, 0)
            self._counters[key] = seq + 1
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
        if self.latency_s:
            time.sleep(self.latency_s)
        entry = self._match(url, method)
        if entry is not None:
            if entry.get("error"):
                if self.record_calls:
                    self.calls.append((url, method, 0))
                raise TransportError(entry["error"])
            headers = json.loads(entry["headers_json"]) if entry.get("headers_json") else {}
            headers = {k.lower(): v for k, v in headers.items()}
            if entry.get("retry_after"):
                headers["retry-after"] = entry["retry_after"]
            if entry.get("content_type"):
                headers["content-type"] = entry["content_type"]
            body = entry.get("body_doc_id", "") if method == "GET" else ""
            if self.record_calls:
                self.calls.append((url, method, entry["status"]))
            return TResponse(entry["status"], headers, entry.get("content_type", ""),
                             body, url)
        if self.corpus is not None:
            res = self.corpus.resolve_url(url)
            if res is not None:
                if self.record_calls:
                    self.calls.append((url, method, res.status))
                if res.status == 301:
                    return TResponse(301, {"location": res.location}, "", "", url)
                if res.status == 200:
                    body = res.doc_id if method == "GET" else ""
                    return TResponse(200, {"content-type": res.content_type},
                                     res.content_type, body, url)
                return TResponse(res.status, {}, "", "", url)
        if self.record_calls:
            self.calls.append((url, method, 0))
        if self.strict:
            raise TransportError(f"unmocked request: {method} {url}")
        return TResponse(404, {}, "", "", url)


class SkipRules:
    """linksToSkip (src/index.ts:929-955): regex patterns or one callable.
    The fetch worker matches them per link and per redirect hop, and the
    frontier skip stage (pipelines/crawl.py) matches them per batch."""

    def __init__(self, patterns: list[str] | None = None, fn=None):
        import re
        self.patterns = [re.compile(p) for p in (patterns or [])]
        self.fn = fn
        self._vec_ok: dict[int, bool] = {}

    @classmethod
    def from_options(cls, opts) -> "SkipRules":
        rule = opts.links_to_skip
        return cls(fn=rule) if callable(rule) else cls(rule)

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
    per-hop skip rules, retry-after detection), batch in / batch out.

    Instantiated directly (local mode) or hosted by a pooled Ray actor
    (``FetchPool``, distributed mode).
    """

    def __init__(self, transport: MockTransport, *,
                 redirects: str = "allow",
                 check_css: bool = False,
                 check_fragments: bool = False,
                 retry: bool = False,
                 recurse: bool = False,
                 skip_patterns: list[str] | None = None,
                 skip_fn=None,
                 frag_skip_patterns: list[str] | None = None,
                 frag_skip_fn=None,
                 headers: dict[str, str] | None = None,
                 classify_opts=None, static_host: str | None = None,
                 connections: int = 1):
        import re
        self.transport = transport
        # per-actor concurrent connection streams (the reference's
        # `concurrency` is simultaneous connections, src/index.ts:256);
        # >1 only when no scripted sequences / politeness stickiness
        # depend on request ordering
        self.connections = max(1, connections)
        self.redirects = RedirectsMode(redirects)
        self.check_css = check_css
        self.check_fragments = check_fragments
        self.retry = retry
        self.recurse = recurse
        self.skip = SkipRules(skip_patterns, skip_fn)
        self.frag_skip_patterns = [re.compile(p) for p in (frag_skip_patterns or [])]
        self.frag_skip_fn = frag_skip_fn
        self.headers = headers or {}
        # when set, classification (M17-M20) runs inside the actor and
        # the output table carries state/failure/warn columns — keeps the
        # driver's serial round work down to the global joins
        self.classify_opts = classify_opts
        self.static_host = static_host
        # built on first use: extraction imports stages/extract lazily,
        # connection threads only exist when a batch fetches in parallel
        self._extractor = None
        self._pool = None

    def close(self) -> None:
        """Stop the connection threads (their keep-alive connections
        close with them)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- makeRequest with redirect handling (src/index.ts:1185-1286) ------

    def make_request(self, method: str, url: str) -> TResponse:
        manual = self.redirects == RedirectsMode.ERROR
        per_hop_skip = not manual and bool(self.skip)
        current = url
        headers = dict(self.headers)
        hops = 0
        while True:
            resp = self.transport.request(current, method, headers)
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

    # -- the per-URL state machine ----------------------------------------

    @staticmethod
    def _is_html(resp: TResponse) -> bool:
        ct = resp.headers.get("content-type", "")
        return "text/html" in ct or "application/xhtml+xml" in ct

    @staticmethod
    def _is_css(resp: TResponse) -> bool:
        return "text/css" in resp.headers.get("content-type", "")

    def fetch_one(self, url: str, do_crawl: bool, now: float,
                  has_pending_fragments: bool) -> dict:
        failures: list[str] = []
        response: TResponse | None = None
        out = {
            "status": 0, "final_url": "", "has_body": False, "body_doc_id": "",
            "content_type": "", "has_location": False, "retry_after_epoch": 0.0,
            "cf_mitigated": False, "redirect_skipped": "", "error_details": "",
        }

        def retry_after_of(resp: TResponse) -> float:
            # 429 + parseable retry-after while retry enabled
            # (src/index.ts:1019-1032)
            if not self.retry or resp.status != 429:
                return 0.0
            raw = resp.headers.get("retry-after", "")
            if not raw:
                return 0.0
            epoch = parse_retry_after(raw, now)
            return 0.0 if epoch != epoch else epoch  # nan → no retry

        def finish(resp: TResponse | None) -> dict:
            if resp is not None:
                out["status"] = resp.status
                out["final_url"] = resp.url
                out["has_body"] = resp.has_body
                out["body_doc_id"] = resp.body_doc_id
                out["content_type"] = resp.headers.get("content-type", "")
                out["has_location"] = "location" in resp.headers
                out["cf_mitigated"] = bool(resp.headers.get("cf-mitigated"))
            if failures:
                out["error_details"] = json.dumps(failures)
            return out

        try:
            response = self.make_request("GET" if do_crawl else "HEAD", url)
            if response.redirect_skipped:
                out["redirect_skipped"] = response.redirect_skipped
                return finish(response)
            ra = retry_after_of(response)
            if ra:
                out["retry_after_epoch"] = ra
                return finish(response)
            if response.status == 405:  # server dislikes HEAD → GET
                response = self.make_request("GET", url)
                if response.redirect_skipped:
                    out["redirect_skipped"] = response.redirect_skipped
                    return finish(response)
                ra = retry_after_of(response)
                if ra:
                    out["retry_after_epoch"] = ra
                    return finish(response)
        except TransportError as exc:
            failures.append(str(exc))
            response = None

        try:
            # last-gasp GET for non-crawl targets (src/index.ts:396-417)
            if (response is None or not (200 <= response.status < 300)) and not do_crawl:
                response = self.make_request("GET", url)
                if response.redirect_skipped:
                    out["redirect_skipped"] = response.redirect_skipped
                    return finish(response)
                ra = retry_after_of(response)
                if ra:
                    out["retry_after_epoch"] = ra
                    return finish(response)
        except TransportError as exc:
            failures.append(str(exc))

        should_recurse = False
        if response is not None:
            should_recurse = self._is_html(response) or (
                self._is_css(response) and self.check_css)

        # CSS body re-GET (src/index.ts:426-448)
        if (should_recurse and response is not None and self._is_css(response)
                and not response.has_body and do_crawl and self.check_css):
            try:
                response = self.make_request("GET", url)
                if response.redirect_skipped:
                    out["redirect_skipped"] = response.redirect_skipped
                    return finish(response)
            except TransportError as exc:
                failures.append(str(exc))

        # fragment body re-GET (src/index.ts:450-473)
        if (self.check_fragments and response is not None
                and self._is_html(response) and not response.has_body
                and has_pending_fragments):
            try:
                response = self.make_request("GET", url)
                if response.redirect_skipped:
                    out["redirect_skipped"] = response.redirect_skipped
                    return finish(response)
            except TransportError as exc:
                failures.append(str(exc))

        return finish(response)

    # -- per-link handling, actor-side (src/index.ts:717-798) -------------

    def _should_skip_fragment(self, fragment: str, url: str) -> bool:
        if self.frag_skip_fn is not None:
            return bool(self.frag_skip_fn(fragment, url))
        return any(p.search(fragment) for p in self.frag_skip_patterns)

    def _process_links(self, page_url: str, root_path: str, depth: int,
                       links: list[dict], out: "_BatchAccumulator") -> None:
        has_rules = bool(self.skip)
        root_meta = out.root_meta.get(root_path)
        if root_meta is None:
            host = urlkit.host_of(root_path)
            sep = root_path.find("://")
            pinned = sep >= 0 and root_path.find("/", sep + 3) >= 0
            root_meta = (host, pinned)
            out.root_meta[root_path] = root_meta
        root_host, root_pinned = root_meta
        for link in links:
            if link["parse_error"]:
                # unparseable → BROKEN status 0 (src/index.ts:717-730)
                out.link_results.append((link["raw_link"], 0, "BROKEN", page_url))
                continue
            url = link["url"]
            wfrag = link["url_with_fragment"] or url
            # fragment-full skip rule (src/index.ts:732-752)
            if has_rules and url.startswith(("http://", "https://")) \
                    and self.skip.should_skip(wfrag):
                out.link_results.append((wfrag, None, "SKIPPED", page_url))
                continue
            # fragment tracking (src/index.ts:754-784) — the URL is
            # still checked even when its fragment is skipped
            if self.check_fragments and link["fragment"]:
                if self._should_skip_fragment(link["fragment"], wfrag):
                    out.link_results.append((wfrag, None, "SKIPPED", page_url))
                else:
                    out.pending_frags.append((url, link["fragment"]))
            child_crawl = False
            if self.recurse and url.startswith(root_path):
                child_crawl = root_pinned or \
                    urlkit.host_of_normalized(url) == root_host
            out.cand.append((url, f"{url}|{page_url}",
                             page_url, depth + 1, child_crawl, root_path))

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
        from linkinator_ray.stages.extract import ExtractLinks, extract_css_doc_links
        if self._extractor is None:
            self._extractor = ExtractLinks(check_css=self.check_css)
        pending = set(pending_fragment_urls)
        urls = batch["url"].to_pylist()
        do_crawls = batch["do_crawl"].to_pylist()
        roots = batch["root_path"].to_pylist()
        depths = batch["depth"].to_pylist()
        corpus = self.transport.corpus
        out = _BatchAccumulator()
        if self.connections > 1 and len(urls) > 1:
            # I/O-concurrent fetching: sleeps (wire latency) overlap
            # across the thread pool; the GIL serializes the cheap
            # per-row compute. Results keep row order.
            from concurrent.futures import ThreadPoolExecutor
            if self._pool is None:
                self._pool = ThreadPoolExecutor(self.connections)
            rows = list(self._pool.map(
                lambda i: self.fetch_one(urls[i], do_crawls[i], now,
                                         urls[i] in pending),
                range(len(urls))))
            for result in rows:
                result["soft404"] = False
        else:
            rows = []
            for i, url in enumerate(urls):
                result = self.fetch_one(url, do_crawls[i], now, url in pending)
                result["soft404"] = False
                rows.append(result)
        # Split the extraction work: the common shape — corpus-backed
        # HTML doc, no fragment tracking — runs through the VECTORIZED
        # batch extractor (Arrow take + explode, no per-doc as_py());
        # css docs, directory listings, duplicate bodies and all
        # fragment-mode rows keep the scalar per-doc path.
        vec_rows: list[tuple[int, int]] = []  # (row index, corpus row)
        scalar_rows: list[int] = []
        seen_bodies: set[str] = set()
        row_of = corpus.row_of if corpus is not None else (lambda d: None)
        for i, result in enumerate(rows):
            url = urls[i]
            if result["redirect_skipped"] or result["retry_after_epoch"]:
                continue
            ct = result["content_type"]
            body = result["body_doc_id"]
            is_html = "text/html" in ct or "application/xhtml+xml" in ct
            is_css = "text/css" in ct
            eligible = bool(do_crawls[i] and body and
                            (is_html or (is_css and self.check_css)))
            need_frags = bool(self.check_fragments and body and is_html
                              and (eligible or url in pending))
            if not (eligible or need_frags):
                continue
            body_row = None if (need_frags or not is_html or is_css
                                or body in seen_bodies) else row_of(body)
            if body_row is None:
                scalar_rows.append(i)
                continue
            seen_bodies.add(body)
            vec_rows.append((i, body_row))

        for i in scalar_rows:
            result = rows[i]
            url = urls[i]
            ct = result["content_type"]
            body = result["body_doc_id"]
            is_html = "text/html" in ct or "application/xhtml+xml" in ct
            is_css = "text/css" in ct
            eligible = bool(do_crawls[i] and body and
                            (is_html or (is_css and self.check_css)))
            spans = corpus.spans_of(body) if corpus is not None else []
            base = result["final_url"] or url
            if eligible and is_css and not is_html:
                links = extract_css_doc_links(body, base, spans,
                                              self._extractor.resolver)
                frags = []
            else:
                links, frags = self._extractor.extract_doc(
                    body, base, spans, parent_url=url)
            if eligible:
                self._process_links(url, roots[i], depths[i], links, out)
            need_frags = bool(self.check_fragments and body and is_html
                              and (eligible or url in pending))
            if need_frags:
                out.frag_targets.extend((url, f) for f in frags)
                # soft-404 heuristic over the body text (src/index.ts:630-637)
                texts = [s.get("text") or "" for s in spans]
                result["soft404"] = (any("noindex" in t for t in texts)
                                     and any("nofollow" in t for t in texts))

        if vec_rows:
            self._extract_and_process_vec(vec_rows, rows, urls, roots,
                                          depths, corpus, out)
        cols = {name: [r[name] for r in rows] for name in rows[0]} if rows else {}
        carried = {name: batch[name].to_pylist() for name in
                   ("url", "url_hash", "host", "parent", "depth", "do_crawl",
                    "root_path", "attempt")}
        carried.update(cols)
        fetched = schema.table(schema.FETCH_RESULTS, **carried) if rows \
            else schema.empty(schema.FETCH_RESULTS)
        if self.classify_opts is not None and fetched.num_rows:
            fetched = self._classify_in_actor(fetched)
        return {
            "fetched": fetched,
            "candidates": out.candidates_table(),
            "link_results": out.link_results_table(),
            "pending_frags": out.pending_frags_table(),
            "frag_targets": out.frag_targets_table(),
        }

    # -- vectorized extraction + link processing (the hot crawl path) ------

    def _extract_and_process_vec(self, vec_rows, rows, urls, roots, depths,
                                 corpus, out: "_BatchAccumulator") -> None:
        """Batch extraction over the corpus Arrow table (one take + the
        vectorized span explode of stages/extract.py) and vectorized
        per-link processing — replaces the per-doc as_py() + per-link
        Python loop of the scalar path for corpus-backed HTML docs."""
        ex = self._extractor
        take = pa.array([rp for _, rp in vec_rows], pa.int64())
        spans_arr = corpus._spans_col.take(take)
        # doc_id = LOCAL position string so link rows map back to their
        # frontier row with one int() instead of a dict lookup
        doc_tbl = pa.Table.from_arrays(
            [pa.array([str(j) for j in range(len(vec_rows))], pa.string()),
             spans_arr], schema=schema.DOCUMENTS)
        bases = {str(j): (rows[i]["final_url"] or urls[i])
                 for j, (i, _) in enumerate(vec_rows)}
        saved = ex.page_urls
        ex.page_urls = bases
        try:
            links_tbl, _ = ex.extract_with_fragments(doc_tbl)
        finally:
            ex.page_urls = saved
        self._process_links_vec(links_tbl, vec_rows, urls, roots, depths, out)

    def _process_links_vec(self, links: pa.Table, vec_rows, urls, roots,
                           depths, out: "_BatchAccumulator") -> None:
        """Arrow-native per-link processing: doc metadata joins are
        C-speed takes on per-doc arrays, string work stays in Arrow
        kernels, hashing runs on the flat UTF-8 buffers. Python touches
        only the rare rows (parse errors, skip hits)."""
        import pyarrow.compute as pc
        n = links.num_rows
        if n == 0:
            return
        doc_pos = pc.cast(links["doc_id"].combine_chunks(), pa.int64())
        page_docs = pa.array([urls[i] for i, _ in vec_rows], pa.string())
        depth_docs = pa.array([depths[i] for i, _ in vec_rows], pa.int32())
        root_strs: list[str] = []
        root_index: dict[str, int] = {}
        root_ids_list = []
        for i, _ in vec_rows:
            r = roots[i]
            rid = root_index.get(r)
            if rid is None:
                rid = root_index[r] = len(root_strs)
                root_strs.append(r)
            root_ids_list.append(rid)
        root_ids_docs = pa.array(root_ids_list, pa.int64())
        root_strs_pa = pa.array(root_strs, pa.string())

        parents = page_docs.take(doc_pos)
        link_depths = depth_docs.take(doc_pos)
        link_root_ids = root_ids_docs.take(doc_pos) \
            .to_numpy(zero_copy_only=False)

        url_col = links["url"].combine_chunks()
        live = np.ones(n, dtype=bool)

        # parse errors → BROKEN status 0 (src/index.ts:717-730)
        perr = pc.not_equal(links["parse_error"].combine_chunks(), "") \
            .to_numpy(zero_copy_only=False)
        if perr.any():
            sel = pa.array(np.flatnonzero(perr))
            raws = links["raw_link"].take(sel).to_pylist()
            pars = parents.take(sel).to_pylist()
            out.link_results.extend(
                (raw, 0, "BROKEN", par) for raw, par in zip(raws, pars))
            live &= ~perr

        # fragment-full skip rule (src/index.ts:732-752)
        if self.skip:
            wfrag = links["url_with_fragment"].combine_chunks()
            is_http = pc.or_(pc.starts_with(url_col, "http://"),
                             pc.starts_with(url_col, "https://")) \
                .to_numpy(zero_copy_only=False)
            rule_hit = self.skip.match_vec(wfrag)
            skip_mask = live & is_http & rule_hit
            if skip_mask.any():
                sel = pa.array(np.flatnonzero(skip_mask))
                wf = wfrag.take(sel).to_pylist()
                pars = parents.take(sel).to_pylist()
                out.link_results.extend(
                    (w, None, "SKIPPED", par) for w, par in zip(wf, pars))
                live &= ~skip_mask
        if not live.any():
            return

        # child-crawl gate (src/index.ts:786-798): url under the seed's
        # rootPath, same host unless the root pins a path
        crawl_flags = np.zeros(n, dtype=bool)
        link_hosts = None
        if self.recurse:
            for rid, root in enumerate(root_strs):
                root_mask = live & (link_root_ids == rid)
                if not root_mask.any():
                    continue
                starts = pc.starts_with(url_col, root) \
                    .to_numpy(zero_copy_only=False)
                cand = root_mask & starts
                if not cand.any():
                    continue
                sep = root.find("://")
                pinned = sep >= 0 and root.find("/", sep + 3) >= 0
                if pinned:
                    crawl_flags |= cand
                else:
                    if link_hosts is None:
                        link_hosts = self._hosts_vec(url_col)
                    root_host = urlkit.host_of(root)
                    crawl_flags |= cand & (link_hosts == root_host)
        if link_hosts is None:
            link_hosts = self._hosts_vec(url_col)

        live_pa = pa.array(live)
        live_urls = url_col.filter(live_pa)
        live_parents = parents.filter(live_pa)
        edge_concat = pc.binary_join_element_wise(live_urls, live_parents, "|")
        out.cand_tables.append(pa.Table.from_arrays([
            live_urls,
            pa.array(urlkit.hash64_arrow(live_urls), pa.uint64()),
            pa.array(urlkit.hash64_arrow(edge_concat), pa.uint64()),
            pa.array(link_hosts[live], pa.string()),
            live_parents,
            pc.add(pc.filter(link_depths, live_pa),
                   pa.scalar(1, pa.int32())).cast(pa.int32()),
            pa.array(crawl_flags[live]),
            root_strs_pa.take(pa.array(link_root_ids[live])),
        ], schema=schema.CANDIDATES))

    _HOST_RE = r"^https?://(?P<h>[a-z0-9.-]+)(?:[/:?#]|$)"

    def _hosts_vec(self, url_col) -> np.ndarray:
        """Vectorized host-of for normalized URLs (RE2 kernel); rows the
        simple pattern misses (userinfo, IPv6, odd schemes) fall back to
        the scalar helper."""
        import pyarrow.compute as pc
        h = pc.struct_field(pc.extract_regex(url_col, self._HOST_RE), "h")
        hosts = h.to_numpy(zero_copy_only=False)
        misses = np.flatnonzero(pc.is_null(h).to_numpy(zero_copy_only=False))
        if len(misses):
            raw = url_col.take(pa.array(misses)).to_pylist()
            for pos, u in zip(misses, raw):
                hosts[pos] = urlkit.host_of_normalized(u)
        return hosts

    def _classify_in_actor(self, fetched: pa.Table) -> pa.Table:
        """Run M17-M20 classification + the retryErrors gate inside the
        actor; append state/failure/warn/retry_error columns."""
        import numpy as np
        from linkinator_ray.stages import classify as classify_mod
        opts = self.classify_opts
        verdict = classify_mod.classify_batch(fetched, opts, self.static_host)
        status = fetched["status"].to_numpy(zero_copy_only=False).astype(np.int64)
        attempt = fetched["attempt"].to_numpy(zero_copy_only=False).astype(np.int64)
        ra = fetched["retry_after_epoch"].to_numpy(zero_copy_only=False)
        retry_err = classify_mod.should_retry_error_mask(status, attempt, ra, opts)
        not_retrying = ~(retry_err | (ra > 0))
        return (fetched
                .append_column("state", pa.array(verdict["state"].tolist(), pa.string()))
                .append_column("failure", pa.array(verdict["failure"].tolist(), pa.string()))
                .append_column("warn_status",
                               pa.array(verdict["warn_status"] & not_retrying))
                .append_column("warn_redirect",
                               pa.array(verdict["warn_redirect"] & not_retrying))
                .append_column("warn_insecure",
                               pa.array(verdict["warn_insecure"] & not_retrying))
                .append_column("retry_error", pa.array(retry_err))
                .append_column("recurse_html",
                               pa.array(verdict["should_recurse_html"]))
                .append_column("recurse_css",
                               pa.array(verdict["should_recurse_css"])))

    def call_log(self) -> list[tuple[str, str, int]]:
        return list(self.transport.calls)


class _BatchAccumulator:
    """Per-fetch-batch collection of link-derived rows."""

    def __init__(self):
        self.cand: list[tuple] = []          # (url, edge_key, parent, depth, crawl, root)
        self.cand_tables: list[pa.Table] = []  # prebuilt CANDIDATES blocks
        self.link_results: list[tuple] = []  # (url, status, state, parent)
        self.pending_frags: list[tuple] = []
        self.frag_targets: list[tuple] = []
        self.root_meta: dict[str, tuple] = {}

    def candidates_table(self) -> pa.Table:
        tables = list(self.cand_tables)
        if self.cand:
            urls = [c[0] for c in self.cand]
            edge_keys = [c[1] for c in self.cand]
            tables.append(pa.Table.from_arrays([
                pa.array(urls, pa.string()),
                pa.array(urlkit.hash64_array(urls), pa.uint64()),
                pa.array(urlkit.hash64_array(edge_keys), pa.uint64()),
                pa.array([urlkit.host_of_normalized(u) for u in urls], pa.string()),
                pa.array([c[2] for c in self.cand], pa.string()),
                pa.array([c[3] for c in self.cand], pa.int32()),
                pa.array([c[4] for c in self.cand], pa.bool_()),
                pa.array([c[5] for c in self.cand], pa.string()),
            ], schema=schema.CANDIDATES))
        if not tables:
            return schema.empty(schema.CANDIDATES)
        return pa.concat_tables(tables) if len(tables) > 1 else tables[0]

    def link_results_table(self) -> pa.Table:
        if not self.link_results:
            return schema.empty(schema.LINK_RESULTS)
        return pa.Table.from_arrays([
            pa.array([r[0] for r in self.link_results], pa.string()),
            pa.array([r[1] for r in self.link_results], pa.int32()),
            pa.array([r[2] for r in self.link_results], pa.string()),
            pa.array([r[3] for r in self.link_results], pa.string()),
        ], schema=schema.LINK_RESULTS)

    def pending_frags_table(self) -> pa.Table:
        return pa.Table.from_arrays([
            pa.array([r[0] for r in self.pending_frags], pa.string()),
            pa.array([r[1] for r in self.pending_frags], pa.string()),
        ], schema=schema.PENDING_FRAGS)

    def frag_targets_table(self) -> pa.Table:
        return pa.Table.from_arrays([
            pa.array([r[0] for r in self.frag_targets], pa.string()),
            pa.array([r[1] for r in self.frag_targets], pa.string()),
        ], schema=schema.FRAGMENT_TARGETS)


def sticky_assignment(hosts: list[str], url_hash, num_actors: int, *,
                      scripted: bool = False, salt_threshold: int = 256,
                      counts: dict | None = None) -> np.ndarray:
    """``hash(host) % K`` dispatch with EXPLICIT hot-host salting (the
    north_rule's skew handling): a host whose row count exceeds
    ``salt_threshold`` is split into ``ceil(count/threshold)`` salted
    sub-keys (capped at K) by ``url_hash``, so one mega-host stops
    serializing a whole partition behind a single actor. Safe because
    politeness (429 deadlines + token bucket) gates at ADMISSION on the
    driver, not via worker affinity — the one thing that genuinely needs
    a serial per-host stream is a scripted response sequence
    (``scripted=True`` disables salting, preserving mock seq order).

    ``counts``: cumulative per-host row counts (mutated in place) for
    streaming callers that see the frontier table-by-table (pipelined
    mode); ``None`` counts within this table only (round mode, where the
    table IS the round's frontier).
    """
    if num_actors <= 1:
        return np.zeros(len(hosts), dtype=np.int64)
    base = urlkit.hash64_array(hosts)
    if not scripted and salt_threshold > 0:
        local: dict[str, int] = {}
        for h in hosts:
            local[h] = local.get(h, 0) + 1
        if counts is not None:
            for h, c in local.items():
                counts[h] = counts.get(h, 0) + c
            ref = counts
        else:
            ref = local
        ks = np.fromiter(
            (min(num_actors, -(-ref[h] // salt_threshold)) for h in hosts),
            dtype=np.uint64, count=len(hosts))
        hot = ks > 1
        if hot.any():
            uh = np.asarray(url_hash, dtype=np.uint64)
            base = base.copy()
            base[hot] += uh[hot] % ks[hot]
    return hash_owner(base, num_actors)


def hash_owner(hashes, num_owners: int) -> np.ndarray:
    """``hash % K``: the owner of each u64 key (fetch worker, seen or
    edge shard, mesh node)."""
    return (np.asarray(hashes, dtype=np.uint64)
            % np.uint64(num_owners)).astype(np.int64)


def split_by_owner(data, owner: np.ndarray, num_owners: int):
    """Yield ``(owner, its rows)`` for every owner with at least one
    row. ``data`` is an Arrow table or a numpy array; rows keep their
    order within each piece (scripted sequences rely on it)."""
    for a in range(num_owners):
        idx = np.flatnonzero(owner == a)
        if len(idx):
            yield a, data.take(idx)


class FetchPool:
    """Host-sticky pool facade.

    local mode: one in-process worker.
    ray mode: K FetchWorker actors; each round's frontier is split by
    ``hash(host) % K`` and dispatched as one Arrow batch per actor (the
    groupby('host')-shaped exchange of SURVEY.md §4, realized as explicit
    routing because politeness and scripted sequences need key affinity).
    Hot hosts are salted across actors (``sticky_assignment``) unless the
    transport is scripted.
    """

    def __init__(self, worker_kwargs: dict, transport_blob: dict,
                 use_ray: bool = False, num_actors: int = 8,
                 sticky_hosts: bool | None = None,
                 salt_threshold: int = 256):
        self.use_ray = use_ray
        self.num_actors = num_actors if use_ray else 1
        self.scripted = any(
            e.get("seq", -1) >= 0
            for e in transport_blob.get("http_map") or [])
        self.salt_threshold = salt_threshold
        if sticky_hosts is None:
            # host affinity is only semantically required when per-host
            # state matters: scripted response sequences (mock seq
            # counters) or retry/politeness token buckets. Otherwise
            # balance by url_hash so a hot host doesn't straggle a round.
            sticky_hosts = self.scripted or worker_kwargs.get("retry", False)
        self.sticky_hosts = sticky_hosts
        if sticky_hosts:
            # scripted sequences / politeness ordering require serial
            # per-host request streams
            worker_kwargs = {**worker_kwargs, "connections": 1}
        self.lease = None
        if use_ray:
            import ray

            from linkinator_ray.state import actors
            blob_ref = ray.put(transport_blob)
            self.lease = actors.Lease(
                new_fetch_worker,
                [(blob_ref, worker_kwargs)] * self.num_actors)
        else:
            self._worker = new_fetch_worker(transport_blob, worker_kwargs)

    EMPTY_KEYS = {
        "fetched": "FETCH_RESULTS", "candidates": "CANDIDATES",
        "link_results": "LINK_RESULTS", "pending_frags": "PENDING_FRAGS",
        "frag_targets": "FRAGMENT_TARGETS",
    }

    def _empty(self) -> dict:
        return {k: schema.empty(getattr(schema, s))
                for k, s in self.EMPTY_KEYS.items()}

    def owners(self, frontier: pa.Table, counts: dict | None = None) -> np.ndarray:
        """The worker index of every frontier row: host-sticky (hot
        hosts salted, ``sticky_assignment``) or balanced by url_hash.
        ``counts`` carries per-host totals across calls (pipelined)."""
        url_hash = frontier["url_hash"].to_numpy(zero_copy_only=False)
        if self.sticky_hosts:
            return sticky_assignment(
                frontier["host"].to_pylist(), url_hash, self.num_actors,
                scripted=self.scripted, salt_threshold=self.salt_threshold,
                counts=counts)
        return hash_owner(url_hash, self.num_actors)

    def submit(self, actor_index: int, batch: pa.Table,
               pending_fragment_urls: list[str], now: float):
        """Async dispatch of one batch to one actor (pipelined mode)."""
        return self.lease.wait()[actor_index].fetch_batch.remote(
            batch, pending_fragment_urls, now)

    def fetch(self, frontier: pa.Table, pending_fragment_urls: set[str],
              now: float) -> dict:
        if frontier.num_rows == 0:
            return self._empty()
        pending = [u for u in pending_fragment_urls]
        if not self.use_ray:
            return self._worker.fetch_batch(frontier, pending, now)
        import ray
        workers = self.lease.wait()
        outputs = ray.get([
            workers[a].fetch_batch.remote(piece, pending, now)
            for a, piece in split_by_owner(frontier, self.owners(frontier),
                                           self.num_actors)])
        if not outputs:
            return self._empty()
        # per-round tables stay chunked (≤ K chunks — no pathology);
        # only the cross-round frontier concat compacts
        return {key: pa.concat_tables([o[key] for o in outputs])
                for key in self.EMPTY_KEYS}

    def call_log(self) -> list[tuple[str, str, int]]:
        if self.use_ray:
            import ray
            logs = ray.get([a.call_log.remote() for a in self.lease.wait()])
            return [c for log in logs for c in log]
        return self._worker.call_log()


def new_fetch_worker(transport_blob: dict, worker_kwargs: dict) -> FetchWorker:
    """A fresh worker over the transport rebuilt from the broadcast
    blob: once per lease on a pooled actor, once per check in local
    mode."""
    return FetchWorker(build_transport(transport_blob), **worker_kwargs)


def build_transport(blob: dict):
    """Reconstruct a transport from a broadcast blob. The corpus
    rides as the Arrow documents table — zero-copy through the object
    store (cloudpickling a nested-python corpus costs minutes at 10^5+
    docs; Arrow ships in milliseconds). ``blob["transport"] == "http"``
    builds the real stdlib HTTP transport instead (stages/http_transport)."""
    if blob.get("transport") == "http":
        from linkinator_ray.stages.http_transport import HttpTransport
        # CheckOptions.timeout is milliseconds (reference --timeout unit,
        # src/cli.ts:118-119); the transport's socket knob is seconds
        return HttpTransport(timeout=(blob.get("timeout", 0.0) or 0.0) / 1000.0,
                             user_agent=blob.get("user_agent", ""),
                             allow_insecure_certs=blob.get(
                                 "allow_insecure_certs", False),
                             proxy=blob.get("proxy"))
    corpus = None
    documents = blob.get("documents")
    if documents is not None:
        corpus = CorpusIndex(documents,
                             host=blob.get("corpus_host", "corpus.test"),
                             clean_urls=blob.get("clean_urls", False),
                             markdown=blob.get("markdown", False),
                             multi_host=blob.get("multi_host", False),
                             directory_listing=blob.get("directory_listing", False),
                             prebuilt=blob.get("corpus_index"))
    return MockTransport(blob.get("http_map"), corpus,
                         latency_s=blob.get("latency_s", 0.0),
                         strict=blob.get("strict", True),
                         record_calls=blob.get("record_calls", True))
