"""Real HTTP transport behind the ``transport.request`` interface.

The reference fetches with undici agents (/root/reference/src/index.ts:
17-78) and an AbortSignal timeout (:1214-1216). This transport is the
Python analogue on the stdlib only (no third-party HTTP deps in this
container): per-worker keep-alive connections via ``http.client``,
socket-level timeout enforcement, single-hop semantics (the engine's
``make_request`` loop owns redirect following and per-hop header
stripping — stages/fetch.py).

Fetched HTML/CSS bodies are parsed into the engine's span model
(stages/htmlparse.html_to_spans) and held in a ``LiveBodyStore`` that
serves them through ``spans_of``, like the CorpusIndex body side, so
extraction and fragment logic run unchanged: the fetch worker converts
the span lists of a batch's live bodies to Arrow and extracts them in
the same batch call as corpus bodies. It sends this transport's requests
one per row over its connection threads (``FetchWorker._request_rows``).

The sandbox has no outbound network; the integration test drives this
against a loopback ``http.server`` (tests/test_http_transport.py).
"""

from __future__ import annotations

import ssl
import threading
from urllib.parse import urlsplit

from linkinator_ray.stages.classify import HTML_TYPES
from linkinator_ray.stages.fetch import (CallLog, TransportError, TResponse,
                                         call_tuples)


class LiveBodyStore:
    """Span store for live-fetched bodies — the CorpusIndex stand-in."""

    LISTING_PREFIX = "\x00listing:"

    def __init__(self, max_docs: int = 100_000):
        self._spans: dict[str, list] = {}
        self.max_docs = max_docs

    def put(self, doc_id: str, spans: list) -> None:
        if len(self._spans) >= self.max_docs:
            # bodies are read once right after the fetch; a bounded
            # store only evicts long-consumed entries
            self._spans.pop(next(iter(self._spans)))
        self._spans[doc_id] = spans

    def spans_of(self, doc_id: str) -> list:
        return self._spans.get(doc_id, [])


def proxy_url_from_env() -> str | None:
    """Reference precedence (src/index.ts:37-44):
    https_proxy > HTTPS_PROXY > http_proxy > HTTP_PROXY."""
    import os
    for name in ("https_proxy", "HTTPS_PROXY", "http_proxy", "HTTP_PROXY"):
        val = os.environ.get(name)
        if val:
            return val
    return None


def no_proxy_hosts() -> list[str]:
    import os
    raw = os.environ.get("no_proxy") or os.environ.get("NO_PROXY") or ""
    return [h.strip() for h in raw.split(",") if h.strip()]


def _matches_no_proxy(host: str, entries: list[str]) -> bool:
    host = host.lower()
    for entry in entries:
        e = entry.lower().lstrip(".")
        if host == e or host.endswith("." + e):
            return True
    return False


class HttpTransport:
    """Single-hop HTTP(S) over stdlib ``http.client`` with keep-alive
    per (scheme, host, port), timeout, optional insecure TLS, and
    HTTP(S) proxy support (explicit or env, reference src/index.ts:17-62).

    Proxying tunnels ALL traffic via HTTP CONNECT — the reference's
    undici EnvHttpProxyAgent does the same even for plain-http targets
    (test/test.proxy.ts:41-43). no_proxy / NO_PROXY host entries bypass
    the proxy."""

    def __init__(self, timeout: float = 0.0, user_agent: str = "",
                 allow_insecure_certs: bool = False,
                 max_body_bytes: int = 8 << 20,
                 proxy: str | None = None):
        # seconds; 0 = genuinely no timeout (http.client blocks), matching
        # the reference default (src/cli.ts:118-119, src/index.ts:1214-1216)
        self.timeout = timeout if timeout and timeout > 0 else None
        self.user_agent = user_agent
        self.allow_insecure_certs = allow_insecure_certs
        self.max_body_bytes = max_body_bytes
        # explicit option wins; else the well-known env vars
        self.proxy = proxy or proxy_url_from_env()
        self.no_proxy = no_proxy_hosts()
        self.corpus = LiveBodyStore()
        # http.client connections are NOT thread-safe; the fetch worker
        # runs `connections` parallel streams over one transport, so
        # keep-alive connections are cached PER THREAD
        self._local = threading.local()
        self._lock = threading.Lock()
        self._seq = 0
        self.log = CallLog()
        # a live server runs no scripted sequences (MockTransport's
        # counters); checkpoints save and restore this empty dict
        self.seq_counters: dict[tuple[str, str], int] = {}

    @property
    def calls(self) -> list[tuple[str, str, int]]:
        """The request log as (url, method, status) tuples."""
        return call_tuples(self.log.table())

    def _use_proxy(self, host: str) -> bool:
        return bool(self.proxy) and not _matches_no_proxy(host, self.no_proxy)

    def _conn_map(self) -> dict:
        m = getattr(self._local, "conns", None)
        if m is None:
            m = self._local.conns = {}
        return m

    def _connection(self, scheme: str, host: str, port: int | None):
        import http.client
        key = (scheme, host, port)
        conn = self._conn_map().get(key)
        if conn is not None:
            return conn
        ctx = None
        if scheme == "https":
            ctx = ssl.create_default_context()
            if self.allow_insecure_certs:
                ctx.check_hostname = False
                ctx.verify_mode = ssl.CERT_NONE
        if self._use_proxy(host):
            pp = urlsplit(self.proxy)
            proxy_host = pp.hostname or ""
            proxy_port = pp.port or 80
            if scheme == "https":
                conn = http.client.HTTPSConnection(
                    proxy_host, proxy_port, timeout=self.timeout,
                    context=ctx)
            else:
                conn = http.client.HTTPConnection(
                    proxy_host, proxy_port, timeout=self.timeout)
            # CONNECT tunnel to the target (default port by scheme)
            conn.set_tunnel(host, port or (443 if scheme == "https" else 80))
        elif scheme == "https":
            conn = http.client.HTTPSConnection(
                host, port, timeout=self.timeout, context=ctx)
        else:
            conn = http.client.HTTPConnection(
                host, port, timeout=self.timeout)
        self._conn_map()[key] = conn
        return conn

    def request(self, url: str, method: str,
                headers: dict[str, str] | None = None) -> TResponse:
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https"):
            raise TransportError(f"unsupported scheme: {url}")
        host = parts.hostname or ""
        path = parts.path or "/"
        if parts.query:
            path += "?" + parts.query
        send_headers = dict(headers or {})
        if self.user_agent and "User-Agent" not in send_headers:
            send_headers["User-Agent"] = self.user_agent
        conn = self._connection(parts.scheme, host, parts.port)
        try:
            try:
                conn.request(method, path, headers=send_headers)
                resp = conn.getresponse()
            except (ConnectionError, ssl.SSLError, OSError):
                # stale keep-alive or first-connect failure: one retry
                # on a fresh connection, then surface the error
                self._drop(parts.scheme, host, parts.port)
                conn = self._connection(parts.scheme, host, parts.port)
                conn.request(method, path, headers=send_headers)
                resp = conn.getresponse()
            resp_headers = {k.lower(): v for k, v in resp.getheaders()}
            ct = resp_headers.get("content-type", "")
            body_doc_id = ""
            is_html = any(t in ct for t in HTML_TYPES)
            is_css = "text/css" in ct
            if method == "GET" and (is_html or is_css):
                raw = resp.read(self.max_body_bytes)
                text = raw.decode(_charset_of(ct), errors="replace")
                spans = self._parse(text, is_css)
                with self._lock:
                    self._seq += 1
                    seq = self._seq
                body_doc_id = f"\x00live:{seq}:{url}"
                self.corpus.put(body_doc_id, spans)
            else:
                resp.read()  # drain for keep-alive
            self.log.append(url, method, resp.status)
            return TResponse(resp.status, resp_headers, ct, body_doc_id, url)
        except TimeoutError as exc:
            self._drop(parts.scheme, host, parts.port)
            # timed-out requests must appear in the call log like any
            # other transport error (status 0) or retry/conformance
            # assertions undercount them
            self.log.append(url, method, 0)
            raise TransportError(f"request timeout: {url}") from exc
        except OSError as exc:
            self._drop(parts.scheme, host, parts.port)
            self.log.append(url, method, 0)
            raise TransportError(str(exc)) from exc

    @staticmethod
    def _parse(text: str, is_css: bool) -> list:
        if is_css:
            return [{"kind": "style_url", "text": text, "media_ref": "",
                     "offset": 0}]
        from linkinator_ray.stages.htmlparse import html_to_spans
        return html_to_spans(text)

    def _drop(self, scheme: str, host: str, port: int | None) -> None:
        conn = self._conn_map().pop((scheme, host, port), None)
        if conn is not None:
            try:
                conn.close()
            except Exception:
                pass


def _charset_of(content_type: str) -> str:
    for part in content_type.split(";")[1:]:
        part = part.strip()
        if part.lower().startswith("charset="):
            return part[8:].strip("\"'") or "utf-8"
    return "utf-8"
