"""Real-HTTP transport integration: a loopback http.server exercises
redirects, 404s, HEAD→GET fallbacks, timeouts and body extraction on
the wire (reference behavior: undici agents src/index.ts:17-78, abort
timeout :1214-1216)."""

import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from linkinator_ray.options import CheckOptions
from linkinator_ray.pipelines.crawl import LinkChecker
from linkinator_ray.stages.fetch import TransportError
from linkinator_ray.stages.http_transport import HttpTransport

SITE = {
    "/": "<html><body><a href='/a.html'>a</a>"
         "<a href='/redir'>r</a><a href='/missing'>m</a></body></html>",
    "/a.html": "<html><body><a href='/'>home</a>"
               "<img src='/img.png'></body></html>",
    "/target.html": "<html><body>end</body></html>",
}


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, *args):  # quiet
        pass

    def _respond(self, include_body: bool):
        path = self.path
        if path == "/redir":
            self.send_response(302)
            self.send_header("Location", "/target.html")
            self.end_headers()
            return
        if path == "/img.png":
            self.send_response(200)
            self.send_header("Content-Type", "image/png")
            self.send_header("Content-Length", "4")
            self.end_headers()
            if include_body:
                self.wfile.write(b"PNG!")
            return
        if path == "/slow":
            time.sleep(2.0)
            self.send_response(200)
            self.end_headers()
            return
        body = SITE.get(path)
        if body is None:
            self.send_response(404)
            self.end_headers()
            return
        data = body.encode()
        self.send_response(200)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        if include_body:
            self.wfile.write(data)

    def do_GET(self):
        self._respond(True)

    def do_HEAD(self):
        self._respond(False)


@pytest.fixture(scope="module")
def server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()


def test_transport_basic(server):
    t = HttpTransport(timeout=5)
    resp = t.request(f"{server}/", "GET")
    assert resp.status == 200
    assert resp.has_body
    spans = t.corpus.spans_of(resp.body_doc_id)
    refs = [s["media_ref"] for s in spans if s["kind"] == "anchor"]
    assert refs == ["/a.html", "/redir", "/missing"]


def test_transport_single_hop_redirect(server):
    t = HttpTransport(timeout=5)
    resp = t.request(f"{server}/redir", "HEAD")
    assert resp.status == 302
    assert resp.headers["location"] == "/target.html"


def test_transport_timeout(server):
    t = HttpTransport(timeout=0.3)
    with pytest.raises(TransportError):
        t.request(f"{server}/slow", "GET")
    # timed-out requests land in the call log like any other error
    assert t.calls[-1] == (f"{server}/slow", "GET", 0)


def test_transport_zero_timeout_means_unlimited():
    # reference parity: timeout 0 = no timeout (src/cli.ts:118-119)
    assert HttpTransport(timeout=0).timeout is None
    assert HttpTransport(timeout=2.5).timeout == 2.5


# ---------------------------------------------------------------------------
# proxy (reference src/index.ts:17-62, test/test.proxy.ts): requests
# tunnel via HTTP CONNECT even for plain-http targets; env precedence
# https_proxy > HTTPS_PROXY > http_proxy > HTTP_PROXY; no_proxy bypass
# ---------------------------------------------------------------------------

import socket


class _ConnectProxy:
    """Minimal CONNECT-tunneling proxy: records each tunneled host:port,
    answers 200, splices sockets (the python analogue of the reference's
    proxy fixture, test/test.proxy.ts:41-57)."""

    def __init__(self):
        self.proxied_hosts = []
        self._srv = socket.create_server(("127.0.0.1", 0))
        self.port = self._srv.getsockname()[1]
        self._alive = True
        threading.Thread(target=self._accept_loop, daemon=True).start()

    def _accept_loop(self):
        while self._alive:
            try:
                client, _ = self._srv.accept()
            except OSError:
                return
            threading.Thread(target=self._handle, args=(client,),
                             daemon=True).start()

    def _handle(self, client):
        try:
            head = b""
            while b"\r\n\r\n" not in head:
                chunk = client.recv(4096)
                if not chunk:
                    client.close()
                    return
                head += chunk
            first = head.split(b"\r\n", 1)[0].decode()
            method, target, _ = first.split(" ", 2)
            if method != "CONNECT":
                client.sendall(b"HTTP/1.1 400 Bad Request\r\n\r\n")
                client.close()
                return
            self.proxied_hosts.append(target)
            host, port = target.rsplit(":", 1)
            upstream = socket.create_connection((host, int(port)))
            client.sendall(b"HTTP/1.1 200 Connection Established\r\n\r\n")

            def pipe(a, b):
                try:
                    while True:
                        data = a.recv(8192)
                        if not data:
                            break
                        b.sendall(data)
                except OSError:
                    pass
                finally:
                    try:
                        b.shutdown(socket.SHUT_WR)
                    except OSError:
                        pass

            t = threading.Thread(target=pipe, args=(upstream, client),
                                 daemon=True)
            t.start()
            pipe(client, upstream)
            t.join(timeout=5)
            client.close()
            upstream.close()
        except Exception:
            try:
                client.close()
            except OSError:
                pass

    def close(self):
        self._alive = False
        self._srv.close()


@pytest.fixture()
def proxy():
    p = _ConnectProxy()
    yield p
    p.close()


def test_proxy_routes_requests(server, proxy, monkeypatch):
    for name in ("http_proxy", "HTTP_PROXY", "https_proxy", "HTTPS_PROXY",
                 "no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("http_proxy", f"http://127.0.0.1:{proxy.port}")
    t = HttpTransport(timeout=5)
    resp = t.request(f"{server}/a.html", "GET")
    assert resp.status == 200
    assert proxy.proxied_hosts, "request should have tunneled via CONNECT"
    host_port = server.split("//")[1]
    assert proxy.proxied_hosts[0] == host_port


def test_proxy_explicit_option_beats_env(server, proxy, monkeypatch):
    for name in ("http_proxy", "HTTP_PROXY", "https_proxy", "HTTPS_PROXY",
                 "no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    t = HttpTransport(timeout=5, proxy=f"http://127.0.0.1:{proxy.port}")
    resp = t.request(f"{server}/a.html", "HEAD")
    assert resp.status == 200
    assert proxy.proxied_hosts


def test_proxy_env_precedence(monkeypatch):
    for name in ("http_proxy", "HTTP_PROXY", "https_proxy", "HTTPS_PROXY"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("HTTP_PROXY", "http://low:1")
    monkeypatch.setenv("https_proxy", "http://high:2")
    # https_proxy > HTTPS_PROXY > http_proxy > HTTP_PROXY (src/index.ts:37-44)
    assert HttpTransport().proxy == "http://high:2"


def test_no_proxy_bypass(server, proxy, monkeypatch):
    for name in ("https_proxy", "HTTPS_PROXY", "http_proxy"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{proxy.port}")
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    t = HttpTransport(timeout=5)
    resp = t.request(f"{server}/a.html", "HEAD")
    assert resp.status == 200
    assert proxy.proxied_hosts == []


def test_no_proxy_nonmatching_still_proxies(server, proxy, monkeypatch):
    for name in ("https_proxy", "HTTPS_PROXY", "http_proxy"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{proxy.port}")
    monkeypatch.setenv("NO_PROXY", "example.com")
    t = HttpTransport(timeout=5)
    resp = t.request(f"{server}/a.html", "HEAD")
    assert resp.status == 200
    assert proxy.proxied_hosts


def test_proxied_crawl_over_the_wire(server, proxy, monkeypatch):
    """Full engine crawl with every request tunneled through the proxy
    (CheckOptions.proxy plumbed through the broadcast transport blob)."""
    for name in ("http_proxy", "HTTP_PROXY", "https_proxy", "HTTPS_PROXY",
                 "no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    opts = CheckOptions(paths=[f"{server}/"], recurse=True,
                        transport="http", timeout=5000,
                        proxy=f"http://127.0.0.1:{proxy.port}")
    result = LinkChecker(opts, use_ray=False).check()
    assert not result.passed  # /missing is 404, as in the direct crawl
    assert proxy.proxied_hosts


def test_crawl_over_the_wire(server):
    """Full engine crawl against the loopback site: recursion, redirect
    following, 404 detection, non-HTML leaf checks."""
    # CheckOptions.timeout is milliseconds (reference --timeout unit)
    opts = CheckOptions(paths=[f"{server}/"], recurse=True,
                        transport="http", timeout=5000)
    result = LinkChecker(opts, use_ray=False).check()
    rows = {r["url"]: r for r in result.results.to_pylist()}
    assert not result.passed
    assert rows[f"{server}/missing"]["state"] == "BROKEN"
    assert rows[f"{server}/missing"]["status"] == 404
    assert rows[f"{server}/a.html"]["state"] == "OK"
    assert rows[f"{server}/img.png"]["state"] == "OK"
    # the redirect hop resolved to the target and came back OK
    assert rows[f"{server}/redir"]["state"] == "OK"
    assert result.stats["seen_urls"] >= 5


class _ConcurrencyTracker(BaseHTTPRequestHandler):
    """Loopback server that records max simultaneous in-flight requests
    (mirrors the reference's test/test.concurrency.ts probe)."""
    lock = threading.Lock()
    in_flight = 0
    max_in_flight = 0

    def log_message(self, *args):
        pass

    @classmethod
    def reset(cls):
        with cls.lock:
            cls.in_flight = 0
            cls.max_in_flight = 0

    def _respond(self, include_body: bool):
        cls = _ConcurrencyTracker
        with cls.lock:
            cls.in_flight += 1
            cls.max_in_flight = max(cls.max_in_flight, cls.in_flight)
        try:
            if self.path.startswith("/slow"):
                time.sleep(0.25)
                self.send_response(200)
                self.send_header("Content-Type", "text/plain")
                self.send_header("Content-Length", "2")
                self.end_headers()
                if include_body:
                    self.wfile.write(b"ok")
                return
            links = "".join(f'<a href="/slow{i}">s{i}</a>' for i in range(8))
            data = f"<html><body>{links}</body></html>".encode()
            self.send_response(200)
            self.send_header("Content-Type", "text/html")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            if include_body:
                self.wfile.write(data)
        finally:
            with cls.lock:
                cls.in_flight -= 1

    def do_GET(self):
        self._respond(True)

    def do_HEAD(self):
        self._respond(False)


@pytest.fixture()
def tracking_server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _ConcurrencyTracker)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    _ConcurrencyTracker.reset()
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()


def test_concurrency_limit_end_to_end(tracking_server):
    """`concurrency` caps simultaneous HTTP requests over the real wire
    (reference test/test.concurrency.ts 'limits concurrent HTTP
    requests end to end')."""
    opts = CheckOptions(paths=[f"{tracking_server}/"], recurse=True,
                        transport="http", timeout=5000,
                        concurrency=2, fetch_concurrency=1)
    result = LinkChecker(opts, use_ray=False).check()
    assert result.passed
    assert result.stats["urls_checked"] >= 9
    assert _ConcurrencyTracker.max_in_flight <= 2


def test_concurrency_actually_parallel(tracking_server):
    """A generous concurrency budget runs the slow links in parallel —
    the connection pool is real, not a serial loop with a cap."""
    opts = CheckOptions(paths=[f"{tracking_server}/"], recurse=True,
                        transport="http", timeout=5000,
                        concurrency=16, fetch_concurrency=1)
    t0 = time.time()
    result = LinkChecker(opts, use_ray=False).check()
    elapsed = time.time() - t0
    assert result.passed
    assert _ConcurrencyTracker.max_in_flight >= 3
    # 8 slow links x 0.25s serial would be >= 2s even before crawl
    # overhead; the in-flight counter above is the deterministic proof,
    # the wall-clock bound just guards against a fully-serial regression
    # (kept loose for VM noise)
    assert elapsed < 2.4, elapsed


class _RateLimited(BaseHTTPRequestHandler):
    """Answers the first request for ``/limited`` with 429 and
    ``Retry-After: 1``, every later one with 200, and stamps each."""
    stamps: list[float] = []

    def log_message(self, *args):
        pass

    def _respond(self):
        type(self).stamps.append(time.monotonic())
        self.send_response(429 if len(self.stamps) == 1 else 200)
        if len(self.stamps) == 1:
            self.send_header("Retry-After", "1")
        self.send_header("Content-Length", "0")
        self.end_headers()

    do_GET = do_HEAD = _respond


def test_retry_after_waits_in_wall_time():
    """A Ray-free check over real HTTP (the CLI's check) waits out a
    Retry-After on the wall clock before it sends the retry."""
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _RateLimited)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    try:
        url = f"http://127.0.0.1:{httpd.server_address[1]}/limited"
        opts = CheckOptions(paths=[url], transport="http", retry=True,
                            timeout=5000)
        result = LinkChecker(opts, use_ray=False).check()
    finally:
        httpd.shutdown()
    stamps = _RateLimited.stamps
    assert result.passed and result.stats["retries"] == 1
    assert len(stamps) == 2 and stamps[1] - stamps[0] >= 1.0, stamps
