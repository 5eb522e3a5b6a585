"""Redirect handling matrix (reference: test/test.redirects.ts)."""

from linkinator_ray.options import CheckOptions
from linkinator_ray.pipelines.crawl import LinkChecker
from linkinator_ray.sources import fixtures as fx


def run(fixture, **extra):
    opts = dict(fixture.options)
    opts.update(extra)
    checker = LinkChecker(CheckOptions(paths=fixture.seeds, **opts),
                          fixture.documents, fixture.http_map)
    return checker.check()


def state_of(res, url):
    rows = [r for r in res.results.to_pylist() if r["url"] == url]
    assert rows, (url, res.results.to_pylist())
    return rows[0]


def test_allow_mode_follows():
    res = run(fx.redirects("allow"))
    assert res.passed
    assert state_of(res, "http://r.invalid/hop1")["state"] == "OK"
    # non-standard 3xx with body → OK in allow mode
    assert state_of(res, "http://r.invalid/nonstandard")["state"] == "OK"


def test_warn_mode_follows_and_counts():
    res = run(fx.redirects("warn"))
    assert res.passed
    assert res.stats["warn_redirect"] >= 1


def test_error_mode_breaks_redirects():
    res = run(fx.redirects("error"))
    assert not res.passed
    assert state_of(res, "http://r.invalid/hop1")["state"] == "BROKEN"
    assert "Redirect" in state_of(res, "http://r.invalid/hop1")["failure_details"]


def test_chain_within_limit():
    res = run(fx.redirect_chain(5))
    assert res.passed
    assert state_of(res, "http://chain.invalid/0")["state"] == "OK"


def test_chain_over_limit_broken():
    """21 hops exceeds the 20-redirect cap (src/index.ts:1272-1275)."""
    res = run(fx.redirect_chain(25))
    assert not res.passed
    row = state_of(res, "http://chain.invalid/0")
    assert row["state"] == "BROKEN"
    assert "redirect count exceeded" in row["failure_details"]


def test_redirect_into_skip_rule():
    """Per-hop skip evaluation during follow (src/index.ts:1266-1270):
    a redirect target matching a skip rule → SKIPPED."""
    fixture = fx.Fixture(
        "redirskip",
        fx.docs_table(fx.doc("rs/index.html",
                             fx._anchor("http://r.invalid/start"))),
        [fx.http("http://r.invalid/start", 302,
                 headers={"location": "http://forbidden.invalid/x"})],
        ["rs/index.html"],
        {"links_to_skip": ["forbidden"]})
    res = run(fixture)
    assert res.passed
    assert state_of(res, "http://r.invalid/start")["state"] == "SKIPPED"


def test_dir_redirect_on_corpus():
    """Extension-less directory path → 301 → index.html (server.ts:85-117)."""
    fixture = fx.Fixture(
        "dirredir",
        fx.docs_table(
            fx.doc("dr/index.html", fx._anchor("/dr/sub")),
            fx.doc("dr/sub/index.html", fx.span("text", "", "hello")),
        ),
        [], ["dr/"], {"recurse": True})
    res = run(fixture)
    assert res.passed
    row = state_of(res, "http://corpus.test/dr/sub")
    assert row["state"] == "OK"


def test_require_https_error():
    fixture = fx.basic()  # external http link
    res = run(fixture, require_https="error")
    row = state_of(res, "http://example.invalid/")
    assert row["state"] == "BROKEN"
    assert "HTTPS is required" in row["failure_details"]
    # the corpus host itself is exempt (local static server analogue)
    assert state_of(res, "http://corpus.test/basic/index.html")["state"] == "OK"


def test_require_https_warn():
    res = run(fx.basic(), require_https="warn")
    assert res.passed
    assert res.stats["warn_insecure"] == 1


def test_redirect_cycle_hits_hop_limit():
    """A→B→A redirect cycle must terminate at the 20-hop cap, not hang."""
    fixture = fx.Fixture(
        "cycle",
        fx.docs_table(fx.doc("cyc/index.html",
                             fx._anchor("http://loop.invalid/a"))),
        [
            fx.http("http://loop.invalid/a", 302,
                    headers={"location": "http://loop.invalid/b"}),
            fx.http("http://loop.invalid/b", 302,
                    headers={"location": "http://loop.invalid/a"}),
        ],
        ["cyc/index.html"], {})
    res = run(fixture)
    assert not res.passed
    row = state_of(res, "http://loop.invalid/a")
    assert row["state"] == "BROKEN"
    assert "redirect count exceeded" in row["failure_details"]


def test_headers_reach_transport_and_strip_cross_host():
    """CheckOptions.headers flow through to the transport per hop, and
    sensitive headers drop on cross-host redirects (stripSensitiveHeaders,
    src/index.ts:1234-1247)."""
    from linkinator_ray.stages.fetch import FetchWorker, MockTransport
    transport = MockTransport([
        fx.http("http://a.invalid/start", 302,
                headers={"location": "http://b.invalid/land"}),
        fx.http("http://b.invalid/land", 200),
    ])
    worker = FetchWorker(transport, CheckOptions(headers={
        "Authorization": "Bearer tok", "X-Custom": "yes"}))
    resp = worker.make_request("HEAD", "http://a.invalid/start")
    assert resp.status == 200
    by_url = {u: h for (u, m, h) in transport.header_log}
    assert by_url["http://a.invalid/start"] == {
        "Authorization": "Bearer tok", "X-Custom": "yes"}
    # cross-host hop: Authorization stripped, custom header kept
    assert by_url["http://b.invalid/land"] == {"X-Custom": "yes"}


def test_headers_kept_same_host():
    from linkinator_ray.stages.fetch import FetchWorker, MockTransport
    transport = MockTransport([
        fx.http("http://a.invalid/start", 302,
                headers={"location": "http://a.invalid/land"}),
        fx.http("http://a.invalid/land", 200),
    ])
    worker = FetchWorker(transport,
                         CheckOptions(headers={"Authorization": "Bearer tok"}))
    worker.make_request("HEAD", "http://a.invalid/start")
    by_url = {u: h for (u, m, h) in transport.header_log}
    assert by_url["http://a.invalid/land"] == {"Authorization": "Bearer tok"}
