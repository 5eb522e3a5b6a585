"""Politeness: robots.txt gating + per-host token-bucket stagger."""

import numpy as np

from linkinator_ray.options import CheckOptions
from linkinator_ray.pipelines.crawl import LinkChecker
from linkinator_ray.sources import fixtures as fx
from linkinator_ray.state.clock import FakeClock
from linkinator_ray.state.robots import RobotsCache, parse_robots


class TestRobotsParsing:
    def test_basic_disallow(self):
        rules = parse_robots(
            "User-agent: *\nDisallow: /private/\nDisallow: /tmp\n")
        assert ("/private/", False) in rules
        assert ("/tmp", False) in rules

    def test_other_agent_ignored(self):
        rules = parse_robots("User-agent: badbot\nDisallow: /\n")
        assert rules == []

    def test_allow_longest_wins(self):
        cache = RobotsCache({"h.test": sorted(
            [("/private/", False), ("/private/ok/", True)],
            key=lambda t: -len(t[0]))})
        assert not cache.allowed("http://h.test/private/x.html")
        assert cache.allowed("http://h.test/private/ok/x.html")
        assert cache.allowed("http://h.test/public/x.html")

    def test_robots_txt_itself_allowed(self):
        cache = RobotsCache({"h.test": [("/", False)]})
        assert cache.allowed("http://h.test/robots.txt")


def test_crawl_respects_robots():
    fixture = fx.Fixture(
        "robots",
        fx.docs_table(
            fx.doc("index.html",
                   fx._anchor("/public/a.html"),
                   fx._anchor("/private/b.html")),
            fx.doc("public/a.html", fx.span("text", "", "ok")),
            fx.doc("private/b.html", fx.span("text", "", "secret")),
            fx.doc("robots.txt",
                   fx.span("text", "", "User-agent: *\nDisallow: /private/\n")),
        ),
        [], [""], {"recurse": True, "respect_robots": True})
    res = LinkChecker(CheckOptions(paths=fixture.seeds, **fixture.options),
                      fixture.documents, fixture.http_map).check()
    rows = {r["url"]: r["state"] for r in res.results.to_pylist()}
    assert rows["http://corpus.test/private/b.html"] == "SKIPPED"
    assert rows["http://corpus.test/public/a.html"] == "OK"
    # the disallowed page was never fetched
    assert not any("private" in c[0] for c in res.call_log)


def test_robots_off_by_default():
    fixture = fx.Fixture(
        "robots-off",
        fx.docs_table(
            fx.doc("index.html", fx._anchor("/private/b.html")),
            fx.doc("private/b.html", fx.span("text", "", "x")),
            fx.doc("robots.txt",
                   fx.span("text", "", "User-agent: *\nDisallow: /private/\n")),
        ),
        [], [""], {"recurse": True})
    res = LinkChecker(CheckOptions(paths=fixture.seeds, **fixture.options),
                      fixture.documents, fixture.http_map).check()
    rows = {r["url"]: r["state"] for r in res.results.to_pylist()}
    assert rows["http://corpus.test/private/b.html"] == "OK"


def test_politeness_token_bucket_stagger():
    """politeness_delay paces one host's fetches; the fake clock must
    advance ≥ (k-1)*delay and all URLs still succeed."""
    fixture = fx.Fixture(
        "paced",
        fx.docs_table(fx.doc(
            "paced/index.html",
            *[fx._anchor(f"http://slow.invalid/{i}") for i in range(5)])),
        [fx.http(f"http://slow.invalid/{i}", 200) for i in range(5)],
        ["paced/index.html"], {"politeness_delay": 1.0})
    clock = FakeClock()
    res = LinkChecker(CheckOptions(paths=fixture.seeds, **fixture.options),
                      fixture.documents, fixture.http_map, clock=clock).check()
    assert res.passed
    assert res.results.num_rows == 6
    assert clock.now() >= 1_000_000.0 + 4.0  # 5 fetches, 1s apart


def test_politeness_hosts_independent():
    """Two hosts pace independently — total time is one host's budget,
    not the sum."""
    fixture = fx.Fixture(
        "paced2",
        fx.docs_table(fx.doc(
            "paced2/index.html",
            *[fx._anchor(f"http://{h}.invalid/{i}") for h in ("a", "b")
              for i in range(3)])),
        [fx.http(f"http://{h}.invalid/{i}", 200) for h in ("a", "b")
         for i in range(3)],
        ["paced2/index.html"], {"politeness_delay": 1.0})
    clock = FakeClock()
    res = LinkChecker(CheckOptions(paths=fixture.seeds, **fixture.options),
                      fixture.documents, fixture.http_map, clock=clock).check()
    assert res.passed
    elapsed = clock.now() - 1_000_000.0
    assert 2.0 <= elapsed < 4.0  # 3 per host in parallel, not 6 serial


def test_mesh_respects_robots(ray_session):
    """Mesh nodes compile robots rules from the corpus locally — same
    SKIP behavior as the driver modes."""
    fixture = fx.Fixture(
        "robots-mesh",
        fx.docs_table(
            fx.doc("index.html",
                   fx._anchor("/public/a.html"),
                   fx._anchor("/private/b.html")),
            fx.doc("public/a.html", fx.span("text", "", "ok")),
            fx.doc("private/b.html", fx.span("text", "", "secret")),
            fx.doc("robots.txt",
                   fx.span("text", "", "User-agent: *\nDisallow: /private/\n")),
        ),
        [], [""], {"recurse": True, "respect_robots": True,
                   "fetch_concurrency": 2})
    res = LinkChecker(CheckOptions(paths=fixture.seeds, **fixture.options),
                      fixture.documents, fixture.http_map,
                      use_ray=True).check()
    rows = {r["url"]: r["state"] for r in res.results.to_pylist()}
    assert rows["http://corpus.test/private/b.html"] == "SKIPPED"
    assert rows["http://corpus.test/public/a.html"] == "OK"
    assert not any("private" in c[0] for c in res.call_log)
