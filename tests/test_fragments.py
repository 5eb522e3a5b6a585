"""Fragment validation (reference: test/test.fragments.ts)."""

import pyarrow.compute as pc

from linkinator_ray.options import CheckOptions
from linkinator_ray.pipelines.crawl import LinkChecker
from linkinator_ray.sources import fixtures as fx

CB = "http://corpus.test/"


def run(fixture, **extra):
    opts = dict(fixture.options)
    opts.update(extra)
    checker = LinkChecker(CheckOptions(paths=fixture.seeds, **opts),
                          fixture.documents, fixture.http_map)
    return checker.check()


def broken_urls(res):
    return {r["url"] for r in res.results.to_pylist() if r["state"] == "BROKEN"}


def test_valid_and_missing_fragments():
    res = run(fx.fragments())
    broken = broken_urls(res)
    assert CB + "frag/target.html#missing-section" in broken
    assert CB + "frag/#local-missing" in broken
    # valid fragments don't produce broken rows
    assert CB + "frag/target.html#valid-section" not in broken
    assert CB + "frag/#local-ok" not in broken
    assert CB + "frag/gh.html#gh-anchor" not in broken


def test_fragment_broken_carries_page_status():
    res = run(fx.fragments())
    rows = [r for r in res.results.to_pylist()
            if r["url"] == CB + "frag/target.html#missing-section"]
    assert len(rows) == 1
    assert rows[0]["status"] == 200
    assert "missing-section" in rows[0]["failure_details"]


def test_check_fragments_off_no_fragment_rows():
    fixture = fx.fragments()
    fixture.options["check_fragments"] = False
    res = run(fixture)
    assert not any("#" in r["url"] for r in res.results.to_pylist())
    assert res.passed


def test_fragments_to_skip():
    res = run(fx.fragments(), fragments_to_skip=["^missing-section$", "^local-missing$"])
    skipped = {r["url"] for r in res.results.to_pylist() if r["state"] == "SKIPPED"}
    assert CB + "frag/target.html#missing-section" in skipped
    # skipping the fragment still checks the URL itself
    ok_urls = {r["url"] for r in res.results.to_pylist() if r["state"] == "OK"}
    assert CB + "frag/target.html" in ok_urls
    assert res.passed


def test_fragments_to_skip_function():
    res = run(fx.fragments(),
              fragments_to_skip=lambda frag, url: "missing" in frag)
    assert res.passed


def test_soft_404_skips_validation():
    fixture = fx.Fixture(
        "soft404",
        fx.docs_table(
            fx.doc("soft/index.html", fx._anchor("page.html#whatever")),
            fx.doc("soft/page.html",
                   fx.span("meta_content", "", 'content="noindex'),
                   fx.span("text", "", "nofollow")),
        ),
        [], ["soft/"], {"recurse": True, "check_fragments": True})
    res = run(fixture)
    assert res.passed  # fragment not validated on a soft-404 page


def test_cross_page_fragment_discovered_before_fetch():
    """Fragment recorded in round k is validated when its target is
    fetched in round k+1 (deferred accumulation, src/index.ts:168)."""
    fixture = fx.Fixture(
        "pending",
        fx.docs_table(
            fx.doc("pend/index.html", fx._anchor("deep.html")),
            fx.doc("pend/deep.html", fx._anchor("target.html#nope")),
            fx.doc("pend/target.html", fx.span("fragment_target", "", "yep")),
        ),
        [], ["pend/"], {"recurse": True, "check_fragments": True})
    res = run(fixture)
    assert CB + "pend/target.html#nope" in broken_urls(res)


def test_mesh_fragment_parity(ray_session):
    """The mesh execution mode produces the identical fragment results
    as the round mode on the fragment fixtures — wants route to the
    target's fetch owner and validate at fetch time."""
    for name in ("fragments",):
        fixture = getattr(fx, name)()
        rounds = run(fixture)
        opts = dict(fixture.options, fetch_concurrency=2)
        mesh = LinkChecker(CheckOptions(paths=fixture.seeds, **opts),
                           fixture.documents, fixture.http_map,
                           use_ray=True).check()

        def key(res):
            return {(r["url"], r["state"], r["status"])
                    for r in res.results.to_pylist()}
        assert key(rounds) == key(mesh), name
        assert rounds.passed == mesh.passed, name
