"""End-to-end crawl conformance over the fixture corpora.

Mirrors the reference's checker tests (/root/reference/test/test.index.ts)
— assertions are on result sets/counts and the URL-seen set, not emit
order (SURVEY.md §2.6).
"""

import pyarrow.compute as pc
import pytest

from linkinator_ray.options import CheckOptions
from linkinator_ray.pipelines.crawl import LinkChecker
from linkinator_ray.sources import fixtures as fx

CB = "http://corpus.test/"


def run_fixture(fixture, **extra):
    opts_dict = dict(fixture.options)
    opts_dict.update(extra)
    opts = CheckOptions(paths=fixture.seeds, **opts_dict)
    checker = LinkChecker(opts, fixture.documents, fixture.http_map)
    return checker.check()


def states(result):
    return {(r["url"], r["state"]) for r in result.results.to_pylist()}


def by_state(result, state):
    return result.results.filter(pc.equal(result.results["state"], state))


def test_basic_passes():
    res = run_fixture(fx.basic())
    assert res.passed
    # seed page + the external link = 2 results (test.index.ts:48-53)
    assert res.results.num_rows == 2
    assert all(r["state"] == "OK" for r in res.results.to_pylist())


def test_twice_dedup():
    res = run_fixture(fx.twice())
    assert res.passed
    assert res.results.num_rows == 2  # dedup (test.index.ts:55-72)
    ext_calls = [c for c in res.call_log if c[0].startswith("http://example.invalid")]
    assert len(ext_calls) == 1  # fetched exactly once


def test_recurse_true():
    res = run_fixture(fx.recurse())
    assert res.passed
    # index, first, second, external = 4 (test.index.ts:348-366)
    assert res.results.num_rows == 4


def test_recurse_false():
    fixture = fx.recurse()
    fixture.options["recurse"] = False
    res = run_fixture(fixture)
    # seed + its one link (test.index.ts:392-395)
    assert res.results.num_rows == 2


def test_external_host_not_crawled_into():
    res = run_fixture(fx.recurse())
    # the external page is checked but never parsed: only HEAD+maybe GET,
    # and nothing beyond example.invalid appears
    urls = {r["url"] for r in res.results.to_pylist()}
    assert "http://example.invalid/" in urls
    assert not any(u.startswith("http://example.invalid/sub") for u in urls)


def test_broke():
    res = run_fixture(fx.broke())
    assert not res.passed
    broken = by_state(res, "BROKEN").to_pylist()
    assert len(broken) == 1
    assert broken[0]["url"] == "http://example.invalid/"
    assert broken[0]["status"] == 404


def test_skip_no_fetch():
    res = run_fixture(fx.skip_fixture())
    assert res.passed
    skipped = by_state(res, "SKIPPED").to_pylist()
    assert len(skipped) == 1
    assert skipped[0]["url"] == "http://very.bad/"
    assert not any(c[0].startswith("http://very.bad") for c in res.call_log)


def test_protocols_skipped():
    res = run_fixture(fx.protocols())
    skipped = by_state(res, "SKIPPED").to_pylist()
    assert len(skipped) == 3  # irc, mailto, data (test.index.ts:376-384)
    assert all(r["status"] == 0 for r in skipped)
    assert res.passed


def test_image_interleaved_media():
    res = run_fixture(fx.image())
    assert not res.passed
    assert by_state(res, "BROKEN").num_rows == 1  # missing.png
    assert by_state(res, "OK").num_rows == 3      # seed + boo.jpg + missing2.jpg


def test_srcset():
    res = run_fixture(fx.srcset())
    assert res.passed
    urls = {r["url"] for r in res.results.to_pylist()}
    assert CB + "srcset/_site/foo.html" in urls
    assert CB + "srcset/_site/bar.html" in urls


def test_metarefresh():
    res = run_fixture(fx.metarefresh())
    assert res.passed
    assert res.results.num_rows == 4  # seed + 3 refresh targets


def test_basetag_variants():
    for fixture in fx.basetag_cases():
        res = run_fixture(fixture)
        assert res.results.num_rows == 3, fixture.name
        assert by_state(res, "BROKEN").num_rows == 1, fixture.name


def test_relative_recurse():
    res = run_fixture(fx.relative())
    assert res.passed
    # index, a/b.html, c.html + index re-link deduped = 3 distinct URLs
    urls = {r["url"] for r in res.results.to_pylist()}
    assert urls == {CB + "relative/", CB + "relative/a/b.html",
                    CB + "relative/c.html", CB + "relative/index.html"} - \
        {CB + "relative/index.html"} | ({CB + "relative/index.html"}
                                        & urls)


def test_markdown_scan():
    res = run_fixture(fx.markdown())
    assert res.passed
    # README + LICENSE + boo.jpg = 3 (test.index.ts:451-458)
    assert res.results.num_rows == 3


def test_markdown_glob():
    fixture = fx.markdown()
    fixture.seeds = ["markdown/**/*.md", "markdown/*.md"]
    res = run_fixture(fixture)
    assert res.passed
    # LICENSE linked from three docs but reported once OK
    license_rows = [r for r in res.results.to_pylist()
                    if r["url"].endswith("LICENSE.md")]
    assert len(license_rows) == 1


def test_repeated_broken_per_parent():
    res = run_fixture(fx.repeated_broken_link())
    broken = by_state(res, "BROKEN").to_pylist()
    # broken123 reported under both a.html and b.html; 456/789 once each
    pairs = {(r["url"], r["parent"]) for r in broken}
    assert (CB + "repeat/broken123", CB + "repeat/a.html") in pairs
    assert (CB + "repeat/broken123", CB + "repeat/b.html") in pairs
    assert (CB + "repeat/broken456", CB + "repeat/a.html") in pairs
    assert (CB + "repeat/broken789", CB + "repeat/b.html") in pairs
    assert len(pairs) == 4
    # total rows: 4 broken + index,a,b OK = 7
    assert res.results.num_rows == 7


def test_status_codes_default():
    res = run_fixture(fx.status_codes())
    assert by_state(res, "BROKEN").num_rows == 3  # 403, 404, 500
    assert by_state(res, "OK").num_rows == 2      # seed + /200


def test_status_codes_custom_map():
    res = run_fixture(fx.status_codes(),
                      status_codes={"403": "ok", "5xx": "skip"})
    broken = {r["url"] for r in by_state(res, "BROKEN").to_pylist()}
    assert broken == {"http://codes.invalid/404"}
    skipped = {r["url"] for r in by_state(res, "SKIPPED").to_pylist()}
    assert skipped == {"http://codes.invalid/500"}


def test_status_codes_exact_beats_pattern():
    res = run_fixture(fx.status_codes(),
                      status_codes={"404": "ok", "4xx": "error"})
    broken = {r["url"] for r in by_state(res, "BROKEN").to_pylist()}
    assert "http://codes.invalid/404" not in broken
    assert "http://codes.invalid/403" in broken


def test_bot_protection_skipped():
    res = run_fixture(fx.bot_protection())
    assert res.passed
    skipped = {r["url"] for r in by_state(res, "SKIPPED").to_pylist()}
    assert skipped == {"http://linkedin.invalid/x", "http://cf.invalid/y"}


def test_head_fallback():
    res = run_fixture(fx.head_fallback())
    assert res.passed
    assert by_state(res, "OK").num_rows == 3


def test_malformed_broken_status0():
    res = run_fixture(fx.malformed())
    broken = by_state(res, "BROKEN").to_pylist()
    assert len(broken) == 1
    assert broken[0]["status"] == 0
    assert broken[0]["url"] == "https://["


def test_rewrite():
    res = run_fixture(fx.rewrite())
    assert res.passed, res.results.to_pylist()
    urls = {r["url"] for r in res.results.to_pylist()}
    assert CB + "rewrite/LICENSE.md" in urls


def test_baseurl_same_origin_gate():
    res = run_fixture(fx.baseurl())
    assert res.passed
    # seed + off-host page = 2; no crawl into elsewhere.invalid
    assert res.results.num_rows == 2


def test_json_ld():
    res = run_fixture(fx.json_ld())
    assert res.passed
    urls = {r["url"] for r in res.results.to_pylist()}
    assert "http://media.invalid/img1.png" in urls
    assert "http://people.invalid/nobody" in urls
    assert "http://media.invalid/logo.png" in urls
    assert not any("should-not" in u for u in urls)
    assert res.results.num_rows == 6  # seed + 4 json-ld + plain anchor


def test_css_checking():
    res = run_fixture(fx.css_fixture())
    assert res.passed
    urls = {r["url"] for r in res.results.to_pylist()}
    assert CB + "css/imported1.css" in urls
    assert CB + "css/bg1.png" in urls
    assert CB + "css/deep.png" in urls  # found inside styles.css body
    assert len(urls) >= 9


def test_css_off_only_regular_link():
    fixture = fx.css_fixture()
    fixture.options["check_css"] = False
    res = run_fixture(fixture)
    urls = {r["url"] for r in res.results.to_pylist()}
    assert CB + "css/regular-link.html" in urls
    assert not any(u.endswith(".png") for u in urls)


def test_seen_set_matches_results():
    res = run_fixture(fx.recurse())
    assert res.stats["seen_urls"] == 4


def test_directory_listing():
    """Auto-index pages for directories without index.html (S3,
    server.ts:172-184)."""
    fixture = fx.Fixture(
        "dirlist",
        fx.docs_table(
            fx.doc("files/a.html", fx.span("text", "", "a")),
            fx.doc("files/b.html", fx.span("text", "", "b")),
            fx.doc("files/sub/c.html", fx.span("text", "", "c")),
        ),
        [], ["files/"], {"recurse": True, "directory_listing": True})
    res = run_fixture(fixture)
    assert res.passed, res.results.to_pylist()
    urls = {r["url"] for r in res.results.to_pylist()}
    assert CB + "files/a.html" in urls
    assert CB + "files/b.html" in urls
    assert CB + "files/sub/c.html" in urls  # via the sub/ listing


def test_directory_listing_off_404():
    fixture = fx.Fixture(
        "dirlist-off",
        fx.docs_table(fx.doc("files/a.html", fx.span("text", "", "a"))),
        [], ["files/"], {"recurse": True})
    res = run_fixture(fixture)
    assert not res.passed  # files/ has no index.html → 404


def test_results_streaming_sink(tmp_path):
    """results_dir spills result rows to atomic parquet parts; the
    reassembled record equals an unspilled run (minus row order)."""
    import os
    import pyarrow as pa
    import pyarrow.parquet as pq
    fixture = fx.repeated_broken_link()
    plain = run_fixture(fixture)

    out_dir = str(tmp_path / "results")
    fixture2 = fx.repeated_broken_link()
    spilled = run_fixture(fixture2, results_dir=out_dir, results_flush_rows=2)
    parts = sorted(os.listdir(out_dir))
    assert len(parts) >= 2
    tables = [pq.read_table(os.path.join(out_dir, p)) for p in parts]
    if spilled.results.num_rows:
        tables.append(spilled.results)
    merged = pa.concat_tables(tables)
    def key_set(t):
        return {(r["url"], r["state"], r["status"], r["parent"])
                for r in t.to_pylist()}
    assert key_set(merged) == key_set(plain.results)
    assert spilled.passed == plain.passed
    assert spilled.stats["broken"] == plain.stats["broken"]


def test_mixed_seed_types_rejected():
    import pytest
    fixture = fx.basic()
    with pytest.raises(ValueError, match="mix"):
        run_fixture(fixture, paths=None) if False else \
            LinkChecker(CheckOptions(paths=["basic/index.html",
                                            "http://ext.invalid/"]),
                        fixture.documents, fixture.http_map).check()


def test_server_root_with_urls_rejected():
    import pytest
    fixture = fx.basic()
    with pytest.raises(ValueError, match="server_root"):
        LinkChecker(CheckOptions(paths=["http://ext.invalid/"],
                                 server_root="/tmp/site"),
                    fixture.documents, fixture.http_map).check()


def test_duplicate_seeds():
    fixture = fx.basic()
    fixture.seeds = ["basic/index.html", "basic/index.html"]
    res = run_fixture(fixture)
    assert res.passed
    # parity: the reference enqueues every root path unconditionally
    # (src/index.ts:267-288), so a duplicated seed is checked twice;
    # the discovered link still dedups to one row
    assert res.results.num_rows == 3
    link_rows = [r for r in res.results.to_pylist()
                 if r["url"] == "http://example.invalid/"]
    assert len(link_rows) == 1


def test_css_seed_scan():
    """Seeding directly at a CSS file: the seed recurses into url()
    targets when check_css is on (src/index.ts:419-424)."""
    fixture = fx.Fixture(
        "css-seed",
        fx.docs_table(
            fx.doc("site/styles.css",
                   fx.span("style_url", "", "body{background:url(bg.png)}")),
            fx.doc("site/bg.png", fx.span("text", "", "PNG")),
        ),
        [], ["site/styles.css"], {"check_css": True})
    res = run_fixture(fixture)
    assert res.passed
    urls = {r["url"] for r in res.results.to_pylist()}
    assert CB + "site/bg.png" in urls


def test_css_seed_without_check_css_not_parsed():
    fixture = fx.Fixture(
        "css-seed-off",
        fx.docs_table(
            fx.doc("site/styles.css",
                   fx.span("style_url", "", "body{background:url(bg.png)}")),
        ),
        [], ["site/styles.css"], {"check_css": False})
    res = run_fixture(fixture)
    assert res.passed
    assert res.results.num_rows == 1  # just the seed


def test_fragment_link_to_external_unfetched_page():
    """A fragment pointing at an external page that is never crawled
    (HEAD only, no body): validation is skipped, no spurious BROKEN
    (the reference only validates fragments when the body is parsed)."""
    fixture = fx.Fixture(
        "ext-frag",
        fx.docs_table(fx.doc(
            "ef/index.html",
            fx._anchor("http://ext.invalid/page#some-frag"))),
        [fx.http("http://ext.invalid/page", 200, content_type="text/html")],
        ["ef/index.html"], {"check_fragments": True})
    res = run_fixture(fixture)
    # external page HEAD 200 has no body... but check_fragments triggers
    # the fragment re-GET (src/index.ts:450-473); the GET body is empty
    # (no doc) so the fragment is unresolvable → stays unvalidated
    broken = [r for r in res.results.to_pylist() if r["state"] == "BROKEN"]
    assert not broken, broken


def test_on_results_callback():
    """§2.8 parity: the reference's per-link 'link' events surface as a
    per-batch callback over appended results tables."""
    seen_rows = []
    fixture = fx.repeated_broken_link()
    checker = LinkChecker(
        CheckOptions(paths=fixture.seeds, **fixture.options),
        fixture.documents, fixture.http_map,
        on_results=lambda t: seen_rows.extend(t.to_pylist()))
    res = checker.check()
    assert len(seen_rows) == res.results.num_rows
    assert {(r["url"], r["state"], r["parent"]) for r in seen_rows} == \
        {(r["url"], r["state"], r["parent"]) for r in res.results.to_pylist()}


def test_property_seen_set_closed_form():
    """Property: for any synthetic corpus, the final URL-seen set size
    equals the generator's closed form (full reachability + distinct
    broken links), across varied shapes and seeds."""
    from hypothesis import given, settings, strategies as st
    from linkinator_ray.sources.synth import synth_crawl_corpus

    @settings(max_examples=12, deadline=None)
    @given(hosts=st.integers(1, 4), docs=st.integers(8, 120),
           branching=st.integers(2, 5), broken=st.floats(0, 0.2),
           seed=st.integers(0, 10_000))
    def check(hosts, docs, branching, broken, seed):
        corpus, seeds, expected, _ = synth_crawl_corpus(
            num_hosts=hosts, docs_per_host=docs, branching=branching,
            broken_rate=broken, seed=seed)
        res = LinkChecker(CheckOptions(paths=seeds, recurse=True),
                          corpus, [], multi_host=True).check()
        assert res.stats["seen_urls"] == expected
        assert res.stats["urls_checked"] == expected  # each checked once

    check()


def test_round_wider_than_the_ray_pump_cap():
    """A Ray-free round is one pump over the whole queue, however wide:
    at batch_size=2 (a Ray node's pump takes 8 rows) the 20 pages the
    seed links are one round, the BFS depth of each."""
    pages = [f"wide/p{i}.html" for i in range(20)]
    docs = fx.docs_table(
        fx.doc("wide/index.html", *(fx._anchor(p.split("/")[1])
                                    for p in pages)),
        *(fx.doc(p, fx._anchor("leaf.html")) for p in pages),
        fx.doc("wide/leaf.html"))
    res = LinkChecker(CheckOptions(paths=["wide/"], recurse=True,
                                   batch_size=2), docs).check()
    rounds = {r["url"]: r["round"] for r in res.results.to_pylist()}
    assert {rounds[CB + p] for p in pages} == {1}
    assert rounds[CB + "wide/"] == 0
    assert rounds[CB + "wide/leaf.html"] == 2
    # depths 0, 1 and 2
    assert res.stats["rounds"] == 3 and res.passed


def test_skip_callable_error_is_raised_as_is():
    """A links_to_skip callable's own exception reaches the caller of a
    Ray-free check unwrapped."""
    def skip(url):
        raise LookupError(url)

    fixture = fx.recurse()
    with pytest.raises(LookupError):
        LinkChecker(CheckOptions(paths=fixture.seeds, **fixture.options,
                                 links_to_skip=skip),
                    fixture.documents, fixture.http_map).check()
