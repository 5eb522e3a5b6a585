"""URL scalar kit semantics (reference: /root/reference/src/links.ts)."""

import numpy as np

from linkinator_ray import urlkit


class TestIsAbsoluteUrl:
    def test_schemes(self):
        assert urlkit.is_absolute_url("http://x.test/")
        assert urlkit.is_absolute_url("mailto:a@b.c")
        assert urlkit.is_absolute_url("irc://server/channel")

    def test_windows_path_excluded(self):
        assert not urlkit.is_absolute_url("c:\\temp\\file.html")

    def test_relative(self):
        assert not urlkit.is_absolute_url("foo/bar.html")
        assert not urlkit.is_absolute_url("/rooted/path")
        assert not urlkit.is_absolute_url("../up")


class TestNormalize:
    def test_default_port_stripped(self):
        assert urlkit.normalize_url("http://X.test:80/a") == "http://x.test/a"
        assert urlkit.normalize_url("https://x.test:443/") == "https://x.test/"
        assert urlkit.normalize_url("http://x.test:8080/") == "http://x.test:8080/"

    def test_empty_path_becomes_slash(self):
        assert urlkit.normalize_url("http://example.invalid") == "http://example.invalid/"

    def test_dot_segments(self):
        assert urlkit.normalize_url("http://x.test/a/../b") == "http://x.test/b"
        assert urlkit.normalize_url("http://x.test/a/./b/") == "http://x.test/a/b/"

    def test_fragment_stripped_by_default(self):
        assert urlkit.normalize_url("http://x.test/p#frag") == "http://x.test/p"
        assert urlkit.normalize_url("http://x.test/p#frag", keep_fragment=True) \
            == "http://x.test/p#frag"

    def test_space_encoded(self):
        assert urlkit.normalize_url("http://x.test/a b") == "http://x.test/a%20b"


class TestParseLink:
    def test_relative_resolution(self):
        parsed = urlkit.parse_link("sub/page.html", "http://x.test/dir/index.html")
        assert parsed.url == "http://x.test/dir/sub/page.html"
        assert parsed.error is None

    def test_fragment_split_and_decode(self):
        parsed = urlkit.parse_link("page.html#a%20b", "http://x.test/")
        assert parsed.url == "http://x.test/page.html"
        assert parsed.fragment == "a b"
        assert parsed.url_with_fragment == "http://x.test/page.html#a%20b"

    def test_parse_error(self):
        parsed = urlkit.parse_link("https://[", "http://x.test/")
        assert parsed.error is not None
        assert parsed.url is None

    def test_no_base_relative_fails(self):
        parsed = urlkit.parse_link("relative.html", "")
        assert parsed.error is not None

    def test_non_http_scheme_ok(self):
        parsed = urlkit.parse_link("mailto:a@b.c", "http://x.test/")
        assert parsed.error is None
        assert parsed.url.startswith("mailto:")


class TestBaseUrl:
    def test_absolute_wins(self):
        assert urlkit.get_base_url("http://b.test/dir/", "http://a.test/x") \
            == "http://b.test/dir/"

    def test_relative_resolves_against_doc(self):
        assert urlkit.get_base_url("sub/", "http://a.test/dir/index.html") \
            == "http://a.test/dir/sub/"


class TestMetaRefresh:
    def test_formats(self):
        assert urlkit.parse_meta_refresh("0;url=http://x.test/") == "http://x.test/"
        assert urlkit.parse_meta_refresh("5; url = /delayed") == "/delayed"
        assert urlkit.parse_meta_refresh("0;URL=/upper") == "/upper"
        assert urlkit.parse_meta_refresh("not a refresh") is None
        assert urlkit.parse_meta_refresh("zz;url=x") is None


class TestSrcset:
    def test_basic(self):
        assert urlkit.parse_srcset("a.png 1x, b.png 2x") == ["a.png", "b.png"]

    def test_multi_space(self):
        assert urlkit.parse_srcset("a.png   1x,   b.png     2x") == ["a.png", "b.png"]

    def test_no_descriptor(self):
        assert urlkit.parse_srcset("a.png, b.png") == ["a.png", "b.png"]


class TestCssExtraction:
    def test_imports_and_urls(self):
        css = (
            "/* url(commented.png) */\n"
            '@import url("i1.css");\n'
            "@import 'i2.css';\n"
            "body { background: url(bg.png); }\n"
            ".x { background: url(data:image/gif;base64,AA); }\n"
        )
        urls = urlkit.extract_urls_from_css(css)
        assert "i1.css" in urls and "i2.css" in urls and "bg.png" in urls
        assert "commented.png" not in urls
        assert not any(u.startswith("data:") for u in urls)

    def test_import_url_double_extracted(self):
        # parity with the reference: @import url(x) matches both regexes
        urls = urlkit.extract_urls_from_css("@import url(x.css);")
        assert urls.count("x.css") == 2


class TestJsonLd:
    def test_known_fields_only(self):
        payload = {
            "image": ["http://m.test/1.png", "http://m.test/2.png"],
            "author": {"url": "http://p.test/a"},
            "unknownField": "http://no.test/x",
            "logo": "not a url",
        }
        links = urlkit.extract_links_from_json(payload)
        assert set(links) == {"http://m.test/1.png", "http://m.test/2.png",
                              "http://p.test/a"}

    def test_bad_json_ignored(self):
        assert urlkit.extract_links_from_jsonld_text("{not json") == []


class TestHash:
    def test_stable(self):
        assert urlkit.hash64("x") == urlkit.hash64("x")
        assert urlkit.hash64("x") != urlkit.hash64("y")

    def test_array(self):
        arr = urlkit.hash64_array(["a", "b", "a"])
        assert arr.dtype == np.uint64
        assert arr[0] == arr[2] != arr[1]
        assert arr[0] == urlkit.hash64("a")

    def test_vectorized_equals_scalar(self):
        """Past the scalar cutoff, the per-position passes over the flat
        buffer give hash64 of every row: mixed lengths, empty strings
        and nulls, multi-byte UTF-8, a sliced array, large_string."""
        import random

        import pyarrow as pa
        rng = random.Random(5)
        vals = ["".join(rng.choice("ab/:.%\u00e9\u4e2d") for _ in
                        range(rng.randrange(0, 40))) for _ in range(300)]
        vals[7], vals[11] = "", None
        arr = pa.array(vals)
        for col in (arr, arr.slice(3), arr.cast(pa.large_string())):
            assert urlkit.hash64_arrow(col).tolist() == [
                urlkit.hash64(v or "") for v in col.to_pylist()]


    def test_row_chunks_hash_alike(self, monkeypatch):
        """The vectorized passes take the rows in chunks (a bounded byte
        block each); chunks of 7 rows, a chunk boundary inside a run of
        equal lengths and rows past the block width included, give
        hash64 of every row."""
        import random

        import pyarrow as pa
        rng = random.Random(11)
        vals = ["".join(rng.choice("ab/.\u00e9") for _ in
                        range(rng.choice((3, 3, 3, 70, rng.randrange(90)))))
                for _ in range(200)]
        monkeypatch.setattr(urlkit, "_HASH_CHUNK", 7)
        col = pa.array(vals).slice(2)
        assert urlkit.hash64_arrow(col).tolist() == [
            urlkit.hash64(v) for v in col.to_pylist()]

    def test_both_sides_of_the_scalar_cutoff(self):
        """Up to ``_SCALAR_HASH_ROWS`` rows hash string by string, one
        row more takes the vectorized passes: both give hash64."""
        import pyarrow as pa
        cut = urlkit._SCALAR_HASH_ROWS
        for n in (cut, cut + 1):
            vals = [f"http://h{i}.test/d{i * 37}.html" for i in range(n)]
            assert urlkit.hash64_arrow(pa.array(vals)).tolist() == [
                urlkit.hash64(v) for v in vals]


class TestEdgeKey:
    """The (url, parent) edge key is mixed from the two URL hashes."""

    def test_no_collisions_among_random_pairs(self):
        rng = np.random.default_rng(7)
        pairs = rng.integers(0, 2**64, size=(1_000_000, 2), dtype=np.uint64)
        pairs = np.unique(pairs, axis=0)
        keys = urlkit.edge_key(pairs[:, 0], pairs[:, 1])
        assert keys.dtype == np.uint64
        assert len(np.unique(keys)) == len(pairs)

    def test_distinct_along_a_shared_url_or_parent(self):
        # a 1000 x 1000 grid of real URL hashes: every row shares a URL,
        # every column a parent, and no two of the 1M edges share a key
        urls = urlkit.hash64_array(
            [f"http://h{i % 7}.test/d{i}.html" for i in range(1000)])
        keys = urlkit.edge_key(urls[:, None], urls[None, :])
        assert len(np.unique(keys)) == keys.size
        # not symmetric: (a, b) and (b, a) are different edges
        assert keys[1, 2] != keys[2, 1]
        assert int(urlkit.edge_key(urls[3], urls[4])) == keys[3, 4]

    def test_cuckoo_false_positives_within_budget(self):
        """Edge keys spread over a cuckoo filter's buckets and
        fingerprints like random keys: inserting 250k edges, then
        probing 750k absent ones, stays within ~1.22e-4 false positives
        per key (8 slot compares of 16-bit fingerprints, a full filter's
        rate). An insert reports a false positive when an earlier key
        of its batch took its bucket pair and fingerprint."""
        from linkinator_ray.state.cuckoo import CuckooFilter
        urls = urlkit.hash64_array(
            [f"http://h{i % 7}.test/d{i}.html" for i in range(1000)])
        keys = urlkit.edge_key(urls[:, None], urls[None, :]).ravel()
        keys = keys[np.random.default_rng(3).permutation(len(keys))]
        f = CuckooFilter(1 << 20)
        false_pos = f.contains_or_insert(keys[:250_000]).sum() \
            + f.contains(keys[250_000:]).sum()
        assert false_pos <= 8 / 2**16 * len(keys)


class TestFastResolveEquivalence:
    """The fast resolver must agree with the urllib-based slow path."""

    CASES = [
        ("page.html", "http://h.test/dir/index.html"),
        ("sub/page.html", "http://h.test/dir/"),
        ("/rooted/x.html", "http://h.test/dir/index.html"),
        ("http://other.test/abs.html", "http://h.test/"),
        ("https://other.test", "http://h.test/"),
        ("http://other.test/a/b/c", "http://h.test/"),
        ("page.html#frag", "http://h.test/"),
        ("#onlyfrag", "http://h.test/page.html"),
        ("page.html#", "http://h.test/"),
        ("../up.html", "http://h.test/a/b/"),
        ("./here.html", "http://h.test/a/"),
        ("a//b.html", "http://h.test/"),
        ("HTTP://UPPER.test/X", "http://h.test/"),
        ("http://h.test:80/x", "http://h.test/"),
        ("http://h.test:8080/x", "http://h.test/"),
        ("with space.html", "http://h.test/"),
        ("q.html?x=1", "http://h.test/"),
        ("/a/../b", "http://h.test/"),
        ("d17.html", "http://h3.test/"),
        ("/d/412.html", "http://corpus.test/d/5.html"),
        ("mailto:x@y.z", "http://h.test/"),
        ("pct%20enc.html", "http://h.test/"),
        ("http://user:pw@h.test/x", "http://h.test/"),
    ]

    def test_fixed_cases(self):
        import linkinator_ray.urlkit as uk
        for link, base in self.CASES:
            fast = uk.parse_link(link, base)
            # force the slow path by bypassing _fast_resolve
            orig = uk._fast_resolve
            uk._fast_resolve = lambda h, b: None
            try:
                slow = uk.parse_link(link, base)
            finally:
                uk._fast_resolve = orig
            assert (fast.url, fast.url_with_fragment, fast.fragment,
                    fast.error is None) == \
                (slow.url, slow.url_with_fragment, slow.fragment,
                 slow.error is None), (link, base)

    def test_hypothesis_paths(self):
        from hypothesis import given, settings, strategies as st
        import linkinator_ray.urlkit as uk
        seg = st.text(alphabet="abcZ09._-", min_size=1, max_size=5)
        links = st.one_of(
            st.builds(lambda a, b: f"{a}/{b}.html", seg, seg),
            st.builds(lambda a: f"/{a}.html", seg),
            st.builds(lambda a, b: f"http://{a.lower()}.test/{b}", seg, seg),
            st.builds(lambda a, f: f"{a}.html#{f}", seg, seg),
        )

        @settings(max_examples=300, deadline=None)
        @given(link=links)
        def check(link):
            base = "http://h.test/dir/page.html"
            fast = uk.parse_link(link, base)
            orig = uk._fast_resolve
            uk._fast_resolve = lambda h, b: None
            try:
                slow = uk.parse_link(link, base)
            finally:
                uk._fast_resolve = orig
            assert (fast.url, fast.url_with_fragment, fast.fragment) == \
                (slow.url, slow.url_with_fragment, slow.fragment), link

        check()


class TestUnicodeUrls:
    def test_unicode_path_roundtrip(self):
        parsed = urlkit.parse_link("café/menü.html", "http://x.test/")
        assert parsed.error is None
        # non-ascii path chars percent-encode like WHATWG href
        assert "caf%C3%A9" in parsed.url

    def test_unicode_fragment_decoded(self):
        parsed = urlkit.parse_link("p.html#%C3%BCber", "http://x.test/")
        assert parsed.fragment == "über"

    def test_unicode_host_lowercased(self):
        assert urlkit.host_of("http://EXAMPLE.test/x") == "example.test"


class TestResolveLinksArrow:
    """The batch resolver must equal parse_link row for row, whatever
    the shape of the base: the RE2 fast classes may only take a row
    whose scalar resolution they reproduce exactly."""

    BASES = [
        "http://h.test/dir/page.html",
        "http://h.test:8080/",
        "http://h.test:8080/dir/page.html",
        "https://h.test:8443",
        "http://h.test:80/dir/",
        "https://h.test:443/dir/page.html",
        "http://h.test:443/",
        "https://h.test:80/",
        "http://h.test:080/",
        "http://h.test:70000/",
        "http://u:p@h.test/a.html",
        "http://u@h.test:8080/a/",
        "http://H.Test/Dir/page.html",
        "http://h.test/dir/page.html?q=1",
        "http://h.test/dir/page.html#top",
        "http://h.test?q",
        "http://[::1]:8080/dir/",
        "http://[::1]/",
    ]

    @staticmethod
    def _check(links, bases):
        import pyarrow as pa
        got = urlkit.resolve_links_arrow(pa.array(links, pa.string()),
                                         pa.array(bases, pa.string()),
                                         urlkit.LinkResolver())
        cols = [got[k].to_pylist() for k in
                ("url", "url_with_fragment", "fragment", "parse_error")]
        for i, (link, base) in enumerate(zip(links, bases)):
            want = urlkit.parse_link(link, base)
            assert tuple(c[i] for c in cols) == (
                want.url or "", want.url_with_fragment or "",
                want.fragment or "", want.error or ""), (link, base)

    def test_port_patterns_leave_out_only_the_default(self):
        """The RE2 port forms take exactly the ports 1-59999 written
        without a leading 0, less the scheme's default port."""
        import re
        ports = [str(p) for p in range(70000)] + ["080", "0443", "00", ""]
        for pattern, default in ((urlkit._PORT_NOT_80, 80),
                                 (urlkit._PORT_NOT_443, 443)):
            rx = re.compile(rf"^{pattern}$")
            taken = {p for p in ports if rx.match(p)}
            assert taken == {str(p) for p in range(1, 60000)
                             if p != default}

    def test_port_and_userinfo_bases(self):
        # the root-relative shape takes the origin of the base
        self._check(["/x.html"] * 3,
                    ["http://h.test:8080/", "http://u:p@h.test/a.html",
                     "https://h.test:443/"])

    # fragments, ports and dot or empty segments around the routed classes
    EDGE_LINKS = [
        "/x.html#top", "/x.html#a%20b", "/x.html#", "/x.html#a#b",
        "/x.html#a%2", "x.html#f\tg", "/a.html#f\ng", "#only", "", "#",
        "http://127.0.0.1:8080/#gone", "http://h.test:8080",
        "http://h.test:8080/a/b.html#s", "http://h.test:0/x",
        "http://h.test:65535/x", "http://h.test:59999/x",
        "http://h.test:60000/x", "https://h.test:443/x",
        "https://h.test:80/x", "http://h.test:80", "http://h.test:/x",
        "http://h.test:8080//x", "http://h.test/./x", "http://./x",
        "http://h.test/a/..", "/.../x", "/..a/x", "/a/...", "/.", "/..",
        "//h.test/x", "..", ".", "./", "a/..", "a/.b", "a//b", "a:b/c",
        "b/c:d", "/a:b", "http://h.test/a?b#c", "/x%zz.html#%41",
        "/x.html#caf\u00e9", "/caf\u00e9.html#x",
    ]

    def test_fixed_cases_on_every_base(self):
        links = [link for link, _ in TestFastResolveEquivalence.CASES] \
            + self.EDGE_LINKS
        pairs = [(link, base) for base in self.BASES for link in links]
        self._check([p[0] for p in pairs], [p[1] for p in pairs])

    def test_hypothesis_links_on_every_base(self):
        from hypothesis import given, settings, strategies as st
        seg = st.text(alphabet="abcZ09._-", min_size=1, max_size=5)
        frag = st.text(alphabet="ab%20#\t", max_size=5)
        links = st.one_of(
            st.builds(lambda a, b: f"{a}/{b}.html", seg, seg),
            st.builds(lambda a: f"/{a}.html", seg),
            st.builds(lambda a, b: f"http://{a.lower()}.test/{b}", seg, seg),
            st.builds(lambda a, f: f"{a}.html#{f}", seg, seg),
            st.builds(lambda a: f"/{a}/", seg),
            st.builds(lambda a, p, b: f"http://{a.lower()}.test:{p}/{b}",
                      seg, st.integers(0, 70000), seg),
            st.builds(lambda a, f: f"/{a}.html#{f}", seg, frag),
            st.builds(lambda a, f: f"{a}#{f}", seg, frag),
        )

        @settings(max_examples=200, deadline=None)
        @given(batch=st.lists(st.tuples(links, st.sampled_from(self.BASES)),
                              min_size=1, max_size=12))
        def check(batch):
            self._check([b[0] for b in batch], [b[1] for b in batch])

        check()
