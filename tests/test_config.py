"""Config loading / merging (reference: test/test.config.ts)."""

import json

import pytest

from linkinator_ray.options import (
    CheckOptions, find_config, load_config, merge_config, validate_status_codes)


def test_load_and_merge(tmp_path):
    cfg = tmp_path / "linkinator.config.json"
    cfg.write_text(json.dumps({"recurse": True, "concurrency": 7,
                               "links_to_skip": ["skip-me"]}))
    loaded = load_config(str(cfg))
    assert loaded["recurse"] is True
    # CLI flags (non-None) win over config (src/config.ts:120-130)
    merged = merge_config({"concurrency": 3, "recurse": None}, loaded)
    assert merged["concurrency"] == 3
    assert merged["recurse"] is True
    assert merged["links_to_skip"] == ["skip-me"]


def test_find_config(tmp_path):
    assert find_config(str(tmp_path)) is None
    (tmp_path / "linkinator.config.json").write_text("{}")
    assert find_config(str(tmp_path)) is not None


def test_options_from_config_roundtrip(tmp_path):
    cfg = {"recurse": True, "check_css": True,
           "status_codes": {"403": "ok", "5xx": "skip"},
           "redirects": "warn"}
    opts = CheckOptions(paths=["x"], **cfg)
    assert opts.redirects.value == "warn"
    assert opts.status_codes == {"403": "ok", "5xx": "skip"}


def test_validate_status_codes_rejects():
    with pytest.raises(ValueError):
        validate_status_codes({"abc": "ok"})
    with pytest.raises(ValueError):
        validate_status_codes({"404": "explode"})
    assert validate_status_codes({"404": "ok", "4XX": "warn"}) == \
        {"404": "ok", "4xx": "warn"}


def test_concurrency_caps_fetch_pool():
    from linkinator_ray.pipelines.crawl import LinkChecker
    from linkinator_ray.sources import fixtures as fx
    fixture = fx.basic()
    checker = LinkChecker(
        CheckOptions(paths=fixture.seeds, concurrency=1, fetch_concurrency=8),
        fixture.documents, fixture.http_map)
    res = checker.check()
    assert res.passed  # single-connection crawl still completes


def test_url_rewrite_forms():
    opts = CheckOptions(paths=["x"], url_rewrites=[
        ("foo", "bar"),
        {"pattern": "a+", "replacement": "b"},
    ])
    assert opts.url_rewrites[0].pattern.pattern == "foo"
    assert opts.url_rewrites[1].replacement == "b"
    with pytest.raises(ValueError):
        CheckOptions(paths=["x"], url_rewrites=["not-a-pair"])


def test_toml_config_flavor(tmp_path):
    """TOML config flavor (the Python-world analogue of the reference's
    .js/.mjs/.cjs flavors, src/config.ts:35-118)."""
    from linkinator_ray.options import find_config, load_config, merge_config
    cfg = tmp_path / "linkinator.config.toml"
    cfg.write_text('concurrency = 7\nrecurse = true\n'
                   'links_to_skip = ["^http://skip"]\n')
    loaded = load_config(str(cfg))
    assert loaded == {"concurrency": 7, "recurse": True,
                      "links_to_skip": ["^http://skip"]}
    merged = merge_config({"concurrency": 9, "recurse": None}, loaded)
    assert merged["concurrency"] == 9 and merged["recurse"] is True
    # discovery order: json wins over toml when both exist
    assert find_config(str(tmp_path)) == str(cfg)
    (tmp_path / "linkinator.config.json").write_text('{"concurrency": 1}')
    assert find_config(str(tmp_path)).endswith(".json")


# --- JS config flavors (test/test.config.ts js/mjs/cjs suites) ---

JS_BODY = """{
\t// static linkinator config
\tformat: 'json',
\trecurse: true,
\tsilent: true,
\tconcurrency: 17,
\tskip: 'oranges',
\tdirectoryListing: false,
}"""


@pytest.mark.parametrize("name,prefix", [
    ("linkinator.config.js", "export default "),
    ("linkinator.config.mjs", "export default "),
    ("linkinator.config.cjs", "module.exports = "),
])
def test_load_js_config_flavors(tmp_path, name, prefix):
    cfg = tmp_path / name
    cfg.write_text(prefix + JS_BODY + ";\n")
    loaded = load_config(str(cfg))
    assert loaded == {"format": "json", "recurse": True, "silent": True,
                      "concurrency": 17, "skip": "oranges",
                      "directoryListing": False}


def test_js_config_literal_features(tmp_path):
    cfg = tmp_path / "linkinator.config.mjs"
    cfg.write_text("""
/* multi-line
   header comment */
const config = {
  "quoted-key": [1, 2.5, -3, 0x10, 'a', "b", `tmpl`],  // trailing , next
  nested: { deep: { ok: true, }, none: null, undef: undefined },
  esc: 'a\\n\\u0041\\u{1F600}b',
};
export default config;
""")
    loaded = load_config(str(cfg))
    assert loaded["quoted-key"] == [1, 2.5, -3, 16, "a", "b", "tmpl"]
    assert loaded["nested"] == {"deep": {"ok": True}, "none": None,
                               "undef": None}
    assert loaded["esc"] == "a\nA\U0001F600b"


def test_js_config_computed_rejected(tmp_path):
    cfg = tmp_path / "linkinator.config.js"
    cfg.write_text("module.exports = { skip: buildSkips() };\n")
    with pytest.raises(ValueError, match="computed"):
        load_config(str(cfg))
    cfg.write_text("const x = 1;\n")
    with pytest.raises(ValueError, match="export"):
        load_config(str(cfg))


def test_invalid_config_extension(tmp_path):
    # src/config.ts:105-110: unknown extension is an error;
    # test.config.ts 'should throw with invalid config extensions'
    cfg = tmp_path / "invalid_extension.cfg"
    cfg.write_text("{}")
    with pytest.raises(ValueError, match="extensions"):
        load_config(str(cfg))


def test_no_extension_defaults_to_json(tmp_path):
    # src/config.ts:100: missing extension => json for back-compat
    cfg = tmp_path / "linkconfig"
    cfg.write_text(json.dumps({"recurse": True}))
    assert load_config(str(cfg)) == {"recurse": True}


def test_bad_json_clear_error(tmp_path):
    cfg = tmp_path / "linkinator.config.json"
    cfg.write_text("{not json]")
    with pytest.raises(ValueError, match="Error parsing"):
        load_config(str(cfg))


def test_find_config_flavor_precedence(tmp_path):
    (tmp_path / "linkinator.config.cjs").write_text("module.exports = {};")
    (tmp_path / "linkinator.config.js").write_text("export default {};")
    assert find_config(str(tmp_path)).endswith(".js")
    (tmp_path / "linkinator.config.json").write_text("{}")
    assert find_config(str(tmp_path)).endswith(".json")


def test_js_parser_accepts_arbitrary_json():
    """Property: every JSON document is ALSO a valid JS object literal,
    so parse_js_config(export default <json>) must round-trip it."""
    from hypothesis import given, settings, strategies as st

    from linkinator_ray.options import parse_js_config

    json_vals = st.recursive(
        st.none() | st.booleans() | st.integers(-10**9, 10**9)
        | st.floats(allow_nan=False, allow_infinity=False, width=32)
        | st.text(max_size=20),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=10), inner, max_size=4),
        max_leaves=12)

    @given(st.dictionaries(st.text(max_size=10), json_vals, max_size=5))
    @settings(max_examples=150, deadline=None)
    def check(obj):
        src = "export default " + json.dumps(obj) + ";\n"
        assert parse_js_config(src) == obj

    check()


def test_skip_rule_given_as_one_string():
    """A skip option given as one string is one pattern: the check gives
    the same results as with a one-element list (a string iterated one
    character at a time made '/' a pattern that skips every URL)."""
    from linkinator_ray.pipelines.crawl import LinkChecker
    from linkinator_ray.sources import fixtures as fx
    fixture = fx.recurse()

    def rows(skip):
        opts = CheckOptions(paths=fixture.seeds, links_to_skip=skip,
                            **fixture.options)
        res = LinkChecker(opts, fixture.documents, fixture.http_map).check()
        return sorted((r["url"], r["state"]) for r in res.results.to_pylist())

    as_list = rows(["zzz/x"])
    assert len(as_list) == 4
    assert rows("zzz/x") == as_list
    assert CheckOptions(paths=["x"], fragments_to_skip="a/b") \
        .fragments_to_skip == ["a/b"]
