"""CLI + reporters (reference: test/test.cli.ts; src/cli.ts reporters)."""

import json
import subprocess
import sys

import pyarrow.parquet as pq
import pytest

from linkinator_ray.options import CheckOptions
from linkinator_ray.pipelines.crawl import LinkChecker
from linkinator_ray.sources import fixtures as fx
from linkinator_ray.stages import report


@pytest.fixture(scope="module")
def broke_result():
    fixture = fx.repeated_broken_link()
    checker = LinkChecker(CheckOptions(paths=fixture.seeds, **fixture.options),
                          fixture.documents, fixture.http_map)
    return checker.check()


def test_summarize(broke_result):
    s = report.summarize(broke_result.results)
    assert not s["passed"]
    assert s["broken"] == 4
    assert s["scanned"] == s["total"]


def test_render_json_roundtrip(broke_result):
    payload = json.loads(report.render_json(broke_result.results,
                                            broke_result.passed))
    assert payload["passed"] is False
    assert len(payload["links"]) == broke_result.results.num_rows
    assert {"url", "status", "state", "parent", "failureDetails"} <= \
        set(payload["links"][0])


def test_render_csv_quoting(broke_result):
    out = report.render_csv(broke_result.results)
    lines = out.strip().splitlines()
    assert lines[0] == "url,status,state,parent,failureDetails"
    assert len(lines) == broke_result.results.num_rows + 1


def test_render_text_totals(broke_result):
    out = report.render_text(broke_result.results, 1.5)
    assert "FAILED :(" in out
    assert "4 broken" in out


def test_verbosity_filter(broke_result):
    errors = report.filter_verbosity(broke_result.results, "error")
    assert set(errors["state"].to_pylist()) == {"BROKEN"}
    none = report.filter_verbosity(broke_result.results, "none")
    assert none.num_rows == 0


def test_map_url():
    assert report.map_url("http://corpus.test/a/b.html",
                          "http://corpus.test/", None) == "a/b.html"
    assert report.map_url("http://corpus.test/a.html",
                          "http://corpus.test/", "/site") == "/site/a.html"
    assert report.map_url("http://other.test/x", "http://corpus.test/",
                          None) == "http://other.test/x"


def test_results_parquet_partitions(broke_result, tmp_path):
    out = str(tmp_path / "res")
    report.write_results_parquet(broke_result.results, out)
    broken = pq.read_table(f"{out}/state=BROKEN.parquet")
    assert broken.num_rows == 4


def test_cli_end_to_end(tmp_path):
    """Subprocess CLI run over a written corpus (reference test.cli.ts)."""
    fixture = fx.broke()
    corpus_path = str(tmp_path / "docs.parquet")
    pq.write_table(fixture.documents, corpus_path)
    # the broke fixture needs its mock http_map; the CLI exercises the
    # corpus-only path instead: scan a self-contained corpus
    fixture2 = fx.recurse()
    corpus2 = str(tmp_path / "docs2.parquet")
    pq.write_table(fixture2.documents, corpus2)
    proc = subprocess.run(
        [sys.executable, "-m", "linkinator_ray.cli", corpus2, "recurse/",
         "--recurse", "--format", "json", "--verbosity", "debug",
         "--skip", "example.invalid"],
        capture_output=True, text=True, cwd="/root/repo")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["passed"] is True
    assert len(payload["links"]) == 4


def test_cli_exit_code_broken(tmp_path):
    docs = fx.docs_table(
        fx.doc("site/index.html", fx._anchor("missing.html")))
    corpus = str(tmp_path / "docs.parquet")
    pq.write_table(docs, corpus)
    proc = subprocess.run(
        [sys.executable, "-m", "linkinator_ray.cli", corpus, "site/",
         "--format", "csv"],
        capture_output=True, text=True, cwd="/root/repo")
    assert proc.returncode == 1
    assert "BROKEN" in proc.stdout


def test_cli_bad_rewrite_flags(tmp_path):
    docs = fx.docs_table(fx.doc("a/index.html", fx.span("text", "", "x")))
    corpus = str(tmp_path / "docs.parquet")
    pq.write_table(docs, corpus)
    proc = subprocess.run(
        [sys.executable, "-m", "linkinator_ray.cli", corpus, "a/",
         "--url-rewrite-search", "foo"],
        capture_output=True, text=True, cwd="/root/repo")
    assert proc.returncode != 0
    assert "together" in proc.stderr


def test_verbosity_matrix(broke_result):
    """shouldShowResult semantics (src/cli.ts:647-665): OK at <=warning,
    BROKEN at <=error, SKIPPED at <=info."""
    import pyarrow as pa
    table = pa.table({
        "url": ["a", "b", "c"],
        "status": pa.array([200, 404, None], pa.int32()),
        "state": ["OK", "BROKEN", "SKIPPED"],
        "parent": ["p", "p", "p"],
        "failure_details": ["", "[x]", ""],
    })
    assert set(report.filter_verbosity(table, "warning")["state"].to_pylist()) \
        == {"OK", "BROKEN"}
    assert set(report.filter_verbosity(table, "info")["state"].to_pylist()) \
        == {"OK", "BROKEN", "SKIPPED"}
    assert set(report.filter_verbosity(table, "debug")["state"].to_pylist()) \
        == {"OK", "BROKEN", "SKIPPED"}
    assert report.filter_verbosity(table, "error")["state"].to_pylist() == ["BROKEN"]
    assert report.filter_verbosity(table, "none").num_rows == 0
    # failureDetails retained only at debug (src/cli.ts:654-656)
    stripped = report.strip_failure_details(table, "warning")
    assert stripped["failure_details"].to_pylist() == ["", "", ""]
    assert report.strip_failure_details(table, "debug")["failure_details"] \
        .to_pylist() == ["", "[x]", ""]


def test_render_text_totals_unfiltered(broke_result):
    """Totals count the FULL result set even when rows are filtered
    (cli.ts:563-588 computes totals from result.links unfiltered)."""
    out = report.render_text(broke_result.results, 1.0, verbosity="error")
    s = report.summarize(broke_result.results)
    assert f"{s['scanned']} links scanned" in out
    # only BROKEN rows rendered
    assert "[ OK ]" not in out
    assert "[FAIL]" in out


@pytest.mark.parametrize("pipelined", [False, True],
                         ids=["rounds", "pipelined"])
def test_event_listener_surface(pipelined, request):
    """§2.8 parity: link / pagestart / redirect / retry /
    statusCodeWarning events fire at the reference's emit points
    (src/index.ts:496, :546, :614, :677, :1058), in both driver
    executors."""
    from linkinator_ray.state.clock import FakeClock
    events = {"link": [], "pagestart": [], "redirect": [], "retry": [],
              "statusCodeWarning": []}
    docs = fx.docs_table(
        fx.doc("ev/index.html",
               fx._anchor("/ev/redir.html"),
               fx._anchor("http://flaky.invalid/x"),
               fx._anchor("http://warny.invalid/y")))
    http_map = [
        fx.http("http://corpus.test/ev/redir.html", 302,
                headers={"location": "/ev/index.html"}),
        fx.http("http://flaky.invalid/x", 429, retry_after="1", seq=0),
        fx.http("http://flaky.invalid/x", 200, seq=1),
        fx.http("http://warny.invalid/y", 403),
    ]
    if pipelined:
        request.getfixturevalue("ray_session")
    opts = CheckOptions(paths=["ev/index.html"], recurse=True, retry=True,
                        redirects="warn", status_codes={"403": "warn"})
    checker = LinkChecker(opts, docs, http_map, clock=FakeClock(),
                          use_ray=pipelined)
    for name, bucket in events.items():
        checker.on(name, bucket.append)
    result = checker.check()
    assert result.passed
    assert {e["url"] for e in events["link"]} >= {
        "http://corpus.test/ev/index.html", "http://flaky.invalid/x"}
    assert "http://corpus.test/ev/index.html" in events["pagestart"]
    assert any(e["url"] == "http://corpus.test/ev/redir.html"
               for e in events["redirect"])
    assert any(e["url"] == "http://flaky.invalid/x" for e in events["retry"])
    assert any(e["url"] == "http://warny.invalid/y"
               for e in events["statusCodeWarning"])


@pytest.mark.parametrize("pipelined", [False, True],
                         ids=["rounds", "pipelined"])
def test_warn_listeners_on_all_skipped_round(pipelined, request):
    """A round whose frontier is all skipped links fetches nothing; the
    redirect / statusCodeWarning / httpInsecure listeners (the CLI's
    text format registers the first two) must not trip over the empty
    batch."""
    if pipelined:
        request.getfixturevalue("ray_session")
    f = fx.protocols()
    checker = LinkChecker(
        CheckOptions(paths=f.seeds, **f.options),
        f.documents, f.http_map, use_ray=pipelined)
    events = []
    for name in ("redirect", "statusCodeWarning", "httpInsecure"):
        checker.on(name, events.append)
    result = checker.check()
    assert result.passed and events == []
    states = result.results.column("state").to_pylist()
    assert states.count("SKIPPED") == 3


def test_cli_live_retry_redirect_lines(tmp_path):
    """CLI text mode renders live retry/redirect/warn lines like the
    reference (src/cli.ts:253-267)."""
    docs = fx.docs_table(
        fx.doc("live/index.html", fx._anchor("/live/redir.html")))
    corpus = str(tmp_path / "docs.parquet")
    pq.write_table(docs, corpus)
    # corpus-only run: a dir redirect produces a real [REDIRECT] line
    docs2 = fx.docs_table(
        fx.doc("live/index.html", fx._anchor("/live/sub")),
        fx.doc("live/sub/index.html", fx.span("text", "", "hi")))
    corpus2 = str(tmp_path / "docs2.parquet")
    pq.write_table(docs2, corpus2)
    proc = subprocess.run(
        [sys.executable, "-m", "linkinator_ray.cli", corpus2, "live/",
         "--recurse", "--redirects", "warn", "--verbosity", "warning"],
        capture_output=True, text=True, cwd="/root/repo")
    assert proc.returncode == 0, proc.stderr
    assert "[REDIRECT] http://corpus.test/live/sub" in proc.stdout
    assert "[200] http://corpus.test/live/" in proc.stdout


def test_cli_config_file_toml(tmp_path):
    """--config with the TOML flavor merges under CLI flags."""
    docs = fx.docs_table(
        fx.doc("cfg/index.html", fx._anchor("/cfg/a.html")),
        fx.doc("cfg/a.html", fx.span("text", "", "hi")))
    corpus = str(tmp_path / "docs.parquet")
    pq.write_table(docs, corpus)
    cfg = tmp_path / "linkinator.config.toml"
    cfg.write_text("recurse = true\nconcurrency = 5\n")
    proc = subprocess.run(
        [sys.executable, "-m", "linkinator_ray.cli", corpus, "cfg/",
         "--config", str(cfg), "--format", "json", "--verbosity", "debug"],
        capture_output=True, text=True, cwd="/root/repo")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    # recursion from the config file reached a.html
    assert any(l["url"].endswith("/cfg/a.html") for l in payload["links"])


def test_cli_csv_format_and_verbosity(tmp_path):
    docs = fx.docs_table(
        fx.doc("csvv/index.html", fx._anchor("/csvv/missing.html"),
               fx._anchor("mailto:x@y.z")))
    corpus = str(tmp_path / "docs.parquet")
    pq.write_table(docs, corpus)
    proc = subprocess.run(
        [sys.executable, "-m", "linkinator_ray.cli", corpus, "csvv/",
         "--format", "csv", "--verbosity", "error"],
        capture_output=True, text=True, cwd="/root/repo")
    assert proc.returncode == 1
    lines = [l for l in proc.stdout.strip().splitlines() if "," in l]
    assert lines[0] == "url,status,state,parent,failureDetails"
    # error verbosity: BROKEN rows only — the mailto SKIP is hidden
    states = [l.split(",")[2] for l in lines[1:]]
    assert states and set(states) == {"BROKEN"}


def test_cli_url_rewrite(tmp_path):
    """--url-rewrite-search/replace rewrites before fetching
    (src/index.ts:311-318)."""
    docs = fx.docs_table(
        fx.doc("rw/index.html", fx._anchor("/rw/old-name.html")),
        fx.doc("rw/new-name.html", fx.span("text", "", "hi")))
    corpus = str(tmp_path / "docs.parquet")
    pq.write_table(docs, corpus)
    proc = subprocess.run(
        [sys.executable, "-m", "linkinator_ray.cli", corpus, "rw/",
         "--recurse", "--url-rewrite-search", "old-name",
         "--url-rewrite-replace", "new-name", "--format", "json",
         "--verbosity", "debug"],
        capture_output=True, text=True, cwd="/root/repo")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    urls = [l["url"] for l in payload["links"]]
    assert any(u.endswith("/rw/new-name.html") for u in urls)
    assert not any(u.endswith("/rw/old-name.html") for u in urls)


def test_cli_clean_urls_flag(tmp_path):
    """--clean-urls resolves extensionless links to .html
    (server.ts:119-143); without it the same link is a 404."""
    docs = fx.docs_table(
        fx.doc("cu/index.html", fx._anchor("/cu/about")),
        fx.doc("cu/about.html", fx.span("text", "", "about page")))
    corpus = str(tmp_path / "docs.parquet")
    pq.write_table(docs, corpus)
    base = [sys.executable, "-m", "linkinator_ray.cli", corpus, "cu/",
            "--recurse", "--format", "json", "--verbosity", "debug"]
    without = subprocess.run(base, capture_output=True, text=True,
                             cwd="/root/repo")
    assert without.returncode == 1
    with_flag = subprocess.run(base + ["--clean-urls"], capture_output=True,
                               text=True, cwd="/root/repo")
    assert with_flag.returncode == 0, with_flag.stderr
    assert json.loads(with_flag.stdout)["passed"] is True


def test_cli_allow_insecure_certs_flag_parses(tmp_path):
    """--allow-insecure-certs and --proxy plumb into CheckOptions (the
    TLS/proxy behavior itself is loopback-tested in test_tls/
    test_http_transport)."""
    from linkinator_ray.cli import build_parser
    args = build_parser().parse_args(
        ["corpus.parquet", "x/", "--allow-insecure-certs",
         "--clean-urls", "--proxy", "http://proxy:8080"])
    assert args.allow_insecure_certs is True
    assert args.clean_urls is True
    assert args.proxy == "http://proxy:8080"


def test_cli_markdown_auto_detect(tmp_path):
    """.md seed auto-enables markdown mode (src/options.ts:156-164)."""
    from linkinator_ray.stages.htmlparse import markdown_to_spans
    docs = fx.docs_table(
        {"doc_id": "md/readme.md",
         "spans": markdown_to_spans("# Title\n[link](/md/other.md)\n")},
        {"doc_id": "md/other.md",
         "spans": markdown_to_spans("plain text\n")})
    corpus = str(tmp_path / "docs.parquet")
    pq.write_table(docs, corpus)
    proc = subprocess.run(
        [sys.executable, "-m", "linkinator_ray.cli", corpus,
         "md/readme.md", "--recurse", "--format", "json",
         "--verbosity", "debug"],
        capture_output=True, text=True, cwd="/root/repo")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["passed"] is True
    assert any(l["url"].endswith("/md/other.md") for l in payload["links"])


def test_cli_reference_style_js_config(tmp_path):
    """A config written against the REFERENCE flag surface — camelCase
    keys, .mjs flavor, silent, skip string list — drives the CLI
    (src/cli.ts:146-173 + test/test.config.ts mjs suite)."""
    docs = fx.docs_table(
        fx.doc("jscfg/index.html",
               fx._anchor("/jscfg/a.html"), fx._anchor("/jscfg/skipme.html")),
        fx.doc("jscfg/a.html", fx.span("text", "", "hi")))
    corpus = str(tmp_path / "docs.parquet")
    pq.write_table(docs, corpus)
    cfg = tmp_path / "linkinator.config.mjs"
    cfg.write_text("""export default {
\tformat: 'json',
\trecurse: true,
\tverbosity: 'debug',
\tconcurrency: 17,
\tskip: 'skipme other-pattern',
\tdirectoryListing: false,
};
""")
    proc = subprocess.run(
        [sys.executable, "-m", "linkinator_ray.cli", corpus, "jscfg/",
         "--config", str(cfg)],
        capture_output=True, text=True, cwd="/root/repo")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)  # format came from the config
    urls = {l["url"]: l["state"] for l in payload["links"]}
    assert any(u.endswith("/jscfg/a.html") for u in urls)  # recursed
    skipped = [s for u, s in urls.items() if "skipme" in u]
    assert skipped == ["SKIPPED"]

    # silent in config ⇒ verbosity ERROR (src/cli.ts:614-616): OK and
    # SKIPPED links are pruned from the JSON payload, run still passes
    cfg.write_text("export default { format: 'json', recurse: true, "
                   "silent: true, skip: 'skipme' };\n")
    proc = subprocess.run(
        [sys.executable, "-m", "linkinator_ray.cli", corpus, "jscfg/",
         "--config", str(cfg)],
        capture_output=True, text=True, cwd="/root/repo")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["passed"] is True
    assert payload["links"] == []


def test_cli_silent_flag(tmp_path):
    """--silent as a first-class CLI flag (src/cli.ts:607-620):
    silent ⇒ verbosity ERROR (OK links suppressed from TEXT output),
    and --silent + --verbosity is the same conflict as via config."""
    fixture = fx.recurse()
    corpus = str(tmp_path / "docs.parquet")
    pq.write_table(fixture.documents, corpus)
    ok = subprocess.run(
        [sys.executable, "-m", "linkinator_ray.cli", corpus, "recurse/",
         "--recurse", "--silent", "--skip", "example.invalid"],
        capture_output=True, text=True, cwd="/root/repo")
    assert ok.returncode == 0, ok.stderr
    # ERROR verbosity: per-link OK lines filtered from the report body
    assert "[200]" not in ok.stdout
    conflict = subprocess.run(
        [sys.executable, "-m", "linkinator_ray.cli", corpus, "recurse/",
         "--silent", "--verbosity", "debug"],
        capture_output=True, text=True, cwd="/root/repo")
    assert conflict.returncode != 0
    assert "SILENT and VERBOSITY" in conflict.stderr


def test_cli_config_silent_verbosity_conflict(tmp_path):
    docs = fx.docs_table(fx.doc("s/index.html", fx.span("text", "", "x")))
    corpus = str(tmp_path / "docs.parquet")
    pq.write_table(docs, corpus)
    cfg = tmp_path / "linkinator.config.json"
    cfg.write_text('{"silent": true, "verbosity": "debug"}')
    proc = subprocess.run(
        [sys.executable, "-m", "linkinator_ray.cli", corpus, "s/",
         "--config", str(cfg)],
        capture_output=True, text=True, cwd="/root/repo")
    assert proc.returncode != 0
    assert "SILENT and VERBOSITY" in proc.stderr


def test_cli_silent_flag_plus_silent_config(tmp_path):
    """--silent together with {"silent": true} in the config (redundant
    but natural) must behave like either alone — the short-circuited
    `or` used to skip the config pop, leaking `silent` into
    CheckOptions(**merged) as an unexpected keyword."""
    fixture = fx.recurse()
    corpus = str(tmp_path / "docs.parquet")
    pq.write_table(fixture.documents, corpus)
    cfg = tmp_path / "linkinator.config.json"
    cfg.write_text('{"silent": true}')
    proc = subprocess.run(
        [sys.executable, "-m", "linkinator_ray.cli", corpus, "recurse/",
         "--recurse", "--silent", "--skip", "example.invalid",
         "--config", str(cfg)],
        capture_output=True, text=True, cwd="/root/repo")
    assert proc.returncode == 0, proc.stderr
    assert "[200]" not in proc.stdout  # silent ⇒ ERROR verbosity
