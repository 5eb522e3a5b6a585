"""CLI entry point — the reference's ``linkinator LOCATION [flags]``
surface (/root/reference/src/cli.ts) over the Ray engine.

    python -m linkinator_ray.cli CORPUS.parquet PATH [flags]

The first positional is the corpus (a documents parquet/lance table);
remaining positionals are seed paths/globs into it (the reference's
LOCATION). Flag names mirror the reference's (src/cli.ts:18-176).
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def parse_headers(values: list[str]) -> dict[str, str]:
    """'Name:value' pairs (src/cli.ts:221-243)."""
    out = {}
    for value in values:
        if ":" not in value:
            raise SystemExit(f"invalid header (expected Name:value): {value!r}")
        name, _, val = value.partition(":")
        out[name.strip()] = val.strip()
    return out


def parse_status_codes(values: list[str]) -> dict[str, str]:
    """'CODE:ACTION' pairs (src/cli.ts:411-437)."""
    out = {}
    for value in values:
        code, _, action = value.partition(":")
        if not action:
            raise SystemExit(f"invalid status-code rule (CODE:ACTION): {value!r}")
        out[code.strip()] = action.strip().lower()
    return out


def split_list(values: list[str]) -> list[str]:
    """comma/space-separated skip lists (src/cli.ts:363-390)."""
    out = []
    for value in values:
        out.extend(p for p in value.replace(",", " ").split() if p)
    return out


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="linkinator-ray",
                                description=__doc__.split("\n")[0])
    p.add_argument("corpus", help="documents table (parquet/lance)")
    p.add_argument("paths", nargs="+", help="seed doc paths / globs / URLs")
    p.add_argument("--recurse", "-r", action="store_true")
    p.add_argument("--skip", "-s", action="append", default=[],
                   help="regex of URLs to skip (repeatable, comma/space lists)")
    p.add_argument("--format", "-f", choices=["text", "json", "csv"],
                   default=None)
    p.add_argument("--verbosity", choices=["none", "error", "warning", "info", "debug"],
                   default=None)
    p.add_argument("--silent", action="store_true",
                   help="only output broken links (verbosity=error; "
                        "conflicts with --verbosity — src/cli.ts:607-620)")
    p.add_argument("--concurrency", type=int, default=100)
    p.add_argument("--timeout", type=float, default=0)
    p.add_argument("--markdown", action="store_true")
    p.add_argument("--server-root", default=None)
    p.add_argument("--directory-listing", action="store_true")
    p.add_argument("--clean-urls", action="store_true",
                   help="resolve extensionless paths to .html (server.ts:119-143)")
    p.add_argument("--allow-insecure-certs", action="store_true",
                   help="accept self-signed/invalid TLS certificates")
    p.add_argument("--proxy", default=None,
                   help="HTTP(S) proxy URL (overrides *_proxy env vars)")
    p.add_argument("--retry", action="store_true")
    p.add_argument("--retry-errors", action="store_true")
    p.add_argument("--retry-errors-count", type=int, default=5)
    p.add_argument("--retry-errors-jitter", type=float, default=3.0)
    p.add_argument("--url-rewrite-search", default=None)
    p.add_argument("--url-rewrite-replace", default=None)
    p.add_argument("--user-agent", default=None)
    p.add_argument("--header", action="append", default=[])
    p.add_argument("--redirects", choices=["allow", "warn", "error"], default="allow")
    p.add_argument("--require-https", choices=["off", "warn", "error"], default="off")
    p.add_argument("--check-css", action="store_true")
    p.add_argument("--check-fragments", action="store_true")
    p.add_argument("--skip-fragment", action="append", default=[])
    p.add_argument("--status-codes", action="append", default=[],
                   help="CODE:ACTION (action: ok|warn|skip|error)")
    p.add_argument("--config", default=None, help="JSON config file")
    # engine knobs
    p.add_argument("--use-ray", action="store_true",
                   help="runs the actor mesh (starts a local Ray session "
                        "when none is running)")
    p.add_argument("--fetch-concurrency", type=int, default=8)
    p.add_argument("--checkpoint-dir", default=None)
    p.add_argument("--resume-from", default=None)
    p.add_argument("--output-parquet", default=None)
    return p


_LOG_LEVEL = {"debug": 0, "info": 1, "warning": 2, "error": 3, "none": 4}


def _register_live_output(checker, verbosity: str) -> None:
    """Live per-event lines for the TEXT format, mirroring the
    reference CLI's listeners (src/cli.ts:253-342 with the logger
    levels of src/logger.ts): retry/redirect/statusCodeWarning lines at
    warn level, link lines per state."""
    level = _LOG_LEVEL[verbosity]

    def warn(msg):
        if level <= 2:
            print(msg)

    def error(msg):
        if level <= 3:
            print(msg)

    def info(msg):
        if level <= 1:
            print(msg)

    checker.on("retry", lambda i: warn(
        f"Retrying: {i['url']} in {i['secondsUntilRetry']} seconds."))
    checker.on("redirect", lambda i: warn(
        f"[REDIRECT] {i['url']}"
        + (f" → {i['targetUrl']}" if i.get("targetUrl") else "")
        + f" ({i['status']}{' (non-standard)' if i.get('isNonStandard') else ''})"))
    checker.on("statusCodeWarning", lambda i: warn(
        f"[WARN] {i['url']} ({i['status']})"))

    def on_link(link):
        status = link["status"] if link["status"] is not None else ""
        if link["state"] == "BROKEN":
            error(f"[{status}] {link['url']}")
        elif link["state"] == "OK":
            warn(f"[{status}] {link['url']}")
        else:  # SKIPPED → info level (src/cli.ts:300-304)
            info(f"[SKP] {link['url']}")
    checker.on("link", on_link)


def _register_csv_output(checker, verbosity: str) -> None:
    """Streaming CSV rows per link event with the reference's header +
    shouldShowResult gating (src/cli.ts:248-251, :318-339)."""
    level = _LOG_LEVEL[verbosity]
    print("url,status,state,parent,failureDetails")

    def esc(field) -> str:
        field = "" if field is None else str(field)
        if any(ch in field for ch in ',"\n'):
            return '"' + field.replace('"', '""') + '"'
        return field

    def on_link(link):
        state = link["state"]
        show = ((state == "OK" and level <= 2)
                or (state == "BROKEN" and level <= 3)
                or (state == "SKIPPED" and level <= 1))
        if not show:
            return
        status = link["status"] if link["status"] is not None else ""
        details = link["failureDetails"] if level <= 0 else ""
        print(f"{esc(link['url'])},{status},{state},"
              f"{esc(link['parent'] or '')},{esc(details)}")
    checker.on("link", on_link)


def main(argv: list[str] | None = None) -> int:
    from linkinator_ray.options import (
        CheckOptions, load_config, merge_config, normalize_config_keys)
    from linkinator_ray.pipelines.crawl import LinkChecker
    from linkinator_ray.sources.documents import read_documents
    from linkinator_ray.stages import report

    args = build_parser().parse_args(argv)
    flags = {
        "paths": args.paths, "recurse": args.recurse,
        "links_to_skip": split_list(args.skip) or None,
        "concurrency": args.concurrency, "timeout": args.timeout or None,
        "markdown": args.markdown or None, "server_root": args.server_root,
        "directory_listing": args.directory_listing or None,
        "clean_urls": args.clean_urls or None,
        "allow_insecure_certs": args.allow_insecure_certs or None,
        "proxy": args.proxy,
        "retry": args.retry or None, "retry_errors": args.retry_errors or None,
        "retry_errors_count": args.retry_errors_count,
        "retry_errors_jitter": args.retry_errors_jitter,
        "user_agent": args.user_agent,
        "headers": parse_headers(args.header) or None,
        "redirects": args.redirects, "require_https": args.require_https,
        "check_css": args.check_css or None,
        "check_fragments": args.check_fragments or None,
        "fragments_to_skip": split_list(args.skip_fragment) or None,
        "status_codes": parse_status_codes(args.status_codes) or None,
        "fetch_concurrency": args.fetch_concurrency,
        "checkpoint_dir": args.checkpoint_dir,
    }
    if args.url_rewrite_search and args.url_rewrite_replace:
        flags["url_rewrites"] = [(args.url_rewrite_search, args.url_rewrite_replace)]
    elif bool(args.url_rewrite_search) != bool(args.url_rewrite_replace):
        raise SystemExit("--url-rewrite-search and --url-rewrite-replace "
                         "must be used together")
    config = normalize_config_keys(load_config(args.config)) if args.config else {}
    config.pop("config", None)
    # CLI-level keys configure output, not CheckOptions; flag wins over
    # config, silent ⇒ verbosity ERROR (src/cli.ts:607-620)
    # pop unconditionally: `or` would short-circuit past the pop when
    # --silent is passed, leaking `silent` into CheckOptions(**merged)
    config_silent = bool(config.pop("silent", False))
    silent = bool(args.silent) or config_silent
    if silent and (args.verbosity or config.get("verbosity")):
        raise SystemExit("The SILENT and VERBOSITY flags cannot both be "
                         "defined. Please consider using VERBOSITY only.")
    args.format = args.format or config.pop("format", None) or "text"
    args.verbosity = (args.verbosity or config.pop("verbosity", None)
                      or ("error" if silent else "warning"))
    merged = merge_config({k: v for k, v in flags.items()}, config)
    merged = {k: v for k, v in merged.items() if v is not None}
    merged.setdefault("links_to_skip", [])
    merged.setdefault("fragments_to_skip", [])
    merged.setdefault("timeout", 0.0)
    opts = CheckOptions(**merged)

    import pyarrow.parquet as pq
    documents = pq.read_table(args.corpus)

    if args.use_ray:
        import ray
        if not ray.is_initialized():
            ray.init(address="local", include_dashboard=False,
                     logging_level="ERROR")

    t0 = time.time()
    checker = LinkChecker(opts, documents, use_ray=args.use_ray)
    if args.format == "text":
        _register_live_output(checker, args.verbosity)
    elif args.format == "csv":
        _register_csv_output(checker, args.verbosity)
    result = checker.check(resume_from=args.resume_from)
    elapsed = time.time() - t0

    shown = report.strip_failure_details(
        report.filter_verbosity(result.results, args.verbosity), args.verbosity)
    if args.format == "json":
        print(report.render_json(shown, result.passed))
    elif args.format == "csv":
        pass  # rows streamed live per link event (src/cli.ts:318-339)
    else:
        # render_text filters rows itself; totals come from the full set.
        print(report.render_text(result.results, elapsed, checker.static_host,
                                 opts.server_root, verbosity=args.verbosity))
    if args.output_parquet:
        report.write_results_parquet(result.results, args.output_parquet)
    if args.use_ray:
        import ray
        ray.shutdown()
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
