"""Status classification: fetch results → OK / BROKEN / SKIPPED.

Vectorized re-expression of the reference's classification chain
(/root/reference/src/index.ts:481-604) plus the status-code action map
(:1314-1361) and redirect detection (:1370-1395). Runs as a pure
``map_batches`` kernel over FETCH_RESULTS batches — numpy masks, no
per-row Python in the decision logic; failure-detail JSON is built only
for the (typically small) BROKEN subset.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from linkinator_ray.options import CheckOptions, LinkState, RedirectsMode, RequireHttpsMode
from linkinator_ray.urlkit import nonempty

HTML_TYPES = ("text/html", "application/xhtml+xml")
CSS_TYPES = ("text/css",)


def status_code_action(status: int, status_codes: dict[str, str]) -> str | None:
    """Exact match beats 4xx/5xx wildcard (src/index.ts:1339-1361)."""
    if not status_codes:
        return None
    exact = status_codes.get(str(status))
    if exact:
        return exact
    for pattern, action in status_codes.items():
        if pattern.endswith("xx") and len(pattern) == 3 and pattern[0] == str(status // 100):
            return action
    return None


def classify_batch(batch: pa.Table, opts: CheckOptions,
                   static_host: str | None = None,
                   content: tuple | None = None) -> dict:
    """Classify a FETCH_RESULTS batch.

    Returns dict with numpy arrays: ``state`` (unicode), ``failure``
    (object: JSON or ''), plus event masks ``warn_status`` /
    ``warn_redirect`` / ``warn_insecure`` for counters. ``content`` is
    the rows' (HTML, CSS) content-type masks, when the caller has them
    already (``content_masks`` of the content_type column).
    """
    n = batch.num_rows
    status = batch["status"].to_numpy(zero_copy_only=False).astype(np.int64)
    has_body = batch["has_body"].to_numpy(zero_copy_only=False)
    has_location = batch["has_location"].to_numpy(zero_copy_only=False)
    cf_mitigated = batch["cf_mitigated"].to_numpy(zero_copy_only=False)
    urls = batch["url"]
    final_urls = batch["final_url"]
    # the request produced some response
    has_response = nonempty(final_urls)

    # redirect detection (src/index.ts:1370-1395)
    is_redirect = (status >= 300) & (status < 400)
    url_changed = has_response & _mask(pc.not_equal(final_urls, urls))
    was_followed = url_changed | (is_redirect & has_body)

    # custom status-code actions, vectorized over distinct statuses
    action = np.full(n, "", dtype=object)
    if opts.status_codes:
        for st in np.unique(status):
            act = status_code_action(int(st), opts.status_codes)
            if act:
                action[status == st] = act

    ok2xx = (status >= 200) & (status < 300)
    nonstandard_ok = is_redirect & was_followed & has_body

    mode = opts.redirects
    if mode == RedirectsMode.ERROR:
        mode_ok = ok2xx & ~is_redirect
        mode_broken_redirect = is_redirect
    else:  # allow and warn share the success conditions (src/index.ts:542-576)
        mode_ok = ok2xx | nonstandard_ok
        mode_broken_redirect = np.zeros(n, dtype=bool)

    # (condition, state), the first that holds wins
    rules = [
        (status == 999, "SKIPPED"),  # bot-protection skip
        # Cloudflare challenge skip
        ((status == 403) & cf_mitigated & has_response, "SKIPPED"),
        (mode_broken_redirect, "BROKEN"),
        (mode_ok, "OK"),
    ]
    if opts.status_codes:
        rules[:0] = [
            (np.asarray(action == "ok") | np.asarray(action == "warn"), "OK"),
            (np.asarray(action == "skip"), "SKIPPED"),
            (np.asarray(action == "error"), "BROKEN"),
        ]
    state = np.full(n, "BROKEN", dtype=object)
    for cond, verdict in reversed(rules):
        state[cond] = verdict

    # HTTPS enforcement overrides (src/index.ts:578-604); the corpus'
    # synthetic http host is exempt like the reference's local server
    warn_insecure = np.zeros(n, dtype=bool)
    if opts.require_https != RequireHttpsMode.OFF:
        is_http = _mask(pc.starts_with(urls, "http://"))
        if static_host:
            is_http &= ~_mask(pc.starts_with(urls, static_host))
        if opts.require_https == RequireHttpsMode.ERROR:
            state[is_http] = "BROKEN"
        else:
            warn_insecure = is_http

    # failure details only for BROKEN rows
    failure = np.full(n, "", dtype=object)
    broken_idx = np.flatnonzero(state == "BROKEN")
    detail_cols = ("url", "final_url", "error_details")
    broken = batch.select(detail_cols).take(pa.array(broken_idx)) \
        .to_pydict() if len(broken_idx) else dict.fromkeys(detail_cols, [])
    for i, url, final_url, errors in zip(broken_idx, *broken.values()):
        details = []
        if errors:
            details.extend(json.loads(errors))
        if has_response[i]:
            # HttpResponse-shaped record (the reference keeps the full
            # response object, src/index.ts:131-137): status + the
            # final URL after any followed redirects
            details.append({"status": int(status[i]),
                            "url": final_url or url})
        if action[i] == "error":
            details.append({"error": f"status {int(status[i])} mapped to error"})
        if opts.redirects == RedirectsMode.ERROR and is_redirect[i]:
            details.append({"error": "Redirect detected but redirects are disabled"})
        if opts.require_https == RequireHttpsMode.ERROR and url.startswith("http://") \
                and not (static_host and url.startswith(static_host)):
            details.append({"error": "HTTP link detected but HTTPS is required"})
        failure[i] = json.dumps(details)

    html, css = content if content is not None else content_masks(
        batch["content_type"], HTML_TYPES, CSS_TYPES)
    return {
        "state": state,
        "failure": failure,
        "warn_status": np.asarray(action == "warn"),
        "warn_redirect": (is_redirect | was_followed) if mode == RedirectsMode.WARN
        else np.zeros(n, dtype=bool),
        "warn_insecure": warn_insecure,
        "should_recurse_html": html,
        "should_recurse_css": css,
    }


def _mask(values) -> np.ndarray:
    return values.to_numpy(zero_copy_only=False)


def content_masks(content_type, *needle_sets: tuple[str, ...]) -> list:
    """For each tuple of needles, the rows of a content-type column that
    contain any of them (a null type contains none). A batch holds few
    distinct types: each is matched once in Python, and every row takes
    its type's answer."""
    if isinstance(content_type, pa.ChunkedArray):
        content_type = content_type.combine_chunks()
    if content_type.null_count:
        content_type = content_type.fill_null("")
    enc = pc.dictionary_encode(content_type)
    types = enc.dictionary.to_pylist()
    codes = enc.indices.to_numpy(zero_copy_only=False)
    return [np.array([any(x in t for x in needles) for t in types],
                     dtype=bool)[codes] for needles in needle_sets]


def should_retry_error_mask(status: np.ndarray, attempt: np.ndarray,
                            retry_after_epoch: np.ndarray,
                            opts: CheckOptions) -> np.ndarray:
    """retryErrors gate (src/index.ts:1069-1088): status 0, 5xx, or 429
    without usable retry-after, while attempts remain."""
    if not opts.retry_errors:
        return np.zeros(len(status), dtype=bool)
    eligible = (status == 0) | (status >= 500) | ((status == 429) & (retry_after_epoch == 0))
    return eligible & (attempt < opts.retry_errors_count)


# the retry-backoff jitter's seed: mesh node i draws from one generator
# seeded with JITTER_SEED + i (a Ray-free check's one node, with it)
JITTER_SEED = 42


def backoff_delays(attempts: np.ndarray, opts: CheckOptions, rng) -> np.ndarray:
    """2^n seconds + U(0, jitter) (src/index.ts:1090-1092); rng is seeded
    from JITTER_SEED, so tests are deterministic."""
    base = np.power(2.0, attempts + 1)
    jitter = rng.random(len(attempts)) * opts.retry_errors_jitter
    return base + jitter
