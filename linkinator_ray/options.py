"""Options / config surface of the engine.

Mirrors the reference's option surface (``CheckOptions`` at
/root/reference/src/options.ts:13-40 and its validation at :54-191) as a
plain dataclass — driver-side only, never shipped per batch. Regexes are
compiled once here and reused by every stage.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
import re
from collections.abc import Callable
from typing import Any


class LinkState(str, enum.Enum):
    """Per-URL verdict (reference: src/index.ts:94-98)."""

    OK = "OK"
    BROKEN = "BROKEN"
    SKIPPED = "SKIPPED"


class RedirectsMode(str, enum.Enum):
    """How 3xx responses are treated (src/options.ts:74, src/index.ts:503-553)."""

    ALLOW = "allow"
    WARN = "warn"
    ERROR = "error"


class RequireHttpsMode(str, enum.Enum):
    """http:// link policy (src/options.ts:114, src/index.ts:556-604)."""

    OFF = "off"
    WARN = "warn"
    ERROR = "error"


# statusCodes action vocabulary (src/index.ts:1314-1361)
STATUS_ACTIONS = ("ok", "warn", "skip", "error")

# any 3-digit code (999 bot-blocks are real) or a Nxx wildcard
_STATUS_PATTERN = re.compile(r"^(\d{3}|[1-9]xx)$", re.IGNORECASE)


def validate_status_codes(mapping: dict[str, str]) -> dict[str, str]:
    """Validate a statusCodes map {code-or-pattern: action}.

    Exact codes like "403" and wildcard patterns like "4xx"/"5xx" are
    accepted; exact beats pattern at lookup time
    (src/index.ts:1314-1361).
    """
    out: dict[str, str] = {}
    for key, action in mapping.items():
        key = str(key).lower()
        if not _STATUS_PATTERN.match(key):
            raise ValueError(f"invalid status code pattern: {key!r}")
        if action not in STATUS_ACTIONS:
            raise ValueError(f"invalid status code action: {action!r}")
        out[key] = action
    return out


@dataclasses.dataclass
class UrlRewrite:
    """One urlRewriteExpressions entry (src/options.ts:28, src/index.ts:311-318)."""

    pattern: re.Pattern
    replacement: str

    @classmethod
    def of(cls, pattern: str, replacement: str) -> "UrlRewrite":
        return cls(re.compile(pattern), replacement)


@dataclasses.dataclass
class CheckOptions:
    """Full conformance option surface (src/options.ts:13-40; SURVEY.md §2.9).

    ``paths`` are seed doc-ids/URLs into the documents corpus. Options
    that only make sense for a live network (port, proxy TLS agents) are
    accepted for API parity but inert against the mock/corpus transport.
    """

    paths: list[str] = dataclasses.field(default_factory=list)
    concurrency: int = 100  # per-fetch-actor async fan-out cap (src/index.ts:256-258)
    recurse: bool = False
    timeout: float = 0.0  # MILLISECONDS, 0 = no timeout (reference --timeout unit, src/cli.ts:118-119)
    markdown: bool = False
    links_to_skip: list[str] | Callable[[str], bool] = dataclasses.field(default_factory=list)
    server_root: str | None = None
    directory_listing: bool = False
    clean_urls: bool = False
    retry: bool = False  # honor 429 + Retry-After (src/index.ts:1019-1060)
    retry_errors: bool = False  # retry 5xx/0 with backoff (src/index.ts:1069-1109)
    retry_errors_count: int = 5  # src/index.ts:285
    retry_errors_jitter: float = 3.0  # seconds; src/index.ts:286 (3000 ms)
    url_rewrites: list[UrlRewrite] = dataclasses.field(default_factory=list)
    user_agent: str = "Mozilla/5.0 (compatible; linkinator-ray/0.1)"
    headers: dict[str, str] = dataclasses.field(default_factory=dict)
    redirects: RedirectsMode = RedirectsMode.ALLOW
    require_https: RequireHttpsMode = RequireHttpsMode.OFF
    allow_insecure_certs: bool = False
    proxy: str | None = None  # explicit HTTP(S) proxy URL; None → env https_proxy/HTTPS_PROXY/http_proxy/HTTP_PROXY (src/index.ts:17-62)
    check_css: bool = False
    check_fragments: bool = False
    fragments_to_skip: list[str] | Callable[[str], bool] = dataclasses.field(default_factory=list)
    status_codes: dict[str, str] = dataclasses.field(default_factory=dict)

    # --- engine knobs (no reference analogue; Ray-side physical tuning) ---
    execution: str = "auto"  # 'ray' runs the Ray actor mesh; 'local' and 'auto' run local rounds (LinkChecker's use_ray overrides it)
    transport: str = "mock"  # 'mock' (corpus/http_map) | 'http' (real stdlib HTTP, loopback-tested)
    fetch_concurrency: int = 8  # fetch actor-pool size
    seen_filter: str = "exact"  # 'exact' | 'cuckoo' (cuckoo at 10^10-URL scale)
    batch_size: int = 4096  # rows per Arrow batch in map_batches stages
    # accepted and inert: use_ray alone picks the mesh, and the URL-seen
    # set is sharded by mesh node. Kept only because perfbench/workloads.py
    # passes them; they go with the next benchmark change
    pipelined: bool = False
    mesh: bool = False
    seen_shards: int = 8
    mesh_frontier_spill_rows: int = 0  # per-node frontier queue cap; past it the tail spills to parquet (0 = unbounded in-memory)
    max_rounds: int = 10_000  # BFS safety valve (local rounds; a Ray check refuses a lower cap)
    checkpoint_dir: str | None = None  # checkpoints (frontier, key journal, lineage) after every round, or every mesh epoch
    checkpoint_interval_s: float = 10.0  # mesh mode: seconds between epoch checkpoints
    results_dir: str | None = None     # stream results out as parquet parts
    results_flush_rows: int = 1_000_000  # result rows the driver holds before it writes a results_dir part (every executor's rows reach the driver)
    politeness_delay: float = 0.0  # min seconds between fetches to one host (token bucket)

    respect_robots: bool = False  # consult the robots cache actor

    def __post_init__(self) -> None:
        if isinstance(self.redirects, str):
            self.redirects = RedirectsMode(self.redirects)
        if isinstance(self.require_https, str):
            self.require_https = RequireHttpsMode(self.require_https)
        self.status_codes = validate_status_codes(self.status_codes)
        # one pattern given as a string is that pattern, not a list of
        # one-character patterns
        if isinstance(self.links_to_skip, str):
            self.links_to_skip = [self.links_to_skip]
        if isinstance(self.fragments_to_skip, str):
            self.fragments_to_skip = [self.fragments_to_skip]
        rewrites = []
        for rw in self.url_rewrites:
            if isinstance(rw, UrlRewrite):
                rewrites.append(rw)
            elif isinstance(rw, (tuple, list)) and len(rw) == 2:
                rewrites.append(UrlRewrite.of(rw[0], rw[1]))
            elif isinstance(rw, dict):
                rewrites.append(UrlRewrite.of(rw["pattern"], rw["replacement"]))
            else:
                raise ValueError(f"invalid url rewrite: {rw!r}")
        self.url_rewrites = rewrites


VALID_CONFIG_EXTENSIONS = (".js", ".mjs", ".cjs", ".json", ".toml")


class _JsLiteralParser:
    """Recursive-descent parser for *static* JS object literals — the
    shape every real-world linkinator JS config takes (see the
    reference's own fixtures, test/fixtures/config/linkinator.config.js
    etc.: `export default {...}` / `module.exports = {...}` with plain
    values). Supports objects, arrays, single/double/template-quoted
    strings, numbers, true/false/null/undefined, unquoted identifier
    keys, trailing commas, and // and /* */ comments. Computed
    expressions (function calls, require(), arithmetic) are rejected
    with a clear message — a Python engine cannot execute JS; pass
    CheckOptions programmatically for computed config."""

    def __init__(self, src: str):
        self.src = src
        self.i = 0
        self.n = len(src)

    def error(self, msg: str):
        line = self.src.count("\n", 0, self.i) + 1
        raise ValueError(f"JS config parse error at line {line}: {msg}")

    def skip_ws(self):
        while self.i < self.n:
            c = self.src[self.i]
            if c in " \t\r\n":
                self.i += 1
            elif self.src.startswith("//", self.i):
                nl = self.src.find("\n", self.i)
                self.i = self.n if nl < 0 else nl + 1
            elif self.src.startswith("/*", self.i):
                end = self.src.find("*/", self.i + 2)
                if end < 0:
                    self.error("unterminated /* comment")
                self.i = end + 2
            else:
                return

    def parse_value(self):
        self.skip_ws()
        if self.i >= self.n:
            self.error("unexpected end of input")
        c = self.src[self.i]
        if c == "{":
            return self.parse_object()
        if c == "[":
            return self.parse_array()
        if c in "'\"`":
            return self.parse_string(c)
        if c == "-" or c.isdigit():
            return self.parse_number()
        word = re.match(r"[A-Za-z_$][A-Za-z0-9_$]*", self.src[self.i:])
        if word:
            w = word.group(0)
            consts = {"true": True, "false": False, "null": None,
                      "undefined": None}
            if w in consts:
                self.i += len(w)
                return consts[w]
            self.error(f"computed JS config not supported (saw '{w}'); "
                       "use a static object literal, JSON/TOML, or pass "
                       "CheckOptions programmatically")
        self.error(f"unexpected character {c!r}")

    def parse_object(self) -> dict:
        self.i += 1  # {
        out: dict[str, Any] = {}
        while True:
            self.skip_ws()
            if self.i < self.n and self.src[self.i] == "}":
                self.i += 1
                return out
            key = self.parse_key()
            self.skip_ws()
            if self.i >= self.n or self.src[self.i] != ":":
                self.error("expected ':' after object key")
            self.i += 1
            out[key] = self.parse_value()
            self.skip_ws()
            if self.i < self.n and self.src[self.i] == ",":
                self.i += 1
            elif self.i < self.n and self.src[self.i] == "}":
                continue
            else:
                self.error("expected ',' or '}' in object")

    def parse_key(self) -> str:
        c = self.src[self.i]
        if c in "'\"":
            return self.parse_string(c)
        word = re.match(r"[A-Za-z_$][A-Za-z0-9_$]*", self.src[self.i:])
        if not word:
            self.error("expected object key")
        self.i += len(word.group(0))
        return word.group(0)

    def parse_array(self) -> list:
        self.i += 1  # [
        out: list[Any] = []
        while True:
            self.skip_ws()
            if self.i < self.n and self.src[self.i] == "]":
                self.i += 1
                return out
            out.append(self.parse_value())
            self.skip_ws()
            if self.i < self.n and self.src[self.i] == ",":
                self.i += 1
            elif self.i < self.n and self.src[self.i] == "]":
                continue
            else:
                self.error("expected ',' or ']' in array")

    def parse_string(self, quote: str) -> str:
        self.i += 1
        buf = []
        escapes = {"n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f",
                   "0": "\0", "\\": "\\", "'": "'", '"': '"', "`": "`",
                   "\n": ""}
        while self.i < self.n:
            c = self.src[self.i]
            if c == quote:
                self.i += 1
                return "".join(buf)
            if c == "\\":
                self.i += 1
                if self.i >= self.n:
                    break
                e = self.src[self.i]
                if e == "u":
                    if self.src[self.i + 1: self.i + 2] == "{":
                        end = self.src.find("}", self.i)
                        buf.append(chr(int(self.src[self.i + 2:end], 16)))
                        self.i = end + 1
                    else:
                        cp = int(self.src[self.i + 1:self.i + 5], 16)
                        self.i += 5
                        # combine a \uD800-\uDBFF + \uDC00-\uDFFF
                        # surrogate-pair escape (JSON/JS semantics)
                        if 0xD800 <= cp <= 0xDBFF and \
                                self.src.startswith("\\u", self.i):
                            lo = int(self.src[self.i + 2:self.i + 6], 16)
                            if 0xDC00 <= lo <= 0xDFFF:
                                cp = 0x10000 + ((cp - 0xD800) << 10) \
                                    + (lo - 0xDC00)
                                self.i += 6
                        buf.append(chr(cp))
                    continue
                if e == "x":
                    buf.append(chr(int(self.src[self.i + 1:self.i + 3], 16)))
                    self.i += 3
                    continue
                buf.append(escapes.get(e, e))
                self.i += 1
                continue
            if quote == "`" and self.src.startswith("${", self.i):
                self.error("template-literal interpolation is computed "
                           "config; use a static string")
            buf.append(c)
            self.i += 1
        self.error("unterminated string")

    def parse_number(self):
        m = re.match(r"-?(?:0[xX][0-9a-fA-F]+|\d+\.?\d*(?:[eE][+-]?\d+)?|"
                     r"\.\d+(?:[eE][+-]?\d+)?)", self.src[self.i:])
        if not m:
            self.error("malformed number")
        self.i += len(m.group(0))
        text = m.group(0)
        if "0x" in text.lower():
            return int(text, 16)
        if "." in text or "e" in text or "E" in text:
            return float(text)
        return int(text)


# `export default {...}` / `module.exports = {...}` /
# `exports.default = {...}` / `const config = {...}; export default config`
_JS_EXPORT_RE = re.compile(
    r"(?:export\s+default|module\.exports\s*=|exports\.default\s*=)\s*",
)


def parse_js_config(source: str, path: str = "<config>") -> dict[str, Any]:
    """Extract the exported object from a static JS/MJS/CJS config
    module (src/config.ts:113-118 does a dynamic import(); here the
    static literal is parsed directly — same result for every config a
    linkinator user actually writes)."""
    m = _JS_EXPORT_RE.search(source)
    if not m:
        raise ValueError(
            f"{path}: no `export default`/`module.exports` object found; "
            "only static object-literal JS configs are supported")
    parser = _JsLiteralParser(source)
    parser.i = m.end()
    parser.skip_ws()
    if parser.i >= parser.n or parser.src[parser.i] != "{":
        # `export default config` referencing a const defined above:
        # resolve one level of identifier indirection.
        word = re.match(r"[A-Za-z_$][A-Za-z0-9_$]*",
                        source[parser.i:])
        if word:
            decl = re.search(
                r"(?:const|let|var)\s+" + re.escape(word.group(0)) +
                r"\s*=\s*\{", source)
            if decl:
                parser.i = decl.end() - 1
                return parser.parse_object()
        raise ValueError(f"{path}: exported value is not a static object "
                         "literal")
    value = parser.parse_object()
    if not isinstance(value, dict):
        raise ValueError(f"{path}: config must be an object")
    return value


def load_config(path: str) -> dict[str, Any]:
    """Load a config file. Flavors mirror the reference
    (src/config.ts:35,78-118): .json, and .js/.mjs/.cjs as static
    object-literal modules (parsed, not executed — computed config is
    served by passing CheckOptions programmatically), plus .toml as a
    Python-world extension. No extension ⇒ JSON (src/config.ts:100);
    any other extension is invalid (src/config.ts:105-110)."""
    ext = os.path.splitext(path)[1] or ".json"
    if ext not in VALID_CONFIG_EXTENSIONS:
        raise ValueError(
            "Config file should be either of extensions "
            + ",".join(VALID_CONFIG_EXTENSIONS))
    if ext == ".toml":
        import tomllib
        with open(path, "rb") as f:
            return tomllib.load(f)
    if ext in (".js", ".mjs", ".cjs"):
        with open(path, encoding="utf-8") as f:
            return parse_js_config(f.read(), path)
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as error:
            raise ValueError(f"Error parsing {path}: {error}") from error


_SPLIT_LIST_RE = re.compile(r"[\s,]+")

# Reference flag names that don't map to a CheckOptions field by a pure
# camelCase→snake_case rename (src/cli.ts:146-173; note the reference's
# own 'urlReWriteReplace' spelling at :171).
_REFERENCE_KEY_ALIASES = {
    "path": "paths",
    "skip": "links_to_skip",
    "skipFragment": "fragments_to_skip",
    "statusCode": "status_codes",
    "statusCodes": "status_codes",
    "urlReWriteReplace": "url_rewrite_replace",
}

# Config keys that configure the CLI (output), not CheckOptions
# (src/cli.ts:217-219); cli.main pops these before building options.
CLI_LEVEL_CONFIG_KEYS = ("format", "verbosity", "silent")


def _camel_to_snake(key: str) -> str:
    return re.sub(r"(?<=[a-z0-9])([A-Z])",
                  lambda m: "_" + m.group(1).lower(), key)


def _split_skip_list(value: Any) -> Any:
    """Reference skip semantics: each entry may itself be a comma/space
    list (src/cli.ts:365-386)."""
    if isinstance(value, str):
        value = [value]
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return [r for v in value for r in _SPLIT_LIST_RE.split(v) if r]
    return value


def normalize_config_keys(config: dict[str, Any]) -> dict[str, Any]:
    """Accept a config file written against the REFERENCE flag surface
    (camelCase keys, reference units/shapes — what an existing
    linkinator user's linkinator.config.* contains) and translate it to
    CheckOptions field names. snake_case keys pass through untouched,
    so configs written for this engine are unaffected; unit conversions
    apply only to the reference-form spellings."""
    out: dict[str, Any] = {}
    for key, value in config.items():
        reference_form = key in _REFERENCE_KEY_ALIASES or key != key.lower()
        nk = _REFERENCE_KEY_ALIASES.get(key, _camel_to_snake(key))
        if reference_form:
            if nk in ("links_to_skip", "fragments_to_skip"):
                value = _split_skip_list(value)
            elif nk == "paths" and isinstance(value, str):
                value = [value]
            elif nk == "status_codes" and isinstance(value, list):
                pairs = [str(v).split(":", 1) for v in value]
                value = {c: a for c, a in pairs}
            elif nk == "retry_errors_jitter" and isinstance(value, (int, float)):
                value = value / 1000.0  # reference unit is ms (src/cli.ts:169)
        out[nk] = value
    search = out.pop("url_rewrite_search", None)
    replace = out.pop("url_rewrite_replace", None)
    if search is not None and replace is not None:
        out["url_rewrites"] = [(search, replace)]
    elif search is not None or replace is not None:
        raise ValueError("urlRewriteSearch and urlRewriteReplace must be "
                         "used together")
    return out


def merge_config(flags: dict[str, Any], config: dict[str, Any]) -> dict[str, Any]:
    """CLI-over-config merge with undefined-stripping (src/config.ts:120-130):
    a flag explicitly set (non-None) wins over the config file value."""
    merged = dict(config)
    for key, value in flags.items():
        if value is not None:
            merged[key] = value
    return merged


def find_config(start_dir: str = ".") -> str | None:
    """Config file discovery. The reference auto-discovers only
    linkinator.config.json (src/config.ts:64-75); this engine extends
    discovery to the other valid flavors in validConfigExtensions order
    (src/config.ts:35), JSON first for reference parity, TOML last as
    the Python-world extension."""
    for ext in (".json", ".js", ".mjs", ".cjs", ".toml"):
        candidate = os.path.join(start_dir, "linkinator.config" + ext)
        if os.path.exists(candidate):
            return candidate
    return None
